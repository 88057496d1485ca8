"""Acceptance suite: one test per criterion, each printing a pass line with
its measured quantities and wall time (run with -s to see them inline).

Criteria are property-based plus scaled-down trend reproduction; headline
benchmark numbers are out of scope by design. Tolerances are pinned here,
not calibrated at runtime.
"""

import time

import numpy as np
import pytest

from xgblora import lowrank, models as mz, probes
from xgblora import tensor as tt
from xgblora.boosting import (
    BoostConfig,
    BoostRun,
    CostModel,
    boost_step,
    cost_model_estimate,
    lora_config,
    xgblora_fit,
)
from xgblora.checkpoint import CheckpointState, load_checkpoint, save_checkpoint
from xgblora.lora import init_adapter_set, merge_adapters, param_count
from xgblora.models import Role, WeightId, build_mlp, build_transformer
from xgblora.reporting import MetricsWriter, emit_report
from xgblora.tasks import gen_sequence_dataset, gen_teacher_dataset
from xgblora.tensor import Rng, Tensor


def _report(name, started, detail=""):
    took = time.monotonic() - started
    print(f"[PASS] {name} ({took:.1f}s) {detail}")


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.sqrt(((a - b) ** 2).sum()) / max(np.sqrt((b * b).sum()), 1e-12)


class TestCriterion01GradientOracle:
    """Every autodiff kernel and a composed network match central finite
    differences with relative error < 1e-4 at f64."""

    TOL = 1e-4

    def _check(self, build_loss, params):
        loss = build_loss()
        loss.backward()
        grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
        for p, g in zip(params, grads):
            fd = tt.finite_diff_gradient(lambda: build_loss().item(), p, eps=1e-6)
            assert rel_err(g, fd) < self.TOL
            p.zero_grad()

    def test_criterion_1(self):
        started = time.monotonic()
        rng = Rng(0xACCE)

        def t(shape, scale=1.0):
            return Tensor(rng.gaussian(shape) * scale, requires_grad=True)

        checked = 0
        # matmul
        a, b = t((3, 4)), t((4, 5))
        self._check(lambda: tt.tsum(tt.mul(a @ b, a @ b)), [a, b])
        checked += 1
        # add / sub / mul (with broadcasting)
        x, y = t((2, 3, 4)), t((4,))
        self._check(lambda: tt.tsum(tt.mul(tt.add(x, y), tt.sub(x, y))), [x, y])
        checked += 1
        # relu
        r = Tensor([-1.0, -0.3, 0.2, 1.7], requires_grad=True)
        self._check(lambda: tt.tsum(tt.mul(tt.relu(r), r)), [r])
        checked += 1
        # gelu
        g = t((3, 3))
        self._check(lambda: tt.tsum(tt.mul(tt.gelu(g), g)), [g])
        checked += 1
        # softmax
        s = t((4, 6))
        w = Tensor(rng.gaussian((4, 6)))
        self._check(lambda: tt.tsum(tt.mul(tt.softmax(s), w)), [s])
        checked += 1
        # layer norm
        ln = t((3, 8))
        w2 = Tensor(rng.gaussian((3, 8)))
        self._check(lambda: tt.tsum(tt.mul(tt.layer_norm(ln), w2)), [ln])
        checked += 1
        # embedding gather
        table = t((6, 4))
        ids = np.array([[0, 2, 5], [3, 3, 1]])
        self._check(lambda: tt.tsum(tt.mul(tt.embedding(table, ids), tt.embedding(table, ids))), [table])
        checked += 1
        # reshape + axis sum + transpose
        q = t((2, 6))
        self._check(
            lambda: tt.tsum(
                tt.mul(
                    tt.transpose(tt.tsum(tt.reshape(q, (2, 3, 2)), axis=2)),
                    tt.transpose(tt.tsum(tt.reshape(q, (2, 3, 2)), axis=2)),
                )
            ),
            [q],
        )
        checked += 1
        # last sequence position
        lp = t((2, 3, 4))
        w3 = Tensor(rng.gaussian((2, 4)))
        self._check(lambda: tt.tsum(tt.mul(tt.last_position(lp), w3)), [lp])
        checked += 1
        # cross entropy
        z = t((6, 4))
        labels = np.array([0, 1, 2, 3, 2, 1])
        self._check(lambda: tt.cross_entropy_logits(z, labels), [z])
        checked += 1
        # mse
        m = t((5, 3))
        tgt = rng.gaussian((5, 3))
        self._check(lambda: tt.mse(m, tgt), [m])
        checked += 1
        # composed 3-layer network end to end
        w1, w2_, w3 = t((8, 5), 0.5), t((6, 8), 0.5), t((2, 6), 0.5)
        xin = Tensor(rng.gaussian((4, 5)))
        tout = rng.gaussian((4, 2))

        def chain():
            h = xin @ tt.transpose(w1)
            h = tt.gelu(h @ tt.transpose(w2_))
            return tt.mse(h @ tt.transpose(w3), tout)

        self._check(chain, [w1, w2_, w3])
        checked += 1
        # linear (x @ wᵀ) on a 2-D and a 3-D input
        lw = t((5, 4))
        for lx in (t((3, 4)), t((2, 3, 4))):
            self._check(lambda: tt.tsum(tt.mul(tt.linear(lx, lw), tt.linear(lx, lw))), [lx, lw])
        checked += 1
        # full transformer loss through every kernel at once
        model = build_transformer(vocab=5, d_model=8, n_layers=1, n_heads=2, d_ff=16, rng=Rng(5), max_seq=4)
        batch = mz.Dataset(np.array([[1, 2, 3, 4], [0, 4, 2, 1]]), np.array([1, 3]))
        for wtensor in model.weights.values():
            wtensor.requires_grad = True
        params = [model.weights[k] for k in sorted(model.weights, key=mz.sort_key)]
        self._check(lambda: mz.batch_loss(model, batch), params)
        checked += 1

        took = time.monotonic() - started
        assert took < 30.0
        _report("criterion 1 gradient oracle", started, f"{checked} kernel groups, tol {self.TOL}")


class TestCriterion02MergeEquivalence:
    def test_criterion_2(self):
        started = time.monotonic()
        # 100 random (model, adapters, input) triples
        for i in range(100):
            rng = Rng(9000 + i)
            if i % 2 == 0:
                model = build_mlp([4 + i % 3, 6, 3], rng=rng)
                x = rng.gaussian((3, 4 + i % 3))
            else:
                model = build_transformer(vocab=5, d_model=8, n_layers=1 + i % 2,
                                          n_heads=2, d_ff=12, rng=rng, max_seq=6)
                x = np.array([[i % 5, (i + 1) % 5, (i + 2) % 5]])
            policy = "all" if i % 3 == 0 else "qv"
            adapters = init_adapter_set(
                model, mz.list_adaptable_weights(model, policy=policy), r=1 + i % 3, rng=rng
            )
            for pair in adapters.pairs.values():
                pair.a.data = rng.gaussian(pair.a.shape) * 0.3
                pair.b.data = rng.gaussian(pair.b.shape) * 0.3
            adapted = mz.forward(model, x, adapters=adapters).data.copy()
            merge_adapters(model, adapters)
            merged = mz.forward(model, x).data
            assert np.array_equal(adapted, merged)

        # in-loop continuity across every merge of a 20-booster run
        data, task = gen_teacher_dataset("teacher-matrix", [8, 8], n=64, seed=2)
        model = task.make_student()
        cfg = BoostConfig(iterations=20, steps_per_booster=4, rank=2, sample_layers=1,
                          eta=0.5, batch_size=16, seed=5, record_merge_loss=True)
        _, traces = xgblora_fit(model, data, cfg)
        assert len(traces) == 20
        for trace in traces:
            assert trace.pre_merge_loss == trace.post_merge_loss

        took = time.monotonic() - started
        assert took < 60.0
        _report("criterion 2 merge equivalence", started, "100 triples + 20 merges, bitwise equal")


class TestCriterion03LoraReduction:
    def test_criterion_3(self):
        started = time.monotonic()
        k = 200
        data, task = gen_teacher_dataset("teacher-mlp", [6, 8, 4], n=64, seed=4)
        model_a = task.make_student()
        model_b = task.make_student()
        cfg = BoostConfig(iterations=1, steps_per_booster=k, rank=4,
                          sample_layers=model_a.layers, eta=0.3, batch_size=8, seed=77)
        xgblora_fit(model_a, data, cfg)
        xgblora_fit(model_b, data, lora_config(model_b, k, rank=4, eta=0.3, batch_size=8, seed=77))
        for wid in model_a.weights:
            assert np.array_equal(model_a.weights[wid].data, model_b.weights[wid].data)
        took = time.monotonic() - started
        assert took < 60.0
        _report("criterion 3 plain-adaptation reduction", started, f"bit-identical after K={k}")


class TestCriterion04UpdateNormBound:
    def test_criterion_4(self):
        started = time.monotonic()
        corpus = probes.run_booster_corpus(
            r_values=(1, 4, 8), kappa_values=(1, 8, 32), boosters_per_config=6, eta=0.3, seed=1
        )
        assert len(corpus) >= 50
        report = probes.update_norm_probe(corpus)
        assert report.checks["zero_violations"]
        worst = max(p.values[0] for p in report.points)
        took = time.monotonic() - started
        assert took < 180.0
        _report(
            "criterion 4 update-norm bound",
            started,
            f"{len(corpus)} boosters, worst tightness ratio {worst:.3f}, 0 violations",
        )


class TestCriterion05TruncationOracle:
    def test_criterion_5(self):
        started = time.monotonic()
        rng = Rng(1234)
        for i in range(50):
            m = 8 + rng.randint(57)  # up to 64
            n = 8 + rng.randint(89)  # up to 96
            mat = rng.gaussian((m, n))
            r = 1 + rng.randint(min(m, n))
            got = lowrank.svd_topr(mat, r)
            err_sq = float(((mat - got.approx) ** 2).sum())
            # the same LAPACK routine as svd_topr: the independent checks are the
            # reconstruction error equal to the tail, orthonormal factors,
            # ordering and the norm identity
            s_oracle = np.linalg.svd(mat, compute_uv=False)
            tail_oracle = float((s_oracle[r:] ** 2).sum())
            assert err_sq == pytest.approx(tail_oracle, rel=1e-8, abs=1e-10)
            assert err_sq == pytest.approx(got.tail_sq, rel=1e-8, abs=1e-10)

        # floor dominance inside the gradient-approximation probe
        data, task = gen_teacher_dataset("teacher-matrix", [16, 16], n=256, seed=42)
        rep = probes.gradient_approx_probe(task, data, r_grid=(1, 4, 16), m_grid=(8, 32), seeds=range(3))
        assert rep.checks["floor_dominated"]
        took = time.monotonic() - started
        assert took < 120.0
        _report("criterion 5 truncation oracle", started, "50 matrices rel 1e-8 + floor dominance")


class TestCriterion06GradientApproxTrend:
    def test_criterion_6(self):
        started = time.monotonic()
        data, task = gen_teacher_dataset("teacher-matrix", [16, 16], n=256, seed=42)
        rep_r = probes.gradient_approx_probe(task, data, r_grid=(1, 2, 4, 8, 16), m_grid=(32,), seeds=range(5))
        assert rep_r.checks["nonincreasing_in_r"], [
            (p.params, p.mean, p.std) for p in rep_r.points
        ]
        rep_m = probes.gradient_approx_probe(task, data, r_grid=(2,), m_grid=(4, 16, 64), seeds=range(5))
        assert rep_m.checks["nonincreasing_in_m"], [
            (p.params, p.mean, p.std) for p in rep_m.points
        ]
        r_means = [f"{p.mean:.3f}±{p.std:.3f}" for p in rep_r.points]
        took = time.monotonic() - started
        assert took < 300.0
        _report("criterion 6 rank/minibatch error trend", started, f"r-sweep means {r_means}")


class TestCriterion07ConvergenceShape:
    def test_criterion_7(self):
        started = time.monotonic()
        data, task = gen_teacher_dataset("teacher-matrix", [8, 8], n=128, seed=11, noise=0.2)
        rep = probes.convergence_sweep(
            task, data, t_grid=(1, 4, 16, 64), r_grid=(1,), kappa=8,
            seeds=range(5), eta=2.6, batch_size=128,
        )
        means = [rep.point(r=1, t=t).mean for t in (1, 4, 16, 64)]
        assert all(means[i + 1] < means[i] for i in range(3)), means
        r2 = rep.constants.fit_r2["gap_fit"]
        assert r2 >= 0.9, r2
        assert rep.constants.mu > 0  # strong convexity verified, not assumed
        took = time.monotonic() - started
        assert took < 300.0
        _report(
            "criterion 7 convergence shape",
            started,
            f"gaps {[f'{m:.3f}' for m in means]}, fit R2={r2:.3f}",
        )


class TestCriterion08ExpressivenessTradeoff:
    def test_criterion_8(self):
        started = time.monotonic()
        data, task = gen_teacher_dataset(
            "teacher-matrix", [16, 16], n=128, seed=5, delta_kind="rotation", delta_scale=4.0
        )
        rep = probes.expressiveness_sweep(
            task, data, total_steps=512,
            rt_grid=((1, 64), (8, 1), (1, 1)), seeds=range(5), batch_size=128,
        )
        xgb = rep.point(r=1, t=64)
        lora8 = rep.point(r=8, t=1)
        lora1 = rep.point(r=1, t=1)
        margin8 = 2 * probes.pooled_std(xgb.values, lora8.values)
        margin1 = 2 * probes.pooled_std(xgb.values, lora1.values)
        assert xgb.mean <= lora8.mean + margin8, (xgb.mean, lora8.mean, margin8)
        assert xgb.mean <= lora1.mean + margin1, (xgb.mean, lora1.mean, margin1)
        took = time.monotonic() - started
        assert took < 600.0
        _report(
            "criterion 8 rank-iterations trade-off",
            started,
            f"boosted r1xT64 {xgb.mean:.3f} vs r8xT1 {lora8.mean:.3f} vs r1xT1 {lora1.mean:.3f}",
        )


class TestCriterion09KappaSweep:
    def test_criterion_9(self):
        started = time.monotonic()
        train = gen_sequence_dataset("parity", seq_len=4, n=256, seed=0)
        total = 512

        def builder():
            return build_transformer(vocab=2, d_model=32, n_layers=4, n_heads=4,
                                     d_ff=64, rng=Rng(1), max_seq=4)

        # sample_layers=2 of 4 keeps the random-subset semantics: the
        # single-booster endpoint adapts one fixed subset for the whole
        # budget, shorter boosters rotate subsets across the network
        rep = probes.kappa_sweep(
            train, builder, total_steps=total, kappa_grid=(4, 8, 64, total),
            seeds=(0, 1, 2, 3, 4), eta_grid=(0.5, 1.0), sample_layers=2,
        )
        acc = {p.params["kappa"]: p.mean for p in rep.points}
        assert rep.checks["max_at_moderate_kappa"], acc
        assert rep.checks["kappa_full_budget_strictly_worse"], acc
        best_kappa = max(acc, key=acc.get)
        assert best_kappa <= 64
        assert acc[total] < acc[best_kappa]
        took = time.monotonic() - started
        assert took < 900.0
        _report(
            "criterion 9 steps-per-booster sweep",
            started,
            "acc " + " ".join(f"k{k}={v:.3f}" for k, v in sorted(acc.items())),
        )


class TestCriterion10CostModel:
    def test_criterion_10(self):
        started = time.monotonic()
        base = dict(alpha_cost=1.0, beta_cost=0.0, layers=32, total_steps=1000, full_rank=8)
        lora_total = cost_model_estimate(CostModel(**base), "lora")["total"]
        assert lora_total == pytest.approx(32000.0, abs=1e-9)
        xgb_r8 = cost_model_estimate(
            CostModel(**base, iterations=10, rank=8, adapted_layers=32 / 3), "xgblora"
        )["total"]
        assert xgb_r8 == pytest.approx(10666.7, abs=0.1)
        xgb_r1 = cost_model_estimate(
            CostModel(**base, iterations=10, rank=1, adapted_layers=32 / 3), "xgblora"
        )["total"]
        assert xgb_r1 == pytest.approx(1333.3, abs=0.1)
        took = time.monotonic() - started
        assert took < 1.0
        _report("criterion 10 cost model", started, f"{lora_total:.0f} / {xgb_r8:.1f} / {xgb_r1:.1f}")


class TestCriterion11ParamAccounting:
    def test_criterion_11(self):
        started = time.monotonic()
        rng = Rng(31)
        for i in range(20):
            if i % 2 == 0:
                dims = [4 + rng.randint(8) for _ in range(2 + rng.randint(3))]
                model = build_mlp(dims, rng=rng)
                policy = "qv"  # policy irrelevant for dense mlp weights
            else:
                heads = 2
                model = build_transformer(
                    vocab=5 + rng.randint(20),
                    d_model=heads * (2 + rng.randint(6)),
                    n_layers=1 + rng.randint(3),
                    n_heads=heads,
                    d_ff=8 + rng.randint(24),
                    rng=rng,
                )
                policy = "all" if i % 3 == 0 else "qv"
            r = 1 + rng.randint(8)
            targets = mz.list_adaptable_weights(model, policy=policy)
            got = param_count(model, init_adapter_set(model, targets, r, Rng(0)))
            walk_total = 0
            walk_trainable = 0
            adaptable = set(targets)
            for wid, w in model.weights.items():
                walk_total += int(np.prod(w.shape))
                if wid in adaptable:
                    walk_trainable += (w.shape[0] + w.shape[1]) * r
            assert got["total"] == walk_total
            assert got["trainable"] == walk_trainable
        full = param_count(build_mlp([7, 7], rng=Rng(1)))
        assert full["permille"] == 1000.0
        took = time.monotonic() - started
        assert took < 10.0
        _report("criterion 11 parameter accounting", started, "20 model/policy walks + 1000 permille")


class TestCriterion13OperationalShell:
    def test_criterion_13(self, tmp_path):
        started = time.monotonic()
        # checkpoint round trip, bitwise
        model = build_transformer(vocab=7, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=Rng(8))
        ck = tmp_path / "m.xgbl"
        save_checkpoint(ck, CheckpointState(model, step=5, booster=2, rng_state=42))
        loaded = load_checkpoint(ck)
        for wid in model.weights:
            assert np.array_equal(loaded.model.weights[wid].data, model.weights[wid].data)
        ids = np.array([[1, 2, 3]])
        assert np.array_equal(mz.forward(loaded.model, ids).data, mz.forward(model, ids).data)

        # interrupted + resumed equals uninterrupted, bitwise
        data, task = gen_teacher_dataset("teacher-matrix", [6, 6], n=64, seed=2)
        cfg = BoostConfig(iterations=4, steps_per_booster=5, rank=2, sample_layers=1,
                          eta=0.4, batch_size=8, seed=13)
        ref = task.make_student()
        xgblora_fit(ref, data, cfg)
        part = task.make_student()
        run = BoostRun.start(part, data, cfg)
        boost_step(run, stop_after_step=7)
        mid = tmp_path / "mid.xgbl"
        run.save(mid)
        state = load_checkpoint(mid)
        resumed = BoostRun.resume(state, data, cfg)
        boost_step(resumed)
        for wid in ref.weights:
            assert np.array_equal(ref.weights[wid].data, state.model.weights[wid].data)

        # report regeneration is byte-deterministic
        csv_dir = tmp_path / "csv"
        csv_dir.mkdir()
        with MetricsWriter(str(csv_dir / "run.csv"), "demo", 3.5) as mw:
            for i, loss in enumerate([1.0, 0.5, 0.2], start=1):
                mw.write_step(i, i * 4, loss, 8)
        out1, out2 = tmp_path / "rep1", tmp_path / "rep2"
        emit_report(str(csv_dir), str(out1))
        emit_report(str(csv_dir), str(out2))
        assert (out1 / "report.md").read_bytes() == (out2 / "report.md").read_bytes()
        assert (out1 / "loss_curves.svg").read_bytes() == (out2 / "loss_curves.svg").read_bytes()

        took = time.monotonic() - started
        assert took < 60.0
        _report("criterion 13 operational shell", started, "round-trip + resume + report bytes")
