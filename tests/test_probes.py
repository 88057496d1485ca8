from functools import partial

import numpy as np
import pytest

from xgblora import models as mz
from xgblora import probes
from xgblora.models import Role, WeightId
from xgblora.probes import (
    GridPoint,
    ProbeReport,
    convergence_sweep,
    expressiveness_sweep,
    gradient_approx_probe,
    lipschitz_probe,
    pooled_std,
    quadratic_curvature,
    quadratic_gradient,
    run_booster_corpus,
    update_norm_probe,
)
from xgblora.tasks import gen_teacher_dataset
from xgblora.tensor import Rng, frobenius_norm


@pytest.fixture(scope="module")
def quad16():
    return gen_teacher_dataset("teacher-matrix", [16, 16], n=256, seed=42)


class TestGradientApproxProbe:
    def test_full_rank_error_near_floor(self, quad16):
        data, task = quad16
        rep = gradient_approx_probe(task, data, r_grid=[16], m_grid=[64], seeds=range(3))
        p = rep.point(r=16, m=64)
        # floor at full rank is zero; the estimate collapses to the
        # minibatch average, which approaches the full gradient
        assert np.mean(p.extras["floor"]) < 1e-12
        assert p.mean < 0.2

    def test_error_nonincreasing_in_rank(self, quad16):
        data, task = quad16
        rep = gradient_approx_probe(task, data, r_grid=[1, 2, 4, 8, 16], m_grid=[32], seeds=range(5))
        assert rep.checks["nonincreasing_in_r"]
        means = [rep.point(r=r, m=32).mean for r in (1, 2, 4, 8, 16)]
        assert means[-1] < means[0]  # the trend is real, not flat

    def test_error_nonincreasing_in_minibatches(self, quad16):
        data, task = quad16
        rep = gradient_approx_probe(task, data, r_grid=[2], m_grid=[4, 16, 64], seeds=range(5))
        assert rep.checks["nonincreasing_in_m"]

    def test_floor_dominates_everywhere(self, quad16):
        data, task = quad16
        rep = gradient_approx_probe(task, data, r_grid=[1, 4], m_grid=[8, 32], seeds=range(3))
        assert rep.checks["floor_dominated"]
        for p in rep.points:
            for v, f in zip(p.values, p.extras["floor"]):
                assert v >= f - 1e-9

    def test_nonnegative_constants(self, quad16):
        data, task = quad16
        rep = gradient_approx_probe(task, data, r_grid=[1, 4], m_grid=[8, 32], seeds=range(3))
        assert rep.constants.fitted["c1"] >= 0
        assert rep.constants.fitted["c2"] >= 0

    def test_rejects_deep_model(self):
        data, task = gen_teacher_dataset("teacher-mlp", [6, 6, 6], n=32, seed=1)
        with pytest.raises(ValueError, match="single-matrix"):
            gradient_approx_probe(task, data, r_grid=[1], m_grid=[4], seeds=range(2))


class TestUpdateNormProbe:
    def test_standard_corpus_zero_violations(self):
        corpus = run_booster_corpus(r_values=(1, 4), kappa_values=(1, 8), boosters_per_config=3)
        rep = update_norm_probe(corpus)
        assert rep.checks["zero_violations"]
        assert all(p.values[0] <= 1.0 + 1e-9 for p in rep.points)

    def test_eta_zero_traces(self):
        corpus = run_booster_corpus(r_values=(2,), kappa_values=(4,), boosters_per_config=2, eta=0.0)
        rep = update_norm_probe(corpus)
        assert rep.checks["zero_violations"]
        for p in rep.points:
            assert p.values[0] == 0.0  # ratio defined as 0 when bound is 0

    def test_single_step_recursion_base(self):
        """kappa=1: B moves by exactly eta*|grad_B| and A stays at init."""
        corpus = run_booster_corpus(r_values=(2,), kappa_values=(1,), boosters_per_config=4, eta=0.3)
        rep = update_norm_probe(corpus)
        assert rep.checks["zero_violations"]
        for (trace, eta) in corpus:
            for ps in trace.pair_stats.values():
                assert ps.a_update_norm == 0.0  # dA = grad @ B0ᵀ = 0 at the only step
                assert ps.b_norm == pytest.approx(eta * 1 * ps.grad_max, rel=1e-12)

    def test_g_max_recorded(self):
        corpus = run_booster_corpus(r_values=(1,), kappa_values=(8,), boosters_per_config=2)
        rep = update_norm_probe(corpus)
        assert rep.constants.g_max > 0


def _tape_gradient(model, data, wid, w_value):
    """The task-loss gradient at one weight value, through the tape."""
    model.weights[wid].data = np.asarray(w_value)
    model.weights[wid].requires_grad = True
    mz.batch_loss(model, data).backward()
    grad = model.weights[wid].grad
    model.weights[wid].requires_grad = False
    model.weights[wid].grad = None
    return grad


def _per_pair_lipschitz(grad_fn, shape, n_pairs, radius, rng):
    """The pair-by-pair estimate: one draw per direction, one gradient per
    weight; `lipschitz_probe` must give the same number from its bulk draw
    and stacked gradients."""
    best = 0.0
    for i in range(n_pairs):
        if i % 2 == 0:
            d1 = rng.gaussian(shape)
            d2 = rng.gaussian(shape)
        else:
            u1, v1 = rng.gaussian((shape[0],)), rng.gaussian((shape[1],))
            u2, v2 = rng.gaussian((shape[0],)), rng.gaussian((shape[1],))
            d1, d2 = np.outer(u1, v1), np.outer(u2, v2)
        w1 = radius * d1
        w2 = radius * d2
        dw = frobenius_norm(w1 - w2)
        if dw < 1e-12:
            continue
        dg = frobenius_norm(grad_fn(w1) - grad_fn(w2))
        best = max(best, dg / dw)
    return best


class TestLipschitzProbe:
    def test_quadratic_closed_form(self):
        """grad of 0.5*|Wx - y|^2 has Lipschitz constant |x|^2."""
        rng = Rng(99)
        x = rng.gaussian((4,))
        y = rng.gaussian((3,))

        def grad(ws):
            return (ws @ x - y)[:, :, None] * x

        report = lipschitz_probe(grad, (3, 4), n_pairs=4000, radius=1.0, rng=Rng(7))
        target = float(x @ x)
        est = report.constants.lipschitz
        assert est <= target * (1 + 1e-9)
        assert est >= 0.95 * target
        assert report.point(n_pairs=4000).values == [est]
        assert report.checks == {"positive": True}

    def test_coincident_pairs_skipped(self):
        def grad(ws):
            return ws

        report = lipschitz_probe(grad, (2, 2), n_pairs=50, radius=1e-30, rng=Rng(1))
        # radius so small every pair is (numerically) coincident: no ratios
        assert report.constants.lipschitz == 0.0
        assert report.checks == {"positive": False}

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            lipschitz_probe(lambda ws: ws, (2, 2), n_pairs=5, radius=0.0, rng=Rng(1))

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match=f"^radius must be finite and > 0, got {radius}$"):
            lipschitz_probe(lambda ws: ws, (2, 2), n_pairs=5, radius=radius, rng=Rng(1))

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4), 6])
    def test_shape_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="^shape must be 2-D"):
            lipschitz_probe(lambda ws: ws, shape, n_pairs=5, radius=1.0, rng=Rng(1))

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_n_pairs_must_be_positive(self, n_pairs):
        with pytest.raises(ValueError, match=f"^n_pairs must be >= 1, got {n_pairs}$"):
            lipschitz_probe(lambda ws: ws, (2, 2), n_pairs=n_pairs, radius=1.0, rng=Rng(1))

    @pytest.mark.parametrize("n_pairs", [200, 201])
    def test_equals_per_pair_tape_reference(self, n_pairs):
        """Bulk draws and one stacked gradient give the pair-by-pair tape
        estimate bit for bit, for an even and an odd pair count, and leave
        the generator where the per-pair draws leave it."""
        data, task = gen_teacher_dataset("teacher-matrix", [6, 4], n=64, seed=0)
        model = task.make_student()
        wid = WeightId(1, Role.MLP_DENSE)
        shape = model.weights[wid].shape
        bulk, ref = Rng(5), Rng(5)
        report = lipschitz_probe(partial(quadratic_gradient, data), shape, n_pairs, 1.0, bulk)
        expected = _per_pair_lipschitz(
            partial(_tape_gradient, model, data, wid), shape, n_pairs, 1.0, ref
        )
        assert report.constants.lipschitz == expected > 0
        assert bulk.state == ref.state


class TestQuadraticGradient:
    @pytest.mark.parametrize("dims,n", [([6, 4], 64), ([16, 16], 256), ([12, 12], 96)])
    def test_equals_tape_gradient_bit_for_bit(self, dims, n):
        data, task = gen_teacher_dataset("teacher-matrix", dims, n=n, seed=4)
        model = task.make_student()
        wid = WeightId(1, Role.MLP_DENSE)
        k, d = model.weights[wid].shape
        rng = Rng(11)
        ws = np.concatenate([rng.gaussian((6, k, d)), rng.gaussian((k, 1)) * rng.gaussian((3, 1, d))])
        stacked = quadratic_gradient(data, ws)
        assert stacked.shape == ws.shape and stacked.flags.c_contiguous
        for w, g in zip(ws, stacked):
            single = quadratic_gradient(data, w[None])
            assert single.flags.c_contiguous
            tape = _tape_gradient(model, data, wid, w)
            assert np.array_equal(g, tape)
            assert np.array_equal(single[0], tape)


class TestQuadraticCurvature:
    def test_matches_library_eigs(self):
        data, _ = gen_teacher_dataset("teacher-matrix", [6, 3], n=200, seed=8)
        beta, mu = quadratic_curvature(data)
        x = data.inputs
        w = np.linalg.eigvalsh(x.T @ x) * 2.0 / (x.shape[0] * 3)
        assert beta == pytest.approx(w[-1], rel=1e-6)
        assert mu == pytest.approx(w[0], rel=1e-4)
        assert mu > 0


@pytest.fixture(scope="module")
def quad_noisy():
    return gen_teacher_dataset("teacher-matrix", [8, 8], n=128, seed=11, noise=0.2)


@pytest.fixture(scope="module")
def rotation_teacher():
    return gen_teacher_dataset(
        "teacher-matrix", [12, 12], n=96, seed=5, delta_kind="rotation", delta_scale=3.5
    )


class TestConvergenceSweep:

    def test_gap_decreases_in_iterations(self, quad_noisy):
        data, task = quad_noisy
        rep = convergence_sweep(task, data, t_grid=[1, 4, 16], r_grid=[1], kappa=8,
                                seeds=range(3), eta=2.6, batch_size=128)
        assert rep.checks["gap_nonincreasing_in_t_r1"]
        means = [rep.point(r=1, t=t).mean for t in (1, 4, 16)]
        assert means[2] < means[0]

    def test_gap_decreases_in_rank_when_capacity_binds(self, quad_noisy):
        data, task = quad_noisy
        rep = convergence_sweep(task, data, t_grid=[1], r_grid=[1, 4, 8], kappa=64,
                                seeds=range(3), eta=1.0, batch_size=128)
        assert rep.checks["gap_nonincreasing_in_r_t1"]

    def test_curvature_reported(self, quad_noisy):
        data, task = quad_noisy
        rep = convergence_sweep(task, data, t_grid=[1, 4], r_grid=[1], kappa=8,
                                seeds=range(2), eta=2.0, batch_size=128)
        assert rep.constants.beta > rep.constants.mu > 0

    def test_nonconvex_task_rejected(self):
        data, task = gen_teacher_dataset("teacher-mlp", [4, 8, 4], n=32, seed=2)
        with pytest.raises(ValueError, match="convex"):
            convergence_sweep(task, data, t_grid=[1], r_grid=[1], kappa=2, seeds=range(2))

    def test_full_rank_long_training_closes_gap(self):
        # boosters long enough to converge within one; later merges keep it
        data, task = gen_teacher_dataset("teacher-matrix", [4, 4], n=64, seed=3)
        rep = convergence_sweep(task, data, t_grid=[8], r_grid=[4], kappa=512,
                                seeds=range(2), eta=1.0, batch_size=64)
        assert rep.point(r=4, t=8).mean < 1e-6


class TestExpressivenessSweep:
    def test_full_rank_single_adapter_reaches_teacher(self, rotation_teacher):
        data, task = rotation_teacher
        rep = expressiveness_sweep(task, data, total_steps=512, rt_grid=[(12, 1)],
                                   seeds=range(2), batch_size=96)
        assert rep.point(r=12, t=1).mean < 1e-3

    def test_boosted_rank1_beats_single_rank1(self, rotation_teacher):
        data, task = rotation_teacher
        rep = expressiveness_sweep(task, data, total_steps=256, rt_grid=[(1, 32), (1, 1)],
                                   seeds=range(3), batch_size=96)
        xgb = rep.point(r=1, t=32)
        single = rep.point(r=1, t=1)
        assert xgb.mean <= single.mean + 2 * pooled_std(xgb.values, single.values)

    def test_indivisible_budget_rejected(self, rotation_teacher):
        data, task = rotation_teacher
        with pytest.raises(ValueError, match="divide"):
            expressiveness_sweep(task, data, total_steps=100, rt_grid=[(1, 3)], seeds=range(2))

    def test_eta_recorded_per_arm(self, rotation_teacher):
        data, task = rotation_teacher
        rep = expressiveness_sweep(task, data, total_steps=64, rt_grid=[(1, 8)],
                                   seeds=range(2), eta_grid=(1.0,), batch_size=96)
        assert rep.point(r=1, t=8).extras["eta"] == [1.0, 1.0]


class TestPickStepSize:
    """Both sweeps choose each arm's step size through _pick_step_size."""

    def test_lowest_finite_score_wins_and_ties_keep_the_earlier(self):
        scores = {0.5: 2.0, 1.0: float("nan"), 2.0: 1.0, 3.0: 1.0, 4.0: float("inf")}
        got = probes._pick_step_size(scores, (0, 1), lambda eta, seed: (scores[eta], f"run{eta}/{seed}"),
                                     arm="demo")
        assert got == (2.0, ["run2.0/0", "run2.0/1"])

    def test_all_disqualified_names_the_arm(self):
        def fit(eta, seed):
            if eta > 1:
                raise FloatingPointError("diverged")
            return float("nan"), None

        with pytest.raises(FloatingPointError, match="kappa=4"):
            probes._pick_step_size((1.0, 2.0), (0,), fit, arm="kappa=4")

    def test_one_diverging_seed_disqualifies_its_eta(self):
        """The best-scoring candidate loses when one of its seeds diverges,
        also when its fits run in forked workers."""

        def fit(eta, seed):
            if eta == 2.0 and seed == 1:
                raise FloatingPointError("diverged")
            return 1.0 / eta, (eta, seed)

        assert probes._pick_step_size((0.5, 1.0, 2.0), (0, 1, 2), fit, arm="demo") == (
            1.0, [(1.0, 0), (1.0, 1), (1.0, 2)])

    def test_kappa_sweep_skips_a_nan_candidate(self):
        from xgblora.models import build_transformer
        from xgblora.tasks import gen_sequence_dataset

        train = gen_sequence_dataset("parity", seq_len=4, n=32, seed=0)

        def builder():
            return build_transformer(vocab=2, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                                     rng=Rng(1), max_seq=4)

        def sweep(eta_grid):
            return probes.kappa_sweep(train, builder, total_steps=1, kappa_grid=(1,), seeds=(0,),
                                      eta_grid=eta_grid, batch_size=8)

        with pytest.raises(FloatingPointError, match="kappa=1"):
            sweep((1e300,))  # one step at 1e300 leaves a NaN train loss
        assert sweep((1e300, 0.5)).point(kappa=1).extras["eta"] == [0.5]

    def test_expressiveness_sweep_skips_a_nan_candidate(self, rotation_teacher, monkeypatch):
        data, task = rotation_teacher
        real = probes.loss_eval

        def nan_on_overflow(model, data):
            # the teacher's loss overflows to inf; read it as the NaN a
            # transformer's softmax gives
            value = real(model, data)
            return value if np.isfinite(value) else float("nan")

        monkeypatch.setattr(probes, "loss_eval", nan_on_overflow)
        rep = expressiveness_sweep(task, data, total_steps=1, rt_grid=[(1, 1)], seeds=range(2),
                                   eta_grid=(1e300, 0.5), batch_size=16)
        assert rep.point(r=1, t=1).extras["eta"] == [0.5, 0.5]


class TestProbeReport:
    def _tiny_report(self):
        rep = ProbeReport(probe="demo")
        p = GridPoint(params={"r": 1, "m": 2})
        p.values = [0.5, 0.75]
        p.extras["floor"] = [0.1, 0.2]
        rep.points.append(p)
        rep.checks["ok"] = True
        return rep

    def test_csv_rows_one_per_replicate(self):
        rows = list(self._tiny_report().csv_rows())
        assert rows[0][0] == "schema"
        assert len(rows) == 3  # header + 2 replicates

    def test_write_and_shape(self, tmp_path):
        rep = self._tiny_report()
        rep.write_csv(tmp_path / "p.csv")
        rep.write_json(tmp_path / "p.json")
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert len(lines) == 3
        import json

        summary = json.loads((tmp_path / "p.json").read_text())
        assert summary["probe"] == "demo"
        assert summary["passed"] is True

    def test_deterministic_given_seed_grid(self, quad16):
        data, task = quad16
        a = gradient_approx_probe(task, data, r_grid=[2], m_grid=[8], seeds=range(2))
        b = gradient_approx_probe(task, data, r_grid=[2], m_grid=[8], seeds=range(2))
        assert a.point(r=2, m=8).values == b.point(r=2, m=8).values

    def test_pooled_std(self):
        a = [1.0, 2.0, 3.0]
        b = [2.0, 4.0, 6.0]
        got = pooled_std(a, b)
        expected = np.sqrt((2 * 1.0 + 2 * 4.0) / 4)
        assert got == pytest.approx(expected)

    def test_missing_point_raises(self):
        with pytest.raises(KeyError):
            self._tiny_report().point(r=9, m=9)
