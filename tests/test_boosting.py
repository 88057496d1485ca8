import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import xgblora
from xgblora import boosting as bb
from xgblora import models as mz
from xgblora import tensor as tt
from xgblora.boosting import (
    BoostConfig,
    ConfigError,
    CostModel,
    TrainConfig,
    cost_model_estimate,
    full_finetune,
    lora_config,
    select_layers,
    train_booster,
    xgblora_fit,
)
from xgblora.checkpoint import load_checkpoint
from xgblora.config import RunConfig
from xgblora.lora import AdapterError, init_adapter_set, merge_adapters
from xgblora.models import Dataset, build_mlp, build_transformer
from xgblora.tasks import gen_sequence_dataset, gen_teacher_dataset
from xgblora.tensor import Rng, frobenius_norm, sgd_step


class TestBoostConfig:
    def test_derives_total_steps(self):
        cfg = BoostConfig(iterations=5, steps_per_booster=8)
        assert cfg.total_steps == 40

    def test_derives_iterations(self):
        cfg = BoostConfig(steps_per_booster=8, total_steps=40)
        assert cfg.iterations == 5

    def test_inconsistent_triple_rejected(self):
        with pytest.raises(ConfigError):
            BoostConfig(iterations=5, steps_per_booster=8, total_steps=99)

    def test_non_dividing_schedule_rejected(self):
        for schedule in (
            dict(steps_per_booster=8, total_steps=20),
            dict(iterations=3, total_steps=16),
            dict(iterations=3, steps_per_booster=8, total_steps=20),
        ):
            with pytest.raises(ConfigError, match="divide"):
                BoostConfig(**schedule)

    def test_underdetermined_rejected(self):
        with pytest.raises(ConfigError):
            BoostConfig(iterations=5)

    def test_field_bounds(self):
        with pytest.raises(ConfigError):
            BoostConfig(iterations=1, steps_per_booster=8, rank=0)
        for bad in (-1, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="lam"):
                BoostConfig(iterations=1, steps_per_booster=8, lam=bad)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="eta"):
                BoostConfig(iterations=1, steps_per_booster=8, eta=bad)

    def test_paper_defaults(self):
        cfg = BoostConfig(iterations=4, steps_per_booster=8)
        assert cfg.rank == 1
        assert cfg.steps_per_booster == 8
        assert cfg.sample_layers == 8
        assert cfg.eta == RunConfig().eta == 0.5


class TestSelectLayers:
    def test_exhaustive_when_sample_equals_layers(self):
        for seed in (0, 1, 99):
            assert select_layers(Rng(seed), 6, 6) == [1, 2, 3, 4, 5, 6]

    def test_deterministic_given_seed(self):
        a = select_layers(Rng(1234), 32, 8)
        b = select_layers(Rng(1234), 32, 8)
        assert a == b
        assert len(a) == 8 and len(set(a)) == 8
        assert all(1 <= layer <= 32 for layer in a)

    def test_uniform_frequencies(self):
        rng = Rng(7)
        counts = np.zeros(10)
        n_draws = 10_000
        for _ in range(n_draws):
            for layer in select_layers(rng, 10, 2):
                counts[layer - 1] += 1
        freqs = counts / n_draws
        assert np.all(np.abs(freqs - 0.2) < 0.02)

    def test_bad_sample_count(self):
        with pytest.raises(ConfigError):
            select_layers(Rng(0), 5, 0)

    def test_sample_above_layers_raises(self):
        with pytest.raises(ConfigError):
            select_layers(Rng(0), 3, 8)
        # the clamp lives in the CLI: cli._schedule passes min(sample_layers, layers)
        assert select_layers(Rng(0), 3, min(8, 3)) == [1, 2, 3]


def quadratic_setup(seed=0, dims=(8, 8), n=64):
    data, task = gen_teacher_dataset("teacher-matrix", list(dims), n=n, seed=seed)
    return task.make_student(), data


def booster_cfg(kappa, eta, batch_size, lam=0.0):
    """The one-booster BoostConfig train_booster reads kappa, lam, eta and batch size from."""
    return BoostConfig(iterations=1, steps_per_booster=kappa, lam=lam, eta=eta, batch_size=batch_size)


class TestTrainBooster:
    def test_eta_zero_leaves_adapters_unchanged(self):
        model, data = quadratic_setup()
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=2, rng=Rng(5))
        a_before = {wid: p.a.data.copy() for wid, p in adapters.pairs.items()}
        train_booster(model, adapters, data, booster_cfg(5, 0.0, 8), rng=Rng(9))
        for wid, pair in adapters.pairs.items():
            assert np.array_equal(pair.a.data, a_before[wid])
            assert np.array_equal(pair.b.data, np.zeros_like(pair.b.data))
            assert np.array_equal(pair.delta(), np.zeros_like(pair.delta()))

    def test_loss_decreases_on_quadratic(self):
        model, data = quadratic_setup(seed=3)
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=4, rng=Rng(5))
        trace = train_booster(model, adapters, data, booster_cfg(50, 0.5, 32), rng=Rng(9))
        assert trace.step_losses[-1] < trace.step_losses[0]
        assert mz.loss_eval(model, data, adapters) < mz.loss_eval(model, data)

    def test_divergent_step_caught(self):
        model, data = quadratic_setup(seed=3)
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=4, rng=Rng(5))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
            train_booster(model, adapters, data, booster_cfg(80, 10.0, 32), rng=Rng(9))

    def test_update_norm_bound_holds(self):
        """|A - A0|_F <= eta * kappa * G with G the max applied-gradient norm."""
        model, data = quadratic_setup(seed=4)
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=2, rng=Rng(6))
        eta, kappa = 0.05, 12
        trace = train_booster(model, adapters, data, booster_cfg(kappa, eta, 16), rng=Rng(7))
        for ps in trace.pair_stats.values():
            bound = eta * kappa * ps.grad_max
            assert ps.a_update_norm <= bound * (1 + 1e-9)
            assert ps.b_norm <= bound * (1 + 1e-9)  # B starts at zero
            assert ps.b_norm > 0  # the booster actually moved

    def test_merged_adapters_rejected(self):
        model, data = quadratic_setup()
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=1, rng=Rng(5))
        merge_adapters(model, adapters)
        with pytest.raises(AdapterError):
            train_booster(model, adapters, data, booster_cfg(1, 0.1, 4), rng=Rng(1))

    def test_base_weights_bitwise_frozen(self):
        model, data = quadratic_setup(seed=8)
        snapshot = {wid: w.data.copy() for wid, w in model.weights.items()}
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=2, rng=Rng(5))
        train_booster(model, adapters, data, booster_cfg(20, 0.1, 8, lam=0.1), rng=Rng(2))
        for wid in snapshot:
            assert np.array_equal(model.weights[wid].data, snapshot[wid])

    def test_resume_merges_into_same_trace(self):
        model, data = quadratic_setup(seed=1)
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=1, rng=Rng(3))
        rng = Rng(11)
        trace = train_booster(model, adapters, data, booster_cfg(10, 0.05, 8), rng=rng, max_steps=4)
        assert trace.steps == 4
        train_booster(model, adapters, data, booster_cfg(10, 0.05, 8), rng=rng, trace=trace)
        assert trace.steps == 10

    def test_one_index_draw_matches_per_step_draws(self):
        """The bulk index draw gives the per-step loop's adapters, trace and
        generator state, at a pause mid-booster and at its end."""
        model, data = quadratic_setup(seed=5)
        cfg = booster_cfg(7, 0.1, 8, lam=0.01)
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=2, rng=Rng(3))
        ref_adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=2, rng=Rng(3))
        rng, ref_rng = Rng(21), Rng(21)
        trace = ref_trace = None
        for max_steps in (3, None):
            trace = train_booster(model, adapters, data, cfg, rng, trace=trace, max_steps=max_steps)
            ref_trace = per_step_draw_booster(model, ref_adapters, data, cfg, ref_rng, ref_trace, max_steps)
            assert rng.state == ref_rng.state
            assert trace.step_losses == ref_trace.step_losses
            for wid, pair in adapters.pairs.items():
                ref = ref_adapters.pairs[wid]
                assert np.array_equal(pair.a.data, ref.a.data)
                assert np.array_equal(pair.b.data, ref.b.data)
                assert trace.pair_stats[str(wid)].grad_max == ref_trace.pair_stats[str(wid)].grad_max
        assert trace.steps == 7


def per_step_draw_booster(model, adapters, data, cfg, rng, trace=None, max_steps=None):
    """train_booster's step loop as it was with one index draw per step (no
    divergence check, no final norms): the reference for its bulk draw."""
    if trace is None:
        trace = bb.BoosterTrace.for_adapters(adapters)
    params = adapters.trainable_params()
    todo = cfg.steps_per_booster - trace.steps
    if max_steps is not None:
        todo = min(todo, max_steps)
    for _ in range(todo):
        idx = rng.randint_array(data.n, cfg.batch_size)
        loss = mz.batch_loss(model, data.batch(idx), adapters=adapters, lam=cfg.lam)
        loss.backward()
        for wid, pair in adapters.pairs.items():
            ps = trace.pair_stats[str(wid)]
            ps.grad_max = max(ps.grad_max, frobenius_norm(pair.a.grad), frobenius_norm(pair.b.grad))
        sgd_step(params, cfg.eta)
        trace.step_losses.append(loss.item())
    return trace


class TestXgbLoraFit:
    def test_step_accounting(self):
        model, data = quadratic_setup(seed=2, dims=(6, 6))
        cfg = BoostConfig(iterations=5, steps_per_booster=7, rank=1, sample_layers=1,
                          eta=0.05, batch_size=8, seed=3)
        _, traces = xgblora_fit(model, data, cfg)
        assert sum(t.steps for t in traces) == cfg.total_steps
        assert len(traces) == 5

    def test_sample_layers_deeper_than_the_model_rejected(self):
        """A library run raises instead of recording a sample_layers that did not run."""
        model, data = quadratic_setup(dims=(6, 6))
        cfg = BoostConfig(iterations=2, steps_per_booster=2, sample_layers=8, eta=0.1)
        with pytest.raises(ConfigError, match="sample_layers=8 exceeds the model's 1 layers"):
            xgblora_fit(model, data, cfg)

    def test_merge_loss_continuity(self):
        model, data = quadratic_setup(seed=5)
        cfg = BoostConfig(iterations=6, steps_per_booster=4, rank=2, sample_layers=1,
                          eta=0.1, batch_size=16, seed=7, record_merge_loss=True)
        _, traces = xgblora_fit(model, data, cfg)
        for trace in traces:
            assert trace.pre_merge_loss == trace.post_merge_loss

    def test_reduces_to_lora_bit_exactly(self):
        """T=1, kappa=K, all layers: weight trajectory identical to a lora_config fit."""
        k = 60
        model_a, data = quadratic_setup(seed=9, dims=(6, 4))
        model_b = model_a.copy()
        cfg = BoostConfig(iterations=1, steps_per_booster=k, rank=3,
                          sample_layers=model_a.layers, eta=0.05, batch_size=8, seed=21)
        xgblora_fit(model_a, data, cfg)
        xgblora_fit(model_b, data, lora_config(model_b, k, rank=3, eta=0.05, batch_size=8, seed=21))
        for wid in model_a.weights:
            assert np.array_equal(model_a.weights[wid].data, model_b.weights[wid].data)

    def test_fixed_seed_reproducible(self):
        def run():
            model, data = quadratic_setup(seed=4, dims=(5, 5))
            cfg = BoostConfig(iterations=3, steps_per_booster=6, rank=1, sample_layers=1,
                              eta=0.05, batch_size=8, seed=77)
            m, _ = xgblora_fit(model, data, cfg)
            return np.concatenate([m.weights[w].data.ravel() for w in sorted(m.weights, key=mz.sort_key)])

        assert np.array_equal(run(), run())

    def test_interrupt_and_resume_bitwise(self):
        model_a, data = quadratic_setup(seed=6, dims=(6, 6))
        model_b, model_c = model_a.copy(), model_a.copy()
        cfg = BoostConfig(iterations=4, steps_per_booster=5, rank=2, sample_layers=1,
                          eta=0.05, batch_size=8, seed=13)
        xgblora_fit(model_a, data, cfg)

        run = bb.BoostRun.start(model_b, data, cfg)
        assert bb.boost_step(run, stop_after_step=7) == 7  # mid-booster
        assert run.global_step == 7
        bb.boost_step(run)
        for wid in model_a.weights:
            assert np.array_equal(model_a.weights[wid].data, model_b.weights[wid].data)

        # a pause on a booster boundary merges that booster; a repeated
        # stop at the current step executes nothing
        run = bb.BoostRun.start(model_c, data, cfg)
        assert bb.boost_step(run, stop_after_step=5) == 5
        assert run.adapters is None and run.booster == 2
        assert bb.boost_step(run, stop_after_step=5) == 0
        assert run.global_step == 5 and run.adapters is None and run.booster == 2
        bb.boost_step(run)
        for wid in model_a.weights:
            assert np.array_equal(model_a.weights[wid].data, model_c.weights[wid].data)

    def test_fresh_subset_each_iteration(self):
        model, data = quadratic_setup(seed=2, dims=(8, 8))
        # an MLP with one layer only has one choice; use a deeper one
        data2, task2 = gen_teacher_dataset("teacher-mlp", [6, 6, 6, 6, 6], n=32, seed=1)
        student = task2.make_student()
        cfg = BoostConfig(iterations=12, steps_per_booster=2, rank=1, sample_layers=2,
                          eta=0.01, batch_size=8, seed=5)
        _, traces = xgblora_fit(student, data2, cfg)
        subsets = {tuple(t.selected_layers) for t in traces}
        assert len(subsets) > 1

    def test_blas_thread_count_does_not_move_bits(self):
        """A short parity fit ends on the same weight bits with OpenBLAS on
        one thread and on two."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xgblora.__file__)))
        digests = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run([sys.executable, "-c", PARITY_FIT_DIGEST], env=env,
                                  capture_output=True, text=True, check=True)
            digests.append(done.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


# prints the sha256 of the final weights of a 2 x 16-step parity fit
PARITY_FIT_DIGEST = """
import hashlib
from xgblora import BoostConfig, Rng, build_transformer, gen_sequence_dataset, xgblora_fit
from xgblora.models import sort_key
data = gen_sequence_dataset("parity", seq_len=4, n=128, seed=0)
model = build_transformer(vocab=2, d_model=32, n_layers=4, n_heads=4, d_ff=64, rng=Rng(1), max_seq=4)
cfg = BoostConfig(iterations=2, steps_per_booster=16, rank=1, sample_layers=2, policy="all",
                  eta=1.0, batch_size=64, seed=0)
xgblora_fit(model, data, cfg)
h = hashlib.sha256()
for wid in sorted(model.weights, key=sort_key):
    h.update(model.weights[wid].data.tobytes())
print(h.hexdigest())
"""


def uncached_booster(model, adapters, data, cfg, rng, trace=None, max_steps=None):
    """train_booster's step loop as it was before the frozen-prefix cache:
    every step runs the whole forward on its minibatch. The reference the
    cached loop must match bit for bit."""
    adapters.check_live()
    if trace is None:
        trace = bb.BoosterTrace.for_adapters(adapters)
    params = adapters.trainable_params()
    kappa = cfg.steps_per_booster
    todo = kappa - trace.steps
    if max_steps is not None:
        todo = max(0, min(todo, max_steps))
    draws = rng.randint_array(data.n, todo * cfg.batch_size).reshape(todo, cfg.batch_size)
    for idx in draws:
        loss = mz.batch_loss(model, data.batch(idx), adapters=adapters, lam=cfg.lam)
        loss.backward()
        for wid, pair in adapters.pairs.items():
            ps = trace.pair_stats[str(wid)]
            ga = frobenius_norm(pair.a.grad) if pair.a.grad is not None else 0.0
            gb = frobenius_norm(pair.b.grad) if pair.b.grad is not None else 0.0
            ps.grad_max = max(ps.grad_max, ga, gb)
        sgd_step(params, cfg.eta)
        trace.step_losses.append(loss.item())
    if trace.steps >= kappa:
        for wid, pair in adapters.pairs.items():
            ps = trace.pair_stats[str(wid)]
            ps.a_norm = frobenius_norm(pair.a)
            ps.b_norm = frobenius_norm(pair.b)
            ps.a_update_norm = frobenius_norm(pair.a.data - pair.a_init)
    return trace


def golden_parity():
    """The parity fit of test_golden: 2 boosters of 16 steps, batch 64 of 128
    examples, 2 of 4 layers per booster (layers 3 and 4 first)."""
    data = gen_sequence_dataset("parity", seq_len=4, n=128, seed=0)
    model = build_transformer(vocab=2, d_model=32, n_layers=4, n_heads=4, d_ff=64, rng=Rng(1), max_seq=4)
    cfg = BoostConfig(iterations=2, steps_per_booster=16, rank=1, sample_layers=2, policy="all",
                      eta=1.0, batch_size=64, seed=0)
    return model, data, cfg


def parity_small_batches():
    """Minibatches of 4 sequences, 16 rows a product, and a dataset that 4
    does not divide: a product of fewer than 40 rows takes another OpenBLAS
    path, which the prefix's chunks must take too."""
    model, _, _ = golden_parity()
    data = gen_sequence_dataset("parity", seq_len=4, n=66, seed=0)
    cfg = BoostConfig(iterations=2, steps_per_booster=17, rank=1, sample_layers=2, policy="all",
                      eta=1.0, batch_size=4, seed=0)
    return model, data, cfg


def mlp_layer1_sampled():
    """A 3-layer MLP adapting one random layer per booster, lam > 0."""
    data, task = gen_teacher_dataset("teacher-mlp", [6, 10, 10, 4], n=32, seed=2)
    cfg = BoostConfig(iterations=8, steps_per_booster=4, rank=2, sample_layers=1, eta=0.05,
                      lam=0.01, batch_size=8, seed=3)
    return task.make_student(), data, cfg


def prefix_layers(monkeypatch) -> list:
    """The layer of every frozen prefix train_booster builds from here on."""
    built = []

    def spy(model, data, layer, rows):
        built.append(layer)
        return mz.layer_input(model, data, layer, rows)

    monkeypatch.setattr(bb, "layer_input", spy)
    return built


def same_weights(a, b) -> bool:
    return all(np.array_equal(a.weights[wid].data, b.weights[wid].data) for wid in a.weights)


class TestFrozenPrefix:
    @pytest.mark.parametrize("setup", [golden_parity, parity_small_batches, mlp_layer1_sampled])
    def test_cached_fit_equals_the_uncached_loop(self, setup, monkeypatch):
        model, data, cfg = setup()
        reference = model.copy()
        with monkeypatch.context() as m:
            m.setattr(bb, "train_booster", uncached_booster)
            _, ref_traces = xgblora_fit(reference, data, cfg)
        built = prefix_layers(monkeypatch)
        _, traces = xgblora_fit(model, data, cfg)
        assert any(layer > 1 for layer in built)  # the cache was in use
        assert same_weights(model, reference)
        assert [t.step_losses for t in traces] == [t.step_losses for t in ref_traces]
        assert [t.pair_stats for t in traces] == [t.pair_stats for t in ref_traces]

    def test_paused_and_resumed_while_cached_equals_uninterrupted(self, tmp_path, monkeypatch):
        model, data, cfg = golden_parity()
        resumed = model.copy()
        xgblora_fit(model, data, cfg)
        built = prefix_layers(monkeypatch)
        run = bb.BoostRun.start(resumed, data, cfg)
        bb.boost_step(run, stop_after_step=5)  # mid-booster 1, which adapts layers 3 and 4
        assert built == [3]
        run.save(tmp_path / "mid.xgbl")
        run = bb.BoostRun.resume(load_checkpoint(tmp_path / "mid.xgbl"), data, cfg)
        bb.boost_step(run)
        assert built[:2] == [3, 3]  # the resumed booster built its prefix again
        assert same_weights(run.model, model)

    def test_no_prefix_when_a_booster_draws_fewer_rows_than_the_data(self, monkeypatch):
        model, data, cfg = golden_parity()
        cfg = BoostConfig(iterations=4, steps_per_booster=2, rank=1, sample_layers=1,
                          policy="all", eta=1.0, batch_size=16, seed=0)  # 2 * 16 < 128
        built = prefix_layers(monkeypatch)
        _, traces = xgblora_fit(model, data, cfg)
        assert any(t.selected_layers[0] > 1 for t in traces)
        assert built == []

    @pytest.mark.skipif(not tt.HEAP_KEPT, reason="libc has no mallopt")
    def test_kept_heap_leaves_no_page_faults_per_step(self):
        model, data, cfg = golden_parity()
        xgblora_fit(model.copy(), data, cfg)  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        xgblora_fit(model.copy(), data, cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / cfg.total_steps < 50


class TestFullFinetune:
    def test_eta_zero_keeps_weights(self):
        model, data = quadratic_setup(seed=1)
        before = {wid: w.data.copy() for wid, w in model.weights.items()}
        full_finetune(model, data, TrainConfig(total_steps=5, eta=0.0, seed=2))
        for wid in before:
            assert np.array_equal(model.weights[wid].data, before[wid])

    def test_loss_drops_on_teacher_task(self):
        data, task = gen_teacher_dataset("teacher-mlp", [6, 12, 4], n=128, seed=3)
        model = task.make_student()
        initial = mz.loss_eval(model, data)
        full_finetune(model, data, TrainConfig(total_steps=500, eta=0.05, batch_size=16, seed=4))
        assert mz.loss_eval(model, data) < initial

    def test_requires_grad_restored(self):
        model, data = quadratic_setup()
        full_finetune(model, data, TrainConfig(total_steps=2, eta=0.01, seed=1))
        assert all(not w.requires_grad for w in model.weights.values())


class TestCostModel:
    def test_lora_row(self):
        cm = CostModel(alpha_cost=1.0, beta_cost=0.0, layers=32, total_steps=1000, full_rank=8)
        got = cost_model_estimate(cm, "lora")
        assert got["total"] == pytest.approx(32 * 1000)
        assert got["iters"] == 1
        assert got["steps_per_iter"] == 1000

    def test_full_rank_third_layers_row(self):
        cm = CostModel(alpha_cost=1.0, beta_cost=0.0, layers=32, total_steps=1000,
                       iterations=10, rank=8, full_rank=8, adapted_layers=32 / 3)
        got = cost_model_estimate(cm, "xgblora")
        assert got["total"] == pytest.approx(32 * 1000 / 3, abs=0.1)

    def test_rank_one_third_layers_row(self):
        cm = CostModel(alpha_cost=1.0, beta_cost=0.0, layers=32, total_steps=1000,
                       iterations=10, rank=1, full_rank=8, adapted_layers=32 / 3)
        got = cost_model_estimate(cm, "xgblora")
        assert got["total"] == pytest.approx(32 * 1000 / (3 * 8), abs=0.1)

    def test_beta_added(self):
        cm = CostModel(alpha_cost=1.0, beta_cost=7.0, layers=4, total_steps=10,
                       iterations=2, rank=1, full_rank=4, adapted_layers=2)
        got = cost_model_estimate(cm, "xgblora")
        assert got["total"] == pytest.approx(2 * 1.0 * (1 / 4) * 10 + 7.0)

    def test_invalid_fields(self):
        cm = CostModel(layers=0)
        with pytest.raises(ConfigError):
            cost_model_estimate(cm, "lora")
        with pytest.raises(ConfigError):
            cost_model_estimate(CostModel(), "nope")
