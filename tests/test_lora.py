import numpy as np
import pytest

from xgblora import models as mz
from xgblora.lora import (
    AdapterError,
    AdapterSet,
    LoraPair,
    init_adapter,
    init_adapter_set,
    merge_adapters,
    param_count,
)
from xgblora.models import Role, WeightId, build_mlp, build_transformer
from xgblora.tensor import Rng, ShapeError, Tensor, frobenius_norm


def mlp(seed=5, dims=(6, 10, 4)):
    return build_mlp(list(dims), rng=Rng(seed))


def count_adapted(m, targets, r):
    """param_count of a fresh rank-r adapter set on `targets`."""
    return param_count(m, init_adapter_set(m, targets, r, Rng(0)))


class TestInit:
    def test_fresh_pair_is_exact_zero_delta(self):
        m = mlp()
        pair = init_adapter(m, WeightId(1, Role.MLP_DENSE), r=3, rng=Rng(1))
        assert np.array_equal(pair.delta(), np.zeros((10, 6)))

    def test_rank_one_shapes_on_wide_target(self):
        m = build_mlp([768, 768], rng=Rng(1))
        pair = init_adapter(m, WeightId(1, Role.MLP_DENSE), r=1, rng=Rng(2))
        assert pair.a.shape == (768, 1)
        assert pair.b.shape == (1, 768)

    def test_same_seed_same_a(self):
        m = mlp()
        p1 = init_adapter(m, WeightId(1, Role.MLP_DENSE), r=2, rng=Rng(9))
        p2 = init_adapter(m, WeightId(1, Role.MLP_DENSE), r=2, rng=Rng(9))
        assert np.array_equal(p1.a.data, p2.a.data)

    def test_rank_below_one_rejected(self):
        m = mlp()
        with pytest.raises(ValueError):
            init_adapter(m, WeightId(1, Role.MLP_DENSE), r=0, rng=Rng(1))

    def test_unknown_target_rejected(self):
        m = mlp()
        with pytest.raises(AdapterError):
            init_adapter(m, WeightId(9, Role.MLP_DENSE), r=1, rng=Rng(1))

    def test_rank_bound_of_product(self):
        m = build_mlp([12, 9], rng=Rng(1))
        for r in (1, 2, 4):
            pair = init_adapter(m, WeightId(1, Role.MLP_DENSE), r=r, rng=Rng(3))
            pair.b.data = Rng(4).gaussian(pair.b.shape)
            s = np.linalg.svd(pair.delta(), compute_uv=False)
            assert np.sum(s > 1e-9 * max(s[0], 1e-30)) <= r


WID = WeightId(1, Role.MLP_DENSE)


def effective(model, pair):
    """The effective weight W0 + A@B that models.forward builds for a
    `pair` on the first dense matrix."""
    return mz._resolve_weights(model, AdapterSet({WID: pair}))[WID]


class TestEffectiveWeight:
    def test_b_zero_returns_w0(self):
        m = mlp()
        w0 = m.weights[WeightId(1, Role.MLP_DENSE)]
        pair = init_adapter(m, WeightId(1, Role.MLP_DENSE), r=2, rng=Rng(1))
        assert np.array_equal(effective(m, pair).data, w0.data)

    def test_outer_product_case(self):
        m = build_mlp([2, 2], rng=Rng(1))
        m.weights[WeightId(1, Role.MLP_DENSE)].data = np.zeros((2, 2))
        pair = LoraPair(a=Tensor([[1.0], [2.0]]), b=Tensor([[3.0, 4.0]]), a_init=np.array([[1.0], [2.0]]))
        assert np.array_equal(effective(m, pair).data, [[3.0, 4.0], [6.0, 8.0]])

    def test_shape_mismatch(self):
        m = build_mlp([3, 3], rng=Rng(1))
        # an A of (1, 1) would broadcast onto the (3, 3) target without the check
        for a_shape in ((2, 1), (1, 1)):
            pair = LoraPair(a=Tensor(np.zeros(a_shape)), b=Tensor(np.zeros((1, 3))), a_init=np.zeros(a_shape))
            with pytest.raises(ShapeError):
                effective(m, pair)


class TestMerge:
    def test_fresh_merge_is_noop_bitwise(self):
        m = mlp()
        before = {wid: w.data.copy() for wid, w in m.weights.items()}
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=2, rng=Rng(2))
        merge_adapters(m, adapters)
        for wid in before:
            assert np.array_equal(m.weights[wid].data, before[wid])

    def test_merge_equivalence_on_forward(self):
        m = mlp()
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=2, rng=Rng(2))
        for pair in adapters.pairs.values():
            pair.b.data = Rng(8).gaussian(pair.b.shape) * 0.3
        x = Rng(3).gaussian((7, 6))
        adapted = mz.forward(m, x, adapters=adapters).data.copy()
        merge_adapters(m, adapters)
        merged = mz.forward(m, x).data
        assert np.array_equal(adapted, merged)

    def test_sequential_merges_add(self):
        base = mlp(seed=11)
        m1 = base.copy()
        m2 = base.copy()

        def make(seed):
            s = init_adapter_set(m1, mz.list_adaptable_weights(m1), r=1, rng=Rng(seed))
            for pair in s.pairs.values():
                pair.b.data = Rng(seed + 1).gaussian(pair.b.shape)
            return s

        s1, s2 = make(21), make(23)
        deltas = {wid: s1.pairs[wid].delta() + s2.pairs[wid].delta() for wid in s1.pairs}
        merge_adapters(m1, s1)
        merge_adapters(m1, s2)
        for wid, d in deltas.items():
            expected = m2.weights[wid].data + d
            got = m1.weights[wid].data
            assert np.abs(got - expected).max() / max(np.abs(expected).max(), 1e-12) <= 1e-12

    def test_double_merge_rejected(self):
        m = mlp()
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=1, rng=Rng(2))
        merge_adapters(m, adapters)
        with pytest.raises(AdapterError):
            merge_adapters(m, adapters)

    def test_forward_through_merged_set_rejected(self):
        m = mlp()
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=1, rng=Rng(2))
        merge_adapters(m, adapters)
        with pytest.raises(AdapterError):
            mz.forward(m, Rng(1).gaussian((2, 6)), adapters=adapters)

    def test_merge_equivalence_over_many_random_triples(self):
        """Forward(model, x, adapters) == forward(merged model, x) across
        random model/adapter/input draws."""
        for seed in range(20):
            rng = Rng(1000 + seed)
            m = build_mlp([5, 8, 3], rng=rng)
            adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=1 + seed % 3, rng=rng)
            for pair in adapters.pairs.values():
                pair.b.data = rng.gaussian(pair.b.shape) * 0.5
                pair.a.data = rng.gaussian(pair.a.shape) * 0.5
            x = rng.gaussian((4, 5))
            adapted = mz.forward(m, x, adapters=adapters).data.copy()
            merge_adapters(m, adapters)
            merged = mz.forward(m, x).data
            assert np.array_equal(adapted, merged)


class TestParamCount:
    def test_known_768_case(self):
        m = build_mlp([768, 768], rng=Rng(1))
        got = count_adapted(m, mz.list_adaptable_weights(m, "qv"), 8)
        assert got["trainable"] == 12_288
        assert got["total"] == 589_824

    def test_linear_in_rank(self):
        m = build_transformer(vocab=13, d_model=16, n_layers=4, n_heads=2, d_ff=32, rng=Rng(1))
        targets = mz.list_adaptable_weights(m, "qv")
        r1 = count_adapted(m, targets, 1)["trainable"]
        r8 = count_adapted(m, targets, 8)["trainable"]
        assert r8 == 8 * r1

    def test_full_ft_is_exactly_1000_permille(self):
        m = build_transformer(vocab=13, d_model=16, n_layers=2, n_heads=2, d_ff=32, rng=Rng(1))
        assert param_count(m)["permille"] == 1000.0

    def test_rank_and_layer_subsetting_ratio(self):
        # rank 8 on all 12 blocks vs rank 1 on 8 blocks: factor r*(L/L_s) = 12
        m = build_transformer(vocab=29, d_model=24, n_layers=12, n_heads=4, d_ff=48, rng=Rng(1))
        targets = mz.list_adaptable_weights(m, "qv")
        lora = count_adapted(m, targets, 8)
        xgb = count_adapted(m, [wid for wid in targets if wid.layer in range(1, 9)], 1)
        assert lora["permille"] / xgb["permille"] == pytest.approx(12.0)
        assert xgb["permille"] < lora["permille"]

    def test_matches_independent_weight_walk(self):
        for seed in range(6):
            rng = Rng(300 + seed)
            m = build_transformer(
                vocab=7 + seed,
                d_model=8 * (1 + seed % 2),
                n_layers=1 + seed % 3,
                n_heads=2,
                d_ff=16,
                rng=rng,
            )
            policy = "all" if seed % 2 else "qv"
            r = 1 + seed % 4
            got = count_adapted(m, mz.list_adaptable_weights(m, policy), r)
            # brute force: walk the weight map independently
            expected_total = 0
            expected_trainable = 0
            for wid, w in m.weights.items():
                expected_total += int(np.prod(w.shape))
                adaptable = (
                    wid.role in (Role.ATTN_Q, Role.ATTN_V)
                    if policy == "qv"
                    else wid.role
                    in (Role.ATTN_Q, Role.ATTN_K, Role.ATTN_V, Role.ATTN_O, Role.FFN_UP, Role.FFN_DOWN)
                )
                if adaptable:
                    expected_trainable += (w.shape[0] + w.shape[1]) * r
            assert got["total"] == expected_total
            assert got["trainable"] == expected_trainable

    def test_counts_from_live_adapter_set(self):
        m = mlp()
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=2, rng=Rng(2))
        got = param_count(m, adapters=adapters)
        expected = sum((w.data.shape[0] + w.data.shape[1]) * 2 for w in m.weights.values())
        assert got["trainable"] == expected


class TestBirthNeutrality:
    def test_init_then_merge_any_set_is_noop(self):
        for seed in range(5):
            m = build_transformer(vocab=6, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=Rng(seed))
            before = {wid: w.data.copy() for wid, w in m.weights.items()}
            adapters = init_adapter_set(
                m, mz.list_adaptable_weights(m, policy="all"), r=1 + seed, rng=Rng(seed + 100)
            )
            merge_adapters(m, adapters)
            for wid in before:
                assert np.array_equal(m.weights[wid].data, before[wid])
