import numpy as np
import pytest

from xgblora import models as mz
from xgblora import tensor as tt
from xgblora.lora import init_adapter_set
from xgblora.models import Dataset, Role, WeightId, build_mlp, build_transformer
from xgblora.tensor import Rng, Tensor


class TestBuildMlp:
    def test_single_layer_is_plain_linear(self):
        m = build_mlp([4, 4], rng=Rng(1))
        x = Rng(2).gaussian((3, 4))
        out = mz.forward(m, x).data
        w = m.weights[WeightId(1, Role.MLP_DENSE)].data
        assert np.allclose(out, x @ w.T)

    def test_adaptable_count_matches_layers(self):
        m = build_mlp([8, 16, 8, 2], rng=Rng(1))
        ids = mz.list_adaptable_weights(m)
        assert len(ids) == 3
        assert all(w.role == Role.MLP_DENSE for w in ids)
        assert [w.layer for w in ids] == [1, 2, 3]

    def test_weight_shapes_follow_dims(self):
        m = build_mlp([8, 16, 8, 2], rng=Rng(1))
        assert m.weights[WeightId(1, Role.MLP_DENSE)].shape == (16, 8)
        assert m.weights[WeightId(2, Role.MLP_DENSE)].shape == (8, 16)
        assert m.weights[WeightId(3, Role.MLP_DENSE)].shape == (2, 8)

    def test_same_seed_identical_weights(self):
        a = build_mlp([5, 7, 3], rng=Rng(42))
        b = build_mlp([5, 7, 3], rng=Rng(42))
        for wid in a.weights:
            assert np.array_equal(a.weights[wid].data, b.weights[wid].data)

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            build_mlp([4])

    def test_identity_network_passes_input_through(self):
        m = build_mlp([2, 2], rng=Rng(1))
        m.weights[WeightId(1, Role.MLP_DENSE)].data = np.eye(2)
        out = mz.forward(m, np.array([[1.0, 2.0]])).data
        assert np.array_equal(out, [[1.0, 2.0]])


class TestBuildTransformer:
    def test_adaptable_matrix_census(self):
        m = build_transformer(vocab=11, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=Rng(3))
        all_ids = mz.list_adaptable_weights(m, policy="all")
        assert len(all_ids) == 12  # 6 per block x 2 blocks
        assert WeightId(1, Role.EMBEDDING) in m.weights
        assert WeightId(2, Role.OUTPUT) in m.weights

    def test_qv_policy_default(self):
        m = build_transformer(vocab=5, d_model=8, n_layers=3, n_heads=2, d_ff=16, rng=Rng(3))
        ids = mz.list_adaptable_weights(m)
        assert len(ids) == 6
        assert {w.role for w in ids} == {Role.ATTN_Q, Role.ATTN_V}

    def test_logits_shape(self):
        m = build_transformer(vocab=11, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=Rng(3))
        ids = np.zeros((2, 5), dtype=np.int64)
        assert mz.forward(m, ids).shape == (2, 5, 11)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            build_transformer(vocab=5, d_model=9, n_layers=1, n_heads=2, d_ff=16)

    def test_zeroed_ffn_up_keeps_logits_finite_and_changes_them(self):
        rng = Rng(7)
        m = build_transformer(vocab=6, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=rng)
        ids = np.array([[1, 2, 3, 4], [0, 5, 0, 5]])
        ref = mz.forward(m, ids).data.copy()
        for l in (1, 2):
            m.weights[WeightId(l, Role.FFN_UP)].data[:] = 0.0
        out = mz.forward(m, ids).data
        assert np.all(np.isfinite(out))
        assert not np.array_equal(out, ref)  # the ffn path mattered
        # gelu(0) = 0 so only the residual stream feeds subsequent blocks
        for l in (1, 2):
            assert np.array_equal(m.weights[WeightId(l, Role.FFN_DOWN)].data.shape, (8, 16))

    def test_causal_masking(self):
        """Changing a later token never changes earlier positions' logits."""
        m = build_transformer(vocab=6, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=Rng(9))
        a = np.array([[1, 2, 3, 4, 5]])
        b = a.copy()
        b[0, -1] = 0
        la = mz.forward(m, a).data
        lb = mz.forward(m, b).data
        assert np.array_equal(la[:, :-1, :], lb[:, :-1, :])
        assert not np.array_equal(la[:, -1, :], lb[:, -1, :])


class TestForwardWithAdapters:
    def _mlp(self, seed=5):
        return build_mlp([6, 10, 4], rng=Rng(seed))

    def test_fresh_adapter_is_bitwise_transparent(self):
        m = self._mlp()
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=2, rng=Rng(77))
        x = Rng(1).gaussian((5, 6))
        plain = mz.forward(m, x).data
        adapted = mz.forward(m, x, adapters=adapters).data
        assert np.array_equal(plain, adapted)

    def test_adapted_equals_preadded_copy(self):
        m = self._mlp()
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=2, rng=Rng(77))
        for pair in adapters.pairs.values():
            pair.b.data = Rng(123).gaussian(pair.b.shape) * 0.1
        x = Rng(1).gaussian((5, 6))
        adapted = mz.forward(m, x, adapters=adapters).data

        pre = m.copy()
        for wid, pair in adapters.pairs.items():
            pre.weights[wid].data += pair.delta()
        out = mz.forward(pre, x).data
        assert np.array_equal(adapted, out)

    def test_base_weights_never_mutated_by_forward(self):
        m = self._mlp()
        snapshot = {wid: w.data.copy() for wid, w in m.weights.items()}
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=1, rng=Rng(4))
        for pair in adapters.pairs.values():
            pair.b.data = np.ones_like(pair.b.data)
        mz.forward(m, Rng(1).gaussian((3, 6)), adapters=adapters)
        for wid in snapshot:
            assert np.array_equal(m.weights[wid].data, snapshot[wid])


class TestLossEval:
    def test_perfect_predictions_zero_mse(self):
        m = build_mlp([3, 3], rng=Rng(1))
        x = Rng(2).gaussian((10, 3))
        y = x @ m.weights[WeightId(1, Role.MLP_DENSE)].data.T
        ds = Dataset(x, y)
        assert mz.loss_eval(m, ds) == pytest.approx(0.0, abs=1e-24)

    def test_zero_adapters_zero_penalty(self):
        m = build_mlp([3, 3], rng=Rng(1))
        x = Rng(2).gaussian((4, 3))
        ds = Dataset(x, np.zeros((4, 3)))
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=1, rng=Rng(5))
        for pair in adapters.pairs.values():
            pair.a.data[:] = 0.0
        assert mz.loss_eval(m, ds, adapters, lam=1.0) == pytest.approx(mz.loss_eval(m, ds, adapters, lam=0.0))

    def test_hand_computed_penalty(self):
        m = build_mlp([2, 2], rng=Rng(1))
        x = Rng(2).gaussian((4, 2))
        ds = Dataset(x, np.zeros((4, 2)))
        adapters = init_adapter_set(m, [WeightId(1, Role.MLP_DENSE)], r=1, rng=Rng(5))
        pair = adapters.pairs[WeightId(1, Role.MLP_DENSE)]
        pair.a.data = np.array([[1.0], [1.0]])
        pair.b.data = np.array([[1.0, 1.0]])
        base = mz.loss_eval(m, ds, adapters, lam=0.0)
        full = mz.loss_eval(m, ds, adapters, lam=0.5)
        assert full - base == pytest.approx(0.5 * (2.0 + 2.0))

    def test_objective_decomposition(self):
        """loss(lam) - loss(0) == lam * sum of squared adapter norms."""
        m = build_mlp([4, 6, 2], rng=Rng(3))
        x = Rng(2).gaussian((8, 4))
        ds = Dataset(x, Rng(9).gaussian((8, 2)))
        adapters = init_adapter_set(m, mz.list_adaptable_weights(m), r=2, rng=Rng(5))
        for pair in adapters.pairs.values():
            pair.b.data = Rng(6).gaussian(pair.b.shape)
        lam = 0.37
        measured = mz.loss_eval(m, ds, adapters, lam=lam) - mz.loss_eval(m, ds, adapters, lam=0.0)
        expected = lam * sum(
            tt.frobenius_norm(p.a) ** 2 + tt.frobenius_norm(p.b) ** 2
            for p in adapters.pairs.values()
        )
        assert measured == pytest.approx(expected, rel=1e-10)

    def test_negative_lambda_rejected(self):
        m = build_mlp([2, 2], rng=Rng(1))
        ds = Dataset(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            mz.loss_eval(m, ds, lam=-0.1)


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(tt.ShapeError):
            Dataset(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_empty_rejected(self):
        with pytest.raises(tt.ShapeError):
            Dataset(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_batch_selection(self):
        ds = Dataset(np.arange(10).reshape(5, 2).astype(float), np.arange(5).astype(float))
        b = ds.batch([0, 3])
        assert b.n == 2
        assert np.array_equal(b.targets, [0.0, 3.0])


class TestDeterminism:
    def test_forward_determinism_fixed_seed(self):
        def run():
            m = build_transformer(vocab=7, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=Rng(50))
            return mz.forward(m, np.array([[1, 2, 3, 4]])).data.copy()

        assert np.array_equal(run(), run())

    def test_forward_no_nan_on_bounded_inputs(self):
        m = build_mlp([4, 8, 8, 2], rng=Rng(11))
        x = np.clip(Rng(12).gaussian((64, 4)) * 5, -10, 10)
        out = mz.forward(m, x).data
        assert np.all(np.isfinite(out))
        # the MLP's activation is relu; gelu, the transformer's, on the same inputs
        assert np.all(np.isfinite(tt.gelu(Tensor(x)).data))
