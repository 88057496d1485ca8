import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xgblora import models as mz
from xgblora import tensor as tt
from xgblora.lora import AdapterError, init_adapter_set
from xgblora.models import Dataset, Role, WeightId, build_mlp, build_transformer
from xgblora.tasks import gen_sequence_dataset
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

    def test_adapter_on_a_missing_target_raises(self):
        """An adapter set built on a deeper MLP fails the forward of a
        shallower one by naming the pair its target is missing for, as a
        merge would, instead of dropping that pair."""
        deep = build_mlp([4, 4, 4], rng=Rng(1))
        adapters = init_adapter_set(deep, mz.list_adaptable_weights(deep), r=1, rng=Rng(2))
        data = Dataset(Rng(3).gaussian((5, 4)), Rng(4).gaussian((5, 4)))
        with pytest.raises(AdapterError, match="L2.mlp_dense"):
            mz.loss_eval(build_mlp([4, 4], rng=Rng(5)), data, adapters)


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


def _loss_and_grads(loss, adapters):
    """The loss value and every adapter factor's gradient, consumed."""
    loss.backward()
    params = adapters.trainable_params()
    out = [loss.data] + [p.grad for p in params]
    for p in params:
        p.zero_grad()
    return out


def _both_paths(model, data, adapters, lam, start):
    """The loss value and adapter gradients of the objective from layer
    `start` (`batch_loss` from layer 1, `layer_loss` above a frozen
    prefix), then of the same objective through the logits of every
    position, the last one picked by mask-multiply and sum: the
    transformer's loss before its last block's tail ran at the last
    position only."""
    eff = mz._resolve_weights(model, adapters)
    if start == 1:
        new = mz.batch_loss(model, data, adapters=adapters, lam=lam)
        x = mz._stem(model, data.inputs, eff)
    else:
        prefix = mz.layer_input(model, data, start, data.n)
        new = mz.layer_loss(model, prefix, data.targets, adapters, lam, start)
        x = Tensor(prefix)
    logits = mz._forward(model, x, eff, start)
    mask = np.zeros((logits.shape[1], 1))
    mask[-1, 0] = 1.0
    pooled = tt.tsum(tt.mul(logits, Tensor(mask)), axis=1)
    ref = mz._objective(model, pooled, data.targets, adapters, lam)
    return _loss_and_grads(new, adapters), _loss_and_grads(ref, adapters)


def _live_adapters(model, layers, rank, rng):
    """Rank-`rank` adapters on every matrix of `layers`, with B drawn too,
    so that A's gradient is not zero."""
    targets = [wid for wid in mz.list_adaptable_weights(model, "all") if wid.layer in layers]
    adapters = init_adapter_set(model, targets, r=rank, rng=rng)
    for pair in adapters.pairs.values():
        pair.b.data = rng.gaussian(pair.b.shape) * 0.1
    return adapters


class TestLastPositionLoss:
    """The transformer's loss computes the last block's tail, the final norm
    and the head at the last position only (`models._loss_logits`)."""

    def _parity(self):
        data = gen_sequence_dataset("parity", seq_len=4, n=64, seed=7)
        model = build_transformer(vocab=2, d_model=32, n_layers=4, n_heads=4, d_ff=64, rng=Rng(1),
                                  max_seq=4)
        return data, model

    @pytest.mark.parametrize("start", [1, 3])
    def test_bits_equal_the_full_sequence_path(self, start):
        """On the parity transformer at batch 64, seq 4, with layers 3-4
        adapted, the loss and every adapter gradient keep the bits of the
        full-sequence path: from the embeddings (`batch_loss`) and from the
        frozen prefix below layer 3 (`layer_loss`)."""
        data, model = self._parity()
        got, want = _both_paths(model, data, _live_adapters(model, (3, 4), 1, Rng(2)), 0.1, start)
        assert len(got) == 1 + 2 * 12
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_loss_logits_are_the_forward_at_the_last_position(self):
        data, model = self._parity()
        assert mz.loss_logits(model, data).data.tobytes() == mz.forward(model, data).data[:, -1].tobytes()
        assert mz.accuracy(model, data) == mz.logits_accuracy(Tensor(mz.forward(model, data).data[:, -1]),
                                                              data.targets)

    def test_logits_accuracy_needs_one_row_per_example(self):
        data, model = self._parity()
        with pytest.raises(tt.ShapeError):
            mz.logits_accuracy(mz.forward(model, data), data.targets)

    def test_causal_mask_is_built_once_per_length(self):
        assert mz._causal_mask(5) is mz._causal_mask(5)
        assert np.array_equal(mz._causal_mask(3).data, np.triu(np.full((3, 3), mz.ATTN_MASK_NEG), k=1))


def _rel_norm(a, b):
    scale = np.sqrt((b * b).sum())
    return np.sqrt(((a - b) ** 2).sum()) / scale if scale else float(np.abs(a).max())


@given(seq=st.integers(1, 6), layers=st.integers(1, 3), batch=st.integers(1, 70),
       seed=st.integers(0, 2**16))
@settings(derandomize=True, max_examples=40, deadline=None)
@example(seq=1, layers=1, batch=1, seed=0)
@example(seq=6, layers=3, batch=70, seed=2)
def test_last_position_loss_agrees_with_the_full_sequence(seq, layers, batch, seed):
    """On tiny transformers, from the embeddings and from a frozen prefix,
    the last-position loss and adapter gradients agree with the
    full-sequence path within 1e-12 relative (bits may differ: a gemm row's
    last bits can depend on the rows around it)."""
    rng = Rng(seed)
    model = build_transformer(vocab=3, d_model=8, n_layers=layers, n_heads=2, d_ff=16, rng=rng,
                              max_seq=6)
    data = Dataset(rng.randint_array(3, batch * seq).reshape(batch, seq), rng.randint_array(3, batch))
    start = 1 + seed % layers
    adapters = _live_adapters(model, range(start, layers + 1), 2, rng)
    for a, b in zip(*_both_paths(model, data, adapters, 0.0, start)):
        assert _rel_norm(a, b) <= 1e-12


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
