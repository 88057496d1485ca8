import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xgblora import tensor as tt
from xgblora.tensor import Rng, Tensor


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.sqrt((b * b).sum()), 1e-12)
    return np.sqrt(((a - b) ** 2).sum()) / denom


def check_grad(build_loss, params, tol=1e-4, eps=1e-6):
    """Backward vs central finite differences on every param."""
    loss = build_loss()
    loss.backward()
    ad_grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    for p, g_ad in zip(params, ad_grads):
        g_fd = tt.finite_diff_gradient(lambda: build_loss().item(), p, eps=eps)
        assert rel_err(g_ad, g_fd) < tol, f"gradient mismatch on param shape {p.shape}"
    for p in params:
        p.zero_grad()


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Tensor([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Tensor([[float("inf")]])


class TestMatmul:
    def test_identity(self):
        m = Tensor([[2.0, -1.0], [0.5, 3.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal((eye @ m).data, m.data)

    def test_hand_multiplication(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_outer_product_rank_one(self):
        a = Tensor([[1.0], [2.0], [3.0]])
        b = Tensor([[4.0, 5.0, 6.0, 7.0]])
        prod = (a @ b).data
        # numerical rank via singular values of the 3x4 result
        s = np.linalg.svd(prod, compute_uv=False)
        assert np.sum(s > 1e-9 * s[0]) <= 1

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((2, 3)))
        with pytest.raises(tt.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            a @ b

    def test_batched_backward(self):
        rng = Rng(7)
        a = Tensor(rng.gaussian((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.gaussian((4, 5)), requires_grad=True)
        check_grad(lambda: tt.tsum(tt.mul(a @ b, a @ b)), [a, b])

    @pytest.mark.parametrize("lead", [(2, 3), (2, 3, 4)])
    def test_activation_times_weight_is_per_slice(self, lead):
        """A 3-D or 4-D activation times a 2-D weight: forward and both
        gradients equal the product of each (rows, k) slice with the weight."""
        rng = Rng(11)
        a = Tensor(rng.gaussian(lead + (5,)), requires_grad=True)
        w = Tensor(rng.gaussian((5, 6)), requires_grad=True)
        c = rng.gaussian(lead + (6,))
        out = a @ w
        tt.tsum(tt.mul(out, Tensor(c))).backward()
        ref = np.empty(c.shape)
        ref_da = np.empty(a.shape)
        ref_dw = np.zeros(w.shape)
        for i in np.ndindex(*lead[:-1]):
            ref[i] = a.data[i] @ w.data
            ref_da[i] = c[i] @ w.data.T
            ref_dw += a.data[i].T @ c[i]
        for got, want in ((out.data, ref), (a.grad, ref_da), (w.grad, ref_dw)):
            assert got.shape == want.shape
            assert rel_err(got, want) < 1e-12
        a.zero_grad()
        w.zero_grad()
        check_grad(lambda: tt.tsum(tt.mul(a @ w, Tensor(c))), [a, w])

    @pytest.mark.parametrize("rows", [(4,), (2, 4)])
    def test_weight_grad_through_transpose_keeps_layout(self, rows):
        """A weight used as transpose(W) gets a gradient laid out like W."""
        rng = Rng(12)
        x = Tensor(rng.gaussian(rows + (3,)))
        w = Tensor(rng.gaussian((5, 3)), requires_grad=True)
        tt.tsum(tt.mul(x @ tt.transpose(w), x @ tt.transpose(w))).backward()
        assert w.grad.shape == w.data.shape
        assert w.grad.flags.c_contiguous


class TestLinear:
    # (x, w) of every weight product of the parity transformer (batch 64,
    # seq 4, d_model 32, d_ff 64, vocab 2), and of the 16x16 matrix teacher
    SHAPES = [
        ((64, 4, 32), (32, 32)),  # attention q, k, v, o
        ((64, 4, 32), (64, 32)),  # ffn up
        ((64, 4, 64), (32, 64)),  # ffn down
        ((64, 4, 32), (2, 32)),  # output head
        ((128, 16), (16, 16)),  # mlp dense
    ]

    @pytest.mark.parametrize("x_shape, w_shape", SHAPES)
    def test_bytes_match_matmul_of_the_transpose(self, x_shape, w_shape):
        """linear(x, w) is matmul(x, transpose(w)) with one node and one
        gradient copy fewer: the output, x.grad and w.grad keep their bytes,
        and w.grad is C-contiguous like w."""
        rng = Rng(23)
        xd, wd = rng.gaussian(x_shape), rng.gaussian(w_shape)
        g = Tensor(rng.gaussian(x_shape[:-1] + w_shape[:1]))
        results = []
        for op in (tt.linear, lambda x, w: tt.matmul(x, tt.transpose(w))):
            x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
            y = op(x, w)
            tt.tsum(tt.mul(y, g)).backward()
            results.append((y.data, x.grad, w.grad))
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert results[0][2].flags.c_contiguous

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(tt.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            tt.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(tt.ShapeError, match="2-D weight"):
            tt.linear(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))


def _parity_graph_inputs():
    """A small parity dataset, a 2-layer transformer and rank-1 adapters on
    every adaptable weight."""
    from xgblora.lora import init_adapter_set
    from xgblora.models import build_transformer, list_adaptable_weights
    from xgblora.tasks import gen_sequence_dataset

    data = gen_sequence_dataset("parity", seq_len=4, n=16, seed=0)
    model = build_transformer(vocab=2, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=Rng(1), max_seq=4)
    return data, model, init_adapter_set(model, list_adaptable_weights(model), 1, Rng(2))


class TestBackward:
    def test_quadratic_grad_is_identity(self):
        w = Tensor([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
        loss = tt.tsum(tt.mul(w, w)) * 0.5
        loss.backward()
        assert np.allclose(w.grad, w.data)

    def test_constant_loss_zero_grads(self):
        w = Tensor([[1.0, 2.0]], requires_grad=True)
        loss = tt.tsum(w * 0.0)
        loss.backward()
        assert np.array_equal(w.grad, np.zeros_like(w.data))

    def test_non_scalar_loss_rejected(self):
        w = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(tt.GraphError):
            (w * 2.0).backward()

    def test_shared_subexpression_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = tt.add(x, x)  # dy/dx = 2
        loss = tt.tsum(y)
        loss.backward()
        assert np.allclose(x.grad, [2.0])

    def test_second_backward_on_a_consumed_graph_raises(self):
        """backward() releases the graph it walks; walking it again, from the
        same loss or from another loss that shares a node, is an error, not
        a silent pass that leaves the gradients unset."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = tt.mul(x, x)
        loss = tt.tsum(y)
        loss.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(tt.GraphError, match="consumed"):
            loss.backward()
        with pytest.raises(tt.GraphError, match="consumed"):
            tt.tsum(tt.scale(y, 3.0)).backward()
        x.zero_grad()
        tt.tsum(tt.mul(x, x)).backward()  # a recomputed loss has a fresh graph
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_graph_freed_by_reference_counting(self):
        """With the cyclic collector off, the array an interior node of a
        training step's graph holds is gone once backward() has returned and
        the loss is dropped."""
        from xgblora.models import batch_loss

        data, model, adapters = _parity_graph_inputs()
        gc.disable()
        try:
            loss = batch_loss(model, data, adapters=adapters)
            interior = weakref.ref(loss._prev[0].data)
            assert interior() is not None
            loss.backward()
            del loss
            assert interior() is None
        finally:
            gc.enable()
        assert all(p.grad is not None for p in adapters.trainable_params())

    def test_graph_only_read_is_freed_by_reference_counting(self):
        """A loss that is evaluated and read but never backwarded holds no
        reference cycle: with the cyclic collector off, an interior node's
        array is gone once the loss is dropped."""
        from xgblora.models import batch_loss

        data, model, adapters = _parity_graph_inputs()
        gc.disable()
        try:
            loss = batch_loss(model, data, adapters=adapters)
            interior = weakref.ref(loss._prev[0].data)
            assert math.isfinite(loss.item())
            assert interior() is not None
            del loss
            assert interior() is None
        finally:
            gc.enable()

    def test_backward_functions_are_module_level(self):
        """No node of a full transformer step's graph (every weight and every
        adapter trained, adapter penalty on) holds a closure: each records a
        module-level function of xgblora.tensor."""
        from xgblora.models import batch_loss

        data, model, adapters = _parity_graph_inputs()
        for w in model.weights.values():
            w.requires_grad = True
        loss = batch_loss(model, data, adapters=adapters, lam=0.1)
        names, seen, stack = set(), set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            fn = node._backward
            if fn is not None:
                assert fn.__closure__ is None
                assert fn.__qualname__ == fn.__name__
                assert getattr(tt, fn.__name__) is fn
                names.add(fn.__name__)
            stack.extend(node._prev)
        ops = ("linear", "matmul2", "matmul", "transpose", "add", "mul", "scale", "gelu",
               "softmax", "layer_norm", "embedding", "reshape", "last_position", "tsum",
               "cross_entropy")
        assert names == {f"_{op}_backward" for op in ops}
        loss.backward()

    def test_grad_never_aliases(self):
        """The first gradient a node receives is copied: a leaf's .grad shares
        no memory with a broadcast view (tsum), a reshaped view (reshape)
        or the gradient an op passes through unchanged (add)."""
        x = Tensor(Rng(5).gaussian((3, 4)), requires_grad=True)
        r = tt.reshape(x, (4, 3))
        s = tt.add(r, 1.0)
        loss = tt.tsum(s)
        loss.backward()
        for node in (loss, s, r):
            assert not np.shares_memory(x.grad, node.grad)
        assert not np.shares_memory(r.grad, s.grad)
        assert np.array_equal(x.grad, np.ones((3, 4)))
        g = np.arange(12.0).reshape(3, 4)
        y = Tensor(np.zeros((3, 4)), requires_grad=True)
        y._accumulate(g)
        assert not np.shares_memory(y.grad, g)
        y._accumulate(g)
        assert np.array_equal(y.grad, 2 * g)
        assert np.array_equal(g, np.arange(12.0).reshape(3, 4))


class TestKernelGradients:
    """Every primitive kernel matches the finite-difference oracle (f64)."""

    def setup_method(self):
        self.rng = Rng(2024)

    def _t(self, shape, scale=1.0):
        return Tensor(self.rng.gaussian(shape) * scale, requires_grad=True)

    def test_add_sub_mul(self):
        a, b = self._t((3, 4)), self._t((3, 4))
        check_grad(lambda: tt.tsum(tt.mul(tt.add(a, b), tt.sub(a, b))), [a, b])

    def test_broadcast_add(self):
        a, b = self._t((2, 3, 4)), self._t((4,))
        check_grad(lambda: tt.tsum(tt.mul(tt.add(a, b), tt.add(a, b))), [a, b])

    def test_scale_neg(self):
        a = self._t((5,))
        check_grad(lambda: tt.tsum(tt.mul(-a, a * 0.3)), [a])

    def test_transpose(self):
        a = self._t((3, 5))
        check_grad(lambda: tt.tsum(tt.mul(tt.transpose(a), tt.transpose(a))), [a])

    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    def test_linear(self, lead):
        x, w = self._t(lead + (5,)), self._t((3, 5))
        check_grad(lambda: tt.tsum(tt.mul(tt.linear(x, w), tt.linear(x, w))), [x, w])

    def test_relu(self):
        a = Tensor([-1.5, -0.2, 0.3, 2.0], requires_grad=True)
        check_grad(lambda: tt.tsum(tt.mul(tt.relu(a), a)), [a])

    def test_gelu(self):
        a = self._t((4, 3))
        check_grad(lambda: tt.tsum(tt.mul(tt.gelu(a), a)), [a])

    def test_gelu_matches_the_cube_formula(self):
        """gelu computes x³ as x·x·x: over [-8, 8] it stays within 4 eps
        of the `x**3` formula. Absolute, not in ulps: in the negative tail
        gelu cancels towards 0, where ulps are tiny."""
        x = np.linspace(-8.0, 8.0, 200_001)
        ref = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))
        assert np.abs(tt.gelu(Tensor(x)).data - ref).max() <= 4 * np.finfo(np.float64).eps

    def test_softmax(self):
        a = self._t((3, 6))
        w = Tensor(self.rng.gaussian((3, 6)))
        check_grad(lambda: tt.tsum(tt.mul(tt.softmax(a), w)), [a])

    def test_layer_norm(self):
        a = self._t((4, 8))
        w = Tensor(self.rng.gaussian((4, 8)))
        check_grad(lambda: tt.tsum(tt.mul(tt.layer_norm(a), w)), [a])

    def test_embedding(self):
        table = self._t((7, 4))
        ids = np.array([[0, 3, 3], [6, 1, 0]])
        check_grad(lambda: tt.tsum(tt.mul(tt.embedding(table, ids), tt.embedding(table, ids))), [table])

    @pytest.mark.parametrize("seq", [1, 4])
    def test_last_position(self, seq):
        a = self._t((3, seq, 5))
        check_grad(lambda: tt.tsum(tt.mul(tt.last_position(a), tt.last_position(a))), [a])

    @pytest.mark.parametrize("seq", [1, 3])
    def test_last_position_is_a_contiguous_copy(self, seq):
        a = Tensor(self.rng.gaussian((2, seq, 4)))
        out = tt.last_position(a)
        assert out.data.flags.c_contiguous and not np.shares_memory(out.data, a.data)
        assert np.array_equal(out.data, a.data[:, -1])
        with pytest.raises(tt.ShapeError):
            tt.last_position(Tensor(self.rng.gaussian((2, 3))))

    def test_reshape_sum_axis(self):
        a = self._t((2, 6))
        check_grad(
            lambda: tt.tsum(tt.mul(tt.tsum(tt.reshape(a, (2, 3, 2)), axis=1), tt.tsum(tt.reshape(a, (2, 3, 2)), axis=1))),
            [a],
        )

    def test_mse(self):
        a = self._t((5, 3))
        tgt = self.rng.gaussian((5, 3))
        check_grad(lambda: tt.mse(a, tgt), [a])

    def test_cross_entropy(self):
        a = self._t((6, 4))
        ids = np.array([0, 1, 2, 3, 1, 2])
        check_grad(lambda: tt.cross_entropy_logits(a, ids), [a])

    def test_chain_three_layer_network(self):
        """Composed 3-layer net end-to-end against the oracle."""
        w1, w2, w3 = self._t((8, 5), 0.5), self._t((6, 8), 0.5), self._t((2, 6), 0.5)
        x = Tensor(self.rng.gaussian((4, 5)))
        tgt = self.rng.gaussian((4, 2))

        def loss():
            h = x @ tt.transpose(w1)
            h = tt.gelu(h @ tt.transpose(w2))
            return tt.mse(h @ tt.transpose(w3), tgt)

        check_grad(loss, [w1, w2, w3])


def _ref_gelu(x, g):
    """gelu's output and input gradient in expression form."""
    c = math.sqrt(2.0 / math.pi)
    th = np.tanh(c * (x + 0.044715 * x * x * x))
    d_inner = c * (1.0 + 3 * 0.044715 * x * x)
    return 0.5 * x * (1.0 + th), g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * d_inner)


def _ref_softmax(x, g):
    """softmax through numpy's max and sum reductions."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return y, y * (g - (g * y).sum(axis=-1, keepdims=True))


def _ref_layer_norm(x, g):
    """layer_norm through np.mean and np.var."""
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + tt.LAYER_NORM_EPS)
    y = (x - x.mean(axis=-1, keepdims=True)) * inv
    return y, inv * (g - g.mean(axis=-1, keepdims=True) - y * (g * y).mean(axis=-1, keepdims=True))


def _kernel_inputs(n):
    """(x, g) pairs whose last axis has n entries: row magnitudes from 1e-8
    to 1e8 with a row of negative zeros in g, a transposed input whose last
    axis is strided, and rows holding the causal mask."""
    rng = np.random.default_rng(n)
    mags = rng.permutation(10.0 ** np.linspace(-8.0, 8.0, 24)).reshape(4, 6, 1)
    g = rng.standard_normal((4, 6, n)) * mags[::-1]
    g[1, 2] = -0.0
    yield rng.standard_normal((4, 6, n)) * mags, g
    yield (np.swapaxes(rng.standard_normal((n, 6, 4)), 0, -1),
           np.swapaxes(rng.standard_normal((n, 6, 4)), 0, -1))
    causal = np.triu(np.full((n, n), -1e30), 1)
    yield rng.standard_normal((2, n, n)) + causal, rng.standard_normal((2, n, n))


class TestKernelBits:
    """gelu, softmax and layer_norm build each term once, in place, and
    take short-row reductions as column chains; their output and input
    gradient keep the bytes of the expression forms above. The softmax
    sums pin that numpy adds fewer than 8 terms from 0.0 left to right on
    the recorded build."""

    @pytest.mark.parametrize("n", [*range(1, 10), 16, 32, 64])
    @pytest.mark.parametrize("kernel, ref", [
        (tt.gelu, _ref_gelu), (tt.softmax, _ref_softmax), (tt.layer_norm, _ref_layer_norm),
    ], ids=["gelu", "softmax", "layer_norm"])
    def test_bytes_match_the_reference(self, kernel, ref, n):
        for x, g in _kernel_inputs(n):
            a = Tensor(x, requires_grad=True)
            y = kernel(a)
            tt.tsum(tt.mul(y, Tensor(g))).backward()
            assert y.grad.tobytes() == g.tobytes()
            ref_y, ref_dx = ref(x, y.grad)
            assert y.data.tobytes() == ref_y.tobytes()
            assert a.grad.tobytes() == ref_dx.tobytes()


class TestFiniteDiff:
    def test_quadratic_scalar(self):
        theta = Tensor([3.0])
        g = tt.finite_diff_gradient(lambda: theta.data[0] ** 2, theta, eps=1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_linear_exact_any_eps(self):
        theta = Tensor([1.0, -2.0, 0.5])
        slope = np.array([2.0, 3.0, -1.0])
        for eps in (1e-2, 1e-5):
            g = tt.finite_diff_gradient(lambda: float(slope @ theta.data), theta, eps=eps)
            assert np.allclose(g, slope, atol=1e-9)

    def test_eps_must_be_positive(self):
        theta = Tensor([1.0])
        for eps in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps"):
                tt.finite_diff_gradient(lambda: 0.0, theta, eps=eps)

    def test_restores_theta(self):
        theta = Tensor([1.0, 2.0])
        before = theta.data.copy()
        tt.finite_diff_gradient(lambda: float(theta.data.sum()), theta)
        assert np.array_equal(theta.data, before)


class TestSgdStep:
    def test_zero_grad_keeps_params(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2)
        tt.sgd_step([p], eta=0.5)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_arithmetic(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([2.0])
        tt.sgd_step([p], eta=0.1)
        assert np.allclose(p.data, [0.8])

    def test_quadratic_descends_for_small_eta(self):
        # half-theta-squared: one step with eta < 2 strictly decreases loss
        for eta in (0.1, 1.0, 1.9):
            p = Tensor([4.0], requires_grad=True)
            loss0 = 0.5 * p.data[0] ** 2
            (tt.tsum(tt.mul(p, p)) * 0.5).backward()
            tt.sgd_step([p], eta=eta)
            assert 0.5 * p.data[0] ** 2 < loss0

    def test_grads_consumed(self):
        p = Tensor([1.0], requires_grad=True)
        (tt.tsum(tt.mul(p, p))).backward()
        tt.sgd_step([p], eta=0.1)
        assert p.grad is None

    def test_shape_mismatch(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(3)
        with pytest.raises(tt.ShapeError):
            tt.sgd_step([p], eta=0.1)

    def test_eta_must_be_finite_and_nonnegative(self):
        for eta in (-1.0, float("nan"), float("inf")):
            p = Tensor([1.0, 2.0], requires_grad=True)
            p.grad = np.ones(2)
            with pytest.raises(ValueError, match="step size"):
                tt.sgd_step([p], eta=eta)
            assert np.array_equal(p.data, [1.0, 2.0])


class TestFrobenius:
    def test_zero(self):
        assert tt.frobenius_norm(Tensor(np.zeros((3, 3)))) == 0.0

    def test_three_four_five(self):
        assert tt.frobenius_norm(Tensor([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_svd_identity(self):
        g = Rng(11).gaussian((10, 10))
        s = np.linalg.svd(g, compute_uv=False)
        assert rel_err(tt.frobenius_norm(Tensor(g)) ** 2, (s * s).sum()) < 1e-8

    def test_trace_identity(self):
        m = Rng(5).gaussian((6, 9))
        assert rel_err(tt.frobenius_norm(Tensor(m)) ** 2, np.trace(m.T @ m)) < 1e-10


def _splitmix_reference(seed, n):
    """Scalar reference transcription; independent of the vectorized path."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestRng:
    # first three outputs for seed 0, frozen from the scalar reference above
    PINNED_SEED0 = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]

    def test_pinned_vectors_seed0(self):
        rng = Rng(0)
        assert [rng.next_u64() for _ in range(3)] == self.PINNED_SEED0

    def test_matches_scalar_reference(self):
        for seed in (0, 1, 42, 0xDEADBEEF, (1 << 64) - 1):
            rng = Rng(seed)
            assert list(rng._raw(16)) == _splitmix_reference(seed, 16)

    def test_scalar_draws_are_the_raw_stream(self):
        """next_u64 steps in Python integers: 1000 draws are `_raw(1000)`
        and leave the same state."""
        for seed in (0, 7, 0xDEADBEEF, (1 << 64) - 1):
            scalar, raw = Rng(seed), Rng(seed)
            draws = [scalar.next_u64() for _ in range(1000)]
            assert all(type(d) is int for d in draws)
            assert draws == raw._raw(1000).tolist()
            assert scalar.state == raw.state

    def test_same_seed_same_tensors(self):
        a = Rng(99).gaussian((17, 3))
        b = Rng(99).gaussian((17, 3))
        assert np.array_equal(a, b)

    def test_gaussian_moments(self):
        z = Rng(123).gaussian((100_000,))
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05

    def test_randint_bounds(self):
        rng = Rng(17)
        draws = [rng.randint(10) for _ in range(1000)]
        assert min(draws) >= 0 and max(draws) <= 9
        assert len(set(draws)) == 10

    @pytest.mark.parametrize("n", [1, 2, 7, 128, (1 << 32) - 1])
    @pytest.mark.parametrize("size", [0, 1, 200])
    def test_randint_array_is_the_scalar_stream(self, n, size):
        for seed in (0, 1, 11, 0xDEADBEEF, (1 << 64) - 1):
            batched, scalar = Rng(seed), Rng(seed)
            got = batched.randint_array(n, size)
            assert got.dtype == np.int64
            assert got.tolist() == [scalar.randint(n) for _ in range(size)]
            assert batched.state == scalar.state

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_gaussian_rounds_are_the_per_call_draws(self, count):
        shapes = [(1,), (5,), (4, 6), (3, 3), (2,)]  # sizes 1, odd and even
        for seed in (0, 3, (1 << 64) - 1):
            bulk, calls = Rng(seed), Rng(seed)
            rounds = bulk.gaussian_rounds(shapes, count)
            assert [r.shape for r in rounds] == [(count, *s) for s in shapes]
            for j in range(count):
                for r, s in zip(rounds, shapes):
                    assert r[j].tobytes() == calls.gaussian(s).tobytes()
            assert bulk.state == calls.state

    def test_randint_array_bounds_on_n(self):
        for n in (0, 1 << 32):
            with pytest.raises(ValueError, match=f"got {n}$"):
                Rng(0).randint_array(n, 4)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_seed_reproducible(self, seed):
        assert Rng(seed).next_u64() == Rng(seed).next_u64()


class TestDeterminism:
    def test_fixed_seed_bit_identical_training_step(self):
        def run():
            rng = Rng(31337)
            w = Tensor(rng.gaussian((6, 6)), requires_grad=True)
            x = Tensor(rng.gaussian((8, 6)))
            tgt = rng.gaussian((8, 6))
            for _ in range(5):
                loss = tt.mse(x @ tt.transpose(w), tgt)
                loss.backward()
                tt.sgd_step([w], eta=0.05)
            return w.data.copy()

        assert np.array_equal(run(), run())

    def test_graph_replay_identical(self):
        rng = Rng(8)
        a = Tensor(rng.gaussian((4, 4)), requires_grad=True)
        b = Tensor(rng.gaussian((4, 4)))
        out1 = tt.softmax(a @ b).data.copy()
        out2 = tt.softmax(a @ b).data.copy()
        assert np.array_equal(out1, out2)


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=16),
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=16),
)
@settings(max_examples=50, deadline=None)
def test_add_commutes(xs, ys):
    n = min(len(xs), len(ys))
    a = Tensor(xs[:n])
    b = Tensor(ys[:n])
    assert np.array_equal(tt.add(a, b).data, tt.add(b, a).data)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols):
    x = Tensor(Rng(rows * 31 + cols).gaussian((rows, cols)) * 3)
    s = tt.softmax(x).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert (s >= 0).all()
