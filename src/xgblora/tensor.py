"""Dense tensors with reverse-mode autodiff, a splitmix64 PRNG, and a
finite-difference gradient oracle.

The op set is deliberately small: linear (x @ wᵀ, every activation × weight
product), matmul, transpose, add/sub/mul, scalar ops, relu, gelu (tanh
form), row softmax, layer norm, embedding gather, reshape, last sequence
position, sum, cross-entropy-with-logits, mse. Tensor data is always
float64, the one precision; a fixed seed gives bit-identical runs. A test
pins that a short parity fit ends on the same weight bits with OpenBLAS on
one thread and on two; other BLAS builds and thread counts are not
checked.

An op's node records a module-level backward function, its input nodes
and the arrays that function needs, not a closure, so a graph holds no
reference cycle and is freed by reference counting, backwarded or not;
`backward()` releases it as it walks, so a training step's arrays are freed
as soon as it returns. Importing this module therefore tunes glibc's
allocator to keep the freed heap (`_keep_heap`). A gradient an op has just
computed becomes its input's `.grad` without a copy (`_take`).

Kernel rules (gelu, softmax, layer_norm): one pass per term, in place
where it can be, by the floating-point operations of the expression form in
their order. A row max is exact in any order, and numpy sums fewer than 8
terms from 0.0 left to right (more pairwise), so a short last axis takes
both as chains of column ops (`_row_reduce`); `test_tensor` pins the bytes.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA, _M1, _M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# the generator's uint64 constants, built once: a numpy scalar costs about
# as much to make as a small draw costs to compute
_GAMMA64, _MIX1, _MIX2 = np.uint64(_GAMMA), np.uint64(_M1), np.uint64(_M2)
_LOW32 = np.uint64(0xFFFFFFFF)
_S11, _S27, _S30, _S31, _S32 = (np.uint64(s) for s in (11, 27, 30, 31, 32))


class ShapeError(ValueError):
    """Operand shapes violate an op contract."""


class GraphError(ValueError):
    """Autodiff graph misuse (non-scalar loss, detached node, a graph an
    earlier backward() consumed, ...)."""


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap() -> bool:
    """Have glibc keep freed memory for reuse instead of returning it;
    False where libc has no `mallopt` (not glibc), which keeps its policy.

    A parity training step (batch 64, d_model 32) allocates a few MB of
    arrays, the largest 128 KB, and `backward()` frees them all when it
    returns. At glibc's defaults, blocks from 128 KB up are mmapped one by
    one, and a free heap top over twice the largest of them is trimmed, so
    every step gave its pages back to the OS and faulted them in again.
    Measured on a 2-vCPU host with OpenBLAS on one thread, over 8 fits of
    2 x 64 parity steps after a warm-up fit, with no frozen-prefix cache:
    1357 minor page faults per step, 1.7 s of system time over the 1024
    steps and 147 steps/s, slower than the 150 of a tape that kept its
    graphs as reference cycles. Blocks below 32 MiB now come from the
    heap, and the heap keeps up to 256 MiB free at its top: 0 page faults
    per step and 208 steps/s. Peak RSS of such a fit is 40 MB either way
    (262 MB with the cycles).

    Process-wide, set once at import."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 256 << 20)])


HEAP_KEPT = _keep_heap()


def _as_array(data):
    arr = np.asarray(data, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("tensor data must be finite (got NaN/Inf)")
    return arr


class Tensor:
    """N-d float64 array plus an optional gradient slot.

    An op's output node keeps its input nodes (`_prev`), the op's
    module-level backward function and what that function needs from the
    forward (`_saved`); `backward()` walks the implicit graph in reverse
    topological order exactly once per node, calling `node._backward(node)`,
    and drops each node's function, links and saved arrays once it has run
    (`_prev` None marks a consumed node; a leaf's is the empty tuple).
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_prev", "_saved")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._prev = ()
        self._saved = None

    @classmethod
    def _from_op(cls, data, prev, backward, saved):
        """The node an op computed from the tuple of nodes `prev`. It keeps
        `prev`, `backward` and `saved` only when one of them needs a
        gradient; a node with no graph holds no other node."""
        out = cls.__new__(cls)
        out.data, out.grad = data, None
        for p in prev:
            if p.requires_grad:
                out.requires_grad, out._prev, out._backward, out._saved = True, prev, backward, saved
                return out
        out.requires_grad, out._prev, out._backward, out._saved = False, (), None, None
        return out

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise GraphError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, g):
        """Add `g` into `.grad`. The first touch copies `g` into a fresh
        array laid out like `.data` (`empty_like` keeps the parameter's
        memory order), so `.grad` never aliases a view or another node's
        gradient, and a weight gets a C-contiguous gradient like W itself,
        also from `linear` or `transpose(W)`: the order BLAS sums in later
        products of that gradient does not depend on how W was used."""
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def _take(self, g):
        """`_accumulate` for a gradient an op has just computed as a new
        array that nothing else holds. On first touch, when `g` and `.data`
        are both C-contiguous, `.grad` is `g` itself: the copy would have
        had the same bytes and layout."""
        if (self.grad is None and type(g) is np.ndarray and g.flags.c_contiguous
                and self.data.flags.c_contiguous):
            self.grad = g
        else:
            self._accumulate(g)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate .grad on every requires_grad tensor reachable from here.

        The loss must be scalar. Each node's backward function runs exactly
        once, in reverse topological order, so repeated subexpressions
        accumulate correctly and replays are bit-identical. Once it has run,
        the node drops the function, its parent links and its saved arrays,
        so the graph's arrays are freed by reference counting as soon as
        nothing else holds them. A graph is therefore walked once; a second
        backward() through any of its nodes raises GraphError.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("backward() on a tensor with no graph (requires_grad=False)")

        # depth-first post-order; a node's second pop before it is finished
        # is its marker, since a DAG pops a node's duplicates after that
        topo = []
        visited = set()
        finished = set()
        stack = [self]
        while stack:
            node = stack.pop()
            key = id(node)
            if key in visited:
                if key not in finished:
                    finished.add(key)
                    topo.append(node)
                continue
            if node._prev is None:
                raise GraphError(
                    "backward() through a graph an earlier backward() consumed; "
                    "recompute the loss to take its gradient again"
                )
            visited.add(key)
            stack.append(node)
            for p in node._prev:
                if p.requires_grad and id(p) not in visited:
                    stack.append(p)

        self.grad = np.ones(self.data.shape)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node)
                node._backward = None
                node._prev = None
                node._saved = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # operator sugar; the real kernels are module functions below
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def _unbroadcast(grad, shape):
    """Sum a broadcasted gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _coerce(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ wᵀ for a 2-D weight w (n, k): every activation × weight product.

    One gemm over the rows of `x` flattened to (-1, k), so the weight
    gradient is one product, not a per-row stack summed back down. The
    operands of `matmul(x, transpose(w))`, with one node and one gradient
    copy fewer: dx = dy·w, and dw = (x2ᵀ·dy)ᵀ copied into w's layout."""
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"linear needs an ndim >= 2 input and a 2-D weight, got {x.shape}, {w.shape}")
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} @ {w.shape}.T")
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out_data = (x2 @ w.data.T).reshape(x.data.shape[:-1] + (w.data.shape[0],))
    return Tensor._from_op(out_data, (x, w), _linear_backward, x2)


def _linear_backward(out):
    x, w = out._prev
    g2 = out.grad.reshape(-1, w.data.shape[0])
    if x.requires_grad:
        x._take((g2 @ w.data).reshape(x.data.shape))
    if w.requires_grad:
        w._accumulate((out._saved.T @ g2).T)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; dA = dC·Bᵀ, dB = Aᵀ·dC.

    A 2-D `b` (the adapter product A·B) takes one gemm over the rows of `a`
    flattened to (-1, k), as `linear` does. Only a `b` with leading dims
    (the attention's 4-D @ 4-D products) takes the batched path. For a 2-D
    `a` both paths do the same arithmetic.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if b.data.ndim == 2:
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out_data = (a2 @ b.data).reshape(a.data.shape[:-1] + (b.data.shape[1],))
        return Tensor._from_op(out_data, (a, b), _matmul2_backward, a2)
    return Tensor._from_op(a.data @ b.data, (a, b), _matmul_backward, None)


def _matmul2_backward(out):
    a, b = out._prev
    g2 = out.grad.reshape(-1, b.data.shape[1])
    if a.requires_grad:
        a._take((g2 @ b.data.T).reshape(a.data.shape))
    if b.requires_grad:
        b._take(out._saved.T @ g2)


def _matmul_backward(out):
    a, b = out._prev
    g = out.grad
    if a.requires_grad:
        a._take(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
    if b.requires_grad:
        b._take(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))


def transpose(t: Tensor, ax1=-2, ax2=-1) -> Tensor:
    return Tensor._from_op(np.swapaxes(t.data, ax1, ax2), (t,), _transpose_backward, (ax1, ax2))


def _transpose_backward(out):
    ax1, ax2 = out._saved
    out._prev[0]._accumulate(np.swapaxes(out.grad, ax1, ax2))


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b)
    return Tensor._from_op(a.data + b.data, (a, b), _add_backward, False)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b)
    return Tensor._from_op(a.data - b.data, (a, b), _add_backward, True)


def _add_backward(out):
    """add's and sub's; `out._saved` says whether b was subtracted."""
    a, b = out._prev
    g = out.grad
    if a.requires_grad:
        a._accumulate(_unbroadcast(g, a.data.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(-g if out._saved else g, b.data.shape))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor._from_op(a.data * b.data, (a, b), _mul_backward, None)


def _mul_backward(out):
    a, b = out._prev
    g = out.grad
    if a.requires_grad:
        a._take(_unbroadcast(g * b.data, a.data.shape))
    if b.requires_grad:
        b._take(_unbroadcast(g * a.data, b.data.shape))


def scale(t: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor._from_op(t.data * c, (t,), _scale_backward, c)


def _scale_backward(out):
    out._prev[0]._take(out.grad * out._saved)


def relu(t: Tensor) -> Tensor:
    return Tensor._from_op(np.maximum(t.data, 0), (t,), _relu_backward, None)


def _relu_backward(out):
    t = out._prev[0]
    t._take(out.grad * (t.data > 0))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(t: Tensor) -> Tensor:
    """Tanh-approximation gelu: 0.5·x·(1 + tanh(c·(x + 0.044715·x³)))."""
    x = t.data
    # products, not `**`: numpy's float64 power of 3 calls libm pow()
    th = x * 0.044715
    th *= x
    th *= x
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    opt = th + 1.0  # 1 + tanh, kept for the backward
    out_data = x * 0.5
    out_data *= opt
    return Tensor._from_op(out_data, (t,), _gelu_backward, (th, opt))


def _gelu_backward(out):
    t = out._prev[0]
    th, opt = out._saved
    x = t.data
    # c·(1 + 3·0.044715·x·x)
    d_inner = x * (3 * 0.044715)
    d_inner *= x
    d_inner += 1.0
    d_inner *= _GELU_C
    # 0.5·(1 + tanh) + 0.5·x·(1 − tanh²)·d_inner
    dx = th * th
    np.subtract(1.0, dx, out=dx)
    dx *= 0.5 * x
    dx *= d_inner
    dx += np.multiply(opt, 0.5, out=d_inner)
    dx *= out.grad
    t._take(dx)


_SHORT_ROW = 8  # numpy sums shorter rows from 0.0 left to right


def _row_reduce(ufunc, a, start):
    """`ufunc.reduce(a, axis=-1, keepdims=True)`, bit for bit, for np.add
    from 0.0 or np.maximum from -inf. A short row takes a chain of column
    ops from `start`: numpy's own order for a sum, and a max is exact in
    any order."""
    n = a.shape[-1]
    if not 0 < n < _SHORT_ROW:
        return ufunc.reduce(a, axis=-1, keepdims=True)
    out = ufunc(a[..., :1], start)
    for j in range(1, n):
        ufunc(out, a[..., j:j + 1], out=out)
    return out


def softmax(t: Tensor) -> Tensor:
    """Row softmax over the last axis, stabilized by max subtraction."""
    e = np.subtract(t.data, _row_reduce(np.maximum, t.data, -math.inf))
    np.exp(e, out=e)
    out_data = np.divide(e, _row_reduce(np.add, e, 0.0), out=e)
    return Tensor._from_op(out_data, (t,), _softmax_backward, None)


def _softmax_backward(out):
    g, y = out.grad, out.data
    d = g * y
    d = np.subtract(g, _row_reduce(np.add, d, 0.0), out=d)
    d *= y
    out._prev[0]._take(d)


LAYER_NORM_EPS = 1e-5


def layer_norm(t: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine part)."""
    x = t.data
    n = x.shape[-1]
    # what x.mean and x.var compute, each term once
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    y = np.multiply(xc, inv, out=xc)
    return Tensor._from_op(y, (t,), _layer_norm_backward, inv)


def _layer_norm_backward(out):
    g, y = out.grad, out.data
    n = y.shape[-1]
    gy = g * y
    gym = np.add.reduce(gy, axis=-1, keepdims=True) / n
    d = g - np.add.reduce(g, axis=-1, keepdims=True) / n
    d -= np.multiply(y, gym, out=gy)
    d *= out._saved
    out._prev[0]._take(d)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by integer ids; backward scatter-adds."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"embedding ids must be integers, got dtype {ids.dtype}")
    return Tensor._from_op(table.data[ids], (table,), _embedding_backward, ids)


def _embedding_backward(out):
    table = out._prev[0]
    g = np.zeros_like(table.data)
    np.add.at(g, out._saved.reshape(-1), out.grad.reshape(-1, table.data.shape[-1]))
    table._take(g)


def reshape(t: Tensor, shape) -> Tensor:
    return Tensor._from_op(t.data.reshape(shape), (t,), _reshape_backward, None)


def _reshape_backward(out):
    t = out._prev[0]
    t._accumulate(out.grad.reshape(t.data.shape))


def last_position(t: Tensor) -> Tensor:
    """The last sequence position of a (b, seq, d) tensor, as a C-contiguous
    (b, d) copy; backward scatters the gradient into zeros at the other
    positions."""
    if t.data.ndim != 3:
        raise ShapeError(f"last_position needs a (batch, seq, d) tensor, got {t.shape}")
    return Tensor._from_op(t.data[:, -1].copy(), (t,), _last_position_backward, None)


def _last_position_backward(out):
    t = out._prev[0]
    g = np.zeros(t.data.shape)
    g[:, -1] = out.grad
    t._take(g)


def tsum(t: Tensor, axis=None) -> Tensor:
    out_data = t.data.sum(axis=axis)
    if axis is None:
        out_data = np.asarray(out_data)
    return Tensor._from_op(out_data, (t,), _tsum_backward, axis)


def _tsum_backward(out):
    t = out._prev[0]
    g = out.grad
    if out._saved is not None:
        g = np.expand_dims(g, out._saved)
    t._accumulate(np.broadcast_to(g, t.data.shape))


def mse(pred: Tensor, target) -> Tensor:
    """Mean over all elements of (pred − target)²."""
    tgt = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if tgt.shape != pred.data.shape:
        raise ShapeError(f"mse shapes disagree: {pred.shape} vs {tgt.shape}")
    diff = pred.data - tgt
    out_data = np.asarray(np.add.reduce(diff * diff, axis=None) / diff.size)
    return Tensor._from_op(out_data, (pred,), _mse_backward, diff)


def _mse_backward(out):
    diff = out._saved
    out._prev[0]._take(out.grad * (2.0 / diff.size) * diff)


def cross_entropy_logits(logits: Tensor, ids) -> Tensor:
    """Mean NLL of integer class ids given (n, C) logits, via log-sum-exp."""
    ids = np.asarray(ids)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_logits needs (n, C) logits, got {logits.shape}")
    if ids.shape != (logits.data.shape[0],):
        raise ShapeError(f"targets shape {ids.shape} does not match logits {logits.shape}")
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    se = e.sum(axis=-1, keepdims=True)
    lse = np.log(se) + zmax
    n = z.shape[0]
    picked = z[np.arange(n), ids]
    out_data = np.asarray((lse[:, 0] - picked).sum() / n)
    return Tensor._from_op(out_data, (logits,), _cross_entropy_backward, (e, se, ids))


def _cross_entropy_backward(out):
    e, se, ids = out._saved
    n = e.shape[0]
    p = e / se
    p[np.arange(n), ids] -= 1.0
    out._prev[0]._take(out.grad * p / n)


def frobenius_norm(t: Tensor | np.ndarray) -> float:
    """sqrt of the sum of squares of all elements."""
    arr = t.data if isinstance(t, Tensor) else np.asarray(t)
    return float(np.sqrt(np.add.reduce(arr * arr, axis=None)))


def sgd_step(params, eta: float):
    """In-place θ ← θ − η·g for each param, with g its .grad; grads are
    consumed (zeroed). A param with no grad is left untouched (its
    gradient is zero).
    """
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"step size must be finite and >= 0, got {eta}")
    for p in params:
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} does not match param {p.data.shape}")
        p.data -= eta * g
        p.grad = None


def finite_diff_gradient(f, theta: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (f(θ+εe) − f(θ−εe)) / 2ε per coordinate.

    `f` must be a deterministic closure over `theta` returning a float.
    theta.data is perturbed in place and restored exactly.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    flat = theta.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f())
        flat[i] = orig - eps
        fm = float(f())
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad.reshape(theta.data.shape)


# ----------------------------------------------------------------------
# PRNG: splitmix-style 64-bit generator. Same seed => same stream on all
# platforms; reference vectors are pinned in the test suite.
# ----------------------------------------------------------------------


def _mix(z):
    """Finalizer of the splitmix step, vectorized over uint64 arrays."""
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def _box_muller(raw, n: int) -> np.ndarray:
    """The first n standard normals from 2m raw draws along the last axis:
    the first m draws give the radii, the last m the angles, and each
    (radius, angle) pair gives a cos and a sin sample, in that order."""
    m = raw.shape[-1] // 2
    u1 = ((raw[..., :m] >> _S11).astype(np.float64) + 1.0) * 2.0**-53  # (0, 1]
    u2 = (raw[..., m:] >> _S11).astype(np.float64) * 2.0**-53  # [0, 1)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    z = np.empty(raw.shape, dtype=np.float64)
    z[..., 0::2] = r * np.cos(theta)
    z[..., 1::2] = r * np.sin(theta)
    return z[..., :n]


class Rng:
    """Deterministic splitmix64 generator over a single 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = int(seed) & MASK64

    def _raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs; advances state by n increments.

        uint64 array arithmetic wraps silently; only numpy scalar
        arithmetic checks for overflow, and none is done here."""
        z = np.uint64(self.state) + np.arange(1, n + 1, dtype=np.uint64) * _GAMMA64
        self.state = (self.state + n * _GAMMA) & MASK64
        return _mix(z)

    def next_u64(self) -> int:
        """The next raw output: `_raw(1)`'s step in Python integers, which
        costs a fraction of building the arrays for one draw."""
        self.state = z = (self.state + _GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * _M1) & MASK64
        z = ((z ^ (z >> 27)) * _M2) & MASK64
        return z ^ (z >> 31)

    def gaussian(self, shape) -> np.ndarray:
        """iid standard normals via Box-Muller on the raw stream.

        Consumes 2·ceil(n/2) raw draws for n samples.
        """
        n = math.prod(shape)
        return _box_muller(self._raw(2 * ((n + 1) // 2)), n).reshape(shape)

    def gaussian_rounds(self, shapes, count: int) -> list[np.ndarray]:
        """`count` rounds of one `gaussian(s)` call per shape s of `shapes`,
        in that order, from one raw draw.

        Returns one (count, *s) array per shape whose row j is, bit for bit,
        what `gaussian(s)` returns in round j; the final state is that of
        the per-call draws.
        """
        sizes = [math.prod(s) for s in shapes]
        spans = [2 * ((n + 1) // 2) for n in sizes]
        raw = self._raw(count * sum(spans)).reshape(count, sum(spans))
        out, start = [], 0
        for shape, n, span in zip(shapes, sizes, spans):
            out.append(_box_muller(raw[:, start:start + span], n).reshape((count, *shape)))
            start += span
        return out

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) via multiply-shift."""
        if n <= 0:
            raise ValueError(f"randint needs n >= 1, got {n}")
        return (self.next_u64() * n) >> 64

    def randint_array(self, n: int, size: int) -> np.ndarray:
        """`size` uniform integers in [0, n), for 1 <= n < 2**32.

        One multiply-shift (u * n) >> 64 over `_raw(size)`: the same stream,
        and the same final state, as `size` calls of `randint(n)`. The high
        word is built from 32-bit halves of u, so no uint64 product or sum
        overflows.
        """
        if n <= 0:
            raise ValueError(f"randint_array needs n >= 1, got {n}")
        if n >= 1 << 32:
            raise ValueError(f"randint_array needs n < 2**32, got {n}")
        u = self._raw(size)
        n64 = np.uint64(n)
        low = ((u & _LOW32) * n64) >> _S32
        return (((u >> _S32) * n64 + low) >> _S32).astype(np.int64)
