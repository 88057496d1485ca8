"""Small networks with individually addressable weight matrices.

Two model kinds, each with a fixed activation and loss: an L-layer MLP
(first and last layers linear, middle layers relu, mean squared error) and
a tiny decoder-style transformer with pre-norm residual blocks, gelu
feed-forward layers, learned positional embeddings, causal masking and
cross-entropy on the last position; its loss computes the last block past
the attention, the final norm and the head at that position only
(`loss_logits`). All weights are float64 and live in a flat
{WeightId: Tensor} map so adapters can target any matrix. A minibatch
is a `Dataset` too: `Dataset.batch` selects one, and `forward`,
`batch_loss`, `loss_eval` and `accuracy` take a dataset whole. The forward
can also start at a later layer, from the activations `layer_input`
computed below it (`layer_loss`).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from xgblora.tensor import (
    Rng,
    ShapeError,
    Tensor,
    cross_entropy_logits,
    embedding,
    gelu,
    last_position,
    layer_norm,
    linear,
    matmul,
    mse,
    mul,
    relu,
    reshape,
    softmax,
    transpose,
    tsum,
)

ATTN_MASK_NEG = -1e30  # finite stand-in for -inf so tensors stay NaN/Inf-free


class AdapterError(ValueError):
    """Adapter lifecycle misuse (double merge, stale set, bad target)."""


class Role(str, Enum):
    EMBEDDING = "embedding"
    POS_EMBEDDING = "pos_embedding"
    ATTN_Q = "attn_q"
    ATTN_K = "attn_k"
    ATTN_V = "attn_v"
    ATTN_O = "attn_o"
    FFN_UP = "ffn_up"
    FFN_DOWN = "ffn_down"
    MLP_DENSE = "mlp_dense"
    OUTPUT = "output"


# canonical role-minor ordering inside a layer
ROLE_ORDER = {r: i for i, r in enumerate(Role)}


class WeightId(NamedTuple):
    layer: int
    role: Role

    def __str__(self):
        return f"L{self.layer}.{self.role.value}"


def sort_key(wid: WeightId):
    return (wid.layer, ROLE_ORDER[wid.role])


@dataclass
class ModelSpec:
    """A layered network: structural parameters plus the weight map."""

    kind: str  # "mlp" (relu, mse) | "tiny_transformer" (gelu, cross-entropy)
    layers: int
    weights: dict[WeightId, Tensor]
    dims: Optional[list[int]] = None  # mlp only
    vocab: Optional[int] = None
    d_model: Optional[int] = None
    n_heads: Optional[int] = None
    d_ff: Optional[int] = None
    max_seq: Optional[int] = None

    def structure(self) -> dict:
        """JSON-serializable structural description (no weight values)."""
        return {
            "kind": self.kind,
            "layers": self.layers,
            "dims": self.dims,
            "vocab": self.vocab,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "max_seq": self.max_seq,
        }

    def copy(self) -> "ModelSpec":
        """Deep copy of weights; structure shared by value."""
        weights = {wid: Tensor(w.data.copy()) for wid, w in self.weights.items()}
        return ModelSpec(weights=weights, **self.structure())

    def total_params(self) -> int:
        return sum(w.data.size for w in self.weights.values())


@dataclass
class Dataset:
    """Paired inputs/targets, a whole dataset or a minibatch of one.
    Inputs are float features (N, d) or integer token sequences (N, seq);
    targets are float arrays or integer labels."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise ShapeError(
                f"inputs ({len(self.inputs)}) and targets ({len(self.targets)}) disagree"
            )
        if len(self.inputs) < 1:
            raise ShapeError("dataset needs at least one example")

    @property
    def n(self) -> int:
        return len(self.inputs)

    def batch(self, indices) -> "Dataset":
        """The minibatch of the examples at `indices`."""
        idx = np.asarray(indices)
        return Dataset(self.inputs[idx], self.targets[idx])

    def sha256(self) -> str:
        """Hex digest of the inputs and targets (dtype, shape and bytes)."""
        h = hashlib.sha256()
        for arr in (np.ascontiguousarray(self.inputs), np.ascontiguousarray(self.targets)):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        return h.hexdigest()


def _gauss_init(rng: Rng, shape) -> Tensor:
    """Gaussian scale 1/sqrt(fan_in); fan_in is the trailing dim."""
    fan_in = shape[-1]
    return Tensor(rng.gaussian(shape) / math.sqrt(fan_in))


def build_mlp(dims, rng=None) -> ModelSpec:
    """L-layer MLP from dims=[d0, d1, ..., dL]; weight i is (d_i, d_{i-1})."""
    dims = list(dims)
    if len(dims) < 2:
        raise ValueError(f"build_mlp needs at least [d_in, d_out], got {dims}")
    rng = rng or Rng(0)
    weights = {}
    for i in range(1, len(dims)):
        weights[WeightId(i, Role.MLP_DENSE)] = _gauss_init(rng, (dims[i], dims[i - 1]))
    return ModelSpec(kind="mlp", layers=len(dims) - 1, weights=weights, dims=dims)


def build_transformer(
    vocab,
    d_model,
    n_layers,
    n_heads,
    d_ff,
    rng=None,
    max_seq=64,
) -> ModelSpec:
    """Decoder-only transformer: per block AttnQ/K/V/O (d_model square) and
    FfnUp (d_ff, d_model) / FfnDown (d_model, d_ff), plus embedding, learned
    positional embedding, and an output head."""
    if d_model % n_heads != 0:
        raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
    rng = rng or Rng(0)
    weights = {}
    weights[WeightId(1, Role.EMBEDDING)] = _gauss_init(rng, (vocab, d_model))
    weights[WeightId(1, Role.POS_EMBEDDING)] = _gauss_init(rng, (max_seq, d_model))
    for l in range(1, n_layers + 1):
        weights[WeightId(l, Role.ATTN_Q)] = _gauss_init(rng, (d_model, d_model))
        weights[WeightId(l, Role.ATTN_K)] = _gauss_init(rng, (d_model, d_model))
        weights[WeightId(l, Role.ATTN_V)] = _gauss_init(rng, (d_model, d_model))
        weights[WeightId(l, Role.ATTN_O)] = _gauss_init(rng, (d_model, d_model))
        weights[WeightId(l, Role.FFN_UP)] = _gauss_init(rng, (d_ff, d_model))
        weights[WeightId(l, Role.FFN_DOWN)] = _gauss_init(rng, (d_model, d_ff))
    weights[WeightId(n_layers, Role.OUTPUT)] = _gauss_init(rng, (vocab, d_model))
    return ModelSpec(
        kind="tiny_transformer",
        layers=n_layers,
        weights=weights,
        vocab=vocab,
        d_model=d_model,
        n_heads=n_heads,
        d_ff=d_ff,
        max_seq=max_seq,
    )


def list_adaptable_weights(model: ModelSpec, policy="qv") -> list[WeightId]:
    """Deterministic (layer-major, role-minor) list of adapter targets.

    policy "qv" restricts transformer blocks to the attention query/value
    matrices; "all" widens to all six per-block matrices. Embedding and
    output head are never adapted. MLPs expose every dense matrix
    regardless of policy.
    """
    if policy not in ("qv", "all"):
        raise ValueError(f"unknown adapt policy {policy!r}")
    if model.kind == "mlp":
        ids = [wid for wid in model.weights if wid.role == Role.MLP_DENSE]
    else:
        block_roles = (
            (Role.ATTN_Q, Role.ATTN_V)
            if policy == "qv"
            else (Role.ATTN_Q, Role.ATTN_K, Role.ATTN_V, Role.ATTN_O, Role.FFN_UP, Role.FFN_DOWN)
        )
        ids = [wid for wid in model.weights if wid.role in block_roles]
    return sorted(ids, key=sort_key)


def _resolve_weights(model: ModelSpec, adapters):
    """Map wid -> effective weight tensor, materializing W + A@B for
    adapted matrices so merged and adapted forwards share the same float
    path. Base weights are never mutated. An adapter on a matrix the model
    lacks raises AdapterError, as its merge would; one whose A (d, r) or
    B (r, k) does not fit its (d, k) target raises ShapeError rather than
    broadcasting."""
    eff = dict(model.weights)
    if adapters is None:
        return eff
    adapters.check_live()
    for wid, pair in adapters.pairs.items():
        w = eff.get(wid)
        if w is None:
            raise AdapterError(f"adapter target {wid} not present in model")
        d, k = w.data.shape
        if pair.a.data.shape[0] != d or pair.b.data.shape != (pair.a.data.shape[1], k):
            raise ShapeError(
                f"adapter for {wid} has shapes A{pair.a.data.shape} B{pair.b.data.shape}, "
                f"target is {w.data.shape}"
            )
        eff[wid] = w + matmul(pair.a, pair.b)
    return eff


def _stem(model: ModelSpec, inputs, eff) -> Tensor:
    """The activations entering layer 1: the features of an MLP, the token
    plus positional embeddings of a transformer."""
    if model.kind == "mlp":
        x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        if x.data.shape[-1] != model.dims[0]:
            raise ShapeError(f"input dim {x.data.shape[-1]} does not match model dim {model.dims[0]}")
        return x
    ids = np.asarray(inputs)
    if ids.ndim != 2:
        raise ShapeError(f"transformer input must be (batch, seq) ids, got shape {ids.shape}")
    if ids.shape[1] > model.max_seq:
        raise ShapeError(f"sequence length {ids.shape[1]} exceeds max_seq {model.max_seq}")
    tok = embedding(eff[WeightId(1, Role.EMBEDDING)], ids)
    pos = embedding(eff[WeightId(1, Role.POS_EMBEDDING)], np.arange(ids.shape[1]))
    return tok + pos


def _mlp_block(model: ModelSpec, x: Tensor, l: int, eff) -> Tensor:
    """Dense layer l; relu on every layer but the first and the last."""
    h = linear(x, eff[WeightId(l, Role.MLP_DENSE)])
    return relu(h) if 1 < l < model.layers else h


@functools.lru_cache(maxsize=None)
def _causal_mask(seq) -> Tensor:
    """The additive (seq, seq) mask, built once per length and shared by
    every block; it needs no gradient, and its array is read-only."""
    mask = Tensor(np.triu(np.full((seq, seq), ATTN_MASK_NEG), k=1))
    mask.data.flags.writeable = False
    return mask


def _attention(model: ModelSpec, x: Tensor, l: int, eff) -> Tensor:
    """Block l's causal self-attention over every position of x (b, seq, d):
    the heads' context vectors, (b, seq, d), before the output projection."""
    b, seq, d = x.data.shape
    n_heads = model.n_heads
    d_head = d // n_heads
    a = layer_norm(x)
    q = linear(a, eff[WeightId(l, Role.ATTN_Q)])
    k = linear(a, eff[WeightId(l, Role.ATTN_K)])
    v = linear(a, eff[WeightId(l, Role.ATTN_V)])
    # (b, seq, d) -> (b, heads, seq, d_head)
    q = transpose(reshape(q, (b, seq, n_heads, d_head)), 1, 2)
    k = transpose(reshape(k, (b, seq, n_heads, d_head)), 1, 2)
    v = transpose(reshape(v, (b, seq, n_heads, d_head)), 1, 2)
    scores = matmul(q, transpose(k)) * (1.0 / math.sqrt(d_head))
    attn = softmax(scores + _causal_mask(seq))
    return reshape(transpose(matmul(attn, v), 1, 2), (b, seq, d))


def _block_tail(x: Tensor, ctx: Tensor, l: int, eff) -> Tensor:
    """The rest of block l from its input x and attention context ctx, at
    the positions they hold (all of them, or the last one): the residual
    through the output projection, then the gelu feed-forward layer."""
    x = x + linear(ctx, eff[WeightId(l, Role.ATTN_O)])
    a2 = layer_norm(x)
    h = gelu(linear(a2, eff[WeightId(l, Role.FFN_UP)]))
    return x + linear(h, eff[WeightId(l, Role.FFN_DOWN)])


def _transformer_block(model: ModelSpec, x: Tensor, l: int, eff) -> Tensor:
    """Pre-norm residual block l: causal self-attention, then the gelu
    feed-forward layer."""
    return _block_tail(x, _attention(model, x, l, eff), l, eff)


def _blocks(model: ModelSpec, x: Tensor, eff, start: int, stop: int) -> Tensor:
    """Layers start..stop-1 on `x`, the activations entering layer `start`."""
    block = _mlp_block if model.kind == "mlp" else _transformer_block
    for l in range(start, stop):
        x = block(model, x, l, eff)
    return x


def _head(model: ModelSpec, x: Tensor, eff) -> Tensor:
    """The transformer's final norm and output projection."""
    return linear(layer_norm(x), eff[WeightId(model.layers, Role.OUTPUT)])


def _forward(model: ModelSpec, x: Tensor, eff, start: int) -> Tensor:
    """Logits from `x`, the activations entering layer `start`: the layers
    from there on, then the transformer's head (an MLP's last layer is its
    output)."""
    x = _blocks(model, x, eff, start, model.layers + 1)
    if model.kind == "mlp":
        return x
    return _head(model, x, eff)


def _loss_logits(model: ModelSpec, x: Tensor, eff, start: int) -> Tensor:
    """The logits the task loss reads, from `x`, the activations entering
    layer `start`: an MLP's outputs, the transformer's (b, vocab) logits at
    the last position. The last block's attention runs at every position,
    since its keys and values read every row; the block's tail, the final
    norm and the head run at the last position only. On the canonical
    shapes these are the bits of `_forward`'s last position (README)."""
    if model.kind == "mlp":
        return _forward(model, x, eff, start)
    last = model.layers
    x = _blocks(model, x, eff, start, last)
    ctx = _attention(model, x, last, eff)
    return _head(model, _block_tail(last_position(x), last_position(ctx), last, eff), eff)


def forward(model: ModelSpec, data, adapters=None) -> Tensor:
    """Logits for a dataset's inputs, or for bare inputs. When adapters are
    present every targeted matrix acts as W + A@B without mutating the
    stored weights."""
    inputs = data.inputs if isinstance(data, Dataset) else data
    eff = _resolve_weights(model, adapters)
    return _forward(model, _stem(model, inputs, eff), eff, 1)


def layer_input(model: ModelSpec, data: Dataset, layer: int, rows: int) -> np.ndarray:
    """The activations entering `layer` for every example of `data`, through
    the base weights, with no graph kept: (n, d) for an MLP, (n, seq,
    d_model) for a transformer. Layers below the lowest adapted one are
    frozen, so a booster computes them once (`train_booster`).

    They are computed `rows` examples at a time, wrapping around to the
    first examples to fill the last chunk, so that every product has the
    shape it has in a minibatch of `rows` examples: OpenBLAS takes another
    path for products of fewer than 40 rows, and a row it computes in a
    larger product can end on other last bits."""
    eff = model.weights
    out = None
    for start in range(0, data.n, rows):
        idx = np.arange(start, start + rows) % data.n
        x = _blocks(model, _stem(model, data.inputs[idx], eff), eff, 1, layer).data
        if out is None:
            out = np.empty((data.n,) + x.shape[1:])
        out[idx] = x
    return out


def loss_logits(model: ModelSpec, data: Dataset) -> Tensor:
    """The logits `task_loss` reads for a dataset, through the stored
    weights: an MLP's outputs, the transformer's (n, vocab) logits at the
    last position."""
    eff = model.weights
    return _loss_logits(model, _stem(model, data.inputs, eff), eff, 1)


def task_loss(model: ModelSpec, logits: Tensor, targets) -> Tensor:
    """The model kind's loss of `loss_logits`' logits: mean squared error
    for an MLP, mean cross-entropy for the transformer."""
    if model.kind == "mlp":
        return mse(logits, targets)
    return cross_entropy_logits(logits, np.asarray(targets))


def batch_loss(model: ModelSpec, data: Dataset, adapters=None, lam=0.0) -> Tensor:
    """Training objective on a minibatch or a whole dataset: mean task loss
    plus lam * sum of squared adapter Frobenius norms over the active
    adapters only."""
    eff = _resolve_weights(model, adapters)
    logits = _loss_logits(model, _stem(model, data.inputs, eff), eff, 1)
    return _objective(model, logits, data.targets, adapters, lam)


def layer_loss(model: ModelSpec, x: np.ndarray, targets, adapters, lam: float, layer: int) -> Tensor:
    """`batch_loss` of the examples whose activations entering `layer` are
    `x` (rows of `layer_input`): the forward starts at that layer. Exact
    when no adapter sits below `layer`."""
    eff = _resolve_weights(model, adapters)
    # a leaf made like an op's output, with no finiteness check: a
    # non-finite activation ends in the step's divergence error, as it
    # does when the forward starts at layer 1
    logits = _loss_logits(model, Tensor._from_op(x, (), None, None), eff, layer)
    return _objective(model, logits, targets, adapters, lam)


def _objective(model: ModelSpec, logits: Tensor, targets, adapters, lam) -> Tensor:
    """The task loss of `logits`, plus the adapters' penalty when lam > 0."""
    loss = task_loss(model, logits, targets)
    if lam and adapters is not None:
        penalty = None
        for pair in adapters.pairs.values():
            term = tsum(mul(pair.a, pair.a)) + tsum(mul(pair.b, pair.b))
            penalty = term if penalty is None else penalty + term
        if penalty is not None:
            loss = loss + penalty * lam
    return loss


def loss_eval(model: ModelSpec, dataset: Dataset, adapters=None, lam=0.0) -> float:
    """Full-dataset objective value as a plain float."""
    if lam < 0:
        raise ValueError(f"regularization coefficient must be >= 0, got {lam}")
    return batch_loss(model, dataset, adapters=adapters, lam=lam).item()


def accuracy(model: ModelSpec, dataset: Dataset) -> float:
    """Classification accuracy (transformers only)."""
    return logits_accuracy(loss_logits(model, dataset), dataset.targets)


def logits_accuracy(logits: Tensor, targets) -> float:
    """Share of examples whose largest logit is at their target class, from
    (n, classes) logits (`loss_logits`)."""
    if logits.data.ndim != 2:
        raise ShapeError(f"logits_accuracy needs (n, classes) logits, got {logits.shape}")
    pred = logits.data.argmax(axis=-1)
    return float((pred == np.asarray(targets)).mean())
