"""Low-rank adapter lifecycle: init, apply, merge-into-base, accounting.

An adapter pair (A, B) on a (d, k) target holds A (d, r) and B (r, k);
the effective weight is W + A@B. B starts at zero so a fresh pair
is an exact no-op, and merging mid-training never moves the loss. A set
is consumed by its merge; any further use is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from xgblora.models import AdapterError, ModelSpec, WeightId, sort_key
from xgblora.tensor import Rng, ShapeError, Tensor


@dataclass
class LoraPair:
    """One adapter's factors. Its target is its key in `AdapterSet.pairs`
    and its rank is A's width."""

    a: Tensor  # (d, r)
    b: Tensor  # (r, k)
    a_init: np.ndarray  # A at birth (B is born zero)

    def delta(self) -> np.ndarray:
        """Materialized A@B, detached."""
        return self.a.data @ self.b.data

    def params(self):
        return (self.a, self.b)


@dataclass
class AdapterSet:
    pairs: dict[WeightId, LoraPair]
    booster_index: int = 0
    merged: bool = field(default=False)

    def check_live(self):
        if self.merged:
            raise AdapterError(
                f"adapter set for booster {self.booster_index} was already merged"
            )

    def targets(self) -> list[WeightId]:
        return sorted(self.pairs, key=sort_key)

    def trainable_params(self) -> list[Tensor]:
        out = []
        for wid in self.targets():
            out.extend(self.pairs[wid].params())
        return out


def init_adapter(model: ModelSpec, target: WeightId, r: int, rng: Rng) -> LoraPair:
    """Fresh pair on one target: A ~ 0.01 * Gaussian(0, 1/r), B = 0, so the
    effective delta is exactly zero at birth."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if target not in model.weights:
        raise AdapterError(f"target {target} not present in model")
    d, k = model.weights[target].data.shape
    a = rng.gaussian((d, r)) * (0.01 / np.sqrt(r))
    return LoraPair(Tensor(a, requires_grad=True), Tensor(np.zeros((r, k)), requires_grad=True), a.copy())


def init_adapter_set(
    model: ModelSpec,
    targets,
    r: int,
    rng: Rng,
    booster_index: int = 0,
) -> AdapterSet:
    """One pair per target, initialized in deterministic target order."""
    pairs = {}
    for wid in sorted(targets, key=sort_key):
        if wid in pairs:
            raise AdapterError(f"duplicate adapter target {wid}")
        pairs[wid] = init_adapter(model, wid, r, rng)
    return AdapterSet(pairs=pairs, booster_index=booster_index)


def merge_adapters(model: ModelSpec, adapters: AdapterSet) -> ModelSpec:
    """Fold every pair into its base weight in place: W += A@B.

    The set is consumed; a second merge (or any later forward through it)
    raises. Returns the same model for chaining.
    """
    adapters.check_live()
    for wid in adapters.targets():
        if wid not in model.weights:
            raise AdapterError(f"merge target {wid} not present in model")
    for wid in adapters.targets():
        pair = adapters.pairs[wid]
        w = model.weights[wid]
        if pair.a.data.shape[0] != w.data.shape[0] or pair.b.data.shape[1] != w.data.shape[1]:
            raise ShapeError(
                f"adapter for {wid} has shape A{pair.a.data.shape} B{pair.b.data.shape}, "
                f"target is {w.data.shape}"
            )
        w.data = w.data + pair.delta()
    adapters.merged = True
    return model


def param_count(model: ModelSpec, adapters=None) -> dict:
    """Trainable/total/permille accounting.

    Pass an AdapterSet to count its live pairs. Without one, every weight
    is trainable (full fine-tuning: exactly 1000 permille).
    """
    total = model.total_params()
    if adapters is None:
        trainable = total
    else:
        trainable = sum(
            pair.a.data.size + pair.b.data.size for pair in adapters.pairs.values()
        )
    return {
        "trainable": trainable,
        "total": total,
        "permille": 1000.0 * trainable / total,
    }
