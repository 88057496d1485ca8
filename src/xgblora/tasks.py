"""Synthetic tasks: realizable teacher-student regression and toy sequence
classification.

Teacher tasks freeze a random start model and a target model of the same
class; the dataset labels come from the target, so zero train error is
attainable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from xgblora.lowrank import lstsq
from xgblora.models import Dataset, ModelSpec, build_mlp, forward
from xgblora.tensor import Rng

TEACHER_KINDS = ("teacher-matrix", "teacher-mlp")
SEQUENCE_KINDS = ("parity",)
HELDOUT_N = 512  # fresh inputs of every held-out error
HELDOUT_SEED = 0xE7A1


@dataclass
class TeacherTask:
    """A target function realizable by the student's own model class."""

    kind: str
    start: ModelSpec  # frozen student initialization
    teacher: ModelSpec  # frozen target weights
    noise: float
    input_dim: int

    def make_student(self) -> ModelSpec:
        return self.start.copy()

    def sample_inputs(self, n: int, rng: Rng) -> np.ndarray:
        return rng.gaussian((n, self.input_dim))

    def label(self, x: np.ndarray, rng: Optional[Rng] = None) -> np.ndarray:
        y = forward(self.teacher, x).data
        if self.noise > 0:
            if rng is None:
                raise ValueError("noise > 0 needs an rng for label noise")
            y = y + self.noise * rng.gaussian(y.shape)
        return y

    def heldout_error(self, model: ModelSpec) -> float:
        """Mean squared output gap to the noiseless teacher on HELDOUT_N
        fresh inputs, the same ones for every call."""
        x = self.sample_inputs(HELDOUT_N, Rng(HELDOUT_SEED))
        student_out = forward(model, x).data
        teacher_out = forward(self.teacher, x).data
        return float(((student_out - teacher_out) ** 2).mean())


def _orthonormal(rng: Rng, n: int) -> np.ndarray:
    """Random orthonormal matrix via Gram-Schmidt on a Gaussian draw."""
    g = rng.gaussian((n, n))
    q = np.zeros_like(g)
    for j in range(n):
        v = g[:, j].copy()
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        q[:, j] = v / np.sqrt((v * v).sum())
    return q


def gen_teacher_dataset(
    kind: str,
    dims,
    n: int,
    noise: float = 0.0,
    seed: int = 0,
    delta_scale: float = 1.0,
    delta_kind: str = "gaussian",
) -> tuple[Dataset, TeacherTask]:
    """Gaussian inputs labelled by a frozen random model of the same class.

    kind "teacher-matrix" forces a single linear map (quadratic loss
    surface); "teacher-mlp" uses the dims list as given. The start model is
    teacher minus a random delta of scale `delta_scale`; delta_scale=0
    makes the target the start itself (nothing to learn). delta_kind
    "rotation" draws a scaled orthonormal delta (flat singular spectrum, so
    low-rank corrections face a genuine tail), square matrices only;
    "gaussian" is the default decaying-spectrum draw.
    """
    if kind not in TEACHER_KINDS:
        raise ValueError(f"unknown teacher kind {kind!r}")
    if delta_kind not in ("gaussian", "rotation"):
        raise ValueError(f"unknown delta kind {delta_kind!r}")
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    dims = list(dims)
    if kind == "teacher-matrix" and len(dims) != 2:
        raise ValueError(f"teacher-matrix needs dims [d_in, d_out], got {dims}")
    rng = Rng(seed)
    start = build_mlp(dims, rng=rng)
    teacher = start.copy()
    for wid, w in teacher.weights.items():
        fan_in = w.data.shape[1]
        if delta_kind == "rotation":
            if w.data.shape[0] != w.data.shape[1]:
                raise ValueError("rotation delta needs square weights")
            delta = _orthonormal(rng, w.data.shape[0])
        else:
            delta = rng.gaussian(w.data.shape)
        w.data = w.data + delta_scale * delta / np.sqrt(fan_in)
    task = TeacherTask(kind=kind, start=start, teacher=teacher, noise=noise, input_dim=dims[0])
    x = task.sample_inputs(n, rng)
    y = task.label(x, rng if noise > 0 else None)
    return Dataset(x, y), task


def gen_sequence_dataset(task: str, seq_len: int, n: int, seed: int = 0) -> Dataset:
    """Integer token sequences with classification targets, class-balanced
    within one example by construction.

    parity, the one task: tokens in {0,1}, label = XOR of all tokens; the
    final token is chosen to force the label, the rest are random.
    """
    if task not in SEQUENCE_KINDS:
        raise ValueError(f"unknown sequence task {task!r}")
    if seq_len < 2:
        raise ValueError(f"seq_len must be >= 2, got {seq_len}")
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    rng = Rng(seed)
    # row i's label is i % 2 (exact balance up to one example); the final
    # token is the one that makes the XOR of the row equal it
    bits = rng.randint_array(2, n * (seq_len - 1)).reshape(n, seq_len - 1)
    labels = np.arange(n, dtype=np.int64) % 2
    last = (labels - bits.sum(axis=1)) % 2
    seqs = np.concatenate([bits, last[:, None]], axis=1)
    return Dataset(seqs, labels)


def quadratic_optimum(dataset: Dataset) -> tuple[np.ndarray, float]:
    """Closed-form least-squares weight and its loss for a linear model
    y = x @ W.T under mean-squared error over all elements."""
    x = np.asarray(dataset.inputs, dtype=np.float64)
    y = np.asarray(dataset.targets, dtype=np.float64)
    w_opt_t = lstsq(x, y)  # (d_in, d_out)
    resid = x @ w_opt_t - y
    loss_star = float((resid * resid).mean())
    return w_opt_t.T, loss_star
