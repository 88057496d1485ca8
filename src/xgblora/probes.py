"""Empirical probes for the bound quantities: rank-r gradient approximation
error against its truncation floor, accumulated-update norm bounds, gradient
Lipschitz estimation, convergence-gap sweeps on strongly convex tasks, and
the rank-vs-iterations expressiveness trade-off on realizable teachers.

Every probe is deterministic given its seed list and returns a ProbeReport:
one grid point per parameter combination, n_seeds replicate values per
point, fitted constants with their R², and named pass/fail checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from xgblora.boosting import BoostConfig, BoosterTrace, train_booster, xgblora_fit
from xgblora.grid import run_grid
from xgblora.lora import init_adapter_set
from xgblora.lowrank import nnls, r_squared, svd_topr
from xgblora.models import (
    Dataset,
    ModelSpec,
    WeightId,
    list_adaptable_weights,
    logits_accuracy,
    loss_eval,
    loss_logits,
    task_loss,
)
from xgblora.tasks import TeacherTask, gen_teacher_dataset, quadratic_optimum
from xgblora.tensor import Rng, frobenius_norm

__all__ = [
    "GridPoint",
    "ProbeReport",
    "TheoryConstants",
    "svd_topr",
    "gradient_approx_probe",
    "update_norm_probe",
    "lipschitz_probe",
    "convergence_sweep",
    "expressiveness_sweep",
    "quadratic_curvature",
    "quadratic_gradient",
    "pooled_std",
    "run_booster_corpus",
]

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class TheoryConstants:
    """Measured/estimated constants; None marks 'not estimated' (the
    curvature pair is exact only on quadratic tasks and is never faked
    elsewhere)."""

    g_max: Optional[float] = None
    lipschitz: Optional[float] = None
    beta: Optional[float] = None
    mu: Optional[float] = None
    fitted: dict = field(default_factory=dict)  # name -> value, e.g. "c1"
    fit_r2: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "g_max": self.g_max,
            "lipschitz": self.lipschitz,
            "beta": self.beta,
            "mu": self.mu,
            "fitted": dict(sorted(self.fitted.items())),
            "fit_r2": dict(sorted(self.fit_r2.items())),
        }


@dataclass
class GridPoint:
    params: dict
    values: list[float] = field(default_factory=list)
    extras: dict = field(default_factory=dict)  # name -> list aligned with values

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        v = np.asarray(self.values, dtype=np.float64)
        return float(v.std(ddof=1)) if v.size > 1 else 0.0


@dataclass
class ProbeReport:
    probe: str
    points: list[GridPoint] = field(default_factory=list)
    constants: TheoryConstants = field(default_factory=TheoryConstants)
    checks: dict = field(default_factory=dict)  # name -> bool
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def point(self, **params) -> GridPoint:
        for p in self.points:
            if p.params == params:
                return p
        raise KeyError(f"no grid point with params {params}")

    def csv_rows(self):
        """One row per grid point per replicate; stable column order."""

        def cell(v):
            return repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v)

        param_keys = sorted({k for p in self.points for k in p.params})
        extra_keys = sorted({k for p in self.points for k in p.extras})
        header = ["schema", "probe", *param_keys, "seed_index", "value", *extra_keys]
        yield header
        for p in self.points:
            for i, v in enumerate(p.values):
                row = ["probe.v1", self.probe]
                row += [cell(p.params[k]) if k in p.params else "" for k in param_keys]
                row += [str(i), repr(float(v))]
                row += [cell(p.extras[k][i]) if k in p.extras else "" for k in extra_keys]
                yield row

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.csv_rows():
                fh.write(",".join(str(c) for c in row) + "\n")

    def summary(self) -> dict:
        return {
            "probe": self.probe,
            "constants": self.constants.as_dict(),
            "checks": dict(sorted(self.checks.items())),
            "passed": self.passed,
            "notes": list(self.notes),
            "points": [
                {"params": p.params, "mean": p.mean, "std": p.std, "n": len(p.values)}
                for p in self.points
            ],
        }

    def write_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def pooled_std(a, b) -> float:
    """Pooled standard deviation of two replicate samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        return 0.0
    va, vb = a.var(ddof=1), b.var(ddof=1)
    dof = a.size + b.size - 2
    return float(np.sqrt(((a.size - 1) * va + (b.size - 1) * vb) / dof))


def seed_mean_nonincreasing(means) -> bool:
    return all(means[i + 1] <= means[i] for i in range(len(means) - 1))


def quadratic_curvature(data: Dataset) -> tuple[float, float]:
    """Exact smoothness/strong-convexity pair for the mean-squared linear
    model on this dataset: extremal eigenvalues of 2*XtX/(N*k)."""
    x = np.asarray(data.inputs, dtype=np.float64)
    k = np.asarray(data.targets).shape[1]
    scale = 2.0 / (x.shape[0] * k)
    eigs = np.linalg.eigvalsh(x.T @ x)  # ascending
    return float(scale * eigs[-1]), float(scale * max(eigs[0], 0.0))


def quadratic_gradient(data: Dataset, ws: np.ndarray) -> np.ndarray:
    """Full-batch gradient of the single-matrix MSE student, the mean over
    all N*k entries of (x @ W.T - y)^2, at every W of a (P, k, d) stack.

    The arithmetic and its order are the tape's: for each W the result
    equals `batch_loss(...).backward()`'s `.grad` bit for bit. It is
    C-contiguous like that `.grad`, since a norm of a transposed view sums
    in another order."""
    x = np.asarray(data.inputs, dtype=np.float64)
    y = np.asarray(data.targets, dtype=np.float64)
    # mse's backward, seed 1.0 * (2.0 / n) * diff, computed in place so that
    # a stack of P weights holds one (P, N, k) buffer, not three
    g2 = x @ np.swapaxes(ws, -1, -2)
    g2 -= y
    g2 *= 1.0 * (2.0 / y.size)
    return np.ascontiguousarray(np.swapaxes(x.T @ g2, -1, -2))


def _single_matrix_wid(model: ModelSpec) -> WeightId:
    wids = list_adaptable_weights(model)
    if model.kind != "mlp" or model.layers != 1:
        raise ValueError(
            "probe restricted to strongly convex tasks: need a single-matrix linear model"
        )
    return wids[0]


def gradient_approx_probe(
    task: TeacherTask,
    data: Dataset,
    r_grid,
    m_grid,
    seeds=DEFAULT_SEEDS,
) -> ProbeReport:
    """Rank-r / minibatch error of the booster's accumulated update.

    For each (r, M) and seed, one booster of M steps at eta = 1e-3 and
    batch size 8 runs on the quadratic teacher; its update A@B is mapped
    back to gradient scale as -A (AtA)^-1 B / (eta*M), the small-step limit
    of the minibatch-averaged gradient projected onto the learned rank-r
    column space; eta is small so that limit holds. The measured
    error is the Frobenius distance to the full-batch gradient at the
    updated point; the truncation floor at the same rank is recorded for
    every replicate and can never exceed it (the estimate has rank <= r).
    Each (r, M, seed) fit is one job of `run_grid`.
    """
    eta = 1e-3
    wid = _single_matrix_wid(task.start)

    def fit(job):
        r, m, seed = job
        model = task.make_student()
        # common random numbers across the M grid: the same seed index
        # draws the same adapter init, so the M comparison isolates
        # minibatch averaging from subspace luck
        rng = Rng(seed * 1_000_003 + 7919 * r)
        adapters = init_adapter_set(model, [wid], r, rng, booster_index=1)
        cfg = BoostConfig(iterations=1, steps_per_booster=m, rank=r, sample_layers=1, eta=eta, batch_size=8)
        train_booster(model, adapters, data, cfg, rng)
        pair = adapters.pairs[wid]
        a = pair.a.data
        w = model.weights[wid].data + a @ pair.b.data
        g_full = quadratic_gradient(data, w[None])[0]
        g_hat = -(a @ np.linalg.solve(a.T @ a, pair.b.data)) / (eta * m)
        floor = float(np.sqrt(svd_topr(g_full, min(r, min(g_full.shape))).tail_sq))
        return frobenius_norm(g_full - g_hat), floor

    params = [(r, m) for r in r_grid for m in m_grid]
    fits = iter(run_grid(fit, [(r, m, seed) for r, m in params for seed in seeds]))
    report = ProbeReport(probe="gradient_approx")
    for r, m in params:
        point = GridPoint(params={"r": int(r), "m": int(m)}, extras={"floor": []})
        for _ in seeds:
            err, floor = next(fits)
            point.values.append(err)
            point.extras["floor"].append(floor)
        report.points.append(point)

    floor_ok = all(
        v >= f - 1e-9 * max(v, 1.0)
        for p in report.points
        for v, f in zip(p.values, p.extras["floor"])
    )
    report.checks["floor_dominated"] = floor_ok

    if len(r_grid) > 1:
        means = [report.point(r=int(r), m=int(m_grid[0])).mean for r in r_grid]
        report.checks["nonincreasing_in_r"] = seed_mean_nonincreasing(means)
    if len(m_grid) > 1:
        means = [report.point(r=int(r_grid[0]), m=int(m)).mean for m in m_grid]
        report.checks["nonincreasing_in_m"] = seed_mean_nonincreasing(means)

    feats = np.array(
        [[1.0 / np.sqrt(p.params["r"]), 1.0 / np.sqrt(p.params["m"])] for p in report.points]
    )
    target = np.array([p.mean for p in report.points])
    coef = nnls(feats, target)
    report.constants.fitted["c1"] = float(coef[0])
    report.constants.fitted["c2"] = float(coef[1])
    report.constants.fit_r2["error_vs_rank_minibatch"] = r_squared(target, feats @ coef)
    return report


def run_booster_corpus(
    r_values=(1, 4, 8),
    kappa_values=(1, 8, 32),
    boosters_per_config: int = 6,
    eta: float = 0.3,
    seed: int = 0,
) -> list[tuple[BoosterTrace, float]]:
    """A spread of boosters across rank/steps configs on a 12x12 quadratic
    teacher with 96 examples; returns (trace, eta) pairs for the
    update-norm probe. Each (r, kappa) config is one job of `run_grid`."""

    def fit(job):
        r, kappa = job
        data, task = gen_teacher_dataset("teacher-matrix", [12, 12], n=96, seed=seed + 17 * r + kappa)
        cfg = BoostConfig(
            iterations=boosters_per_config,
            steps_per_booster=kappa,
            rank=r,
            sample_layers=1,
            eta=eta,
            batch_size=16,
            seed=seed + r * 1009 + kappa,
        )
        return xgblora_fit(task.make_student(), data, cfg)[1]

    configs = [(r, kappa) for r in r_values for kappa in kappa_values]
    return [(t, eta) for traces in run_grid(fit, configs) for t in traces]


def update_norm_probe(traces_with_eta) -> ProbeReport:
    """Checks |A - A0|_F <= eta*kappa*G and |B|_F <= eta*kappa*G per booster
    and per targeted matrix, with G the largest per-step gradient norm
    applied to that pair. Reports the tightness ratio |A-A0|/(eta*kappa*G).
    """
    report = ProbeReport(probe="update_norm")
    violations = 0
    for trace, eta in traces_with_eta:
        for name, ps in sorted(trace.pair_stats.items()):
            bound = eta * trace.steps * ps.grad_max
            point = GridPoint(params={"t": trace.t, "target": name, "kappa": trace.steps})
            if bound == 0.0:
                ratio_a = ratio_b = 0.0
                ok = ps.a_update_norm == 0.0 and ps.b_norm == 0.0
            else:
                ratio_a = ps.a_update_norm / bound
                ratio_b = ps.b_norm / bound
                ok = ratio_a <= 1.0 + 1e-9 and ratio_b <= 1.0 + 1e-9
            point.values.append(max(ratio_a, ratio_b))
            point.extras["bound"] = [bound]
            point.extras["a_update_norm"] = [ps.a_update_norm]
            point.extras["b_norm"] = [ps.b_norm]
            report.points.append(point)
            violations += 0 if ok else 1
    report.checks["zero_violations"] = violations == 0
    report.constants.g_max = max(
        (t.grad_max for t, _ in traces_with_eta), default=0.0
    )
    report.notes.append(f"{len(report.points)} pair-boosters checked, {violations} violations")
    return report


def lipschitz_probe(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    shape: tuple,
    n_pairs: int,
    radius: float,
    rng: Rng,
) -> ProbeReport:
    """max over sampled weight pairs of |grad(W1)-grad(W2)| / |W1-W2|,
    with W1 and W2 at `radius` times a random direction from zero.

    Perturbation directions alternate between full Gaussian and rank-one
    (the extremal direction of a quadratic is rank-one, so pure Gaussian
    sampling badly underestimates the constant). Coincident pairs are
    skipped. `grad_fn` maps a (P, *shape) stack of weights to the stack of
    their gradients; it is called once, on all 2 * n_pairs points. The
    directions are drawn in bulk, the same numbers in the same order as a
    pair-by-pair draw. The report holds one point, with n_pairs, whose
    value is the estimate; it is also the report's `lipschitz` constant,
    and the check `positive` asks that it be above zero.
    """
    if np.ndim(shape) != 1 or len(shape) != 2:
        raise ValueError(f"shape must be 2-D (rows, cols), got {shape}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    rows, cols = shape
    # pair 2j: two full Gaussian directions; pair 2j + 1: two rank-one ones
    round_shapes = [shape, shape, (rows,), (cols,), (rows,), (cols,)]
    full1, full2, u1, v1, u2, v2 = rng.gaussian_rounds(round_shapes, n_pairs // 2)
    if n_pairs % 2:
        last1, last2 = rng.gaussian_rounds([shape, shape], 1)
        full1, full2 = np.concatenate([full1, last1]), np.concatenate([full2, last2])
    dirs = np.empty((2, n_pairs, rows, cols))
    dirs[0, 0::2], dirs[1, 0::2] = full1, full2
    dirs[0, 1::2] = u1[:, :, None] * v1[:, None, :]  # np.outer, row by row
    dirs[1, 1::2] = u2[:, :, None] * v2[:, None, :]
    ws = radius * dirs
    w1, w2 = ws
    g1, g2 = grad_fn(ws.reshape(2 * n_pairs, rows, cols)).reshape(2, n_pairs, rows, cols)
    best = 0.0
    for i in range(n_pairs):
        dw = frobenius_norm(w1[i] - w2[i])
        if dw < 1e-12:
            continue
        dg = frobenius_norm(g1[i] - g2[i])
        best = max(best, dg / dw)
    report = ProbeReport(probe="lipschitz")
    report.points.append(GridPoint(params={"n_pairs": n_pairs}, values=[best]))
    report.constants.lipschitz = best
    report.checks["positive"] = best > 0
    return report


def convergence_sweep(
    task: TeacherTask,
    data: Dataset,
    t_grid,
    r_grid=(1,),
    kappa: int = 8,
    seeds=DEFAULT_SEEDS,
    eta: float = 0.3,
    batch_size: int = 8,
) -> ProbeReport:
    """Optimality gap of the boosted model on a strongly convex quadratic.

    Grid is t_grid x r_grid at fixed steps-per-booster; the gap is the
    full-data loss minus the closed-form least-squares optimum. Fits
    nonneg coefficients on (1/sqrt(T), 1/(M*sqrt(T)), 1/r); with a single
    rank in the grid the 1/r feature plays the constant rank-floor term.
    Check set: gap non-increasing in T per rank, non-increasing in r per T
    (seed means), both with zero slack; the fit quality is reported, never
    asserted here. Each (r, T, seed) fit is one job of `run_grid`.
    """
    _single_matrix_wid(task.start)  # reject non-quadratic tasks
    _, loss_star = quadratic_optimum(data)

    def fit(job):
        r, t, seed = job
        model = task.make_student()
        cfg = BoostConfig(
            iterations=int(t),
            steps_per_booster=kappa,
            rank=int(r),
            sample_layers=1,
            eta=eta,
            batch_size=batch_size,
            seed=seed * 7919 + t * 131 + r,
        )
        xgblora_fit(model, data, cfg)
        return loss_eval(model, data) - loss_star

    params = [(r, t) for r in r_grid for t in t_grid]
    gaps = iter(run_grid(fit, [(r, t, seed) for r, t in params for seed in seeds]))
    report = ProbeReport(probe="convergence")
    for r, t in params:
        report.points.append(GridPoint(params={"r": int(r), "t": int(t)}, values=[next(gaps) for _ in seeds]))

    for r in r_grid:
        means = [report.point(r=int(r), t=int(t)).mean for t in t_grid]
        report.checks[f"gap_nonincreasing_in_t_r{r}"] = seed_mean_nonincreasing(means)
    if len(r_grid) > 1:
        for t in t_grid:
            means = [report.point(r=int(r), t=int(t)).mean for r in r_grid]
            report.checks[f"gap_nonincreasing_in_r_t{t}"] = seed_mean_nonincreasing(means)

    feats = np.array(
        [
            [
                1.0 / np.sqrt(p.params["t"]),
                1.0 / (kappa * np.sqrt(p.params["t"])),
                1.0 / p.params["r"],
            ]
            for p in report.points
        ]
    )
    target = np.array([p.mean for p in report.points])
    coef = nnls(feats, target)
    fitted = feats @ coef
    report.constants.fitted.update(c3=float(coef[0]), c4=float(coef[1]), c5=float(coef[2]))
    report.constants.fit_r2["gap_fit"] = r_squared(target, fitted)
    beta, mu = quadratic_curvature(data)
    report.constants.beta = beta
    report.constants.mu = mu
    report.notes.append(f"loss_star={loss_star!r}")
    return report


DEFAULT_ETA_GRID = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0)


def _pick_step_size(eta_grid, seeds, fit: Callable, arm: str):
    """(eta, results) of the step size in eta_grid whose fits score lowest.

    fit(eta, seed) -> (score, result) runs once per (eta, seed), all of
    them one `run_grid`; a candidate scores the mean over its seeds, and
    `results` lists the chosen candidate's per-seed results. A candidate is
    disqualified when one of its fits raises FloatingPointError or its
    score is non-finite; on a tie the earlier candidate wins. Raises
    FloatingPointError naming `arm` when every candidate is disqualified."""
    seeds = list(seeds)

    def job(eta_seed):
        try:
            # overflow warnings are expected when a candidate rate diverges;
            # the divergence disqualifies it
            with np.errstate(over="ignore", invalid="ignore"):
                return fit(*eta_seed)
        except FloatingPointError:
            return None

    fits = iter(run_grid(job, [(eta, seed) for eta in eta_grid for seed in seeds]))
    best = None
    for eta in eta_grid:
        runs = [next(fits) for _ in seeds]
        if None in runs:
            continue
        score = float(np.mean([score for score, _ in runs]))
        if np.isfinite(score) and (best is None or score < best[0]):
            best = (score, eta, [result for _, result in runs])
    if best is None:
        raise FloatingPointError(f"every step size diverged for {arm}")
    return best[1], best[2]


def expressiveness_sweep(
    task: TeacherTask,
    data: Dataset,
    total_steps: int,
    rt_grid,
    seeds=DEFAULT_SEEDS,
    eta_grid=DEFAULT_ETA_GRID,
    batch_size: int = 128,
) -> ProbeReport:
    """Held-out squared gap to the teacher at fixed total step budget.

    rt_grid is a list of (rank, iterations) pairs; steps per booster is
    total_steps / iterations (must divide). Each arm picks its step size
    from eta_grid by mean final train loss over all seeds (divergent
    candidates disqualified) - a fixed-budget comparison is only fair when
    each arm runs at its own stable rate. Fits the architecture constant
    against both middle-term variants, 1/(M*sqrt(M)*T) and 1/(M*sqrt(T)),
    and reports which fits better without asserting either.
    """
    report = ProbeReport(probe="expressiveness")
    for r, t in rt_grid:
        point = GridPoint(params={"r": int(r), "t": int(t)})

        def fit(eta, seed):
            model = task.make_student()
            cfg = BoostConfig(iterations=int(t), total_steps=total_steps, rank=int(r),
                              sample_layers=task.start.layers, eta=eta, batch_size=batch_size,
                              seed=seed * 104729 + r * 131 + t)
            xgblora_fit(model, data, cfg)
            return loss_eval(model, data), task.heldout_error(model)

        chosen, errs = _pick_step_size(eta_grid, seeds, fit, arm=f"arm (r={r}, t={t})")
        point.values = errs
        point.extras["eta"] = [chosen for _ in errs]
        report.points.append(point)
        report.notes.append(f"arm r={r} t={t}: eta={chosen}")

    by_r = {}
    by_t = {}
    for p in report.points:
        by_r.setdefault(p.params["t"], []).append((p.params["r"], p.mean))
        by_t.setdefault(p.params["r"], []).append((p.params["t"], p.mean))
    for t, pairs in sorted(by_r.items()):
        if len(pairs) > 1:
            means = [m for _, m in sorted(pairs)]
            report.checks[f"err_nonincreasing_in_r_t{t}"] = seed_mean_nonincreasing(means)
    for r, pairs in sorted(by_t.items()):
        if len(pairs) > 1:
            means = [m for _, m in sorted(pairs)]
            report.checks[f"err_nonincreasing_in_t_r{r}"] = seed_mean_nonincreasing(means)

    if len(report.points) >= 3:
        _fit_middle_terms(report, total_steps)
    return report


def _fit_middle_terms(report, total_steps):
    """NNLS fits of the expressiveness surface against both candidate
    middle terms; records R² for each, asserts neither."""
    target = np.array([p.mean for p in report.points])
    for label, mid in (
        ("mid_m15_t", lambda m, t: 1.0 / (m * np.sqrt(m) * t)),
        ("mid_m_sqrt_t", lambda m, t: 1.0 / (m * np.sqrt(t))),
    ):
        feats = np.array(
            [
                [
                    1.0 / p.params["r"],
                    mid(total_steps / p.params["t"], p.params["t"]),
                    1.0 / np.sqrt(p.params["t"]),
                ]
                for p in report.points
            ]
        )
        coef = nnls(feats, target)
        report.constants.fit_r2[label] = r_squared(target, feats @ coef)
        if label == "mid_m_sqrt_t":
            report.constants.fitted["c6"] = float(coef.max())
    better = max(report.constants.fit_r2, key=lambda k: report.constants.fit_r2[k])
    report.notes.append(f"better middle-term fit: {better}")


def kappa_sweep(
    data: Dataset,
    model_builder: Callable[[], ModelSpec],
    total_steps: int,
    kappa_grid,
    seeds=DEFAULT_SEEDS,
    eta_grid=(0.5, 1.0),
    sample_layers: Optional[int] = None,
    batch_size: int = 64,
) -> ProbeReport:
    """Final train accuracy as a function of steps-per-booster at a fixed
    total budget, for rank-1 boosters on every matrix of a block (policy
    "all"). sample_layers keeps the random-layer-selection semantics: at
    kappa = total budget the single booster adapts one fixed random subset,
    while shorter boosters rotate subsets and cover the network. Each arm
    picks its step size from eta_grid by mean final train loss over all
    seeds (divergent candidates disqualified)."""
    report = ProbeReport(probe="kappa_sweep")
    for kappa in kappa_grid:
        point = GridPoint(params={"kappa": int(kappa)})

        def fit(eta, seed):
            model = model_builder()
            cfg = BoostConfig(steps_per_booster=int(kappa), total_steps=total_steps, rank=1,
                              sample_layers=sample_layers or model.layers, policy="all", eta=eta,
                              batch_size=batch_size, seed=seed * 60013 + kappa)
            xgblora_fit(model, data, cfg)
            logits = loss_logits(model, data)
            return task_loss(model, logits, data.targets).item(), logits_accuracy(logits, data.targets)

        chosen, accs = _pick_step_size(eta_grid, seeds, fit, arm=f"kappa={kappa}")
        point.values = accs
        point.extras["eta"] = [chosen for _ in seeds]
        report.points.append(point)
        report.notes.append(f"kappa={kappa}: eta={chosen}")

    by_kappa = {p.params["kappa"]: p.mean for p in report.points}
    small = [k for k in by_kappa if k < total_steps]
    if small and total_steps in by_kappa:
        best_small = max(by_kappa[k] for k in small)
        report.checks["kappa_full_budget_strictly_worse"] = by_kappa[total_steps] < best_small
        report.checks["max_at_moderate_kappa"] = max(by_kappa, key=by_kappa.get) != total_steps
    return report
