"""Boosted low-rank adapter training.

The main loop: for each of T iterations, sample a layer subset, initialize
a fresh rank-r adapter set on it, train the adapters alone for kappa SGD
steps, then merge them into the base weights and discard them. Plain LoRA
is the one-iteration special case (T=1, kappa=K, all layers; see
`lora_config`).

`TrainConfig` declares the training fields once, with their range
checks; `BoostConfig` adds the schedule rule, and the shell's `RunConfig`
the task, model and plumbing fields. `BoostRun` holds a run's state
(`start`, `resume`, `save`), and `boost_step` is the one function that
advances it, to a given absolute step or to the end; `xgblora_fit` runs a
fresh run from start to end. Full fine-tuning and the analytic cost model
live here too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from xgblora.checkpoint import CheckpointState, save_checkpoint
from xgblora.lora import AdapterSet, init_adapter_set, merge_adapters
from xgblora.models import (
    Dataset,
    ModelSpec,
    batch_loss,
    layer_input,
    layer_loss,
    list_adaptable_weights,
    loss_eval,
    sort_key,
)
from xgblora.tensor import Rng, frobenius_norm, sgd_step


class ConfigError(ValueError):
    """Invalid training configuration; message names the field."""


@dataclass
class TrainConfig:
    """The training fields, with every range check that does not depend on
    the schedule rule; a schedule value may stay None."""

    iterations: Optional[int] = None  # T
    steps_per_booster: Optional[int] = None  # kappa
    total_steps: Optional[int] = None  # K
    rank: int = 1
    sample_layers: int = 8  # L_s
    lam: float = 0.0
    eta: float = 0.5
    batch_size: int = 16
    seed: int = 0
    policy: str = "qv"

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name in ("iterations", "steps_per_booster", "total_steps", "rank", "sample_layers", "batch_size"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        for name in ("lam", "eta"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if self.policy not in ("qv", "all"):
            raise ConfigError(f"policy must be qv or all, got {self.policy!r}")


@dataclass
class BoostConfig(TrainConfig):
    """The training fields of one boosting run, with its schedule complete.

    The schedule is exactly total_steps = iterations * steps_per_booster
    (K = T * kappa): give two of the three, or all three if they agree. A
    total the given factor does not divide is an error.
    """

    record_merge_loss: bool = False  # trace pre/post-merge full-data loss: two forwards per booster

    def validate(self):
        super().validate()
        schedule = ("iterations", "steps_per_booster", "total_steps")
        if sum(getattr(self, k) is not None for k in schedule) < 2:
            raise ConfigError(
                "schedule underdetermined: give two of iterations/steps_per_booster/total_steps"
            )
        if self.total_steps is None:
            self.total_steps = self.iterations * self.steps_per_booster
        for name in schedule[:2]:
            part = getattr(self, name)
            if part is not None and self.total_steps % part:
                raise ConfigError(f"{name}={part} does not divide total_steps={self.total_steps}")
        self.iterations = self.iterations or self.total_steps // self.steps_per_booster
        self.steps_per_booster = self.steps_per_booster or self.total_steps // self.iterations
        if self.iterations * self.steps_per_booster != self.total_steps:
            raise ConfigError(
                f"total_steps={self.total_steps} != iterations={self.iterations}"
                f" * steps_per_booster={self.steps_per_booster}"
            )


@dataclass
class PairStats:
    """Per-target-matrix measurements for one booster."""

    target: str
    a_norm: float = 0.0
    b_norm: float = 0.0
    a_update_norm: float = 0.0  # |A - A_init|_F; B starts at zero, so its update norm is b_norm
    grad_max: float = 0.0  # max over steps of max(|dL/dA|_F, |dL/dB|_F)


@dataclass
class BoosterTrace:
    t: int
    selected_layers: list[int]
    step_losses: list[float] = field(default_factory=list)
    pair_stats: dict = field(default_factory=dict)  # str(wid) -> PairStats
    pre_merge_loss: Optional[float] = None
    post_merge_loss: Optional[float] = None

    @staticmethod
    def for_adapters(adapters: AdapterSet, saved: Optional[dict] = None) -> "BoosterTrace":
        """Trace of the booster that trains `adapters`: empty, or rebuilt
        from the `saved()` dict a checkpoint stored mid-booster."""
        trace = BoosterTrace(
            t=adapters.booster_index,
            selected_layers=sorted({wid.layer for wid in adapters.pairs}),
            pair_stats={str(wid): PairStats(target=str(wid)) for wid in adapters.targets()},
        )
        if saved is not None:
            trace.step_losses = list(saved["step_losses"])
            trace.pair_stats = {k: PairStats(**v) for k, v in saved["pair_stats"].items()}
        return trace

    def saved(self) -> dict:
        """What a checkpoint keeps of a live booster's trace (JSON-ready)."""
        return {"step_losses": self.step_losses,
                "pair_stats": {k: asdict(ps) for k, ps in self.pair_stats.items()}}

    @property
    def steps(self) -> int:
        return len(self.step_losses)

    @property
    def grad_max(self) -> float:
        """Largest per-step adapter gradient norm seen this booster."""
        if not self.pair_stats:
            return 0.0
        return max(ps.grad_max for ps in self.pair_stats.values())

    @property
    def a_norm(self) -> float:
        return max((ps.a_norm for ps in self.pair_stats.values()), default=0.0)

    @property
    def b_norm(self) -> float:
        return max((ps.b_norm for ps in self.pair_stats.values()), default=0.0)


def select_layers(rng: Rng, n_layers: int, n_sample: int) -> list[int]:
    """Uniform sample of n_sample layer indices (1-based) without
    replacement, sorted; 1 <= n_sample <= n_layers."""
    if not 1 <= n_sample <= n_layers:
        raise ConfigError(f"sample_layers must be in [1, {n_layers}], got {n_sample}")
    pool = list(range(1, n_layers + 1))
    for i in range(n_sample):
        j = i + rng.randint(n_layers - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:n_sample])


def train_booster(
    model: ModelSpec,
    adapters: AdapterSet,
    data: Dataset,
    cfg: BoostConfig,
    rng: Rng,
    trace: Optional[BoosterTrace] = None,
    max_steps: Optional[int] = None,
) -> BoosterTrace:
    """Exactly kappa = cfg.steps_per_booster SGD steps on the adapter
    matrices, at cfg's eta, lam and batch size; the base weights stay
    frozen. Resumable: pass the partial trace back in and training
    continues from trace.steps (at most max_steps more). Records per-step
    batch losses and per-pair gradient statistics; final norms are stamped
    when the booster completes.

    The minibatch indices of all the steps this call takes come from one
    draw, row j for step j: the same stream, and the same final generator
    state, as one draw per step. So after a divergence the generator has
    moved past the failed step, to the end of this call's draw.

    Layers below the lowest adapted one, `lo`, are frozen. When lo > 1 and
    a booster's steps draw at least as many rows as the dataset holds
    (steps_per_booster * batch_size >= n), the call computes the
    activations entering layer lo for the whole dataset once
    (`layer_input`, in chunks of batch_size examples, so that every
    product keeps the shape it has in a step), and each step gathers its
    rows and runs the forward from layer lo (`layer_loss`). Whether a call
    does so depends on the config alone, and the cache covers every row,
    not only the drawn ones, so a resumed booster computes what the
    uninterrupted one does: a run's bits are a function of its config,
    the cache rule included. They equal the uncached loop's on the shapes
    `TestFrozenPrefix` pins, not on every shape, since a gemm row's last
    bits can depend on its position in the product (README names a
    reproducer).
    """
    adapters.check_live()
    if trace is None:
        trace = BoosterTrace.for_adapters(adapters)
    params = adapters.trainable_params()

    kappa = cfg.steps_per_booster
    todo = kappa - trace.steps
    if max_steps is not None:
        todo = max(0, min(todo, max_steps))
    draws = rng.randint_array(data.n, todo * cfg.batch_size).reshape(todo, cfg.batch_size)
    lo = min((wid.layer for wid in adapters.pairs), default=1)
    prefix = None
    if lo > 1 and kappa * cfg.batch_size >= data.n and todo:
        prefix = layer_input(model, data, lo, cfg.batch_size)
    stats = [(pair, trace.pair_stats[str(wid)]) for wid, pair in adapters.pairs.items()]
    for idx in draws:
        if prefix is None:
            loss = batch_loss(model, data.batch(idx), adapters=adapters, lam=cfg.lam)
        else:
            loss = layer_loss(model, prefix[idx], data.targets[idx], adapters, cfg.lam, lo)
        loss.backward()
        for pair, ps in stats:
            ga = frobenius_norm(pair.a.grad) if pair.a.grad is not None else 0.0
            gb = frobenius_norm(pair.b.grad) if pair.b.grad is not None else 0.0
            ps.grad_max = max(ps.grad_max, ga, gb)
        sgd_step(params, cfg.eta)
        value = loss.item()
        if not np.isfinite(value):
            raise FloatingPointError(
                f"booster {adapters.booster_index} diverged at step {trace.steps + 1} "
                f"(loss={value}); lower eta"
            )
        trace.step_losses.append(value)

    if trace.steps >= kappa:
        for pair, ps in stats:
            ps.a_norm = frobenius_norm(pair.a)
            ps.b_norm = frobenius_norm(pair.b)
            ps.a_update_norm = frobenius_norm(pair.a.data - pair.a_init)
    return trace


@dataclass
class BoostRun:
    """Resumable state of one boosting run; `start`, `resume` and `save`
    are the one way to begin it, continue it from a checkpoint and write one."""

    model: ModelSpec
    data: Dataset
    cfg: BoostConfig
    rng: Rng
    global_step: int = 0
    booster: int = 1  # 1-based iteration about to run / being run
    adapters: Optional[AdapterSet] = None
    trace: Optional[BoosterTrace] = None
    traces: list[BoosterTrace] = field(default_factory=list)

    @classmethod
    def start(cls, model: ModelSpec, data: Dataset, cfg: BoostConfig) -> "BoostRun":
        """A fresh run. A `sample_layers` deeper than the model raises
        ConfigError, so a checkpoint records the value that ran."""
        if cfg.sample_layers > model.layers:
            raise ConfigError(f"sample_layers={cfg.sample_layers} exceeds the model's {model.layers} layers")
        return cls(model=model, data=data, cfg=cfg, rng=Rng(cfg.seed))

    @classmethod
    def resume(cls, state: CheckpointState, data: Dataset, cfg: BoostConfig) -> "BoostRun":
        """Continue the run a checkpoint holds. Only the run's own config
        and data reproduce the uninterrupted run; any other raises
        ConfigError naming what differs."""
        if state.config is None:
            raise ConfigError("checkpoint holds no boosting run (no run config stored); nothing to resume")
        check_resume("config", asdict(cfg), state.config)
        check_resume("data", {"sha256": data.sha256()}, {"sha256": state.data_sha256})
        run = cls(model=state.model, data=data, cfg=cfg, rng=Rng(state.rng_state),
                  global_step=state.step, booster=state.booster, adapters=state.adapters)
        if state.adapters is not None:
            if state.trace is None:
                raise ConfigError("checkpoint holds a live booster without its trace; nothing to resume")
            run.trace = BoosterTrace.for_adapters(state.adapters, state.trace)
        return run

    def save(self, path):
        save_checkpoint(path, CheckpointState(
            model=self.model, step=self.global_step, booster=self.booster, rng_state=self.rng.state,
            adapters=self.adapters, config=asdict(self.cfg), data_sha256=self.data.sha256(),
            trace=None if self.trace is None else self.trace.saved(),
        ))

    @property
    def done(self) -> bool:
        return self.booster > self.cfg.iterations


def check_resume(what: str, ours: dict, stored: dict):
    """Raise ConfigError naming each field of `ours` (the resume's config,
    data or model) that differs from what the checkpoint stored."""
    differ = [f"{k}={v!r} (checkpoint: {stored.get(k)!r})" for k, v in ours.items() if stored.get(k) != v]
    if differ:
        raise ConfigError(f"a resume must use the run's own {what}; differs: " + ", ".join(differ))


def boost_step(run: BoostRun, stop_after_step: Optional[int] = None,
               on_merge: Optional[Callable] = None) -> int:
    """Advance the run until its global step reaches stop_after_step (an
    absolute step; None = to the end) and return the number of steps
    executed. A booster is merged as soon as its last step is taken, so a
    pause on a booster boundary leaves no live adapters; base weights
    change only at merges."""
    cfg = run.cfg
    model = run.model
    start = run.global_step
    while not run.done and (stop_after_step is None or run.global_step < stop_after_step):
        if run.adapters is None:
            layers = set(select_layers(run.rng, model.layers, cfg.sample_layers))
            targets = [wid for wid in list_adaptable_weights(model, policy=cfg.policy) if wid.layer in layers]
            run.adapters = init_adapter_set(model, targets, cfg.rank, run.rng, booster_index=run.booster)
            run.trace = BoosterTrace.for_adapters(run.adapters)
        budget = None if stop_after_step is None else stop_after_step - run.global_step
        before = run.trace.steps
        train_booster(model, run.adapters, run.data, cfg, run.rng, trace=run.trace, max_steps=budget)
        run.global_step += run.trace.steps - before
        if run.trace.steps < cfg.steps_per_booster:
            break  # paused mid-booster
        if cfg.record_merge_loss:
            run.trace.pre_merge_loss = loss_eval(model, run.data, run.adapters, lam=0.0)
        merge_adapters(model, run.adapters)
        if cfg.record_merge_loss:
            run.trace.post_merge_loss = loss_eval(model, run.data, lam=0.0)
        run.traces.append(run.trace)
        if on_merge is not None:
            on_merge(run.trace)
        run.adapters = None
        run.trace = None
        run.booster += 1
    return run.global_step - start


def xgblora_fit(model: ModelSpec, data: Dataset, cfg: BoostConfig) -> tuple[ModelSpec, list[BoosterTrace]]:
    """Run a fresh boosting run from start to end. To pause and resume,
    or to act on each merge, use `BoostRun` with `boost_step`."""
    run = BoostRun.start(model, data, cfg)
    boost_step(run)
    return run.model, run.traces


def lora_config(model: ModelSpec, total_steps: int, **train) -> BoostConfig:
    """The boosting schedule of plain low-rank adaptation: T=1, kappa=K,
    every layer of `model`; `train` holds the other TrainConfig fields (an
    iterations, steps_per_booster or sample_layers there is replaced)."""
    return BoostConfig(**{**train, "iterations": 1, "steps_per_booster": total_steps,
                          "sample_layers": model.layers})


def full_finetune(model: ModelSpec, data: Dataset, cfg: TrainConfig) -> tuple[ModelSpec, list[float]]:
    """cfg.total_steps SGD steps on every weight in the model, at cfg's
    eta, batch size and seed."""
    if cfg.total_steps is None:
        raise ConfigError("full fine-tuning needs total_steps")
    rng = Rng(cfg.seed)
    params = [model.weights[wid] for wid in sorted(model.weights, key=sort_key)]
    for p in params:
        p.requires_grad = True
    losses = []
    try:
        for step in range(cfg.total_steps):
            idx = rng.randint_array(data.n, cfg.batch_size)
            loss = batch_loss(model, data.batch(idx))
            loss.backward()
            sgd_step(params, cfg.eta)
            value = loss.item()
            if not np.isfinite(value):
                raise FloatingPointError(f"full fine-tune diverged at step {step + 1}; lower eta")
            losses.append(value)
    finally:
        for p in params:
            p.requires_grad = False
            p.grad = None
    return model, losses


# ----------------------------------------------------------------------
# Analytic cost model
# ----------------------------------------------------------------------


@dataclass
class CostModel:
    """Inputs of the per-learner/total cost algebra.

    alpha_cost: cost of one full-rank adapter on one layer; beta_cost: cost
    of the frozen base model; full_rank is the reference rank R that plain
    low-rank adaptation uses on every layer.
    """

    alpha_cost: float = 1.0
    beta_cost: float = 0.0
    layers: int = 32  # L
    total_steps: int = 1000  # K
    iterations: int = 10  # T
    rank: int = 1  # r
    full_rank: int = 8  # R
    adapted_layers: float = 32.0  # l

    def validate(self):
        for name in ("alpha_cost", "layers", "total_steps", "iterations", "rank", "full_rank", "adapted_layers"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.beta_cost < 0:
            raise ConfigError(f"beta_cost must be >= 0, got {self.beta_cost}")


def cost_model_estimate(cm: CostModel, method: str) -> dict:
    """per_learner = l*alpha*r/R; total = per_learner*kappa*T + beta.

    The plain-adaptation row pins r=R, l=L, T=1, kappa=K (the upper bound);
    the boosted row uses the model's own r, l, T with kappa = K/T.
    """
    cm.validate()
    if method == "lora":
        r, layers_adapted, iters = cm.full_rank, float(cm.layers), 1
    elif method == "xgblora":
        r, layers_adapted, iters = cm.rank, float(cm.adapted_layers), cm.iterations
    else:
        raise ConfigError(f"method must be lora or xgblora, got {method!r}")
    steps_per_iter = cm.total_steps / iters
    per_learner = layers_adapted * cm.alpha_cost * r / cm.full_rank
    total = per_learner * steps_per_iter * iters + cm.beta_cost
    return {
        "per_learner": per_learner,
        "steps_per_iter": steps_per_iter,
        "iters": iters,
        "total": total,
    }
