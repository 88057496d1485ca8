"""Command-line shell: train / probe / sweep / cost-model / report.

`probe` and `sweep` are the one way to produce the committed experiments:
`probe all` runs the five bound probes (runs/probes), `sweep rank-iter` the
rank-vs-iterations trade-off (runs/tradeoff) and `sweep kappa` the parity
steps-per-booster sweep (runs/kappa). Each writes its ProbeReport through
`_probe_outputs`.

Exit codes: 0 success, 1 config or data error, an unreadable path or a
diverged run, 2 usage error (argparse), 3 a probe or sweep check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import fields
from functools import partial
from typing import Optional

import numpy as np

from xgblora import probes
from xgblora.boosting import (
    BoostConfig,
    BoostRun,
    ConfigError,
    CostModel,
    TrainConfig,
    boost_step,
    check_resume,
    cost_model_estimate,
    full_finetune,
    lora_config,
)
from xgblora.checkpoint import CheckpointState, load_checkpoint, save_checkpoint
from xgblora.config import RunConfig, load_config, save_config
from xgblora.lora import param_count
from xgblora.models import build_transformer, logits_accuracy, loss_logits, task_loss
from xgblora.reporting import MetricsWriter, emit_report, svg_line_plot
from xgblora.tasks import gen_sequence_dataset, gen_teacher_dataset
from xgblora.tensor import Rng

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_USAGE = 2
EXIT_PROBE_FAILED = 3


def build_task(cfg: RunConfig):
    """(dataset, model, task-or-None) for the configured task."""
    if cfg.task in ("teacher-matrix", "teacher-mlp"):
        dims = cfg.dims_list()
        data, task = gen_teacher_dataset(cfg.task, dims, n=cfg.n_examples, noise=cfg.noise, seed=cfg.seed)
        return data, task.make_student(), task
    data = gen_sequence_dataset("parity", seq_len=cfg.seq_len, n=cfg.n_examples, seed=cfg.seed)
    model = build_transformer(
        vocab=2,
        d_model=cfg.d_model,
        n_layers=cfg.n_layers,
        n_heads=cfg.n_heads,
        d_ff=cfg.d_ff,
        rng=Rng(cfg.seed + 1),
        max_seq=cfg.seq_len,
    )
    return data, model, None


def _schedule(cfg: RunConfig, model) -> Optional[BoostConfig]:
    """Fill in the CLI's schedule defaults, then write every training field
    of the BoostConfig that runs back into `cfg`, so run.cfg records the
    config that ran; returns that BoostConfig (None for full-ft). xgblora
    fills in steps_per_booster=8, then total_steps=256, until two of the
    three are known, and BoostConfig derives the third; it samples at most
    the model's depth of layers. lora and full-ft read only total_steps
    (default 256); lora adapts every layer."""
    if cfg.method == "xgblora":
        for name, default in (("steps_per_booster", 8), ("total_steps", 256)):
            known = sum(v is not None for v in (cfg.iterations, cfg.steps_per_booster, cfg.total_steps))
            if known < 2 and getattr(cfg, name) is None:
                setattr(cfg, name, default)
    else:
        cfg.iterations = cfg.steps_per_booster = None
        cfg.total_steps = 256 if cfg.total_steps is None else cfg.total_steps
        if cfg.method == "full-ft":
            return None
    train = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}
    train["sample_layers"] = min(cfg.sample_layers, model.layers)
    bc = lora_config(model, **train) if cfg.method == "lora" else BoostConfig(**train)
    for name in train:
        setattr(cfg, name, getattr(bc, name))
    return bc


def cmd_train(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    for f in fields(RunConfig):  # a field with no flag, or a flag not given, reads as None
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(cfg, f.name, v)
    cfg.validate()
    data, model, _ = build_task(cfg)
    bc = _schedule(cfg, model)
    if bc is None:
        for flag, value in (("--resume", args.resume), ("--stop-after-step", args.stop_after_step)):
            if value is not None:
                raise ConfigError(f"{flag} is not supported with --method full-ft")
    elif args.resume:
        state = load_checkpoint(args.resume)
        check_resume("model", model.structure(), state.model.structure())
        run = BoostRun.resume(state, data, bc)
    else:
        run = BoostRun.start(model, data, bc)
    run_id = f"{cfg.method}-seed{cfg.seed}"
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.xgbl")

    # every overflow ends in a named FloatingPointError, so numpy's warnings add nothing
    with (
        _discard_if_diverged(cfg.out_dir, fresh=not args.resume),
        np.errstate(over="ignore", invalid="ignore"),
    ):
        save_config(cfg, os.path.join(cfg.out_dir, "run.cfg"))
        if cfg.method == "full-ft":
            with MetricsWriter(metrics_path, run_id, model.total_params()) as mw:
                model, losses = full_finetune(model, data, cfg)
                mw.write_step(1, len(losses), losses[-1], model.total_params())
            final = _final_train_loss(model, data, loss_logits(model, data))
            save_checkpoint(ckpt_path, CheckpointState(model, step=len(losses), booster=0, rng_state=0))
            print(f"final loss {final:.6g}")
            return EXIT_OK

        model = run.model
        resume_step = run.global_step if args.resume else None
        with MetricsWriter(metrics_path, run_id, model.total_params(), resume_step) as mw:
            def on_merge(trace):
                mw.write_iteration(trace, run.global_step, param_count(model, run.adapters)["trainable"])

            boost_step(run, stop_after_step=args.stop_after_step, on_merge=on_merge)
        logits = loss_logits(model, data)
        final = _final_train_loss(model, data, logits)

    run.save(ckpt_path)
    status = "done" if run.done else f"paused at step {run.global_step}"
    print(f"{status}; train loss {final:.6g}")
    if model.kind == "tiny_transformer":
        print(f"train accuracy {logits_accuracy(logits, data.targets):.4f}")
    return EXIT_OK


def _final_train_loss(model, data, logits) -> float:
    """Full-data train loss of the trained model from its `logits` on
    `data` (`loss_logits`); a non-finite one means the last update
    diverged, which no per-step loss saw."""
    value = task_loss(model, logits, data.targets).item()
    if not np.isfinite(value):
        raise FloatingPointError(f"run diverged: final train loss {value}; lower eta")
    return value


@contextlib.contextmanager
def _discard_if_diverged(out_dir, fresh: bool):
    """Make out_dir for a training run. When a fresh (not resumed) run
    diverges, remove its run.cfg and metrics.csv and the directories made
    here, so nothing is left that looks like a resumable run."""
    made, d = [], os.path.abspath(out_dir)
    while not os.path.exists(d):
        made.append(d)
        d = os.path.dirname(d)
    os.makedirs(out_dir, exist_ok=True)
    try:
        yield
    except FloatingPointError:
        if fresh:
            for name in ("run.cfg", "metrics.csv"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(out_dir, name))
            for d in made:
                os.rmdir(d)
        raise


def _probe_outputs(report, out_dir, svg: Optional[str] = None) -> int:
    """The one writer of a ProbeReport: {probe}.csv and .json (and .svg
    when given) into out_dir, its checks and notes printed. Returns exit 3
    when a check failed."""
    os.makedirs(out_dir, exist_ok=True)
    report.write_csv(os.path.join(out_dir, f"{report.probe}.csv"))
    report.write_json(os.path.join(out_dir, f"{report.probe}.json"))
    written = [f"{report.probe}.csv", f"{report.probe}.json"]
    if svg is not None:
        written.append(f"{report.probe}.svg")
        with open(os.path.join(out_dir, written[-1]), "w", encoding="utf-8") as fh:
            fh.write(svg)
    for name, ok in sorted(report.checks.items()):
        print(f"[{'pass' if ok else 'FAIL'}] {name}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"wrote {' / '.join(written)} to {out_dir}")
    return EXIT_OK if report.passed else EXIT_PROBE_FAILED


def _rotation_teacher(seed: int):
    """The 16x16 rotation teacher of `probe theorem2` and `sweep rank-iter`."""
    return gen_teacher_dataset(
        "teacher-matrix", [16, 16], n=128, seed=seed, delta_kind="rotation", delta_scale=4.0
    )


PROBES = ("lemma1", "lemma2", "lemma3", "theorem1", "theorem2")


def _check_seeds(args):
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")


def cmd_probe(args) -> int:
    _check_seeds(args)
    if args.runs < 9 or args.runs % 9:
        raise ConfigError(f"--runs must be >= 9 and a multiple of 9 (lemma2's 9 configs), got {args.runs}")
    worst = EXIT_OK
    for which in PROBES if args.which == "all" else (args.which,):
        print(f"== probe {which} ==")
        worst = max(worst, _probe_outputs(_probe_report(which, args), args.out_dir))
    return worst


def _probe_report(which: str, args):
    """The ProbeReport of one bound probe at its desk-scale settings."""
    seeds = tuple(range(args.seeds))
    if which == "lemma1":
        data, task = gen_teacher_dataset("teacher-matrix", [16, 16], n=256, seed=args.seed)
        report = probes.gradient_approx_probe(
            task, data, r_grid=(1, 2, 4, 8, 16), m_grid=(4, 16, 64), seeds=seeds
        )
    elif which == "lemma2":
        corpus = probes.run_booster_corpus(boosters_per_config=args.runs // 9, seed=args.seed)
        report = probes.update_norm_probe(corpus)
    elif which == "lemma3":
        data, task = gen_teacher_dataset("teacher-matrix", [6, 4], n=64, seed=args.seed)
        model = task.make_student()
        shape = model.weights[probes.list_adaptable_weights(model)[0]].shape
        report = probes.lipschitz_probe(
            partial(probes.quadratic_gradient, data), shape, n_pairs=2000, radius=1.0, rng=Rng(args.seed)
        )
        beta, mu = probes.quadratic_curvature(data)
        report.constants.beta = beta
        report.constants.mu = mu
        report.checks["estimate_le_beta"] = report.constants.lipschitz <= beta * 1.05
    elif which == "theorem1":
        data, task = gen_teacher_dataset("teacher-matrix", [8, 8], n=128, seed=args.seed, noise=0.2)
        report = probes.convergence_sweep(
            task, data, t_grid=(1, 4, 16, 64), r_grid=(1,), kappa=8,
            seeds=seeds, eta=2.6, batch_size=128,
        )
    else:  # theorem2
        data, task = _rotation_teacher(args.seed)
        report = probes.expressiveness_sweep(
            task, data, total_steps=512,
            rt_grid=((1, 64), (8, 1), (1, 1), (16, 1)), seeds=seeds,
        )
    return report


def cmd_sweep(args) -> int:
    """rank-iter: one boosted rank-1 arm per --iterations value, then one
    single-adapter (T=1) arm per --ranks value not yet in the grid, on the
    rotation teacher. kappa: the parity transformer at kappa = K/T for each
    --iterations value T."""
    _check_seeds(args)
    budget = args.total_steps
    # every T must divide K before any arm runs
    kappas = [BoostConfig(iterations=t, total_steps=budget).steps_per_booster for t in args.iterations]
    seeds = tuple(range(args.seeds))
    if args.kind == "rank-iter":
        rt_grid = [(1, t) for t in args.iterations]
        for r in args.ranks or (1, 2, 4, 8):
            if (r, 1) not in rt_grid:
                rt_grid.append((r, 1))
        data, task = _rotation_teacher(args.seed)
        report = probes.expressiveness_sweep(task, data, total_steps=budget, rt_grid=rt_grid, seeds=seeds)
        series = {
            "boosted rank-1 (x = iterations)": sorted(
                (p.params["t"], p.mean) for p in report.points if p.params["r"] == 1),
            "single adapter (x = rank)": sorted(
                (p.params["r"], p.mean) for p in report.points if p.params["t"] == 1),
        }
        svg = svg_line_plot(series, f"held-out error at K={budget}", "iterations / rank", "error")
    else:
        if args.ranks is not None:
            raise ConfigError("--ranks is not used by sweep kappa (its rank is 1)")
        cfg = RunConfig(task="parity-seq", seed=args.seed, n_examples=256, seq_len=4, n_layers=4)
        data, _, _ = build_task(cfg)
        report = probes.kappa_sweep(data, lambda: build_task(cfg)[1], total_steps=budget,
                                    kappa_grid=kappas, seeds=seeds, sample_layers=2)
        series = {"boosted rank-1": sorted((p.params["kappa"], p.mean) for p in report.points)}
        svg = svg_line_plot(series, f"parity accuracy vs steps-per-booster at K={budget}",
                            "steps per booster", "train accuracy")
    for p in report.points:
        params = " ".join(f"{k}={v}" for k, v in p.params.items())
        print(f"{params}  mean={p.mean:.6g} +- {p.std:.3g}  eta={p.extras['eta'][0]}")
    return _probe_outputs(report, args.out_dir, svg=svg)


def cmd_cost_model(args) -> int:
    cm = CostModel(
        alpha_cost=args.alpha,
        beta_cost=args.beta,
        layers=args.layers,
        total_steps=args.total_steps,
        iterations=args.iterations,
        rank=args.rank,
        full_rank=args.full_rank,
        adapted_layers=args.adapted_layers if args.adapted_layers is not None else args.layers / 3,
    )
    presets = {
        "lora": ("lora", cm),
        "xgblora-r8": ("xgblora", CostModel(**{**cm.__dict__, "rank": cm.full_rank})),
        "xgblora-r1": ("xgblora", CostModel(**{**cm.__dict__, "rank": 1})),
    }
    rows = [presets[args.preset]] if args.preset else [("lora", cm), ("xgblora", cm)]
    for method, model in rows:
        got = cost_model_estimate(model, method)
        label = "L*alpha*K + beta" if method == "lora" else "l*alpha*(r/R)*K + beta"
        print(
            f"{method:8s} per-learner={got['per_learner']:.6g} steps/iter={got['steps_per_iter']:.6g} "
            f"iters={got['iters']} total={got['total']:.6g}  ({label})"
        )
    return EXIT_OK


def cmd_report(args) -> int:
    written = emit_report(args.csv_dir, args.out_dir)
    for name in sorted(written):
        print(f"wrote {name} ({written[name]} bytes)")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xgblora", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training method on a synthetic task")
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--method", choices=("xgblora", "lora", "full-ft"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iterations", "-T", type=int, dest="iterations")
    p.add_argument("--kappa", type=int, dest="steps_per_booster")
    p.add_argument("--total-steps", "-K", type=int, dest="total_steps")
    p.add_argument("--r", "--rank", type=int, dest="rank")
    p.add_argument("--layers", type=int, dest="sample_layers")
    p.add_argument("--lam", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--policy", choices=("qv", "all"))
    p.add_argument("--task", choices=("teacher-matrix", "teacher-mlp", "parity-seq"))
    p.add_argument("--dims")
    p.add_argument("--noise", type=float)
    p.add_argument("--n-examples", type=int, dest="n_examples")
    p.add_argument("--seq-len", type=int, dest="seq_len")
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--n-layers", type=int, dest="n_layers")
    p.add_argument("--n-heads", type=int, dest="n_heads")
    p.add_argument("--d-ff", type=int, dest="d_ff")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--stop-after-step", type=int)
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("probe", help="run one bound probe, or all five, and write its report")
    p.add_argument("which", choices=(*PROBES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seeds", type=int, default=5, help="replicates per grid point")
    p.add_argument("--runs", type=int, default=54,
                   help="lemma2 boosters, a multiple of 9: split over its 9 rank x kappa configs")
    p.add_argument("--out-dir", default="runs/probes")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("sweep", help="rank-vs-iterations or steps-per-booster sweep at a fixed step budget")
    p.add_argument("kind", choices=("rank-iter", "kappa"))
    p.add_argument("--ranks", type=int, nargs="+", help="rank-iter single-adapter ranks (default 1 2 4 8)")
    p.add_argument("--iterations", type=int, nargs="+", default=[1, 8, 64])
    p.add_argument("--total-steps", type=int, default=512)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="runs/sweep")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("cost-model", help="analytic total-cost calculator")
    p.add_argument("--preset", choices=("lora", "xgblora-r8", "xgblora-r1"))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--layers", type=int, default=32)
    p.add_argument("--total-steps", type=int, default=1000)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--full-rank", type=int, default=8)
    p.add_argument("--adapted-layers", type=float, default=None)
    p.set_defaults(fn=cmd_cost_model)

    p = sub.add_parser("report", help="aggregate metrics CSVs into markdown + SVG")
    p.add_argument("csv_dir")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # ValueError includes ConfigError, CheckpointError and ReportError;
    # OSError is a missing or unreadable path
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
