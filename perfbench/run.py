#!/usr/bin/env python3
"""Benchmark of the xgblora engine: one workload per invocation.

    python3 perfbench/run.py --workload parity-boost --seed 0 --seconds 20 --trace 0

Each workload runs in fresh worker processes (worker.py), one caller, no
extra threads, with OPENBLAS_NUM_THREADS=1. `--trace 0` prints the
end-to-end metrics of BENCHMARK.json; `--trace 1` prints the per-layer
metrics, from a traced worker that repeats the passes of an untraced one
and must end with the same weights, bit for bit. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Metadata and the span list of a
traced run go to .perfbench_work/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("parity-boost", "teacher-boost", "cli-resume", "probe-suite")
SETUP_RUNS = 5  # set-up is measured in this many fresh processes; setup_s is their median
RUN_TIMEOUT_S = 170  # all workers of one run together; the run must end within 180 s


def spawn(args, mode, workdir, **extra):
    """Run worker.py once, within what is left of RUN_TIMEOUT_S; returns
    (monotonic time at spawn, its JSON result)."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode, "--workdir", str(workdir)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, args.deadline - spawned), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(res):
    """(attempted, failed, messages) for one worker result."""
    attempted = sum(res["ops"])
    failed = sum(min(len(f), ops) for f, ops in zip(res["failures"], res["ops"]))
    messages = [f"pass {i}: {m}" for i, f in enumerate(res["failures"]) for m in f]
    if "raised" in res:
        attempted += 1
        failed += 1
        messages.append(res["raised"])
    return attempted, failed, messages


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def end_to_end(args, workdir):
    setups = []
    for _ in range(SETUP_RUNS - 1):
        spawned, res = spawn(args, "setup", workdir)
        setups.append(res["ready"] - spawned)
    spawned, res = spawn(args, "untraced", workdir, seconds=args.seconds)
    setups.append(res["ready"] - spawned)
    attempted, failed, messages = count_failures(res)
    walls = res["walls"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "steps_per_s": (statistics.median(s / w for s, w in zip(res["steps"], walls)), "1/s"),
    }
    return metrics, attempted, failed, messages, res


def per_layer(args, workdir, results_dir, stem):
    _, base = spawn(args, "untraced", workdir, seconds=args.seconds)
    if not base["walls"]:
        return {}, *count_failures(base), base
    _, traced = spawn(args, "traced", workdir, passes=max(1, len(base["walls"])),
                      spans=results_dir / f"{stem}.spans.tsv")
    attempted, failed, messages = count_failures(base)
    t_attempted, t_failed, t_messages = count_failures(traced)
    attempted += t_attempted
    failed += t_failed
    messages += [f"traced {m}" for m in t_messages]
    shared = min(len(base["digests"]), len(traced["digests"]))
    for i in range(shared):
        if base["digests"][i] is not None and base["digests"][i] != traced["digests"][i]:
            failed += 1
            messages.append(f"pass {i}: traced outputs differ from untraced outputs")
    if not traced["walls"]:
        return {}, attempted, failed, messages, traced
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    n = len(traced["walls"])
    metrics["trace.wall_s"] = (sum(traced["walls"]) / n, "s")
    metrics["trace.overhead_ratio"] = (sum(traced["walls"]) / sum(base["walls"][:n]), "ratio")
    metrics["cpu_s"] = (base["cpu_s"] / len(base["walls"]), "s")
    metrics["peak_rss_mb"] = (base["peak_rss_mb"], "MB")
    return metrics, attempted, failed, messages, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few steps per pass, for the benchmark's own tests")
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "xgblora" / "__init__.py").is_file():
        print(f"error: no xgblora sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = ROOT / ".perfbench_work" / "results"
    workdir = ROOT / ".perfbench_work" / f"{stem}-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    try:
        if args.trace:
            metrics, attempted, failed, messages, res = per_layer(args, workdir, results_dir, stem)
        else:
            metrics, attempted, failed, messages, res = end_to_end(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not res["walls"]:
        print(f"error: no pass completed: {'; '.join(messages)}", file=sys.stderr)
        return 1
    meta = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        size=args.size, git_sha=git_sha(), src_sha256=src_digest(), **res["meta"],
        worker_env={k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        loadavg_before=load_before, loadavg_after=os.getloadavg(),
        passes=len(res["walls"]), pass_walls_s=res["walls"],
    )
    out = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results_dir / f"{stem}.json").write_text(json.dumps({"meta": meta, **out}, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(res['walls'])}  "
          f"fail_ratio {failed / max(attempted, 1):.3g} ({failed} of {attempted} operations)")
    for m in messages:
        print(f"FAILED {m}")
    for note in res.get("notes", []):
        print(f"note (not counted as a failure): {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print("meta " + json.dumps(meta))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
