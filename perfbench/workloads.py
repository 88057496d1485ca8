"""The benchmark's four closed-loop workloads.

A workload builds its inputs from the seed in `setup`, then the timed loop
calls `run_pass` again and again with one caller and no extra threads. A
pass is the unit a user waits for: one fit, one segmented CLI training run,
or one pass over the probes. What a pass must produce is checked after the
timed section by `check`, which also runs any reference computation, so
the reference never counts as measured time.

Why these four: each one exercises a hot spot the others bypass.
- parity-boost: tape ops of the parity transformer (gelu, matmul,
  layer_norm, softmax, backward); batch draws are a small share.
- teacher-boost: the matrix teacher, where batch index draws dominate and
  the tape does small matmuls only; many boosters, so adapter init and
  merges count.
- cli-resume: the CLI lifecycle with merge-loss evaluation on, checkpoint
  writes and reads, and a task rebuild per resumed invocation.
- probe-suite: the only user of the hand-rolled SVD, and gradients with
  respect to base weights.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field

from xgblora import Rng, boosting, build_transformer, cli, gen_sequence_dataset, gen_teacher_dataset, loss_eval
from xgblora.checkpoint import load_checkpoint
from xgblora.models import sort_key


@dataclass
class Pass:
    """What one pass did: optimizer steps, operations attempted, failures
    seen while it ran, and the outputs `check` and `digest` read later."""

    steps: int
    ops: int
    failures: list = field(default_factory=list)
    output: object = None


def weights_digest(model) -> str:
    """sha256 over every weight matrix, in the model's canonical order."""
    h = hashlib.sha256()
    for wid in sorted(model.weights, key=sort_key):
        h.update(str(wid).encode())
        h.update(model.weights[wid].data.tobytes())
    return h.hexdigest()


def call_cli(argv):
    """cli.main in this process with its output captured: (exit code, text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an invocation that raises is a failed operation
            print(f"{type(exc).__name__}: {exc}")
            code = -1
    return code, out.getvalue()


class Workload:
    """Defaults shared by the workloads below."""

    def extra_metrics(self, st, passes):
        """Per-layer metrics read from a pass's outputs rather than its spans;
        the rows-kept ratio is 0 where no metrics.csv is written."""
        return {"reporting.metrics_rows_kept_ratio": (0.0, "ratio")}


class ParityBoost(Workload):
    """xgblora_fit on the canonical parity transformer, as criterion 9 and
    kappa_sweep call it. The training seed is fixed: it picks the adapted
    layers, and the step cost varies by up to 1.5x with the deepest adapted
    layer, so a seed-dependent draw would make throughput depend on the seed.
    The seed varies the dataset and the initial weights.

    Counted as failures: a non-finite final loss, passes of the same fit that
    disagree bit for bit, and a replay of the fit with merge-loss evaluation
    on that ends elsewhere or shows a merge that changes the loss by more
    than rounding. Whether the final train loss is below the untrained
    model's is reported, not counted: at eta=1.0 it is not, for some seeds
    (seed 20 of 0-39 at 128 steps; seeds 10, 26 and 30 at 256 steps).
    """

    name = "parity-boost"
    SIZES = {
        "full": dict(n=256, batch=64, kappa=64, boosters=2),
        "tiny": dict(n=64, batch=16, kappa=8, boosters=2),
    }

    def setup(self, seed, size, workdir):
        p = self.SIZES[size]
        data = gen_sequence_dataset("parity", seq_len=4, n=p["n"], seed=seed)
        model = build_transformer(
            vocab=2, d_model=32, n_layers=4, n_heads=4, d_ff=64, rng=Rng(seed + 1), max_seq=4
        )
        return dict(p=p, data=data, model=model, seed=seed, notes=[])

    def _fit(self, st, record_merge_loss):
        p = st["p"]
        model = st["model"].copy()
        cfg = boosting.BoostConfig(
            iterations=p["boosters"], steps_per_booster=p["kappa"], rank=1, sample_layers=2,
            policy="all", eta=1.0, batch_size=p["batch"], seed=0,
            record_merge_loss=record_merge_loss,
        )
        # looked up on the module, where a traced run has wrapped it
        _, traces = boosting.xgblora_fit(model, st["data"], cfg)
        return cfg, model, traces

    def run_pass(self, st, i):
        cfg, model, _ = self._fit(st, record_merge_loss=False)
        return Pass(steps=cfg.total_steps, ops=1, output=model)

    def check(self, st, passes):
        _, replay, traces = self._fit(st, record_merge_loss=True)
        want = weights_digest(replay)
        bad = [
            (0, f"booster {t.t}: merge moved the loss from {t.pre_merge_loss!r} to {t.post_merge_loss!r}")
            for t in traces
            if abs(t.pre_merge_loss - t.post_merge_loss) > 1e-12 * max(1.0, abs(t.pre_merge_loss))
        ]
        untrained = loss_eval(st["model"], st["data"])
        for i, ps in enumerate(passes):
            final = loss_eval(ps.output, st["data"])
            if not math.isfinite(final):
                bad.append((i, f"final train loss {final!r}"))
            elif weights_digest(ps.output) != want:
                bad.append((i, "weights differ from the replay with merge-loss evaluation on"))
            elif i == 0 and not final < untrained:
                st["notes"].append(f"final train loss {final!r} not below untrained {untrained!r}")
        return bad

    def digest(self, st, ps):
        return weights_digest(ps.output)


class TeacherBoost(Workload):
    """The canonical 16x16 matrix teacher through the library path, as
    criterion 8 and the expressiveness sweep call it: one replicate fit plus
    its held-out error per pass. The step size is 5.0, not the 6.0 of the
    sweep's grid: at 6.0 one replicate in about 300 diverged (data seed 705,
    replicate 10), a failed operation; 5.0 diverged in none of 240."""

    name = "teacher-boost"
    SIZES = {
        "full": dict(dims=16, n=128, boosters=64, kappa=8, batch=128),
        "tiny": dict(dims=16, n=128, boosters=32, kappa=8, batch=128),
    }

    def setup(self, seed, size, workdir):
        p = self.SIZES[size]
        data, task = gen_teacher_dataset(
            "teacher-matrix", [p["dims"], p["dims"]], n=p["n"], seed=seed,
            delta_kind="rotation", delta_scale=4.0,
        )
        return dict(p=p, data=data, task=task, seed=seed)

    def run_pass(self, st, i):
        p, task = st["p"], st["task"]
        model = task.make_student()
        cfg = boosting.BoostConfig(
            iterations=p["boosters"], steps_per_booster=p["kappa"], rank=1,
            sample_layers=task.start.layers, eta=5.0, batch_size=p["batch"],
            seed=st["seed"] * 104729 + i, record_merge_loss=False,
        )
        boosting.xgblora_fit(model, st["data"], cfg)
        err = task.heldout_error(model)
        return Pass(steps=cfg.total_steps, ops=1, output=(model, err))

    def check(self, st, passes):
        task = st["task"]
        start = task.heldout_error(task.make_student())
        return [
            (i, f"held-out error {ps.output[1]!r} not below half the start error {start!r}")
            for i, ps in enumerate(passes)
            if not ps.output[1] < 0.5 * start
        ]

    def digest(self, st, ps):
        return weights_digest(ps.output[0])


class CliResume(Workload):
    """`xgblora train --task parity-seq` through cli.main for 64 steps,
    paused at steps 30 and 60 and resumed from the previous checkpoint, then
    `xgblora report`. 30 is not a multiple of kappa=4, so live adapters are
    checkpointed; 60 is, so the merged-only path is checkpointed too. The
    check compares the final checkpoint, bit for bit, with one uninterrupted
    run of the same configuration."""

    name = "cli-resume"
    SIZES = {
        "full": dict(n=256, batch=64, total=64, every=30),
        "tiny": dict(n=32, batch=16, total=12, every=5),
    }
    KAPPA = 4

    def setup(self, seed, size, workdir):
        p = self.SIZES[size]
        argv = [
            "train", "--task", "parity-seq", "--seed", str(seed), "--kappa", str(self.KAPPA),
            "-K", str(p["total"]), "--n-layers", "4", "--seq-len", "4",
            "--n-examples", str(p["n"]), "--batch-size", str(p["batch"]),
            "--policy", "all", "--layers", "2", "--eta", "1.0",
        ]
        return dict(p=p, argv=argv, workdir=workdir)

    def run_pass(self, st, i):
        p = st["p"]
        out = os.path.join(st["workdir"], f"cli-pass{i}")
        shutil.rmtree(out, ignore_errors=True)
        ckpt = os.path.join(out, "checkpoint.xgbl")
        argv = st["argv"] + ["--out-dir", out]
        calls = []
        for stop in range(p["every"], p["total"], p["every"]):
            calls.append(argv + ["--stop-after-step", str(stop)] + (["--resume", ckpt] if stop > p["every"] else []))
        calls.append(argv + ["--resume", ckpt])
        calls.append(["report", out])
        failures = []
        for argv_i in calls:
            code, text = call_cli(argv_i)
            if code != 0:
                failures.append(f"`xgblora {' '.join(argv_i[:1])}` exited {code}: {text.strip()[-300:]}")
        return Pass(steps=p["total"], ops=len(calls), failures=failures, output=out)

    def check(self, st, passes):
        ref_dir = os.path.join(st["workdir"], "cli-reference")
        shutil.rmtree(ref_dir, ignore_errors=True)
        code, text = call_cli(st["argv"] + ["--out-dir", ref_dir])
        if code != 0:
            return [(i, f"reference run exited {code}: {text.strip()[-300:]}") for i in range(len(passes))]
        want = self._ckpt_digest(ref_dir)
        return [
            (i, "final checkpoint differs from an uninterrupted run")
            for i, ps in enumerate(passes)
            if not ps.failures and self._ckpt_digest(ps.output) != want
        ]

    @staticmethod
    def _ckpt_digest(out_dir) -> str:
        return weights_digest(load_checkpoint(os.path.join(out_dir, "checkpoint.xgbl")).model)

    def digest(self, st, ps):
        return self._ckpt_digest(ps.output)

    def extra_metrics(self, st, passes):
        boosters = -(-st["p"]["total"] // self.KAPPA)
        kept = []
        for ps in passes:
            with open(os.path.join(ps.output, "metrics.csv"), encoding="utf-8") as fh:
                kept.append((sum(1 for _ in fh) - 1) / boosters)
        return {"reporting.metrics_rows_kept_ratio": (sum(kept) / len(kept), "ratio")}


class ProbeSuite(Workload):
    """`xgblora probe lemma1`, `lemma2` and `lemma3` through cli.main.

    A probe fails its operation when it does not finish with exit 0 or 3
    (3: a check did not pass), or when a check that holds for every seed
    fails: the truncation floor bounds the error (lemma1), no update-norm
    violation (lemma2), a positive Lipschitz estimate within the curvature
    bound (lemma3). lemma1's two trend checks, non-increasing error in rank
    and in minibatch size, compare means of five replicates and fail on
    some data seeds (6, 16, 17 and 24 of seeds 0-29); they are reported,
    not counted as failed operations.
    """

    name = "probe-suite"
    SIZES = {
        "full": dict(lemma1=["--seeds", "5"], lemma2=["--runs", "54"]),
        "tiny": dict(lemma1=["--seeds", "1"], lemma2=["--runs", "9"]),
    }
    PROBES = (
        ("lemma1", "gradient_approx.json"),
        ("lemma2", "update_norm.json"),
        ("lemma3", "lipschitz.json"),
    )
    INVARIANT_CHECKS = {"floor_dominated", "zero_violations", "estimate_le_beta", "positive"}

    def setup(self, seed, size, workdir):
        return dict(p=self.SIZES[size], seed=seed, workdir=workdir, notes=[])

    def _steps(self, st):
        """Optimizer steps of one pass: lemma1 trains one booster of m steps per
        rank (5 ranks), m in (4, 16, 64) and replicate; lemma2 trains runs // 9
        boosters for each of 3 ranks and kappa in (1, 8, 32)."""
        seeds = int(st["p"]["lemma1"][1])
        runs = int(st["p"]["lemma2"][1])
        return 5 * (4 + 16 + 64) * seeds + 3 * (1 + 8 + 32) * max(1, runs // 9)

    def run_pass(self, st, i):
        out = os.path.join(st["workdir"], f"probe-pass{i}")
        shutil.rmtree(out, ignore_errors=True)
        failures = []
        for which, _ in self.PROBES:
            code, text = call_cli(["probe", which, "--seed", str(st["seed"]), "--out-dir", out, *st["p"].get(which, [])])
            if code not in (0, 3):
                failures.append(f"probe {which} exited {code}: {text.strip()[-300:]}")
        return Pass(steps=self._steps(st), ops=len(self.PROBES), failures=failures, output=out)

    def check(self, st, passes):
        bad = []
        for i, ps in enumerate(passes):
            for which, report in self.PROBES:
                path = os.path.join(ps.output, report)
                if not os.path.exists(path):
                    bad.append((i, f"probe {which} wrote no {report}"))
                    continue
                with open(path, encoding="utf-8") as fh:
                    checks = json.load(fh)["checks"]
                for name, ok in sorted(checks.items()):
                    if ok:
                        continue
                    if name in self.INVARIANT_CHECKS:
                        bad.append((i, f"probe {which} failed check {name}"))
                    else:
                        st["notes"].append(f"pass {i}: probe {which} trend check {name} failed")
        return bad

    def digest(self, st, ps):
        h = hashlib.sha256()
        for _, report in self.PROBES:
            for name in (report, report.replace(".json", ".csv")):
                with open(os.path.join(ps.output, name), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()



WORKLOADS = {w.name: w for w in (ParityBoost(), TeacherBoost(), CliResume(), ProbeSuite())}
