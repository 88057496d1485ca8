"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import PHASES, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300, check=False,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def results(request):
    out = {}
    for trace in (0, 1):
        proc = run_bench(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        out[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_every_declared_metric_is_printed_with_its_unit(results):
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        res = results[trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == {
            name: v["unit"] for name, v in res["metrics"].items()
        }
        for v in res["metrics"].values():
            assert isinstance(v["value"], (int, float))


def test_metric_names_are_plain(results):
    declared = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
    declared += [w["name"] for w in BENCH["workloads"]]
    assert len(set(declared)) == len(declared)
    names = declared + [n for res in results.values() for n in res["metrics"]]
    assert [n for n in names if not NAME.fullmatch(n)] == []


def test_phase_times_fit_in_the_traced_wall_time(results):
    m = {k: v["value"] for k, v in results[1]["metrics"].items()}
    phases = sum(m[f"boosting.phase.{p}_ms"] for p in PHASES) + m["boosting.loop_self_ms"]
    assert phases <= m["trace.wall_s"] * 1000.0
    assert m["trace.overhead_ratio"] > 0


def test_self_time_subtracts_other_layers_and_folds_the_same_layer():
    ms = 1_000_000
    spans = [  # id, parent, name, start ns, end ns, count
        (1, 0, "boosting.boost_step", 0, 100 * ms, None),
        (2, 1, "boosting.train_booster", 0, 90 * ms, None),
        (3, 2, "tensor.Rng.randint_array", 0, 10 * ms, None),
        (4, 2, "models.batch_loss", 10 * ms, 40 * ms, None),
        (5, 4, "models.forward", 12 * ms, 38 * ms, 64),
        (6, 5, "tensor.gelu", 20 * ms, 30 * ms, None),
        (7, 2, "tensor.Tensor.backward", 40 * ms, 80 * ms, None),
        (8, 2, "tensor.sgd_step", 80 * ms, 85 * ms, None),
        (9, 1, "models.loss_eval", 90 * ms, 98 * ms, None),
        (10, 9, "models.batch_loss", 91 * ms, 97 * ms, None),
        (11, 10, "models.forward", 91 * ms, 96 * ms, 256),
        (12, 1, "boosting.select_layers", 98 * ms, 99 * ms, None),
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans, passes=2).items()}
    assert m["boosting.phase.batch_draw_ms"] == 5.0
    assert m["boosting.phase.forward_ms"] == 15.0
    assert m["boosting.phase.backward_ms"] == 20.0
    assert m["boosting.phase.optimizer_ms"] == 2.5
    assert m["boosting.phase.merge_eval_ms"] == 4.0
    assert m["tensor.op.gelu.fw_ms"] == 5.0
    assert m["tensor.op.gelu.calls"] == 0.5
    assert m["models.loss_eval_ms"] == 4.0  # batch_loss and forward fold into loss_eval
    assert m["boosting.phase.adapter_init_ms"] == 0.5
    assert m["boosting.loop_self_ms"] == 3.0  # boost_step 100-90-8-1, train_booster 90-10-30-40-5
    assert m["boosting.steps"] == 0.5
    assert m["models.train_examples"] == 32 and m["models.eval_examples"] == 128
    assert m["models.eval_examples_share"] == 0.8


def test_tracer_restores_every_patched_name():
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer

    import xgblora.boosting as boosting
    import xgblora.tensor as tensor

    before = (boosting.batch_loss, tensor.Tensor.backward, tensor.gelu)
    with Tracer():
        assert boosting.batch_loss is not before[0]
        assert tensor.Tensor.backward is not before[1]
    assert (boosting.batch_loss, tensor.Tensor.backward, tensor.gelu) == before


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
