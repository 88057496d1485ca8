"""Span tracing of the xgblora layers from outside the package.

`Tracer` wraps the public functions of every xgblora module (plus a few
methods that carry a phase of the boosting step) and records one span per
call: id, parent id, name, start, end and an optional count. Modules import
each other's functions by name, so a function is replaced in every module
namespace that holds it, not only where it is defined. Spans stay in memory
until `write` puts them in a file; `layer_metrics` turns them into the
per-layer metrics that BENCHMARK.json declares.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

MODULES = (
    "tensor", "models", "lora", "boosting", "lowrank", "probes",
    "tasks", "checkpoint", "reporting", "config", "cli",
)

# methods whose calls form a phase of the boosting step or a layer metric
METHODS = (
    ("tensor", "Tensor", "backward"),
    ("tensor", "Rng", "randint_array"),
    ("models", "Dataset", "batch"),
    ("tasks", "TeacherTask", "heldout_error"),
    ("reporting", "MetricsWriter", "write_iteration"),
)

# the 15 module-level tape ops (tmean is sum + scale and has no node of its own)
TAPE_OPS = (
    "matmul", "transpose", "add", "sub", "mul", "scale", "relu", "gelu",
    "softmax", "layer_norm", "embedding", "reshape", "tsum", "mse",
    "cross_entropy_logits",
)

LOOP_SPANS = ("boosting.train_booster", "boosting.boost_step")

# phase of a boosting step -> spans that make it up when the loop calls them
PHASES = {
    "batch_draw": ("tensor.Rng.randint_array", "models.Dataset.batch"),
    "forward": ("models.batch_loss",),
    "backward": ("tensor.Tensor.backward",),
    "grad_stats": ("tensor.frobenius_norm",),
    "optimizer": ("tensor.sgd_step",),
    "adapter_init": ("boosting.select_layers", "lora.init_adapter_set"),
    "merge": ("lora.merge_adapters",),
    "merge_eval": ("models.loss_eval",),
}
PHASE_OF = {span: phase for phase, spans in PHASES.items() for span in spans}

# spans that keep their own self time even when called from their own layer
OWN_ROOTS = {
    "models.loss_eval", "models.accuracy", "cli.build_task",
    "lowrank.svd_topr", "lowrank.solve", "lowrank.nnls",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "tasks.gen_sequence_dataset", "tasks.gen_teacher_dataset", "tasks.TeacherTask.heldout_error",
    "probes.gradient_approx_probe", "probes.run_booster_corpus",
    "probes.update_norm_probe", "probes.lipschitz_probe",
    "reporting.MetricsWriter.write_iteration", "reporting.emit_report",
}

# name -> (args, result) -> count stored with the span
COUNTERS = {
    "models.forward": lambda args, result: len(result.data),
    "checkpoint.save_checkpoint": lambda args, result: os.path.getsize(args[0]),
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Installs span-recording wrappers while active (a context manager)."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start ns, end ns, count)
        self._stack = [0]
        self._next_id = 1
        self._patches = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), None))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end, count(args, result) if count else None))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def __enter__(self):
        mods = {m: importlib.import_module(f"xgblora.{m}") for m in MODULES}
        pkg = importlib.import_module("xgblora")
        wrapped = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for short, cls, meth in METHODS:
            klass = getattr(mods[short], cls)
            fn = vars(klass)[meth]
            self._patches.append((klass, meth, fn))
            setattr(klass, meth, self._wrap(f"{short}.{cls}.{meth}", fn))
        for ns in (*mods.values(), pkg):
            for attr, value in list(vars(ns).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def write(self, path, run_id: str):
        """One tab-separated line per span: run id, id, parent, name, start, end, count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tid\tparent\tname\tstart_ns\tend_ns\tcount\n")
            for sid, parent, name, start, end, count in sorted(self.spans):
                fh.write(f"{run_id}\t{sid}\t{parent}\t{name}\t{start}\t{end}\t{'' if count is None else count}\n")


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics from a span list, as (value, unit) per name.

    Times are milliseconds per pass of the workload. A phase is the whole
    duration of a call the boosting loop makes directly. Any other `*_ms` is
    layer self time: a span's duration minus its child spans from other
    layers. Calls nested within one layer fold into the outermost one,
    except for the OWN_ROOTS spans, which keep their own.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for sid, parent, name, start, end, _ in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    root = {}  # span id -> id of the span its self time is booked to
    self_ns, calls, counts = {}, {}, {}
    phase_ns = dict.fromkeys(PHASES, 0)
    phase_calls = dict.fromkeys(PHASES, 0)
    train_examples = eval_examples = 0
    for sid, parent, name, start, end, count in sorted(spans):
        up = by_id.get(parent)
        parent_name = up[2] if up is not None else None
        is_phase = parent_name in LOOP_SPANS and name in PHASE_OF
        if up is not None and _layer(parent_name) == _layer(name) and not is_phase and name not in OWN_ROOTS:
            root[sid] = root[parent]
        else:
            root[sid] = sid
        owner = by_id[root[sid]][2]
        self_ns[owner] = self_ns.get(owner, 0) + (end - start) - child_ns.get(sid, 0)
        calls[name] = calls.get(name, 0) + 1
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        if is_phase:
            phase_ns[PHASE_OF[name]] += end - start
            phase_calls[PHASE_OF[name]] += 1
        if name == "models.forward":
            entry = by_id.get(by_id[root[sid]][1])
            if entry is not None and entry[2] == "boosting.train_booster":
                train_examples += count
            else:
                eval_examples += count

    def ms(ns):
        return ns / 1e6 / passes

    def per_pass(n):
        return n / passes

    out = {}
    for op in TAPE_OPS:
        out[f"tensor.op.{op}.fw_ms"] = (ms(self_ns.get(f"tensor.{op}", 0)), "ms")
        out[f"tensor.op.{op}.calls"] = (per_pass(calls.get(f"tensor.{op}", 0)), "count")
    out["tensor.backward_ms"] = (ms(self_ns.get("tensor.Tensor.backward", 0)), "ms")
    out["tensor.backward.calls"] = (per_pass(calls.get("tensor.Tensor.backward", 0)), "count")
    for phase, ns in phase_ns.items():
        out[f"boosting.phase.{phase}_ms"] = (ms(ns), "ms")
    loop_ns = sum(self_ns.get(n, 0) for n in ("boosting.xgblora_fit", *LOOP_SPANS))
    out["boosting.loop_self_ms"] = (ms(loop_ns), "ms")
    out["boosting.steps"] = (per_pass(phase_calls["optimizer"]), "count")
    out["boosting.boosters"] = (per_pass(phase_calls["merge"]), "count")
    out["models.loss_eval_ms"] = (ms(self_ns.get("models.loss_eval", 0)), "ms")
    out["models.accuracy_ms"] = (ms(self_ns.get("models.accuracy", 0)), "ms")
    out["models.train_examples"] = (per_pass(train_examples), "count")
    out["models.eval_examples"] = (per_pass(eval_examples), "count")
    forwarded = train_examples + eval_examples
    out["models.eval_examples_share"] = (eval_examples / forwarded if forwarded else 0.0, "ratio")
    out["lora.init_adapter_set.calls"] = (per_pass(calls.get("lora.init_adapter_set", 0)), "count")
    out["lora.merge_adapters.calls"] = (per_pass(calls.get("lora.merge_adapters", 0)), "count")
    out["lowrank.svd_topr_ms"] = (ms(self_ns.get("lowrank.svd_topr", 0)), "ms")
    out["lowrank.svd_topr.calls"] = (per_pass(calls.get("lowrank.svd_topr", 0)), "count")
    out["lowrank.solve_ms"] = (ms(self_ns.get("lowrank.solve", 0)), "ms")
    out["lowrank.nnls_ms"] = (ms(self_ns.get("lowrank.nnls", 0)), "ms")
    for probe in ("gradient_approx_probe", "run_booster_corpus", "update_norm_probe", "lipschitz_probe"):
        out[f"probes.{probe}_ms"] = (ms(self_ns.get(f"probes.{probe}", 0)), "ms")
    out["tasks.gen_sequence_dataset_ms"] = (ms(self_ns.get("tasks.gen_sequence_dataset", 0)), "ms")
    out["tasks.gen_teacher_dataset_ms"] = (ms(self_ns.get("tasks.gen_teacher_dataset", 0)), "ms")
    out["tasks.heldout_error_ms"] = (ms(self_ns.get("tasks.TeacherTask.heldout_error", 0)), "ms")
    out["checkpoint.save_ms"] = (ms(self_ns.get("checkpoint.save_checkpoint", 0)), "ms")
    out["checkpoint.save.calls"] = (per_pass(calls.get("checkpoint.save_checkpoint", 0)), "count")
    out["checkpoint.bytes"] = (per_pass(counts.get("checkpoint.save_checkpoint", 0)), "bytes")
    out["checkpoint.load_ms"] = (ms(self_ns.get("checkpoint.load_checkpoint", 0)), "ms")
    out["reporting.write_iteration_ms"] = (ms(self_ns.get("reporting.MetricsWriter.write_iteration", 0)), "ms")
    out["reporting.emit_report_ms"] = (ms(self_ns.get("reporting.emit_report", 0)), "ms")
    out["cli.main.calls"] = (per_pass(calls.get("cli.main", 0)), "count")
    out["cli.build_task_ms"] = (ms(self_ns.get("cli.build_task", 0)), "ms")
    out["cli.self_ms"] = (ms(self_ns.get("cli.main", 0)), "ms")
    return out
