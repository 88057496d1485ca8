"""One workload in one fresh process; run.py starts it and reads the JSON
object it prints as its last line.

Modes:
  setup     build the inputs, report when set-up ended, exit
  untraced  set up, then run passes until --seconds have passed
  traced    set up, then run exactly --passes passes under the span tracer
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import sys
import time

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


def blas_info() -> dict:
    """numpy's BLAS build and the thread count OpenBLAS reports at run time."""
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        info["blas"] = None
    info["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                break
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", required=True, choices=("setup", "untraced", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="traced mode: file for the span list")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    st = wl.setup(args.seed, args.size, args.workdir)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = Tracer() if args.mode == "traced" else None
    passes, walls, cpu = [], [], 0.0
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        while True:
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                ps = wl.run_pass(st, len(passes))
            except Exception as exc:  # a raising pass is one failed operation; stop the loop
                result["raised"] = f"pass {len(passes)}: {type(exc).__name__}: {exc}"
                break
            walls.append(time.perf_counter() - start)
            cpu += time.process_time() - cpu0
            passes.append(ps)
            if len(passes) == 1:
                # high-water mark of one pass, so it does not depend on the pass count
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.mode == "traced":
                if len(passes) >= args.passes:
                    break
            elif time.perf_counter() - t0 >= args.seconds:
                break

    # everything below is outside the timed section
    checked = wl.check(st, passes) if passes else []
    fails = [[] for _ in passes]
    for i, ps in enumerate(passes):
        fails[i].extend(ps.failures)
    for i, msg in checked:
        fails[i].append(msg)
    result.update(
        walls=walls,
        steps=[ps.steps for ps in passes],
        ops=[ps.ops for ps in passes],
        failures=fails,
        digests=[None if fails[i] else wl.digest(st, ps) for i, ps in enumerate(passes)],
        cpu_s=cpu,
        notes=st.get("notes", []),
        meta=dict(python=sys.version.split()[0], **blas_info()),
    )
    if tracer is not None and passes:
        layers = layer_metrics(tracer.spans, len(passes))
        layers.update(wl.extra_metrics(st, passes))
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans, run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
