"""run_grid: job order, errors, when it stays serial, one BLAS thread per
job with the caller's own count restored, and report bytes equal to a
serial run's."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

import xgblora
from xgblora import cli, grid, probes
from xgblora.models import build_transformer
from xgblora.tasks import gen_sequence_dataset
from xgblora.tensor import Rng

POOLED = len(os.sched_getaffinity(0)) > 1 and grid.openblas("set_num_threads") is not None
needs_pool = pytest.mark.skipif(not POOLED, reason="needs two CPUs and an OpenBLAS whose thread count can be set")


def square_and_pid(x):
    time.sleep(0.002 * (x % 3))  # so that workers finish jobs out of order
    return x * x, os.getpid()


def serial(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def test_results_in_job_order():
    got = grid.run_grid(square_and_pid, range(7))
    assert [sq for sq, _ in got] == [x * x for x in range(7)]
    if POOLED:
        assert len({pid for _, pid in got}) <= len(os.sched_getaffinity(0))
    assert grid.run_grid(square_and_pid, []) == []


def test_raising_job_is_raised_again_and_no_worker_is_left():
    """Pooled, every job a worker takes raises and the caller's jobs are
    slow, so a worker is sure to take one; serial, job 3 raises."""
    caller = os.getpid()

    def job(x):
        if (os.getpid() != caller) if POOLED else x == 3:
            raise FloatingPointError(f"job {x} diverged")
        time.sleep(0.01)
        return x

    with pytest.raises(FloatingPointError, match=r"^job \d+ diverged$") as raised:
        grid.run_grid(job, range(50))
    if POOLED:
        assert "in a grid worker" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


@needs_pool
def test_job_raising_in_a_worker_stops_the_caller():
    """A worker's first job raises; the caller, whose jobs would take it 5 s
    alone, stops after the job it is on instead of finishing the grid."""
    caller = os.getpid()

    def job(x):
        if os.getpid() != caller:
            raise FloatingPointError("diverged in a worker")
        time.sleep(0.1)
        return x

    start = time.perf_counter()
    with pytest.raises(FloatingPointError, match="^diverged in a worker$") as raised:
        grid.run_grid(job, range(50))
    assert time.perf_counter() - start < 2.0
    assert "in a grid worker" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []


def test_job_raising_in_the_caller_stops_every_worker():
    """The caller takes jobs too (a worker alone would need 0.5 s for all
    of them), and its raising job still stops every worker."""
    caller = os.getpid()

    def job(x):
        if os.getpid() == caller:
            raise FloatingPointError("diverged in the caller")
        time.sleep(0.01)
        return x

    with pytest.raises(FloatingPointError, match="^diverged in the caller$") as raised:
        grid.run_grid(job, range(50))
    assert raised.value.__cause__ is None
    assert multiprocessing.active_children() == []


def test_serial_on_one_cpu(monkeypatch):
    serial(monkeypatch)
    assert {pid for _, pid in grid.run_grid(square_and_pid, range(4))} == {os.getpid()}


def test_serial_when_nested():
    def outer(x):
        return os.getpid(), [pid for _, pid in grid.run_grid(square_and_pid, range(3))]

    for pid, inner in grid.run_grid(outer, range(3)):
        assert inner == [pid] * 3


def test_serial_while_another_thread_is_alive():
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        got = grid.run_grid(square_and_pid, range(4))
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert {pid for _, pid in got} == {os.getpid()}


@needs_pool
def test_worker_runs_one_blas_thread_and_the_parent_keeps_its_own():
    """Every job runs on one BLAS thread, the caller's share included, and
    the caller's own count is back once the call returns or raises."""
    get, set_threads = grid.openblas("get_num_threads"), grid.openblas("set_num_threads")
    before = get()
    set_threads(2)
    try:
        got = grid.run_grid(lambda _: (get(), os.getpid()), range(4))
        assert get() == 2

        def raising(x):
            if x == 1:
                raise FloatingPointError("diverged")
            return x

        with pytest.raises(FloatingPointError):
            grid.run_grid(raising, range(4))
        assert get() == 2
    finally:
        set_threads(before)
    assert [n for n, _ in got] == [1] * 4


def report_bytes(out_dir) -> dict:
    """lemma1, lemma2 and a 2-arm kappa sweep, written to out_dir: {file name: bytes}."""
    for which, extra in (("lemma1", ["--seeds", "1"]), ("lemma2", ["--runs", "9"])):
        assert cli.main(["probe", which, "--seed", "3", "--out-dir", str(out_dir), *extra]) in (0, 3)
    train = gen_sequence_dataset("parity", seq_len=4, n=32, seed=0)

    def builder():
        return build_transformer(vocab=2, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=Rng(1), max_seq=4)

    rep = probes.kappa_sweep(train, builder, total_steps=8, kappa_grid=(2, 8), seeds=(0, 1),
                             eta_grid=(0.5, 1.0), batch_size=8)
    rep.write_csv(out_dir / "kappa_sweep.csv")
    rep.write_json(out_dir / "kappa_sweep.json")
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@needs_pool
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_pooled_reports_equal_serial_bytes(tmp_path, monkeypatch, blas_threads):
    get, set_threads = grid.openblas("get_num_threads"), grid.openblas("set_num_threads")
    before = get()
    set_threads(blas_threads)
    try:
        (tmp_path / "pooled").mkdir()
        pooled = report_bytes(tmp_path / "pooled")
        with monkeypatch.context() as m:
            serial(m)
            (tmp_path / "serial").mkdir()
            one_worker = report_bytes(tmp_path / "serial")
    finally:
        set_threads(before)
    assert len(pooled) == 6
    assert pooled == one_worker


def test_importing_the_package_does_not_import_multiprocessing():
    code = "import sys, xgblora.cli, xgblora.probes; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xgblora.__file__))))
    assert done.stdout.strip() == "False"
