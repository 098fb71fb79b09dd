"""Running a workload's rounds and reducing what happened to statistics."""

from __future__ import annotations

import os
import platform
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KEPT_FAILURE_MESSAGES = 20


def pin_blas_threads() -> None:
    """One BLAS thread; takes effect only before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_qobs() -> None:
    """Import ``qobs`` from the checkout's ``src``, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qobs

    origin = Path(qobs.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"qobs was imported from {origin}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


@dataclass
class PassStats:
    """What one pass over a workload attempted, how long it took and what failed."""

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # processor time of the timed calls
    busy_wall_s: float = 0.0
    rounds: int = 0
    latencies_ms: list = field(default_factory=list)
    failures_by_type: Counter = field(default_factory=Counter)
    failure_messages: list = field(default_factory=list)
    wrong_outputs: int = 0

    def add_failures(self, failures) -> None:
        for f in failures:
            self.failed += 1
            self.failures_by_type[f.kind] += 1
            self.wrong_outputs += f.wrong_output
            if len(self.failure_messages) < KEPT_FAILURE_MESSAGES:
                self.failure_messages.append(f"{f.kind}: {f.message}")

    def merged(self, other: "PassStats") -> "PassStats":
        return PassStats(
            attempted=self.attempted + other.attempted,
            failed=self.failed + other.failed,
            busy_s=self.busy_s + other.busy_s,
            busy_wall_s=self.busy_wall_s + other.busy_wall_s,
            rounds=self.rounds + other.rounds,
            latencies_ms=self.latencies_ms + other.latencies_ms,
            failures_by_type=self.failures_by_type + other.failures_by_type,
            failure_messages=(self.failure_messages + other.failure_messages)[:KEPT_FAILURE_MESSAGES],
            wrong_outputs=self.wrong_outputs + other.wrong_outputs,
        )


def set_up(make, seed: int, out_dir: Path, tracer=None):
    """Build a workload's inputs, then warm up: all that precedes the first timed call."""
    from workloads import warm_up

    workload = make(seed, out_dir)
    if tracer is not None:
        tracer.op_id = tracing.WARM_UP
    warm_up(out_dir)
    return workload


def run_rounds(workload, *, seconds: float | None = None, n_rounds: int | None = None, tracer=None) -> PassStats:
    """Run whole rounds of ``workload`` as one closed-loop client.

    With ``n_rounds`` exactly that many rounds run. Otherwise one round runs,
    and each further round only if a mean round would still end within
    ``seconds``; a whole round is the unit, so runs differ in how many rounds
    fit, not in what a round holds. Each unit's call is timed alone, in
    processor time of this single-threaded process, so that time the host gives
    to other tenants does not count; wall time is kept alongside. Output checks
    run outside the timing. An exception from a unit fails all of its
    operations.
    """
    from workloads import exception_failure

    stats = PassStats()
    rounds = workload.rounds()
    start = perf_counter()
    while True:
        if n_rounds is not None:
            if stats.rounds >= n_rounds:
                break
        elif stats.rounds:
            elapsed = perf_counter() - start
            if elapsed + elapsed / stats.rounds > seconds:
                break
        units = next(rounds)
        outputs = {}
        for unit in units:
            if tracer is not None:
                tracer.op_id = stats.attempted
            failure = None
            t0, c0 = perf_counter(), process_time()
            try:
                out = unit.run()
            except Exception as exc:  # every failure is counted, none aborts the run
                failure = exception_failure(exc)
            cpu = process_time() - c0
            stats.busy_wall_s += perf_counter() - t0
            stats.busy_s += cpu
            stats.attempted += unit.size
            if failure is not None:
                stats.add_failures([failure] * unit.size)
                continue
            stats.latencies_ms.append(cpu * 1e3 / unit.size)
            stats.add_failures(unit.check(out))
            outputs[unit.label] = out
        stats.add_failures(workload.round_check(outputs))
        stats.rounds += 1
    return stats


def tail_latency(latencies_ms: list) -> tuple[float, float]:
    """The highest latency with at least ten samples above it, and its percentile.

    Below 21 samples that latency would not even reach the median, so the
    maximum is returned instead, labelled as the 100th percentile.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n
