"""qobs benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cavity-sweep --seed 1 --seconds 30 --trace 0

Workloads: ``cavity-sweep``, ``random-design``, ``covariance-crosscheck``.
With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced pass over the same rounds as an untraced one. Per-run reports, span
dumps and the sweep-CSV hash ledger go to ``perfbench/out/``. The program is
imported from ``src/`` of the same checkout; without it the run exits 2.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import harness

WORKLOAD_NAMES = ("cavity-sweep", "random-design", "covariance-crosscheck")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(args) -> list[float]:
    """Wall time from spawning a fresh process to the end of its workload setup."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def end_to_end(stats, setup_times) -> tuple[dict, dict]:
    tail, pct = harness.tail_latency(stats.latencies_ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((stats.attempted - stats.failed) / stats.busy_s, "1/s"),
        "op_ms_p50": (statistics.median(stats.latencies_ms), "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "op_ms_tail_percentile": pct,
        "latency_samples": len(stats.latencies_ms),
        "fail_frac": stats.failed / stats.attempted,
        "setup_s_samples": setup_times,
    }
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.pin_blas_threads()
    try:
        harness.load_qobs()
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    out_dir = harness.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    make = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        wl = harness.set_up(make, args.seed, out_dir)
        ready = perf_counter()
        wl.close()
        print(repr(ready))
        return 0

    notes: dict = {}
    if not args.trace:
        setup_times = measure_setup(args)
        wl = harness.set_up(make, args.seed, out_dir)
        try:
            stats = harness.run_rounds(wl, seconds=args.seconds)
        finally:
            wl.close()
        metrics, notes = end_to_end(stats, setup_times)
    else:
        wl = harness.set_up(make, args.seed, out_dir)
        try:
            untraced = harness.run_rounds(wl, seconds=args.seconds / 2.0)
        finally:
            wl.close()
        with tracing.Tracer() as tracer:
            wl = harness.set_up(make, args.seed, out_dir, tracer)
            try:
                traced = harness.run_rounds(wl, n_rounds=untraced.rounds, tracer=tracer)
            finally:
                wl.close()
        metrics = tracing.layer_metrics(tracer.spans, wl.plants)
        metrics["trace.overhead_frac"] = ((traced.busy_s - untraced.busy_s) / untraced.busy_s, "ratio")
        spans_path = out_dir / f"spans-{args.workload}.csv"
        tracer.write(spans_path)
        notes["spans"] = str(spans_path.relative_to(harness.ROOT))
        notes["spans_recorded"] = len(tracer.spans)
        stats = untraced.merged(traced)
    inputs = wl.summary()
    defects = wl.known_defects()  # after the summary, which it would count into

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": stats.wrong_outputs == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "rounds": stats.rounds,
        "busy_s": stats.busy_s,
        "busy_wall_s": stats.busy_wall_s,
        "failures_by_type": dict(stats.failures_by_type),
        "failure_messages": stats.failure_messages,
        "inputs": inputs,
        "known_defects": defects,
        "environment": harness.environment(),
        **notes,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report_path = out_dir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {stats.rounds}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  op_ms_tail is p{notes['op_ms_tail_percentile']:.2f} of {notes['latency_samples']} timed calls")
    print(f"  fail_frac {stats.failed}/{stats.attempted}  by type {dict(stats.failures_by_type)}")
    print(f"  output check: {'PASS' if report['correct'] else 'FAIL'}")
    for message in stats.failure_messages[:5]:
        print(f"    {message}")
    for name, state in defects.items():
        print(f"  known defect {name}: {state}")
    print(f"  inputs {json.dumps(report['inputs'], default=str)}")
    print(f"  environment {json.dumps(report['environment'])}")
    print(f"  report {report_path.relative_to(harness.ROOT)}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # no result line: report the harness error and fail
        traceback.print_exc()
        sys.exit(2)
