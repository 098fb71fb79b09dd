"""Self-test of the benchmark harness; exits 0 when every check holds.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that an injected untyped exception counts as exactly one failed
operation, that the tracing wrappers leave every ``qobs`` module global as it
was, and that the traced ``.calls``/``.failed`` counts repeat exactly across
two traced runs at one seed.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import harness


def injected_failure_counts_once(out_dir: Path) -> str | None:
    import workloads
    from qobs import observers

    original = observers.design_algorithm3
    calls = []

    def fails_once(plant):
        calls.append(plant)
        if len(calls) == 1:
            raise ValueError("injected")
        return original(plant)

    observers.design_algorithm3 = fails_once
    try:
        wl = workloads.RandomDesign(1, out_dir)
        stats = harness.run_rounds(wl, n_rounds=1)
    finally:
        observers.design_algorithm3 = original
    got = (stats.attempted, stats.failed, dict(stats.failures_by_type), stats.wrong_outputs)
    want = (4 * wl.plants, 1, {"untyped:ValueError": 1}, 0)
    return None if got == want else f"(attempted, failed, by type, wrong outputs) = {got}, expected {want}"


def tracer_restores_globals() -> str | None:
    import tracing

    def snapshot():
        return {(m.__name__, k): id(v) for m in tracing.qobs_modules() for k, v in vars(m).items()}

    before = snapshot()
    with tracing.Tracer():
        during = snapshot()
    after = snapshot()
    if during == before:
        return "the tracer replaced no global"
    changed = sorted(key for key in before.keys() | after.keys() if before.get(key) != after.get(key))
    return f"globals changed after tracing: {changed[:10]}" if changed else None


def traced_counts_repeat(out_dir: Path) -> str | None:
    import tracing
    import workloads

    def counts(make, n_rounds):
        with tracing.Tracer() as tracer:
            wl = harness.set_up(make, 7, out_dir, tracer)
            harness.run_rounds(wl, n_rounds=n_rounds, tracer=tracer)
            wl.close()
        metrics = tracing.layer_metrics(tracer.spans, wl.plants)
        return {k: v for k, (v, _) in metrics.items() if k.endswith((".calls", ".failed"))}

    for make, n_rounds in ((workloads.RandomDesign, 1), (workloads.CovarianceCrosscheck, 1)):
        first, second = counts(make, n_rounds), counts(make, n_rounds)
        if not any(first.values()):
            return f"{make.name}: no traced calls recorded"
        if first != second:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            return f"{make.name}: counts differ between runs: {diff}"
    return None


def main() -> int:
    harness.pin_blas_threads()
    harness.load_qobs()
    results = {}
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=Path(__file__).resolve().parent) as tmp:
        out_dir = Path(tmp)
        results["injected untyped exception counts as one failed operation"] = injected_failure_counts_once(out_dir)
        results["tracing leaves every qobs module global as it was"] = tracer_restores_globals()
        results["traced .calls/.failed counts repeat at one seed"] = traced_counts_repeat(out_dir)
    for name, problem in results.items():
        print(f"{'PASS' if problem is None else 'FAIL'}: {name}" + (f" -- {problem}" if problem else ""))
    return 0 if all(p is None for p in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
