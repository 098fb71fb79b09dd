"""Check that no random-design operation fails on any plant of the pool.

Run from the root of a checkout::

    python3 perfbench/vet_pool.py

It designs every pool plant (``POOL_SIZE`` per stratum) with all four
designers, scores and checks each design exactly as ``random-design`` does,
prints every failure with its plant, and exits 1 if there is one. A run of
``random-design`` picks its plants from this pool, so a clean pool means no
seed attempts an operation that fails. Two worker processes; about seven
minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import multiprocessing
import sys

import harness

WORKERS = 2


def vet_stratum(k: int) -> list[tuple[int, list]]:
    """Failures per pool plant of stratum ``k``, for the plants that have any."""
    import workloads

    wl = workloads.RandomDesign(0, harness.OUT_DIR)
    failed = []
    for i in range(workloads.POOL_SIZE):
        plant = workloads.pool_plant(k, i)
        results, failures = {}, []
        for name in wl.DESIGNERS:
            try:
                out = wl._design(plant, name)
            except Exception as exc:
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            failures += [f"{name}: {f.kind}: {f.message}" for f in wl._check(plant, name, out)]
            results[f"0:{name}"] = out
        failures += [f"{f.kind}: {f.message}" for f in wl.round_check(results)]
        if failures:
            failed.append((i, failures))
    return failed


def main() -> int:
    harness.pin_blas_threads()
    harness.load_qobs()
    import workloads

    with multiprocessing.Pool(WORKERS) as pool:
        results = pool.map(vet_stratum, range(len(workloads.STRATA)))
        pool.close()
        pool.join()
    n_failed = 0
    for k, failed in enumerate(results):
        for i, failures in failed:
            n_failed += 1
            print(f"stratum {k} {workloads.STRATA[k]} plant {i}: {failures}")
    print(f"{n_failed} of {workloads.POOL_SIZE * len(workloads.STRATA)} pool plants fail")
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main())
