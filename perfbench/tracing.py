"""Outside-in tracing of the qobs layers.

A :class:`Tracer` replaces each traced public function, in every ``qobs``
module namespace that holds it, with a wrapper that records one span per call:
``[name, start, end, parent span index, operation id, failed]``. Callers
resolve these functions through their module globals at call time (for
example ``qobs.observers.solve_care`` or ``qobs.sweep.design_algorithm2``), so
nested calls are caught too. Leaving the context restores every global.
Spans stay in memory; :func:`layer_metrics` reduces them and
:meth:`Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import sys
from time import perf_counter

#: traced functions per ``qobs`` module; ``errors`` and ``__init__`` do no work
TRACED = {
    "systems": ("make_cavity_plant", "realize_from_hamiltonian"),
    "solvers": ("solve_care", "stable_subspace", "solve_lyapunov", "integrate_covariance"),
    "realizability": ("augment_noise", "skew_riccati_transform"),
    "observers": (
        "design_algorithm1",
        "design_algorithm2",
        "design_algorithm3",
        "design_classical",
        "evaluate_performance",
    ),
    "sweep": ("run_sweep", "emit_csv"),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

NAME, START, END, PARENT, OP, FAILED = range(6)

#: operation ids of spans outside the timed rounds
SETUP, WARM_UP = -1, -2

ALG2 = "observers.design_algorithm2"
CARE = "solvers.solve_care"
SCORE = "observers.evaluate_performance"
TRANSFORM = "realizability.skew_riccati_transform"


def qobs_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "qobs" or name.startswith("qobs.")]


class Tracer:
    """Context manager that wraps the traced functions and collects spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = SETUP
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        originals = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"qobs.{mod}")
            for fn_name in fns:
                fn = getattr(module, fn_name, None)
                if callable(fn):
                    originals[id(fn)] = (fn, self._wrap(f"{mod}.{fn_name}", fn))
        for module in qobs_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def write(self, path) -> None:
        """Dump the spans as CSV, times in microseconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_us", "end_us", "parent", "op_id", "failed"])
            for i, s in enumerate(self.spans):
                out.writerow(
                    [i, s[NAME], f"{(s[START] - t0) * 1e6:.3f}", f"{(s[END] - t0) * 1e6:.3f}",
                     s[PARENT], s[OP], int(s[FAILED])]
                )


def _under(spans: list, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list, plants: int) -> dict:
    """Per-function counts and times plus the derived ratios, as metric dicts.

    Self time is a span's duration minus the durations of its direct child
    spans, which lie inside it because the run is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    durations = {name: [] for name in TRACED_NAMES}
    failed = dict.fromkeys(TRACED_NAMES, 0)
    self_s = dict.fromkeys(TRACED_NAMES, 0.0)
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        durations[s[NAME]].append(d)
        failed[s[NAME]] += s[FAILED]
        self_s[s[NAME]] += d - child_time[i]

    metrics = {}
    for name in TRACED_NAMES:
        d = durations[name]
        metrics[f"{name}.calls"] = (len(d), "count")
        metrics[f"{name}.failed"] = (failed[name], "count")
        metrics[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")
        metrics[f"{name}.us_p50"] = (statistics.median(d) * 1e6 if d else 0.0, "us")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # the derived ratios describe the workload, so the warm-up's spans are left out
    work = [i for i, s in enumerate(spans) if s[OP] != WARM_UP]

    def count(name: str, where=lambda i: True) -> int:
        return sum(1 for i in work if spans[i][NAME] == name and where(i))

    def child_of_alg2(i: int) -> bool:
        parent = spans[i][PARENT]
        return parent >= 0 and spans[parent][NAME] == ALG2

    alg2_calls = count(ALG2)
    candidates = count(CARE, child_of_alg2)
    scored = count(SCORE, lambda i: child_of_alg2(i) and not spans[i][FAILED])
    plain_care = count(CARE, lambda i: not _under(spans, i, ALG2))
    transforms = count(TRANSFORM)
    transform_failures = count(TRANSFORM, lambda i: spans[i][FAILED])
    metrics[f"{ALG2}.candidates_per_call"] = (ratio(candidates, alg2_calls), "count/call")
    metrics[f"{ALG2}.skipped_per_call"] = (ratio(candidates - scored, alg2_calls), "count/call")
    metrics[f"{CARE}.calls_per_plant"] = (ratio(plain_care, plants), "count/plant")
    metrics[f"{TRANSFORM}.success_ratio"] = (ratio(transforms - transform_failures, transforms), "ratio")
    return metrics
