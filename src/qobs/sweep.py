"""Benchmark sweeps over thermal noise intensity for the cavity scenarios.

A sweep designs every requested observer at each ``k_n`` grid point of a
cavity plant and records the scalar performance summaries. Each designer
runs once over all the grid's plants as a stack (``DESIGNERS``), alg1, alg2
and alg3 from one shared ``rho = 0`` Kalman solve, and the observers are
scored in one stacked :func:`evaluate_performance` call per designer; the
rows are bit for bit those of designing each point alone. Output is a plain
CSV (plus optional two-column plot files per algorithm); repeated runs of the
same configuration produce byte-identical data files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, QobsError, on_successes
from .observers import (
    _design_alg1,
    _design_alg2,
    _design_alg3,
    _design_classical,
    _kalman_step,
    evaluate_performance,
)
from .systems import QuantumLinearSystem, make_cavity_plant

__all__ = [
    "SCENARIOS",
    "DESIGNERS",
    "ALGORITHMS",
    "CSV_HEADER",
    "ScenarioConfig",
    "SweepRow",
    "default_kn_grid",
    "scenario_config",
    "run_sweep",
    "emit_csv",
    "emit_plot_data",
]

#: mirror couplings (kappa1, kappa2) of the three named scenarios
SCENARIOS = {"s1": (0.1, 0.1), "s2": (0.5, 0.01), "s3": (0.8, 0.01)}

#: ``name -> designer(plants, filters)``: the named designer over a list of
#: same-shape plants, given their ``rho = 0`` Kalman filters, returning one
#: observer or typed error per plant (see :func:`_design_stack`). The lambdas
#: resolve the designers through this module's globals at call time, so a
#: wrapper installed there is the one that runs.
DESIGNERS = {
    "alg1": lambda plants, filters: _design_alg1(plants, filters),
    "alg2": lambda plants, filters: [_observer(out) for out in _design_alg2(plants, filters, None)],
    "alg3": lambda plants, filters: [_observer(out) for out in _design_alg3(plants, filters)],
    "classical": lambda plants, filters: _design_classical(plants),
}


def _observer(outcome):
    """The observer of a designer's ``(observer, ...)`` tuple, or its error."""
    return outcome if isinstance(outcome, QobsError) else outcome[0]


ALGORITHMS = tuple(DESIGNERS)

#: integer thermal intensities bracketing the known transformation-existence
#: discontinuities; always folded into the default grid
TRANSITION_KNS = (69.0, 70.0, 909.0, 910.0)


def default_kn_grid() -> tuple[float, ...]:
    """60 log-spaced thermal intensities in ``[0.01, 1e4]`` plus the transition-bracketing integers."""
    grid = np.logspace(np.log10(0.01), np.log10(1e4), 60)
    return tuple(sorted(set(float(k) for k in grid) | set(TRANSITION_KNS)))


@dataclass(frozen=True)
class ScenarioConfig:
    """One sweep: a cavity, a ``k_n`` grid, and the observers to design."""

    kappa1: float
    kappa2: float
    kn_grid: tuple[float, ...]
    algorithms: tuple[str, ...] = ALGORITHMS

    def __post_init__(self) -> None:
        if not (0 < self.kappa1 < np.inf and 0 < self.kappa2 < np.inf):
            raise DomainError(
                f"mirror couplings must be positive and finite, got {self.kappa1}, {self.kappa2}"
            )
        try:
            grid = tuple(float(k) for k in self.kn_grid)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"kn_grid values must be non-negative and finite numbers: {exc}") from None
        if not grid:
            raise DomainError("kn_grid must be non-empty")
        if not all(0 <= k < np.inf for k in grid):
            raise DomainError("kn_grid values must be non-negative and finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("kn_grid must be sorted ascending without duplicates")
        object.__setattr__(self, "kn_grid", grid)
        algs = tuple(self.algorithms)
        unknown = set(algs) - set(ALGORITHMS)
        if unknown:
            raise DomainError(f"unknown algorithms: {sorted(unknown)}")
        object.__setattr__(self, "algorithms", algs)


def scenario_config(name: str) -> ScenarioConfig:
    """Config for a named scenario ``s1``/``s2``/``s3``: default grid, every designer."""
    if name not in SCENARIOS:
        raise DomainError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    return ScenarioConfig(*SCENARIOS[name], kn_grid=default_kn_grid())


@dataclass
class SweepRow:
    """Scalar results of all requested designers at one ``k_n``.

    Fields stay ``None`` for algorithms that were not requested; designer
    failures land in ``errors`` keyed by algorithm name and never abort the
    sweep.
    """

    k_n: float
    alg1_trace: float | None = None
    alg1_frob: float | None = None
    alg1_nv2: int | None = None
    alg2_trace: float | None = None
    alg2_frob: float | None = None
    alg2_rho: float | None = None
    alg3_trace: float | None = None
    alg3_frob: float | None = None
    alg3_nv2: int | None = None
    alg3_transformed: bool | None = None
    alg3_failure_reason: str | None = None
    classical_trace: float | None = None
    classical_frob: float | None = None
    errors: dict = field(default_factory=dict)


#: the CSV columns, in ``SweepRow`` field order
_CSV_COLUMNS = tuple(
    f.name for f in fields(SweepRow) if f.name not in ("errors", "alg3_failure_reason")
)
CSV_HEADER = ",".join(_CSV_COLUMNS)

#: how the ``<algorithm>_<key>`` fields of a row are read from an observer
#: and its performance report
_ROW_VALUES = {
    "trace": lambda obs, rep: rep.trace,
    "frob": lambda obs, rep: rep.frobenius,
    "nv2": lambda obs, rep: obs.n_v2,
    "rho": lambda obs, rep: obs.provenance.rho,
    "transformed": lambda obs, rep: obs.provenance.transformed,
    "failure_reason": lambda obs, rep: obs.provenance.fallback_reason,
}


def _design_stack(algorithms: Sequence[str], plants: Sequence[QuantumLinearSystem]) -> dict[str, list]:
    """Each requested designer, in ``DESIGNERS`` order, over a list of same-shape plants.

    Maps each name to one observer or typed error per plant. alg1, alg2
    and alg3 share one stacked ``rho = 0`` Kalman solve, so each plant's
    filter is solved once.
    """
    filters = _kalman_step(plants, 0.0) if set(algorithms) - {"classical"} else None
    return {alg: DESIGNERS[alg](plants, filters) for alg in DESIGNERS if alg in algorithms}


def run_sweep(config: ScenarioConfig) -> list[SweepRow]:
    """Design and score every requested observer at each grid point.

    Each designer runs once over all the grid's plants, and its observers
    are scored in one :func:`evaluate_performance` call; a designer failure
    at a point is recorded in that row's ``errors``.
    """
    plants = [make_cavity_plant(config.kappa1, config.kappa2, k_n) for k_n in config.kn_grid]
    rows = [SweepRow(k_n=k_n) for k_n in config.kn_grid]
    for alg, observers in _design_stack(config.algorithms, plants).items():
        reports = on_successes(
            observers, lambda done: evaluate_performance([plants[k] for k in done], [observers[k] for k in done])
        )
        for row, obs, rep in zip(rows, observers, reports):
            if isinstance(rep, QobsError):
                row.errors[alg] = f"{rep.reason_code}: {rep}"
                continue
            for f in fields(SweepRow):
                if f.name.startswith(f"{alg}_"):
                    setattr(row, f.name, _ROW_VALUES[f.name[len(alg) + 1 :]](obs, rep))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_csv(rows: Sequence[SweepRow], destination) -> None:
    """Write sweep rows as CSV with shortest round-trip decimals.

    Refuses to create a file for an empty row list; IO failures are re-raised
    with the destination path attached.
    """
    if not rows:
        raise DomainError("no rows to write; refusing to create an empty file")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, name)) for name in _CSV_COLUMNS))
    try:
        Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {destination}: {exc}") from exc


def emit_plot_data(rows: Sequence[SweepRow], directory) -> list[Path]:
    """Two-column ``k_n  trace`` files, one per algorithm with data."""
    if not rows:
        raise DomainError("no rows to write")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for alg in ALGORITHMS:
        pairs = [
            (row.k_n, getattr(row, f"{alg}_trace"))
            for row in rows
            if getattr(row, f"{alg}_trace") is not None
        ]
        if not pairs:
            continue
        path = directory / f"{alg}.dat"
        body = "\n".join(f"{repr(k)} {repr(v)}" for k, v in pairs)
        try:
            path.write_text(body + "\n", encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot write plot data to {path}: {exc}") from exc
        written.append(path)
    return written
