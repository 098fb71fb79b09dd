"""Coherent observer design and performance evaluation.

Every designer is the steady-state Kalman filter of the plant, with the
quantum inputs treated as classical Wiener processes of intensity ``S_w`` and
the measurement-noise block ``V2`` inflated to ``V2 + rho^2 I``. The
designers differ only in ``rho`` and in how the filter is then made
physically realizable:

* :func:`design_algorithm1` (``rho = 0``) adds the minimal extra vacuum
  channels.
* :func:`design_algorithm2` searches ``rho`` for the augmented filter that
  performs best against the true plant. The grids of all the plants it
  designs are scored in one batched pass (:func:`_grid_traces`); the
  candidates that decide the answer go through the per-candidate reference
  path, design and :func:`evaluate_performance`, so the grid only steers
  the search.
* :func:`design_algorithm3` (``rho = 0``) re-coordinates the algorithm-1
  filter so that no ``B_v2`` channels are needed at all, and augments that
  filter as algorithm 1 does only when the transformation does not exist.
* :func:`design_classical` (``rho = 1``) is the measurement-based baseline:
  heterodyne detection adds one unit of vacuum noise to the output, and the
  filter runs on that record.

Each designer runs on a list of same-shape plants at once
(:func:`_design_alg1`, :func:`_design_alg2`, :func:`_design_alg3`,
:func:`_design_classical`), given their ``rho = 0`` filters, so one stacked
solve serves alg1, alg2 and alg3; it returns one outcome per plant, the
design or its typed error. The public designers run the stack of one. The
reference path is stacked too: :func:`_kalman_step` is one
:func:`solve_care` call, :func:`_augmented_designs` one
:func:`augment_noise` call and :func:`evaluate_performance` one Lyapunov
stack, and alg2 takes its steps on all plants in lockstep, one reference
call per step over the plants that are still in it. alg3 transforms all
its filters in one stacked :func:`skew_riccati_transform` call.

Performance is the steady-state symmetrized error covariance, obtained from
the Lyapunov equation of the estimation-error dynamics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, QobsError, on_successes, single_outcome
from .realizability import TransformResult, _v2_intensity, augment_noise, skew_riccati_transform
from .solvers import KRON_CHUNK_BYTES, KalmanDesign, _filter_cares, _not_hurwitz, solve_care
from .solvers import _solve_lyapunov_stack
from .systems import GRID_RTOL, QuantumLinearSystem, field_gain

logger = logging.getLogger(__name__)

__all__ = [
    "Provenance",
    "CoherentObserver",
    "ClassicalObserver",
    "PerformanceReport",
    "design_algorithm1",
    "design_algorithm2",
    "design_algorithm3",
    "design_classical",
    "error_system",
    "evaluate_performance",
    "default_rho_grid",
]


@dataclass(frozen=True)
class Provenance:
    """Which designer produced an observer, plus its designer-specific knob.

    ``fallback_reason`` is set by algorithm 3 when the state transformation
    does not exist: the reason code of the typed error that made it revert to
    the algorithm-1 observer. It stays ``None`` for a transformed design.
    """

    algorithm: str  # "alg1" | "alg2" | "alg3"
    rho: float | None = None  # alg2 only
    transformed: bool | None = None  # alg3 only
    fallback_reason: str | None = None  # alg3 only


@dataclass(frozen=True)
class CoherentObserver:
    """A physically realizable observer ``d xi = A_hat xi dt + B_hat dy + ...``.

    ``B_v1``/``B_v2`` are the extra vacuum gains in the coordinates where the
    commutation-preservation identity holds (the transformed ones for a
    successful algorithm-3 design, whose ``transform`` is then attached).
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    B_v1: np.ndarray
    B_v2: np.ndarray
    provenance: Provenance
    design: KalmanDesign
    transform: TransformResult | None = None

    @property
    def n_v2(self) -> int:
        return self.B_v2.shape[1]

    @property
    def noise_gain_v1(self) -> np.ndarray:
        """The ``v1`` gain entering the error dynamics in plant coordinates.

        ``B_v1`` itself, or ``T^-1 B_v1`` when a transformation is attached.
        """
        if self.transform is None:
            return self.B_v1
        return np.linalg.solve(self.transform.T, self.B_v1)


@dataclass(frozen=True)
class ClassicalObserver:
    """Heterodyne measurement followed by a Kalman filter."""

    K: np.ndarray
    A_hat: np.ndarray
    design: KalmanDesign


@dataclass(frozen=True)
class PerformanceReport:
    """Steady-state symmetrized error covariance and scalar summaries."""

    J_bar: np.ndarray
    trace: float
    frobenius: float
    hurwitz_margin: float


def _plant_matrices(plants, repeats: int = 1) -> tuple[np.ndarray, ...]:
    """``(A, B, C, D, S_w)`` of a list of same-shape plants, each plant repeated in ``repeats`` consecutive slices.

    The matrices of the one plant, unstacked, if every entry is that plant.
    """
    if all(plant is plants[0] for plant in plants):
        return plants[0].A, plants[0].B, plants[0].C, plants[0].D, plants[0].ito.S
    stacks = (np.stack(Ms) for Ms in zip(*((p.A, p.B, p.C, p.D, p.ito.S) for p in plants)))
    return tuple(stacks) if repeats == 1 else tuple(np.repeat(M, repeats, axis=0) for M in stacks)


def _care_inputs(plants, rho, repeats: int = 1) -> tuple[np.ndarray, ...]:
    """``(A, C, V1, V12, V2)`` of the Kalman filters against measurement noise ``V2 + rho^2 I``.

    For one plant and one ``rho`` the matrices of its filter; for one plant
    and an array of ``rho`` the same, with ``V2`` their stack. For a list of
    same-shape plants, each in ``repeats`` consecutive slices (see
    :func:`_plant_matrices`) and ``rho`` one number or one per slice, ``V2``
    is a stack with one slice per slice, and so are the others unless every
    entry is the same plant.
    """
    if isinstance(plants, QuantumLinearSystem):
        A, B, C, D, S_w = plants.A, plants.B, plants.C, plants.D, plants.ito.S
    else:
        rho = np.full(len(plants) * repeats, rho)
        A, B, C, D, S_w = _plant_matrices(plants, repeats)
    B_t, D_t = B.swapaxes(-1, -2), D.swapaxes(-1, -2)
    V2 = D @ S_w @ D_t + np.multiply.outer(rho * rho, np.eye(C.shape[-2]))
    return A, C, B @ S_w @ B_t, B @ S_w @ D_t, V2


def _kalman_step(plants, rho) -> KalmanDesign | list:
    """The plants' Kalman filters designed against measurement noise ``V2 + rho^2 I``, in one :func:`solve_care` call.

    For one plant its :class:`KalmanDesign`; for a list of plants (``rho``
    one number, or one per plant) the list of outcomes of
    :func:`solve_care`.
    """
    return solve_care(*_care_inputs(plants, rho))


def _augmented_designs(plants: Sequence[QuantumLinearSystem], filters: list, provenances: Sequence[Provenance]) -> list:
    """Each filter made quantum by minimal vacuum-noise augmentation, in one :func:`augment_noise` call.

    ``filters`` holds one :func:`_kalman_step` outcome per plant; an error
    in place of a filter stays in place of its observer.
    """

    def augment(done: list[int]) -> list[CoherentObserver]:
        C_hat = np.eye(plants[0].n_x)
        kds = [filters[k] for k in done]
        augs = augment_noise(np.stack([kd.A_hat for kd in kds]), np.stack([kd.K for kd in kds]), C_hat, plants[0].theta)
        return [
            CoherentObserver(
                A_hat=kd.A_hat, B_hat=kd.K, C_hat=C_hat, B_v1=aug.B_v1, B_v2=aug.B_v2,
                provenance=provenances[k], design=kd,
            )
            for k, kd, aug in zip(done, kds, augs)
        ]

    return on_successes(filters, augment)


def _design_alg1(plants: Sequence[QuantumLinearSystem], filters: list) -> list:
    """:func:`design_algorithm1` over same-shape plants, from their ``rho = 0`` filters: one outcome per plant."""
    return _augmented_designs(plants, filters, [Provenance("alg1")] * len(plants))


def design_algorithm1(plant: QuantumLinearSystem) -> CoherentObserver:
    """Kalman filter made quantum by minimal vacuum-noise augmentation."""
    return single_outcome(_design_alg1([plant], _kalman_step([plant], 0.0)))


def default_rho_grid() -> np.ndarray:
    """Default measurement-noise inflation candidates: 0 plus a log grid."""
    return np.concatenate([[0.0], np.logspace(-3.0, 2.0, 61)])


def _grid_traces(plants: Sequence[QuantumLinearSystem], rhos: Sequence[float]) -> np.ndarray:
    """Trace of the alg2 design of each plant at each ``rho`` (all positive), scored in one batched pass.

    Returns one row per plant and one column per ``rho``. Scores what
    :func:`evaluate_performance` would give each candidate's augmented
    filter, from its defect ``S_tilde`` alone: the error covariance reads
    ``B_v2`` only through ``B_v2 B_v2^T`` (:func:`_v2_intensity`), so the
    noise intensity of :func:`error_system` is formed block by block. All
    ``(plant, rho)`` slices go through one pass of :func:`_filter_cares`,
    the body of :func:`solve_care`, so each filter is the reference path's
    to the bit; it must be Hurwitz as :func:`_not_hurwitz` decides, which
    is stricter than :func:`solve_care`'s rule. Then one pass of
    :func:`_v2_intensity` and :func:`_solve_lyapunov_stack`, in chunks of
    whole plants of about 1 MB of working memory; each slice has the bytes
    it has alone. The traces agree with the reference path's within
    ``GRID_RTOL`` relative on the cavity and on perfbench's pool plants.
    NaN marks a candidate that failed a check; only the reference path can
    score it or say why it fails.
    """
    rhos = np.asarray(rhos, dtype=float)
    traces = np.full(len(plants) * len(rhos), np.nan)  # plant by plant
    n = plants[0].n_x
    C_hat, theta = np.eye(n), plants[0].theta
    B_v1 = field_gain(theta, C_hat)
    # a slice holds about ten arrays of its Hamiltonian's size at once; whole
    # plants per chunk, so that about twice KRON_CHUNK_BYTES is live, as in
    # _solve_lyapunov_stack
    chunk = max(1, 2 * KRON_CHUNK_BYTES // (10 * 8 * (2 * n) ** 2 * len(rhos)))
    for start in range(0, len(plants), chunk):
        group = plants[start : start + chunk]
        care = _care_inputs(group, np.tile(rhos, len(group)), len(rhos))
        _, K, A_hat, _, errors = _filter_cares(*care)
        ok = np.array([error is None for error in errors])
        ok[ok] = [error is None for error in _not_hurwitz(np.linalg.eigvals(A_hat[ok]))]
        if ok.any():
            _, B, _, D, S_w = (M if M.ndim == 2 else M[ok] for M in _plant_matrices(group, len(rhos)))
            K, A_hat = K[ok], A_hat[ok]
            G = B - K @ D  # the plant-noise gain of _plant_noise_gain
            N = G @ S_w @ np.swapaxes(G, -1, -2) + B_v1 @ B_v1.T + _v2_intensity(A_hat, K, C_hat, theta)
            chunk_traces = traces[start * len(rhos) : (start + len(group)) * len(rhos)]
            chunk_traces[ok] = np.trace(_solve_lyapunov_stack(A_hat, N), axis1=-2, axis2=-1)
    return traces.reshape(len(plants), len(rhos))


def _design_alg2(plants: Sequence[QuantumLinearSystem], filters: list, rho_candidates: Sequence[float] | None) -> list:
    """:func:`design_algorithm2` over same-shape plants, from their ``rho = 0`` filters: one outcome per plant.

    Every plant takes the steps of :func:`design_algorithm2` on its own
    data, and the plants take each step in lockstep: each reference-path
    round (``rho = 0`` and the candidates the batch could not score, each
    round of near-tie re-scoring, each golden-section iteration) is one
    stacked design and one stacked :func:`evaluate_performance` over the
    points still in it. Each plant's set of reference-scored ``rho`` is the
    one the plant gets alone: where ``c`` fails in a golden-section
    iteration, the plant's ``d`` of that iteration is not kept.
    """
    if rho_candidates is None:
        rho_candidates = default_rho_grid()
    candidates = sorted({float(r) for r in rho_candidates})
    if not candidates:
        raise DomainError("rho candidate list must be non-empty")
    if not all(np.isfinite(rho * rho) for rho in candidates):
        raise DomainError("rho candidates must be finite, with finite squares")
    if candidates[0] < 0.0:
        raise DomainError(f"rho candidates must be non-negative, got {candidates[0]}")
    if candidates[0] != 0.0:
        raise DomainError("rho candidate list must include 0")

    m = len(plants)
    scored: list[dict[float, tuple[float, CoherentObserver]]] = [{} for _ in range(m)]  # the reference path's
    skipped: list[list[tuple[float, str]]] = [[] for _ in range(m)]

    def score(items: list[tuple[int, float]]) -> list:
        """``(trace, observer)`` of each ``(plant, rho)`` design through the reference path, or its error."""
        kds = [filters[i] if rho == 0.0 else None for i, rho in items]
        inflated = [k for k, (_, rho) in enumerate(items) if rho != 0.0]
        if inflated:
            rhos = np.array([items[k][1] for k in inflated])
            for k, kd in zip(inflated, _kalman_step([plants[items[k][0]] for k in inflated], rhos)):
                kds[k] = kd
        group = [plants[i] for i, _ in items]
        designs = _augmented_designs(group, kds, [Provenance("alg2", rho=rho) for _, rho in items])
        reports = on_successes(
            designs, lambda done: evaluate_performance([group[k] for k in done], [designs[k] for k in done])
        )
        return on_successes(reports, lambda done: [(reports[k].trace, designs[k]) for k in done])

    def reference(items: list[tuple[int, float]]) -> list[float | None]:
        """:func:`score` kept for each item, or ``None`` with the reason recorded where the design fails."""
        traces = []
        for (i, rho), outcome in zip(items, score(items)):
            if isinstance(outcome, QobsError):
                logger.debug("skipping rho=%g: %s: %s", rho, outcome.reason_code, outcome)
                skipped[i].append((rho, f"{outcome.reason_code}: {outcome}"))
                traces.append(None)
            else:
                scored[i][rho] = outcome
                traces.append(outcome[0])
        return traces

    # each grid: the batch's traces, and the reference path's where the batch has none
    grid = _grid_traces(plants, candidates[1:]) if len(candidates) > 1 else np.empty((m, 0))
    batches = [[np.nan, *row] for row in grid]
    items = [(i, rho) for i in range(m) for rho, trace in zip(candidates, batches[i]) if np.isnan(trace)]
    traces = dict(zip(items, reference(items)))
    grids: list[dict[float, float]] = [{} for _ in range(m)]  # the candidates that scored, ascending
    for i in range(m):
        for rho, trace in zip(candidates, batches[i]):
            trace = traces[i, rho] if np.isnan(trace) else float(trace)
            if trace is not None:
                grids[i][rho] = trace
    # the bracket is formed around a reference-scored minimizer: re-score
    # every batch trace that might, within its error, lie below it
    best: list[float | None] = [None] * m
    live = [i for i in range(m) if grids[i]]
    while live:
        items = []
        for i in live:
            grid = grids[i]
            best[i] = min(grid, key=grid.get)
            bound = grid[best[i]] + GRID_RTOL * abs(grid[best[i]])
            items += [(i, rho) for rho, trace in grid.items() if trace <= bound and rho not in scored[i]]
        for (i, rho), trace in zip(items, reference(items)):
            if trace is None:
                del grids[i][rho]
            else:
                grids[i][rho] = trace
        live = sorted({i for i, _ in items if grids[i]})

    # one golden-section pass around each bracket, 20 iterations in lockstep
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    brackets = {}
    for i in range(m):
        if not grids[i]:
            continue
        ordered = list(grids[i])
        j = ordered.index(best[i])
        a, b = ordered[max(j - 1, 0)], ordered[min(j + 1, len(ordered) - 1)]
        if b > a:
            brackets[i] = (a, b, b - inv_phi * (b - a), a + inv_phi * (b - a))
    for _ in range(20):
        if not brackets:
            break
        items = [
            (i, rho) for i, (_, _, c, d) in brackets.items() for rho in dict.fromkeys((c, d)) if rho not in scored[i]
        ]
        outcomes = dict(zip(items, score(items)))
        for i, (a, b, c, d) in list(brackets.items()):
            # kept as if c were scored first and d only after c succeeded
            for rho in (c, d):
                outcome = outcomes.get((i, rho))
                if isinstance(outcome, QobsError):
                    del brackets[i]
                    break
                if outcome is not None:
                    scored[i][rho] = outcome
            if i not in brackets:
                continue
            if scored[i][c][0] < scored[i][d][0]:
                b, d = d, c
                c = b - inv_phi * (b - a)
            else:
                a, c = c, d
                d = a + inv_phi * (b - a)
            brackets[i] = (a, b, c, d)

    results: list = []
    for i in range(m):
        if not grids[i]:
            reasons = "; ".join(f"rho={r}: {msg}" for r, msg in skipped[i])
            results.append(DomainError(f"every rho candidate failed ({reasons})"))
            continue
        rho_opt = min(sorted(scored[i]), key=lambda rho: scored[i][rho][0])
        curve = sorted({**grids[i], **{rho: trace for rho, (trace, _) in scored[i].items()}}.items())
        results.append((scored[i][rho_opt][1], rho_opt, curve))
    return results


def design_algorithm2(
    plant: QuantumLinearSystem,
    rho_candidates: Sequence[float] | None = None,
) -> tuple[CoherentObserver, float, list[tuple[float, float]]]:
    """Noise-inflated Kalman design optimized over the inflation ``rho``.

    For each candidate the filter is designed against the plant with its
    measurement-noise block inflated by ``rho^2 I``, augmented, and scored
    against the *true* plant. Candidates whose design fails are skipped (the
    whole call fails only if every candidate does). One golden-section pass
    (20 iterations) then sharpens the grid minimizer.

    The positive grid candidates are scored in one batched pass
    (:func:`_grid_traces`), which the stacked :func:`_design_alg2` runs over
    the grids of all its plants at once. The batch takes each candidate's
    filter from :func:`solve_care`'s body, as the reference path does, so
    its traces differ from the reference ones only through the formula for
    the ``B_v2`` noise intensity. Every value that decides the
    answer goes through the reference path, which designs the candidate and
    runs :func:`evaluate_performance`: ``rho = 0``, whose trace is flat to
    round-off in ``rho``; each candidate the batch could not score; before
    the bracket is formed, every candidate whose batch trace lies within
    ``GRID_RTOL`` of the best reference trace, until none is left; and every
    golden-section point. The bracket's centre is thus the reference path's
    grid minimizer wherever the batch traces are within ``GRID_RTOL`` of
    the reference ones. ``rho_opt`` is the best reference-scored value, so
    the alg2 trace is at most the alg1 trace bit for bit. Each distinct
    ``rho`` is scored once. The plant is the stack of one of
    :func:`_design_alg2`, which designs many plants in lockstep.

    Returns ``(best observer, rho_opt, curve)`` with the curve holding one
    ``(rho, trace)`` pair per scored ``rho``, sorted by ``rho``; the traces of
    batch-scored grid candidates carry the tolerance of :func:`_grid_traces`.
    """
    return single_outcome(_design_alg2([plant], _kalman_step([plant], 0.0), rho_candidates))


def _design_alg3(plants: Sequence[QuantumLinearSystem], filters: list) -> list:
    """:func:`design_algorithm3` over same-shape plants, from their ``rho = 0`` filters: one outcome per plant.

    The filters are transformed in one stacked :func:`skew_riccati_transform`
    call; those it fails for are augmented in one :func:`_augmented_designs`
    call.
    """
    n = plants[0].n_x
    C_hat = np.eye(n)

    def transform(done: list[int]) -> list:
        A_hat, K = (np.stack([getattr(filters[k], name) for k in done]) for name in ("A_hat", "K"))
        return skew_riccati_transform(A_hat, K, C_hat, plants[0].theta)

    results = list(filters)
    reasons: dict[int, str] = {}
    for i, (kd, tf) in enumerate(zip(filters, on_successes(filters, transform))):
        if isinstance(kd, QobsError):
            continue
        if isinstance(tf, QobsError):
            reasons[i] = tf.reason_code
            continue
        if isinstance(tf, Exception):
            raise tf  # an untyped error of the decomposition, as the single call raises it
        results[i] = (
            CoherentObserver(
                A_hat=kd.A_hat, B_hat=kd.K, C_hat=C_hat, B_v1=tf.B_v1_tilde, B_v2=np.zeros((n, 0)),
                provenance=Provenance("alg3", transformed=True), design=kd, transform=tf,
            ),
            None,
        )
    fallback = list(reasons)
    provenances = [Provenance("alg3", transformed=False, fallback_reason=reasons[i]) for i in fallback]
    augmented = _augmented_designs([plants[i] for i in fallback], [filters[i] for i in fallback], provenances)
    for i, obs in zip(fallback, augmented):
        results[i] = (obs, reasons[i])
    return results


def design_algorithm3(
    plant: QuantumLinearSystem,
) -> tuple[CoherentObserver, str | None]:
    """Transformation-based design with fallback to the augmentation design.

    Designs the algorithm-1 (``rho = 0``) filter once and attempts its skew
    Riccati state transformation; on success the observer needs no ``B_v2``
    channels and carries the transformed ``B_v1_tilde`` as its ``B_v1``. On
    failure that filter is augmented as in algorithm 1 and returned with the
    typed reason, which its provenance also records as ``fallback_reason``.
    """
    return single_outcome(_design_alg3([plant], _kalman_step([plant], 0.0)))


def _design_classical(plants: Sequence[QuantumLinearSystem]) -> list:
    """:func:`design_classical` over same-shape plants, in one ``rho = 1`` Kalman solve: one outcome per plant."""
    filters = _kalman_step(plants, 1.0)

    def observers(done: list[int]) -> list[ClassicalObserver]:
        return [ClassicalObserver(K=filters[k].K, A_hat=filters[k].A_hat, design=filters[k]) for k in done]

    return on_successes(filters, observers)


def design_classical(plant: QuantumLinearSystem) -> ClassicalObserver:
    """Kalman filter on the heterodyne record ``dy + dw_H``, whose vacuum ``w_H`` makes ``rho = 1``."""
    return single_outcome(_design_classical([plant]))


def _plant_noise_gain(plant: QuantumLinearSystem, K: np.ndarray) -> np.ndarray:
    """Gain ``B - K D`` of the plant's noise in the error dynamics of a filter with gain ``K`` (or a stack)."""
    return plant.B - K @ plant.D


def error_system(
    plant: QuantumLinearSystem,
    observer: CoherentObserver | ClassicalObserver,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimation-error dynamics ``(A_e, B_e, S_joint)``.

    ``d(x - xi) = A_e (x - xi) dt + B_e d(noises)`` with all noise sources
    independent, so ``S_joint`` is block diagonal: the plant's intensity
    followed by identity blocks for each vacuum input of the observer.
    :func:`_grid_traces` forms ``B_e S_joint B_e^T`` of a coherent observer
    block by block, from the same plant-noise gain.
    """
    S_w = plant.ito.S
    if isinstance(observer, ClassicalObserver):
        gains = [_plant_noise_gain(plant, observer.K), -observer.K]
    else:
        gains = [
            _plant_noise_gain(plant, observer.B_hat),
            -observer.noise_gain_v1,
            -observer.B_v2,
        ]
    B_e = np.hstack(gains)
    S_joint = np.eye(B_e.shape[1])
    S_joint[: plant.n_w, : plant.n_w] = S_w
    return observer.A_hat, B_e, S_joint


def evaluate_performance(plant, observer) -> PerformanceReport | list:
    """Steady-state symmetrized error covariance of an observer on a plant.

    Raises :class:`NotHurwitz` when the error dynamics are not stable. The
    eigenvalues of ``A_e`` are computed once, for that check and for the
    Hurwitz margin.

    ``plant`` and ``observer`` may be equal-length lists of same-shape
    plants and their observers. The call then returns one outcome per pair,
    the :class:`PerformanceReport` or the :class:`NotHurwitz` error, and
    raises none but :class:`DomainError` for empty lists or lists of unequal
    length; the Lyapunov equations are solved as one stack. A single pair is
    the stack of one.
    """
    single = isinstance(plant, QuantumLinearSystem)
    plants, observers = ([plant], [observer]) if single else (plant, observer)
    if not 0 < len(plants) == len(observers):
        raise DomainError(f"need as many observers as plants, at least one: got {len(plants)} and {len(observers)}")
    systems = [error_system(p, obs) for p, obs in zip(plants, observers)]
    A_e = np.stack([A for A, _, _ in systems])
    eigvals = np.linalg.eigvals(A_e)
    worst = eigvals.real.max(axis=-1)

    def report(done: list[int]) -> list[PerformanceReport]:
        # B_e S_joint B_e^T, one matmul per group of observers with as many vacuum inputs
        groups: dict[int, list[int]] = {}
        for j, k in enumerate(done):
            groups.setdefault(systems[k][1].shape[1], []).append(j)
        N = np.empty((len(done), *A_e.shape[1:]))
        for group in groups.values():
            B_e = np.array([systems[done[j]][1] for j in group])
            S_joint = np.array([systems[done[j]][2] for j in group])
            N[group] = B_e @ S_joint @ B_e.swapaxes(-1, -2)
        return [
            PerformanceReport(
                J_bar=J_bar,
                trace=float(np.trace(J_bar)),
                frobenius=float(np.linalg.norm(J_bar)),
                hurwitz_margin=-float(worst[k]),
            )
            for k, J_bar in zip(done, _solve_lyapunov_stack(A_e[done], N))
        ]

    outcomes = on_successes(_not_hurwitz(eigvals), report)
    return single_outcome(outcomes) if single else outcomes
