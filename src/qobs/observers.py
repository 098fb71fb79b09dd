"""Coherent observer design and performance evaluation.

Every designer is the steady-state Kalman filter of the plant, with the
quantum inputs treated as classical Wiener processes of intensity ``S_w`` and
the measurement-noise block ``V2`` inflated to ``V2 + rho^2 I``. The
designers differ only in ``rho`` and in how the filter is then made
physically realizable:

* :func:`design_algorithm1` (``rho = 0``) adds the minimal extra vacuum
  channels.
* :func:`design_algorithm2` searches ``rho`` for the augmented filter that
  performs best against the true plant. One stacked scorer
  (:func:`_alg2_traces`) scores every candidate of all the plants it
  designs, with :func:`evaluate_performance`'s traces to the bit, and
  observers are built only for the answers.
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
design or its typed error. The public designers run the stack of one.
:func:`_kalman_step` is one :func:`solve_care` call,
:func:`_augmented_designs` one :func:`augment_noise` call and
:func:`evaluate_performance` one Lyapunov stack; alg2 scores the grids of
all its plants in one pass, chunked by whole plants, and takes the
golden-section steps on all of them in lockstep: each round scores every
plant's predicted path in one pass, chunked alike, so the 20 iterations
take about three rounds, and never more than ten. alg3 transforms all its
filters in one stacked :func:`skew_riccati_transform` call.

Performance is the steady-state symmetrized error covariance, obtained from
the Lyapunov equation of the estimation-error dynamics, every one built by
:func:`_error_noise` in the groups by noise width of :func:`_error_covariances`.
"""

from __future__ import annotations

import itertools
import logging
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, QobsError, on_successes, single_outcome
from .realizability import TransformResult, augment_noise, skew_riccati_transform
from .solvers import KRON_CHUNK_BYTES, KalmanDesign, _filter_cares, _not_hurwitz, _unstable_filters, solve_care
from .solvers import _solve_lyapunov_stack
from .systems import QuantumLinearSystem, canonical_theta

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


def _plant_matrices(plants: Sequence[QuantumLinearSystem]) -> tuple[np.ndarray, ...]:
    """``(A, B, C, D, S_w)`` of a list of same-shape plants, one slice per plant.

    The matrices of the one plant, unstacked, if every entry is that plant.
    Raises :class:`DomainError` if the plants differ in shape.
    """
    if all(plant is plants[0] for plant in plants):
        return plants[0].A, plants[0].B, plants[0].C, plants[0].D, plants[0].ito.S
    matrices = [(p.A, p.B, p.C, p.D, p.ito.S) for p in plants]
    if len({tuple(M.shape for M in Ms) for Ms in matrices}) > 1:
        raise DomainError("the plants of one list must share one shape")
    return tuple(np.stack(Ms) for Ms in zip(*matrices))


def _care_inputs(matrices: tuple[np.ndarray, ...], rho) -> tuple[np.ndarray, ...]:
    """``(A, C, V1, V12, V2)`` of the Kalman filters against measurement noise ``V2 + rho^2 I``.

    ``matrices`` are ``(A, B, C, D, S_w)`` as :func:`_plant_matrices` gives
    them, unstacked or stacks; ``rho`` is one number, or an array with one
    per slice, which makes ``V2`` a stack.
    """
    A, B, C, D, S_w = matrices
    B_t, D_t = B.swapaxes(-1, -2), D.swapaxes(-1, -2)
    V2 = D @ S_w @ D_t + np.multiply.outer(rho * rho, np.eye(C.shape[-2]))
    return A, C, B @ S_w @ B_t, B @ S_w @ D_t, V2


def _kalman_step(plants: Sequence[QuantumLinearSystem], rho) -> list:
    """The outcomes of :func:`solve_care` for the plants' Kalman filters against measurement noise ``V2 + rho^2 I``.

    One call; ``rho`` is one number, or one per plant.
    """
    return solve_care(*_care_inputs(_plant_matrices(plants), np.full(len(plants), rho)))


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


def _alg2_traces(matrices: tuple[np.ndarray, ...], filters: list, items: Sequence[tuple[int, float]]) -> list:
    """Trace of the alg2 design of each ``(plant, rho)`` item, or the typed error that design raises.

    ``matrices`` are the plants' :func:`_plant_matrices` and ``filters``
    their ``rho = 0`` filters; an item names its plant by its index. Each
    trace is :func:`evaluate_performance`'s of the observer that
    :func:`_augmented_designs` builds from :func:`_kalman_step`'s filter at
    that ``rho``, to the bit, and each error the one that path gives, but
    no observer is built. The inflated filters come from one
    :func:`_filter_cares` call; one ``eigvals`` call on the filter matrices
    applies :func:`solve_care`'s stability rule and then
    :func:`evaluate_performance`'s :func:`_not_hurwitz`; one
    :func:`augment_noise` call gives the ``B_v1`` and ``B_v2`` of the
    filters still in; and one :func:`_error_covariances` call scores their
    error systems, whose noise :func:`_error_noise` builds, as for every
    observer that :func:`evaluate_performance` scores.
    """
    if not items:
        return []
    owners = np.array([i for i, _ in items])
    rhos = np.array([rho for _, rho in items])
    A, B, C, D, S_w = (M if M.ndim == 2 else M[owners] for M in matrices)
    n, p = A.shape[-1], C.shape[-2]
    K, A_hat = np.empty((len(items), n, p)), np.empty((len(items), n, n))
    outcomes: list = [None] * len(items)
    for k in np.flatnonzero(rhos == 0.0):  # the given filter
        kd = filters[items[k][0]]
        if isinstance(kd, QobsError):
            outcomes[k] = kd
        else:
            K[k], A_hat[k] = kd.K, kd.A_hat
    inflated = np.flatnonzero(rhos != 0.0)
    if inflated.size:
        care = _care_inputs(tuple(M if M.ndim == 2 else M[inflated] for M in (A, B, C, D, S_w)), rhos[inflated])
        _, K[inflated], A_hat[inflated], _, errors = _filter_cares(*care)
        for k, error in zip(inflated, errors):
            outcomes[k] = error
    live = [k for k, outcome in enumerate(outcomes) if outcome is None]
    eigvals = np.linalg.eigvals(A_hat[live])
    for k, unstable, not_hurwitz in zip(live, _unstable_filters(eigvals), _not_hurwitz(eigvals)):
        outcomes[k] = unstable or not_hurwitz
    live = [k for k in live if outcomes[k] is None]
    if not live:
        return outcomes
    augs = augment_noise(A_hat[live], K[live], np.eye(n), canonical_theta(n // 2))
    plant_noise = (M if M.ndim == 2 else M[live] for M in (B, D, S_w))
    gains = [aug.B_v1 for aug in augs], [aug.B_v2 for aug in augs]
    _, traces = _error_covariances(A_hat[live], *plant_noise, K[live], *gains)
    for k, trace in zip(live, traces.tolist()):
        outcomes[k] = trace
    return outcomes


#: the most points not yet scored that one golden-section round scores on a
#: plant's predicted path; the hedge point comes on top
_PATH_POINTS = 10


def _trace_guess(known: list[tuple[float, float]]):
    """A guess at the alg2 trace as a function of ``rho``, from a bracket's scored ``(rho, trace)`` pairs sorted by ``rho``.

    The parabola through the pair of least trace and its two neighbours, or
    through the three pairs at the end where that pair is the first or the
    last; the line through the two pairs where the bracket holds only its
    ends. The guess decides which points alg2 scores ahead, never its
    answer.
    """
    k = min(range(len(known)), key=lambda j: known[j][1])
    (x0, y0), (x1, y1), *rest = known[max(0, min(k - 1, len(known) - 3)):]
    s01 = (y1 - y0) / (x1 - x0)
    s012 = ((rest[0][1] - y1) / (rest[0][0] - x1) - s01) / (rest[0][0] - x0) if rest else 0.0
    return lambda rho: y0 + (rho - x0) * (s01 + (rho - x1) * s012)


def _chunked_traces(matrices: tuple[np.ndarray, ...], filters: list, items: Sequence[tuple[int, float]]) -> list:
    """:func:`_alg2_traces` of ``items``, which come grouped by plant, in chunks of whole plants.

    A slice holds about ten arrays of its Hamiltonian's size at once; a chunk takes the plants whose slices fit
    in twice ``KRON_CHUNK_BYTES`` of them, as in :func:`_solve_lyapunov_stack`, or one plant that does not.
    """
    budget = 2 * KRON_CHUNK_BYTES // (10 * 8 * (2 * matrices[0].shape[-1]) ** 2)
    outcomes, chunk = [], []
    for _, group in itertools.groupby(items, key=operator.itemgetter(0)):
        group = list(group)
        if chunk and len(chunk) + len(group) > budget:
            outcomes += _alg2_traces(matrices, filters, chunk)
            chunk = []
        chunk += group
    return outcomes + _alg2_traces(matrices, filters, chunk)


def _design_alg2(plants: Sequence[QuantumLinearSystem], filters: list, rho_candidates: Sequence[float] | None) -> list:
    """:func:`design_algorithm2` over same-shape plants, from their ``rho = 0`` filters: one outcome per plant.

    Every plant takes the steps of :func:`design_algorithm2` on its own
    data, and each step scores all plants through :func:`_chunked_traces`,
    in chunks of whole plants of about 1 MB of working memory: the grid
    pass, then the golden-section rounds over the plants still in it.
    A round predicts each plant's path from :func:`_trace_guess` and scores
    up to ``_PATH_POINTS`` new points along it, plus the hedge: the new
    point of the other branch at the first predicted step. The plant then
    takes iterations as long as both ``c`` and ``d`` are scored, so every
    round takes at least two and 20 iterations at most ten rounds. Points
    scored ahead wait in a side table: only those on the path taken are
    kept, so the guess decides the cost and never the answer. Each plant's
    set of kept ``rho`` is the one the plant gets alone: where ``c`` fails
    in a golden-section iteration, the plant's ``d`` of that iteration is
    not kept. The returned observers are built in one :func:`_kalman_step`
    and one :func:`_augmented_designs` call.
    """
    if rho_candidates is None:
        rho_candidates = default_rho_grid()
    try:
        candidates = sorted({float(r) for r in rho_candidates})
    except (TypeError, ValueError) as exc:
        raise DomainError(f"rho candidates must be numbers: {exc}") from None
    if not candidates:
        raise DomainError("rho candidate list must be non-empty")
    if not all(np.isfinite(rho * rho) for rho in candidates):
        raise DomainError("rho candidates must be finite, with finite squares")
    if candidates[0] < 0.0:
        raise DomainError(f"rho candidates must be non-negative, got {candidates[0]}")
    if candidates[0] != 0.0:
        raise DomainError("rho candidate list must include 0")

    m = len(plants)
    matrices = _plant_matrices(plants)
    scored: list[dict[float, float]] = [{} for _ in range(m)]  # the grid's in ascending rho, then the others
    skipped: list[list[tuple[float, str]]] = [[] for _ in range(m)]
    items = [(i, rho) for i in range(m) for rho in candidates]
    for (i, rho), outcome in zip(items, _chunked_traces(matrices, filters, items)):
        if isinstance(outcome, QobsError):
            logger.debug("skipping rho=%g: %s: %s", rho, outcome.reason_code, outcome)
            skipped[i].append((rho, f"{outcome.reason_code}: {outcome}"))
        else:
            scored[i][rho] = outcome

    # one golden-section pass around each grid minimizer, 20 iterations in
    # lockstep; each round scores every plant's predicted path in one pass
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0

    def narrow(a, b, c, d, left):
        """The bracket after one step: ``[a, d]`` if ``left``, else ``[c, b]``, with one new interior point."""
        return (a, d, d - inv_phi * (d - a), c) if left else (c, b, d, c + inv_phi * (b - c))

    brackets, todo = {}, {}
    seen = [dict(s) for s in scored]  # every outcome scored, kept or ahead of the path taken
    known: list[list[tuple[float, float]]] = [[] for _ in range(m)]  # the scored points the guess is fit to
    for i in range(m):
        if not scored[i]:
            continue
        ordered = list(scored[i])
        j = ordered.index(min(scored[i], key=scored[i].get))
        a, b = ordered[max(j - 1, 0)], ordered[min(j + 1, len(ordered) - 1)]
        if b > a:
            brackets[i], todo[i] = (a, b, b - inv_phi * (b - a), a + inv_phi * (b - a)), 20
            known[i] = [(rho, scored[i][rho]) for rho in ordered[max(j - 1, 0):j + 2]]
    missing, planned = object(), object()

    def path(i):
        """The points plant ``i`` has not scored on its predicted path, at most ``_PATH_POINTS``, then the hedge."""
        a, b, c, d = brackets[i]
        outcome = seen[i].get
        known[i] = sorted(point for point in known[i] if a <= point[0] <= b)
        guess = _trace_guess(known[i])
        points, hedge = {}, None
        tc, td = outcome(c, missing), outcome(d, missing)
        for _ in range(todo[i]):
            if isinstance(tc, QobsError) or len(points) + (tc is missing) + (td is missing) > _PATH_POINTS:
                break
            if tc is missing:
                points[c], tc = None, planned
            if isinstance(td, QobsError):
                break
            if td is missing:
                points[d], td = None, planned
            if tc is planned or td is planned:
                left = guess(c) < guess(d)
                if hedge is None:
                    hedge = narrow(a, b, c, d, not left)[3 if left else 2]
            else:
                left = tc < td
            a, b, c, d = narrow(a, b, c, d, left)
            tc, td = (outcome(c, missing), tc) if left else (td, outcome(d, missing))
        if hedge is not None and hedge not in points and outcome(hedge, missing) is missing:
            points[hedge] = None
        return points

    while brackets:
        items = [(i, rho) for i in brackets for rho in path(i)]
        for (i, rho), trace in zip(items, _chunked_traces(matrices, filters, items)):
            seen[i][rho] = trace
            if not isinstance(trace, QobsError):
                known[i].append((rho, trace))
        for i in list(brackets):
            # the iterations whose c and d are both scored, kept as if c were
            # scored first and d only after c succeeded
            a, b, c, d = brackets[i]
            outcome = seen[i].get
            while todo[i]:
                tc, td = outcome(c, missing), outcome(d, missing)
                if tc is missing or td is missing and not isinstance(tc, QobsError):
                    break
                for rho, trace in ((c, tc), (d, td)):
                    if isinstance(trace, QobsError):
                        todo[i] = 0  # a failing point drops the bracket
                        break
                    scored[i][rho] = trace
                else:
                    a, b, c, d = narrow(a, b, c, d, tc < td)
                    todo[i] -= 1
            brackets[i] = a, b, c, d
            if not todo[i]:
                del brackets[i]

    results: list = [None] * m
    best = {}
    for i in range(m):
        if scored[i]:
            best[i] = min(sorted(scored[i]), key=scored[i].get)
        else:
            reasons = "; ".join(f"rho={r}: {msg}" for r, msg in skipped[i])
            results[i] = DomainError(f"every rho candidate failed ({reasons})")
    inflated = [i for i in best if best[i] != 0.0]
    kds = {}
    if inflated:
        kds = dict(zip(inflated, _kalman_step([plants[i] for i in inflated], [best[i] for i in inflated])))
    provenances = [Provenance("alg2", rho=best[i]) for i in best]
    designs = _augmented_designs([plants[i] for i in best], [kds.get(i, filters[i]) for i in best], provenances)
    for i, obs in zip(best, designs):
        results[i] = obs if isinstance(obs, QobsError) else (obs, best[i], sorted(scored[i].items()))
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

    Every candidate, ``rho = 0`` included, is scored by :func:`_alg2_traces`,
    whose trace is :func:`evaluate_performance`'s of that candidate's
    observer to the bit, so the alg2 trace is at most the alg1 trace bit for
    bit. Each distinct ``rho`` is scored once, and only the returned
    observer is built. Each golden-section scorer call scores the path that
    a parabola through the bracket's best scored point and its neighbours
    predicts, up to ten points ahead, and the other branch's point at the
    first predicted step; the iterations then take the points they reach,
    and points scored off the path taken are dropped. The 20 iterations so
    take about three calls, and at most ten. The plant is the stack of one
    of :func:`_design_alg2`, which designs many plants in lockstep.

    Returns ``(best observer, rho_opt, curve)`` with the curve holding one
    ``(rho, trace)`` pair per ``rho`` the search keeps, sorted by ``rho``;
    each trace is :func:`evaluate_performance`'s of the design at that
    ``rho``.
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


def _observer_gains(plant: QuantumLinearSystem, observer: CoherentObserver | ClassicalObserver) -> tuple:
    """``(K, G_v1, B_v2)``: an observer's filter gain and the gains of its vacuum inputs in its error system.

    ``(K, K, empty)`` for a classical observer, whose heterodyne vacuum enters through ``K``. Raises
    :class:`DomainError` unless ``A_hat`` is ``(n_x, n_x)``, ``K`` ``(n_x, n_y)`` and the vacuum gains ``n_x`` high.
    """
    if isinstance(observer, ClassicalObserver):
        gains = observer.K, observer.K, np.zeros((len(observer.K), 0))
    else:
        gains = observer.B_hat, observer.noise_gain_v1, observer.B_v2
    n_y, n_x = plant.C.shape
    if observer.A_hat.shape != (n_x, n_x) or gains[0].shape != (n_x, n_y) or not len(gains[1]) == len(gains[2]) == n_x:
        shapes = f"A_hat of shape {observer.A_hat.shape} and gain of shape {gains[0].shape}"
        raise DomainError(f"observer with {shapes} does not fit a plant with n_x = {n_x} and n_y = {n_y}")
    return gains


def _error_noise(B, D, S_w, K, G_v1, B_v2) -> tuple[np.ndarray, np.ndarray]:
    """``(B_e, S_joint)`` of a stack of error systems ``d(x - xi) = A_e (x - xi) dt + B_e d(noises)``, all built here.

    ``B_e = [B - K D, -G_v1, -B_v2]`` and ``S_joint = diag(S_w, I)``, the noises being independent; ``K``, ``G_v1``
    and ``B_v2`` are stacks of one width each, ``B``, ``D`` and ``S_w`` one plant's or stacks.
    """
    B_e = np.concatenate([B - K @ D, -G_v1, -B_v2], axis=-1)
    n_w, w = S_w.shape[-1], B_e.shape[-1]
    S_joint = np.zeros((len(B_e), w, w))
    S_joint[:, :n_w, :n_w], S_joint[:, n_w:, n_w:] = S_w, np.eye(w - n_w)
    return B_e, S_joint


def error_system(plant: QuantumLinearSystem, observer: CoherentObserver | ClassicalObserver) -> tuple[np.ndarray, ...]:
    """Estimation-error dynamics ``(A_e, B_e, S_joint)``: ``A_hat`` and the stack of one of :func:`_error_noise`.

    Raises :class:`DomainError` if the observer does not fit the plant.
    """
    B_e, S_joint = _error_noise(plant.B, plant.D, plant.ito.S, *(G[None] for G in _observer_gains(plant, observer)))
    return observer.A_hat, B_e[0], S_joint[0]


def _error_covariances(A_e, B, D, S_w, K, G_v1, B_v2) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state symmetrized error covariances ``J_bar`` of a stack of Hurwitz error systems, and their traces.

    Slice ``k`` has the dynamics ``A_e[k]`` and the :func:`_error_noise` of ``B``, ``D``, ``S_w`` (one plant's or
    stacks), ``K[k]``, ``G_v1[k]`` and ``B_v2[k]``, one call per group of slices whose vacuum gains have one width
    each, grouped here and nowhere else. ``J_bar`` solves ``A_e J_bar + J_bar A_e^T + B_e S_joint B_e^T = 0``.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for k, (G, B_v) in enumerate(zip(G_v1, B_v2)):
        groups.setdefault((G.shape[-1], B_v.shape[-1]), []).append(k)
    N = np.empty(A_e.shape)
    for group in groups.values():
        rows = group if len(groups) > 1 else slice(None)  # a single width gathers no copies
        plant_noise = (M if M.ndim == 2 else M[rows] for M in (B, D, S_w))
        vacuum = np.array([G_v1[k] for k in group]), np.array([B_v2[k] for k in group])
        B_e, S_joint = _error_noise(*plant_noise, K[rows], *vacuum)
        N[rows] = B_e @ S_joint @ B_e.swapaxes(-1, -2)
    J_bar = _solve_lyapunov_stack(A_e, N)
    return J_bar, J_bar.trace(axis1=-2, axis2=-1)


def evaluate_performance(plant, observer) -> PerformanceReport | list:
    """Steady-state symmetrized error covariance of an observer on a plant.

    Raises :class:`NotHurwitz` when the error dynamics are not stable. The
    eigenvalues of ``A_e`` are computed once, for that check and for the
    Hurwitz margin.

    ``plant`` and ``observer`` may be equal-length lists of same-shape
    plants and their observers. The call then returns one outcome per pair,
    the :class:`PerformanceReport` or the :class:`NotHurwitz` error, and
    raises none but :class:`DomainError` for empty lists, lists of unequal
    length, plants of more than one shape or an observer that does not fit
    its plant; the Lyapunov equations are solved as one stack. A single pair
    is the stack of one.
    """
    single = isinstance(plant, QuantumLinearSystem)
    plants, observers = ([plant], [observer]) if single else (plant, observer)
    if not 0 < len(plants) == len(observers):
        raise DomainError(f"need as many observers as plants, at least one: got {len(plants)} and {len(observers)}")
    _, B, _, D, S_w = _plant_matrices(plants)
    gains = [_observer_gains(p, obs) for p, obs in zip(plants, observers)]
    A_e = np.array([obs.A_hat for obs in observers])
    eigvals = np.linalg.eigvals(A_e)
    worst = eigvals.real.max(axis=-1)

    def report(done: list[int]) -> list[PerformanceReport]:
        plant_noise = (M if M.ndim == 2 else M[done] for M in (B, D, S_w))
        K, G_v1, B_v2 = zip(*(gains[k] for k in done))
        J_bars, traces = _error_covariances(A_e[done], *plant_noise, np.array(K), G_v1, B_v2)
        return [
            PerformanceReport(
                J_bar=J_bar,
                trace=trace,
                frobenius=float(np.linalg.norm(J_bar)),
                hurwitz_margin=-float(worst[k]),
            )
            for k, J_bar, trace in zip(done, J_bars, traces.tolist())
        ]

    outcomes = on_successes(_not_hurwitz(eigvals), report)
    return single_outcome(outcomes) if single else outcomes
