"""Coherent observer design and performance evaluation.

Every designer is the steady-state Kalman filter of the plant, with the
quantum inputs treated as classical Wiener processes of intensity ``S_w`` and
the measurement-noise block ``V2`` inflated to ``V2 + rho^2 I``. The
designers differ only in ``rho`` and in how the filter is then made
physically realizable:

* :func:`design_algorithm1` (``rho = 0``) adds the minimal extra vacuum
  channels.
* :func:`design_algorithm2` searches ``rho`` for the augmented filter that
  performs best against the true plant. Its grid is scored in one batched
  pass (:func:`_grid_traces`); the candidates that decide the answer go
  through the per-candidate reference path, design and
  :func:`evaluate_performance`, so the grid only steers the search.
* :func:`design_algorithm3` (``rho = 0``) re-coordinates the algorithm-1
  filter so that no ``B_v2`` channels are needed at all, and augments that
  filter as algorithm 1 does only when the transformation does not exist.
* :func:`design_classical` (``rho = 1``) is the measurement-based baseline:
  heterodyne detection adds one unit of vacuum noise to the output, and the
  filter runs on that record.

Performance is the steady-state symmetrized error covariance, obtained from
the Lyapunov equation of the estimation-error dynamics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, QobsError
from .realizability import TransformResult, _v2_intensity, augment_noise, skew_riccati_transform
from .solvers import KalmanDesign, _solve_care_stack, _solve_lyapunov_stack, solve_care, solve_lyapunov
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


def _care_inputs(plant: QuantumLinearSystem, rho) -> tuple[np.ndarray, ...]:
    """``(A, C, V1, V12, V2)`` of the Kalman filter against measurement noise ``V2 + rho^2 I``.

    For an array of ``rho`` the last is the stack of their ``V2``.
    """
    S_w = plant.ito.S
    V2 = plant.D @ S_w @ plant.D.T + np.multiply.outer(rho * rho, np.eye(plant.n_y))
    return plant.A, plant.C, plant.B @ S_w @ plant.B.T, plant.B @ S_w @ plant.D.T, V2


def _kalman_step(plant: QuantumLinearSystem, rho: float) -> KalmanDesign:
    """The plant's Kalman filter designed against measurement noise ``V2 + rho^2 I``."""
    return solve_care(*_care_inputs(plant, rho))


def _augmented_design(
    plant: QuantumLinearSystem, kd: KalmanDesign, provenance: Provenance
) -> CoherentObserver:
    """The filter ``kd`` made quantum by minimal vacuum-noise augmentation."""
    C_hat = np.eye(plant.n_x)
    aug = augment_noise(kd.A_hat, kd.K, C_hat, plant.theta)
    return CoherentObserver(
        A_hat=kd.A_hat,
        B_hat=kd.K,
        C_hat=C_hat,
        B_v1=aug.B_v1,
        B_v2=aug.B_v2,
        provenance=provenance,
        design=kd,
    )


def design_algorithm1(plant: QuantumLinearSystem) -> CoherentObserver:
    """Kalman filter made quantum by minimal vacuum-noise augmentation."""
    return _augmented_design(plant, _kalman_step(plant, 0.0), Provenance("alg1"))


def default_rho_grid() -> np.ndarray:
    """Default measurement-noise inflation candidates: 0 plus a log grid."""
    return np.concatenate([[0.0], np.logspace(-3.0, 2.0, 61)])


def _grid_traces(plant: QuantumLinearSystem, rhos: Sequence[float]) -> np.ndarray:
    """Trace of the alg2 design at each ``rho`` (all positive), scored in one batched pass.

    Scores what :func:`evaluate_performance` would give each candidate's
    augmented filter, from its defect ``S_tilde`` alone: the error covariance
    reads ``B_v2`` only through ``B_v2 B_v2^T`` (:func:`_v2_intensity`), so
    the noise intensity of :func:`error_system` is formed block by block. The
    traces agree with the reference path's to round-off amplified by the
    conditioning of the Riccati and Lyapunov equations, within ``GRID_RTOL``
    relative on the cavity and on perfbench's pool plants. NaN marks a
    candidate that failed a check of :func:`_solve_care_stack`; only the
    reference path can score it or say why it fails.
    """
    rhos = np.asarray(rhos, dtype=float)
    K, A_hat, ok = _solve_care_stack(*_care_inputs(plant, rhos))
    traces = np.full(rhos.shape, np.nan)
    if ok.any():
        K, A_hat = K[ok], A_hat[ok]
        C_hat, theta = np.eye(plant.n_x), plant.theta
        B_v1 = field_gain(theta, C_hat)
        G = _plant_noise_gain(plant, K)
        N = G @ plant.ito.S @ np.swapaxes(G, -1, -2) + B_v1 @ B_v1.T + _v2_intensity(A_hat, K, C_hat, theta)
        traces[ok] = np.trace(_solve_lyapunov_stack(A_hat, N), axis1=-2, axis2=-1)
    return traces


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
    (:func:`_grid_traces`). Every value that decides the answer goes through
    the reference path, which designs the candidate and runs
    :func:`evaluate_performance`: ``rho = 0``, whose trace is flat to
    round-off in ``rho``; each candidate the batch could not score; before
    the bracket is formed, every candidate whose batch trace lies within
    ``GRID_RTOL`` of the best reference trace, until none is left; and every
    golden-section point. The bracket's centre is thus the reference path's
    grid minimizer wherever the batch traces are within ``GRID_RTOL`` of
    the reference ones. ``rho_opt`` is the best reference-scored value, so
    the alg2 trace is at most the alg1 trace bit for bit. Each distinct
    ``rho`` is scored once.

    Returns ``(best observer, rho_opt, curve)`` with the curve holding one
    ``(rho, trace)`` pair per scored ``rho``, sorted by ``rho``; the traces of
    batch-scored grid candidates carry the tolerance of :func:`_grid_traces`.
    """
    if rho_candidates is None:
        rho_candidates = default_rho_grid()
    candidates = sorted({float(r) for r in rho_candidates})
    if not candidates:
        raise DomainError("rho candidate list must be non-empty")
    if not all(np.isfinite(rho * rho) for rho in candidates):
        raise DomainError("rho candidates must be finite, with finite squares")
    if candidates[0] != 0.0:
        raise DomainError("rho candidate list must include 0")

    scored: dict[float, tuple[float, CoherentObserver]] = {}  # the reference path's
    skipped: list[tuple[float, str]] = []

    def score(rho: float) -> float:
        """Trace of the ``rho`` design through the reference path, designed on first use."""
        if rho not in scored:
            obs = _augmented_design(plant, _kalman_step(plant, rho), Provenance("alg2", rho=rho))
            scored[rho] = (evaluate_performance(plant, obs).trace, obs)
        return scored[rho][0]

    def reference(rho: float) -> float | None:
        """:func:`score`, or ``None`` with the reason recorded when the design fails."""
        try:
            return score(rho)
        except QobsError as exc:
            logger.debug("skipping rho=%g: %s: %s", rho, exc.reason_code, exc)
            skipped.append((rho, f"{exc.reason_code}: {exc}"))
            return None

    batch = _grid_traces(plant, candidates[1:]) if len(candidates) > 1 else []
    grid: dict[float, float] = {}  # the candidates that scored, ascending
    for rho, batch_trace in zip(candidates, [np.nan, *batch]):
        trace = reference(rho) if np.isnan(batch_trace) else float(batch_trace)
        if trace is not None:
            grid[rho] = trace
    # the bracket is formed around a reference-scored minimizer: re-score
    # every batch trace that might, within its error, lie below it
    while grid:
        best = min(grid, key=grid.get)
        bound = grid[best] + GRID_RTOL * abs(grid[best])
        near = [rho for rho, trace in grid.items() if trace <= bound and rho not in scored]
        if not near:
            break
        for rho in near:
            trace = reference(rho)
            if trace is None:
                del grid[rho]
            else:
                grid[rho] = trace
    if not grid:
        reasons = "; ".join(f"rho={r}: {msg}" for r, msg in skipped)
        raise DomainError(f"every rho candidate failed ({reasons})")

    ordered = list(grid)
    i = ordered.index(best)
    a, b = ordered[max(i - 1, 0)], ordered[min(i + 1, len(ordered) - 1)]
    if b > a:
        inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        for _ in range(20):
            try:
                fc, fd = score(c), score(d)
            except QobsError:
                break
            if fc < fd:
                b, d = d, c
                c = b - inv_phi * (b - a)
            else:
                a, c = c, d
                d = a + inv_phi * (b - a)

    rho_opt = min(sorted(scored), key=lambda rho: scored[rho][0])
    curve = sorted({**grid, **{rho: trace for rho, (trace, _) in scored.items()}}.items())
    return scored[rho_opt][1], rho_opt, curve


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
    kd = _kalman_step(plant, 0.0)
    C_hat = np.eye(plant.n_x)
    try:
        tf = skew_riccati_transform(kd.A_hat, kd.K, C_hat, plant.theta)
    except QobsError as exc:
        provenance = Provenance("alg3", transformed=False, fallback_reason=exc.reason_code)
        return _augmented_design(plant, kd, provenance), exc.reason_code
    obs = CoherentObserver(
        A_hat=kd.A_hat, B_hat=kd.K, C_hat=C_hat, B_v1=tf.B_v1_tilde, B_v2=np.zeros((plant.n_x, 0)),
        provenance=Provenance("alg3", transformed=True), design=kd, transform=tf,
    )
    return obs, None


def design_classical(plant: QuantumLinearSystem) -> ClassicalObserver:
    """Kalman filter on the heterodyne record ``dy + dw_H``, whose vacuum ``w_H`` makes ``rho = 1``."""
    kd = _kalman_step(plant, 1.0)
    return ClassicalObserver(K=kd.K, A_hat=kd.A_hat, design=kd)


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


def evaluate_performance(
    plant: QuantumLinearSystem,
    observer: CoherentObserver | ClassicalObserver,
) -> PerformanceReport:
    """Steady-state symmetrized error covariance of an observer on a plant."""
    A_e, B_e, S_joint = error_system(plant, observer)
    J_bar = solve_lyapunov(A_e, B_e @ S_joint @ B_e.T)
    margin = -float(np.max(np.linalg.eigvals(A_e).real))
    return PerformanceReport(
        J_bar=J_bar,
        trace=float(np.trace(J_bar)),
        frobenius=float(np.linalg.norm(J_bar)),
        hurwitz_margin=margin,
    )
