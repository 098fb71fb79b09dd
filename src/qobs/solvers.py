"""Riccati, Lyapunov, and invariant-subspace solvers for small dense systems.

Everything here targets desk-scale problems (state dimensions up to ~16), so
the continuous Lyapunov equation is solved as a vectorized linear system and
the algebraic Riccati equation through the stable invariant subspace of its
Hamiltonian matrix. A fixed-step integrator for the covariance flow serves as
an independent cross-check of the Lyapunov route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DomainError,
    ImaginaryAxisEigenvalue,
    NonRealResult,
    NoStabilizingSolution,
    NotHurwitz,
    WrongSplitCount,
)
from .systems import real_part_checked

__all__ = [
    "KalmanDesign",
    "stable_subspace",
    "solve_care",
    "solve_lyapunov",
    "integrate_covariance",
]

#: eigenvalues within 1e-8 * (1 + spectral radius) of the imaginary axis are
#: treated as lying on it
EIG_SPLIT_RTOL = 1e-8


def _axis_tolerance(eigvals: np.ndarray) -> float:
    return EIG_SPLIT_RTOL * (1.0 + np.max(np.abs(eigvals), initial=0.0))


@dataclass(frozen=True)
class KalmanDesign:
    """Steady-state Kalman filter data: covariance, gain, and Riccati residual.

    ``Q`` is the symmetric PSD stabilizing Riccati solution, ``K`` the filter
    gain, and ``residual_norm`` the Frobenius norm of the Riccati residual at
    the returned ``Q``.
    """

    Q: np.ndarray
    K: np.ndarray
    residual_norm: float


def stable_subspace(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis of the stable invariant subspace of a ``2n x 2n`` matrix.

    Returns ``(X1, X2)``, the top and bottom ``n x n`` blocks of an
    orthonormal basis of the invariant subspace for eigenvalues with negative
    real part, obtained from an ordered Schur decomposition (robust under
    repeated eigenvalues, unlike stacking raw eigenvectors).

    Raises :class:`ImaginaryAxisEigenvalue` if any eigenvalue is within
    tolerance of the imaginary axis, and :class:`WrongSplitCount` if the
    stable subspace does not have dimension ``n``.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or Z.shape[0] % 2:
        raise DomainError(f"expected a square even-dimensioned matrix, got {Z.shape}")
    n = Z.shape[0] // 2
    eigvals = np.linalg.eigvals(Z)
    tol = _axis_tolerance(eigvals)
    closest = np.min(np.abs(eigvals.real))
    if closest <= tol:
        raise ImaginaryAxisEigenvalue(
            f"eigenvalue with |real part| = {closest:.3e} within tolerance {tol:.3e}"
        )
    n_stable = int(np.sum(eigvals.real < 0))
    if n_stable != n:
        raise WrongSplitCount(f"stable subspace has dimension {n_stable}, expected {n}")
    _, U, sdim = scipy.linalg.schur(Z.astype(complex), output="complex", sort="lhp")
    if sdim != n:
        raise WrongSplitCount(f"ordered Schur selected {sdim} eigenvalues, expected {n}")
    basis = U[:, :n]
    return basis[:n, :], basis[n:, :]


def solve_care(
    A: np.ndarray, C: np.ndarray, V1: np.ndarray, V12: np.ndarray, V2: np.ndarray,
) -> KalmanDesign:
    """Stabilizing solution of the steady-state filter Riccati equation.

    Solves ``Abar Q + Q Abar^T - Q C^T V2^-1 C Q + V1 - V12 V2^-1 V12^T = 0``
    with ``Abar = A - V12 V2^-1 C`` through the stable invariant subspace of
    the associated Hamiltonian matrix, then forms the filter gain
    ``K = (Q C^T + V12) V2^-1``. The construction guarantees ``A - K C`` is
    Hurwitz whenever it succeeds.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    V1 = np.asarray(V1, dtype=float)
    V12 = np.asarray(V12, dtype=float)
    V2 = np.asarray(V2, dtype=float)
    V2_inv = np.linalg.inv(V2)
    Abar = A - V12 @ V2_inv @ C
    S = C.T @ V2_inv @ C
    Vbar = V1 - V12 @ V2_inv @ V12.T
    H = np.block([[Abar.T, -S], [-Vbar, -Abar]])
    try:
        X1, X2 = stable_subspace(H)
    except (ImaginaryAxisEigenvalue, WrongSplitCount) as exc:
        raise NoStabilizingSolution(f"Hamiltonian split failed: {exc}") from exc
    if np.linalg.cond(X1) > 1e12:
        raise NoStabilizingSolution("upper block of the stable basis is singular")
    try:
        Q = real_part_checked(X2 @ np.linalg.inv(X1))
    except (np.linalg.LinAlgError, NonRealResult) as exc:
        raise NoStabilizingSolution(str(exc)) from exc
    Q = (Q + Q.T) / 2.0
    K = (Q @ C.T + V12) @ V2_inv
    poles = np.linalg.eigvals(A - K @ C)
    if np.max(poles.real) >= 0.0:
        raise NoStabilizingSolution(
            f"filter pole with real part {np.max(poles.real):.3e} is not stable"
        )
    res = float(np.linalg.norm(Abar @ Q + Q @ Abar.T - Q @ S @ Q + Vbar))
    return KalmanDesign(Q=Q, K=K, residual_norm=res)


def solve_lyapunov(A_e: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Solve ``A_e P + P A_e^T + N = 0`` for Hurwitz ``A_e``.

    Desk-scale method: the equation is vectorized into a dense linear system
    (at most 256 unknowns for the dimensions this package handles).
    """
    A_e = np.asarray(A_e, dtype=float)
    N = np.asarray(N, dtype=float)
    n = A_e.shape[0]
    if A_e.shape != (n, n) or N.shape != (n, n):
        raise DomainError(f"shape mismatch: {A_e.shape} vs {N.shape}")
    eigvals = np.linalg.eigvals(A_e)
    tol = _axis_tolerance(eigvals)
    worst = np.max(eigvals.real)
    if worst >= -tol:
        raise NotHurwitz(f"eigenvalue real part {worst:.3e} is not below -{tol:.3e}")
    lhs = np.kron(np.eye(n), A_e) + np.kron(A_e, np.eye(n))
    P = np.linalg.solve(lhs, -N.flatten(order="F")).reshape((n, n), order="F")
    return (P + P.T) / 2.0


def integrate_covariance(
    A_e: np.ndarray,
    N: np.ndarray,
    P0: np.ndarray,
    horizon: float,
    step: float | None = None,
) -> np.ndarray:
    """Integrate ``dP/dt = A_e P + P A_e^T + N`` from ``P0`` to ``t = horizon``.

    Classic fixed-step fourth-order Runge-Kutta; the default step is
    ``horizon / 20000``. Independent of :func:`solve_lyapunov`, so the two can
    cross-validate each other. Divergence for unstable ``A_e`` is the caller's
    business.
    """
    A_e = np.asarray(A_e, dtype=float)
    N = np.asarray(N, dtype=float)
    P = np.array(P0, dtype=float)
    if horizon <= 0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    if step is None:
        step = horizon / 20000.0
    if not 0 < step < horizon:
        raise DomainError(f"step must lie in (0, horizon), got {step}")
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps

    def flow(P):
        return A_e @ P + P @ A_e.T + N

    for _ in range(n_steps):
        k1 = flow(P)
        k2 = flow(P + 0.5 * h * k1)
        k3 = flow(P + 0.5 * h * k2)
        k4 = flow(P + h * k3)
        P = P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return P
