"""Riccati, Lyapunov, and invariant-subspace solvers for small dense systems.

Everything here targets desk-scale problems (state dimensions up to ~16), so
the continuous Lyapunov equation is solved as a vectorized linear system. Both
Riccati equations of the package, the filter CARE behind every observer and
the skew Riccati equation of the state transformation, go through
:func:`riccati_solution`: the stable invariant subspace ``[X1; X2]`` of the
Hamiltonian matrix gives ``X = X2 X1^-1`` (the Schur method of Laub, IEEE TAC
1979). A fixed-step integrator for the covariance flow serves as an
independent cross-check of the Lyapunov route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DomainError,
    ImaginaryAxisEigenvalue,
    NoStabilizingSolution,
    NotHurwitz,
    QobsError,
    SingularX1,
    WrongSplitCount,
)
from .systems import COND_MAX, EIG_SPLIT_RTOL, real_part_checked

__all__ = [
    "KalmanDesign",
    "stable_subspace",
    "riccati_solution",
    "riccati_residual",
    "solve_care",
    "solve_lyapunov",
    "integrate_covariance",
]


def _axis_tolerance(eigvals: np.ndarray) -> float:
    return EIG_SPLIT_RTOL * (1.0 + np.max(np.abs(eigvals), initial=0.0))


@dataclass(frozen=True)
class KalmanDesign:
    """Steady-state Kalman filter data: covariance, gain, filter matrix, and Riccati residual.

    ``Q`` is the symmetric PSD stabilizing Riccati solution, ``K`` the filter
    gain, ``A_hat = A - K C`` the Hurwitz filter matrix, and ``residual_norm``
    the Frobenius norm of the Riccati residual at the returned ``Q``.
    """

    Q: np.ndarray
    K: np.ndarray
    A_hat: np.ndarray
    residual_norm: float


def stable_subspace(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis of the stable invariant subspace of a ``2n x 2n`` matrix.

    Returns ``(X1, X2)``, the top and bottom ``n x n`` blocks of an
    orthonormal basis of the invariant subspace for eigenvalues with negative
    real part, from one ordered complex Schur decomposition (robust under
    repeated eigenvalues, unlike raw eigenvectors) whose triangular factor
    also gives the eigenvalues.

    Raises :class:`ImaginaryAxisEigenvalue` if any eigenvalue is within
    tolerance of the imaginary axis, and :class:`WrongSplitCount` if the
    stable subspace does not have dimension ``n``.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or Z.shape[0] % 2:
        raise DomainError(f"expected a square even-dimensioned matrix, got {Z.shape}")
    n = Z.shape[0] // 2
    T, U, sdim = scipy.linalg.schur(Z.astype(complex), output="complex", sort="lhp")
    eigvals = np.diag(T)
    tol = _axis_tolerance(eigvals)
    closest = np.min(np.abs(eigvals.real))
    if closest <= tol:
        raise ImaginaryAxisEigenvalue(
            f"eigenvalue with |real part| = {closest:.3e} within tolerance {tol:.3e}"
        )
    if sdim != n:
        raise WrongSplitCount(f"stable subspace has dimension {sdim}, expected {n}")
    return U[:n, :n], U[n:, :n]


def riccati_solution(F: np.ndarray, B: np.ndarray, M: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Solution ``X`` of ``X B M B^T X - X F - F^T X - H = 0`` from its stable subspace.

    Takes the stable invariant subspace ``[X1; X2]`` of the Hamiltonian
    ``[[F, -B M B^T], [-H, -F^T]]`` and returns ``X = X2 X1^-1``, so that
    ``F - B M B^T X`` is Hurwitz. Raises what :func:`stable_subspace` raises,
    :class:`SingularX1` when ``cond(X1)`` exceeds ``COND_MAX``, and
    :class:`NonRealResult` when ``X`` is not real.
    """
    X1, X2 = stable_subspace(np.block([[F, -B @ M @ B.T], [-H, -F.T]]))
    if np.linalg.cond(X1) > COND_MAX:
        raise SingularX1("upper block of the stable basis is singular")
    return real_part_checked(X2 @ np.linalg.inv(X1))


def riccati_residual(
    F: np.ndarray, B: np.ndarray, M: np.ndarray, H: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """Residual ``X B M B^T X - X F - F^T X - H`` of the Riccati equation at ``X``."""
    return X @ B @ M @ B.T @ X - X @ F - F.T @ X - H


def solve_care(
    A: np.ndarray, C: np.ndarray, V1: np.ndarray, V12: np.ndarray, V2: np.ndarray,
) -> KalmanDesign:
    """Stabilizing solution of the steady-state filter Riccati equation.

    Solves ``Abar Q + Q Abar^T - Q C^T V2^-1 C Q + V1 - V12 V2^-1 V12^T = 0``
    with ``Abar = A - V12 V2^-1 C`` through :func:`riccati_solution` (with
    ``F = Abar^T``, ``B = C^T``, ``M = V2^-1``), then forms the filter gain
    ``K = (Q C^T + V12) V2^-1`` and the filter matrix ``A_hat = A - K C``,
    the one place that matrix is formed; the construction guarantees it is
    Hurwitz whenever it succeeds. Raises :class:`DomainError` when the
    measurement-noise intensity ``V2`` is not positive definite.
    """
    A, C, V1, V12, V2 = (np.asarray(M, dtype=float) for M in (A, C, V1, V12, V2))
    try:
        np.linalg.cholesky(V2)
    except np.linalg.LinAlgError:
        raise DomainError("measurement-noise intensity V2 is not positive definite") from None
    V2_inv = np.linalg.inv(V2)
    coefficients = ((A - V12 @ V2_inv @ C).T, C.T, V2_inv, V1 - V12 @ V2_inv @ V12.T)
    try:
        Q = riccati_solution(*coefficients)
    except (QobsError, np.linalg.LinAlgError) as exc:
        raise NoStabilizingSolution(f"{type(exc).__name__}: {exc}") from exc
    Q = (Q + Q.T) / 2.0
    K = (Q @ C.T + V12) @ V2_inv
    A_hat = A - K @ C
    poles = np.linalg.eigvals(A_hat)
    if np.max(poles.real) >= 0.0:
        raise NoStabilizingSolution(
            f"filter pole with real part {np.max(poles.real):.3e} is not stable"
        )
    res = float(np.linalg.norm(riccati_residual(*coefficients, Q)))
    return KalmanDesign(Q=Q, K=K, A_hat=A_hat, residual_norm=res)


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
