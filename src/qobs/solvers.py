"""Riccati, Lyapunov, and invariant-subspace solvers for small dense systems.

Everything here targets desk-scale problems (state dimensions up to ~16), so
the continuous Lyapunov equation is solved as a vectorized linear system. Both
Riccati equations of the package, the filter CARE behind every observer and
the skew Riccati equation of the state transformation, go through
:func:`_riccati_solutions`: the stable invariant subspace ``[X1; X2]`` of the
Hamiltonian matrix gives ``X = X2 X1^-1``. A fixed-step RK4 integrator for
the covariance flow, which composes its steps by powering the one-step map
with matrix products alone, serves as an independent cross-check of the
Lyapunov route.

The Riccati route is a stack routine: :func:`solve_care` takes a stack of
filter CAREs (one per plant, or per noise inflation; alg2's grid is one
such stack) and returns one outcome per slice, the :class:`KalmanDesign` or
the typed error that the slice alone raises; a single call is the stack of
one. One ``np.linalg.eig`` call takes the basis of every slice from the
eigenvectors (Potter, SIAM J. Appl. Math. 1966), and every check runs per
slice. Only a slice that fails a check goes through the ordered Schur
decomposition (the Schur method of Laub, IEEE TAC 1979), one
:func:`stable_subspace` call per slice, and that route decides the slice;
either route's ``X`` must pass one residual check. Every other step is one
batched numpy call, whose slices have the bytes they have alone, so no
slice makes the stack raise. :func:`solve_lyapunov` is likewise
:func:`_solve_lyapunov_stack` on a stack of one.
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
    single_outcome,
)
from .systems import (
    CHECK_RTOL,
    COND_MAX,
    EIG_SPLIT_RTOL,
    _nonreal_slices,
)

__all__ = [
    "KalmanDesign",
    "stable_subspace",
    "riccati_residual",
    "solve_care",
    "solve_lyapunov",
    "integrate_covariance",
]


#: bytes of one chunk of _solve_lyapunov_stack's Kronecker operators; the linear solve copies
#: the chunk once more, so about twice this is live at a time
KRON_CHUNK_BYTES = 1 << 19


def _axis_tolerance(eigvals: np.ndarray) -> float | np.ndarray:
    """Distance from the imaginary axis that counts as on it; per slice for a stack of spectra."""
    return EIG_SPLIT_RTOL * (1.0 + np.abs(eigvals).max(axis=-1, initial=0.0))


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
    real part, from one ordered complex Schur decomposition,
    ``scipy.linalg.schur(Z, output="complex", sort="lhp")`` (robust under
    repeated eigenvalues, unlike raw eigenvectors), whose triangular factor
    also gives the eigenvalues.

    Raises :class:`DomainError` for a matrix that is not square, even and
    finite, :class:`ImaginaryAxisEigenvalue` if any eigenvalue is within
    tolerance of the imaginary axis, and :class:`WrongSplitCount` if the
    stable subspace does not have dimension ``n``; the ``LinAlgError`` or
    ``ValueError`` of a failed decomposition passes through.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or Z.shape[0] % 2:
        raise DomainError(f"expected a square even-dimensioned matrix, got {Z.shape}")
    if not np.isfinite(Z).all():
        raise DomainError("array must not contain infs or NaNs")
    T, U, sdim = scipy.linalg.schur(Z, output="complex", sort="lhp")
    n = len(Z) // 2
    eigvals = T.diagonal()
    closest, tol = np.abs(eigvals.real).min(initial=np.inf), _axis_tolerance(eigvals)
    if closest <= tol:
        raise ImaginaryAxisEigenvalue(f"eigenvalue with |real part| = {closest:.3e} within tolerance {tol:.3e}")
    if sdim != n:
        raise WrongSplitCount(f"stable subspace has dimension {sdim}, expected {n}")
    return U[:n, :n], U[n:, :n]


def _hamiltonian(F, B, M, H) -> tuple[np.ndarray, np.ndarray]:
    """Per slice, ``Z = [[F, -G], [-H, -F^T]]`` and ``G = B M B^T`` of ``X G X - X F - F^T X - H = 0``."""
    G = B @ M @ B.swapaxes(-1, -2)
    n = F.shape[-1]
    Z = np.empty((max(len(F), len(G), len(H)), 2 * n, 2 * n))
    Z[:, :n, :n], Z[:, :n, n:], Z[:, n:, :n], Z[:, n:, n:] = F, -G, -H, -F.swapaxes(-1, -2)
    return Z, G


def _residual_failures(X, F, G, H, H_scale) -> dict:
    """``{slice: NoStabilizingSolution}`` for the slices of a stack of Riccati solutions whose residual is too large.

    ``X`` passes when its residual ``X G X - X F - F^T X - H`` is finite and
    its norm at most ``CHECK_RTOL (||X G X|| + 2 ||X F|| + H_scale)``, where
    ``H_scale`` is the caller's norm of the terms ``H`` is formed from, so
    that the scale does not cancel where ``H`` does. The coefficient stacks
    and ``H_scale`` may have one slice for all.
    """
    XGX, XF = X @ G @ X, X @ F
    residual = np.linalg.norm(XGX - XF - F.swapaxes(-1, -2) @ X - H, axis=(-2, -1))
    bound = CHECK_RTOL * (np.linalg.norm(XGX, axis=(-2, -1)) + 2.0 * np.linalg.norm(XF, axis=(-2, -1)) + H_scale)
    return {
        i: NoStabilizingSolution(f"Riccati residual {residual[i]:.3e} exceeds its bound {bound[i]:.3e}")
        for i in np.flatnonzero(~(np.isfinite(residual) & (residual <= bound)))
    }


def _schur_solutions(Z: np.ndarray) -> tuple[np.ndarray, list]:
    """``X = X2 X1^-1`` from the ordered Schur basis of each Hamiltonian of a stack: ``(X, errors)``.

    Each slice goes through :func:`stable_subspace`; ``errors`` holds per
    slice ``None`` or the typed error: what :func:`stable_subspace` raises
    (the untyped error of a failed decomposition included),
    :class:`SingularX1` when ``cond(X1)`` exceeds ``COND_MAX``, and
    :class:`NonRealResult` when ``X`` is not real. The ``X`` of a failed
    slice is meaningless.
    """
    m, n = len(Z), Z.shape[-1] // 2
    X1 = np.tile(np.eye(n, dtype=complex), (m, 1, 1))  # I on a failed slice, so that the others can be inverted
    X2 = np.zeros((m, n, n), dtype=complex)
    errors: list = [None] * m
    for i in range(m):
        try:
            X1[i], X2[i] = stable_subspace(Z[i])
        except (QobsError, np.linalg.LinAlgError, ValueError) as exc:
            errors[i] = exc
    for i in np.flatnonzero(np.linalg.cond(X1) > COND_MAX):
        errors[i], X1[i] = SingularX1("upper block of the stable basis is singular"), np.eye(n)
    X = X2 @ np.linalg.inv(X1)
    for i, error in enumerate(_nonreal_slices(X)):
        errors[i] = errors[i] or error
    return X.real, errors


@np.errstate(all="ignore")  # a slice that overflows is refused by the checks, without a warning
def _riccati_solutions(F, B, M, H, H_scale) -> tuple[np.ndarray, list]:
    """Solution ``X`` of ``X G X - X F - F^T X - H = 0``, ``G = B M B^T``, per slice of stacked coefficients.

    Returns ``(X, errors)``. The stable invariant subspace ``[X1; X2]`` of
    the Hamiltonian (:func:`_hamiltonian`) gives ``X = X2 X1^-1``, so that
    ``F - G X`` is Hurwitz. One ``np.linalg.eig`` call on the whole stack
    takes that basis as the eigenvectors of the ``n`` eigenvalues of least
    real part (Potter, SIAM J. Appl. Math. 1966). A slice keeps that ``X``
    if it passes every check: its Hamiltonian is finite, no eigenvalue is
    within :func:`_axis_tolerance` of the imaginary axis, exactly ``n`` are
    stable, ``cond(X1) <= COND_MAX``, ``X`` is real by
    :func:`_nonreal_slices`, and it passes :func:`_residual_failures`, with
    ``H_scale`` the caller's per-slice norm of the terms ``H`` is formed
    from. Every other slice, the non-finite ones as given, goes through the
    ordered Schur basis of :func:`_schur_solutions` (Laub, IEEE TAC 1979),
    which copes with defective and nearly repeated eigenvalues; its ``X``
    must pass the same residual check. ``errors`` holds per slice ``None``
    or the typed error of that route; the ``X`` of a failed slice is
    meaningless.
    """
    Z, G = _hamiltonian(F, B, M, H)
    n = F.shape[-1]
    finite = np.isfinite(Z).all(axis=(-2, -1))
    try:
        eigvals, V = np.linalg.eig(np.where(finite[:, None, None], Z, 0.0))  # a non-finite slice makes eig raise
    except np.linalg.LinAlgError:  # geev did not converge on a slice: the Schur route decides every slice
        eigvals, V = np.full(Z.shape[:-1], np.nan), np.zeros(Z.shape)
    # complex even where the whole stack's spectrum is real, so that a slice has the bytes it has alone
    U = np.take_along_axis(V.astype(complex), np.argsort(eigvals.real, axis=-1)[:, None, :n], axis=-1)
    X1 = U[:, :n]
    ok = finite & (np.abs(eigvals.real).min(axis=-1) > _axis_tolerance(eigvals))
    ok &= ((eigvals.real < 0.0).sum(axis=-1) == n) & (np.linalg.cond(X1) <= COND_MAX)
    X1[~ok] = np.eye(n)  # so that the other slices can be inverted
    X = U[:, n:] @ np.linalg.inv(X1)
    ok &= np.array([error is None for error in _nonreal_slices(X)])
    X = np.ascontiguousarray(X.real)
    ok[list(_residual_failures(X, F, G, H, H_scale))] = False
    errors: list = [None] * len(Z)
    redo = np.flatnonzero(~ok)
    if redo.size:
        X[redo], schur_errors = _schur_solutions(Z[redo])
        failures = _residual_failures(X[redo], *(S if len(S) == 1 else S[redo] for S in (F, G, H, H_scale)))
        for j, (i, error) in enumerate(zip(redo, schur_errors)):
            errors[i] = error or failures.get(j)
    return X, errors


def riccati_residual(F: np.ndarray, B: np.ndarray, M: np.ndarray, H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Residual ``X B M B^T X - X F - F^T X - H`` of the Riccati equation at ``X``; any operand may be a stack."""
    return X @ B @ M @ np.swapaxes(B, -1, -2) @ X - X @ F - np.swapaxes(F, -1, -2) @ X - H


def _care_coefficients(A, C, V1, V12, V2_inv):
    """``(F, B, M, H)`` of the filter CARE as :func:`_riccati_solutions` takes them; any operand may be a stack."""
    return (
        (A - V12 @ V2_inv @ C).swapaxes(-1, -2),
        C.swapaxes(-1, -2),
        V2_inv,
        V1 - V12 @ V2_inv @ V12.swapaxes(-1, -2),
    )


@np.errstate(all="ignore")  # a slice that overflows is refused by the checks, without a warning
def _filter_cares(A, C, V1, V12, V2) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple, list]:
    """The body of :func:`solve_care` for stacks of arguments.

    The checks of the inputs and of ``V2``, the coefficients, ``Q`` from
    :func:`_riccati_solutions`, ``K`` and ``A_hat = A - K C`` (formed nowhere
    else). Returns ``(Q, K, A_hat, coefficients, errors)``, one slice per
    equation but for the coefficients ``(F, B, M, H)``, whose stacks may
    have one slice for all; ``errors`` holds per slice ``None`` or the typed
    error of :func:`solve_care` but for its stability rule
    (:func:`_unstable_filters`), which the caller applies. The arrays of a
    failed slice are meaningless.
    """
    A, C, V1, V12, V2 = (M if M.ndim == 3 else M[None] for M in (A, C, V1, V12, V2))
    m, p = max(len(M) for M in (A, C, V1, V12, V2)), C.shape[-2]
    errors: list = [None] * m

    def refuse(message: str, *stacks: np.ndarray, error: type = DomainError) -> None:
        """Give each slice where ``stacks`` are not finite, and that has no error yet, ``error(message)``."""
        finite = np.ones(m, dtype=bool)
        for S in stacks:
            finite &= np.isfinite(S).all(axis=(-2, -1))
        for i in np.flatnonzero(~finite):
            errors[i] = errors[i] or error(message)

    try:
        np.linalg.cholesky(V2)
    except np.linalg.LinAlgError:
        V2 = np.broadcast_to(V2, (m, p, p)).copy()
        for i in range(m):
            try:
                np.linalg.cholesky(V2[i])
            except np.linalg.LinAlgError:
                errors[i] = errors[i] or DomainError("measurement-noise intensity V2 is not positive definite")
                V2[i] = np.eye(p)  # so that the other slices can be inverted
    V2_inv = np.linalg.inv(V2)
    coefficients = F, _, _, H = _care_coefficients(A, C, V1, V12, V2_inv)
    if not (np.isfinite(V2_inv).all() and np.isfinite(F).all() and np.isfinite(H).all()):
        for name, M in zip(("A", "C", "V1", "V12", "V2"), (A, C, V1, V12, V2)):  # each reaches F, H or V2^-1
            refuse(f"{name} is not finite", M)
        refuse("measurement-noise intensity V2 is too near singular to invert in floating point", V2_inv, F, H)
    # H = V1 - V12 V2^-1 V12^T cancels where all the noise reaches the output, its two terms do not
    H_scale = np.linalg.norm(V1, axis=(-2, -1)) + np.linalg.norm(V12 @ V2_inv @ V12.swapaxes(-1, -2), axis=(-2, -1))
    X, solution_errors = _riccati_solutions(*coefficients, H_scale)  # the slices refused so far carry junk, which it flags
    for i, exc in enumerate(solution_errors):
        if errors[i] is None and exc is not None:
            errors[i] = NoStabilizingSolution(f"{type(exc).__name__}: {exc}")
            errors[i].__cause__ = exc
    Q = (X + X.swapaxes(-1, -2)) / 2.0
    K = (Q @ C.swapaxes(-1, -2) + V12) @ V2_inv
    A_hat = A - K @ C
    if not np.isfinite(A_hat).all():
        refuse("filter matrix is not finite", A_hat, error=NoStabilizingSolution)
    return Q, K, A_hat, coefficients, errors


def _unstable_filters(eigvals: np.ndarray) -> list:
    """Per filter spectrum of a stack: ``None``, or :class:`NoStabilizingSolution` for a pole not left of the axis."""
    return [
        None if worst < 0.0 else NoStabilizingSolution(f"filter pole with real part {worst:.3e} is not stable")
        for worst in eigvals.real.max(axis=-1)
    ]


def solve_care(
    A: np.ndarray, C: np.ndarray, V1: np.ndarray, V12: np.ndarray, V2: np.ndarray,
) -> KalmanDesign | list:
    """Stabilizing solution of the steady-state filter Riccati equation.

    Solves ``Abar Q + Q Abar^T - Q C^T V2^-1 C Q + V1 - V12 V2^-1 V12^T = 0``
    with ``Abar = A - V12 V2^-1 C`` through :func:`_riccati_solutions` (with
    ``F = Abar^T``, ``B = C^T``, ``M = V2^-1``), then forms the filter gain
    ``K = (Q C^T + V12) V2^-1`` and the Hurwitz filter matrix ``A_hat = A -
    K C``, all in :func:`_filter_cares`, and the norm of the Riccati
    residual at ``Q`` of each slice it returns. Raises :class:`DomainError` for
    mismatched shapes, a non-finite input, or a measurement-noise intensity
    ``V2`` that is not positive definite or too near singular to invert, and
    :class:`NoStabilizingSolution` when the Riccati equation has no
    stabilizing solution.

    Any argument may be a stack of ``m`` equations, with a leading axis that
    the others broadcast against. The call then returns a list of ``m``
    outcomes, each the slice's :class:`KalmanDesign` or the typed error that
    the call on that slice alone raises, and raises only for mismatched
    shapes. A single call is the stack of one: only the Schur decomposition
    runs slice by slice, and numpy's batched routines give each slice the
    bytes it has alone.
    """
    args = [np.asarray(M, dtype=float) for M in (A, C, V1, V12, V2)]
    n, p = (M.shape[-2] if M.ndim > 1 else -1 for M in args[:2])
    shapes = [M.shape[-2:] if M.ndim in (2, 3) else M.shape for M in args]
    if shapes != [(n, n), (p, n), (n, n), (n, p), (p, p)] or len({len(M) for M in args if M.ndim == 3} - {1}) > 1:
        shapes = [M.shape for M in args]
        raise DomainError(f"A, C, V1, V12, V2 must be (n, n), (p, n), (n, n), (n, p), (p, p) or stacks, got {shapes}")
    Q, K, A_hat, coefficients, outcomes = _filter_cares(*args)
    live = [i for i, outcome in enumerate(outcomes) if outcome is None]
    for i, error in zip(live, _unstable_filters(np.linalg.eigvals(A_hat[live]))):
        outcomes[i] = error
    kept = [i for i in live if outcomes[i] is None]
    if len(kept) < len(outcomes):  # the residual is formed for the kept slices only
        Q, K, A_hat = Q[kept], K[kept], A_hat[kept]
        coefficients = tuple(M if len(M) == 1 else M[kept] for M in coefficients)
    residual_norm = np.linalg.norm(riccati_residual(*coefficients, Q), axis=(-2, -1))
    for j, i in enumerate(kept):
        outcomes[i] = KalmanDesign(Q=Q[j], K=K[j], A_hat=A_hat[j], residual_norm=float(residual_norm[j]))
    return single_outcome(outcomes) if all(M.ndim == 2 for M in args) else outcomes


def solve_lyapunov(A_e: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Solve ``A_e P + P A_e^T + N = 0`` for Hurwitz ``A_e``.

    Desk-scale method: the equation is vectorized into a dense linear system
    (at most 256 unknowns for the dimensions this package handles), the one
    of :func:`_solve_lyapunov_stack` for a stack of one. Raises
    :class:`DomainError` for mismatched shapes or non-finite entries, and
    :class:`NotHurwitz` as :func:`_not_hurwitz` decides it.
    """
    A_e = np.asarray(A_e, dtype=float)
    N = np.asarray(N, dtype=float)
    n = A_e.shape[0]
    if A_e.shape != (n, n) or N.shape != (n, n):
        raise DomainError(f"shape mismatch: {A_e.shape} vs {N.shape}")
    if not (np.isfinite(A_e).all() and np.isfinite(N).all()):
        raise DomainError("A_e and N must be finite")
    (error,) = _not_hurwitz(np.linalg.eigvals(A_e[None]))
    if error is not None:
        raise error
    return _solve_lyapunov_stack(A_e[None], N[None])[0]


def _not_hurwitz(eigvals: np.ndarray) -> list:
    """Per spectrum of a stack: ``None``, or :class:`NotHurwitz` if an eigenvalue is not left of the axis tolerance."""
    tol = _axis_tolerance(eigvals)
    worst = eigvals.real.max(axis=-1)
    return [
        NotHurwitz(f"eigenvalue real part {w:.3e} is not below -{t:.3e}") if w >= -t else None
        for w, t in zip(worst, tol)
    ]


def _solve_lyapunov_stack(A_e: np.ndarray, N: np.ndarray) -> np.ndarray:
    """:func:`solve_lyapunov` for a stack of Hurwitz ``A_e``, whose caller has checked them.

    Each equation is vectorized (column-major ``vec(P)``) into the system
    ``(I (x) A_e + A_e (x) I) vec(P) = -vec(N)``. The systems are solved in
    chunks whose Kronecker operators take at most ``KRON_CHUNK_BYTES``
    together, so memory stays flat in the stack's length.
    """
    A_e = np.asarray(A_e, dtype=float)
    N = np.asarray(N, dtype=float)
    m, n = A_e.shape[0], A_e.shape[-1]
    chunk = max(1, KRON_CHUNK_BYTES // (8 * n**4))
    P = np.empty((m, n, n))
    for start in range(0, m, chunk):
        A = A_e[start : start + chunk]
        lhs = np.zeros((A.shape[0], n, n, n, n))  # rows (j, a), columns (k, b) of the vec(P) index j n + a
        for i in range(n):
            lhs[:, i, :, i, :] += A  # I (x) A_e
            lhs[:, :, i, :, i] += A  # A_e (x) I
        rhs = -np.swapaxes(N[start : start + chunk], -1, -2).reshape(-1, n * n, 1)  # vec(N), column-major
        p = np.linalg.solve(lhs.reshape(-1, n * n, n * n), rhs)
        P[start : start + chunk] = np.swapaxes(p.reshape(-1, n, n), -1, -2)
    return (P + np.swapaxes(P, -1, -2)) / 2.0


def integrate_covariance(
    A_e: np.ndarray,
    N: np.ndarray,
    P0: np.ndarray,
    horizon: float,
    step: float | None = None,
) -> np.ndarray:
    """Integrate ``dP/dt = A_e P + P A_e^T + N`` from ``P0`` to ``t = horizon``.

    Classic fixed-step fourth-order Runge-Kutta: ``n_steps = round(horizon /
    step)`` steps of ``h = horizon / n_steps``, by default ``step = horizon /
    20000``. On ``p = vec(P)`` (column-major) one step is the fixed affine map
    ``p -> R p + r``, with ``L = I (x) A_e + A_e (x) I``, ``S = I + hL/2 +
    (hL)^2/6 + (hL)^3/24``, ``R = I + hL S`` and ``r = h S vec(N)``. The
    ``n_steps`` steps are the power ``n_steps`` of ``[[R, r], [0, 1]]``, taken
    by binary powering (about ``log2(n_steps)`` squarings) and applied to
    ``[vec(P0); 1]``: the step loop's discretization, not the exact
    exponential of the flow. It uses matrix products only, no linear solve, so
    it stays independent of :func:`solve_lyapunov` and the two cross-validate
    each other. Malformed or non-finite inputs raise :class:`DomainError`;
    divergence from finite ones (unstable ``A_e``, or a step beyond RK4's
    stability bound) is the caller's business.
    """
    A_e, N, P0 = (np.asarray(M, dtype=float) for M in (A_e, N, P0))
    n = A_e.shape[0] if A_e.ndim == 2 else -1
    if any(M.shape != (n, n) or not np.isfinite(M).all() for M in (A_e, N, P0)):
        raise DomainError(f"A_e, N, P0 must be finite n x n matrices, got {A_e.shape}, {N.shape}, {P0.shape}")
    if not horizon > 0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    if step is None:
        step = horizon / 20000.0
    if not 0 < step < horizon or not np.isfinite(horizon / step):
        raise DomainError(f"step must lie in (0, horizon) and give a finite step count, got {step} for {horizon}")
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps

    m = n * n
    eye = np.eye(m)
    hL = h * (np.kron(np.eye(n), A_e) + np.kron(A_e, np.eye(n)))
    S = eye + hL @ (eye + hL @ (eye + hL / 4.0) / 3.0) / 2.0
    r = h * S @ N.T.reshape(m, 1)  # vec(N), column-major
    M = np.block([[eye + hL @ S, r], [np.zeros((1, m)), np.ones((1, 1))]])
    v = np.append(P0.T.reshape(m), 1.0)
    while True:
        if n_steps & 1:
            v = M @ v
        n_steps >>= 1
        if not n_steps:
            return v[:m].reshape(n, n).T
        M = M @ M
