"""Riccati, Lyapunov, and invariant-subspace solvers for small dense systems.

Everything here targets desk-scale problems (state dimensions up to ~16), so
the continuous Lyapunov equation is solved as a vectorized linear system. Both
Riccati equations of the package, the filter CARE behind every observer and
the skew Riccati equation of the state transformation, go through
:func:`riccati_solution`: the stable invariant subspace ``[X1; X2]`` of the
Hamiltonian matrix gives ``X = X2 X1^-1`` (the Schur method of Laub, IEEE TAC
1979). A fixed-step RK4 integrator for the covariance flow, which composes
its steps by powering the one-step map with matrix products alone, serves
as an independent cross-check of the Lyapunov route.

The Schur route is a stack routine: :func:`solve_care` takes a stack of
filter CAREs (one per plant, or per noise inflation) and returns one outcome
per slice, the :class:`KalmanDesign` or the typed error that the slice alone
raises; a single call is the stack of one. Only the Schur decomposition runs
slice by slice (:func:`_stable_subspaces`), as one direct LAPACK ``gees``
call per slice, the one ``scipy.linalg.schur`` makes, without that
wrapper's per-call checks and workspace query; every other step is one
batched numpy call, whose slices have the bytes they have alone, and every
check runs per slice, so no slice makes the stack raise.
:func:`solve_lyapunov` is likewise :func:`_solve_lyapunov_stack` on a stack
of one.

:func:`_solve_care_stack` scores many candidate filters at once for alg2's
grid, one slice per ``(plant, rho)`` of all the plants a design runs on.
There the matrix sign function with determinant scaling (Roberts, Int. J.
Control 1980; Byers, Linear Algebra Appl. 1987) replaces the Schur
decomposition. Each slice carries the Schur route's checks, and a slice
that fails one is flagged for the caller to solve through
:func:`solve_care`, so that routine decides no failure either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (
    DomainError,
    ImaginaryAxisEigenvalue,
    NoStabilizingSolution,
    NotHurwitz,
    SingularX1,
    WrongSplitCount,
    single_outcome,
)
from .systems import (
    CHECK_RTOL,
    COND_MAX,
    EIG_SPLIT_RTOL,
    SIGN_COND_MAX,
    SIGN_MAX_ITER,
    SIGN_RTOL,
    _nonreal_slices,
)

__all__ = [
    "KalmanDesign",
    "stable_subspace",
    "riccati_solution",
    "riccati_residual",
    "solve_care",
    "solve_lyapunov",
    "integrate_covariance",
]


#: bytes of one chunk of _solve_lyapunov_stack's Kronecker operators; the linear solve copies
#: the chunk once more, so about twice this is live at a time
KRON_CHUNK_BYTES = 1 << 19

#: LAPACK's complex Schur decomposition (zgees), as scipy.linalg.schur resolves it for complex input
(_GEES,) = get_lapack_funcs(("gees",), (np.zeros((1, 1), dtype=complex),))
_GEES_LWORK: dict[int, int] = {}


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
    real part, from one ordered complex Schur decomposition (robust under
    repeated eigenvalues, unlike raw eigenvectors) whose triangular factor
    also gives the eigenvalues. The stack routine :func:`_stable_subspaces`
    on a stack of one.

    Raises :class:`ImaginaryAxisEigenvalue` if any eigenvalue is within
    tolerance of the imaginary axis, and :class:`WrongSplitCount` if the
    stable subspace does not have dimension ``n``.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or Z.shape[0] % 2:
        raise DomainError(f"expected a square even-dimensioned matrix, got {Z.shape}")
    X1, X2, (error,) = _stable_subspaces(Z[None])
    if error is not None:
        raise error
    return X1[0], X2[0]


def _lhp(eigval: complex) -> bool:
    """``gees``'s selection of the leading eigenvalues: those in the open left half plane."""
    return eigval.real < 0.0


def _gees_lwork(dim: int) -> int:
    """``gees``'s optimal workspace for ``dim x dim`` matrices, queried once per dimension."""
    if dim not in _GEES_LWORK:
        work = _GEES(lambda x: None, np.zeros((dim, dim), dtype=complex), lwork=-1)[-2]
        _GEES_LWORK[dim] = work[0].real.astype(np.int_)
    return _GEES_LWORK[dim]


def _gees_error(info: int, dim: int) -> Exception | None:
    """The error ``scipy.linalg.schur`` raises for ``gees``'s ``info`` on a ``dim x dim`` matrix, or ``None``."""
    if info < 0:
        return ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info == dim + 1:
        return np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    if info == dim + 2:
        return np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
    if info > 0:
        return np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return None


def _stable_subspaces(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """:func:`stable_subspace` for each slice of a stack: ``(X1, X2, errors)``.

    The ordered complex Schur decomposition runs slice by slice, as one
    LAPACK ``gees`` call each: the call ``scipy.linalg.schur(..., output=
    "complex", sort="lhp")`` makes, with its workspace queried once per
    dimension, so it gives the same ``T``, ``U`` and ``sdim``. The checks run
    on the whole stack. ``errors`` holds per slice ``None`` or what
    :func:`stable_subspace` would raise (the ``LinAlgError`` or ``ValueError``
    that ``scipy.linalg.schur`` raises for the slice included); the blocks of
    a failed slice are meaningless.
    """
    m, dim = Z.shape[0], Z.shape[-1]
    n = dim // 2
    Z = Z.astype(complex)
    U = np.zeros(Z.shape, dtype=complex)
    eigvals = np.zeros(Z.shape[:-1], dtype=complex)
    sdim = [n] * m
    errors: list = [None] * m
    finite = np.isfinite(Z).all(axis=(-2, -1))
    lwork = _gees_lwork(dim)
    for i in range(m):
        if not finite[i]:
            errors[i] = ValueError("array must not contain infs or NaNs")
            continue
        T, sdim[i], _, vs, _, info = _GEES(_lhp, Z[i], lwork=lwork, sort_t=1)
        errors[i] = _gees_error(info, dim)
        if errors[i] is None:
            U[i], eigvals[i] = vs, T.diagonal()
    tol = _axis_tolerance(eigvals)
    closest = np.abs(eigvals.real).min(axis=-1)
    for i in range(m):
        if errors[i] is not None:
            continue
        if closest[i] <= tol[i]:
            errors[i] = ImaginaryAxisEigenvalue(
                f"eigenvalue with |real part| = {closest[i]:.3e} within tolerance {tol[i]:.3e}"
            )
        elif sdim[i] != n:
            errors[i] = WrongSplitCount(f"stable subspace has dimension {sdim[i]}, expected {n}")
    return U[:, :n, :n], U[:, n:, :n], errors


def riccati_solution(F: np.ndarray, B: np.ndarray, M: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Solution ``X`` of ``X B M B^T X - X F - F^T X - H = 0`` from its stable subspace.

    Takes the stable invariant subspace ``[X1; X2]`` of the Hamiltonian
    ``[[F, -B M B^T], [-H, -F^T]]`` and returns ``X = X2 X1^-1``, so that
    ``F - B M B^T X`` is Hurwitz. Raises what :func:`stable_subspace` raises,
    :class:`SingularX1` when ``cond(X1)`` exceeds ``COND_MAX``, and
    :class:`NonRealResult` when ``X`` is not real. The stack routine
    :func:`_riccati_solutions` on a stack of one.
    """
    X, (error,) = _riccati_solutions(*(np.asarray(C, dtype=float)[None] for C in (F, B, M, H)))
    if error is not None:
        raise error
    return X[0]


def _riccati_solutions(F, B, M, H) -> tuple[np.ndarray, list]:
    """:func:`riccati_solution` for each slice of stacks of coefficients: ``(X, errors)``.

    ``errors`` holds per slice ``None`` or what :func:`riccati_solution`
    would raise; the ``X`` of a failed slice is meaningless.
    """
    G = B @ M @ B.swapaxes(-1, -2)
    n = F.shape[-1]
    Z = np.empty((max(len(F), len(G), len(H)), 2 * n, 2 * n))
    Z[:, :n, :n], Z[:, :n, n:], Z[:, n:, :n], Z[:, n:, n:] = F, -G, -H, -F.swapaxes(-1, -2)
    X1, X2, errors = _stable_subspaces(Z)
    cond = np.linalg.cond(X1)
    singular = [i for i, error in enumerate(errors) if error is not None or cond[i] > COND_MAX]
    for i in singular:
        if errors[i] is None:
            errors[i] = SingularX1("upper block of the stable basis is singular")
    if singular:
        X1[singular] = np.eye(n)  # so that the other slices can be inverted
    X = X2 @ np.linalg.inv(X1)
    for i, error in enumerate(_nonreal_slices(X)):
        if errors[i] is None:
            errors[i] = error
    return np.ascontiguousarray(X.real), errors


def riccati_residual(
    F: np.ndarray, B: np.ndarray, M: np.ndarray, H: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """Residual ``X B M B^T X - X F - F^T X - H`` of the Riccati equation at ``X``; any operand may be a stack."""
    return X @ B @ M @ np.swapaxes(B, -1, -2) @ X - X @ F - np.swapaxes(F, -1, -2) @ X - H


def _care_coefficients(A, C, V1, V12, V2_inv):
    """``(F, B, M, H)`` of the filter CARE as :func:`riccati_solution` takes them; any operand may be a stack."""
    return (
        (A - V12 @ V2_inv @ C).swapaxes(-1, -2),
        C.swapaxes(-1, -2),
        V2_inv,
        V1 - V12 @ V2_inv @ V12.swapaxes(-1, -2),
    )


def solve_care(
    A: np.ndarray, C: np.ndarray, V1: np.ndarray, V12: np.ndarray, V2: np.ndarray,
) -> KalmanDesign | list:
    """Stabilizing solution of the steady-state filter Riccati equation.

    Solves ``Abar Q + Q Abar^T - Q C^T V2^-1 C Q + V1 - V12 V2^-1 V12^T = 0``
    with ``Abar = A - V12 V2^-1 C`` through :func:`riccati_solution` (with
    ``F = Abar^T``, ``B = C^T``, ``M = V2^-1``), then forms the filter gain
    ``K = (Q C^T + V12) V2^-1`` and the filter matrix ``A_hat = A - K C``,
    the one place that matrix is formed; the construction guarantees it is
    Hurwitz whenever it succeeds. Raises :class:`DomainError` when the
    measurement-noise intensity ``V2`` is not positive definite, or its
    inverse or the coefficients built from it are not finite, and
    :class:`NoStabilizingSolution` when the Riccati equation has no
    stabilizing solution.

    Any argument may be a stack of ``m`` equations, with a leading axis that
    the others broadcast against. The call then returns a list of ``m``
    outcomes, each the slice's :class:`KalmanDesign` or the typed error that
    the call on that slice alone raises, and raises none itself. A single
    call is the stack of one: only the Schur decomposition runs slice by
    slice, and numpy's batched routines give each slice the bytes it has
    alone.
    """
    args = [np.asarray(M, dtype=float) for M in (A, C, V1, V12, V2)]
    single = all(M.ndim == 2 for M in args)
    A, C, V1, V12, V2 = (M if M.ndim == 3 else M[None] for M in args)
    m = max(len(M) for M in (A, C, V1, V12, V2))
    outcomes: list = [None] * m
    try:
        np.linalg.cholesky(V2)
    except np.linalg.LinAlgError:
        V2 = np.broadcast_to(V2, (m, *V2.shape[1:])).copy()
        for i in range(m):
            try:
                np.linalg.cholesky(V2[i])
            except np.linalg.LinAlgError:
                outcomes[i] = DomainError("measurement-noise intensity V2 is not positive definite")
                V2[i] = np.eye(V2.shape[-1])  # so that the other slices can be inverted
    V2_inv = np.linalg.inv(V2)
    coefficients = F, _, _, H = _care_coefficients(A, C, V1, V12, V2_inv)
    if not (np.isfinite(V2_inv).all() and np.isfinite(F).all() and np.isfinite(H).all()):
        finite = np.isfinite(V2_inv).all(axis=(-2, -1)) & np.isfinite(F).all(axis=(-2, -1))
        finite &= np.isfinite(H).all(axis=(-2, -1))
        for i in np.flatnonzero(~np.broadcast_to(finite, (m,))):
            outcomes[i] = outcomes[i] or DomainError(
                "measurement-noise intensity V2 is too near singular to invert in floating point"
            )
    live = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if not live:
        return single_outcome(outcomes) if single else outcomes
    if len(live) < m:
        A, C, V12, V2_inv, *coefficients = (
            np.broadcast_to(X, (m, *X.shape[1:]))[live] for X in (A, C, V12, V2_inv, *coefficients)
        )
    Q, riccati_errors = _riccati_solutions(*coefficients)
    Q = (Q + Q.swapaxes(-1, -2)) / 2.0
    K = (Q @ C.swapaxes(-1, -2) + V12) @ V2_inv
    A_hat = A - K @ C
    finite = np.isfinite(A_hat).all(axis=(-2, -1))
    worst = np.full(len(live), np.nan)  # a non-finite filter matrix is not stable either
    worst[finite] = np.linalg.eigvals(A_hat[finite]).real.max(axis=-1)
    residual = riccati_residual(*coefficients, Q)
    for j, i in enumerate(live):
        exc = riccati_errors[j]
        if exc is not None:
            outcomes[i] = NoStabilizingSolution(f"{type(exc).__name__}: {exc}")
            outcomes[i].__cause__ = exc
        elif not worst[j] < 0.0:
            outcomes[i] = NoStabilizingSolution(f"filter pole with real part {worst[j]:.3e} is not stable")
        else:
            res = float(np.linalg.norm(residual[j]))
            outcomes[i] = KalmanDesign(Q=Q[j], K=K[j], A_hat=A_hat[j], residual_norm=res)
    return single_outcome(outcomes) if single else outcomes


def _sign_stack(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix sign of each slice of a stack, and which slices converged.

    Newton's iteration ``Z <- (c Z + (c Z)^-1) / 2`` with the determinant
    scaling ``c = |det Z|^(-1/N)`` for ``N x N`` slices. A slice has converged
    when a step moves it by at most ``SIGN_RTOL`` relative to its 1-norm; one
    that is singular, or not converged after ``SIGN_MAX_ITER`` steps, is not.
    An eigenvalue on the imaginary axis keeps a slice from converging.
    """
    W = Z.copy()
    N = Z.shape[-1]
    live = np.arange(Z.shape[0])
    converged = np.zeros(Z.shape[0], dtype=bool)
    for _ in range(SIGN_MAX_ITER):
        sign, logdet = np.linalg.slogdet(W[live])
        regular = (sign != 0) & np.isfinite(logdet)
        live, logdet = live[regular], logdet[regular]
        if live.size == 0:
            break
        c = np.exp(-logdet / N)[:, None, None]
        old = W[live]
        W[live] = 0.5 * (c * old + np.linalg.inv(old) / c)
        step = np.linalg.norm(W[live] - old, 1, axis=(-2, -1))
        done = step <= SIGN_RTOL * np.linalg.norm(W[live], 1, axis=(-2, -1))
        converged[live[done]] = True
        live = live[~done]
    return W, converged


def _finite_slices(ok: np.ndarray, *stacks: np.ndarray) -> np.ndarray:
    """``ok`` and-ed with the finiteness of each slice of ``stacks``, whose other slices are zeroed in place.

    Keeps the junk of a flagged slice out of the batched routines that
    follow, which would raise for the whole stack on one non-finite slice.
    """
    for S in stacks:
        ok = ok & np.isfinite(S).all(axis=(-2, -1))
    for S in stacks:
        S[~ok] = 0.0
    return ok


def _solve_care_stack(
    A: np.ndarray, C: np.ndarray, V1: np.ndarray, V12: np.ndarray, V2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The filters of :func:`solve_care` for a stack ``V2`` of measurement-noise intensities.

    The other arguments are one plant's matrices or stacks with one slice per
    ``V2``, as :func:`solve_care` takes them, so one call scores the candidate
    filters of many plants. Returns ``(K, A_hat, ok)``: the gains and filter
    matrices of the slices, and which slices passed every check. Each CARE
    is solved from the sign ``W`` of its Hamiltonian: ``[I; X]`` spans the
    stable subspace, the null space of ``W + I``, so ``X`` is the
    least-squares solution of ``[W12; W22 + I] X = -[W11 + I; W21]``. A
    slice is ``ok`` when

    * its ``V2`` has eigenvalues in the normal floating-point range, at
      most ``1 / eps`` apart, and a finite inverse; the Hamiltonian, the
      sign iteration and every product below are finite;
    * its sign iteration converged (see :func:`_sign_stack`);
    * its Riccati residual is at most ``CHECK_RTOL`` times the summed norms
      of the residual's terms;
    * the ``X1`` of the Schur route would have ``cond(X1)`` at most
      ``SIGN_COND_MAX``; for symmetric ``X`` with eigenvalues ``x``,
      ``cond(X1)^2 = (1 + max x^2) / (1 + min x^2)``. The Schur basis behind
      :func:`solve_care` leaves an imaginary residue in ``X`` that grows
      with ``cond(X1)``: up to ``175 eps cond(X1) max |X|`` over the 292 800
      grid CAREs of perfbench's 4800 pool plants, so its realness check can
      refuse ``X`` from ``cond(X1)`` near 3e4 on, and only
      :func:`solve_care` can tell whether such a slice succeeds;
    * ``A_hat`` is Hurwitz with :func:`solve_lyapunov`'s axis tolerance.

    Gains of slices that are not ``ok`` are meaningless; no slice makes the
    call raise.
    """
    A, C, V1, V12, V2 = (np.asarray(M, dtype=float) for M in (A, C, V1, V12, V2))
    n = A.shape[-1]
    w = np.linalg.eigvalsh(np.where(np.isfinite(V2), V2, 0.0))
    ok = (w[..., 0] >= np.finfo(float).tiny) & (w[..., 0] > np.finfo(float).eps * w[..., -1])
    V2_inv = np.linalg.inv(np.where(ok[:, None, None], V2, np.eye(V2.shape[-1])))
    F, B, M, H = _care_coefficients(A, C, V1, V12, V2_inv)
    G = B @ M @ B.swapaxes(-1, -2)
    Z = np.block([[F, -G], [-H, -np.swapaxes(F, -1, -2)]])
    ok = _finite_slices(ok, Z)
    W, converged = _sign_stack(Z)
    ok = _finite_slices(ok & converged, W)
    W += np.eye(2 * n)  # W + I annihilates the stable subspace [I; X]
    Q = -np.linalg.pinv(W[..., n:]) @ W[..., :n]
    Q = (Q + np.swapaxes(Q, -1, -2)) / 2.0
    residual = riccati_residual(F, B, M, H, Q)
    terms = (Q @ G @ Q, 2.0 * Q @ F, H)
    ok = _finite_slices(ok, Q, residual, *terms)
    scale = sum(np.linalg.norm(T, axis=(-2, -1)) for T in terms)
    ok &= np.linalg.norm(residual, axis=(-2, -1)) <= CHECK_RTOL * scale
    x2 = np.linalg.eigvalsh(Q) ** 2
    ok &= (1.0 + x2.max(axis=-1)) / (1.0 + x2.min(axis=-1)) <= SIGN_COND_MAX**2
    K = (Q @ C.swapaxes(-1, -2) + V12) @ V2_inv
    A_hat = A - K @ C
    ok = _finite_slices(ok, K, A_hat)
    poles = np.linalg.eigvals(A_hat)
    ok &= np.max(poles.real, axis=-1) < -_axis_tolerance(poles)
    return K, A_hat, ok


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
