"""Making classical filters physically realizable as quantum systems.

A strictly proper filter ``(A_hat, B_hat, C_hat)`` driven by a quantum field
generally violates the canonical commutation relations of its state. Two
repair mechanisms are provided:

* :func:`augment_noise` adds the smallest possible number of extra vacuum
  input channels (``B_v1`` on the output field plus ``n_v2`` further
  quadratures through ``B_v2``) so the augmented dynamics preserve the
  commutation relations.
* :func:`skew_riccati_transform` looks for a state transformation ``T`` after
  which the filter is realizable with no ``B_v2`` channels at all; the
  transformation exists exactly when a skew-symmetric Riccati equation admits
  a suitable nonsingular solution.

Both take a single filter or a stack of filters; for a stack they return
one outcome per filter.

Every extra gain (``B_v1``, ``B_v2``, ``B_v1_tilde``) is a :func:`.systems.field_gain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, NonRealResult, NonRealT, SingularResolvent, SingularX, single_outcome
from .solvers import _riccati_solutions, riccati_residual
from .systems import (
    CHECK_RTOL,
    EIG_SPLIT_RTOL,
    PIVOT_RTOL,
    RANK_RTOL,
    _frozen_array,
    _nonreal_slices,
    canonical_theta,
    field_gain,
    quadrature_readout,
)

__all__ = [
    "AugmentResult",
    "TransformResult",
    "stilde",
    "min_vacuum_rank",
    "augment_noise",
    "skew_riccati_transform",
    "transfer_function_gap",
    "default_frequency_grid",
]


def _skew_coefficients(A_hat, B_hat, C_hat):
    """``(F, B, M, H)`` of the filter's skew Riccati equation, as :mod:`.solvers` takes them.

    The equation is ``X B_hat theta_y B_hat^T X - X A_hat - A_hat^T X -
    C_hat^T theta_eta C_hat = 0``, the thetas sized to the input and output
    fields. ``A_hat`` and ``B_hat`` may be stacks of filters. A non-finite
    ``C_hat`` gives a NaN ``H``, which every caller refuses, without the
    warnings of the product.
    """
    A_hat, B_hat, C_hat = (np.asarray(M, dtype=float) for M in (A_hat, B_hat, C_hat))
    th_eta = canonical_theta(C_hat.shape[0] / 2)
    H = C_hat.T @ th_eta @ C_hat if np.isfinite(C_hat).all() else np.full((C_hat.shape[1],) * 2, np.nan)
    return A_hat, B_hat, canonical_theta(B_hat.shape[-1] / 2), H


def stilde(A_hat: np.ndarray, B_hat: np.ndarray, C_hat: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Residual of the filter's skew Riccati equation at ``X``.

    At ``X = theta`` it is the skew commutation-defect matrix, whose rank is the
    minimal number of extra vacuum quadratures the filter needs to be physically
    realizable; it vanishes at the ``X`` of :func:`skew_riccati_transform`.
    """
    return riccati_residual(*_skew_coefficients(A_hat, B_hat, C_hat), np.asarray(X, dtype=float))


def _defect_spectrum(A_hat, B_hat, C_hat, theta) -> tuple[np.ndarray, ...]:
    """The spectrum of ``i S_tilde / 4``, ``S_tilde`` the filter's defect, and its positive part.

    Returns ``(eigvals, eigvecs, keep)``: the eigenvalues ascending,
    their eigenvectors as columns, and the mask of those above ``RANK_RTOL``
    times the scale of the terms ``S_tilde / 4`` is formed from,
    ``(||theta B theta_y B^T theta||_2 + 2 ||A_hat||_2 + ||C^T theta_eta C||_2) / 4``,
    so a round-off defect has rank 0. A real skew ``S_tilde`` has eigenvalues
    in ``+/-`` pairs, so twice the kept count is its numerical rank. For a
    stack of filters every result has the stack's leading axis. Raises
    :class:`DomainError` for a non-finite filter.
    """
    F, B, M, H = _skew_coefficients(A_hat, B_hat, C_hat)
    if not (np.isfinite(F).all() and np.isfinite(B).all() and np.isfinite(H).all()):
        raise DomainError("filter matrices A_hat, B_hat, C_hat must be finite")
    theta = np.asarray(theta, dtype=float)
    S_t = riccati_residual(F, B, M, H, theta)
    # the 2-norms, each the largest singular value of its term
    norm_G, norm_F, norm_H = (
        np.linalg.svd(T, compute_uv=False)[..., :1] for T in (theta @ B @ M @ B.swapaxes(-1, -2) @ theta, F, H)
    )
    eigvals, eigvecs = np.linalg.eigh(0.25j * S_t)
    keep = eigvals > RANK_RTOL * (norm_G + 2.0 * norm_F + norm_H) / 4.0
    return eigvals, eigvecs, keep


def min_vacuum_rank(A_hat: np.ndarray, B_hat: np.ndarray, C_hat: np.ndarray, theta: np.ndarray) -> int:
    """Numerical rank of the filter's commutation defect; the minimal ``n_v2``.

    Always even: twice the count of positive eigenvalues of ``i S_tilde / 4``
    above ``RANK_RTOL`` times the scale of its terms, the count
    :func:`augment_noise` builds ``B_v2`` from.
    """
    return 2 * int(np.count_nonzero(_defect_spectrum(A_hat, B_hat, C_hat, theta)[2]))


def _fix_column_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real positive; ``V`` may be a stack."""
    big = np.abs(V)
    significant = big > PIVOT_RTOL * big.max(axis=-2, initial=0.0, keepdims=True)
    pivot = np.take_along_axis(V, significant.argmax(axis=-2)[..., None, :], axis=-2)
    size = np.abs(pivot)
    return np.where(size > 0.0, V * (np.conj(pivot) / np.where(size > 0.0, size, 1.0)), V)


@dataclass(frozen=True)
class AugmentResult:
    """Extra vacuum gains restoring commutation preservation.

    ``B_v1`` feeds back the output field (``field_gain(theta, C_hat)``);
    ``B_v2`` couples ``n_v2`` further vacuum quadratures, one per column.
    The defect they restore is :func:`stilde` at ``X = theta``.
    """

    B_v1: np.ndarray
    B_v2: np.ndarray

    @property
    def n_v2(self) -> int:
        return self.B_v2.shape[1]


def augment_noise(
    A_hat: np.ndarray, B_hat: np.ndarray, C_hat: np.ndarray, theta: np.ndarray
) -> AugmentResult | list[AugmentResult]:
    """Minimal vacuum-noise augmentation of a filter.

    Factorizes the positive part of the Hermitian matrix ``i/4`` times the
    commutation defect: its unitary diagonalization (eigenvalues sorted
    descending, eigenvector phases pinned for reproducibility) gives the
    coupling matrix ``W`` of the extra fields; ``B_v2`` is the field gain of
    ``quadrature_readout(W)``, as the plant's ``B`` is of its coupling, and
    ``B_v1`` that of ``C_hat``. ``B_v2`` is unique only up to a
    symplectic-orthogonal right factor; its invariants ``B_v2 B_v2^T`` and
    ``B_v2 diag(J) B_v2^T`` are what the construction guarantees.

    ``A_hat`` and ``B_hat`` may be stacks of filters; the call then returns
    one :class:`AugmentResult` per slice. The slices are grouped by their
    ``n_v2``, and each group is factorized at once. A single filter is the
    stack of one.
    """
    A_hat, B_hat, C_hat, theta = (np.asarray(M, dtype=float) for M in (A_hat, B_hat, C_hat, theta))
    single = A_hat.ndim == B_hat.ndim == 2
    stacks = (M if M.ndim == 3 else M[None] for M in (A_hat, B_hat))
    eigvals, eigvecs, keep = _defect_spectrum(*stacks, C_hat, theta)
    counts = np.count_nonzero(keep, axis=-1)
    B_v2: list = [np.zeros((theta.shape[0], 0))] * len(counts)
    for count in sorted(set(counts.tolist()) - {0}):
        group = np.flatnonzero(counts == count)
        top = (group, Ellipsis, slice(None, -count - 1, -1))  # the kept eigenvalues, descending
        V = _fix_column_phases(eigvecs[top])
        W = np.sqrt(2.0 * eigvals[top])[..., None] * V.conj().swapaxes(-1, -2)
        for i, G in zip(group, field_gain(theta, quadrature_readout(W))):
            B_v2[i] = G
    B_v1 = field_gain(theta, C_hat)
    results = [AugmentResult(B_v1=B_v1, B_v2=G) for G in B_v2]
    return results[0] if single else results


@dataclass(frozen=True)
class TransformResult:
    """Skew Riccati solution and the state transformation built from it.

    ``X`` solves the skew Riccati equation and factors as ``T^T theta T``;
    ``A_tilde, B_tilde, C_tilde`` describe the transformed filter and
    ``B_v1_tilde`` its single extra vacuum gain.
    """

    X: np.ndarray
    T: np.ndarray
    A_tilde: np.ndarray
    B_tilde: np.ndarray
    C_tilde: np.ndarray
    B_v1_tilde: np.ndarray


@lru_cache(maxsize=None)
def _pairing_basis(n_x: int) -> np.ndarray:
    """``diag(P, ..., P)``, ``P = [[1, 1], [i, -i]] / sqrt(2)``, for ``n_x`` states; built once per size, read-only."""
    return _frozen_array(np.kron(np.eye(n_x // 2), np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2)), complex)


def skew_riccati_transform(
    A_hat: np.ndarray, B_hat: np.ndarray, C_hat: np.ndarray, theta: np.ndarray
) -> TransformResult | list:
    """State transformation after which no extra ``B_v2`` channels are needed.

    Solves the skew Riccati equation (the zero of :func:`stilde`) with
    :func:`.solvers._riccati_solutions`, whose ``X = X2 X1^-1`` is real and
    skew-symmetric when the three assumptions below hold; ``[X1; X2]`` spans
    the stable subspace of the doubled matrix pairing the filter with its
    adjoint. The factor ``T`` with ``X = T^T theta T`` comes from the spectral
    pairing of ``X``: eigenvalues ``+/- i lambda_j`` sorted by ``lambda``
    descending and oriented so the principal square root involved is real.

    Raises, in the order checked: :class:`DomainError` for a non-finite
    filter, :class:`ImaginaryAxisEigenvalue` (the doubled matrix must split
    cleanly), :class:`SingularX1`, :class:`NoStabilizingSolution` if ``X``
    fails the Riccati residual check, on the scale ``||H||`` of
    ``H = C_hat^T theta_eta C_hat``, :class:`SingularX`, and
    :class:`NonRealT` if the residue or pairing checks fail.

    ``A_hat`` and ``B_hat`` may be equal-length stacks of filters. The call
    then returns one outcome per slice, the :class:`TransformResult` or the
    typed error that the call on that slice alone raises, and raises none
    itself. All slices go through one :func:`.solvers._riccati_solutions`
    call and every check runs per slice; a single filter is the stack of
    one.
    """
    A_hat, B_hat, th_y, CtC = _skew_coefficients(A_hat, B_hat, C_hat)
    C_hat = np.asarray(C_hat, dtype=float)
    theta = np.asarray(theta, dtype=float)
    single = A_hat.ndim == 2
    if single:
        A_hat, B_hat = A_hat[None], B_hat[None]
    n_x = A_hat.shape[-1]
    H = CtC[None]
    with np.errstate(over="ignore"):  # the norm of a huge H overflows without a warning, as in the solver
        X, outcomes = _riccati_solutions(A_hat, B_hat, th_y, H, np.linalg.norm(H, axis=(-2, -1)))
    for i, exc in enumerate(outcomes):
        if isinstance(exc, NonRealResult):
            outcomes[i] = NonRealT(f"Riccati solution is not real: {exc}")
            outcomes[i].__cause__ = exc
    live = [i for i, outcome in enumerate(outcomes) if outcome is None]

    def drop(bad: np.ndarray, error, *stacks: np.ndarray) -> tuple[np.ndarray, ...]:
        """``stacks`` without the live slices ``bad`` marks, each of which gets ``error(j)``, ``j`` its place."""
        nonlocal live
        if not bad.any():
            return stacks
        for j in np.flatnonzero(bad):
            outcomes[live[j]] = error(j)
        live = [i for i, b in zip(live, bad) if not b]
        return tuple(S[~bad] for S in stacks)

    X = X[live]
    sym = np.abs(X + X.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = sym > CHECK_RTOL * (1.0 + np.abs(X).max(axis=(-2, -1), initial=0.0))
    (X,) = drop(bad, lambda j: NonRealT(f"Riccati solution is not skew-symmetric (defect {sym[j]:.3e})"), X)
    X = (X - X.swapaxes(-1, -2)) / 2.0

    # spectral pairing of the skew solution: i*X is Hermitian, so its
    # eigendecomposition is orthonormal even under repeated eigenvalues
    mu, V_mu = np.linalg.eigh(1j * X)
    lam = -mu[:, : n_x // 2]  # positive, descending
    bad = lam[:, -1] <= EIG_SPLIT_RTOL * (1.0 + lam[:, 0]) if lam.shape[-1] else np.zeros(len(X), dtype=bool)
    X, lam, V_mu = drop(
        bad, lambda j: SingularX(f"skew solution has a near-zero eigenvalue {lam[j, -1]:.3e}"), X, lam, V_mu
    )
    V_mu = _fix_column_phases(V_mu[..., : n_x // 2])  # eigenvalues +i*lam of X
    V = np.empty((len(X), n_x, n_x), dtype=complex)
    V[..., 0::2], V[..., 1::2] = V_mu, V_mu.conj()  # each next to its -i*lam partner
    D = np.repeat(np.sqrt(lam), 2, axis=-1)
    T = _pairing_basis(n_x) @ (D[..., :, None] * V.conj().swapaxes(-1, -2))
    nonreal = _nonreal_slices(T)
    bad = np.array([error is not None for error in nonreal], dtype=bool)
    X, T = drop(bad, lambda j: NonRealT(str(nonreal[j])), X, T)
    T = np.ascontiguousarray(T.real)
    factor_gap = np.abs(T.swapaxes(-1, -2) @ theta @ T - X).max(axis=(-2, -1), initial=0.0)
    bad = factor_gap > CHECK_RTOL * (1.0 + np.abs(X).max(axis=(-2, -1), initial=0.0))
    X, T = drop(bad, lambda j: NonRealT(f"factorization defect {factor_gap[j]:.3e}"), X, T)

    T_inv = np.linalg.inv(T)
    C_tilde = C_hat @ T_inv
    results = zip(X, T, T @ A_hat[live] @ T_inv, T @ B_hat[live], C_tilde, field_gain(theta, C_tilde))
    for i, fields in zip(live, results):
        outcomes[i] = TransformResult(*fields)
    return single_outcome(outcomes) if single else outcomes


def default_frequency_grid() -> np.ndarray:
    """Eight imaginary-axis samples ``i w`` with ``w`` log-spaced in ``[0.1, 10]``."""
    return 1j * np.logspace(-1.0, 1.0, 8)


def transfer_function_gap(
    sys1: tuple[np.ndarray, np.ndarray, np.ndarray],
    sys2: tuple[np.ndarray, np.ndarray, np.ndarray],
    s_samples: Sequence[complex],
) -> float:
    """Largest Frobenius-norm gap between two transfer functions on a sample set.

    ``max_s || C1 (sI - A1)^-1 B1 - C2 (sI - A2)^-1 B2 ||_F``. Samples that
    come within tolerance of a pole of either system raise
    :class:`SingularResolvent`.
    """
    A1, B1, C1 = (np.asarray(M, dtype=float) for M in sys1)
    A2, B2, C2 = (np.asarray(M, dtype=float) for M in sys2)
    poles = np.concatenate([np.linalg.eigvals(A1), np.linalg.eigvals(A2)])
    gap = 0.0
    for s in s_samples:
        dist = np.min(np.abs(poles - s))
        if dist <= EIG_SPLIT_RTOL * (1.0 + np.abs(s)):
            raise SingularResolvent(f"sample {s} is within {dist:.3e} of a pole")
        G1 = C1 @ np.linalg.solve(s * np.eye(A1.shape[0]) - A1, B1)
        G2 = C2 @ np.linalg.solve(s * np.eye(A2.shape[0]) - A2, B2)
        gap = max(gap, float(np.linalg.norm(G1 - G2)))
    return gap
