"""State-space models of linear quantum stochastic systems.

A system ``dx = A x dt + B dw``, ``dy = C x dt + D dw`` acts on a stacked
quadrature vector ordered ``(q1, p1, q2, p2, ...)``. The canonical
commutation matrix is block diagonal in ``J = [[0, 1], [-1, 0]]`` and every
two columns of ``B`` belong to one bosonic input channel, either vacuum or
thermal with occupation ``k_n``. Every input gain is the :func:`field_gain`
of its field's quadrature read-out, as in the forward construction of a
realizable ``(A, B, C, D)`` from a Hamiltonian and a coupling matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, FileFormatError, NonRealResult

__all__ = [
    "J2",
    "NoiseKind",
    "NoiseChannel",
    "ItoStructure",
    "QuantumLinearSystem",
    "HamiltonianCoupling",
    "canonical_theta",
    "ito_structure",
    "quadrature_readout",
    "field_gain",
    "realize_from_hamiltonian",
    "commutation_residual",
    "make_cavity_plant",
    "system_from_dict",
    "system_to_dict",
    "load_system",
    "save_system",
]

# --- tolerance table: every numerical threshold of the package ----------------

#: imaginary residue allowed in a must-be-real matrix, relative to its largest entry
IMAG_RESIDUE_RTOL = 1e-9
#: zero in a spectral split: imaginary-axis eigenvalue, zero eigenvalue of X, sample on a pole
EIG_SPLIT_RTOL = 1e-8
#: numerical rank of ``i S_tilde / 4``, relative to the scale of the terms it is formed from
RANK_RTOL = 1e-9
#: a defect that must vanish: a Riccati residual of either route, the skew part of X, T^T theta T - X, `qobs check`
CHECK_RTOL = 1e-8
#: largest ``cond(X1)`` for which ``X = X2 X1^-1`` is formed
COND_MAX = 1e12
#: share of a column's largest entry below which no entry is its phase pivot
PIVOT_RTOL = 1e-12

#: single-mode commutation block
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _require_even(n: int, what: str) -> None:
    if n <= 0 or n % 2:
        raise DomainError(f"{what} must be a positive even integer, got {n}")


def _nonreal_slices(M: np.ndarray) -> list:
    """Per slice of a stack of must-be-real matrices: ``None``, or a :class:`NonRealResult`.

    A slice fails when its imaginary part is not negligible. The allowance
    scales with the slice's largest entry magnitude so that the check is
    meaningful for both near-zero and large matrices; the error marks a
    residue that is structural rather than round-off.
    """
    scale = IMAG_RESIDUE_RTOL * (1.0 + np.abs(M).max(axis=(-2, -1), initial=0.0))
    residue = np.abs(M.imag).max(axis=(-2, -1), initial=0.0)
    return [
        NonRealResult(f"imaginary residue {r:.3e} exceeds allowance {s:.3e}") if r > s else None
        for r, s in zip(residue, scale)
    ]


def _frozen_array(M, dtype=float) -> np.ndarray:
    out = np.array(M, dtype=dtype)
    out.setflags(write=False)
    return out


class NoiseKind(str, Enum):
    VACUUM = "vacuum"
    THERMAL = "thermal"


@dataclass(frozen=True)
class NoiseChannel:
    """One pair of input quadratures: vacuum, or thermal with occupation ``k_n``."""

    kind: NoiseKind
    k_n: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.k_n < np.inf:
            raise DomainError(f"thermal occupation must be non-negative and finite, got {self.k_n}")
        if self.kind is NoiseKind.VACUUM and self.k_n != 0.0:
            raise DomainError("a vacuum channel has k_n = 0")
        if self.kind is NoiseKind.THERMAL and self.k_n == 0.0:
            # zero occupation is exactly a vacuum input
            object.__setattr__(self, "kind", NoiseKind.VACUUM)

    @classmethod
    def vacuum(cls) -> "NoiseChannel":
        return cls(NoiseKind.VACUUM)

    @classmethod
    def thermal(cls, k_n: float) -> "NoiseChannel":
        return cls(NoiseKind.THERMAL, float(k_n))


@dataclass(frozen=True)
class ItoStructure:
    """Quadrature Ito matrix ``F = S + iT`` of a stack of input channels.

    ``S`` (symmetric) is the noise intensity, ``T`` (skew) encodes the field
    commutators. Both are block diagonal with one 2x2 block per channel.
    """

    F: np.ndarray
    S: np.ndarray
    T: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "F", _frozen_array(self.F, complex))
        object.__setattr__(self, "S", _frozen_array(self.S))
        object.__setattr__(self, "T", _frozen_array(self.T))


@lru_cache(maxsize=None)
def canonical_theta(n_modes: int) -> np.ndarray:
    """Canonical commutation matrix diag(J, ..., J) for ``n_modes`` mode pairs.

    Each size is built once and shared read-only. A field of dimension ``d``
    asks for ``d / 2`` modes, so an odd dimension is refused here too.
    """
    if n_modes != int(n_modes):
        raise DomainError(f"field dimension must be even, got {2 * n_modes:g}")
    if n_modes < 1:
        raise DomainError(f"need at least one mode, got {n_modes}")
    return _frozen_array(np.kron(np.eye(int(n_modes)), J2))


def ito_structure(channels: Sequence[NoiseChannel]) -> ItoStructure:
    """Quadrature Ito matrix of independent channels.

    Each channel contributes the block ``[[1+2k_n, i], [-i, 1+2k_n]]``: the
    diagonal follows from the creation/annihilation Ito products
    ``db db* = (1+k_n) dt`` and ``db* db = k_n dt`` expanded in quadratures,
    and the imaginary part is the commutation block ``J`` regardless of
    occupation.
    """
    if not channels:
        raise DomainError("channel list must be non-empty")
    n = 2 * len(channels)
    F = np.zeros((n, n), dtype=complex)
    for i, ch in enumerate(channels):
        s = 1.0 + 2.0 * ch.k_n
        F[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[s, 1j], [-1j, s]]
    return ItoStructure(F=F, S=F.real, T=F.imag)


def quadrature_readout(Lam: np.ndarray) -> np.ndarray:
    """Real read-out of a coupling matrix: rows ``2k, 2k+1`` are ``2 Re Lambda[k], 2 Im Lambda[k]``.

    ``Lam`` may be a stack of coupling matrices.
    """
    return 2.0 * np.stack([Lam.real, Lam.imag], axis=-2).reshape(*Lam.shape[:-2], -1, Lam.shape[-1])


def field_gain(theta: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Input gain ``theta L^T diag(J)`` of the field whose quadratures ``L`` reads out.

    This pairing of each input with the output it feeds makes a linear quantum
    system physically realizable (James, Nurdin & Petersen, IEEE TAC 2008).
    ``L`` may be a stack of read-outs.
    """
    return theta @ L.swapaxes(-1, -2) @ canonical_theta(L.shape[-2] / 2)


@dataclass(frozen=True)
class HamiltonianCoupling:
    """Quadratic Hamiltonian matrix ``R`` and linear coupling matrix ``Lambda``.

    ``R`` is real symmetric ``n_x x n_x``; ``Lambda`` is complex
    ``(n_w/2) x n_x`` with one row per input channel; ``n_y`` is the (even)
    number of output quadratures, at most ``n_w``.
    """

    R: np.ndarray
    Lambda: np.ndarray
    n_y: int

    def __post_init__(self) -> None:
        R = np.asarray(self.R, dtype=float)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise DomainError(f"R must be square, got shape {R.shape}")
        asym = np.max(np.abs(R - R.T), initial=0.0)
        if asym > IMAG_RESIDUE_RTOL * (1.0 + np.max(np.abs(R), initial=0.0)):
            raise DomainError(f"R must be symmetric; asymmetry {asym:.3e}")
        object.__setattr__(self, "R", _frozen_array((R + R.T) / 2.0))
        Lam = np.atleast_2d(np.asarray(self.Lambda, dtype=complex))
        if Lam.shape[1] != R.shape[0]:
            raise DomainError(
                f"Lambda must have {R.shape[0]} columns, got {Lam.shape[1]}"
            )
        object.__setattr__(self, "Lambda", _frozen_array(Lam, complex))
        _require_even(self.n_y, "n_y")
        if self.n_y > 2 * Lam.shape[0]:
            raise DomainError(
                f"n_y = {self.n_y} exceeds the input dimension {2 * Lam.shape[0]}"
            )

    @property
    def n_x(self) -> int:
        return self.R.shape[0]

    @property
    def n_w(self) -> int:
        return 2 * self.Lambda.shape[0]


@dataclass(frozen=True)
class QuantumLinearSystem:
    """State-space matrices of a linear quantum stochastic system.

    The system is physically realizable when :meth:`residual` vanishes; its
    commutation matrix ``theta`` is the canonical one.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    channels: tuple[NoiseChannel, ...]

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        D = np.asarray(self.D, dtype=float)
        n_x, n_w, n_y = A.shape[0], B.shape[1], C.shape[0]
        _require_even(n_x, "n_x")
        _require_even(n_w, "n_w")
        _require_even(n_y, "n_y")
        if A.shape != (n_x, n_x) or B.shape != (n_x, n_w):
            raise DomainError(f"A/B shapes inconsistent: {A.shape}, {B.shape}")
        if C.shape != (n_y, n_x) or D.shape != (n_y, n_w):
            raise DomainError(f"C/D shapes inconsistent: {C.shape}, {D.shape}")
        if n_y > n_w:
            raise DomainError(f"n_y = {n_y} must not exceed n_w = {n_w}")
        if len(self.channels) != n_w // 2:
            raise DomainError(
                f"need {n_w // 2} channels for {n_w} input columns, got {len(self.channels)}"
            )
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if not np.all(np.isfinite(M)):
                raise DomainError(f"{name} has non-finite entries")
            object.__setattr__(self, name, _frozen_array(M))
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_w(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @property
    def theta(self) -> np.ndarray:
        return canonical_theta(self.n_x // 2)

    @cached_property
    def ito(self) -> ItoStructure:
        return ito_structure(self.channels)

    def residual(self) -> np.ndarray:
        """Commutation-preservation residual of the system's own dynamics."""
        return commutation_residual(self.A, [self.B], self.theta, [self.ito.T])


def commutation_residual(
    A: np.ndarray,
    input_gains: Sequence[np.ndarray],
    theta: np.ndarray,
    T_blocks: Sequence[np.ndarray],
) -> np.ndarray:
    """Residual ``A theta + theta A^T + sum_i B_i T_i B_i^T``.

    Vanishes exactly when the dynamics preserve the canonical commutation
    relations; each input gain is paired with the skew Ito part of its field.
    """
    if len(input_gains) != len(T_blocks):
        raise DomainError("need one T block per input gain")
    A = np.asarray(A, dtype=float)
    theta = np.asarray(theta, dtype=float)
    res = A @ theta + theta @ A.T
    for G, T in zip(input_gains, T_blocks):
        G = np.asarray(G, dtype=float)
        if G.shape[1] == 0:
            continue
        res = res + G @ np.asarray(T, dtype=float) @ G.T
    return res


def realize_from_hamiltonian(
    hc: HamiltonianCoupling,
    channels: Sequence[NoiseChannel] | None = None,
) -> QuantumLinearSystem:
    """Forward construction of ``(A, B, C, D)`` from ``(R, Lambda)``.

    An open quantum harmonic oscillator, hence physically realizable: ``B``
    is the field gain of ``L = quadrature_readout(Lambda)`` and ``C`` its
    first ``n_y`` rows. ``channels`` defaults to vacuum for every input; the
    choice does not affect the matrices.
    """
    n_x, n_w, n_y = hc.n_x, hc.n_w, hc.n_y
    theta = canonical_theta(n_x // 2)
    Lam = hc.Lambda
    gram = Lam.conj().T @ Lam
    A = 2.0 * theta @ (hc.R + gram.imag)
    L = quadrature_readout(Lam)
    D = np.hstack([np.eye(n_y), np.zeros((n_y, n_w - n_y))])
    if channels is None:
        channels = tuple(NoiseChannel.vacuum() for _ in range(n_w // 2))
    return QuantumLinearSystem(A=A, B=field_gain(theta, L), C=L[:n_y], D=D, channels=channels)


def make_cavity_plant(kappa1: float, kappa2: float, k_n: float) -> QuantumLinearSystem:
    """Optical cavity with a vacuum input on the measured mirror and a thermal input.

    ``dx = -(kappa1+kappa2)/2 x dt - sqrt(kappa1) dw1 - sqrt(kappa2) dw2``,
    ``dy = sqrt(kappa1) x dt + dw1``, with ``dw2`` thermal of occupation ``k_n``.
    """
    if not (0 < kappa1 < np.inf and 0 < kappa2 < np.inf):
        raise DomainError(f"mirror couplings must be positive and finite, got {kappa1}, {kappa2}")
    I2 = np.eye(2)
    A = -0.5 * (kappa1 + kappa2) * I2
    B = np.hstack([-np.sqrt(kappa1) * I2, -np.sqrt(kappa2) * I2])
    C = np.sqrt(kappa1) * I2
    D = np.hstack([I2, np.zeros((2, 2))])
    channels = (NoiseChannel.vacuum(), NoiseChannel.thermal(k_n))
    return QuantumLinearSystem(A=A, B=B, C=C, D=D, channels=channels)


# --- system description files -------------------------------------------------

def _channel_from_dict(d: dict, index: int) -> NoiseChannel:
    try:
        kind = d["kind"]
    except (KeyError, TypeError):
        raise FileFormatError(f"channels[{index}]: missing 'kind'") from None
    if kind == "vacuum":
        return NoiseChannel.vacuum()
    if kind == "thermal":
        if "k_n" not in d:
            raise FileFormatError(f"channels[{index}]: thermal channel needs 'k_n'")
        try:  # a DomainError (negative or non-finite k_n) is a ValueError too
            return NoiseChannel.thermal(d["k_n"])
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"channels[{index}]: k_n = {d['k_n']!r}: {exc}") from None
    raise FileFormatError(f"channels[{index}]: unknown kind {kind!r}")


def system_from_dict(d: dict) -> QuantumLinearSystem:
    """Build a system from the JSON description schema.

    Keys: ``n_x``, ``A``, ``B``, ``C``, ``D`` (row-major nested arrays of
    finite numbers) and ``channels`` (list of ``{"kind": "vacuum"}`` /
    ``{"kind": "thermal", "k_n": x}``). A classical design file, whose
    provenance names the ``classical`` algorithm, is refused: it describes a
    measurement-based filter, not a quantum system.
    """
    if not isinstance(d, dict):
        raise FileFormatError(f"expected a JSON object, got {type(d).__name__}")
    matrices = {}
    for key in ("n_x", "A", "B", "C", "D", "channels"):
        if key not in d:
            raise FileFormatError(f"missing key {key!r}")
    try:
        n_x = int(d["n_x"])
    except (TypeError, ValueError, OverflowError):
        raise FileFormatError(f"n_x = {d['n_x']!r} is not an integer") from None
    if not isinstance(d["channels"], list):
        raise FileFormatError("key 'channels': expected a list of channels")
    provenance = d.get("provenance")
    if isinstance(provenance, dict) and provenance.get("algorithm") == "classical":
        raise FileFormatError("a classical (measurement-based) filter, not a quantum system")
    for key in ("A", "B", "C", "D"):
        try:
            matrices[key] = np.array(d[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"key {key!r}: not a numeric matrix ({exc})") from None
        if matrices[key].ndim != 2:
            raise FileFormatError(f"key {key!r}: expected a nested (2-d) array")
    channels = tuple(
        _channel_from_dict(c, i) for i, c in enumerate(d["channels"])
    )
    try:
        sys = QuantumLinearSystem(
            A=matrices["A"], B=matrices["B"], C=matrices["C"], D=matrices["D"],
            channels=channels,
        )
    except DomainError as exc:
        raise FileFormatError(str(exc)) from None
    if n_x != sys.n_x:
        raise FileFormatError(f"n_x = {d['n_x']} does not match A's size {sys.n_x}")
    return sys


def system_to_dict(sys: QuantumLinearSystem) -> dict:
    channels = []
    for ch in sys.channels:
        if ch.kind is NoiseKind.VACUUM:
            channels.append({"kind": "vacuum"})
        else:
            channels.append({"kind": "thermal", "k_n": ch.k_n})
    return {
        "n_x": sys.n_x,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
        "D": sys.D.tolist(),
        "channels": channels,
    }


def load_system(path) -> QuantumLinearSystem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    try:
        return system_from_dict(data)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def save_system(sys: QuantumLinearSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(sys), fh, indent=2, sort_keys=True)
        fh.write("\n")
