"""Truncated weighted Bergman spaces.

Monomial norms, the normalized coherent-state coefficients, operators as
matrices in the orthonormal basis e_j = ((nu)_j/j!)^{1/2} z^j, and matrices
of the SU(1,1) action.

Transported basis vectors g . z^j are built by a stable recursion (column 0 is
a phase times the scaled basis values at b/conj(a), then multiply by
(az - conj b) and solve the bidiagonal system for the (-bz + conj a)
division).  The recursion is lower triangular, so every retained coefficient
is exact; truncation only drops mass above the cut, and that deficit is
reported as the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import _check_determinant
from .specfun import log_pochhammer_ratios, validate_weight

__all__ = [
    "TruncatedOperator",
    "BandedOperator",
    "log_monomial_norm_sq",
    "transported_basis_vectors",
    "group_action_matrix",
    "scaled_basis_values",
]

_HERMITIAN_TOL = 1e-12
_MAX_BASE_POINT = 0.99


def log_monomial_norm_sq(nu: float, j):
    """log ||z^j||^2 = log(j!/(nu)_j) in the weight-nu space, for scalar or
    array j (log domain for large j).

    A scalar j takes three ``math.lgamma``; an array of indices >= 0 reads
    the table of log((1)_i/(nu)_i), i <= max(j), a cumprod of the ratios
    (i+1)/(nu+i) (:func:`~diskchannels.specfun.log_pochhammer_ratios`).
    """
    nu = validate_weight(nu)
    if np.ndim(j) == 0:
        return math.lgamma(j + 1.0) - (math.lgamma(nu + j) - math.lgamma(nu))
    j = np.asarray(j, dtype=int)
    if j.size == 0:
        return np.zeros(j.shape)
    return log_pochhammer_ratios(int(j.max()) + 1, (1.0,), (nu,))[j]


@dataclass
class TruncatedOperator:
    """A finite operator matrix in the orthonormal monomial basis."""

    weight: float
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        validate_weight(self.weight)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix entries must be finite")
        if self.hermitian:
            dev = np.abs(self.matrix - self.matrix.conj().T).max()
            if dev > _HERMITIAN_TOL:
                raise ValueError(f"hermitian flag set but deviation is {dev:.3e}")

    @property
    def degree(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def is_diagonal(self) -> bool:
        """Exact test: every entry off the main diagonal is zero."""
        return np.count_nonzero(self.matrix) == np.count_nonzero(
            np.diagonal(self.matrix)
        )


@dataclass(frozen=True)
class BandedOperator:
    """A banded operator matrix in the orthonormal monomial basis.

    ``bands[off]`` is the diagonal ``np.diagonal(matrix, off)``: entries
    (t, t + off) for off >= 0 and (t - off, t) for off < 0.  Absent offsets
    are zero.  A Hermitian operator stores only off >= 0; its lower triangle
    is the conjugate mirror.  Storage is O(degree * bandwidth); ``matrix`` is
    the explicit dense conversion, meant for small degrees.
    """

    weight: float
    degree: int
    bands: dict[int, np.ndarray]
    hermitian: bool = False

    def __post_init__(self):
        validate_weight(self.weight)
        for off, band in self.bands.items():
            if self.hermitian and off < 0:
                raise ValueError("a Hermitian operator stores offsets >= 0 only")
            if abs(off) > self.degree or band.shape != (self.degree + 1 - abs(off),):
                raise ValueError(f"band {off} has shape {band.shape}")

    @property
    def bandwidth(self) -> int:
        return max((abs(off) for off in self.bands), default=0)

    @property
    def is_diagonal(self) -> bool:
        """Exact test: every entry off the main diagonal is zero."""
        return not any(np.any(band) for off, band in self.bands.items() if off)

    @property
    def matrix(self) -> np.ndarray:
        """Dense (degree+1)^2 matrix; allocated anew on every access."""
        out = np.zeros((self.degree + 1, self.degree + 1), dtype=complex)
        for off, band in self.bands.items():
            base = np.arange(band.size)
            rows, cols = (base, base + off) if off >= 0 else (base - off, base)
            out[rows, cols] = band
            if self.hermitian and off > 0:
                out[cols, rows] = np.conj(band)
        return out


def _lowest_transported(a, b, nu: float, degree: int) -> np.ndarray:
    """Orthonormal coefficients of g . 1, one column per (a, b) pair.

    g . 1 = (-bz + conj a)^{-nu} has coefficients ((nu)_t/t!)^{1/2} x^t
    conj(a)^{-nu} with x = b/conj(a); the scaled basis values at x carry
    (1-|x|^2)^{nu/2} = |a|^{-nu}, so the column is those values times the
    phase conj(a)^{-nu} |a|^nu = (|a|/conj a)^nu (integer nu), a power of a
    unit number, so that no power of |a| can overflow.
    """
    phase = (np.abs(a) / np.conj(a)) ** nu
    return phase * scaled_basis_values(nu, b / np.conj(a), degree)


def _raise_transported(v: np.ndarray, a, b, nu: float, j: int) -> np.ndarray:
    """Coefficients of g . e_{j+1} from those of g . e_j (lower triangular)."""
    n = v.shape[0]
    ts = np.arange(n)
    shift = np.sqrt(ts[1:] / (nu + ts[1:] - 1.0))  # z e_{t-1} = shift_t e_t
    y = np.empty_like(v)
    y[0] = -np.conj(b) * v[0]
    y[1:] = a * shift[:, None] * v[:-1] - np.conj(b) * v[1:]
    scale = math.sqrt((nu + j) / (j + 1.0))
    # bidiagonal solve conj(a) h_t - b shift_t h_{t-1} = y_t, one column per g
    h = np.empty_like(v)
    ca = np.conj(a)
    h[0] = y[0] / ca
    for t in range(1, n):
        h[t] = (y[t] + b * shift[t - 1] * h[t - 1]) / ca
    return h * scale


def transported_basis_vectors(
    nu: float, elements, index: int, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal coefficients of g . e_index for one or many group elements.

    ``elements`` is one :class:`~diskchannels.disk.GroupElement` or a pair
    ``(a, b)`` of equal-length coefficient arrays, one element per entry.
    Returns ``(coeffs, tails)`` where coeffs has shape (degree+1,) for a single
    element and (degree+1, n) for arrays; tails are the exact masses above the
    cut (the full vectors are unit).
    """
    nu = validate_weight(nu)
    if float(nu) != math.floor(nu):
        raise ValueError("group action requires an integer weight")
    if index < 0:
        raise ValueError("index must be >= 0")
    single = hasattr(elements, "a")
    if single:
        a, b = np.asarray([elements.a]), np.asarray([elements.b])
    else:
        a = np.asarray(elements[0], dtype=complex)
        b = np.asarray(elements[1], dtype=complex)
        _check_determinant(a, b)
    if np.any(np.abs(b) >= np.abs(a)):
        raise ValueError("|g.0| must be < 1")
    v = _lowest_transported(a, b, nu, degree)
    for j in range(index):
        v = _raise_transported(v, a, b, nu, j)
    tails = np.maximum(0.0, 1.0 - np.sum(np.abs(v) ** 2, axis=0))
    if single:
        return v[:, 0], float(tails[0])
    return v, tails


def group_action_matrix(g, nu: float, degree: int) -> tuple[TruncatedOperator, float]:
    """Matrix of the weight-nu action of g on degrees <= degree.

    Column j holds the orthonormal coefficients of g . e_j.  Returns the
    operator and the largest per-column tail mass above the cut.  Integer
    weights only (the action is projective otherwise, and this library
    refuses to pick a branch).
    """
    nu = validate_weight(nu)
    if float(nu) != math.floor(nu):
        raise ValueError("group action requires an integer weight")
    n = degree + 1
    M = np.empty((n, n), dtype=complex)
    av, bv = np.asarray([g.a]), np.asarray([g.b])
    if abs(g.base_point) > _MAX_BASE_POINT:
        raise ValueError(f"|g.0| must be <= {_MAX_BASE_POINT}")
    v = _lowest_transported(av, bv, nu, degree)
    M[:, 0] = v[:, 0]
    for j in range(degree):
        v = _raise_transported(v, av, bv, nu, j)
        M[:, j + 1] = v[:, 0]
    tail = float(np.maximum(0.0, 1.0 - np.sum(np.abs(M) ** 2, axis=0)).max())
    return TruncatedOperator(nu, M), tail


def scaled_basis_values(nu: float, z, degree: int) -> np.ndarray:
    """Values e_m(z) (1-|z|^2)^{nu/2}, shape (degree+1,) + z.shape.

    The (1-|z|^2)^{nu/2} folding keeps every column square-summable to 1, so
    huge weights neither overflow nor lose precision.
    """
    nu = validate_weight(nu)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    u = np.abs(z) ** 2
    if np.any(u >= 1.0):
        raise ValueError("points must lie in the open unit disk")
    ms = np.arange(degree + 1)
    log_coeff = -0.5 * log_monomial_norm_sq(nu, ms)
    at_zero = u == 0
    log_r = 0.5 * np.log(np.where(at_zero, 1.0, u))  # origin rows fixed below
    log_mod = log_coeff[:, None] + ms[:, None] * log_r[None, :] + 0.5 * nu * np.log1p(
        -u
    )[None, :]
    phase = np.exp(1j * ms[:, None] * np.angle(z)[None, :])
    vals = np.exp(log_mod) * phase
    vals[0, :] = np.exp(0.5 * nu * np.log1p(-u))  # m=0 row: no radial power
    if np.any(at_zero):
        vals[1:, at_zero] = 0.0
    return vals
