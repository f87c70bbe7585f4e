"""Toeplitz operators, Berezin transforms, Husimi functions, and the
alternating Berezin sums.

Functions on the disk are :class:`DiskFunction` radial polynomials in
(1-|z|^2), the form that a config's ``f = radial:...`` describes; the
Toeplitz diagonal and the Berezin transform of each have an exact
Beta/Gamma or hypergeometric closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bergman
from .bergman import TruncatedOperator
from .disk import transporter_coefficients
from .specfun import channel_constant_sq, pochhammer, validate_weight

__all__ = [
    "DiskFunction",
    "InsufficientDecayError",
    "radial_poly",
    "toeplitz_diagonal",
    "toeplitz_operator",
    "berezin_transform",
    "husimi_grid",
    "e_transform",
]


class InsufficientDecayError(ValueError):
    """The integrand decays too slowly at the boundary for the weight."""


@dataclass(frozen=True)
class DiskFunction:
    """f(z) = sum_s coeffs[s] (1-|z|^2)^s on the open unit disk."""

    coeffs: tuple = ()

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        base = 1.0 - np.abs(z) ** 2
        out = np.zeros(z.shape)
        for s, a in enumerate(self.coeffs):
            if a != 0.0:
                out = out + a * base**s
        return out if out.ndim else float(out)


def radial_poly(coeffs) -> DiskFunction:
    """f(z) = sum_s coeffs[s] (1-|z|^2)^s."""
    return DiskFunction(tuple(float(c) for c in coeffs))


def _check_decay(f: DiskFunction, nu: float):
    decay = next((s for s, c in enumerate(f.coeffs) if c != 0.0), 0)
    if decay + nu < 2.0:
        raise InsufficientDecayError(
            f"decay {decay} + weight {nu} < 2: not integrable"
        )


def _column_form(left: np.ndarray, matrix: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_{m,n} left[m, z] matrix[m, n] right[n, z] for every column z.

    One matrix product (a single GEMM) and a column-wise dot, instead of a
    three-operand contraction that no BLAS call serves.
    """
    return np.einsum("mz,mz->z", left, matrix @ right)


def toeplitz_diagonal(f: DiskFunction, nu: float, degree: int | np.ndarray) -> np.ndarray:
    """Diagonal of T_f for radial-polynomial f, by exact Beta integrals.

    Entry m: sum_s a_s (nu-1)(nu)_m Gamma(nu+s-1)/Gamma(nu+s+m)
    = sum_s a_s (nu-1)/(nu+s-1) prod_{i<s} (nu+i)/(nu+m+i), rational in m.
    An int ``degree`` gives the entries m = 0..degree, an array the entries
    at the (real) m it holds.  Each term's product of s ratios below 1 runs
    from the first ratio up, so it underflows only where the term does.
    """
    nu = validate_weight(nu)
    _check_decay(f, nu)
    m = np.arange(degree + 1.0) if np.ndim(degree) == 0 else np.asarray(degree, float)
    out, prod = np.zeros(m.shape), np.ones(m.shape)
    for s, a in enumerate(f.coeffs):
        if s:
            prod *= (nu + s - 1.0) / (m + (nu + s - 1.0))
        if a != 0.0:
            out += a * (nu - 1.0) / (nu + s - 1.0) * prod
    return out


def toeplitz_operator(f: DiskFunction, nu: float, degree: int) -> TruncatedOperator:
    """The Toeplitz operator T_f = (nu-1) R_nu^*(f) on degrees <= degree:
    exactly diagonal, with the closed-form diagonal of :func:`toeplitz_diagonal`."""
    nu = validate_weight(nu)
    return TruncatedOperator(nu, np.diag(toeplitz_diagonal(f, nu, degree)), True)


def _berezin_radial_closed(s: int, nu: float, t: float) -> float:
    """B_nu((1-|.|^2)^s)(z) = (1-t)^s 2F1(s, s; nu+s; t) / (nu+s-1), t = |z|^2."""
    total, term, i = 0.0, 1.0, 0
    while True:
        total += term
        i += 1
        term *= (s + i - 1.0) ** 2 * t / ((nu + s + i - 1.0) * i)
        if abs(term) <= 1e-17 * abs(total) and i > 4:
            break
        if i > 100000:  # t <= 0.99 keeps the ratio below ~0.99
            raise RuntimeError("hypergeometric series failed to converge")
    return (1.0 - t) ** s * total / (nu + s - 1.0)


def berezin_transform(f: DiskFunction, nu: float, z):
    """B_nu(f)(z) = int ((1-|z|^2)(1-|x|^2) / |1-z conj(x)|^2)^nu f(x) d iota(x),
    by the closed form of each term (:func:`_berezin_radial_closed`)."""
    nu = validate_weight(nu)
    _check_decay(f, nu)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("evaluation points must lie in the open disk")
    out = np.zeros(z.shape)
    for s, a in enumerate(f.coeffs):
        if a != 0.0:
            out += a * np.array(
                [_berezin_radial_closed(s, nu, abs(zz) ** 2) for zz in z]
            )
    return float(out[0]) if out.size == 1 else out


def husimi_grid(A: TruncatedOperator, index: int, ws) -> np.ndarray:
    """Generalized Husimi function H^index(A) at the points ``ws``.

    H^i(A)(g . 0) = ((nu)_i/i!) <A g.z^i, g.z^i> with g the canonical
    transporter of w.  Its vector at index 0, g . 1 = (-bz + conj a)^{-nu},
    is the normalized coherent state k_{-w} at -w, not at w, so the value at
    w is the covariant symbol <A k_{-w}, k_{-w}> at -w; the two agree at w
    only where A is symmetric under w -> -w, as every radial A is.  For a truncated
    operator the transported-vector sandwich is exact (the expansion
    recursion is lower triangular), so the values carry no
    series-truncation error and any |w| < 1 is accepted.

    Each point w is carried by the coefficient arrays of its canonical
    transporter (vectorized transport recursion).  Points are processed in
    chunks so the transported-vector workspace stays bounded even for
    quadrature-sized grids against large operators.  With v the transported
    vectors (one column per point), a diagonal operator gives diag @ |v|^2;
    any other gives sum_m conj(v)[m] (A v)[m] per column, one GEMM and a
    column dot.
    """
    if not A.hermitian:
        raise ValueError("Husimi values are defined for Hermitian operators")
    ws = np.asarray(ws, dtype=complex).ravel()
    diag = np.real(np.diag(A.matrix))
    is_diag = A.is_diagonal
    out = np.empty(ws.shape)
    chunk = max(1, (1 << 22) // (A.degree + 1))
    for i0 in range(0, ws.size, chunk):
        g = transporter_coefficients(ws[i0 : i0 + chunk])
        vecs, _ = bergman.transported_basis_vectors(A.weight, g, index, A.degree)
        if is_diag:
            out[i0 : i0 + chunk] = diag @ (np.abs(vecs) ** 2)
        else:
            out[i0 : i0 + chunk] = np.real(_column_form(np.conj(vecs), A.matrix, vecs))
    return out


def e_transform(
    f: DiskFunction,
    mu: float,
    k: int,
    z,
    nu: float | None = None,
):
    """The alternating Berezin sums E_{mu,k}(f)(z) and their finite-nu versions.

    Without ``nu``: ((mu)_k/k!) sum_j (-1)^j binom(k,j) B_{mu+j}(f)(z).
    With ``nu``: C^2_{mu,nu,k} sum_j (-1)^j binom(k,j) ((nu+k-j)_k/(nu)_k)
    B_{mu+j}(f)(z), the covariant symbol of the channel on the Toeplitz input.
    Evaluated with compensated summation (cancellation grows with k).
    """
    mu = validate_weight(mu)
    terms = []
    for j in range(k + 1):
        bval = berezin_transform(f, mu + j, z)
        if nu is None:
            coeff = (
                (-1.0) ** j
                * math.comb(k, j)
                * math.exp(math.lgamma(mu + k) - math.lgamma(mu) - math.lgamma(k + 1.0))
            )
        else:
            coeff = (
                (-1.0) ** j
                * math.comb(k, j)
                * channel_constant_sq(mu, nu, k)
                * pochhammer(float(nu) + k - j, k)
                / pochhammer(float(nu), k)
            )
        terms.append(coeff * np.atleast_1d(np.asarray(bval)))
    stacked = np.stack(terms, axis=0)
    out = np.array([math.fsum(col) for col in stacked.T])
    return float(out[0]) if out.size == 1 else out
