"""Covariant symbols, Toeplitz operators, Berezin transforms, Husimi functions.

Functions on the disk are :class:`DiskFunction` values in one of three forms:
radial polynomials in (1-|z|^2) (every transform has an exact Beta/Gamma or
terminating-hypergeometric closed form), boundary eigenfunctions e_{lambda,b},
and sampled grids tied to a quadrature.  Closed forms anchor the acceptance
tests; quadrature covers the general routes and cross-checks the closed ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import bergman
from .bergman import TruncatedOperator
from .disk import DiskQuadrature, transporter_coefficients
from .specfun import channel_constant_sq, pochhammer, validate_weight

__all__ = [
    "DiskFunction",
    "InsufficientDecayError",
    "radial_poly",
    "eigen_function",
    "grid_function",
    "covariant_symbol",
    "toeplitz_diagonal",
    "toeplitz_operator",
    "berezin_transform",
    "husimi",
    "husimi_grid",
    "e_transform",
]


class InsufficientDecayError(ValueError):
    """The integrand decays too slowly at the boundary for the weight."""


@dataclass(frozen=True)
class DiskFunction:
    """A function on the open unit disk with a declared boundary decay.

    ``form`` is one of "radial_poly" (coefficients alpha_s over powers of
    1-|z|^2), "eigen" (spectral parameter and boundary point of e_{lambda,b}),
    or "grid" (node samples tied to a quadrature).  ``min_decay`` is the
    smallest s with f = O((1-|z|^2)^s) at the boundary.
    """

    form: str
    min_decay: float
    coeffs: tuple = ()
    lam: float = 0.0
    boundary: complex = 1.0 + 0j
    values: np.ndarray | None = None
    quadrature: DiskQuadrature | None = None

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.form == "radial_poly":
            base = 1.0 - np.abs(z) ** 2
            out = np.zeros(z.shape)
            for s, a in enumerate(self.coeffs):
                if a != 0.0:
                    out = out + a * base**s
            return out if out.ndim else float(out)
        if self.form == "eigen":
            from .spectral import eigenfunction

            return eigenfunction(self.lam, self.boundary, z)
        raise ValueError("grid functions have no pointwise evaluation")

    @property
    def is_radial(self) -> bool:
        return self.form == "radial_poly"


def radial_poly(coeffs) -> DiskFunction:
    """f(z) = sum_s coeffs[s] (1-|z|^2)^s."""
    coeffs = tuple(float(c) for c in coeffs)
    decay = next((s for s, c in enumerate(coeffs) if c != 0.0), 0)
    return DiskFunction(form="radial_poly", min_decay=float(decay), coeffs=coeffs)


def eigen_function(lam: float, boundary: complex = 1.0 + 0j) -> DiskFunction:
    """The eigenfunction e_{lambda,boundary}; |e| ~ (1-|z|^2)^{1/2} at the edge."""
    b = complex(boundary)
    if abs(abs(b) - 1.0) > 1e-14:
        raise ValueError("boundary point must lie on the unit circle")
    return DiskFunction(form="eigen", min_decay=0.5, lam=float(lam), boundary=b)


def grid_function(values, quadrature: DiskQuadrature, min_decay: float) -> DiskFunction:
    values = np.asarray(values)
    if values.shape != quadrature.nodes.shape:
        raise ValueError("values must be sampled on the quadrature nodes")
    return DiskFunction(
        form="grid", min_decay=float(min_decay), values=values, quadrature=quadrature
    )


def _node_values(f: DiskFunction, quadrature: DiskQuadrature) -> np.ndarray:
    if f.form == "grid":
        if f.quadrature is not quadrature:
            raise ValueError("grid function is tied to a different quadrature")
        return f.values
    return np.asarray(f(quadrature.nodes))


def _check_decay(f: DiskFunction, nu: float):
    if f.min_decay + nu < 2.0:
        raise InsufficientDecayError(
            f"min_decay {f.min_decay} + weight {nu} < 2: not integrable"
        )


def covariant_symbol(A: TruncatedOperator, z):
    """R_nu(A)(z) = A(z,z)(1-|z|^2)^nu, the bounded diagonal symbol.

    Evaluates (1-|z|^2)^nu sum_{m,n} A_{mn} e_m(z) conj(e_n(z)) through the
    boundedly-scaled basis so huge weights stay finite.  |result| <= ||A|| up
    to the truncation tail of A itself.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    e = bergman.scaled_basis_values(A.weight, z, A.degree)  # includes (1-u)^{nu/2}
    out = np.einsum("mz,mn,nz->z", e, A.matrix, np.conj(e))
    if A.hermitian:
        out = np.real(out)
    return complex(out[0]) if out.size == 1 else out


def toeplitz_diagonal(f: DiskFunction, nu: float, degree: int) -> np.ndarray:
    """Diagonal of T_f for radial-polynomial f, by exact Beta integrals.

    Entry m: sum_s alpha_s (nu-1)(nu)_m Gamma(nu+s-1)/Gamma(nu+s+m).
    """
    if not f.is_radial:
        raise ValueError("closed-form diagonal requires a radial polynomial")
    nu = validate_weight(nu)
    _check_decay(f, nu)
    ms = np.arange(degree + 1, dtype=float)
    log_poch_nu_m = gammaln(nu + ms) - gammaln(nu)
    out = np.zeros(degree + 1)
    for s, a in enumerate(f.coeffs):
        if a == 0.0:
            continue
        out += a * (nu - 1.0) * np.exp(
            log_poch_nu_m + gammaln(nu + s - 1.0) - gammaln(nu + s + ms)
        )
    return out


def toeplitz_operator(
    f: DiskFunction, nu: float, degree: int, quadrature: DiskQuadrature | None = None
) -> TruncatedOperator:
    """The Toeplitz operator T_f = (nu-1) R_nu^*(f) on degrees <= degree.

    Radial polynomials produce an exactly diagonal matrix via closed forms;
    eigen and grid functions integrate entry-wise with a disk quadrature
    (entries (nu-1) int f e_n conj(e_m) (1-|z|^2)^nu d iota).  Hermitian iff f
    is real-valued on the nodes.
    """
    nu = validate_weight(nu)
    _check_decay(f, nu)
    if f.is_radial and quadrature is None:
        return TruncatedOperator(nu, np.diag(toeplitz_diagonal(f, nu, degree)), True)
    if quadrature is None:
        if f.form == "grid":
            quadrature = f.quadrature
        else:
            raise ValueError("non-radial Toeplitz operators need a quadrature")
    vals = _node_values(f, quadrature)
    e = bergman.scaled_basis_values(nu, quadrature.nodes, degree)
    weighted = quadrature.weights * vals  # (1-u)^nu already folded into e twice
    mat = (nu - 1.0) * np.einsum("nz,z,mz->mn", e, weighted, np.conj(e))
    hermitian = bool(np.all(np.abs(np.imag(vals)) < 1e-14))
    if hermitian:
        mat = 0.5 * (mat + mat.conj().T)
    return TruncatedOperator(nu, mat, hermitian)


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


def berezin_transform(
    f: DiskFunction, nu: float, z, quadrature: DiskQuadrature | None = None
):
    """B_nu(f)(z) = int ((1-|z|^2)(1-|x|^2) / |1-z conj(x)|^2)^nu f(x) d iota(x).

    Radial polynomials evaluate by the exact terminating-series closed form
    unless a quadrature is forced; eigen and grid functions integrate against
    the kernel (assembled in log domain so weight sweeps cannot underflow).
    """
    nu = validate_weight(nu)
    _check_decay(f, nu)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("evaluation points must lie in the open disk")
    if f.is_radial and quadrature is None:
        out = np.zeros(z.shape)
        for s, a in enumerate(f.coeffs):
            if a != 0.0:
                out += a * np.array(
                    [_berezin_radial_closed(s, nu, abs(zz) ** 2) for zz in z]
                )
        return float(out[0]) if out.size == 1 else out
    if quadrature is None:
        if f.form == "grid":
            quadrature = f.quadrature
        else:
            raise ValueError("this function form needs an explicit quadrature")
    vals = _node_values(f, quadrature)
    x = quadrature.nodes
    log_x = nu * np.log1p(-np.abs(x) ** 2)
    out = np.empty(z.shape, dtype=complex)
    for i, zz in enumerate(z):
        log_ker = nu * (np.log1p(-abs(zz) ** 2)) + log_x - 2.0 * nu * np.log(
            np.abs(1.0 - zz * np.conj(x))
        )
        out[i] = np.sum(quadrature.weights * np.exp(log_ker) * vals)
    if np.all(np.abs(out.imag) < 1e-13 * (1.0 + np.abs(out.real))):
        out = out.real
    return out[0] if out.size == 1 else out


def husimi(A: TruncatedOperator, index: int, w: complex) -> float:
    """Generalized Husimi function H^index(A)(w) at the point w.

    H^i(A)(g . 0) = ((nu)_i/i!) <A g.z^i, g.z^i> with g the canonical
    transporter of w.  For a truncated operator the transported-vector
    sandwich is exact (the expansion recursion is lower triangular), so the
    value carries no series-truncation error and any |w| < 1 is accepted.
    """
    if not A.hermitian:
        raise ValueError("Husimi values are defined for Hermitian operators")
    return float(husimi_grid(A, index, [w])[0])


def husimi_grid(A: TruncatedOperator, index: int, ws) -> np.ndarray:
    """Husimi values at many points at once (vectorized transport recursion).

    Each point w is carried by the coefficient arrays of its canonical
    transporter.  Points are processed in chunks so the transported-vector
    workspace stays bounded even for quadrature-sized grids against large
    operators.
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
            out[i0 : i0 + chunk] = np.real(
                np.einsum("mz,mn,nz->z", np.conj(vecs), A.matrix, vecs)
            )
    return out


def e_transform(
    f: DiskFunction,
    mu: float,
    k: int,
    z,
    nu: float | None = None,
    quadrature: DiskQuadrature | None = None,
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
        bval = berezin_transform(f, mu + j, z, quadrature=quadrature)
        if nu is None:
            coeff = (
                (-1.0) ** j
                * math.comb(k, j)
                * math.exp(gammaln(mu + k) - gammaln(mu) - gammaln(k + 1.0))
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
    if np.iscomplexobj(stacked):
        out = np.array(
            [
                math.fsum(col.real) + 1j * math.fsum(col.imag)
                for col in stacked.T
            ]
        )
        return complex(out[0]) if out.size == 1 else out
    out = np.array([math.fsum(col) for col in stacked.T])
    return float(out[0]) if out.size == 1 else out
