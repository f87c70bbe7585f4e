"""Shared independent oracles for the test suite.

Everything here evaluates defining integrals or brute-force sums directly and
stays away from the library's coefficient algebra.
"""

import math
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np
from scipy.special import gammaln, roots_jacobi, roots_legendre

from diskchannels.bergman import (
    TruncatedOperator,
    scaled_basis_values,
    transported_basis_vectors,
)
from diskchannels.disk import gauss_jacobi, transporter_coefficients
from diskchannels.specfun import berezin_eigenvalue, channel_constant_sq
from diskchannels.spectral import _graded_angles, eigenfunction


def lpoch(a, n):
    return gammaln(a + np.asarray(n, dtype=float)) - gammaln(a)


def measure_nodes(nr, na, weight):
    """Nodes and weights for the probability measure d iota_weight."""
    x, wq = roots_legendre(nr)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wq
    theta = 2 * np.pi * (np.arange(na) + 0.5) / na
    z = (np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    W = (((weight - 1) * wu * (1 - u) ** (weight - 2))[:, None] / na).repeat(
        na, axis=1
    ).ravel()
    return z, W


def projection_integral_oracle(mu, nu, k, m, n, zeta):
    """P_k(z^m w^n)(zeta) by quadrature of the integral form (binomially
    expanded so the two disk integrals factor)."""
    zz, Wz = measure_nodes(80, 48, mu)
    zw, Ww = measure_nodes(80, 48, nu)
    total = 0.0 + 0.0j
    for alpha in range(k + 1):
        iz = np.sum(
            Wz * zz**m * np.conj(zz) ** alpha * (1 - zeta * np.conj(zz)) ** (-mu - alpha)
        )
        iw = np.sum(
            Ww
            * zw**n
            * np.conj(zw) ** (k - alpha)
            * (1 - zeta * np.conj(zw)) ** (-nu - (k - alpha))
        )
        total += math.comb(k, alpha) * (-1) ** (k - alpha) * iz * iw
    return math.sqrt(channel_constant_sq(mu, nu, k)) * total


def gammaform_eigenvalue_oracle(mu, nu, ps, radius=0.5, modes=64):
    """Grade-0 channel eigenvalues on the lowest state by quadrature of the
    triple-integral kernel formula, read off as angular Fourier modes of
    T(r e^{ia}, r)."""
    s = mu + nu
    zz, Wz = measure_nodes(80, 48, mu)
    zw, Ww = measure_nodes(80, 48, nu)
    angles = 2 * np.pi * np.arange(modes) / modes
    xs = radius * np.exp(1j * angles)
    y = radius + 0j
    iz = ((1 - xs[:, None] * np.conj(zz)[None, :]) ** (-mu)) @ Wz
    iu = np.sum((1 - zz * np.conj(y)) ** (-mu) * Wz)
    g = np.array(
        [
            np.sum((1 - x * np.conj(zw)) ** (-nu) * (1 - zw * np.conj(y)) ** (-nu) * Ww)
            for x in xs
        ]
    )
    co = np.fft.fft(iz * iu * g) / modes
    ps = np.asarray(ps)
    return np.real(co[ps]) / np.exp(lpoch(s, ps) - gammaln(ps + 1.0)) / radius ** (
        2 * ps
    )


def chain2_series_oracle(nu, terms=4000):
    """Closed form I_2(nu) = sum_i [(nu/2)_i/(nu)_i]^2."""
    i = np.arange(terms, dtype=float)
    log_ratio = (gammaln(nu / 2 + i) - gammaln(nu / 2)) - (
        gammaln(nu + i) - gammaln(nu)
    )
    return float(np.sum(np.exp(2 * log_ratio)))


def chain2_complex_quadrature_oracle(nu, radial_count, angular_count, rule=None):
    """I_2(nu) by the full tensor rule in complex arithmetic: the radial
    ``rule`` (nodes u, weights) for (1-u)^{nu-2} if given, else scipy's
    Gauss-Jacobi rule (whose weights carry 2^{nu-1}, so nu <~ 1000), every
    radial pair and every midpoint angle, kernel |1 - r e^{i phi}|^{-nu} with
    r = sqrt(u_i u_j)."""
    if rule is None:
        x, wx = roots_jacobi(radial_count, nu - 2.0, 0.0)
        u, wu = 0.5 * (x + 1.0), wx / 2.0 ** (nu - 1.0)
    else:
        u, wu = rule
    phi = 2.0 * np.pi * (np.arange(angular_count) + 0.5) / angular_count
    r = np.sqrt(np.outer(u, u))
    angular = np.zeros_like(r)
    for i0 in range(0, angular_count, 64):
        block = np.exp(1j * phi[i0 : i0 + 64])
        angular += np.sum(
            np.exp(-nu * np.log(np.abs(1.0 - r[:, :, None] * block[None, None, :]))),
            axis=2,
        )
    angular /= angular_count
    return float((nu - 1.0) ** 2 * wu @ angular @ wu)


def chain_estimate_oracle(n, nu, seed, sample_count):
    """Monte Carlo mean of prod_i |1 - z_i conj(z_{i+1})|^{-nu} in complex
    arithmetic, on the draws of ``chained_kernel_integral`` (same generator,
    chunks and order: radii then angles per chunk)."""
    rng = np.random.default_rng(seed)
    total = 0.0
    chunk = 1 << 16
    done = 0
    while done < sample_count:
        m = min(chunk, sample_count - done)
        u = 1.0 - (1.0 - rng.random((n, m))) ** (1.0 / (nu - 1.0))
        theta = 2.0 * np.pi * rng.random((n, m))
        z = np.sqrt(u) * np.exp(1j * theta)
        log_w = np.zeros(m)
        for i in range(n - 1):
            log_w -= nu * np.log(np.abs(1.0 - z[i] * np.conj(z[i + 1])))
        total += float(np.sum(np.exp(log_w)))
        done += m
    return total / sample_count


def _rising(x, j):
    return mp.fprod(x + i for i in range(j))


def coupling_response_oracle(mu, nu, k, m, p, dps=40):
    """(lambda_p(m), r_m[p], S(m,n), T(m,n)) at ``dps`` digits, n = p + k - m.

    lambda_p(m) = S^2 r_m[p] with r_m[p] = C^2 (p!/(s)_p) ((mu)_m/m!) ((nu)_n/n!)
    from log-gammas and S = sum_j (-1)^{k-j} C(k,j) (m)_j (n)_{k-j}/((mu)_j (nu)_{k-j})
    summed term by term; T is the same sum with every term positive.  All
    four are 0 where n < 0.
    """
    with mp.workdps(dps):
        n = p + k - m
        if n < 0:
            return (mp.mpf(0),) * 4
        mu, nu = mp.mpf(mu), mp.mpf(nu)
        s = mu + nu + 2 * k
        S, T = mp.mpf(0), mp.mpf(0)
        for j in range(k + 1):
            term = math.comb(k, j) * math.perm(m, j) * math.perm(n, k - j) / (
                _rising(mu, j) * _rising(nu, k - j)
            )
            S += (-1) ** (k - j) * term
            T += term
        c2 = _rising(mu, k) * _rising(nu, k) / (
            math.factorial(k) * _rising(mu + nu + k - 1, k)
        )
        r = c2 * mp.exp(
            mp.loggamma(p + 1) - mp.loggamma(s + p) + mp.loggamma(s)
            + mp.loggamma(mu + m) - mp.loggamma(mu) - mp.loggamma(m + 1)
            + mp.loggamma(nu + n) - mp.loggamma(nu) - mp.loggamma(n + 1)
        )
        return S * S * r, r, S, T


def dropped_trace_oracle(mu, nu, k, diag, cut, digits=40):
    """sum_m diag[m] sum_{p > cut} lambda_p(m) at ``digits`` digits.

    Sum_p lambda_p(m) = (mu+nu+2k-1)/(mu-1) for every m, so this is that
    total times sum(diag) minus the captured sum over p <= cut.  Each row
    r_m[p] runs by its recurrence in p,
    r_m[p+1] = r_m[p] (p+1)/(s+p) (nu+n)/(n+1), in decimal arithmetic from
    its first nonzero entry (mpmath at the same precision), with S summed at
    that precision; no log-gamma enters past that entry.
    """
    def dec(x):
        return Decimal(mp.nstr(x, digits + 5))

    with localcontext() as ctx, mp.workdps(digits):
        ctx.prec = digits
        mu_d, nu_d = Decimal(mu), Decimal(nu)
        s_d = mu_d + nu_d + 2 * k
        coeff = [
            dec((-1) ** (k - j) * math.comb(k, j)
                / (_rising(mp.mpf(mu), j) * _rising(mp.mpf(nu), k - j)))
            for j in range(k + 1)
        ]
        total = Decimal(0)
        captured = Decimal(0)
        for m, weight in enumerate(diag):
            if weight == 0.0:
                continue
            w = Decimal(float(weight))
            total += w
            p = max(0, m - k)
            _, r, _, _ = coupling_response_oracle(mu, nu, k, m, p, dps=digits + 5)
            r = dec(r)
            row = Decimal(0)
            while p <= cut:
                n = p + k - m
                S = sum(c * math.perm(m, j) * math.perm(n, k - j) for j, c in enumerate(coeff))
                row += S * S * r
                r = r * (p + 1) * (nu_d + n) / ((s_d + p) * (n + 1))
                p += 1
            captured += w * row
        return (s_d - 1) / (mu_d - 1) * total - captured


def random_psd(mu, dim, rank, seed, unit_trace=True):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    if unit_trace:
        m /= np.real(np.trace(m))
    return TruncatedOperator(mu, m, hermitian=True)


def lowest_state(mu):
    return TruncatedOperator(mu, np.array([[1.0 + 0j]]), hermitian=True)


def column_form_oracle(left, matrix, right):
    """(sum_{m,n} left[m,z] matrix[m,n] right[n,z], the same sum of moduli)
    per column z, by one three-operand contraction with no matrix product."""
    value = np.einsum("mz,mn,nz->z", left, matrix, right)
    scale = np.einsum("mz,mn,nz->z", np.abs(left), np.abs(matrix), np.abs(right))
    return value, scale


def husimi_grid_oracle(A, index, ws):
    """(Husimi values, rounding scale) at the points ws: the form
    conj(v)^T A v of the transported vectors v by :func:`column_form_oracle`."""
    ws = np.asarray(ws, dtype=complex)
    vecs, _ = transported_basis_vectors(
        A.weight, transporter_coefficients(ws), index, A.degree)
    value, scale = column_form_oracle(np.conj(vecs), A.matrix, vecs)
    return np.real(value), scale


def covariant_symbol_oracle(A, z):
    """(covariant symbol, rounding scale) at the points z: e^T A conj(e) of
    the scaled basis values e by :func:`column_form_oracle`."""
    e = scaled_basis_values(A.weight, np.asarray(z, dtype=complex), A.degree)
    return column_form_oracle(e, A.matrix, np.conj(e))


def eigen_residual_oracle(nu, lam, samples, radial_count, angular_count, boundary=1.0):
    """(max over samples of |(nu-1) B_nu(e)(z0)/e(z0) - b_nu(lambda)|, rounding
    scale) on the grid of ``eigen_relation_residual``, with every value of
    e_{lambda,b}(phi(w)) taken as one complex exp of (1 - i lambda)/2 log P.
    The scale is the largest over samples of sum |weight| |e| (1 + |log P|)/|e(z0)|."""
    b = complex(boundary)
    u, _, log_weight = gauss_jacobi(radial_count, nu - 2.0)
    radial = (nu - 1.0) * np.exp(log_weight)
    target = berezin_eigenvalue(nu, lam)
    residual = scale = 0.0
    for z0 in np.asarray(samples, dtype=complex).ravel():
        theta, angular = _graded_angles(
            angular_count, float(np.angle((b - z0) / (1.0 - np.conj(z0) * b))))
        w = np.sqrt(u)[:, None] * np.exp(1j * theta)
        z = (w + z0) / (1.0 + np.conj(z0) * w)
        log_base = np.log((1.0 - np.abs(z) ** 2) / np.abs(z - b) ** 2)
        values = np.exp(0.5 * (1.0 - 1j * lam) * log_base)
        e0 = eigenfunction(lam, b, z0)
        residual = max(residual, abs(radial @ values @ angular / e0 - target))
        moduli = np.abs(values) * (1.0 + np.abs(log_base))
        scale = max(scale, float(radial @ moduli @ angular) / abs(e0))
    return residual, scale
