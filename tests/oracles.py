"""Shared independent oracles for the test suite.

Everything here evaluates defining integrals or brute-force sums directly and
stays away from the library's coefficient algebra.
"""

import math

import numpy as np
from scipy.special import gammaln, roots_legendre

from diskchannels.bergman import TruncatedOperator
from diskchannels.specfun import channel_constant_sq


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


def chain2_complex_quadrature_oracle(nu, radial_count=200, angular_count=512):
    """I_2(nu) by the full tensor rule in complex arithmetic: every radial pair
    and every midpoint angle, kernel |1 - r e^{i phi}|^{-nu} with
    r = sqrt(u_i u_j), no symmetry folded."""
    x, wq = roots_legendre(radial_count)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wq * (1.0 - u) ** (nu - 2.0)
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


def random_psd(mu, dim, rank, seed, unit_trace=True):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    if unit_trace:
        m /= np.real(np.trace(m))
    return TruncatedOperator(mu, m, hermitian=True)


def lowest_state(mu):
    return TruncatedOperator(mu, np.array([[1.0 + 0j]]), hermitian=True)
