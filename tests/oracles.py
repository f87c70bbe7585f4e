"""Shared independent oracles for the test suite.

Everything here evaluates defining integrals or brute-force sums directly and
stays away from the library's coefficient algebra, except the second
readings of the channel's coupling terms (:func:`projection_coefficients`,
:func:`pk_star_vector`), which the tests check against identities that the
library's own routes do not use, and the whole-grid and sequential
readings of the library's own kernels (:func:`weight_grid`,
:func:`chain_weight_sums`, :func:`output_spectrum_per_degree`), which its
blocked and chunked routes must reproduce, and the complex route of the
channel's bands (:func:`complex_matvec_bands`), which its real one must meet
within the rounding of a dot product.
"""

import math
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np
from scipy.special import gammaln, loggamma, roots_jacobi, roots_legendre

from diskchannels.bergman import (
    TruncatedOperator,
    scaled_basis_values,
    transported_basis_vectors,
)
from diskchannels.channel import (
    _TERM_BITS,
    _Couplings,
    _derivative_sum,
    _derivative_terms,
    _falling,
)
from diskchannels.disk import gauss_jacobi, transporter_coefficients
from diskchannels.specfun import BLOCK, berezin_eigenvalue, channel_constant_sq
from diskchannels.spectral import _chain_sums, _graded_angles, eigenfunction


def berezin_eigenvalue_loggamma(nu, lam):
    """b_nu(lambda) = |Gamma(nu - 1/2 + i lambda/2)|^2 / (Gamma(nu) Gamma(nu - 1))
    through scipy's complex log-Gamma only: the second route of the
    two-route check on :func:`diskchannels.specfun.berezin_eigenvalue`."""
    log_gamma = float(np.real(loggamma(complex(nu - 0.5, 0.5 * lam))))
    return math.exp(2.0 * log_gamma - math.lgamma(nu) - math.lgamma(nu - 1))


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


def projection_coefficients(params, max_grade):
    """The graded action P_k(z^m w^n) = c_{m,n} zeta^{m+n-k}: the array of
    c_{m,n} for m, n <= max_grade + k, zero where m + n < k or
    m + n > max_grade + k."""
    if max_grade < params.k:
        raise ValueError("max_grade must be >= k")
    top = max_grade + params.k
    m = np.arange(top + 1)[:, None]
    n = np.arange(top + 1)[None, :]
    const = math.sqrt(channel_constant_sq(params.mu, params.nu, params.k))
    vals = const * _derivative_sum(params, m, n)
    return np.where((m + n < params.k) | (m + n > top), 0.0, vals)


def pk_star_vector(params, p):
    """Monomial expansion of P_k* zeta^p: complete list over m + n = p + k.

    Coefficients are c_{m,n} ||zeta^p||^2 / (||z^m||^2 ||w^n||^2); the list is
    finite and untruncated.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    couplings = _Couplings(params)
    ms = p + params.k - np.arange(p + params.k + 1)
    S, r = couplings.row_terms(p, ms)
    # c_{m,n} ||zeta^p||^2 / (||z^m||^2 ||w^n||^2) = S r_m[p] / C
    coeffs = S[0] * r[0] / math.sqrt(couplings.c2)
    return [
        (m, p + params.k - m, c)
        for m, s, c in zip(ms.tolist(), S[0].tolist(), coeffs.tolist())
        if s != 0.0
    ]


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


def weight_grid(params, p_max, m_max):
    """V[p, m] = w^{(p)}_{m, p+k-m} for 0 <= p <= p_max, 0 <= m <= m_max, as
    one grid of the library's coupling terms: the reference that the channel
    blocks, a block of output indices at a time, reproduce."""
    couplings = _Couplings(params)
    return couplings.weights(np.arange(p_max + 1), np.arange(m_max + 1),
                             couplings.r0(p_max).take(p_max + 1))


def complex_matvec_bands(A, params):
    """{off: (band, scale)} of T(A) on the weight grid of the whole cut, each
    band a complex matvec, as the channel formed them before its real
    products: the weight products V[t + off, m] V[t, m - off] (off >= 0;
    rows t and t - off below) as the real parts of a complex buffer, times
    A's entries A[m - off, m].  ``scale`` is sum_m |V V| |A[m - off, m]|."""
    L, d = params.default_output_degree(), A.degree
    m_top = min(d, L + params.k)
    V = weight_grid(params, L, m_top)
    bands = {}
    for off in range(0 if A.hermitian else -m_top, m_top + 1):
        m_lo, m_hi, size = max(0, off), min(m_top, m_top + off), L + 1 - abs(off)
        ms = np.arange(m_lo, m_hi + 1)
        diag = A.matrix[ms - off, ms]
        if size <= 0 or not np.any(diag):
            continue
        p0 = max(off, 0)
        prod = np.zeros((size, ms.size), dtype=complex)
        prod.real = V[p0 : p0 + size, ms] * V[p0 - off : p0 - off + size, ms - off]
        bands[off] = (prod @ diag, np.abs(prod.real) @ np.abs(diag))
    return bands


def chain_weight_sums(nus, radial, angular):
    """(sum of w, sum of w^2) per weight over the chains of n points drawn
    from the uniforms ``radial`` and ``angular``, both of shape (n, m),
    through the library's chain pass with the uniforms copied a block at a
    time (never written): the sequential reading that the chunked draws of
    the Monte Carlo estimate reproduce."""
    radial = np.asarray(radial, dtype=float)
    angular = np.asarray(angular, dtype=float)

    def copy(lo, radial_block, angular_block):
        hi = lo + radial_block.shape[1]
        radial_block[...] = radial[:, lo:hi]
        angular_block[...] = angular[:, lo:hi]

    return _chain_sums(nus, len(radial), radial.shape[1], copy)


def output_spectrum_per_degree(params, diag, cut, nodes=None):
    """:func:`diskchannels.channel.diagonal_output_spectrum` by its
    per-degree Horner loop: on each block of BLOCK output indices, every
    degree reads its slices of the block's tables and forms its own term
    where it adds it, and the nodes run as one more pass over every degree.
    The library's chunked table loop must give the same bits."""
    diag = np.asarray(diag, dtype=float)
    k, mu, nu = params.k, params.mu, params.nu
    out = np.zeros(cut + 1)
    at_nodes = None if nodes is None else np.zeros(np.shape(nodes))
    support = np.flatnonzero(diag)
    if support.size == 0:
        return out if nodes is None else (out, at_nodes)
    m_top = int(support[-1]) if nodes is not None else min(int(support[-1]), cut + k)
    terms = _derivative_terms(params)
    # w = ((mu)_m/m!) / ((mu)_{m_top}/m_top!) = w_mant[m] 2**w_exp[m]
    w_mant, w_exp = [0.0] * m_top + [0.5], [0] * m_top + [1]
    for m in range(m_top - 1, -1, -1):
        w_mant[m], e = math.frexp(w_mant[m + 1] * ((m + 1.0) / (mu + m)))
        w_exp[m] = w_exp[m + 1] + e
    # the groups' top degrees and binary exponents e, from the top down: a
    # group's true acc, in units of (mu)_{m_top}/m_top!, is the stored one
    # times 2**e, e = 0 for the first group and the exponent of its top's w
    # for the others
    tops, exps = [m_top], [0]
    for m in support[support <= m_top][::-1].tolist():
        if w_exp[m] - exps[-1] < -_TERM_BITS:
            tops.append(m)
            exps.append(w_exp[m])
    bottoms = [top + 1 for top in tops[1:]] + [0]
    couplings = _Couplings(params)
    r0 = couplings.r0(cut)
    work = np.empty(max(min(cut + 1, BLOCK), 0 if nodes is None else at_nodes.size))
    part = np.empty_like(work) if k > 1 else None  # the terms j = 1..k-1 of S
    later = np.empty_like(work) if len(tops) > 1 else None  # a later group's acc

    def block_levels(p0, top):
        """level(m) = (lo, step, (n)_{k-j}, j < k) of out[p0 + lo : p1]."""
        p1 = min(p0 + BLOCK, cut + 1)
        n_lo = max(0, p0 + k - top)  # the n = p + k - m of the block
        n_all = np.arange(n_lo, p1 + k, dtype=float)
        step = n_all / (nu + n_all - 1.0)
        fall_n = [_falling(n_all, k - j) for j in range(k)]

        def level(m):
            lo = max(0, m - k - p0)  # lambda_p(m) = 0 for p < m - k
            n = slice(p0 + lo + k - m - n_lo, p1 + k - m - n_lo)
            return lo, step[n], [f[n] for f in fall_n]
        return level

    def horner(acc, top, bottom, acc_exp, level):
        """Degrees ``top`` down to 0 on the block acc, adding the terms of
        the degrees ``top`` down to ``bottom``."""
        for m in range(top, -1, -1):
            lo, step, fall_n = level(m)
            if lo >= acc.size:
                continue
            if m < top:
                acc[lo:] *= step
            if m < bottom or diag[m] == 0.0:
                continue
            # S scaled by the root of the coefficient, so that its square is
            # the term up to the coefficient's sign
            coef = math.ldexp(diag[m] * w_mant[m], w_exp[m] - acc_exp)
            root = math.sqrt(abs(coef))
            c = [root * coeff * _falling(m, j) for j, coeff in terms]
            S = work[lo : acc.size]
            if k:
                np.multiply(fall_n[0], c[0], out=S)
                for j in range(1, k):
                    S += np.multiply(fall_n[j], c[j], out=part[lo : acc.size])
                S += c[k]
            else:
                S.fill(c[0])
            S *= S
            if coef > 0.0:
                acc[lo:] += S
            else:
                acc[lo:] -= S

    def finish(acc, acc_exp, r0_mant, r0_exp):
        """acc = r_0 acc 2**acc_exp / w_0, in place."""
        shift = acc_exp - w_exp[0]
        if r0_exp is None and abs(shift) <= 64:
            # an entry whose product r_0 acc is subnormal is below 2**-957
            acc *= r0_mant
            acc *= math.ldexp(1.0 / w_mant[0], shift)
            return
        # the mantissas are multiplied and the binary exponents of acc, r_0
        # and w_0 added exactly
        mant, expo = np.frexp(acc)
        mant *= r0_mant
        mant *= 1.0 / w_mant[0]
        if r0_exp is not None:
            expo += r0_exp
        expo += shift
        np.ldexp(mant, expo, out=acc)

    def run(block, levels, block_r0):
        """Every group on the block, given levels(top) and block_r0(size)."""
        for g, (top, bottom, acc_exp) in enumerate(zip(tops, bottoms, exps)):
            acc = block if g == 0 else later[: block.size]
            if g:
                acc.fill(0.0)
            horner(acc, top, bottom, acc_exp, levels(top))
            if g == 0:  # once the first group's tables are freed
                r0_block = block_r0(block.size)
            finish(acc, acc_exp, *r0_block)
            if g:
                block += acc

    for p0 in range(0, cut + 1, BLOCK):
        run(out[p0 : p0 + BLOCK], lambda top: block_levels(p0, top), r0.take)
    if nodes is not None:
        # row m of each node table is at the n = x + k - m of degree m
        n = (np.asarray(nodes, dtype=float) + k) - np.arange(m_top + 1.0)[:, None]
        step, *fall_n = [n / (nu + n - 1.0)] + [_falling(n, k - j) for j in range(k)]
        run(at_nodes, lambda top: lambda m: (0, step[m], [f[m] for f in fall_n]),
            lambda size: (couplings.r0_at(nodes), None))
    return out if nodes is None else (out, at_nodes)


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
    the scaled basis values e by :func:`column_form_oracle`.

    R_nu(A)(z) = A(z,z)(1-|z|^2)^nu = <A k_z, k_z> for the normalized
    coherent state k_z; |R_nu(A)| <= ||A|| up to the truncation tail of A.
    """
    e = scaled_basis_values(A.weight, np.asarray(z, dtype=complex), A.degree)
    return column_form_oracle(e, A.matrix, np.conj(e))


def husimi_any_weight_oracle(A, index, z):
    """H^index(A) at the points z for any weight mu, from the series of
    U e_index, U f = phi'^{mu/2} f o phi, phi(t) = (t - z)/(1 - conj(z) t):
    U e_k = c_k (1-|z|^2)^{mu/2} (t - z)^k (1 - conj(z) t)^{-mu-k} with
    c_k = ((mu)_k/k!)^{1/2}, whose binomial series needs no group action and
    so no integer weight; t^m is e_m/c_m."""
    mu, d, k = A.weight, A.degree, index
    z = np.asarray(z, dtype=complex)
    n = np.arange(d + 1)
    rising = np.concatenate(([1.0], np.cumprod((mu + k + n[:-1]) / (n[:-1] + 1.0))))
    series = rising[:, None] * np.conj(z)[None, :] ** n[:, None]
    poly = np.zeros((d + 1, z.size), dtype=complex)
    for i in range(min(k, d) + 1):
        poly[i:] += math.comb(k, i) * (-z) ** (k - i) * series[: d + 1 - i]
    log_c = 0.5 * np.array([lpoch(mu, m) - math.lgamma(m + 1.0) for m in range(max(d, k) + 1)])
    vecs = poly * np.exp(log_c[k] - log_c[: d + 1])[:, None] * (1.0 - abs(z) ** 2) ** (mu / 2)
    return np.real(column_form_oracle(np.conj(vecs), A.matrix, vecs)[0])


def toeplitz_quadrature_oracle(values, nu, degree, quadrature):
    """T_f on degrees <= degree, entry-wise by quadrature: entries
    (nu-1) int f e_n conj(e_m) (1-|z|^2)^nu d iota, with f given by its
    ``values`` on the quadrature nodes; Hermitian iff f is real on them."""
    e = scaled_basis_values(nu, quadrature.nodes, degree)
    weighted = quadrature.weights * values  # (1-u)^nu already folded into e twice
    mat = (nu - 1.0) * np.einsum("nz,z,mz->mn", e, weighted, np.conj(e))
    hermitian = bool(np.all(np.abs(np.imag(values)) < 1e-14))
    if hermitian:
        mat = 0.5 * (mat + mat.conj().T)
    return TruncatedOperator(nu, mat, hermitian)


def berezin_quadrature_oracle(values, nu, z, quadrature):
    """B_nu(f)(z) for one point z, integrating f's ``values`` on the
    quadrature nodes against the kernel, assembled in log domain; real when
    the imaginary part is below rounding."""
    x = quadrature.nodes
    log_ker = (nu * np.log1p(-abs(z) ** 2) + nu * np.log1p(-np.abs(x) ** 2)
               - 2.0 * nu * np.log(np.abs(1.0 - z * np.conj(x))))
    out = np.sum(quadrature.weights * np.exp(log_ker) * values)
    return out.real if abs(out.imag) < 1e-13 * (1.0 + abs(out.real)) else out


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
