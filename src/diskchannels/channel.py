"""Equivariant quantum channels T(A) = P_k (A x I) P_k*.

The grade-k intertwiner P_k acts on monomials as
P_k(z^m w^n) = c_{m,n} zeta^{m+n-k}, and the whole channel reduces to exact
finite sums over the orthonormal-basis coupling coefficients

    w^{(p)}_{m,n} = c_{m,n} ||zeta^p|| / (||z^m|| ||w^n||),   m + n = p + k,

which satisfy sum_n (w^{(p)})^2 = 1 (P_k P_k* = I).  No quadrature enters the
channel: the weights come from tables over consecutive integers, each a
cumulative product of consecutive ratios, and a recurrence in the input
degree, which the output diagonal of a diagonal input shares.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bergman import BandedOperator, TruncatedOperator, log_monomial_norm_sq
from .specfun import (
    channel_constant_sq,
    from_scaled,
    log_channel_constant_sq,
    pochhammer,
    pochhammer_ratios,
    pochhammer_steps,
    scaled_cumprod,
    validate_weight,
)

__all__ = [
    "ChannelParams",
    "SpectrumWindowError",
    "projection_coefficients",
    "pk_star_vector",
    "isometry_weights",
    "apply_channel",
    "diagonal_response",
    "diagonal_output_spectrum",
    "response_tail_bound",
    "output_trace_interval",
    "power_sum",
    "functional_trace",
    "banded_trace",
    "sqrt_series_coefficients",
]

SPECTRUM_SLACK = 1e-9


class SpectrumWindowError(ValueError):
    """A Hermitian spectrum left the window [-slack, 1 + slack]."""


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of T: weight mu input, weight nu tensor factor, grade k.

    An integral k is stored as an int; ``output_degree`` is None (the
    default cut) or an int >= 0.
    """

    mu: float
    nu: float
    k: int
    output_degree: int | None = None

    def __post_init__(self):
        validate_weight(self.mu)
        validate_weight(self.nu)
        if not (isinstance(self.k, numbers.Real) and float(self.k).is_integer()
                and self.k >= 0):
            raise ValueError(f"k must be a natural number, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        degree = self.output_degree
        if degree is not None and not (isinstance(degree, numbers.Integral) and degree >= 0):
            raise ValueError(f"output_degree must be None or an int >= 0, got {degree!r}")

    @property
    def target_weight(self) -> float:
        return self.mu + self.nu + 2 * self.k

    @property
    def trace_factor(self) -> float:
        """Tr T(A) / Tr A = (mu + nu + 2k - 1)/(mu - 1)."""
        return (self.mu + self.nu + 2 * self.k - 1.0) / (self.mu - 1.0)

    def default_output_degree(self) -> int:
        if self.output_degree is not None:
            return self.output_degree
        return max(int(4 * (self.nu + self.k)), 512)


def _derivative_terms(params: ChannelParams) -> list[tuple[int, float]]:
    """(j, (-1)^{k-j} binom(k,j) / ((mu)_j (nu)_{k-j})) for j = 0..k, each
    within 2k roundings (the two short products and the quotient)."""
    mu, nu, k = params.mu, params.nu, params.k
    return [
        (j, (-1.0) ** (k - j) * math.comb(k, j) / (pochhammer(mu, j) * pochhammer(nu, k - j)))
        for j in range(k + 1)
    ]


def _falling(x, j: int):
    """Falling factorial (x)_j = x (x-1) ... (x-j+1), elementwise; 1.0 for j = 0."""
    out = 1.0
    for i in range(j):
        out = out * (x - i)
    return out


def _derivative_sum(params: ChannelParams, m, n):
    """S(m,n) = sum_j (-1)^{k-j} binom(k,j) (m)_j^fall (n)_{k-j}^fall / ((mu)_j (nu)_{k-j}).

    c_{m,n} = C * S(m,n), signed so that the adjoint sends the constant to
    +C (z-w)^k (the integral-form convention; the derivative and integral
    forms of the intertwiner differ by (-1)^k and only this sign makes them
    mutually adjoint).  Vectorized over broadcast integer m, n >= 0; a term
    with j > m or k - j > n vanishes exactly, since its falling factorial
    carries the factor 0.  k is small and the falling factorials are short
    products, but the terms alternate in sign: S has zeros in n (for k = 1,
    S = m/mu - n/nu), so its rounding is relative to the absolute term sum
    T(m,n) (see :func:`_abs_sum_trace`), not to |S|.
    """
    k = params.k
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    total = np.zeros(np.broadcast(m, n).shape)
    for j, coeff in _derivative_terms(params):
        total = total + coeff * _falling(m, j) * _falling(n, k - j)
    return total


def _abs_sum_trace(params: ChannelParams, diag) -> float:
    """sum_m |diag[m]| sum over every p of r_m[p] T(m,n)^2, exact.

    r_m[p] = lambda_p(m)/S(m,n)^2 = C^2 (p!/(s)_p) ((mu)_m/m!) ((nu)_n/n!),
    n = p + k - m, and T = sum_j a_j (n)_{k-j}, a_j = |c_j| (m)_j, is S with
    every term made positive, so a computed S is off by a multiple of eps T.
    With (n)_A (n)_B = sum_i C(A,i) C(B,i) i! (n)_{A+B-i}, each moment is a
    Gauss sum 2F1(nu+q, q+m-k+1; s+q+m-k; 1):

        sum_n r_m (n)_q = C^2 ((mu)_m/m!) (nu)_q (q+m-k)! (s-1)
                          Gamma(mu+2k-1-q) / Gamma(mu+k+m),

    finite for q <= 2k since mu > 1; q + m - k >= 0 wherever a_j a_j' != 0.
    For each q the moments over m >= max(0, k - q) are one column of a table
    of consecutive ratios (mu+m)(q+m-k+1)/((m+1)(mu+k+m)), read at the support.
    """
    mu, nu, k = params.mu, params.nu, params.k
    weight = np.abs(np.asarray(diag, dtype=float))
    support = np.flatnonzero(weight)
    if support.size == 0:
        return 0.0
    m = support.astype(float)
    a = [abs(coeff) * _falling(m, j) for j, coeff in _derivative_terms(params)]
    log_front = (
        log_channel_constant_sq(mu, nu, k) + math.log(params.target_weight - 1.0)
        - math.lgamma(mu) - math.lgamma(nu)
    )
    q = np.arange(2 * k + 1)
    lo = np.maximum(0, k - q)  # below it a moment is only ever read times 0
    first = [  # the moment at m = lo
        math.exp(log_front + math.lgamma(nu + qq) + math.lgamma(mu + 2 * k - 1.0 - qq)
                 + math.lgamma(mu + ll) - math.lgamma(ll + 1.0)
                 + math.lgamma(qq + ll - k + 1.0) - math.lgamma(mu + k + ll))
        for qq, ll in zip(q.tolist(), lo.tolist())
    ]
    step = lo + np.arange(float(support[-1]))[:, None]  # row i: m = lo + i
    ratios = (mu + step) * (q + step - k + 1.0) / ((step + 1.0) * (mu + k + step))
    table = from_scaled(*scaled_cumprod(ratios, first))  # row i: moment at lo + i
    row = support[:, None] - lo
    moments = np.where(row >= 0, table[np.maximum(row, 0), q], 0.0)
    total = np.zeros(m.size)
    for j, aj in enumerate(a):
        for jj, ajj in enumerate(a):
            A, B = k - j, k - jj
            for i in range(min(A, B) + 1):
                count = math.comb(A, i) * math.comb(B, i) * math.factorial(i)
                total += count * aj * ajj * moments[:, A + B - i]
    return float(weight[support] @ total)


class _Couplings:
    """The coupling weights w^{(p)}_{m,n}, n = p + k - m, for 0 <= p <= p_max.

    w = S(m,n) r_m[p]^{1/2}, r_m[p] = C^2 (p!/(s)_p) ((mu)_m/m!) ((nu)_n/n!),
    s the target weight, read from tables over consecutive integers built
    once (each a cumprod of consecutive ratios, or one ratio per entry):

        r_0[p] = C^2 ((nu)_k/k!) (1)_p (nu+k)_p / ((s)_p (k+1)_p),  p <= p_max,
        step[t] = ((nu)_{t-1}/(t-1)!) / ((nu)_t/t!) = t/(nu+t-1),
        r_m[p] = r_{m-1}[p] step[n+1] (mu+m-1)/m,

    the last a cumprod along m whose every partial product is an r value.
    The cumprods carry a binary exponent (:func:`specfun.scaled_cumprod`), so
    a row whose ends lie below the double range still reaches its middle.
    :func:`diagonal_output_spectrum` reads the same tables and runs the
    recurrence as Horner's rule in m.  r_m[p] is within (4p + 3.5m + 7k)
    eps relative of exact, one eps more there (derived at the trace-tail
    allowance of ``experiments._row_channel_limit``).
    """

    def __init__(self, params: ChannelParams, p_max: int):
        self.params = params
        mu, nu, k, s = params.mu, params.nu, params.k, params.target_weight
        self.c2 = channel_constant_sq(mu, nu, k)
        first = self.c2 * math.prod((nu + i) / (i + 1.0) for i in range(k))
        # as mantissa and exponent, which the m recurrence of a row starts
        # from wherever r_0[p] itself is below the double range
        self.r0_mant, self.r0_exp = scaled_cumprod(
            pochhammer_steps(p_max, (1.0, nu + k), (s, k + 1.0)), first)
        t = np.arange(p_max + k + 2.0)
        self.step = t / (nu + t - 1.0)

    def terms(self, ps, ms) -> tuple[np.ndarray, np.ndarray]:
        """(S, r) on the grid of output indices ``ps`` (rows) by input
        degrees ``ms`` (columns): r = r_m[p], and S = 0 unless m, n >= 0."""
        k = self.params.k
        ps, ms = np.asarray(ps), np.asarray(ms)
        n = ps[:, None] + k - ms
        valid = (ms >= 0) & (n >= 0)
        S = np.where(valid, _derivative_sum(self.params, ms, np.where(valid, n, 0)), 0.0)
        # the recurrence runs down m, one row per m: row m multiplies
        # step[n + 1] (mu+m-1)/m; a step to n < 0 reads step[0] = 0, and the
        # weight there is 0 anyway
        j = np.arange(1, max(int(ms.max(initial=0)), 0) + 1)[:, None]
        index = (ps + (k + 1)) - j  # n + 1
        factors = self.step[np.maximum(index, 0, out=index)]
        factors *= (self.params.mu + j - 1.0) / j
        mant, expo = scaled_cumprod(factors, self.r0_mant[ps])
        if self.r0_exp is not None:
            expo = self.r0_exp[ps] if expo is None else expo + self.r0_exp[ps]
        # back to one row per p, in row-major order for the callers' row reads
        return S, np.ascontiguousarray(from_scaled(mant, expo)[np.maximum(ms, 0)].T)

    def weights(self, ps, ms) -> np.ndarray:
        """Signed w^{(p)}_{m,n} = C S(m,n) ||zeta^p|| / (||z^m|| ||w^n||) on
        the grid ``ps`` by ``ms``."""
        S, r = self.terms(ps, ms)
        return S * np.sqrt(r)


def projection_coefficients(params: ChannelParams, max_grade: int) -> np.ndarray:
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


def isometry_weights(params: ChannelParams, p: int, n=None) -> np.ndarray:
    """Orthonormal coupling weights w^{(p)}_{m,n} over m + n = p + k.

    Defaults to the full row n = 0..p+k; pass ``n`` (array) to select entries.
    The full row has unit square sum.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if n is None:
        n = np.arange(p + params.k + 1)
    return _Couplings(params, p).weights([p], p + params.k - np.asarray(n))[0]


def pk_star_vector(params: ChannelParams, p: int) -> list[tuple[int, int, float]]:
    """Monomial expansion of P_k* zeta^p: complete list over m + n = p + k.

    Coefficients are c_{m,n} ||zeta^p||^2 / (||z^m||^2 ||w^n||^2); the list is
    finite and untruncated.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    couplings = _Couplings(params, p)
    ms = p + params.k - np.arange(p + params.k + 1)
    S, r = couplings.terms([p], ms)
    # c_{m,n} ||zeta^p||^2 / (||z^m||^2 ||w^n||^2) = S r_m[p] / C
    coeffs = S[0] * r[0] / math.sqrt(couplings.c2)
    return [
        (m, p + params.k - m, c)
        for m, s, c in zip(ms.tolist(), S[0].tolist(), coeffs.tolist())
        if s != 0.0
    ]


def _weight_grid(params: ChannelParams, p_max: int, m_max: int) -> np.ndarray:
    """V[p, m] = w^{(p)}_{m, p+k-m} for 0 <= p <= p_max, 0 <= m <= m_max."""
    return _Couplings(params, p_max).weights(np.arange(p_max + 1), np.arange(m_max + 1))


def apply_channel(A: TruncatedOperator, params: ChannelParams) -> BandedOperator:
    """T(A) = P_k (A x I) P_k* on H_{mu+nu+2k}, by exact finite sums.

    Entry (q, p) of the output is sum_m V[p, m] A[m - (p-q), m] V[q, m - (p-q)];
    grade conservation makes the output banded with A's bandwidth, so the
    cost is O(L * bandwidth * support) and the result is returned in band
    storage of O(L * bandwidth) entries.  Hermiticity propagates exactly (the
    coupling weights are real).
    """
    if A.weight != params.mu:
        raise ValueError(
            f"operator lives at weight {A.weight}, channel expects mu={params.mu}"
        )
    L = params.default_output_degree()
    k = params.k
    d = A.degree
    nz_rows, nz_cols = np.nonzero(np.abs(A.matrix) > 0)
    bands = {}
    if len(nz_rows) == 0:
        return BandedOperator(params.target_weight, L, bands, hermitian=A.hermitian)
    m_top = min(d, L + k)
    V = _weight_grid(params, L, m_top)
    offsets = np.unique(nz_cols - nz_rows)  # off = m - m' = p - q
    if A.hermitian:
        offsets = offsets[offsets >= 0]  # the lower triangle is the mirror
    for off in offsets.tolist():
        # both m and m - off stay on the grid (m_top <= d)
        m_lo, m_hi = max(0, off), min(m_top, m_top + off)
        if m_lo > m_hi or abs(off) > L:
            continue
        ms = np.arange(m_lo, m_hi + 1)
        diag = A.matrix[ms - off, ms]  # entries with m - m' = off
        if not np.any(np.abs(diag) > 0):
            continue
        # rows p = p0 .. p0 + size - 1 and q = p - off, read as views
        size, p0 = L + 1 - abs(off), max(off, 0)
        q0 = p0 - off
        # entry (q, p) = sum_m V[p, m] A[m - off, m] V[q, m - off]
        bands[off] = (V[p0:p0 + size, m_lo:m_hi + 1]
                      * V[q0:q0 + size, m_lo - off:m_hi - off + 1]) @ diag
    return BandedOperator(params.target_weight, L, bands, hermitian=A.hermitian)


def diagonal_response(params: ChannelParams, m: int, p) -> np.ndarray:
    """Diagonal of T(e_m e_m*): exact eigenvalue-like entries lambda_p(m).

    lambda_p(m) = (w^{(p)}_{m, p+k-m})^2 = S(m,n)^2 r_m[p], nonzero for
    p >= m - k; the output of the channel on a diagonal input is exactly
    diagonal (grade conservation).  Vectorized over an array of output
    indices ``p``: the :func:`diagonal_output_spectrum` of the unit input e_m
    up to max(p), read at p.
    """
    p = np.asarray(p)
    unit = np.zeros(m + 1)
    unit[m] = 1.0
    return diagonal_output_spectrum(params, unit, int(np.max(p, initial=0)))[p]


def diagonal_output_spectrum(params: ChannelParams, diag, cut: int) -> np.ndarray:
    """Output diagonal of T(A) for a diagonal input A, entries p = 0..cut.

    For diagonal A the output is exactly diagonal (grade conservation), so
    this is its full spectrum up to the cut — no matrix is materialized,
    which matters for weight sweeps where cut ~ 64 nu.  For any A it is the
    diagonal of T(A), which depends only on the diagonal of A.

    With n = p + k - m and s the target weight, lambda_p(m) = S(m,n)^2 r_m[p]
    where r_m[p] = r_0[p] ((mu)_m/m!) prod_{i=1..m} step[p+k+1-i],
    r_0[p] = C^2 (p!/(s)_p) ((nu)_{p+k}/(p+k)!) and step[t] = t/(nu+t-1),
    the tables of ``_Couplings``.  The sum over m is Horner's rule in the
    input degree, from the top degree down:

        acc_m = acc_{m+1} step[p+k-m] + diag[m] ((mu)_m/m!) S(m,n)^2,
        out = r_0 acc_0,

    in place on the slice p >= m - k where lambda_p(m) can be nonzero: one
    multiply per entry per degree, and for a nonzero diag[m] the k + 1 term
    sum of S (:func:`_derivative_sum`, from falling factorials (n)_{k-j}
    tabulated once) with its terms scaled by the root of the coefficient,
    its square and the add or subtract, in one work buffer: five passes at
    k = 1.  (mu)_m/m! is never formed: acc is kept in units of the top
    degree's weight (mu)_{m_top}/m_top!, so a degree's coefficient is the
    running product w of the ratios (m+1)/(mu+m) < 1, carried as a mantissa
    and a binary exponent.  Where w falls 2^900 below the stored acc, acc is rescaled by
    an exact power of two, and the final multiply by r_0 (itself a mantissa
    and exponent) and 1/w_0 adds the binary exponents, so no intermediate
    product overflows to inf or NaN.  Input degrees whose weights
    (mu)_m/m! span more than the double range, so that a lower degree's
    term is not representable beside the acc of the upper ones, are a
    ValueError.
    """
    diag = np.asarray(diag, dtype=float)
    k, mu = params.k, params.mu
    acc = np.zeros(cut + 1)
    support = np.flatnonzero(diag)
    if support.size == 0:
        return acc
    couplings = _Couplings(params, cut)
    step = couplings.step  # every n + 1 that a step reads
    fall_n = [_falling(np.arange(cut + k + 1.0), k - j) for j in range(k)]
    terms = _derivative_terms(params)
    work = np.empty(cut + 1)
    part = np.empty(cut + 1) if k > 1 else None  # the terms j = 1..k-1 of S
    m_top = min(int(support[-1]), cut + k)
    # w = ((mu)_m/m!) / ((mu)_{m_top}/m_top!) = w_mant 2**w_exp, and the
    # true acc, in units of (mu)_{m_top}/m_top!, is the stored one times
    # 2**acc_exp
    w_mant, w_exp = 0.5, 1
    acc_exp = 0
    for m in range(m_top, -1, -1):
        lo = max(0, m - k)  # lambda_p(m) = 0 for p < m - k
        if m < m_top:
            acc[lo:] *= step[lo + k - m : cut + k - m + 1]
            w_mant, e = math.frexp(w_mant * ((m + 1.0) / (mu + m)))
            w_exp += e
        if diag[m] == 0.0:
            continue
        if w_exp - acc_exp < -_TERM_BITS:
            acc_exp = _rescale(acc, acc_exp, w_exp)
        # S scaled by the root of the coefficient, so that its square is the
        # term up to the coefficient's sign
        coef = math.ldexp(diag[m] * w_mant, w_exp - acc_exp)
        root = math.sqrt(abs(coef))
        c = [root * coeff * _falling(m, j) for j, coeff in terms]
        S = work[lo:]
        if k:
            n = slice(lo + k - m, cut + k - m + 1)
            np.multiply(fall_n[0][n], c[0], out=S)
            for j in range(1, k):
                S += np.multiply(fall_n[j][n], c[j], out=part[lo:])
            S += c[k]
        else:
            S.fill(c[0])
        S *= S
        if coef > 0.0:
            acc[lo:] += S
        else:
            acc[lo:] -= S
    # out = r_0 acc 2**acc_exp / w_0
    shift = acc_exp - w_exp
    if couplings.r0_exp is None and abs(shift) <= 64:
        # an entry whose product r_0 acc is subnormal is below 2**-957
        acc *= couplings.r0_mant
        acc *= math.ldexp(1.0 / w_mant, shift)
        return acc
    # the mantissas are multiplied and the binary exponents of acc, r_0 and
    # w_0 added exactly
    mant, expo = np.frexp(acc)
    mant *= couplings.r0_mant
    mant *= 1.0 / w_mant
    expo = expo + shift if couplings.r0_exp is None else expo + (couplings.r0_exp + shift)
    return np.ldexp(mant, expo, out=acc)


# A degree's coefficient may fall this many binary places below the stored
# acc before the acc is rescaled up to it.
_TERM_BITS = 900


def _rescale(acc: np.ndarray, acc_exp: int, w_exp: int) -> int:
    """Multiply ``acc`` in place by the exact power of two that brings a
    term of weight 2**w_exp closest to it while its largest entry stays
    below 2**1000; return acc's new binary exponent."""
    top = max(float(acc.max()), -float(acc.min()))
    shift = acc_exp - w_exp
    if top > 0.0:
        shift = min(shift, 1000 - math.frexp(top)[1])
        if w_exp - (acc_exp - shift) < -960:
            raise ValueError(
                "the input degrees' weights (mu)_m/m! span more than the "
                "double range; pass far-apart degrees in separate calls and "
                "add the outputs"
            )
        np.ldexp(acc, shift, out=acc)
    return acc_exp - shift


def response_tail_bound(params: ChannelParams, m: int, cut: int) -> float:
    """Rigorous upper bound on sum_{p > cut} lambda_p(m) for integer weights.

    Uses the exact finite-product forms of the norm ratios:
    n!/(nu)_n <= (nu-1)!/(n+1)^{nu-1} and p!/(s)_p <= (s-1)!/(p+1)^{s-1},
    a triangle bound on the derivative sum evaluated at the tail start, and
    the integral test on (p+1)^{-mu}.
    """
    mu, nu, k = params.mu, params.nu, params.k
    if mu != int(mu) or nu != int(nu):
        raise ValueError("rigorous tail bound requires integer weights")
    mu_i, nu_i = int(mu), int(nu)
    s = mu_i + nu_i + 2 * k
    n0 = cut + 1 + k - m
    if n0 <= 0:
        raise ValueError("cut must put the whole tail at n >= 1")
    # |S(m,n)| <= n^k * D(n0) for n >= n0 (each term's n-power bounded, then
    # the leftover n^{-j} factors evaluated at the smallest tail n)
    D = 0.0
    for j, coeff in _derivative_terms(params):
        fall_m = 1.0
        for i in range(j):
            fall_m *= max(m - i, 0)
        D += abs(coeff) * fall_m / n0**j
    if D == 0.0:
        return 0.0
    # (nu)_n/n! <= (n + nu - 1)^{nu-1}/(nu-1)! and n <= p + k:
    # lambda_p(m) <= E (p+1)^{-mu}; ratio suprema over p >= p0 clamp at 1
    p0 = cut + 1
    growth = max(1.0, (p0 + k + nu_i - 1 - m) / (p0 + 1)) ** (nu_i - 1) * max(
        1.0, (p0 + k - m) / (p0 + 1)
    ) ** (2 * k)
    logE = (
        log_channel_constant_sq(mu, nu, k)
        + 2.0 * math.log(D)
        - log_monomial_norm_sq(mu, m)
        + math.lgamma(s) - math.lgamma(nu_i)
        + math.log(growth)
    )
    # sum_{p > cut} (p+1)^{-mu} <= integral_cut^inf (x+1)^{-mu} dx
    log_tail = logE + (1.0 - mu) * math.log(cut + 1.0) - math.log(mu - 1.0)
    return math.exp(log_tail)


def output_trace_interval(
    A: TruncatedOperator, params: ChannelParams, cut: int, extend_to: int | None = None
) -> tuple[float, float, float]:
    """(truncated trace at ``cut``, tail estimate, rigorous tail bound).

    The independent bracket with which criterion 2 tests Tr T(A) =
    trace_factor Tr A, so it never uses that identity.  The tail depends only
    on A's diagonal (grade conservation): the estimate sums the exact response
    to ``extend_to`` (default 100 * cut) plus the rigorous remainder bound, and
    the bound alone brackets trace_cut <= Tr T(A) <= trace_cut + bound (PSD A).
    """
    if A.weight != params.mu:
        raise ValueError("weight mismatch")
    extend_to = extend_to or 100 * cut
    diag = np.real(np.diag(A.matrix))
    spectrum = diagonal_output_spectrum(params, diag, extend_to)
    ms = np.flatnonzero(diag).tolist()
    tail_est = float(np.sum(spectrum[cut + 1 :])) + sum(
        diag[m] * response_tail_bound(params, m, extend_to) for m in ms
    )
    tail_bound = sum((diag[m] * response_tail_bound(params, m, cut) for m in ms), 0.0)
    return float(np.sum(spectrum[: cut + 1])), tail_est, tail_bound


def _check_psi(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=float)
    if psi.size == 0 or psi[0] != 0.0:
        raise ValueError("psi must be a polynomial with psi(0) = 0")
    return psi


def power_sum(psi, values: np.ndarray) -> float | complex:
    """sum_j a_j sum_i values_i^j for psi = [0, a1, a2, ...].

    Applied to a spectrum this is Tr psi(B).  Real values give a float,
    complex values a complex.
    """
    total = 0.0
    power = values.copy()
    for a in psi[1:]:
        if a != 0.0:
            total += a * np.sum(power).item()
        power = power * values
    return total


def functional_trace(B: TruncatedOperator | BandedOperator, psi) -> float:
    """Tr psi(B) for a polynomial psi with psi(0) = 0.

    ``psi`` is the ascending coefficient list [0, a1, a2, ...].  B must be
    Hermitian with spectrum in [-1e-9, 1 + 1e-9] (clamped to [0, 1] before
    evaluation); a spectrum outside the window raises
    :class:`SpectrumWindowError` since the channel is a complete contraction.
    Exactly diagonal matrices use their diagonal as the spectrum; everything
    else goes through a Hermitian eigendecomposition of ``B.matrix``, so
    banded operators pay a dense conversion here (see :func:`banded_trace`).
    """
    psi = _check_psi(psi)
    if not B.hermitian:
        raise ValueError("functional calculus requires a Hermitian operator")
    M = B.matrix
    if B.is_diagonal:
        eigs = np.real(np.diag(M))
    else:
        eigs = np.linalg.eigvalsh(M)
    if eigs.min() < -SPECTRUM_SLACK or eigs.max() > 1.0 + SPECTRUM_SLACK:
        raise SpectrumWindowError(
            f"spectrum [{eigs.min():.3e}, {eigs.max():.3e}] outside "
            f"[-{SPECTRUM_SLACK}, 1+{SPECTRUM_SLACK}]"
        )
    return power_sum(psi, np.clip(eigs, 0.0, 1.0))


def _row_bands(B: BandedOperator) -> tuple[int, np.ndarray]:
    """(b, R) with R[b + off, i] = B[i, i + off], zero outside the matrix."""
    n, b = B.degree + 1, B.bandwidth
    R = np.zeros((2 * b + 1, n), dtype=complex)
    for off, band in B.bands.items():
        R[b + off, max(0, -off) : n - max(0, off)] = band
        if B.hermitian and off > 0:
            R[b - off, off:] = np.conj(band)
    return b, R


def _band_product(X: tuple[int, np.ndarray], Y: tuple[int, np.ndarray]):
    """Row-indexed bands of X @ Y: C[i, i+c] = sum_a X[i, i+a] Y[i+a, i+c]."""
    (bx, RX), (by, RY) = X, Y
    n = RX.shape[1]
    C = np.zeros((2 * (bx + by) + 1, n), dtype=complex)
    for ia, a in enumerate(range(-bx, bx + 1)):
        lo, hi = max(0, -a), min(n, n - a)
        C[ia : ia + 2 * by + 1, lo:hi] += RX[ia, lo:hi] * RY[:, lo + a : hi + a]
    bc = min(bx + by, n - 1)  # offsets past n - 1 are empty
    return bc, C[bx + by - bc : bx + by + bc + 1]


def _band_pairing(X: tuple[int, np.ndarray], Y: tuple[int, np.ndarray]) -> complex:
    """Tr(X @ Y) = sum_a sum_i X[i, i+a] Y[i+a, i], O(n * bandwidth)."""
    (bx, RX), (by, RY) = X, Y
    n = RX.shape[1]
    total = 0j
    for a in range(-min(bx, by), min(bx, by) + 1):
        lo, hi = max(0, -a), min(n, n - a)
        total += RX[bx + a, lo:hi] @ RY[by - a, lo + a : hi + a]
    return total


def banded_trace(B: BandedOperator, psi) -> float | complex:
    """sum_j a_j Tr B^j from the bands of B: exact, with no eigensolve.

    Over the spectrum this is sum_j a_j sum_i lambda_i^j = Tr psi(B); unlike
    :func:`functional_trace` it applies no spectrum window.  A diagonal B is
    summed over its diagonal.  Otherwise Tr B = sum of the diagonal, and
    Tr B^{2h} = Tr(B^h B^h), Tr B^{2h+1} = Tr(B^{h+1} B^h) are O(n * bandwidth)
    pairings of band powers B^h, h <= ceil(deg psi / 2), built by
    band-times-band products (Tr B^2 is the squared Frobenius norm for
    Hermitian B).  Hermitian B gives a float, otherwise a complex.
    """
    psi = _check_psi(psi)
    if B.is_diagonal:
        diag = B.bands.get(0, np.zeros(B.degree + 1, dtype=complex))
        return power_sum(psi, diag.real if B.hermitian else diag)
    powers = [None, _row_bands(B)]
    for _ in range(2, psi.size // 2 + 1):  # B^h up to h = ceil(deg / 2)
        powers.append(_band_product(powers[-1], powers[1]))
    total = 0j
    for j, a in enumerate(psi):
        if j == 0 or a == 0.0:
            continue
        if j == 1:
            b, R = powers[1]
            tr = np.sum(R[b])
        else:
            tr = _band_pairing(powers[(j + 1) // 2], powers[j // 2])
        total += a * tr
    return total.real if B.hermitian else complex(total)


def sqrt_series_coefficients(count: int) -> np.ndarray:
    """Coefficients (1/2)_{i-1} / (2 i!), i = 1..count, of the
    boundary-flattened sqrt series: 1/2, then ratios (i-1/2)/(i+1).

    These are the positive weights with x = sum_i coeff_i (1 - (1-x^2)^i) on
    [0, 1]; they sum to 1 and decay like i^{-3/2}.
    """
    return pochhammer_ratios(count, (0.5,), (2.0,), 0.5)
