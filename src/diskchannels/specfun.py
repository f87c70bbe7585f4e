"""Numerically stable special-function primitives.

Pochhammer symbols and their log-domain companions, the terminating Gauss
hypergeometric sum at unit argument, the squared intertwiner constant of the
disk channels, eigenvalues of the weighted Berezin transform, and the
Plancherel density of the hyperbolic disk, and the one builder of tables of
Pochhammer ratios over consecutive integers.

Everything here is pure and reentrant; weight sweeps reach nu ~ 10^3, so
scalar Gamma quotients are assembled in log domain (``math.lgamma``) with
explicit sign tracking and exponentiated once, and tables over consecutive
integers are cumulative products of consecutive ratios, which round once per
factor instead of carrying the error of a log-gamma of size (a+j) log(a+j).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "HypergeometricPoleError",
    "pochhammer",
    "log_pochhammer",
    "pochhammer_steps",
    "scaled_cumprod",
    "from_scaled",
    "pochhammer_ratios",
    "log_pochhammer_ratios",
    "gauss_2f1_unit",
    "channel_constant_sq",
    "log_channel_constant_sq",
    "berezin_eigenvalue",
    "log_berezin_eigenvalue",
    "berezin_eigenvalue_loggamma",
    "plancherel_density",
    "validate_weight",
]

# the smallest normal double: below it a product keeps fewer digits
_NORMAL = np.finfo(float).tiny


class HypergeometricPoleError(ZeroDivisionError):
    """A Pochhammer factor in a hypergeometric denominator vanished."""


def validate_weight(nu) -> float:
    """Check a Bergman weight (must be real > 1) and return it as float."""
    nu = float(nu)
    if not math.isfinite(nu) or nu <= 1.0:
        raise ValueError(f"weight must be a finite real > 1, got {nu}")
    return nu


def pochhammer(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1.

    Keeps exact integer arithmetic when ``a`` is an int.  For large float
    arguments prefer :func:`log_pochhammer`.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    result = a**0  # 1 of the same type as a
    for i in range(n):
        result = result * (a + i)
    return result


def log_pochhammer(a: float, n: int) -> tuple[float, float]:
    """Return ``(log|(a)_n|, sign)`` with sign in {-1, 0, 1}.

    Safe for a <= 1e6, n <= 1e6 (never overflows: the value lives in log
    domain).  A nonpositive-integer ``a`` hit by the product gives
    ``(-inf, 0)``.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    if n == 0:
        return 0.0, 1.0
    a = float(a)
    if a > 0.0:
        return math.lgamma(a + n) - math.lgamma(a), 1.0
    # a <= 0: factors a, a+1, ..., a+n-1 may cross zero
    if a == math.floor(a) and a + n > 0:
        return -math.inf, 0.0  # some factor is exactly zero
    neg_count = min(n, max(0, math.ceil(-a)))  # factors with a+i < 0
    sign = -1.0 if neg_count % 2 else 1.0
    log_abs = 0.0
    if neg_count:
        # |a (a+1) ... (a+neg_count-1)| = (-a-neg_count+1)_neg_count
        log_abs += math.lgamma(-a + 1) - math.lgamma(-a - neg_count + 1)
    if neg_count < n:
        head = a + neg_count  # > 0 here (zero case handled above)
        log_abs += math.lgamma(head + (n - neg_count)) - math.lgamma(head)
    return log_abs, sign


def pochhammer_steps(count: int, numer, denom) -> np.ndarray:
    """prod_a (a + j) / prod_b (b + j) for j = 0..count-1: the ratios of
    consecutive entries of prod_a (a)_j / prod_b (b)_j."""
    j = np.arange(count, dtype=float)
    num, den = numer[0] + j, denom[0] + j
    for a in numer[1:]:
        num *= a + j
    for b in denom[1:]:
        den *= b + j
    num /= den
    return num


def scaled_cumprod(factors, first=1.0) -> tuple[np.ndarray, np.ndarray | None]:
    """first * f_1 ... f_j along the first axis of ``factors``, j = 0..M, as
    (mantissa, exponent) with value = mantissa * 2**exponent.

    One cumprod, with exponent None (0 everywhere), while no product leaves
    the normal double range.  Otherwise the cumprod runs in stretches over
    which the factors span at most about 2^400 (the widest column sets them
    for a 2-D array), each started from the last product of the one before,
    renormalized by its exact power of two.  Either way a value keeps one
    rounding per factor and per stretch, and only the final ``np.ldexp`` or
    ``np.log`` meets the range.  ``first`` is a scalar or one per column;
    it and the factors are >= 0, each factor 0 or within 2^+-400.
    """
    f = np.asarray(factors, dtype=float)
    count, lead = f.shape[0], f.shape[1:]
    mant = np.empty((count + 1,) + lead)
    mant[0] = first
    mant[1:] = f
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(mant, axis=0, out=mant)
    if mant.max() < 2.0**1000 and np.min(mant, where=mant > 0.0, initial=1.0) >= _NORMAL:
        return mant, None
    expo = np.empty(mant.shape, dtype=np.int64)
    m, e = np.frexp(np.broadcast_to(np.asarray(first, dtype=float), lead))
    e = e.astype(np.int64)
    mant[0], expo[0] = m, e
    with np.errstate(divide="ignore"):
        bits = np.abs(np.log2(np.abs(f)))
    bits[~np.isfinite(bits)] = 0.0  # a zero factor zeroes the rest of its column
    span = np.cumsum(bits.reshape(count, -1).max(axis=1))
    edges = np.searchsorted(span, 400.0 * np.arange(1, int(span[-1] // 400) + 1))
    lo = 0
    for hi in [*edges.tolist(), count]:
        if hi > lo:
            run = np.cumprod(f[lo:hi], axis=0)
            run *= m
            mant[lo + 1 : hi + 1] = run
            expo[lo + 1 : hi + 1] = e
            m, step = np.frexp(run[-1])
            e = e + step
            lo = hi
    return mant, expo


def from_scaled(mant: np.ndarray, expo: np.ndarray | None) -> np.ndarray:
    """mant * 2**expo, as :func:`scaled_cumprod` returns them."""
    return mant if expo is None else np.ldexp(mant, expo)


def pochhammer_ratios(count: int, numer, denom, first: float = 1.0) -> np.ndarray:
    """first * prod_a (a)_j / prod_b (b)_j for j = 0..count-1.

    The cumulative product of :func:`pochhammer_steps` (:func:`scaled_cumprod`),
    so entry j is within 2 (len(numer) + len(denom)) j + 2 roundings of exact,
    (len(numer) + len(denom)) j + 1 eps relative, however large the
    Pochhammer symbols grow on the way; entries below the double range
    flush to 0 or a subnormal.
    """
    return from_scaled(*scaled_cumprod(pochhammer_steps(count - 1, numer, denom), first))


def log_pochhammer_ratios(count: int, numer, denom) -> np.ndarray:
    """log of :func:`pochhammer_ratios` (first = 1), at any size: the log of
    the mantissa plus the exact binary exponent times log 2."""
    mant, expo = scaled_cumprod(pochhammer_steps(count - 1, numer, denom))
    out = np.log(mant)
    if expo is not None:
        out += expo * math.log(2.0)
    return out


def gauss_2f1_unit(n: int, b: float, c: float) -> float:
    """Terminating 2F1(-n, b; c; 1) = (c-b)_n / (c)_n.

    Raises :class:`HypergeometricPoleError` when (c)_j vanishes for some
    j <= n, i.e. when c is a nonpositive integer > -n.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    la_num, s_num = log_pochhammer(c - b, n)
    la_den, s_den = log_pochhammer(c, n)
    if s_den == 0.0:
        raise HypergeometricPoleError(
            f"(c)_n vanishes for c={c}, n={n}: hypergeometric pole"
        )
    if s_num == 0.0:
        return 0.0
    return s_num * s_den * math.exp(la_num - la_den)


def log_channel_constant_sq(mu: float, nu: float, k: int) -> float:
    """log of C_{mu,nu,k}^2 = (mu)_k (nu)_k / (k! (mu+nu+k-1)_k).

    This is the normalization making the grade-k intertwiner an isometry;
    its reciprocal equals the cross norm k! sum_j binom(k,j)/((mu)_j (nu)_{k-j}).
    """
    mu = validate_weight(mu)
    nu = validate_weight(nu)
    if k < 0:
        raise ValueError("k must be a natural number")
    return (
        log_pochhammer(mu, k)[0]
        + log_pochhammer(nu, k)[0]
        - math.lgamma(k + 1)
        - log_pochhammer(mu + nu + k - 1, k)[0]
    )


def channel_constant_sq(mu: float, nu: float, k: int) -> float:
    """Squared intertwiner constant C_{mu,nu,k}^2 (see the log variant), as
    the product of its k factors (mu+i)(nu+i)/((i+1)(mu+nu+k-1+i))."""
    mu = validate_weight(mu)
    nu = validate_weight(nu)
    if k < 0:
        raise ValueError("k must be a natural number")
    top = mu + nu + k - 1.0
    return float(math.prod((mu + i) * (nu + i) / ((i + 1.0) * (top + i)) for i in range(k)))


_LOG_BLOCK = 1 << 16


def log_berezin_eigenvalue(nu: float, lam: float) -> float:
    """log b_nu(lambda) for the normalized Berezin transform (nu-1)B_nu.

    b_nu(lambda) = |Gamma(i lambda/2 + nu - 1/2)|^2 / (Gamma(nu) Gamma(nu-1)),
    the eigenvalue on e_{lambda,b}.  One step in the weight multiplies it by
    ((x-1/2)^2 + lambda^2/4)/(x(x-1)) = 1 + h^2/(x(x-1)) at x = nu,
    h = hypot(1/2, lambda/2).  So from the base weight f = nu - N in (1, 2],
    N = ceil(nu) - 2,

        log b_nu = log b_f + sum_{j<N} log1p(q_j^2),   q_j = h / sqrt(x_j(x_j-1)),

    with x_j = f + j, each term log1p(q^2), or 2 log q + log1p(q^-2) where
    q > 1 so that no square overflows.  At f = 2 (every integer nu) the base
    is exact, log b_2 = log(pi sech(pi lambda/2)) + 2 log h; otherwise it is
    the complex log-Gamma form at f, whose arguments are small.  No two large
    logs cancel at any nu: at integer nu log b is off by a few eps times
    1 + pi |lambda|/2 absolute (the log sech term sets the scale), and at
    other nu by the log-Gamma base's error on top, under 1e-14 absolute for
    |lambda| <= 2.  A non-finite lambda is a ValueError.
    """
    nu = validate_weight(nu)
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    steps = math.ceil(nu) - 2  # >= 0, since nu > 1
    base_weight = nu - steps
    half = abs(0.5 * lam)
    h = np.hypot(0.5, half)  # numpy's, like the log below: nu = 2 keeps its bits
    if base_weight == 2.0:
        # log(pi/cosh(pi*half)) evaluated overflow-free
        log_sech = math.log(math.pi) - (
            math.pi * half + math.log1p(math.exp(-2 * math.pi * half)) - math.log(2.0)
        )
        log_base = log_sech + 2.0 * float(np.log(h))
    else:
        log_base = _log_gamma_form(base_weight, lam)
    # 2^16 factors per block, the block sums added in order: memory stays
    # bounded at any nu, and nu <= 2^16 + 2 is one block
    pairs = 0.0
    for lo in range(0, steps, _LOG_BLOCK):
        x = base_weight + np.arange(lo, min(lo + _LOG_BLOCK, steps), dtype=float)
        q = h / np.sqrt(x * (x - 1.0))
        small = np.minimum(q, 1.0 / q)
        terms = np.log1p(small * small)
        terms += 2.0 * np.log(np.maximum(q, 1.0))
        pairs += float(np.sum(terms))
    return log_base + pairs


def _log_gamma_form(nu: float, lam: float) -> float:
    """2 Re log Gamma(nu - 1/2 + i lambda/2) - log Gamma(nu) - log Gamma(nu - 1)."""
    # complex log-Gamma is scipy's, needed only off the integer weights
    from scipy.special import loggamma

    return (
        2.0 * float(np.real(loggamma(complex(nu - 0.5, 0.5 * lam))))
        - math.lgamma(nu)
        - math.lgamma(nu - 1)
    )


def berezin_eigenvalue(nu: float, lam: float) -> float:
    """Eigenvalue b_nu(lambda) of (nu-1)B_nu on e_{lambda,b}; in (0, 1]."""
    return math.exp(log_berezin_eigenvalue(nu, lam))


def berezin_eigenvalue_loggamma(nu: float, lam: float) -> float:
    """b_nu(lambda) via complex log-Gamma only (two-route cross check)."""
    return math.exp(_log_gamma_form(validate_weight(nu), float(lam)))


def plancherel_density(lam):
    """Plancherel density |c(lambda)|^{-2} = (pi lambda / 2) tanh(pi lambda / 2)."""
    lam = np.asarray(lam, dtype=float)
    out = (np.pi * lam / 2.0) * np.tanh(np.pi * lam / 2.0)
    return float(out) if out.ndim == 0 else out
