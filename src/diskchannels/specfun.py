"""Numerically stable special-function primitives.

Pochhammer symbols and their log-domain companions, the terminating Gauss
hypergeometric sum at unit argument, the squared intertwiner constant of the
disk channels, eigenvalues of the weighted Berezin transform, and the
Plancherel density of the hyperbolic disk.

Everything here is pure and reentrant; weight sweeps reach nu ~ 10^3, so all
Gamma quotients are assembled in log domain with explicit sign tracking and
exponentiated once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, loggamma

__all__ = [
    "HypergeometricPoleError",
    "pochhammer",
    "log_pochhammer",
    "gauss_2f1_unit",
    "channel_constant_sq",
    "log_channel_constant_sq",
    "berezin_eigenvalue",
    "log_berezin_eigenvalue",
    "berezin_eigenvalue_loggamma",
    "plancherel_density",
    "validate_weight",
]

# direct products only below this bound; larger arguments go through lgamma
_DIRECT_PRODUCT_LIMIT = 120


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
        return gammaln(a + n) - gammaln(a), 1.0
    # a <= 0: factors a, a+1, ..., a+n-1 may cross zero
    if a == math.floor(a) and a + n > 0:
        return -math.inf, 0.0  # some factor is exactly zero
    neg_count = min(n, max(0, math.ceil(-a)))  # factors with a+i < 0
    sign = -1.0 if neg_count % 2 else 1.0
    log_abs = 0.0
    if neg_count:
        # |a (a+1) ... (a+neg_count-1)| = (-a-neg_count+1)_neg_count
        log_abs += gammaln(-a + 1) - gammaln(-a - neg_count + 1)
    if neg_count < n:
        head = a + neg_count  # > 0 here (zero case handled above)
        log_abs += gammaln(head + (n - neg_count)) - gammaln(head)
    return log_abs, sign


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
        - gammaln(k + 1)
        - log_pochhammer(mu + nu + k - 1, k)[0]
    )


def channel_constant_sq(mu: float, nu: float, k: int) -> float:
    """Squared intertwiner constant C_{mu,nu,k}^2 (see the log variant)."""
    return math.exp(log_channel_constant_sq(mu, nu, k))


def _is_integer_weight(nu: float) -> bool:
    return float(nu) == math.floor(nu)


def log_berezin_eigenvalue(nu: float, lam: float) -> float:
    """log b_nu(lambda) for the normalized Berezin transform (nu-1)B_nu.

    b_nu(lambda) = |Gamma(i lambda/2 + nu - 1/2)|^2 / (Gamma(nu) Gamma(nu-1)),
    the eigenvalue on e_{lambda,b}.  For integer nu >= 2 the modulus-squared
    Gamma is evaluated by the exact finite product
    pi/cosh(pi lambda/2) * prod_{j=1}^{nu-1} ((j-1/2)^2 + lambda^2/4),
    keeping library Gamma accuracy out of the result; real nu > 1 falls back
    to complex log-Gamma.
    """
    nu = validate_weight(nu)
    lam = float(lam)
    half = 0.5 * lam
    if _is_integer_weight(nu) and nu >= 2:
        j = np.arange(1, int(nu))
        prod_term = float(np.sum(np.log((j - 0.5) ** 2 + half * half)))
        # log(pi/cosh(pi*half)) evaluated overflow-free
        log_sech = math.log(math.pi) - (
            abs(math.pi * half) + math.log1p(math.exp(-2 * abs(math.pi * half)))
            - math.log(2.0)
        )
        return log_sech + prod_term - gammaln(nu) - gammaln(nu - 1)
    return (
        2.0 * float(np.real(loggamma(complex(nu - 0.5, half))))
        - gammaln(nu)
        - gammaln(nu - 1)
    )


def berezin_eigenvalue(nu: float, lam: float) -> float:
    """Eigenvalue b_nu(lambda) of (nu-1)B_nu on e_{lambda,b}; in (0, 1]."""
    return math.exp(log_berezin_eigenvalue(nu, lam))


def berezin_eigenvalue_loggamma(nu: float, lam: float) -> float:
    """b_nu(lambda) via complex log-Gamma only (two-route cross check)."""
    nu = validate_weight(nu)
    return math.exp(
        2.0 * float(np.real(loggamma(complex(nu - 0.5, 0.5 * float(lam)))))
        - gammaln(nu)
        - gammaln(nu - 1)
    )


def plancherel_density(lam):
    """Plancherel density |c(lambda)|^{-2} = (pi lambda / 2) tanh(pi lambda / 2)."""
    lam = np.asarray(lam, dtype=float)
    out = (np.pi * lam / 2.0) * np.tanh(np.pi * lam / 2.0)
    return float(out) if out.ndim == 0 else out
