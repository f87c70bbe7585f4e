"""Numerically stable special-function primitives.

Pochhammer symbols and their log-domain companions, the squared
intertwiner constant of the disk channels, eigenvalues of the weighted
Berezin transform, and the one builder of tables of Pochhammer ratios over
consecutive integers.

Everything here is pure and reentrant; weight sweeps reach nu ~ 10^3, so
scalar Gamma quotients are assembled in log domain (``math.lgamma``) and
exponentiated once, and tables over consecutive integers are cumulative
products of consecutive ratios, which round once per factor instead of
carrying the error of a log-gamma of size (a+j) log(a+j).

The blocked kernels of the other modules keep their working memory in one
per-thread pool of buffers here (:func:`_thread_buffers`); a public call
that fills the calling thread's pool empties it when it returns.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

__all__ = [
    "pochhammer",
    "log_pochhammer",
    "pochhammer_steps",
    "scaled_cumprod",
    "CarriedCumprod",
    "from_scaled",
    "pochhammer_ratios",
    "log_pochhammer_ratios",
    "channel_constant_sq",
    "log_channel_constant_sq",
    "berezin_eigenvalue",
    "log_berezin_eigenvalue",
    "validate_weight",
]

# the smallest normal double: below it a product keeps fewer digits
_NORMAL = np.finfo(float).tiny
# Tables over consecutive integers that grow with a truncation cut are built
# and read this many entries at a time (:class:`CarriedCumprod`), and the
# blocked kernels work on blocks of this many points.
BLOCK = 1 << 13


class _Buffers:
    """Flat buffers by name: :meth:`get` returns a C-contiguous view of a
    buffer's prefix, as a fresh array of its shape would be, and grows the
    buffer when it is too small; :meth:`keep` holds any other object that a
    kernel reuses from call to call."""

    def __init__(self):
        self._flat = {}

    def get(self, name, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)

    def keep(self, name, build):
        """The object kept under ``name``, built by ``build()`` on first use."""
        kept = self._flat.get(name)
        if kept is None:
            kept = self._flat[name] = build()
        return kept


# one pool of buffers per thread, kept from call to call so that a warm
# block allocates no array of a block's size; a pool's are freed when its
# threads end, and the calling thread's when a public call that fills it
# returns (:func:`_frees_thread_buffers`)
_thread_state = threading.local()


def _thread_buffers() -> _Buffers:
    """This thread's buffers, built on first use."""
    space = getattr(_thread_state, "buffers", None)
    if space is None:
        space = _thread_state.buffers = _Buffers()
    return space


def _drop_thread_buffers():
    """Free this thread's buffers."""
    _thread_state.buffers = None


def _frees_thread_buffers(fn):
    """``fn``, freeing the calling thread's buffers when it returns or
    raises: the policy of every public call whose kernels fill them."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            _drop_thread_buffers()

    return call


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


def log_pochhammer(a: float, n: int) -> float:
    """log (a)_n for a > 0, safe for a <= 1e6, n <= 1e6 (never overflows:
    the value lives in log domain)."""
    if n < 0 or not a > 0.0:
        raise ValueError(f"need a > 0 and a natural number n, got a = {a}, n = {n}")
    return math.lgamma(a + n) - math.lgamma(a)


def pochhammer_steps(count: int, numer, denom, start: int = 0) -> np.ndarray:
    """prod_a (a + j) / prod_b (b + j) for j = start..start+count-1: the
    ratios of consecutive entries of prod_a (a)_j / prod_b (b)_j."""
    j = np.arange(start, start + count, dtype=float)
    num, den = numer[0] + j, denom[0] + j
    for a in numer[1:]:
        num *= a + j
    for b in denom[1:]:
        den *= b + j
    num /= den
    return num


def scaled_cumprod(factors, first=1.0, out=None) -> tuple[np.ndarray, np.ndarray | None]:
    """first * f_1 ... f_j along the first axis of ``factors``, j = 0..M, as
    (mantissa, exponent) with value = mantissa * 2**exponent.

    A plain cumprod, exponent 0, up to the first row in which a product
    leaves the normal double range by magnitude; from the product before it
    (``first`` itself if it is out of range) the cumprod runs in exponent
    stretches (:class:`_Stretches`).  The exponent is None when every
    product is plain.  A value keeps one rounding per factor and per
    stretch, and only the final ``np.ldexp`` or ``np.log`` meets the range.
    ``first`` is a scalar or one per column, each factor 0 or within
    2^+-400 in magnitude.  The mantissas are written into ``out`` if given.
    """
    f = np.asarray(factors, dtype=float)
    mant = np.empty((f.shape[0] + 1,) + f.shape[1:]) if out is None else out
    return mant, _Carry(first).extend(f, mant)


class _Carry:
    """The cumprod of :func:`scaled_cumprod`, extended by the factors of one
    run after another: entry 0 (``first``) is written at the start of the
    first run, and only a carry is kept between runs, the last plain
    product or, once a product has left the range, the stretches."""

    def __init__(self, first):
        self.last = np.asarray(first, dtype=float)
        self.lead = 1  # 0 once entry 0 is written
        self.stretches = None if _first_exit(self.last[None]) is None else _Stretches(self.last)

    def extend(self, f: np.ndarray, mant: np.ndarray) -> np.ndarray | None:
        """Write the next entries, one per factor of ``f`` (first axis) after
        entry 0 if it is still to write, into ``mant``, and return their
        exponents, or None when every one is plain."""
        lead = min(self.lead, len(mant))
        self.lead -= lead
        if self.stretches is None:
            mant[lead:] = f
            if lead:
                mant[0] = self.last
            elif len(f):
                mant[0] *= self.last
            with np.errstate(over="ignore", invalid="ignore"):
                np.cumprod(mant, axis=0, out=mant)
            i = _first_exit(mant)
            if i is None:
                self.last = mant[-1].copy() if len(mant) else self.last
                return None
            self.stretches = _Stretches(mant[i - 1] if i else self.last)
            expo = np.zeros(mant.shape, dtype=np.int64)  # the rows before i stay plain
            self.stretches.extend(f[i - lead :], mant[i:], expo[i:])
            return expo
        expo = np.empty(mant.shape, dtype=np.int64)
        if lead:
            mant[0], expo[0] = self.stretches.m, self.stretches.e
        self.stretches.extend(f, mant[lead:], expo[lead:])
        return expo


def _first_exit(products: np.ndarray) -> int | None:
    """The first row (first axis) with a product of magnitude >= 2^1000, or
    nonzero and below the normal range, or NaN; None if there is none."""
    low = products.min(initial=np.inf)
    if low == 0.0:  # zero factors, as in a clamped step: the least nonzero product decides
        low = products.min(where=products != 0.0, initial=np.inf)
    if low >= _NORMAL and products.max(initial=0.0) < 2.0**1000:
        return None  # every product zero or positive and in range, the common case
    return _exit_row(products)


def _exit_row(products: np.ndarray) -> int | None:
    """:func:`_first_exit` past its range test, entry by entry."""
    size = np.abs(products)
    out = ~((size < 2.0**1000) & ((size >= _NORMAL) | (size == 0.0)))
    rows = out.reshape(len(out), -1).any(axis=1)
    return int(rows.argmax()) if rows.any() else None


class _Stretches:
    """The exponent stretches of a cumprod from ``start``, extended by the
    factors of one run after another: the running bit count of the factors
    (the widest column's) and the next multiple of 400 it waits for, the
    mantissa m and exponent e of the stretch's start, and the partial
    product of the stretch's factors and its last scaled entry (None at the
    start of a stretch)."""

    def __init__(self, start):
        self.m, e = np.frexp(start)
        self.e = e.astype(np.int64)
        self.span, self.edge = 0.0, 1
        self.run = self.end = None

    def extend(self, f: np.ndarray, mant: np.ndarray, expo: np.ndarray):
        """Write the products that the factors ``f`` (first axis) add into
        ``mant`` and ``expo``: a stretch ends at the factor where the bit
        count passes a multiple of 400, and the next one starts from its
        last product, renormalized by its exact power of two.  The bit
        counts are formed in ``mant`` before the runs."""
        count = len(f)
        if count == 0:
            return
        bits = mant.reshape(count, -1)
        np.abs(f.reshape(count, -1), out=bits)
        with np.errstate(divide="ignore"):
            np.log2(bits, out=bits)
        np.abs(bits, out=bits)
        bits[~np.isfinite(bits)] = 0.0  # a zero factor zeroes the rest of its column
        span = bits[:, 0] if bits.shape[1] == 1 else bits.max(axis=1)
        span[0] += self.span
        np.cumsum(span, out=span)
        self.span = span[-1]
        edges = []
        while span[-1] >= 400.0 * self.edge:
            edges.append(int(np.searchsorted(span, 400.0 * self.edge)))
            self.edge += 1
        lo = 0
        for i, hi in enumerate([*edges, count]):
            # every segment but a first one at 0 starts where a stretch ends
            if (i or edges[:1] == [0]) and self.end is not None:
                self.m, step = np.frexp(self.end)
                self.e = self.e + step
                self.run = self.end = None
            if hi > lo:
                run = mant[lo:hi]
                run[...] = f[lo:hi]
                if self.run is not None:
                    run[0] *= self.run
                np.cumprod(run, axis=0, out=run)
                self.run = run[-1].copy()
                run *= self.m
                self.end = run[-1].copy()
                expo[lo:hi] = self.e
                lo = hi


class CarriedCumprod:
    """first * prod_a (a)_j / prod_b (b)_j, j = 0..count-1, the table of
    :func:`pochhammer_ratios` before :func:`from_scaled`, read in order a
    block at a time: :meth:`take` returns the next n entries with the bits
    that :func:`scaled_cumprod` gives the whole table, keeping only its
    carry (:class:`_Carry`) between calls.
    """

    def __init__(self, count: int, numer, denom, first: float = 1.0):
        self._numer, self._denom = numer, denom
        self._count = count
        self._next = 0  # the next entry to return
        self._carry = _Carry(first)

    def skip(self, n: int):
        """Pass over the next n entries, a block at a time."""
        while n > 0:
            self.take(min(n, BLOCK))
            n -= BLOCK

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The next n entries as (mantissa, exponent); the exponent is None
        when every one of them is plain, and 0 at the plain ones."""
        j0, j1 = self._next, self._next + n
        if n < 0 or j1 > self._count:
            raise ValueError("read outside the table")
        self._next = j1
        # entry j >= 1 takes factor j - 1; entry 0 is first itself
        f = pochhammer_steps(max(j1, 1) - max(j0, 1), self._numer, self._denom, max(j0, 1) - 1)
        mant = np.empty(n)
        return mant, self._carry.extend(f, mant)


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
        log_pochhammer(mu, k)
        + log_pochhammer(nu, k)
        - math.lgamma(k + 1)
        - log_pochhammer(mu + nu + k - 1, k)
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
