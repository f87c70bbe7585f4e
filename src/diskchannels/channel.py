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
    BLOCK,
    CarriedCumprod,
    _Buffers,
    _frees_thread_buffers,
    _thread_buffers,
    channel_constant_sq,
    from_scaled,
    log_channel_constant_sq,
    pochhammer,
    pochhammer_ratios,
    scaled_cumprod,
    validate_weight,
)

__all__ = [
    "ChannelParams",
    "isometry_weights",
    "apply_channel",
    "diagonal_response",
    "diagonal_output_spectrum",
    "response_tail_bound",
    "output_trace_interval",
    "power_sum",
    "banded_trace",
    "sqrt_series_coefficients",
]

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


def _derivative_sum(params: ChannelParams, m, n, space=None, out=None):
    """S(m,n) = sum_j (-1)^{k-j} binom(k,j) (m)_j^fall (n)_{k-j}^fall / ((mu)_j (nu)_{k-j}).

    c_{m,n} = C * S(m,n), signed so that the adjoint sends the constant to
    +C (z-w)^k (the integral-form convention; the derivative and integral
    forms of the intertwiner differ by (-1)^k and only this sign makes them
    mutually adjoint).  Vectorized over broadcast integer m, n >= 0; a term
    with j > m or k - j > n vanishes exactly, since its falling factorial
    carries the factor 0.  k is small and the falling factorials are short
    products, but the terms alternate in sign: S has zeros in n (for k = 1,
    S = m/mu - n/nu), so its rounding is relative to the absolute term sum
    T(m,n) (see :func:`_abs_sum_trace`), not to |S|.  S is written into
    ``out`` (else the buffer "S") and its two work arrays are the buffers
    "fall" and "shift" of ``space`` (a :class:`_Buffers`, fresh ones if
    None).
    """
    k = params.k
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    space = _Buffers() if space is None else space
    shape = np.broadcast(m, n).shape
    total = space.get("S", shape) if out is None else out
    fall, shift = space.get("fall", shape), space.get("shift", shape)
    total.fill(0.0)
    for j, coeff in _derivative_terms(params):
        c = coeff * _falling(m, j)
        if j == k:  # times (n)_0 = 1
            total += c
            continue
        # c (n)_{k-j}, with the factors of _falling(n, k - j) in its order
        fall.fill(1.0)
        for i in range(k - j):
            fall *= np.subtract(n, i, out=shift)
        np.multiply(c, fall, out=fall)
        total += fall
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
    """The coupling weights w^{(p)}_{m,n}, n = p + k - m, a block of output
    indices p at a time.

    w = S(m,n) r_m[p]^{1/2}, r_m[p] = C^2 (p!/(s)_p) ((mu)_m/m!) ((nu)_n/n!),
    s the target weight, from products over consecutive integers:

        r_0[p] = C^2 ((nu)_k/k!) (1)_p (nu+k)_p / ((s)_p (k+1)_p),
        step[t] = ((nu)_{t-1}/(t-1)!) / ((nu)_t/t!) = t/(nu+t-1),
        r_m[p] = r_{m-1}[p] step[n+1] (mu+m-1)/m,

    the last a cumprod along m whose every partial product is an r value.
    r_0 is a :class:`specfun.CarriedCumprod`, read in order a block at a
    time, and step[t] is formed where it is read, so no table grows with the
    cut.  The cumprods carry a binary exponent from their first product out
    of the double range on (:func:`specfun.scaled_cumprod`), so a row whose
    ends lie below it still reaches its middle.  r_0 has the bits of the
    table built whole; the cumprod along m leaves the range at the first m
    where a product of its block of p does, so only such a grid can round
    differently from one built whole.
    :func:`diagonal_output_spectrum` runs the recurrence as Horner's rule in
    m.  r_m[p] is within (4p + 4m + 7k) eps relative of exact, or 7m where
    mu + j rounds (derived at ``experiments._row_channel_limit``).
    """

    def __init__(self, params: ChannelParams):
        self.params = params
        nu, k = params.nu, params.k
        self.c2 = channel_constant_sq(params.mu, nu, k)
        self.first = self.c2 * math.prod((nu + i) / (i + 1.0) for i in range(k))

    def r0(self, p_max: int) -> CarriedCumprod:
        """r_0[p], p = 0..p_max, as mantissa and exponent, read in order; the
        m recurrence of a row starts from the mantissa wherever r_0[p] itself
        is below the double range."""
        nu, k = self.params.nu, self.params.k
        return CarriedCumprod(
            p_max + 1, (1.0, nu + k), (self.params.target_weight, k + 1.0), self.first)

    def r0_at(self, x) -> np.ndarray:
        """r_0 at real x > -1 for an integer mu, as mu + 2k ratios:
        C^2 (nu)_{mu+2k} / ((x+1)_k (nu+k+x)_{mu+k})."""
        mu, nu, k = self.params.mu, self.params.nu, self.params.k
        if not float(mu).is_integer():
            raise ValueError(f"r_0 at real points needs an integer mu, got {mu!r}")
        return math.prod([(nu + i) / (nu + k + i + x) for i in range(int(mu) + k)]
                         + [(nu + mu + k + i) / (x + 1.0 + i) for i in range(k)], start=self.c2)

    def terms(self, ps, ms, r0, space=None, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(S, r) on the grid of ascending output indices ``ps`` (rows) by
        input degrees ``ms`` (columns), given ``r0`` = r_0 at ``ps`` as
        (mantissa, exponent): r = r_m[p], and S = 0 unless m, n >= 0.  S is
        written into ``out`` if given; the grid's other arrays are buffers
        of ``space`` (a :class:`_Buffers`, fresh ones if None), so S and r
        hold until its next use."""
        space = _Buffers() if space is None else space
        k, nu, mu = self.params.k, self.params.nu, self.params.mu
        ps, ms = np.asarray(ps, dtype=float), np.asarray(ms)
        n = space.get("n", (ps.size, ms.size))
        np.subtract(ps[:, None] + k, ms, out=n)
        # n < 0 only on the rows p < max(m) - k, the leading ones (or m < 0)
        top = int(ms.max(initial=0))
        lead = ps.size if ms.min(initial=0) < 0 else int(np.searchsorted(ps, top - k))
        invalid = np.less(n[:lead], 0.0, out=space.get("invalid", (lead, ms.size), bool))
        invalid |= ms < 0
        np.copyto(n[:lead], 0.0, where=invalid)
        S = _derivative_sum(self.params, ms, n, space, out)
        np.copyto(S[:lead], 0.0, where=invalid)
        # the recurrence runs down m, one row per m: row m multiplies
        # step[n + 1] (mu+m-1)/m; a step to n < 0 reads step[0] = 0, and the
        # weight there is 0 anyway.  S's two work arrays are free again: they
        # take the factors and their denominators, then the table
        j = np.arange(1, max(top, 0) + 1)[:, None]
        factors = space.get("fall", (j.size, ps.size))
        np.subtract(ps + (k + 1), j, out=factors)
        np.maximum(factors[:, :lead], 0.0, out=factors[:, :lead])  # n + 1, on p's columns
        den = np.add(factors, nu, out=space.get("shift", factors.shape))
        den -= 1.0
        factors /= den
        factors *= (mu + j - 1.0) / j
        r0_mant, r0_exp = r0
        mant, expo = scaled_cumprod(factors, r0_mant, space.get("shift", (j.size + 1, ps.size)))
        if r0_exp is not None:
            expo = r0_exp if expo is None else expo + r0_exp
        if expo is not None:
            np.ldexp(mant, expo, out=mant)
        # back to one row per p, in row-major order for the callers' row
        # reads, through the factors' buffer
        rows = np.take(mant, np.maximum(ms, 0), axis=0, mode="clip",
                       out=space.get("fall", (ms.size, ps.size)))
        np.copyto(n, rows.T)
        return S, n

    def weights(self, ps, ms, r0, out=None, space=None) -> np.ndarray:
        """Signed w^{(p)}_{m,n} = C S(m,n) ||zeta^p|| / (||z^m|| ||w^n||) on
        the grid ``ps`` by ``ms``, written into ``out`` if given; ``space``
        as for :meth:`terms`."""
        S, r = self.terms(ps, ms, r0, space, out)
        S *= np.sqrt(r, out=r)
        return S

    def row_terms(self, p: int, ms) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`terms` on the single output index p."""
        table = self.r0(p)
        table.skip(p)
        return self.terms([p], ms, table.take(1))


def isometry_weights(params: ChannelParams, p: int, n=None) -> np.ndarray:
    """Orthonormal coupling weights w^{(p)}_{m,n} over m + n = p + k.

    Defaults to the full row n = 0..p+k; pass ``n`` (array) to select entries.
    The full row has unit square sum.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if n is None:
        n = np.arange(p + params.k + 1)
    S, r = _Couplings(params).row_terms(p, p + params.k - np.asarray(n))
    return (S * np.sqrt(r))[0]


def _block_bounds(n: int, b: int) -> list[tuple[int, int]]:
    """The blocks [t0, t1) of BLOCK band-storage indices over [0, n) that the
    band routines share; the last one holds at least b + 2 (or all n), so
    that no band of bandwidth b but one of a single entry ends in a block
    with one entry: numpy forms a one-row product as a dot, which rounds
    apart from the matrix-vector product of the rest of the band."""
    starts = list(range(0, n, BLOCK))
    while len(starts) > 1 and n - starts[-1] < b + 2:
        starts.pop()
    return list(zip(starts, [*starts[1:], n]))


def _offset_plan(A: TruncatedOperator, m_top: int) -> list:
    """(off, m_lo, m_hi, pairs) per offset off = m - m' = p - q of A's nonzero
    entries with degrees at most ``m_top``, min(degree, L + k): the entries
    A[m - off, m], m_lo <= m <= m_hi, as (re, im) rows."""
    nz_rows, nz_cols = np.nonzero(np.abs(A.matrix) > 0)
    offsets = np.unique(nz_cols - nz_rows)
    offsets = offsets[offsets >= 0] if A.hermitian else offsets  # the lower triangle mirrors
    spans = [(off, max(0, off), min(m_top, m_top + off)) for off in offsets.tolist()]
    diags = [A.matrix[np.arange(lo, hi + 1) - off, np.arange(lo, hi + 1)] for off, lo, hi in spans]
    return [(*span, d.view(float).reshape(-1, 2)) for span, d in zip(spans, diags) if np.any(d)]


def _channel_blocks(A: TruncatedOperator, params: ChannelParams, plan=None):
    """(bandwidth, blocks) of T(A), given A's :func:`_offset_plan` at its
    degree if at hand: ``blocks`` yields (t0, t1, bands) for the blocks of
    band-storage indices t of :func:`_block_bounds`, with bands[off] the
    entries t0 <= t < t1 of band off (fewer where it ends).

    Entry (q, p) of the output is sum_m V[p, m] A[m - (p-q), m] V[q, m - (p-q)];
    band off = p - q stores it at t = min(p, q), so a block reads the weight
    rows [t0, t1 + b), b the bandwidth: the rows of the block before it past
    t1, kept, and the new rows, whose r_0 continues the carried table.  A band
    is one real product of the weights' products with A's (re, im) columns.
    """
    if A.weight != params.mu:
        raise ValueError(f"operator lives at weight {A.weight}, channel expects mu={params.mu}")
    L = params.default_output_degree()
    m_top = min(A.degree, L + params.k)
    if plan is None or m_top < A.degree:
        plan = _offset_plan(A, m_top)
    plan = [entry for entry in plan if abs(entry[0]) <= L]
    b = max((abs(off) for off, *_ in plan), default=0)

    def blocks():
        couplings = _Couplings(params)
        r0 = couplings.r0(L)
        ms = np.arange(m_top + 1)
        bounds = _block_bounds(L + 1, b)
        # the weight rows [t0, t1 + b) of the longest block, and the products
        # of two of their column ranges
        space = _thread_buffers()
        M = m_top + 1
        V = space.get("V", (max(min(t1 + b, L + 1) - t0 for t0, t1 in bounds), M))
        flat = V.reshape(-1)
        prod = space.get("prod", (V.size,))
        v_lo = v_hi = 0  # V[: v_hi - v_lo] holds the weight rows [v_lo, v_hi)
        for t0, t1 in bounds:
            hi = min(t1 + b, L + 1)
            keep = v_hi - t0  # the rows of the block before that this one reads
            V[:keep] = V[t0 - v_lo : v_hi - v_lo]
            if hi > v_hi:
                couplings.weights(np.arange(v_hi, hi), ms, r0.take(hi - v_hi),
                                  out=V[keep : hi - t0], space=space)
            v_lo, v_hi = t0, hi
            bands = {}
            for off, m_lo, m_hi, pairs in plan:
                size = min(t1, L + 1 - abs(off)) - t0
                if size > 0:
                    # V[p, m] V[q, m - off] at rows p = t + off, q = t for
                    # off >= 0 and p = t, q = t - off below: V times itself
                    # |off| rows and |off| columns on, on the flattened rows,
                    # read back as rows of M with the first m_hi - m_lo + 1 used
                    width, shift = m_hi - m_lo + 1, abs(off) * (M + 1)
                    count = (size - 1) * M + width
                    np.multiply(flat[:count], flat[shift : shift + count], out=prod[:count])
                    band = prod[: size * M].reshape(size, M)[:, :width] @ pairs
                    bands[off] = band.view(complex)[:, 0]
            yield t0, t1, bands

    return b, blocks() if plan else iter(())


@_frees_thread_buffers
def apply_channel(A: TruncatedOperator, params: ChannelParams) -> BandedOperator:
    """T(A) = P_k (A x I) P_k* on H_{mu+nu+2k}, by exact finite sums.

    Entry (q, p) of the output is sum_m V[p, m] A[m - (p-q), m] V[q, m - (p-q)];
    grade conservation makes the output banded with A's bandwidth, so the
    cost is O(L * bandwidth * support) and the result is returned in band
    storage of O(L * bandwidth) entries, assembled from the blocks of
    :func:`_channel_blocks`.  Hermiticity propagates exactly (the coupling
    weights are real).  :func:`_channel_trace` reads the same blocks without
    holding the bands.  The blocks' buffers are freed when this returns.
    """
    L = params.default_output_degree()
    _, blocks = _channel_blocks(A, params)
    bands = {}
    for t0, _, chunks in blocks:
        for off, chunk in chunks.items():
            if off not in bands:
                bands[off] = np.empty(L + 1 - abs(off), dtype=chunk.dtype)
            bands[off][t0 : t0 + chunk.size] = chunk
    return BandedOperator(params.target_weight, L, bands, hermitian=A.hermitian)


def _channel_trace(A: TruncatedOperator, params: ChannelParams, psi, plan=None, captured=False):
    """sum_j a_j Tr T(A)^j: :func:`banded_trace` of :func:`apply_channel`
    (bit for bit unless T(A) is diagonal), with T(A)'s bands read a block of
    output indices at a time, so its memory does not grow with the cut; with
    ``captured``, (that, (sum_t Re B_tt, sum_t t Re B_tt))."""
    psi = _check_psi(psi)
    b, blocks = _channel_blocks(A, params, plan)
    sums = [0.0, 0.0]

    def counted():
        for t0, t1, bands in blocks:
            diag = bands.get(0, np.zeros(0)).real  # band 0 of a Hermitian B is real
            sums[0] += float(np.sum(diag))
            sums[1] += float(diag @ np.arange(t0, t0 + diag.size, dtype=float))
            yield t0, t1, bands

    trace = _blocks_trace(counted(), params.default_output_degree() + 1, b, A.hermitian, psi)
    return (trace, tuple(sums)) if captured else trace


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


def diagonal_output_spectrum(params: ChannelParams, diag, cut: int, nodes=None):
    """Output diagonal of T(A) for a diagonal input A, entries p = 0..cut.

    For diagonal A the output is exactly diagonal (grade conservation), so
    this is its full spectrum up to the cut — no matrix is materialized.  A
    weight sweep needs a cut of a few nu only: past it the runner sums the
    spectrum by its continuation, which ``nodes`` evaluates.  For any A it
    is the diagonal of T(A), which depends only on the diagonal of A.

    With n = p + k - m and s the target weight, lambda_p(m) = S(m,n)^2 r_m[p]
    where r_m[p] = r_0[p] ((mu)_m/m!) prod_{i=1..m} step[p+k+1-i],
    r_0[p] = C^2 (p!/(s)_p) ((nu)_{p+k}/(p+k)!) and step[t] = t/(nu+t-1),
    as ``_Couplings`` has them.  The sum over m is Horner's rule in the
    input degree, from the top degree down:

        acc_m = acc_{m+1} step[p+k-m] + diag[m] ((mu)_m/m!) S(m,n)^2,
        out = r_0 acc_0,

    on the entries p >= m - k where lambda_p(m) can be nonzero.  A term is
    the square of the k + 1 term sum of S (:func:`_derivative_sum`, from
    falling factorials (n)_{k-j}) with coefficients c_j scaled by the root
    of the degree's coefficient, whose sign picks the add or subtract.  On
    each block of BLOCK output indices the rows of the degrees are strided
    windows of 1-D tables of step and (n)_{k-j}: a few whole-table operations
    form the term rows of a chunk of degrees (at most BLOCK entries), then
    each degree multiplies its step row into the acc and adds its term row.
    Only the output grows with the cut, and every entry goes through the
    operations it would in one block.

    Every factor is rational in p, so the recurrence also gives lambda(x) at
    real x.  ``nodes`` (reals at least the top degree, which they all read,
    for an integer mu: :meth:`_Couplings.r0_at`) are more columns of the
    last block, whose rows continue the integer ones from tables of the
    n = x + k - m of each degree; (out, lambda at the nodes) is returned.

    (mu)_m/m! is never formed: a degree's coefficient is its weight over the
    top degree's, w = prod (m+1)/(mu+m) < 1, carried as a mantissa and a
    binary exponent.  Taken from the top down, a degree whose w falls more
    than 2**_TERM_BITS below its group's starts a new group; each group runs
    the loop from its top degree to degree 0 in an acc of its own, in units
    of its top's binary exponent, and adds only its own terms.  The first
    group's acc is the output block, and the later groups share one more
    block buffer (none is made for one group, as for every input whose
    weights span less than 2**_TERM_BITS).  Each acc is finished by the
    multiply by r_0 (itself a mantissa and exponent) and 1/w_0, which adds
    the binary exponents, so no intermediate product overflows to inf or
    NaN, and each group's output, which is representable, is added into the
    block.
    """
    diag = np.asarray(diag, dtype=float)
    k, mu, nu = params.k, params.mu, params.nu
    x = 0 if nodes is None else np.size(nodes)
    out = np.zeros(cut + 1 + x)  # the values at the nodes follow the output
    support = np.flatnonzero(diag)
    if support.size == 0:
        return out if nodes is None else (out[: cut + 1], out[cut + 1 :])
    m_top = int(support[-1]) if nodes is not None else min(int(support[-1]), cut + k)
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
    # per group, at row top - m: c_j and the add or subtract of m's term (None without)
    groups, derivs = [], _derivative_terms(params)
    for top, bottom, acc_exp in zip(tops, bottoms, exps):
        if top == bottom:  # one degree: the same operations on scalars, which numpy takes slower
            coef = math.ldexp(diag[top] * w_mant[top], w_exp[top] - acc_exp)
            m, root, signs = float(top), math.sqrt(abs(coef)), [(diag[top], coef)]
        else:
            m = np.arange(top, bottom - 1, -1)
            coef = np.ldexp(diag[m] * np.take(w_mant, m), np.take(w_exp, m) - acc_exp)
            root, signs = np.sqrt(np.abs(coef)), zip(diag[m].tolist(), coef.tolist())
        c = np.zeros((k + 1, top + 1))
        parts = [root * coeff * _falling(m, j) for j, coeff in derivs]
        c[:, : top + 1 - bottom] = np.reshape(parts, (k + 1, -1))
        ops = [None if d == 0.0 else np.add if v > 0.0 else np.subtract
               for d, v in signs] + [None] * bottom
        groups.append((top, acc_exp, c, ops))
    couplings, space = _Couplings(params), _Buffers()  # the call's block buffers
    r0 = couplings.r0(cut)
    if x:  # row i of the node tables of step and (n)_{k-j}: n = x + k - m, m = m_top - i
        n = (np.asarray(nodes, dtype=float) + k) - np.arange(m_top, -1, -1.0)[:, None]
        at_nodes = [_falling(n, k - j) for j in range(k)]
        at_nodes, r0_nodes = [np.divide(n, nu + n - 1.0, out=n), *at_nodes], couplings.r0_at(nodes)

    def horner(acc, p0, size, top, c, ops):
        """Degrees ``top`` down to 0 on acc: entries p0 + i, i < size, then nodes."""
        cols = acc.size
        # row top - m of a table's window (rows overlap: row r is t[r : r + size])
        # is at the n of degree m and p = p0..; n < 0 (p < m - k, never read) is 0
        n = np.maximum(np.arange(p0 + k - top, p0 + size + k, dtype=float), 0.0)
        fall_n = [_falling(n, k - j) for j in range(k)]
        np.divide(n, nu + n - 1.0, out=n)  # step
        step, *fall_n = [np.ndarray((top + 1, size), buffer=t, strides=(8, 8))
                         for t in [n, *fall_n]]
        per = max(1, BLOCK // cols)  # degrees per chunk
        S = space.get("S", (per, cols))
        at = [t[m_top - top :] for t in at_nodes] if cols > size else None  # row top - m
        # with a ufunc buffer shorter than a row, numpy broadcasts a column of
        # one value per row unbuffered: three times as fast on these tables
        bufsize = np.setbufsize(16)
        try:
            for hi in range(top, -1, -per):
                i0, i1 = top - hi, min(top - hi + per, top + 1)  # rows of degrees hi down
                steps = step[i0:i1]
                if cols > size and i1 > 1:  # [integer | node] step rows
                    steps = np.concatenate((steps, at[0][i0:i1]), 1,
                                           out=space.get("steps", (per, cols))[: i1 - i0])
                terms = S[: i1 - i0] if any(ops[i0:i1]) else steps  # else never added
                if terms is not steps:  # the chunk's term rows
                    # c_j, as a scalar for one row, which numpy takes faster
                    cs = c[:, i0] if i1 - i0 == 1 else c[:, i0:i1, None]
                    if k == 0:
                        terms[:] = cs[0]
                    for j in range(k):  # c_j (n)_{k-j}, integer then node columns
                        part = terms if j == 0 else space.get("part", (per, cols))[: i1 - i0]
                        np.multiply(fall_n[j][i0:i1], cs[j], out=part[:, :size])
                        if cols > size:
                            np.multiply(at[1 + j][i0:i1], cs[j], out=part[:, size:])
                        if j:
                            terms += part
                    if k:
                        terms += cs[k]
                    terms *= terms
                for m, op, srow, trow in zip(range(hi, -1, -1), ops[i0:i1], steps, terms):
                    row, lo = acc, min(m - k - p0, size)  # lambda_p(m) = 0 for p < m - k
                    if lo > 0:
                        row, srow, trow = acc[lo:], srow[lo:], trow[lo:]
                    if m < top:
                        row *= srow
                    if op:
                        op(row, trow, out=row)
        finally:
            np.setbufsize(bufsize)

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

    for p0 in range(0, cut + 1, BLOCK):
        size = min(BLOCK, cut + 1 - p0)
        block = out[p0 : p0 + size + (x if p0 + size > cut else 0)]  # the last with the nodes
        for g, (top, acc_exp, c, ops) in enumerate(groups):
            acc = block if g == 0 else space.get("later", block.shape)
            if g:
                acc.fill(0.0)
            horner(acc, p0, size, top, c, ops)
            if g == 0:  # once the first group's tables are freed
                r0_block = r0.take(size)
            finish(acc[:size], acc_exp, *r0_block)
            if block.size > size:
                finish(acc[size:], acc_exp, r0_nodes, None)
            if g:
                block += acc
    return out if nodes is None else (out[: cut + 1], out[cut + 1 :])


# A degree whose weight falls more than this many binary places below its
# group's acc unit 2**e starts the next group, so that a group's
# coefficients lie within [2**-901, 1] times diag[m]: every term it adds is
# representable beside its acc.
_TERM_BITS = 900


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
        D += abs(coeff) * _falling(m, j) / n0**j
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
    complex values a complex.  The powers are formed up to psi's top nonzero
    coefficient only.
    """
    top = max((j for j, a in enumerate(psi) if a != 0.0), default=0)
    total = 0.0
    power = values
    for j in range(1, top + 1):
        if j > 1:
            power = power * values
        if psi[j] != 0.0:
            total += psi[j] * np.sum(power).item()
    return total


def _band_product(X: tuple[int, np.ndarray], Y: tuple[int, np.ndarray]):
    """Row-indexed bands of X @ Y: C[i, i+c] = sum_a X[i, i+a] Y[i+a, i+c].

    A row's entries are right wherever the rows of Y that it reads are on
    hand; a row near the end of the window reads zeros in their place."""
    (bx, RX), (by, RY) = X, Y
    n = RX.shape[1]
    C = np.zeros((2 * (bx + by) + 1, n), dtype=complex)
    for ia, a in enumerate(range(-bx, bx + 1)):
        lo, hi = max(0, -a), min(n, n - a)
        if lo < hi:
            C[ia : ia + 2 * by + 1, lo:hi] += RX[ia, lo:hi] * RY[:, lo + a : hi + a]
    return bx + by, C


def _window_rows(W, w0, r0, r1, b, hermitian, transpose=False) -> np.ndarray:
    """R[b + a, r - r0] = M[r, r + a] for rows r0 <= r < r1, M = B or B^T,
    from W[b + off, t - w0] = band off of B at t (zero past its end)."""
    sign = -1 if transpose else 1
    R = np.zeros((2 * b + 1, r1 - r0), dtype=complex)
    for a in range(-b, b + 1):
        if a >= 0:  # band sign * a at r
            R[b + a] = W[b + sign * a, r0 - w0 : r1 - w0]
            continue
        # M[r, r - |a|] sits at t = r - |a|: band -sign * |a|, or the mirror
        # of band |a| for Hermitian B
        lo = max(r0, -a)
        src = W[b - a if hermitian else b + sign * a, lo + a - w0 : r1 + a - w0]
        R[b + a, lo - r0 :] = np.conj(src) if hermitian else src
    return R


def _window_traces(W, w0, c0, c1, n, b, hermitian, psi) -> list:
    """[sum_{c0 <= i < c1} (B^j)_{ii} for j = 0, 1, ..., deg psi] (0 where
    a_j = 0) for the n x n B whose bands W holds from w0
    (:func:`_window_rows`) over [c0 - h b, c1 + (h - 1) b),
    h = ceil(deg psi / 2).

    (B^j)_{ii} = sum_c (B^hx)[i, c] ((B^T)^hy)[i, c], hx + hy = j, hy = hx
    or hx - 1, so only the rows of B^hx and (B^T)^hy in the block are read;
    they need B's rows within (hx - 1) b of it.  (B^T)^hy is the conjugate
    of B^hy for Hermitian B.
    """
    top = len(psi) - 1
    h = (top + 1) // 2
    r0, r1 = max(0, c0 - (h - 1) * b), min(n, c1 + (h - 1) * b)
    R = _window_rows(W, w0, r0, r1, b, hermitian)
    P = [None, (b, R)]
    for _ in range(2, h + 1):  # B^h up to h = ceil(deg / 2)
        P.append(_band_product(P[-1], P[1]))
    if hermitian:
        Q = [None] + [(bp, np.conj(X)) for bp, X in P[1 : top // 2 + 1]]
    else:
        Q = [None, (b, _window_rows(W, w0, r0, r1, b, False, transpose=True))]
        for _ in range(2, top // 2 + 1):
            Q.append(_band_product(Q[-1], Q[1]))
    lo, hi = c0 - r0, c1 - r0
    traces = [0j] * (top + 1)
    for j, a in enumerate(psi):
        if j == 0 or a == 0.0:
            continue
        if j == 1:
            traces[j] = np.sum(R[b, lo:hi])
        else:
            (bx, X), (by, Y) = P[(j + 1) // 2], Q[j // 2]
            c = min(bx, by)
            traces[j] = np.sum(X[bx - c : bx + c + 1, lo:hi] * Y[by - c : by + c + 1, lo:hi])
    return traces


def _blocks_trace(blocks, n: int, b: int, hermitian: bool, psi) -> float | complex:
    """sum_j a_j Tr B^j for the n x n B of bandwidth b whose bands arrive in
    consecutive blocks (t0, t1, {off: band[t0:t1]}), exact, with no
    eigensolve.

    Tr B = sum of the diagonal, and Tr B^2 = sum_t band_0[t]^2 +
    2 sum_{off>0} sum_t band_off[t] band_-off[t] (sum_t |band_0[t]|^2 +
    2 sum_{off>0} sum_t |band_off[t]|^2 for Hermitian B, the squared
    Frobenius norm): each block adds its own part.  Higher powers go through
    :func:`_window_traces`, on a window that keeps the last h b band rows of
    the blocks before, h = ceil(deg psi / 2), and waits (h - 1) b rows past
    a block before it traces the block's rows.  Each Tr B^j is summed over
    all blocks before it is multiplied by a_j, once, so the blocks round
    no product a_j (block sum) on their own.  Hermitian B gives a float,
    otherwise a complex.
    """
    top = max((j for j, a in enumerate(psi) if a != 0.0), default=0)
    psi = psi[: top + 1]
    traces = [0j] * (top + 1)
    if top <= 2:
        for _, _, bands in blocks:
            diag = bands.get(0)
            if top >= 1 and psi[1] != 0.0 and diag is not None:
                traces[1] += np.sum(diag)
            if top == 2:
                square = 0j
                for off, band in bands.items():
                    if hermitian:
                        square += (1 + (off > 0)) * np.vdot(band, band).real
                    elif off >= 0 and -off in bands:
                        square += (1 + (off > 0)) * np.dot(band, bands[-off])
                traces[2] += square
    else:
        h = (top + 1) // 2
        # the rows [done - h b, t1) of the window, done >= t0 - (h - 1) b,
        # for blocks of at most BLOCK + b + 1 rows (_block_bounds)
        W = np.empty((2 * b + 1, min(n, BLOCK + 2 * h * b + 1)), dtype=complex)
        w0 = done = 0  # W[:, : t0 - w0] holds the band rows [w0, t0)
        for t0, t1, bands in blocks:
            keep = max(0, done - h * b)  # the rows that the next blocks read
            W[:, : t0 - keep] = W[:, keep - w0 : t0 - w0]
            w0 = keep
            new = W[:, t0 - w0 : t1 - w0]
            new[:] = 0.0
            for off, band in bands.items():
                new[b + off, : band.size] = band
            c1 = n if t1 == n else t1 - (h - 1) * b
            if c1 > done:
                window = _window_traces(W[:, : t1 - w0], w0, done, c1, n, b, hermitian, psi)
                traces = [t + w for t, w in zip(traces, window)]
                done = c1
    total = 0j
    for a, trace in zip(psi, traces):
        if a != 0.0:
            total += a * trace
    return total.real if hermitian else complex(total)


def banded_trace(B: BandedOperator, psi) -> float | complex:
    """sum_j a_j Tr B^j from the bands of B: exact, with no eigensolve.

    Over the spectrum this is sum_j a_j sum_i lambda_i^j = Tr psi(B), with
    no window on the spectrum: for PSD A with Tr A <= 1 the spectrum of
    T(A) lies in [0, 1] anyway, as T(A) >= 0 and ||T(A)|| <= ||A||
    (P_k P_k* = I).
    A diagonal B is summed over its diagonal; otherwise the bands go a block of BLOCK rows
    at a time through the routine that :func:`_channel_trace` runs on
    (:func:`_blocks_trace`).  Hermitian B gives a float, otherwise a complex.
    """
    psi = _check_psi(psi)
    if B.is_diagonal:
        diag = B.bands.get(0, np.zeros(B.degree + 1, dtype=complex))
        return power_sum(psi, diag.real if B.hermitian else diag)
    n = B.degree + 1
    blocks = ((t0, t1, {off: band[t0:t1] for off, band in B.bands.items()})
              for t0, t1 in _block_bounds(n, B.bandwidth))
    return _blocks_trace(blocks, n, B.bandwidth, B.hermitian, psi)


def sqrt_series_coefficients(count: int) -> np.ndarray:
    """Coefficients (1/2)_{i-1} / (2 i!), i = 1..count, of the
    boundary-flattened sqrt series: 1/2, then ratios (i-1/2)/(i+1).

    These are the positive weights with x = sum_i coeff_i (1 - (1-x^2)^i) on
    [0, 1]; they sum to 1 and decay like i^{-3/2}.
    """
    return pochhammer_ratios(count, (0.5,), (2.0,), 0.5)
