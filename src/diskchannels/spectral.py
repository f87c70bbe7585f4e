"""Eigenfunction-side verification tools.

Boundary eigenfunctions e_{lambda,b}, quadrature residuals of the Berezin
eigen-relation, and the chained-kernel integrals: their Monte Carlo estimate
and the chain-2 tensor quadrature.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import partial

import numpy as np

from .disk import gauss_jacobi
from .specfun import (
    BLOCK,
    _frees_thread_buffers,
    _thread_buffers,
    berezin_eigenvalue,
    validate_weight,
)

__all__ = [
    "eigenfunction",
    "eigen_relation_residual",
    "chained_kernel_integral",
    "chain2_tensor_quadrature",
]


def _validate_boundary(b: complex) -> complex:
    b = complex(b)
    if abs(abs(b) - 1.0) > 1e-14:
        raise ValueError(f"|b| = {abs(b)} is not 1 within 1e-14")
    return b


def _poisson_base(z, b: complex, out=None, scratch=None):
    """(1-|z|^2)/|z-b|^2, the real positive base of e_{lambda,b}(z).

    ``out``, a real array of the result's shape, takes 1 - |z|^2 and then
    the result; ``scratch``, a real and a complex array of that shape, takes
    |z - b|^2 and z - b.  Either may be None, which allocates; the buffers
    change no bit of the result.
    """
    far, gap = (None, None) if scratch is None else scratch
    top = np.subtract(1.0, np.square(np.abs(z, out=out), out=out), out=out)
    bottom = np.square(np.abs(np.subtract(z, b, out=gap), out=far), out=far)
    return np.divide(top, bottom, out=out)


def eigenfunction(lam, b: complex, z):
    """e_{lambda,b}(z) = ((1-|z|^2)/|z-b|^2)^{(-i lambda + 1)/2}.

    The base is a positive real, so the principal power has modulus
    base^{1/2} and phase -(lambda/2) log(base); complex lambda is accepted.
    """
    b = _validate_boundary(b)
    z = np.asarray(z, dtype=complex)
    out = np.exp(0.5 * (1.0 - 1j * lam) * np.log(_poisson_base(z, b)))
    return complex(out) if out.ndim == 0 else out


def _graded_angles(count: int, cluster: float, power: int = 6):
    """Graded periodic angular rule clustering at angle ``cluster`` (Kress-type).

    Needed because boundary-point integrands (e_{lambda,b} near b) defeat
    uniform angular rules; same node count, weights sum to 1.  Node density
    peaks at both endpoints of the map, which are the same angle mod 2 pi.
    """
    s = (np.arange(count) + 0.5) / count
    sp = s**power
    sq = (1.0 - s) ** power
    v = sp / (sp + sq)
    dv = power * s ** (power - 1) * (1.0 - s) ** (power - 1) / (sp + sq) ** 2
    theta = 2.0 * np.pi * v + cluster
    return theta, dv / count


@_frees_thread_buffers
def eigen_relation_residual(
    nu: float,
    lam: float | Sequence[float],
    samples,
    radial_count: int = 400,
    angular_count: int = 512,
    boundary: complex = 1.0 + 0j,
) -> float:
    """max_{z, lambda} |(nu-1) B_nu(e_{lambda,b})(z)/e_{lambda,b}(z) - b_nu(lambda)|.

    ``lam`` is one spectral parameter or a sequence of them (the residual is
    the worst over all).  The transform is evaluated by honest
    quadrature, recentred at each sample z0: the kernel and d iota are
    invariant, so with phi(w) = (w + z0)/(1 + conj(z0) w),
    B_nu f(z0) = int_0^1 (1-u)^{nu-2} mean_theta f(phi(sqrt(u) e^{i theta})) du.
    That is Gauss-Jacobi in u (alpha = nu - 2) on ``radial_count`` nodes
    times the graded angular rule on ``angular_count`` nodes, clustered at
    arg phi^{-1}(b).  The base P = (1-|phi(w)|^2)/|phi(w) - b|^2 of
    e_{lambda,b}(phi(w)) = P^{1/2} e^{-i (lambda/2) log P} is real and
    positive, so log P and P^{1/2} are formed once per grid point, and each
    lambda integrates P^{1/2} cos and P^{1/2} sin of its phase in real
    arithmetic (lambda = 0 needs neither); the reference eigenvalue comes
    from :func:`berezin_eigenvalue`.  The grid is evaluated a block of whole
    angular columns at a time, as many as fill 2^13 points (at least 4), in
    the calling thread's buffers, which every block reuses and which are
    freed when this returns: each block adds its columns' radial sums to one
    row per lambda and part, and the row's angular sum follows.  The column
    count is a multiple of 4, so a block's radial sums round as the whole
    grid's do.  A sample off the open disk raises ValueError, and a
    non-finite residual FloatingPointError.
    """
    nu = validate_weight(nu)
    _require_counts(radial_count=radial_count, angular_count=angular_count)
    b = _validate_boundary(boundary)
    lams = [lam] if np.ndim(lam) == 0 else list(lam)
    if not lams:
        raise ValueError("lam must hold at least one spectral parameter")
    lam_values = np.asarray(lams)
    points = np.asarray(samples, dtype=complex).ravel()
    for z0 in points:
        if not abs(z0) < 1.0:  # phi is undefined there
            raise ValueError(f"sample z0 = {z0} is not in the open unit disk")
    u, _, log_weight = gauss_jacobi(radial_count, nu - 2.0)
    radial = (nu - 1.0) * np.exp(log_weight)
    radius = np.sqrt(u)[:, None]
    targets = [berezin_eigenvalue(nu, lam_j) for lam_j in lams]
    columns = min(angular_count, max(4, BLOCK // radial_count // 4 * 4))
    # rows[j] holds the radial sums of lambda j's cos and sin parts
    rows = np.empty((len(lams), 2, angular_count))
    space = _thread_buffers()
    residual = 0.0
    for z0 in points:
        theta, angular = _graded_angles(
            angular_count, float(np.angle((b - z0) / (1.0 - np.conj(z0) * b))))
        circle = np.exp(1j * theta)
        for c0 in range(0, angular_count, columns):
            c1 = min(c0 + columns, angular_count)
            grid = partial(space.get, shape=(radial_count, c1 - c0))
            w = np.multiply(radius, circle[c0:c1], out=grid("image", dtype=complex))
            top = np.add(w, z0, out=grid("gap", dtype=complex))
            # phi(w) = (w + z0)/(1 + conj(z0) w), into w's buffer
            w = np.add(1.0, np.multiply(np.conj(z0), w, out=w), out=w)
            phi = np.divide(top, w, out=w)
            poisson = _poisson_base(phi, b, out=grid("base"),
                                    scratch=(grid("log_base"), grid("gap", dtype=complex)))
            logs = np.log(poisson, out=grid("log_base"))
            roots = np.sqrt(poisson, out=grid("root"))
            for j, lam_j in enumerate(lams):
                if lam_j == 0.0:
                    np.matmul(radial, roots, out=rows[j, 0, c0:c1])
                    continue
                angle = np.multiply(-0.5 * lam_j, logs, out=grid("phase"))
                for k, fn in enumerate((np.cos, np.sin)):
                    part = grid("part")
                    values = np.multiply(roots, fn(angle, out=part), out=part)
                    np.matmul(radial, values, out=rows[j, k, c0:c1])
        at_z0 = eigenfunction(lam_values, b, z0)
        for lam_j, row, e0, target in zip(lams, rows, at_z0, targets):
            integral = complex(row[0] @ angular, 0.0 if lam_j == 0.0 else row[1] @ angular)
            gap_j = abs(integral / e0 - target)
            if not math.isfinite(gap_j):
                raise FloatingPointError(
                    f"eigen-relation residual is not finite at nu = {nu:g}, "
                    f"z0 = {z0}"
                )
            residual = max(residual, gap_j)
    return residual


def _link_modulus_sq(x, y, chord_sq, out=None, scratch=None):
    """|1 - z conj(w)|^2 for 1 - |z|^2 = x, 1 - |w|^2 = y and the squared
    chord chord_sq = |e^{i arg z} - e^{i arg w}|^2 = 4 sin^2((arg z - arg w)/2).

    Real form (1 - |z||w|)^2 + |z||w| chord_sq: both terms are >= 0, so
    nothing cancels near the boundary singularity, as 1 - z conj(w) does in
    complex arithmetic.  With |z||w| = sqrt((1 - x)(1 - y)), the gap
    1 - |z||w| is formed as (1 - |z|^2 |w|^2)/(1 + |z||w|) =
    (x + y (1 - x))/(1 + |z||w|), which subtracts no nearly equal numbers.
    With x, y broadcasting to (P, 1) and chord_sq of shape (M,), only the
    angular term and the last sum run on (P, M).  ``out``, of the result's
    shape, takes the angular term and then the result; ``scratch``, a pair
    of arrays of the shape of x and y broadcast together, takes 1 - x, then
    the gap, and |z||w|, then 1 + |z||w|.  Either may be None, which
    allocates; the buffers change no bit of the result.
    """
    s, t = (None, None) if scratch is None else scratch
    rest = np.subtract(1.0, x, out=s)
    rs = np.multiply(np.subtract(1.0, y, out=t), rest, out=t)
    rs = np.sqrt(rs, out=t)
    term = np.multiply(chord_sq, rs, out=out)
    gap = np.multiply(y, rest, out=s)
    gap += x
    gap /= np.add(rs, 1.0, out=t)
    gap *= gap
    term += gap
    return term


def _require_counts(**counts: int) -> None:
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")


# draws per chunk of a sampler's stream; a pass runs on blocks of BLOCK
_CHUNK = 1 << 16


class _ChainGenerators:
    """The 2n generators of one thread's chunks of chains of n points: each
    draws one row of a chunk's uniforms from its own offset in the stream;
    ``origin`` holds the seed whose initial state they are positioned from,
    and that state."""

    def __init__(self, n: int):
        self.generators = [np.random.Generator(np.random.PCG64(0)) for _ in range(2 * n)]
        self.origin = (None, None)

    def position(self, seed: int, offsets) -> None:
        """Stand generator j at draw offsets[j] of the stream of ``seed``."""
        if self.origin[0] != seed:
            self.origin = (seed, np.random.PCG64(seed).state)
        for rng, offset in zip(self.generators, offsets):
            rng.bit_generator.state = self.origin[1]
            rng.bit_generator.advance(offset)


def _chain_chunk_sums(
    n: int, nus: Sequence[float], sampler_seed: int, sample_count: int, chunk: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_chain_sums` over chunk ``chunk`` of the draws.

    The stream of ``sampler_seed`` is cut into chunks of 2^16 samples (the
    last one holds the rest of ``sample_count``); a chunk of m samples reads
    n rows of m uniforms for the radii, then n rows for the angles.  Each
    double takes one 64-bit output of PCG64, so row j of the chunk starts
    2 n 2^16 chunk + j m outputs into the stream.  The thread's buffers
    hold one generator per row, positioned there from the seed's initial
    state, and each block of 2^13 samples reads the next draws of every
    row: the pass reads exactly the draws a sequential pass gives it.
    """
    m = min(_CHUNK, sample_count - chunk * _CHUNK)
    rngs = _thread_buffers().keep(("chain generators", n), partial(_ChainGenerators, n))
    start = 2 * n * _CHUNK * chunk
    rngs.position(sampler_seed, range(start, start + 2 * n * m, m))

    def draw(lo, radial, angular):
        for rng, row in zip(rngs.generators, (*radial, *angular)):
            rng.random(out=row)

    return _chain_sums(nus, n, m, draw)


def _chain_sums(
    nus: Sequence[float], n: int, m: int, fill,
) -> tuple[np.ndarray, np.ndarray]:
    """(sum of w, sum of w^2) per weight over m chains of n points, in
    blocks of 2^13.

    ``fill(lo, radial, angular)`` writes the uniforms of chains [lo, lo +
    width) into the two (n, width) arrays it is handed.  A uniform U gives
    1 - |z|^2 = (1 - U)^{1/(nu-1)} = exp(log(1 - U)/(nu - 1)) and the angle
    2 pi U.  Per block, log(1 - U) and the squared chords (2 sin(pi (U_i -
    U_{i+1})))^2 are formed once in place, and every weight is then
    evaluated together on (weights x width) arrays.  Every array of a block
    is a buffer of the thread's (:func:`specfun._thread_buffers`), so a warm
    pass allocates no array larger than one per weight.  A non-finite sum
    raises FloatingPointError naming its nu.
    """
    space = _thread_buffers()
    weights = np.asarray(nus)[:, None]
    inv = 1.0 / (weights - 1.0)
    sums = np.zeros(len(nus))
    sums_sq = np.zeros(len(nus))
    # reported below, with its nu
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, m, BLOCK):
            width = min(BLOCK, m - lo)
            block = (len(nus), width)
            radial = space.get("radial", (n, width))
            angular = space.get("angular", (n, width))
            fill(lo, radial, angular)
            log_tail = np.log(np.subtract(1.0, radial, out=radial), out=radial)
            for i in range(n - 1):
                np.subtract(angular[i], angular[i + 1], out=angular[i])
            chord = angular[:-1]
            chord *= np.pi
            np.sin(chord, out=chord)
            chord *= 2.0
            chord *= chord
            scratch = (space.get("link rest", block), space.get("link root", block))
            x = np.multiply(log_tail[:, None], inv, out=space.get("x", (n, *block)))
            np.exp(x, out=x)  # (n, weights, width)
            w = _link_modulus_sq(x[0], x[1], chord[0], out=space.get("w", block),
                                 scratch=scratch)
            np.log(w, out=w)
            for i in range(1, n - 1):
                link = _link_modulus_sq(x[i], x[i + 1], chord[i],
                                        out=space.get("link", block), scratch=scratch)
                w += np.log(link, out=link)
            w *= -0.5 * weights
            np.exp(w, out=w)
            sums += w.sum(axis=1)
            sums_sq += np.square(w, out=w).sum(axis=1)
    bad = ~np.isfinite(sums)
    if bad.any():
        raise FloatingPointError(
            f"non-finite chain weight at nu = {nus[int(np.argmax(bad))]:g}")
    return sums, sums_sq


@_frees_thread_buffers
def chained_kernel_integral(
    n: int, nu: float | Sequence[float], sampler_seed: int, sample_count: int,
    map=map,
) -> tuple[float, float] | list[tuple[float, float]]:
    """Monte Carlo estimate of the chained-kernel integral I_n(nu).

    I_n(nu) = (nu-1)^n int |prod_i (1-|z_i|^2)^nu / prod_{i<n} (1-z_i conj(z_{i+1}))^nu|
    over d iota^n.  Each z_i is drawn from the weight-nu probability measure
    (radial u ~ Beta(1, nu-1), uniform angle), which absorbs every numerator
    factor; the weight is then prod |1 - z_i conj(z_{i+1})|^{-nu}, each link
    evaluated in real arithmetic from 1 - |z_i|^2 and the angle difference
    by :func:`_link_modulus_sq`.  Returns (estimate, 95% CLT half-width);
    n = 1 is the exact deterministic value 1.  The weight distribution is
    heavy-tailed (tail index 2 - 1/nu), so the half-width is asymptotic, not
    a hard guarantee.

    ``nu`` may be a sequence of weights, which returns a list of pairs.  Every
    weight transforms the same uniform draws of ``sampler_seed`` (common
    random numbers), so an estimate does not depend on the other weights of
    the call, and the errors of estimates at different weights are correlated.
    The draws form one stream, cut into chunks of 2^16 samples that
    :func:`_chain_chunk_sums` evaluates independently; ``map`` (the builtin,
    or an executor's ``map``) runs them, and their sums are added in chunk
    order, so the result does not depend on who ran which chunk.  Each
    thread that runs chunks keeps its block buffers and one generator per
    row of a chunk's draws from chunk to chunk, so a warm chunk allocates no
    draw-sized array; a pool's are freed when its threads end, and the
    calling thread's when this call returns.  A non-finite chain weight
    raises FloatingPointError naming its nu.
    """
    scalar = np.ndim(nu) == 0
    nus = [validate_weight(v) for v in ([nu] if scalar else nu)]
    if not nus:
        raise ValueError("nu must hold at least one weight")
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_counts(sample_count=sample_count)
    if n == 1:
        exact = [(1.0, 0.0)] * len(nus)
        return exact[0] if scalar else exact
    chunk_sums = map(partial(_chain_chunk_sums, n, nus, sampler_seed, sample_count),
                     range(-(-sample_count // _CHUNK)))
    totals = np.zeros(len(nus))
    totals_sq = np.zeros(len(nus))
    for sums, sums_sq in chunk_sums:
        totals += sums
        totals_sq += sums_sq
    out = []
    for total, total_sq in zip(totals.tolist(), totals_sq.tolist()):
        mean = total / sample_count
        var = max(0.0, total_sq / sample_count - mean * mean)
        out.append((mean, 1.96 * math.sqrt(var / sample_count)))
    return out[0] if scalar else out


def chain2_tensor_quadrature(
    nu: float, radial_count: int = 32, angular_count: int = 512
) -> float:
    """I_2(nu) by a tensor rule: two radial directions, one relative angle.

    Cross-checks the Monte Carlo route and never uses the closed form:
    I_2(nu) = (nu-1)^2 int int (1-u)^{nu-2} (1-v)^{nu-2} A(u, v) du dv, where
    A is the relative-angle mean of |1 - r e^{i phi}|^{-nu}, r = sqrt(u v).
    Both radial integrals run on the Gauss-Jacobi rule of (1-u)^{nu-2} with
    ``radial_count`` nodes, and A on ``angular_count`` midpoint angles, with
    the kernel from 1 - u by :func:`_link_modulus_sq`.  The midpoint angles
    phi_k and phi_{N-1-k} give the same kernel, so each such pair is summed
    once with weight 2; an odd count keeps its middle angle once.  The
    kernel is evaluated on blocks of whole radial rows, each at most
    2^16 floats (a single row when one row alone is larger), in one buffer
    reused by every block; each row's angular mean is its own matvec, so
    the value does not depend on the block size.  A non-finite value (the
    kernel overflows near the boundary, where a Jacobi weight underflows)
    raises FloatingPointError naming its nu.
    """
    nu = validate_weight(nu)
    _require_counts(radial_count=radial_count, angular_count=angular_count)
    chord = 2.0 * np.sin(np.pi * (np.arange((angular_count + 1) // 2) + 0.5) / angular_count)
    chord_sq = chord * chord
    angular_weight = np.full(chord.size, 2.0 / angular_count)
    if angular_count % 2:
        angular_weight[-1] = 1.0 / angular_count
    # whole rows of the kernel per block, at most the 8 x 2^13 floats of an
    # eight-weight Monte Carlo block (one row when a row alone is larger)
    rows = max(1, min(radial_count, 8 * BLOCK // (radial_count * chord.size)))
    block = np.empty((rows, radial_count, chord.size))
    scratch = (np.empty((rows, radial_count, 1)), np.empty((rows, radial_count, 1)))
    _, rest, log_weight = gauss_jacobi(radial_count, nu - 2.0)
    radial = (nu - 1.0) * np.exp(log_weight)
    angular = np.empty((radial_count, radial_count))
    # an overflowing kernel gives inf, or NaN against an underflowed
    # weight; either is reported below, with its nu
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, radial_count, rows):
            hi = min(lo + rows, radial_count)
            kernel = _link_modulus_sq(
                rest[lo:hi, None, None], rest[None, :, None], chord_sq,
                out=block[:hi - lo], scratch=[s[:hi - lo] for s in scratch])
            np.log(kernel, out=kernel)
            kernel *= -0.5 * nu
            np.exp(kernel, out=kernel)
            # one matvec per row: a single (rows n x M) matvec can
            # round differently
            for i in range(lo, hi):
                angular[i] = kernel[i - lo] @ angular_weight
        value = float(radial @ angular @ radial)
    if not math.isfinite(value):
        raise FloatingPointError(
            f"chain-2 quadrature is not finite at nu = {nu:g}: "
            "the kernel overflows on this grid"
        )
    return value
