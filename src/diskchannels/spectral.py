"""Eigenfunction-side verification tools.

Boundary eigenfunctions e_{lambda,b}, spherical functions, quadrature
residuals of the Berezin eigen-relation, the inverse-transform spectral
multipliers, and Monte Carlo estimation of the chained-kernel integrals.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from functools import partial

import numpy as np

from .disk import gauss_jacobi
from .specfun import (
    berezin_eigenvalue,
    log_berezin_eigenvalue,
    validate_weight,
)

__all__ = [
    "eigenfunction",
    "spherical_function",
    "eigen_relation_residual",
    "inverse_multiplier",
    "inverse_multiplier_bound",
    "chained_kernel_integral",
    "chain2_tensor_quadrature",
]


def _validate_boundary(b: complex) -> complex:
    b = complex(b)
    if abs(abs(b) - 1.0) > 1e-14:
        raise ValueError(f"|b| = {abs(b)} is not 1 within 1e-14")
    return b


def _poisson_base(z, b: complex):
    """(1-|z|^2)/|z-b|^2, the real positive base of e_{lambda,b}(z)."""
    return (1.0 - np.abs(z) ** 2) / np.abs(z - b) ** 2


def eigenfunction(lam, b: complex, z):
    """e_{lambda,b}(z) = ((1-|z|^2)/|z-b|^2)^{(-i lambda + 1)/2}.

    The base is a positive real, so the principal power has modulus
    base^{1/2} and phase -(lambda/2) log(base); complex lambda is accepted.
    """
    b = _validate_boundary(b)
    z = np.asarray(z, dtype=complex)
    out = np.exp(0.5 * (1.0 - 1j * lam) * np.log(_poisson_base(z, b)))
    return complex(out) if out.ndim == 0 else out


def spherical_function(
    n: int, lam: float, z, tol: float = 1e-10, max_nodes: int = 1 << 16
):
    """phi_{n,lambda}(z) = int_{S^1} e_{lambda,b}(z) b^n db (db normalized).

    The angular rule doubles until the result moves by less than ``tol``.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 0.99):
        raise ValueError("|z| <= 0.99 required")
    count = 64
    prev = None
    while count <= max_nodes:
        theta = 2.0 * np.pi * (np.arange(count) + 0.5) / count
        b = np.exp(1j * theta)
        e = np.exp(0.5 * (1.0 - 1j * lam) * np.log(_poisson_base(z[..., None], b)))
        cur = np.mean(e * b**n, axis=-1)
        if prev is not None and np.all(np.abs(cur - prev) < tol):
            return complex(cur) if cur.ndim == 0 else cur
        prev = cur
        count *= 2
    raise RuntimeError("angular rule failed to settle; increase max_nodes")


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


def _weight_batch(nu) -> tuple[list[float], bool]:
    """(validated weights, whether ``nu`` is one scalar): a scalar is a batch of one."""
    scalar = np.ndim(nu) == 0
    nus = [validate_weight(v) for v in ([nu] if scalar else nu)]
    if not nus:
        raise ValueError("nu must hold at least one weight")
    return nus, scalar


def eigen_relation_residual(
    nu: float | Sequence[float],
    lam: float | Sequence[float],
    samples,
    radial_count: int = 400,
    angular_count: int = 512,
    boundary: complex = 1.0 + 0j,
) -> float | list[float]:
    """max_{z, lambda} |(nu-1) B_nu(e_{lambda,b})(z)/e_{lambda,b}(z) - b_nu(lambda)|.

    ``nu`` is one weight or a sequence of them (one residual each, returned as
    a list), and ``lam`` one spectral parameter or a sequence of them (the
    residual is the worst over all).  The transform is evaluated by honest
    quadrature, recentred at each sample z0: the kernel and d iota are
    invariant, so with phi(w) = (w + z0)/(1 + conj(z0) w),
    B_nu f(z0) = int_0^1 (1-u)^{nu-2} mean_theta f(phi(sqrt(u) e^{i theta})) du.
    That is Gauss-Jacobi in u (alpha = nu - 2) on ``radial_count`` nodes
    times the graded angular rule on ``angular_count`` nodes, clustered at
    arg phi^{-1}(b).  The base P = (1-|phi(w)|^2)/|phi(w) - b|^2 of
    e_{lambda,b}(phi(w)) = P^{1/2} e^{-i (lambda/2) log P} is real and
    positive, so log P and P^{1/2} are formed once per grid, and each lambda
    integrates P^{1/2} cos and P^{1/2} sin of its phase in real arithmetic
    (lambda = 0 needs neither); the reference eigenvalue comes from
    :func:`berezin_eigenvalue`.  A sample off the open disk raises
    ValueError, and a non-finite residual FloatingPointError.
    """
    nus, scalar = _weight_batch(nu)
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
    worst = []
    for nu_k in nus:
        u, _, log_weight = gauss_jacobi(radial_count, nu_k - 2.0)
        radial = (nu_k - 1.0) * np.exp(log_weight)
        radius = np.sqrt(u)[:, None]
        targets = [berezin_eigenvalue(nu_k, lam_j) for lam_j in lams]
        residual = 0.0
        for z0 in points:
            theta, angular = _graded_angles(
                angular_count, float(np.angle((b - z0) / (1.0 - np.conj(z0) * b))))
            w = radius * np.exp(1j * theta)
            base = _poisson_base((w + z0) / (1.0 + np.conj(z0) * w), b)
            log_base = np.log(base)
            root = np.sqrt(base)
            at_z0 = eigenfunction(lam_values, b, z0)
            for lam_j, e0, target in zip(lams, at_z0, targets):
                if lam_j == 0.0:
                    integral = complex(radial @ root @ angular)
                else:
                    phase = (-0.5 * lam_j) * log_base
                    integral = complex(radial @ (root * np.cos(phase)) @ angular,
                                       radial @ (root * np.sin(phase)) @ angular)
                gap = abs(integral / e0 - target)
                if not math.isfinite(gap):
                    raise FloatingPointError(
                        f"eigen-relation residual is not finite at nu = {nu_k:g}, "
                        f"z0 = {z0}"
                    )
                residual = max(residual, gap)
        worst.append(residual)
    return worst[0] if scalar else worst


def inverse_multiplier(nu: float, nu0: float, lam: float) -> float:
    """b_nu(lambda)^{-1} b_{nu0}(lambda), the spectral multiplier of
    ((nu-1)B_nu)^{-1} (nu0-1) B_{nu0} on the eigenline of lambda."""
    if not nu >= nu0:
        raise ValueError("need nu >= nu0")
    return math.exp(log_berezin_eigenvalue(nu0, lam) - log_berezin_eigenvalue(nu, lam))


def inverse_multiplier_bound(nu: int, nu0: int) -> float:
    """Uniform-in-lambda bound on the inverse multiplier:
    [prod_{j<nu0}(j-1/2)^2 / (Gamma(nu0)Gamma(nu0-1))] *
    [pi Gamma(nu)Gamma(nu-1) / Gamma(nu-1/2)^2].

    Dropping lambda from every tail factor gives
    prod_{j=nu0}^{nu-1} (j-1/2)^{-2} = [prod_{j<nu0}(j-1/2)^2] * pi / Gamma(nu-1/2)^2
    via prod_{j<nu}(j-1/2)^2 = Gamma(nu-1/2)^2/pi; at nu = nu0 the bound is
    exactly 1, and it stays uniformly bounded as nu grows.
    """
    nu, nu0 = int(nu), int(nu0)
    j = np.arange(1, nu0)
    log_num = float(np.sum(2.0 * np.log(j - 0.5)))
    return math.exp(
        log_num
        - math.lgamma(nu0)
        - math.lgamma(nu0 - 1)
        + math.lgamma(nu)
        + math.lgamma(nu - 1)
        + math.log(math.pi)
        - 2.0 * math.lgamma(nu - 0.5)
    )


def _link_modulus_sq(x, y, half_sq, out=None, scratch=None):
    """|1 - z conj(w)|^2 for 1 - |z|^2 = x, 1 - |w|^2 = y and
    half_sq = sin^2((arg z - arg w)/2).

    Real form (1 - |z||w|)^2 + 4 |z||w| sin^2(dtheta/2): both terms are >= 0,
    so nothing cancels near the boundary singularity, as 1 - z conj(w) does in
    complex arithmetic.  With |z||w| = sqrt((1 - x)(1 - y)), the gap
    1 - |z||w| is formed as (1 - |z|^2 |w|^2)/(1 + |z||w|) =
    (x + y (1 - x))/(1 + |z||w|), which subtracts no nearly equal numbers.
    With x, y broadcasting to (P, 1) and half_sq of shape (M,), only the
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
    term = np.multiply(half_sq, 4.0, out=out)
    term = np.multiply(term, rs, out=out)
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


# draws per chunk of a sampler's stream, and per block of the all-weights pass
_CHUNK = 1 << 16
_BLOCK = 1 << 13


class _ChainWorkspace:
    """The buffers of one thread's chunks of chains of ``n`` points at
    ``count`` weights.

    ``radial`` and ``angular`` take a chunk's draws, which its pass
    overwrites with log(1 - U) and the sin^2 factors; ``x``, ``w``, ``link``
    and ``scratch`` take a block's 1 - |z|^2, chain weights, links and link
    intermediates.  A draw array or a link is a view of a flat buffer's
    prefix, so it is C-contiguous whatever its width, as a fresh array is.
    """

    def __init__(self, n: int, count: int):
        self.key = (n, count)
        self.radial = np.empty(n * _CHUNK)
        self.angular = np.empty(n * _CHUNK)
        self.x = np.empty((n, count, _BLOCK))
        self.w = np.empty((count, _BLOCK))
        self.link = np.empty(count * _BLOCK)
        self.scratch = (np.empty((count, _BLOCK)), np.empty((count, _BLOCK)))


# one chain workspace per thread: a pool's are freed when its threads end
_thread_state = threading.local()


def _workspace(n: int, count: int) -> _ChainWorkspace:
    """This thread's workspace for chains of n points at ``count`` weights,
    built on first use and rebuilt when (n, count) changes."""
    space = getattr(_thread_state, "chain", None)
    if space is None or space.key != (n, count):
        space = _thread_state.chain = _ChainWorkspace(n, count)
    return space


def _chain_chunk_sums(
    n: int, nus: Sequence[float], sampler_seed: int, sample_count: int, chunk: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_chain_weight_sums` over chunk ``chunk`` of the draws.

    The stream of ``sampler_seed`` is cut into chunks of 2^16 samples (the
    last one holds the rest of ``sample_count``); a chunk of m samples reads
    n m uniforms for the radii, then n m for the angles.  Each double takes
    one 64-bit output of PCG64, so a fresh generator advanced by
    2 n 2^16 chunk outputs starts at this chunk and reads exactly the draws a
    sequential pass gives it.  The draws and every array of the pass live in
    the calling thread's workspace, sized by (n, number of weights) and
    built on its first chunk: a warm chunk allocates no array larger than
    one per weight.
    """
    m = min(_CHUNK, sample_count - chunk * _CHUNK)
    rng = np.random.default_rng(sampler_seed)
    rng.bit_generator.advance(2 * n * _CHUNK * chunk)
    space = _workspace(n, len(nus))
    radial = rng.random(out=space.radial[:n * m].reshape(n, m))
    angular = rng.random(out=space.angular[:n * m].reshape(n, m))
    return _chain_sums_in_place(nus, radial, angular, space)


def _chain_weight_sums(
    nus: Sequence[float], radial: np.ndarray, angular: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sum of w, sum of w^2) per weight over the chains of n points drawn
    from the uniforms ``radial`` and ``angular``, both of shape (n, m).

    A uniform U gives 1 - |z|^2 = (1 - U)^{1/(nu-1)} = exp(log(1 - U)/(nu - 1))
    and the angle 2 pi U.  log(1 - U) and the sin^2 factors are formed once;
    every weight is then evaluated together on (weights x 2^13) blocks.  A
    non-finite sum raises FloatingPointError naming its nu.  The uniforms
    are copied, never written.
    """
    radial = np.array(radial, dtype=float)
    return _chain_sums_in_place(nus, radial, np.array(angular, dtype=float),
                                _workspace(len(radial), len(nus)))


def _chain_sums_in_place(
    nus: Sequence[float], radial: np.ndarray, angular: np.ndarray,
    space: _ChainWorkspace,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_chain_weight_sums` on C-contiguous uniforms, which it
    overwrites: ``radial`` with log(1 - U), the first n - 1 rows of
    ``angular`` with the sin^2 factors; blocks run in ``space``."""
    n, m = radial.shape
    log_tail = np.log(np.subtract(1.0, radial, out=radial), out=radial)
    for i in range(n - 1):
        np.subtract(angular[i], angular[i + 1], out=angular[i])
    half_sq = angular[:-1]
    half_sq *= np.pi
    np.sin(half_sq, out=half_sq)
    half_sq *= half_sq
    weights = np.asarray(nus)[:, None]
    inv = 1.0 / (weights - 1.0)
    sums = np.zeros(len(nus))
    sums_sq = np.zeros(len(nus))
    # reported below, with its nu
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, m, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            width = min(_BLOCK, m - lo)
            scratch = [buffer[:, :width] for buffer in space.scratch]
            x = np.multiply(log_tail[:, None, block], inv, out=space.x[..., :width])
            np.exp(x, out=x)  # (n, weights, width)
            w = _link_modulus_sq(x[0], x[1], half_sq[0, block],
                                 out=space.w[:, :width], scratch=scratch)
            np.log(w, out=w)
            link = space.link[:w.size].reshape(w.shape)
            for i in range(1, n - 1):
                _link_modulus_sq(x[i], x[i + 1], half_sq[i, block],
                                 out=link, scratch=scratch)
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
    thread that runs chunks keeps one workspace for them, sized by (n,
    number of weights) and filled in place by every chunk, so a warm chunk
    allocates no draw-sized array; a pool's workspaces are freed when its
    threads end, and the calling thread's when this call returns.  A
    non-finite chain weight raises FloatingPointError naming its nu.
    """
    nus, scalar = _weight_batch(nu)
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
    try:
        for sums, sums_sq in chunk_sums:
            totals += sums
            totals_sq += sums_sq
    finally:
        _thread_state.chain = None
    out = []
    for total, total_sq in zip(totals.tolist(), totals_sq.tolist()):
        mean = total / sample_count
        var = max(0.0, total_sq / sample_count - mean * mean)
        out.append((mean, 1.96 * math.sqrt(var / sample_count)))
    return out[0] if scalar else out


def chain2_tensor_quadrature(
    nu: float | Sequence[float], radial_count: int = 32, angular_count: int = 512
) -> float | list[float]:
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
    reused by every block and weight; each row's angular mean is its own
    matvec, so the value does not depend on the block size.

    ``nu`` may be a sequence of weights, which returns a list.  A non-finite
    value (the kernel overflows near the boundary, where a Jacobi weight
    underflows) raises FloatingPointError naming its nu.
    """
    nus, scalar = _weight_batch(nu)
    _require_counts(radial_count=radial_count, angular_count=angular_count)
    half = np.sin(np.pi * (np.arange((angular_count + 1) // 2) + 0.5) / angular_count)
    half_sq = half * half
    angular_weight = np.full(half.size, 2.0 / angular_count)
    if angular_count % 2:
        angular_weight[-1] = 1.0 / angular_count
    # whole rows of the kernel per block, at most the 8 x 2^13 floats of an
    # eight-weight Monte Carlo block (one row when a row alone is larger)
    rows = max(1, min(radial_count, 8 * _BLOCK // (radial_count * half.size)))
    block = np.empty((rows, radial_count, half.size))
    scratch = (np.empty((rows, radial_count, 1)), np.empty((rows, radial_count, 1)))
    values = []
    for nu_k in nus:
        _, rest, log_weight = gauss_jacobi(radial_count, nu_k - 2.0)
        radial = (nu_k - 1.0) * np.exp(log_weight)
        angular = np.empty((radial_count, radial_count))
        # an overflowing kernel gives inf, or NaN against an underflowed
        # weight; either is reported below, with its nu
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, radial_count, rows):
                hi = min(lo + rows, radial_count)
                kernel = _link_modulus_sq(
                    rest[lo:hi, None, None], rest[None, :, None], half_sq,
                    out=block[:hi - lo], scratch=[s[:hi - lo] for s in scratch])
                np.log(kernel, out=kernel)
                kernel *= -0.5 * nu_k
                np.exp(kernel, out=kernel)
                # one matvec per row: a single (rows n x M) matvec can
                # round differently
                for i in range(lo, hi):
                    angular[i] = kernel[i - lo] @ angular_weight
            value = float(radial @ angular @ radial)
        if not math.isfinite(value):
            raise FloatingPointError(
                f"chain-2 quadrature is not finite at nu = {nu_k:g}: "
                "the kernel overflows on this grid"
            )
        values.append(value)
    return values[0] if scalar else values
