"""Eigenfunction-side verification tools.

Boundary eigenfunctions e_{lambda,b}, spherical functions, quadrature
residuals of the Berezin eigen-relation, the inverse-transform spectral
multipliers, and Monte Carlo estimation of the chained-kernel integrals.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy.special import gammaln, roots_legendre

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


def eigenfunction(lam, b: complex, z):
    """e_{lambda,b}(z) = ((1-|z|^2)/|z-b|^2)^{(-i lambda + 1)/2}.

    The base is a positive real, so the principal power has modulus
    base^{1/2} and phase -(lambda/2) log(base); complex lambda is accepted.
    """
    b = _validate_boundary(b)
    z = np.asarray(z, dtype=complex)
    base = (1.0 - np.abs(z) ** 2) / np.abs(z - b) ** 2
    out = np.exp(0.5 * (1.0 - 1j * lam) * np.log(base))
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
        base = (1.0 - np.abs(z[..., None]) ** 2) / np.abs(z[..., None] - b) ** 2
        e = np.exp(0.5 * (1.0 - 1j * lam) * np.log(base))
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


def eigen_relation_residual(
    nu: float,
    lam: float | Sequence[float],
    samples,
    radial_count: int = 400,
    angular_count: int = 512,
    boundary: complex = 1.0 + 0j,
) -> float:
    """max_{z, lambda} |(nu-1) B_nu(e_{lambda,b})(z)/e_{lambda,b}(z) - b_nu(lambda)|.

    ``lam`` is one spectral parameter or a sequence of them; the kernel
    weights at each sample point are formed once and reused for every lambda.
    The transform is evaluated by honest quadrature (radial Gauss-Legendre
    against the kernel-folded measure, graded angular rule centered at
    arg(b)); the reference eigenvalue comes from the closed-form product.
    """
    nu = validate_weight(nu)
    _require_counts(radial_count=radial_count, angular_count=angular_count)
    b = _validate_boundary(boundary)
    lams = [lam] if np.ndim(lam) == 0 else list(lam)
    if not lams:
        raise ValueError("lam must hold at least one spectral parameter")
    x, wq = roots_legendre(radial_count)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wq
    theta, tw = _graded_angles(angular_count, float(np.angle(b)))
    z = (np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    # (1-u)^{nu-2}: kernel decay folded against the d iota singularity
    weights = ((wu * (1.0 - u) ** (nu - 2.0))[:, None] * tw[None, :]).ravel()
    evals = [eigenfunction(lam_j, b, z) for lam_j in lams]
    targets = [berezin_eigenvalue(nu, lam_j) for lam_j in lams]
    worst = 0.0
    for z0 in np.asarray(samples, dtype=complex).ravel():
        log_ker = nu * (
            np.log1p(-abs(z0) ** 2) - 2.0 * np.log(np.abs(1.0 - z0 * np.conj(z)))
        )
        kw = weights * np.exp(log_ker)
        for lam_j, ev, target in zip(lams, evals, targets):
            transform = np.sum(kw * ev)
            ratio = (nu - 1.0) * transform / eigenfunction(lam_j, b, z0)
            worst = max(worst, abs(ratio - target))
    return worst


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
        - gammaln(nu0)
        - gammaln(nu0 - 1)
        + gammaln(nu)
        + gammaln(nu - 1)
        + math.log(math.pi)
        - 2.0 * gammaln(nu - 0.5)
    )


def _link_modulus_sq(r, s, dtheta):
    """|1 - z conj(w)|^2 for |z| = r, |w| = s, arg z - arg w = dtheta.

    Real form (1 - r s)^2 + 4 r s sin^2(dtheta/2): both terms are >= 0, so
    nothing cancels near the boundary singularity, as 1 - z conj(w) does in
    complex arithmetic.  1 - r s is formed as (1 - r) + r (1 - s), because the
    product r s rounds before the subtraction.  With r, s of shape (P, 1) and
    dtheta of shape (M,), only the last product and sum run on (P, M).
    """
    gap = (1.0 - r) + r * (1.0 - s)
    half = np.sin(0.5 * dtheta)
    return gap * gap + (4.0 * r * s) * (half * half)


def _require_counts(**counts: int) -> None:
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")


def chained_kernel_integral(
    n: int, nu: float, sampler_seed: int, sample_count: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the chained-kernel integral I_n(nu).

    I_n(nu) = (nu-1)^n int |prod_i (1-|z_i|^2)^nu / prod_{i<n} (1-z_i conj(z_{i+1}))^nu|
    over d iota^n.  Each z_i is drawn from the weight-nu probability measure
    (radial u ~ Beta(1, nu-1), uniform angle), which absorbs every numerator
    factor; the weight is then prod |1 - z_i conj(z_{i+1})|^{-nu}, each link
    evaluated in real arithmetic from the radii and the angle difference as
    (1 - r_i r_{i+1})^2 + 4 r_i r_{i+1} sin^2((theta_i - theta_{i+1})/2).
    Returns (estimate, 95% CLT half-width); n = 1 is the exact deterministic
    value 1.  The weight distribution is heavy-tailed (tail index 2 - 1/nu),
    so the half-width is asymptotic, not a hard guarantee.
    """
    nu = validate_weight(nu)
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_counts(sample_count=sample_count)
    if n == 1:
        return 1.0, 0.0
    rng = np.random.default_rng(sampler_seed)
    total = 0.0
    total_sq = 0.0
    chunk = 1 << 16
    done = 0
    while done < sample_count:
        m = min(chunk, sample_count - done)
        u = 1.0 - (1.0 - rng.random((n, m))) ** (1.0 / (nu - 1.0))  # Beta(1, nu-1)
        theta = 2.0 * np.pi * rng.random((n, m))
        r = np.sqrt(u)
        log_w = np.zeros(m)
        for i in range(n - 1):
            log_w -= 0.5 * nu * np.log(
                _link_modulus_sq(r[i], r[i + 1], theta[i] - theta[i + 1])
            )
        w = np.exp(log_w)
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("non-finite chain weight encountered")
        total += float(np.sum(w))
        total_sq += float(np.sum(w * w))
        done += m
    mean = total / sample_count
    var = max(0.0, total_sq / sample_count - mean * mean)
    half = 1.96 * math.sqrt(var / sample_count)
    return mean, half


def chain2_tensor_quadrature(
    nu: float, radial_count: int = 200, angular_count: int = 512
) -> float:
    """I_2(nu) by a tensor rule: two radial directions, one relative angle.

    Cross-checks the Monte Carlo route and never uses the closed form.  The
    relative-angle mean of |1 - r e^{i phi}|^{-nu}, r = sqrt(u_i u_j), is taken
    on ``angular_count`` midpoint angles, with the kernel in the real form
    (1 - r)^2 + 4 r sin^2(phi/2); the two radial integrals carry the Beta
    weights exactly on ``radial_count`` Gauss-Legendre nodes.  Two symmetries
    are folded: the mean is symmetric in (i, j), so it is evaluated on the
    upper triangle and mirrored, and phi_{N-1-k} = 2 pi - phi_k gives the same
    kernel value, so each angle pair is summed once with weight 2 (for odd N
    the self-paired angle pi once).
    """
    nu = validate_weight(nu)
    _require_counts(radial_count=radial_count, angular_count=angular_count)
    x, wq = roots_legendre(radial_count)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wq * (1.0 - u) ** (nu - 2.0)
    radius = np.sqrt(u)
    # angles 0 .. N//2 - 1 stand for their mirror images too; odd N adds pi
    kept = (angular_count + 1) // 2
    phi = 2.0 * np.pi * (np.arange(kept) + 0.5) / angular_count
    fold = np.full(kept, 2.0)
    if angular_count % 2:
        fold[-1] = 1.0
    row, col = np.triu_indices(radial_count)
    upper = np.empty(row.size)
    step = max(1, (1 << 20) // kept)  # (i, j) pairs per chunk: ~8 MB transients
    for p0 in range(0, row.size, step):
        i, j = row[p0 : p0 + step, None], col[p0 : p0 + step, None]
        log_ker = -0.5 * nu * np.log(_link_modulus_sq(radius[i], radius[j], phi))
        upper[p0 : p0 + step] = np.exp(log_ker) @ fold
    angular = np.empty((radial_count, radial_count))
    angular[row, col] = upper
    angular[col, row] = upper
    angular /= angular_count
    return float((nu - 1.0) ** 2 * wu @ angular @ wu)
