"""Hyperbolic-disk geometry and quadrature.

SU(1,1) elements as (a, b) pairs, the Mobius action on the open unit disk,
canonical point transporters, and tensor quadrature rules for the invariant
measure d iota(z) = dz / (pi (1 - |z|^2)^2).

Composition caution: with the action g.z = (az - conj b)/(-bz + conj a) the
point maps compose contravariantly, mobius(g, mobius(h, z)) = mobius(h @ g, z),
while the induced weight-nu function action composes covariantly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupElement",
    "mobius",
    "transporter",
    "transporter_coefficients",
    "DiskQuadrature",
    "build_quadrature",
    "gauss_jacobi",
    "invariant_measure_check",
]

_DET_TOL = 1e-12


@dataclass(frozen=True)
class GroupElement:
    """An SU(1,1) element, the matrix [[a, b], [conj b, conj a]]."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        _check_determinant(self.a, self.b)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1.0, 0.0)

    @classmethod
    def rotation(cls, theta: float) -> "GroupElement":
        return cls(np.exp(1j * theta), 0.0)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * np.conj(other.b),
            self.a * other.b + self.b * np.conj(other.a),
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(np.conj(self.a), -self.b)

    @property
    def base_point(self) -> complex:
        """g . 0 = -conj(b)/conj(a)."""
        return -np.conj(self.b) / np.conj(self.a)


def _check_determinant(a, b):
    """Raise ValueError unless |a|^2 - |b|^2 = 1 for every (a, b) pair."""
    det = np.abs(a) ** 2 - np.abs(b) ** 2
    # scale-aware: near the boundary |a|^2 ~ (1-|g.0|^2)^{-1} amplifies roundoff
    bad = np.abs(det - 1.0) > _DET_TOL * np.maximum(1.0, np.abs(a) ** 2)
    if np.any(bad):
        worst = np.asarray(det)[bad].flat[0]
        raise ValueError(f"|a|^2 - |b|^2 = {worst}, not 1 within {_DET_TOL} relative")


def mobius(g: GroupElement, z):
    """g . z = (a z - conj b) / (-b z + conj a); accepts scalars or arrays."""
    z = np.asarray(z, dtype=complex)
    out = (g.a * z - np.conj(g.b)) / (-g.b * z + np.conj(g.a))
    return complex(out) if out.ndim == 0 else out


def transporter_coefficients(w):
    """(a, b) of the canonical g with g . 0 = w, elementwise over an array w:
    a = (1-|w|^2)^{-1/2} > 0, b = -conj(w) a."""
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(w) >= 1.0):
        raise ValueError("w must lie in the open unit disk")
    a = 1.0 / np.sqrt(1.0 - np.abs(w) ** 2)
    return a, -np.conj(w) * a


def transporter(w: complex) -> GroupElement:
    """The canonical g with g . 0 = w (see :func:`transporter_coefficients`)."""
    return GroupElement(*transporter_coefficients(complex(w)))


@dataclass(frozen=True)
class DiskQuadrature:
    """Nodes and weights for integrals against the invariant measure.

    ``sum(weights * h(nodes))`` approximates the d iota integral of h.  With
    u = |z|^2, it is exact (to roundoff) for h = (1-u)^c p(u) e^{i m theta},
    where p is a polynomial of degree <= exactness_degree = 2 radial_count - 1
    and |m| < angular_count; c = 2 for the Legendre radial rule and
    c = min_decay for the Jacobi one.
    """

    nodes: np.ndarray
    weights: np.ndarray
    radial_count: int
    angular_count: int
    min_decay: float
    exactness_degree: int = 0

    def integrate(self, values) -> complex:
        # ascending-index pairwise summation (numpy's default) for determinism
        return np.sum(self.weights * np.asarray(values))


def _jacobi_coefficients(count: int, alpha: float):
    """Recurrence coefficients of the monic orthogonal polynomials of
    (1-u)^alpha on [0, 1], k < count: (a_k, 1 - a_k, b_{k+1}^2).

    p_{k+1} = (u - a_k) p_k - b_k^2 p_{k-1}.  The diagonal a_k and its
    complement are quotients of positive terms, so neither cancels; the
    shift to [0, 1] of the classical Jacobi coefficients at beta = 0.
    """
    k = np.arange(count, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        two = 2.0 * k + alpha
        den = two * (two + 2.0)
        base = 2.0 * k * (k + alpha + 1.0)
        a = (base + alpha) / den
        c = (base + alpha * (alpha + 1.0)) / den
        a[0], c[0] = 1.0 / (alpha + 2.0), (alpha + 1.0) / (alpha + 2.0)
        j = k + 1.0
        tj = 2.0 * j + alpha
        b2 = (j * ((j + alpha) / tj)) ** 2 / ((tj - 1.0) * (tj + 1.0))
    return a, c, b2


def gauss_jacobi(count: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for int_0^1 (1-u)^alpha g(u) du: (u, 1 - u, log weights).

    ``sum(exp(log_weights) * g(u))`` is exact for polynomials g of degree
    <= 2 count - 1.  Golub-Welsch on [0, 1]: the nodes are the eigenvalues
    of the Jacobi matrix (for alpha = 0, whose weight is symmetric about 1/2,
    those of a half-size matrix, mirrored), each carried as its distance t
    to the nearer end of [0, 1], so that u and 1 - u are both accurate to
    relative rounding.  One pass of the monic three-term recurrence, with
    u - a_k formed from t, gives p_n, p_n', p_{n-1} and p_{n-1}' for a Newton
    step and for the Christoffel sum in its Christoffel-Darboux form,
    w = mu_0 b_1^2 ... b_{n-1}^2 / (p_n' p_{n-1}); both factors are moved to
    the polished node to first order, p_n'' from the Jacobi differential
    equation.  The p_k are rescaled as they go and the weight is formed in
    logs, so no alpha overflows it.  A ValueError is raised where the
    recurrence coefficients, the nodes or the weights are not finite doubles
    (alpha past ~1e154, where the squares (2k + alpha)^2 overflow).
    """
    alpha = float(alpha)
    if count < 1 or not alpha > -1.0:
        raise ValueError(f"need count >= 1 and alpha > -1, got {count}, {alpha}")
    a, c, b2 = _jacobi_coefficients(count, alpha)
    if np.all(np.isfinite(c)) and np.all(np.isfinite(b2)) and np.all(b2 > 0.0):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t, upper, log_weight = _polished_nodes(count, alpha, a, c, b2)
        u = np.where(upper, 1.0 - t, t)
        complement = np.where(upper, t, 1.0 - t)
        if np.all(u > 0.0) and np.all(complement > 0.0) and np.all(np.isfinite(log_weight)):
            return u, complement, log_weight
    raise ValueError(f"no Gauss-Jacobi nodes for n = {count}, alpha = {alpha} "
                     "(the Jacobi matrix, its nodes or weights leave the double range)")


def _polished_nodes(n: int, alpha: float, a, c, b2):
    """(t, upper, log weights) of :func:`gauss_jacobi`: node u = 1 - t where
    ``upper``, else u = t."""
    idx = np.arange(n)
    if alpha == 0.0:
        # J - 1/2 has a zero diagonal, so its eigenvalues are +-lambda, and
        # lambda^2 are those of the even-index block of (J - 1/2)^2
        half = (n + 1) // 2
        b = np.zeros(n + 1)
        b[1:n] = np.sqrt(b2[:-1])
        i = idx[:half]
        E = np.zeros((half, half))
        E[i, i] = b[2 * i] ** 2 + b[2 * i + 1] ** 2
        E[i[1:], i[:-1]] = b[2 * i[:-1] + 1] * b[2 * i[:-1] + 2]
        t = 0.5 - np.sqrt(np.maximum(np.linalg.eigvalsh(E), 0.0))[::-1]
        upper = np.zeros(half, dtype=bool)
    else:
        J = np.zeros((n, n))
        J[idx, idx] = a
        J[idx[1:], idx[:-1]] = np.sqrt(b2[:-1])
        u = np.linalg.eigvalsh(J)  # reads the lower triangle
        upper = u > 0.5
        t = np.where(upper, 1.0 - u, u)
    shift = np.where(upper, c[:, None] - t, t - a[:, None])  # u - a_k
    beta = np.concatenate([[0.0], b2[:-1]])  # b_k^2, b_0 = 0
    # a step scales (p_k, p_{k-1}) by at most 2.25 up and 2.25/b_k^2 down:
    # rescale before 250 decades
    every = max(1, int(250 / math.log10(2.25 / beta[1:].min()))) if n > 1 else 1
    X = np.zeros((2, t.size))  # (p_k, p_k')
    X[0] = 1.0
    X_prev = np.zeros_like(X)
    log_scale = np.zeros(t.size)
    for k in range(n):
        X_next = shift[k] * X
        X_next -= beta[k] * X_prev
        X_next[1] += X[0]
        X_prev, X = X, X_next
        if (k + 1) % every == 0:
            f = np.abs(X[0]) + np.abs(X_prev[0])
            X /= f
            X_prev /= f
            log_scale += np.log(f)
    (p, dp), (q, dq) = X, X_prev
    delta = -p / dp  # the Newton step in u
    u, v = np.where(upper, 1.0 - t, t), np.where(upper, t, 1.0 - t)
    # u(1-u) p'' + (1 - (alpha+2) u) p' + n (n+alpha+1) p = 0
    ddp = -((1.0 - (alpha + 2.0) * u) * dp + n * (n + alpha + 1.0) * p) / (u * v)
    log_weight = (
        np.sum(np.log(b2[:-1])) - math.log1p(alpha) - 2.0 * log_scale
        - np.log(np.abs(dp + delta * ddp)) - np.log(np.abs(q + delta * dq))
    )
    t = t + np.where(upper, -delta, delta)
    if alpha == 0.0:
        mirror = np.s_[n // 2 - 1 :: -1] if n > 1 else np.s_[:0]
        t = np.concatenate([t, t[mirror]])
        log_weight = np.concatenate([log_weight, log_weight[mirror]])
        upper = idx >= (n + 1) // 2
    return t, upper, log_weight


def build_quadrature(
    radial_count: int,
    angular_count: int,
    min_decay: float,
    radial_rule: str = "legendre",
) -> DiskQuadrature:
    """Tensor rule for d iota: Gauss in u = |z|^2 on (0,1), uniform angles.

    ``min_decay`` declares the weakest boundary decay (1-|z|^2)^s the caller
    will integrate; it must be >= 2 so the measure's boundary singularity is
    cancelled.  ``radial_rule="jacobi"`` keys the radial rule to the weight
    (1-u)^{min_decay-2}, which keeps exactness independent of how large the
    decay exponent is (useful when integrands carry (1-|z|^2)^nu with huge nu).
    """
    if radial_count < 1 or angular_count < 1:
        raise ValueError("node counts must be positive")
    if not min_decay >= 2.0:
        raise ValueError(f"min_decay must be >= 2, got {min_decay}")
    if radial_rule not in ("legendre", "jacobi"):
        raise ValueError(f"unknown radial_rule {radial_rule!r}")
    # Legendre in u is the Jacobi rule at alpha = 0
    alpha = float(min_decay) - 2.0 if radial_rule == "jacobi" else 0.0
    u, complement, log_weight = gauss_jacobi(radial_count, alpha)
    # times the measure's (1-u)^{-2}, and (1-u)^{-alpha} for the Jacobi rule, in logs
    radial_weight = np.exp(log_weight - (alpha + 2.0) * np.log(complement))
    # half-step angular offset: exactness for |m| < angular_count is unchanged
    # and no node lands on the positive real axis (where boundary-point
    # integrands like e_{lambda,1} peak)
    theta = 2.0 * np.pi * (np.arange(angular_count) + 0.5) / angular_count
    nodes = (np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = np.repeat(radial_weight / angular_count, angular_count)
    return DiskQuadrature(
        nodes=nodes,
        weights=weights,
        radial_count=radial_count,
        angular_count=angular_count,
        min_decay=float(min_decay),
        exactness_degree=2 * radial_count - 1,
    )


def invariant_measure_check(g: GroupElement, h, quadrature: DiskQuadrature) -> float:
    """|int h(g.z) d iota - int h d iota|, reporting measure invariance.

    ``h`` is any pointwise-evaluable function on the disk (the caller
    guarantees its decay stays >= 2 after composition with g).
    """
    moved = h(mobius(g, quadrature.nodes))
    direct = h(quadrature.nodes)
    return abs(quadrature.integrate(moved) - quadrature.integrate(direct))
