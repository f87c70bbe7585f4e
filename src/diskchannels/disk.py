"""Hyperbolic-disk geometry and quadrature.

SU(1,1) elements as (a, b) pairs, the Mobius action on the open unit disk,
canonical point transporters, and tensor quadrature rules for the invariant
measure d iota(z) = dz / (pi (1 - |z|^2)^2).

Composition caution: with the action g.z = (az - conj b)/(-bz + conj a) the
point maps compose contravariantly, mobius(g, mobius(h, z)) = mobius(h @ g, z),
while the induced weight-nu function action composes covariantly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_jacobi, roots_jacobi, roots_legendre

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


def gauss_jacobi(count: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for int_0^1 (1-u)^alpha g(u) du: (u, 1 - u, log weights).

    ``sum(exp(log_weights) * g(u))`` is exact for polynomials g of degree
    <= 2 count - 1.  1 - u is formed from the nodes x on [-1, 1] as (1 - x)/2,
    which rounds once.  A ValueError is raised where scipy's nodes (or the
    weights formed from them) are not finite.
    """
    # only scipy's nodes: its weights carry 2^{alpha+1}, inf past alpha ~ 1023
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, _ = roots_jacobi(count, alpha, 0.0)
        # int_0^1 p(u)(1-u)^alpha du = sum p(u_i) / ((1-x_i^2) P_n'(x_i)^2) for
        # P_n = P_n^{(alpha,0)}, with P_n' from P_{n-1}^{(alpha+1,1)}
        dp = 0.5 * (count + alpha + 1.0) * eval_jacobi(count - 1, alpha + 1.0, 1.0, x)
        log_weight = -np.log((1.0 - x) * (1.0 + x)) - 2.0 * np.log(np.abs(dp))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(log_weight))):
        # scipy's Newton step overflows first
        raise ValueError(f"no Gauss-Jacobi nodes for n = {count}, "
                         f"alpha = {alpha} (P_n^(alpha,0) overflows)")
    return 0.5 * (x + 1.0), 0.5 * (1.0 - x), log_weight


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
    if radial_rule == "legendre":
        x, wx = roots_legendre(radial_count)
        u = 0.5 * (x + 1.0)
        radial_weight = 0.5 * wx / (1.0 - u) ** 2
    elif radial_rule == "jacobi":
        alpha = float(min_decay) - 2.0
        u, complement, log_weight = gauss_jacobi(radial_count, alpha)
        # times the measure's (1-u)^{-alpha-2}, in logs
        radial_weight = np.exp(log_weight - (alpha + 2.0) * np.log(complement))
    else:
        raise ValueError(f"unknown radial_rule {radial_rule!r}")
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
