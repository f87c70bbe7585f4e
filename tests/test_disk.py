"""Disk geometry and invariant-measure quadrature."""

import math

import mpmath as mp
import numpy as np
import pytest

from diskchannels.disk import (
    GroupElement,
    build_quadrature,
    gauss_jacobi,
    mobius,
    transporter,
)
from diskchannels.transforms import radial_poly

mp.mp.dps = 40


def random_element(rng, scale=0.6):
    b = scale * (rng.normal() + 1j * rng.normal())
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return GroupElement(phase * np.sqrt(1 + abs(b) ** 2), b)


class TestGroupElement:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            GroupElement(1.0, 1.0)

    def test_product_preserves_determinant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = random_element(rng) @ random_element(rng)
            det = abs(g.a) ** 2 - abs(g.b) ** 2
            assert det == pytest.approx(1.0, abs=1e-12 * max(1.0, abs(g.a) ** 2))

    def test_inverse(self):
        rng = np.random.default_rng(1)
        g = random_element(rng)
        gi = g.inverse()
        assert abs((g @ gi).a - 1) < 1e-14 and abs((g @ gi).b) < 1e-14


class TestMobius:
    def test_identity(self):
        z = 0.3 + 0.4j
        assert mobius(GroupElement.identity(), z) == pytest.approx(z, abs=0)

    def test_rotation(self):
        theta = 0.7
        g = GroupElement.rotation(theta)
        z = 0.2 - 0.5j
        assert mobius(g, z) == pytest.approx(np.exp(2j * theta) * z, rel=1e-14)

    def test_composition_matrix_product_oracle(self):
        # the point action composes against the matrix order: g(h z) = (h g) z
        rng = np.random.default_rng(2)
        for _ in range(30):
            g, h = random_element(rng), random_element(rng)
            z = 0.35 * (rng.normal() + 1j * rng.normal())
            z = z / max(1.0, abs(z) / 0.8)
            assert mobius(g, mobius(h, z)) == pytest.approx(
                mobius(h @ g, z), abs=1e-12
            )

    def test_preserves_disk(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = random_element(rng, scale=2.0)
            z = 0.999 * np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.random()
            assert abs(mobius(g, z)) < 1.0


class TestTransporter:
    def test_origin(self):
        g = transporter(0.0)
        assert g.a == 1.0 and g.b == 0.0

    def test_half(self):
        g = transporter(0.5)
        assert g.a == pytest.approx(2 / math.sqrt(3), rel=1e-15)
        assert g.b == pytest.approx(-1 / math.sqrt(3), rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = 0.95 * rng.random() * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert mobius(transporter(w), 0.0) == pytest.approx(w, abs=1e-13)


class TestQuadrature:
    def test_rejects_weak_decay(self):
        with pytest.raises(ValueError):
            build_quadrature(10, 10, 1.5)

    def test_weighted_mass(self):
        # int (1-|z|^2)^nu d iota = 1/(nu-1)
        q = build_quadrature(80, 8, 2.0)
        u = np.abs(q.nodes) ** 2
        for nu in range(2, 41):
            val = q.integrate((1 - u) ** nu)
            assert val == pytest.approx(1.0 / (nu - 1), abs=1e-12)

    @pytest.mark.parametrize("min_decay", [pytest.param(2.0, id="legendre"),
                                           pytest.param(7.0, id="jacobi")])
    def test_beta_moment_table(self, min_decay):
        # int |z|^{2m} (1-|z|^2)^s d iota = m! Gamma(s-1)/Gamma(s+m), for every
        # s the rule declares: Gauss-Legendre in u at min_decay 2, Gauss-Jacobi
        # in (1-u)^5 at min_decay 7
        q = build_quadrature(80, 8, min_decay)
        u = np.abs(q.nodes) ** 2
        for m in range(0, 41, 5):
            for s in range(int(min_decay), 41, 5):
                oracle = float(mp.gamma(m + 1) * mp.gamma(s - 1) / mp.gamma(s + m))
                val = q.integrate(u**m * (1 - u) ** s)
                assert val == pytest.approx(oracle, rel=1e-12, abs=1e-15)

    def test_angular_parity(self):
        q = build_quadrature(40, 32, 2.0)
        z = q.nodes
        h = np.real(z) * np.imag(z) * (1 - np.abs(z) ** 2) ** 3  # odd in angle
        assert abs(q.integrate(h)) < 1e-15

    def test_angular_exactness(self):
        q = build_quadrature(30, 16, 2.0)
        theta = np.angle(q.nodes)
        u = np.abs(q.nodes) ** 2
        for m in range(1, 16):
            val = q.integrate(np.exp(1j * m * theta) * (1 - u) ** 3)
            assert abs(val) < 1e-14

    @pytest.mark.parametrize("decay", [2.5, 7.25, 1500.0])
    def test_jacobi_exact_for_its_decay(self, decay):
        # exact for (1-u)^decay p(u), deg p <= 2n-1, at any real decay, also
        # past 2^{decay-1} overflowing (decay > 1025); rounding grows ~ decay
        q = build_quadrature(6, 1, decay)
        assert np.all(np.isfinite(q.weights)) and np.all(q.weights > 0)
        u = np.abs(q.nodes) ** 2
        for m in (0, 6, 11):
            # int u^m (1-u)^{decay-2} du
            exact = float(mp.beta(m + 1, mp.mpf(decay) - 1))
            val = q.integrate(u**m * np.exp(decay * np.log1p(-u)))
            assert val == pytest.approx(exact, rel=5e-15 * decay)

    def test_jacobi_out_of_range_is_an_error(self):
        # at decay 1e200 the squares (2k + alpha)^2 of the Jacobi matrix
        # overflow; a row error beats a silent nan integral
        with pytest.raises(ValueError, match="Gauss-Jacobi"):
            build_quadrature(300, 1, 1e200)

    def test_jacobi_handles_huge_weight(self):
        q = build_quadrature(60, 4, 802.0)
        u = np.abs(q.nodes) ** 2
        val = q.integrate(np.exp(800.0 * np.log1p(-u)) * (1 - u) ** 2)
        assert val == pytest.approx(1.0 / 801.0, rel=1e-12)

    @pytest.mark.parametrize("count, alpha",
                             [(400, 0.0), (58, 6.0), (32, 46.0), (40, 798.0), (40, 998.0),
                              (400, 798.0), (500, 1000.0)])
    def test_gauss_jacobi_beta_moments(self, count, alpha):
        # int_0^1 (1-u)^alpha u^j du = B(j+1, alpha+1) for every j <= 2n-1,
        # which fixes the Gauss rule; rounding grows ~ alpha, and ~ n in the sum
        u, complement, log_weight = gauss_jacobi(count, alpha)
        assert np.all((0.0 < u) & (u < 1.0))
        assert np.all(np.abs(complement + u - 1.0) <= np.finfo(float).eps)
        weights = np.exp(log_weight)
        for j in range(2 * count):
            exact = float(mp.beta(j + 1, mp.mpf(alpha) + 1))
            assert np.sum(weights * u**j) == pytest.approx(
                exact, rel=5e-15 * (alpha + 2) + count * np.finfo(float).eps)

    def test_gauss_jacobi_out_of_range_is_an_error(self):
        # the rule holds to alpha ~ 1e154; past it the squares
        # (2k + alpha)^2 of the Jacobi matrix overflow
        with pytest.raises(ValueError, match="n = 400, alpha = 1e"):
            gauss_jacobi(400, 1e200)

    def test_exactness_metadata(self):
        q = build_quadrature(50, 16, 2.0)
        assert q.exactness_degree == 99
        assert np.all(q.weights > 0)


def invariance_gap(g, h, quadrature):
    """|int h(g.z) d iota - int h d iota| on the rule ``quadrature``."""
    moved = quadrature.integrate(h(mobius(g, quadrature.nodes)))
    return abs(moved - quadrature.integrate(h(quadrature.nodes)))


class TestInvariance:
    def test_identity_element(self):
        q = build_quadrature(50, 32, 2.0)
        h = radial_poly([0.0, 0.0, 0.0, 1.0])
        assert invariance_gap(GroupElement.identity(), h, q) == 0.0

    def test_rotation_radial(self):
        q = build_quadrature(50, 32, 2.0)
        h = radial_poly([0.0, 0.0, 1.0])
        g = GroupElement.rotation(1.1)
        assert invariance_gap(g, h, q) < 1e-14

    def test_transporter_invariance(self):
        # both sides equal int (1-u)^3 d iota = 1/2 analytically
        q = build_quadrature(400, 256, 2.0)
        h = radial_poly([0.0, 0.0, 0.0, 1.0])
        g = transporter(0.3)
        assert invariance_gap(g, h, q) <= 1e-8
        assert q.integrate(h(q.nodes)) == pytest.approx(0.5, rel=1e-13)
