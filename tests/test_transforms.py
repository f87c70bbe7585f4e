"""Symbol, Toeplitz, Berezin, Husimi, and the alternating-sum transforms."""

import math

import mpmath as mp
import numpy as np
import pytest
from oracles import (
    berezin_quadrature_oracle,
    covariant_symbol_oracle,
    husimi_grid_oracle,
    toeplitz_quadrature_oracle,
)

from diskchannels.bergman import (
    TruncatedOperator,
    scaled_basis_values,
    transported_basis_vectors,
)
from diskchannels.disk import GroupElement, build_quadrature, mobius, transporter
from diskchannels.specfun import berezin_eigenvalue, pochhammer
from diskchannels.spectral import eigenfunction
from diskchannels.transforms import (
    InsufficientDecayError,
    _column_form,
    berezin_transform,
    e_transform,
    husimi_grid,
    radial_poly,
    toeplitz_diagonal,
    toeplitz_operator,
)

mp.mp.dps = 40


def random_psd(mu, dim, rank, seed, unit_trace=True):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    if unit_trace:
        m /= np.real(np.trace(m))
    return TruncatedOperator(mu, m, hermitian=True)


def lowest_state(mu):
    return TruncatedOperator(mu, np.array([[1.0 + 0j]]), hermitian=True)


def disk_points(count, seed, radius=0.995):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


def column_form_bound(dim):
    """Rounding bound, in units of eps times the sum of moduli, between two
    evaluations of sum_{m,n} l_m A_mn r_n: the oracle's one accumulator of
    dim^2 terms (dim^2 - 1 adds), the library's two length-dim sums
    (2 (dim - 1) adds), and each side's two complex products (2 sqrt(2)
    gamma_2 apiece, under 6 eps for both)."""
    return (dim * dim + 2 * dim + 12) * np.finfo(float).eps


class TestCovariantSymbol:
    """The covariant symbol of the test oracles, the reference of the Husimi
    function at index 0, and the library's column form on its terms."""

    def test_lowest_projector(self):
        A = lowest_state(3)
        for z in (0.0, 0.3, 0.5 - 0.2j):
            value, _ = covariant_symbol_oracle(A, z)
            assert value == pytest.approx((1 - abs(z) ** 2) ** 3, rel=1e-14)

    def test_origin_reads_corner(self):
        A = random_psd(2, 8, 3, seed=1)
        value, _ = covariant_symbol_oracle(A, 0.0)
        assert value == pytest.approx(np.real(A.matrix[0, 0]), rel=1e-14)

    def test_trace_identity(self):
        # (nu-1) int R_nu(A) d iota = Tr A
        nu = 3
        A = random_psd(nu, 12, 4, seed=2, unit_trace=False)
        q = build_quadrature(120, 64, 2.0)
        vals, _ = covariant_symbol_oracle(A, q.nodes)
        assert (nu - 1) * np.real(q.integrate(vals)) == pytest.approx(
            np.real(np.trace(A.matrix)), rel=1e-8
        )

    def test_bounded_by_operator_norm(self):
        A = random_psd(2, 10, 5, seed=3, unit_trace=False)
        norm = np.linalg.norm(A.matrix, 2)
        rng = np.random.default_rng(4)
        zs = 0.97 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
        vals, _ = covariant_symbol_oracle(A, zs)
        assert np.max(np.abs(vals)) <= norm + 1e-12

    def test_non_hermitian_matches_three_operand_form(self):
        rng = np.random.default_rng(12)
        dim = 24
        A = TruncatedOperator(
            3.0, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        zs = disk_points(1200, seed=13)
        expect, scale = covariant_symbol_oracle(A, zs)
        e = scaled_basis_values(A.weight, zs, A.degree)
        vals = _column_form(e, A.matrix, np.conj(e))
        assert np.iscomplexobj(vals) and np.any(np.abs(vals.imag) > 1e-3)
        assert np.all(np.abs(vals - expect) <= column_form_bound(dim) * scale)


class TestToeplitz:
    def test_constant_gives_identity(self):
        op = toeplitz_operator(radial_poly([1.0]), 4, 12)
        assert np.abs(op.matrix - np.eye(13)).max() < 1e-13

    def test_diagonal_beta_oracle(self):
        # (nu-1) ((nu)_m/m!) int u^m (1-u)^nu du with the Beta integral at
        # high precision; equals (nu-1)(nu)_m Gamma(nu+1)/Gamma(nu+m+2)
        nu = 4
        d = toeplitz_diagonal(radial_poly([0, 0, 1.0]), nu, 12)
        for m in range(13):
            oracle = float(
                (nu - 1)
                * pochhammer(nu, m)
                / mp.factorial(m)
                * mp.beta(m + 1, nu + 1)
            )
            assert d[m] == pytest.approx(oracle, rel=1e-13)
        assert d[2] == pytest.approx(2.0 / 7.0, rel=1e-13)  # frozen spot check

    def test_trace_equals_mass(self):
        # Tr((nu-1) R*(f)) = (nu-1) int f d iota = nu - 1 for f = (1-u)^2
        nu = 5
        d = toeplitz_diagonal(radial_poly([0, 0, 1.0]), nu, 400000)
        assert float(np.sum(d)) == pytest.approx(nu - 1.0, abs=2e-4)

    @pytest.mark.parametrize("coeffs,nu,ms", [
        ([0, 0, 1.0], 800.0, np.r_[0:40, 1000:64001:3000, 63990:64001]),
        ([0.5, 0.0, 0.25, 1.0], 800.0, np.r_[0:40, 1000:64001:3000, 63990:64001]),
        # (3)_120/(3 + m)_120 crosses the subnormal threshold near m = 17,236
        ([0.0] * 120 + [1.0], 3.0, np.r_[0:40, 1000:17000:2000, 17200:17280]),
    ])
    def test_diagonal_against_mpmath(self, coeffs, nu, ms):
        # each term is a_s (nu-1)/(nu+s-1) prod_{i<s} (nu+i)/(nu+m+i): s
        # divisions, s - 1 multiplies of the running product, two roundings
        # of the coefficient and one multiply (the sums nu + m + i of integers
        # are exact), then one add per further term; so an entry is off by at
        # most (2 top + 1 + terms) eps of its terms' absolute sum, and real m,
        # with one more rounding per factor, by (3 top + 1 + terms) eps
        f, top = radial_poly(coeffs), len(coeffs) - 1
        terms = sum(1 for a in coeffs if a != 0.0)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        real_ms = ms + 0.375
        for at, got, count in [(ms, toeplitz_diagonal(f, nu, int(ms[-1]))[ms], 2 * top),
                               (real_ms, toeplitz_diagonal(f, nu, real_ms), 3 * top)]:
            for m, value in zip(at, got):
                parts = [a * (nu - 1) / mp.mpf(nu + s - 1) * mp.rf(nu, s)
                         / mp.rf(nu + mp.mpf(float(m)), s) for s, a in enumerate(coeffs) if a]
                exact = mp.fsum(parts)
                if exact < tiny:  # below the normal range: an underflow
                    assert value < tiny
                    continue
                assert abs(value - exact) <= (count + 1 + terms) * eps * mp.fsum(map(abs, parts))

    def test_grid_route_matches_closed_form(self):
        nu, deg = 3, 16
        q = build_quadrature(100, 64, 2.0)
        f = radial_poly([0, 0, 1.0])
        closed = toeplitz_operator(f, nu, deg)
        numeric = toeplitz_quadrature_oracle(f(q.nodes), nu, deg, q)
        assert np.abs(closed.matrix - numeric.matrix).max() < 1e-12
        assert numeric.hermitian

    def test_insufficient_decay(self):
        f = radial_poly([1.0])  # constant, decay 0
        with pytest.raises(InsufficientDecayError):
            toeplitz_operator(f, 1.5, 4)
        with pytest.raises(InsufficientDecayError):
            berezin_transform(f, 1.5, 0.0)

    def test_hilbert_schmidt_contraction(self):
        # ||T_f||_2^2/(nu-1) <= ||f||_2^2, both sides closed forms:
        # ||f||_2^2 = int (a1 (1-u) + a2 (1-u)^2)^2 d iota
        #           = a1^2/(2-1) + 2 a1 a2/(3-1) + a2^2/(4-1)
        f = radial_poly([0, 1.0, 2.0])
        f_l2 = 1.0 + 2 * 2 / 2.0 + 4 / 3.0
        for nu in (2, 3, 8, 20):
            d = toeplitz_diagonal(f, nu, 200000)
            hs_sq = float(np.sum(d**2))
            assert hs_sq / (nu - 1) <= f_l2 * (1 + 1e-12)


class TestBerezin:
    def test_constant(self):
        f = radial_poly([1.0])
        for nu in (2, 4, 9):
            for z in (0.0, 0.3, 0.6j, -0.5 + 0.3j):
                assert berezin_transform(f, nu, z) == pytest.approx(
                    1.0 / (nu - 1), rel=1e-13
                )

    def test_eigenfunction_relation(self):
        nu, lam = 4, 1.0
        q = build_quadrature(300, 512, 2.0)
        values = eigenfunction(lam, 1.0, q.nodes)
        for z in (0.1, 0.25 + 0.2j):
            val = berezin_quadrature_oracle(values, nu, z, q)
            ratio = (nu - 1) * val / eigenfunction(lam, 1.0, z)
            assert abs(ratio - berezin_eigenvalue(nu, lam)) < 1e-4

    def test_route_agreement(self):
        # closed form vs symbol-of-Toeplitz route at several points
        f = radial_poly([0, 0, 1.0])
        nu = 4
        T = toeplitz_operator(f, nu, 400)
        for z in (0.0, 0.35, 0.3 - 0.4j):
            direct = berezin_transform(f, nu, z)
            symbol, _ = covariant_symbol_oracle(T, z)
            assert abs(direct - symbol[0] / (nu - 1)) < 1e-8

    def test_pointwise_limit_monotone(self):
        f = radial_poly([0, 0, 1.0])
        for z0 in (0.0, 0.3, 0.6j):
            vals = [
                (nu - 1) * berezin_transform(f, nu, z0) for nu in (4, 8, 16, 32, 64)
            ]
            errs = [abs(v - f(z0)) for v in vals]
            assert all(a >= b for a, b in zip(errs, errs[1:]))
            assert errs[-1] < 0.05

    def test_quadrature_forced_matches_closed(self):
        f = radial_poly([0, 0, 1.0])
        q = build_quadrature(200, 64, 2.0)
        for z in (0.0, 0.4 + 0.1j):
            assert berezin_quadrature_oracle(f(q.nodes), 3, z, q) == pytest.approx(
                berezin_transform(f, 3, z), rel=1e-11
            )


class TestHusimi:
    def test_lowest_index_zero(self):
        A = lowest_state(2)
        ws = np.array([0.0, 0.3 + 0.2j, 0.8])
        assert husimi_grid(A, 0, ws) == pytest.approx((1 - abs(ws) ** 2) ** 2, rel=1e-13)

    def test_lowest_index_k(self):
        mu = 2
        A = lowest_state(mu)
        ws = np.array([0.3 + 0.2j, 0.5])
        t = abs(ws) ** 2
        for k in (1, 2, 3):
            expect = pochhammer(mu, k) / math.factorial(k) * t**k * (1 - t) ** mu
            assert husimi_grid(A, k, ws) == pytest.approx(expect, rel=1e-12)

    def test_normalization(self):
        # int H_mu^k(A) d iota = Tr(A)/(mu - 1): Schur orthogonality with the
        # coset measure; the lowest-state closed form gives exactly
        # ((mu)_k/k!) B(k+1, mu-1) = 1/(mu-1)
        for (mu, k, seed) in [(2, 0, 5), (2, 1, 6), (3, 2, 7), (4, 1, 8)]:
            A = random_psd(mu, 10, 3, seed=seed, unit_trace=False)
            q = build_quadrature(200, 96, 2.0)
            vals = husimi_grid(A, k, q.nodes)
            assert np.real(q.integrate(vals)) == pytest.approx(
                np.real(np.trace(A.matrix)) / (mu - 1.0), rel=1e-7
            )

    def test_phase_independence(self):
        # transporter(w) @ rotation gives the same value
        mu, k = 3, 2
        A = random_psd(mu, 8, 3, seed=8)
        w = 0.4 - 0.1j
        base = transporter(w)
        for theta in (0.3, 1.2):
            g2 = base @ GroupElement.rotation(theta)
            v, _ = transported_basis_vectors(mu, g2, k, A.degree)
            val = np.real(np.conj(v) @ (A.matrix @ v))
            assert val == pytest.approx(husimi_grid(A, k, [w])[0], abs=1e-12)

    def test_rotation_covariance(self):
        # H(g A g^{-1})(w) = H(A)(g . w) exactly for rotations: the point
        # action composes contravariantly, so conjugation pulls back along g
        mu, k = 2, 1
        A = random_psd(mu, 6, 2, seed=9)
        theta = 0.77
        phases = np.exp(1j * (mu + 2 * np.arange(6)) * theta)
        conj = TruncatedOperator(
            mu, phases[:, None] * A.matrix * np.conj(phases)[None, :], hermitian=True
        )
        g = GroupElement.rotation(theta)
        ws = np.array([0.3, 0.2 + 0.4j])
        lhs = husimi_grid(conj, k, ws)
        assert lhs == pytest.approx(husimi_grid(A, k, mobius(g, ws)), rel=1e-12)

    def test_psd_range(self):
        A = random_psd(2, 8, 3, seed=10)
        norm = np.linalg.norm(A.matrix, 2)
        rng = np.random.default_rng(11)
        ws = 0.95 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
        vals = husimi_grid(A, 1, ws)
        assert np.all(vals >= -1e-14) and np.all(vals <= norm + 1e-12)

    def test_index_zero_is_the_covariant_symbol_at_minus_w(self):
        # g . 1 = (-bz + conj a)^{-nu} is the coherent state at -w: a
        # non-radial A tells w from -w, and the values differ from the
        # covariant symbol at w itself (10.6886 against 7.3711 at w = 0.3+0.2j)
        A = random_psd(3, 6, 6, seed=0, unit_trace=False)
        ws = np.concatenate([[0.3 + 0.2j], disk_points(200, seed=16)])
        expect, scale = covariant_symbol_oracle(A, -ws)
        vals = husimi_grid(A, 0, ws)
        assert np.all(np.abs(vals - expect) <= column_form_bound(A.degree + 1) * scale)
        assert vals[0] == pytest.approx(10.6886, abs=1e-4)
        symbol, _ = covariant_symbol_oracle(A, ws[0])
        assert np.real(symbol[0]) == pytest.approx(7.3711, abs=1e-4)

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_non_diagonal_grid_matches_three_operand_form(self, index):
        # a rank-3 state of degree 23, as the dense sweep's, on 1200 points
        A = random_psd(2, 24, 3, seed=14)
        assert not A.is_diagonal
        ws = disk_points(1200, seed=15)
        expect, scale = husimi_grid_oracle(A, index, ws)
        vals = husimi_grid(A, index, ws)
        assert np.all(np.abs(vals - expect) <= column_form_bound(A.degree + 1) * scale)


class TestETransform:
    def test_grade_zero_is_berezin(self):
        f = radial_poly([0, 0, 1.0])
        for z in (0.0, 0.3 - 0.2j):
            assert e_transform(f, 2, 0, z) == pytest.approx(
                berezin_transform(f, 2, z), rel=1e-14
            )

    def test_husimi_identity(self):
        # E_{mu,k}(f) = H_mu^k(R*(f)) = H_mu^k(T_f/(mu-1))
        f = radial_poly([0, 0, 1.0])
        mu = 2
        T = toeplitz_operator(f, mu, 320)
        A = TruncatedOperator(mu, T.matrix / (mu - 1), hermitian=True)
        rng = np.random.default_rng(12)
        zs = 0.6 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
        for k in (0, 1, 2):
            evals = np.asarray(e_transform(f, mu, k, zs))
            hvals = husimi_grid(A, k, zs)
            assert np.abs(evals - hvals).max() <= 1e-6

    def test_finite_weight_version_converges(self):
        f = radial_poly([0, 0, 1.0])
        mu, k = 2, 2
        zs = np.array([0.0, 0.25, 0.3 + 0.3j])
        sups = []
        nus = [20, 40, 80, 160, 320]
        for nu in nus:
            diff = np.abs(
                np.asarray(e_transform(f, mu, k, zs, nu=nu))
                - np.asarray(e_transform(f, mu, k, zs))
            )
            sups.append(diff.max())
        slope = np.polyfit(np.log(nus), np.log(sups), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)


class TestGridFunctions:
    """Functions given by their samples on a quadrature's nodes, which only
    the quadrature routes of the test oracles take."""

    def test_berezin_grid_route(self):
        q = build_quadrature(200, 64, 2.0)
        f = radial_poly([0, 0, 1.0])
        for z in (0.0, 0.3 + 0.2j):
            assert berezin_quadrature_oracle(f(q.nodes), 4, z, q) == pytest.approx(
                berezin_transform(f, 4, z), rel=1e-11
            )


class TestLargeWeightStability:
    def test_no_overflow_in_weight_sweeps(self):
        # weight sweeps reach nu ~ 10^3: every route must stay finite
        f = radial_poly([0, 0, 1.0])
        d = toeplitz_diagonal(f, 1000, 5000)
        assert np.all(np.isfinite(d)) and d[0] > 0
        assert berezin_transform(f, 1000, 0.5) == pytest.approx(
            f(0.5) / 999.0, rel=1e-2
        )
        A = lowest_state(800)
        symbol, _ = covariant_symbol_oracle(A, 0.9)
        assert symbol[0] == pytest.approx((1 - 0.81) ** 800, rel=1e-10)
        assert husimi_grid(A, 1, [0.9])[0] >= 0.0
