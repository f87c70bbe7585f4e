"""Truncated Bergman spaces: norms, coherent states, group action."""

import math

import numpy as np
import pytest
from scipy.special import betainc, gammaln

from diskchannels.bergman import (
    TruncatedOperator,
    group_action_matrix,
    log_monomial_norm_sq,
    scaled_basis_values,
    transported_basis_vectors,
)
from diskchannels.disk import GroupElement, build_quadrature, transporter


def random_element(rng, scale=0.4):
    b = scale * (rng.normal() + 1j * rng.normal())
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return GroupElement(phase * np.sqrt(1 + abs(b) ** 2), b)


class TestMonomialNorms:
    def test_examples(self):
        assert log_monomial_norm_sq(3.0, 0) == 0.0
        assert math.exp(log_monomial_norm_sq(2.0, 1)) == pytest.approx(0.5, rel=1e-15)

    def test_stirling_ratio(self):
        # j!/(nu)_j ~ Gamma(nu) j^{1-nu} for large j
        nu = 4.0
        for j in (10**3, 10**5):
            ratio = math.exp(
                log_monomial_norm_sq(nu, j) - (gammaln(nu) + (1 - nu) * math.log(j))
            )
            assert ratio == pytest.approx(1.0, abs=20.0 / j)


def coherent_column(nu, w, degree):
    """(coefficients of K_w/||K_w|| in the orthonormal basis, mass above
    ``degree``): the conjugate of the scaled basis values at w."""
    v = np.conj(scaled_basis_values(nu, w, degree)[:, 0])
    return v, max(0.0, 1.0 - float(np.sum(np.abs(v) ** 2)))


class TestKernel:
    """K(x, y) (1-|x|^2)^{nu/2} (1-|y|^2)^{nu/2} = sum_m s_m(x) conj(s_m(y))
    for the scaled basis values s, K(x, y) = (1 - x conj(y))^{-nu}."""

    def test_right_argument_zero(self):
        # K(x, 0) = 1: only s_0(0) = 1 is nonzero at the origin
        s = scaled_basis_values(3, [0.4 + 0.1j, 0.0], 40)
        expect = (1 - abs(0.4 + 0.1j) ** 2) ** 1.5
        assert np.vdot(s[:, 1], s[:, 0]) == pytest.approx(expect, rel=1e-15)

    def test_series_oracle(self):
        nu, x, y, N = 3, 0.5 + 0.2j, -0.3 + 0.4j, 200
        s = scaled_basis_values(nu, [x, y], N)
        fold = ((1 - abs(x) ** 2) * (1 - abs(y) ** 2)) ** (nu / 2)
        kernel = (1 - x * np.conj(y)) ** -nu * fold
        i = np.arange(N + 1)
        coeff = np.exp(gammaln(nu + i) - gammaln(nu) - gammaln(i + 1.0))
        r = abs(x * np.conj(y))
        tail = abs(coeff[-1]) * r ** (N + 1) / (1 - r) * fold  # geometric tail bound
        assert abs(np.vdot(s[:, 1], s[:, 0]) - kernel) <= tail + 1e-14

    def test_reproducing_property(self):
        # quadrature of <p, K_w> = p(w) for polynomials of degree <= 30, with
        # K_w's coefficients read from the scaled basis values at w
        nu, degree = 3, 30
        q = build_quadrature(120, 80, 2.0)
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        w = 0.4 - 0.25j

        def poly(z):
            return sum(c * z**j for j, c in enumerate(coeffs))

        z = q.nodes
        # sum_m s_m(w) conj(s_m(z)) = K(w, z) (1-|w|^2)^{nu/2} (1-|z|^2)^{nu/2},
        # exact on a polynomial of degree <= 30 by orthogonality
        s_w = scaled_basis_values(nu, w, degree)[:, 0]
        s_z = scaled_basis_values(nu, z, degree)
        kernel = (s_w @ np.conj(s_z)) / (1 - abs(w) ** 2) ** (nu / 2)
        inner = (nu - 1) * q.integrate(poly(z) * kernel * (1 - np.abs(z) ** 2) ** (nu / 2))
        assert inner == pytest.approx(poly(w), rel=1e-10)


class TestCoherentVector:
    def test_origin(self):
        v, tail = coherent_column(4, 0.0, 10)
        assert v[0] == 1.0 and np.all(v[1:] == 0) and tail == 0.0

    def test_norm_within_tail(self):
        for w in (0.3, 0.5 * np.exp(1.3j), 0.8j):
            v, tail = coherent_column(3, w, 64)
            t = abs(w) ** 2
            # explicit geometric series tail for sum_{i>N} (nu)_i/i! t^i (1-t)^nu
            nsq = np.sum(np.abs(v) ** 2)
            assert 1.0 - tail <= nsq + 1e-15 <= 1.0 + 1e-15
            i = 65
            coeff = math.exp(gammaln(3 + i) - gammaln(3) - gammaln(i + 1.0))
            geo = coeff * t**i * (1 - t) ** 3 / (1 - t * (3 + i) / (i + 1))
            assert tail <= geo * 1.01 + 1e-15

    def test_self_inner_product(self):
        # the mass up to degree N is the negative binomial sum
        # sum_{i<=N} (nu)_i/i! t^i (1-t)^nu = I_{1-t}(nu, N+1)
        v, tail = coherent_column(5, 0.6, 128)
        assert np.vdot(v, v).real == pytest.approx(betainc(5, 129, 0.64), abs=1e-14)
        assert abs(np.vdot(v, v) - 1.0) <= tail + 1e-14


class TestGroupActionMatrix:
    def test_identity(self):
        op, tail = group_action_matrix(GroupElement.identity(), 3, 12)
        assert np.abs(op.matrix - np.eye(13)).max() < 1e-14
        assert tail < 1e-14

    @pytest.mark.parametrize(
        "theta, nu", [(0.9, 4), (0.3, 2), (1.7, 3), (4.0, 7), (4.0, 20)]
    )
    def test_rotation_diagonal(self, theta, nu):
        degree = 10
        op, tail = group_action_matrix(GroupElement.rotation(theta), nu, degree)
        expect = np.diag(np.exp(1j * (nu + 2 * np.arange(degree + 1)) * theta))
        assert np.abs(op.matrix - expect).max() < 1e-13
        # a rotation moves no mass past the cut; the reported tail is the
        # rounding of the column norms, which grows with the phase power nu and
        # the raise steps (0, 1, 4, 14 and 39 eps at these pairs)
        assert tail <= 4 * (nu + degree) * np.finfo(float).eps

    def test_block_unitarity(self):
        # random g with |g.0| <= 0.5 at the default truncation 256
        rng = np.random.default_rng(11)
        for _ in range(3):
            w = 0.5 * rng.random() * np.exp(1j * rng.uniform(0, 2 * np.pi))
            g = GroupElement.rotation(rng.uniform(0, 2 * np.pi)) @ transporter(w)
            op, tail = group_action_matrix(g, 2, 256)
            blk = op.matrix[:, :64]
            assert np.abs(blk.conj().T @ blk - np.eye(64)).max() <= 1e-8

    def test_homomorphism_on_leading_block(self):
        rng = np.random.default_rng(12)
        nu, N = 3, 160
        g, h = random_element(rng, 0.25), random_element(rng, 0.25)
        Mg, tg = group_action_matrix(g, nu, N)
        Mh, th = group_action_matrix(h, nu, N)
        Mgh, tgh = group_action_matrix(g @ h, nu, N)
        P = N // 2
        err = np.abs((Mg.matrix @ Mh.matrix)[:P, :P] - Mgh.matrix[:P, :P]).max()
        # product truncation error is controlled by the reported tails
        bound = 2 * math.sqrt(tg + th + tgh) + 1e-10
        assert err <= bound

    def test_weight_grading(self):
        # rotations are exactly diagonal; conjugating preserves diagonals
        nu = 3
        rot, _ = group_action_matrix(GroupElement.rotation(0.4), nu, 20)
        off = rot.matrix - np.diag(np.diag(rot.matrix))
        assert np.abs(off).max() == 0.0
        rng = np.random.default_rng(13)
        A = rng.normal(size=(21, 21)) + 1j * rng.normal(size=(21, 21))
        conj = rot.matrix @ A @ rot.matrix.conj().T
        assert np.abs(np.diag(conj) - np.diag(A)).max() < 1e-13

    def test_tail_signal(self):
        # the largest column mass above the cut is returned for the caller
        op, tail = group_action_matrix(transporter(0.9), 2, 24)
        assert tail > 1e-10
        assert tail == np.max(1.0 - np.sum(np.abs(op.matrix) ** 2, axis=0))

    def test_base_point_domain(self):
        with pytest.raises(ValueError):
            group_action_matrix(transporter(0.995), 2, 16)

    def test_non_integer_weight_refused(self):
        with pytest.raises(ValueError):
            group_action_matrix(transporter(0.2), 2.5, 10)


class TestTransportedVectors:
    def test_function_reconstruction_oracle(self):
        # coefficients must reproduce the transported function pointwise
        nu, N, j = 2, 160, 39
        g = transporter(0.3 + 0.2j)
        v, tail = transported_basis_vectors(nu, g, j, N)
        assert tail < 1e-20
        zs = np.array([0.1 + 0.05j, -0.2 + 0.3j])
        a, b = g.a, g.b
        direct = (
            math.exp(0.5 * (gammaln(nu + j) - gammaln(nu) - gammaln(j + 1.0)))
            * (a * zs - np.conj(b)) ** j
            * (-b * zs + np.conj(a)) ** (-(nu + j))
        )
        t = np.arange(N + 1)
        basis = np.exp(0.5 * (gammaln(nu + t) - gammaln(nu) - gammaln(t + 1.0)))
        series = np.array([np.sum(v * basis * z**t) for z in zs])
        assert np.abs(series - direct).max() < 1e-12

    def test_unit_norm(self):
        v, tail = transported_basis_vectors(3, transporter(0.4j), 7, 200)
        assert np.sum(np.abs(v) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert tail < 1e-12


class TestOrthonormality:
    def test_quadrature_gram_identity(self):
        # validates disk quadrature and the norms at once
        nu, deg = 3, 40
        q = build_quadrature(160, 128, 2.0)
        e = scaled_basis_values(nu, q.nodes, deg)  # e_m(z) (1-u)^{nu/2}
        gram = (nu - 1) * np.einsum("mz,z,nz->mn", e, q.weights, np.conj(e))
        assert np.abs(gram - np.eye(deg + 1)).max() <= 1e-10


class TestTruncatedOperator:
    def test_hermitian_flag_checked(self):
        with pytest.raises(ValueError):
            TruncatedOperator(2, np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)

    def test_is_diagonal_exact(self):
        assert TruncatedOperator(2, np.diag([0.5, 0.0, 0.2])).is_diagonal
        tiny = np.diag([0.5, 0.2]).astype(complex)
        tiny[0, 1] = 1e-300j
        assert not TruncatedOperator(2, tiny).is_diagonal
