"""Truncated Bergman spaces: norms, kernels, coherent vectors, group action."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from diskchannels.bergman import (
    TruncatedOperator,
    TruncationTailError,
    coherent_vector,
    group_action_matrix,
    kernel_eval,
    log_monomial_norm_sq,
    monomial_norm_sq,
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
        assert monomial_norm_sq(3.0, 0) == pytest.approx(1.0, abs=0)
        assert monomial_norm_sq(2.0, 1) == pytest.approx(0.5, rel=1e-15)

    def test_stirling_ratio(self):
        # j!/(nu)_j ~ Gamma(nu) j^{1-nu} for large j
        nu = 4.0
        for j in (10**3, 10**5):
            ratio = math.exp(
                log_monomial_norm_sq(nu, j) - (gammaln(nu) + (1 - nu) * math.log(j))
            )
            assert ratio == pytest.approx(1.0, abs=20.0 / j)


class TestKernel:
    def test_right_argument_zero(self):
        assert kernel_eval(3, 0.4 + 0.1j, 0.0) == pytest.approx(1.0, abs=0)

    def test_series_oracle(self):
        nu, x, y, N = 3, 0.5 + 0.2j, -0.3 + 0.4j, 200
        i = np.arange(N + 1)
        coeff = np.exp(gammaln(nu + i) - gammaln(nu) - gammaln(i + 1.0))
        series = np.sum(coeff * (x * np.conj(y)) ** i)
        r = abs(x * np.conj(y))
        tail = abs(coeff[-1]) * r ** (N + 1) / (1 - r)  # geometric tail bound
        assert abs(kernel_eval(nu, x, y) - series) <= tail + 1e-14

    def test_reproducing_property(self):
        # quadrature of <p, K_w> = p(w) for polynomials of degree <= 30
        nu = 3
        q = build_quadrature(120, 80, 2.0)
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=31) + 1j * rng.normal(size=31)
        w = 0.4 - 0.25j

        def poly(z):
            return sum(c * z**j for j, c in enumerate(coeffs))

        z = q.nodes
        # conj(K_w(z)) = (1 - conj(z) w)^{-nu} = K(w, z)
        inner = (nu - 1) * q.integrate(
            poly(z) * kernel_eval(nu, w, z) * (1 - np.abs(z) ** 2) ** nu
        )
        assert inner == pytest.approx(poly(w), rel=1e-10)


class TestCoherentVector:
    def test_origin(self):
        v, tail = coherent_vector(4, 0.0, 10)
        assert v[0] == 1.0 and np.all(v[1:] == 0) and tail == 0.0

    def test_norm_within_tail(self):
        for w in (0.3, 0.5 * np.exp(1.3j), 0.8j):
            v, tail = coherent_vector(3, w, 64)
            t = abs(w) ** 2
            # explicit geometric series tail for sum_{i>N} (nu)_i/i! t^i (1-t)^nu
            nsq = np.sum(np.abs(v) ** 2)
            assert 1.0 - tail <= nsq + 1e-15 <= 1.0 + 1e-15
            i = 65
            coeff = math.exp(gammaln(3 + i) - gammaln(3) - gammaln(i + 1.0))
            geo = coeff * t**i * (1 - t) ** 3 / (1 - t * (3 + i) / (i + 1))
            assert tail <= geo * 1.01 + 1e-15

    def test_self_inner_product(self):
        v, tail = coherent_vector(5, 0.6, 128)
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
        g = transporter(0.9)
        with pytest.raises(TruncationTailError):
            group_action_matrix(g, 2, 24, tail_tol=1e-10)

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

    def test_trace_and_norm(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        op = TruncatedOperator(2, m, hermitian=True)
        assert op.trace() == 4.0
        assert op.hs_norm() == pytest.approx(np.linalg.norm(m), rel=1e-15)
