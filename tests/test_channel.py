"""Channel coefficients, application, traces, and functional calculus.

The quadrature oracles here integrate the defining integral formulas directly
and never touch the coefficient algebra they are checking.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from oracles import (
    coupling_response_oracle,
    gammaform_eigenvalue_oracle,
    lowest_state,
    projection_integral_oracle,
    random_psd,
)

from diskchannels.bergman import TruncatedOperator
from diskchannels.channel import (
    ChannelParams,
    SpectrumWindowError,
    _abs_sum_trace,
    _derivative_sum,
    _weight_grid,
    apply_channel,
    banded_trace,
    diagonal_output_spectrum,
    diagonal_response,
    functional_trace,
    isometry_weights,
    output_trace_interval,
    pk_star_vector,
    projection_coefficients,
    response_tail_bound,
    sqrt_series_coefficient,
    sqrt_series_coefficients,
)
from diskchannels.specfun import log_channel_constant_sq
from diskchannels.transforms import radial_poly, toeplitz_diagonal


class TestProjectionCoefficients:
    def test_grade_zero_constant(self):
        pc = projection_coefficients(ChannelParams(2, 3, 0), 6)
        m = np.arange(7)[:, None] + np.arange(7)[None, :]  # retained grades only
        assert np.abs(pc.values[:7, :7][m <= 6] - 1.0).max() < 1e-14

    def test_vanishing_below_grade(self):
        pc = projection_coefficients(ChannelParams(2, 3, 2), 8)
        assert pc[0, 0] == 0.0 and pc[1, 0] == 0.0 and pc[0, 1] == 0.0

    @pytest.mark.parametrize("mu,nu,k", [(2, 2, 1), (2, 3, 2), (3, 4, 1)])
    def test_integral_form_oracle(self, mu, nu, k):
        pc = projection_coefficients(ChannelParams(mu, nu, k), 6)
        for (m, n) in [(k, 0), (1, k), (2, 2), (3, 1)]:
            if m + n < k:
                continue
            for zeta in (0.3, 0.2 - 0.35j):
                oracle = projection_integral_oracle(mu, nu, k, m, n, zeta)
                assert oracle == pytest.approx(
                    pc[m, n] * zeta ** (m + n - k), rel=2e-8, abs=1e-9
                )


class TestAdjointVector:
    def test_grade_zero(self):
        assert pk_star_vector(ChannelParams(2, 3, 0), 0) == [(0, 0, 1.0)]

    def test_isometry_identity(self):
        # <P* zeta^p, P* zeta^p> = ||zeta^p||^2, i.e. sum of w^2 equals 1
        for (mu, nu, k) in [(2, 2, 1), (2, 3, 2), (3, 5, 3)]:
            params = ChannelParams(mu, nu, k)
            for p in range(0, 51, 10):
                w = isometry_weights(params, p)
                assert np.sum(w**2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mu, nu, k, p", [(200, 3, 1, 5000), (200, 800, 2, 40000)])
    def test_isometry_identity_where_the_row_ends_underflow(self, mu, nu, k, p):
        # r_0[p] (and at nu = 800 also r_{p+k}[p]) is below 1e-308 while the
        # middle of the row is O(1): the recurrence carries a binary exponent
        w = isometry_weights(ChannelParams(mu, nu, k), p)
        assert np.all(np.isfinite(w))
        assert np.sum(w**2) == pytest.approx(1.0, abs=1e-12)

    def test_sign_pattern_k1(self):
        # P_1* of the constant is proportional to (z - w): opposite signs
        vec = pk_star_vector(ChannelParams(2, 2, 1), 0)
        assert sorted((m, n) for m, n, _ in vec) == [(0, 1), (1, 0)]
        coeffs = {(m, n): c for m, n, c in vec}
        assert coeffs[(1, 0)] == pytest.approx(-coeffs[(0, 1)], rel=1e-14)

    def test_mutual_orthogonality(self):
        # P_k P_{k'}* = 0: coupling rows of different grades are orthogonal
        mu, nu = 2, 3
        for (k1, k2) in [(0, 1), (1, 2), (0, 3), (2, 3)]:
            pc1 = projection_coefficients(ChannelParams(mu, nu, k1), 60)
            for p in range(0, 41, 8):
                total = 0.0
                for (m, n, beta) in pk_star_vector(ChannelParams(mu, nu, k2), p):
                    total += pc1[m, n] * beta
                assert abs(total) < 1e-12


class TestApplyChannel:
    def test_k0_lowest_spectrum_with_oracles(self):
        mu, nu = 2, 3
        out = apply_channel(lowest_state(mu), ChannelParams(mu, nu, 0, output_degree=30))
        lam = np.real(np.diag(out.matrix))
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.abs(off).max() == 0.0
        # oracle 1: quadrature of the kernel integral formula
        oracle = gammaform_eigenvalue_oracle(mu, nu, np.arange(6))
        assert np.abs(lam[:6] - oracle).max() < 1e-10
        # oracle 2: partial trace against the terminating 2F1 identity
        big = diagonal_response(ChannelParams(mu, nu, 0), 0, np.arange(400000))
        assert np.sum(big) == pytest.approx(
            (mu + nu - 1) / (mu - 1), abs=2e-4
        )

    def test_trace_scaling_with_tail(self):
        # unit-trace input: bracketed trace equals (mu+nu+2k-1)/(mu-1)
        A = random_psd(2, 6, 2, seed=5)
        params = ChannelParams(2, 3, 1)
        target = params.trace_factor
        tr, est, bound = output_trace_interval(A, params, cut=2000, extend_to=100000)
        assert tr <= target <= tr + bound
        assert tr + est == pytest.approx(target, rel=1e-7)

    def test_positivity(self):
        A = random_psd(3, 10, 3, seed=9)
        out = apply_channel(A, ChannelParams(3, 4, 2, output_degree=200))
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10

    def test_grade_conservation(self):
        # entry (p, q) only sees input diagonals with m - m' = p - q
        rng = np.random.default_rng(3)
        base = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        A_full = TruncatedOperator(2, base)
        params = ChannelParams(2, 3, 1, output_degree=20)
        out_full = apply_channel(A_full, params).matrix
        for off in (-2, 0, 3):
            picked = np.zeros_like(base)
            idx = np.arange(7)
            keep = (idx[:, None] - idx[None, :]) == -off  # m - m' = off
            picked[keep.T] = base[keep.T]
            out_off = apply_channel(TruncatedOperator(2, picked), params).matrix
            mask = np.zeros_like(out_full, dtype=bool)
            p_idx = np.arange(21)
            mask[(p_idx[:, None] - p_idx[None, :]) == -off] = True
            assert np.abs(out_off[~mask.T]).max() < 1e-15
            assert np.abs(out_full.T[mask] - out_off.T[mask]).max() < 1e-13

    def test_diagonal_in_diagonal_out(self):
        A = TruncatedOperator(2, np.diag([0.5, 0.3, 0.2]), hermitian=True)
        out = apply_channel(A, ChannelParams(2, 4, 1, output_degree=40))
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.abs(off).max() == 0.0
        spec = diagonal_output_spectrum(
            ChannelParams(2, 4, 1), [0.5, 0.3, 0.2], 40
        )
        assert np.abs(np.real(np.diag(out.matrix)) - spec).max() < 1e-15

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(lowest_state(3), ChannelParams(2, 3, 0))

    def test_rotation_equivariance_exact(self):
        theta = 0.8
        params = ChannelParams(2, 3, 1, output_degree=24)
        A = random_psd(2, 8, 3, seed=21)
        rot_in = np.exp(1j * (2 + 2 * np.arange(8)) * theta)
        conj_in = TruncatedOperator(
            2, rot_in[:, None] * A.matrix * np.conj(rot_in)[None, :], hermitian=True
        )
        lhs = apply_channel(conj_in, params).matrix
        out = apply_channel(A, params).matrix
        s = params.target_weight
        rot_out = np.exp(1j * (s + 2 * np.arange(25)) * theta)
        rhs = rot_out[:, None] * out * np.conj(rot_out)[None, :]
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestTailBound:
    @pytest.mark.parametrize("mu,nu,k,m", [(2, 3, 0, 0), (3, 4, 1, 2), (3, 12, 2, 5)])
    def test_bound_dominates_exact_tail(self, mu, nu, k, m):
        params = ChannelParams(mu, nu, k)
        cut = 500
        exact = float(np.sum(diagonal_response(params, m, np.arange(cut + 1, 10**6))))
        bound = response_tail_bound(params, m, cut)
        assert exact <= bound
        assert bound <= 50 * exact  # not uselessly loose at these sizes


class TestFunctionalTrace:
    def test_linear(self):
        B = TruncatedOperator(5, np.diag([0.2, 0.3, 0.1]), hermitian=True)
        assert functional_trace(B, [0, 1]) == pytest.approx(0.6, rel=1e-14)

    def test_square_is_frobenius(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(6, 6))
        q, _ = np.linalg.qr(g)
        m = (q * rng.uniform(0.05, 0.95, size=6)) @ q.T  # spectrum inside [0, 1]
        B = TruncatedOperator(4, m, hermitian=True)
        assert functional_trace(B, [0, 0, 1]) == pytest.approx(
            np.linalg.norm(m) ** 2, rel=1e-12
        )

    def test_cube_example(self):
        B = TruncatedOperator(2, np.diag([0.5, 0.25]), hermitian=True)
        assert functional_trace(B, [0, 0, 0, 1]) == pytest.approx(0.140625, abs=1e-15)

    def test_window_enforced(self):
        B = TruncatedOperator(2, np.diag([1.5, 0.0]), hermitian=True)
        with pytest.raises(SpectrumWindowError):
            functional_trace(B, [0, 1])

    def test_psi_zero_at_origin_required(self):
        B = TruncatedOperator(2, np.diag([0.5]), hermitian=True)
        with pytest.raises(ValueError):
            functional_trace(B, [1.0, 1.0])


class TestSqrtSeries:
    def test_first_coefficients(self):
        assert sqrt_series_coefficient(1) == pytest.approx(0.5, rel=1e-14)
        assert sqrt_series_coefficient(2) == pytest.approx(0.125, rel=1e-14)

    def test_positive_and_sum(self):
        c = sqrt_series_coefficients(10**6)
        assert np.all(c > 0)
        assert 0.999 <= float(np.sum(c)) <= 1.0

    def test_tail_scaling(self):
        # coefficients decay like i^{-3/2}: tail of the sum ~ c / sqrt(I)
        c = sqrt_series_coefficients(10**6)
        missing = 1.0 - float(np.sum(c))
        assert missing == pytest.approx(1.0 / math.sqrt(math.pi * 10**6), rel=0.01)


class TestChannelSymbolRoute:
    def test_output_symbol_matches_berezin_sums(self):
        # two fully independent routes to the finite-weight alternating sums:
        # symbol(T(T_f/(mu-1)))(z) through the channel machinery, against the
        # coefficient formula through closed-form Berezin transforms
        from diskchannels.transforms import (
            covariant_symbol,
            e_transform,
            radial_poly,
            toeplitz_operator,
        )

        f = radial_poly([0, 0, 1.0])
        mu = 2
        for nu in (3, 5):
            for k in (0, 1, 2):
                T_in = toeplitz_operator(f, mu, 300)
                A = TruncatedOperator(mu, T_in.matrix / (mu - 1), hermitian=True)
                out = apply_channel(A, ChannelParams(mu, nu, k, output_degree=420))
                for z in (0.0, 0.3, 0.25 - 0.35j):
                    lhs = covariant_symbol(out, z)
                    rhs = e_transform(f, mu, k, z, nu=nu)
                    assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_adjoint_vector_norm_identity(self):
        # <P* zeta^p, P* zeta^p> computed from the monomial expansion equals
        # ||zeta^p||^2 (independent of the normalized-weight route)
        from diskchannels.bergman import monomial_norm_sq

        for (mu, nu, k) in [(2, 3, 1), (3, 4, 2)]:
            params = ChannelParams(mu, nu, k)
            s = params.target_weight
            for p in (0, 3, 17, 50):
                total = math.fsum(
                    coeff**2 * monomial_norm_sq(mu, m) * monomial_norm_sq(nu, n)
                    for m, n, coeff in pk_star_vector(params, p)
                )
                assert total == pytest.approx(
                    monomial_norm_sq(s, p), rel=1e-12
                )


class TestSchattenBounds:
    def test_trace_and_hs_norm_inequalities(self):
        # ||T(A)||_p <= (2 (mu+nu+2k-1)/(mu-1))^{1/p} ||A||_p at p = 1, 2,
        # checked as upper bounds on compressed outputs (compression can only
        # shrink Schatten norms); sharpness is not claimed
        rng = np.random.default_rng(17)
        base = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        A = TruncatedOperator(2, base)  # general, non-Hermitian
        nuclear_in = float(np.sum(np.linalg.svd(base, compute_uv=False)))
        frob_in = float(np.linalg.norm(base))
        for (mu, nu, k) in [(2, 3, 0), (2, 3, 2), (2, 5, 1)]:
            params = ChannelParams(mu, nu, k, output_degree=400)
            out = apply_channel(A, params).matrix
            factor = 2.0 * params.trace_factor
            nuclear_out = float(np.sum(np.linalg.svd(out, compute_uv=False)))
            assert nuclear_out <= factor * nuclear_in * (1 + 1e-12)
            assert float(np.linalg.norm(out)) <= math.sqrt(factor) * frob_in


def dense_channel_reference(A, params):
    """The dense scatter loop apply_channel ran before it returned bands.

    One change: m_hi keeps m - off on the weight grid.  The loop read past
    the grid (IndexError) when cut + k < degree and A has entries below the
    diagonal; wherever it ran, the clipped range is the same.
    """
    L = params.default_output_degree()
    k = params.k
    d = A.degree
    nz_rows, nz_cols = np.nonzero(np.abs(A.matrix) > 0)
    out = np.zeros((L + 1, L + 1), dtype=complex)
    if len(nz_rows) == 0:
        return out
    m_top = min(d, L + k)
    V = _weight_grid(params, L, m_top)
    offsets = np.unique(nz_cols - nz_rows)
    if A.hermitian:
        offsets = offsets[offsets >= 0]
    for off in offsets.tolist():
        m_lo, m_hi = max(0, off), min(m_top, d + off, m_top + off)
        if m_lo > m_hi:
            continue
        ms = np.arange(m_lo, m_hi + 1)
        diag = A.matrix[ms - off, ms]
        if not np.any(np.abs(diag) > 0):
            continue
        base = np.arange(L + 1 - abs(off))
        ps, qs = (base + off, base) if off >= 0 else (base, base - off)
        block = (V[ps][:, ms] * V[qs][:, ms - off]) @ diag
        out[qs, ps] = block
        if A.hermitian and off > 0:
            out[ps, qs] = np.conj(block)
    return out


def dense_psi_trace(M, psi, hermitian):
    """(sum_j a_j Tr M^j, the same sum over absolute values) from M densely.

    Hermitian M goes through eigvalsh; otherwise through dense matrix powers,
    since eigvalsh reads one triangle only.  The absolute sum bounds every
    product the trace adds up, so it is the scale of the rounding error.
    """
    if hermitian:
        lam = np.linalg.eigvalsh(M)
        pairs = [(np.sum(lam**j), np.sum(np.abs(lam) ** j)) for j in range(len(psi))]
    else:
        absM = np.abs(M)
        pairs = [
            (np.trace(np.linalg.matrix_power(M, j)),
             np.trace(np.linalg.matrix_power(absM, j)))
            for j in range(len(psi))
        ]
    value = sum(a * pairs[j][0] for j, a in enumerate(psi) if j)
    scale = sum(abs(a) * pairs[j][1] for j, a in enumerate(psi) if j)
    return value, scale


@st.composite
def banded_cases(draw):
    hermitian = draw(st.booleans())
    d = draw(st.integers(0, 12))
    offsets = draw(st.sets(st.integers(0 if hermitian else -d, d), min_size=1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = np.zeros((d + 1, d + 1), dtype=complex)
    idx = np.arange(d + 1)
    for off in offsets:
        rows = idx[max(0, -off) : d + 1 - max(0, off)]
        vals = rng.normal(size=rows.size)
        if not (hermitian and off == 0):
            vals = vals + 1j * rng.normal(size=rows.size)
        M[rows, rows + off] = vals
        if hermitian:
            M[rows + off, rows] = np.conj(vals)
    mu = draw(st.sampled_from([2, 3]))
    params = ChannelParams(
        mu, draw(st.integers(2, 40)), draw(st.sampled_from([0, 1, 2])),
        output_degree=draw(st.integers(0, 512)),
    )
    psi = [0.0] + draw(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=4)
    )
    return TruncatedOperator(mu, M, hermitian=hermitian), params, psi


class TestBandedOutput:
    @given(case=banded_cases())
    @settings(max_examples=80, deadline=None)
    def test_bands_match_dense_loop_and_spectrum(self, case):
        A, params, psi = case
        B = apply_channel(A, params)
        dense = B.matrix
        assert dense.tobytes() == dense_channel_reference(A, params).tobytes()
        assert B.is_diagonal == TruncatedOperator(A.weight, dense).is_diagonal
        value, scale = dense_psi_trace(dense, psi, A.hermitian)
        assert abs(banded_trace(B, psi) - value) <= 1e-12 * scale

    def test_cut_below_input_degree(self):
        # entries below the diagonal with cut + k < degree
        A = TruncatedOperator(2, np.tril(np.ones((6, 6))))
        params = ChannelParams(2, 2, 1, output_degree=2)
        dense = apply_channel(A, params).matrix
        assert dense.tobytes() == dense_channel_reference(A, params).tobytes()

    def test_dense_sweep_shape(self):
        # degree-23 rank-3 state at cut 2048, as in the channel-limit runner
        A = random_psd(2, 24, 3, seed=1)
        B = apply_channel(A, ChannelParams(2, 10, 1, output_degree=2048))
        assert B.bandwidth == 23
        lam = np.linalg.eigvalsh(B.matrix)
        for psi in ([0, 0, 1], [0, 0.3, -0.2, 0.5, 1.0]):
            value = sum(a * np.sum(lam**j) for j, a in enumerate(psi) if j)
            assert banded_trace(B, psi) == pytest.approx(value, rel=1e-12)

    def test_band_storage_at_nu_800_auto_cut(self):
        # cut 64 nu = 51200: the dense output would take 42 GB
        A = random_psd(2, 24, 3, seed=8)
        tracemalloc.start()
        try:
            B = apply_channel(A, ChannelParams(2, 800, 1, output_degree=51200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(band.nbytes for band in B.bands.values()) <= 24 * 51201 * 16
        assert peak <= 200 * 2**20


def log_norm_sq(nu, j):
    """log(j!/(nu)_j) per entry from three log-gammas, each at most
    g = (nu+j) log(nu+j) in size and 2-eps accurate."""
    j = np.asarray(j, dtype=float)
    return gammaln(j + 1.0) - (gammaln(nu + j) - gammaln(nu))


def derivative_sum_reference(params, m, n, absolute=False):
    """The derivative sum S(m, n) with the explicit support masks.

    ``absolute`` makes every term positive: the term sum T(m, n) that bounds
    the rounding of S.
    """
    mu, nu, k = params.mu, params.nu, params.k
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    total = np.zeros(np.broadcast(m, n).shape)
    for j in range(k + 1):
        fall_m = np.ones_like(total)
        for i in range(j):
            fall_m = fall_m * (m - i)
        fall_n = np.ones_like(total)
        for i in range(k - j):
            fall_n = fall_n * (n - i)
        denom = math.prod(mu + i for i in range(j)) * math.prod(
            nu + i for i in range(k - j))
        sign = 1.0 if absolute else (-1.0) ** (k - j)
        term = sign * math.comb(k, j) / denom * fall_m * fall_n
        total = total + np.where((m >= j) & (n >= k - j), term, 0.0)
    return total


def diagonal_response_reference(params, m, p):
    """lambda_p(m) assembled per entry, each log-norm computed at its index."""
    p = np.asarray(p)
    n = p + params.k - m
    valid = n >= 0
    n_safe = np.where(valid, n, 0)
    S = derivative_sum_reference(params, m, n_safe)
    log_scale = (
        log_norm_sq(params.target_weight, p)
        - log_norm_sq(params.mu, m)
        - log_norm_sq(params.nu, n_safe)
    )
    with np.errstate(divide="ignore"):
        log_S2 = 2.0 * np.log(np.abs(S), where=S != 0, out=np.full_like(S, -np.inf))
    log_c2 = log_channel_constant_sq(params.mu, params.nu, params.k)
    with np.errstate(over="ignore"):  # at the masked n < 0 only
        return np.where(valid, np.exp(log_c2 + log_S2 + log_scale), 0.0)


def response_scale_reference(params, m, p):
    """r_m[p] = lambda_p(m)/S(m,n)^2 per entry, 0 where n = p + k - m < 0."""
    p = np.asarray(p)
    n = p + params.k - m
    log_scale = (
        log_norm_sq(params.target_weight, p)
        - log_norm_sq(params.mu, m)
        - log_norm_sq(params.nu, np.maximum(n, 0))
    )
    log_c2 = log_channel_constant_sq(params.mu, params.nu, params.k)
    with np.errstate(over="ignore"):  # at the masked n < 0 only
        return np.where(n >= 0, np.exp(log_c2 + log_scale), 0.0)


EPS = np.finfo(float).eps
# below this an entry has no digits to compare: both kernels may return 0 or
# a subnormal there
TINY = 1e-290


def kernel_agreement_bound(params, m, p):
    """How far the recurrence and the per-entry log-domain formula may differ.

    The sum of their derived rounding bounds: the log-domain formula is within
    32 eps g_p relative in r_m[p], g_p = (s+p) log(s+p), and the recurrence
    within (4p + 3.5m + 7k + 1) eps <= 32 eps g_p (derivation at the
    trace-tail allowance in experiments._row_channel_limit); their values of
    S differ only in the order of the k + 1 term sums, by at most 2k eps T.
    """
    p = np.asarray(p)
    k, s = params.k, params.target_weight
    n = np.maximum(p + k - m, 0)
    ref = diagonal_response_reference(params, m, p)
    r = response_scale_reference(params, m, p)
    S = np.abs(derivative_sum_reference(params, m, n))
    dS = 2 * k * EPS * derivative_sum_reference(params, m, n, absolute=True)
    g = (s + p) * np.log(s + p)
    return 64 * EPS * g * ref + r * (2 * S + dS) * dS


def isometry_weights_reference(params, p, n):
    """Signed w^{(p)}_{m,n} over the given n, assembled per entry."""
    n = np.asarray(n)
    m = p + params.k - n
    S = derivative_sum_reference(params, m, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_scale = 0.5 * (
            log_norm_sq(params.target_weight, p)
            - log_norm_sq(params.mu, m)
            - log_norm_sq(params.nu, n)
        )
        log_S = np.log(np.abs(S), where=S != 0, out=np.full_like(S, -np.inf))
        log_c = 0.5 * log_channel_constant_sq(params.mu, params.nu, params.k)
        out = np.sign(S) * np.exp(log_c + log_S + log_scale)
    return np.where((m >= 0) & (n >= 0), out, 0.0)


def assert_matches_reference(params, p, n, new):
    """Within the sum of the two derived rounding bounds of w = S r^{1/2}:
    half the relative bound on r of kernel_agreement_bound, plus r^{1/2}
    times the 2k eps T by which the two values of S differ; where r T^2 is
    below TINY an entry has no digits to compare."""
    n = np.asarray(n)
    m = p + params.k - n
    valid = (m >= 0) & (n >= 0)
    ref = isometry_weights_reference(params, p, n)
    m, n = np.where(valid, m, 0), np.where(valid, n, 0)
    s = params.target_weight
    r = np.exp(log_channel_constant_sq(params.mu, params.nu, params.k)
               + log_norm_sq(s, p) - log_norm_sq(params.mu, m) - log_norm_sq(params.nu, n))
    T = derivative_sum_reference(params, m, n, absolute=True)
    g = (s + p) * math.log(s + p)
    bound = 32 * EPS * g * np.abs(ref) + (np.sqrt(r) * 2 * params.k * EPS + math.sqrt(TINY)) * T
    assert np.all(np.abs(new - ref) <= np.where(valid, bound, 0.0))


def assert_matches_per_m_sum(params, diag, cut):
    """The output diagonal against the per-entry formula summed over the
    input degrees, within the rows' kernel_agreement_bound plus the sums:
    the reference adds the rows in ascending m, the Horner loop adds a row
    at each level from its degree down to 0, (degree + 1) roundings each."""
    ps = np.arange(cut + 1)
    ref = np.zeros(cut + 1)
    bound = np.zeros(cut + 1)
    for m in np.flatnonzero(diag).tolist():
        ref += diag[m] * diagonal_response_reference(params, m, ps)
        bound += diag[m] * kernel_agreement_bound(params, m, ps)
    bound += 2 * len(diag) * EPS * ref
    err = np.abs(diagonal_output_spectrum(params, diag, cut) - ref)
    assert np.all(err <= bound + TINY)


@st.composite
def coupling_cases(draw):
    params = ChannelParams(
        draw(st.sampled_from([2, 2.5, 3])),
        draw(st.sampled_from([2, 3.5, 40, 800])),
        draw(st.integers(0, 3)),
    )
    m = draw(st.integers(0, 40))
    p_top = draw(st.sampled_from([60, 5000, 400_000]))
    picks = draw(st.lists(st.integers(0, p_top), min_size=1, max_size=40))
    # every p below m - k, where lambda_p(m) vanishes, plus scattered p
    p = np.array(list(range(m + 2)) + picks)
    return params, m, p


class TestCouplingKernel:
    @given(case=coupling_cases())
    @settings(max_examples=120, deadline=None)
    def test_diagonal_response_matches_reference(self, case):
        params, m, p = case
        ref = diagonal_response_reference(params, m, p)
        err = np.abs(diagonal_response(params, m, p) - ref)
        assert np.all(err <= kernel_agreement_bound(params, m, p) + TINY)

    @given(case=coupling_cases())
    @settings(max_examples=120, deadline=None)
    def test_isometry_weights_match_reference(self, case):
        params, m, picks = case
        for p in (m, int(picks[-1])):
            # full row, then n past p + k where m < 0
            n = np.arange(p + params.k + 1) if p <= 5000 else picks % (p + params.k + 1)
            n = np.concatenate([n, [p + params.k + 1, p + params.k + 7]])
            assert_matches_reference(params, p, n, isometry_weights(params, p, n))
        full = isometry_weights(params, m)
        assert_matches_reference(params, m, np.arange(m + params.k + 1), full)

    @given(
        mu=st.sampled_from([2, 2.5, 3]),
        nu=st.sampled_from([2, 3.5, 40, 800]),
        k=st.integers(0, 3),
        cut=st.sampled_from([0, 2, 9, 300, 20_000, 400_000]),
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(0, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_spectrum_matches_per_m_sum(self, mu, nu, k, cut, seed, degree):
        params = ChannelParams(mu, nu, k)
        rng = np.random.default_rng(seed)
        diag = rng.random(degree + 1) * (rng.random(degree + 1) < 0.7)
        assert_matches_per_m_sum(params, diag, cut)

    def test_output_spectrum_in_the_benchmark_regime(self):
        # the channel-limit row of the degree-64 toeplitz state (f = |z|^4,
        # mu = 2, k = 1) at nu = 800 and its auto cut 64 nu
        diag = toeplitz_diagonal(radial_poly([0.0, 0.0, 1.0]), 2.0, 64)
        assert_matches_per_m_sum(ChannelParams(2, 800.0, 1), diag / np.sum(diag), 64 * 800)

    @pytest.mark.parametrize("m,cut", [(399, 10**5), (1500, 10**4)])
    def test_output_spectrum_past_the_range_of_the_degree_weight(self, m, cut):
        # (mu)_m/m! passes the double range at m = 308 for mu = 1000, and
        # r_0[p] underflows long before the cut; the Horner weights and r_0
        # carry binary exponents, so the unit input's output stays finite
        params = ChannelParams(1000, 5, 1)
        unit = np.zeros(m + 1)
        unit[m] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = diagonal_output_spectrum(params, unit, cut)
        assert np.all(np.isfinite(got))
        ps = np.arange(cut + 1)
        err = np.abs(got - diagonal_response_reference(params, m, ps))
        assert np.all(err <= kernel_agreement_bound(params, m, ps) + TINY)

    def test_output_spectrum_rescales_between_far_apart_degrees(self):
        # w_0 = 0!/(1000)_0 over 300!/(1000)_300 is about 2^-1012: the
        # accumulator is rescaled by a power of two before degree 0 is added
        diag = np.zeros(301)
        diag[[0, 300]] = 1.0
        assert_matches_per_m_sum(ChannelParams(1000, 5, 1), diag, 10**4)

    def test_output_spectrum_beyond_the_double_range_is_an_error(self):
        # (1000)_1500/1500! is about 2^2400: no one binary scale holds the
        # accumulator of degree 1500 and the term of degree 0
        diag = np.zeros(1501)
        diag[[0, 1500]] = 1.0
        with pytest.raises(ValueError, match="span more than the double range"):
            diagonal_output_spectrum(ChannelParams(1000, 5, 1), diag, 10**4)

    def test_output_spectrum_memory_is_its_buffers_and_tables(self):
        # arrays of cut + k + 2 or fewer entries, k = 1: the loop holds acc,
        # r_0 (in range here, so without an exponent table), the step table,
        # one falling-factorial table and the work buffer, 5 in all and
        # nothing per degree; the most at any moment is while the falling
        # table is built, after acc, r_0 and the step table: its arange and
        # two products, 6 in all (building r_0 or the step table takes at
        # most 5 with acc)
        cut = 400_000
        params = ChannelParams(2, 800.0, 1)
        diag = toeplitz_diagonal(radial_poly([0.0, 0.0, 1.0]), 2.0, 64)
        tracemalloc.start()
        try:
            diagonal_output_spectrum(params, diag, cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * (cut + params.k + 2) + 2**16

    @pytest.mark.parametrize(
        "mu,nu,k,diag",
        [
            (6, 3.5, 0, [1.0]),
            (5, 3, 1, [0, 0, 0, 0, 1.0]),
            (6, 3.5, 2, [0.2, 0.5, 0, 0, 0, 1.5]),
            (9, 40, 3, [0, 0, 1.0, 0, 0, 0, 0, 2.0]),
        ],
    )
    def test_abs_sum_trace_matches_direct_sum(self, mu, nu, k, diag):
        # the Gauss-sum closed form against the per-entry sum of r T^2; at
        # mu >= 5 the terms fall like p^{-mu}, so p < 20000 holds every digit
        params = ChannelParams(mu, nu, k)
        p = np.arange(20_000)
        direct = 0.0
        for m, weight in enumerate(diag):
            n = np.maximum(p + k - m, 0)
            T = derivative_sum_reference(params, m, n, absolute=True)
            direct += weight * float(np.sum(response_scale_reference(params, m, p) * T * T))
        assert _abs_sum_trace(params, diag) == pytest.approx(direct, rel=1e-11)

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("nu", [3.5, 800, 2000])
    @pytest.mark.parametrize("mu", [2, 2.5, 50])
    def test_responses_match_40_digits(self, mu, nu, k):
        # each entry within its derived rounding bound of the 40-digit value:
        # 32 eps g_p relative in r_m[p], plus S off by gamma T with
        # gamma = (12 g_0 + 2k + 4) eps (the trace-tail allowance's terms)
        params = ChannelParams(mu, nu, k)
        s = params.target_weight
        gamma = (12 * s * math.log(s) + 2 * k + 4) * EPS
        for m in (0, 1, 6, 63, 200):
            p_top = 400_000 if m == 63 else 31_623
            lo = max(0, m - k)
            picks = {max(0, lo - 1), lo, lo + 1, 997, p_top}
            # the output indices on both sides of every sign change of S
            n = np.arange(p_top + k - m + 1)
            sign = np.sign(_derivative_sum(params, m, n))
            for n0 in np.flatnonzero(sign[1:] != sign[:-1]).tolist():
                picks.update(q for q in (n0 + m - k, n0 + m - k + 1) if q >= 0)
            ps = np.array(sorted(picks))
            got = diagonal_response(params, m, ps)
            assert np.all(np.isfinite(got))
            for q, value in zip(ps.tolist(), got.tolist()):
                lam, r, S, T = coupling_response_oracle(mu, nu, k, m, q)
                if r * T * T < TINY:  # no digits left: 0 or a subnormal
                    assert value <= TINY
                    continue
                g = (s + q) * math.log(s + q)
                dS = gamma * T
                bound = 32 * EPS * g * lam + r * (2 * abs(S) + dS) * dS
                assert abs(value - lam) <= bound, (m, q, value, lam)
