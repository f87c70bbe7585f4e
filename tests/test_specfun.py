"""Special-function primitives against independent high-precision oracles."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskchannels.specfun import (
    HypergeometricPoleError,
    _log_gamma_form,
    berezin_eigenvalue,
    berezin_eigenvalue_loggamma,
    channel_constant_sq,
    gauss_2f1_unit,
    log_berezin_eigenvalue,
    log_pochhammer,
    log_pochhammer_ratios,
    plancherel_density,
    pochhammer,
    pochhammer_ratios,
)

mp.mp.dps = 50


def poch_oracle(a, n):
    """Brute-force rising factorial."""
    out = 1.0
    for i in range(n):
        out *= a + i
    return out


def hypergeom_sum_oracle(n, b, c):
    """Direct terminating sum: sum_j (-n)_j (b)_j / ((c)_j j!)."""
    return math.fsum(
        poch_oracle(-n, j) * poch_oracle(b, j) / (poch_oracle(c, j) * math.factorial(j))
        for j in range(n + 1)
    )


def cross_norm_oracle(mu, nu, k):
    """||(z-w)^k||^2 = k! sum_j binom(k,j) / ((mu)_j (nu)_{k-j})."""
    return math.factorial(k) * math.fsum(
        math.comb(k, j) / (poch_oracle(mu, j) * poch_oracle(nu, k - j))
        for j in range(k + 1)
    )


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(2, 3) == 24
        assert pochhammer(7.5, 0) == 1
        assert pochhammer(3, 2) == 12
        # forces the monomial norm ||z^2||^2 at weight 3
        assert math.factorial(2) / pochhammer(3, 2) == pytest.approx(1 / 6, abs=0)

    def test_integer_recurrence_exact(self):
        for a in (1, 2, 7, 30):
            for n in range(0, 25):
                assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)

    @given(
        a=st.floats(min_value=-20, max_value=50, allow_nan=False),
        n=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_recurrence(self, a, n):
        lhs = pochhammer(a, n + 1)
        rhs = pochhammer(a, n) * (a + n)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-250)

    @given(
        a=st.floats(min_value=0.1, max_value=80, allow_nan=False),
        n=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_log_variant_agrees(self, a, n):
        log_abs, sign = log_pochhammer(a, n)
        direct = poch_oracle(a, n)
        assert sign == math.copysign(1.0, direct)
        assert log_abs == pytest.approx(math.log(abs(direct)), rel=1e-12, abs=1e-12)

    def test_log_variant_negative_a(self):
        for a in (-0.5, -3.5, -7.2):
            for n in range(0, 12):
                log_abs, sign = log_pochhammer(a, n)
                direct = poch_oracle(a, n)
                assert sign * math.exp(log_abs) == pytest.approx(direct, rel=1e-12)
        # exact zero crossing
        log_abs, sign = log_pochhammer(-3, 10)
        assert sign == 0.0 and log_abs == -math.inf

    def test_no_overflow_at_extreme_arguments(self):
        log_abs, sign = log_pochhammer(1e6, 10**6)
        assert math.isfinite(log_abs) and sign == 1.0


class TestGaussUnitArgument:
    def test_empty_sum(self):
        assert gauss_2f1_unit(0, 3.3, 7.1) == 1.0

    def test_single_term(self):
        b, c = 2.5, 6.0
        assert gauss_2f1_unit(1, b, c) == pytest.approx((c - b) / c, rel=1e-15)

    def test_against_direct_sum(self):
        # frozen from the oracle: 1 + (-2)(-3)/4 + (-2)(-1)(-3)(-2)/((4)(5) 2!) = 2.8
        assert hypergeom_sum_oracle(2, -3.0, 4.0) == pytest.approx(2.8, abs=1e-15)
        assert gauss_2f1_unit(2, -3.0, 4.0) == pytest.approx(2.8, rel=1e-13)
        for (n, b, c) in [(3, 1.5, 5.0), (5, -2.0, 3.5), (4, 0.7, 9.0)]:
            assert gauss_2f1_unit(n, b, c) == pytest.approx(
                hypergeom_sum_oracle(n, b, c), rel=1e-12
            )

    def test_pole_signalled(self):
        with pytest.raises(HypergeometricPoleError):
            gauss_2f1_unit(3, 1.0, -1.0)


class TestChannelConstant:
    def test_k_zero(self):
        assert channel_constant_sq(2, 5, 0) == pytest.approx(1.0, rel=1e-15)

    def test_reciprocal_of_cross_norm(self):
        # the constant is defined by C^2 ||(z-w)^k||^2 = 1
        for (mu, nu, k) in [(2, 2, 1), (3, 5, 2), (2, 3, 3), (5, 5, 3), (2, 7, 2)]:
            assert channel_constant_sq(mu, nu, k) * cross_norm_oracle(
                mu, nu, k
            ) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_values(self):
        # frozen from the cross-norm oracle
        assert channel_constant_sq(2, 2, 1) == pytest.approx(1.0, rel=1e-13)
        assert channel_constant_sq(3, 5, 2) == pytest.approx(2.0, rel=1e-13)

    def test_identity_on_grid(self):
        for mu in (2, 3, 5):
            for nu in (2, 3, 5):
                for k in range(0, 4):
                    prod = channel_constant_sq(mu, nu, k) * cross_norm_oracle(mu, nu, k)
                    assert abs(prod - 1.0) < 1e-12


def eigenvalue_oracle(nu, lam):
    """|Gamma(i lam/2 + nu - 1/2)|^2 / (Gamma(nu) Gamma(nu-1)) at 50 digits."""
    g = mp.gamma(mp.mpc(nu - 0.5, lam / 2.0))
    return float(abs(g) ** 2 / (mp.gamma(nu) * mp.gamma(nu - 1)))


class TestPochhammerRatios:
    @pytest.mark.parametrize(
        "numer, denom, first, count",
        [((1.0, 801.0), (804.0, 2.0), 0.37, 51201), ((2.5,), (1.0,), 1.0, 2000),
         ((0.5,), (2.0,), 0.5, 100000), ((2.0, 3.0, 3.0), (1.0, 1.0, 6.0), 1.0, 4)],
    )
    def test_products_match_mpmath(self, numer, denom, first, count):
        # entry j is j cumprod steps of 2 (len(numer) + len(denom)) roundings
        table = pochhammer_ratios(count, numer, denom, first)
        for j in sorted({0, 1, 3, 10, 1000, count // 2, count - 1} & set(range(count))):
            exact = mp.mpf(first)
            for a in numer:
                exact *= mp.rf(a, j)
            for b in denom:
                exact /= mp.rf(b, j)
            bound = (len(numer) + len(denom)) * j * np.finfo(float).eps
            assert table[j] == pytest.approx(float(exact), rel=bound, abs=0)

    @pytest.mark.parametrize("nu", [2.0, 3.5, 800.0, 1e11])
    def test_log_table_matches_mpmath(self, nu):
        # log(j!/(nu)_j) leaves the double range long before j = 1e5
        table = log_pochhammer_ratios(100001, (1.0,), (nu,))
        assert table[0] == 0.0
        for j in (1, 10, 1000, 50000, 100000):
            exact = float(mp.log(mp.factorial(j)) - (mp.loggamma(nu + j) - mp.loggamma(nu)))
            assert abs(table[j] - exact) <= 32 * np.finfo(float).eps * (abs(exact) + 1.0)


class TestBerezinEigenvalue:
    def test_value_at_origin(self):
        # Gamma(3/2)^2 = pi/4, frozen from the closed form
        assert berezin_eigenvalue(2, 0.0) == pytest.approx(math.pi / 4, rel=1e-14)

    def test_symmetry(self):
        for nu in (2, 4, 9):
            for lam in (0.3, 1.7, 5.0):
                assert berezin_eigenvalue(nu, lam) == berezin_eigenvalue(nu, -lam)

    def test_high_precision_oracle(self):
        for nu in (2, 3, 7, 50, 200):
            for lam in (0.0, 0.5, 2.0, 11.0):
                assert berezin_eigenvalue(nu, lam) == pytest.approx(
                    eigenvalue_oracle(nu, lam), rel=1e-13
                )

    def test_limit_and_halving(self):
        d200 = 1.0 - berezin_eigenvalue(200, 2.0)
        d400 = 1.0 - berezin_eigenvalue(400, 2.0)
        assert abs(d200) < 0.05
        assert d200 / d400 == pytest.approx(2.0, abs=0.05)

    def test_two_route_agreement(self):
        lams = np.linspace(-20, 20, 41)
        for nu in range(2, 51):
            for lam in lams:
                a = berezin_eigenvalue(nu, lam)
                b = berezin_eigenvalue_loggamma(nu, lam)
                assert abs(a - b) <= 1e-12 * abs(b)

    def test_monotone_and_bounded(self):
        lams = np.linspace(0.0, 25.0, 400)
        for nu in range(2, 51):
            vals = np.array([berezin_eigenvalue(nu, l) for l in lams])
            assert np.all(np.diff(vals) <= 1e-15)
            assert vals[0] <= 1.0 + 1e-15  # b(0) <= 1
            assert np.all(vals <= vals[0] + 1e-15)

    @pytest.mark.parametrize("nu", [2, 4, 50])
    @pytest.mark.parametrize("lam", [1e10, 1e200, 1e300])
    def test_huge_lambda_against_mpmath(self, nu, lam):
        # lambda^2/4 overflows past 2.7e154; the factors are formed as
        # hypot(j - 1/2, lambda/2)^2 in logs, so log b stays finite, and
        # b itself underflows to 0 like the exact value
        exact = 2 * mp.re(mp.loggamma(mp.mpc(nu - 0.5, mp.mpf(lam) / 2))) - mp.loggamma(
            nu) - mp.loggamma(nu - 1)
        assert log_berezin_eigenvalue(nu, lam) == pytest.approx(float(exact), rel=1e-14)
        assert berezin_eigenvalue(nu, lam) == pytest.approx(float(mp.exp(exact)), abs=0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1e4])
    def test_huge_weight_memory_is_bounded(self, lam):
        # the 10^7 - 1 factors are summed in blocks of 2^16; one array of
        # them all would peak near 240 MB
        nu = 10**7
        tracemalloc.start()
        try:
            value = log_berezin_eigenvalue(nu, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        # the log-Gamma route subtracts log Gamma(nu) + log Gamma(nu - 1)
        # ~ 3e8 from a sum of that size, so it is off by a few units in the
        # last place of 3e8 (~1e-7 in log b), not by 1e-12 relative as at
        # small nu; the product route pairs its factors before the logs
        # (test_large_weight_against_mpmath)
        scale = math.lgamma(nu) + math.lgamma(nu - 1)
        assert abs(value - _log_gamma_form(nu, lam)) <= 8 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("nu", [10**5, 10**7])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0, 40.0])
    def test_large_weight_against_mpmath(self, nu, lam):
        # each factor (j - 1/2)^2 + lambda^2/4 = j(j-1) + h^2 is paired with
        # the j(j-1) of Gamma(nu) Gamma(nu-1) before the logs, so no two
        # large logs cancel: log b keeps a few eps absolute, plus eps per
        # unit of the log sech term pi lambda/2 that the sum cancels
        with mp.workdps(40):
            exact = 2 * mp.re(mp.loggamma(mp.mpc(nu - 0.5, mp.mpf(lam) / 2))) - mp.loggamma(
                nu) - mp.loggamma(nu - 1)
            err = abs(log_berezin_eigenvalue(nu, lam) - exact)
        assert err <= 4 * np.finfo(float).eps * (1.0 + math.pi * lam / 2)

    @pytest.mark.parametrize("nu", [2.5, 7.3, 800.5, 10**5 + 0.25, 10**7 + 0.5])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    def test_non_integer_weight_against_mpmath(self, nu, lam):
        # the log-Gamma form runs only at the base weight f = nu - N in (1, 2],
        # N = ceil(nu) - 2, whose logs are O(1); the N steps to nu are the
        # paired factors of the integer route, so no large logs cancel
        with mp.workdps(40):
            exact = 2 * mp.re(mp.loggamma(mp.mpc(nu - 0.5, mp.mpf(lam) / 2))) - mp.loggamma(
                nu) - mp.loggamma(nu - 1)
            err = abs(log_berezin_eigenvalue(nu, lam) - exact)
        assert err <= 1e-14

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_non_finite_lambda_is_an_error(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite"):
            berezin_eigenvalue(4, lam)

    def test_real_weight_route(self):
        # non-integer weights start from complex log-Gamma at a weight in (1, 2)
        assert berezin_eigenvalue(2.5, 1.0) == pytest.approx(
            eigenvalue_oracle(2.5, 1.0), rel=1e-12
        )


class TestPlancherelDensity:
    def test_zero(self):
        assert plancherel_density(0.0) == 0.0

    def test_against_c_function_oracle(self):
        # |c(lam)|^{-2} from c(lam) = pi^{-1/2} Gamma(i lam/2)/Gamma((i lam + 1)/2)
        for lam in (0.5, 1.0, 2.0, 6.0):
            c = mp.gamma(mp.mpc(0, lam / 2)) / (
                mp.sqrt(mp.pi) * mp.gamma(mp.mpc(0.5, lam / 2))
            )
            oracle = float(1.0 / abs(c) ** 2)
            assert plancherel_density(lam) == pytest.approx(oracle, rel=1e-13)
        assert plancherel_density(2.0) == pytest.approx(
            math.pi * math.tanh(math.pi), rel=1e-15
        )

    def test_large_argument_ratio(self):
        lam = 300.0
        assert plancherel_density(lam) / (math.pi * lam / 2) == pytest.approx(
            1.0, abs=1e-12
        )
