"""Special-function primitives against independent high-precision oracles."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import berezin_eigenvalue_loggamma

from diskchannels import specfun
from diskchannels.experiments import parse_config, run_experiment
from diskchannels.specfun import (
    BLOCK,
    CarriedCumprod,
    _first_exit,
    _log_gamma_form,
    berezin_eigenvalue,
    channel_constant_sq,
    log_berezin_eigenvalue,
    log_pochhammer,
    log_pochhammer_ratios,
    pochhammer,
    pochhammer_ratios,
    pochhammer_steps,
    scaled_cumprod,
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
        log_abs = log_pochhammer(a, n)
        direct = poch_oracle(a, n)
        assert log_abs == pytest.approx(math.log(abs(direct)), rel=1e-12, abs=1e-12)

    def test_log_variant_negative_a(self):
        # the log form serves positive weights only; a <= 0 is refused
        for a in (-0.5, -3, 0.0, math.nan):
            with pytest.raises(ValueError, match="a > 0"):
                log_pochhammer(a, 4)

    def test_no_overflow_at_extreme_arguments(self):
        assert math.isfinite(log_pochhammer(1e6, 10**6))


class TestGaussUnitArgument:
    """Chu-Vandermonde: the terminating 2F1(-n, b; c; 1) is (c-b)_n/(c)_n,
    entry n of the table ``pochhammer_ratios(count, (c - b,), (c,))``."""

    def test_empty_sum(self):
        assert pochhammer_ratios(1, (7.1 - 3.3,), (7.1,))[0] == 1.0

    def test_single_term(self):
        b, c = 2.5, 6.0
        assert pochhammer_ratios(2, (c - b,), (c,))[1] == pytest.approx((c - b) / c, rel=1e-15)

    def test_against_direct_sum(self):
        # frozen from the oracle: 1 + (-2)(-3)/4 + (-2)(-1)(-3)(-2)/((4)(5) 2!) = 2.8
        assert hypergeom_sum_oracle(2, -3.0, 4.0) == pytest.approx(2.8, abs=1e-15)
        assert pochhammer_ratios(3, (7.0,), (4.0,))[2] == pytest.approx(2.8, rel=1e-13)
        for (n, b, c) in [(3, 1.5, 5.0), (5, -2.0, 3.5), (4, 0.7, 9.0)]:
            assert pochhammer_ratios(n + 1, (c - b,), (c,))[n] == pytest.approx(
                hypergeom_sum_oracle(n, b, c), rel=1e-12
            )


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


def exponents(expo, count):
    """An exponent array, or zeros for None (every entry plain)."""
    return np.zeros(count, dtype=np.int64) if expo is None else expo


def first_exit(values):
    """The first entry out of the normal double range by magnitude (or NaN),
    len(values) if none is."""
    size = np.abs(values)
    out = ~((size < 2.0**1000) & ((size >= np.finfo(float).tiny) | (size == 0.0)))
    return int(np.argmax(out)) if out.any() else len(values)


class TestFirstExit:
    @given(values=st.lists(st.sampled_from(
        [0.0, -0.0, 1.0, -3.0, 2.0**-1030, -(2.0**-1030), 2.0**999, 2.0**1000, math.inf,
         math.nan]), min_size=3, max_size=12), width=st.integers(1, 3))
    def test_rows_are_decided_entry_by_entry(self, values, width):
        # zeros, signs and every way out of the range, on grids of 1-3 columns
        grid = np.array(values[: len(values) // width * width]).reshape(-1, width)
        exit_at = first_exit(grid.ravel())
        assert _first_exit(grid) == (None if exit_at == grid.size else exit_at // width)

    def test_dense_sweep_grids_skip_the_entrywise_test(self, monkeypatch):
        # the coupling grids' clamped zero factors leave the other products
        # in range, so no range test of the benchmark's dense-sweep config
        # (seed 1) falls back to the entry-by-entry test
        calls = {"tests": 0, "entrywise": 0}

        def counted(name, original):
            def call(products):
                calls[name] += 1
                return original(products)
            return call

        monkeypatch.setattr(specfun, "_first_exit", counted("tests", specfun._first_exit))
        monkeypatch.setattr(specfun, "_exit_row", counted("entrywise", specfun._exit_row))
        report = run_experiment(parse_config(
            "experiment = channel-limit\nmu = 2\nk = 1\ninput_state = rank-r-random\n"
            "state_dim = 24\nstate_rank = 3\ntruncation_l = 2048\npsi = 0,0,1\n"
            "nu_list = 10,20,40\nseed = 1\ntiming = off\n"))
        assert all(not row.error for row in report.rows)
        assert calls["tests"] > 0 and calls["entrywise"] == 0, calls


class TestCarriedCumprod:
    @given(
        count=st.integers(1, 3 * BLOCK + 40),
        kind=st.sampled_from(["in range", "near one", "falling", "rising", "with a zero",
                              "mid-block", "at a block boundary", "at entry 0", "signed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_are_the_whole_table(self, count, kind, seed):
        # read in random lengths, the table has scaled_cumprod's bits, plain
        # or in exponent stretches that cross the reads; a read's exponent
        # is None exactly when all its entries come before the first one
        # out of the double range
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(1.0, 3000.0))
        numer, denom = {
            "in range": ((a,), (a + rng.uniform(-0.5, 0.5),)),
            "near one": ((1.0, a), (a + rng.uniform(-2.0, 2.0), 2.0)),
            "falling": ((rng.uniform(0.5, 4.0),), (a,)),
            "rising": ((a, 1.0), (rng.uniform(0.5, 4.0),)),
            # the factor at j = z is 0, and so is every entry past it
            "with a zero": ((-float(rng.integers(0, count)), 1.0), (a, 2.0)),
            "mid-block": ((a,), (a + rng.uniform(0.1, 0.5),)),
            "at a block boundary": ((a,), (a + rng.uniform(0.1, 0.5),)),
            "at entry 0": ((a,), (a + rng.uniform(-0.5, 0.5),)),
            # every factor negative, the magnitude rising
            "signed": ((-float(2.0 ** rng.uniform(100.0, 380.0)),), (rng.uniform(0.5, 4.0),)),
        }[kind]
        first = float(2.0 ** rng.uniform(-50.0, 50.0))
        if kind in ("mid-block", "at a block boundary"):
            # falling from first, the entry near a random x is the smallest
            # normal double: the table leaves the range there, after a
            # plain run
            x = int(rng.integers(0, count))
            first = 2.0**-1022 / float(np.prod(pochhammer_steps(x, numer, denom)))
        elif kind == "at entry 0":
            first = float(2.0 ** rng.choice([rng.uniform(1000.0, 1020.0),
                                             rng.uniform(-1070.0, -1023.0)]))
        factors = pochhammer_steps(count - 1, numer, denom)
        mant, expo = scaled_cumprod(factors, first)
        with np.errstate(over="ignore", invalid="ignore"):
            exit_at = first_exit(np.cumprod(np.concatenate(([first], factors))))
        assert (expo is None) == (exit_at == count)
        table = CarriedCumprod(count, numer, denom, first)
        parts, done = [], 0
        while done < count:
            n = min(int(rng.integers(0, 2 * BLOCK)), count - done)
            if kind == "at a block boundary" and done < exit_at < done + n:
                n = exit_at - done  # the next read starts at the exit
            part = table.take(n)
            assert part[0].size == n and (part[1] is None) == (done + n <= exit_at)
            parts.append(part)
            done += n
        assert np.concatenate([m for m, _ in parts]).tobytes() == mant.tobytes()
        got = np.concatenate([exponents(e, m.size) for m, e in parts])
        assert got.tobytes() == exponents(expo, count).tobytes()
        with pytest.raises(ValueError):
            table.take(1)

    @pytest.mark.parametrize("count, numer, denom, first", [
        (100_000, (1.0, 801.0), (805.0, 2.0), 3.0),  # in range
        (30_000, (3.0,), (123.0,), 2.0 / 122.0),      # leaves it at 17236, in block 2
        (20_000, (1.0, 6.0), (1008.0, 2.0), 1e-3),    # early
        (20_000, (2.0,), (1.5,), 1.0),                # rising, in range
        (1, (1.0,), (2.0,), 1e-310),                  # first alone, subnormal
        (4, (-2.0**380,), (1.0,), 1.0),               # signed, leaves it upwards
    ])
    def test_pochhammer_tables(self, count, numer, denom, first):
        # a block's exponent is None exactly when it ends before the first
        # entry out of the double range
        factors = pochhammer_steps(count - 1, numer, denom)
        mant, expo = scaled_cumprod(factors, first)
        with np.errstate(over="ignore"):
            exit_at = first_exit(np.cumprod(np.concatenate(([first], factors))))
        table = CarriedCumprod(count, numer, denom, first)
        parts = [table.take(min(BLOCK, count - j)) for j in range(0, count, BLOCK)]
        assert np.concatenate([m for m, _ in parts]).tobytes() == mant.tobytes()
        got = np.concatenate([exponents(e, m.size) for m, e in parts])
        assert got.tobytes() == exponents(expo, count).tobytes()
        assert [e is None for _, e in parts] == [
            min(j + BLOCK, count) <= exit_at for j in range(0, count, BLOCK)]

    def test_signed_table_is_carried(self):
        # (-2^380)_3 / 3! is above the double range: its mantissa and
        # exponent hold the value, sign included
        mant, expo = scaled_cumprod(pochhammer_steps(3, (-2.0**380,), (1.0,)))
        assert expo is not None and np.all(np.isfinite(mant))
        a = -mp.mpf(2) ** 380
        exact = a * (a + 1) * (a + 2) / 6
        got = mp.ldexp(mp.mpf(mant[3]), int(expo[3]))
        assert abs(got - exact) <= 2 * 3 * np.finfo(float).eps * abs(exact)

    def test_columns_that_leave_at_different_rows(self):
        # one 2-D cumprod whose columns leave the range at rows 1044 (down),
        # 528 (down) and 649 (up), and one stays in it: every column is in
        # stretches from row 528 on, started from row 527
        columns = [((1.0,), (300.0,), 1.0), ((1.0,), (500.0,), 0.5),
                   ((400.0,), (1.0,), 2.0), ((2.0,), (1.5,), 3.0)]
        count = 3000
        factors = np.stack([pochhammer_steps(count - 1, n, d) for n, d, _ in columns], axis=1)
        firsts = np.array([first for _, _, first in columns])
        mant, expo = scaled_cumprod(factors, firsts)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = np.cumprod(np.concatenate((firsts[None], factors)), axis=0)
        assert [first_exit(col) for col in plain.T] == [1044, 528, 649, count]
        assert not expo[:528].any() and expo[528:].all()
        for c, (numer, denom, first) in enumerate(columns):
            for j in (0, 1, 10, 527, 528, 648, 649, 1043, 1044, 2000, count - 1):
                exact = mp.mpf(first)
                for a in numer:
                    exact *= mp.rf(a, j)
                for b in denom:
                    exact /= mp.rf(b, j)
                got = mp.ldexp(mp.mpf(mant[j, c]), int(expo[j, c]))
                bound = (len(numer) + len(denom)) * j * np.finfo(float).eps
                assert abs(got - exact) <= bound * abs(exact), (c, j)


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
