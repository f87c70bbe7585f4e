"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Criterion 9 gates the Husimi normalization
int H_mu^k(A) d iota = Tr A/(mu - 1): mu - 1 is the formal degree of the
weight-mu discrete series under d iota = dz/(pi (1-|z|^2)^2), and the same
constant is what the limit formula gives for psi(x) = x, since
(1/nu) Tr T(A) -> Tr A/(mu - 1) (criterion 2).
"""

import math
import time

import numpy as np
import pytest
from oracles import (
    berezin_eigenvalue_loggamma,
    chain2_series_oracle,
    gammaform_eigenvalue_oracle,
    lowest_state,
    lpoch,
    random_psd,
)

from diskchannels.bergman import group_action_matrix
from diskchannels.channel import (
    ChannelParams,
    apply_channel,
    isometry_weights,
    output_trace_interval,
    sqrt_series_coefficients,
)
from diskchannels.disk import GroupElement, build_quadrature, transporter
from diskchannels.experiments import parse_config, run_experiment
from diskchannels.specfun import (
    berezin_eigenvalue,
    channel_constant_sq,
    pochhammer,
)
from diskchannels.spectral import (
    chain2_tensor_quadrature,
    chained_kernel_integral,
    eigen_relation_residual,
)
from diskchannels.transforms import (
    e_transform,
    husimi_grid,
    radial_poly,
    toeplitz_operator,
)


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_projections_and_constant():
    start = time.perf_counter()
    worst_iso, worst_const = 0.0, 0.0
    for mu in (2, 3, 5):
        for nu in (2, 3, 5):
            for k in range(4):
                params = ChannelParams(mu, nu, k)
                for p in range(61):
                    worst_iso = max(
                        worst_iso, abs(np.sum(isometry_weights(params, p) ** 2) - 1.0)
                    )
                brute = math.factorial(k) * math.fsum(
                    math.comb(k, j) / (pochhammer(mu, j) * pochhammer(nu, k - j))
                    for j in range(k + 1)
                )
                worst_const = max(
                    worst_const, abs(channel_constant_sq(mu, nu, k) * brute - 1.0)
                )
    elapsed = time.perf_counter() - start
    ok = worst_iso <= 1e-12 and worst_const <= 1e-12 and elapsed < 5.0
    assert report(
        1,
        ok,
        f"max |PkPk* - I| = {worst_iso:.2e}, max |C^2 sum - 1| = {worst_const:.2e}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_02_trace_scaling():
    start = time.perf_counter()
    mu = 3
    A = random_psd(mu, 40, 3, seed=7)
    worst_rel, brackets = 0.0, True
    for nu in range(3, 13):
        for k in (0, 1, 2):
            params = ChannelParams(mu, nu, k)
            target = params.trace_factor
            tr, est, bound = output_trace_interval(A, params, 2000, extend_to=200000)
            brackets &= tr <= target <= tr + bound
            worst_rel = max(worst_rel, abs(tr + est - target) / target)
    elapsed = time.perf_counter() - start
    ok = brackets and worst_rel <= 1e-5 and elapsed < 60.0
    assert report(
        2,
        ok,
        f"all brackets hold = {brackets}, worst rel discrepancy = {worst_rel:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_03_exact_grade_zero_spectrum():
    worst = 0.0
    for (mu, nu) in [(2, 3), (3, 5), (2, 7)]:
        out = apply_channel(lowest_state(mu), ChannelParams(mu, nu, 0, output_degree=500))
        lam = np.real(np.diag(out.matrix))
        ps = np.arange(501)
        closed = np.exp(lpoch(nu, ps) - lpoch(mu + nu, ps))
        worst = max(worst, float(np.abs(lam - closed).max()))
    oracle = gammaform_eigenvalue_oracle(2, 3, np.arange(6))
    ps6 = np.arange(6)
    closed6 = np.exp(lpoch(3, ps6) - lpoch(5, ps6))
    quad_err = float(np.abs(oracle - closed6).max())
    ok = worst <= 1e-12 and quad_err <= 1e-6
    assert report(
        3,
        ok,
        f"per-entry closed-form error = {worst:.2e} (p <= 500), "
        f"kernel-quadrature cross-check = {quad_err:.2e} (p <= 5)",
    )


def test_criterion_04_main_limit_desk_scale():
    start = time.perf_counter()
    results = {}
    for k, target in [(0, 1.0 / 3.0), (1, 2.0 / 15.0)]:
        cfg = parse_config(
            f"""
experiment = channel-limit
mu = 2
k = {k}
nu_list = 400,800
input_state = lowest
psi = 0,0,1
truncation_l = 51200
timing = off
"""
        )
        rep = run_experiment(cfg)
        assert rep.rows[0].target == pytest.approx(target, rel=1e-12)
        e400, e800 = rep.rows[0].abs_error, rep.rows[1].abs_error
        results[k] = (e400, e800, e400 / e800)
    elapsed = time.perf_counter() - start
    ok = all(
        e400 <= 0.02 and 1.7 <= ratio <= 2.3 for (e400, e800, ratio) in results.values()
    ) and elapsed < 300.0
    detail = ", ".join(
        f"k={k}: err(400)={v[0]:.2e}, ratio={v[2]:.3f}" for k, v in results.items()
    )
    assert report(4, ok, detail + f", {elapsed:.1f} s")


def test_criterion_05_toeplitz_trace_limit():
    start = time.perf_counter()
    cfg = parse_config(
        """
experiment = toeplitz-trace
f = radial:0,0,1
psi = 0,0,1
nu_list = 400,800
timing = off
"""
    )
    rep = run_experiment(cfg)
    e400, e800 = rep.rows[0].abs_error, rep.rows[1].abs_error
    ratio = e400 / e800
    elapsed = time.perf_counter() - start
    ok = (
        rep.rows[0].target == pytest.approx(1.0 / 3.0, rel=1e-12)
        and e400 <= 0.02
        and 1.7 <= ratio <= 2.3
        and elapsed < 10.0
    )
    assert report(
        5, ok, f"target 1/3, err(400)={e400:.2e}, ratio={ratio:.3f}, {elapsed:.1f} s"
    )


def test_criterion_06_berezin_eigen_relation():
    start = time.perf_counter()
    samples = [0.0, 0.3, 0.45j, -0.2 + 0.3j]
    worst = 0.0
    for nu in (2, 4, 8):
        for lam in (0.0, 1.0, 2.0):
            worst = max(
                worst, eigen_relation_residual(nu, lam, samples, 400, 512)
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 120.0
    assert report(6, ok, f"max residual = {worst:.2e} (400x512 grid), {elapsed:.1f} s")


def test_criterion_07_eigenvalue_properties():
    lams = np.linspace(-20, 20, 81)
    worst_route = 0.0
    for nu in range(2, 51):
        for lam in lams:
            a = berezin_eigenvalue(nu, lam)
            b = berezin_eigenvalue_loggamma(nu, lam)
            worst_route = max(worst_route, abs(a - b) / b)
    monotone, bounded = True, True
    grid = np.linspace(0.0, 30.0, 301)
    for nu in range(2, 51):
        vals = np.array([berezin_eigenvalue(nu, l) for l in grid])
        monotone &= bool(np.all(np.diff(vals) <= 1e-15))
        bounded &= vals[0] <= 1.0 + 1e-15
    nus = np.array([50, 100, 200, 400, 800])
    devs = [1.0 - berezin_eigenvalue(nu, 2.0) for nu in nus]
    slope = float(np.polyfit(np.log(nus), np.log(devs), 1)[0])
    ok = worst_route <= 1e-12 and monotone and bounded and abs(slope + 1.0) <= 0.1
    assert report(
        7,
        ok,
        f"two-route rel = {worst_route:.2e}, monotone = {monotone}, "
        f"b(0) <= 1 = {bounded}, slope = {slope:.3f}",
    )


def test_criterion_08_e_identity():
    from diskchannels.bergman import TruncatedOperator

    mu = 2
    f = radial_poly([0, 0, 1.0])
    T = toeplitz_operator(f, mu, 320)
    A = TruncatedOperator(mu, T.matrix / (mu - 1), hermitian=True)
    rng = np.random.default_rng(20)
    zs = 0.6 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
    worst = 0.0
    for k in (0, 1, 2):
        diff = np.abs(
            np.asarray(e_transform(f, mu, k, zs)) - husimi_grid(A, k, zs)
        ).max()
        worst = max(worst, float(diff))
    # finite-weight convergence slope of the sampled sup difference
    nus = [25, 50, 100, 200, 400]
    sups = []
    for nu in nus:
        d = np.abs(
            np.asarray(e_transform(f, mu, 2, zs, nu=nu))
            - np.asarray(e_transform(f, mu, 2, zs))
        ).max()
        sups.append(float(d))
    slope = float(np.polyfit(np.log(nus), np.log(sups), 1)[0])
    ok = worst <= 1e-6 and abs(slope + 1.0) <= 0.2
    assert report(
        8, ok, f"max |E - H(R*f)| = {worst:.2e} (20 points), slope = {slope:.3f}"
    )


def test_criterion_09_husimi_normalization():
    # gate: int H_mu^k(A) d iota = Tr A/(mu-1).  H is the expectation of A in
    # a transported unit vector, so Schur orthogonality with formal degree
    # mu - 1 under d iota gives Tr A/(mu-1); the limit formula at psi(x) = x
    # forces the same value, because (1/nu) Tr T(A) -> Tr A/(mu-1).  The
    # constant is anchored independently of husimi_grid by the lowest state:
    # int (1-t)^mu ((mu)_k/k!) t^k d iota = ((mu)_k/k!) B(k+1, mu-1).
    quad = build_quadrature(200, 96, 2.0)
    rows = []
    worst = 0.0
    for mu in (2, 3):
        A = random_psd(mu, 10, 3, seed=30 + mu, unit_trace=False)
        trace = float(np.real(np.trace(A.matrix)))
        for k in (0, 1, 2):
            log_coeff = math.lgamma(mu + k) - math.lgamma(mu) - math.lgamma(k + 1)
            log_beta = math.lgamma(k + 1) + math.lgamma(mu - 1) - math.lgamma(mu + k)
            beta = math.exp(log_coeff + log_beta)
            lowest = float(
                np.real(quad.integrate(husimi_grid(lowest_state(mu), k, quad.nodes)))
            )
            measured = float(np.real(quad.integrate(husimi_grid(A, k, quad.nodes))))
            expected = trace / (mu - 1)
            worst = max(worst, abs(lowest - beta), abs(measured - expected))
            rows.append((mu, k, measured, expected, trace))
    ok = worst <= 1e-6
    detail = "; ".join(
        f"mu={mu} k={k}: int H = {m:.6f} vs Tr A/(mu-1) = {e:.6f} (Tr A = {t:.6f})"
        for mu, k, m, e, t in rows
    )
    assert report(9, ok, f"{detail}; max residual = {worst:.2e}"), (
        f"int H d iota != Tr A/(mu-1) within 1e-6: {detail}; "
        f"max residual = {worst:.2e}"
    )


def test_criterion_10_kernel_chain():
    exact = chained_kernel_integral(1, 4, 0, 10)
    ok_exact = exact == (1.0, 0.0)
    ok_bound = True
    details = []
    for nu in (4, 8):
        est, half = chained_kernel_integral(2, nu, 2024, 10**6)
        ok_bound &= est + half <= 81.0
        details.append(f"I2({nu}) = {est:.4f} +- {half:.4f}")
    est16, half16 = chained_kernel_integral(2, 16, 7, 10**6)
    quad16 = chain2_tensor_quadrature(16)
    series16 = chain2_series_oracle(16)
    ok_cross = abs(est16 - quad16) <= half16 and abs(quad16 - series16) < 1e-9
    ok = ok_exact and ok_bound and ok_cross
    assert report(
        10,
        ok,
        f"I1 = 1 exact; {'; '.join(details)}; "
        f"|MC - quad|(nu=16) = {abs(est16 - quad16):.2e} <= CI {half16:.2e}",
    )


def test_criterion_11_sqrt_series():
    coeffs = sqrt_series_coefficients(10**6)
    ok_pos = bool(np.all(coeffs > 0))
    total = float(np.sum(coeffs))
    ok_sum = abs(total - 1.0) <= 1e-3
    xs = np.linspace(0.0, 1.0, 101)
    q = 1.0 - xs**2
    lengths = [2**j for j in range(0, 20)] + [10**6]
    errors = []
    partial = np.zeros_like(xs)
    csum = 0.0
    idx = 0
    for length in lengths:
        while idx < length:
            partial += coeffs[idx] * (1.0 - q ** (idx + 1))
            csum += coeffs[idx]
            idx += 1
        errors.append(float(np.abs(xs - partial).max()))
    ok_mono = all(a >= b - 1e-15 for a, b in zip(errors, errors[1:]))
    ok = ok_pos and ok_sum and ok_mono
    assert report(
        11,
        ok,
        f"positive = {ok_pos}, |sum - 1| = {abs(total - 1.0):.2e}, "
        f"grid error {errors[0]:.3f} -> {errors[-1]:.5f} monotone = {ok_mono}",
    )


def test_criterion_12_equivariance():
    # (a) rotation equivariance, exact
    mu, nu, k = 3, 4, 1
    params = ChannelParams(mu, nu, k, output_degree=30)
    A = random_psd(mu, 8, 3, seed=40)
    theta = 0.9
    rot_in = np.exp(1j * (mu + 2 * np.arange(8)) * theta)
    conj_in = A.matrix * np.outer(rot_in, np.conj(rot_in))
    from diskchannels.bergman import TruncatedOperator

    lhs = apply_channel(TruncatedOperator(mu, conj_in, hermitian=True), params).matrix
    out = apply_channel(A, params).matrix
    s = params.target_weight
    rot_out = np.exp(1j * (s + 2 * np.arange(31)) * theta)
    rot_err = float(np.abs(lhs - out * np.outer(rot_out, np.conj(rot_out))).max())

    # (b) transporter conjugation, bounded by the reported truncation tails
    results = []
    g = GroupElement.rotation(0.4) @ transporter(0.3 * np.exp(0.6j))
    n_in, cut, block = 128, 192, 48
    a_norm = float(np.linalg.norm(A.matrix, 2))
    M_in, tail_in = group_action_matrix(g, mu, n_in)
    for kk in (0, 1, 2):
        par = ChannelParams(mu, nu, kk, output_degree=cut)
        conj = M_in.matrix @ np.pad(A.matrix, (0, n_in - 7)) @ M_in.matrix.conj().T
        conj = 0.5 * (conj + conj.conj().T)
        lhs_b = apply_channel(
            TruncatedOperator(mu, conj, hermitian=True), par
        ).matrix[:block, :block]
        S, tail_out = group_action_matrix(g, par.target_weight, cut)
        T = apply_channel(A, par).matrix
        rhs_b = (S.matrix @ T @ S.matrix.conj().T)[:block, :block]
        diff = float(np.abs(lhs_b - rhs_b).max())
        # input-side column tails over A's support, output-side row tails
        col_mass = float(
            np.sum(np.maximum(0.0, 1.0 - np.sum(np.abs(M_in.matrix[:, :8]) ** 2, 0)))
        )
        row_mass = float(
            np.max(np.maximum(0.0, 1.0 - np.sum(np.abs(S.matrix[:block, :]) ** 2, 1)))
        )
        bound = (
            a_norm * (2 * math.sqrt(col_mass) + col_mass)
            + a_norm * (2 * math.sqrt(row_mass) + row_mass)
            + 1e-10 * a_norm  # roundoff allowance for the matrix products
        )
        results.append((kk, diff, bound))
    ok = rot_err <= 1e-12 and all(d <= b for _, d, b in results)
    detail = ", ".join(f"k={kk}: diff={d:.1e} <= {b:.1e}" for kk, d, b in results)
    assert report(12, ok, f"rotation exact = {rot_err:.2e}; transporter: {detail}")
