"""Config parsing, report emission, determinism, and the CLI surface."""

import dataclasses
import json
import math
import time
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    chain2_series_oracle,
    covariant_symbol_oracle,
    dropped_trace_oracle,
    husimi_any_weight_oracle,
    lowest_state,
    random_psd,
)

from diskchannels import bergman, channel, cli, experiments, specfun
from diskchannels.channel import (
    ChannelParams,
    diagonal_output_spectrum,
    output_trace_interval,
)
from diskchannels.cli import main as cli_main
from diskchannels.disk import build_quadrature
from diskchannels.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentReport,
    ReportRow,
    _husimi_integral,
    _husimi_target,
    _input_state,
    _schur_integral,
    emit_report,
    parse_config,
    report_from_json,
    run_experiment,
)
from diskchannels.transforms import husimi_grid

BASE = """
experiment = channel-limit
mu = 2
k = 0
nu_list = 8,16,32,64
input_state = lowest
psi = 0,0,1
timing = off
"""


class TestConfigParsing:
    def test_valid(self):
        cfg = parse_config(BASE)
        assert cfg.experiment == "channel-limit"
        assert cfg.nu_list == (8, 16, 32, 64)
        assert cfg.psi == (0.0, 0.0, 1.0)

    def test_comments_and_blanks(self):
        cfg = parse_config(BASE + "\n# a comment\n\nseed = 3 # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config(BASE + "frobnicate = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(BASE + "mu = 3\n")

    def test_psi_constant_term(self):
        with pytest.raises(ConfigError, match="psi"):
            parse_config(BASE.replace("psi = 0,0,1", "psi = 1,0,1"))

    def test_nu_list_ordering(self):
        with pytest.raises(ConfigError, match="nu_list"):
            parse_config(BASE.replace("8,16,32,64", "8,8,32"))

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("mu = 2\nnu_list = 2,3\n")

    def test_f_descriptor(self):
        cfg = parse_config(BASE + "f = radial:0,1.5,2\n")
        assert cfg.f_coeffs == (0.0, 1.5, 2.0)
        with pytest.raises(ConfigError, match="f"):
            parse_config(BASE + "f = grid:whatever\n")

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(BASE + "seed = not-a-number\n")

    @pytest.mark.parametrize("line", [
        "tol_abs = nan", "tol_abs = inf", "f = radial:0,0,inf",
        "lambda_list = 0,nan", "psi = 0,0,nan",
    ])
    def test_non_finite_value_is_config_error(self, line):
        # a NaN tol_abs would switch the gate off, and a NaN psi, f or lambda
        # would fill every row with NaN
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
            parse_config(BASE.replace("psi = 0,0,1\n", "") + line + "\n")

    def test_negative_tol_abs_names_the_off_value(self):
        # 0 is a valid value, the one that turns the gate off
        with pytest.raises(ConfigError, match=r"^tol_abs: must be >= 0 \(0 disables the gate\)$"):
            parse_config(BASE + "tol_abs = -1e-3\n")
        assert parse_config(BASE + "tol_abs = 0\n").tol_abs == 0.0

    def test_channel_limit_needs_integer_mu(self):
        # refused at a non-integer mu: a diagonal input's continued rest (a
        # random state of one degree is diagonal) and psi of degree >= 3,
        # whose target is the Gauss-Jacobi Husimi rule
        half = BASE.replace("mu = 2", "mu = 2.5")
        random = half.replace("input_state = lowest", "input_state = rank-r-random")
        for text in (half, half.replace("lowest", "toeplitz\nf = radial:0,0,1"),
                     random + "state_dim = 1\n", random + "truncation_n = 0\n"):
            with pytest.raises(ConfigError, match="mu: .*diagonal input.*mu \\+ 2k ratios"):
                parse_config(text)
        with pytest.raises(ConfigError, match="mu: .*degree >= 3.*group action"):
            parse_config(random.replace("psi = 0,0,1", "psi = 0,0,1,0.5"))
        # accepted: a dense input with psi of degree <= 2, or an integer mu
        assert parse_config(random + "state_dim = 2\n").mu == 2.5
        assert parse_config(random.replace("psi = 0,0,1", "psi = 0,1,1,0")).mu == 2.5
        assert parse_config(BASE.replace("mu = 2", "mu = 3.0")).mu == 3.0
        other = BASE.replace("channel-limit", "e-identity").replace("mu = 2", "mu = 2.5")
        assert parse_config(other).mu == 2.5


class TestEmitReport:
    def _report(self, rows):
        cfg = parse_config(BASE)
        return ExperimentReport(config=cfg, rows=rows)

    def test_empty_rows_header_only(self):
        data = emit_report(self._report([]), "csv")
        assert data.decode() == "nu,measured,target,abs_error,tail_bound,seconds\n"

    def test_single_row_two_lines(self):
        rows = [ReportRow(nu=8, measured=0.5, target=0.4, tail_bound=0.01)]
        lines = emit_report(self._report(rows), "csv").decode().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "8.0"

    def test_json_round_trip(self):
        cfg = parse_config(BASE)
        report = run_experiment(cfg)
        data = emit_report(report, "json")
        back = report_from_json(data)
        assert emit_report(back, "json") == data
        payload = json.loads(data)
        assert payload["version"] == report.version
        assert len(payload["rows"]) == 4

    def test_write_failure_names_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_report(self._report([]), "csv", str(tmp_path / "no/such/dir/x.csv"))


class TestDeterminism:
    def test_byte_identical_reports(self):
        cfg_text = BASE + "seed = 42\n"
        a = emit_report(run_experiment(parse_config(cfg_text)), "json")
        b = emit_report(run_experiment(parse_config(cfg_text)), "json")
        assert a == b

    def test_threaded_matches_serial(self):
        serial = run_experiment(parse_config(BASE))
        threaded = run_experiment(parse_config(BASE + "threads = 3\n"))
        assert emit_report(serial, "csv") == emit_report(threaded, "csv")

    # one small config per experiment, each with several rows to schedule; the
    # batched experiments have 5 rows, which 2 and 3 threads split unevenly
    SMALL = {
        "channel-limit": "mu = 2\nk = 1\nnu_list = 4,8,12\n"
        "input_state = rank-r-random\nstate_dim = 6\nstate_rank = 2\n"
        "truncation_l = 200\nseed = 3\n",
        "toeplitz-trace": "f = radial:0,0,1\npsi = 0,0,1\nnu_list = 10,20,40\n",
        "berezin-eigen": "nu_list = 2,3,4,8,16\nlambda_list = 0,1\n"
        "quadrature_radial = 60\nquadrature_angular = 64\n",
        "husimi-check": "k = 1\nnu_list = 2,3,5\nstate_dim = 6\nseed = 3\n",
        "e-identity": "k = 1\nnu_list = 20,40,80\nsample_points = 5\nseed = 3\n",
        "constants": "nu_list = 2,3,5\nkmax = 2\n",
        "kernel-chain": "nu_list = 4,6,8,12,16\nsamples = 20000\nseed = 3\n",
    }

    @pytest.mark.parametrize("experiment", sorted(SMALL))
    def test_every_experiment_threads_and_round_trip(self, experiment):
        text = f"experiment = {experiment}\ntiming = off\n" + self.SMALL[experiment]
        serial = run_experiment(parse_config(text))
        assert not serial.failures
        for threads in (2, 3):
            threaded = run_experiment(parse_config(text + f"threads = {threads}\n"))
            # the reports differ only in the threads key they echo
            threaded.config.threads = serial.config.threads
            for fmt in ("csv", "json"):
                assert emit_report(threaded, fmt) == emit_report(serial, fmt)
        data = emit_report(serial, "json")
        back = report_from_json(data)
        assert emit_report(back, "json") == data
        assert emit_report(back, "csv") == emit_report(serial, "csv")

    def test_a_run_frees_the_channel_block_buffers(self):
        # the rows of a serial run share the calling thread's block buffers,
        # and a serial kernel-chain run draws its chunks into them; neither
        # outlives the run
        for experiment in ("channel-limit", "kernel-chain"):
            text = f"experiment = {experiment}\ntiming = off\n" + self.SMALL[experiment]
            assert not run_experiment(parse_config(text)).failures
            assert getattr(specfun._thread_state, "buffers", None) is None

    @pytest.mark.parametrize("experiment", sorted(SMALL))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_threads_never_change_a_report(self, experiment, data):
        base = parse_config(f"experiment = {experiment}\ntiming = off\n"
                            + self.SMALL[experiment])
        nus = data.draw(st.lists(st.sampled_from(base.nu_list), min_size=1, unique=True),
                        label="nu_list")
        keys = {"nu_list": tuple(sorted(nus))}
        if experiment == "kernel-chain":
            # sample counts that end in the middle of a 2^16-sample chunk
            keys["samples"] = data.draw(st.integers(1, 3 * 2**16 + 1), label="samples")
            keys["chain_length"] = data.draw(st.sampled_from([1, 2, 3]), label="chain_length")
        threads = data.draw(st.integers(1, 4), label="threads")
        serial = run_experiment(dataclasses.replace(base, **keys))
        threaded = run_experiment(dataclasses.replace(base, threads=threads, **keys))
        threaded.config.threads = serial.config.threads
        for fmt in ("csv", "json"):
            assert emit_report(threaded, fmt) == emit_report(serial, fmt)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_nu_stays_isolated(self, threads):
        # the chain-2 target at nu = 1e200 has no Gauss-Jacobi rule: the
        # squares (2k + nu - 2)^2 of its Jacobi matrix overflow; the batch
        # that holds it is rerun one nu at a time
        text = "experiment = kernel-chain\ntiming = off\nsamples = 20000\n"
        report = run_experiment(parse_config(
            text + f"nu_list = 8,{10**200}\nthreads = {threads}\n"))
        alone = run_experiment(parse_config(text + "nu_list = 8\n"))
        good, bad = report.rows
        assert good == alone.rows[0] and not good.error
        assert bad.nu == 10**200 and "no Gauss-Jacobi nodes" in bad.error
        assert report.failures == [bad]

    def test_batched_rows_share_their_batch_time(self):
        text = "experiment = kernel-chain\nnu_list = 4,6,8,10\nsamples = 20000\n"
        start = time.perf_counter()
        serial = [r.seconds for r in run_experiment(parse_config(text)).rows]
        elapsed = time.perf_counter() - start
        # one batch of four rows: each holds a quarter of the batch's time
        assert len(set(serial)) == 1 and 0.0 < sum(serial) <= elapsed
        report = run_experiment(parse_config(text + "threads = 2\n"))
        secs = [r.seconds for r in report.rows]
        # still one batch: the pool runs its chain-2 targets and Monte Carlo chunks
        assert len(set(secs)) == 1 and secs[0] > 0.0

class TestRunners:
    def test_channel_limit_rows(self):
        rep = run_experiment(parse_config(BASE))
        assert [r.nu for r in rep.rows] == [8, 16, 32, 64]
        errs = [r.abs_error for r in rep.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_fitted_order_over_a_decade(self):
        # closed-form inputs: fitted order within 0.15 of -1 across nu 10..160
        rep = run_experiment(
            parse_config(BASE.replace("nu_list = 8,16,32,64", "nu_list = 10,20,40,80,160"))
        )
        assert rep.fitted_order == pytest.approx(-1.0, abs=0.15)
        assert rep.fitted_order_stderr is not None

    def test_tail_honesty_brackets_untruncated_trace(self):
        # mu >= 3, psi = x, an explicit cut: measured is the exact untruncated
        # value (mu+nu+2k-1)/(nu(mu-1)) to within tail_bound
        rep = run_experiment(
            parse_config(
                """
experiment = channel-limit
mu = 3
k = 1
nu_list = 4,8,16
input_state = lowest
psi = 0,1
truncation_l = 800
timing = off
"""
            )
        )
        for r in rep.rows:
            untruncated = (3 + r.nu + 2 - 1) / (r.nu * (3 - 1))
            assert abs(r.measured - untruncated) <= r.tail_bound <= 1e-10

    @pytest.mark.parametrize("mu,nu", [(2, 2), (2, 3), (2, 50), (2, 800),
                                       (3, 2), (3, 3), (3, 50), (3, 800)])
    def test_trace_tail_covers_exact_dropped_trace(self, mu, nu):
        # k = 0, lowest state: lambda_p = (nu)_p/(mu+nu)_p, so the untruncated
        # sums are sum_p lambda_p = trace_factor and sum_p lambda_p^2 =
        # 3F2(nu, nu, 1; mu+nu, mu+nu; 1); the row sums p < L and continues
        # the rest, and must land within its tail_bound of both
        text = BASE.replace("mu = 2", f"mu = {mu}").replace("8,16,32,64", str(nu))
        (square,) = run_experiment(parse_config(text)).rows
        (trace,) = run_experiment(parse_config(text.replace("psi = 0,0,1", "psi = 0,1"))).rows
        with mp.workdps(30):
            untruncated = mp.hyp3f2(nu, nu, 1, mu + nu, mu + nu, 1) / nu
            assert abs(square.measured - untruncated) <= square.tail_bound <= 1e-10
        trace_factor = (mu + nu - 1) / (mu - 1)
        assert abs(trace.measured - trace_factor / nu) <= trace.tail_bound <= 1e-10

    def test_trace_tail_covers_exact_dropped_trace_toeplitz(self):
        # the toeplitz state of degree 64 at k = 1 (as in diag-sweep): its rows
        # m >= 1 cross the zeros of S = m/mu - n/nu past the auto cut, inside
        # the continued rest.  psi = x^2 against the sum to 1024 nu plus its
        # (512 times smaller) rest, psi = x against trace_factor Tr A, Tr A = 1
        for nu in (50, 800):
            text = ("experiment = channel-limit\nmu = 2\nk = 1\n"
                    f"nu_list = {nu}\ninput_state = toeplitz\nf = radial:0,0,1\n"
                    "truncation_n = 64\npsi = 0,0,1\ntiming = off\n")
            (square,) = run_experiment(parse_config(text)).rows
            (far,) = run_experiment(parse_config(text + f"truncation_l = {1024 * nu}\n")).rows
            assert abs(square.measured - far.measured) <= square.tail_bound <= 1e-10
            (trace,) = run_experiment(parse_config(text.replace("psi = 0,0,1", "psi = 0,1"))).rows
            trace_factor = (2 + nu + 2 - 1) / (2 - 1)
            assert abs(trace.measured - trace_factor / nu) <= trace.tail_bound <= 1e-10

    def test_channel_limit_random_state(self):
        rep = run_experiment(
            parse_config(
                """
experiment = channel-limit
mu = 3
k = 1
nu_list = 6,12
input_state = rank-r-random
state_rank = 2
state_dim = 8
psi = 0,0,1
truncation_l = 600
seed = 4
timing = off
"""
            )
        )
        assert all(not r.error for r in rep.rows)
        assert all(r.note == "schur-target" for r in rep.rows)
        # errors still shrink toward the target
        assert rep.rows[1].abs_error < rep.rows[0].abs_error

    def test_channel_limit_random_state_at_nu_800(self):
        # auto cut 64 nu = 51200: a dense output would need 42 GB
        rep = run_experiment(
            parse_config(
                """
experiment = channel-limit
mu = 2
k = 1
nu_list = 800
input_state = rank-r-random
psi = 0,0,1
quadrature_radial = 60
quadrature_angular = 64
seed = 1
timing = off
"""
            )
        )
        (row,) = rep.rows
        assert row.error == ""
        assert math.isfinite(row.measured) and row.measured > 0.0

    @pytest.mark.parametrize("cut,built", [(300, [5]), (2, [5, 3, 3, 3])])
    def test_dense_rows_read_band_0_of_one_plan(self, monkeypatch, cut, built):
        # a dense row takes its captured trace from band 0 of the blocks it
        # forms, never from the output diagonal, and the run builds the
        # input's offset plan once; a row rebuilds it only where L + k falls
        # below the input's degree (5), at its own top degree
        tops = []
        plan = channel._offset_plan

        def counted(A, m_top):
            tops.append(m_top)
            return plan(A, m_top)

        def refuse(*args, **kwargs):
            raise AssertionError("a dense row read the output diagonal")

        for module in (channel, experiments):
            monkeypatch.setattr(module, "_offset_plan", counted)
        monkeypatch.setattr(experiments, "diagonal_output_spectrum", refuse)
        rep = run_experiment(parse_config(
            "experiment = channel-limit\nmu = 2\nk = 1\nnu_list = 10,20,40\n"
            "input_state = rank-r-random\nstate_dim = 6\npsi = 0,0,1\nseed = 1\n"
            f"truncation_l = {cut}\n"))
        assert [row.error for row in rep.rows] == ["", "", ""]
        assert tops == built

    @pytest.mark.parametrize("state", ["lowest", "toeplitz", "rank-r-random"])
    def test_tail_bound_is_library_trace_tail(self, state):
        # a dense row's trace tail (from Tr T(A) = trace_factor Tr A) lies
        # inside output_trace_interval's independent bracket: above the exact
        # far sum, below the tail estimate and the rigorous bound at the cut.
        # A diagonal row at the auto cut is within its tail_bound of the
        # untruncated sum of psi = x/2 - x^2 + 2x^3
        cfg = parse_config(
            f"""
experiment = channel-limit
mu = 3
k = 2
nu_list = 5,9
input_state = {state}
f = radial:0,0,1
truncation_n = 30
state_dim = 8
psi = 0,0.5,-1,2
truncation_l = {300 if state == "rank-r-random" else 0}
quadrature_radial = 40
quadrature_angular = 32
seed = 2
timing = off
"""
        )
        rep = run_experiment(cfg)
        state_op = _input_state(cfg)
        diag = np.real(np.diag(state_op.matrix))
        for row in rep.rows:
            assert row.error == ""
            params = ChannelParams(cfg.mu, float(row.nu), cfg.k)
            if state == "rank-r-random":
                tail = row.tail_bound * row.nu / 3.5
                far = float(np.sum(diagonal_output_spectrum(params, diag, 2400)[301:]))
                # the rigorous bound is at the cut whatever extend_to is
                _, estimate, bound = output_trace_interval(state_op, params, 300, 2400)
                assert far <= tail <= min(estimate, bound)
                continue
            # the spectrum to the far cut plus the linear part of its rest, from
            # the 40-digit dropped trace at the cut; the spectrum falls on the
            # window between them and is taken to keep falling, so the x^2 and
            # x^3 parts of the rest add at most lam (1 + 2 lam) times the
            # dropped trace, lam its last entry
            cut, far_cut = 2048, 64 * 2048
            lam = diagonal_output_spectrum(params, diag, far_cut)
            assert np.all(np.diff(lam[cut:]) <= 0.0)
            dropped = float(dropped_trace_oracle(3, row.nu, 2, diag, cut)) - math.fsum(
                lam[cut + 1 :])
            psi_sum = math.fsum(0.5 * lam - lam**2 + 2 * lam**3)
            untruncated = (psi_sum + 0.5 * dropped) / row.nu
            assert lam[-1] * (1 + 2 * lam[-1]) * dropped / row.nu <= 1e-15
            assert abs(row.measured - untruncated) <= row.tail_bound <= 1e-10

    def test_toeplitz_trace_converges(self):
        rep = run_experiment(
            parse_config(
                """
experiment = toeplitz-trace
f = radial:0,0,1
psi = 0,0,1
nu_list = 50,100,200,400
timing = off
"""
            )
        )
        assert rep.rows[0].target == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert rep.fitted_order == pytest.approx(-1.0, abs=0.15)

    def test_toeplitz_trace_meets_the_trigamma_closed_form(self):
        # diag-sweep's toeplitz-trace config: lambda_p = (nu-1) nu/((nu+p)(nu+p+1))
        # for f = (1-|z|^2)^2, so (nu-1)^{-1} sum_p lambda_p^2 is
        # nu^2 (nu-1) (psi_1(nu) + psi_1(nu+1) - 2/nu)
        rep = run_experiment(parse_config(
            "experiment = toeplitz-trace\nf = radial:0,0,1\npsi = 0,0,1\n"
            "nu_list = 50,100,200,400,800\ntiming = off\n"))
        with mp.workdps(30):
            for row in rep.rows:
                nu = row.nu
                exact = nu**2 * (nu - 1) * (mp.psi(1, nu) + mp.psi(1, nu + 1) - mp.mpf(2) / nu)
                assert abs(row.measured - exact) <= row.tail_bound <= 1e-12

    @pytest.mark.parametrize("f", ["0,0,1", "0,0,1,0.5", "0,1,1"])
    def test_toeplitz_trace_rest_does_not_depend_on_the_cut(self, f):
        # continued from the auto cut L = 2 nu and from 2L; f = (1-|z|^2) +
        # (1-|z|^2)^2 has an infinite Tr T_f, so its rows make no trace check
        for nu in (50, 200, 800):
            text = (f"experiment = toeplitz-trace\nf = radial:{f}\npsi = 0,0,1\n"
                    f"nu_list = {nu}\ntiming = off\n")
            (near,) = run_experiment(parse_config(text)).rows
            (far,) = run_experiment(parse_config(text + f"truncation_l = {4 * nu}\n")).rows
            assert not near.error and abs(near.measured - far.measured) <= 1e-12 * near.measured

    def test_husimi_check_row(self):
        rep = run_experiment(
            parse_config(
                """
experiment = husimi-check
k = 1
nu_list = 2,3
state_dim = 8
state_rank = 2
quadrature_radial = 150
quadrature_angular = 64
timing = off
"""
            )
        )
        for r in rep.rows:
            assert r.target == pytest.approx(1.0 / (r.nu - 1.0), rel=1e-14)
            assert r.abs_error < 1e-7

    def test_constants_rows(self):
        rep = run_experiment(
            parse_config("experiment = constants\nnu_list = 2,3,5\ntiming = off\n")
        )
        assert all(r.measured < 1e-12 for r in rep.rows)
        assert all(r.note == "constant-and-isometry" for r in rep.rows)

    def test_channel_limit_cubic_psi(self):
        # odd powers ride on the same machinery; target int H^3 d iota = 1/5
        rep = run_experiment(
            parse_config(BASE.replace("psi = 0,0,1", "psi = 0,0,0,1"))
        )
        assert rep.rows[0].target == pytest.approx(0.2, rel=1e-12)
        errs = [r.abs_error for r in rep.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_e_identity_rows(self):
        rep = run_experiment(
            parse_config(
                """
experiment = e-identity
mu = 2
k = 1
f = radial:0,0,1
nu_list = 20,40,80,160
sample_points = 10
timing = off
"""
            )
        )
        assert rep.fitted_order == pytest.approx(-1.0, abs=0.2)

    def test_kernel_chain_row(self):
        rep = run_experiment(
            parse_config(
                """
experiment = kernel-chain
nu_list = 4
chain_length = 2
samples = 50000
seed = 3
timing = off
"""
            )
        )
        row = rep.rows[0]
        assert row.measured + row.tail_bound <= 81.0
        assert row.note == "quadrature-target"

    def test_per_row_failure_recorded(self):
        # f = const makes the target integral diverge: row fails, run continues
        rep = run_experiment(
            parse_config(
                """
experiment = toeplitz-trace
f = radial:1
psi = 0,1
nu_list = 4,8
timing = off
"""
            )
        )
        assert all(r.error for r in rep.rows)
        assert math.isnan(rep.rows[0].measured)
        assert rep.failures

    def test_nan_row_fails_the_tolerance_gate(self):
        # abs_error NaN is not <= tol_abs, so the row fails the gate
        good = ReportRow(nu=2, measured=0.5, target=0.5)
        nan_row = ReportRow(nu=3, measured=math.nan, target=0.0)
        rep = ExperimentReport(parse_config(BASE + "tol_abs = 1e-3\n"), [good, nan_row])
        assert rep.failures == [nan_row]
        rep.config.tol_abs = 0.0  # the gate is off
        assert rep.failures == []

    def test_berezin_eigen_large_weight_passes_gate(self, tmp_path):
        # recentred, the residual meets criterion 6's 1e-6 at nu = 800 and 1000
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("experiment = berezin-eigen\nnu_list = 2,800,1000\n"
                       "tol_abs = 1e-6\ntiming = off\n")
        assert cli_main(["berezin-eigen", "--config", str(cfg)]) == 0

    def test_kernel_chain_large_weight_targets(self):
        report = run_experiment(parse_config(
            "experiment = kernel-chain\nnu_list = 8,200,800\nsamples = 20000\n"
            "timing = off\n"))
        assert not any(row.error for row in report.rows)
        for row in report.rows:
            assert abs(row.target - chain2_series_oracle(row.nu)) <= 1e-9

    def test_berezin_eigen_row(self):
        rep = run_experiment(
            parse_config(
                """
experiment = berezin-eigen
nu_list = 4
lambda_list = 0,1
quadrature_radial = 100
quadrature_angular = 128
timing = off
"""
            )
        )
        assert rep.rows[0].measured < 1e-8


def _lowest_moment(mu, k, psi):
    """int psi(H_mu^k(e_0 e_0^*)) d iota from Beta moments: H = c u^k (1-u)^mu."""
    c = math.exp(math.lgamma(mu + k) - math.lgamma(mu) - math.lgamma(k + 1.0))
    return sum(
        a * c**j * math.exp(
            math.lgamma(j * k + 1.0) + math.lgamma(j * mu - 1.0)
            - math.lgamma(j * k + j * mu)
        )
        for j, a in enumerate(psi)
        if j >= 1 and a != 0.0
    )


def _fewer_nodes(monkeypatch, radial=0, angular=0):
    """Make the runner's quadrature drop nodes, to show its counts are sharp."""
    original = experiments.build_quadrature

    def smaller(n_r, n_theta, *args, **kwargs):
        return original(n_r - radial, n_theta - angular, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_quadrature", smaller)


def _legendre_grid_integral(state, k, psi):
    """The 400x512 Legendre grid that sized the Husimi targets before."""
    quad = build_quadrature(400, 512, 2.0)
    hvals = husimi_grid(state, k, quad.nodes)
    return sum(
        a * float(np.real(quad.integrate(hvals**j)))
        for j, a in enumerate(psi)
        if j >= 1 and a != 0.0
    )


def _state(text):
    cfg = parse_config("experiment = channel-limit\nnu_list = 4\n" + text)
    return cfg, _input_state(cfg)


RANDOM_23 = "mu = 2\nk = 1\ninput_state = rank-r-random\nstate_dim = 24\nseed = 1\n"
TOEPLITZ_64 = (
    "mu = 2\nk = 1\ninput_state = toeplitz\nf = radial:0,0,1\ntruncation_n = 64\n"
)


class TestHusimiIntegral:
    @pytest.mark.parametrize(
        "mu, k, psi", [(2, 1, (0, 0, 1)), (3, 2, (0, 0, 1)), (2, 3, (0, 0, 0, 1))]
    )
    def test_radial_count_is_exact_and_sharp(self, monkeypatch, mu, k, psi):
        _, state = _state(f"mu = {mu}\nk = {k}\n")
        exact = _lowest_moment(mu, k, psi)
        assert _husimi_integral(state, k, psi) == pytest.approx(exact, rel=1e-14)
        _fewer_nodes(monkeypatch, radial=1)
        assert abs(_husimi_integral(state, k, psi) / exact - 1.0) > 1e-4

    def test_angular_count_is_sharp(self, monkeypatch):
        cfg, state = _state(RANDOM_23)
        exact = _husimi_integral(state, cfg.k, cfg.psi)
        _fewer_nodes(monkeypatch, angular=1)
        assert abs(_husimi_integral(state, cfg.k, cfg.psi) / exact - 1.0) > 1e-8

    @pytest.mark.parametrize(
        "text", [TOEPLITZ_64, RANDOM_23], ids=["toeplitz", "random"]
    )
    def test_matches_the_legendre_grid(self, text):
        cfg, state = _state(text)
        assert _husimi_integral(state, cfg.k, cfg.psi) == pytest.approx(
            _legendre_grid_integral(state, cfg.k, cfg.psi), rel=1e-13
        )

    @pytest.mark.parametrize(
        "text, radii, angles",
        [
            # d = 5, k = 2, J = 3, mu = 3: floor((3*7 + 2*3)/2) + 1 radii and
            # 3*5 + 1 angles
            ("mu = 3\nk = 2\ninput_state = rank-r-random\nstate_dim = 6\n"
             "state_rank = 2\npsi = 0,1,-1,2\n", 14, 16),
            # diagonal, d = 64, k = 1, J = 3, mu = 2: floor((3*65 + 2*2)/2) + 1
            # radii (psi of degree <= 2 takes the Schur target, with no rule)
            (TOEPLITZ_64 + "psi = 0,0,1,0.5\n", 100, 1),
        ],
        ids=["random", "toeplitz"],
    )
    def test_channel_limit_builds_one_sized_rule(
        self, monkeypatch, text, radii, angles
    ):
        built = []
        original = experiments.build_quadrature

        def counted(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(experiments, "build_quadrature", counted)
        text = (
            "experiment = channel-limit\nnu_list = 4,8\ntruncation_l = 200\n"
            "timing = off\n" + text
        )
        report = run_experiment(parse_config(text))
        assert [q.nodes.size for q in built] == [radii * angles]
        assert (built[0].radial_count, built[0].angular_count) == (radii, angles)
        # the grid keys no longer reach the target
        other = run_experiment(
            parse_config(text + "quadrature_radial = 7\nquadrature_angular = 3\n")
        )
        other.config = report.config
        assert emit_report(other, "json") == emit_report(report, "json")

    @pytest.mark.parametrize(
        "state_dim, state_rank, tol", [(8, 2, 1e-14), (24, 3, 1e-13)]
    )
    def test_husimi_check_rows_are_exact(self, state_dim, state_rank, tol):
        rep = run_experiment(
            parse_config(
                f"experiment = husimi-check\nk = 1\nnu_list = 2,3,50,800\n"
                f"state_dim = {state_dim}\nstate_rank = {state_rank}\ntiming = off\n"
            )
        )
        assert [r.nu for r in rep.rows] == [2, 3, 50, 800]
        for r in rep.rows:
            assert r.error == ""
            assert r.abs_error <= tol


# the channel-limit states of the benchmark's dense-sweep (by seed) and
# diag-sweep, and of the runner tests above
DENSE_SWEEP = ("mu = 2\nk = 1\ninput_state = rank-r-random\nstate_dim = 24\nstate_rank = 3\n"
               "truncation_l = 2048\npsi = 0,0,1\nseed = {}\n")
SCHUR_CASES = {
    **{f"dense-sweep-{seed}": DENSE_SWEEP.format(seed) for seed in range(1, 11)},
    "toeplitz": TOEPLITZ_64,
    **{f"random-{mu}-{k}-{d}": f"mu = {mu}\nk = {k}\ninput_state = rank-r-random\n"
       f"state_dim = {d + 1}\npsi = 0,-0.5,2\nseed = 2\n"
       for mu, k, d in [(3, 0, 9), (3, 2, 11), (2, 0, 5)]},
    "random": RANDOM_23,
    "small": "mu = 2\nk = 1\ninput_state = rank-r-random\nstate_dim = 6\nstate_rank = 2\nseed = 3\n",
    "random-mu-3": "mu = 3\nk = 1\ninput_state = rank-r-random\nstate_rank = 2\n"
                   "state_dim = 8\nseed = 4\n",
}


class TestSchurTarget:
    @pytest.mark.parametrize("text", SCHUR_CASES.values(), ids=SCHUR_CASES.keys())
    def test_matches_the_quadrature_target(self, text):
        cfg, state = _state(text)
        exact = _husimi_integral(state, cfg.k, cfg.psi)
        assert _husimi_target(cfg, state) == (pytest.approx(exact, rel=1e-13), "schur-target")

    def test_matches_the_quadrature_target_at_degree_400(self):
        # test_toeplitz_state_sweep's state: at degree 400 the Gauss-Jacobi
        # values themselves spread by 4.6e-13 relative across rules of 403
        # to 600 radii, and the sum lies inside that spread
        cfg, state = _state(TOEPLITZ_64.replace("= 64", "= 400"))
        target, _ = _husimi_target(cfg, state)
        assert target == pytest.approx(_husimi_integral(state, cfg.k, cfg.psi), rel=3e-13)

    @pytest.mark.parametrize("mu", [1.5, 2.5, 3.7, 11.25])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_lowest_state_at_any_weight(self, mu, k):
        # ((mu)_k/k!)^2 B(2k+1, 2mu-1), also where no Husimi rule can run
        exact = (mp.rf(mu, k) / mp.factorial(k)) ** 2 * mp.beta(2 * k + 1, 2 * mu - 1)
        assert _schur_integral(lowest_state(mu), k, (0.0, 0.0, 1.0)) == pytest.approx(
            float(exact), rel=1e-13)

    def test_index_zero_is_the_squared_covariant_symbol(self):
        # at k = 0, H is the covariant symbol (at -w, the same integral), so
        # H^2 = (1-u)^{2 mu} times a polynomial of degree 2d in z and in
        # conj z: a rule in (1-u)^{2 mu - 2} with d + 1 radii and 2d + 1
        # angles is exact, here with room to spare
        mu, d = 2.5, 9
        state = random_psd(mu, d + 1, 3, seed=5)
        quad = build_quadrature(2 * d + 8, 4 * d + 8, 2 * mu)
        symbol, _ = covariant_symbol_oracle(state, quad.nodes)
        exact = float(np.real(quad.integrate(np.real(symbol) ** 2)))
        for psi in [(0.0, 0.0, 1.0), (0.0, 2.0, -0.5)]:
            assert _schur_integral(state, 0, psi) == pytest.approx(
                psi[1] / (mu - 1.0) + psi[2] * exact, rel=1e-12)

    @pytest.mark.parametrize("mu, k, d", [(2.0, 1, 5), (2.5, 1, 5), (2.5, 2, 4), (3.7, 1, 3)])
    def test_squared_husimi_function_at_any_weight(self, mu, k, d):
        # H = (1-u)^mu times a polynomial of degree d + k in z and in conj z,
        # from the binomial series of U e_k (no group action): a rule in
        # (1-u)^{2 mu - 2} with 2(d + k) + 8 radii and 4(d + k) + 8 angles is
        # exact for H^2; at mu = 2 the oracle meets the Husimi rule too
        state = random_psd(mu, d + 1, 3, seed=7)
        quad = build_quadrature(2 * (d + k) + 8, 4 * (d + k) + 8, 2 * mu)
        exact = float(np.real(quad.integrate(husimi_any_weight_oracle(state, k, quad.nodes) ** 2)))
        assert _schur_integral(state, k, (0.0, 0.0, 1.0)) == pytest.approx(exact, rel=1e-13)
        if mu == 2.0:
            assert _husimi_integral(state, k, (0.0, 0.0, 1.0)) == pytest.approx(exact, rel=1e-13)

    def test_memory_is_bounded_at_state_dim_256(self):
        # the flipped copy padded by d zeros, (3d + 1)^2 complex entries
        # (9.0 MiB at d = 255), the weight grid of 511 x 256 entries and its
        # buffers, and slabs of at most 2^16 entries; unblocked, the products
        # would be 511 x 256^2 complex entries (535 MB)
        cfg, state = _state(RANDOM_23.replace("= 24", "= 256"))
        assert state.degree == 255
        tracemalloc.start()
        try:
            value = _schur_integral(state, cfg.k, cfg.psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(value) and value > 0.0
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_rows_run_no_husimi_rule(self, monkeypatch):
        # neither a dense nor a diagonal input reaches the quadrature, the
        # Husimi grid or the transport recursion
        def refuse(*args, **kwargs):
            raise AssertionError("called")

        for module, name in [(experiments, "husimi_grid"), (experiments, "build_quadrature"),
                             (bergman, "transported_basis_vectors")]:
            monkeypatch.setattr(module, name, refuse)
        for text in (DENSE_SWEEP.format(1) + "nu_list = 10,20,40\n",
                     TOEPLITZ_64 + "psi = 0,0,1\nnu_list = 50\n"):
            report = run_experiment(parse_config(f"experiment = channel-limit\n{text}timing = off\n"))
            assert [(r.error, r.note) for r in report.rows] == [("", "schur-target")] * len(report.rows)

    def test_non_integer_weight_row(self):
        # mu = 2.5: the dense row runs, and its error falls as nu grows
        report = run_experiment(parse_config(
            "experiment = channel-limit\nnu_list = 10,20,40\ntiming = off\n"
            + DENSE_SWEEP.format(1).replace("mu = 2", "mu = 2.5")))
        assert [r.error for r in report.rows] == [""] * 3
        errors = [r.abs_error for r in report.rows]
        assert errors[0] > errors[1] > errors[2] > 0.0


class TestCli:
    def _write(self, tmp_path, text, name="cfg.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_success_and_report(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "experiment = constants\nnu_list = 2,3\ntiming = off\n")
        out = str(tmp_path / "report.csv")
        code = cli_main(["constants", "--config", cfg, "--out", out, "--format", "csv"])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "nu,measured,target,abs_error,tail_bound,seconds"
        assert len(lines) == 3
        assert "report written" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "experiment = constants\nnu_list = 2,3\nbogus = 1\n")
        assert cli_main(["constants", "--config", cfg]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("channel-limit", "state_rank", 0),
            ("channel-limit", "state_dim", 0),
            ("channel-limit", "quadrature_radial", 0),
            ("channel-limit", "quadrature_angular", 0),
            ("husimi-check", "state_rank", 0),
            ("husimi-check", "quadrature_radial", 0),
            ("e-identity", "sample_points", 0),
            ("constants", "kmax", -1),
            ("constants", "threads", 0),
            ("kernel-chain", "threads", -2),
            ("channel-limit", "seed", -1),
            ("husimi-check", "seed", -1),
            ("kernel-chain", "seed", -1),
        ],
    )
    def test_size_below_range_is_config_error(
        self, tmp_path, capsys, experiment, key, value
    ):
        cfg = self._write(
            tmp_path,
            f"experiment = {experiment}\nnu_list = 3\ninput_state = rank-r-random\n"
            f"{key} = {value}\n",
        )
        assert cli_main([experiment, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}:")
        assert "Traceback" not in err

    def test_radial_count_above_limit_is_config_error(self, tmp_path, capsys):
        # a 4,000-node rule would take 213 MiB before any row reports
        text = "experiment = berezin-eigen\nnu_list = 2\nquadrature_radial = {}\n"
        assert parse_config(text.format(2000)).quadrature_radial == 2000
        cfg = self._write(tmp_path, text.format(2001))
        assert cli_main(["berezin-eigen", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: quadrature_radial: must be <= 2000")
        assert "Traceback" not in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_flag_below_range_is_config_error(self, tmp_path, capsys, threads):
        cfg = self._write(tmp_path, "experiment = constants\nnu_list = 3\n")
        assert cli_main(["constants", "--config", cfg, "--threads", threads]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: threads: must be >= 1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("experiment", ["channel-limit", "husimi-check", "kernel-chain"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, experiment):
        # numpy's generators refuse a negative seed: a rank-r-random input
        # raised from np.random.default_rng, and every kernel-chain or
        # husimi-check row failed with exit 2
        cfg = self._write(
            tmp_path, f"experiment = {experiment}\nnu_list = 3\ninput_state = rank-r-random\n")
        assert cli_main([experiment, "--config", cfg, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seed: must be >= 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_lambda_list_is_config_error(self, tmp_path, capsys, value):
        # every berezin-eigen row needs a spectral parameter; an empty list
        # used to fail each row at run time while the CLI exited 0
        cfg = self._write(
            tmp_path, f"experiment = berezin-eigen\nnu_list = 2\nlambda_list = {value}\n"
        )
        assert cli_main(["berezin-eigen", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: lambda_list:")
        assert "Traceback" not in err

    def test_subcommand_mismatch(self, tmp_path):
        cfg = self._write(tmp_path, "experiment = constants\nnu_list = 2,3\n")
        assert cli_main(["kernel-chain", "--config", cfg]) == 1

    def test_unknown_experiment_exits_2_naming_every_experiment(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "experiment = constants\nnu_list = 2\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["bogus", "--config", cfg])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(repr(name) in err for name in EXPERIMENTS)

    def test_missing_config_option_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["constants"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_help_lists_every_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(EXPERIMENTS) + "}" in out
        for option in ("--config", "--out", "--format", "--threads", "--seed"):
            assert option in out

    def test_options_before_experiment(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "experiment = constants\nnu_list = 2,3\ntiming = off\n")
        out = str(tmp_path / "report.json")
        code = cli_main(["--format", "json", "--out", out, "--seed", "3", "--threads", "1",
                         "--config", cfg, "constants"])
        assert code == 0
        report = json.loads(Path(out).read_text())
        assert report["config"]["seed"] == 3
        assert [row["nu"] for row in report["rows"]] == [2, 3]

    def test_parser_is_built_once_per_process(self, tmp_path):
        cfg = self._write(tmp_path, "experiment = constants\nnu_list = 2\ntiming = off\n")
        cli.build_parser.cache_clear()
        assert cli_main(["constants", "--config", cfg]) == 0
        assert cli_main(["constants", "--config", cfg, "--seed", "2"]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_exit_codes_from_the_kept_parser(self, tmp_path, capsys):
        # a usage error exits with 2 and a config error returns 1, each time
        # from the parser that the first call built
        good = self._write(tmp_path, "experiment = constants\nnu_list = 2\ntiming = off\n")
        bad = self._write(tmp_path, "experiment = constants\nnu_list = 2\nbogus = 1\n", "bad.txt")
        cli.build_parser.cache_clear()
        assert cli_main(["constants", "--config", good]) == 0
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli_main(["constants"])
            assert exc.value.code == 2
            assert cli_main(["constants", "--config", bad]) == 1
        assert cli.build_parser.cache_info().misses == 1

    def test_missing_config_file(self, tmp_path):
        assert cli_main(["constants", "--config", str(tmp_path / "nope.txt")]) == 1

    def test_gate_line_and_exit_code_agree_on_a_nan_row(self, tmp_path, capsys, monkeypatch):
        def nan_report(config):
            rows = [ReportRow(nu=2, measured=0.5, target=0.5),
                    ReportRow(nu=3, measured=math.nan, target=0.0)]
            return ExperimentReport(config, rows)

        monkeypatch.setattr("diskchannels.cli.run_experiment", nan_report)
        cfg = self._write(tmp_path, "experiment = constants\nnu_list = 2,3\ntol_abs = 1e-3\n")
        assert cli_main(["constants", "--config", cfg]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("  ok")
        assert lines[1].endswith("  TOLERANCE EXCEEDED (> 0.001)")

    def test_tolerance_exit_code(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "experiment = kernel-chain\nnu_list = 4\nchain_length = 2\n"
            "samples = 20000\nseed = 1\ntol_abs = 1e-12\ntiming = off\n",
        )
        assert cli_main(["kernel-chain", "--config", cfg]) == 2

    def test_seed_override_changes_mc(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "experiment = kernel-chain\nnu_list = 4\nchain_length = 2\n"
            "samples = 20000\nseed = 1\ntiming = off\n",
        )
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cli_main(["kernel-chain", "--config", cfg, "--out", out1, "--format", "json"])
        cli_main(["kernel-chain", "--config", cfg, "--out", out2, "--format", "json",
                  "--seed", "2"])
        a = json.loads(Path(out1).read_text())["rows"][0]["measured"]
        b = json.loads(Path(out2).read_text())["rows"][0]["measured"]
        assert a != b


class TestToeplitzInputState:
    def test_toeplitz_state_sweep(self):
        rep = run_experiment(
            parse_config(
                """
experiment = channel-limit
mu = 2
k = 1
nu_list = 10,20,40
input_state = toeplitz
f = radial:0,0,1
psi = 0,0,1
truncation_n = 400
truncation_l = 2500
quadrature_radial = 150
quadrature_angular = 64
timing = off
"""
            )
        )
        assert all(not r.error for r in rep.rows)
        assert all(r.note == "schur-target" for r in rep.rows)
        errs = [r.abs_error for r in rep.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_sign_changing_f_rejected(self, tmp_path):
        text = (
            "experiment = channel-limit\nnu_list = 4,8\ninput_state = toeplitz\n"
            "f = radial:0,1,-2\ntiming = off\n"
        )
        with pytest.raises(ConfigError, match="f:"):
            run_experiment(parse_config(text))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli_main(["channel-limit", "--config", str(cfg)]) == 1
