"""Config parsing, report emission, determinism, and the CLI surface."""

import dataclasses
import json
import math
import time
from decimal import Decimal
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import chain2_series_oracle, dropped_trace_oracle

from diskchannels import experiments
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
    _input_state,
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

    def test_channel_limit_needs_integer_mu(self):
        # the exact Gauss-Jacobi Husimi target needs an integer weight
        with pytest.raises(ConfigError, match="mu:"):
            parse_config(BASE.replace("mu = 2", "mu = 2.5"))
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
        # mu >= 3, psi = x: measured + tail_bound must bracket the exact
        # untruncated value (mu+nu+2k-1)/(nu(mu-1))
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
            assert r.measured <= untruncated <= r.measured + r.tail_bound

    @pytest.mark.parametrize("mu,nu", [(2, 50), (2, 800), (3, 800)])
    def test_trace_tail_covers_exact_dropped_trace(self, mu, nu):
        # k = 0, lowest state: lambda_p = (nu)_p/(mu+nu)_p, and the trace
        # dropped at the auto cut telescopes to
        # trace_factor (nu)_{cut+1}/(mu+nu-1)_{cut+1}; 40 digits
        rep = run_experiment(parse_config(
            BASE.replace("mu = 2", f"mu = {mu}").replace("8,16,32,64", str(nu))
            .replace("psi = 0,0,1", "psi = 0,1")
        ))
        (row,) = rep.rows
        cut = max(64 * nu, 4096)
        with mp.workdps(40):
            a, b = mp.mpf(nu), mp.mpf(mu + nu - 1)
            dropped = (b / (mu - 1)) * mp.exp(
                mp.loggamma(a + cut + 1) - mp.loggamma(a)
                - mp.loggamma(b + cut + 1) + mp.loggamma(b)
            )
            tail = mp.mpf(row.tail_bound) * nu
            assert tail >= dropped
            assert (tail - dropped) / dropped <= 1e-6

    def test_trace_tail_covers_exact_dropped_trace_toeplitz(self):
        # the toeplitz state of degree 64 at k = 1, nu = 50 (as in diag-sweep): its
        # rows m >= 1 cross the zeros of S = m/mu - n/nu below the auto cut,
        # where rounding is relative to T, not lambda; 40 digits, each row by
        # its recurrence in p
        rep = run_experiment(parse_config(
            "experiment = channel-limit\nmu = 2\nk = 1\nnu_list = 50\n"
            "input_state = toeplitz\nf = radial:0,0,1\ntruncation_n = 64\n"
            "psi = 0,1\ntiming = off\n"
        ))
        (row,) = rep.rows
        diag = np.real(np.diag(_input_state(rep.config).matrix))
        dropped = dropped_trace_oracle(2, 50, 1, diag, cut=4096)
        tail = Decimal(row.tail_bound) * 50
        assert tail >= dropped
        assert (tail - dropped) / dropped <= Decimal("1e-6")

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
        assert all(r.note == "quadrature-target" for r in rep.rows)
        # errors still shrink toward the quadrature target
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

    @pytest.mark.parametrize("state", ["lowest", "toeplitz", "rank-r-random"])
    def test_tail_bound_is_library_trace_tail(self, state):
        # the row's trace tail (from Tr T(A) = trace_factor Tr A) lies inside
        # output_trace_interval's independent bracket: above the exact far
        # sum, below the tail estimate and the rigorous bound at the cut
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
truncation_l = 300
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
            tail = row.tail_bound * row.nu / 3.5
            far = float(np.sum(diagonal_output_spectrum(params, diag, 2400)[301:]))
            # the rigorous bound is at the cut whatever extend_to is
            _, estimate, bound = output_trace_interval(state_op, params, 300, 2400)
            assert far <= tail <= min(estimate, bound)

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
            # diagonal, d = 64, k = 1, J = 2, mu = 2: floor((2*65 + 2)/2) + 1 radii
            (TOEPLITZ_64, 67, 1),
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

    def test_missing_config_file(self, tmp_path):
        assert cli_main(["constants", "--config", str(tmp_path / "nope.txt")]) == 1

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
        assert all(r.note == "quadrature-target" for r in rep.rows)
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
