"""Configuration-driven experiment runner.

Experiments sweep the tensor weight nu and report per-row measured values,
closed-form (or labeled quadrature) targets, absolute errors, tail bounds, and
a fitted convergence order.  Configs are flat ``key = value`` text files with
a closed key set; unknown keys are errors, and identical configs (with
``timing = off``) produce byte-identical reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bergman import TruncatedOperator
from .channel import (
    ChannelParams,
    _abs_sum_trace,
    apply_channel,
    banded_trace,
    diagonal_output_spectrum,
    isometry_weights,
    power_sum,
)
# unused here: bench/tracing.py wraps these two names in this module
from .channel import diagonal_response, response_tail_bound  # noqa: F401
from .disk import build_quadrature
from .spectral import (
    chain2_tensor_quadrature,
    chained_kernel_integral,
    eigen_relation_residual,
)
from .specfun import channel_constant_sq, pochhammer, validate_weight
from .transforms import (
    e_transform,
    husimi_grid,
    radial_poly,
    toeplitz_diagonal,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "parse_config",
    "run_experiment",
    "emit_report",
]

EXPERIMENTS = (
    "channel-limit",
    "toeplitz-trace",
    "berezin-eigen",
    "husimi-check",
    "e-identity",
    "constants",
    "kernel-chain",
)

CSV_HEADER = "nu,measured,target,abs_error,tail_bound,seconds"


class ConfigError(ValueError):
    """An experiment configuration is invalid; message names the field."""


@dataclass
class ExperimentConfig:
    experiment: str
    mu: float = 2.0
    k: int = 0
    nu_list: tuple[int, ...] = ()
    input_state: str = "lowest"
    state_rank: int = 3
    state_dim: int = 24
    psi: tuple[float, ...] = (0.0, 0.0, 1.0)
    f_coeffs: tuple[float, ...] = (0.0, 0.0, 1.0)
    truncation_n: int = 256
    truncation_l: int = 0  # 0 = auto
    quadrature_radial: int = 400
    quadrature_angular: int = 128
    lambda_list: tuple[float, ...] = (0.0, 1.0, 2.0)
    sample_points: int = 20
    samples: int = 1_000_000
    chain_length: int = 2
    kmax: int = 3
    seed: int = 0
    threads: int = 1
    tol_abs: float = 0.0  # 0 disables the per-row gate
    timing: bool = True
    output_path: str = ""
    output_format: str = "csv"

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: unknown experiment {self.experiment!r}")
        try:
            validate_weight(self.mu)
        except ValueError as exc:
            raise ConfigError(f"mu: {exc}") from None
        if self.experiment == "channel-limit" and not float(self.mu).is_integer():
            raise ConfigError("mu: channel-limit Husimi targets need an integer weight")
        if self.k < 0:
            raise ConfigError("k: must be >= 0")
        if self.truncation_n < 0 or self.truncation_l < 0:
            raise ConfigError("truncation_n/truncation_l: must be >= 0")
        if not self.nu_list:
            raise ConfigError("nu_list: required")
        if any(b <= a for a, b in zip(self.nu_list, self.nu_list[1:])):
            raise ConfigError("nu_list: must be strictly increasing")
        if any(nu <= 1 for nu in self.nu_list):
            raise ConfigError("nu_list: weights must be > 1")
        if self.experiment == "berezin-eigen" and not self.lambda_list:
            raise ConfigError("lambda_list: berezin-eigen needs at least one value")
        if not self.psi or self.psi[0] != 0.0:
            raise ConfigError("psi: constant term must be 0")
        if self.tol_abs < 0.0:
            raise ConfigError("tol_abs: must be > 0 when set")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output_format: must be csv or json")
        for name in ("state_rank", "state_dim", "quadrature_radial",
                     "quadrature_angular", "sample_points", "samples",
                     "chain_length", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.quadrature_radial > 2000:
            # gauss_jacobi(2000, 0) takes 1.2 s and 53 MiB on a 2-core x86-64
            # machine (numpy 2.4.6), and 4,000 nodes take 213 MiB
            raise ConfigError(
                f"quadrature_radial: must be <= 2000 (5x the default), got "
                f"{self.quadrature_radial}: a berezin-eigen row at nu = 2 builds "
                "a Gauss-Jacobi rule of that many nodes, whose cost grows as "
                "the cube of the count and its memory as the square"
            )
        if self.kmax < 0:
            raise ConfigError("kmax: must be >= 0")
        if self.input_state not in ("lowest", "rank-r-random", "toeplitz"):
            raise ConfigError(
                "input_state: must be lowest, rank-r-random, or toeplitz"
            )
        return self


_KEY_TYPES = {
    "experiment": str,
    "mu": float,
    "k": int,
    "nu_list": "int_list",
    "input_state": str,
    "state_rank": int,
    "state_dim": int,
    "psi": "float_list",
    "f": "f_desc",
    "truncation_n": int,
    "truncation_l": int,
    "quadrature_radial": int,
    "quadrature_angular": int,
    "lambda_list": "float_list",
    "sample_points": int,
    "samples": int,
    "chain_length": int,
    "kmax": int,
    "seed": int,
    "threads": int,
    "tol_abs": float,
    "timing": "on_off",
    "output_path": str,
    "output_format": str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value format; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{key}: unknown configuration key")
        if key in values:
            raise ConfigError(f"{key}: duplicate key")
        kind = _KEY_TYPES[key]
        try:
            if kind is str:
                parsed = val
            elif kind is int:
                parsed = int(val)
            elif kind is float:
                parsed = float(val)
            elif kind == "int_list":
                parsed = tuple(int(v) for v in val.split(",") if v.strip())
            elif kind == "float_list":
                parsed = tuple(float(v) for v in val.split(",") if v.strip())
            elif kind == "on_off":
                if val not in ("on", "off"):
                    raise ValueError
                parsed = val == "on"
            elif kind == "f_desc":
                if not val.startswith("radial:"):
                    raise ConfigError(
                        "f: only 'radial:<c0>,<c1>,...' descriptors are supported"
                    )
                parsed = tuple(float(v) for v in val[len("radial:"):].split(","))
            else:  # pragma: no cover
                raise AssertionError(kind)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{key}: cannot parse value {val!r}") from None
        values["f_coeffs" if key == "f" else key] = parsed
    if "experiment" not in values:
        raise ConfigError("experiment: required")
    return ExperimentConfig(**values).validate()


@dataclass
class ReportRow:
    nu: float
    measured: float
    target: float
    tail_bound: float = 0.0
    seconds: float = 0.0
    note: str = ""
    error: str = ""

    @property
    def abs_error(self) -> float:
        return abs(self.measured - self.target)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[ReportRow] = field(default_factory=list)
    fitted_order: float | None = None
    fitted_order_stderr: float | None = None
    version: str = __version__

    @property
    def failures(self) -> list[ReportRow]:
        bad = [r for r in self.rows if r.error]
        if self.config.tol_abs > 0.0:
            bad += [r for r in self.rows if not r.error and r.abs_error > self.config.tol_abs]
        return bad


def _fit_order(rows: list[ReportRow]) -> tuple[float | None, float | None]:
    """Least-squares slope of log |error| against log nu (>= 4 usable rows)."""
    pts = [
        (math.log(r.nu), math.log(r.abs_error))
        for r in rows
        if not r.error and r.abs_error > 0.0 and r.nu > 0
    ]
    if len(pts) < 4:
        return None, None
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    dof = len(pts) - 2
    if dof > 0 and res.size:
        sigma2 = float(res[0]) / dof
        sxx = float(np.sum((x - x.mean()) ** 2))
        stderr = math.sqrt(sigma2 / sxx)
    else:
        stderr = 0.0
    return float(coef[0]), stderr


def _radial_moment(coeffs, power: int) -> float:
    """int f(z)^power d iota for radial-poly f, by exact closed form.

    f^power expands in powers of (1-u); int (1-u)^s d iota = 1/(s-1) needs
    s >= 2 for every surviving term.
    """
    poly = np.zeros(1)
    poly[0] = 1.0
    for _ in range(power):
        poly = np.convolve(poly, np.asarray(coeffs, dtype=float))
    total = 0.0
    for s, c in enumerate(poly):
        if c == 0.0:
            continue
        if s < 2:
            raise ConfigError(
                f"f: f^{power} carries a (1-|z|^2)^{s} term; integral diverges"
            )
        total += c / (s - 1.0)
    return total


def _random_state(cfg: ExperimentConfig, weight: float) -> TruncatedOperator:
    """Random rank-r PSD matrix with unit trace on degrees < state_dim,
    capped by the basis truncation."""
    rng = np.random.default_rng(cfg.seed)
    dim = min(cfg.state_dim, cfg.truncation_n + 1)
    g = rng.normal(size=(dim, cfg.state_rank)) + 1j * rng.normal(
        size=(dim, cfg.state_rank)
    )
    mat = g @ g.conj().T
    mat /= np.real(np.trace(mat))
    return TruncatedOperator(weight, mat, hermitian=True)


def _input_state(cfg: ExperimentConfig) -> TruncatedOperator:
    if cfg.input_state == "lowest":
        m = np.zeros((1, 1), dtype=complex)
        m[0, 0] = 1.0
        return TruncatedOperator(cfg.mu, m, hermitian=True)
    if cfg.input_state == "toeplitz":
        # normalized truncation of T_f/(mu-1); PSD requires f >= 0
        f = radial_poly(cfg.f_coeffs)
        diag = toeplitz_diagonal(f, cfg.mu, cfg.truncation_n) / (cfg.mu - 1.0)
        if np.any(diag < 0):
            raise ConfigError("f: toeplitz input state requires f >= 0")
        return TruncatedOperator(
            cfg.mu, np.diag(diag / np.sum(diag)), hermitian=True
        )
    return _random_state(cfg, cfg.mu)


def _husimi_integral(state: TruncatedOperator, k: int, psi) -> float:
    """int psi(H_w^k(state)) d iota, exact at an integer weight w.

    H^j is (1-u)^{jw} times a polynomial of degree <= j(d+k) in u = |z|^2 and
    of angular order <= jd (0 if the state is diagonal), d the state's degree;
    so Gauss-Jacobi in (1-u)^{w-2} with floor((J(d+k) + (J-1)w)/2) + 1 radii
    and Jd + 1 angles is exact for every power up to psi's degree J.
    """
    top = max((j for j, a in enumerate(psi) if a != 0.0), default=1)
    n_r = math.floor((top * (state.degree + k) + (top - 1) * state.weight) / 2) + 1
    n_theta = 1 if state.is_diagonal else top * state.degree + 1
    quad = build_quadrature(n_r, n_theta, state.weight, radial_rule="jacobi")
    hvals = husimi_grid(state, k, quad.nodes)
    return sum((a * float(np.real(quad.integrate(hvals**j)))
                for j, a in enumerate(psi) if j >= 1 and a != 0.0), 0.0)


def _husimi_target(cfg: ExperimentConfig, state: TruncatedOperator) -> tuple[float, str]:
    """int psi(H_mu^k(state)) d iota: closed form for the lowest state, the
    exact rule of :func:`_husimi_integral` otherwise (labeled in the note)."""
    mu, k = cfg.mu, cfg.k
    if cfg.input_state == "lowest":
        # H(w) = ((mu)_k/k!) u^k (1-u)^mu; moment of x^j is Beta(jk+1, j mu - 1)
        total = 0.0
        c = math.exp(math.lgamma(mu + k) - math.lgamma(mu) - math.lgamma(k + 1.0))
        for j, a in enumerate(cfg.psi):
            if j == 0 or a == 0.0:
                continue
            # moment of x^j: c^j B(jk+1, j mu - 1), finite for every mu > 1
            total += a * c**j * math.exp(
                math.lgamma(j * k + 1.0)
                + math.lgamma(j * mu - 1.0)
                - math.lgamma(j * k + j * mu)
            )
        return total, "closed-form"
    return _husimi_integral(state, k, cfg.psi), "quadrature-target"


def _row_channel_limit(cfg: ExperimentConfig, nu: int, context) -> ReportRow:
    state, (target, note) = context
    cut = cfg.truncation_l or max(64 * nu, 4096)
    params = ChannelParams(cfg.mu, float(nu), cfg.k, output_degree=cut)
    diag_in = np.real(np.diag(state.matrix))
    out_diag = diagonal_output_spectrum(params, diag_in, cut)
    if state.is_diagonal:
        measured = power_sum(cfg.psi, out_diag) / nu
    else:
        # sum_j a_j Tr T(A)^j from the bands: the sum of psi over the spectrum
        measured = banded_trace(apply_channel(state, params), cfg.psi) / nu
    # Tr T(A) = trace_factor Tr A, so the cut drops trace_factor Tr A minus the
    # captured sum; |psi(x)| <= (sum_j |a_j|) x on [0, 1] bounds psi's share.
    # Rounding of the captured sum, whose entries diagonal_output_spectrum forms
    # as lambda_p(m) = S^2 r_m[p] from products over consecutive integers, each
    # factor a few roundings (units of eps, first order):
    # - r_0[p]: C^2 (nu)_k/k! as a product of k factors of three (7k), then p
    #   cumprod steps of four roundings, (1+p)(nu+k+p)/((s+p)(k+1+p)) and the
    #   multiply, plus the rounded parameters nu + k and s (4p).
    # - r_m[p]: Horner's rule multiplies degree m's term by the m steps
    #   n/(nu + n - 1) of the levels below it (2m).  Its weight (mu)_m/m! is
    #   w_m/w_0, running products of the ratios (m+1)/(mu+m) that carry a
    #   binary exponent; w_0 continues the product from w_m, so the quotient
    #   holds only the m factors below m (1.5m), and 1/w_0 is formed and
    #   multiplied once (1).  As m < dim, r_m[p] is within
    #   (4p + 3.5 dim + 7k + 1) eps relative.
    # - S: k + 1 terms of alternating sign whose coefficients are short
    #   products, off by gamma T with gamma = (2k + 2) eps, T the sum of the
    #   terms' absolute values.  Near a zero of S that is not relative to
    #   lambda (toeplitz input, nu = 800, m = 63: lambda = 0 at p = 25,262),
    #   but the entry is off by at most 3 gamma r T^2, whose sum over every p
    #   _abs_sum_trace gives exactly.
    # - an entry's products: the coefficient diag[m] w_m, its square root
    #   (half the coefficient's rounding plus its own, twice in the square),
    #   the root times the k + 1 coefficients of S (twice in the square), the
    #   square and the multiply by r_0: at most 8 roundings (4).  The sums: a
    #   term is added at each level from its degree down to 0, at most dim
    #   adds of nonnegative terms, then summed over p <= cut:
    #   (cut + 2 dim + 8) eps trace_factor Tr A.  With r_m[p] that is 4p per
    #   entry plus (cut + 5.5 dim + 7k + 9), within the (cut + 6 dim + 7k + 12)
    #   below.
    total = params.trace_factor * float(np.sum(diag_in))
    allowance = (
        4 * float(out_diag @ np.arange(cut + 1.0))
        + (cut + 6 * diag_in.size + 7 * cfg.k + 12) * total
        + 3 * (2 * cfg.k + 2) * _abs_sum_trace(params, diag_in)
    )
    trace_tail = max(total - float(np.sum(out_diag)), 0.0) + np.finfo(float).eps * allowance
    psi_slope = sum(abs(a) for a in cfg.psi[1:])
    return ReportRow(
        nu=nu, measured=measured, target=target,
        tail_bound=psi_slope * trace_tail / nu, note=note,
    )


def _row_toeplitz_trace(cfg: ExperimentConfig, nu: int) -> ReportRow:
    f = radial_poly(cfg.f_coeffs)
    target = sum(
        a * _radial_moment(cfg.f_coeffs, j)
        for j, a in enumerate(cfg.psi)
        if j >= 1 and a != 0.0
    )
    cut = cfg.truncation_l or 80 * nu
    diag = toeplitz_diagonal(f, float(nu), cut)
    measured = power_sum(cfg.psi, diag) / (nu - 1.0)
    # entries decay like m^{-s} with s = decay * lowest psi power; the dropped
    # psi mass is bounded by the integral test anchored at the last entry
    j_min = min((j for j, a in enumerate(cfg.psi) if a != 0.0 and j >= 1), default=1)
    s_min = f.min_decay * j_min
    edge = abs(power_sum(cfg.psi, diag[-1:]))
    tail = edge * (cut + 1.0) / max(s_min - 1.0, 1e-9) / (nu - 1.0)
    return ReportRow(nu=nu, measured=measured, target=target, tail_bound=tail,
                     note="closed-form")


def _row_berezin_eigen(cfg: ExperimentConfig, nu: int) -> ReportRow:
    # the configured counts are those at nu = 2; the weight (1-u)^{nu-2} of
    # the recentred rule shrinks the support in u, and with it the variation
    # of e_{lambda,b}, like 1/(nu-1)
    radial = max(math.ceil(cfg.quadrature_radial / (nu - 1)), 40)
    angular = max(math.ceil(cfg.quadrature_angular / (nu - 1)), 128)
    worst = eigen_relation_residual(float(nu), cfg.lambda_list,
                                    [0.0, 0.3, 0.45j, -0.2 + 0.3j], radial, angular)
    return ReportRow(nu=nu, measured=worst, target=0.0, note="quadrature-residual")


def _row_husimi_check(cfg: ExperimentConfig, nu: int) -> ReportRow:
    # int H_nu^k(A) d iota = Tr(A)/(nu - 1) (Schur orthogonality under the
    # coset measure; the factor is visible for any weight above 2)
    state = _random_state(cfg, float(nu))
    return ReportRow(
        nu=nu, measured=_husimi_integral(state, cfg.k, (0.0, 1.0)),
        target=1.0 / (nu - 1.0), note="trace-normalization",
    )


def _row_e_identity(cfg: ExperimentConfig, nu: int) -> ReportRow:
    f = radial_poly(cfg.f_coeffs)
    rng = np.random.default_rng(cfg.seed)
    radii = np.sqrt(rng.random(cfg.sample_points)) * 0.6
    angles = 2.0 * np.pi * rng.random(cfg.sample_points)
    zs = radii * np.exp(1j * angles)
    finite = np.asarray(e_transform(f, cfg.mu, cfg.k, zs, nu=float(nu)))
    limit = np.asarray(e_transform(f, cfg.mu, cfg.k, zs))
    measured = float(np.max(np.abs(finite - limit)))
    return ReportRow(nu=nu, measured=measured, target=0.0, note="sup-difference")


def _row_constants(cfg: ExperimentConfig, nu: int) -> ReportRow:
    worst = 0.0
    for k in range(cfg.kmax + 1):
        brute = math.fsum(
            math.comb(k, j)
            / (pochhammer(cfg.mu, j) * pochhammer(float(nu), k - j))
            for j in range(k + 1)
        ) * math.factorial(k)
        worst = max(worst, abs(channel_constant_sq(cfg.mu, float(nu), k) * brute - 1.0))
        params = ChannelParams(cfg.mu, float(nu), k)
        for p in range(0, 61, 6):
            worst = max(worst, abs(float(np.sum(isometry_weights(params, p) ** 2)) - 1.0))
    return ReportRow(nu=nu, measured=worst, target=0.0, note="constant-and-isometry")


def _rows_kernel_chain(cfg: ExperimentConfig, nus, pool_map) -> list[ReportRow]:
    weights = [float(nu) for nu in nus]
    # the chain-2 targets are queued ahead of the Monte Carlo chunks
    targets = pool_map(chain2_tensor_quadrature, weights if cfg.chain_length == 2 else [])
    try:
        estimates = chained_kernel_integral(cfg.chain_length, weights, cfg.seed,
                                            cfg.samples, map=pool_map)
    finally:
        targets = list(targets)  # read every queued target, also on an error
    if cfg.chain_length == 1:
        targets, note = [1.0] * len(nus), "exact"
    elif cfg.chain_length == 2:
        note = "quadrature-target"
    else:
        targets, note = [est for est, _ in estimates], "no-reference"
    return [
        ReportRow(nu=nu, measured=est, target=target, tail_bound=half, note=note)
        for nu, (est, half), target in zip(nus, estimates, targets)
    ]


# (cfg, nu, context) -> the row of one nu
_ROW_RUNNERS = {
    "channel-limit": _row_channel_limit,
    "toeplitz-trace": lambda cfg, nu, context: _row_toeplitz_trace(cfg, nu),
    "berezin-eigen": lambda cfg, nu, context: _row_berezin_eigen(cfg, nu),
    "husimi-check": lambda cfg, nu, context: _row_husimi_check(cfg, nu),
    "e-identity": lambda cfg, nu, context: _row_e_identity(cfg, nu),
    "constants": lambda cfg, nu, context: _row_constants(cfg, nu),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every nu row (worker pool), assemble the deterministic report.

    ``threads`` sets the size of the run's one worker pool.  Every experiment
    but ``kernel-chain`` maps its rows over the pool, one nu per task.
    ``kernel-chain`` runs all of ``nu_list`` as one batch on the calling
    thread, which queues each nu's chain-2 target and then the chunks of the
    one Monte Carlo draw stream on the pool and collects them in order; as
    the batch never runs on a worker, no worker waits on the pool.  A row's
    ``seconds`` is its batch's wall time divided by the batch's row count.
    Per-row failures are recorded in the row and the run continues: a batch
    that raises is run again one nu at a time, so the error lands in the row
    that caused it.  Rows are emitted in nu order regardless of scheduling.
    """
    config.validate()
    context = None
    if config.experiment == "channel-limit":
        # the input and its limit target are shared by every row
        state = _input_state(config)
        context = (state, _husimi_target(config, state))

    def run(batch: tuple[int, ...]) -> list[ReportRow]:
        start = time.perf_counter()
        try:
            if config.experiment == "kernel-chain":
                rows = _rows_kernel_chain(config, batch, pool_map)
            else:
                rows = [_ROW_RUNNERS[config.experiment](config, nu, context)
                        for nu in batch]
        except Exception as exc:  # per-row failure: record, continue
            if len(batch) > 1:
                return [row for nu in batch for row in run((nu,))]
            rows = [ReportRow(nu=batch[0], measured=math.nan, target=math.nan,
                              error=str(exc))]
        if config.timing:
            share = (time.perf_counter() - start) / len(rows)
            for row in rows:
                row.seconds = share
        return rows

    with (ThreadPoolExecutor(config.threads) if config.threads > 1
          else contextlib.nullcontext()) as pool:
        pool_map = pool.map if pool else map
        if config.experiment == "kernel-chain":
            rows = run(config.nu_list)
        else:
            rows = [row for nu_rows in pool_map(run, [(nu,) for nu in config.nu_list])
                    for row in nu_rows]
    rows.sort(key=lambda r: r.nu)
    report = ExperimentReport(config=config, rows=rows)
    report.fitted_order, report.fitted_order_stderr = _fit_order(rows)
    return report


def _float_repr(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def emit_report(report: ExperimentReport, fmt: str, path: str | None = None) -> bytes:
    """Serialize a report; bytes are a pure function of the report.

    CSV columns are exactly ``nu,measured,target,abs_error,tail_bound,seconds``;
    JSON mirrors every field and round-trips.  When ``path`` is given the bytes
    are also written there (I/O errors surface with the path attached).
    """
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in report.rows:
            buf.write(
                ",".join(
                    [
                        _float_repr(r.nu),
                        _float_repr(r.measured),
                        _float_repr(r.target),
                        _float_repr(r.abs_error),
                        _float_repr(r.tail_bound),
                        _float_repr(r.seconds),
                    ]
                )
                + "\n"
            )
        data = buf.getvalue().encode()
    elif fmt == "json":
        payload = {
            "version": report.version,
            "config": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in report.config.__dict__.items()},
            "fitted_order": report.fitted_order,
            "fitted_order_stderr": report.fitted_order_stderr,
            "rows": [
                {
                    "nu": r.nu,
                    "measured": None if math.isnan(r.measured) else r.measured,
                    "target": None if math.isnan(r.target) else r.target,
                    "abs_error": None if math.isnan(r.measured) else r.abs_error,
                    "tail_bound": r.tail_bound,
                    "seconds": r.seconds,
                    "note": r.note,
                    "error": r.error,
                }
                for r in report.rows
            ],
        }
        data = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path:
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return data


def report_from_json(data: bytes) -> ExperimentReport:
    """Rebuild a report from its JSON emission (round-trip support)."""
    payload = json.loads(data.decode())
    cfg_dict = dict(payload["config"])
    for key in ("nu_list", "psi", "f_coeffs", "lambda_list"):
        cfg_dict[key] = tuple(cfg_dict[key])
    config = ExperimentConfig(**cfg_dict)
    rows = [
        ReportRow(
            nu=r["nu"],
            measured=math.nan if r["measured"] is None else r["measured"],
            target=math.nan if r["target"] is None else r["target"],
            tail_bound=r["tail_bound"],
            seconds=r["seconds"],
            note=r["note"],
            error=r["error"],
        )
        for r in payload["rows"]
    ]
    return ExperimentReport(
        config=config,
        rows=rows,
        fitted_order=payload["fitted_order"],
        fitted_order_stderr=payload["fitted_order_stderr"],
        version=payload["version"],
    )
