"""Configuration-driven experiment runner.

Experiments sweep the tensor weight nu and report per-row measured values,
closed-form (or labeled quadrature) targets, absolute errors, tail bounds, and
a fitted convergence order.  Configs are flat ``key = value`` text files with
a closed key set; unknown keys are errors, and identical configs (with
``timing = off``) produce byte-identical reports.
"""

from __future__ import annotations

import contextlib
import functools
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
    _Couplings,
    _channel_trace,
    _offset_plan,
    diagonal_output_spectrum,
    isometry_weights,
    power_sum,
)
# unused here: bench/tracing.py wraps these three names in this module
from .channel import apply_channel, diagonal_response, response_tail_bound  # noqa: F401
from .disk import build_quadrature, gauss_jacobi
from .spectral import (
    chain2_tensor_quadrature,
    chained_kernel_integral,
    eigen_relation_residual,
)
from .specfun import _frees_thread_buffers, channel_constant_sq, pochhammer, validate_weight
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
    "report_from_json",
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
        for key, values in (("tol_abs", (self.tol_abs,)), ("psi", self.psi),
                            ("f", self.f_coeffs), ("lambda_list", self.lambda_list)):
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{key}: must be finite")
        if not self.psi or self.psi[0] != 0.0:
            raise ConfigError("psi: constant term must be 0")
        if self.tol_abs < 0.0:
            raise ConfigError("tol_abs: must be >= 0 (0 disables the gate)")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
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
        if self.experiment == "channel-limit" and not float(self.mu).is_integer():
            # a random state of one degree is diagonal too
            if self.input_state != "rank-r-random" or min(self.state_dim, self.truncation_n + 1) == 1:
                raise ConfigError("mu: channel-limit needs an integer mu for a diagonal input: "
                                  "the continued rest's r_0(x) is a product of mu + 2k ratios")
            if any(self.psi[3:]):
                raise ConfigError("mu: channel-limit needs an integer mu for psi of degree >= 3: "
                                  "its Husimi target needs the group action at an integer weight")
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

    def exceeds_tolerance(self, row: ReportRow) -> bool:
        """Whether ``row`` fails the ``tol_abs`` gate (when set): every
        abs_error that is not <= tol_abs, NaN included."""
        return self.config.tol_abs > 0.0 and not row.abs_error <= self.config.tol_abs

    @property
    def failures(self) -> list[ReportRow]:
        return [r for r in self.rows if r.error or self.exceeds_tolerance(r)]


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
    quad = build_quadrature(n_r, n_theta, state.weight)
    hvals = husimi_grid(state, k, quad.nodes)
    return sum((a * float(np.real(quad.integrate(hvals**j)))
                for j, a in enumerate(psi) if j >= 1 and a != 0.0), 0.0)


def _schur_integral(state: TruncatedOperator, k: int, psi) -> float:
    """int psi(H_w^k(state)) d iota for psi of degree <= 2 at any weight w, by
    Schur orthogonality: H^2 = <(A x A) pi2(g) v, pi2(g) v>, v = e_k x e_k,
    and pi2 = pi x pi holds each H_{2w+2j} once, its projection Q_j = P_j* P_j
    with P_j the isometry of ChannelParams(w, w, j) and formal degree
    2w + 2j - 1 (w - 1 for int H = Tr A/(w - 1)), so int H^2 d iota is
    sum_{j <= 2k} ||Q_j v||^2 Tr((A x A) Q_j) / (2w + 2j - 1).  ||Q_j v|| =
    |W_j[2k - j, k]|, Tr((A x A) Q_j) = sum_p w_p^T (A[m, m'] A[n, n']) w_p,
    w_p the row W_j[p, m] = w^{(p)}_{m, n}, n = p + j - m, and A[n, n'] is
    window p + j of the flipped A padded by d zeros, a view that steps down
    its diagonal; the terms are formed a slab of <= 2^16 entries at a time."""
    A, d, w = state.matrix, state.degree, state.weight
    x = np.real(np.diag(A)) if state.is_diagonal else A
    pad = np.zeros((3 * d + 1,) * x.ndim, x.dtype)
    pad[(slice(d, 2 * d + 1),) * x.ndim] = x[(slice(None, None, -1),) * x.ndim]
    windows = np.lib.stride_tricks.as_strided(  # windows[q][m, m'] = x[q - m, q - m']
        pad, (2 * d + 1, *x.shape), (sum(pad.strides), *pad.strides), writeable=False)[::-1]
    a1, a2 = (*psi[1:3], 0.0, 0.0)[:2]
    ms, square = np.arange(max(d, k) + 1), 0.0
    for j in range(2 * k + 1 if a2 else 0):
        rows = max(2 * d - j, 2 * k - j) + 1
        couplings = _Couplings(ChannelParams(w, w, j))
        W = couplings.weights(np.arange(rows), ms, couplings.r0(rows - 1).take(rows))
        norm, W = W[2 * k - j, k], W[: max(2 * d + 1 - j, 0), : d + 1]
        trace, step = 0.0, max(1, (1 << 16) // x.size)
        for p0 in range(0, len(W), step):
            w_p = W[p0 : p0 + step]
            slab = x * windows[p0 + j : p0 + j + len(w_p)]
            slab = (slab @ w_p[:, :, None])[:, :, 0] if x.ndim == 2 else slab * w_p
            trace += float(np.real(np.sum(w_p * slab)))
        square += norm * norm * trace / (2 * w + 2 * j - 1.0)
    return float(a1 * np.real(np.trace(A)) / (w - 1.0) + a2 * square)


def _husimi_target(cfg: ExperimentConfig, state: TruncatedOperator) -> tuple[float, str]:
    """int psi(H_mu^k(state)) d iota, labeled in the note: closed form for the
    lowest state, :func:`_schur_integral` for psi of degree <= 2, else the
    exact rule of :func:`_husimi_integral` (integer weight)."""
    mu, k = cfg.mu, cfg.k
    if cfg.input_state == "lowest":
        # H(w) = c u^k (1-u)^mu, c = (mu)_k/k!: the moment of x^j is
        # c^j B(jk+1, j mu - 1), finite for every mu > 1
        total, c = 0.0, math.exp(math.lgamma(mu + k) - math.lgamma(mu) - math.lgamma(k + 1.0))
        for j, a in enumerate(cfg.psi[1:], 1):
            if a != 0.0:
                total += a * c**j * math.exp(math.lgamma(j * k + 1.0) + math.lgamma(j * mu - 1.0)
                                             - math.lgamma(j * k + j * mu))
        return total, "closed-form"
    if not any(cfg.psi[3:]):
        return _schur_integral(state, k, cfg.psi), "schur-target"
    return _husimi_integral(state, k, cfg.psi), "quadrature-target"


# sum_{p >= L} f(p) = int_L^inf f + sum_j G_j Delta^j f(L), Gregory's rule
# (Dahlquist and Bjorck, Numerical Methods in Scientific Computing, vol. 1,
# SIAM 2008): a diagonal row's rest through Delta^5 on _REST_NODES[0] nodes,
# its check through Delta^6 on _REST_NODES[1]
_GREGORY = (1 / 2, -1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480, 275 / 24192)
_REST_NODES = (48, 64)


@functools.cache
def _rest_rules() -> tuple[np.ndarray, ...]:
    """Both rules of the continued rest on [0, 1], one after the other, as
    read-only nodes u, 1 - u and log weights, built on first use."""
    parts = tuple(np.concatenate(part)
                  for part in zip(*(gauss_jacobi(count, 0.0) for count in _REST_NODES)))
    for part in parts:
        part.flags.writeable = False
    return parts


def _continued_rest(psi, nu: int, cut: int, spectrum):
    """(lambda_p for p < cut, rest of psi, its gap to the check rule, rest of
    psi(x) = x) of a diagonal row; ``spectrum(top, x)`` gives lambda_p, p <= top,
    and lambda, rational, at real x.  Gregory's corrections read p = cut..cut+6,
    the integral the nodes u in (0, 1) at x = cut + (nu + cut)(1/u - 1), where
    lambda has no pole near [0, 1].  The rest is an estimate: a row's
    tail_bound adds the gap and the rest of x's gap to the exact dropped trace."""
    u, _, log_w = _rest_rules()  # the nodes of both rules, one after the other
    scale, n0 = nu + cut, _REST_NODES[0]
    out, lam = spectrum(cut + len(_GREGORY) - 1, cut + scale * (1.0 / u - 1.0))
    captured, ends, weight = out[:cut], out[cut:], scale * np.exp(log_w) / u**2
    # the corrections through each Delta^j, of psi and of psi(x) = x
    diffs, upto = np.array([np.polyval(psi[::-1], ends), ends]), [0.0]
    for g in _GREGORY:
        upto.append(upto[-1] + g * diffs[:, 0])
        diffs = np.diff(diffs)
    psi_nodes = weight * np.polyval(psi[::-1], lam)
    rest_psi = float(np.sum(psi_nodes[:n0]) + upto[-2][0])
    rest_check = float(np.sum(psi_nodes[n0:]) + upto[-1][0])
    rest_trace = float(weight[:n0] @ lam[:n0] + upto[-2][1])
    return captured, rest_psi, abs(rest_psi - rest_check), rest_trace


def _row_channel_limit(cfg: ExperimentConfig, nu: int, context) -> ReportRow:
    state, (target, note), plan = context
    diag_in = np.real(np.diag(state.matrix))
    d, cut, diagonal = state.degree, cfg.truncation_l, state.is_diagonal
    if diagonal:
        cut = max(cut, d, 64) if cut else max(2 * nu, 64, 2 * (d + cfg.k))
    else:
        cut = cut or max(64 * nu, 4096)
    params = ChannelParams(cfg.mu, float(nu), cfg.k, output_degree=cut)
    if diagonal:
        captured, rest_psi, gap, rest_trace = _continued_rest(
            cfg.psi, nu, cut, lambda top, x: diagonal_output_spectrum(params, diag_in, top, x))
        measured = (power_sum(cfg.psi, captured) + rest_psi) / nu
        count, captured_sum = cut, float(np.sum(captured))
        moment = float(captured @ np.arange(captured.size + 0.0))
    else:
        # Tr psi(T(A)) from the bands, a block at a time, and band 0's sums
        value, (captured_sum, moment) = _channel_trace(state, params, cfg.psi, plan, True)
        measured, count = value / nu, cut + 1
    # Tr T(A) = trace_factor Tr A, so the captured sum (p <= c) drops that
    # minus itself; |psi(x)| <= (sum_j |a_j|) x on [0, 1] bounds psi's share.
    # Rounding of the captured sum, of entries lambda_p = sum_m A[m,m] S^2
    # r_m[p] from products over consecutive integers (eps, first order):
    # - r_0[p]: C^2 (nu)_k/k! as a product of k factors of three (7k), then p
    #   cumprod steps of four roundings, (1+p)(nu+k+p)/((s+p)(k+1+p)) and the
    #   multiply, plus the rounded parameters nu + k and s (4p).
    # - S: k + 1 terms of alternating sign whose coefficients are short
    #   products, off by gamma T with gamma = (2k + 2) eps, T the sum of the
    #   terms' absolute values.  Near a zero of S that is not relative to
    #   lambda (toeplitz input, nu = 800, m = 63: lambda = 0 at p = 25,262),
    #   but the entry is off by at most 3 gamma r T^2, whose sum over every p
    #   _abs_sum_trace gives exactly.
    # - diagonal input (integer mu, diagonal_output_spectrum): Horner's steps
    #   n/(nu + n - 1) (2m), the weight (mu)_m/m! = w_m/w_0 of running ratios
    #   (m+1)/(mu+m) (1.5m) and 1/w_0 (1); the coefficient A[m,m] w_m, its
    #   root, the root times S's coefficients, the square and the multiply by
    #   r_0 (8, a rounding before the square counted twice); the adds at the
    #   levels below the degree (dim).
    # - dense input (band 0 of _channel_blocks): the m steps
    #   (t/(t + nu - 1)) ((mu + j - 1)/j), t = n + 1, of r_m's cumprod (4m;
    #   7m where mu + j rounds, as for a mu outside Z/2, the - 1 at most
    #   doubling that as mu + j - 1 > j); the weight S r^{1/2} (the root and
    #   the multiply, twice), its square and the multiply by A[m,m] (6); the
    #   sum over m (dim - 1).
    # With the sum over p (c) and trace_factor Tr A (dim + 1, or dim + 5),
    # that is 4 sum_p p lambda_p plus (c + 5.5 dim + 7k + 10), (c + 6 dim +
    # 7k + 2) or (c + 9 dim + 7k + 3) times the total, within the bounds below.
    total = params.trace_factor * float(np.sum(diag_in))
    per_degree = 6 if (2 * cfg.mu).is_integer() else 9
    rounding = np.finfo(float).eps * (
        4 * moment
        + (count - 1 + per_degree * diag_in.size + 7 * cfg.k + 12) * total
        + 3 * (2 * cfg.k + 2) * _abs_sum_trace(params, diag_in)
    )
    dropped = total - captured_sum
    psi_slope = sum(abs(a) for a in cfg.psi[1:])
    if diagonal:
        tail = psi_slope * (abs(rest_trace - dropped) + rounding) + gap
    else:
        tail = psi_slope * (max(dropped, 0.0) + rounding)
    return ReportRow(nu=nu, measured=measured, target=target, tail_bound=tail / nu, note=note)


def _row_toeplitz_trace(cfg: ExperimentConfig, nu: int) -> ReportRow:
    f, top = radial_poly(cfg.f_coeffs), len(cfg.f_coeffs) - 1
    target = sum(
        a * _radial_moment(cfg.f_coeffs, j)
        for j, a in enumerate(cfg.psi)
        if j >= 1 and a != 0.0
    )
    cut = max(cfg.truncation_l or 2 * nu, 64)
    captured, rest_psi, gap, rest_trace = _continued_rest(
        cfg.psi, nu, cut, lambda p, x: (toeplitz_diagonal(f, nu, p), toeplitz_diagonal(f, nu, x)))
    measured = (power_sum(cfg.psi, captured) + rest_psi) / (nu - 1.0)
    # Tr T_f = (nu - 1) int f d iota is infinite for a (1-|z|^2)^1 term, which
    # drops the check.  Entry p is off by (3 top + 2) eps of its terms'
    # absolute sum tau_p, the captured sum by (cut - 1) eps sum_p tau_p more
    # and Tr T_f by (top + 2) eps Tr T_|f|; sum_p tau_p <= Tr T_|f| or cut sum|a_s|
    if any(cfg.f_coeffs[:2]):
        dropped, spread = rest_trace, cut * sum(map(abs, cfg.f_coeffs))
    else:
        dropped = (nu - 1.0) * _radial_moment(cfg.f_coeffs, 1) - float(np.sum(captured))
        spread = (nu - 1.0) * _radial_moment(np.abs(cfg.f_coeffs), 1)
    rounding = np.finfo(float).eps * (cut + 4 * top + 3) * spread
    psi_slope = sum(abs(a) for a in cfg.psi[1:])
    tail = psi_slope * (abs(rest_trace - dropped) + rounding) + gap
    return ReportRow(nu=nu, measured=measured, target=target, tail_bound=tail / (nu - 1.0),
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


@_frees_thread_buffers
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
    The rows of one thread share its block buffers; a pool's are freed when
    its threads end, and the calling thread's when the run returns.
    """
    config.validate()
    context = None
    if config.experiment == "channel-limit":
        # the input, its limit target and a dense input's offset plan serve every row
        state = _input_state(config)
        context = (state, _husimi_target(config, state),
                   None if state.is_diagonal else _offset_plan(state, state.degree))

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
