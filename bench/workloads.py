"""The benchmark's workloads and the checks on their reports.

A workload is a list of CLI configs run one after another; the seed reaches
the program only through each config's ``seed`` key.  Every config runs with
``timing = off`` so that the report bytes are a pure function of the config.
NOTES.md gives the reason for each workload.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from diskchannels.specfun import berezin_eigenvalue

NU_DIAG = "50,100,200,400,800"

# Gates of the acceptance suite: criteria 4 and 5 (trace limits), criterion 6
# (eigen-relation residual) and criterion 10 (quadrature against the series).
TRACE_LIMIT_GATE = 0.02
RESIDUAL_GATE = 1e-6
SERIES_GATE = 1e-9
# |Monte Carlo - quadrature| may reach this many 95% half-widths
MC_HALF_WIDTHS = 3.0


def _cfg(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def configs(workload: str, seed: int, smoke: bool = False) -> list[tuple[str, str]]:
    """(name, config text) pairs of one pass; ``smoke`` shrinks every size."""
    common = {"seed": seed, "timing": "off"}
    if workload == "diag-sweep":
        nus = "50,100" if smoke else NU_DIAG
        quad = {"quadrature_radial": 60, "quadrature_angular": 64} if smoke else {}
        return [
            ("toeplitz-state", _cfg(
                experiment="channel-limit", mu=2, k=1, nu_list=nus,
                input_state="toeplitz", f="radial:0,0,1",
                truncation_n=8 if smoke else 64, psi="0,0,1", threads=1,
                **quad, **common)),
            ("lowest-state", _cfg(
                experiment="channel-limit", mu=2, k=1, nu_list=nus,
                input_state="lowest", psi="0,0,1", threads=1, **common)),
            ("toeplitz-trace", _cfg(
                experiment="toeplitz-trace", f="radial:0,0,1", psi="0,0,1",
                nu_list=nus, threads=1, **common)),
        ]
    if workload == "dense-sweep":
        quad = {"quadrature_radial": 60, "quadrature_angular": 64} if smoke else {}
        return [
            ("random-state", _cfg(
                experiment="channel-limit", mu=2, k=1,
                nu_list="20" if smoke else "10,20,40",
                input_state="rank-r-random", state_dim=6 if smoke else 24,
                state_rank=3, truncation_l=256 if smoke else 2048, psi="0,0,1",
                threads=1, **quad, **common)),
        ]
    if workload == "spectral-pool":
        return [
            ("kernel-chain", _cfg(
                experiment="kernel-chain", chain_length=2,
                samples=20000 if smoke else 1000000,
                nu_list="8,16" if smoke else "8,10,12,16,20,24,32,48",
                threads=2, **common)),
            ("berezin-eigen", _cfg(
                experiment="berezin-eigen", nu_list="2,4" if smoke else "2,4,8,16",
                lambda_list="0,1,2", threads=2, **common)),
        ]
    raise KeyError(workload)


WORKLOADS = ("diag-sweep", "dense-sweep", "spectral-pool")
# experiments whose rows report a truncation tail bound
TRUNCATING = ("channel-limit", "toeplitz-trace")


def chain2_series(nu: float, terms: int = 4000) -> float:
    """Closed form I_2(nu) = sum_i [(nu/2)_i / (nu)_i]^2 of the chain integral."""
    i = np.arange(terms, dtype=float)
    log_ratio = (gammaln(nu / 2 + i) - gammaln(nu / 2)) - (gammaln(nu + i) - gammaln(nu))
    return float(np.sum(np.exp(2 * log_ratio)))


def check_row(config: dict, row: dict) -> tuple[bool, float | None]:
    """(row passes its gate, relative error of its deterministic comparison).

    Monte Carlo estimates are random draws, so their row contributes the
    error of its quadrature target against the closed-form series instead.
    Residual rows (target 0) compare eigenvalue ratios; their residual is
    divided by the smallest reference eigenvalue b_nu(lambda) of the row.
    """
    if row["error"] or row["measured"] is None:
        return False, None
    experiment = config["experiment"]
    measured, target, nu = row["measured"], row["target"], row["nu"]
    if experiment in TRUNCATING:
        err = abs(measured - target)
        return err <= TRACE_LIMIT_GATE, err / abs(target)
    if experiment == "berezin-eigen":
        scale = min(berezin_eigenvalue(nu, lam) for lam in config["lambda_list"])
        return measured <= RESIDUAL_GATE, measured / scale
    if experiment == "kernel-chain":
        series = chain2_series(nu)
        ok_mc = abs(measured - target) <= MC_HALF_WIDTHS * row["tail_bound"]
        ok_target = abs(target - series) <= SERIES_GATE
        return ok_mc and ok_target, abs(target - series) / series
    raise KeyError(experiment)
