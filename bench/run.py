"""Sweep benchmark for diskchannels.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` times whole passes of the workload through
``diskchannels.cli.main`` and prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
Every pass is checked (exit code, per-row gates, report bytes identical
across passes).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1
MIN_PASSES = 2
SETUP_PROBES = 5

END_TO_END = {
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
    "max_rel_error": "ratio",
}

PER_LAYER = {
    "channel.diagonal_response.s": "s",
    "channel.diagonal_response.calls": "count",
    "channel.diagonal_response.points": "count",
    "channel.diagonal_output_spectrum.s": "s",
    "channel.diagonal_output_spectrum.calls": "count",
    "channel.response_tail_bound.s": "s",
    "channel.response_tail_bound.calls": "count",
    "channel.apply_channel.s": "s",
    "channel.apply_channel.calls": "count",
    "channel.apply_channel.out_bytes": "bytes",
    "experiments.dense_spectrum.s": "s",
    "experiments.dense_spectrum.n": "count",
    "experiments.self_s": "s",
    "experiments.rows": "count",
    "experiments.row_errors": "count",
    "experiments.pool.busy_frac": "frac",
    "experiments.emit_report.s": "s",
    "experiments.max_tail_bound": "ratio",
    "bergman.log_monomial_norm_sq.elements": "count",
    "bergman.transported_basis_vectors.s": "s",
    "bergman.transported_basis_vectors.calls": "count",
    "bergman.transported_basis_vectors.steps": "count",
    "transforms.husimi_grid.s": "s",
    "transforms.husimi_grid.points": "count",
    "transforms.toeplitz_diagonal.s": "s",
    "spectral.chained_kernel_integral.s": "s",
    "spectral.chained_kernel_integral.samples": "count",
    "spectral.chain2_tensor_quadrature.s": "s",
    "spectral.chain2_tensor_quadrature.calls": "count",
    "spectral.eigen_relation_residual.s": "s",
    "spectral.eigen_relation_residual.calls": "count",
    "disk.build_quadrature.s": "s",
    "disk.build_quadrature.calls": "count",
    "disk.build_quadrature.nodes": "count",
    "specfun.log_channel_constant_sq.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# span names whose self time a ".self_s" metric reports
SELF_SPANS = {"experiments.self_s": "experiments.run_experiment",
              "cli.main.self_s": "cli.main"}


class Checker:
    """Checks every report of a run and keeps the workload's accuracy."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.rel_errors: list[float] = []
        self.tail_bounds: list[float] = []
        self.rows = 0
        self.row_errors = 0

    def check(self, name: str, rc: int, data: bytes | None):
        if data is None:
            self.attempted += 1
            self.failed += 1
            return
        first = name not in self.reference
        same = self.reference.setdefault(name, data) == data
        payload = json.loads(data)
        for row in payload["rows"]:
            ok, rel = self.workloads.check_row(payload["config"], row)
            self.attempted += 1
            self.failed += not (ok and same and rc == 0)
            if first:
                self.rows += 1
                self.row_errors += bool(row["error"])
                if rel is not None:
                    self.rel_errors.append(rel)
                if payload["config"]["experiment"] in self.workloads.TRUNCATING:
                    self.tail_bounds.append(row["tail_bound"])


def run_pass(cfgs, work: Path):
    """One pass through the CLI; returns (seconds per config, report bytes).

    ``cli.main`` is looked up at every call, so a traced pass times its wrapper.
    """
    from diskchannels import cli

    walls, outputs = [], []
    for name, experiment, path in cfgs:
        out = work / f"{name}.json"
        out.unlink(missing_ok=True)
        argv = [experiment, "--config", str(path), "--out", str(out), "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(argv)
            walls.append(time.perf_counter() - start)
        outputs.append((name, rc, out.read_bytes() if out.exists() else None))
    return walls, outputs


def setup_seconds(paths) -> list[float]:
    """Interpreter start to configs parsed, once per fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), *map(str, paths)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip()) - start)
    return times


def blas_threads_reported():
    """Thread count OpenBLAS reports, when numpy's bundled build is found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    try:
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int
    return fn()


def provenance() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads_reported(),
    }


def fits(start: float, step: float, seconds: float) -> bool:
    """Whether one more step of this length ends within the run's seconds."""
    return time.perf_counter() - start + step <= seconds


def timed_run(cfgs, work: Path, seconds: float, check: Checker):
    setup = setup_seconds([p for _, _, p in cfgs])
    sweeps = []
    start = time.perf_counter()
    while len(sweeps) < MIN_PASSES or fits(start, statistics.median(sweeps), seconds):
        walls, outputs = run_pass(cfgs, work)
        sweeps.append(sum(walls))
        for output in outputs:
            check.check(*output)
    print(f"# sweep_s: median of {len(sweeps)} passes: "
          + " ".join(f"{s:.4f}" for s in sweeps))
    return {
        "sweep_s": statistics.median(sweeps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
        "ok_frac": 1.0 - check.failed / check.attempted,
        "max_rel_error": max(check.rel_errors, default=float("nan")),
    }


def traced_run(cfgs, timing_cfgs, work: Path, seconds: float, check: Checker):
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or fits(start, statistics.median(plain) + statistics.median(traced),
                             seconds):
        for sweeps, context in ((plain, contextlib.nullcontext()),
                                (traced, tracer.installed())):
            with context:
                walls, outputs = run_pass(cfgs, work)
            sweeps.append(sum(walls))
            for output in outputs:
                check.check(*output)
    # row seconds need timing = on, whose report bytes differ by design
    walls, outputs = run_pass(timing_cfgs, work)
    busy = capacity = 0.0
    for wall, (_, _, data) in zip(walls, outputs):
        payload = json.loads(data)
        busy += sum(row["seconds"] for row in payload["rows"])
        capacity += payload["config"]["threads"] * wall
    run_level = {
        "experiments.rows": check.rows,
        "experiments.row_errors": check.row_errors,
        "experiments.pool.busy_frac": busy / capacity,
        "experiments.max_tail_bound": max(check.tail_bounds, default=0.0),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    selfs, n = tracer.self_seconds(), len(traced)
    metrics = {}
    for name in PER_LAYER:
        if name in run_level:
            metrics[name] = run_level[name]
        elif name in SELF_SPANS:
            metrics[name] = selfs.get(SELF_SPANS[name], 0.0) / n
        elif name.endswith(".s"):
            metrics[name] = selfs.get(name[:-2], 0.0) / n
        else:
            metrics[name] = tracer.counts.get(name, 0.0) / n
    print(f"# {n} traced and {len(plain)} untraced passes; "
          f"untraced sweep median {statistics.median(plain):.4f} s")
    return metrics


def write_configs(work: Path, pairs, timing: str):
    cfgs = []
    for name, text in pairs:
        text = text.replace("timing = off", f"timing = {timing}")
        path = work / f"{name}-{timing}.cfg"
        path.write_text(text, encoding="utf-8")
        experiment = text.split("experiment = ", 1)[1].split("\n", 1)[0]
        cfgs.append((name, experiment, path))
    return cfgs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory and waits for probes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "diskchannels" / "__init__.py").is_file():
        print(f"bench: no diskchannels package under {SRC}", file=sys.stderr)
        return 2
    # pinned before numpy loads, here and in every probe interpreter
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import diskchannels
    import workloads

    if SRC.resolve() not in Path(diskchannels.__file__).resolve().parents:
        print(f"bench: diskchannels imported from {diskchannels.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    pairs = workloads.configs(args.workload, args.seed, args.smoke)
    check = Checker(workloads)
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        work = Path(tmp)
        cfgs = write_configs(work, pairs, "off")
        if args.trace:
            timing_cfgs = write_configs(work, pairs, "on")
            metrics = traced_run(cfgs, timing_cfgs, work, args.seconds, check)
            units = PER_LAYER
        else:
            metrics, units = timed_run(cfgs, work, args.seconds, check), END_TO_END

    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
