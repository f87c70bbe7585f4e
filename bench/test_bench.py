"""Tests of the benchmark itself (smoke sizes).

    python3 -m pytest bench/test_bench.py -q
"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    from tracing import Tracer

    outputs = []
    for workload in workloads.WORKLOADS:
        cfgs = run.write_configs(tmp_path, workloads.configs(workload, 5, smoke=True), "off")
        tracer = Tracer()
        for wrapped in (False, True):
            with tracer.installed() if wrapped else contextlib.nullcontext():
                _, out = run.run_pass(cfgs, tmp_path)
            outputs.append(out)
        assert tracer.spans
        assert outputs[-1] == outputs[-2]
        assert all(rc == 0 and data for _, rc, data in outputs[-1])


def test_seed_changes_only_the_random_inputs(tmp_path):
    def reports(workload, seed):
        cfgs = run.write_configs(tmp_path, workloads.configs(workload, seed, smoke=True), "off")
        return [json.loads(data)["rows"] for _, _, data in run.run_pass(cfgs, tmp_path)[1]]

    assert reports("dense-sweep", 1) != reports("dense-sweep", 2)
    assert reports("spectral-pool", 1)[0] != reports("spectral-pool", 2)[0]
    assert reports("diag-sweep", 1) == reports("diag-sweep", 2)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "diag-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
