"""The package's import surface: the export lists, what reaches each export,
and no scipy at run time.

pytest's own process already holds scipy (the oracles use it), so the scipy
check runs in a fresh interpreter whose import system refuses scipy: it
imports the package and the command line, and runs every experiment through
``cli.main``.
"""

import ast
import importlib
import inspect
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import diskchannels

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ["bergman", "channel", "disk", "experiments", "specfun", "spectral", "transforms"]

# one small config per experiment; channel-limit once with a diagonal input
# (the output diagonal) and once with a dense one (the banded channel)
CONFIGS = {
    "channel-limit-diagonal": "experiment = channel-limit\nmu = 2\nk = 1\n"
    "nu_list = 10,20\ninput_state = toeplitz\nf = radial:0,0,1\n"
    "truncation_n = 8\npsi = 0,0,1\n",
    "channel-limit-dense": "experiment = channel-limit\nmu = 2\nk = 1\n"
    "nu_list = 10\ninput_state = rank-r-random\nstate_dim = 6\nstate_rank = 2\n"
    "truncation_l = 200\npsi = 0,0,1\nseed = 3\n",
    "toeplitz-trace": "experiment = toeplitz-trace\nf = radial:0,0,1\npsi = 0,0,1\n"
    "nu_list = 10,20\n",
    "berezin-eigen": "experiment = berezin-eigen\nnu_list = 2,4\nlambda_list = 0,1\n"
    "quadrature_radial = 60\nquadrature_angular = 64\n",
    "husimi-check": "experiment = husimi-check\nk = 1\nnu_list = 2,3\nstate_dim = 6\n"
    "seed = 3\n",
    "e-identity": "experiment = e-identity\nk = 1\nnu_list = 20,40\nsample_points = 5\n"
    "seed = 3\n",
    "constants": "experiment = constants\nnu_list = 2,3\nkmax = 2\n",
    "kernel-chain": "experiment = kernel-chain\nnu_list = 4,8\nsamples = 20000\nseed = 3\n",
}

SCRIPT = textwrap.dedent(
    """
    import importlib.abc
    import sys
    from pathlib import Path


    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"scipy is refused here: {name}")
            return None


    sys.meta_path.insert(0, RefuseScipy())
    import diskchannels
    from diskchannels import cli

    for path in sorted(Path(sys.argv[1]).glob("*.cfg")):
        experiment = path.read_text().split("\\n")[0].split("=")[1].strip()
        status = cli.main([experiment, "--config", str(path),
                           "--out", str(path.with_suffix(".json"))])
        if status != 0:
            sys.exit(f"{path.stem}: exit {status}")
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
    """
)


def test_runtime_runs_every_experiment_without_scipy(tmp_path):
    for name, text in CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(SRC), "PATH": "", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stdout + done.stderr
    experiments = {text.split("\n")[0].split("=")[1].strip() for text in CONFIGS.values()}
    assert len(experiments) == 7
    assert len(list(tmp_path.glob("*.json"))) == len(CONFIGS)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exactly_its_public_functions_and_classes(name):
    module = importlib.import_module(f"diskchannels.{name}")
    public = {
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(module.__all__) == sorted(public)


def test_package_exports_resolve():
    assert len(set(diskchannels.__all__)) == len(diskchannels.__all__)
    assert [name for name in diskchannels.__all__ if not hasattr(diskchannels, name)] == []


def _names_read(path, strings=False):
    """The names a Python file reads: each name, attribute and, with
    ``strings``, each string constant that is an identifier (the tracer
    looks names up by string).  Imports are not reads, so a re-export does
    not count, and neither does the body of a top-level definition for its
    own name."""
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and node.value.isidentifier()):
                found.add(node.value)
        found.discard(getattr(top, "name", None))
        names |= found
    return names


def test_every_export_has_a_user():
    # the contract: the package's other modules, the acceptance suite, the
    # README (its example, or a layout row naming the user) and the benchmark
    read = set().union(
        *(_names_read(path) for path in (SRC / "diskchannels").glob("*.py")),
        _names_read(ROOT / "tests" / "test_acceptance.py"),
        *(_names_read(path, strings=True) for path in (ROOT / "bench").glob("*.py")),
    )
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = [
        f"{module.__name__}.{name}"
        for module in [diskchannels, *(importlib.import_module(f"diskchannels.{m}")
                                       for m in MODULES)]
        for name in module.__all__
        if name not in read and not re.search(rf"\b{name}\b", readme)
    ]
    assert orphans == []


def test_every_private_definition_has_a_user_in_the_library():
    # a module-level private function or class that nothing in src/ reads
    # outside its own definition serves only the tests: it belongs in
    # tests/oracles.py, where the export guard above can see it
    files = sorted((SRC / "diskchannels").glob("*.py"))
    read = set().union(*(_names_read(path) for path in files))
    orphans = [
        f"{path.stem}.{top.name}"
        for path in files
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and top.name.startswith("_") and top.name not in read
    ]
    assert orphans == []
