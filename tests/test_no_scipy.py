"""The runtime never imports scipy.

pytest's own process already holds scipy (the oracles use it), so the check
runs in a fresh interpreter whose import system refuses scipy: it imports the
package and the command line, and runs every experiment through ``cli.main``.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
