"""Bit tables keyed by what the last bits of a pinned value hang on.

Such a value rounds through numpy's SIMD loops, chosen by the dispatch
target of its float64 exp, log and sin, and through OpenBLAS's kernels,
chosen by the core that OpenBLAS detects at load (``OPENBLAS_CORETYPE``
overrides it).  A table maps (numpy target, OpenBLAS core name) to the bits
recorded on that pair, with numpy 2.4.6.
"""

import ctypes
import glob
import os

import numpy as np
import pytest


def blas_core():
    """The core name that numpy's bundled OpenBLAS runs its kernels for, or
    None where that library is not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    try:
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [], ctypes.c_char_p
    name = fn()
    return name.decode() if name else None


def pinned_bits(table):
    """The entry of ``table`` for this machine's (numpy target, OpenBLAS
    core); skips, naming both, where none was recorded."""
    introspect = pytest.importorskip("numpy.lib.introspect")
    found = introspect.opt_func_info(func_name="^(exp|log|sin)$", signature="float64")
    targets = {found[name]["dd"]["current"] for name in ("exp", "log", "sin")}
    target = targets.pop() if len(targets) == 1 else found  # one target, else all of them
    core = blas_core()
    bits = table.get((target, core)) if isinstance(target, str) else None
    if bits is None or np.__version__ != "2.4.6":
        pytest.skip(f"no bits recorded for numpy {np.__version__} with float64 exp/log/sin "
                    f"at the target {target} and the OpenBLAS core {core}")
    return bits


TARGETS = ("X86_V4", "X86_V3", "baseline(X86_V2)")


def on_every_target(by_core):
    """The table of bits that hang on the OpenBLAS core alone: the entry
    ``by_core[core]`` for each core on every numpy target."""
    return {(target, core): bits for target in TARGETS for core, bits in by_core.items()}
