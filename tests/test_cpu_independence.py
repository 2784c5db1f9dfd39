"""Trace hashes do not depend on the CPU's vector extensions.

The tick path writes every 2-vector dot product out as ``a*c + b*d``,
takes scalar math from ``math``, and builds routes and tests rectangle
overlap on plain floats. numpy serves only the monitor's sample grid,
and only ``monitor.py`` imports it, which the first test pins. The
second runs the golden hashes, every reference run included, in a fresh
interpreter with OpenBLAS held to its Nehalem kernels (no fused
multiply-add) and every numpy dispatch target above the build's
baseline disabled. In that interpreter it also checks that an unfused
``np.dot`` equals ``a*c + b*d``, the fact the explicit dot products
rely on.
"""

import ast
import glob
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

CHILD = """
import sys
import numpy as np
import pytest

rng = np.random.default_rng(20261018)
pairs = rng.standard_normal((10_000, 4)) * rng.choice([1e-3, 1.0, 1e3],
                                                      (10_000, 4))
for a, b, c, d in pairs.tolist():
    fused = float(np.dot(np.array([a, b]), np.array([c, d])))
    assert fused == a * c + b * d, (a, b, c, d)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


def test_only_the_monitor_imports_numpy():
    importers = set()
    for path in glob.glob(os.path.join(SRC, "avguard", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "numpy" for n in names):
                importers.add(os.path.basename(path))
    assert importers == {"monitor.py"}


def _blas_name() -> str:
    config = getattr(np.__config__, "CONFIG", {})
    return (config.get("Build Dependencies", {}).get("blas", {})
            .get("name", "")).lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or "openblas" not in _blas_name(),
                    reason="OPENBLAS_CORETYPE selects x86-64 OpenBLAS kernels")
def test_golden_hashes_without_fma_or_simd_dispatch():
    available = _multiarray_umath.__cpu_features__
    disabled = [f for f in _multiarray_umath.__cpu_dispatch__
                if available.get(f)]
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
               NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD,
         os.path.join(TESTS, "test_golden_hashes.py")],
        env=env, cwd=TESTS, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout
