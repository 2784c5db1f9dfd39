"""Trace hashes do not depend on numpy or on the CPU's vector extensions.

The tick path writes every 2-vector dot product out as ``a*c + b*d``,
takes scalar math from ``math``, and runs routes, the separating-axis
test and the monitor's search over its sample grid on plain floats. No
module under ``src/avguard`` imports numpy, which the first test pins;
the second runs the command line and the golden hashes in a fresh
interpreter in which ``import numpy`` fails. numpy stays a test
dependency: the reference forms in tests/test_exact_fast_paths.py are
built on it. So the third test runs the golden hashes, every reference
run included, in a fresh interpreter with OpenBLAS held to its Nehalem
kernels (no fused multiply-add) and every numpy dispatch target above
the build's baseline disabled. In that interpreter it also checks that
an unfused ``np.dot`` equals ``a*c + b*d``, the fact the explicit dot
products rely on.
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


def test_no_runtime_module_imports_numpy():
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
    assert importers == set()


NO_NUMPY_CHILD = """
import filecmp
import os
import sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import pytest

from avguard.cli import main

scenarios, work, tests = sys.argv[1:]
nominal = os.path.join(scenarios, "01_nominal.ini")
out = lambda name: os.path.join(work, name)
for argv in (["validate", "--scenario", nominal],
             ["run", "--scenario", nominal, "--seed", "42", "--out", out("r")],
             ["campaign", "--scenario-dir", scenarios, "--runs", "2",
              "--parallel", "2", "--out", out("c"), "--report", out("a.csv")],
             ["report", "--traces", out("c"), "--report", out("b.csv")]):
    assert main(argv) == 0, argv
assert filecmp.cmp(out("a.csv"), out("b.csv"), shallow=False)
assert sys.modules["numpy"] is None
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider",
                      os.path.join(tests, "test_golden_hashes.py")]))
"""


def test_cli_and_golden_hashes_run_without_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_CHILD,
         os.path.join(os.path.dirname(TESTS), "scenarios"), str(tmp_path),
         TESTS],
        env=env, cwd=TESTS, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout


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
