"""Trace hashes do not depend on numpy or on the CPU's vector extensions.

The tick path writes every 2-vector dot product out as ``a*c + b*d``,
takes scalar math from ``math``, and runs routes, the separating-axis
test and the monitor's search over its sample grid on plain floats. No
module under ``src/avguard`` imports numpy, which the first test pins;
the second runs the command line and the golden hashes in a fresh
interpreter in which ``import numpy`` fails, so neither BLAS nor numpy's
SIMD dispatch can reach a hash. numpy stays a test dependency only: the
reference forms in tests/test_exact_fast_paths.py are built on it.
"""

import ast
import glob
import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


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

