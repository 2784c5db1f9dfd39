"""Importing avguard loads only what every campaign uses.

The process pool, the external planner's subprocess plumbing, the
traceback of a failed run and the log of a skipped spoof are imported
where they are used, so a serial campaign and the CLI's start-up do not
pay for them. The child runs with ``-I -S``: ``site`` can pre-import
much of the standard library, which would hide an import avguard makes.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

LAZY = ["concurrent.futures", "multiprocessing", "subprocess", "queue",
        "traceback", "logging"]

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import avguard
import avguard.scenario
print(" ".join(sorted(m for m in sys.argv[2:]
                      if m in sys.modules and m not in before)))
"""


def test_import_loads_no_lazy_module():
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CHILD, SRC, *LAZY],
        capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []
