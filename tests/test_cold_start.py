"""Importing avguard loads only what loading a scenario needs.

The process pool, the external planner's subprocess plumbing, the
traceback of a failed run, the log of a skipped spoof, the trace hash
and the campaign statistics are imported where they are used, so
``import avguard`` and ``avguard validate`` do not pay for them. The
children run with ``-I -S``: ``site`` can pre-import much of the
standard library, which would hide an import avguard makes.
"""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import avguard

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NOMINAL = os.path.join(ROOT, "scenarios", "01_nominal.ini")

# hashlib loads OpenSSL's _hashlib; statistics loads fractions, decimal
# and numbers.
LAZY = ["concurrent.futures", "multiprocessing", "subprocess", "queue",
        "traceback", "logging", "hashlib", "statistics"]

IMPORT_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import avguard
import avguard.scenario
print(" ".join(sorted(m for m in sys.argv[3:]
                      if m in sys.modules and m not in before)))
"""

VALIDATE_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import avguard.cli
assert avguard.cli.main(["validate", "--scenario", sys.argv[2]]) == 0
print(" ".join(sorted(m for m in sys.argv[3:]
                      if m in sys.modules and m not in before)))
"""


def loaded_lazy_modules(child: str) -> list[str]:
    """The LAZY modules that ``child`` loaded; its last printed line."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", child, SRC, NOMINAL, *LAZY],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_no_lazy_module():
    assert loaded_lazy_modules(IMPORT_CHILD) == []


def test_validate_loads_no_lazy_module():
    assert loaded_lazy_modules(VALIDATE_CHILD) == []


def test_every_dataclass_has_its_own_docstring():
    # Given a class with no docstring, dataclass() writes one from
    # inspect.signature(cls), "Name(field: type, ...)". On Python 3.11
    # that is its costliest step after exec'ing the generated methods,
    # and every interpreter that imports avguard pays it per class.
    classes = []
    for info in pkgutil.iter_modules(avguard.__path__):
        module = importlib.import_module(f"avguard.{info.name}")
        classes += [value for value in vars(module).values()
                    if isinstance(value, type)
                    and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__]
    assert classes
    assert [f"{cls.__module__}.{cls.__name__}" for cls in classes
            if (cls.__doc__ or "").startswith(f"{cls.__name__}(")] == []
