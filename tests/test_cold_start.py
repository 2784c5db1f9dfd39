"""Importing avguard loads only what loading a scenario needs.

The package resolves its public names from their modules at first use,
and each CLI command imports the run machinery it runs, so ``import
avguard``, ``import avguard.scenario`` and ``avguard validate`` load
neither the campaign, the orchestrator, the trace codec nor json. The
scenario's parameter types, and the enums and constants they name, live
in the leaf module ``avguard.config``, and the simulator loads when a
run first spawns a world. So loading and validating scenario files
loads none of the tick path (the world types, the simulator, geometry,
the roles, seeding) and builds only the six scenario dataclasses. The
process pool, the external planner's subprocess plumbing, the traceback
of a failed run, the log of a skipped spoof, the trace hash and the
campaign statistics are imported where they are used too. The children
run with ``-I -S``: ``site`` can pre-import much of the standard
library, which would hide an import avguard makes.
"""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import avguard

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NOMINAL = os.path.join(ROOT, "scenarios", "01_nominal.ini")

# hashlib loads OpenSSL's _hashlib; statistics loads fractions, decimal
# and numbers; json is read and written only by the trace codec, the
# campaign's sidecars and the external planner.
LAZY = ["concurrent.futures", "multiprocessing", "subprocess", "queue",
        "traceback", "logging", "hashlib", "statistics", "avguard.campaign",
        "avguard.metrics", "avguard.orchestrator", "json"]

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


# What loading a scenario leaves out: the world types, the simulator and
# its route tables, geometry, the roles and the seed streams.
TICK_PATH = ["avguard.state", "avguard.sim", "avguard.geometry",
             "avguard.attacks", "avguard.monitor", "avguard.planners",
             "avguard.performance", "avguard.seeding"]

SCENARIO_TYPES = ["AttackConfig", "PerfThresholds", "PlannerConfig",
                  "SafetyParams", "ScenarioSpec", "SimParams"]

# As perfbench's set-up probe does: load and validate every scenario file.
# Prints the avguard dataclasses it created, "|", the argv modules it loaded.
LOAD_CHILD = """
import dataclasses, os, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from avguard.scenario import load_scenario_file, validate_spec
paths = sorted(os.path.join(sys.argv[2], n) for n in os.listdir(sys.argv[2])
               if n.endswith(".ini"))
assert len(paths) == 6, paths
for path in paths:
    validate_spec(load_scenario_file(path))
new = [m for m in sys.modules if m.startswith("avguard") and m not in before]
print(" ".join(sorted(v.__name__ for m in new
                      for v in vars(sys.modules[m]).values()
                      if isinstance(v, type) and dataclasses.is_dataclass(v)
                      and v.__module__ == m)),
      "|", " ".join(sorted(m for m in sys.argv[3:]
                           if m in sys.modules and m not in before)))
"""


SUBMODULE_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import avguard
assert "avguard.sim" not in sys.modules
print(avguard.sim.__name__)
"""


def loaded_lazy_modules(child: str) -> list[str]:
    """The LAZY modules that ``child`` loaded; its last printed line."""
    return run_child(child, NOMINAL, *LAZY).split()


def run_child(child: str, *args: str) -> str:
    """The last line ``child`` printed, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", child, SRC, *args],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_loads_no_lazy_module():
    assert loaded_lazy_modules(IMPORT_CHILD) == []


def test_validate_loads_no_lazy_module():
    assert loaded_lazy_modules(VALIDATE_CHILD) == []


def test_loading_scenarios_builds_no_tick_path_module():
    classes, loaded = run_child(LOAD_CHILD, os.path.join(ROOT, "scenarios"),
                                *TICK_PATH).split("|")
    assert loaded.split() == []
    assert classes.split() == SCENARIO_TYPES


def test_validate_loads_no_tick_path_module():
    assert run_child(VALIDATE_CHILD, NOMINAL, *TICK_PATH).split() == []


def test_each_public_name_is_its_home_modules_object():
    for name in avguard.__all__:
        value = getattr(avguard, name)
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from avguard import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(avguard.__all__)


# Every submodule but the CLI, which is a program and lists no API.
SUBMODULES = sorted(info.name
                    for info in pkgutil.iter_modules(avguard.__path__)
                    if info.name != "cli")


@pytest.mark.parametrize("name", SUBMODULES)
def test_star_import_of_a_submodule_binds_its_all(name):
    """A misspelled or removed entry fails here, not in a user's import."""
    module = importlib.import_module(f"avguard.{name}")
    namespace: dict = {}
    exec(f"from avguard.{name} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(module.__all__)


def test_from_import_of_a_submodule_gives_the_submodule():
    from avguard import campaign

    assert campaign is sys.modules["avguard.campaign"]


def test_plain_import_reaches_a_submodule_as_an_attribute():
    assert run_child(SUBMODULE_CHILD) == "avguard.sim"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        avguard.no_such_name
    assert not hasattr(avguard, "no_such_name")
    assert not hasattr(avguard, "no_such_module.name")


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
