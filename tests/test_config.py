"""avguard.config is the one home of what a scenario file can set.

The roles import its parameter types, enums and constants from it, so a
name seen from a role's module is config's own object, and only
config's ``__all__`` lists it. config imports nothing else of avguard,
which is what keeps loading a scenario off the tick path.
"""

import ast
import importlib
import inspect
import math
import pathlib
import pickle
import pkgutil

import pytest

import avguard
from avguard import attacks, config, monitor, performance, planners, \
    scenario, sim, state

# Each moved name, from the module that held it before avguard.config and
# still binds it. attacks, which never read MAX_VELOCITY_SCALE, and
# planners, which never read PlannerKind, bind them no more.
OLD_HOMES = [
    (sim, "APPROACH_REACH"),
    (sim, "ScenarioBase"),
    (sim, "SimParams"),
    (sim, "VEHICLE_HALF_EXTENT"),
    (monitor, "EGO_RADIUS"),
    (monitor, "SafetyParams"),
    (performance, "PerfThresholds"),
    (planners, "PlannerConfig"),
    (attacks, "AttackConfig"),
    (attacks, "TriggerKind"),
    (state, "FaultKind"),
    (state, "RouteGoal"),
    (state, "Vec2"),
]


@pytest.mark.parametrize("module, name", OLD_HOMES,
                         ids=[f"{m.__name__}.{n}" for m, n in OLD_HOMES])
def test_old_import_path_gives_configs_object(module, name):
    assert getattr(module, name) is getattr(config, name)


def test_attacks_does_not_bind_max_velocity_scale():
    assert not hasattr(attacks, "MAX_VELOCITY_SCALE")


def test_planners_does_not_bind_planner_kind():
    assert not hasattr(planners, "PlannerKind")


def test_each_moved_name_is_public_in_config_only():
    moved = sorted({name for _, name in OLD_HOMES}
                   | {"MAX_VELOCITY_SCALE", "PlannerKind"})
    assert sorted(config.__all__) == moved
    listed = {}
    for info in pkgutil.iter_modules(avguard.__path__):
        module = importlib.import_module(f"avguard.{info.name}")
        for name in getattr(module, "__all__", ()):
            listed.setdefault(name, []).append(module.__name__)
    assert {name: listed[name] for name in moved} == \
        {name: ["avguard.config"] for name in moved}


def test_config_names_are_imported_from_config_only():
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [path for folder in ("src/avguard", "tests", "demos", "perfbench")
             for path in sorted((root / folder).glob("*.py"))]
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = f"avguard.{node.module}" if node.level else node.module
            if module and module.startswith("avguard") \
                    and module != "avguard.config":
                found += [f"{path.name}:{node.lineno}: {module}.{alias.name}"
                          for alias in node.names
                          if alias.name in config.__all__]
    assert found == []


def test_config_imports_no_other_avguard_module():
    tree = ast.parse(inspect.getsource(config))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "dataclasses", "enum", "typing"}


def test_min_d_unsafe_reads_the_simulators_and_monitors_sizes():
    assert scenario.MIN_D_UNSAFE == 2 * (math.hypot(*sim.VEHICLE_HALF_EXTENT)
                                         - monitor.EGO_RADIUS)


@pytest.mark.parametrize("spec", scenario.reference_specs(),
                         ids=lambda spec: spec.id)
def test_reference_spec_pickles_equal(spec):
    # Pool workers receive the plan's specs pickled, through initargs.
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    assert type(copy.sim_params) is config.SimParams
    assert copy.base is spec.base
