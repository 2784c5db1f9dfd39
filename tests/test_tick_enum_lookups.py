"""The tick reads enum members from module globals, not through their class.

On Python 3.10 and 3.11 each ``Maneuver.WAIT``-style lookup goes through
``EnumType.__getattr__``, about 110 ns against about 8 ns for a module
global; on 3.12 it costs about 28 ns. So each member is bound once, as a
global of the module that defines its enum, and the per-tick functions
below import it by name. This test can go once ``requires-python``
reaches 3.12.
"""

import ast
import enum
import inspect
import textwrap

import pytest

from avguard import attacks, metrics, monitor, orchestrator, planners, sim, \
    state

PER_TICK = [
    (orchestrator, "run_tick"),
    (orchestrator, "run_scenario"),
    (orchestrator, "check_termination"),
    (sim, "command_accel"),
    (sim, "maneuver_to_command"),
    (sim, "build_perceived_state"),
    (monitor, "safety_check"),
    (monitor, "proposed_ego_accel"),
    (monitor, "recovery_decide"),
    (planners, "plan"),
    (attacks, "trigger_fires"),
    (metrics, "finalize_tick"),
]


@pytest.mark.parametrize("module, name", PER_TICK,
                         ids=[f"{m.__name__}.{n}" for m, n in PER_TICK])
def test_no_member_lookup_through_its_enum(module, name):
    tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(module, name))))
    lookups = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)):
            owner = getattr(module, node.value.id, None)
            if (isinstance(owner, type) and issubclass(owner, enum.Enum)
                    and node.attr in owner.__members__):
                lookups.append(f"{node.value.id}.{node.attr} "
                               f"(line {node.lineno})")
    assert lookups == []


@pytest.mark.parametrize("module, enum_type", [
    (state, state.AgentKind),
    (state, state.Provenance),
    (state, state.Maneuver),
    (state, state.VerdictLevel),
    (state, state.FaultKind),
    (metrics, metrics.TerminationStatus),
    (attacks, attacks.TriggerKind),
])
def test_each_member_is_bound_once_by_its_name(module, enum_type):
    for name, member in enum_type.__members__.items():
        assert getattr(module, name) is member
        assert name not in module.__all__
