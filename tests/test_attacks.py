"""Attack scheduling: triggers, deduplication, and activation windows."""

import math

import numpy as np
import pytest

from avguard.attacks import (
    AttackSchedule,
    FaultInjector,
    ScheduleEntry,
    TriggerKind,
    nearest_closing_vehicle,
    trigger_fires,
)
from avguard.state import (
    AgentKind,
    EgoOdometry,
    FaultKind,
    GhostSpec,
    PerceivedObject,
    PerceivedState,
    RouteGoal,
    SimClock,
    SpoofSpec,
)


def make_odometry(pos=(2.5, -30.0), vel=(0.0, 8.0)):
    return EgoOdometry(position=np.asarray(pos, dtype=float),
                       velocity=np.asarray(vel, dtype=float),
                       heading=math.pi / 2)


def make_perceived(objects):
    return PerceivedState(clock=SimClock(tick=0, dt=0.1),
                          ego_odometry=make_odometry(),
                          objects=objects, goal=RouteGoal.STRAIGHT)


def make_object(obj_id, pos, vel):
    return PerceivedObject(id=obj_id, kind=AgentKind.VEHICLE,
                           position=np.asarray(pos, dtype=float),
                           velocity=np.asarray(vel, dtype=float),
                           half_extent=np.array([2.0, 1.0]))


GHOST_ENTRY = ScheduleEntry(fault_kind=FaultKind.GHOST_OBSTACLE,
                            trigger=TriggerKind.EGO_WITHIN_DISTANCE,
                            trigger_value=25.0, duration_ticks=80,
                            max_activations=1, ghost=GhostSpec())


class TestTriggerFires:
    def test_ego_within_distance(self):
        assert trigger_fires(GHOST_ENTRY, 0, make_odometry(), 24.0)
        assert trigger_fires(GHOST_ENTRY, 0, make_odometry(), 25.0)
        assert not trigger_fires(GHOST_ENTRY, 0, make_odometry(), 26.0)

    def test_at_tick(self):
        entry = ScheduleEntry(fault_kind=FaultKind.GHOST_OBSTACLE,
                              trigger=TriggerKind.AT_TICK, trigger_value=7)
        assert not trigger_fires(entry, 6, make_odometry(), 100.0)
        assert trigger_fires(entry, 7, make_odometry(), 100.0)
        assert not trigger_fires(entry, 8, make_odometry(), 100.0)

    def test_periodic(self):
        entry = ScheduleEntry(fault_kind=FaultKind.TRAJECTORY_SPOOF,
                              trigger=TriggerKind.PERIODIC, trigger_value=5)
        fired = [t for t in range(12) if trigger_fires(entry, t,
                                                       make_odometry(), 100.0)]
        assert fired == [0, 5, 10]


class TestSecurityPlan:
    def test_empty_schedule_never_fires(self):
        injector = FaultInjector(AttackSchedule())
        for tick in range(50):
            assert injector.plan(tick, make_odometry(), 10.0) is None

    def test_ghost_fires_within_distance(self):
        injector = FaultInjector(AttackSchedule(entries=[GHOST_ENTRY]))
        entry = injector.plan(0, make_odometry(), 24.0)
        assert entry is not None
        assert entry.fault_kind == FaultKind.GHOST_OBSTACLE

    def test_no_duplicate_while_active(self):
        injector = FaultInjector(AttackSchedule(entries=[GHOST_ENTRY]))
        entry = injector.plan(0, make_odometry(), 24.0)
        assert entry is not None
        injector.activate(entry, 0, make_perceived([]), RouteGoal.STRAIGHT)
        # The trigger condition still holds, but the directive is active.
        assert injector.plan(1, make_odometry(), 24.0) is None

    def test_max_activations_cap(self):
        injector = FaultInjector(AttackSchedule(entries=[GHOST_ENTRY]))
        entry = injector.plan(0, make_odometry(), 24.0)
        directive = injector.activate(entry, 0, make_perceived([]),
                                      RouteGoal.STRAIGHT)
        # After the window expires the single allowed activation is spent.
        after = directive.end_tick + 1
        assert injector.plan(after, make_odometry(), 24.0) is None

    def test_unlimited_activations_refire_after_window(self):
        entry = ScheduleEntry(fault_kind=FaultKind.TRAJECTORY_SPOOF,
                              trigger=TriggerKind.PERIODIC, trigger_value=1,
                              duration_ticks=1, max_activations=0,
                              spoof=SpoofSpec())
        injector = FaultInjector(AttackSchedule(entries=[entry]))
        perceived = make_perceived([make_object(1, [2.5, -10.0], [0.0, -3.0])])
        first = injector.plan(0, make_odometry(), 24.0)
        assert first is not None
        injector.activate(first, 0, perceived, RouteGoal.STRAIGHT)
        # Window [1, 1] has lapsed by tick 2, so the entry may fire again.
        assert injector.plan(2, make_odometry(), 24.0) is not None


class TestActivation:
    def test_window_starts_next_tick(self):
        injector = FaultInjector(AttackSchedule(entries=[GHOST_ENTRY]))
        entry = injector.plan(5, make_odometry(), 24.0)
        directive = injector.activate(entry, 5, make_perceived([]),
                                      RouteGoal.STRAIGHT)
        assert directive.start_tick == 6
        assert directive.end_tick == 6 + 80 - 1
        assert not directive.active_at(5)
        assert directive.active_at(6)
        assert directive.active_at(85)
        assert not directive.active_at(86)
        assert injector.active_directives(5) == []
        assert injector.active_directives(6) == [directive]

    def test_ghost_position_resolved_on_route(self):
        injector = FaultInjector(AttackSchedule(entries=[GHOST_ENTRY]))
        entry = injector.plan(0, make_odometry(), 24.0)
        directive = injector.activate(entry, 0, make_perceived([]),
                                      RouteGoal.STRAIGHT)
        assert directive.ghost_position is not None
        # On the ego's straight route (x = 2.5) ahead of the ego.
        assert directive.ghost_position[0] == pytest.approx(2.5)
        assert directive.ghost_position[1] > -30.0

    def test_spoof_targets_nearest_closing_vehicle(self):
        entry = ScheduleEntry(fault_kind=FaultKind.TRAJECTORY_SPOOF,
                              trigger=TriggerKind.PERIODIC, trigger_value=1,
                              duration_ticks=1, spoof=SpoofSpec())
        injector = FaultInjector(AttackSchedule(entries=[entry]))
        closing_near = make_object(1, [2.5, -10.0], [0.0, -3.0])
        closing_far = make_object(2, [2.5, 40.0], [0.0, -3.0])
        receding = make_object(3, [2.5, -25.0], [0.0, 9.0])
        perceived = make_perceived([receding, closing_far, closing_near])
        planned = injector.plan(0, make_odometry(), 24.0)
        directive = injector.activate(planned, 0, perceived,
                                      RouteGoal.STRAIGHT)
        assert directive.spoof_target == 1


class TestNearestClosingVehicle:
    def test_picks_nearest_approaching(self):
        perceived = make_perceived([
            make_object(1, [2.5, 30.0], [0.0, -5.0]),
            make_object(2, [2.5, 0.0], [0.0, -5.0]),
        ])
        assert nearest_closing_vehicle(perceived) == 2

    def test_none_when_all_receding(self):
        perceived = make_perceived([
            make_object(1, [2.5, 10.0], [0.0, 9.0]),
        ])
        assert nearest_closing_vehicle(perceived) is None

    def test_none_when_empty(self):
        assert nearest_closing_vehicle(make_perceived([])) is None
