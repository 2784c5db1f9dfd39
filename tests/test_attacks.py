"""Attack scheduling: triggers, deduplication, and activation windows."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avguard.attacks import (
    FaultDirective,
    FaultInjector,
    nearest_closing_vehicle,
    trigger_fires,
)
from avguard.config import (
    APPROACH_REACH,
    MAX_VELOCITY_SCALE,
    AttackConfig,
    FaultKind,
    RouteGoal,
    TriggerKind,
    Vec2,
)
from avguard.state import (
    AgentKind,
    EgoOdometry,
    PerceivedObject,
    PerceivedState,
    SimClock,
)


def make_odometry(pos=(2.5, -30.0), vel=(0.0, 8.0)):
    return EgoOdometry(position=Vec2((float(pos[0]), float(pos[1]))),
                       velocity=Vec2((float(vel[0]), float(vel[1]))),
                       heading=math.pi / 2)


def make_perceived(objects):
    return PerceivedState(clock=SimClock(tick=0, dt=0.1),
                          ego_odometry=make_odometry(),
                          objects=objects, goal=RouteGoal.STRAIGHT)


def make_object(obj_id, pos, vel):
    return PerceivedObject(id=obj_id, kind=AgentKind.VEHICLE,
                           position=Vec2((float(pos[0]), float(pos[1]))),
                           velocity=Vec2((float(vel[0]), float(vel[1]))),
                           half_extent=Vec2((2.0, 1.0)))


GHOST = AttackConfig(kind=FaultKind.GHOST_OBSTACLE,
                     trigger=TriggerKind.EGO_WITHIN_DISTANCE,
                     trigger_value=25.0, max_activations=1)


class TestAttackConfig:
    def test_rejects_nonpositive_velocity_scale(self):
        with pytest.raises(ValueError, match="velocity_scale"):
            AttackConfig(kind=FaultKind.TRAJECTORY_SPOOF,
                         trigger=TriggerKind.PERIODIC, trigger_value=1,
                         velocity_scale=0.0)

    def test_velocity_scale_and_ghost_position_ranges(self):
        # Past these the monitor's separation is inf or NaN.
        spoof = dict(kind=FaultKind.TRAJECTORY_SPOOF,
                     trigger=TriggerKind.PERIODIC, trigger_value=1)
        AttackConfig(**spoof, velocity_scale=MAX_VELOCITY_SCALE)
        with pytest.raises(ValueError, match="velocity_scale"):
            AttackConfig(**spoof, velocity_scale=MAX_VELOCITY_SCALE * 1.01)
        replace = dataclasses.replace
        replace(GHOST, ghost_position=(-APPROACH_REACH, APPROACH_REACH))
        for position, key in (((-200.5, 0.0), "ghost_x_m"),
                              ((0.0, math.nan), "ghost_y_m")):
            with pytest.raises(ValueError, match=key):
                replace(GHOST, ghost_position=position)

    # test_scenario.py checks the file-reachable cases through the parser.
    @pytest.mark.parametrize("trigger, value", [
        (TriggerKind.PERIODIC, 2.5), (TriggerKind.AT_TICK, -1),
        (TriggerKind.EGO_WITHIN_DISTANCE, math.nan),
    ])
    def test_rejects_a_trigger_that_cannot_fire_as_written(self, trigger,
                                                           value):
        with pytest.raises(ValueError, match=trigger.value):
            AttackConfig(kind=FaultKind.GHOST_OBSTACLE, trigger=trigger,
                         trigger_value=value)


class TestFaultDirective:
    def test_window(self):
        d = FaultDirective(GHOST, start_tick=5, end_tick=8)
        assert d.kind == FaultKind.GHOST_OBSTACLE
        assert not d.active_at(4)
        assert d.active_at(5)
        assert d.active_at(8)
        assert not d.active_at(9)

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            FaultDirective(GHOST, start_tick=8, end_tick=5)


class TestTriggerFires:
    def test_ego_within_distance(self):
        assert trigger_fires(GHOST, 0, 24.0)
        assert trigger_fires(GHOST, 0, 25.0)
        assert not trigger_fires(GHOST, 0, 26.0)

    def test_at_tick(self):
        attack = AttackConfig(kind=FaultKind.GHOST_OBSTACLE,
                              trigger=TriggerKind.AT_TICK, trigger_value=7)
        assert not trigger_fires(attack, 6, 100.0)
        assert trigger_fires(attack, 7, 100.0)
        assert not trigger_fires(attack, 8, 100.0)

    def test_periodic(self):
        attack = AttackConfig(kind=FaultKind.TRAJECTORY_SPOOF,
                              trigger=TriggerKind.PERIODIC, trigger_value=5)
        fired = [t for t in range(12) if trigger_fires(attack, t, 100.0)]
        assert fired == [0, 5, 10]


class TestSecurityPlan:
    def test_no_attack_never_fires(self):
        injector = FaultInjector(None)
        for tick in range(50):
            assert injector.plan(tick, 10.0) is None

    def test_ghost_fires_within_distance(self):
        injector = FaultInjector(GHOST)
        attack = injector.plan(0, 24.0)
        assert attack is not None
        assert attack.kind == FaultKind.GHOST_OBSTACLE

    def test_no_duplicate_while_active(self):
        injector = FaultInjector(GHOST)
        attack = injector.plan(0, 24.0)
        assert attack is not None
        injector.activate(attack, 0, make_perceived([]), RouteGoal.STRAIGHT)
        # The trigger condition still holds, but the directive is active.
        assert injector.plan(1, 24.0) is None

    def test_max_activations_cap(self):
        injector = FaultInjector(GHOST)
        attack = injector.plan(0, 24.0)
        directive = injector.activate(attack, 0, make_perceived([]),
                                      RouteGoal.STRAIGHT)
        # After the window expires the single allowed activation is spent.
        after = directive.end_tick + 1
        assert injector.plan(after, 24.0) is None

    def test_unlimited_activations_refire_after_window(self):
        attack = AttackConfig(kind=FaultKind.TRAJECTORY_SPOOF,
                              trigger=TriggerKind.PERIODIC, trigger_value=1,
                              duration_ticks=1, max_activations=0)
        injector = FaultInjector(attack)
        perceived = make_perceived([make_object(1, [2.5, -10.0], [0.0, -3.0])])
        first = injector.plan(0, 24.0)
        assert first is not None
        injector.activate(first, 0, perceived, RouteGoal.STRAIGHT)
        # Window [1, 1] has lapsed by tick 2, so the attack may fire again.
        assert injector.plan(2, 24.0) is not None


class TestActivation:
    def test_window_starts_next_tick(self):
        injector = FaultInjector(GHOST)
        attack = injector.plan(5, 24.0)
        directive = injector.activate(attack, 5, make_perceived([]),
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
        injector = FaultInjector(GHOST)
        attack = injector.plan(0, 24.0)
        directive = injector.activate(attack, 0, make_perceived([]),
                                      RouteGoal.STRAIGHT)
        assert directive.ghost_position is not None
        # On the ego's straight route (x = 2.5) ahead of the ego.
        assert directive.ghost_position[0] == pytest.approx(2.5)
        assert directive.ghost_position[1] > -30.0

    def test_spoof_targets_nearest_closing_vehicle(self):
        attack = AttackConfig(kind=FaultKind.TRAJECTORY_SPOOF,
                              trigger=TriggerKind.PERIODIC, trigger_value=1,
                              duration_ticks=1)
        injector = FaultInjector(attack)
        closing_near = make_object(1, [2.5, -10.0], [0.0, -3.0])
        closing_far = make_object(2, [2.5, 40.0], [0.0, -3.0])
        receding = make_object(3, [2.5, -25.0], [0.0, 9.0])
        perceived = make_perceived([receding, closing_far, closing_near])
        planned = injector.plan(0, 24.0)
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


class TestOneActiveDirective:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(list(FaultKind)),
           trigger=st.sampled_from(list(TriggerKind)).flatmap(
               lambda t: st.tuples(st.just(t), st.integers(
                   1 if t == TriggerKind.PERIODIC else 0, 30))),
           duration_ticks=st.integers(1, 40),
           max_activations=st.integers(0, 4),
           ticks=st.lists(st.tuples(st.floats(0.0, 40.0), st.booleans()),
                          max_size=120))
    def test_never_more_than_one_active(self, kind, trigger, duration_ticks,
                                        max_activations, ticks):
        """Driven as run_tick drives it, the injector never activates
        while its directive is active next tick, so its one slot never
        drops a live directive: the invariant that lets a single
        AttackConfig stand for the whole attack schedule."""
        trigger, trigger_value = trigger
        attack = AttackConfig(kind=kind, trigger=trigger,
                              trigger_value=trigger_value,
                              duration_ticks=duration_ticks,
                              max_activations=max_activations)
        injector = FaultInjector(attack)
        closing = make_perceived([make_object(1, [2.5, -10.0], [0.0, -3.0])])
        for tick, (zone_distance, target_seen) in enumerate(ticks):
            assert len(injector.active_directives(tick)) <= 1
            planned = injector.plan(tick, zone_distance)
            if planned is not None:
                assert injector.directive is None or \
                    not injector.directive.active_at(tick + 1)
                perceived = closing if target_seen else make_perceived([])
                injector.activate(planned, tick, perceived, RouteGoal.STRAIGHT)
        if max_activations:
            assert injector.activations <= max_activations
