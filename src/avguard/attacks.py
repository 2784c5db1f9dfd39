"""Security assessment and fault injection.

The security assessor decides when the scenario's one attack fires; the
fault injector resolves each activation into a directive against the
current scene (ghost placement, spoof target) and keeps it: at most one
is active at a time. A directive activated at tick t corrupts perception
from tick t+1 through its window end, never the tick that triggered it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .config import AttackConfig, FaultKind, TriggerKind, Vec2
from .sim import default_ghost_position
from .state import GHOST_OBSTACLE, VEHICLE, PerceivedState

# Members as globals for the tick: a class lookup runs EnumType.__getattr__,
# about 110 ns on Python 3.10 and 3.11 (28 ns on 3.12) against 8 ns.
EGO_WITHIN_DISTANCE, AT_TICK, PERIODIC = TriggerKind


@dataclass(frozen=True)
class FaultDirective:
    """One activation of the attack: its window (inclusive) and the ghost
    position or spoof target resolved when it activated."""

    attack: AttackConfig
    start_tick: int
    end_tick: int
    ghost_position: Optional[Vec2] = None
    spoof_target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_tick > self.end_tick:
            raise ValueError("start_tick must be <= end_tick")

    @property
    def kind(self) -> FaultKind:
        return self.attack.kind

    def active_at(self, tick: int) -> bool:
        return self.start_tick <= tick <= self.end_tick


def trigger_fires(attack: AttackConfig, tick: int, zone_distance: float) -> bool:
    if attack.trigger == EGO_WITHIN_DISTANCE:
        return zone_distance <= attack.trigger_value
    if attack.trigger == AT_TICK:
        return tick == int(attack.trigger_value)
    return tick % int(attack.trigger_value) == 0


class FaultInjector:
    """Owns the run's one directive slot, which ``plan`` never refills
    while its directive covers the next tick, and the activation count."""

    def __init__(self, attack: Optional[AttackConfig]):
        self.attack = attack
        self.directive: Optional[FaultDirective] = None
        self.activations = 0

    def plan(self, tick: int, zone_distance: float) -> Optional[AttackConfig]:
        """Security-assessor step: the attack if its trigger fires, its
        activations are not spent and no directive is active next tick;
        None otherwise."""
        attack = self.attack
        if attack is None:
            return None
        if attack.max_activations and self.activations >= attack.max_activations:
            return None
        if self.directive is not None and self.directive.end_tick > tick:
            return None
        return attack if trigger_fires(attack, tick, zone_distance) else None

    def activate(self, attack: AttackConfig, tick: int,
                 perceived: PerceivedState,
                 goal) -> Optional[FaultDirective]:
        """Resolve and schedule a directive; effective from tick + 1."""
        start, end = tick + 1, tick + attack.duration_ticks
        if attack.kind == GHOST_OBSTACLE:
            position = attack.ghost_position or default_ghost_position(goal)
            directive = FaultDirective(attack, start, end,
                                       ghost_position=Vec2(position))
        else:
            target = attack.spoof_target_id
            if target is None:
                target = nearest_closing_vehicle(perceived)
            if target is None:
                import logging  # only a spoof with no target logs

                logging.getLogger(__name__).debug(
                    "no spoof target available at tick %d", tick)
                return None
            directive = FaultDirective(attack, start, end, spoof_target=target)
        self.activations += 1
        self.directive = directive
        return directive

    def active_directives(self, tick: int) -> list[FaultDirective]:
        """``[directive]`` if it is active at ``tick``, else ``[]``: the
        list ``sim.build_perceived_state`` takes."""
        directive = self.directive
        if directive is not None and directive.active_at(tick):
            return [directive]
        return []


def nearest_closing_vehicle(perceived: PerceivedState) -> Optional[int]:
    """Default spoof target: the closest real vehicle approaching the ego."""
    ego = perceived.ego_odometry
    best_id, best_dist = None, math.inf
    for obj in perceived.objects:
        if obj.kind != VEHICLE:
            continue
        lx, ly = ego.position - obj.position
        norm = math.hypot(lx, ly)
        vx, vy = obj.velocity
        if norm < 1e-9 or vx * (lx / norm) + vy * (ly / norm) <= 0.0:
            continue
        if norm < best_dist:
            best_id, best_dist = obj.id, norm
    return best_id


__all__ = [
    "FaultDirective",
    "FaultInjector",
]
