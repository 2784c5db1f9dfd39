"""Security assessment and fault injection.

The security assessor decides when the scenario's one attack fires; the
fault injector resolves each activation into a directive against the
current scene (ghost placement, spoof target) and keeps the active set.
A directive activated at tick t corrupts perception from tick t+1
through its window end, never the tick that triggered it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .sim import APPROACH_REACH, default_ghost_position
from .state import GHOST_OBSTACLE, VEHICLE, FaultKind, PerceivedState, Vec2

MAX_VELOCITY_SCALE = 100.0  # keeps a spoofed velocity and the monitor finite


class TriggerKind(str, Enum):
    EGO_WITHIN_DISTANCE = "ego_within"  # meters from the conflict zone
    AT_TICK = "at_tick"
    PERIODIC = "periodic"               # every N ticks


# Members as globals for the tick: a class lookup runs EnumType.__getattr__,
# about 110 ns on Python 3.10 and 3.11 (28 ns on 3.12) against 8 ns.
EGO_WITHIN_DISTANCE, AT_TICK, PERIODIC = TriggerKind


@dataclass(frozen=True)
class AttackConfig:
    """The scenario's one attack: what to inject, when, and how often.

    A ghost is a stationary vehicle-sized object; a spoof rescales and
    rotates one real vehicle's perceived velocity. The ghost fields have
    no effect on a spoof attack, nor the spoof fields on a ghost attack.
    """

    kind: FaultKind
    trigger: TriggerKind
    trigger_value: float
    duration_ticks: int = 80
    max_activations: int = 0  # 0 = unlimited
    ghost_position: Optional[tuple[float, float]] = None  # None -> on-route default
    spoof_target_id: Optional[int] = None  # None -> nearest closing vehicle
    velocity_scale: float = 2.0
    heading_bias: float = 0.0  # rad

    def __post_init__(self) -> None:
        if self.duration_ticks < 1:
            raise ValueError("duration_ticks must be >= 1")
        if self.max_activations < 0:
            raise ValueError("max_activations must be >= 0")
        if not 0 < self.velocity_scale <= MAX_VELOCITY_SCALE:
            raise ValueError(f"velocity_scale must be in "
                             f"(0, {MAX_VELOCITY_SCALE:g}]")
        for key, v in zip(("ghost_x_m", "ghost_y_m"), self.ghost_position or ()):
            if not abs(v) <= APPROACH_REACH:
                raise ValueError(f"{key} must be within +-{APPROACH_REACH:g} m")
        value = float(self.trigger_value)
        if self.trigger == TriggerKind.EGO_WITHIN_DISTANCE:
            if not value >= 0:
                raise ValueError("trigger ego_within needs a distance >= 0")
        else:
            least = 1 if self.trigger == TriggerKind.PERIODIC else 0
            if not (value.is_integer() and value >= least):
                raise ValueError(f"trigger {self.trigger.value} needs a whole "
                                 f"number >= {least}")


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
    """Owns the per-run active-directive set and the attack's activation
    count."""

    def __init__(self, attack: Optional[AttackConfig]):
        self.attack = attack
        self.active: list[FaultDirective] = []
        self.activations = 0

    def plan(self, tick: int, zone_distance: float) -> Optional[AttackConfig]:
        """Security-assessor step: the attack if its trigger fires, its
        activations are not spent and no directive of it is active next
        tick; None otherwise."""
        attack = self.attack
        if attack is None:
            return None
        if attack.max_activations and self.activations >= attack.max_activations:
            return None
        if any(d.active_at(tick + 1) for d in self.active):
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
        self.active.append(directive)
        return directive

    def active_directives(self, tick: int) -> list[FaultDirective]:
        if not self.active:
            return []
        self.active = [d for d in self.active if d.end_tick >= tick]
        return [d for d in self.active if d.active_at(tick)]


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
    "AttackConfig",
    "FaultDirective",
    "FaultInjector",
    "TriggerKind",
    "nearest_closing_vehicle",
    "trigger_fires",
]
