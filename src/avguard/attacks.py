"""Security assessment and fault injection.

The security assessor walks a configured attack schedule and decides when
to fire; the fault injector resolves the directive against the current
scene (ghost placement, spoof target) and keeps the active set. A
directive activated at tick t corrupts perception from tick t+1 through
its window end, never the tick that triggered it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .sim import default_ghost_position
from .state import (
    AgentKind,
    EgoOdometry,
    FaultDirective,
    FaultKind,
    GhostSpec,
    PerceivedState,
    SpoofSpec,
)

log = logging.getLogger(__name__)


class TriggerKind(str, Enum):
    EGO_WITHIN_DISTANCE = "ego_within"  # meters from the conflict zone
    AT_TICK = "at_tick"
    PERIODIC = "periodic"               # every N ticks


@dataclass(frozen=True)
class ScheduleEntry:
    fault_kind: FaultKind
    trigger: TriggerKind
    trigger_value: float
    duration_ticks: int = 80
    max_activations: int = 0  # 0 = unlimited
    ghost: GhostSpec = GhostSpec()
    spoof: SpoofSpec = SpoofSpec()


@dataclass
class AttackSchedule:
    entries: list[ScheduleEntry] = field(default_factory=list)


def trigger_fires(entry: ScheduleEntry, tick: int, ego: EgoOdometry,
                  zone_distance: float) -> bool:
    if entry.trigger == TriggerKind.EGO_WITHIN_DISTANCE:
        return zone_distance <= entry.trigger_value
    if entry.trigger == TriggerKind.AT_TICK:
        return tick == int(entry.trigger_value)
    period = max(int(entry.trigger_value), 1)
    return tick % period == 0


class FaultInjector:
    """Owns the per-run active-directive set and activation counts."""

    def __init__(self, schedule: AttackSchedule):
        self.schedule = schedule
        self.active: list[FaultDirective] = []
        self.activation_counts: dict[int, int] = {}

    def plan(self, tick: int, ego: EgoOdometry,
             zone_distance: float) -> Optional[ScheduleEntry]:
        """Security-assessor step: first entry that fires and is not
        already active (one active directive per kind), none otherwise."""
        for i, entry in enumerate(self.schedule.entries):
            count = self.activation_counts.get(i, 0)
            if entry.max_activations and count >= entry.max_activations:
                continue
            if self._kind_active(entry.fault_kind, tick + 1):
                continue
            if trigger_fires(entry, tick, ego, zone_distance):
                return entry
        return None

    def _kind_active(self, kind: FaultKind, tick: int) -> bool:
        return any(d.kind == kind and d.active_at(tick) for d in self.active)

    def activate(self, entry: ScheduleEntry, tick: int,
                 perceived: PerceivedState,
                 goal) -> Optional[FaultDirective]:
        """Resolve and schedule a directive; effective from tick + 1."""
        start, end = tick + 1, tick + entry.duration_ticks
        if entry.fault_kind == FaultKind.GHOST_OBSTACLE:
            position = entry.ghost.position or default_ghost_position(goal)
            directive = FaultDirective(kind=FaultKind.GHOST_OBSTACLE,
                                       start_tick=start, end_tick=end,
                                       ghost=entry.ghost,
                                       ghost_position=position)
        else:
            target = entry.spoof.target_id
            if target is None:
                target = nearest_closing_vehicle(perceived)
            if target is None:
                log.debug("no spoof target available at tick %d", tick)
                return None
            directive = FaultDirective(kind=FaultKind.TRAJECTORY_SPOOF,
                                       start_tick=start, end_tick=end,
                                       spoof=entry.spoof, spoof_target=target)
        index = self.schedule.entries.index(entry)
        self.activation_counts[index] = self.activation_counts.get(index, 0) + 1
        self.active.append(directive)
        return directive

    def active_directives(self, tick: int) -> list[FaultDirective]:
        self.active = [d for d in self.active if d.end_tick >= tick]
        return [d for d in self.active if d.active_at(tick)]


def nearest_closing_vehicle(perceived: PerceivedState) -> Optional[int]:
    """Default spoof target: the closest real vehicle approaching the ego."""
    ego = perceived.ego_odometry
    best_id, best_dist = None, np.inf
    for obj in perceived.objects:
        if obj.kind != AgentKind.VEHICLE:
            continue
        line = ego.position - obj.position
        norm = float(np.hypot(*line))
        if norm < 1e-9 or float(np.dot(obj.velocity, line / norm)) <= 0.0:
            continue
        if norm < best_dist:
            best_id, best_dist = obj.id, norm
    return best_id


__all__ = [
    "AttackSchedule",
    "FaultInjector",
    "ScheduleEntry",
    "TriggerKind",
    "nearest_closing_vehicle",
    "trigger_fires",
]
