"""Deterministic tactical planners standing in for an opaque AI planner.

The gap-acceptance planner looks at every perceived object whose
predicted constant-velocity path crosses the ego route inside the
conflict zone and compares the time gap against a required gap scaled by
a caution factor. The over-cautious and aggressive variants are the same
law with caution multiplied up or down, reproducing hesitation/gridlock
and stress-case behavior respectively.

Planners see only what the perception pipeline exposes: they never read
provenance tags or ground truth. The external-planner adapter speaks a
line-delimited JSON protocol over a subprocess's standard streams so a
real model can fill the generator slot; it fails a run as every other
generator does.
"""

from __future__ import annotations

import json
import math
import queue
import subprocess
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .sim import build_intersection, ego_route_for
from .state import (
    IntersectionGeometry,
    Maneuver,
    PerceivedState,
    RouteGoal,
)
from . import geometry

STATIONARY_SPEED = 0.3        # m/s; below this an object is a static blocker
BLOCK_LOOKAHEAD = 25.0        # m of route ahead scanned for static blockers
BLOCK_LATERAL_MARGIN = 1.5    # m added to the blocker footprint
CROSSING_HORIZON = 30.0       # s of object motion searched for a crossing
ACCELERATE_BELOW_FRACTION = 0.5  # of the speed limit


class PlannerKind(str, Enum):
    GAP_ACCEPTANCE = "gap_acceptance"
    OVER_CAUTIOUS = "over_cautious"
    AGGRESSIVE = "aggressive"


_KIND_CAUTION = {
    PlannerKind.GAP_ACCEPTANCE: 1.0,
    PlannerKind.OVER_CAUTIOUS: 2.5,
    PlannerKind.AGGRESSIVE: 0.4,
}


@dataclass(frozen=True)
class PlannerConfig:
    kind: PlannerKind = PlannerKind.GAP_ACCEPTANCE
    caution: float = 1.0
    reaction_time: float = 0.5

    def __post_init__(self) -> None:
        if self.caution <= 0:
            raise ValueError("caution must be > 0")
        if not self.reaction_time >= 0:
            raise ValueError("reaction_time must be >= 0")

    @property
    def effective_caution(self) -> float:
        return self.caution * _KIND_CAUTION[self.kind]


def required_gap(ego_speed: float, crossing_distance: float,
                 cfg: PlannerConfig) -> float:
    """Seconds of clearance demanded before committing past a crossing."""
    if crossing_distance < 0:
        raise ValueError("crossing_distance must be >= 0")
    return (cfg.effective_caution * crossing_distance / max(ego_speed, 1.0)
            + cfg.reaction_time)


@dataclass(frozen=True)
class Conflict:
    object_id: int
    time_gap: float          # s until the object reaches the crossing point
    crossing_distance: float  # m of ego route to the crossing point


def find_conflicts(perceived: PerceivedState, route: geometry.Route,
                   ego_s: float, zone) -> tuple[list[Conflict], Optional[int]]:
    """Crossing conflicts ahead of the ego, plus any static blocker id.

    The crossing search runs on floats with numpy's operation order
    (``geometry.segment_crossing``), so every crossing point, and so
    every decision, has the bits the numpy 2-vector form gives.
    """
    conflicts: list[Conflict] = []
    blocker: Optional[int] = None
    for obj in perceived.objects:
        vx, vy = obj.velocity
        speed = math.hypot(vx, vy)
        if speed < STATIONARY_SPEED:
            s_obj = route.arc_length_of(obj.position, s_min=ego_s)
            if s_obj is None:
                continue
            ahead = s_obj - ego_s
            lateral = route.lateral_offset(obj.position)
            if 0.0 < ahead <= BLOCK_LOOKAHEAD and \
                    lateral <= max(obj.half_extent) + BLOCK_LATERAL_MARGIN:
                if blocker is None:
                    blocker = obj.id
            continue
        px, py = obj.position
        # The path delta is path_end - position, as the numpy 2-vector
        # form took it; it rounds differently from velocity * horizon.
        sx = (px + vx * CROSSING_HORIZON) - px
        sy = (py + vy * CROSSING_HORIZON) - py
        for ax, ay, rx, ry in route.crossing_segments:
            cross = geometry.segment_crossing(ax, ay, rx, ry, px, py, sx, sy)
            if cross is None or not zone.contains(cross):
                continue
            s_cross = route.arc_length_of(cross, s_min=ego_s)
            if s_cross is None or s_cross <= ego_s:
                continue
            time_gap = math.hypot(cross[0] - px, cross[1] - py) / speed
            conflicts.append(Conflict(object_id=obj.id, time_gap=time_gap,
                                      crossing_distance=s_cross - ego_s))
            break
    return conflicts, blocker


def plan(perceived: PerceivedState, goal: RouteGoal, cfg: PlannerConfig,
         world_geometry: Optional[IntersectionGeometry] = None
         ) -> tuple[Maneuver, str]:
    """Gap-acceptance tactical decision from the perceived state alone."""
    world_geometry = world_geometry or build_intersection()
    zone = world_geometry.conflict_zone
    limit = world_geometry.speed_limit
    route = ego_route_for(goal)
    odom = perceived.ego_odometry
    ego_s = route.arc_length_of(odom.position)
    if ego_s is None:
        return Maneuver.WAIT, "ego off route; waiting"

    conflicts, blocker = find_conflicts(perceived, route, ego_s, zone)
    if blocker is not None:
        return Maneuver.WAIT, f"path blocked by stationary object {blocker}"

    def go() -> tuple[Maneuver, str]:
        if odom.speed < ACCELERATE_BELOW_FRACTION * limit:
            return Maneuver.ACCELERATE, "no conflicts; below cruise speed"
        return Maneuver.PROCEED, "no conflicts"

    if not conflicts:
        return go()

    binding = min(conflicts, key=lambda c: (c.time_gap, c.object_id))
    req = required_gap(odom.speed, binding.crossing_distance, cfg)
    detail = (f"object {binding.object_id}: gap {binding.time_gap:.2f}s, "
              f"required {req:.2f}s at {binding.crossing_distance:.1f}m")
    if binding.time_gap < cfg.reaction_time:
        return Maneuver.WAIT, f"imminent conflict; {detail}"
    if binding.time_gap >= req:
        maneuver, why = go()
        return maneuver, f"{why}; accepted {detail}"
    if binding.time_gap >= 0.5 * req:
        return Maneuver.PROCEED_CAUTIOUSLY, f"tight {detail}"
    return Maneuver.YIELD, f"rejected {detail}"


# --- optional external planner binding -----------------------------------

_MANEUVER_ALIASES = {
    "wait": Maneuver.WAIT,
    "yield": Maneuver.YIELD,
    "proceed_cautiously": Maneuver.PROCEED_CAUTIOUSLY,
    "proceed cautiously": Maneuver.PROCEED_CAUTIOUSLY,
    "proceed": Maneuver.PROCEED,
    "go": Maneuver.PROCEED,
    "accelerate": Maneuver.ACCELERATE,
}


def map_maneuver_text(text: str) -> Optional[Maneuver]:
    return _MANEUVER_ALIASES.get(text.strip().lower())


def perceived_to_request(perceived: PerceivedState) -> dict:
    """Wire request for one tick. Provenance is deliberately not sent."""
    odom = perceived.ego_odometry
    return {
        "tick": perceived.clock.tick,
        "ego": {
            "position": list(odom.position),
            "velocity": list(odom.velocity),
            "heading": float(odom.heading),
        },
        "objects": [
            {
                "id": o.id,
                "kind": o.kind.value,
                "position": list(o.position),
                "velocity": list(o.velocity),
                "half_extent": list(o.half_extent),
            }
            for o in perceived.objects
        ],
        "goal": perceived.goal.value,
    }


def _pump_lines(stream, replies: queue.Queue) -> None:
    """Forward each line the child writes to ``replies``; None at its
    EOF. The pump owns the child's stdout and closes it at the end."""
    try:
        for line in stream:
            replies.put(line)
    except (OSError, ValueError):
        pass
    finally:
        replies.put(None)
        stream.close()


class ExternalPlanner:
    """Line-delimited JSON request/response planner over a subprocess.

    One request line per tick, one ``{"maneuver": ..., "rationale": ...}``
    line back; a reader thread lets ``plan`` keep a deadline. It fails as
    every generator does: a missed deadline (``TimeoutError``, after the
    child is stopped), an exited child (``EOFError``) or a broken pipe
    (``OSError``) raises, so the run fails with a generator ``RolePanic``,
    and every later ``plan`` raises too. An unmapped answer is what the
    child said: a Wait, counted in ``fault_count``. Callers ``close()`` it.
    """

    def __init__(self, command: list[str], timeout: float = 2.0):
        self.timeout = timeout
        self.fault_count = 0
        self._proc: Optional[subprocess.Popen] = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1)
        self._replies: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=_pump_lines, args=(self._proc.stdout, self._replies),
            daemon=True)
        self._reader.start()

    def plan(self, perceived: PerceivedState, goal: RouteGoal) -> tuple[Maneuver, str]:
        if self._proc is None:
            raise RuntimeError("external planner is closed")
        tick = perceived.clock.tick
        try:
            self._proc.stdin.write(
                json.dumps(perceived_to_request(perceived)) + "\n")
            self._proc.stdin.flush()
            line = self._replies.get(timeout=self.timeout)
            if line is None:
                raise EOFError(f"external planner exited at tick {tick}")
        except queue.Empty:
            self.close()
            raise TimeoutError(f"external planner missed the {self.timeout} s "
                               f"deadline at tick {tick}") from None
        except (OSError, EOFError):
            self.close()
            raise
        try:
            response = json.loads(line)
            maneuver = map_maneuver_text(str(response.get("maneuver", "")))
            rationale = str(response.get("rationale", ""))
        except (json.JSONDecodeError, AttributeError):
            maneuver, rationale = None, "unparseable planner response"
        if maneuver is None:
            self.fault_count += 1
            return Maneuver.WAIT, f"unmapped maneuver; {rationale}"
        return maneuver, rationale

    def close(self) -> None:
        """Stop the child and wait for its reader; idempotent."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        try:
            proc.stdin.close()
        except OSError:
            pass
        self._reader.join(timeout=1.0)


__all__ = [
    "Conflict",
    "ExternalPlanner",
    "PlannerConfig",
    "PlannerKind",
    "find_conflicts",
    "map_maneuver_text",
    "perceived_to_request",
    "plan",
    "required_gap",
]
