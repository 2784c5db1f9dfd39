"""Built-in 2D kinematic four-way unsignalized intersection.

Replaces an external driving simulator with route-following rigid-body
kinematics: the ego tracks its route polyline under piecewise-constant
acceleration, background agents follow scripted constant-speed profiles,
and collisions are oriented-rectangle overlaps. Perception is an object
list built from ground truth, corrupted only by active fault directives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from . import geometry
from .config import APPROACH_REACH, VEHICLE_HALF_EXTENT, RouteGoal, \
    ScenarioBase, SimParams, Vec2
from .state import ACCELERATE, EMERGENCY_BRAKE, GHOST, GHOST_OBSTACLE, \
    PROCEED_CAUTIOUSLY, REAL, SPOOFED, TRAJECTORY_SPOOF, VEHICLE, WAIT, YIELD
from .state import (
    EGO_ID,
    AgentKind,
    AgentState,
    CollisionEvent,
    ConflictZone,
    EgoOdometry,
    GroundTruthWorld,
    IntersectionGeometry,
    Maneuver,
    PerceivedObject,
    PerceivedState,
    SimClock,
)
from .seeding import stream_for

if TYPE_CHECKING:
    from .attacks import FaultDirective

# Intersection layout (meters). The conflict zone is centered on the
# origin; each approach lane runs on the right-hand side of its road,
# out to APPROACH_REACH.
ZONE_HALF = 10.0
LANE_OFFSET = 2.5
SPEED_LIMIT = 10.0

PEDESTRIAN_HALF_EXTENT = Vec2((0.3, 0.3))

EGO_START_BEFORE_ENTRY = 40.0
EGO_INITIAL_SPEED = 8.0

COMFORT_DECEL = 3.0       # m/s^2, used by Wait / Yield stop profiles
YIELD_ENVELOPE = 60.0     # m from the conflict zone
YIELD_SPEED_FRACTION = 0.4
CAUTIOUS_SPEED_FRACTION = 0.6

GHOST_ID_BASE = 9000
GHOST_OFFSET_BEFORE_ENTRY = 8.0


@dataclass
class AgentScript:
    """Constant-speed profile along a route; s(t) = s0 + speed * t."""

    route: geometry.Route
    s0: float
    speed: float
    kind: AgentKind = AgentKind.VEHICLE

    def arc_length_at(self, sim_time: float) -> float:
        return self.s0 + self.speed * sim_time


# The layout and its routes never change, so they are built once and
# shared. Route points are tuples, and each route keeps the
# zone_entry_exit of the one shared zone for the life of the process.
_APPROACH_ROUTES = {
    "S": geometry.Route([[LANE_OFFSET, -APPROACH_REACH], [LANE_OFFSET, APPROACH_REACH]]),
    "N": geometry.Route([[-LANE_OFFSET, APPROACH_REACH], [-LANE_OFFSET, -APPROACH_REACH]]),
    "E": geometry.Route([[APPROACH_REACH, LANE_OFFSET], [-APPROACH_REACH, LANE_OFFSET]]),
    "W": geometry.Route([[-APPROACH_REACH, -LANE_OFFSET], [APPROACH_REACH, -LANE_OFFSET]]),
}

_INTERSECTION = IntersectionGeometry(
    conflict_zone=ConflictZone(-ZONE_HALF, ZONE_HALF, -ZONE_HALF, ZONE_HALF),
    speed_limit=SPEED_LIMIT,
)

# Ego routes all enter from the south approach.
_EGO_START = [LANE_OFFSET, -APPROACH_REACH]
_EGO_ROUTES = {
    RouteGoal.STRAIGHT: geometry.Route(
        [_EGO_START, [LANE_OFFSET, APPROACH_REACH]]),
    RouteGoal.RIGHT_TURN: geometry.Route(
        [_EGO_START, [LANE_OFFSET, -LANE_OFFSET], [APPROACH_REACH, -LANE_OFFSET]]),
    # Left turn to the westbound exit.
    RouteGoal.LEFT_TURN: geometry.Route(
        [_EGO_START, [LANE_OFFSET, LANE_OFFSET], [-APPROACH_REACH, LANE_OFFSET]]),
}


def build_intersection() -> IntersectionGeometry:
    """The shared intersection layout."""
    return _INTERSECTION


def ego_route_for(goal: RouteGoal) -> geometry.Route:
    """The shared ego route for a goal, entering from the south approach."""
    return _EGO_ROUTES[goal]


def approach_route(approach: str) -> geometry.Route:
    """The shared route along one approach lane ("N", "S", "E" or "W")."""
    return _APPROACH_ROUTES[approach]


def distance_to_entry(route: geometry.Route, s: float,
                      zone: ConflictZone) -> float:
    """Signed arc-length distance from s to the route's zone entry."""
    s_entry, _ = route.zone_entry_exit(zone)
    return s_entry - s


# The maneuvers that read dist_to_entry, and crossing_traffic_near; callers
# pass 0.0 or False to the rest. ``in`` tests ==, so "yield" is Yield too.
READS_DIST_TO_ENTRY, READS_TRAFFIC_NEAR = (WAIT, YIELD), (YIELD,)


def command_accel(maneuver: Maneuver, speed: float, dist_to_entry: float,
                  crossing_traffic_near: bool, speed_limit: float,
                  params: SimParams) -> float:
    """Longitudinal acceleration implementing a maneuver.

    ``dist_to_entry`` is the remaining arc length to the conflict-zone
    entry line (negative once past it), read only for Wait and Yield;
    ``crossing_traffic_near`` feeds the yield envelope, read only for
    Yield (``READS_DIST_TO_ENTRY``, ``READS_TRAFFIC_NEAR``).
    """

    if maneuver == EMERGENCY_BRAKE:
        accel = -params.a_brake_max if speed > 0.0 else 0.0
    elif maneuver == WAIT:
        # Stop before the entry line.
        if speed <= 0.0:
            accel = 0.0
        else:
            needed = (speed * speed / (2.0 * max(dist_to_entry - 0.5, 0.1))
                      if dist_to_entry > 0.5 else COMFORT_DECEL)
            accel = -min(params.a_brake_max, max(COMFORT_DECEL, needed))
    elif maneuver == ACCELERATE:
        accel = params.a_accel_max if speed < speed_limit else 0.0
    else:
        # Yield, proceed cautiously and proceed track a target speed.
        if maneuver == YIELD:
            target = YIELD_SPEED_FRACTION * speed_limit
            if crossing_traffic_near and dist_to_entry > 0.0:
                # Creep toward the line, never faster than what still
                # allows a comfortable stop one meter short of it.
                allowed = math.sqrt(2.0 * COMFORT_DECEL
                                    * max(dist_to_entry - 1.0, 0.0))
                target = min(target, allowed)
        elif maneuver == PROCEED_CAUTIOUSLY:
            target = CAUTIOUS_SPEED_FRACTION * speed_limit
        else:
            target = speed_limit
        accel = min(max((target - speed) / params.dt, -COMFORT_DECEL),
                    params.a_accel_max)
    return float(min(max(accel, -params.a_brake_max), params.a_accel_max))


def crossing_traffic_within_envelope(
        others: Iterable[AgentState | PerceivedObject],
        zone: ConflictZone) -> bool:
    """Yield envelope: any moving agent or perceived object inside or
    closing on the zone, at ``zone.distance_to`` of its position."""
    x_min, x_max, y_min, y_max = zone.x_min, zone.x_max, zone.y_min, zone.y_max
    cx, cy = (x_min + x_max) / 2, (y_min + y_max) / 2
    for other in others:
        (x, y), (vx, vy) = other.position, other.velocity
        d = math.hypot(max(x_min - x, 0.0, x - x_max),
                       max(y_min - y, 0.0, y - y_max))
        if d > YIELD_ENVELOPE:
            continue
        if d == 0.0:
            return True
        if math.hypot(vx, vy) > 0.5 and vx * (cx - x) + vy * (cy - y) > 0.0:
            return True
    return False


def maneuver_to_command(maneuver: Maneuver, ego: AgentState,
                        world: GroundTruthWorld, params: SimParams) -> float:
    """The ego's commanded acceleration for a maneuver: m/s^2, signed,
    along its route."""
    zone = world.intersection.conflict_zone
    dist = (distance_to_entry(world.ego_route, world.ego_s, zone)
            if maneuver in READS_DIST_TO_ENTRY else 0.0)
    near = (maneuver in READS_TRAFFIC_NEAR
            and crossing_traffic_within_envelope(world.agents, zone))
    return command_accel(maneuver, ego.speed, dist, near,
                         world.intersection.speed_limit, params)


def advance_arc(speed: float, accel: float, dt: float) -> tuple[float, float]:
    """One step of clamped piecewise-constant-acceleration kinematics.

    Returns (arc advance, new speed); speed never goes negative, and a
    braking step that stops mid-interval advances exactly v^2 / (2|a|).
    """
    if accel < 0.0 and speed + accel * dt < 0.0:
        return speed * speed / (2.0 * -accel), 0.0
    return speed * dt + 0.5 * accel * dt * dt, speed + accel * dt


def detect_collision(world: GroundTruthWorld) -> Optional[CollisionEvent]:
    """Ego-vs-agent oriented-rectangle overlap with the lowest agent id.

    One pass in any agent order: once an agent hits, agents with a
    higher id are skipped. Broad phase: a rectangle lies inside the disc
    of radius hypot(*half_extent) around its centre, so an agent whose
    centre is farther from the ego's than the two radii together cannot
    overlap and skips the separating-axis test. The 1e-6 m slack covers
    rounding in the corner coordinates.
    """
    ego = world.ego
    ego_x, ego_y = ego.position
    ego_radius = math.hypot(*ego.half_extent)
    ego_corners = None
    hit = None
    for agent in world.agents:
        if hit is not None and agent.id > hit.agent_b:
            continue
        reach = ego_radius + math.hypot(*agent.half_extent) + 1e-6
        x, y = agent.position
        dx = x - ego_x
        dy = y - ego_y
        if dx * dx + dy * dy > reach * reach:
            continue
        if ego_corners is None:
            ego_corners = geometry.rect_corners(ego.position, ego.half_extent,
                                                ego.heading)
        corners = geometry.rect_corners(agent.position, agent.half_extent,
                                        agent.heading)
        depth = geometry.obb_overlap(ego_corners, corners)
        if depth is not None:
            hit = CollisionEvent(tick=world.clock.tick, agent_a=ego.id,
                                 agent_b=agent.id, overlap_depth=depth)
    return hit


_ZERO = Vec2((0.0, 0.0))


def _on_route(id: int, kind: AgentKind, route: geometry.Route, s: float,
              speed: float, half_extent: Vec2) -> AgentState:
    """An agent at arc length s moving along its route at ``speed``.

    Position, direction and normalized heading come from the route.
    """
    position, (dx, dy), heading = route.pose_at(s)
    return AgentState(id, kind, position, Vec2((speed * dx, speed * dy)),
                      heading, half_extent)


def step_dynamics(world: GroundTruthWorld, accel: float) -> GroundTruthWorld:
    """Advance the world one dt under the ego's commanded acceleration
    (m/s^2, along its route). Pure: returns a copy."""
    if world.collision is not None:
        raise ValueError("cannot step a collided world")
    old_ego = world.ego
    advance, new_speed = advance_arc(old_ego.speed, accel, world.clock.dt)
    new_s = world.ego_s + advance
    route = world.ego_route
    ego = _on_route(old_ego.id, old_ego.kind, route, new_s, new_speed,
                    old_ego.half_extent)
    new_clock = world.clock.advanced()
    sim_time = new_clock.sim_time
    agents = []
    for old in world.agents:
        script = world.agent_scripts[old.id]
        agents.append(_on_route(old.id, old.kind, script.route,
                                script.arc_length_at(sim_time), script.speed,
                                old.half_extent))
    new_world = GroundTruthWorld(new_clock, ego, agents, world.intersection,
                                 None, route, new_s, world.ego_goal,
                                 world.agent_scripts, world.clear_streak)
    new_world.collision = detect_collision(new_world)
    return new_world


def _rotate(x: float, y: float, theta: float) -> tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    return c * x - s * y, s * x + c * y


def build_perceived_state(world: GroundTruthWorld,
                          active_faults: list[FaultDirective],
                          params: SimParams,
                          stream: Optional[random.Random] = None) -> PerceivedState:
    """Object-list perception: ground truth in range, plus fault effects.

    Spoof directives rescale/rotate a real object's perceived velocity (a
    zero heading bias only rescales, with no sin/cos call); a ghost
    directive appends a stationary vehicle, id ``GHOST_ID_BASE``, with no
    ground-truth counterpart. A spoof whose target is not currently
    perceived is logged and skipped for the tick. Ground truth is never
    modified.
    """
    ego = world.ego
    ego_x, ego_y = ego.position
    objects: list[PerceivedObject] = []
    for agent in world.agents:
        x, y = agent.position
        if math.hypot(x - ego_x, y - ego_y) > params.sensing_range:
            continue
        objects.append(PerceivedObject(agent.id, agent.kind, agent.position,
                                       agent.velocity, agent.half_extent, REAL))

    for directive in active_faults:
        attack = directive.attack
        if attack.kind == TRAJECTORY_SPOOF:
            target = directive.spoof_target
            spoofed = False
            for obj in objects:
                if obj.id == target:
                    vx, vy = obj.velocity
                    scale = attack.velocity_scale
                    vx, vy = vx * scale, vy * scale
                    if attack.heading_bias != 0.0:
                        vx, vy = _rotate(vx, vy, attack.heading_bias)
                    obj.velocity = Vec2((vx, vy))
                    obj.provenance = SPOOFED
                    spoofed = True
            if not spoofed:
                import logging  # only a skipped spoof logs

                logging.getLogger(__name__).warning(
                    "spoof target %s not perceived at tick %d; skipped",
                    target, world.clock.tick)
        elif attack.kind == GHOST_OBSTACLE:
            objects.append(PerceivedObject(
                GHOST_ID_BASE, VEHICLE, directive.ghost_position, _ZERO,
                VEHICLE_HALF_EXTENT, GHOST))

    if params.perception_noise_std > 0.0 and stream is not None:
        for obj in objects:
            x, y = obj.position
            x += stream.gauss(0.0, params.perception_noise_std)
            y += stream.gauss(0.0, params.perception_noise_std)
            obj.position = Vec2((x, y))

    return PerceivedState(world.clock,
                          EgoOdometry(ego.position, ego.velocity, ego.heading),
                          objects, world.ego_goal)


def _vehicle_script(approach: str, arrival_time: float, speed: float,
                    zone: ConflictZone) -> AgentScript:
    route = approach_route(approach)
    s_entry, _ = route.zone_entry_exit(zone)
    return AgentScript(route=route, s0=s_entry - speed * arrival_time, speed=speed)


def _spawn_traffic(base: ScenarioBase, stream: random.Random,
                   zone: ConflictZone) -> list[AgentScript]:
    """Seed-jittered scripted traffic for a scenario base."""
    scripts: list[AgentScript] = []
    if base == ScenarioBase.NOMINAL:
        n = stream.randint(1, 2)
        for i in range(n):
            arrival = 12.0 + 4.0 * i + stream.uniform(-2.0, 2.0)
            speed = SPEED_LIMIT * (1.0 + stream.uniform(-0.2, 0.2))
            approach = stream.choice(["E", "W", "N"])
            scripts.append(_vehicle_script(approach, arrival, speed, zone))
    elif base == ScenarioBase.CONGESTED:
        # Jammed cross traffic: a slow platoon whose headway keeps the
        # next vehicle inside sensing range, so the queue reads as
        # continuous and can stretch past the run's time limit when the
        # ego never commits.
        n = stream.randint(4, 6)
        for i in range(n):
            arrival = 3.0 + 11.0 * i + stream.uniform(-2.0, 2.0)
            speed = 0.3 * SPEED_LIMIT * (1.0 + stream.uniform(-0.2, 0.2))
            approach = stream.choice(["E", "W", "E", "W", "N"])
            scripts.append(_vehicle_script(approach, arrival, speed, zone))
    elif base == ScenarioBase.CONFLICTING_TRAFFIC:
        approaches = ["E", "W"] + (["N"] if stream.random() < 0.5 else ["E"])
        for approach in approaches:
            arrival = 5.0 + stream.uniform(-2.0, 2.0)
            speed = SPEED_LIMIT * (1.0 + stream.uniform(-0.2, 0.2))
            scripts.append(_vehicle_script(approach, arrival, speed, zone))
    else:  # PEDESTRIAN_CROSSING
        arrival = 14.0 + stream.uniform(-2.0, 2.0)
        speed = SPEED_LIMIT * (1.0 + stream.uniform(-0.2, 0.2))
        scripts.append(_vehicle_script(stream.choice(["E", "W", "N"]),
                                       arrival, speed, zone))
        y_c = stream.uniform(-6.0, 6.0)
        walk_speed = stream.uniform(0.9, 1.4)
        t_cross = stream.uniform(4.0, 8.0)
        route = geometry.Route([[12.0, y_c], [-30.0, y_c]])
        s_cross = 12.0 - LANE_OFFSET  # arc length where the walk crosses the ego lane
        scripts.append(AgentScript(route=route,
                                   s0=s_cross - walk_speed * t_cross,
                                   speed=walk_speed,
                                   kind=AgentKind.PEDESTRIAN))
    return scripts


def spawn_world(base: ScenarioBase, goal: RouteGoal, seed: int,
                params: SimParams) -> GroundTruthWorld:
    """Deterministic initial world for (base, goal, seed).

    Attack scenarios reuse their base's traffic: the stream is keyed only
    by (seed, base), so a ghost-attack run sees exactly the nominal
    traffic for the same seed.
    """
    intersection = build_intersection()
    zone = intersection.conflict_zone
    stream = stream_for(seed, "spawn", base.value)
    scripts = _spawn_traffic(base, stream, zone)

    route = ego_route_for(goal)
    s_entry, _ = route.zone_entry_exit(zone)
    ego_s = s_entry - EGO_START_BEFORE_ENTRY
    ego = _on_route(EGO_ID, AgentKind.EGO_VEHICLE, route, ego_s,
                    EGO_INITIAL_SPEED, VEHICLE_HALF_EXTENT)

    agents, agent_scripts = [], {}
    for i, script in enumerate(scripts, start=1):
        half = (PEDESTRIAN_HALF_EXTENT if script.kind == AgentKind.PEDESTRIAN
                else VEHICLE_HALF_EXTENT)
        agents.append(_on_route(i, script.kind, script.route,
                                script.arc_length_at(0.0), script.speed, half))
        agent_scripts[i] = script

    return GroundTruthWorld(
        clock=SimClock(tick=0, dt=params.dt), ego=ego, agents=agents,
        intersection=intersection, collision=None,
        ego_route=route, ego_s=ego_s, ego_goal=goal,
        agent_scripts=agent_scripts,
    )


def default_ghost_position(goal: RouteGoal) -> tuple[float, float]:
    """Ghost template default: on the ego route, 8 m before zone entry."""
    route = ego_route_for(goal)
    zone = build_intersection().conflict_zone
    s_entry, _ = route.zone_entry_exit(zone)
    return tuple(route.pose_at(s_entry - GHOST_OFFSET_BEFORE_ENTRY)[0])


__all__ = [
    "approach_route",
    "build_intersection",
    "build_perceived_state",
    "command_accel",
    "crossing_traffic_within_envelope",
    "default_ghost_position",
    "detect_collision",
    "distance_to_entry",
    "ego_route_for",
    "maneuver_to_command",
    "spawn_world",
    "step_dynamics",
]
