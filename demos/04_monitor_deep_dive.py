"""Inside the safety monitor: predicted separation, maneuver by maneuver.

The monitor forecasts the ego under the *proposed* maneuver's
acceleration command and every perceived object at constant velocity,
then reports the minimum disc-to-disc separation over a 3-second
horizon. The verdict thresholds scale with closing speed, so the same
geometry can be Safe under one maneuver and Unsafe under another.

This demo builds a single hand-crafted conflict — ego approaching from
the south while a car crosses from the west — and asks the monitor to
grade every maneuver against it, then sweeps the crossing car's
distance to show where each verdict boundary sits.
"""

from dataclasses import replace

from avguard.config import SafetyParams, ScenarioBase, Vec2
from avguard.monitor import safety_check
from avguard.scenario import ScenarioSpec
from avguard.sim import (
    build_intersection,
    build_perceived_state,
    spawn_world,
)
from avguard.state import AgentKind, Maneuver, PerceivedObject

SPEC = ScenarioSpec(id="demo", base=ScenarioBase.NOMINAL)
PARAMS = SafetyParams()
GEOMETRY = build_intersection()


def crossing_scene(car_x):
    """Ego 12.5 m south of the conflict zone; a car at (car_x, 2.5)
    heading east at 5 m/s on a collision course with the ego's lane."""
    world = spawn_world(ScenarioBase.NOMINAL, "straight", seed=0,
                        params=SPEC.sim_params)
    world.agents = []
    world.ego = replace(world.ego, position=Vec2((2.5, -12.5)),
                        velocity=Vec2((0.0, 5.0)))
    perceived = build_perceived_state(world, [], SPEC.sim_params)
    perceived.objects.append(PerceivedObject(
        id=1, kind=AgentKind.VEHICLE, position=Vec2((float(car_x), 2.5)),
        velocity=Vec2((5.0, 0.0)), half_extent=Vec2((2.0, 1.0))))
    return perceived


print("=== one geometry, every maneuver ===")
print("crossing car 10 m west of the ego's lane\n")
print(f"{'maneuver':>20} {'verdict':>8} {'min sep (m)':>12} "
      f"{'at t (s)':>9} {'culprit':>8}")
scene = crossing_scene(car_x=-7.5)
for maneuver in Maneuver:
    verdict = safety_check(scene, maneuver, PARAMS, GEOMETRY,
                           SPEC.sim_params)
    print(f"{maneuver.value:>20} {verdict.level.value:>8} "
          f"{verdict.min_predicted_separation:>12.2f} "
          f"{verdict.time_of_min:>9.2f} "
          f"{str(verdict.offending_object):>8}")

print("\n=== verdict boundaries vs crossing-car distance (Proceed) ===\n")
print(f"{'car x (m)':>10} {'gap to lane (m)':>16} {'verdict':>8} "
      f"{'min sep (m)':>12}")
for car_x in range(-40, 0, 4):
    verdict = safety_check(crossing_scene(car_x), Maneuver.PROCEED,
                           PARAMS, GEOMETRY, SPEC.sim_params)
    print(f"{car_x:>10} {2.5 - car_x:>16.1f} {verdict.level.value:>8} "
          f"{verdict.min_predicted_separation:>12.2f}")

print("\nThe Unsafe band widens with closing speed: the threshold is "
      "d_unsafe + 0.25 * closing_speed, so fast approaches are flagged "
      "farther out than slow ones.")
