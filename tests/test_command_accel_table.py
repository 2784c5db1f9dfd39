"""A bit-exact table for ``sim.command_accel``.

Every maneuver is driven at a standstill, below the speed limit and at
or above it, at a distance to the zone entry that is at most 0, in
(0, 0.5], in (0.5, 1] and beyond 1 m, with crossing traffic near and
clear. The expected commands are pinned as ``float.hex``, so a rewrite
of any branch that moves one bit fails here, including branches the
golden runs never reach. The speeds and distances put some commands
inside the clip bounds, where rounding shows.
"""

import pytest

from avguard.config import SimParams
from avguard.sim import SPEED_LIMIT, command_accel
from avguard.state import Maneuver

DISTS = (-1.5, 0.0, 0.3, 0.5, 0.8, 1.0, 1.6, 3.5, 5.0, 7.7, 30.0)

# Short names for the commands that recur; any other value is written
# as its float.hex.
LEGEND = {
    "0": "0x0.0p+0",
    "+3": "0x1.8000000000000p+1",   # a_accel_max
    "-3": "-0x1.8000000000000p+1",  # COMFORT_DECEL
    "-8": "-0x1.0000000000000p+3",  # a_brake_max
}

# "maneuver speed traffic: the command at each of DISTS", or one value
# for every distance.
TABLE = """
wait 0.0 clear: 0
wait 0.0 near: 0
wait 3.9 clear: -3 -3 -3 -3 -8 -8 -0x1.ba7904a7904a6p+2 -3 -3 -3 -3
wait 3.9 near: -3 -3 -3 -3 -8 -8 -0x1.ba7904a7904a6p+2 -3 -3 -3 -3
wait 5.8 clear: -3 -3 -3 -3 -8 -8 -8 -0x1.66d3a06d3a06dp+2 -0x1.de6f8091a2b3cp+1 -3 -3
wait 5.8 near: -3 -3 -3 -3 -8 -8 -8 -0x1.66d3a06d3a06dp+2 -0x1.de6f8091a2b3cp+1 -3 -3
wait 9.85 clear: -3 -3 -3 -3 -8 -8 -8 -8 -8 -0x1.af360b60b60b5p+2 -3
wait 9.85 near: -3 -3 -3 -3 -8 -8 -8 -8 -8 -0x1.af360b60b60b5p+2 -3
wait 10.0 clear: -3 -3 -3 -3 -8 -8 -8 -8 -8 -0x1.bc71c71c71c72p+2 -3
wait 10.0 near: -3 -3 -3 -3 -8 -8 -8 -8 -8 -0x1.bc71c71c71c72p+2 -3
wait 12.5 clear: -3 -3 -3 -3 -8 -8 -8 -8 -8 -8 -3
wait 12.5 near: -3 -3 -3 -3 -8 -8 -8 -8 -8 -8 -3
yield 0.0 clear: +3
yield 0.0 near: +3 +3 0 0 0 0 +3 +3 +3 +3 +3
yield 3.9 clear: 0x1.0000000000004p+0
yield 3.9 near: 0x1.0000000000004p+0 0x1.0000000000004p+0 -3 -3 -3 -3 -3 -0x1.14a6897375bd0p-2 0x1.0000000000004p+0 0x1.0000000000004p+0 0x1.0000000000004p+0
yield 5.8 clear: -3
yield 5.8 near: -3
yield 9.85 clear: -3
yield 9.85 near: -3
yield 10.0 clear: -3
yield 10.0 near: -3
yield 12.5 clear: -3
yield 12.5 near: -3
proceed_cautiously 0.0 clear: +3
proceed_cautiously 0.0 near: +3
proceed_cautiously 3.9 clear: +3
proceed_cautiously 3.9 near: +3
proceed_cautiously 5.8 clear: 0x1.0000000000004p+1
proceed_cautiously 5.8 near: 0x1.0000000000004p+1
proceed_cautiously 9.85 clear: -3
proceed_cautiously 9.85 near: -3
proceed_cautiously 10.0 clear: -3
proceed_cautiously 10.0 near: -3
proceed_cautiously 12.5 clear: -3
proceed_cautiously 12.5 near: -3
proceed 0.0 clear: +3
proceed 0.0 near: +3
proceed 3.9 clear: +3
proceed 3.9 near: +3
proceed 5.8 clear: +3
proceed 5.8 near: +3
proceed 9.85 clear: 0x1.8000000000010p+0
proceed 9.85 near: 0x1.8000000000010p+0
proceed 10.0 clear: 0
proceed 10.0 near: 0
proceed 12.5 clear: -3
proceed 12.5 near: -3
accelerate 0.0 clear: +3
accelerate 0.0 near: +3
accelerate 3.9 clear: +3
accelerate 3.9 near: +3
accelerate 5.8 clear: +3
accelerate 5.8 near: +3
accelerate 9.85 clear: +3
accelerate 9.85 near: +3
accelerate 10.0 clear: 0
accelerate 10.0 near: 0
accelerate 12.5 clear: 0
accelerate 12.5 near: 0
emergency_brake 0.0 clear: 0
emergency_brake 0.0 near: 0
emergency_brake 3.9 clear: -8
emergency_brake 3.9 near: -8
emergency_brake 5.8 clear: -8
emergency_brake 5.8 near: -8
emergency_brake 9.85 clear: -8
emergency_brake 9.85 near: -8
emergency_brake 10.0 clear: -8
emergency_brake 10.0 near: -8
emergency_brake 12.5 clear: -8
emergency_brake 12.5 near: -8
"""


def _rows():
    for line in TABLE.strip().splitlines():
        head, values = line.split(": ")
        maneuver, speed, traffic = head.split()
        values = [LEGEND.get(v, v) for v in values.split()]
        if len(values) == 1:
            values *= len(DISTS)
        yield Maneuver(maneuver), float(speed), traffic == "near", values


ROWS = list(_rows())


def test_table_covers_every_maneuver_speed_and_traffic():
    cases = {(m, speed, near) for m, speed, near, _ in ROWS}
    assert len(cases) == len(ROWS) == len(Maneuver) * 6 * 2
    assert {m for m, _, _ in cases} == set(Maneuver)
    speeds = {speed for _, speed, _ in cases}
    assert 0.0 in speeds
    assert any(0.0 < s < SPEED_LIMIT for s in speeds)
    assert SPEED_LIMIT in speeds and max(speeds) > SPEED_LIMIT
    assert all(len(values) == len(DISTS) for *_, values in ROWS)


@pytest.mark.parametrize(
    "maneuver, speed, near, expected", ROWS,
    ids=[f"{m.value}-{s}-{'near' if n else 'clear'}" for m, s, n, _ in ROWS])
def test_command_accel_bits(maneuver, speed, near, expected):
    params = SimParams()
    got = [command_accel(maneuver, speed, dist, near, SPEED_LIMIT,
                         params).hex() for dist in DISTS]
    assert got == expected
