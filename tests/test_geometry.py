"""Route arc math and oriented-rectangle overlap.

The separating-axis overlap test is validated against an independent
grid-sampling oracle: rectangle A overlaps rectangle B iff some sampled
interior point of one lies inside the other.
"""

import math
import random

import numpy as np
import pytest

from avguard.geometry import Route, obb_overlap, rect_corners
from avguard.state import ConflictZone


def segment_intersection(a0, a1, b0, b1):
    """Intersection point of two closed segments given as numpy 2-vectors,
    or None: the numpy form ``geometry.segment_crossing`` reproduces."""
    r = a1 - a0
    s = b1 - b0
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-12:
        return None
    q = b0 - a0
    t = (q[0] * s[1] - q[1] * s[0]) / denom
    u = (q[0] * r[1] - q[1] * r[0]) / denom
    if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return a0 + t * r
    return None


def route_length(route):
    """A route's arc length, summed segment by segment as Route sums it."""
    total = 0.0
    for (ax, ay), (bx, by) in zip(route.points, route.points[1:]):
        total += abs(complex(bx - ax, by - ay))
    return total


# --- independent grid-sampling overlap oracle ------------------------------

def _grid_points(center, half_extent, heading, n=60):
    """n x n sample points strictly inside the rectangle."""
    u = np.linspace(-1, 1, n) * half_extent[0] * (1 - 1e-9)
    v = np.linspace(-1, 1, n) * half_extent[1] * (1 - 1e-9)
    uu, vv = np.meshgrid(u, v)
    c, s = math.cos(heading), math.sin(heading)
    x = center[0] + c * uu - s * vv
    y = center[1] + s * uu + c * vv
    return np.stack([x.ravel(), y.ravel()], axis=1)


def _points_in_rect(points, center, half_extent, heading):
    c, s = math.cos(heading), math.sin(heading)
    d = points - np.asarray(center)
    local_u = c * d[:, 0] + s * d[:, 1]
    local_v = -s * d[:, 0] + c * d[:, 1]
    return (np.abs(local_u) <= half_extent[0]) & (np.abs(local_v) <= half_extent[1])


def grid_overlap_oracle(ca, ha, ta, cb, hb, tb) -> bool:
    pa = _grid_points(ca, ha, ta)
    if bool(np.any(_points_in_rect(pa, cb, hb, tb))):
        return True
    pb = _grid_points(cb, hb, tb)
    return bool(np.any(_points_in_rect(pb, ca, ha, ta)))


class TestObbOverlap:
    def test_separated_axis_aligned(self):
        # Two 4 m x 2 m vehicles, centers 10 m apart.
        a = rect_corners(np.array([0.0, 0.0]), np.array([2.0, 1.0]), 0.0)
        b = rect_corners(np.array([10.0, 0.0]), np.array([2.0, 1.0]), 0.0)
        assert obb_overlap(a, b) is None

    def test_coincident_identical_rectangles(self):
        a = rect_corners(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 0.3)
        depth = obb_overlap(a, a.copy())
        # Maximal overlap: the minimal translation is the smaller full extent.
        assert depth == pytest.approx(2.0)

    def test_rotated_corner_penetration_depth(self):
        # A 45-degree square whose corner penetrates an axis-aligned square
        # by exactly 0.2 m along x; the separating-axis depth must match.
        a = rect_corners(np.array([0.0, 0.0]), np.array([2.0, 2.0]), 0.0)
        cx = 2.0 * math.sqrt(2.0) + 2.0 - 0.2
        b = rect_corners(np.array([cx, 0.0]), np.array([2.0, 2.0]),
                         math.pi / 4)
        depth = obb_overlap(a, b)
        assert depth == pytest.approx(0.2, abs=1e-9)
        assert grid_overlap_oracle((0, 0), (2, 2), 0.0, (cx, 0), (2, 2),
                                   math.pi / 4)

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(50):
            ca = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            cb = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            ha = (rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            hb = (rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            ta, tb = rng.uniform(0, math.tau), rng.uniform(0, math.tau)
            a = rect_corners(np.array(ca), np.array(ha), ta)
            b = rect_corners(np.array(cb), np.array(hb), tb)
            assert obb_overlap(a, b) == obb_overlap(b, a)

    def test_against_grid_oracle_500_random_pairs(self):
        """No boolean disagreement at penetration depths above 1 mm."""
        rng = random.Random(2024)
        checked = 0
        for _ in range(500):
            ca = (rng.uniform(-6, 6), rng.uniform(-6, 6))
            cb = (rng.uniform(-6, 6), rng.uniform(-6, 6))
            ha = (rng.uniform(0.3, 3), rng.uniform(0.3, 3))
            hb = (rng.uniform(0.3, 3), rng.uniform(0.3, 3))
            ta, tb = rng.uniform(0, math.tau), rng.uniform(0, math.tau)
            a = rect_corners(np.array(ca), np.array(ha), ta)
            b = rect_corners(np.array(cb), np.array(hb), tb)
            depth = obb_overlap(a, b)
            if depth is not None and depth > 1e-3:
                assert grid_overlap_oracle(ca, ha, ta, cb, hb, tb), (
                    f"SAT depth {depth} but grid oracle sees no overlap")
                checked += 1
            elif depth is None:
                # Shrink both rectangles by the tolerance: a true overlap
                # deeper than 1 mm would survive the shrink.
                sa = (max(ha[0] - 5e-4, 1e-4), max(ha[1] - 5e-4, 1e-4))
                sb = (max(hb[0] - 5e-4, 1e-4), max(hb[1] - 5e-4, 1e-4))
                assert not grid_overlap_oracle(ca, sa, ta, cb, sb, tb), (
                    "SAT reports no overlap but the grid oracle disagrees")
                checked += 1
        assert checked >= 450  # near-touching pairs are rare


class TestSegmentIntersection:
    def test_crossing(self):
        p = segment_intersection(np.array([-1.0, 0.0]), np.array([1.0, 0.0]),
                                 np.array([0.0, -1.0]), np.array([0.0, 1.0]))
        assert p is not None
        assert np.allclose(p, [0.0, 0.0])

    def test_parallel_disjoint(self):
        p = segment_intersection(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                 np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert p is None

    def test_non_crossing(self):
        p = segment_intersection(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                 np.array([2.0, -1.0]), np.array([2.0, 1.0]))
        assert p is None


class TestRoute:
    def test_arc_positions_on_polyline(self):
        route = Route(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 5.0]]))
        assert route_length(route) == pytest.approx(15.0)
        assert np.allclose(route.pose_at(3.0)[0], [3.0, 0.0])
        assert np.allclose(route.pose_at(12.0)[0], [10.0, 2.0])
        assert route.pose_at(12.0)[2] == pytest.approx(math.pi / 2)

    def test_arc_length_of_inverts_pose_at(self):
        route = Route(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 5.0]]))
        for s in (0.0, 2.5, 9.99, 10.0, 14.0):
            assert route.arc_length_of(route.pose_at(s)[0]) == pytest.approx(s)

    def test_arc_length_of_rejects_far_points(self):
        route = Route(np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert route.arc_length_of(np.array([5.0, 30.0])) is None

    def test_zone_entry_exit_straight_crossing(self):
        route = Route(np.array([[0.0, -50.0], [0.0, 50.0]]))
        zone = ConflictZone(-10, 10, -10, 10)
        s_entry, s_exit = route.zone_entry_exit(zone)
        assert s_entry == pytest.approx(40.0)
        assert s_exit == pytest.approx(60.0)

    def test_zone_entry_exit_cached(self):
        route = Route(np.array([[0.0, -50.0], [0.0, 50.0]]))
        zone = ConflictZone(-10, 10, -10, 10)
        assert route.zone_entry_exit(zone) == route.zone_entry_exit(zone)

    def test_pose_matches_searchsorted_reference_bit_for_bit(self):
        points = np.array([[2.5, -200.0], [2.5, 2.5], [-200.0, 2.5],
                           [-200.0, 40.0]])
        route = Route(points)
        deltas = np.diff(points, axis=0)
        lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        dirs = deltas / lengths[:, None]

        def reference(s):
            if s <= 0.0:
                i = 0
            elif s >= cum[-1]:
                i = len(lengths) - 1
            else:
                i = int(np.searchsorted(cum, s, side="right") - 1)
            return (points[i] + (s - cum[i]) * dirs[i], dirs[i],
                    float(np.arctan2(dirs[i][1], dirs[i][0])))

        rng = random.Random(8)
        samples = [-3.0, 0.0, *cum.tolist(), cum[-1] + 7.0,
                   *(np.nextafter(c, np.inf) for c in cum),
                   *(np.nextafter(c, -np.inf) for c in cum),
                   *(rng.uniform(-10.0, cum[-1] + 10.0) for _ in range(2000))]
        for s in samples:
            position, direction, heading = route.pose_at(s)
            ref_position, ref_direction, ref_heading = reference(s)
            assert position == tuple(ref_position.tolist())
            assert direction == tuple(ref_direction.tolist())
            assert heading == ref_heading

    def test_route_copies_and_freezes_its_points(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0]])
        route = Route(points)
        points[1, 0] = 20.0  # the caller's array stays writable
        assert route_length(route) == 10.0
        assert route.points == ((0.0, 0.0), (10.0, 0.0))
        with pytest.raises(TypeError):
            route.points[1][0] = 20.0
