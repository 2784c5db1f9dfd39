"""2D geometry: route polylines, oriented-rectangle overlap, crossings.

Routes are piecewise-linear; agents are addressed by arc length along
their route. Rectangle overlap uses the separating-axis test and returns
the minimal penetration depth, which the simulator logs as overlap_depth.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .state import ConflictZone, Vec2, hypot2, normalize_heading


@dataclass
class Route:
    """A polyline route addressed by arc length.

    Positions past the final vertex continue along the last segment
    direction, so agents simply drive out of the scene. A route's arrays
    are read-only, so one route can be shared by every run.
    """

    points: np.ndarray  # (k, 2), k >= 2

    def __post_init__(self) -> None:
        self.points = np.array(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] < 2:
            raise ValueError("route needs at least two points")
        deltas = np.diff(self.points, axis=0)
        seg_lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        if np.any(seg_lengths <= 0):
            raise ValueError("route has a zero-length segment")
        self._seg_lengths = seg_lengths
        # Segment lookup runs several times per agent per tick; a list
        # searched with bisect is much cheaper than np.searchsorted on a
        # scalar and finds the same segment.
        self._cum = np.concatenate([[0.0], np.cumsum(seg_lengths)]).tolist()
        self._dirs = deltas / seg_lengths[:, None]
        self._headings = [float(np.arctan2(d[1], d[0])) for d in self._dirs]
        # normalize_heading is not idempotent (a second pass moves about
        # 1.7% of random headings by one ulp), so pose_at hands out the
        # heading an AgentState would store and heading_at the raw one.
        self._pose_headings = [normalize_heading(h) for h in self._headings]
        # Per segment (ax, ay, dx, dy, length, cum) as floats.
        self._segs = [
            (ax, ay, dx, dy, length, cum)
            for (ax, ay), (dx, dy), length, cum in zip(
                self.points[:-1].tolist(), self._dirs.tolist(),
                seg_lengths.tolist(), self._cum)
        ]
        # Per segment (ax, ay, rx, ry): start point and raw delta as
        # floats, the inputs of segment_crossing.
        self.crossing_segments = [
            (ax, ay, rx, ry) for (ax, ay), (rx, ry) in zip(
                self.points[:-1].tolist(), deltas.tolist())
        ]
        for array in (self.points, self._seg_lengths, self._dirs):
            array.setflags(write=False)
        self._zone_cache: dict[tuple, tuple[float, float]] = {}

    @property
    def length(self) -> float:
        return self._cum[-1]

    def _segment_index(self, s: float) -> int:
        if s <= 0.0:
            return 0
        if s >= self._cum[-1]:
            return len(self._segs) - 1
        return bisect_right(self._cum, s) - 1

    def pose_at(self, s: float) -> tuple[Vec2, tuple[float, float], float]:
        """(position, unit direction, heading) at arc length s.

        The heading is ``normalize_heading(heading_at(s))``, the value
        AgentState stores.
        """
        i = self._segment_index(s)
        ax, ay, dx, dy, _, cum = self._segs[i]
        t = s - cum
        return Vec2((ax + t * dx, ay + t * dy)), (dx, dy), self._pose_headings[i]

    def position_at(self, s: float) -> Vec2:
        return self.pose_at(s)[0]

    def direction_at(self, s: float) -> tuple[float, float]:
        return self.pose_at(s)[1]

    def heading_at(self, s: float) -> float:
        return self._headings[self._segment_index(s)]

    def _closest(self, i: int, x: float, y: float) -> tuple[float, float]:
        """(arc length, distance) of the point of segment i closest to (x, y)."""
        ax, ay, dx, dy, length, cum = self._segs[i]
        t = min(max((x - ax) * dx + (y - ay) * dy, 0.0), length)
        return cum + t, hypot2(x - (ax + t * dx), y - (ay + t * dy))

    def arc_length_of(self, p: tuple[float, float],
                      s_min: float = 0.0) -> Optional[float]:
        """Arc length of the closest on-route point at or beyond s_min.

        Returns None if the point is farther than 5 m from every segment
        (clearly off this route).
        """
        x, y = float(p[0]), float(p[1])
        best_s, best_d = None, 5.0
        for i in range(len(self._segs)):
            s, d = self._closest(i, x, y)
            if s >= s_min and d < best_d:
                best_s, best_d = s, d
        return best_s

    def lateral_offset(self, p: tuple[float, float]) -> float:
        """Distance from a point to the route polyline."""
        x, y = float(p[0]), float(p[1])
        return min(self._closest(i, x, y)[1] for i in range(len(self._segs)))

    def zone_entry_exit(self, zone: ConflictZone) -> tuple[float, float]:
        """Arc lengths at which the route first enters / last leaves the zone.

        Computed analytically per segment (slab clipping) and cached per
        zone, since the simulator asks every tick.
        """
        key = (zone.x_min, zone.x_max, zone.y_min, zone.y_max)
        cached = self._zone_cache.get(key)
        if cached is not None:
            return cached
        entry, exit_ = np.inf, -np.inf
        for i in range(len(self._seg_lengths)):
            a, d, length = self.points[i], self._dirs[i], self._seg_lengths[i]
            t_min, t_max = 0.0, length
            ok = True
            for axis, (lo, hi) in enumerate(((zone.x_min, zone.x_max),
                                             (zone.y_min, zone.y_max))):
                if abs(d[axis]) < 1e-12:
                    if a[axis] < lo or a[axis] > hi:
                        ok = False
                        break
                else:
                    t0 = (lo - a[axis]) / d[axis]
                    t1 = (hi - a[axis]) / d[axis]
                    if t0 > t1:
                        t0, t1 = t1, t0
                    t_min, t_max = max(t_min, t0), min(t_max, t1)
            if ok and t_min <= t_max:
                entry = min(entry, self._cum[i] + t_min)
                exit_ = max(exit_, self._cum[i] + t_max)
        if not np.isfinite(entry):
            raise ValueError("route never crosses the conflict zone")
        result = (float(entry), float(exit_))
        self._zone_cache[key] = result
        return result


def rect_corners(center: np.ndarray, half_extent: np.ndarray, heading: float) -> np.ndarray:
    """Corners of an oriented rectangle, CCW. half_extent[0] is along heading."""
    c, s = np.cos(heading), np.sin(heading)
    rot = np.array([[c, -s], [s, c]])
    hx, hy = float(half_extent[0]), float(half_extent[1])
    local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
    return np.asarray(center, dtype=float) + local @ rot.T


def obb_overlap(corners_a: np.ndarray, corners_b: np.ndarray) -> Optional[float]:
    """Separating-axis overlap test for two oriented rectangles.

    Returns the minimal penetration depth if they overlap, else None.
    """
    min_depth = np.inf
    for corners in (corners_a, corners_b):
        for i in range(2):  # two unique edge normals per rectangle
            edge = corners[(i + 1) % 4] - corners[i]
            axis = np.array([-edge[1], edge[0]])
            axis = axis / np.hypot(*axis)
            proj_a = corners_a @ axis
            proj_b = corners_b @ axis
            overlap = min(proj_a.max(), proj_b.max()) - max(proj_a.min(), proj_b.min())
            if overlap <= 0:
                return None
            min_depth = min(min_depth, float(overlap))
    return min_depth


def segment_crossing(ax: float, ay: float, rx: float, ry: float,
                     bx: float, by: float, sx: float, sy: float
                     ) -> Optional[tuple[float, float]]:
    """Crossing point of the closed segment from (ax, ay) with delta
    (rx, ry) and the one from (bx, by) with delta (sx, sy), or None.

    It runs the operations of the numpy 2-vector form in the same order,
    each rounded once as numpy rounds it, so a crossing point has that
    form's bits.
    """
    denom = rx * sy - ry * sx
    if abs(denom) < 1e-12:
        return None
    qx = bx - ax
    qy = by - ay
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return ax + t * rx, ay + t * ry
    return None


__all__ = [
    "Route",
    "obb_overlap",
    "rect_corners",
    "segment_crossing",
]
