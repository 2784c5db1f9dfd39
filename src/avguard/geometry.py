"""2D geometry: route polylines, oriented-rectangle overlap, crossings.

Routes are piecewise-linear; agents are addressed by arc length along
their route. Rectangle overlap uses the separating-axis test and returns
the minimal penetration depth, which the simulator keeps on its
CollisionEvent as overlap_depth (it is not part of the trace).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .state import ConflictZone, Vec2, normalize_heading


@dataclass
class Route:
    """A polyline route addressed by arc length.

    ``pose_at`` is the one arc-length lookup: it gives the position, the
    unit direction and the normalized heading an AgentState stores.
    Positions past the final vertex continue along the last segment
    direction, so agents simply drive out of the scene. ``points`` is
    read-only and the segment tables are never written after
    construction, so one route can be shared by every run.
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
        # Segment lookup runs several times per agent per tick; a list
        # searched with bisect is much cheaper than np.searchsorted on a
        # scalar and finds the same segment.
        self._cum = np.concatenate([[0.0], np.cumsum(seg_lengths)]).tolist()
        dirs = deltas / seg_lengths[:, None]
        # normalize_heading is not idempotent (a second pass moves about
        # 1.7% of random headings by one ulp), so the route normalizes
        # once and AgentState.trusted stores the result as it is.
        self._headings = [normalize_heading(float(np.arctan2(d[1], d[0])))
                          for d in dirs]
        # Per segment (ax, ay, dx, dy, length, cum) as floats.
        self._segs = [
            (ax, ay, dx, dy, length, cum)
            for (ax, ay), (dx, dy), length, cum in zip(
                self.points[:-1].tolist(), dirs.tolist(),
                seg_lengths.tolist(), self._cum)
        ]
        # Per segment (ax, ay, rx, ry): start point and raw delta as
        # floats, the inputs of segment_crossing.
        self.crossing_segments = [
            (ax, ay, rx, ry) for (ax, ay), (rx, ry) in zip(
                self.points[:-1].tolist(), deltas.tolist())
        ]
        self.points.setflags(write=False)
        self._zone_cache: dict[tuple, tuple[float, float]] = {}

    @property
    def length(self) -> float:
        return self._cum[-1]

    def pose_at(self, s: float) -> tuple[Vec2, tuple[float, float], float]:
        """(position, unit direction, normalized heading) at arc length s."""
        if s <= 0.0:
            i = 0
        elif s >= self._cum[-1]:
            i = len(self._segs) - 1
        else:
            i = bisect_right(self._cum, s) - 1
        ax, ay, dx, dy, _, cum = self._segs[i]
        t = s - cum
        return Vec2((ax + t * dx, ay + t * dy)), (dx, dy), self._headings[i]

    def _closest(self, i: int, x: float, y: float) -> tuple[float, float]:
        """(arc length, distance) of the point of segment i closest to (x, y)."""
        ax, ay, dx, dy, length, cum = self._segs[i]
        t = min(max((x - ax) * dx + (y - ay) * dy, 0.0), length)
        return cum + t, math.hypot(x - (ax + t * dx), y - (ay + t * dy))

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
        entry, exit_ = math.inf, -math.inf
        for ax, ay, dx, dy, length, cum in self._segs:
            t_min, t_max = 0.0, length
            for a, d, lo, hi in ((ax, dx, zone.x_min, zone.x_max),
                                 (ay, dy, zone.y_min, zone.y_max)):
                if abs(d) < 1e-12:
                    if a < lo or a > hi:  # parallel to the slab, outside it
                        t_max = -1.0
                else:
                    t0 = (lo - a) / d
                    t1 = (hi - a) / d
                    if t0 > t1:
                        t0, t1 = t1, t0
                    t_min, t_max = max(t_min, t0), min(t_max, t1)
            if t_min <= t_max:
                entry = min(entry, cum + t_min)
                exit_ = max(exit_, cum + t_max)
        if not math.isfinite(entry):
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
