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

from .config import Vec2
from .state import ConflictZone, normalize_heading


@dataclass
class Route:
    """A polyline route addressed by arc length.

    ``pose_at`` is the one arc-length lookup: it gives the position, the
    unit direction and the normalized heading an AgentState stores.
    Positions past the final vertex continue along the last segment
    direction, so agents simply drive out of the scene. ``points`` is a
    tuple of Vec2 and the segment tables are never written after
    construction, so one route can be shared by every run.
    """

    points: tuple[Vec2, ...]  # k >= 2

    def __post_init__(self) -> None:
        self.points = tuple(Vec2((float(x), float(y))) for x, y in self.points)
        if len(self.points) < 2:
            raise ValueError("route needs at least two points")
        # Per segment: (ax, ay, dx, dy, length, cum, heading) for the
        # arc-length lookups and (ax, ay, rx, ry) for segment_crossing.
        # abs(complex()) is libm's hypot, which np.hypot calls and whose
        # bits math.hypot does not always match.
        # normalize_heading is not idempotent (a second pass moves about
        # 1.7% of random headings by one ulp), so the route normalizes
        # once and every AgentState stores the result as it is.
        self._cum, self._segs, self.crossing_segments = [0.0], [], []
        for (ax, ay), (bx, by) in zip(self.points, self.points[1:]):
            rx, ry = bx - ax, by - ay
            length = abs(complex(rx, ry))
            if not length > 0.0:
                raise ValueError("route has a zero-length segment")
            dx, dy = rx / length, ry / length
            self._segs.append((ax, ay, dx, dy, length, self._cum[-1],
                               normalize_heading(math.atan2(dy, dx))))
            self.crossing_segments.append((ax, ay, rx, ry))
            self._cum.append(self._cum[-1] + length)
        self._zone_cache: tuple = (None, None)  # (zone, entry_exit)

    def pose_at(self, s: float) -> tuple[Vec2, tuple[float, float], float]:
        """(position, unit direction, normalized heading) at arc length s."""
        if s <= 0.0:
            i = 0
        elif s >= self._cum[-1]:
            i = len(self._segs) - 1
        else:
            i = bisect_right(self._cum, s) - 1
        ax, ay, dx, dy, _, cum, heading = self._segs[i]
        t = s - cum
        return Vec2((ax + t * dx, ay + t * dy)), (dx, dy), heading

    def _closest(self, i: int, x: float, y: float) -> tuple[float, float]:
        """(arc length, distance) of the point of segment i closest to (x, y)."""
        ax, ay, dx, dy, length, cum, _ = self._segs[i]
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
        # _closest inlined, with the same float operations: this runs on
        # every tick; a point whose arc length is below s_min needs no
        # distance.
        for ax, ay, dx, dy, length, cum, _ in self._segs:
            t = (x - ax) * dx + (y - ay) * dy
            if t < 0.0:
                t = 0.0
            if t > length:
                t = length
            s = cum + t
            if s >= s_min:
                d = math.hypot(x - (ax + t * dx), y - (ay + t * dy))
                if d < best_d:
                    best_s, best_d = s, d
        return best_s

    def lateral_offset(self, p: tuple[float, float]) -> float:
        """Distance from a point to the route polyline."""
        x, y = float(p[0]), float(p[1])
        return min(self._closest(i, x, y)[1] for i in range(len(self._segs)))

    def zone_entry_exit(self, zone: ConflictZone) -> tuple[float, float]:
        """Arc lengths at which the route first enters / last leaves the zone.

        Computed analytically per segment (slab clipping) and cached for
        the last zone asked for, recognised by identity: the simulator
        asks several times a tick, always with the one shared zone.
        """
        cached_zone, cached = self._zone_cache
        if zone is cached_zone:
            return cached
        entry, exit_ = math.inf, -math.inf
        for ax, ay, dx, dy, length, cum, _ in self._segs:
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
        self._zone_cache = (zone, (entry, exit_))
        return entry, exit_


def rect_corners(center, half_extent, heading: float) -> list[tuple[float, float]]:
    """Corners of an oriented rectangle, CCW. half_extent[0] is along heading."""
    c, s = math.cos(heading), math.sin(heading)
    cx, cy = float(center[0]), float(center[1])
    hx, hy = float(half_extent[0]), float(half_extent[1])
    return [(cx + (ux * c - uy * s), cy + (ux * s + uy * c))
            for ux, uy in ((hx, hy), (-hx, hy), (-hx, -hy), (hx, -hy))]


def obb_overlap(corners_a, corners_b) -> Optional[float]:
    """Separating-axis overlap test for two oriented rectangles, each
    given by its four corners in order.

    Returns the minimal penetration depth if they overlap, else None.
    """
    min_depth = math.inf
    for corners in (corners_a, corners_b):
        for i in range(2):  # two unique edge normals per rectangle
            (x0, y0), (x1, y1) = corners[i], corners[i + 1]
            nx, ny = y0 - y1, x1 - x0
            norm = abs(complex(nx, ny))
            nx, ny = nx / norm, ny / norm
            proj_a = [x * nx + y * ny for x, y in corners_a]
            proj_b = [x * nx + y * ny for x, y in corners_b]
            overlap = (min(max(proj_a), max(proj_b))
                       - max(min(proj_a), min(proj_b)))
            if overlap <= 0:
                return None
            min_depth = min(min_depth, overlap)
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
