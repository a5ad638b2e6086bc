"""Small geometric primitives shared across the toolchain.

Coordinates are meters in a right-handed, z-up frame (x forward, y left
at yaw 0). All polygon routines work on simple 2D polygons given as
vertex lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Point3:
    """A point in meters; all coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite coordinate: ({self.x}, {self.y}, {self.z})")

    def distance_to(self, other: "Point3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def round_sig(value: float, digits: int = 9) -> float:
    """Round to a fixed number of significant digits (canonical float form)."""
    if value == 0 or not math.isfinite(value):
        return float(value)
    return float(round(value, digits - 1 - math.floor(math.log10(abs(value)))))


def point_in_polygon(p: tuple[float, float], vertices: list[tuple[float, float]]) -> bool:
    """Ray-casting test; boundary points may land on either side."""
    x, y = p
    inside = False
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            t = (y - y0) / (y1 - y0)
            if x < x0 + t * (x1 - x0):
                inside = not inside
    return inside


def _orient(a: tuple[float, float], b: tuple[float, float], c: tuple[float, float]) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a: tuple[float, float], b: tuple[float, float], p: tuple[float, float]) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(
    a: tuple[float, float],
    b: tuple[float, float],
    c: tuple[float, float],
    d: tuple[float, float],
) -> bool:
    """Proper or endpoint-touching intersection of segments ab and cd."""
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


def polygons_overlap(
    poly_a: list[tuple[float, float]], poly_b: list[tuple[float, float]]
) -> bool:
    """True when two simple polygons share interior or boundary points."""
    na, nb = len(poly_a), len(poly_b)
    for i in range(na):
        for j in range(nb):
            if segments_intersect(
                poly_a[i], poly_a[(i + 1) % na], poly_b[j], poly_b[(j + 1) % nb]
            ):
                return True
    return point_in_polygon(poly_a[0], poly_b) or point_in_polygon(poly_b[0], poly_a)
