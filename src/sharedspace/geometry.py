"""Planar geometry primitives shared across the simulator.

Zones and view cones are boundary inclusive; collinear segment overlap
counts as an intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InvalidSceneError(ValueError):
    """Raised for degenerate or self-intersecting scene geometry."""


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            return Vec2(0.0, 0.0)
        return Vec2(self.x / n, self.y / n)

    def left_normal(self) -> "Vec2":
        return Vec2(-self.y, self.x)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


# Angular guard soaking up one-ulp atan2 noise on boundary fixtures.
# 1e-9 degrees is far below any physically meaningful bearing.
_ANGLE_EPS_DEG = 1e-9

# Zero bands of the boundary rules, scaled by the operands: a cross
# product within _LINE_TOL of zero counts as collinear, and a segment
# parameter within _PARAM_TOL outside [0, 1] still counts as on it.
_LINE_TOL = 1e-9
_PARAM_TOL = 1e-12


def manhattan(a: Vec2, b: Vec2) -> float:
    return abs(a.x - b.x) + abs(a.y - b.y)


def _on_segment(p: Vec2, a: Vec2, b: Vec2) -> bool:
    return _on_segment_xy(p.x, p.y, a.x, a.y, b.x, b.y)


def _on_segment_xy(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> bool:
    """_on_segment on plain floats, in the same operations."""
    # Canonical endpoint order keeps the tolerance band symmetric in (a, b).
    if (bx, by) < (ax, ay):
        ax, ay, bx, by = bx, by, ax, ay
    abx = bx - ax
    aby = by - ay
    apx = px - ax
    apy = py - ay
    # max(1.0, |ab| * max(1.0, |ap|)), without the cost of calling max
    ap = math.hypot(apx, apy)
    scale = math.hypot(abx, aby) * (ap if ap > 1.0 else 1.0)
    if not scale > 1.0:
        scale = 1.0
    if abs(abx * apy - aby * apx) > _LINE_TOL * scale:
        return False
    t = apx * abx + apy * aby
    return -_PARAM_TOL * scale <= t <= abx * abx + aby * aby + _PARAM_TOL * scale


def _orient_sign(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Sign of the turn a->b->c with a scale-relative zero band."""
    if (b.x, b.y) < (a.x, a.y):
        return -_orient_sign(b, a, c)
    v = (b - a).cross(c - a)
    scale = max(1.0, (b - a).norm() * max(1.0, (c - a).norm(), (c - b).norm()))
    if abs(v) <= _LINE_TOL * scale:
        return 0
    return 1 if v > 0.0 else -1


def point_in_zone(p: Vec2, zone: Sequence[Vec2]) -> bool:
    """Even-odd membership test, boundary inclusive."""
    return _even_odd(p, zone, True)


def point_strictly_inside(p: Vec2, zone: Sequence[Vec2]) -> bool:
    """Even-odd membership test, boundary exclusive."""
    return _even_odd(p, zone, False)


def _even_odd(p: Vec2, zone: Sequence[Vec2], on_edge: bool) -> bool:
    """`on_edge` for a point on any edge of the zone, otherwise its
    even-odd parity, in one pass over the edges."""
    if len(zone) < 3:
        raise InvalidSceneError("zone polygon needs at least 3 vertices")
    px, py = p.x, p.y
    inside = False
    # Edge a -> b for every vertex b, a its predecessor: a point on any
    # edge returns at once, whatever the crossings of the other edges say.
    a = zone[-1]
    ax, ay = a.x, a.y
    for b in zone:
        bx, by = b.x, b.y
        if _on_segment_xy(px, py, ax, ay, bx, by):
            return on_edge
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < x_cross:
                inside = not inside
        ax, ay = bx, by
    return inside


def segments_intersect(a1: Vec2, a2: Vec2, b1: Vec2, b2: Vec2) -> bool:
    """True when closed segments a1-a2 and b1-b2 share any point."""
    o1 = _orient_sign(a1, a2, b1)
    o2 = _orient_sign(a1, a2, b2)
    o3 = _orient_sign(b1, b2, a1)
    o4 = _orient_sign(b1, b2, a2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    if o1 == 0 and _on_segment(b1, a1, a2):
        return True
    if o2 == 0 and _on_segment(b2, a1, a2):
        return True
    if o3 == 0 and _on_segment(a1, b1, b2):
        return True
    if o4 == 0 and _on_segment(a2, b1, b2):
        return True
    return False


def bearing_deg(heading: Vec2, offset: Vec2) -> float:
    """Angle from heading to offset in degrees, normalized to [0, 360)."""
    ox, oy = offset.x, offset.y
    if ox * ox + oy * oy == 0.0:
        return 0.0
    hx, hy = heading.x, heading.y
    ang = math.degrees(math.atan2(hx * oy - hy * ox, hx * ox + hy * oy)) % 360.0
    return 0.0 if ang >= 360.0 else ang


def within_cone(heading: Vec2, offset: Vec2, half_angle_deg: float) -> bool:
    """Boundary-inclusive cone test around heading."""
    if half_angle_deg >= 180.0:
        return True
    theta = bearing_deg(heading, offset)
    return (
        theta <= half_angle_deg + _ANGLE_EPS_DEG
        or theta >= 360.0 - half_angle_deg - _ANGLE_EPS_DEG
    )


def nearest_point_on_segment(p: Vec2, a: Vec2, b: Vec2) -> Vec2:
    ab = b - a
    denom = ab.norm_sq()
    if denom == 0.0:
        return a
    t = (p - a).dot(ab) / denom
    t = min(1.0, max(0.0, t))
    return a + ab * t


def nearest_point_on_polygon(p: Vec2, poly: Sequence[Vec2]) -> tuple[Vec2, float]:
    """Closest boundary point of poly to p and its distance."""
    best: Vec2 | None = None
    best_d = math.inf
    n = len(poly)
    for i in range(n):
        q = nearest_point_on_segment(p, poly[i], poly[(i + 1) % n])
        d = p.distance_to(q)
        if d < best_d:
            best = q
            best_d = d
    assert best is not None
    return best, best_d


def polygon_signed_area(poly: Sequence[Vec2]) -> float:
    area = 0.0
    n = len(poly)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        area += a.cross(b)
    return 0.5 * area


def _crossing_params(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> list[float]:
    """Parameters t in [0, 1] along a->b where it meets segment c->d."""
    ab = b - a
    cd = d - c
    denom = ab.cross(cd)
    ac = c - a
    if denom != 0.0:
        t = ac.cross(cd) / denom
        u = ac.cross(ab) / denom
        if -_PARAM_TOL <= t <= 1.0 + _PARAM_TOL and -_PARAM_TOL <= u <= 1.0 + _PARAM_TOL:
            return [min(1.0, max(0.0, t))]
        return []
    # Parallel. Only a collinear overlap yields crossings.
    if ab.cross(ac) != 0.0:
        return []
    denom_sq = ab.norm_sq()
    if denom_sq == 0.0:
        return []
    t0 = (c - a).dot(ab) / denom_sq
    t1 = (d - a).dot(ab) / denom_sq
    lo, hi = min(t0, t1), max(t0, t1)
    lo = max(0.0, lo)
    hi = min(1.0, hi)
    if lo > hi:
        return []
    return [lo, hi]


def segment_clear_of_polygon(a: Vec2, b: Vec2, poly: Sequence[Vec2]) -> bool:
    """True when segment a-b avoids the polygon interior (grazing the
    boundary is allowed)."""
    if a.distance_to(b) == 0.0:
        return not point_strictly_inside(a, poly)
    params = {0.0, 1.0}
    n = len(poly)
    for i in range(n):
        for t in _crossing_params(a, b, poly[i], poly[(i + 1) % n]):
            params.add(t)
    ordered = sorted(params)
    ab = b - a
    for t0, t1 in zip(ordered, ordered[1:]):
        mid = a + ab * ((t0 + t1) / 2.0)
        if point_strictly_inside(mid, poly):
            return False
    return True


# Batched forms of the rules above. They repeat the scalar arithmetic
# operation by operation, so every product, quotient and comparison
# matches bit for bit; only the norms in _on_segment's bands come from
# np.hypot, which may differ from math.hypot in the last bit. A value
# within this relative margin of such a band comes back as unsure, and
# the caller decides it with the scalar rule. Like Python floats, the
# kernels overflow and divide by zero silently (np.errstate).
_BAND_MARGIN = 1e-6


def _on_segment_batch(px, py, ax, ay, bx, by) -> tuple[np.ndarray, np.ndarray]:
    """_on_segment over broadcast arrays: (on, unsure); `on` holds
    where `unsure` is False."""
    swap = (bx < ax) | ((bx == ax) & (by < ay))
    ax, bx = np.where(swap, bx, ax), np.where(swap, ax, bx)
    ay, by = np.where(swap, by, ay), np.where(swap, ay, by)
    abx, aby = bx - ax, by - ay
    apx, apy = px - ax, py - ay
    scale = np.maximum(1.0, np.hypot(abx, aby) * np.maximum(1.0, np.hypot(apx, apy)))
    cross = np.abs(abx * apy - aby * apx)
    band = _LINE_TOL * scale
    t = apx * abx + apy * aby
    tol = _PARAM_TOL * scale
    hi = (abx * abx + aby * aby) + tol
    lo_slack = _BAND_MARGIN * tol
    # hi also rounds, possibly to the float next to the scalar one
    hi_slack = lo_slack + 1e-15 * hi
    on = (cross < band * (1.0 - _BAND_MARGIN)) & (t > -tol + lo_slack) & (t < hi - hi_slack)
    off = (cross > band * (1.0 + _BAND_MARGIN)) | (t < -tol - lo_slack) | (t > hi + hi_slack)
    return on, ~(on | off)


@np.errstate(all="ignore")
def points_strictly_inside(px: np.ndarray, py: np.ndarray, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """point_strictly_inside for points (px, py) of shape (P, m) against
    polygons verts of shape (P, n, 2), row by row: (inside, unsure).
    `inside` is exact where `unsure` is False."""
    ax, ay = verts[:, None, :, 0], verts[:, None, :, 1]
    nxt = np.roll(verts, -1, axis=1)
    bx, by = nxt[:, None, :, 0], nxt[:, None, :, 1]
    x, y = px[..., None], py[..., None]
    on, unsure = _on_segment_batch(x, y, ax, ay, bx, by)
    on_edge = on.any(axis=-1)
    x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
    odd = ((((ay > y) != (by > y)) & (x < x_cross)).sum(axis=-1) % 2).astype(bool)
    return odd & ~on_edge, unsure.any(axis=-1) & ~on_edge


@np.errstate(all="ignore")
def segments_clear_of_polygons(a: np.ndarray, b: np.ndarray, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """segment_clear_of_polygon for segments a-b (each of shape (P, 2))
    against polygons verts of shape (P, n, 2), row by row: (clear,
    unsure). `clear` is exact where `unsure` is False. A zero-length
    segment gets parameters {0, 1} alone, so its one midpoint is `a`,
    as in the scalar rule."""
    ax, ay = a[:, :1], a[:, 1:]
    abx, aby = b[:, :1] - ax, b[:, 1:] - ay
    cx, cy = verts[..., 0], verts[..., 1]
    dx, dy = np.roll(cx, -1, axis=1), np.roll(cy, -1, axis=1)
    cdx, cdy = dx - cx, dy - cy
    acx, acy = cx - ax, cy - ay
    denom = abx * cdy - aby * cdx
    denom_sq = abx * abx + aby * aby
    # _crossing_params, proper crossing
    t = (acx * cdy - acy * cdx) / denom
    u = (acx * aby - acy * abx) / denom
    crossing = (
        (denom != 0.0) & (-_PARAM_TOL <= t) & (t <= 1.0 + _PARAM_TOL)
        & (-_PARAM_TOL <= u) & (u <= 1.0 + _PARAM_TOL)
    )
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    # _crossing_params, collinear overlap
    t0 = (acx * abx + acy * aby) / denom_sq
    t1 = ((dx - ax) * abx + (dy - ay) * aby) / denom_sq
    lo, hi = np.where(t1 < t0, t1, t0), np.where(t1 > t0, t1, t0)
    lo, hi = np.where(lo > 0.0, lo, 0.0), np.where(hi < 1.0, hi, 1.0)
    overlap = (denom == 0.0) & (abx * acy - aby * acx == 0.0) & (lo <= hi)
    ends = np.broadcast_to([0.0, 1.0], (len(a), 2))
    params = np.concatenate(
        [ends, np.where(crossing, t, np.where(overlap, lo, np.nan)), np.where(overlap, hi, np.nan)], axis=1
    )
    # sorted set of parameters: NaN marks a missing one and sorts last
    params.sort(axis=1)
    params[:, 1:][params[:, 1:] == params[:, :-1]] = np.nan
    params.sort(axis=1)
    params = params[:, : int((~np.isnan(params)).sum(axis=1).max())]
    t0, t1 = params[:, :-1], params[:, 1:]
    valid = ~np.isnan(t1)
    s = np.where(valid, (t0 + t1) / 2.0, 0.0)
    inside, unsure = points_strictly_inside(ax + abx * s, ay + aby * s, verts)
    blocked = (inside & ~unsure & valid).any(axis=1)
    unsure = ~blocked & (unsure & valid).any(axis=1)
    return ~blocked & ~unsure, unsure


# Screening of conflict recognition's pairs: a numpy pass that drops
# the pairs the scalar gates surely reject and keeps every other pair
# for them to decide. numpy's hypot, arctan2 and degrees may differ from
# math's in the last bits, so the screen tests `not value > limit`,
# which keeps NaN, against the gate's bound widened by _BAND_MARGIN of
# its scale, and at least by _BAND_MARGIN.


def widened(bound):
    """bound plus _BAND_MARGIN times max(1, |bound|), for a float or an
    array of them."""
    return bound + _BAND_MARGIN * np.maximum(1.0, np.abs(bound))


def cone_limit(half_angle_deg: float) -> float:
    """The screen's limit on abs_bearings_deg for within_cone: beyond
    it the rule surely fails. Its margin is relative to the full turn,
    which bearing_deg rounds its angle into."""
    if half_angle_deg >= 180.0:
        return math.inf
    return half_angle_deg + _ANGLE_EPS_DEG + 360.0 * _BAND_MARGIN


def abs_bearings_deg(cross, dot, norm_sq) -> np.ndarray:
    """bearing_deg from the cross and dot products of heading and offset
    and the offset's squared norm, broadcast and folded onto [0, 180]:
    the angle either way round, 0 where the squared norm is 0, as there."""
    ang = np.abs(np.degrees(np.arctan2(cross, dot)))
    return np.where(norm_sq == 0.0, 0.0, ang)


def _validate_simple_polygon(poly: Sequence[Vec2], label: str) -> None:
    n = len(poly)
    if n < 3:
        raise InvalidSceneError(f"{label}: polygon needs at least 3 vertices")
    for v in poly:
        if not v.is_finite():
            raise InvalidSceneError(f"{label}: non-finite vertex")
    if abs(polygon_signed_area(poly)) == 0.0:
        raise InvalidSceneError(f"{label}: zero-area polygon")
    for i in range(n):
        a1, a2 = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            # Adjacent edges legitimately share an endpoint.
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segments_intersect(a1, a2, poly[j], poly[(j + 1) % n]):
                raise InvalidSceneError(f"{label}: self-intersecting polygon")
