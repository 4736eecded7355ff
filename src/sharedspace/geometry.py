"""Planar geometry primitives shared across the simulator.

`Vec2` is the one point and vector type: an immutable, slotted pair of
floats that compares, hashes and pickles by value. Zones and view cones
are boundary inclusive; collinear segment overlap counts as an
intersection. The cone test and the nearest boundary point run on plain
floats (`_within_cone_xy`, `_nearest_on_edges_xy`). `ObstacleIndex` is
the one index of a scene's obstacles, which the scene builds and owns
(`scene.Scene.obstacle_index`), read by the force pass and the planner.
`_validate_simple_polygon` is the polygon rule of `scene.Scene.validate`,
which a scene runs once, when it is built.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from functools import cached_property
from typing import Sequence

import numpy as np


class InvalidSceneError(ValueError):
    """Raised for degenerate or self-intersecting scene geometry."""


class Vec2:
    """An immutable 2-D point or vector of two floats.

    It behaves as a frozen dataclass of fields `x` and `y` would: equal
    to, and hashed as, another Vec2 with equal `(x, y)`, never equal to
    a tuple, with the dataclass `repr`, and assignment or deletion of a
    field raises `FrozenInstanceError`. It is slotted, so it has no
    `__dict__`, and construction stores through the slot descriptors
    rather than `object.__setattr__`, which makes it about twice as
    cheap to build. It pickles, copies and deep-copies by value."""

    __slots__ = ("x", "y")
    __match_args__ = ("x", "y")
    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        _set_x(self, x)
        _set_y(self, y)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[float, float]]:
        return (self.__class__, (self.x, self.y))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(x={self.x!r}, y={self.y!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.x, self.y) == (other.x, other.y)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

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


_set_x = Vec2.x.__set__
_set_y = Vec2.y.__set__


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


def _on_segment_xy(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> bool:
    """True when p lies on segment a-b, within the zero bands."""
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


def _orient_sign_xy(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """Sign of the turn a->b->c with a scale-relative zero band, on
    plain floats. The endpoints are taken in canonical order, so the
    band is the same for a->b and b->a and only the sign flips."""
    if (bx, by) < (ax, ay):
        return -_orient_sign_xy(bx, by, ax, ay, cx, cy)
    abx = bx - ax
    aby = by - ay
    acx = cx - ax
    acy = cy - ay
    v = abx * acy - aby * acx
    # max(1.0, |ab| * max(1.0, |ac|, |bc|)), NaN norms ignored as there
    reach = 1.0
    ac = math.hypot(acx, acy)
    if ac > reach:
        reach = ac
    bc = math.hypot(cx - bx, cy - by)
    if bc > reach:
        reach = bc
    scale = math.hypot(abx, aby) * reach
    if not scale > 1.0:
        scale = 1.0
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
    even-odd parity.

    `point_in_zone` is parity or on-edge, and `point_strictly_inside` is
    parity and not on-edge, so the crossing parity is counted first and
    the on-edge pass runs only when the parity differs from `on_edge`:
    when it agrees, both branches of the rule give the same answer. A
    point inside a zone makes no on-edge test, nor a point outside for
    the strict test; the answer is the same either way. Every zone is a
    scene's polygon, checked when the scene was built."""
    px, py = p.x, p.y
    inside = False
    # Edge a -> b for every vertex b, a its predecessor.
    a = zone[-1]
    ax, ay = a.x, a.y
    for b in zone:
        bx, by = b.x, b.y
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < x_cross:
                inside = not inside
        ax, ay = bx, by
    if inside == on_edge:
        return inside
    a = zone[-1]
    ax, ay = a.x, a.y
    for b in zone:
        bx, by = b.x, b.y
        if _on_segment_xy(px, py, ax, ay, bx, by):
            return on_edge
        ax, ay = bx, by
    return inside


def segments_intersect(a1: Vec2, a2: Vec2, b1: Vec2, b2: Vec2) -> bool:
    """True when closed segments a1-a2 and b1-b2 share any point."""
    ax1, ay1, ax2, ay2 = a1.x, a1.y, a2.x, a2.y
    bx1, by1, bx2, by2 = b1.x, b1.y, b2.x, b2.y
    o1 = _orient_sign_xy(ax1, ay1, ax2, ay2, bx1, by1)
    o2 = _orient_sign_xy(ax1, ay1, ax2, ay2, bx2, by2)
    o3 = _orient_sign_xy(bx1, by1, bx2, by2, ax1, ay1)
    o4 = _orient_sign_xy(bx1, by1, bx2, by2, ax2, ay2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    if o1 == 0 and _on_segment_xy(bx1, by1, ax1, ay1, ax2, ay2):
        return True
    if o2 == 0 and _on_segment_xy(bx2, by2, ax1, ay1, ax2, ay2):
        return True
    if o3 == 0 and _on_segment_xy(ax1, ay1, bx1, by1, bx2, by2):
        return True
    if o4 == 0 and _on_segment_xy(ax2, ay2, bx1, by1, bx2, by2):
        return True
    return False


def bearing_deg(heading: Vec2, offset: Vec2) -> float:
    """Angle from heading to offset in degrees, normalized to [0, 360)."""
    return _bearing_deg_xy(heading.x, heading.y, offset.x, offset.y)


def _bearing_deg_xy(hx: float, hy: float, ox: float, oy: float) -> float:
    """bearing_deg on plain floats."""
    if ox * ox + oy * oy == 0.0:
        return 0.0
    ang = math.degrees(math.atan2(hx * oy - hy * ox, hx * ox + hy * oy)) % 360.0
    return 0.0 if ang >= 360.0 else ang


def _within_cone_xy(hx: float, hy: float, ox: float, oy: float, half_angle_deg: float) -> bool:
    """Boundary-inclusive cone test of the offset (ox, oy) around the
    heading (hx, hy), on plain floats."""
    if half_angle_deg >= 180.0:
        return True
    theta = _bearing_deg_xy(hx, hy, ox, oy)
    return (
        theta <= half_angle_deg + _ANGLE_EPS_DEG
        or theta >= 360.0 - half_angle_deg - _ANGLE_EPS_DEG
    )


_Edge = tuple[float, float, float, float, float]


def _edge_table(poly: Sequence[Vec2]) -> list[_Edge]:
    """Each edge poly[i] -> poly[(i + 1) % n] on plain floats:
    (ax, ay, abx, aby, |ab|^2), with ab = b - a."""
    edges = []
    for a, b in zip(poly, [*poly[1:], poly[0]]):
        abx = b.x - a.x
        aby = b.y - a.y
        edges.append((a.x, a.y, abx, aby, abx * abx + aby * aby))
    return edges


def _nearest_on_edges_xy(px: float, py: float, edges: Sequence[_Edge]) -> tuple[float, float, float, int]:
    """The boundary point of an edge table nearest to p: (qx, qy, d, i),
    with i the first edge at the least distance. On each edge it is the
    point a + ab * t, t clamped to [0, 1], or a itself when the edge has
    zero length."""
    best = None
    best_d = math.inf
    for i, (ax, ay, abx, aby, ab_sq) in enumerate(edges):
        if ab_sq == 0.0:
            qx, qy = ax, ay
        else:
            t = ((px - ax) * abx + (py - ay) * aby) / ab_sq
            # min(1.0, max(0.0, t)), NaN going to 0.0 as there
            t = t if t > 0.0 else 0.0
            t = t if t < 1.0 else 1.0
            qx, qy = ax + abx * t, ay + aby * t
        d = math.hypot(px - qx, py - qy)
        if d < best_d:
            best = (qx, qy, d, i)
            best_d = d
    assert best is not None
    return best


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
# matches bit for bit; only the norms in _on_segment_xy's bands come from
# np.hypot, which may differ from math.hypot in the last bit. A value
# within this relative margin of such a band comes back as unsure, and
# the caller decides it with the scalar rule. Like Python floats, the
# kernels overflow and divide by zero silently (np.errstate).
_BAND_MARGIN = 1e-6


def _on_segment_batch(px, py, ax, ay, bx, by) -> tuple[np.ndarray, np.ndarray]:
    """_on_segment_xy over broadcast arrays: (on, unsure); `on` holds
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


# Padding of each obstacle's box in the visibility screens, relative to
# the largest coordinate in play (and at least this in absolute terms):
# a segment that passes a box closer than that goes to the exact kernels.
_BOX_PAD = 1e-6
# The inside test's reach beyond an obstacle's box, relative to
# max(1 / L_min, 1, E) of the polygon (see ObstacleIndex).
_INSIDE_PAD = 1e-8
# Pairs per kernel call: bounds the kernels' temporary arrays (about
# 0.5 MB at this size for boxes) whatever the scene's size.
_CHUNK = 256


def _xy(points: Sequence[Vec2]) -> np.ndarray:
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


class ObstacleIndex:
    """A scene's obstacle polygons, indexed once for both readers: the
    force pass (`forces.obstacle_repulsion`) and the planner's
    visibility test (`visible`). A scene builds its one index on first
    read (`scene.Scene.obstacle_index`), from polygons its own check
    passed: at least 3 finite vertices each, which the index trusts.

    Per polygon it holds its box, its plain-float edge table
    (`_edge_table`) and, from its
    shortest edge length L_min and largest coordinate magnitude E, the
    box padded by `_INSIDE_PAD * max(1 / L_min, 1, E)` (unbounded when
    an edge has zero length): `reach`. Outside that box `point_in_zone`
    is false, so the force pass tests it only inside:

    - The crossing parity is even. Beyond the box in y no edge straddles
      the point's row; beyond it in x the crossings of that row, which
      come in pairs, all lie on the one side of the point, however the
      crossing abscissa rounds (a few ulps of E).
    - No on-segment band reaches the point. `_on_segment_xy` accepts a
      point within about 1e-9 * max(1 / L, 1, |p - a|) of edge a-b (its
      line band, plus 1e-12 of the same past the ends). For a point that
      close, |p - a| <= L + that reach, so the reach is at most about
      1e-9 * max(1 / L, 1, L) <= 3e-9 * max(1 / L_min, 1, E), under a
      third of the pad. An edge of 1e-12 m reaches 1e3 m from its line, which is
      why the pad holds the 1 / L_min term.

    The visibility screens need no band: a segment clear of a polygon
    only needs every point the scalar rule tests to lie outside it
    strictly, and the strict test of a point with even parity is false
    without the on-edge pass. Their pad is `_BOX_PAD` of the largest
    coordinate in play; see `_screen`.

    The arrays `visible` reads are made on its first call, so an index
    that only the force pass reads costs no numpy work; so are the
    counter-clockwise `rings`, which the planner reads at once and the
    force pass only for a pedestrian on or inside an obstacle."""

    def __init__(self, polygons: Sequence[Sequence[Vec2]]) -> None:
        self.polygons = polygons
        # per polygon: (x_min, y_min, x_max, y_max)
        self.boxes: list[tuple[float, float, float, float]] = []
        self.edges: list[list[_Edge]] = []
        # per polygon: its box padded by the inside test's reach
        self.reach: list[tuple[float, float, float, float]] = []
        for poly in polygons:
            xs, ys = [v.x for v in poly], [v.y for v in poly]
            box = (min(xs), min(ys), max(xs), max(ys))
            edges = _edge_table(poly)
            shortest = min(math.hypot(abx, aby) for _, _, abx, aby, _ in edges)
            extent = max(map(abs, box))
            pad = _INSIDE_PAD * max(1.0 / shortest, 1.0, extent) if shortest > 0.0 else math.inf
            self.boxes.append(box)
            self.edges.append(edges)
            self.reach.append((box[0] - pad, box[1] - pad, box[2] + pad, box[3] + pad))

    @cached_property
    def rings(self) -> list[list[Vec2]]:
        """Each polygon's vertices in counter-clockwise order."""
        return [list(reversed(poly)) if polygon_signed_area(poly) < 0.0 else list(poly) for poly in self.polygons]

    @cached_property
    def _box_arrays(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The boxes' low and high corners, and the largest coordinate
        magnitude."""
        boxes = np.array(self.boxes, dtype=float).reshape(-1, 4)
        extent = float(np.abs(boxes).max()) if len(boxes) else 0.0
        return boxes[:, :2], boxes[:, 2:], extent

    @cached_property
    def _stacks(self) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
        """The vertices stacked by vertex count: polygon k is row slot[k]
        of stacks[count[k]]; (count, slot, stacks)."""
        verts = [_xy(poly) for poly in self.polygons]
        count = np.array([len(v) for v in verts], dtype=int)
        slot = np.zeros(len(verts), dtype=int)
        stacks: dict[int, np.ndarray] = {}
        for n in np.unique(count).tolist():
            members = np.flatnonzero(count == n)
            slot[members] = np.arange(len(members))
            stacks[n] = np.stack([verts[k] for k in members.tolist()])
        return count, slot, stacks

    def _screen(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(segment, polygon) index pairs, segment s being a[s]-b[s],
        that neither screen clears. Each polygon's box is padded by
        _BOX_PAD of the largest coordinate in play (at least 1), and a
        pair is clear when that box
        - and the segment's box are strictly disjoint, or
        - lies strictly on one side of the segment's line: the cross
          product of b - a with the offset of each box corner from a
          has one strict sign (the separating axis of the segment's
          normal).
        Every point the scalar rule tests lies on the segment to within
        rounding, and the cross products are exact to about 1e-15 of
        the coordinates, both far less than the pad; so each such point
        lies outside the polygon's box, where the crossing parity is
        even and `point_strictly_inside` is false. A zero-length
        segment has no normal: its cross products are all zero.

        A test holds the screen to the pad: a near miss by a few ulps
        is left to the kernels. But no segment was found whose `visible`
        answer a zero pad changes. The screen sees each corner
        through the same rounded offset from a, and the same rounded
        b - a, that the scalar rule's crossing tests use, and rounding
        is monotone, so a strict computed sign is the sign of those
        rounded operands. A tested point leaves the line only by the
        rounding of a + (b - a) * s, and it lies near a box only between
        two crossings near it. Searches of segments up to 1e11 m long
        passing 1e-9 to 1e-5 m from a box corner, and of boxes around
        the rule's rounded midpoint, found none. The pad stays because
        the argument above needs it, not because a case is known."""
        lo, hi, extent = self._box_arrays
        extent = max(extent, float(np.abs(a).max()), float(np.abs(b).max()))
        pad = _BOX_PAD * max(1.0, extent)
        lo, hi = lo - pad, hi + pad
        near = (np.minimum(a, b)[:, None, :] <= hi) & (np.maximum(a, b)[:, None, :] >= lo)
        s, k = np.nonzero(near.all(axis=2))
        ax, ay = a[s, 0, None, None], a[s, 1, None, None]
        abx, aby = b[s, 0, None, None] - ax, b[s, 1, None, None] - ay
        # corner (i, j) of each box is (x_i, y_j): (lo, hi) by (lo, hi)
        cx = np.stack([lo[k, 0], hi[k, 0]], axis=1)[:, :, None]
        cy = np.stack([lo[k, 1], hi[k, 1]], axis=1)[:, None, :]
        cross = abx * (cy - ay) - aby * (cx - ax)
        one_side = (cross > 0.0).all(axis=(1, 2)) | (cross < 0.0).all(axis=(1, 2))
        return s[~one_side], k[~one_side]

    def _by_count(self, segments: np.ndarray, polygons: np.ndarray):
        """The pairs split by the polygon's vertex count, in chunks of
        at most _CHUNK: (segments, polygon indices, their stacked
        vertices) per chunk."""
        count, slot, stacks = self._stacks
        for n, stack in stacks.items():
            sel = np.flatnonzero(count[polygons] == n)
            for c in range(0, len(sel), _CHUNK):
                k = polygons[sel[c : c + _CHUNK]]
                yield segments[sel[c : c + _CHUNK]], k, stack[slot[k]]

    def visible(self, points: Sequence[Vec2], i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Per index pair: segment points[i]-points[j] is free of every
        obstacle, as `segment_clear_of_polygon` decides for each. The
        pairs `_screen` leaves go through `segments_clear_of_polygons`;
        those it comes back unsure of, through the scalar rule."""
        free = np.ones(len(i), dtype=bool)
        if not self.polygons or not len(i):
            return free
        xy = _xy(points)
        a, b = xy[i], xy[j]
        for s, k, verts in self._by_count(*self._screen(a, b)):
            clear, unsure = segments_clear_of_polygons(a[s], b[s], verts)
            for m in np.flatnonzero(unsure).tolist():
                clear[m] = segment_clear_of_polygon(points[i[s[m]]], points[j[s[m]]], self.polygons[k[m]])
            free[s[~clear]] = False
        return free


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
    """The screen's limit on abs_bearings_deg for _within_cone_xy: beyond
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
