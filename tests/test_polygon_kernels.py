"""The polygon kernels on plain floats against their Vec2 forms.

`geometry._nearest_on_edges_xy`, `geometry._even_odd` and
`forces.obstacle_repulsion` were once written with `Vec2` temporaries,
the even-odd test in one pass that tried each edge's on-segment rule
before its crossing. Those forms are kept below as oracles; the float
forms must give the same bits on simple polygons, convex and concave,
for points on, near and off their boundaries.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import ped
from sharedspace import geometry
from sharedspace.forces import obstacle_repulsion
from sharedspace.geometry import (
    InvalidSceneError,
    ObstacleIndex,
    Vec2,
    _edge_table,
    _nearest_on_edges_xy,
    _on_segment_xy,
    _validate_simple_polygon,
    point_in_zone,
    point_strictly_inside,
    polygon_signed_area,
)
from sharedspace.params import SfmParams
from sharedspace.scene import Scene

P = SfmParams()


# ---- oracles: the Vec2 forms ----


def vec_nearest_point_on_segment(p, a, b):
    ab = b - a
    denom = ab.norm_sq()
    if denom == 0.0:
        return a
    t = (p - a).dot(ab) / denom
    t = min(1.0, max(0.0, t))
    return a + ab * t


def vec_nearest_point_on_polygon(p, poly):
    best = None
    best_d = math.inf
    n = len(poly)
    for i in range(n):
        q = vec_nearest_point_on_segment(p, poly[i], poly[(i + 1) % n])
        d = p.distance_to(q)
        if d < best_d:
            best = q
            best_d = d
    assert best is not None
    return best, best_d


def one_pass_even_odd(p, zone, on_edge):
    if len(zone) < 3:
        raise InvalidSceneError("zone polygon needs at least 3 vertices")
    px, py = p.x, p.y
    inside = False
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


def vec_outward_normal_near(p, poly):
    ring = list(poly)
    if polygon_signed_area(ring) < 0.0:
        ring.reverse()
    best_d = math.inf
    best_normal = Vec2(1.0, 0.0)
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        q = vec_nearest_point_on_segment(p, a, b)
        d = p.distance_to(q)
        if d < best_d:
            best_d = d
            best_normal = -(b - a).normalized().left_normal()
    return best_normal


def vec_obstacle_repulsion(agent, polygons, params):
    total = Vec2(0.0, 0.0)
    for poly in polygons:
        nearest, d = vec_nearest_point_on_polygon(agent.position, poly)
        direction = (agent.position - nearest).normalized()
        if direction.norm_sq() == 0.0 or one_pass_even_odd(agent.position, poly, True):
            direction = vec_outward_normal_near(agent.position, poly)
            d = 0.0
        total = total + direction * (params.u0 * math.exp(-d / params.r_obstacle))
    return total


# ---- inputs ----


def bits(*values):
    return tuple(float.hex(v) for v in values)


def float_nearest(p, poly):
    """_nearest_on_edges_xy over poly's edge table: (qx, qy, d)."""
    qx, qy, d, _ = _nearest_on_edges_xy(p.x, p.y, _edge_table(poly))
    return qx, qy, d


def box(cx, cy, w, h):
    return [Vec2(cx - w, cy - h), Vec2(cx + w, cy - h), Vec2(cx + w, cy + h), Vec2(cx - w, cy + h)]


def ell(cx, cy, s):
    return [Vec2(cx + x * s, cy + y * s) for x, y in ((0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3))]


# Vertices on a circle make a convex polygon, on rays of drawn length
# one that is star-shaped about the centre, so simple and often concave.
centre = st.floats(-950.0, 950.0, allow_nan=False)
size = st.one_of(st.sampled_from([0.5, 1.0, 4.0]), st.floats(0.01, 50.0))
angles = st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True), min_size=3, max_size=8, unique=True)


@st.composite
def simple_polygons(draw):
    cx, cy, s = draw(centre), draw(centre), draw(size)
    kind = draw(st.sampled_from(["box", "ell", "convex", "star"]))
    if kind == "box":
        poly = box(cx, cy, s, draw(st.one_of(st.just(s), size)))
    elif kind == "ell":
        poly = ell(cx, cy, s)
    else:
        turns = sorted(draw(angles))
        radii = [1.0] * len(turns) if kind == "convex" else draw(
            st.lists(st.floats(0.2, 1.0), min_size=len(turns), max_size=len(turns))
        )
        poly = [Vec2(cx + s * r * math.cos(t), cy + s * r * math.sin(t)) for t, r in zip(turns, radii)]
    start = draw(st.integers(0, len(poly) - 1))
    poly = poly[start:] + poly[:start]
    if draw(st.booleans()):
        poly.reverse()
    try:
        _validate_simple_polygon(poly, "drawn")
    except InvalidSceneError:
        assume(False)
    return poly


# Offsets from an edge along its normal: on it, within 1e-12, 1e-9 and
# 1e-6 of it on either side (the on-segment band is 1e-9 times its
# scale), and farther.
OFFSETS = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9, 1e-6, -1e-6, 0.3, -0.3)


@st.composite
def polygon_and_probes(draw):
    """A simple polygon and points on, near and off it: every vertex,
    points along and beside every edge, its vertex mean and points
    far outside."""
    poly = draw(simple_polygons())
    n = len(poly)
    mean = Vec2(sum(v.x for v in poly) / n, sum(v.y for v in poly) / n)
    probes = list(poly) + [mean, mean + Vec2(1e3, 0.0), mean - Vec2(0.0, 1e3)]
    for i, a in enumerate(poly):
        b = poly[(i + 1) % n]
        ab = b - a
        normal = ab.left_normal() * (1.0 / ab.norm())
        for t in (0.5, draw(st.floats(0.0, 1.0))):
            on = a + ab * t
            probes.extend(on + normal * k for k in OFFSETS)
        probes.append(b + ab * draw(st.sampled_from([1e-12, 1e-9, 1e-6, 0.1])))
    probes += draw(st.lists(st.builds(Vec2, centre, centre), max_size=3))
    return poly, probes


SQUARE = box(2.0, 2.0, 2.0, 2.0)
# A triangle with an edge 1e-12 long. The on-segment band of an edge of
# length L < 1 reaches 1e-9 / L from its line, here 1e3, and 1e-12 / L
# past its ends, here 1: points 5e-4 and 0.5 from the boundary lie on it.
SLIVER = [Vec2(0.0, 0.0), Vec2(1e-12, 0.0), Vec2(0.0, 1.0)]
FIXED = [
    (SQUARE, Vec2(2.0, 2.0)),  # equidistant from all four edges
    (SQUARE, Vec2(5.0, 5.0)),  # on a corner's diagonal: two edges tie
    (ell(0.0, 0.0, 1.0), Vec2(0.5, 0.5)),  # in the ell's corner square
    (ell(0.0, 0.0, 1.0), Vec2(2.0, 2.0)),  # in the notch, equidistant
    (SLIVER, Vec2(5e-13, -5e-4)),
    (SLIVER, Vec2(0.5, 0.5)),
]


# ---- the float forms against the oracles ----


class TestNearestPointOnPolygon:
    @settings(max_examples=150, deadline=None)
    @given(polygon_and_probes())
    def test_matches_the_vec2_form(self, case):
        poly, probes = case
        for p in probes:
            want, want_d = vec_nearest_point_on_polygon(p, poly)
            assert bits(*float_nearest(p, poly)) == bits(want.x, want.y, want_d)

    @pytest.mark.parametrize("poly, p", FIXED)
    def test_fixed_cases(self, poly, p):
        want, want_d = vec_nearest_point_on_polygon(p, poly)
        assert bits(*float_nearest(p, poly)) == bits(want.x, want.y, want_d)

    def test_a_tie_goes_to_the_first_edge(self):
        # (2, 2) is 2 from every edge of the square; edge 0 is the bottom.
        assert _nearest_on_edges_xy(2.0, 2.0, _edge_table(SQUARE)) == (2.0, 0.0, 2.0, 0)


class TestEvenOdd:
    @settings(max_examples=150, deadline=None)
    @given(polygon_and_probes())
    def test_matches_the_one_pass_form(self, case):
        poly, probes = case
        for p in probes:
            assert point_in_zone(p, poly) == one_pass_even_odd(p, poly, True)
            assert point_strictly_inside(p, poly) == one_pass_even_odd(p, poly, False)

    @pytest.mark.parametrize("poly, p", FIXED)
    def test_fixed_cases(self, poly, p):
        assert point_in_zone(p, poly) == one_pass_even_odd(p, poly, True)
        assert point_strictly_inside(p, poly) == one_pass_even_odd(p, poly, False)

    @pytest.mark.parametrize("p", [Vec2(5e-13, -5e-4), Vec2(0.5, 0.5)])
    def test_a_point_far_from_a_short_edge_can_lie_on_it(self, p):
        assert float_nearest(p, SLIVER)[2] >= 5e-4
        assert point_in_zone(p, SLIVER)
        assert not point_strictly_inside(p, SLIVER)


class TestObstacleRepulsion:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(polygon_and_probes(), min_size=1, max_size=3),
        st.floats(0.1, 20.0),
        st.floats(0.05, 2.0),
    )
    def test_matches_the_vec2_form(self, cases, u0, r_obstacle):
        polygons = [poly for poly, _ in cases]
        index = ObstacleIndex(polygons)
        params = SfmParams(u0=u0, r_obstacle=r_obstacle)
        for p in (p for _, probes in cases for p in probes):
            agent = ped(position=p)
            got = obstacle_repulsion(agent, index, params)
            want = vec_obstacle_repulsion(agent, polygons, params)
            assert bits(got.x, got.y) == bits(want.x, want.y)

    @pytest.mark.parametrize("poly, p", FIXED)
    def test_fixed_cases(self, poly, p):
        agent = ped(position=p)
        got = obstacle_repulsion(agent, ObstacleIndex([poly]), P)
        want = vec_obstacle_repulsion(agent, [poly], P)
        assert bits(got.x, got.y) == bits(want.x, want.y)

    def test_an_obstacle_free_scene_reads_no_parameter(self):
        assert obstacle_repulsion(ped(), Scene().obstacle_index, None) == Vec2(0.0, 0.0)


# ---- the reach box: the inside test only where it can be true ----

# Shortest edges from 1e-12 m to 10 m, at coordinates up to 1e4.
short_edge = st.floats(-12.0, 1.0).map(lambda k: 10.0**k)
far_centre = st.floats(-1e4, 1e4, allow_nan=False)


@st.composite
def polygons_with_a_short_edge(draw):
    """A box, a sliver triangle or a box with one corner cut off,
    maybe turned, with an edge about as short as the drawn length (or
    of none, where the coordinates' rounding merges two vertices)."""
    cx, cy, short = draw(far_centre), draw(far_centre), draw(short_edge)
    long = draw(st.floats(short, 10.0))
    kind = draw(st.sampled_from(["box", "sliver", "cut"]))
    if kind == "box":
        shape = [(0.0, 0.0), (short, 0.0), (short, long), (0.0, long)]
    elif kind == "sliver":
        shape = [(0.0, 0.0), (short, 0.0), (0.0, long)]
    else:
        shape = [(0.0, 0.0), (long, 0.0), (long, long - short), (long - short, long), (0.0, long)]
    turn = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 * math.pi)))
    c, s = math.cos(turn), math.sin(turn)
    poly = [Vec2(cx + x * c - y * s, cy + x * s + y * c) for x, y in shape]
    if draw(st.booleans()):
        poly.reverse()
    return poly


def reach_probes(poly):
    """Points just inside and just outside each side and corner of the
    polygon's reach box, and at the on-edge reach of every edge: beside
    its midpoint at fractions of 1e-9 * max(1 / L, 1, L / 2), and past
    its ends at fractions of 1e-12 * max(1 / L, 1, L). An unbounded box
    (the polygon has a zero-length edge) has no sides to probe."""
    index = ObstacleIndex([poly])
    (x0, y0, x1, y1), (bx0, by0, bx1, by1) = index.reach[0], index.boxes[0]
    probes = []
    if math.isfinite(x1 - x0):
        xs = [v for x in (x0, x1) for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
        ys = [v for y in (y0, y1) for v in (math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf))]
        probes += [Vec2(x, y) for x in xs for y in (by0, (by0 + by1) / 2, by1, *ys)]
        probes += [Vec2(x, y) for y in ys for x in (bx0, (bx0 + bx1) / 2, bx1)]
    for a, b in zip(poly, [*poly[1:], poly[0]]):
        ab = b - a
        length = ab.norm()
        if length == 0.0:
            continue
        u = ab * (1.0 / length)
        mid = a + ab * 0.5
        beside = 1e-9 * max(1.0 / length, 1.0, length / 2.0)
        past = 1e-12 * max(1.0 / length, 1.0, length)
        for f in (0.5, 0.99, 1.01, 2.0):
            probes += [mid + u.left_normal() * (beside * f), mid - u.left_normal() * (beside * f)]
            probes += [b + u * (past * f), a - u * (past * f)]
    return probes


class TestReachBox:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(polygons_with_a_short_edge(), min_size=1, max_size=2))
    def test_repulsion_matches_the_full_inside_test(self, polygons):
        index = ObstacleIndex(polygons)
        for p in (p for poly in polygons for p in reach_probes(poly)):
            agent = ped(position=p)
            got = obstacle_repulsion(agent, index, P)
            want = vec_obstacle_repulsion(agent, polygons, P)
            assert bits(got.x, got.y) == bits(want.x, want.y)

    def test_a_sliver_pads_its_box_beyond_its_band(self):
        # SLIVER's band reaches 1e3 from its short edge (see FIXED)
        x0, y0, x1, y1 = ObstacleIndex([SLIVER]).reach[0]
        assert min(-x0, -y0, x1, y1) > 1e3


# ---- the on-edge pass runs only when it can change the answer ----


@pytest.fixture
def on_segment_calls(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _on_segment_xy(*args)

    monkeypatch.setattr(geometry, "_on_segment_xy", counting)
    return calls


class TestOnEdgePass:
    def test_a_point_inside_makes_no_on_edge_test(self, on_segment_calls):
        assert point_in_zone(Vec2(1.0, 3.0), SQUARE)
        assert on_segment_calls == []

    def test_a_point_outside_makes_no_strict_on_edge_test(self, on_segment_calls):
        assert not point_strictly_inside(Vec2(5.0, 2.0), SQUARE)
        assert on_segment_calls == []

    def test_otherwise_the_edges_decide(self, on_segment_calls):
        # The crossing parity of a point on the square's right edge is
        # even, and of one on its left edge odd: the edges decide.
        assert point_in_zone(Vec2(4.0, 2.0), SQUARE)
        assert on_segment_calls
        on_segment_calls.clear()
        assert not point_strictly_inside(Vec2(0.0, 2.0), SQUARE)
        assert on_segment_calls
