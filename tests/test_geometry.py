import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedspace import geometry
from sharedspace.geometry import (
    _LINE_TOL,
    _PARAM_TOL,
    InvalidSceneError,
    Vec2,
    _on_segment,
    bearing_deg,
    manhattan,
    nearest_point_on_polygon,
    nearest_point_on_segment,
    point_in_zone,
    point_strictly_inside,
    points_strictly_inside,
    polygon_signed_area,
    segment_clear_of_polygon,
    segments_clear_of_polygons,
    segments_intersect,
    within_cone,
)

SQUARE = (Vec2(0, 0), Vec2(4, 0), Vec2(4, 4), Vec2(0, 4))

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
vec = st.builds(Vec2, finite, finite)


class TestVec2:
    def test_arithmetic(self):
        a, b = Vec2(1, 2), Vec2(3, -4)
        assert a + b == Vec2(4, -2)
        assert a - b == Vec2(-2, 6)
        assert a * 2 == Vec2(2, 4)
        assert 2 * a == Vec2(2, 4)
        assert -a == Vec2(-1, -2)

    def test_norm_and_distance(self):
        assert Vec2(3, 4).norm() == 5.0
        assert Vec2(3, 4).norm_sq() == 25.0
        assert Vec2(1, 1).distance_to(Vec2(4, 5)) == 5.0

    def test_dot_cross(self):
        assert Vec2(1, 2).dot(Vec2(3, 4)) == 11.0
        assert Vec2(1, 0).cross(Vec2(0, 1)) == 1.0
        assert Vec2(0, 1).cross(Vec2(1, 0)) == -1.0

    def test_normalized_zero_vector(self):
        assert Vec2(0, 0).normalized() == Vec2(0, 0)

    def test_normalized_unit(self):
        n = Vec2(3, 4).normalized()
        assert math.isclose(n.norm(), 1.0, rel_tol=1e-12)

    def test_left_normal_is_ccw_perpendicular(self):
        assert Vec2(1, 0).left_normal() == Vec2(0, 1)
        assert Vec2(0, 1).left_normal() == Vec2(-1, 0)

    def test_manhattan(self):
        assert manhattan(Vec2(1, 2), Vec2(4, -2)) == 7.0


class TestPointInZone:
    def test_interior(self):
        assert point_in_zone(Vec2(2, 2), SQUARE)

    def test_exterior(self):
        assert not point_in_zone(Vec2(5, 2), SQUARE)

    def test_boundary_inclusive(self):
        assert point_in_zone(Vec2(0, 2), SQUARE)
        assert point_in_zone(Vec2(4, 4), SQUARE)

    def test_strictly_inside_excludes_boundary(self):
        assert point_strictly_inside(Vec2(2, 2), SQUARE)
        assert not point_strictly_inside(Vec2(0, 2), SQUARE)

    def test_degenerate_zone_rejected(self):
        with pytest.raises(InvalidSceneError):
            point_in_zone(Vec2(0, 0), (Vec2(0, 0), Vec2(1, 1)))

    def test_concave_zone(self):
        # L-shape: notch at the top right.
        poly = (Vec2(0, 0), Vec2(4, 0), Vec2(4, 2), Vec2(2, 2), Vec2(2, 4), Vec2(0, 4))
        assert point_in_zone(Vec2(1, 3), poly)
        assert not point_in_zone(Vec2(3, 3), poly)


class TestSegmentsIntersect:
    def test_crossing(self):
        assert segments_intersect(Vec2(0, 0), Vec2(2, 2), Vec2(0, 2), Vec2(2, 0))

    def test_disjoint(self):
        assert not segments_intersect(Vec2(0, 0), Vec2(1, 0), Vec2(0, 1), Vec2(1, 1))

    def test_touching_endpoint(self):
        assert segments_intersect(Vec2(0, 0), Vec2(1, 0), Vec2(1, 0), Vec2(2, 5))

    def test_collinear_overlap(self):
        assert segments_intersect(Vec2(0, 0), Vec2(3, 0), Vec2(2, 0), Vec2(5, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect(Vec2(0, 0), Vec2(1, 0), Vec2(2, 0), Vec2(3, 0))

    def test_parallel(self):
        assert not segments_intersect(Vec2(0, 0), Vec2(2, 0), Vec2(0, 1), Vec2(2, 1))

    @given(vec, vec, vec, vec)
    @settings(max_examples=200)
    def test_symmetric_in_arguments(self, a, b, c, d):
        assert segments_intersect(a, b, c, d) == segments_intersect(c, d, a, b)
        assert segments_intersect(a, b, c, d) == segments_intersect(b, a, d, c)


class TestBearing:
    def test_dead_ahead_is_zero(self):
        assert bearing_deg(Vec2(1, 0), Vec2(5, 0)) == 0.0

    def test_left_is_90(self):
        assert math.isclose(bearing_deg(Vec2(1, 0), Vec2(0, 3)), 90.0)

    def test_right_is_270(self):
        assert math.isclose(bearing_deg(Vec2(1, 0), Vec2(0, -3)), 270.0)

    def test_behind_is_180(self):
        assert math.isclose(bearing_deg(Vec2(1, 0), Vec2(-2, 0)), 180.0)

    def test_rotated_heading(self):
        # Heading north, target east: 90 degrees clockwise -> 270 ccw.
        assert math.isclose(bearing_deg(Vec2(0, 1), Vec2(1, 0)), 270.0)

    def test_zero_offset(self):
        assert bearing_deg(Vec2(1, 0), Vec2(0, 0)) == 0.0

    @given(vec, vec)
    @settings(max_examples=200)
    def test_range(self, heading, offset):
        theta = bearing_deg(heading, offset)
        assert 0.0 <= theta < 360.0


class TestWithinCone:
    def test_boundary_inclusive_at_exact_half_angle(self):
        offset = Vec2(math.cos(math.radians(113.0)), math.sin(math.radians(113.0)))
        assert within_cone(Vec2(1, 0), offset, 113.0)

    def test_just_outside(self):
        offset = Vec2(math.cos(math.radians(114.0)), math.sin(math.radians(114.0)))
        assert not within_cone(Vec2(1, 0), offset, 113.0)

    def test_mirror_side(self):
        # 247 degrees == -113: still on the cone boundary.
        offset = Vec2(math.cos(math.radians(247.0)), math.sin(math.radians(247.0)))
        assert within_cone(Vec2(1, 0), offset, 113.0)

    def test_full_circle(self):
        assert within_cone(Vec2(1, 0), Vec2(-1, 0), 180.0)

    @given(vec, vec, st.floats(min_value=0, max_value=179))
    @settings(max_examples=200)
    def test_agrees_with_bearing(self, heading, offset, half):
        if heading.norm() < 1e-9 or offset.norm() < 1e-9:
            return
        theta = bearing_deg(heading, offset)
        expected = min(theta, 360.0 - theta) <= half + 1e-6
        strict = min(theta, 360.0 - theta) <= half - 1e-6
        got = within_cone(heading, offset, half)
        if strict:
            assert got
        elif not expected:
            assert not got


class TestNearestPoints:
    def test_segment_interior(self):
        p = nearest_point_on_segment(Vec2(1, 5), Vec2(0, 0), Vec2(4, 0))
        assert p == Vec2(1, 0)

    def test_segment_clamps_to_endpoint(self):
        p = nearest_point_on_segment(Vec2(-3, 2), Vec2(0, 0), Vec2(4, 0))
        assert p == Vec2(0, 0)

    def test_polygon_nearest_edge(self):
        point, dist = nearest_point_on_polygon(Vec2(2, 6), SQUARE)
        assert point == Vec2(2, 4)
        assert dist == 2.0

    def test_polygon_inside_distance(self):
        point, dist = nearest_point_on_polygon(Vec2(2, 3.5), SQUARE)
        assert point == Vec2(2, 4)
        assert math.isclose(dist, 0.5)


class TestPolygonHelpers:
    def test_signed_area_ccw_positive(self):
        assert polygon_signed_area(SQUARE) == 16.0

    def test_signed_area_cw_negative(self):
        assert polygon_signed_area(tuple(reversed(SQUARE))) == -16.0

    def test_segment_clear_outside(self):
        assert segment_clear_of_polygon(Vec2(-1, -1), Vec2(5, -1), SQUARE)

    def test_segment_blocked_through_interior(self):
        assert not segment_clear_of_polygon(Vec2(-1, 2), Vec2(5, 2), SQUARE)

    def test_segment_grazing_edge_is_clear(self):
        assert segment_clear_of_polygon(Vec2(0, -1), Vec2(0, 5), SQUARE)


# Batched rules: where they are sure, they agree with the scalar ones.
CONCAVE = (Vec2(0, 0), Vec2(3, 0), Vec2(3, 1), Vec2(1, 1), Vec2(1, 3), Vec2(0, 3))
near = st.one_of(st.integers(-2, 10).map(lambda k: k * 0.5), st.floats(-1.0, 5.0, allow_nan=False))
near_vec = st.builds(Vec2, near, near)


def as_rows(points):
    return np.array([(p.x, p.y) for p in points], dtype=float)


class TestBatchedRules:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(near_vec, near_vec), min_size=1, max_size=8), st.sampled_from([SQUARE, CONCAVE]))
    def test_segments_clear_of_polygons_matches_scalar(self, segments, poly):
        a, b = as_rows([s[0] for s in segments]), as_rows([s[1] for s in segments])
        verts = np.broadcast_to(as_rows(poly), (len(segments), len(poly), 2))
        clear, unsure = segments_clear_of_polygons(a, b, verts)
        for (p, q), got, skip in zip(segments, clear.tolist(), unsure.tolist()):
            if not skip:
                assert got == segment_clear_of_polygon(p, q, poly)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(near_vec, min_size=1, max_size=8), st.sampled_from([SQUARE, CONCAVE]))
    def test_points_strictly_inside_matches_scalar(self, points, poly):
        xy = as_rows(points)
        verts = np.broadcast_to(as_rows(poly), (len(points), len(poly), 2))
        inside, unsure = points_strictly_inside(xy[:, :1], xy[:, 1:], verts)
        for p, got, skip in zip(points, inside[:, 0].tolist(), unsure[:, 0].tolist()):
            if not skip:
                assert got == point_strictly_inside(p, poly)

    def test_zero_length_segment_is_the_point_test(self):
        a = as_rows([Vec2(2, 2), Vec2(0, 2), Vec2(5, 5)])
        clear, unsure = segments_clear_of_polygons(a, a, np.broadcast_to(as_rows(SQUARE), (3, 4, 2)))
        assert clear.tolist() == [False, True, True]
        assert not unsure.any()


# The zone test and the bearing in their Vec2 form, as they were before
# they were written out on plain floats; the float forms must agree to
# the bit.
def vec_on_segment(p, a, b):
    if (b.x, b.y) < (a.x, a.y):
        a, b = b, a
    ab = b - a
    ap = p - a
    scale = max(1.0, ab.norm() * max(1.0, ap.norm()))
    if abs(ab.cross(ap)) > _LINE_TOL * scale:
        return False
    t = ap.dot(ab)
    return -_PARAM_TOL * scale <= t <= ab.norm_sq() + _PARAM_TOL * scale


def vec_point_in_zone(p, zone):
    n = len(zone)
    for i in range(n):
        if vec_on_segment(p, zone[i], zone[(i + 1) % n]):
            return True
    inside = False
    for i in range(n):
        a = zone[i]
        b = zone[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < x_cross:
                inside = not inside
    return inside


def vec_point_strictly_inside(p, zone):
    n = len(zone)
    for i in range(n):
        if vec_on_segment(p, zone[i], zone[(i + 1) % n]):
            return False
    return vec_point_in_zone(p, zone)


def vec_bearing_deg(heading, offset):
    if offset.norm_sq() == 0.0:
        return 0.0
    ang = math.degrees(math.atan2(heading.cross(offset), heading.dot(offset))) % 360.0
    return 0.0 if ang >= 360.0 else ang


# Half-metre grid values make vertices, on-edge points and repeated
# vertices common; the floats reach the rounding cases.
coord = st.one_of(
    st.integers(-8, 8).map(lambda k: k * 0.5),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
point = st.builds(Vec2, coord, coord)
band = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def zone_and_probes(draw):
    """A polygon (not always simple) and points on, near and off it:
    every vertex, a point along every edge, and points a few band
    widths off each edge's line and past each edge's ends."""
    zone = draw(st.lists(point, min_size=3, max_size=6))
    probes = list(zone) + draw(st.lists(point, max_size=4))
    for i, a in enumerate(zone):
        b = zone[(i + 1) % len(zone)]
        ab = b - a
        length = ab.norm()
        on = a + ab * draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)))
        probes.append(on)
        if length * length == 0.0:
            continue
        scale = max(1.0, length * max(1.0, (on - a).norm()))
        # Distance from the line at which the cross product meets its band.
        off_line = _LINE_TOL * scale / length
        normal = ab.left_normal() * (1.0 / length)
        probes.extend(on + normal * (k * off_line) for k in draw(st.lists(band, max_size=3)))
        # Parameter past an end at which the dot product meets its band.
        past = _PARAM_TOL * scale / (length * length)
        probes.extend(b + ab * (k * past) for k in draw(st.lists(band, max_size=2)))
        probes.extend(a - ab * (k * past) for k in draw(st.lists(band, max_size=2)))
    return zone, probes


class TestFloatRulesMatchVec2Forms:
    @settings(max_examples=150, deadline=None)
    @given(zone_and_probes(), st.booleans())
    def test_zone_test(self, case, as_list):
        zone, probes = case
        zone = list(zone) if as_list else tuple(zone)
        n = len(zone)
        for p in probes:
            assert point_in_zone(p, zone) == vec_point_in_zone(p, zone)
            for i in range(n):
                a, b = zone[i], zone[(i + 1) % n]
                assert _on_segment(p, a, b) == vec_on_segment(p, a, b)

    @settings(max_examples=150, deadline=None)
    @given(zone_and_probes())
    def test_strict_zone_test(self, case):
        zone, probes = case
        for p in probes:
            assert point_strictly_inside(p, zone) == vec_point_strictly_inside(p, zone)

    def test_strict_zone_test_makes_one_pass(self, monkeypatch):
        calls = []
        on_segment = geometry._on_segment_xy

        def counting(*args):
            calls.append(args)
            return on_segment(*args)

        monkeypatch.setattr(geometry, "_on_segment_xy", counting)
        assert point_strictly_inside(Vec2(2, 2), SQUARE)
        assert len(calls) == len(SQUARE)

    @pytest.mark.parametrize("zone", [(), (Vec2(0, 0),), (Vec2(0, 0), Vec2(1, 0))])
    def test_strict_zone_test_needs_three_vertices(self, zone):
        # Also for a point on the one segment that two vertices make.
        with pytest.raises(InvalidSceneError):
            point_strictly_inside(Vec2(0.5, 0.0), zone)

    def test_both_sides_of_each_band(self):
        # The edge (0, 0)-(1, 0) has scale 1: half a band off it counts
        # as on it, two bands off do not.
        a, b = Vec2(0.0, 0.0), Vec2(1.0, 0.0)
        for k, on in ((0.5, True), (2.0, False)):
            p = Vec2(0.5, k * _LINE_TOL)
            assert _on_segment(p, a, b) is on is vec_on_segment(p, a, b)
        for k, on in ((0.5, True), (2.0, False)):
            p = Vec2(1.0 + k * _PARAM_TOL, 0.0)
            assert _on_segment(p, a, b) is on is vec_on_segment(p, a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(point, st.sampled_from([Vec2(0.0, 0.0), Vec2(-0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, -1.0)])),
        st.one_of(point, st.sampled_from([Vec2(0.0, 0.0), Vec2(0.0, -0.0), Vec2(-2.0, 0.0), Vec2(-2.0, -0.0)])),
    )
    def test_bearing(self, heading, offset):
        assert bearing_deg(heading, offset).hex() == vec_bearing_deg(heading, offset).hex()
