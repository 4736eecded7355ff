"""Conflict recognition's numpy screen against its scalar gates.

Recognition screens its (car, agent) pairs with one numpy pass over the
step's AgentColumns above a pair-count guard. The screen may drop only
pairs that the scalar gates reject, so the screened pass must give what
the all-pairs pass gives: the same conflicts and dissolved ids.
"""

from __future__ import annotations

import dataclasses
import math
import random
from contextlib import contextmanager

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import car, open_square_scene, ped
from sharedspace import conflicts
from sharedspace.conflicts import (
    CAR_CONE_HALF_ANGLE_DEG,
    Conflict,
    ConflictClass,
    partner_sets,
    predicted_position,
    recognize_conflicts,
)
from sharedspace.geometry import Vec2, bearing_deg, within_cone
from sharedspace.params import SfmParams
from sharedspace.scene import AgentColumns, AgentKind, Rect, Scene

P = SfmParams()
ALWAYS, NEVER = 0, 10**9


@contextmanager
def guard(value: int):
    """Set recognition's guard: ALWAYS screens, NEVER tests all pairs."""
    saved = conflicts.RECOGNITION_SCALAR_MAX_PAIRS
    conflicts.RECOGNITION_SCALAR_MAX_PAIRS = value
    try:
        yield
    finally:
        conflicts.RECOGNITION_SCALAR_MAX_PAIRS = saved


def _box(x0, y0, x1, y1):
    return (Vec2(x0, y0), Vec2(x1, y0), Vec2(x1, y1), Vec2(x0, y1))


# An intersection zone left of x = 0, a road zone right of it, and no
# zone beyond |x| = 20: recognition's three kinds of car.
MIXED = Scene(
    intersection_zones=(_box(-20, -20, 0, 20),),
    road_zones=(_box(0, -20, 20, 20),),
    bounds=Rect(-60, -60, 60, 60),
)
INTERSECTION = open_square_scene(zone="intersection")
ROAD = open_square_scene(zone="road")

# - the scalar gates the screen stands in front of ----------------------

def recognition_accepts(c, other, in_intersection, in_road, params=P):
    """The geometric gates of the recognition scan, pair by pair."""
    if other is c or c.position.distance_to(other.position) > params.v_r:
        return False
    offset = other.position - c.position
    if in_intersection:
        is_car = other.kind is AgentKind.CAR
        half = CAR_CONE_HALF_ANGLE_DEG if is_car else params.fov_half_angle_deg
        gap = predicted_position(c, params).distance_to(predicted_position(other, params))
        return within_cone(c.heading, offset, half) and not gap > params.d_min_for(is_car)
    return (
        in_road
        and other.kind is AgentKind.PEDESTRIAN
        and within_cone(c.heading, offset, params.fov_half_angle_deg)
    )


def check_screens(cars, peds, scene=MIXED, active=(), params=P):
    """The screen keeps every pair the gates accept, and recognition
    gives the same answer screened and over all pairs."""
    cars = sorted(cars, key=lambda a: a.id)
    peds = sorted(peds, key=lambda a: a.id)

    def recognize():
        return recognize_conflicts(cars, peds, scene, params, active_conflicts=active, step=4, next_id=3)

    with guard(ALWAYS):
        columns = AgentColumns(cars, peds, scene)
        scans = conflicts._scan_lists(columns, params)
        screened = recognize()
    with guard(NEVER):
        columns = AgentColumns(cars, peds, scene)
        everyone = recognize()
    for k, c in enumerate(cars):
        inter, road = columns.in_intersection[k], columns.in_road[k]
        ids = {a.id for a in scans[k]}
        for other in cars + peds:
            if recognition_accepts(c, other, inter, road, params):
                assert other.id in ids, (c.id, other.id)
    assert screened.new_conflicts == everyone.new_conflicts
    assert screened.dissolved_ids == everyone.dissolved_ids
    return everyone


# - hypothesis crowds ------------------------------------------------------

# Quarter-metre grid values put pairs on the bands' edges; the floats
# reach the rounding cases.
coord = st.one_of(
    st.integers(-100, 100).map(lambda k: k * 0.25),
    st.floats(-25.0, 25.0, allow_nan=False),
)
heading = st.one_of(
    st.sampled_from([Vec2(1, 0), Vec2(-1, 0), Vec2(0, 1), Vec2(0.6, -0.8), Vec2(0, 0)]),
    st.floats(-math.pi, math.pi).map(lambda a: Vec2(math.cos(a), math.sin(a))),
)
agent_spec = st.tuples(
    st.booleans(),  # is a car
    coord,
    coord,
    heading,
    st.sampled_from([0.0, 0.3, 1.2, 2.0, 8.0]),  # max speed
    st.sampled_from([0.5, 2.0]),  # diameter
    st.floats(0.0, 2.0),  # speed
    coord,  # goal x
)


@st.composite
def crowds(draw):
    specs = draw(st.lists(agent_spec, min_size=1, max_size=24))
    cars, peds = [], []
    for k, (is_car, x, y, h, top, diameter, speed, gx) in enumerate(specs):
        make, out = (car, cars) if is_car else (ped, peds)
        out.append(
            make(
                f"{'c' if is_car else 'p'}{k:02d}",
                position=Vec2(x, y),
                heading=h,
                speed=speed,
                max_speed=top,
                goal=Vec2(gx, -y),
                diameter=diameter,
            )
        )
    # Some cars already engaged with some pedestrians, as the engine
    # records them, to reach the partner guards and road-zone merges.
    active = []
    for k, c in enumerate(cars):
        engaged = [p.id for p in peds if draw(st.booleans()) and draw(st.booleans())]
        if engaged:
            active.append(Conflict(k, c.id, tuple(engaged), ConflictClass.PEDESTRIANS_TO_CAR, 0))
    partners = partner_sets(active, [a.id for a in cars + peds])
    for a in cars + peds:
        a.prior_conflict_partners = frozenset(partners[a.id])
    return cars, peds, active


class TestHypothesisCrowds:
    @given(crowds(), st.sampled_from([MIXED, INTERSECTION, ROAD]))
    @settings(max_examples=150, deadline=None)
    def test_screened_passes_match_all_pairs(self, crowd, scene):
        cars, peds, active = crowd
        check_screens(cars, peds, scene, active)


# - hand-built pairs on the bands' edges ---------------------------------

def toward(position, target):
    return target - position


class TestBandEdges:
    def test_pair_at_exactly_the_view_range(self):
        # Dead ahead at exactly v_r, and one ulp beyond.
        c = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), max_speed=0.3)
        inside = ped("p1", position=Vec2(P.v_r, 0.0), heading=Vec2(-1, 0), max_speed=1.0)
        beyond = ped("p2", position=Vec2(math.nextafter(P.v_r, 99.0), 0.0), heading=Vec2(-1, 0), max_speed=1.0)
        # A diagonal whose hypot rounds onto the bound, and a car at the bound.
        diagonal = ped("p3", position=Vec2(0.6 * P.v_r, 0.8 * P.v_r), heading=Vec2(-0.6, -0.8), max_speed=1.2)
        lead = car("c2", position=Vec2(P.v_r, 0.0), heading=Vec2(1, 0), max_speed=0.3)
        for scene in (INTERSECTION, ROAD):
            assert recognition_accepts(c, inside, scene is INTERSECTION, scene is ROAD)
            assert not recognition_accepts(c, beyond, True, True)
            out = check_screens([c, lead], [inside, beyond, diagonal], scene)
        assert out.new_conflicts

    @pytest.mark.parametrize("half", [P.fov_half_angle_deg, CAR_CONE_HALF_ANGLE_DEG])
    @pytest.mark.parametrize("delta", [-2e-9, -1e-9, -0.5e-9, 0.0, 0.5e-9, 1e-9, 2e-9])
    def test_bearing_at_the_half_angle(self, half, delta):
        # Pedestrians (and, for the car cone, cars) at the half angle
        # plus or minus the cone's 1e-9 degree band, on both sides.
        c = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), max_speed=0.3)
        cars, peds = [c], []
        for k, sign in enumerate((1.0, -1.0)):
            theta = math.radians(sign * (half + delta))
            pos = Vec2(5.0 * math.cos(theta), 5.0 * math.sin(theta))
            heading = toward(pos, predicted_position(c, P))
            peds.append(ped(f"p{k}", position=pos, heading=heading, max_speed=0.3))
            cars.append(car(f"c{k + 2}", position=pos, heading=Vec2(math.cos(theta), math.sin(theta)), max_speed=0.3))
        for scene in (INTERSECTION, ROAD):
            check_screens(cars, peds, scene)

    @pytest.mark.parametrize("beyond", [False, True])
    def test_predicted_gap_at_exactly_the_safety_distances(self, beyond):
        # The car's predicted point is (2.7, 0); the others stand still
        # (max speed 0) at exactly d_min_pc above it and d_min_cc below.
        assert P.d_min_pc == P.d_min_cc == 8.0
        y = math.nextafter(8.0, 9.0) if beyond else 8.0
        c = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), max_speed=0.3)
        p = ped("p1", position=Vec2(2.7, y), heading=Vec2(0, 1), max_speed=0.0)
        other = car("c2", position=Vec2(2.7, -y), heading=Vec2(1, 0), max_speed=0.0)
        assert predicted_position(c, P).distance_to(predicted_position(p, P)) == y
        assert recognition_accepts(c, p, True, False) is not beyond
        assert recognition_accepts(c, other, True, False) is not beyond
        out = check_screens([c, other], [p], INTERSECTION)
        assert bool(out.new_conflicts) is not beyond

    def test_subnormal_offset_reads_as_dead_ahead(self):
        # The offset's squared norm underflows to 0, so bearing_deg reads
        # 0 although atan2 of the offset itself says 135 degrees.
        c = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), max_speed=0.3)
        p = ped("p1", position=Vec2(-1e-170, 1e-170), heading=Vec2(1, 0), max_speed=0.0)
        assert recognition_accepts(c, p, True, False)
        out = check_screens([c], [p], INTERSECTION)
        assert [x.competitive_users for x in out.new_conflicts] == [("p1",)]

    def test_overflowing_predictions_pass_the_gap_gate(self):
        # Both predicted points overflow to infinity the same way, so
        # the gap is NaN, which no `gap > d_min` test rejects.
        c = car("c1", position=Vec2(0, 0), heading=Vec2(0.6, 0.8), max_speed=1e308)
        p = ped("p1", position=Vec2(3, 4), heading=Vec2(0.6, 0.8), max_speed=1e308)
        gap = predicted_position(c, P).distance_to(predicted_position(p, P))
        assert math.isnan(gap)
        assert recognition_accepts(c, p, True, False)
        out = check_screens([c], [p], INTERSECTION)
        assert [x.competitive_users for x in out.new_conflicts] == [("p1",)]


def numpy_above_math(numpy_rule, math_rule, wanted=3, keep=lambda x, y: True):
    """The first `wanted` seeded first-quadrant points (x, y) that `keep`
    accepts and where numpy_rule(x, y) comes out above math_rule(x, y):
    numpy's and libm's last bits disagree."""
    rng = random.Random(8)
    found = []
    for _ in range(200_000):
        x, y = rng.uniform(0.5, 9.0), rng.uniform(0.5, 9.0)
        if float(numpy_rule(x, y)) > math_rule(x, y) and keep(x, y):
            found.append((x, y))
            if len(found) == wanted:
                return found
    pytest.skip("numpy and math agree on every point tried")


class TestMarginsAreNeeded:
    """Pairs exactly on a band whose numpy value lies above the scalar
    one: only the widened band keeps them."""

    def test_view_range(self):
        for x, y in numpy_above_math(np.hypot, math.hypot):
            params = dataclasses.replace(P, v_r=math.hypot(x, y), d_min_pc=100.0)
            c = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), max_speed=0.0)
            p = ped("p1", position=Vec2(x, y), heading=Vec2(0, 1), max_speed=0.0)
            assert recognition_accepts(c, p, True, False, params)
            out = check_screens([c], [p], INTERSECTION, params=params)
            assert [x.competitive_users for x in out.new_conflicts] == [("p1",)]

    def test_predicted_gap(self):
        for x, y in numpy_above_math(np.hypot, math.hypot):
            params = dataclasses.replace(P, v_r=100.0, d_min_pc=math.hypot(x, y))
            c = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), max_speed=0.0)
            p = ped("p1", position=Vec2(x, y), heading=Vec2(0, 1), max_speed=0.0)
            assert recognition_accepts(c, p, True, False, params)
            out = check_screens([c], [p], INTERSECTION, params=params)
            assert [x.competitive_users for x in out.new_conflicts] == [("p1",)]

    def test_cone(self):
        # The half angle is set so that bearing_deg lands exactly on
        # the cone's edge, half + 1e-9 degrees.
        def degrees(rule_atan2, rule_degrees):
            return lambda x, y: rule_degrees(rule_atan2(y, x))

        def on_edge(x, y):
            theta = bearing_deg(Vec2(1, 0), Vec2(x, y))
            return (theta - 1e-9) + 1e-9 == theta

        points = numpy_above_math(
            degrees(np.arctan2, np.degrees), degrees(math.atan2, math.degrees), keep=on_edge
        )
        for x, y in points:
            half = bearing_deg(Vec2(1, 0), Vec2(x, y)) - 1e-9
            params = dataclasses.replace(P, v_r=100.0, d_min_pc=100.0, fov_half_angle_deg=half)
            c = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), max_speed=0.0)
            p = ped("p1", position=Vec2(x, y), heading=Vec2(0, 1), max_speed=0.0)
            assert recognition_accepts(c, p, True, False, params)
            out = check_screens([c], [p], INTERSECTION, params=params)
            assert [x.competitive_users for x in out.new_conflicts] == [("p1",)]


class TestAgentColumns:
    @given(crowds())
    @settings(max_examples=60, deadline=None)
    def test_columns_are_the_agents_fields(self, crowd):
        cars, peds, _ = crowd
        # Headings of any length, as a hand-built AgentState may have.
        for k, a in enumerate(cars + peds):
            a.heading = a.heading * (1.0, 3.0, 1e-3, 0.7)[k % 4]
        columns = AgentColumns(cars, peds, MIXED)
        k = columns.kinematics
        agents = cars + peds
        assert columns.agents == agents
        for i, a in enumerate(agents):
            unit = a.heading.normalized()
            assert (k.x[i], k.y[i], k.hx[i], k.hy[i]) == (a.position.x, a.position.y, a.heading.x, a.heading.y)
            assert (k.ux[i].hex(), k.uy[i].hex()) == (unit.x.hex(), unit.y.hex())
            assert (k.max_speed[i], k.diameter[i]) == (a.max_speed, a.diameter)
            assert k.is_car[i] == (a.kind is AgentKind.CAR)
        pairs = columns.car_pairs
        for i, c in enumerate(cars):
            for j, a in enumerate(agents):
                offset = a.position - c.position
                assert pairs.distance[i, j] == pytest.approx(offset.norm(), rel=1e-15, abs=0.0)
                theta = bearing_deg(c.heading, offset)
                folded = theta if theta <= 180.0 else 360.0 - theta
                assert pairs.bearing[i, j] == pytest.approx(folded, rel=1e-12, abs=1e-12)

    def test_zone_flags_test_each_zone_kind_once_per_car(self, monkeypatch):
        from sharedspace import scene as scene_mod

        tested = []
        for name in ("in_intersection_zone", "in_road_zone"):
            rule = getattr(scene_mod, name)

            def counting(p, scene, name=name, rule=rule):
                tested.append(name)
                return rule(p, scene)

            monkeypatch.setattr(scene_mod, name, counting)
        # One car in each zone and one in neither.
        cars = [car(f"c{k}", position=Vec2(x, 0.0)) for k, x in enumerate((-10.0, 10.0, 30.0))]
        columns = AgentColumns(cars, [ped("p1")], MIXED)
        assert columns.in_intersection == [True, False, False]
        assert columns.in_road == [False, True, False]
        assert columns.in_intersection == [True, False, False]
        # The road zones are not tested for the car in the intersection.
        assert sorted(tested) == ["in_intersection_zone"] * 3 + ["in_road_zone"] * 2
