"""The per-agent rules on plain floats against their Vec2 forms.

Pair repulsion, the anisotropy weight, the view cone, the predicted
position, the turn sign of `segments_intersect` and the targets of
`car_following_force` and `game.apply_action` were once written with
`Vec2` temporaries. Those
forms are kept below as oracles; the float forms must give the same
bits, for coincident agents, zero headings, overlapping car discs,
cone boundaries, collinear points and signed zeros. `nearest_id` was a
scan of the sorted candidates; that form is its oracle, and the
one-pass form must pick the same id in any candidate order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedspace import forces
from sharedspace.conflicts import nearest_id, predicted_position
from sharedspace.forces import (
    SCALAR_REPULSION_MAX_PAIRS,
    DriveTo,
    _repulsion_xy,
    agent_repulsion,
    anisotropy_factor,
    car_following_force,
    repulsion_sums,
)
from sharedspace.game import Action, apply_action
from sharedspace.geometry import (
    _ANGLE_EPS_DEG,
    _LINE_TOL,
    Vec2,
    _on_segment_xy,
    _orient_sign_xy,
    _within_cone_xy,
    segments_intersect,
)
from sharedspace.params import SfmParams
from sharedspace.scene import AgentColumns, AgentKind, AgentState, Scene, in_field_of_view

PED, CAR = AgentKind.PEDESTRIAN, AgentKind.CAR


# ---- oracles: the Vec2 forms ----


def vec_anisotropy_factor(heading, to_target, anisotropy):
    d = to_target.normalized()
    if d.norm_sq() == 0.0:
        cos_phi = 1.0
    else:
        cos_phi = max(-1.0, min(1.0, heading.normalized().dot(d)))
    return anisotropy + (1.0 - anisotropy) * (1.0 + cos_phi) / 2.0


def vec_agent_repulsion(i, j, params):
    if i.kind is PED and j.kind is PED:
        v0, sigma = params.v0_pp, params.sigma_pp
    else:
        v0, sigma = params.v0_pc, params.sigma_pc
    offset = i.position - j.position
    if offset.norm_sq() == 0.0:
        return i.heading.left_normal().normalized() * v0
    d = i.position.distance_to(j.position)
    if i.kind is CAR:
        d -= i.radius()
    if j.kind is CAR:
        d -= j.radius()
    d = max(0.0, d)
    factor = vec_anisotropy_factor(i.heading, j.position - i.position, params.anisotropy)
    return offset.normalized() * (v0 * math.exp(-d / sigma) * factor)


def vec_repulsion_totals(targets, agents, params):
    totals = []
    for t in targets:
        total = Vec2(0.0, 0.0)
        for other in agents:
            if other.id != t.id:
                total = total + vec_agent_repulsion(t, other, params)
        totals.append(total)
    return totals


def grid_with_temporaries(targets, agents, params, columns):
    """forces._agent_repulsion_grid as it was before it reused its
    temporaries in place: a new array per operation, `v0` and `sigma`
    per (source, target) pair, and the anisotropy cosine as
    hx * -ux + hy * -uy. Its sums must agree to the bit."""
    row = {a.id: r for r, a in enumerate(columns.agents)}
    k = columns.kinematics
    cols = np.array([row[a.id] for a in agents])
    rows = np.array([row[t.id] for t in targets])
    radius = np.where(k.is_car, k.diameter / 2.0, 0.0)
    sx, sy, sr, s_car = k.x[cols, None], k.y[cols, None], radius[cols, None], k.is_car[cols, None]
    tx, ty, tr, t_car = k.x[rows], k.y[rows], radius[rows], k.is_car[rows]
    own = cols[:, None] == rows[None, :]
    ox = tx - sx
    oy = ty - sy
    coincident = (ox * ox + oy * oy == 0.0) & ~own
    pp = ~s_car & ~t_car
    v0 = np.where(pp, params.v0_pp, params.v0_pc)
    sigma = np.where(pp, params.sigma_pp, params.sigma_pc)
    hx, hy = k.ux[rows], k.uy[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.hypot(ox, oy)
        ux, uy = ox / n, oy / n
    d = np.maximum(0.0, n - tr - sr)
    cos_phi = np.clip(hx * -ux + hy * -uy, -1.0, 1.0)
    a = params.anisotropy
    factor = a + (1.0 - a) * (1.0 + cos_phi) / 2.0
    magnitude = v0 * np.exp(-d / sigma) * factor
    fx, fy = ux * magnitude, uy * magnitude
    if coincident.any():
        normals = [t.heading.left_normal().normalized() for t in targets]
        push = np.array([(q.x, q.y) for q in normals])
        fx = np.where(coincident, push[:, 0] * v0, fx)
        fy = np.where(coincident, push[:, 1] * v0, fy)
    fx = np.where(own, 0.0, fx).cumsum(axis=0)[-1]
    fy = np.where(own, 0.0, fy).cumsum(axis=0)[-1]
    return [float(x) for x in fx], [float(y) for y in fy]


def vec_bearing_deg(heading, offset):
    if offset.norm_sq() == 0.0:
        return 0.0
    ang = math.degrees(math.atan2(heading.cross(offset), heading.dot(offset))) % 360.0
    return 0.0 if ang >= 360.0 else ang


def vec_within_cone(heading, offset, half_angle_deg):
    if half_angle_deg >= 180.0:
        return True
    theta = vec_bearing_deg(heading, offset)
    return theta <= half_angle_deg + _ANGLE_EPS_DEG or theta >= 360.0 - half_angle_deg - _ANGLE_EPS_DEG


def vec_in_field_of_view(observer, target, half_angle_deg, range_m):
    if observer.position.distance_to(target) > range_m:
        return False
    return vec_within_cone(observer.heading, target - observer.position, half_angle_deg)


def vec_predicted_position(agent, params):
    return agent.position + agent.heading * (params.s_c * agent.max_speed)


def vec_orient_sign(a, b, c):
    if (b.x, b.y) < (a.x, a.y):
        return -vec_orient_sign(b, a, c)
    v = (b - a).cross(c - a)
    scale = max(1.0, (b - a).norm() * max(1.0, (c - a).norm(), (c - b).norm()))
    if abs(v) <= _LINE_TOL * scale:
        return 0
    return 1 if v > 0.0 else -1


def vec_on_segment(p, a, b):
    return _on_segment_xy(p.x, p.y, a.x, a.y, b.x, b.y)


def vec_segments_intersect(a1, a2, b1, b2):
    o1 = vec_orient_sign(a1, a2, b1)
    o2 = vec_orient_sign(a1, a2, b2)
    o3 = vec_orient_sign(b1, b2, a1)
    o4 = vec_orient_sign(b1, b2, a2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (
        (o1 == 0 and vec_on_segment(b1, a1, a2))
        or (o2 == 0 and vec_on_segment(b2, a1, a2))
        or (o3 == 0 and vec_on_segment(a1, b1, b2))
        or (o4 == 0 and vec_on_segment(a2, b1, b2))
    )


def vec_apply_action_target(agent, action, partner, sfm):
    """The target point of apply_action's DriveTo, as it was computed."""
    if action is Action.CONTINUE:
        front = partner.position + partner.heading * sfm.s_a
        back = partner.position - partner.heading * (sfm.s_a / 2.0)
        if vec_segments_intersect(agent.position, agent.goal, front, back):
            return front
        return agent.next_waypoint()
    if vec_in_field_of_view(agent, partner.position, sfm.fov_half_angle_deg, sfm.v_r):
        return partner.position - partner.heading * sfm.s_a
    return agent.next_waypoint()


def sorted_scan_nearest_id(agent, candidates, agents):
    best = None
    best_d = float("inf")
    for cid in sorted(candidates):
        other = agents.get(cid)
        if other is None:
            continue
        d = agent.position.distance_to(other.position)
        if d < best_d:
            best = cid
            best_d = d
    return best


# ---- inputs ----


def bits(*values):
    return tuple(float.hex(v) for v in values)


# Half-metre grid values and signed zeros make coincident agents, equal
# coordinates and collinear points common; the floats reach rounding.
ZEROS = st.sampled_from([0.0, -0.0])
coord = st.one_of(ZEROS, st.integers(-8, 8).map(lambda k: k * 0.5), st.floats(-1e3, 1e3))
point = st.builds(Vec2, coord, coord)
# Offsets down to where the squared norm underflows to 0 (1e-170) while
# the norm does not.
tiny = st.sampled_from([0.0, -0.0, 5e-324, 1e-170, -1e-170, 1e-9, 0.3, -0.7, 1.0, 2.5])
heading = st.one_of(
    st.sampled_from([Vec2(0.0, 0.0), Vec2(-0.0, 0.0), Vec2(0.0, -0.0), Vec2(1.0, 0.0), Vec2(0.0, -1.0), Vec2(1e-200, 0.0)]),
    st.builds(Vec2, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
anisotropy = st.one_of(st.sampled_from([0.0, 1.0, 0.2]), st.floats(0.0, 1.0))
params = st.builds(
    SfmParams,
    anisotropy=anisotropy,
    v0_pp=st.floats(0.1, 5.0),
    v0_pc=st.floats(1.0, 20.0),
    sigma_pp=st.floats(0.05, 2.0),
    sigma_pc=st.floats(0.05, 2.0),
)


def agent(agent_id, kind, position, head, diameter=0.5, max_speed=1.5, goal=Vec2(0.0, 0.0)):
    return AgentState(
        id=agent_id, kind=kind, position=position, velocity=Vec2(0.0, 0.0),
        desired_speed=1.0, max_speed=max_speed, goal=goal, heading=head, diameter=diameter,
    )


@st.composite
def agents(draw, n):
    """n agents, each placed at a drawn point or at a small offset from
    an earlier agent, so that coincident agents and car discs that
    overlap (d clamped to 0) come up often."""
    out = []
    for k in range(n):
        if out and draw(st.booleans()):
            near = draw(st.sampled_from(out)).position
            position = Vec2(near.x + draw(tiny), near.y + draw(tiny))
        else:
            position = draw(point)
        kind = draw(st.sampled_from([PED, CAR]))
        diameter = draw(st.sampled_from([0.5, 2.0]) | st.floats(0.1, 3.0))
        out.append(agent(f"a{k}", kind, position, draw(heading), diameter))
    return out


# ---- pair repulsion and the anisotropy weight ----


class TestPairRepulsion:
    @settings(max_examples=400, deadline=None)
    @given(agents(2), params)
    def test_matches_the_vec2_form(self, pair, p):
        i, j = pair
        want = vec_agent_repulsion(i, j, p)
        assert bits(*_repulsion_xy(i, j, p)) == bits(want.x, want.y)
        got = agent_repulsion(i, j, p)
        assert bits(got.x, got.y) == bits(want.x, want.y)

    @pytest.mark.parametrize("kinds", [(PED, PED), (PED, CAR), (CAR, PED), (CAR, CAR)])
    @pytest.mark.parametrize("head", [Vec2(0.0, 0.0), Vec2(-0.0, -0.0), Vec2(0.6, -0.8)])
    @pytest.mark.parametrize("a", [0.0, 1.0, 0.2])
    @pytest.mark.parametrize("gap", [0.0, 1e-170, 0.4, 1.9, 7.0])
    def test_fixed_cases(self, kinds, head, a, gap):
        # gap 0 is coincident, 1e-170 has a squared norm of 0, and 0.4
        # and 1.9 put the disc of a car over the other agent.
        i = agent("i", kinds[0], Vec2(3.0, -1.0), head, diameter=2.0)
        j = agent("j", kinds[1], Vec2(3.0 + gap, -1.0 + gap / 2.0), Vec2(0.0, 1.0), diameter=2.0)
        p = SfmParams(anisotropy=a)
        want = vec_agent_repulsion(i, j, p)
        assert bits(*_repulsion_xy(i, j, p)) == bits(want.x, want.y)

    @settings(max_examples=300, deadline=None)
    @given(heading, st.one_of(st.builds(Vec2, tiny, tiny), point), anisotropy)
    def test_anisotropy_factor(self, head, to_target, a):
        assert bits(anisotropy_factor(head, to_target, a)) == bits(vec_anisotropy_factor(head, to_target, a))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9).flatmap(agents), params, st.data())
    def test_scalar_totals_sum_in_agent_order(self, crowd, p, data):
        # Up to SCALAR_REPULSION_MAX_PAIRS pairs: the scalar path.
        most = SCALAR_REPULSION_MAX_PAIRS // (len(crowd) - 1)
        targets = data.draw(st.lists(st.sampled_from(crowd), min_size=1, max_size=most, unique_by=lambda a: a.id))
        xs, ys = repulsion_sums(targets, crowd, p, AgentColumns(crowd, Scene()))
        want = vec_repulsion_totals(targets, crowd, p)
        assert [bits(x, y) for x, y in zip(xs, ys)] == [bits(v.x, v.y) for v in want]


    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12).flatmap(agents), params, st.booleans(), st.data())
    def test_grid_matches_its_form_with_temporaries(self, crowd, p, pedestrians_only, data):
        pool = [a for a in crowd if a.kind is PED] if pedestrians_only else crowd
        targets = data.draw(st.lists(st.sampled_from(pool or crowd), min_size=1, unique_by=lambda a: a.id))
        columns = AgentColumns(crowd, Scene())
        got = forces._agent_repulsion_grid(targets, crowd, p, columns)
        want = grid_with_temporaries(targets, crowd, p, columns)
        assert [bits(*v) for v in zip(*got)] == [bits(*v) for v in zip(*want)]


# ---- the view cone ----


class TestCone:
    @settings(max_examples=400, deadline=None)
    @given(heading, st.one_of(st.builds(Vec2, tiny, tiny), point), st.data())
    def test_matches_the_vec2_form_on_and_beside_the_boundary(self, head, offset, data):
        theta = vec_bearing_deg(head, offset)
        edge = theta if theta <= 180.0 else 360.0 - theta
        half = data.draw(st.one_of(
            st.sampled_from([
                edge, edge - _ANGLE_EPS_DEG, edge + _ANGLE_EPS_DEG,
                math.nextafter(edge - _ANGLE_EPS_DEG, -math.inf),
                math.nextafter(edge - _ANGLE_EPS_DEG, math.inf),
                0.0, 179.99999999, 180.0, 270.0,
            ]),
            st.floats(0.0, 180.0),
        ))
        want = vec_within_cone(head, offset, half)
        assert _within_cone_xy(head.x, head.y, offset.x, offset.y, half) is want

    @pytest.mark.parametrize("offset", [Vec2(0.0, 0.0), Vec2(-0.0, 0.0), Vec2(1e-170, -1e-170)])
    def test_a_zero_offset_is_dead_ahead(self, offset):
        # bearing 0 degrees: inside any cone, as in the Vec2 form
        want = vec_within_cone(Vec2(0.0, 1.0), offset, 0.0)
        assert _within_cone_xy(0.0, 1.0, offset.x, offset.y, 0.0) is want is True

    def test_a_half_angle_of_180_sees_everything(self):
        assert _within_cone_xy(1.0, 0.0, -1.0, -0.0, 180.0)
        assert _within_cone_xy(0.0, 0.0, -1.0, 0.0, 180.0)

    @settings(max_examples=300, deadline=None)
    @given(agents(1), point, st.floats(0.0, 180.0), st.one_of(st.floats(0.0, 40.0), st.sampled_from([0.0, 18.4])))
    def test_field_of_view_matches_the_vec2_form(self, observer, target, half, view_range):
        (a,) = observer
        assert in_field_of_view(a, target, half, view_range) is vec_in_field_of_view(a, target, half, view_range)


# ---- predicted position ----


class TestPredictedPosition:
    @settings(max_examples=300, deadline=None)
    @given(point, heading, st.floats(0.0, 20.0), st.floats(0.1, 30.0))
    def test_matches_the_vec2_form(self, position, head, max_speed, s_c):
        a = agent("a", CAR, position, head, max_speed=max_speed)
        p = SfmParams(s_c=s_c)
        got, want = predicted_position(a, p), vec_predicted_position(a, p)
        assert bits(got.x, got.y) == bits(want.x, want.y)


# ---- the turn sign and the segment test built on it ----


@st.composite
def collinear_triples(draw):
    """Points a, b and c = a + t (b - a): collinear up to rounding."""
    a, b = draw(point), draw(point)
    t = draw(st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0, 1e-12]) | st.floats(-3.0, 3.0))
    return a, b, Vec2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


signed_zero_point = st.builds(Vec2, st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


class TestOrientSign:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.tuples(point, point, point), collinear_triples(),
                     st.tuples(signed_zero_point, signed_zero_point, signed_zero_point)))
    def test_matches_the_vec2_form_either_way_round(self, triple):
        a, b, c = triple
        for p, q in ((a, b), (b, a)):
            assert _orient_sign_xy(p.x, p.y, q.x, q.y, c.x, c.y) == vec_orient_sign(p, q, c)

    @pytest.mark.parametrize("a, b, c", [
        (Vec2(0.0, 0.0), Vec2(-0.0, 1.0), Vec2(0.0, 2.0)),
        (Vec2(-0.0, 0.0), Vec2(0.0, -0.0), Vec2(1.0, 1.0)),
        (Vec2(1.0, 1.0), Vec2(-1.0, -1.0), Vec2(0.0, 1e-12)),
        (Vec2(3.0, 0.0), Vec2(0.0, 0.0), Vec2(1.0, 1e-10)),
    ])
    def test_fixed_cases(self, a, b, c):
        for p, q in ((a, b), (b, a)):
            assert _orient_sign_xy(p.x, p.y, q.x, q.y, c.x, c.y) == vec_orient_sign(p, q, c)

    @pytest.mark.parametrize("a, b, c", [
        (Vec2(-73.12715117751975, 69.48674738744654), Vec2(52.75492379532281, -48.98619485211566),
         Vec2(-13.059317173841851, 12.954369649905253)),
        (Vec2(67.15302078397394, -13.446586418989327), Vec2(52.4560164915884, -99.57878932977786),
         Vec2(63.81774192134589, -32.9930814697485)),
    ])
    def test_swapping_the_endpoints_only_flips_the_sign(self, a, b, c):
        # c lies at the edge of the zero band, where the cross product
        # rounds to either side of it depending on which endpoint it is
        # taken from: only the canonical endpoint order keeps the two
        # orientations opposite.
        assert _orient_sign_xy(a.x, a.y, b.x, b.y, c.x, c.y) == -_orient_sign_xy(b.x, b.y, a.x, a.y, c.x, c.y)
        assert _orient_sign_xy(a.x, a.y, b.x, b.y, c.x, c.y) == vec_orient_sign(a, b, c)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(point, point, point, point),
                     collinear_triples().flatmap(lambda t: st.tuples(st.just(t[0]), st.just(t[1]), st.just(t[2]), point)),
                     st.tuples(signed_zero_point, signed_zero_point, signed_zero_point, signed_zero_point)))
    def test_segments_intersect_matches_the_vec2_form(self, quad):
        a1, a2, b1, b2 = quad
        assert segments_intersect(a1, a2, b1, b2) == vec_segments_intersect(a1, a2, b1, b2)


# ---- car following ----


class TestCarFollowing:
    @settings(max_examples=300, deadline=None)
    @given(point, point, heading, st.one_of(st.builds(Vec2, tiny, tiny), point), st.floats(0.5, 12.0))
    def test_target_matches_the_vec2_form(self, at, leader_at, head, velocity, d_min_cc):
        car = agent("c1", CAR, at, Vec2(1.0, 0.0), diameter=2.0)
        leader = agent("c2", CAR, leader_at, head, diameter=2.0)
        leader.velocity = velocity
        directive = car_following_force(car, leader, SfmParams(d_min_cc=d_min_cc))
        if isinstance(directive, DriveTo):
            # the Vec2 form: one safety gap along the leader's direction
            # of motion, its heading when it stands still
            leader_dir = velocity.normalized()
            if leader_dir.norm_sq() == 0.0:
                leader_dir = head
            want = at + leader_dir * d_min_cc
            assert bits(directive.target.x, directive.target.y) == bits(want.x, want.y)


# ---- game action targets ----


class TestApplyAction:
    @settings(max_examples=300, deadline=None)
    @given(point, point, heading, st.floats(-0.5, 1.5), st.builds(Vec2, tiny, tiny),
           st.sampled_from([Action.CONTINUE, Action.DEVIATE]), st.floats(0.5, 12.0))
    def test_targets_match_the_vec2_form(self, at, goal, head, t, off, action, s_a):
        # The partner stands near the pedestrian's line to its goal, so
        # its frontal segment often cuts that line.
        partner_at = Vec2(at.x + t * (goal.x - at.x) + off.x, at.y + t * (goal.y - at.y) + off.y)
        ped = agent("p", PED, at, Vec2(0.0, 1.0), goal=goal)
        partner = agent("c", CAR, partner_at, head, diameter=2.0)
        sfm = SfmParams(s_a=s_a)
        directive = apply_action(ped, action, partner, sfm)
        assert isinstance(directive, DriveTo)
        want = vec_apply_action_target(ped, action, partner, sfm)
        assert bits(directive.target.x, directive.target.y) == bits(want.x, want.y)

    @pytest.mark.parametrize("crossing_x, cuts", [(5.0, True), (-3.0, True), (-5.0, False), (7.5, False)])
    def test_continue_crosses_ahead_when_its_line_cuts_the_car_front(self, crossing_x, cuts):
        # The car's frontal segment runs from s_a ahead of it to s_a / 2
        # behind it: here from (7, 0) back to (-3.5, 0).
        car = agent("c", CAR, Vec2(0.0, 0.0), Vec2(1.0, 0.0), diameter=2.0)
        ped = agent("p", PED, Vec2(crossing_x, -3.0), Vec2(0.0, 1.0), goal=Vec2(crossing_x, 3.0))
        sfm = SfmParams(s_a=7.0)
        directive = apply_action(ped, Action.CONTINUE, car, sfm)
        assert directive.target == (Vec2(7.0, 0.0) if cuts else ped.goal)
        assert directive.target == vec_apply_action_target(ped, Action.CONTINUE, car, sfm)


# ---- the nearest candidate ----


NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
GRID = st.integers(-6, 6).map(lambda k: k * 0.5)
# Ids the agents may take, and ids no agent has.
PRESENT_IDS = ["a0", "a1", "a10", "a2", "b", "o"]
ABSENT_IDS = ["gone", "a3"]


@st.composite
def nearest_cases(draw):
    """An observer and agents around it. On the half-metre grid every
    distance is exact, so offsets that swap or negate an earlier one tie
    exactly; agents also sit on the observer, at arbitrary floats, and
    at infinite or NaN coordinates."""
    observer_at = Vec2(draw(GRID | NON_FINITE | st.floats(-1e3, 1e3)), draw(GRID))
    offsets: list[tuple[float, float]] = []
    by_id = {}
    for aid in draw(st.lists(st.sampled_from(PRESENT_IDS), unique=True)):
        how = draw(st.sampled_from(["tie", "grid", "on", "float", "non_finite"]))
        if how == "tie" and offsets:
            dx, dy = draw(st.sampled_from(offsets))
            sx, sy = draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([1.0, -1.0]))
            dx, dy = (sx * dx, sy * dy) if draw(st.booleans()) else (sx * dy, sy * dx)
        elif how == "on":
            dx, dy = 0.0, 0.0
        elif how == "float":
            dx, dy = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
        elif how == "non_finite":
            dx, dy = draw(NON_FINITE), draw(GRID | NON_FINITE)
        else:
            dx, dy = draw(GRID), draw(GRID)
        offsets.append((dx, dy))
        position = Vec2(observer_at.x + dx, observer_at.y + dy)
        by_id[aid] = agent(aid, draw(st.sampled_from([PED, CAR])), position, Vec2(1.0, 0.0))
    observer = by_id.get("o") or agent("o", CAR, observer_at, Vec2(1.0, 0.0))
    candidates = draw(st.lists(st.sampled_from(PRESENT_IDS + ABSENT_IDS), max_size=12))
    return observer, candidates, by_id


class TestNearestId:
    @settings(max_examples=600, deadline=None)
    @given(nearest_cases(), st.data())
    def test_matches_the_sorted_scan_in_any_order(self, case, data):
        observer, candidates, by_id = case
        want = sorted_scan_nearest_id(observer, candidates, by_id)
        assert nearest_id(observer, candidates, by_id) == want
        assert nearest_id(observer, reversed(candidates), by_id) == want
        assert nearest_id(observer, data.draw(st.permutations(candidates)), by_id) == want
        assert nearest_id(observer, set(candidates), by_id) == want
        assert nearest_id(observer, iter(candidates), by_id) == want

    @pytest.mark.parametrize("order", [["p2", "p1", "p3"], ["p3", "p1", "p2"], ["p1", "p3", "p2"]])
    def test_an_exact_tie_goes_to_the_smallest_id(self, order):
        observer = agent("c", CAR, Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        by_id = {
            "p1": agent("p1", PED, Vec2(0.0, 2.0), Vec2(1.0, 0.0)),
            "p2": agent("p2", PED, Vec2(-2.0, 0.0), Vec2(1.0, 0.0)),
            "p3": agent("p3", PED, Vec2(0.0, -2.0), Vec2(1.0, 0.0)),
        }
        assert nearest_id(observer, order, by_id) == "p1"
        assert nearest_id(observer, set(order), by_id) == "p1"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_absent_and_non_finite_candidates_lose(self, bad):
        observer = agent("c", CAR, Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        by_id = {"p0": agent("p0", PED, Vec2(bad, 0.0), Vec2(1.0, 0.0))}
        assert nearest_id(observer, ["p0", "gone"], by_id) is None
        by_id["p9"] = agent("p9", PED, Vec2(1e300, 1e300), Vec2(1.0, 0.0))
        assert nearest_id(observer, {"p0", "gone", "p9"}, by_id) == "p9"
