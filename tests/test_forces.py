import dataclasses
import math
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import car, ped
from sharedspace import forces
from sharedspace.forces import (
    SCALAR_REPULSION_MAX_PAIRS,
    DriveTo,
    SetSpeed,
    agent_repulsion,
    anisotropy_factor,
    brake_for,
    car_following_force,
    decel_rate,
    driving_force,
    in_stopping_corridor,
    integrate_step,
    obstacle_repulsion,
    reactive_stopping,
    repulsion_sums,
)
from sharedspace.geometry import ObstacleIndex, Vec2
from sharedspace.params import SfmParams
from sharedspace.scene import AgentColumns, AgentKind, AgentState, Rect, Scene

P = SfmParams()


def obstacle_scene(poly):
    return Scene(
        obstacles=(tuple(poly),),
        intersection_zones=(),
        road_zones=(),
        bounds=Rect(-100, -100, 100, 100),
    )


class TestDrivingForce:
    def test_at_rest_accelerates_toward_target(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0), speed=0.0)
        f = driving_force(a, Vec2(10, 0), speed=1.4, tau=0.5)
        assert f.x == pytest.approx(1.4 / 0.5)
        assert f.y == 0.0

    def test_at_desired_velocity_zero_force(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0), speed=1.4)
        f = driving_force(a, Vec2(10, 0), speed=1.4, tau=0.5)
        assert f.norm() == pytest.approx(0.0, abs=1e-12)

    def test_overspeed_brakes(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0), speed=2.0)
        f = driving_force(a, Vec2(10, 0), speed=1.0, tau=0.5)
        assert f.x == pytest.approx((1.0 - 2.0) / 0.5)

    def test_target_at_own_position_uses_heading(self):
        a = ped(position=Vec2(3, 3), heading=Vec2(0, 1), speed=0.0)
        f = driving_force(a, Vec2(3, 3), speed=1.0, tau=0.5)
        assert f.y > 0.0


class TestAnisotropy:
    def test_dead_ahead_is_one(self):
        assert anisotropy_factor(Vec2(1, 0), Vec2(5, 0), 0.2) == 1.0

    def test_directly_behind_is_lambda(self):
        assert anisotropy_factor(Vec2(1, 0), Vec2(-5, 0), 0.2) == pytest.approx(0.2)

    def test_side_is_midpoint(self):
        got = anisotropy_factor(Vec2(1, 0), Vec2(0, 5), 0.2)
        assert got == pytest.approx(0.2 + 0.8 * 0.5)

    @given(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_bounded(self, phi, lam):
        got = anisotropy_factor(Vec2(1, 0), Vec2(math.cos(phi), math.sin(phi)), lam)
        assert lam - 1e-12 <= got <= 1.0 + 1e-12


class TestAgentRepulsion:
    def test_ped_ped_closed_form_head_on(self):
        # Target dead ahead: anisotropy factor is exactly 1.
        a = ped("a", position=Vec2(0, 0), heading=Vec2(1, 0))
        b = ped("b", position=Vec2(0.4, 0), heading=Vec2(-1, 0))
        f = agent_repulsion(a, b, P)
        expected = 1.4 * math.exp(-0.4 / 0.4)
        assert f.norm() == pytest.approx(expected, rel=1e-12)
        assert f.x < 0.0  # pushes a away from b

    def test_ped_ped_behind_scaled_by_lambda(self):
        a = ped("a", position=Vec2(0, 0), heading=Vec2(1, 0))
        b = ped("b", position=Vec2(-0.4, 0), heading=Vec2(1, 0))
        f = agent_repulsion(a, b, P)
        expected = 1.4 * math.exp(-1.0) * 0.2
        assert f.norm() == pytest.approx(expected, rel=1e-12)

    def test_ped_car_uses_pc_constants_and_disc_distance(self):
        a = ped("a", position=Vec2(0, 0), heading=Vec2(1, 0))
        b = car("b", position=Vec2(3, 0), heading=Vec2(-1, 0), diameter=2.0)
        f = agent_repulsion(a, b, P)
        d = 3.0 - 1.0  # car radius subtracted
        expected = 10.0 * math.exp(-d / 0.2) * 1.0
        assert f.norm() == pytest.approx(expected, rel=1e-12)

    def test_car_car_subtracts_both_radii(self):
        a = car("a", position=Vec2(0, 0), heading=Vec2(1, 0), diameter=2.0)
        b = car("b", position=Vec2(5, 0), heading=Vec2(-1, 0), diameter=2.0)
        f = agent_repulsion(a, b, P)
        expected = 10.0 * math.exp(-3.0 / 0.2) * 1.0
        assert f.norm() == pytest.approx(expected, rel=1e-12)

    def test_disc_distance_clamped_at_zero(self):
        a = ped("a", position=Vec2(0, 0), heading=Vec2(1, 0))
        b = car("b", position=Vec2(0.5, 0), heading=Vec2(-1, 0), diameter=2.0)
        f = agent_repulsion(a, b, P)
        assert f.norm() == pytest.approx(10.0, rel=1e-12)  # exp(0) = 1

    def test_strictly_monotone_in_distance(self):
        rng = random.Random(3)
        for _ in range(1000):
            d1 = rng.uniform(0.05, 10.0)
            d2 = d1 + rng.uniform(0.01, 5.0)
            a = ped("a", position=Vec2(0, 0), heading=Vec2(1, 0))
            f1 = agent_repulsion(a, ped("b", position=Vec2(d1, 0)), P).norm()
            f2 = agent_repulsion(a, ped("b", position=Vec2(d2, 0)), P).norm()
            assert f1 > f2

    def test_coincident_agents_finite_push(self):
        a = ped("a", position=Vec2(1, 1), heading=Vec2(1, 0))
        b = ped("b", position=Vec2(1, 1))
        f = agent_repulsion(a, b, P)
        assert f.norm() == pytest.approx(1.4, rel=1e-12)


def sequential_totals(targets, agents, params=P):
    """The reference: agent_repulsion summed one pair at a time, plus
    the sum of the pair forces' magnitudes that scales the tolerance."""
    out = []
    for t in targets:
        total, scale = Vec2(0.0, 0.0), 0.0
        for other in agents:
            if other.id == t.id:
                continue
            f = agent_repulsion(t, other, params)
            total, scale = total + f, scale + f.norm()
        out.append((total, scale))
    return out


def repulsion_totals(targets, agents, params=P):
    """repulsion_sums over a snapshot of `agents`, one Vec2 per target."""
    xs, ys = repulsion_sums(targets, agents, params, AgentColumns(agents, Scene()))
    return [Vec2(x, y) for x, y in zip(xs, ys)]


def assert_matches_sequential(targets, agents, params=P):
    got = repulsion_totals(targets, agents, params)
    assert len(got) == len(targets)
    for g, (want, scale) in zip(got, sequential_totals(targets, agents, params)):
        assert abs(g.x - want.x) <= 1e-12 * scale
        assert abs(g.y - want.y) <= 1e-12 * scale


# Coordinates on a 0.25 m grid, so generated crowds often hold
# coincident agents; headings include zero.
_coord = st.integers(-24, 24).map(lambda k: k * 0.25)
_agent = st.tuples(
    st.sampled_from([AgentKind.PEDESTRIAN, AgentKind.CAR]),
    _coord,
    _coord,
    st.sampled_from([Vec2(1, 0), Vec2(0, -1), Vec2(0.6, 0.8), Vec2(-3, 1), Vec2(0, 0)]),
    st.sampled_from([0.5, 1.0, 2.0, 3.5]),
)


class TestAgentRepulsionTotals:
    @given(
        st.lists(_agent, min_size=1, max_size=40),
        st.lists(st.booleans(), min_size=40, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_sum_on_mixed_crowds(self, specs, chosen):
        agents = [
            (car if kind is AgentKind.CAR else ped)(
                f"a{k}", position=Vec2(x, y), heading=h, diameter=diameter
            )
            for k, (kind, x, y, h, diameter) in enumerate(specs)
        ]
        targets = [a for a, keep in zip(agents, chosen) if keep]
        assert_matches_sequential(targets, agents)
        assert_matches_sequential(agents, agents)

    def test_no_targets(self):
        assert repulsion_totals([], [], P) == []
        assert repulsion_totals([], [ped("a"), car("b")], P) == []

    def test_single_agent_feels_nothing(self):
        a = ped("a", position=Vec2(2, 3))
        assert repulsion_totals([a], [a], P) == [Vec2(0.0, 0.0)]

    def test_coincident_agents_push_along_left_normal(self):
        a = ped("a", position=Vec2(1, 1), heading=Vec2(1, 0))
        b = ped("b", position=Vec2(1, 1), heading=Vec2(0, 1))
        got = repulsion_totals([a, b], [a, b], P)
        assert got == [Vec2(0.0, 1.4), Vec2(-1.4, 0.0)]
        assert got == [agent_repulsion(a, b, P), agent_repulsion(b, a, P)]

    def test_zero_heading(self):
        a = ped("a", position=Vec2(0, 0), heading=Vec2(0, 0))
        b = ped("b", position=Vec2(0.4, 0))
        c = ped("c", position=Vec2(0, 0))
        # Away from b at the side weight; no push from the coincident c.
        [got] = repulsion_totals([a], [a, b, c], P)
        assert got.x == pytest.approx(-1.4 * math.exp(-1.0) * 0.6, rel=1e-12)
        assert got.y == 0.0
        assert_matches_sequential([a], [a, b, c])

    def test_car_target_subtracts_both_radii(self):
        a = car("a", position=Vec2(0, 0), heading=Vec2(1, 0), diameter=2.0)
        b = car("b", position=Vec2(5, 0), heading=Vec2(-1, 0), diameter=3.0)
        [got] = repulsion_totals([a], [a, b], P)
        assert got.x == pytest.approx(-10.0 * math.exp(-2.5 / 0.2), rel=1e-12)
        assert got.y == 0.0
        assert_matches_sequential([a], [a, b])

    def test_wide_pedestrian_range(self):
        wide = dataclasses.replace(P, sigma_pp=4 * P.sigma_pp)
        rng = random.Random(7)
        agents = [
            (car if k % 5 == 0 else ped)(
                f"a{k}",
                position=Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                heading=Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            for k in range(25)
        ]
        assert_matches_sequential(agents, agents, wide)
        assert repulsion_totals(agents, agents, wide) != repulsion_totals(
            agents, agents, P
        )


def bits(*vectors):
    return [(v.x.hex(), v.y.hex()) for v in vectors]


def sequential_bits(targets, agents):
    """Bits of the reference sums: exactly the totals up to the crossover."""
    return bits(*(total for total, _ in sequential_totals(targets, agents)))


@pytest.fixture
def grid_calls(monkeypatch):
    """Count the numpy passes repulsion_sums makes."""
    calls = []
    grid = forces._agent_repulsion_grid

    def counting(targets, agents, params, *columns):
        calls.append(len(targets) * (len(agents) - 1))
        return grid(targets, agents, params, *columns)

    monkeypatch.setattr(forces, "_agent_repulsion_grid", counting)
    return calls


class TestRepulsionCrossover:
    @given(st.lists(_agent, min_size=1, max_size=SCALAR_REPULSION_MAX_PAIRS + 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_exact_sequential_sum_up_to_the_crossover(self, specs, data):
        agents = [
            (car if kind is AgentKind.CAR else ped)(
                f"a{k}", position=Vec2(x, y), heading=h, diameter=diameter
            )
            for k, (kind, x, y, h, diameter) in enumerate(specs)
        ]
        most = max(1, SCALAR_REPULSION_MAX_PAIRS // max(1, len(agents) - 1))
        targets = data.draw(st.lists(st.sampled_from(agents), min_size=1, max_size=most, unique_by=lambda a: a.id))
        got = repulsion_totals(targets, agents, P)
        assert bits(*got) == sequential_bits(targets, agents)

    def row(self, n):
        # A lane of pedestrians 0.3 m apart: every pair pushes.
        return [ped(f"p{k}", position=Vec2(0.3 * k, 0.1 * (k % 2)), heading=Vec2(1, 0)) for k in range(n)]

    def test_at_the_crossover_sums_pair_by_pair(self, grid_calls):
        agents = self.row(SCALAR_REPULSION_MAX_PAIRS + 1)
        got = repulsion_totals(agents[:1], agents, P)
        assert grid_calls == []
        assert bits(*got) == sequential_bits(agents[:1], agents)

    def test_above_the_crossover_takes_one_numpy_pass(self, grid_calls):
        agents = self.row(SCALAR_REPULSION_MAX_PAIRS + 2)
        assert_matches_sequential(agents[:1], agents)
        assert grid_calls == [SCALAR_REPULSION_MAX_PAIRS + 1]


class TestObstacleRepulsion:
    SQUARE = (Vec2(0, 0), Vec2(4, 0), Vec2(4, 4), Vec2(0, 4))

    def test_closed_form_magnitude(self):
        scene = obstacle_scene(self.SQUARE)
        a = ped(position=Vec2(2, 5), heading=Vec2(1, 0))
        f = obstacle_repulsion(a, ObstacleIndex(scene.obstacles), P)
        expected = 10.0 * math.exp(-1.0 / 0.2)
        assert f.norm() == pytest.approx(expected, rel=1e-12)
        assert f.y > 0.0  # pushes away from the wall

    def test_on_boundary_full_strength_outward(self):
        scene = obstacle_scene(self.SQUARE)
        a = ped(position=Vec2(2, 4), heading=Vec2(1, 0))
        f = obstacle_repulsion(a, ObstacleIndex(scene.obstacles), P)
        assert f.norm() == pytest.approx(10.0, rel=1e-12)
        assert f.y > 0.0

    def test_two_obstacles_sum(self):
        scene = Scene(
            obstacles=(self.SQUARE, (Vec2(0, 6), Vec2(4, 6), Vec2(4, 10), Vec2(0, 10))),
            intersection_zones=(),
            road_zones=(),
            bounds=Rect(-100, -100, 100, 100),
        )
        a = ped(position=Vec2(2, 5), heading=Vec2(1, 0))
        f = obstacle_repulsion(a, ObstacleIndex(scene.obstacles), P)
        # Symmetric gap: the two pushes cancel.
        assert f.norm() == pytest.approx(0.0, abs=1e-12)


class TestCarFollowing:
    def test_steer_when_gap_at_least_safety(self):
        follower = car("f", position=Vec2(0, 0), heading=Vec2(1, 0))
        leader = car("l", position=Vec2(10, 0), heading=Vec2(1, 0), speed=3.0)
        out = car_following_force(follower, leader, P)
        # one safety gap along leader motion, at the follower's cruise speed
        assert out == DriveTo(Vec2(8.0, 0.0), follower.desired_speed)

    def test_decelerate_when_too_close(self):
        follower = car("f", position=Vec2(0, 0), heading=Vec2(1, 0), speed=4.0)
        leader = car("l", position=Vec2(5, 0), heading=Vec2(1, 0))
        out = car_following_force(follower, leader, P)
        assert out == brake_for(follower, leader, P) == SetSpeed(2.0)

    def test_stationary_leader_uses_heading(self):
        follower = car("f", position=Vec2(0, 0), heading=Vec2(1, 0))
        leader = car("l", position=Vec2(9, 0), heading=Vec2(0, 1), speed=0.0)
        out = car_following_force(follower, leader, P)
        assert isinstance(out, DriveTo)
        assert out.target == Vec2(0.0, 8.0)


class TestBrakeFor:
    def test_safety_distance_by_kind_of_other(self):
        params = dataclasses.replace(P, d_min_pc=5.0, d_min_cc=7.0)
        c = car("c", position=Vec2(0, 0), heading=Vec2(1, 0), speed=4.0)
        # 6 m beyond a pedestrian's 5 m safety distance: 16 / 1 = 4, so a stop
        assert brake_for(c, ped("p", position=Vec2(6, 0)), params) == SetSpeed(0.0)
        # 6 m inside a car's 7 m safety distance: half speed
        assert brake_for(c, car("o", position=Vec2(6, 0)), params) == SetSpeed(2.0)

    def test_far_beyond_safety_distance_slows_gently(self):
        c = car("c", position=Vec2(0, 0), heading=Vec2(1, 0), speed=4.0)
        other = car("o", position=Vec2(24, 0))
        assert brake_for(c, other, P) == SetSpeed(4.0 - 16.0 / 16.0)


class TestDecelRate:
    def test_within_safety_distance_half_speed(self):
        assert decel_rate(6.0, 8.0, 8.0) == pytest.approx(3.0, rel=1e-12)
        assert decel_rate(6.0, 2.0, 8.0) == pytest.approx(3.0, rel=1e-12)

    def test_beyond_safety_distance_quadratic(self):
        assert decel_rate(6.0, 12.0, 8.0) == pytest.approx(36.0 / 4.0, rel=1e-12)
        assert decel_rate(2.0, 10.5, 8.0) == pytest.approx(4.0 / 2.5, rel=1e-12)

    def test_random_piecewise(self):
        rng = random.Random(11)
        for _ in range(1000):
            speed = rng.uniform(0.0, 15.0)
            d = rng.uniform(0.0, 30.0)
            expected = speed / 2.0 if d <= 8.0 else speed * speed / (d - 8.0)
            assert decel_rate(speed, d, 8.0) == pytest.approx(expected, rel=1e-12)


class TestStoppingCorridor:
    def test_ped_ahead_in_corridor(self):
        c = car(position=Vec2(0, 0), heading=Vec2(1, 0), diameter=2.0)
        p = ped(position=Vec2(4, 0.5), diameter=0.5)
        assert in_stopping_corridor(c, p, P)

    def test_ped_too_far_ahead(self):
        c = car(position=Vec2(0, 0), heading=Vec2(1, 0))
        p = ped(position=Vec2(9, 0))
        assert not in_stopping_corridor(c, p, P)

    def test_ped_beside_outside_lane(self):
        c = car(position=Vec2(0, 0), heading=Vec2(1, 0), diameter=2.0)
        p = ped(position=Vec2(4, 2.0), diameter=0.5)
        assert not in_stopping_corridor(c, p, P)

    def test_ped_behind_excluded(self):
        c = car(position=Vec2(0, 0), heading=Vec2(1, 0))
        p = ped(position=Vec2(-3, 0))
        assert not in_stopping_corridor(c, p, P)

    def test_reactive_stopping_requires_crossing_motion(self):
        c = car(position=Vec2(0, 0), heading=Vec2(1, 0), diameter=2.0)
        crossing = ped(position=Vec2(4, 0), heading=Vec2(0, 1), speed=1.0)
        along = ped(position=Vec2(4, 0), heading=Vec2(1, 0), speed=1.0)
        assert reactive_stopping(c, [crossing], P)
        assert not reactive_stopping(c, [along], P)
        assert reactive_stopping(c, [along, crossing], P) == [crossing]

    @given(
        st.floats(-12, 12),
        st.floats(-12, 12),
        st.floats(-math.pi, math.pi),
        st.floats(-2.0, 10.0),
        st.floats(-3.0, 3.0),
        st.floats(-math.pi, math.pi),
        st.floats(0.0, 2.0),
    )
    @settings(max_examples=300)
    def test_matches_the_vector_form(self, cx, cy, car_angle, ahead, aside, ped_angle, ped_speed):
        h = Vec2(math.cos(car_angle), math.sin(car_angle))
        c = car(position=Vec2(cx, cy), heading=h)
        p = ped(
            position=c.position + h * ahead + h.left_normal() * aside,
            heading=Vec2(math.cos(ped_angle), math.sin(ped_angle)),
            speed=ped_speed,
        )
        # The rule in Vec2 arithmetic; the float form must agree exactly.
        offset = p.position - c.position
        normal = c.heading.left_normal()
        in_corridor = (
            0.0 < offset.dot(c.heading) <= P.d_min_pc
            and abs(offset.dot(normal)) <= (c.diameter + p.diameter) / 2.0
        )
        assert in_stopping_corridor(c, p, P) is in_corridor
        crossing = in_corridor and abs(p.velocity.dot(normal)) > 1e-9
        assert reactive_stopping(c, [p], P) == ([p] if crossing else [])


    @given(
        st.lists(
            st.tuples(
                st.integers(-4, 20).map(lambda k: k * 0.5),
                st.integers(-8, 8).map(lambda k: k * 0.25),
                st.sampled_from([Vec2(0, 1), Vec2(1, 0), Vec2(0.6, -0.8), Vec2(0, 0)]),
                st.sampled_from([0.0, 1e-10, 1.2]),
            ),
            max_size=8,
        ),
        st.sampled_from([Vec2(1, 0), Vec2(0, -1), Vec2(0.6, 0.8)]),
    )
    @settings(max_examples=200)
    def test_many_pedestrians_match_the_corridor_rule(self, specs, heading):
        # Half-metre steps along the heading and quarter-metre steps
        # across it land exactly on the corridor's edges.
        c = car(position=Vec2(1.0, -2.0), heading=heading, diameter=2.0)
        normal = heading.left_normal()
        peds = [
            ped(f"p{k}", position=c.position + heading * ahead + normal * aside, heading=h, speed=speed)
            for k, (ahead, aside, h, speed) in enumerate(specs)
        ]
        want = [
            p for p in peds
            if in_stopping_corridor(c, p, P) and abs(p.velocity.dot(normal)) > 1e-9
        ]
        assert reactive_stopping(c, peds, P) == want

    @given(
        st.lists(st.tuples(st.floats(-12, 12), st.floats(-12, 12), st.floats(0.1, 3.0)), max_size=10),
        st.floats(-math.pi, math.pi),
        st.floats(0.5, 5.0),
    )
    @settings(max_examples=200)
    def test_reactive_stopping_uses_the_corridor_of_in_stopping_corridor(self, specs, angle, diameter):
        # Every pedestrian walks across the car's heading, so the car
        # brakes for exactly those that in_stopping_corridor places in
        # its corridor.
        h = Vec2(math.cos(angle), math.sin(angle))
        c = car(position=Vec2(0.5, -1.5), heading=h, diameter=diameter)
        peds = [
            ped(f"p{k}", position=Vec2(x, y), heading=h.left_normal(), speed=1.0, diameter=d)
            for k, (x, y, d) in enumerate(specs)
        ]
        assert reactive_stopping(c, peds, P) == [p for p in peds if in_stopping_corridor(c, p, P)]


class TestIntegrateStep:
    def test_semi_implicit_order(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0), speed=1.0, max_speed=10.0)
        # At its cruise speed the driving term is zero: only the push acts.
        position, velocity, _ = integrate_step(
            a, DriveTo(Vec2(5, 0), 1.0, push_x=2.0, push_y=0.0), dt=0.5, params=P
        )
        # v' = 1 + 0.5*2 = 2; x' = 0 + 0.5*2 = 1 (new velocity moves the agent)
        assert velocity.x == pytest.approx(2.0)
        assert position.x == pytest.approx(1.0)

    def test_speed_clamped_to_max(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0), speed=1.0, max_speed=1.2)
        _, velocity, _ = integrate_step(
            a, DriveTo(Vec2(5, 0), 1.0, push_x=100.0, push_y=0.0), dt=0.5, params=P
        )
        assert velocity.norm() == pytest.approx(1.2)

    def test_set_speed_never_negative(self):
        a = car(position=Vec2(0, 0), heading=Vec2(1, 0), speed=1.0)
        position, velocity, _ = integrate_step(a, SetSpeed(-5.0), dt=0.5, params=P)
        assert velocity.norm() == 0.0
        assert position == Vec2(0.0, 0.0)

    def test_heading_follows_motion(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0), speed=0.0, max_speed=5.0)
        *_, heading = integrate_step(
            a, DriveTo(Vec2(0, 0), 0.0, push_x=0.0, push_y=3.0), dt=0.5, params=P
        )
        assert heading.y == pytest.approx(1.0)

    def test_heading_kept_when_stopped(self):
        a = car(position=Vec2(0, 0), heading=Vec2(1, 0), speed=0.0)
        *_, heading = integrate_step(a, SetSpeed(0.0), dt=0.5, params=P)
        assert heading == Vec2(1.0, 0.0)

    def test_drive_to_converges_to_cruise_speed(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0), speed=0.0, max_speed=5.0)
        for _ in range(40):
            a.position, a.velocity, a.heading = integrate_step(
                a, DriveTo(Vec2(1000, 0), 1.4), dt=0.5, params=P
            )
        assert a.velocity.x == pytest.approx(1.4, rel=1e-6)


class VecDriveTo(NamedTuple):
    """DriveTo as it was before its push became two floats: one Vec2."""

    target: Vec2
    speed: float
    push: Vec2 = Vec2(0.0, 0.0)


def vec_push(directive):
    """A DriveTo's push as a Vec2, from either form."""
    if isinstance(directive, VecDriveTo):
        return directive.push
    return Vec2(directive.push_x, directive.push_y)


def vec_integrate_step(agent, directive, dt, params):
    """integrate_step in its Vec2 form, as it was before it was written
    out on plain floats, for a DriveTo of either form; the float form
    must agree to the bit."""
    if isinstance(directive, SetSpeed):
        new_speed = max(0.0, directive.speed)
        direction = agent.velocity.normalized()
        if direction.norm_sq() == 0.0:
            direction = agent.heading
        velocity = direction * new_speed
    else:
        drive = driving_force(agent, directive.target, directive.speed, params.tau)
        total = Vec2(0.0, 0.0) + drive + vec_push(directive)
        velocity = agent.velocity + total * dt
    speed = velocity.norm()
    if speed > agent.max_speed > 0.0:
        velocity = velocity * (agent.max_speed / speed)
    position = agent.position + velocity * dt
    heading = velocity.normalized() if velocity.norm_sq() > 1e-18 else agent.heading
    return position, velocity, heading


def state_bits(a: AgentState):
    """Every field, with floats by their bits, so -0.0 != 0.0."""
    out = []
    for f in dataclasses.fields(a):
        v = getattr(a, f.name)
        if isinstance(v, Vec2):
            v = (v.x.hex(), v.y.hex())
        elif isinstance(v, float):
            v = v.hex()
        out.append((f.name, v))
    return out


def vec_bits(vectors):
    """Each vector's coordinates by their bits, so -0.0 != 0.0."""
    return [(v.x.hex(), v.y.hex()) for v in vectors]


_signed = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-10]),
    st.floats(-20.0, 20.0, allow_nan=False),
)
_vec = st.builds(Vec2, _signed, _signed)
_directive = st.one_of(
    st.builds(SetSpeed, st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-5.0, 10.0))),
    st.builds(DriveTo, _vec, st.floats(0.0, 10.0)),
    st.builds(DriveTo, _vec, st.floats(0.0, 10.0), push_x=_signed, push_y=_signed),
)


class TestFloatPush:
    """The force pass hands each pedestrian its repulsion total as two
    floats, adds the obstacle push to them and puts them in its DriveTo;
    until then the total was a Vec2, added to the obstacle push's Vec2."""

    @given(
        _vec,
        _vec,
        _signed,
        _signed,
        st.sampled_from([Vec2(0.0, 0.0), Vec2(-0.0, 0.0), Vec2(0.0, -0.0), Vec2(3.5, -0.25)]),
        st.floats(0.0, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_vec2_push(self, position, velocity, fx, fy, obstacle, speed):
        agent = dataclasses.replace(ped(position=position, max_speed=2.5), velocity=velocity)
        target = Vec2(4.0, -3.0)
        old = VecDriveTo(target, speed, Vec2(fx, fy) + obstacle)
        new = DriveTo(target, speed, fx + obstacle.x, fy + obstacle.y)
        assert vec_bits(integrate_step(agent, new, 0.5, P)) == vec_bits(vec_integrate_step(agent, old, 0.5, P))

    @pytest.mark.parametrize("fx, fy", [(-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, 1.5)])
    def test_negative_zero_totals(self, fx, fy):
        # A -0.0 total plus the 0.0 of an obstacle-free scene is 0.0 in
        # the Vec2 sum; kept as -0.0 the result is the same.
        agent = dataclasses.replace(ped(max_speed=2.0, heading=Vec2(0, 1)), velocity=Vec2(-0.0, 0.0))
        for target, speed in ((Vec2(0.0, 0.0), 0.0), (Vec2(0.0, 5.0), 1.2)):
            old = VecDriveTo(target, speed, Vec2(fx, fy) + Vec2(0.0, 0.0))
            for push in ((fx, fy), (fx + 0.0, fy + 0.0)):
                got = integrate_step(agent, DriveTo(target, speed, *push), 0.5, P)
                assert vec_bits(got) == vec_bits(vec_integrate_step(agent, old, 0.5, P))


class TestIntegrateStepMatchesVec2Form:
    @given(
        st.sampled_from([car, ped]),
        _vec,
        _vec,
        st.sampled_from([Vec2(1, 0), Vec2(0, -1), Vec2(0.6, 0.8)]),
        st.one_of(st.sampled_from([0.5, 2.2, 1e-9]), st.floats(0.01, 30.0)),
        _directive,
        st.sampled_from([0.5, 0.1, 1.0]),
        st.sampled_from([P, dataclasses.replace(P, tau=0.3)]),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_bits(self, make, position, velocity, heading, max_speed, directive, dt, params):
        agent = dataclasses.replace(
            make(position=position, heading=heading, max_speed=max_speed, waypoints=[Vec2(5, 5)]),
            velocity=velocity,
        )
        before = state_bits(agent)
        got = integrate_step(agent, directive, dt, params)
        assert vec_bits(got) == vec_bits(vec_integrate_step(agent, directive, dt, params))
        assert state_bits(agent) == before

    @pytest.mark.parametrize(
        "velocity, directives",
        [
            (Vec2(0.0, 0.0), SetSpeed(1.0)),  # no motion: along the heading
            (Vec2(-0.0, 0.0), SetSpeed(-0.0)),
            (Vec2(0.0, -0.0), DriveTo(Vec2(0.0, 0.0), 0.0, push_x=-0.0, push_y=-0.0)),  # 0.0 + -0.0 is 0.0
            (Vec2(-0.0, -0.0), DriveTo(Vec2(0.0, 0.0), 0.0)),
            (Vec2(1.0, 0.0), DriveTo(Vec2(0.0, 0.0), 1.0)),  # target underfoot
            (Vec2(3.0, 4.0), DriveTo(Vec2(0.0, 0.0), 0.0, push_x=100.0, push_y=0.0)),  # clamped
            (Vec2(3.0, 4.0), SetSpeed(9.0)),  # clamped
            (Vec2(1e-10, 0.0), DriveTo(Vec2(5.0, 0.0), 1e-10)),  # too slow to turn
        ],
    )
    def test_edge_cases(self, velocity, directives):
        # One directive per case; the column keeps its name for stable test ids.
        agent = dataclasses.replace(ped(max_speed=2.0, heading=Vec2(0, 1)), velocity=velocity)
        got = integrate_step(agent, directives, 0.5, P)
        assert vec_bits(got) == vec_bits(vec_integrate_step(agent, directives, 0.5, P))
