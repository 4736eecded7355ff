import math

import pytest

from helpers import car, open_square_scene, ped
from sharedspace import conflicts
from sharedspace.conflicts import (
    Conflict,
    ConflictClass,
    classify_conflict,
    predicted_position,
    recognize_conflicts,
)
from sharedspace.geometry import Vec2
from sharedspace.params import SfmParams
from sharedspace.scene import Rect, Scene, in_intersection_zone, in_road_zone

P = SfmParams()
INTERSECTION = open_square_scene(zone="intersection")
ROAD = open_square_scene(zone="road")
NO_ZONE = Scene(bounds=Rect(-60, -60, 60, 60))

CAR_PREDICTED = Vec2(2.7, 0.0)  # origin car, heading +x, max 0.3, horizon 9


def slow_car(agent_id="c1", **kw):
    kw.setdefault("position", Vec2(0, 0))
    kw.setdefault("heading", Vec2(1, 0))
    kw.setdefault("speed", 0.3)
    kw.setdefault("max_speed", 0.3)
    return car(agent_id, **kw)


def ped_at_angle(theta_deg, dist=5.0, agent_id="p1", **kw):
    """Pedestrian at bearing theta from the origin car's heading,
    walking toward the car's predicted point so the predicted-position
    gate always passes; the angle gate alone decides."""
    theta = math.radians(theta_deg)
    pos = Vec2(dist * math.cos(theta), dist * math.sin(theta))
    toward = CAR_PREDICTED - pos
    return ped(agent_id, position=pos, heading=toward, speed=0.3, max_speed=0.3, **kw)


def recognize(cars, peds, scene=INTERSECTION, active=(), step=0, next_id=0):
    return recognize_conflicts(cars, peds, scene, P, active_conflicts=active, step=step, next_id=next_id)


class TestIntersectionAngleGate:
    def test_theta_10_in_view(self):
        out = recognize([slow_car()], [ped_at_angle(10.0)])
        assert len(out.new_conflicts) == 1
        c = out.new_conflicts[0]
        assert c.conflict_class is ConflictClass.PEDESTRIANS_TO_CAR
        assert c.anchor_car == "c1"
        assert c.competitive_users == ("p1",)

    def test_theta_113_on_boundary_included(self):
        out = recognize([slow_car()], [ped_at_angle(113.0)])
        assert len(out.new_conflicts) == 1
        assert out.new_conflicts[0].conflict_class is ConflictClass.PEDESTRIANS_TO_CAR

    def test_theta_114_just_outside(self):
        out = recognize([slow_car()], [ped_at_angle(114.0)])
        assert out.new_conflicts == []

    def test_theta_247_mirror_boundary_included(self):
        out = recognize([slow_car()], [ped_at_angle(247.0)])
        assert len(out.new_conflicts) == 1

    def test_theta_150_outside(self):
        out = recognize([slow_car()], [ped_at_angle(150.0)])
        assert out.new_conflicts == []


class TestIntersectionOtherGates:
    def test_view_range_gate(self):
        out = recognize([slow_car()], [ped_at_angle(10.0, dist=19.0)])
        assert out.new_conflicts == []

    def test_predicted_distance_gate(self):
        # In view and in range, but walking away: predicted points stay apart.
        away = ped("p1", position=Vec2(14.77, 2.60), heading=Vec2(0, 1), speed=0.3, max_speed=0.3)
        out = recognize([slow_car()], [away])
        assert out.new_conflicts == []
        gap = predicted_position(slow_car(), P).distance_to(predicted_position(away, P))
        assert gap > P.d_min_pc

    def test_car_car_head_on(self):
        c1 = slow_car("c1")
        c2 = slow_car("c2", position=Vec2(6, 0), heading=Vec2(-1, 0))
        out = recognize([c1, c2], [])
        assert len(out.new_conflicts) == 1
        c = out.new_conflicts[0]
        assert c.conflict_class is ConflictClass.CAR_TO_CAR
        assert c.anchor_car == "c1"  # ascending id scan: c1 claims the pair
        assert c.competitive_users == ("c2",)

    def test_car_sideways_outside_90_cone(self):
        c1 = slow_car("c1")
        # Behind-left at 135 degrees: outside the car's 90-degree half-angle.
        c2 = slow_car("c2", position=Vec2(-4, 4), heading=Vec2(1, 0))
        out = recognize([c1, c2], [])
        conflicts_for_c1 = [c for c in out.new_conflicts if c.anchor_car == "c1"]
        assert conflicts_for_c1 == []

    def test_ped_and_car_together(self):
        c1 = slow_car("c1")
        c2 = slow_car("c2", position=Vec2(6, 0), heading=Vec2(-1, 0))
        p1 = ped_at_angle(10.0)
        out = recognize([c1, c2], [p1])
        assert len(out.new_conflicts) == 1
        c = out.new_conflicts[0]
        assert c.conflict_class is ConflictClass.PEDESTRIANS_TO_CARS
        assert c.competitive_users == ("p1", "c2")  # pedestrians listed first

    def test_each_predicted_position_made_once_per_pass(self, monkeypatch):
        made = []
        predict = conflicts.predicted_position

        def counting(agent, params):
            made.append(agent.id)
            return predict(agent, params)

        monkeypatch.setattr(conflicts, "predicted_position", counting)
        # Both cars see each other and the pedestrian walking away, so
        # every pair reaches the predicted-gap gate.
        c1 = slow_car("c1")
        c2 = slow_car("c2", position=Vec2(0, 3), heading=Vec2(1, 0.2))
        away = ped("p1", position=Vec2(14.77, 2.60), heading=Vec2(0, 1), speed=0.3, max_speed=0.3)
        recognize([c1, c2], [away])
        assert sorted(made) == ["c1", "c2", "p1"]

    def test_previous_conflict_guard(self):
        # A pair engaged in an active conflict is not detected again,
        # whichever of them anchors it.
        c1 = slow_car("c1")
        p1 = ped_at_angle(10.0)
        engaged = Conflict(0, "c1", ("p1",), ConflictClass.PEDESTRIANS_TO_CAR, 0)
        assert recognize([c1], [p1], active=[engaged], next_id=1).new_conflicts == []
        c2 = slow_car("c2", position=Vec2(6, 0), heading=Vec2(-1, 0))
        engaged = Conflict(0, "c2", ("c1",), ConflictClass.CAR_TO_CAR, 0)
        assert recognize([c1, c2], [], active=[engaged], next_id=1).new_conflicts == []

    def test_no_duplicate_mirror_conflict_within_pass(self):
        c1 = slow_car("c1")
        c2 = slow_car("c2", position=Vec2(6, 0), heading=Vec2(-1, 0))
        out = recognize([c1, c2], [])
        assert len(out.new_conflicts) == 1


class TestRoadZone:
    def test_back_position_intersect(self):
        # Pedestrian center already past the car's path; the body length
        # behind the center still cuts it.
        c1 = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), goal=Vec2(30, 0))
        p1 = ped("p1", position=Vec2(6, 0.3), heading=Vec2(0, 1), goal=Vec2(6, 20), diameter=0.5)
        out = recognize([c1], [p1], scene=ROAD)
        assert len(out.new_conflicts) == 1
        c = out.new_conflicts[0]
        assert c.conflict_class is ConflictClass.PEDESTRIANS_TO_CAR
        assert c.competitive_users == ("p1",)

    def test_cleared_path_no_conflict(self):
        # A full body length past the path: the trailing segment no
        # longer reaches it.
        c1 = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), goal=Vec2(30, 0))
        p1 = ped("p1", position=Vec2(6, 0.8), heading=Vec2(0, 1), goal=Vec2(6, 20), diameter=0.5)
        out = recognize([c1], [p1], scene=ROAD)
        assert out.new_conflicts == []

    def test_parallel_walker_no_conflict(self):
        c1 = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), goal=Vec2(30, 0))
        p1 = ped("p1", position=Vec2(6, 5), heading=Vec2(1, 0), goal=Vec2(20, 5))
        out = recognize([c1], [p1], scene=ROAD)
        assert out.new_conflicts == []

    def test_cars_not_scanned_on_road(self):
        c1 = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), goal=Vec2(30, 0))
        c2 = car("c2", position=Vec2(6, 0), heading=Vec2(-1, 0), goal=Vec2(-30, 0))
        out = recognize([c1, c2], [], scene=ROAD)
        assert out.new_conflicts == []

    def test_merge_absorbs_car_with_same_nearest_competitor(self):
        c1 = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), goal=Vec2(30, 0))
        c2 = car("c2", position=Vec2(0, 6), heading=Vec2(1, 0), goal=Vec2(30, 6))
        p1 = ped("p1", position=Vec2(6, 0.3), heading=Vec2(0, 1), goal=Vec2(6, 20), diameter=0.5)
        prior = Conflict(
            id=0,
            anchor_car="c2",
            competitive_users=("p1",),
            conflict_class=ConflictClass.PEDESTRIANS_TO_CAR,
            created_at_step=0,
        )
        out = recognize([c1, c2], [p1], scene=ROAD, active=[prior], step=3, next_id=1)
        assert out.dissolved_ids == [0]
        assert len(out.new_conflicts) == 1
        c = out.new_conflicts[0]
        assert c.conflict_class is ConflictClass.PEDESTRIANS_TO_CARS
        assert c.anchor_car == "c1"
        assert c.competitive_users == ("p1", "c2")
        assert c.created_at_step == 3
        assert c.id == 1

    def test_unrelated_prior_conflict_not_dissolved(self):
        # c1 engages p1 first; c2 (already in conflict with p2) then also
        # detects p1 and absorbs c1's fresh conflict, since both cars'
        # nearest competitor is p1. c2's conflict with p2 stays active.
        c1 = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), goal=Vec2(30, 0))
        c2 = car("c2", position=Vec2(0, 12), heading=Vec2(1, 0), goal=Vec2(30, 12))
        p1 = ped("p1", position=Vec2(6, 0.3), heading=Vec2(0, 1), goal=Vec2(6, 20), diameter=0.5)
        p2 = ped("p2", position=Vec2(6, 12.3), heading=Vec2(0, 1), goal=Vec2(6, 30), diameter=0.5)
        prior = Conflict(
            id=0,
            anchor_car="c2",
            competitive_users=("p2",),
            conflict_class=ConflictClass.PEDESTRIANS_TO_CAR,
            created_at_step=0,
        )
        out = recognize([c1, c2], [p1, p2], scene=ROAD, active=[prior], next_id=1)
        assert out.dissolved_ids == []  # the p2 conflict survives
        assert len(out.new_conflicts) == 1
        c = out.new_conflicts[0]
        assert c.conflict_class is ConflictClass.PEDESTRIANS_TO_CARS
        assert c.anchor_car == "c2"
        assert c.competitive_users == ("p1", "c1")

    def test_merged_car_does_not_detect_its_old_partner_again(self):
        # c2's game holds p1 and p2. c1 detects p1, c2's nearest partner,
        # so c1's new game absorbs c2 and dissolves c2's game. When the
        # pass reaches c2, it still must not detect p2, with whom it was
        # engaged when the pass began.
        c1 = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), goal=Vec2(30, 0))
        c2 = car("c2", position=Vec2(0, 6), heading=Vec2(1, 0), goal=Vec2(30, 6))
        p1 = ped("p1", position=Vec2(6, 0.3), heading=Vec2(0, 1), goal=Vec2(6, 20), diameter=0.5)
        p2 = ped("p2", position=Vec2(10, 6.3), heading=Vec2(0, 1), goal=Vec2(10, 20), diameter=0.5)
        prior = Conflict(0, "c2", ("p1", "p2"), ConflictClass.PEDESTRIANS_TO_CARS, 0)
        out = recognize([c1, c2], [p1, p2], scene=ROAD, active=[prior], next_id=1)
        assert out.dissolved_ids == [0]
        assert [(c.anchor_car, c.competitive_users) for c in out.new_conflicts] == [
            ("c1", ("p1", "c2"))
        ]
        # Without the old game, c2 would detect p2.
        fresh = recognize([c2], [p2], scene=ROAD)
        assert [(c.anchor_car, c.competitive_users) for c in fresh.new_conflicts] == [
            ("c2", ("p2",))
        ]


class TestPassBehavior:
    def test_idempotent_on_fixed_snapshot(self):
        cars_ = [slow_car()]
        peds_ = [ped_at_angle(10.0)]
        first = recognize(cars_, peds_)
        second = recognize(cars_, peds_)
        assert first.new_conflicts == second.new_conflicts
        assert first.dissolved_ids == second.dissolved_ids

    def test_input_order_irrelevant(self):
        c1 = slow_car("c1")
        c2 = slow_car("c2", position=Vec2(6, 0), heading=Vec2(-1, 0))
        p1 = ped_at_angle(10.0)
        a = recognize([c1, c2], [p1])
        b = recognize([c2, c1], [p1])
        assert a.new_conflicts == b.new_conflicts

    def test_ids_continue_from_next_id(self):
        out = recognize([slow_car()], [ped_at_angle(10.0)], next_id=7)
        assert out.new_conflicts[0].id == 7

    def test_snapshot_not_mutated(self):
        # A pass that creates a conflict and dissolves one by merging
        # changes neither the agents nor the active conflicts it reads.
        c1 = car("c1", position=Vec2(0, 0), heading=Vec2(1, 0), goal=Vec2(30, 0))
        c2 = car("c2", position=Vec2(0, 6), heading=Vec2(1, 0), goal=Vec2(30, 6))
        p1 = ped("p1", position=Vec2(6, 0.3), heading=Vec2(0, 1), goal=Vec2(6, 20), diameter=0.5)
        active = [Conflict(0, "c2", ("p1",), ConflictClass.PEDESTRIANS_TO_CAR, 0)]
        states = [dict(a.__dict__) for a in (c1, c2, p1)]
        out = recognize([c1, c2], [p1], scene=ROAD, active=active, next_id=1)
        assert out.dissolved_ids == [0] and out.new_conflicts
        assert active == [Conflict(0, "c2", ("p1",), ConflictClass.PEDESTRIANS_TO_CAR, 0)]
        assert [a.__dict__ for a in (c1, c2, p1)] == states


class TestClassifyConflict:
    @pytest.fixture
    def zone_tests(self, monkeypatch):
        """Count the zone tests classify_conflict makes."""
        calls: list[str] = []
        for name in ("in_intersection_zone", "in_road_zone"):
            test = getattr(conflicts, name)

            def counting(p, scene, name=name, test=test):
                calls.append(name)
                return test(p, scene)

            monkeypatch.setattr(conflicts, name, counting)
        return calls

    def classify(self, peds, cars, scene, partner_sets=None):
        anchor = slow_car("c0")
        others = [slow_car(cid, position=Vec2(20, 5)) for cid in ("c1", "c2")]
        agents = {a.id: a for a in [anchor, *others]}
        for k, pid in enumerate(("p1", "p2")):
            agents[pid] = ped(pid, position=Vec2(4 + k, 1))
        # The flags the step's snapshot found, tested outside the count.
        in_intersection = in_intersection_zone(anchor.position, scene)
        in_road = not in_intersection and in_road_zone(anchor.position, scene)
        return classify_conflict(
            anchor, peds, cars, [anchor, *others], agents, partner_sets or {}, in_intersection, in_road
        )

    @pytest.mark.parametrize("scene", [INTERSECTION, ROAD, NO_ZONE])
    def test_no_competitors_makes_no_zone_test(self, zone_tests, scene):
        assert self.classify([], [], scene) == (ConflictClass.NO_NEW_CONFLICT, (), [])
        assert zone_tests == []

    @pytest.mark.parametrize(
        "peds, cars, scene, expected, n_zone_tests",
        [
            (["p1"], ["c1"], NO_ZONE, (ConflictClass.PEDESTRIANS_TO_CARS, ("p1", "c1"), []), 0),
            ([], ["c1", "c2"], NO_ZONE, (ConflictClass.CAR_TO_CAR, ("c1", "c2"), []), 0),
            (["p1", "p2"], [], INTERSECTION, (ConflictClass.PEDESTRIANS_TO_CAR, ("p1", "p2"), []), 0),
            (["p1"], [], ROAD, (ConflictClass.PEDESTRIANS_TO_CAR, ("p1",), []), 0),
            (["p1"], [], NO_ZONE, (ConflictClass.NO_NEW_CONFLICT, (), []), 0),
        ],
    )
    def test_classes(self, zone_tests, peds, cars, scene, expected, n_zone_tests):
        assert self.classify(peds, cars, scene) == expected
        assert len(zone_tests) == n_zone_tests

    def test_road_merge(self):
        # c1 already competes with p1, the anchor's nearest pedestrian.
        got = self.classify(["p1", "p2"], [], ROAD, {"c1": {"p1"}, "c2": set()})
        assert got == (ConflictClass.PEDESTRIANS_TO_CARS, ("p1", "p2", "c1"), ["c1"])
