import ast
import dataclasses
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import car, ped
from sharedspace import scene as scene_mod
from sharedspace.geometry import InvalidSceneError, Vec2, within_cone
from sharedspace.scene import (
    AgentKind,
    AgentState,
    Rect,
    Scene,
    in_field_of_view,
    in_intersection_zone,
    in_road_zone,
    load_scene,
    save_scene,
)


SRC = Path(__file__).resolve().parents[1] / "src" / "sharedspace"

coords = st.floats(-50.0, 50.0, allow_nan=False)
# Some points on a coarse grid, so that coincident points, exact range
# boundaries and axis-aligned offsets come up.
points = st.one_of(
    st.builds(Vec2, coords, coords),
    st.builds(Vec2, st.integers(-3, 3).map(float), st.integers(-3, 3).map(float)),
)


def square(cx, cy, half):
    return (
        Vec2(cx - half, cy - half),
        Vec2(cx + half, cy - half),
        Vec2(cx + half, cy + half),
        Vec2(cx - half, cy + half),
    )


def make_scene(**kw):
    defaults = dict(
        obstacles=(square(10, 10, 2),),
        intersection_zones=(square(0, 0, 5),),
        road_zones=(square(20, 0, 5),),
        bounds=Rect(-50, -50, 50, 50),
    )
    defaults.update(kw)
    return Scene(**defaults)


class TestSceneValidation:
    def test_valid_scene_passes(self):
        make_scene().validate()

    def test_degenerate_obstacle_rejected(self):
        scene = make_scene(obstacles=((Vec2(0, 0), Vec2(1, 0), Vec2(2, 0)),))
        with pytest.raises(InvalidSceneError):
            scene.validate()

    def test_self_intersecting_polygon_rejected(self):
        bowtie = (Vec2(0, 0), Vec2(2, 2), Vec2(2, 0), Vec2(0, 2))
        scene = make_scene(obstacles=(bowtie,))
        with pytest.raises(InvalidSceneError):
            scene.validate()

    def test_inverted_bounds_rejected(self):
        scene = make_scene(bounds=Rect(10, 0, -10, 5))
        with pytest.raises(InvalidSceneError):
            scene.validate()

    @pytest.mark.parametrize("scale", [0, -1])
    def test_nonpositive_scale_rejected(self, tmp_path, scale):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"bounds": [-1, -1, 1, 1], "meters_per_unit": scale}))
        with pytest.raises(InvalidSceneError, match="meters_per_unit must be positive"):
            load_scene(path)


class TestSceneIsFrozen:
    @pytest.mark.parametrize("name", ["obstacles", "intersection_zones", "road_zones", "bounds"])
    def test_assigning_a_field_raises(self, name):
        scene = make_scene()
        before = getattr(scene, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scene, name, ())
        assert getattr(scene, name) is before

    def test_the_index_is_built_once_and_pickled_with_the_scene(self, monkeypatch):
        scene = make_scene()
        index = scene.obstacle_index
        assert scene.obstacle_index is index and index.polygons is scene.obstacles
        copy = pickle.loads(pickle.dumps(scene))
        monkeypatch.setattr(scene_mod, "ObstacleIndex", None)  # a rebuild would fail
        assert copy == scene
        assert copy.obstacle_index.rings == index.rings


class TestZoneQueries:
    def test_intersection_zone_membership(self):
        scene = make_scene()
        assert in_intersection_zone(Vec2(0, 0), scene)
        assert in_intersection_zone(Vec2(5, 0), scene)  # boundary counts
        assert not in_intersection_zone(Vec2(20, 0), scene)

    def test_road_zone_membership(self):
        scene = make_scene()
        assert in_road_zone(Vec2(20, 0), scene)
        assert not in_road_zone(Vec2(0, 0), scene)


class TestRect:
    def test_contains(self):
        r = Rect(0, 0, 10, 5)
        assert r.contains(Vec2(5, 2))
        assert r.contains(Vec2(0, 0))
        assert not r.contains(Vec2(11, 2))


class TestAgentState:
    def test_speed_property(self):
        a = car(speed=3.0)
        assert a.speed == pytest.approx(3.0)

    def test_radius_is_half_diameter(self):
        assert car(diameter=2.0).radius() == 1.0
        assert ped(diameter=0.5).radius() == 0.25

    def test_next_waypoint_defaults_to_goal(self):
        a = car(goal=Vec2(9, 9))
        assert a.next_waypoint() == Vec2(9, 9)
        a.waypoints = [Vec2(1, 1), Vec2(2, 2)]
        assert a.next_waypoint() == Vec2(1, 1)


class TestFieldOfView:
    def test_target_ahead_in_range(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0))
        assert in_field_of_view(a, Vec2(5, 0), half_angle_deg=113.0, range_m=18.4)

    def test_target_beyond_range(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0))
        assert not in_field_of_view(a, Vec2(20, 0), half_angle_deg=113.0, range_m=18.4)

    def test_target_behind_outside_cone(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0))
        assert not in_field_of_view(a, Vec2(-5, 0.1), half_angle_deg=113.0, range_m=18.4)

    def test_range_boundary_inclusive(self):
        a = ped(position=Vec2(0, 0), heading=Vec2(1, 0))
        assert in_field_of_view(a, Vec2(18.4, 0), half_angle_deg=113.0, range_m=18.4)

    def test_target_at_the_observer_is_in_view(self):
        a = ped(position=Vec2(3, -2), heading=Vec2(0, 1))
        assert in_field_of_view(a, Vec2(3, -2), half_angle_deg=1.0, range_m=0.0)

    @given(points, points, points, st.floats(1.0, 180.0), st.floats(0.0, 40.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_range_then_cone_gates(self, at, heading, target, half, view_range):
        """The gates recognition and car following once tested inline:
        distance_to against the range, then within_cone of the offset
        from the observer's own heading (the helper normalises the one
        it is given, which for a heading of ~1e-170 turns the cone)."""
        a = ped(position=at, heading=heading)
        inline = at.distance_to(target) <= view_range and within_cone(a.heading, target - at, half)
        assert in_field_of_view(a, target, half, view_range) == inline


def test_only_the_view_test_calls_within_cone() -> None:
    """One view test: in the package, the cone rule on plain floats,
    geometry._within_cone_xy, is called only by scene.in_field_of_view
    and by its Vec2 form geometry.within_cone, and nothing calls that."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name in ("within_cone", "_within_cone_xy"):
                    found.append((name, path.name, owner.get(node)))
    assert sorted(found) == [
        ("_within_cone_xy", "geometry.py", "within_cone"),
        ("_within_cone_xy", "scene.py", "in_field_of_view"),
    ]


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scene = make_scene()
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert loaded == scene

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scene.json"
        payload = {
            "obstacles": [],
            "intersection_zones": [],
            "road_zones": [],
            "bounds": [-1, -1, 1, 1],
            "meters_per_unit": 1.0,
            "zoom": 3,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidSceneError, match="zoom"):
            load_scene(path)

    def test_meters_per_unit_scales_coordinates(self, tmp_path):
        path = tmp_path / "scene.json"
        payload = {
            "obstacles": [[[0, 0], [10, 0], [10, 10], [0, 10]]],
            "intersection_zones": [],
            "road_zones": [],
            "bounds": [-100, -100, 100, 100],
            "meters_per_unit": 0.5,
        }
        path.write_text(json.dumps(payload))
        scene = load_scene(path)
        assert scene.obstacles[0][1] == Vec2(5.0, 0.0)
        assert scene.bounds == Rect(-50, -50, 50, 50)

    def test_invalid_scene_rejected_at_load(self, tmp_path):
        path = tmp_path / "scene.json"
        payload = {
            "obstacles": [[[0, 0], [1, 1]]],
            "intersection_zones": [],
            "road_zones": [],
            "bounds": [-1, -1, 1, 1],
            "meters_per_unit": 1.0,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidSceneError):
            load_scene(path)
