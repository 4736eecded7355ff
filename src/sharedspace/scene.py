"""World layout and per-agent state.

A scene holds static geometry only: obstacle polygons, intersection
zones, road zones and the rectangular scene bounds. Pixel-space inputs
are converted to meters once at load time via meters_per_unit.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    InvalidSceneError,
    Vec2,
    _validate_simple_polygon,
    abs_bearings_deg,
    point_in_zone,
    within_cone,
)


class AgentKind(enum.Enum):
    PEDESTRIAN = "ped"
    CAR = "car"


@dataclass(frozen=True)
class Rect:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def contains(self, p: Vec2) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max


@dataclass
class Scene:
    obstacles: list[list[Vec2]] = field(default_factory=list)
    intersection_zones: list[list[Vec2]] = field(default_factory=list)
    road_zones: list[list[Vec2]] = field(default_factory=list)
    bounds: Rect = Rect(0.0, 0.0, 100.0, 100.0)
    meters_per_unit: float = 1.0

    def validate(self) -> None:
        if not (self.meters_per_unit > 0.0):
            raise InvalidSceneError("meters_per_unit must be positive")
        if self.bounds.x_min >= self.bounds.x_max or self.bounds.y_min >= self.bounds.y_max:
            raise InvalidSceneError("bounds must span a positive area")
        for label, polys in (
            ("obstacle", self.obstacles),
            ("intersection_zone", self.intersection_zones),
            ("road_zone", self.road_zones),
        ):
            for i, poly in enumerate(polys):
                _validate_simple_polygon(poly, f"{label}[{i}]")
                for v in poly:
                    if not self.bounds.contains(v):
                        raise InvalidSceneError(f"{label}[{i}]: vertex outside bounds")


def in_intersection_zone(p: Vec2, scene: Scene) -> bool:
    for zone in scene.intersection_zones:
        if point_in_zone(p, zone):
            return True
    return False


def in_road_zone(p: Vec2, scene: Scene) -> bool:
    for zone in scene.road_zones:
        if point_in_zone(p, zone):
            return True
    return False


@dataclass
class AgentState:
    """Kinematic state plus the interaction bookkeeping the decision
    layer reads (give-way count, who is stopping for whom, following
    links, active conflict partners)."""

    id: str
    kind: AgentKind
    position: Vec2
    velocity: Vec2
    desired_speed: float
    max_speed: float
    goal: Vec2
    waypoints: list[Vec2] = field(default_factory=list)
    heading: Vec2 = Vec2(1.0, 0.0)
    diameter: float = 0.5
    giveway_count: int = 0
    active_interactions: int = 0
    currently_stopping_for: frozenset[str] = frozenset()
    following_car_id: str | None = None
    followed_by_car_id: str | None = None
    prior_conflict_partners: frozenset[str] = frozenset()

    @property
    def speed(self) -> float:
        return self.velocity.norm()

    def radius(self) -> float:
        return self.diameter / 2.0

    def next_waypoint(self) -> Vec2:
        return self.waypoints[0] if self.waypoints else self.goal

    def moved(self, position: Vec2, velocity: Vec2, heading: Vec2) -> "AgentState":
        """A copy with new kinematics that shares every other field, the
        waypoints list included, as dataclasses.replace would, but
        without running __init__: the engine makes one per agent-step."""
        fields = self.__dict__.copy()
        fields["position"] = position
        fields["velocity"] = velocity
        fields["heading"] = heading
        copy = object.__new__(type(self))
        copy.__dict__ = fields
        return copy


class Kinematics(NamedTuple):
    """Per-agent columns, one entry per agent of an AgentColumns."""

    x: np.ndarray
    y: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    ux: np.ndarray  # heading.normalized(), made by that rule on floats
    uy: np.ndarray
    max_speed: np.ndarray
    diameter: np.ndarray
    is_car: np.ndarray  # bool


class CarPairs(NamedTuple):
    """(cars x agents) arrays: row k is car k, column j agent j, and the
    offset is agent j's position minus car k's."""

    distance: np.ndarray  # np.hypot of the offset
    bearing: np.ndarray  # abs_bearings_deg of the offset from the heading


class AgentColumns:
    """One engine step's snapshot of its agents, shared by the passes of
    that step: the cars, then the pedestrians, each in ascending id
    order. The agents must not move while it is in use.

    Each car's zone flags are tested here, once, with the scalar zone
    tests: `in_intersection`, and `in_road` (in a road zone and in no
    intersection zone; the road zones are tested only for cars outside
    every intersection zone). The numpy columns of the kinematic state
    and the (cars x agents) pair geometry that recognition screens with
    are made on first use, at most once. Recognition and the repulsion
    pass below their scalar guards read none of them, so a
    calibration-sized step never builds them."""

    def __init__(
        self, cars: list[AgentState], pedestrians: list[AgentState], scene: Scene
    ) -> None:
        self.cars = cars
        self.pedestrians = pedestrians
        self.agents = cars + pedestrians
        self.in_intersection = [in_intersection_zone(c.position, scene) for c in self.cars]
        self.in_road = [
            not inside and in_road_zone(c.position, scene)
            for c, inside in zip(self.cars, self.in_intersection)
        ]

    @cached_property
    def row(self) -> dict[str, int]:
        """Each agent's index in `agents`."""
        return {a.id: k for k, a in enumerate(self.agents)}

    @cached_property
    def kinematics(self) -> Kinematics:
        flat: list[float] = []
        add = flat.extend
        for a in self.agents:
            p, h = a.position, a.heading
            hx, hy = h.x, h.y
            norm = math.hypot(hx, hy)
            ux, uy = (hx / norm, hy / norm) if norm != 0.0 else (0.0, 0.0)
            add((p.x, p.y, hx, hy, ux, uy, a.max_speed, a.diameter))
        n = len(self.agents)
        table = np.array(flat, dtype=float).reshape(n, 8).T.copy()
        return Kinematics(*table, np.arange(n) < len(self.cars))

    @cached_property
    def car_pairs(self) -> CarPairs:
        k = self.kinematics
        n = len(self.cars)
        hx, hy = k.hx[:n, None], k.hy[:n, None]
        with np.errstate(all="ignore"):
            ox = k.x - k.x[:n, None]
            oy = k.y - k.y[:n, None]
            # bearing_deg's cross and dot products and squared norm.
            bearing = abs_bearings_deg(hx * oy - hy * ox, hx * ox + hy * oy, ox * ox + oy * oy)
            return CarPairs(np.hypot(ox, oy), bearing)


def in_field_of_view(
    observer: AgentState, target: Vec2, half_angle_deg: float, range_m: float
) -> bool:
    """Boundary-inclusive view test from the observer's heading."""
    offset = target - observer.position
    if offset.norm() > range_m:
        return False
    if offset.norm_sq() == 0.0:
        return True
    return within_cone(observer.heading, offset, half_angle_deg)


def _number(raw: object, label: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise InvalidSceneError(f"{label}: expected a number, got {raw!r}") from exc


def _poly_from_json(raw: object, scale: float, label: str) -> tuple[Vec2, ...]:
    if not isinstance(raw, list):
        raise InvalidSceneError(f"{label}: expected a list of [x, y] pairs")
    out = []
    for pt in raw:
        if not (isinstance(pt, list) and len(pt) == 2):
            raise InvalidSceneError(f"{label}: expected [x, y] pairs")
        out.append(Vec2(_number(pt[0], label) * scale, _number(pt[1], label) * scale))
    return tuple(out)


def _polys_from_json(raw: dict, key: str, scale: float, path: object) -> tuple[tuple[Vec2, ...], ...]:
    polys = raw.get(key, [])
    if not isinstance(polys, list):
        raise InvalidSceneError(f"{path}: {key}: expected a list of polygons")
    return tuple(_poly_from_json(p, scale, f"{path}: {key}[{i}]") for i, p in enumerate(polys))


_SCENE_KEYS = {"obstacles", "intersection_zones", "road_zones", "bounds", "meters_per_unit"}


def load_scene(path: str | Path) -> Scene:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidSceneError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise InvalidSceneError(f"{path}: expected a JSON object")
    unknown = set(raw) - _SCENE_KEYS
    if unknown:
        raise InvalidSceneError(f"{path}: unknown keys {sorted(unknown)}")
    scale = _number(raw.get("meters_per_unit", 1.0), f"{path}: meters_per_unit")
    if not scale > 0.0:
        raise InvalidSceneError(f"{path}: meters_per_unit must be positive")
    bounds_raw = raw.get("bounds")
    if not (isinstance(bounds_raw, list) and len(bounds_raw) == 4):
        raise InvalidSceneError(f"{path}: bounds must be [x_min, y_min, x_max, y_max]")
    scene = Scene(
        obstacles=_polys_from_json(raw, "obstacles", scale, path),
        intersection_zones=_polys_from_json(raw, "intersection_zones", scale, path),
        road_zones=_polys_from_json(raw, "road_zones", scale, path),
        bounds=Rect(*(_number(v, f"{path}: bounds") * scale for v in bounds_raw)),
        meters_per_unit=scale,
    )
    scene.validate()
    return scene


def save_scene(scene: Scene, path: str | Path) -> None:
    def poly(ps: Sequence[Vec2]) -> list[list[float]]:
        return [[v.x, v.y] for v in ps]

    payload = {
        "meters_per_unit": 1.0,  # coordinates are already meters after load
        "bounds": [scene.bounds.x_min, scene.bounds.y_min, scene.bounds.x_max, scene.bounds.y_max],
        "obstacles": [poly(p) for p in scene.obstacles],
        "intersection_zones": [poly(p) for p in scene.intersection_zones],
        "road_zones": [poly(p) for p in scene.road_zones],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
