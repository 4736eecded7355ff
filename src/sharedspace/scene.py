"""World layout and per-agent state.

A scene holds static geometry only: obstacle polygons, intersection
zones, road zones and the rectangular scene bounds. Pixel-space inputs
are converted to meters once at load time via meters_per_unit.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .geometry import (
    InvalidSceneError,
    Vec2,
    _validate_simple_polygon,
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
    return any(point_in_zone(p, z) for z in scene.intersection_zones)


def in_road_zone(p: Vec2, scene: Scene) -> bool:
    return any(point_in_zone(p, z) for z in scene.road_zones)


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


def _poly_from_json(raw: object, scale: float, label: str) -> tuple[Vec2, ...]:
    if not isinstance(raw, list):
        raise InvalidSceneError(f"{label}: expected a list of [x, y] pairs")
    out = []
    for pt in raw:
        if not (isinstance(pt, list) and len(pt) == 2):
            raise InvalidSceneError(f"{label}: expected [x, y] pairs")
        out.append(Vec2(float(pt[0]) * scale, float(pt[1]) * scale))
    return tuple(out)


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
    scale = float(raw.get("meters_per_unit", 1.0))
    if not scale > 0.0:
        raise InvalidSceneError(f"{path}: meters_per_unit must be positive")
    bounds_raw = raw.get("bounds")
    if bounds_raw is None or len(bounds_raw) != 4:
        raise InvalidSceneError(f"{path}: bounds must be [x_min, y_min, x_max, y_max]")
    bounds = Rect(*(float(v) * scale for v in bounds_raw))
    scene = Scene(
        obstacles=tuple(
            _poly_from_json(p, scale, f"obstacles[{i}]")
            for i, p in enumerate(raw.get("obstacles", []))
        ),
        intersection_zones=tuple(
            _poly_from_json(p, scale, f"intersection_zones[{i}]")
            for i, p in enumerate(raw.get("intersection_zones", []))
        ),
        road_zones=tuple(
            _poly_from_json(p, scale, f"road_zones[{i}]")
            for i, p in enumerate(raw.get("road_zones", []))
        ),
        bounds=bounds,
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
