"""World layout and per-agent state.

A scene holds static geometry only: obstacle polygons, intersection
zones, road zones and the rectangular scene bounds, all in meters. A
scene file's coordinates are scaled by its meters_per_unit once, at
load time; the scene keeps no scale. A scene is checked once, when it
is built, and holds its polygons as tuples, so it cannot change once
built and no reader checks it again; it owns what is derived from its
geometry: its one obstacle index.

An AgentColumns is one engine step's snapshot of its agents, the one
owner of what the step derives from them, from their order to pair tables.
"""

from __future__ import annotations

import enum
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import jsonin
from .geometry import (
    InvalidSceneError,
    ObstacleIndex,
    Vec2,
    _validate_simple_polygon,
    _within_cone_xy,
    abs_bearings_deg,
    point_in_zone,
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


# The shortest edge a scene polygon may have (m). The on-edge band of
# an edge of length L < 1 reaches about 1e-9 / L m from its line, and
# 1e-12 / L past its ends, so shorter edges would count points far from
# the polygon as on its boundary.
MIN_EDGE_M = 1e-3


@dataclass(frozen=True)
class Scene:
    """Given polygons as any sequences of Vec2, it stores each as a tuple
    and runs `validate`, so an invalid scene raises InvalidSceneError
    here and a scene that exists is valid. A pickled copy is not checked
    again."""

    obstacles: tuple[tuple[Vec2, ...], ...] = ()
    intersection_zones: tuple[tuple[Vec2, ...], ...] = ()
    road_zones: tuple[tuple[Vec2, ...], ...] = ()
    bounds: Rect = Rect(0.0, 0.0, 100.0, 100.0)

    def __post_init__(self) -> None:
        for name in ("obstacles", "intersection_zones", "road_zones"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        self.validate()

    @cached_property
    def obstacle_index(self) -> ObstacleIndex:
        """The one index of the scene's obstacles, which planning and the
        force pass read; built on first read, and pickled with the scene."""
        return ObstacleIndex(self.obstacles)

    def validate(self) -> None:
        """The one validity check of a scene, run by `__post_init__`."""
        b = self.bounds
        if not all(map(math.isfinite, (b.x_min, b.y_min, b.x_max, b.y_max))):
            raise InvalidSceneError("bounds must be finite")
        if b.x_min >= b.x_max or b.y_min >= b.y_max:
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
                for k, (a, b) in enumerate(zip(poly, [*poly[1:], poly[0]])):
                    length = a.distance_to(b)
                    if length < MIN_EDGE_M:
                        raise InvalidSceneError(f"{label}[{i}]: edge {k} is {length!r} m long, shorter than 1 mm")


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
    layer reads: give-way count, number of active games (set when a
    game is created, from the active conflicts), who is stopping for
    whom and following links."""

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

    @property
    def speed(self) -> float:
        return self.velocity.norm()

    def radius(self) -> float:
        return self.diameter / 2.0

    def next_waypoint(self) -> Vec2:
        return self.waypoints[0] if self.waypoints else self.goal


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


_agent_id = operator.attrgetter("id")


# Up to this many (car, other agent) pairs conflict recognition's
# scalar gates test every pair; above it a numpy screen runs first. On
# one core of a shared 2-vCPU Xeon host (Python 3.11, numpy 2.4), with
# random crowds in a 60 m square, the two break even between 76 and 100
# pairs, the screen paying for the snapshot's numpy columns: 53 against
# 11 us at 4 pairs, 99 against 195 us at 210 pairs.
RECOGNITION_SCALAR_MAX_PAIRS = 80


class AgentColumns:
    """One engine step's snapshot of the agents it is given, shared by
    the passes of that step: the cars, then the pedestrians, each in
    ascending id order. This is the one place that sorts and splits a
    step's agents. The agents must not move while it is in use.

    One pass over the sorted agents splits them and tests each car's
    zone flags, once, with the scalar zone tests: `in_intersection`,
    and `in_road` (in a road zone and in no intersection zone; the road
    zones are tested only for cars outside every intersection zone).
    Each test counts the crossing parity first and tries the edges'
    on-segment rule only for a point the parity puts outside, since a
    point inside is in the zone whether or not it lies on an edge.

    `screened` is the one copy of the size rule, more than
    RECOGNITION_SCALAR_MAX_PAIRS (car, other agent) pairs, by which
    recognition screens and the stopping test reads `car_pairs`.
    `kinematics` (read by the recognition screen and the repulsion grid)
    and `car_pairs` (by the recognition screen and the stopping test)
    are made on first use, at most once; a calibration-sized step, below
    every scalar guard, builds neither."""

    def __init__(self, agents: Iterable[AgentState], scene: Scene) -> None:
        cars: list[AgentState] = []
        pedestrians: list[AgentState] = []
        in_intersection: list[bool] = []
        in_road: list[bool] = []
        for a in sorted(agents, key=_agent_id):
            if a.kind is AgentKind.CAR:
                cars.append(a)
                inside = in_intersection_zone(a.position, scene)
                in_intersection.append(inside)
                in_road.append(not inside and in_road_zone(a.position, scene))
            else:
                pedestrians.append(a)
        self.cars, self.pedestrians = cars, pedestrians
        self.agents = cars + pedestrians
        self.in_intersection, self.in_road = in_intersection, in_road
        self.screened = len(cars) * (len(self.agents) - 1) > RECOGNITION_SCALAR_MAX_PAIRS

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
    def car_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(cars x agents) distance, bearing folded into [0, 180] degrees,
        and the dot and cross products of heading and offset
        (hx * ox + hy * oy, hx * oy - hy * ox): row k is car k, column j
        agent j, and the offset is agent j's position minus car k's."""
        k, n = self.kinematics, len(self.cars)
        hx, hy = k.hx[:n, None], k.hy[:n, None]
        with np.errstate(all="ignore"):
            ox = k.x - k.x[:n, None]
            oy = k.y - k.y[:n, None]
            # bearing_deg's cross and dot products and squared norm.
            cross = hx * oy - hy * ox
            dot = hx * ox + hy * oy
            bearing = abs_bearings_deg(cross, dot, ox * ox + oy * oy)
            return np.hypot(ox, oy), bearing, dot, cross


def in_field_of_view(
    observer: AgentState, target: Vec2, half_angle_deg: float, range_m: float
) -> bool:
    """The view test, the one copy of it: `target` lies within `range_m`
    of the observer and within `half_angle_deg` either side of its
    heading, both boundaries included. A target at the observer's own
    position is in view (bearing_deg reads a zero offset as 0 degrees).
    The distance is the one `Vec2.distance_to` gives, and the cone is
    tested on plain floats, so no Vec2 is made: recognition runs this
    per pair."""
    p, tx, ty = observer.position, target.x, target.y
    px, py = p.x, p.y
    if math.hypot(px - tx, py - ty) > range_m:
        return False
    h = observer.heading
    return _within_cone_xy(h.x, h.y, tx - px, ty - py, half_angle_deg)


def load_scene(path: str | Path) -> Scene:
    keys = ("obstacles", "intersection_zones", "road_zones", "bounds", "meters_per_unit")
    with jsonin.document(path, InvalidSceneError, keys) as raw:
        scale = jsonin.number(raw.get("meters_per_unit", 1.0), "meters_per_unit", InvalidSceneError)
        if not scale > 0.0:
            raise InvalidSceneError("meters_per_unit must be positive")
        bounds = raw.get("bounds")
        if not (isinstance(bounds, list) and len(bounds) == 4):
            raise InvalidSceneError("bounds must be [x_min, y_min, x_max, y_max]")

        def polygons(key: str) -> list[list[Vec2]]:
            polys = raw.get(key, [])
            if not isinstance(polys, list):
                raise InvalidSceneError(f"{key}: expected a list of polygons")
            out = []
            for i, poly in enumerate(polys):
                if not isinstance(poly, list):
                    raise InvalidSceneError(f"{key}[{i}]: expected a list of [x, y] pairs")
                out.append([jsonin.point(p, f"{key}[{i}]", InvalidSceneError) * scale for p in poly])
            return out

        return Scene(
            obstacles=polygons("obstacles"),
            intersection_zones=polygons("intersection_zones"),
            road_zones=polygons("road_zones"),
            bounds=Rect(*(jsonin.number(v, "bounds", InvalidSceneError) * scale for v in bounds)),
        )


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
