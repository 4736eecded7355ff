"""Conflict recognition and classification.

A recognition pass works on one step's AgentColumns snapshot, car by
car in ascending id order. A car in an intersection zone tests every
other road user against its view range, a frontal angle window (90
degrees for cars, the pedestrian field of view otherwise) and its
predicted positions closing below the safety distance. A car in a road
zone tests only pedestrians, by a path-crossing test anchored one body
length behind the pedestrian. A car in neither zone forms no conflict.
The competitor sets found are then classified into one of three complex
conflict kinds, or dismissed.

The pair gates are the scalar rules below. Above
RECOGNITION_SCALAR_MAX_PAIRS (car, other agent) pairs a numpy pass over
the snapshot first drops the pairs that surely fail range, cone or
predicted gap (its bands widened by geometry's margins), and only the
rest go through the scalar rules, in the same order. The screen
decides nothing, so conflicts, their ids and order are the same with
or without it.

The active conflicts are the only record of who is engaged with whom.
A pass reads two maps of engagements from them: the one it started
with and a live one that it updates as it creates conflicts and merges
them away. A pair engaged in either map is not tested again, so a
road-zone merge that dissolves an engagement does not let the pair be
detected again in the same pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import Vec2, cone_limit, segments_intersect, widened, within_cone
from .params import SfmParams
from .scene import AgentColumns, AgentKind, AgentState, Scene
# Kept importable here: perfbench/tracer.py patches these names.
from .scene import in_intersection_zone, in_road_zone  # noqa: F401

CAR_CONE_HALF_ANGLE_DEG = 90.0

# Up to this many (car, other agent) pairs the scalar gates test every
# pair; above it a numpy screen runs first. On one core of a shared
# 2-vCPU Xeon host (Python 3.11, numpy 2.4), with random crowds in a
# 60 m square, the two break even between 76 and 100 pairs, the screen
# paying for the snapshot's numpy columns: 53 against 11 us at 4 pairs,
# 99 against 195 us at 210 pairs.
RECOGNITION_SCALAR_MAX_PAIRS = 80


class ConflictClass(enum.Enum):
    PEDESTRIANS_TO_CAR = "pedestrians_to_car"
    PEDESTRIANS_TO_CARS = "pedestrians_to_cars"
    CAR_TO_CAR = "car_to_car"
    NO_NEW_CONFLICT = "no_new_conflict"


@dataclass(frozen=True)
class Conflict:
    id: int
    anchor_car: str
    competitive_users: tuple[str, ...]
    conflict_class: ConflictClass
    created_at_step: int

    def participants(self) -> tuple[str, ...]:
        return (self.anchor_car,) + self.competitive_users


@dataclass
class RecognitionOutcome:
    """New conflicts plus ids of prior conflicts dissolved by merging."""

    new_conflicts: list[Conflict] = field(default_factory=list)
    dissolved_ids: list[int] = field(default_factory=list)


def predicted_position(agent: AgentState, params: SfmParams) -> Vec2:
    """Position after coasting one prediction horizon at max speed."""
    return agent.position + agent.heading * (params.s_c * agent.max_speed)


def _angle_gate(car: AgentState, other: AgentState, params: SfmParams) -> bool:
    half = (
        CAR_CONE_HALF_ANGLE_DEG
        if other.kind is AgentKind.CAR
        else params.fov_half_angle_deg
    )
    return within_cone(car.heading, other.position - car.position, half)


def nearest_id(
    agent: AgentState, candidates: Iterable[str], agents: Mapping[str, AgentState]
) -> str | None:
    """The candidate present in `agents` nearest to `agent`; ties go to
    the smallest id, and None when no candidate is present."""
    best: str | None = None
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


def _engage(partners: dict[str, set[str]], conflict: Conflict) -> None:
    members = [m for m in conflict.participants() if m in partners]
    for member in members:
        partners[member].update(m for m in members if m != member)


def partner_sets(conflicts: Iterable[Conflict], ids: Iterable[str]) -> dict[str, set[str]]:
    """Each id's fellow participants across the conflicts; members
    outside `ids` are left out."""
    partners: dict[str, set[str]] = {aid: set() for aid in ids}
    for conflict in conflicts:
        _engage(partners, conflict)
    return partners


def classify_conflict(
    anchor: AgentState,
    peds: Sequence[str],
    cars: Sequence[str],
    all_cars: Sequence[AgentState],
    agents: Mapping[str, AgentState],
    partners: Mapping[str, set[str]],
    in_intersection: bool,
    in_road: bool,
) -> tuple[ConflictClass, tuple[str, ...], list[str]]:
    """Map the competitor sets found for one car onto a conflict class.
    `in_intersection` and `in_road` say whether the anchor stands in an
    intersection zone or a road zone, as the step's snapshot found it.

    Returns (class, competitive users, cars whose own conflicts were
    absorbed by a road-zone merge).
    """
    peds = tuple(peds)
    cars = tuple(cars)
    if not peds and not cars:
        return ConflictClass.NO_NEW_CONFLICT, (), []
    if peds and cars:
        return ConflictClass.PEDESTRIANS_TO_CARS, peds + cars, []
    if cars:
        return ConflictClass.CAR_TO_CAR, cars, []
    # Pedestrians only.
    if in_intersection:
        return ConflictClass.PEDESTRIANS_TO_CAR, peds, []
    if in_road:
        own_nearest = nearest_id(anchor, peds, agents)
        merged: list[str] = []
        for other in all_cars:
            if other.id == anchor.id:
                continue
            engaged = partners.get(other.id)
            if not engaged:
                continue
            if nearest_id(other, engaged, agents) == own_nearest:
                merged.append(other.id)
        if merged:
            return ConflictClass.PEDESTRIANS_TO_CARS, peds + tuple(merged), merged
        return ConflictClass.PEDESTRIANS_TO_CAR, peds, []
    return ConflictClass.NO_NEW_CONFLICT, (), []


def _scan_lists(columns: AgentColumns, params: SfmParams) -> list[list[AgentState]]:
    """Per car of `columns`: the road users its scan tests, in scan
    order. An intersection car scans the cars, then the pedestrians; a
    road car the pedestrians; any other car nobody. Above
    RECOGNITION_SCALAR_MAX_PAIRS pairs, the lists leave out the agents
    that the screen finds surely out of range, out of the angle window
    or (intersection cars) predicted too far apart."""
    cars, peds, agents = columns.cars, columns.pedestrians, columns.agents
    if len(cars) * (len(agents) - 1) <= RECOGNITION_SCALAR_MAX_PAIRS:
        return [
            agents if inter else peds if road else []
            for inter, road in zip(columns.in_intersection, columns.in_road)
        ]
    n = len(cars)
    k, pairs = columns.kinematics, columns.car_pairs
    cone = np.where(
        k.is_car, cone_limit(CAR_CONE_HALF_ANGLE_DEG), cone_limit(params.fov_half_angle_deg)
    )
    unseen = (pairs.distance > widened(params.v_r)) | (pairs.bearing > cone)
    with np.errstate(all="ignore"):
        # predicted_position, then the gap from each car's to each agent's.
        lead = params.s_c * k.max_speed
        px, py = k.x + k.hx * lead, k.y + k.hy * lead
        gap = np.hypot(px - px[:n, None], py - py[:n, None])
    d_min = np.where(k.is_car, widened(params.d_min_cc), widened(params.d_min_pc))
    close = ~(unseen | (gap > d_min))
    inter = np.array(columns.in_intersection)[:, None]
    road = np.array(columns.in_road)[:, None] & ~k.is_car & ~unseen
    lists: list[list[AgentState]] = [[] for _ in cars]
    rows, cols = np.nonzero(np.where(inter, close, road))
    for r, c in zip(rows.tolist(), cols.tolist()):
        lists[r].append(agents[c])
    return lists


def recognize_conflicts(
    cars: Sequence[AgentState],
    pedestrians: Sequence[AgentState],
    scene: Scene,
    params: SfmParams,
    active_conflicts: Sequence[Conflict] = (),
    step: int = 0,
    next_id: int = 0,
    columns: AgentColumns | None = None,
) -> RecognitionOutcome:
    """One recognition pass over every car, in ascending id order.
    `columns`, when given, is the step's snapshot of these same cars and
    pedestrians in `scene`."""
    if columns is None:
        columns = AgentColumns(
            sorted(cars, key=lambda a: a.id), sorted(pedestrians, key=lambda a: a.id), scene
        )
    outcome = RecognitionOutcome()
    scans = _scan_lists(columns, params) if len(columns.agents) > 1 else []
    if not any(scans):
        # No pair to test: no conflict forms and none is merged away.
        return outcome
    cars = columns.cars
    agents: dict[str, AgentState] = {a.id: a for a in columns.agents}

    conflict_by_id: dict[int, Conflict] = {c.id: c for c in active_conflicts}
    prior = partner_sets(active_conflicts, agents)
    partners = {aid: set(ids) for aid, ids in prior.items()}
    counter = next_id
    # Each agent's predicted position, made when a pair first needs it.
    ahead: dict[str, Vec2] = {}

    def predicted(agent: AgentState) -> Vec2:
        p = ahead.get(agent.id)
        if p is None:
            p = ahead[agent.id] = predicted_position(agent, params)
        return p

    for car, scan, in_intersection, in_road in zip(
        cars, scans, columns.in_intersection, columns.in_road
    ):
        competitive_peds: list[str] = []
        competitive_cars: list[str] = []
        # Agents engaged with the car when the pass began or since.
        engaged = prior[car.id] | partners[car.id]
        if in_intersection:
            for other in scan:
                if other.id == car.id or other.id in engaged:
                    continue
                if car.position.distance_to(other.position) > params.v_r:
                    continue
                if not _angle_gate(car, other, params):
                    continue
                predicted_gap = predicted(car).distance_to(predicted(other))
                if predicted_gap > params.d_min_for(other.kind is AgentKind.CAR):
                    continue
                if other.kind is AgentKind.CAR:
                    competitive_cars.append(other.id)
                else:
                    competitive_peds.append(other.id)
        else:
            for ped in scan:
                if ped.id in engaged:
                    continue
                if car.position.distance_to(ped.position) > params.v_r:
                    continue
                if not within_cone(car.heading, ped.position - car.position, params.fov_half_angle_deg):
                    continue
                back_position = ped.position - ped.heading * ped.diameter
                if segments_intersect(back_position, ped.goal, car.position, car.goal):
                    competitive_peds.append(ped.id)

        conflict_class, users, merged_cars = classify_conflict(
            car, competitive_peds, competitive_cars, cars, agents, partners,
            in_intersection, in_road,
        )
        if conflict_class is ConflictClass.NO_NEW_CONFLICT:
            continue
        if merged_cars:
            # A road-zone merge absorbs the merged cars' existing conflicts.
            absorbed = set(merged_cars)
            for conflict in list(conflict_by_id.values()):
                if absorbed.isdisjoint(conflict.participants()):
                    continue
                del conflict_by_id[conflict.id]
                if conflict in outcome.new_conflicts:
                    outcome.new_conflicts.remove(conflict)
                else:
                    outcome.dissolved_ids.append(conflict.id)
            partners = partner_sets(conflict_by_id.values(), agents)
        conflict = Conflict(
            id=counter,
            anchor_car=car.id,
            competitive_users=users,
            conflict_class=conflict_class,
            created_at_step=step,
        )
        counter += 1
        outcome.new_conflicts.append(conflict)
        conflict_by_id[conflict.id] = conflict
        _engage(partners, conflict)
    outcome.dissolved_ids.sort()
    return outcome
