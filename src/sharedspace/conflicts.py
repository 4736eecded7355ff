"""Conflict recognition and classification.

A recognition pass works on one step's AgentColumns snapshot, car by
car in ascending id order. A road user is a candidate for a car only if
the car sees it: `scene.in_field_of_view`, the one view test that game
actions and retirement use too, within the view range v_r and a
frontal half angle of CAR_CONE_HALF_ANGLE_DEG for a car, the
pedestrian field of view otherwise. A car in an intersection zone tests
every other road user it sees for predicted positions closing below
the safety distance. A car in a road zone tests only the pedestrians it
sees, by a path-crossing test anchored one body length behind the
pedestrian. A car in neither zone forms no conflict. The competitor
sets found are then classified into one of three complex conflict
kinds, or dismissed.

The pair gates are these scalar rules. On a `screened` snapshot, one
of more than scene.RECOGNITION_SCALAR_MAX_PAIRS (car, other agent)
pairs, a numpy pass over the snapshot's `car_pairs` table first drops
the pairs that surely fail range, cone or predicted gap (its bands
widened by geometry's margins), and only the rest go through the scalar
rules, in the same order. The screen decides no conflict, so conflicts, their
ids and order are the same with or without it. The table's
heading-by-offset dot and cross products, made once per snapshot, do
decide each car's reactive-stopping corridor on a screened snapshot
(`forces.stopping_lists`): no margin is needed there, since they are
the products the scalar corridor computes, to the bit.

The active conflicts are the only record of who is engaged with whom.
A pass keeps two maps of engagements, both seeded from the partner map
of the active conflicts that the simulation keeps across steps (or
derived from the active conflicts by `partner_sets` when none is
given): every pair engaged during the pass, when it began or in a
conflict it created, which is not tested again; and the pairs of the
conflicts in play, which the road-zone merge rule reads. So a merge
that dissolves an engagement, old or new, does not let the pair be
detected again in the same pass. The pass reads the given map until it
forms its first conflict and works on copies from then on, so the
caller's map is never changed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .geometry import Vec2, cone_limit, segments_intersect, widened
from .params import SfmParams
from .scene import AgentColumns, AgentKind, AgentState, Scene, in_field_of_view
# Kept importable here: perfbench/tracer.py patches these names.
from .scene import in_intersection_zone, in_road_zone  # noqa: F401

CAR_CONE_HALF_ANGLE_DEG = 90.0


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
    p, h = agent.position, agent.heading
    lead = params.s_c * agent.max_speed
    return Vec2(p.x + h.x * lead, p.y + h.y * lead)


def nearest_id(
    agent: AgentState, candidates: Iterable[str], agents: Mapping[str, AgentState]
) -> str | None:
    """The candidate present in `agents` nearest to `agent`; ties go to
    the smallest id, and None when no candidate is present. A candidate
    at a NaN or infinite distance never wins. One pass in any order:
    the result does not depend on how a set of candidates iterates."""
    p = agent.position
    x, y = p.x, p.y
    best: str | None = None
    best_d = math.inf
    for cid in candidates:
        other = agents.get(cid)
        if other is None:
            continue
        q = other.position
        # Vec2.distance_to, on the floats.
        d = math.hypot(x - q.x, y - q.y)
        if d < best_d or (d == best_d and best is not None and cid < best):
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
    road car the pedestrians; any other car nobody. On a `screened`
    snapshot the lists leave out the agents that the screen, from the
    snapshot's `car_pairs`, finds surely out of range, out of the angle
    window or (intersection cars) predicted too far apart."""
    cars, peds, agents = columns.cars, columns.pedestrians, columns.agents
    if not columns.screened:
        return [
            agents if inter else peds if road else []
            for inter, road in zip(columns.in_intersection, columns.in_road)
        ]
    n = len(cars)
    k = columns.kinematics
    distance, bearing, _, _ = columns.car_pairs
    cone = np.where(
        k.is_car, cone_limit(CAR_CONE_HALF_ANGLE_DEG), cone_limit(params.fov_half_angle_deg)
    )
    unseen = (distance > widened(params.v_r)) | (bearing > cone)
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
    active_conflicts: Collection[Conflict] = (),
    step: int = 0,
    next_id: int = 0,
    columns: AgentColumns | None = None,
    partners: Mapping[str, set[str]] | None = None,
) -> RecognitionOutcome:
    """One recognition pass over every car, in ascending id order. A car
    tests no agent engaged with it during the pass, even in a conflict
    that a merge has since absorbed. `columns`, when given, is the
    step's snapshot in `scene`; it is used only when its `cars` and
    `pedestrians` are the very lists passed, and otherwise a snapshot
    of the given agents is taken. `partners`, when given, must equal
    `partner_sets(active_conflicts, ids of the given agents)`; the pass
    copies it before its first change and leaves it as it was. Without
    it the pass derives that map itself."""
    if columns is None or columns.cars is not cars or columns.pedestrians is not pedestrians:
        columns = AgentColumns([*cars, *pedestrians], scene)
    outcome = RecognitionOutcome()
    scans = _scan_lists(columns, params) if len(columns.agents) > 1 else []
    if not any(scans):
        # No pair to test: no conflict forms and none is merged away.
        return outcome
    cars = columns.cars
    v_r, ped_half_angle = params.v_r, params.fov_half_angle_deg
    if partners is None:
        partners = partner_sets(active_conflicts, (a.id for a in columns.agents))
    # Both maps are the given one until the pass forms its first
    # conflict, which copies them. `agents` is made for the first car
    # with a competitor, `conflict_by_id` with the first conflict.
    engaged_in_pass = partners
    agents: dict[str, AgentState] | None = None
    conflict_by_id: dict[int, Conflict] | None = None
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
        engaged = engaged_in_pass[car.id]
        if in_intersection:
            for other in scan:
                if other.id == car.id or other.id in engaged:
                    continue
                is_car = other.kind is AgentKind.CAR
                half_angle = CAR_CONE_HALF_ANGLE_DEG if is_car else ped_half_angle
                if not in_field_of_view(car, other.position, half_angle, v_r):
                    continue
                p, q = predicted(car), predicted(other)
                if math.hypot(p.x - q.x, p.y - q.y) > params.d_min_for(is_car):
                    continue
                if is_car:
                    competitive_cars.append(other.id)
                else:
                    competitive_peds.append(other.id)
        else:
            for ped in scan:
                if ped.id in engaged or not in_field_of_view(car, ped.position, ped_half_angle, v_r):
                    continue
                p, h, length = ped.position, ped.heading, ped.diameter
                back_position = Vec2(p.x - h.x * length, p.y - h.y * length)
                if segments_intersect(back_position, ped.goal, car.position, car.goal):
                    competitive_peds.append(ped.id)

        if not (competitive_peds or competitive_cars):
            continue
        if agents is None:
            agents = {a.id: a for a in columns.agents}
        conflict_class, users, merged_cars = classify_conflict(
            car, competitive_peds, competitive_cars, cars, agents, partners,
            in_intersection, in_road,
        )
        if conflict_class is ConflictClass.NO_NEW_CONFLICT:
            continue
        if conflict_by_id is None:
            conflict_by_id = {c.id: c for c in active_conflicts}
            engaged_in_pass = {aid: set(ids) for aid, ids in partners.items()}
            partners = {aid: set(ids) for aid, ids in partners.items()}
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
        _engage(engaged_in_pass, conflict)
        _engage(partners, conflict)
    outcome.dissolved_ids.sort()
    return outcome
