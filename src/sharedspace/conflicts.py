"""Per-car conflict scanning and classification.

Each car scans other road users once per recognition pass. Inside an
intersection zone the scan gates on view range, a frontal angle window
(90 degrees for cars, the pedestrian field of view otherwise) and on
predicted positions closing below the safety distance. On road
sections only pedestrians are scanned, via a path-crossing test
anchored one body length behind the pedestrian. Detected competitor
sets are then classified into one of three complex conflict kinds, or
dismissed.

Guards consume prior-step state only, so a pass is idempotent on a
fixed snapshot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .geometry import Vec2, segments_intersect, within_cone
from .params import SfmParams
from .scene import AgentKind, AgentState, Scene, in_intersection_zone, in_road_zone

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
    scene: Scene,
    partners: Mapping[str, set[str]],
    in_intersection: bool,
) -> tuple[ConflictClass, tuple[str, ...], list[str]]:
    """Map the competitor sets found for one car onto a conflict class.
    `in_intersection` says whether the anchor stands in an intersection
    zone, as the recognition pass found it.

    Returns (class, competitive users, cars whose own conflicts were
    absorbed by a road-zone merge).
    """
    peds = tuple(peds)
    cars = tuple(cars)
    # No competitors: nothing to classify, so no zone test either.
    if not peds and not cars:
        return ConflictClass.NO_NEW_CONFLICT, (), []
    if peds and cars:
        return ConflictClass.PEDESTRIANS_TO_CARS, peds + cars, []
    if cars:
        return ConflictClass.CAR_TO_CAR, cars, []
    # Pedestrians only.
    if in_intersection:
        return ConflictClass.PEDESTRIANS_TO_CAR, peds, []
    if in_road_zone(anchor.position, scene):
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


def recognize_conflicts(
    cars: Sequence[AgentState],
    pedestrians: Sequence[AgentState],
    scene: Scene,
    params: SfmParams,
    active_conflicts: Sequence[Conflict] = (),
    step: int = 0,
    next_id: int = 0,
) -> RecognitionOutcome:
    """One recognition pass over every car, in ascending id order."""
    cars = sorted(cars, key=lambda a: a.id)
    pedestrians = sorted(pedestrians, key=lambda a: a.id)
    agents: dict[str, AgentState] = {a.id: a for a in cars}
    agents.update({a.id: a for a in pedestrians})

    conflict_by_id: dict[int, Conflict] = {c.id: c for c in active_conflicts}
    partners = partner_sets(conflict_by_id.values(), agents)
    outcome = RecognitionOutcome()
    counter = next_id
    # Each agent's predicted position, made when a pair first needs it.
    ahead: dict[str, Vec2] = {}

    def predicted(agent: AgentState) -> Vec2:
        p = ahead.get(agent.id)
        if p is None:
            p = ahead[agent.id] = predicted_position(agent, params)
        return p

    for car in cars:
        competitive_peds: list[str] = []
        competitive_cars: list[str] = []
        in_intersection = in_intersection_zone(car.position, scene)
        if in_intersection:
            for other in cars + pedestrians:
                if other.id == car.id:
                    continue
                # Skip pairs already engaged with each other, including
                # engagements created earlier in this same pass.
                if other.id in car.prior_conflict_partners:
                    continue
                if car.id in other.prior_conflict_partners:
                    continue
                if other.id in partners.get(car.id, ()):
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
            for ped in pedestrians:
                if ped.id in car.prior_conflict_partners:
                    continue
                if ped.id in partners.get(car.id, ()):
                    continue
                if car.position.distance_to(ped.position) > params.v_r:
                    continue
                if not within_cone(car.heading, ped.position - car.position, params.fov_half_angle_deg):
                    continue
                back_position = ped.position - ped.heading * ped.diameter
                if segments_intersect(back_position, ped.goal, car.position, car.goal):
                    competitive_peds.append(ped.id)

        conflict_class, users, merged_cars = classify_conflict(
            car, competitive_peds, competitive_cars, cars, agents, scene, partners, in_intersection
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
