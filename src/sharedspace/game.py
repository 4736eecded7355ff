"""Leader-follower decision games for complex conflicts.

The anchor car of a conflict leads; every competitive user follows.
Followers best-respond to each leader action independently, and the
leader picks the action whose induced follower profile maximizes its
own utility (subgame perfect equilibrium).

Utilities are reconstructed from ordinal action preferences, a mutual
penalty when leader and follower insist on crossing paths, and
weighted interaction features whose direction of influence follows the
fitted decision models of the active regime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .forces import Directive, DriveTo, SetSpeed, brake_for
from .geometry import Vec2, bearing_deg, manhattan, segments_intersect
from .params import GameParams, SfmParams
from .scene import AgentKind, AgentState, in_field_of_view


class Action(enum.Enum):
    CONTINUE = "continue"
    DECELERATE = "decelerate"
    DEVIATE = "deviate"


# Tie-break order: prefer progress.
ACTION_ORDER = (Action.CONTINUE, Action.DEVIATE, Action.DECELERATE)

PEDESTRIAN_ACTIONS = (Action.CONTINUE, Action.DECELERATE, Action.DEVIATE)
CAR_ACTIONS = (Action.CONTINUE, Action.DECELERATE)


class IllegalActionError(ValueError):
    """Raised when an action is applied to a kind that cannot take it."""


@dataclass(frozen=True)
class FeatureVector:
    """Interaction features of a subject against one competitor.

    Car-state fields (noai, car_stopped, car_following, car_followed,
    giveway_nr) are read from the car of the pair: the subject when it
    is a car, the competitor otherwise.
    """

    own_speed: float
    competitor_speed: float
    noai: float
    car_stopped: float
    car_following: float
    angle: float
    car_followed: float
    min_dist: float
    giveway_nr: float
    pedestrian_min_dist: float = 0.0
    car_min_dist: float = 0.0


def angle_bucket(theta_deg: float) -> int:
    """Five-level frontality score of the subject seen from the
    competitor's heading. 8 is dead ahead, 1 is behind."""
    t = theta_deg % 360.0
    if t < 16.0 or t > 344.0:
        return 8
    if 16.0 <= t <= 42.0 or 318.0 <= t <= 344.0:
        return 7
    if 42.0 < t <= 65.0 or 295.0 <= t < 318.0:
        return 6
    if 65.0 < t <= 90.0 or 270.0 <= t < 295.0:
        return 5
    return 1


def extract_features(
    subject: AgentState,
    competitor: AgentState,
    sfm: SfmParams,
    gp: GameParams,
) -> FeatureVector:
    car_context = subject if subject.kind is AgentKind.CAR else competitor
    ped_context = subject if subject.kind is AgentKind.PEDESTRIAN else competitor

    if subject.kind is AgentKind.CAR:
        own_speed = subject.speed
    else:
        own_speed = 1.0 if subject.speed > gp.s_high else 0.0
    competitor_speed = 1.0 if competitor.speed < gp.s_normal else 0.0

    if subject.kind is AgentKind.CAR:
        stopping_for = car_context.currently_stopping_for - {competitor.id}
    else:
        stopping_for = car_context.currently_stopping_for
    car_stopped = 1.0 if stopping_for else 0.0

    theta = bearing_deg(competitor.heading, subject.position - competitor.position)
    distance = subject.position.distance_to(competitor.position)
    min_dist = sfm.d_min_pc - distance if distance < sfm.d_min_pc else 0.0

    l1 = manhattan(subject.position, competitor.position)
    pedestrian_min_dist = 0.0
    if l1 < sfm.d_min_pc and distance - l1 <= gp.m:
        pedestrian_min_dist = distance
    car_min_dist = 0.0
    if l1 < gp.n and ped_context.kind is AgentKind.PEDESTRIAN and ped_context.speed > gp.s_high:
        car_min_dist = l1

    return FeatureVector(
        own_speed=own_speed,
        competitor_speed=competitor_speed,
        noai=float(car_context.active_interactions),
        car_stopped=car_stopped,
        car_following=1.0 if car_context.following_car_id is not None else 0.0,
        angle=float(angle_bucket(theta)),
        car_followed=1.0 if car_context.followed_by_car_id is not None else 0.0,
        min_dist=min_dist,
        giveway_nr=float(car_context.giveway_count),
        pedestrian_min_dist=pedestrian_min_dist,
        car_min_dist=car_min_dist,
    )


# Direction of influence per (kind, action), from the retained decision
# models. Positive raises that action's utility.
_CAR_DECELERATE_SIGNS = {
    "hbs": {
        "own_speed": -1.0,
        "competitor_speed": 1.0,
        "noai": 1.0,
        "car_stopped": 1.0,
        "angle": 1.0,
        "car_following": 1.0,
        "min_dist": -1.0,
        "giveway_nr": -1.0,
    },
    "dut": {
        "own_speed": -1.0,
        "competitor_speed": 1.0,
        "noai": 1.0,
        "car_stopped": -1.0,  # observed reversal at the campus site
        "angle": 1.0,
        "car_following": 1.0,
        "pedestrian_min_dist": -1.0,
        "giveway_nr": -1.0,
    },
}
_PED_SIGNS = {
    "hbs": {
        Action.DECELERATE: {
            "own_speed": 1.0,
            "competitor_speed": -1.0,
            "car_stopped": -1.0,
            "angle": 1.0,
            "car_followed": 1.0,
        },
        Action.DEVIATE: {
            "own_speed": 1.0,
            "competitor_speed": -1.0,
            "angle": 1.0,
            "car_followed": -1.0,
        },
    },
    "dut": {
        Action.DECELERATE: {
            "own_speed": 1.0,
            "competitor_speed": -1.0,
            "car_stopped": -1.0,
            "angle": 1.0,
            "car_followed": 1.0,
            "car_min_dist": -1.0,
        },
        Action.DEVIATE: {
            "own_speed": 1.0,
            "competitor_speed": -1.0,
            "angle": 1.0,
            "car_followed": -1.0,
            "car_min_dist": -1.0,
        },
    },
}

_FEATURE_WEIGHT_ATTR = {
    "own_speed": "g_own_speed",
    "competitor_speed": "g_competitor_speed",
    "noai": "g_noai",
    "car_stopped": "g_stopped",
    "angle": "g_angle",
    "min_dist": "g_distance",
    "pedestrian_min_dist": "g_distance",
    "car_min_dist": "g_distance",
    "giveway_nr": "g_giveway",
    "car_following": "g_following",
    "car_followed": "g_followed",
}


def _feature_term(fv: FeatureVector, kind: AgentKind, action: Action, gp: GameParams) -> float:
    if action is Action.CONTINUE:
        return 0.0
    if kind is AgentKind.CAR:
        if action is not Action.DECELERATE:
            raise IllegalActionError("cars only continue or decelerate")
        signs = _CAR_DECELERATE_SIGNS[gp.regime]
    else:
        signs = _PED_SIGNS[gp.regime][action]
    total = 0.0
    for name, sign in signs.items():
        weight = getattr(gp, _FEATURE_WEIGHT_ATTR[name])
        total += sign * weight * getattr(fv, name)
    return total


def _base_value(action: Action, gp: GameParams) -> float:
    if action is Action.CONTINUE:
        return gp.base_continue
    if action is Action.DECELERATE:
        return gp.base_decelerate
    return gp.base_deviate


def actions_for(kind: AgentKind) -> tuple[Action, ...]:
    return CAR_ACTIONS if kind is AgentKind.CAR else PEDESTRIAN_ACTIONS


@dataclass(frozen=True)
class PairContext:
    """Inputs for one leader-follower pairing."""

    leader_view: FeatureVector
    follower_view: FeatureVector
    paths_cross: bool


@dataclass
class PayoffGame:
    """Payoff tables for one leader and its followers.

    follower_utility[fid] maps (leader action, own action) to that
    follower's payoff. leader_utility maps (leader action, follower
    action profile) to the leader's payoff; a built game holds it only
    at each leader action's best-response profile, the one entry per
    leader action that solve_spne reads. A caller may still pass a full
    table.
    """

    leader: str
    followers: tuple[str, ...]
    leader_actions: tuple[Action, ...]
    follower_actions: Mapping[str, tuple[Action, ...]]
    leader_utility: Mapping[tuple[Action, tuple[Action, ...]], float]
    follower_utility: Mapping[str, Mapping[tuple[Action, Action], float]]


def build_payoff_matrix(
    leader: AgentState,
    followers: Sequence[AgentState],
    contexts: Mapping[str, PairContext],
    gp: GameParams,
) -> PayoffGame:
    leader_actions = actions_for(leader.kind)
    follower_actions = {f.id: actions_for(f.kind) for f in followers}
    follower_ids = tuple(f.id for f in followers)

    follower_utility: dict[str, dict[tuple[Action, Action], float]] = {}
    for f in followers:
        ctx = contexts[f.id]
        table: dict[tuple[Action, Action], float] = {}
        for la in leader_actions:
            for fa in follower_actions[f.id]:
                u = _base_value(fa, gp) + _feature_term(ctx.follower_view, f.kind, fa, gp)
                if ctx.paths_cross and la is Action.CONTINUE and fa is Action.CONTINUE:
                    u += gp.collision_penalty
                table[(la, fa)] = u
        follower_utility[f.id] = table

    leader_utility: dict[tuple[Action, tuple[Action, ...]], float] = {}
    game = PayoffGame(
        leader=leader.id,
        followers=follower_ids,
        leader_actions=leader_actions,
        follower_actions=follower_actions,
        leader_utility=leader_utility,
        follower_utility=follower_utility,
    )
    for la in leader_actions:
        profile = follower_best_response(game, la)
        u = _base_value(la, gp) + sum(
            _feature_term(contexts[fid].leader_view, leader.kind, la, gp)
            for fid in follower_ids
        )
        for fid, fa in zip(follower_ids, profile):
            if contexts[fid].paths_cross and la is Action.CONTINUE and fa is Action.CONTINUE:
                u += gp.collision_penalty
        leader_utility[(la, profile)] = u
    return game


def _best_action(actions: Sequence[Action], utility_of) -> Action:
    # max keeps the first of equal maxima, so ties go to ACTION_ORDER.
    return max(sorted(actions, key=ACTION_ORDER.index), key=utility_of)


def follower_best_response(game: PayoffGame, leader_action: Action) -> tuple[Action, ...]:
    """Each follower's own-utility argmax given the leader's action.

    Ties break toward progress: continue, then deviate, then decelerate.
    """
    profile = []
    for fid in game.followers:
        table = game.follower_utility[fid]
        profile.append(
            _best_action(game.follower_actions[fid], lambda a, fid=fid, t=table: t[(leader_action, a)])
        )
    return tuple(profile)


def solve_spne(game: PayoffGame) -> tuple[Action, tuple[Action, ...]]:
    """Leader action maximizing leader utility against follower best
    responses, plus that follower profile."""
    responses = {la: follower_best_response(game, la) for la in game.leader_actions}
    best_la = _best_action(
        game.leader_actions, lambda la: game.leader_utility[(la, responses[la])]
    )
    return best_la, responses[best_la]


def apply_action(
    agent: AgentState,
    action: Action,
    partner: AgentState,
    sfm: SfmParams,
) -> Directive:
    """Translate a latched game action into a movement directive.

    Continue keeps the pedestrian crossing ahead of the car (one action
    scale in front) when their goal line cuts the car's frontal
    segment. Decelerate halves pedestrian speed, or brakes a car for its
    partner (brake_for). Deviate aims one action scale behind the
    car while it stays in view.
    """
    if agent.kind is AgentKind.CAR and action is Action.DEVIATE:
        raise IllegalActionError("cars cannot deviate")
    p, h = partner.position, partner.heading
    if action is Action.CONTINUE:
        if agent.kind is AgentKind.PEDESTRIAN:
            ahead, behind = sfm.s_a, sfm.s_a / 2.0
            front = Vec2(p.x + h.x * ahead, p.y + h.y * ahead)
            back = Vec2(p.x - h.x * behind, p.y - h.y * behind)
            if segments_intersect(agent.position, agent.goal, front, back):
                return DriveTo(target=front, speed=agent.desired_speed)
        return DriveTo(target=agent.next_waypoint(), speed=agent.desired_speed)
    if action is Action.DECELERATE:
        if agent.kind is AgentKind.PEDESTRIAN:
            return SetSpeed(speed=agent.speed / 2.0)
        return brake_for(agent, partner, sfm)
    # Deviate, pedestrian only.
    if in_field_of_view(agent, partner.position, sfm.fov_half_angle_deg, sfm.v_r):
        target = Vec2(p.x - h.x * sfm.s_a, p.y - h.y * sfm.s_a)
        return DriveTo(target=target, speed=agent.desired_speed)
    return DriveTo(target=agent.next_waypoint(), speed=agent.desired_speed)
