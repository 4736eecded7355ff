"""Force terms and per-step kinematics.

Pedestrians move under a driving force plus exponential repulsion from
agents and obstacles, weighted by an anisotropy factor that discounts
events behind them. Cars move through discrete modes (free flow,
following, game action, reactive stopping); their updates arrive here
as movement directives.

`agent_repulsion` is the pairwise rule. The engine sums it for every
pedestrian in one numpy pass per step (`agent_repulsion_totals`), which
applies the same rule to all pairs at once and adds each target's terms
in agent order. numpy's `exp` and `hypot` may differ from `math`'s in
the last bit, so a summed force can differ from the sequential sum of
`agent_repulsion` by a few ulps: the tests bound each component by
1e-12 times the sum of the pair forces' magnitudes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Vec2, nearest_point_on_polygon, point_in_zone
from .params import SfmParams
from .scene import AgentKind, AgentState, Scene


@dataclass(frozen=True)
class DriveTo:
    """Relax velocity toward a target point at a cruise speed."""

    target: Vec2
    speed: float


@dataclass(frozen=True)
class SetSpeed:
    """Assign speed directly along the current direction of motion."""

    speed: float


@dataclass(frozen=True)
class Forces:
    """Pre-summed accelerations (repulsion terms)."""

    total: Vec2


Directive = DriveTo | SetSpeed | Forces


@dataclass(frozen=True)
class Steer:
    """Car-following outcome: head toward a point beside the leader."""

    target: Vec2


@dataclass(frozen=True)
class Decelerate:
    """Car-following outcome: gap below the safety distance."""


def driving_force(agent: AgentState, target: Vec2, speed: float, tau: float) -> Vec2:
    """Relaxation toward the desired velocity over time tau."""
    direction = (target - agent.position).normalized()
    if direction.norm_sq() == 0.0:
        direction = agent.heading
    desired = direction * speed
    return (desired - agent.velocity) * (1.0 / tau)


def anisotropy_factor(heading: Vec2, to_target: Vec2, anisotropy: float) -> float:
    """Weight in [anisotropy, 1]: 1 dead ahead, anisotropy directly behind."""
    d = to_target.normalized()
    if d.norm_sq() == 0.0:
        cos_phi = 1.0
    else:
        cos_phi = max(-1.0, min(1.0, heading.normalized().dot(d)))
    return anisotropy + (1.0 - anisotropy) * (1.0 + cos_phi) / 2.0


def _interaction_constants(i: AgentState, j: AgentState, params: SfmParams) -> tuple[float, float]:
    if i.kind is AgentKind.PEDESTRIAN and j.kind is AgentKind.PEDESTRIAN:
        return params.v0_pp, params.sigma_pp
    return params.v0_pc, params.sigma_pc


def _disc_distance(i: AgentState, j: AgentState) -> float:
    """Center distance minus the disc radii of any cars involved.

    Pedestrians enter as points; cars as discs of their diameter.
    """
    d = i.position.distance_to(j.position)
    if i.kind is AgentKind.CAR:
        d -= i.radius()
    if j.kind is AgentKind.CAR:
        d -= j.radius()
    return max(0.0, d)


def agent_repulsion(i: AgentState, j: AgentState, params: SfmParams) -> Vec2:
    """Exponential repulsion exerted on i by j."""
    v0, sigma = _interaction_constants(i, j, params)
    offset = i.position - j.position
    if offset.norm_sq() == 0.0:
        # Coincident agents: push along i's left normal at full strength.
        return i.heading.left_normal().normalized() * v0
    d = _disc_distance(i, j)
    factor = anisotropy_factor(i.heading, j.position - i.position, params.anisotropy)
    return offset.normalized() * (v0 * math.exp(-d / sigma) * factor)


def agent_repulsion_totals(
    targets: Sequence[AgentState], agents: Sequence[AgentState], params: SfmParams
) -> list[Vec2]:
    """For each target, the sum of agent_repulsion from every other
    agent, added in the order of `agents`; every target must be one of
    `agents`. One numpy pass over an (agents x targets) grid."""
    if not targets:
        return []
    column = {a.id: k for k, a in enumerate(agents)}
    # One row per agent: x, y, disc radius (0 for pedestrians), is-car.
    table = np.array([
        (a.position.x, a.position.y, a.radius() if a.kind is AgentKind.CAR else 0.0,
         a.kind is AgentKind.CAR)
        for a in agents
    ])
    rows = np.array([column[t.id] for t in targets])
    # Grid axis 0 is the source j, axis 1 the target i.
    src, tgt = table[:, None, :], table[rows][None, :, :]
    own = np.arange(len(agents))[:, None] == rows[None, :]
    ox = tgt[..., 0] - src[..., 0]
    oy = tgt[..., 1] - src[..., 1]
    coincident = (ox * ox + oy * oy == 0.0) & ~own
    pp = (src[..., 3] == 0.0) & (tgt[..., 3] == 0.0)
    v0 = np.where(pp, params.v0_pp, params.v0_pc)
    sigma = np.where(pp, params.sigma_pp, params.sigma_pc)
    headings = [t.heading.normalized() for t in targets]
    heading = np.array([(h.x, h.y) for h in headings])
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.hypot(ox, oy)
        ux, uy = ox / n, oy / n
    d = np.maximum(0.0, n - tgt[..., 2] - src[..., 2])
    # Anisotropy: cosine between the heading and the direction to j.
    cos_phi = np.clip(heading[:, 0] * -ux + heading[:, 1] * -uy, -1.0, 1.0)
    a = params.anisotropy
    factor = a + (1.0 - a) * (1.0 + cos_phi) / 2.0
    magnitude = v0 * np.exp(-d / sigma) * factor
    fx, fy = ux * magnitude, uy * magnitude
    if coincident.any():
        # Push along the target's left normal at full strength.
        normals = [t.heading.left_normal().normalized() for t in targets]
        push = np.array([(p.x, p.y) for p in normals])
        fx = np.where(coincident, push[:, 0] * v0, fx)
        fy = np.where(coincident, push[:, 1] * v0, fy)
    # cumsum adds each column in agent order, as a sequential loop would.
    fx = np.where(own, 0.0, fx).cumsum(axis=0)[-1]
    fy = np.where(own, 0.0, fy).cumsum(axis=0)[-1]
    return [Vec2(float(x), float(y)) for x, y in zip(fx, fy)]


def obstacle_repulsion(agent: AgentState, scene: Scene, params: SfmParams) -> Vec2:
    """Summed exponential repulsion from every obstacle polygon."""
    total = Vec2(0.0, 0.0)
    for poly in scene.obstacles:
        nearest, d = nearest_point_on_polygon(agent.position, poly)
        direction = (agent.position - nearest).normalized()
        if direction.norm_sq() == 0.0 or point_in_zone(agent.position, poly):
            # On or inside the obstacle: push along the outward normal of
            # the nearest edge, at d = 0 strength.
            direction = _outward_normal_near(agent.position, poly)
            d = 0.0
        total = total + direction * (params.u0 * math.exp(-d / params.r_obstacle))
    return total


def _outward_normal_near(p: Vec2, poly: Sequence[Vec2]) -> Vec2:
    from .geometry import nearest_point_on_segment, polygon_signed_area

    ring = list(poly)
    if polygon_signed_area(ring) < 0.0:
        ring.reverse()
    best_d = math.inf
    best_normal = Vec2(1.0, 0.0)
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        q = nearest_point_on_segment(p, a, b)
        d = p.distance_to(q)
        if d < best_d:
            best_d = d
            best_normal = -(b - a).normalized().left_normal()
    return best_normal


def car_following_force(car: AgentState, leader: AgentState, params: SfmParams) -> Steer | Decelerate:
    """Keep-distance rule behind another car.

    At or beyond the safety gap the car steers toward the point one
    safety gap along the leader's direction of motion; closer than that
    it must decelerate.
    """
    d = car.position.distance_to(leader.position)
    if d >= params.d_min_cc:
        leader_dir = leader.velocity.normalized()
        if leader_dir.norm_sq() == 0.0:
            leader_dir = leader.heading
        return Steer(target=car.position + leader_dir * params.d_min_cc)
    return Decelerate()


def decel_rate(speed: float, distance: float, d_min: float) -> float:
    """Per-step speed reduction for a decelerating car."""
    if distance <= d_min:
        return speed / 2.0
    return speed * speed / (distance - d_min)


def in_stopping_corridor(car: AgentState, ped: AgentState, params: SfmParams) -> bool:
    """True when ped stands in the frontal corridor of the car: within
    one safety distance ahead, inside a lane as wide as both bodies."""
    hx, hy = car.heading.x, car.heading.y
    ox = ped.position.x - car.position.x
    oy = ped.position.y - car.position.y
    longitudinal = ox * hx + oy * hy
    lateral = ox * -hy + oy * hx  # along the heading's left normal
    half_width = (car.diameter + ped.diameter) / 2.0
    return 0.0 < longitudinal <= params.d_min_pc and abs(lateral) <= half_width


def reactive_stopping(
    car: AgentState, pedestrians: Sequence[AgentState], params: SfmParams
) -> list[AgentState]:
    """Pedestrians, in input order, that the car must brake for: those
    in its stopping corridor already walking across its front."""
    hx, hy = car.heading.x, car.heading.y
    return [
        ped for ped in pedestrians
        if in_stopping_corridor(car, ped, params)
        and abs(ped.velocity.x * -hy + ped.velocity.y * hx) > 1e-9
    ]


def integrate_step(
    agent: AgentState, directives: Sequence[Directive], dt: float, params: SfmParams
) -> AgentState:
    """Advance one step: velocity first, then position with the new
    velocity. Speed is clamped to the agent's maximum."""
    speed_sets = [d for d in directives if isinstance(d, SetSpeed)]
    if speed_sets:
        new_speed = min(d.speed for d in speed_sets)
        new_speed = max(0.0, new_speed)
        direction = agent.velocity.normalized()
        if direction.norm_sq() == 0.0:
            direction = agent.heading
        velocity = direction * new_speed
    else:
        total = Vec2(0.0, 0.0)
        for d in directives:
            if isinstance(d, DriveTo):
                total = total + driving_force(agent, d.target, d.speed, params.tau)
            elif isinstance(d, Forces):
                total = total + d.total
        velocity = agent.velocity + total * dt
    speed = velocity.norm()
    if speed > agent.max_speed > 0.0:
        velocity = velocity * (agent.max_speed / speed)
    position = agent.position + velocity * dt
    heading = velocity.normalized() if velocity.norm_sq() > 1e-18 else agent.heading
    return dataclasses.replace(agent, position=position, velocity=velocity, heading=heading)
