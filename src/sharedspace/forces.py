"""Force terms and per-step kinematics.

Pedestrians move under a driving force plus exponential repulsion from
agents and obstacles, weighted by an anisotropy factor that discounts
events behind them. Cars move through discrete modes (free flow,
following, game action, reactive stopping). Each agent-step arrives
here as one directive: a `DriveTo`, whose `push` carries a force-mode
pedestrian's summed agent and obstacle repulsion, or a `SetSpeed`. A
car stopping, following too close or decelerating in a game slows by
the one braking rule, `brake_for`.

`agent_repulsion` is the pairwise rule. The engine sums it for every
pedestrian in force mode once per step (`agent_repulsion_totals`), by
one of two paths chosen from the input size:

- up to SCALAR_REPULSION_MAX_PAIRS (target, other agent) pairs, the
  sequential sum of `agent_repulsion`, added in agent order: exactly
  that sum, bit for bit;
- above it, one numpy pass that applies the same rule to all pairs at
  once and adds each target's terms in agent order. numpy's `exp` and
  `hypot` may differ from `math`'s in the last bit, so a total can
  differ from the sequential sum by a few ulps: the tests bound each
  component by 1e-12 times the sum of the pair forces' magnitudes.

The crossover was measured on one core of a shared 2-vCPU Xeon host
(Python 3.11, numpy 2.4): the numpy pass costs about as much as 8 pairs
of the scalar rule (both ~100 us at 8 pairs, where a pair took ~12 us),
and the two paths break even between 8 and 10 pairs. A calibration
step (2-3 agents) sums pair by pair; a crowd step (~60 agents) takes
the numpy pass, which reads the step's AgentColumns snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Vec2, nearest_point_on_polygon, point_in_zone
from .params import SfmParams
from .scene import AgentColumns, AgentKind, AgentState, Scene


@dataclass(frozen=True)
class DriveTo:
    """Relax velocity toward a target point at a cruise speed, plus a
    pre-summed acceleration (a pedestrian's repulsion terms)."""

    target: Vec2
    speed: float
    push: Vec2 = Vec2(0.0, 0.0)


@dataclass(frozen=True)
class SetSpeed:
    """Assign speed directly along the current direction of motion."""

    speed: float


Directive = DriveTo | SetSpeed


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


# Up to this many (target, other agent) pairs, summing the scalar rule
# is faster than building the numpy grid (see the module docstring).
SCALAR_REPULSION_MAX_PAIRS = 8


def agent_repulsion_totals(
    targets: Sequence[AgentState],
    agents: Sequence[AgentState],
    params: SfmParams,
    columns: AgentColumns | None = None,
) -> list[Vec2]:
    """For each target, the sum of agent_repulsion from every other
    agent, added in the order of `agents`; every target must be one of
    `agents`. Up to SCALAR_REPULSION_MAX_PAIRS (target, other agent)
    pairs this is that sum, pair by pair; above it, one numpy pass,
    which reads `columns` when given: a snapshot of these same agents."""
    if not targets:
        return []
    if len(targets) * (len(agents) - 1) <= SCALAR_REPULSION_MAX_PAIRS:
        totals = []
        for t in targets:
            total = Vec2(0.0, 0.0)
            for other in agents:
                if other.id != t.id:
                    total = total + agent_repulsion(t, other, params)
            totals.append(total)
        return totals
    if columns is None:
        columns = AgentColumns(
            [a for a in agents if a.kind is AgentKind.CAR],
            [a for a in agents if a.kind is AgentKind.PEDESTRIAN],
            Scene(),
        )
    return _agent_repulsion_grid(targets, agents, params, columns)


def _agent_repulsion_grid(
    targets: Sequence[AgentState],
    agents: Sequence[AgentState],
    params: SfmParams,
    columns: AgentColumns,
) -> list[Vec2]:
    """agent_repulsion_totals as one numpy pass over an (agents x
    targets) grid."""
    row = columns.row
    k = columns.kinematics
    cols = np.array([row[a.id] for a in agents])
    rows = np.array([row[t.id] for t in targets])
    radius = np.where(k.is_car, k.diameter / 2.0, 0.0)
    # Grid axis 0 is the source j, axis 1 the target i.
    sx, sy, sr, s_car = k.x[cols, None], k.y[cols, None], radius[cols, None], k.is_car[cols, None]
    tx, ty, tr, t_car = k.x[rows], k.y[rows], radius[rows], k.is_car[rows]
    own = cols[:, None] == rows[None, :]
    ox = tx - sx
    oy = ty - sy
    coincident = (ox * ox + oy * oy == 0.0) & ~own
    pp = ~s_car & ~t_car
    v0 = np.where(pp, params.v0_pp, params.v0_pc)
    sigma = np.where(pp, params.sigma_pp, params.sigma_pc)
    hx, hy = k.ux[rows], k.uy[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.hypot(ox, oy)
        ux, uy = ox / n, oy / n
    d = np.maximum(0.0, n - tr - sr)
    # Anisotropy: cosine between the heading and the direction to j.
    cos_phi = np.clip(hx * -ux + hy * -uy, -1.0, 1.0)
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


def car_following_force(car: AgentState, leader: AgentState, params: SfmParams) -> Directive:
    """Keep-distance rule behind another car.

    At or beyond the safety gap the car drives toward the point one
    safety gap along the leader's direction of motion; closer than that
    it brakes for the leader.
    """
    d = car.position.distance_to(leader.position)
    if d >= params.d_min_cc:
        leader_dir = leader.velocity.normalized()
        if leader_dir.norm_sq() == 0.0:
            leader_dir = leader.heading
        return DriveTo(car.position + leader_dir * params.d_min_cc, car.desired_speed)
    return brake_for(car, leader, params)


def decel_rate(speed: float, distance: float, d_min: float) -> float:
    """Per-step speed reduction for a decelerating car."""
    if distance <= d_min:
        return speed / 2.0
    return speed * speed / (distance - d_min)


def brake_for(car: AgentState, other: AgentState, params: SfmParams) -> SetSpeed:
    """The car's next speed when it brakes for `other`: reduced at
    decel_rate against the safety distance for other's kind, never
    below zero."""
    distance = car.position.distance_to(other.position)
    d_min = params.d_min_for(other.kind is AgentKind.CAR)
    return SetSpeed(max(0.0, car.speed - decel_rate(car.speed, distance, d_min)))


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
    in its stopping corridor already walking across its front. The
    corridor test is in_stopping_corridor's, operation by operation,
    with the car's values read once."""
    cx, cy = car.position.x, car.position.y
    hx, hy = car.heading.x, car.heading.y
    d_min = params.d_min_pc
    diameter = car.diameter
    braking = []
    for ped in pedestrians:
        ox = ped.position.x - cx
        oy = ped.position.y - cy
        longitudinal = ox * hx + oy * hy
        if not 0.0 < longitudinal <= d_min:
            continue
        lateral = ox * -hy + oy * hx
        if not abs(lateral) <= (diameter + ped.diameter) / 2.0:
            continue
        if abs(ped.velocity.x * -hy + ped.velocity.y * hx) > 1e-9:
            braking.append(ped)
    return braking


def _unit_or(x: float, y: float, fallback: Vec2) -> tuple[float, float]:
    """Vec2(x, y).normalized(), or fallback where that is zero."""
    n = math.hypot(x, y)
    if n != 0.0:
        x, y = x / n, y / n
        if x * x + y * y != 0.0:
            return x, y
    return fallback.x, fallback.y


def integrate_step(agent: AgentState, directive: Directive, dt: float, params: SfmParams) -> AgentState:
    """Advance one step under one directive: velocity first, then
    position with the new velocity. Speed is clamped to the agent's
    maximum.

    The arithmetic is that of the Vec2 rules (`driving_force`,
    `Vec2.normalized`, ...) written out on plain floats, operation by
    operation, so the result is the same to the bit."""
    vx, vy = agent.velocity.x, agent.velocity.y
    if isinstance(directive, SetSpeed):
        new_speed = max(0.0, directive.speed)
        dx, dy = _unit_or(vx, vy, agent.heading)
        vx, vy = dx * new_speed, dy * new_speed
    else:
        # driving_force(agent, target, speed, params.tau) + push
        target, push = directive.target, directive.push
        dx, dy = _unit_or(target.x - agent.position.x, target.y - agent.position.y, agent.heading)
        inv_tau = 1.0 / params.tau
        tx = 0.0 + (dx * directive.speed - vx) * inv_tau + push.x
        ty = 0.0 + (dy * directive.speed - vy) * inv_tau + push.y
        vx, vy = vx + tx * dt, vy + ty * dt
    speed = math.hypot(vx, vy)
    if speed > agent.max_speed > 0.0:
        k = agent.max_speed / speed
        vx, vy = vx * k, vy * k
    position = Vec2(agent.position.x + vx * dt, agent.position.y + vy * dt)
    if vx * vx + vy * vy > 1e-18:
        # Not both zero, so the norm is positive.
        n = math.hypot(vx, vy)
        heading = Vec2(vx / n, vy / n)
    else:
        heading = agent.heading
    return agent.moved(position, Vec2(vx, vy), heading)
