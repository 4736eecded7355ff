"""Force terms and per-step kinematics.

Pedestrians move under a driving force plus exponential repulsion from
agents and obstacles, weighted by an anisotropy factor that discounts
events behind them. Cars move through discrete modes (free flow,
following, game action, reactive stopping). Each agent-step arrives
here as one directive: a `DriveTo` (target, speed, and the floats
`push_x` and `push_y`, 0.0 unless set, which carry a force-mode
pedestrian's summed agent and obstacle repulsion), or a `SetSpeed`.
`integrate_step` is the one integrator of both. A car stopping,
following too close or decelerating in a game slows by the one braking
rule, `brake_for`.

`agent_repulsion` is the pairwise rule, a `Vec2` view of its plain-float
form `_repulsion_xy`. The engine sums it for every pedestrian in force
mode once per step (`repulsion_sums`, which hands each total on as its
two floats), adds the obstacle push to those floats and puts them in
the pedestrian's `DriveTo`: the floats a `Vec2` push held, added in the
order `Vec2.__add__` adds them, so the bits are those of the `Vec2`
form. The sum takes one of two paths chosen from the input size:

- up to SCALAR_REPULSION_MAX_PAIRS (target, other agent) pairs, the
  sequential sum of `_repulsion_xy`, added in agent order on plain
  floats: exactly the sum of `agent_repulsion`, bit for bit;
- above it, one numpy pass over the given AgentColumns snapshot that
  applies the same rule to all pairs at once and adds each target's
  terms in agent order. numpy's `exp` and `hypot` may differ from `math`'s in the last bit, so a total can
  differ from the sequential sum by a few ulps: the tests bound each
  component by 1e-12 times the sum of the pair forces' magnitudes.

Measured on one core of a shared 2-vCPU Xeon host (Python 3.11, numpy
2.4), a pair of the float rule takes ~1.4 us and the numpy pass ~55-65
us, building the snapshot's numpy columns included: the two break even
between 40 and 50 pairs. The guard stays at 8 because moving it changes
which path, and so which bits, a step of 9 to ~45 pairs gets. A
calibration step (2-3 agents) sums pair by pair; a crowd step (~60
agents) takes the numpy pass, which reads the step's AgentColumns
snapshot and reuses its temporaries in place.

A car's stopping corridor is `_in_corridor`, one copy of the rule on
floats, which `reactive_stopping` reads. On a snapshot the recognition
screen runs on, `stopping_lists` gives `reactive_stopping` for every
car of the step from the dot and cross products of its `car_pairs`
instead (`_corridor_mask`), the same IEEE products and sums.

`obstacle_repulsion` makes one pass per obstacle polygon on plain
floats, over the scene's one `geometry.ObstacleIndex`
(`scene.Scene.obstacle_index`): the nearest boundary point from the
polygon's edge table, and the inside test (crossing parity, then the
on-edge pass) only for a pedestrian inside the polygon's reach box.
That box is the polygon's box padded by 1e-8 * max(1 / L_min, 1, E),
L_min its shortest edge and E its largest coordinate magnitude: the
on-segment band of an edge of length L reaches about
1e-9 * max(1 / L, 1, |p - a|) from it, at most a third of the pad,
and beyond the box the crossing parity is even. So the answer is the
full test's, bit for bit; on a sliver (L_min of 1e-12 m) the box
spans kilometres and every pedestrian gets the full test.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import ObstacleIndex, Vec2, _edge_table, _nearest_on_edges_xy, point_in_zone
from .params import SfmParams
from .scene import AgentColumns, AgentKind, AgentState


_NO_FORCE = Vec2(0.0, 0.0)


class DriveTo(NamedTuple):
    """Relax velocity toward a target point at a cruise speed, plus a
    pre-summed acceleration (push_x, push_y): a pedestrian's repulsion
    terms."""

    target: Vec2
    speed: float
    push_x: float = 0.0
    push_y: float = 0.0


class SetSpeed(NamedTuple):
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
    return _anisotropy_xy(heading.x, heading.y, to_target.x, to_target.y, anisotropy)


def _anisotropy_xy(hx: float, hy: float, tx: float, ty: float, anisotropy: float) -> float:
    """anisotropy_factor of the heading (hx, hy) toward (tx, ty), on
    plain floats; both are normalized as Vec2.normalized does."""
    n = math.hypot(tx, ty)
    dx, dy = (tx / n, ty / n) if n != 0.0 else (0.0, 0.0)
    if dx * dx + dy * dy == 0.0:
        cos_phi = 1.0
    else:
        n = math.hypot(hx, hy)
        ux, uy = (hx / n, hy / n) if n != 0.0 else (0.0, 0.0)
        # max(-1.0, min(1.0, dot)), NaN going to 1.0 as there
        cos_phi = ux * dx + uy * dy
        cos_phi = cos_phi if cos_phi < 1.0 else 1.0
        cos_phi = cos_phi if cos_phi > -1.0 else -1.0
    return anisotropy + (1.0 - anisotropy) * (1.0 + cos_phi) / 2.0


def agent_repulsion(i: AgentState, j: AgentState, params: SfmParams) -> Vec2:
    """Exponential repulsion exerted on i by j."""
    return Vec2(*_repulsion_xy(i, j, params))


def _repulsion_xy(i: AgentState, j: AgentState, params: SfmParams) -> tuple[float, float]:
    """agent_repulsion on plain floats: (x, y) of the force on i.

    Pedestrians enter as points, cars as discs of their diameter: the
    distance is the centres' minus the radii of any cars, at least 0."""
    if i.kind is AgentKind.PEDESTRIAN and j.kind is AgentKind.PEDESTRIAN:
        v0, sigma = params.v0_pp, params.sigma_pp
    else:
        v0, sigma = params.v0_pc, params.sigma_pc
    p, q, h = i.position, j.position, i.heading
    ix, iy, jx, jy = p.x, p.y, q.x, q.y
    ox = ix - jx
    oy = iy - jy
    if ox * ox + oy * oy == 0.0:
        # Coincident agents: push along i's left normal at full strength.
        lx, ly = -h.y, h.x
        n = math.hypot(lx, ly)
        lx, ly = (lx / n, ly / n) if n != 0.0 else (0.0, 0.0)
        return lx * v0, ly * v0
    # The centre distance, which also normalizes the offset.
    n = math.hypot(ox, oy)
    d = n
    if i.kind is AgentKind.CAR:
        d -= i.radius()
    if j.kind is AgentKind.CAR:
        d -= j.radius()
    if not d > 0.0:
        d = 0.0
    factor = _anisotropy_xy(h.x, h.y, jx - ix, jy - iy, params.anisotropy)
    s = v0 * math.exp(-d / sigma) * factor
    return ox / n * s, oy / n * s


# Up to this many (target, other agent) pairs the scalar rule is summed,
# above it the numpy grid is built; the scalar sum is faster up to ~45
# pairs (see the module docstring).
SCALAR_REPULSION_MAX_PAIRS = 8


def repulsion_sums(
    targets: Sequence[AgentState],
    agents: Sequence[AgentState],
    params: SfmParams,
    columns: AgentColumns,
) -> tuple[list[float], list[float]]:
    """For each target, the sum of agent_repulsion from every other
    agent, added in the order of `agents`, as its x and its y components;
    every target must be one of `agents`, and `columns` a snapshot of
    these same agents. Up to SCALAR_REPULSION_MAX_PAIRS (target, other
    agent) pairs this is that sum, pair by pair; above it, one numpy
    pass over `columns`."""
    if not targets:
        return [], []
    if len(targets) * (len(agents) - 1) <= SCALAR_REPULSION_MAX_PAIRS:
        xs, ys = [], []
        for t in targets:
            tx = ty = 0.0
            for other in agents:
                if other.id != t.id:
                    fx, fy = _repulsion_xy(t, other, params)
                    tx, ty = tx + fx, ty + fy
            xs.append(tx)
            ys.append(ty)
        return xs, ys
    return _agent_repulsion_grid(targets, agents, params, columns)


def _agent_repulsion_grid(
    targets: Sequence[AgentState],
    agents: Sequence[AgentState],
    params: SfmParams,
    columns: AgentColumns,
) -> tuple[list[float], list[float]]:
    """repulsion_sums as one numpy pass over an (agents x targets) grid.
    The grid's temporaries are reused in place; each element goes
    through the same operations in the same order as in the pair rule's
    array form, so the bits do not depend on it."""
    row = {a.id: r for r, a in enumerate(columns.agents)}
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
    # Pedestrian targets (the engine's only kind) pair by the source alone.
    pp = ~s_car if not t_car.any() else ~s_car & ~t_car
    v0 = np.where(pp, params.v0_pp, params.v0_pc)
    sigma = np.where(pp, params.sigma_pp, params.sigma_pc)
    hx, hy = k.ux[rows], k.uy[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.hypot(ox, oy)
        ux, uy = np.divide(ox, n, out=ox), np.divide(oy, n, out=oy)
    # d = max(0, n - tr - sr), then the strength v0 * exp(-d / sigma).
    d = np.subtract(n, tr, out=n)
    d -= sr
    np.maximum(0.0, d, out=d)
    np.negative(d, out=d)
    d /= sigma
    strength = np.exp(d, out=d)
    strength *= v0
    # Anisotropy: cosine between the heading and the direction to j,
    # hx * -ux + hy * -uy written as the same -(hx * ux + hy * uy).
    cos_phi = hx * ux
    cos_phi += hy * uy
    np.negative(cos_phi, out=cos_phi)
    np.clip(cos_phi, -1.0, 1.0, out=cos_phi)
    a = params.anisotropy
    # factor = a + (1 - a) * (1 + cos_phi) / 2
    factor = cos_phi
    factor += 1.0
    factor *= 1.0 - a
    factor /= 2.0
    factor += a
    strength *= factor
    fx, fy = np.multiply(ux, strength, out=ux), np.multiply(uy, strength, out=uy)
    if coincident.any():
        # Push along the target's left normal at full strength.
        normals = [t.heading.left_normal().normalized() for t in targets]
        push = np.array([(p.x, p.y) for p in normals])
        fx = np.where(coincident, push[:, 0] * v0, fx)
        fy = np.where(coincident, push[:, 1] * v0, fy)
    # cumsum adds each column in agent order, as a sequential loop would.
    fx[own] = 0.0
    fy[own] = 0.0
    return fx.cumsum(axis=0)[-1].tolist(), fy.cumsum(axis=0)[-1].tolist()


def obstacle_repulsion(agent: AgentState, obstacles: ObstacleIndex, params: SfmParams) -> Vec2:
    """Summed exponential repulsion from every obstacle polygon of the
    scene's index."""
    if not obstacles.polygons:
        # Reads neither u0 nor r_obstacle: the calibration memo keys an
        # obstacle-free scenario on the genes it does read.
        return _NO_FORCE
    u0, r_obstacle = params.u0, params.r_obstacle
    p = agent.position
    px, py = p.x, p.y
    tx = ty = 0.0
    for k, (edges, (x0, y0, x1, y1), poly) in enumerate(
        zip(obstacles.edges, obstacles.reach, obstacles.polygons)
    ):
        # The unit vector from the nearest boundary point q, made as
        # Vec2.normalized makes it: d is hypot(px - qx, py - qy).
        qx, qy, d, _ = _nearest_on_edges_xy(px, py, edges)
        if d == 0.0:
            ux = uy = 0.0
        else:
            ux, uy = (px - qx) / d, (py - qy) / d
        # point_in_zone is false outside the reach box (ObstacleIndex).
        if ux * ux + uy * uy == 0.0 or (x0 <= px <= x1 and y0 <= py <= y1 and point_in_zone(p, poly)):
            # On or inside the obstacle: push along the outward normal of
            # the nearest edge of the counter-clockwise ring, at d = 0
            # strength.
            normal = _outward_normal_near(p, obstacles.rings[k])
            ux, uy = normal.x, normal.y
            d = 0.0
        s = u0 * math.exp(-d / r_obstacle)
        tx, ty = tx + ux * s, ty + uy * s
    return Vec2(tx, ty)


def _outward_normal_near(p: Vec2, ring: Sequence[Vec2]) -> Vec2:
    """Outward unit normal of the edge of a counter-clockwise ring
    nearest to p."""
    i = _nearest_on_edges_xy(p.x, p.y, _edge_table(ring))[3]
    a, b = ring[i], ring[(i + 1) % len(ring)]
    return -(b - a).normalized().left_normal()


def car_following_force(car: AgentState, leader: AgentState, params: SfmParams) -> Directive:
    """Keep-distance rule behind another car.

    At or beyond the safety gap the car drives toward the point one
    safety gap along the leader's direction of motion; closer than that
    it brakes for the leader.
    """
    d = car.position.distance_to(leader.position)
    if d >= params.d_min_cc:
        p, v, gap = car.position, leader.velocity, params.d_min_cc
        dx, dy = _unit_or(v.x, v.y, leader.heading)
        return DriveTo(Vec2(p.x + dx * gap, p.y + dy * gap), car.desired_speed)
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


def _in_corridor(
    car: AgentState, pedestrians: Sequence[AgentState], params: SfmParams
) -> list[AgentState]:
    """Pedestrians, in input order, in the frontal corridor of the car:
    within one safety distance ahead along its heading, and inside a lane
    as wide as both bodies along the heading's left normal. It reads
    `d_min_pc` only when there is a pedestrian to test."""
    if not pedestrians:
        return []
    cx, cy = car.position.x, car.position.y
    hx, hy = car.heading.x, car.heading.y
    d_min, diameter = params.d_min_pc, car.diameter
    inside = []
    for ped in pedestrians:
        ox = ped.position.x - cx
        oy = ped.position.y - cy
        if 0.0 < ox * hx + oy * hy <= d_min and abs(ox * -hy + oy * hx) <= (diameter + ped.diameter) / 2.0:
            inside.append(ped)
    return inside


def in_stopping_corridor(car: AgentState, ped: AgentState, params: SfmParams) -> bool:
    """True when ped stands in the frontal corridor of the car."""
    return bool(_in_corridor(car, (ped,), params))


def reactive_stopping(
    car: AgentState, pedestrians: Sequence[AgentState], params: SfmParams
) -> list[AgentState]:
    """Pedestrians, in input order, that the car must brake for: those
    in its stopping corridor (the one `in_stopping_corridor` tests)
    already walking across its front."""
    hx, hy = car.heading.x, car.heading.y
    braking = []
    for ped in _in_corridor(car, pedestrians, params):
        if abs(ped.velocity.x * -hy + ped.velocity.y * hx) > 1e-9:
            braking.append(ped)
    return braking


def stopping_lists(columns: AgentColumns, params: SfmParams) -> list[list[AgentState]]:
    """reactive_stopping(car, columns.pedestrians, params) for each car of
    the snapshot, in car order: `_corridor_mask` decides the corridors,
    and only the crossing-motion test is left per pedestrian."""
    cars, peds = columns.cars, columns.pedestrians
    lists: list[list[AgentState]] = [[] for _ in cars]
    rows, cols = np.nonzero(_corridor_mask(columns, params))
    for r, c in zip(rows.tolist(), cols.tolist()):
        h, v = cars[r].heading, peds[c].velocity
        if abs(v.x * -h.y + v.y * h.x) > 1e-9:
            lists[r].append(peds[c])
    return lists


def _corridor_mask(columns: AgentColumns, params: SfmParams) -> np.ndarray:
    """(cars x pedestrians) `_in_corridor` of a snapshot, from the dot and
    cross products of its `car_pairs`, the offset-by-heading products
    `_in_corridor` makes: ox * hx + oy * hy is hx * ox + hy * oy, and
    ox * -hy + oy * hx is hx * oy - hy * ox, to the bit. So the mask
    decides, with no margin."""
    n = len(columns.cars)
    _, _, dot, cross = columns.car_pairs
    dot, cross = dot[:, n:], cross[:, n:]
    diameter = columns.kinematics.diameter
    half_width = (diameter[:n, None] + diameter[n:]) / 2.0
    return (0.0 < dot) & (dot <= params.d_min_pc) & (np.abs(cross) <= half_width)


def _unit_or(x: float, y: float, fallback: Vec2) -> tuple[float, float]:
    """Vec2(x, y).normalized(), or fallback where that is zero."""
    n = math.hypot(x, y)
    if n != 0.0:
        x, y = x / n, y / n
        if x * x + y * y != 0.0:
            return x, y
    return fallback.x, fallback.y


def integrate_step(
    agent: AgentState, directive: Directive, dt: float, params: SfmParams
) -> tuple[Vec2, Vec2, Vec2]:
    """The agent's (position, velocity, heading) after one step under one
    directive: velocity first, then position with the new velocity.
    Speed is clamped to the agent's maximum. The agent is not changed.

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
        target = directive.target
        dx, dy = _unit_or(target.x - agent.position.x, target.y - agent.position.y, agent.heading)
        inv_tau = 1.0 / params.tau
        tx = 0.0 + (dx * directive.speed - vx) * inv_tau + directive.push_x
        ty = 0.0 + (dy * directive.speed - vy) * inv_tau + directive.push_y
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
    return position, Vec2(vx, vy), heading
