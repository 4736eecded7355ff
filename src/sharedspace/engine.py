"""Discrete-time simulation loop.

Each step: spawn due agents, drop those that arrived last step, take
one AgentColumns snapshot of the rest (the cars, then the pedestrians,
in id order), the one that recognition, mode assignment and the
repulsion pass read; run conflict recognition, solve games for new
conflicts and latch the chosen actions, assign each agent one mode
together with the one directive it moves under (cars: stopping > game >
following > free flow; pedestrians: game > forces), record the frame
with each agent's mode (the dropped agents as Mode.ARRIVED), sum the
agent repulsion on every pedestrian in force mode in one pass to
complete their directives (each total, plus the obstacle push, as two
floats), then move each agent in place under its directive (a
non-finite position or velocity rejects the scenario), then retire
conflicts whose actions have completed or timed out. An agent is one
AgentState object from its spawn until it is dropped.

The active games are the only record of who is engaged with whom, and
the world's ConflictIndex is their one record: each game by id, with
what recognition, game creation and mode assignment read of them (who
is bound to which game, each agent's partners and its count of active
games). It changes only where a game is created, retired or dissolved,
or where agents spawn or leave; no step rebuilds it from the games.

The trace holds one record per agent-step, the tuple (step, agent_id,
kind, position, mode), position being the agent's own stored Vec2;
`SimulationTrace.rows` is a read-only view of them as TraceRows. It also
holds one row per decision: each game member's action with the features
it saw. decisions.csv and features.csv are both written from those rows,
one line each, in the same order.

A simulation's inputs checked themselves when built and cannot change;
it checks only that its agents start and end inside the scene's bounds.
A scenario file is read and written by one field list, `_ENTRY_RULES`.

Runs are deterministic: equal configuration gives bit-identical traces.
"""

from __future__ import annotations

import enum
import json
import math
import operator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import conflicts as conflicts_mod
from . import forces as forces_mod
from . import game as game_mod
from . import jsonin
from .conflicts import CAR_CONE_HALF_ANGLE_DEG, Conflict
from .dataio import DECISION_COLUMNS, FEATURE_ID_COLUMNS, ID_BREAKERS, TRAJECTORY_COLUMNS, write_csv
from .game import Action, FeatureVector, PairContext
from .geometry import Vec2, segments_intersect
from .params import ParameterSet
from .planner import UnreachableGoalError, VisibilityGraph, build_visibility_graph, plan_path
from .scene import AgentColumns, AgentKind, AgentState, Scene, in_field_of_view


# Distances (m) at which an agent counts as arrived at its goal, passes
# a waypoint, and keeps its planned path clear of obstacles beyond its
# own radius.
ARRIVAL_TOLERANCE = 0.5
WAYPOINT_TOLERANCE = 0.5
PLANNER_CLEARANCE_MARGIN = 0.2

# A game retires at this age (steps) even if its actions never complete.
CONFLICT_TIMEOUT_STEPS = 40

# The largest desired or maximum speed (m/s) a scenario may give: no
# road user moves this fast, and speeds near the float range overflow
# the first step.
MAX_SPEED = 1e3

# Agents spawn, and are planned, in this order.
_spawn_order = operator.attrgetter("entry_step", "id")

# Per-kind values for whatever a scenario leaves out.
KIND_DEFAULTS = {
    AgentKind.PEDESTRIAN: {"diameter": 0.5, "desired_speed": 1.34, "max_speed": 2.0},
    AgentKind.CAR: {"diameter": 2.0, "desired_speed": 5.0, "max_speed": 8.0},
}


class ScenarioError(ValueError):
    """Raised for malformed scenario files."""


class ScenarioRejectedError(RuntimeError):
    """Raised when a scenario cannot be simulated (e.g. unreachable goal)."""


class Mode(str, enum.Enum):
    """An agent's mode in a step, equal to its value; ARRIVED tags its farewell frame."""

    FREE_FLOW = "free_flow"
    FORCES = "forces"
    FOLLOWING = "following"
    GAME = "game"
    STOPPING = "stopping"
    ARRIVED = "arrived"


@dataclass(frozen=True)
class AgentEntry:
    id: str
    kind: AgentKind
    entry_step: int
    position: Vec2
    velocity: Vec2
    goal: Vec2
    desired_speed: float
    max_speed: float
    diameter: float


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    entries: tuple[AgentEntry, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        self.validate()

    def validate(self) -> None:
        seen = set()
        for e in self.entries:
            if e.id in seen:
                raise ScenarioError(f"duplicate agent id {e.id!r}")
            seen.add(e.id)
            if e.entry_step < 0:
                raise ScenarioError(f"{e.id}: entry_step must be nonnegative")
            if not (e.desired_speed > 0.0 and e.max_speed > 0.0 and e.diameter > 0.0):
                raise ScenarioError(f"{e.id}: speeds and diameter must be positive")
            for name in ("desired_speed", "max_speed", "diameter"):
                if not math.isfinite(getattr(e, name)):
                    raise ScenarioError(f"{e.id}: {name} must be finite")
            for name, speed in (("desired_speed", e.desired_speed), ("max_speed", e.max_speed)):
                if speed > MAX_SPEED:
                    raise ScenarioError(f"{e.id}: {name} must be at most {MAX_SPEED:g} m/s, got {speed!r}")
            for v in (e.position, e.velocity, e.goal):
                if not v.is_finite():
                    raise ScenarioError(f"{e.id}: non-finite coordinates")


def check_time_step(dt: float) -> None:
    """The rule for a step's (or an observed frame's) length in seconds."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ScenarioError("dt must be positive and finite")


@dataclass(frozen=True)
class SimulationConfig:
    scene: Scene
    scenario: Scenario
    params: ParameterSet = field(default_factory=ParameterSet)
    dt: float = 0.5
    max_steps: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        check_time_step(self.dt)


class TraceRow(NamedTuple):
    step: int
    agent_id: str
    kind: AgentKind
    x: float
    y: float
    mode: Mode


@dataclass(frozen=True)
class DecisionRow:
    """One member's equilibrium action in one game, with the features it
    saw: a follower its view of the leader, the leader its view of its
    nearest follower."""

    step: int
    conflict_id: int
    agent_id: str
    kind: AgentKind
    role: str
    features: FeatureVector
    action: Action


@dataclass
class SimulationTrace:
    scenario_id: str
    records: list[tuple[int, str, AgentKind, Vec2, Mode]] = field(default_factory=list)
    decisions: list[DecisionRow] = field(default_factory=list)
    conflicts: list[Conflict] = field(default_factory=list)
    arrived_step: dict[str, int] = field(default_factory=dict)
    steps_run: int = 0
    truncated: bool = False

    @property
    def rows(self) -> list[TraceRow]:
        """The records as TraceRows, made afresh on each read."""
        return [TraceRow(step, aid, kind, p.x, p.y, mode) for step, aid, kind, p, mode in self.records]


@dataclass
class ConflictRuntime:
    """A game in play: its conflict, each member's latched action, and
    the members it binds, those no active game bound when it was created:
    an agent acts on its first game until that retires."""

    conflict: Conflict
    actions: dict[str, Action]
    binds: tuple[str, ...]


class ConflictIndex:
    """The active games, kept across steps: `by_id` maps each active
    conflict's id to its game in creation order, `bound` each bound agent
    to the game it acts on (an agent that has left stays until its game
    retires), and `games` each member of an active game to the number of
    active games it is in. Each game is added once and removed once; the
    partner map is rebuilt only after the games or the present agents
    changed."""

    def __init__(self) -> None:
        self.bound: dict[str, ConflictRuntime] = {}
        self.by_id: dict[int, ConflictRuntime] = {}
        self.games: dict[str, int] = {}
        self._partners: dict[str, set[str]] | None = None

    def add(self, runtime: ConflictRuntime) -> None:
        self.by_id[runtime.conflict.id] = runtime
        for aid in runtime.binds:
            self.bound[aid] = runtime
        games = self.games
        # `actions` has one key per member.
        for aid in runtime.actions:
            games[aid] = games.get(aid, 0) + 1
        self._partners = None

    def remove(self, runtime: ConflictRuntime) -> None:
        del self.by_id[runtime.conflict.id]
        for aid in runtime.binds:
            del self.bound[aid]
        games = self.games
        for aid in runtime.actions:
            if games[aid] == 1:
                del games[aid]
            else:
                games[aid] -= 1
        self._partners = None

    def agents_changed(self) -> None:
        """Call when agents spawn or leave."""
        self._partners = None

    def partners(self, ids: Iterable[str]) -> dict[str, set[str]]:
        """`conflicts.partner_sets` of the active conflicts over `ids`,
        the present agents; not to be changed by the caller."""
        if self._partners is None:
            self._partners = conflicts_mod.partner_sets((r.conflict for r in self.by_id.values()), ids)
        return self._partners


@dataclass
class WorldState:
    step: int
    agents: dict[str, AgentState]
    conflict_index: ConflictIndex = field(default_factory=ConflictIndex)


def check_bounds(scene: Scene, entries: Iterable[AgentEntry]) -> None:
    """Raise ScenarioRejectedError naming the first entry whose position
    or goal lies outside the scene's bounds."""
    for entry in entries:
        for name, point in (("position", entry.position), ("goal", entry.goal)):
            if not scene.bounds.contains(point):
                raise ScenarioRejectedError(
                    f"agent {entry.id}: {name} ({point.x}, {point.y}) lies outside the scene bounds"
                )


def plan_waypoints(scene: Scene, entries: Iterable[AgentEntry]) -> dict[str, list[Vec2]]:
    """Each entry's route around the scene's obstacles: the waypoints
    after its start, ending at its goal. The route depends only on the
    scene and the entry's position, goal and diameter, so a caller that
    simulates one scenario many times can plan once and pass the result
    to every Simulation. One visibility graph is built per distinct
    clearance, all from the scene's obstacle index.

    Raises ScenarioRejectedError naming the first entry in spawn order
    whose position or goal lies outside the scene's bounds, or whose goal
    is unreachable."""
    graphs: dict[float, VisibilityGraph] = {}
    waypoints: dict[str, list[Vec2]] = {}
    for entry in sorted(entries, key=_spawn_order):
        check_bounds(scene, (entry,))
        clearance = entry.diameter / 2.0 + PLANNER_CLEARANCE_MARGIN
        graph = graphs.get(clearance)
        if graph is None:
            graph = graphs[clearance] = build_visibility_graph(scene.obstacle_index, clearance)
        try:
            path = plan_path(graph, entry.position, entry.goal)
        except UnreachableGoalError as exc:
            raise ScenarioRejectedError(f"agent {entry.id}: {exc}") from exc
        waypoints[entry.id] = path[1:] if len(path) > 1 else [entry.goal]
    return waypoints


class Simulation:
    def __init__(self, config: SimulationConfig, waypoints: dict[str, list[Vec2]] | None = None) -> None:
        """`waypoints` maps every agent id to its planned route, as
        returned by plan_waypoints; when omitted the routes are planned
        here. Either way every agent must start and end inside the scene's
        bounds. Spawned agents get copies, so the mapping is never changed.
        The config and all it holds checked themselves when built."""
        self.config = config
        self.world = WorldState(step=0, agents={})
        self.trace = SimulationTrace(scenario_id=config.scenario.scenario_id)
        self._entries = sorted(config.scenario.entries, key=_spawn_order)
        self._spawn_cursor = 0
        self._next_conflict_id = 0
        self._pending_despawn: set[str] = set()
        if waypoints is None:
            waypoints = plan_waypoints(config.scene, self._entries)
        else:
            check_bounds(config.scene, self._entries)
        self._waypoints = waypoints

    def _game_partner(self, agent_id: str, runtime: ConflictRuntime) -> AgentState | None:
        """The leader (the conflict's anchor car) plays against its
        nearest follower, a follower against the leader; None once that
        agent has left."""
        agents = self.world.agents
        leader = runtime.conflict.anchor_car
        if agent_id == leader:
            others = (u for u in runtime.conflict.competitive_users if u != agent_id)
            partner_id = conflicts_mod.nearest_id(agents[agent_id], others, agents)
        else:
            partner_id = leader
        return agents.get(partner_id)

    # - conflict handling ----------------------------------------------

    def _keep_games(self, keep: Callable[[ConflictRuntime], bool]) -> None:
        """Keep the active games for which `keep` holds; the others leave
        the index."""
        index = self.world.conflict_index
        if index.by_id:
            for runtime in [r for r in index.by_id.values() if not keep(r)]:
                index.remove(runtime)

    def _run_recognition(self, columns: AgentColumns) -> None:
        index = self.world.conflict_index
        outcome = conflicts_mod.recognize_conflicts(
            columns.cars,
            columns.pedestrians,
            self.config.scene,
            self.config.params.sfm,
            active_conflicts=[r.conflict for r in index.by_id.values()] if index.by_id else (),
            step=self.world.step,
            next_id=self._next_conflict_id,
            columns=columns,
            partners=index.partners(self.world.agents),
        )
        if outcome.dissolved_ids:
            dissolved = set(outcome.dissolved_ids)
            self._keep_games(lambda r: r.conflict.id not in dissolved)
        if outcome.new_conflicts:
            # Ids increase, so the last new conflict holds the largest.
            self._next_conflict_id = outcome.new_conflicts[-1].id + 1
        for conflict in outcome.new_conflicts:
            self._create_game(conflict)

    def _create_game(self, conflict: Conflict) -> None:
        """Play the conflict's game. Recognition forms conflicts among the
        step's agents, each with a competitive user, so all are present."""
        self.trace.conflicts.append(conflict)
        agents = self.world.agents
        index = self.world.conflict_index
        leader = agents[conflict.anchor_car]
        followers = [agents[uid] for uid in conflict.competitive_users]
        # Feature extraction counts each member's active games, the one
        # being created included.
        for agent in (leader, *followers):
            agent.active_interactions = 1 + index.games.get(agent.id, 0)
        sfm, gp = self.config.params.sfm, self.config.params.game
        contexts = {}
        for f in followers:
            contexts[f.id] = PairContext(
                leader_view=game_mod.extract_features(leader, f, sfm, gp),
                follower_view=game_mod.extract_features(f, leader, sfm, gp),
                paths_cross=segments_intersect(leader.position, leader.goal, f.position, f.goal),
            )
        payoff = game_mod.build_payoff_matrix(leader, followers, contexts, gp)
        leader_action, profile = game_mod.solve_spne(payoff)
        actions = {leader.id: leader_action}
        actions.update({f.id: a for f, a in zip(followers, profile)})
        binds = tuple(aid for aid in actions if aid not in index.bound)
        runtime = ConflictRuntime(conflict, actions, binds)
        index.add(runtime)
        for aid, action in actions.items():
            agent = agents[aid]
            if aid == leader.id:
                role, fv = "leader", contexts[self._game_partner(aid, runtime).id].leader_view
            else:
                role, fv = "follower", contexts[aid].follower_view
            self.trace.decisions.append(
                DecisionRow(self.world.step, conflict.id, aid, agent.kind, role, fv, action)
            )
            if agent.kind is AgentKind.CAR and action is Action.DECELERATE:
                agent.giveway_count += 1

    def _action_completed(self, agent: AgentState, action: Action, partner: AgentState | None) -> bool:
        if partner is None:
            return True
        if agent.position.distance_to(partner.position) > self.config.params.sfm.v_r:
            return True
        p, q, h = agent.position, partner.position, agent.heading
        # The partner is behind: the offset to it points against the heading.
        if (q.x - p.x) * h.x + (q.y - p.y) * h.y < 0.0:
            return True
        if action is Action.DEVIATE and not in_field_of_view(
            agent,
            partner.position,
            self.config.params.sfm.fov_half_angle_deg,
            self.config.params.sfm.v_r,
        ):
            return True
        return False

    def _in_play(self, runtime: ConflictRuntime) -> bool:
        """The game has not timed out and some member still present has
        not completed its action."""
        if self.world.step - runtime.conflict.created_at_step >= CONFLICT_TIMEOUT_STEPS:
            return False
        for aid, action in runtime.actions.items():
            agent = self.world.agents.get(aid)
            if agent is not None and not self._action_completed(agent, action, self._game_partner(aid, runtime)):
                return True
        return False

    def _retire_conflicts(self) -> None:
        """Keep the games still in play."""
        self._keep_games(self._in_play)

    # - modes and movement ----------------------------------------------

    def _find_following_leader(
        self, car: AgentState, cars: list[AgentState]
    ) -> AgentState | None:
        """Nearest other car ahead (frontal 90-degree cone) within view
        range and moving roughly the same way."""
        v_r = self.config.params.sfm.v_r
        best = None
        best_d = float("inf")
        for other in cars:
            if other.id == car.id or not in_field_of_view(car, other.position, CAR_CONE_HALF_ANGLE_DEG, v_r):
                continue
            d = car.position.distance_to(other.position)
            if d >= best_d or d == 0.0 or car.heading.dot(other.heading) <= 0.0:
                continue
            best = other
            best_d = d
        return best

    def _assign_modes(
        self, columns: AgentColumns
    ) -> dict[str, tuple[Mode, forces_mod.Directive | None]]:
        """Each agent's mode and the one directive it moves under this
        step; None for a pedestrian in force mode, whose directive needs
        the step's repulsion pass."""
        cars, peds = columns.cars, columns.pedestrians
        sfm = self.config.params.sfm
        # The dut regime never brakes reactively.
        brakes = self.config.params.game.regime != "dut"
        assignments: dict[str, tuple[Mode, forces_mod.Directive | None]] = {}
        follower_of: dict[str, str] = {}
        bound = self.world.conflict_index.bound
        # On a screened snapshot its products decide the corridors;
        # otherwise each car scans the pedestrians.
        screened = forces_mod.stopping_lists(columns, sfm) if brakes and columns.screened else None
        for k, car in enumerate(cars):
            if screened is not None:
                stopping_for = screened[k]
            else:
                stopping_for = forces_mod.reactive_stopping(car, peds, sfm) if brakes else []
            runtime = bound.get(car.id)
            leader = None
            if stopping_for:
                target = min(
                    stopping_for, key=lambda p: (car.position.distance_to(p.position), p.id)
                )
                assignments[car.id] = (Mode.STOPPING, forces_mod.brake_for(car, target, sfm))
                car.currently_stopping_for = frozenset(p.id for p in stopping_for)
            elif runtime is not None:
                directive, partner = self._game_directive(car, runtime)
                assignments[car.id] = (Mode.GAME, directive)
                # A car braking in its game (Decelerate) stops for its partner.
                braking = isinstance(directive, forces_mod.SetSpeed)
                car.currently_stopping_for = frozenset({partner.id}) if braking else frozenset()
            else:
                leader = self._find_following_leader(car, cars)
                if leader is not None:
                    directive = forces_mod.car_following_force(car, leader, sfm)
                    assignments[car.id] = (Mode.FOLLOWING, directive)
                    # Only whether a car is followed is read: keep the first follower.
                    follower_of.setdefault(leader.id, car.id)
                else:
                    directive = forces_mod.DriveTo(car.next_waypoint(), car.desired_speed)
                    assignments[car.id] = (Mode.FREE_FLOW, directive)
                car.currently_stopping_for = frozenset()
            car.following_car_id = leader.id if leader is not None else None
        for car in cars:
            car.followed_by_car_id = follower_of.get(car.id)
        for ped in peds:
            runtime = bound.get(ped.id)
            if runtime is not None:
                assignments[ped.id] = (Mode.GAME, self._game_directive(ped, runtime)[0])
            else:
                assignments[ped.id] = (Mode.FORCES, None)
        return assignments

    def _game_directive(
        self, agent: AgentState, runtime: ConflictRuntime
    ) -> tuple[forces_mod.Directive, AgentState | None]:
        """The agent's latched game action as a directive, and the
        partner it plays against; once that partner has left, the agent
        drives on to its waypoint."""
        partner = self._game_partner(agent.id, runtime)
        if partner is None:
            return forces_mod.DriveTo(agent.next_waypoint(), agent.desired_speed), None
        action = runtime.actions.get(agent.id, Action.CONTINUE)
        return game_mod.apply_action(agent, action, partner, self.config.params.sfm), partner

    # - main loop --------------------------------------------------------

    def _spawn_due(self) -> None:
        while (
            self._spawn_cursor < len(self._entries)
            and self._entries[self._spawn_cursor].entry_step <= self.world.step
        ):
            e = self._entries[self._spawn_cursor]
            self._spawn_cursor += 1
            heading = e.velocity.normalized()
            if heading.norm_sq() == 0.0:
                heading = (e.goal - e.position).normalized()
            if heading.norm_sq() == 0.0:
                heading = Vec2(1.0, 0.0)
            self.world.agents[e.id] = AgentState(
                id=e.id,
                kind=e.kind,
                position=e.position,
                velocity=e.velocity,
                desired_speed=e.desired_speed,
                max_speed=e.max_speed,
                goal=e.goal,
                waypoints=list(self._waypoints[e.id]),
                heading=heading,
                diameter=e.diameter,
            )
            self.world.conflict_index.agents_changed()

    def _advance_waypoints(self, agent: AgentState) -> None:
        while (
            len(agent.waypoints) > 1
            and agent.position.distance_to(agent.waypoints[0]) <= WAYPOINT_TOLERANCE
        ):
            agent.waypoints.pop(0)

    def step(self) -> None:
        self._spawn_due()
        # The frame still shows the agents that arrived last step; drop
        # them from the world before anything else looks at it.
        frame = list(self.world.agents.values())
        arrived = self._pending_despawn
        self._pending_despawn = set()
        for aid in arrived:
            del self.world.agents[aid]
            self.world.conflict_index.agents_changed()
        columns = AgentColumns(self.world.agents.values(), self.config.scene)

        self._run_recognition(columns)
        assignments = self._assign_modes(columns)
        # The pedestrians in force mode, in world order, wait for the
        # repulsion pass.
        targets = []
        step, records = self.world.step, self.trace.records
        for agent in frame:
            if agent.id in arrived:
                mode = Mode.ARRIVED
            else:
                mode, directive = assignments[agent.id]
                if directive is None:
                    targets.append(agent)
            records.append((step, agent.id, agent.kind, agent.position, mode))
        sfm = self.config.params.sfm
        agents = list(self.world.agents.values()) if arrived else frame
        xs, ys = forces_mod.repulsion_sums(targets, agents, sfm, columns)
        obstacles = self.config.scene.obstacle_index
        for agent, fx, fy in zip(targets, xs, ys):
            o = forces_mod.obstacle_repulsion(agent, obstacles, sfm)
            directive = forces_mod.DriveTo(agent.next_waypoint(), agent.desired_speed, fx + o.x, fy + o.y)
            assignments[agent.id] = (Mode.FORCES, directive)

        # Each agent moves in place: its integration reads only its own
        # state and its directive, all of which are built by now.
        dt = self.config.dt
        isfinite = math.isfinite
        for aid, agent in self.world.agents.items():
            if len(agent.waypoints) > 1:
                self._advance_waypoints(agent)
            p, v, h = forces_mod.integrate_step(agent, assignments[aid][1], dt, sfm)
            agent.position, agent.velocity, agent.heading = p, v, h
            if not (isfinite(p.x) and isfinite(p.y) and isfinite(v.x) and isfinite(v.y)):
                raise ScenarioRejectedError(
                    f"agent {aid}: non-finite state at step {self.world.step}"
                )

        for aid, agent in self.world.agents.items():
            p, g = agent.position, agent.goal
            # Vec2.distance_to, on the floats; an agent arrives once, as it is dropped next step
            if math.hypot(p.x - g.x, p.y - g.y) <= ARRIVAL_TOLERANCE:
                self.trace.arrived_step[aid] = self.world.step
                self._pending_despawn.add(aid)

        self._retire_conflicts()
        self.world.step += 1
        self.trace.steps_run = self.world.step

    def run(self) -> SimulationTrace:
        """Step until no agent is present or yet to spawn; a run that
        reaches max_steps first is truncated."""
        while self.world.agents or self._spawn_cursor < len(self._entries):
            if self.world.step >= self.config.max_steps:
                self.trace.truncated = True
                break
            self.step()
        return self.trace


def run_scenario(config: SimulationConfig, waypoints: dict[str, list[Vec2]] | None = None) -> SimulationTrace:
    return Simulation(config, waypoints).run()


# - scenario files -----------------------------------------------------

def _identifier(value: object, field: str, error: type[Exception]) -> str:
    if not (isinstance(value, str) and value and value == value.strip() and not ID_BREAKERS.search(value)):
        raise error(f"{field}: expected a nonempty string with no comma, quote, line break, NUL"
                    f" or surrounding whitespace, got {json.dumps(value)}")
    return value


def _kind(value: object, field: str, error: type[Exception]) -> AgentKind:
    if value not in ("ped", "car"):
        raise error(f"{field}: expected 'ped' or 'car', got {json.dumps(value)}")
    return AgentKind(value)


# How each key of a scenario entry is read.
_ENTRY_RULES = {
    "id": _identifier, "kind": _kind, "entry_step": jsonin.whole,
    "position": jsonin.point, "velocity": jsonin.point, "goal": jsonin.point,
    "desired_speed": jsonin.number, "max_speed": jsonin.number, "diameter": jsonin.number,
}


def load_scenario(path: str | Path) -> Scenario:
    """A scenario file; an entry's kind sets what its other keys default to."""
    with jsonin.document(path, ScenarioError, ("scenario_id", "agents")) as raw:
        scenario_id = _identifier(raw.get("scenario_id"), "scenario_id", ScenarioError)
        agents = raw.get("agents", [])
        if not isinstance(agents, list):
            raise ScenarioError("agents must be a list")
        entries = []
        for i, item in enumerate(agents):
            where = f"agents[{i}]"
            jsonin.fields(item, _ENTRY_RULES, ScenarioError, where)
            kind = _kind(item.get("kind"), f"{where}.kind", ScenarioError)
            item = {"id": f"agent{i}", "entry_step": 0, "velocity": [0.0, 0.0], **KIND_DEFAULTS[kind], **item}
            entries.append(AgentEntry(**{
                key: read(item.get(key), f"{where}.{key}", ScenarioError) for key, read in _ENTRY_RULES.items()
            }))
        return Scenario(scenario_id, entries)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Each entry's fields in the order of _ENTRY_RULES, which
    load_scenario reads: a Vec2 as [x, y] and the kind as its value."""

    def plain(value: object) -> object:
        if isinstance(value, Vec2):
            return [value.x, value.y]
        return value.value if isinstance(value, AgentKind) else value

    agents = [{key: plain(getattr(e, key)) for key in _ENTRY_RULES} for e in scenario.entries]
    payload = {"scenario_id": scenario.scenario_id, "agents": agents}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# - trace output -------------------------------------------------------

def write_trace_csv(trace: SimulationTrace, path: str | Path) -> None:
    write_csv(path, TRAJECTORY_COLUMNS, (
        f"{trace.scenario_id},{step},{aid},{kind.value},{p.x!r},{p.y!r}" for step, aid, kind, p, _ in trace.records
    ))


def write_decisions_csv(trace: SimulationTrace, path: str | Path) -> None:
    write_csv(path, DECISION_COLUMNS, (
        f"{trace.scenario_id},{d.step},{d.conflict_id},{d.agent_id},{d.action.value}" for d in trace.decisions
    ))


def write_features_csv(trace: SimulationTrace, path: str | Path) -> None:
    names = [spec.name for spec in fields(FeatureVector)]
    write_csv(path, (*FEATURE_ID_COLUMNS, *names, "action"), (
        f"{trace.scenario_id},{d.step},{d.conflict_id},{d.agent_id},{d.kind.value},{d.role},"
        + ",".join(repr(getattr(d.features, name)) for name in names)
        + f",{d.action.value}"
        for d in trace.decisions
    ))
