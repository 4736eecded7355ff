"""Discrete-time simulation loop.

Each step: spawn due agents, drop those that arrived last step, split
the rest once into cars and pedestrians in id order and take one
AgentColumns snapshot of them, which recognition and the repulsion
pass read; run conflict recognition, solve games for new conflicts and
latch the chosen actions, assign each agent one mode together with the
one directive it moves under (cars: stopping > game > following > free
flow; pedestrians: game > forces), record the frame with each agent's
mode (the dropped agents as "arrived"), sum the agent repulsion on
every pedestrian in force mode in one pass to complete their
directives, integrate everyone from the same pre-step snapshot (a
non-finite position or velocity rejects the scenario), then retire
conflicts whose actions have completed or timed out.

The active conflicts are the only record of who is engaged with whom;
recognition and feature extraction derive what they need from them.

The trace holds one row per decision: each game member's action with
the features it saw. decisions.csv and features.csv are both written
from those rows, one line each, in the same order.

Runs are deterministic: equal configuration gives bit-identical traces.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

from . import conflicts as conflicts_mod
from . import forces as forces_mod
from . import game as game_mod
from .conflicts import CAR_CONE_HALF_ANGLE_DEG, Conflict
from .game import Action, FeatureVector, PairContext
from .geometry import Vec2, segments_intersect, within_cone
from .params import ParameterSet
from .planner import UnreachableGoalError, build_visibility_graph, plan_path
from .scene import AgentColumns, AgentKind, AgentState, Scene, in_field_of_view


# Distances (m) at which an agent counts as arrived at its goal, passes
# a waypoint, and keeps its planned path clear of obstacles beyond its
# own radius.
ARRIVAL_TOLERANCE = 0.5
WAYPOINT_TOLERANCE = 0.5
PLANNER_CLEARANCE_MARGIN = 0.2

# Per-kind values for whatever a scenario leaves out.
KIND_DEFAULTS = {
    AgentKind.PEDESTRIAN: {"diameter": 0.5, "desired_speed": 1.34, "max_speed": 2.0},
    AgentKind.CAR: {"diameter": 2.0, "desired_speed": 5.0, "max_speed": 8.0},
}


class ScenarioError(ValueError):
    """Raised for malformed scenario files."""


class ScenarioRejectedError(RuntimeError):
    """Raised when a scenario cannot be simulated (e.g. unreachable goal)."""


class Mode(enum.Enum):
    FREE_FLOW = "free_flow"
    FORCES = "forces"
    FOLLOWING = "following"
    GAME = "game"
    STOPPING = "stopping"


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


@dataclass
class Scenario:
    scenario_id: str
    entries: list[AgentEntry] = field(default_factory=list)

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
            for v in (e.position, e.velocity, e.goal):
                if not v.is_finite():
                    raise ScenarioError(f"{e.id}: non-finite coordinates")


@dataclass
class SimulationConfig:
    scene: Scene
    scenario: Scenario
    params: ParameterSet = field(default_factory=ParameterSet)
    dt: float = 0.5
    max_steps: int = 400
    seed: int = 0
    conflict_timeout: int = 40


@dataclass(frozen=True)
class TraceRow:
    step: int
    agent_id: str
    kind: AgentKind
    x: float
    y: float
    mode: str


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
    rows: list[TraceRow] = field(default_factory=list)
    decisions: list[DecisionRow] = field(default_factory=list)
    conflicts: list[Conflict] = field(default_factory=list)
    arrived_step: dict[str, int] = field(default_factory=dict)
    steps_run: int = 0
    truncated: bool = False


@dataclass
class ConflictRuntime:
    conflict: Conflict
    actions: dict[str, Action]


@dataclass
class WorldState:
    step: int
    agents: dict[str, AgentState]
    active_conflicts: list[ConflictRuntime]


def plan_waypoints(scene: Scene, entries: Iterable[AgentEntry]) -> dict[str, list[Vec2]]:
    """Each entry's route around the scene's obstacles: the waypoints
    after its start, ending at its goal. The route depends only on the
    scene and the entry's position, goal and diameter, so a caller that
    simulates one scenario many times can plan once and pass the result
    to every Simulation. One visibility graph is built per distinct
    clearance. Raises ScenarioRejectedError naming the first entry whose
    goal is unreachable."""
    graphs: dict[float, object] = {}
    waypoints: dict[str, list[Vec2]] = {}
    for entry in entries:
        clearance = entry.diameter / 2.0 + PLANNER_CLEARANCE_MARGIN
        graph = graphs.get(clearance)
        if graph is None:
            graph = graphs[clearance] = build_visibility_graph(scene, clearance)
        try:
            path = plan_path(graph, entry.position, entry.goal, scene)
        except UnreachableGoalError as exc:
            raise ScenarioRejectedError(f"agent {entry.id}: {exc}") from exc
        waypoints[entry.id] = path[1:] if len(path) > 1 else [entry.goal]
    return waypoints


class Simulation:
    def __init__(
        self, config: SimulationConfig, waypoints: dict[str, list[Vec2]] | None = None
    ) -> None:
        """`waypoints` maps every agent id to its planned route, as
        returned by plan_waypoints; when omitted the routes are planned
        here. Spawned agents get copies, so the mapping is never changed."""
        config.scene.validate()
        config.scenario.validate()
        config.params.validate()
        if not (config.dt > 0.0 and math.isfinite(config.dt)):
            raise ScenarioError("dt must be positive and finite")
        self.config = config
        self.world = WorldState(step=0, agents={}, active_conflicts=[])
        self.trace = SimulationTrace(scenario_id=config.scenario.scenario_id)
        self._entries = sorted(config.scenario.entries, key=lambda e: (e.entry_step, e.id))
        self._spawn_cursor = 0
        self._next_conflict_id = 0
        # Each agent's first active game: it acts on that one until the
        # game retires, whatever later games it joins.
        self._binding: dict[str, ConflictRuntime] = {}
        self._pending_despawn: set[str] = set()
        if waypoints is None:
            waypoints = plan_waypoints(config.scene, self._entries)
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

    def _run_recognition(self, columns: AgentColumns) -> None:
        outcome = conflicts_mod.recognize_conflicts(
            columns.cars,
            columns.pedestrians,
            self.config.scene,
            self.config.params.sfm,
            active_conflicts=[r.conflict for r in self.world.active_conflicts],
            step=self.world.step,
            next_id=self._next_conflict_id,
            columns=columns,
        )
        if outcome.dissolved_ids:
            dissolved = set(outcome.dissolved_ids)
            self.world.active_conflicts = [
                r for r in self.world.active_conflicts if r.conflict.id not in dissolved
            ]
            for aid, runtime in list(self._binding.items()):
                if runtime.conflict.id in dissolved:
                    del self._binding[aid]
        for conflict in outcome.new_conflicts:
            self._next_conflict_id = max(self._next_conflict_id, conflict.id + 1)
            self._create_game(conflict)

    def _create_game(self, conflict: Conflict) -> None:
        self.trace.conflicts.append(conflict)
        leader = self.world.agents[conflict.anchor_car]
        followers = [
            self.world.agents[uid]
            for uid in conflict.competitive_users
            if uid in self.world.agents
        ]
        if not followers:
            return
        # Feature extraction counts each member's active games, the one
        # being created included.
        for m in conflict.participants():
            agent = self.world.agents.get(m)
            if agent is not None:
                agent.active_interactions = 1 + sum(
                    m in r.conflict.participants() for r in self.world.active_conflicts
                )
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
        runtime = ConflictRuntime(conflict=conflict, actions=actions)
        self.world.active_conflicts.append(runtime)
        nearest_follower = conflicts_mod.nearest_id(
            leader, [f.id for f in followers], self.world.agents
        )
        for aid, action in actions.items():
            agent = self.world.agents[aid]
            if aid == leader.id:
                role, fv = "leader", contexts[nearest_follower].leader_view
            else:
                role, fv = "follower", contexts[aid].follower_view
            self.trace.decisions.append(
                DecisionRow(self.world.step, conflict.id, aid, agent.kind, role, fv, action)
            )
            if aid not in self._binding:
                self._binding[aid] = runtime
            if agent.kind is AgentKind.CAR and action is Action.DECELERATE:
                agent.giveway_count += 1

    def _action_completed(self, agent: AgentState, action: Action, partner: AgentState | None) -> bool:
        if partner is None:
            return True
        if agent.position.distance_to(partner.position) > self.config.params.sfm.v_r:
            return True
        if (partner.position - agent.position).dot(agent.heading) < 0.0:
            return True
        if action is Action.DEVIATE and not in_field_of_view(
            agent,
            partner.position,
            self.config.params.sfm.fov_half_angle_deg,
            self.config.params.sfm.v_r,
        ):
            return True
        return False

    def _retire_conflicts(self) -> None:
        kept = []
        for runtime in self.world.active_conflicts:
            age = self.world.step - runtime.conflict.created_at_step
            done = age >= self.config.conflict_timeout
            if not done:
                done = True
                for aid, action in runtime.actions.items():
                    agent = self.world.agents.get(aid)
                    if agent is None:
                        continue
                    if not self._action_completed(agent, action, self._game_partner(aid, runtime)):
                        done = False
                        break
            if done:
                for aid, bound in list(self._binding.items()):
                    if bound is runtime:
                        del self._binding[aid]
            else:
                kept.append(runtime)
        self.world.active_conflicts = kept

    # - modes and movement ----------------------------------------------

    def _find_following_leader(
        self, car: AgentState, cars: list[AgentState]
    ) -> AgentState | None:
        """Nearest other car ahead (frontal 90-degree cone) within view
        range and moving roughly the same way."""
        sfm = self.config.params.sfm
        best = None
        best_d = float("inf")
        for other in cars:
            if other.id == car.id:
                continue
            offset = other.position - car.position
            d = offset.norm()
            if d > sfm.v_r or d >= best_d or d == 0.0:
                continue
            if not within_cone(car.heading, offset, CAR_CONE_HALF_ANGLE_DEG):
                continue
            if car.heading.dot(other.heading) <= 0.0:
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
        for car in cars:
            stopping_for = forces_mod.reactive_stopping(car, peds, sfm) if brakes else []
            runtime = self._binding.get(car.id)
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
                    # The leader's nearest follower, the first in id order on a tie.
                    prev = follower_of.get(leader.id)
                    if prev is None or car.position.distance_to(leader.position) < (
                        self.world.agents[prev].position.distance_to(leader.position)
                    ):
                        follower_of[leader.id] = car.id
                else:
                    directive = forces_mod.DriveTo(car.next_waypoint(), car.desired_speed)
                    assignments[car.id] = (Mode.FREE_FLOW, directive)
                car.currently_stopping_for = frozenset()
            car.following_car_id = leader.id if leader is not None else None
        for car in cars:
            car.followed_by_car_id = follower_of.get(car.id)
        for ped in peds:
            runtime = self._binding.get(ped.id)
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
            self._binding.pop(aid, None)
        ordered = sorted(self.world.agents.values(), key=lambda a: a.id)
        columns = AgentColumns(
            [a for a in ordered if a.kind is AgentKind.CAR],
            [a for a in ordered if a.kind is AgentKind.PEDESTRIAN],
            self.config.scene,
        )

        self._run_recognition(columns)
        assignments = self._assign_modes(columns)
        for agent in frame:
            mode = "arrived" if agent.id in arrived else assignments[agent.id][0].value
            self.trace.rows.append(
                TraceRow(self.world.step, agent.id, agent.kind, agent.position.x, agent.position.y, mode)
            )
        sfm = self.config.params.sfm
        agents = list(self.world.agents.values())
        targets = [a for a in agents if assignments[a.id][1] is None]
        totals = forces_mod.agent_repulsion_totals(targets, agents, sfm, columns)
        for agent, total in zip(targets, totals):
            push = total + forces_mod.obstacle_repulsion(agent, self.config.scene, sfm)
            directive = forces_mod.DriveTo(agent.next_waypoint(), agent.desired_speed, push)
            assignments[agent.id] = (Mode.FORCES, directive)

        new_agents: dict[str, AgentState] = {}
        for aid, agent in self.world.agents.items():
            self._advance_waypoints(agent)
            moved = forces_mod.integrate_step(agent, assignments[aid][1], self.config.dt, sfm)
            if not (moved.position.is_finite() and moved.velocity.is_finite()):
                raise ScenarioRejectedError(
                    f"agent {aid}: non-finite state at step {self.world.step}"
                )
            new_agents[aid] = moved
        self.world.agents = new_agents

        for aid, agent in self.world.agents.items():
            if agent.position.distance_to(agent.goal) <= ARRIVAL_TOLERANCE:
                if aid not in self.trace.arrived_step:
                    self.trace.arrived_step[aid] = self.world.step
                    self._pending_despawn.add(aid)

        self._retire_conflicts()
        self.world.step += 1
        self.trace.steps_run = self.world.step

    def run(self) -> SimulationTrace:
        while self.world.step < self.config.max_steps and (
            self.world.agents or self._spawn_cursor < len(self._entries)
        ):
            self.step()
        if self.world.agents:
            self.trace.truncated = True
        return self.trace


def run_scenario(
    config: SimulationConfig, waypoints: dict[str, list[Vec2]] | None = None
) -> SimulationTrace:
    return Simulation(config, waypoints).run()


# - scenario files -----------------------------------------------------

_ENTRY_KEYS = {
    "id", "kind", "entry_step", "position", "velocity", "goal",
    "desired_speed", "max_speed", "diameter",
}


def load_scenario(path: str | Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict) or "scenario_id" not in raw:
        raise ScenarioError(f"{path}: expected an object with scenario_id")
    agents = raw.get("agents", [])
    if not isinstance(agents, list):
        raise ScenarioError(f"{path}: agents must be a list")
    entries = []
    for i, item in enumerate(agents):
        if not isinstance(item, dict):
            raise ScenarioError(f"{path}: agents[{i}]: expected an object")
        unknown = set(item) - _ENTRY_KEYS
        if unknown:
            raise ScenarioError(f"{path}: agents[{i}]: unknown keys {sorted(unknown)}")
        try:
            kind = AgentKind(item["kind"])
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"{path}: agents[{i}]: kind must be 'ped' or 'car'") from exc
        try:
            position = Vec2(*map(float, item["position"]))
            goal = Vec2(*map(float, item["goal"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{path}: agents[{i}]: bad position/goal") from exc
        try:
            velocity = Vec2(*map(float, item.get("velocity", (0.0, 0.0))))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{path}: agents[{i}]: bad velocity") from exc
        defaults = KIND_DEFAULTS[kind]
        scalars = {}
        for key, convert, default in (
            ("entry_step", int, 0),
            ("desired_speed", float, defaults["desired_speed"]),
            ("max_speed", float, defaults["max_speed"]),
            ("diameter", float, defaults["diameter"]),
        ):
            try:
                scalars[key] = convert(item.get(key, default))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioError(f"{path}: agents[{i}]: bad {key}") from exc
        entries.append(
            AgentEntry(
                id=str(item.get("id", f"agent{i}")),
                kind=kind,
                position=position,
                velocity=velocity,
                goal=goal,
                **scalars,
            )
        )
    scenario = Scenario(scenario_id=str(raw["scenario_id"]), entries=entries)
    scenario.validate()
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    payload = {
        "scenario_id": scenario.scenario_id,
        "agents": [
            {
                "id": e.id,
                "kind": e.kind.value,
                "entry_step": e.entry_step,
                "position": [e.position.x, e.position.y],
                "velocity": [e.velocity.x, e.velocity.y],
                "goal": [e.goal.x, e.goal.y],
                "desired_speed": e.desired_speed,
                "max_speed": e.max_speed,
                "diameter": e.diameter,
            }
            for e in scenario.entries
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# - trace output -------------------------------------------------------

def write_trace_csv(trace: SimulationTrace, path: str | Path) -> None:
    lines = ["scenario_id,frame,agent_id,kind,x,y"]
    for row in trace.rows:
        lines.append(
            f"{trace.scenario_id},{row.step},{row.agent_id},{row.kind.value},{row.x!r},{row.y!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_decisions_csv(trace: SimulationTrace, path: str | Path) -> None:
    lines = ["scenario_id,step,conflict_id,agent_id,action"]
    for d in trace.decisions:
        lines.append(
            f"{trace.scenario_id},{d.step},{d.conflict_id},{d.agent_id},{d.action.value}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_features_csv(trace: SimulationTrace, path: str | Path) -> None:
    names = [spec.name for spec in fields(FeatureVector)]
    header = "scenario_id,step,conflict_id,agent_id,kind,role," + ",".join(names) + ",action"
    lines = [header]
    for d in trace.decisions:
        values = ",".join(repr(getattr(d.features, name)) for name in names)
        lines.append(
            f"{trace.scenario_id},{d.step},{d.conflict_id},{d.agent_id},{d.kind.value},{d.role},{values},{d.action.value}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
