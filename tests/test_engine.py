"""Simulation-loop tests: scenario files, agent lifecycle, mode
priorities, conflict lifecycle, determinism, and trace output."""

from __future__ import annotations

import ast
import hashlib
import json
import random
from functools import cached_property
from pathlib import Path
from typing import Collection

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_graph_builds, open_square_scene
from sharedspace import conflicts, engine, forces
from sharedspace import scene as scene_mod
from sharedspace.calibrate import trace_positions
from sharedspace.conflicts import Conflict, ConflictClass
from sharedspace.engine import (
    AgentEntry,
    Mode,
    Scenario,
    ScenarioError,
    ScenarioRejectedError,
    Simulation,
    SimulationConfig,
    SimulationTrace,
    TraceRow,
    load_scenario,
    plan_waypoints,
    run_scenario,
    save_scenario,
    write_decisions_csv,
    write_features_csv,
    write_trace_csv,
)
from sharedspace.game import Action
from sharedspace.geometry import Vec2
from sharedspace.params import ParameterSet
from sharedspace.scene import AgentColumns, AgentKind, AgentState, Rect, Scene, load_scene


def car_entry(
    agent_id: str = "c1",
    position: Vec2 = Vec2(-14.0, 0.0),
    velocity: Vec2 = Vec2(2.0, 0.0),
    goal: Vec2 = Vec2(30.0, 0.0),
    entry_step: int = 0,
    desired_speed: float = 2.0,
    max_speed: float = 2.2,
) -> AgentEntry:
    return AgentEntry(
        id=agent_id,
        kind=AgentKind.CAR,
        entry_step=entry_step,
        position=position,
        velocity=velocity,
        goal=goal,
        desired_speed=desired_speed,
        max_speed=max_speed,
        diameter=2.0,
    )


def ped_entry(
    agent_id: str = "p1",
    position: Vec2 = Vec2(0.0, -8.0),
    velocity: Vec2 = Vec2(0.0, 1.2),
    goal: Vec2 = Vec2(0.0, 8.0),
    entry_step: int = 0,
    desired_speed: float = 1.2,
    max_speed: float = 1.2,
) -> AgentEntry:
    return AgentEntry(
        id=agent_id,
        kind=AgentKind.PEDESTRIAN,
        entry_step=entry_step,
        position=position,
        velocity=velocity,
        goal=goal,
        desired_speed=desired_speed,
        max_speed=max_speed,
        diameter=0.5,
    )


def crossing_config(**overrides) -> SimulationConfig:
    """A car driving +x meets a pedestrian crossing +y: one conflict
    fires at step 0 and both agents reach their goals."""
    scenario = Scenario("crossing", [car_entry(), ped_entry()])
    defaults = dict(scene=open_square_scene(), scenario=scenario)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


class TestScenarioFiles:
    def test_load_applies_per_kind_defaults(self, tmp_path: Path) -> None:
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "scenario_id": "s1",
                    "agents": [
                        {"kind": "ped", "position": [0, 0], "goal": [5, 0]},
                        {"kind": "car", "position": [10, 0], "goal": [20, 0]},
                    ],
                }
            )
        )
        scenario = load_scenario(path)
        assert scenario.scenario_id == "s1"
        p, c = scenario.entries
        assert (p.id, c.id) == ("agent0", "agent1")
        assert p.entry_step == 0 and c.entry_step == 0
        assert p.velocity == Vec2(0.0, 0.0)
        assert (p.desired_speed, p.max_speed, p.diameter) == (1.34, 2.0, 0.5)
        assert (c.desired_speed, c.max_speed, c.diameter) == (5.0, 8.0, 2.0)

    def test_round_trip(self, tmp_path: Path) -> None:
        scenario = Scenario("crossing", [car_entry(), ped_entry(entry_step=3)])
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_unknown_agent_key_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "scenario_id": "s1",
                    "agents": [{"kind": "ped", "position": [0, 0], "goal": [5, 0], "speed": 1}],
                }
            )
        )
        with pytest.raises(ScenarioError, match="speed"):
            load_scenario(path)

    def test_bad_kind_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {"scenario_id": "s1", "agents": [{"kind": "bike", "position": [0, 0], "goal": [5, 0]}]}
            )
        )
        with pytest.raises(ScenarioError, match="kind"):
            load_scenario(path)

    @pytest.mark.parametrize("velocity", [[1, 2, 3], [1], 5, ["a", "b"]])
    def test_bad_velocity_rejected(self, tmp_path: Path, velocity) -> None:
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "scenario_id": "s1",
                    "agents": [
                        {"kind": "ped", "position": [0, 0], "goal": [5, 0], "velocity": velocity}
                    ],
                }
            )
        )
        with pytest.raises(ScenarioError, match="velocity"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("desired_speed", [1]),
            ("max_speed", "fast"),
            ("diameter", None),
            ("entry_step", {"at": 3}),
            ("entry_step", float("inf")),
        ],
    )
    def test_bad_scalar_field_rejected(self, tmp_path: Path, key, value) -> None:
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "scenario_id": "s1",
                    "agents": [{"kind": "ped", "position": [0, 0], "goal": [5, 0], key: value}],
                }
            )
        )
        with pytest.raises(ScenarioError, match=rf": agents\[0\]\.{key}: expected a (finite )?number, got "):
            load_scenario(path)

    @pytest.mark.parametrize(
        "agents, message",
        [
            (5, "agents must be a list"),
            ({"kind": "ped"}, "agents must be a list"),
            ([1], r"agents\[0\]: expected an object"),
            ([["ped"]], r"agents\[0\]: expected an object"),
        ],
    )
    def test_agents_not_a_list_of_objects_rejected(self, tmp_path: Path, agents, message) -> None:
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"scenario_id": "s1", "agents": agents}))
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)

    def test_missing_scenario_id_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"agents": []}))
        with pytest.raises(ScenarioError, match="scenario_id"):
            load_scenario(path)

    def test_invalid_json_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "s.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(path)

    def test_duplicate_ids_rejected(self) -> None:
        scenario = Scenario("s", [ped_entry("p1"), ped_entry("p1")])
        with pytest.raises(ScenarioError, match="duplicate"):
            scenario.validate()

    def test_negative_entry_step_rejected(self) -> None:
        scenario = Scenario("s", [ped_entry(entry_step=-1)])
        with pytest.raises(ScenarioError, match="entry_step"):
            scenario.validate()

    def test_nonfinite_coordinates_rejected(self) -> None:
        scenario = Scenario("s", [ped_entry(position=Vec2(float("nan"), 0.0))])
        with pytest.raises(ScenarioError, match="finite"):
            scenario.validate()

    def test_nonpositive_dt_rejected(self) -> None:
        with pytest.raises(ScenarioError, match="dt"):
            Simulation(crossing_config(dt=0.0))

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_nonfinite_dt_rejected(self, dt) -> None:
        with pytest.raises(ScenarioError, match="dt must be positive and finite"):
            Simulation(crossing_config(dt=dt))


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def rows_by_agent(trace, agent_id: str):
    return [r for r in trace.rows if r.agent_id == agent_id]


class TestLifecycle:
    def test_agents_spawn_at_their_entry_step(self) -> None:
        scenario = Scenario("s", [ped_entry("p1"), ped_entry("p2", entry_step=5, position=Vec2(3.0, -8.0), goal=Vec2(3.0, 8.0))])
        trace = run_scenario(SimulationConfig(scene=open_square_scene(), scenario=scenario))
        assert rows_by_agent(trace, "p1")[0].step == 0
        assert rows_by_agent(trace, "p2")[0].step == 5

    def test_arrival_recorded_then_agent_leaves(self) -> None:
        scenario = Scenario("s", [ped_entry("p1", position=Vec2(0.0, 0.0), goal=Vec2(0.0, 2.0))])
        trace = run_scenario(SimulationConfig(scene=open_square_scene(), scenario=scenario))
        assert not trace.truncated
        arrived = trace.arrived_step["p1"]
        rows = rows_by_agent(trace, "p1")
        # One farewell frame tagged "arrived", nothing afterwards.
        assert rows[-1].step == arrived + 1
        assert rows[-1].mode == "arrived"
        assert [r.mode for r in rows].count("arrived") == 1
        final = Vec2(rows[-1].x, rows[-1].y)
        assert final.distance_to(Vec2(0.0, 2.0)) <= 0.5 + 1e-9

    def test_truncation_flag_when_steps_run_out(self) -> None:
        trace = run_scenario(crossing_config(max_steps=3))
        assert trace.truncated
        assert trace.steps_run == 3
        assert {r.step for r in trace.rows} == {0, 1, 2}

    def test_an_entry_yet_to_spawn_when_steps_run_out_truncates_the_run(self) -> None:
        scenario = Scenario("s", [
            ped_entry("p1", position=Vec2(0.0, -3.0), goal=Vec2(0.0, 3.0)),
            ped_entry("p2", entry_step=50, position=Vec2(3.0, -8.0), goal=Vec2(3.0, 8.0)),
        ])
        trace = run_scenario(SimulationConfig(scene=open_square_scene(), scenario=scenario, max_steps=20))
        assert set(trace.arrived_step) == {"p1"}
        assert {r.agent_id for r in trace.rows} == {"p1"}
        assert trace.steps_run == 20
        assert trace.truncated

    def test_everyone_arrives_in_the_crossing_scenario(self) -> None:
        trace = run_scenario(crossing_config())
        assert not trace.truncated
        assert set(trace.arrived_step) == {"c1", "p1"}

    def test_no_agent_outruns_its_top_speed(self) -> None:
        config = crossing_config()
        top = {e.id: e.max_speed for e in config.scenario.entries}
        trace = run_scenario(config)
        last: dict[str, tuple[int, Vec2]] = {}
        for row in trace.rows:
            pos = Vec2(row.x, row.y)
            if row.agent_id in last:
                prev_step, prev_pos = last[row.agent_id]
                steps = row.step - prev_step
                assert pos.distance_to(prev_pos) <= top[row.agent_id] * 0.5 * steps + 1e-9
            last[row.agent_id] = (row.step, pos)

    def test_an_agent_is_one_object_from_spawn_to_despawn(self, monkeypatch) -> None:
        moved = {}
        integrate = forces.integrate_step

        def recording(agent, directive, dt, params):
            moved[agent.id] = integrate(agent, directive, dt, params)
            return moved[agent.id]

        monkeypatch.setattr(forces, "integrate_step", recording)
        sim = Simulation(crossing_config())
        spawned: dict[str, AgentState] = {}
        while sim.world.agents or not spawned:
            sim.step()
            for aid, agent in sim.world.agents.items():
                assert spawned.setdefault(aid, agent) is agent
                assert (agent.position, agent.velocity, agent.heading) == moved.pop(aid)
            assert not moved  # every agent integrated this step is still in the world
        assert set(spawned) == {"c1", "p1"}
        assert set(sim.trace.arrived_step) == {"c1", "p1"}

    def test_unreachable_goal_rejected_at_construction(self) -> None:
        box = (Vec2(-2.0, -2.0), Vec2(2.0, -2.0), Vec2(2.0, 2.0), Vec2(-2.0, 2.0))
        scene = Scene(
            obstacles=(box,),
            intersection_zones=(),
            road_zones=(),
            bounds=Rect(-30.0, -30.0, 30.0, 30.0),
        )
        scenario = Scenario("s", [ped_entry("p1", position=Vec2(-10.0, 0.0), goal=Vec2(0.0, 0.0))])
        with pytest.raises(ScenarioRejectedError, match="p1"):
            Simulation(SimulationConfig(scene=scene, scenario=scenario))


class TestNonFiniteState:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("coordinate", range(4), ids=["position.x", "position.y", "velocity.x", "velocity.y"])
    def test_any_non_finite_coordinate_rejects_the_scenario(self, monkeypatch, coordinate, bad) -> None:
        integrate = forces.integrate_step

        def spoiling(agent, directive, dt, params):
            position, velocity, heading = integrate(agent, directive, dt, params)
            if sim.world.step == 3 and agent.id == "p1":
                xs = [position.x, position.y, velocity.x, velocity.y]
                xs[coordinate] = bad
                return Vec2(xs[0], xs[1]), Vec2(xs[2], xs[3]), heading
            return position, velocity, heading

        monkeypatch.setattr(forces, "integrate_step", spoiling)
        sim = Simulation(crossing_config())
        for _ in range(3):
            sim.step()
        assert set(sim.world.agents) == {"c1", "p1"}
        with pytest.raises(ScenarioRejectedError) as rejected:
            sim.step()
        assert str(rejected.value) == "agent p1: non-finite state at step 3"


class TestPlannedWaypoints:
    def test_given_waypoints_give_the_same_trace_and_stay_unchanged(self) -> None:
        box = (Vec2(-2.0, -2.0), Vec2(2.0, -2.0), Vec2(2.0, 2.0), Vec2(-2.0, 2.0))
        ring = (Vec2(-30.0, -30.0), Vec2(30.0, -30.0), Vec2(30.0, 30.0), Vec2(-30.0, 30.0))
        scene = Scene(
            obstacles=(box,),
            intersection_zones=(ring,),
            road_zones=(),
            bounds=Rect(-40.0, -40.0, 40.0, 40.0),
        )
        config = crossing_config(scene=scene)
        plan = plan_waypoints(scene, config.scenario.entries)
        # both straight routes cross the box, so each agent has a corner to pass
        assert all(len(route) > 1 for route in plan.values())
        before = {aid: list(route) for aid, route in plan.items()}
        planned_here = run_scenario(config)
        given = run_scenario(config, plan)
        assert given == planned_here
        assert given.conflicts
        assert plan == before

    @staticmethod
    def count_obstacle_indexes(monkeypatch) -> list[scene_mod.ObstacleIndex]:
        """Record every obstacle index a scene builds."""
        built = []

        class CountedIndex(scene_mod.ObstacleIndex):
            def __init__(self, polygons) -> None:
                built.append(self)
                super().__init__(polygons)

        monkeypatch.setattr(scene_mod, "ObstacleIndex", CountedIndex)
        return built

    BOX = (Vec2(-2.0, -2.0), Vec2(2.0, -2.0), Vec2(2.0, 2.0), Vec2(-2.0, 2.0))

    def test_one_obstacle_index_per_plan(self, monkeypatch) -> None:
        built = self.count_obstacle_indexes(monkeypatch)
        clearances = count_graph_builds(monkeypatch)
        scene = Scene(obstacles=(self.BOX,), bounds=Rect(-40.0, -40.0, 40.0, 40.0))
        # Three cars and three pedestrians: two clearances, six routes.
        entries = [car_entry(f"c{k}", position=Vec2(-14.0, k - 1.0), goal=Vec2(30.0, k - 1.0)) for k in range(3)]
        entries += [ped_entry(f"p{k}", position=Vec2(k - 1.0, -8.0), goal=Vec2(k - 1.0, 8.0)) for k in range(3)]
        plan = plan_waypoints(scene, entries)
        assert all(len(route) > 1 for route in plan.values())
        assert len(clearances) == 2
        assert len(built) == 1

    def test_a_simulation_plans_and_pushes_on_the_scene_s_one_index(self, monkeypatch) -> None:
        built = self.count_obstacle_indexes(monkeypatch)
        planned_with = []
        build = engine.build_visibility_graph

        def recording_build(obstacles, clearance=0.0):
            planned_with.append(obstacles)
            return build(obstacles, clearance)

        pushed_with = []
        repel = forces.obstacle_repulsion

        def recording_repel(agent, obstacles, params):
            pushed_with.append(obstacles)
            return repel(agent, obstacles, params)

        monkeypatch.setattr(engine, "build_visibility_graph", recording_build)
        monkeypatch.setattr(forces, "obstacle_repulsion", recording_repel)
        scene = Scene(obstacles=(self.BOX,), bounds=Rect(-40.0, -40.0, 40.0, 40.0))
        entries = [car_entry(f"c{k}", position=Vec2(-14.0, 3.0 * k), goal=Vec2(30.0, 3.0 * k)) for k in range(2)]
        entries += [ped_entry(f"p{k}", position=Vec2(k - 0.5, -8.0), goal=Vec2(k - 0.5, 8.0)) for k in range(2)]
        trace = run_scenario(SimulationConfig(scene=scene, scenario=Scenario("box", entries), max_steps=40))
        assert built == [scene.obstacle_index]
        assert len(planned_with) == 2 and all(index is built[0] for index in planned_with)
        # pedestrians in force mode step after step, all on the one index
        assert len(pushed_with) > trace.steps_run > 0
        assert all(index is built[0] for index in pushed_with)

    @pytest.mark.parametrize("name", ["position", "goal"])
    def test_given_waypoints_do_not_skip_the_bounds_check(self, name) -> None:
        scene = open_square_scene()  # bounds +-60 m
        far, near = Vec2(1e6, 1e6), Vec2(0.0, 5.0)
        entry = ped_entry(position=far if name == "position" else near, goal=near if name == "position" else far)
        config = SimulationConfig(scene=scene, scenario=Scenario("far", [entry]))
        message = f"agent p1: {name} \\(1000000.0, 1000000.0\\) lies outside the scene bounds"
        with pytest.raises(ScenarioRejectedError, match=message):
            plan_waypoints(scene, [entry])
        with pytest.raises(ScenarioRejectedError, match=message):
            Simulation(config, {"p1": [entry.goal]})


# ---------------------------------------------------------------------------
# Mode assignment
# ---------------------------------------------------------------------------


def modes_at_step(trace, step: int) -> dict[str, str]:
    return {r.agent_id: r.mode for r in trace.rows if r.step == step}


class TestModes:
    def test_steps_without_force_mode_agents(self, monkeypatch) -> None:
        # Step 0 holds no agent; at step 1 both agents are in a game.
        sums = []
        totals = forces.repulsion_sums

        def recording(targets, agents, params, *columns):
            sums.append(([t.id for t in targets], [a.id for a in agents]))
            return totals(targets, agents, params, *columns)

        monkeypatch.setattr(forces, "repulsion_sums", recording)
        scenario = Scenario("crossing", [car_entry(entry_step=1), ped_entry(entry_step=1)])
        trace = run_scenario(crossing_config(scenario=scenario, max_steps=3))
        assert modes_at_step(trace, 1) == {"c1": "game", "p1": "game"}
        assert sums[:2] == [([], []), ([], ["c1", "p1"])]
        assert trace.steps_run == 3

    def test_lone_car_free_flows_and_lone_ped_uses_forces(self) -> None:
        scenario = Scenario(
            "s",
            [
                car_entry("c1", position=Vec2(-20.0, -20.0), goal=Vec2(20.0, -20.0)),
                ped_entry("p1", position=Vec2(20.0, 20.0), goal=Vec2(22.0, 20.0)),
            ],
        )
        trace = run_scenario(SimulationConfig(scene=open_square_scene(), scenario=scenario))
        modes = modes_at_step(trace, 0)
        assert modes == {"c1": "free_flow", "p1": "forces"}

    def test_rear_car_follows_the_one_ahead(self) -> None:
        # A road zone never hosts car-car conflicts, so the pure
        # following behaviour is observable there.
        scenario = Scenario(
            "s",
            [
                car_entry("c1", position=Vec2(0.0, 0.0), goal=Vec2(40.0, 0.0)),
                car_entry("c2", position=Vec2(-6.0, 0.0), goal=Vec2(40.0, 0.0)),
            ],
        )
        trace = run_scenario(
            SimulationConfig(scene=open_square_scene(zone="road"), scenario=scenario, max_steps=2)
        )
        modes = modes_at_step(trace, 0)
        assert modes["c1"] == "free_flow"
        assert modes["c2"] == "following"

    def test_conflict_puts_both_agents_in_game_mode(self) -> None:
        trace = run_scenario(crossing_config(max_steps=2))
        modes = modes_at_step(trace, 0)
        assert modes == {"c1": "game", "p1": "game"}

    def test_crossing_pedestrian_ahead_triggers_stopping(self) -> None:
        # Pedestrian 4 m ahead in the car's lane, walking across it;
        # predicted positions stay far apart so no conflict competes.
        scenario = Scenario(
            "s",
            [
                car_entry("c1", position=Vec2(0.0, 0.0), goal=Vec2(30.0, 0.0)),
                ped_entry("p1", position=Vec2(4.0, 0.5), velocity=Vec2(0.0, -1.2), goal=Vec2(4.0, -8.0)),
            ],
        )
        trace = run_scenario(
            SimulationConfig(scene=open_square_scene(), scenario=scenario, max_steps=2)
        )
        assert modes_at_step(trace, 0)["c1"] == "stopping"

    def test_reactive_stopping_disabled_in_campus_regime(self) -> None:
        scenario = Scenario(
            "s",
            [
                car_entry("c1", position=Vec2(0.0, 0.0), goal=Vec2(30.0, 0.0)),
                ped_entry("p1", position=Vec2(4.0, 0.5), velocity=Vec2(0.0, -1.2), goal=Vec2(4.0, -8.0)),
            ],
        )
        trace = run_scenario(
            SimulationConfig(
                scene=open_square_scene(),
                scenario=scenario,
                params=ParameterSet.defaults("dut"),
                max_steps=2,
            )
        )
        assert modes_at_step(trace, 0)["c1"] == "free_flow"

    def test_stopping_outranks_game(self) -> None:
        # Same crossing conflict as crossing_config plus a second
        # pedestrian right in front of the car: stopping must win even
        # though the car is engaged in a game.
        scenario = Scenario(
            "s",
            [
                car_entry(),
                ped_entry(),
                ped_entry("p2", position=Vec2(-10.0, 0.5), velocity=Vec2(0.0, -1.2), goal=Vec2(-10.0, -8.0)),
            ],
        )
        trace = run_scenario(
            SimulationConfig(scene=open_square_scene(), scenario=scenario, max_steps=2)
        )
        modes = modes_at_step(trace, 0)
        assert modes["c1"] == "stopping"
        assert modes["p1"] == "game"


class TestBraking:
    # The car's 10 m gap to cars and 8 m gap to pedestrians put each
    # case on a different branch of decel_rate if the wrong one is used.
    @pytest.mark.parametrize(
        "zone, entries, braking, other, mode",
        [
            # A pedestrian 8.08 m off, just inside the car's lane, walks across it.
            (
                "intersection",
                [
                    car_entry("c1", position=Vec2(0.0, 0.0), goal=Vec2(30.0, 0.0)),
                    ped_entry("p1", position=Vec2(7.99, 1.2), velocity=Vec2(0.0, -1.2), goal=Vec2(7.99, -8.0)),
                ],
                "c1", "p1", "stopping",
            ),
            # A car 9 m behind another; a road zone hosts no car-car game.
            (
                "road",
                [
                    car_entry("c1", position=Vec2(0.0, 0.0), goal=Vec2(40.0, 0.0)),
                    car_entry("c2", position=Vec2(-9.0, 0.0), goal=Vec2(40.0, 0.0)),
                ],
                "c2", "c1", "following",
            ),
            # A slow car yields to a fast pedestrian in a game.
            (
                "intersection",
                [
                    car_entry(position=Vec2(-6.0, 0.0), velocity=Vec2(1.0, 0.0), desired_speed=1.0, max_speed=1.2),
                    ped_entry(position=Vec2(0.0, -6.0)),
                ],
                "c1", "p1", "game",
            ),
        ],
    )
    def test_one_rule_in_every_braking_mode(self, zone, entries, braking, other, mode) -> None:
        params = ParameterSet()
        params.sfm.d_min_cc = 10.0
        config = SimulationConfig(
            scene=open_square_scene(zone=zone), scenario=Scenario("s", entries), params=params
        )
        sim = Simulation(config)
        sim.step()
        assert modes_at_step(sim.trace, 0)[braking] == mode
        if mode == "game":
            decided = {d.agent_id: d.action for d in sim.trace.decisions}
            assert decided[braking] is Action.DECELERATE
        entry = {e.id: e for e in entries}
        car, them = entry[braking], entry[other]
        v = car.velocity.norm()
        d_min = params.sfm.d_min_for(them.kind is AgentKind.CAR)
        want = max(0.0, v - forces.decel_rate(v, car.position.distance_to(them.position), d_min))
        # Along +x the unit direction is exact, so the speed keeps its bits.
        assert sim.world.agents[braking].velocity == Vec2(want, 0.0)


# ---------------------------------------------------------------------------
# Conflict lifecycle
# ---------------------------------------------------------------------------


def active_games(sim: Simulation) -> list:
    """The simulation's games in play, in creation order."""
    return list(sim.world.conflict_index.by_id.values())


class TestConflictLifecycle:
    def test_crossing_conflict_is_recognized_and_resolved(self) -> None:
        trace = run_scenario(crossing_config())
        assert len(trace.conflicts) >= 1
        first = trace.conflicts[0]
        assert first.created_at_step == 0
        assert first.conflict_class is ConflictClass.PEDESTRIANS_TO_CAR
        assert first.anchor_car == "c1"
        assert first.competitive_users == ("p1",)
        decided = {(d.conflict_id, d.agent_id): d.action for d in trace.decisions}
        # Slow pedestrian against a moving car: the car keeps going and
        # the pedestrian ducks behind it.
        assert decided[(first.id, "c1")] is Action.CONTINUE
        assert decided[(first.id, "p1")] is Action.DEVIATE

    def test_actions_latch_until_the_conflict_ends(self) -> None:
        trace = run_scenario(crossing_config())
        seen = [(d.conflict_id, d.agent_id) for d in trace.decisions]
        assert len(seen) == len(set(seen))

    def test_decision_rows_carry_role_and_features(self) -> None:
        trace = run_scenario(crossing_config(max_steps=2))
        assert len(trace.decisions) == 2
        by_role = {d.role: d for d in trace.decisions}
        assert by_role["leader"].agent_id == "c1"
        assert by_role["leader"].kind is AgentKind.CAR
        assert by_role["follower"].agent_id == "p1"
        assert by_role["follower"].kind is AgentKind.PEDESTRIAN
        # Both agents see the conflict they are in.
        assert by_role["leader"].features.noai == 1.0
        assert by_role["follower"].features.noai == 1.0

    def test_a_second_game_counts_both_in_noai(self) -> None:
        # c1 meets p1 at step 0; p2 enters ahead of c1 at step 1 while
        # the first game is still active, and c1 joins a second game.
        config = crossing_config(max_steps=2)
        config.scenario.entries.append(ped_entry("p2", position=Vec2(4.0, -6.0),
                                                 goal=Vec2(4.0, 8.0), entry_step=1))
        sim = Simulation(config)
        sim.step()
        sim.step()
        first, second = sim.trace.conflicts
        assert first.participants() == ("c1", "p1")
        assert second.participants() == ("c1", "p2")
        assert second.created_at_step == 1
        noai = {(d.conflict_id, d.agent_id): d.features.noai for d in sim.trace.decisions}
        assert noai == {
            (first.id, "c1"): 1.0,
            (first.id, "p1"): 1.0,
            (second.id, "c1"): 2.0,
            (second.id, "p2"): 2.0,  # the car's count: both games are c1's
        }

    def test_stalemate_expires_after_the_timeout(self, monkeypatch) -> None:
        # Two near-stationary agents keep every completion condition
        # false, so only the timeout can retire the conflict.
        monkeypatch.setattr(engine, "CONFLICT_TIMEOUT_STEPS", 5)
        scenario = Scenario(
            "s",
            [
                car_entry(
                    position=Vec2(-4.0, 0.0),
                    velocity=Vec2(0.05, 0.0),
                    goal=Vec2(30.0, 0.0),
                    desired_speed=0.05,
                    max_speed=0.1,
                ),
                ped_entry(
                    position=Vec2(0.0, -2.0),
                    velocity=Vec2(0.0, 0.05),
                    goal=Vec2(0.0, 8.0),
                    desired_speed=0.05,
                    max_speed=0.1,
                ),
            ],
        )
        config = SimulationConfig(
            scene=open_square_scene(),
            scenario=scenario,
            params=ParameterSet.defaults("dut"),
            max_steps=8,
        )
        sim = Simulation(config)
        for _ in range(5):
            sim.step()
        assert [r.conflict.created_at_step for r in active_games(sim)] == [0]
        sim.step()  # age reaches the timeout at step 5
        assert active_games(sim) == []
        sim.step()  # the unresolved standoff re-engages afresh
        assert [r.conflict.created_at_step for r in active_games(sim)] == [6]
        assert len(sim.trace.conflicts) == 2

    def test_first_conflict_keeps_the_binding(self) -> None:
        config = crossing_config(max_steps=2)
        config.scenario.entries.append(
            car_entry("c9", position=Vec2(20.0, 20.0), goal=Vec2(-20.0, 20.0), velocity=Vec2(-2.0, 0.0))
        )
        sim = Simulation(config)
        sim.step()
        first_id = sim.trace.conflicts[0].id
        assert {aid: r.conflict.id for aid, r in sim.world.conflict_index.bound.items()} == {
            "c1": first_id,
            "p1": first_id,
        }
        # A later conflict that also involves p1 must not rebind it.
        extra = Conflict(
            id=99,
            conflict_class=ConflictClass.PEDESTRIANS_TO_CAR,
            anchor_car="c9",
            competitive_users=("p1",),
            created_at_step=sim.world.step,
        )
        sim._create_game(extra)
        bound = sim.world.conflict_index.bound
        assert bound["p1"].conflict.id == first_id
        assert bound["c9"].conflict.id == 99
        assert bound["p1"] is active_games(sim)[0]

    def test_retiring_the_bound_game_unbinds_despite_a_later_game(self, monkeypatch) -> None:
        monkeypatch.setattr(engine, "CONFLICT_TIMEOUT_STEPS", 1)
        config = crossing_config(max_steps=3)
        config.scenario.entries.append(
            car_entry("c9", position=Vec2(20.0, 20.0), goal=Vec2(-20.0, 20.0), velocity=Vec2(-2.0, 0.0))
        )
        sim = Simulation(config)
        sim.step()
        first = sim.world.conflict_index.bound["p1"]
        later = Conflict(
            id=99,
            conflict_class=ConflictClass.PEDESTRIANS_TO_CAR,
            anchor_car="c9",
            competitive_users=("p1",),
            created_at_step=sim.world.step,
        )
        sim._create_game(later)
        # Only the timeout retires games here: the first one has reached
        # it, the later one has not.
        monkeypatch.setattr(sim, "_action_completed", lambda agent, action, partner: False)
        sim._retire_conflicts()
        assert [r.conflict.id for r in active_games(sim)] == [99]
        assert first not in active_games(sim)
        # p1 still plays in game 99 but was never bound to it.
        assert {aid: r.conflict.id for aid, r in sim.world.conflict_index.bound.items()} == {"c9": 99}

    def test_road_merge_dissolves_the_absorbed_game_and_unbinds_it(self) -> None:
        # c2 engages p1 at step 0; c1 arrives at step 1 with the same
        # nearest pedestrian, so its new game absorbs c2's.
        scenario = Scenario(
            "merge",
            [
                car_entry("c2", position=Vec2(0.0, 6.0), velocity=Vec2(1.0, 0.0),
                          goal=Vec2(30.0, 6.0), desired_speed=1.0, max_speed=1.2),
                ped_entry("p1", position=Vec2(6.0, -3.0), goal=Vec2(6.0, 20.0)),
                car_entry("c1", position=Vec2(0.0, 0.0), velocity=Vec2(1.0, 0.0),
                          goal=Vec2(30.0, 0.0), desired_speed=1.0, max_speed=1.2, entry_step=1),
            ],
        )
        config = SimulationConfig(
            scene=open_square_scene(zone="road"), scenario=scenario, max_steps=3
        )
        sim = Simulation(config)
        sim.step()
        bound = sim.world.conflict_index.bound
        absorbed = bound["c2"]
        assert absorbed.conflict.participants() == ("c2", "p1")
        assert bound["p1"] is absorbed
        sim.step()
        (merged,) = active_games(sim)
        assert merged.conflict.conflict_class is ConflictClass.PEDESTRIANS_TO_CARS
        assert merged.conflict.participants() == ("c1", "p1", "c2")
        # Without the unbinding, c2 and p1 would still act on the
        # dissolved game.
        assert bound == {"c1": merged, "p1": merged, "c2": merged}
        modes = {r.agent_id: r.mode for r in sim.trace.rows if r.step == 1}
        assert modes == {"c1": "game", "c2": "game", "p1": "game"}

    def test_car_decelerating_in_a_game_counts_a_giveway(self) -> None:
        # A slow car against a fast pedestrian brakes (its decelerate
        # utility dominates), which increments its give-way counter.
        scenario = Scenario(
            "s",
            [
                car_entry(
                    position=Vec2(-6.0, 0.0),
                    velocity=Vec2(1.0, 0.0),
                    desired_speed=1.0,
                    max_speed=1.2,
                    goal=Vec2(30.0, 0.0),
                ),
                ped_entry(
                    position=Vec2(0.0, -6.0),
                    velocity=Vec2(0.0, 1.2),
                    goal=Vec2(0.0, 8.0),
                ),
            ],
        )
        config = SimulationConfig(scene=open_square_scene(), scenario=scenario, max_steps=2)
        sim = Simulation(config)
        sim.step()
        decided = {d.agent_id: d.action for d in sim.trace.decisions}
        assert decided["c1"] is Action.DECELERATE
        assert sim.world.agents["c1"].giveway_count == 1


# ---------------------------------------------------------------------------
# Determinism and output files
# ---------------------------------------------------------------------------


class TestOutputs:
    def test_reruns_are_bit_identical(self, tmp_path: Path) -> None:
        paths = []
        for name in ("a", "b"):
            trace = run_scenario(crossing_config())
            out = tmp_path / f"{name}.csv"
            write_trace_csv(trace, out)
            write_decisions_csv(trace, tmp_path / f"{name}_dec.csv")
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "a_dec.csv").read_bytes() == (tmp_path / "b_dec.csv").read_bytes()

    def test_trace_csv_shape(self, tmp_path: Path) -> None:
        trace = run_scenario(crossing_config(max_steps=2))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario_id,frame,agent_id,kind,x,y"
        assert len(lines) == 1 + len(trace.rows)
        first = lines[1].split(",")
        assert first[0] == "crossing"
        assert first[3] in ("ped", "car")
        # Floats are written exactly: parsing restores the bit pattern.
        assert float(first[4]) == trace.rows[0].x
        assert float(first[5]) == trace.rows[0].y

    def test_decisions_csv_shape(self, tmp_path: Path) -> None:
        trace = run_scenario(crossing_config(max_steps=2))
        path = tmp_path / "dec.csv"
        write_decisions_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario_id,step,conflict_id,agent_id,action"
        assert len(lines) == 1 + len(trace.decisions)
        actions = {line.split(",")[4] for line in lines[1:]}
        assert actions <= {"continue", "decelerate", "deviate"}

    def test_features_csv_shape(self, tmp_path: Path) -> None:
        trace = run_scenario(crossing_config(max_steps=2))
        path = tmp_path / "feat.csv"
        write_features_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "scenario_id,step,conflict_id,agent_id,kind,role,"
            "own_speed,competitor_speed,noai,car_stopped,car_following,"
            "angle,car_followed,min_dist,giveway_nr,"
            "pedestrian_min_dist,car_min_dist,action"
        )
        assert len(lines) == 1 + len(trace.decisions)
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[4] in ("ped", "car")
            assert cells[5] in ("leader", "follower")
            assert cells[-1] in ("continue", "decelerate", "deviate")


# ---------------------------------------------------------------------------
# One record per agent-step
# ---------------------------------------------------------------------------


class RowRecording(Simulation):
    """A simulation that also records each frame's TraceRows on its own,
    as the oracle of the trace's records: the two floats of each agent's
    position when the frame is recorded, and the mode the step assigned
    it (ARRIVED for an agent dropped that step). It keeps each recorded
    position object too."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.expected: list[TraceRow] = []
        self.held: list[Vec2] = []

    def _spawn_due(self) -> None:
        super()._spawn_due()
        # The frame: every agent present once this step's agents spawned.
        self._frame = list(self.world.agents.values())
        self._dropped = set(self._pending_despawn)

    def _assign_modes(self, columns):
        assignments = super()._assign_modes(columns)
        for a in self._frame:
            mode = Mode.ARRIVED if a.id in self._dropped else assignments[a.id][0]
            self.expected.append(TraceRow(self.world.step, a.id, a.kind, a.position.x, a.position.y, mode))
            self.held.append(a.position)
        return assignments


@st.composite
def random_crowds(draw) -> tuple[Scenario, str, str, int]:
    """A crowd of up to 30 pedestrians and 8 cars with random starts,
    goals, speeds and entry steps in a 50 m square, with a scene, a
    regime and a step count. Some agents arrive within the run, and the
    larger crowds take the screened paths."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_peds, n_cars = draw(st.integers(0, 30)), draw(st.integers(0, 8))
    entries = []
    for i in range(n_peds + n_cars):
        is_car = i >= n_peds
        start = Vec2(rng.uniform(-25.0, 25.0), rng.uniform(-25.0, 25.0))
        goal = start + Vec2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        speed = rng.uniform(3.0, 6.0) if is_car else rng.uniform(0.8, 1.6)
        entries.append(AgentEntry(
            f"{'c' if is_car else 'p'}{i:02d}", AgentKind.CAR if is_car else AgentKind.PEDESTRIAN,
            rng.randrange(0, 5), start, (goal - start).normalized() * speed, goal,
            speed, speed * 1.3, 2.0 if is_car else 0.5,
        ))
    scene_name = draw(st.sampled_from(["bundled", "road"]))
    return Scenario("random", entries), scene_name, draw(st.sampled_from(["hbs", "dut"])), draw(st.integers(1, 40))


class TestTraceRecords:
    @given(random_crowds())
    @settings(max_examples=30, deadline=None)
    def test_rows_are_the_rows_recorded_from_the_agents(self, crowd) -> None:
        scenario, scene_name, regime, steps = crowd
        scene = load_scene(BUNDLED_SCENE) if scene_name == "bundled" else ROAD_SCENE
        sim = RowRecording(SimulationConfig(
            scene=scene, scenario=scenario, params=ParameterSet.defaults(regime), max_steps=steps,
        ))
        trace = sim.run()
        rows = trace.rows
        assert rows == sim.expected
        # Field by field and bit for bit: 0.0 == -0.0, but not in hex.
        for got, want in zip(rows, sim.expected):
            assert [type(v) for v in got] == [type(v) for v in want]
            assert (got.x.hex(), got.y.hex()) == (want.x.hex(), want.y.hex())
        # Each record holds the agent's own position object, and the
        # scorer's map hands back those objects.
        assert len(trace.records) == len(sim.held)
        assert all(r[3] is p for r, p in zip(trace.records, sim.held))
        positions = trace_positions(trace)
        assert all(positions[aid][step] is p for step, aid, _, p, _ in trace.records)
        assert sum(map(len, positions.values())) == len(trace.records)

    @given(st.lists(st.tuples(
        st.integers(0, 5), st.sampled_from(["a", "b", "c"]), st.sampled_from(list(AgentKind)),
        st.floats(allow_nan=False), st.floats(allow_nan=False), st.sampled_from(list(Mode)),
    ), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_rows_view_any_trace_bit_for_bit(self, fields) -> None:
        records = [(step, aid, kind, Vec2(x, y), mode) for step, aid, kind, x, y, mode in fields]
        trace = SimulationTrace("s", records=records)
        assert [tuple(r) for r in trace.rows] == fields
        assert [(r.x.hex(), r.y.hex()) for r in trace.rows] == [(x.hex(), y.hex()) for _, _, _, x, y, _ in fields]
        # The view is made afresh: changing it leaves the records as they are.
        trace.rows.clear()
        assert len(trace.records) == len(fields)
        # The last record of an agent in a step is the one scored.
        last = {(aid, step): p for step, aid, _, p, _ in records}
        positions = trace_positions(trace)
        assert {(aid, step): p for aid, track in positions.items() for step, p in track.items()} == last
        assert all(positions[aid][step] is p for (aid, step), p in last.items())

    def test_only_the_rows_view_builds_trace_rows(self) -> None:
        assert calls_of("TraceRow") == {("engine", "SimulationTrace.rows", "")}


# ---------------------------------------------------------------------------
# Screened pair passes
# ---------------------------------------------------------------------------


def two_way_crowd(seed: int = 0, n_peds: int = 32, n_cars: int = 8) -> Scenario:
    """Pedestrians crossing S<->N over x in [-25, 25] and cars driving
    W<->E near y = 0 from x = -38 to 38, spawned over the first steps."""
    rng = random.Random(seed)
    entries = []
    for i in range(n_peds):
        sign = 1.0 if i % 2 else -1.0
        x = rng.uniform(-25.0, 25.0)
        speed = rng.uniform(1.0, 1.5)
        entries.append(AgentEntry(
            f"p{i:02d}", AgentKind.PEDESTRIAN, rng.randrange(0, 20), Vec2(x, -24.0 * sign),
            Vec2(0.0, speed * sign), Vec2(x, 24.0 * sign), speed, 2.0, 0.5,
        ))
    for i in range(n_cars):
        sign = 1.0 if i % 2 else -1.0
        y = 3.0 * sign + rng.uniform(-0.5, 0.5)
        speed = rng.uniform(4.0, 6.0)
        entries.append(AgentEntry(
            f"c{i:02d}", AgentKind.CAR, rng.randrange(0, 30), Vec2(-38.0 * sign, y),
            Vec2(speed * sign, 0.0), Vec2(38.0 * sign, y), speed, 8.0, 2.0,
        ))
    return Scenario("two_way", entries)


def _box(x0: float, y0: float, x1: float, y1: float) -> tuple[Vec2, ...]:
    return (Vec2(x0, y0), Vec2(x1, y0), Vec2(x1, y1), Vec2(x0, y1))


BUNDLED_SCENE = Path(__file__).resolve().parents[1] / "data" / "scene.json"
# A central intersection with a road section on each side of it, where
# the cars' lanes meet the pedestrians' crossings.
ROAD_SCENE = Scene(
    intersection_zones=(_box(-10, -10, 10, 10),),
    road_zones=(_box(-40, -8, -10, 8), _box(10, -8, 40, 8)),
    bounds=Rect(-60, -60, 60, 60),
)


class TestScreenedPasses:
    @pytest.mark.parametrize("scene_name", ["bundled", "road"])
    @pytest.mark.parametrize("regime", ["hbs", "dut"])
    def test_screened_and_all_pairs_runs_match(self, monkeypatch, scene_name, regime) -> None:
        scene = load_scene(BUNDLED_SCENE) if scene_name == "bundled" else ROAD_SCENE
        road_scans = []
        crossing = conflicts.segments_intersect

        def counting(*segments):
            road_scans.append(segments)
            return crossing(*segments)

        monkeypatch.setattr(conflicts, "segments_intersect", counting)
        traces = []
        for guard in (0, 10**9):  # screen recognition, then test all pairs
            monkeypatch.setattr(scene_mod, "RECOGNITION_SCALAR_MAX_PAIRS", guard)
            config = SimulationConfig(
                scene=scene, scenario=two_way_crowd(), params=ParameterSet.defaults(regime),
                max_steps=60,
            )
            traces.append(run_scenario(config))
        screened, everyone = traces
        assert screened.rows == everyone.rows
        assert screened.decisions == everyone.decisions
        assert screened.conflicts == everyone.conflicts
        assert everyone.decisions
        # The road scene reaches recognition's road-section branch.
        assert bool(road_scans) is (scene_name == "road")


# ---------------------------------------------------------------------------
# Road-zone merges in a crowd
# ---------------------------------------------------------------------------


class TestRoadZoneCrowds:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("regime", ["hbs", "dut"])
    def test_merges_never_re_engage_a_pair(self, monkeypatch, seed, regime) -> None:
        # A two-way crowd on a square that is all road zone: cars merge
        # into each other's games and dissolve them, yet no new game
        # pairs a car with a pedestrian it was engaged with when the
        # step began.
        dissolved: list[int] = []
        recognize = conflicts.recognize_conflicts

        def recording(*args, **kwargs):
            outcome = recognize(*args, **kwargs)
            dissolved.extend(outcome.dissolved_ids)
            return outcome

        monkeypatch.setattr(conflicts, "recognize_conflicts", recording)
        config = SimulationConfig(
            scene=open_square_scene(zone="road"), scenario=two_way_crowd(seed),
            params=ParameterSet.defaults(regime), max_steps=40,
        )
        peds = {e.id for e in config.scenario.entries if e.kind is AgentKind.PEDESTRIAN}
        sim = Simulation(config)
        for _ in range(config.max_steps):
            engaged = {
                (a, b)
                for r in active_games(sim)
                for a in r.conflict.participants()
                for b in r.conflict.participants()
            }
            seen = len(sim.trace.conflicts)
            sim.step()
            for conflict in sim.trace.conflicts[seen:]:
                for user in peds.intersection(conflict.competitive_users):
                    assert (conflict.anchor_car, user) not in engaged
        assert dissolved

    @pytest.mark.parametrize("regime", ["hbs", "dut"])
    def test_features_csv_lines_match_decisions_csv(self, tmp_path, regime) -> None:
        # Both files are written from the same decision rows: line for
        # line, they name the same step, conflict, agent and action.
        config = SimulationConfig(
            scene=open_square_scene(zone="road"), scenario=two_way_crowd(0),
            params=ParameterSet.defaults(regime), max_steps=40,
        )
        trace = run_scenario(config)
        write_decisions_csv(trace, tmp_path / "decisions.csv")
        write_features_csv(trace, tmp_path / "features.csv")
        decisions = (tmp_path / "decisions.csv").read_text().splitlines()
        features = [line.split(",") for line in (tmp_path / "features.csv").read_text().splitlines()]
        shared = ("scenario_id", "step", "conflict_id", "agent_id", "action")
        columns = [features[0].index(c) for c in shared]
        assert [",".join(row[c] for c in columns) for row in features] == decisions
        assert len(decisions) > 10

    # sha256 of the outputs of a crowd whose games grow to 14
    # followers, recorded when the builder still filled the leader's
    # payoff at every joint follower profile; building only the
    # best-response entries must not change them.
    PINNED = {
        "trace.csv": "855cf4063bbf5d49bd276f681f9396b0f646a33b70670dd88478af9b3c6f817b",
        "decisions.csv": "49c160a020e8cc591df4ff6385d3a8d86e07ba2c886c8f3777f0d805ec721eb2",
        "features.csv": "58ce3887b8dddbaf79d049b3fdd82ed491bca5adbd9d6814f2f6740b18472576",
    }

    def test_crowd_outputs_match_the_pinned_digests(self, tmp_path) -> None:
        config = SimulationConfig(
            scene=open_square_scene(zone="road"), scenario=two_way_crowd(3),
            params=ParameterSet.defaults("hbs"), max_steps=60,
        )
        assert output_digests(config, tmp_path) == self.PINNED

    # sha256 of the outputs of a smaller crowd, recorded when each step
    # still replaced every agent with a moved copy; moving the agents in
    # place must not change them.
    PINNED_SMALL = {
        "hbs": {
            "trace.csv": "7eb148ed4d6343204c23bb6c34a03dbf3ac876493c59a0c80e31e6ed11d1f16a",
            "decisions.csv": "8cba351cba2cabde0f561fde1081d505b77be5420e92e279812a0de967b00c05",
            "features.csv": "2625a77bcac1453ef3e71c2a975fd0ddc5b3c622946c79f51343b63e71272d4f",
        },
        "dut": {
            "trace.csv": "0386374d980c4954b1eb0ad4c333b822c47839abb8e83125733033fce4a2d3f5",
            "decisions.csv": "0ec9321f454dccc4a98c38ec34e35c975ab4d0201541229f46a34b02310e01d3",
            "features.csv": "4768fceab7f00e9ba7dd2ea103d7c50bb7679e38d5009a58299c9117944d53ca",
        },
    }

    @pytest.mark.parametrize("regime", ["hbs", "dut"])
    def test_small_crowd_outputs_match_the_pinned_digests(self, tmp_path, regime) -> None:
        config = SimulationConfig(
            scene=open_square_scene(zone="road"), scenario=two_way_crowd(0, 16, 6),
            params=ParameterSet.defaults(regime), max_steps=60,
        )
        assert output_digests(config, tmp_path) == self.PINNED_SMALL[regime]

    # sha256 of the outputs of a 160-agent crowd on a 100 m road square,
    # recorded while recognition still rebuilt the engagements, partner
    # sets and game counts from the active games at every step; keeping
    # them across steps must not change them.
    PINNED_LARGE = {
        "hbs": {
            "trace.csv": "9abd6d2de15aa77756cb2641cd99a64ae4eba5af12fa469fb542cba8b628557d",
            "decisions.csv": "b88ea22b6f5b494c1313dc3cac3921dc5325a852ca164f25ceae1c3b83afe1d8",
            "features.csv": "b17f66f1712b3e728723b1f964aa83e49e25edc31297bac254914f44c8e3fe89",
        },
        "dut": {
            "trace.csv": "e369310c96698992d0a028474fd9727e1888e46fa053071b86d115b238110a28",
            "decisions.csv": "e74ded6179c8d3055d3b626613ed2d7130c215bcbefacd7b66d72220c830fdc1",
            "features.csv": "005c6b28f09912db3e89aafde605fe8a4d44a3908c0ab33e9f67f807d352e3e9",
        },
    }

    @pytest.mark.parametrize("regime", ["hbs", "dut"])
    def test_large_crowd_outputs_match_the_pinned_digests(self, tmp_path, regime) -> None:
        config = SimulationConfig(
            scene=open_square_scene(half=50, zone="road"), scenario=two_way_crowd(0, 128, 32),
            params=ParameterSet.defaults(regime), max_steps=60,
        )
        assert output_digests(config, tmp_path) == self.PINNED_LARGE[regime]


class TestIntersectionZoneCrowds:
    # sha256 of the outputs of a 64-agent crowd on a 100 m square that is
    # all intersection zone, recorded while each force-mode pedestrian's
    # repulsion total was a Vec2 and each car scanned every pedestrian
    # for its stopping corridor; passing the totals on as floats and
    # deciding the corridors from the recognition screen's products
    # must not change them.
    PINNED = {
        "hbs": {
            "trace.csv": "d880a6bcc2b0b66300df707997c8f6da83435c31b590f8ab0c5ddf066476b91f",
            "decisions.csv": "1f6b997416d599f10849d3cf97605764c2431e09883cce5c5071894885b3200f",
            "features.csv": "7f821990545a565bf2d074393c3c8ed1d9f522b8cef4f9d9fccd28523ddbf80b",
        },
        "dut": {
            "trace.csv": "8e3da7dc982d0b14c657bbace5dab54e72d01b17fc4d48cbffea631f43218faf",
            "decisions.csv": "33fb21810622b35d4dede5f686121d5af8c8a2fbffe7ed864cc39ecb6ede746d",
            "features.csv": "6e803afe478f9ee5a0d97bb27cc48649a19ea9ceb82c66a661a42e3f0f24a9cd",
        },
    }

    @pytest.mark.parametrize("regime", ["hbs", "dut"])
    def test_crowd_outputs_match_the_pinned_digests(self, monkeypatch, tmp_path, regime) -> None:
        grids, stops = [], []
        grid, stopping = forces._agent_repulsion_grid, forces.stopping_lists

        def counting(*args):
            grids.append(len(args[0]))
            return grid(*args)

        def recording(columns, params):
            lists = stopping(columns, params)
            stops.extend(p.id for ps in lists for p in ps)
            return lists

        monkeypatch.setattr(forces, "_agent_repulsion_grid", counting)
        monkeypatch.setattr(forces, "stopping_lists", recording)
        config = SimulationConfig(
            scene=open_square_scene(half=50), scenario=two_way_crowd(0, 56, 8),
            params=ParameterSet.defaults(regime), max_steps=60,
        )
        assert output_digests(config, tmp_path) == self.PINNED[regime]
        # The run reaches the repulsion grid, and under hbs cars brake
        # for pedestrians in corridors that the screen's products decide.
        assert max(grids) > 40
        assert bool(stops) is (regime == "hbs")


# ---------------------------------------------------------------------------
# One owner for the step's snapshot
# ---------------------------------------------------------------------------


def calls_of(name: str) -> set[tuple[str, str, str]]:
    """(module, enclosing function, guarding condition) of every
    `name(...)` call in the package's source."""
    found = set()

    def visit(node: ast.AST, module: str, where: str, guard: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, f"{where}.{child.name}".lstrip("."), "")
                continue
            if isinstance(child, ast.If):
                visit(child, module, where, ast.unparse(child.test))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                    found.add((module, where, guard))
            visit(child, module, where, guard)

    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", "")
    return found


class TestSceneIndex:
    def test_only_the_scene_builds_an_obstacle_index(self) -> None:
        """The scene owns its obstacle index: planning and the force
        pass read `Scene.obstacle_index`, and nothing else builds one."""
        assert calls_of("ObstacleIndex") == {("scene", "Scene.obstacle_index", "")}


class TestStepSnapshot:
    def test_the_step_and_a_recognition_given_no_snapshot_alone_take_one(self) -> None:
        (recognition,) = [c for c in calls_of("AgentColumns") if c[0] == "conflicts"]
        assert calls_of("AgentColumns") == {("engine", "Simulation.step", ""), recognition}
        assert recognition[1] == "recognize_conflicts"
        assert recognition[2].startswith("columns is None or ")

    @pytest.mark.parametrize("regime", ["hbs", "dut"])
    def test_one_snapshot_and_at_most_one_pair_table_per_step(self, monkeypatch, regime) -> None:
        config = SimulationConfig(
            scene=open_square_scene(half=50), scenario=two_way_crowd(0, 56, 8),
            params=ParameterSet.defaults(regime), max_steps=60,
        )
        sim = Simulation(config)
        snapshots, tables = [], []

        class Counting(AgentColumns):
            def __init__(self, *args) -> None:
                super().__init__(*args)
                snapshots.append(sim.world.step)

            @cached_property
            def car_pairs(self):
                tables.append(sim.world.step)
                return AgentColumns.car_pairs.func(self)

        monkeypatch.setattr(engine, "AgentColumns", Counting)
        monkeypatch.setattr(conflicts, "AgentColumns", Counting)
        for _ in range(config.max_steps):
            sim.step()
        assert snapshots == list(range(config.max_steps))
        # The recognition screen runs on most steps of this crowd, and
        # under hbs the stopping test reads the same table.
        assert len(tables) > config.max_steps // 2
        assert len(set(tables)) == len(tables)


def output_digests(config: SimulationConfig, out: Path) -> dict[str, str]:
    """sha256 of each CSV a run of `config` writes."""
    trace = run_scenario(config)
    write_trace_csv(trace, out / "trace.csv")
    write_decisions_csv(trace, out / "decisions.csv")
    write_features_csv(trace, out / "features.csv")
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("trace.csv", "decisions.csv", "features.csv")
    }


# ---------------------------------------------------------------------------
# The conflict index kept across steps
# ---------------------------------------------------------------------------


def steady_crowd(seed: int, n_peds: int = 50, n_cars: int = 8, steps: int = 60) -> Scenario:
    """A steady two-way crowd on the bundled square, in the manner of
    the benchmark's crowd: pedestrians cross S<->N and cars W<->E; the
    given numbers are spread along their routes at step 0, and as many
    again spawn at their route's start over the run."""
    rng = random.Random(seed)
    entries = []
    for kind, n, prefix in ((AgentKind.PEDESTRIAN, n_peds, "p"), (AgentKind.CAR, n_cars, "c")):
        walking = kind is AgentKind.PEDESTRIAN
        for i in range(2 * n):
            sign = 1.0 if i % 2 else -1.0
            lateral = rng.uniform(-25.0, 25.0)
            now = i < n
            along = sign * (-30.0 + (rng.uniform(0.0, 54.0) if now else 0.0))
            speed = rng.uniform(1.1, 1.5) if walking else rng.uniform(3.0, 5.0)
            pos = Vec2(lateral, along) if walking else Vec2(along, lateral)
            goal = Vec2(lateral, 30.0 * sign) if walking else Vec2(30.0 * sign, lateral)
            vel = Vec2(0.0, speed * sign) if walking else Vec2(speed * sign, 0.0)
            entries.append(AgentEntry(
                f"{prefix}{i:03d}", kind, 0 if now else rng.randrange(1, steps), pos, vel, goal,
                speed, speed * (1.3 if walking else 1.1), 0.5 if walking else 2.0,
            ))
    return Scenario(f"steady{seed}", entries)


def rederived_index(sim: Simulation, ended: Collection[int]) -> dict:
    """What the kept index must hold, derived afresh: its games are the
    conflicts of the run's trace less the `ended` ones, in creation
    order, each with its members' actions as the decisions recorded
    them; its other maps follow from those games and the present
    agents."""
    actions: dict[int, list[tuple[str, Action]]] = {}
    for d in sim.trace.decisions:
        actions.setdefault(d.conflict_id, []).append((d.agent_id, d.action))
    active = [c for c in sim.trace.conflicts if c.id not in ended]
    games: dict[str, int] = {}
    for conflict in active:
        for aid in set(conflict.participants()):
            games[aid] = games.get(aid, 0) + 1
    return {
        "runtimes": [(c.id, c, actions[c.id]) for c in active],
        # Who a game binds depends on the games before it: read its own record.
        "bound": {aid: r.conflict.id for r in sim.world.conflict_index.by_id.values() for aid in r.binds},
        "games": games,
        "partners": conflicts.partner_sets(active, sim.world.agents),
    }


def kept_index(sim: Simulation) -> dict:
    index = sim.world.conflict_index
    # The bound map names the very runtimes in play.
    assert all(index.by_id[r.conflict.id] is r for r in index.bound.values())
    return {
        "runtimes": [(cid, r.conflict, list(r.actions.items())) for cid, r in index.by_id.items()],
        "bound": {aid: r.conflict.id for aid, r in index.bound.items()},
        "games": dict(index.games),
        "partners": index.partners(sim.world.agents),
    }


def recording_retirements(monkeypatch, sim: Simulation) -> list[int]:
    """Patch the simulation's retirement test so that it records the id
    of every game it finds out of play; returns that list."""
    retired: list[int] = []
    in_play = sim._in_play

    def recorded(runtime) -> bool:
        if in_play(runtime):
            return True
        retired.append(runtime.conflict.id)
        return False

    monkeypatch.setattr(sim, "_in_play", recorded)
    return retired


def checking_recognition(monkeypatch) -> list[int]:
    """Patch recognition so that every pass checks the partner map it is
    handed against a fresh derivation and leaves it unchanged; returns
    the list the dissolved ids are collected in."""
    dissolved: list[int] = []
    recognize = conflicts.recognize_conflicts

    def checked(cars, peds, *args, **kwargs):
        given = kwargs["partners"]
        ids = [a.id for a in (*cars, *peds)]
        assert given == conflicts.partner_sets(kwargs["active_conflicts"], ids)
        before = {aid: set(members) for aid, members in given.items()}
        outcome = recognize(cars, peds, *args, **kwargs)
        assert given == before
        dissolved.extend(outcome.dissolved_ids)
        return outcome

    monkeypatch.setattr(conflicts, "recognize_conflicts", checked)
    return dissolved


class TestConflictIndex:
    @pytest.mark.parametrize("scene_name", ["bundled", "open_road", "road"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("regime", ["hbs", "dut"])
    def test_kept_index_equals_a_fresh_derivation_at_every_step(
        self, monkeypatch, scene_name, seed, regime
    ) -> None:
        dissolved = checking_recognition(monkeypatch)
        if scene_name == "bundled":
            scene, scenario = load_scene(BUNDLED_SCENE), steady_crowd(seed)
        else:
            scene = open_square_scene(zone="road") if scene_name == "open_road" else ROAD_SCENE
            scenario = two_way_crowd(seed)
        config = SimulationConfig(
            scene=scene, scenario=scenario, params=ParameterSet.defaults(regime), max_steps=60,
        )
        sim = Simulation(config)
        retired = recording_retirements(monkeypatch, sim)
        for _ in range(config.max_steps):
            assert kept_index(sim) == rederived_index(sim, {*dissolved, *retired})
            sim.step()
            assert kept_index(sim) == rederived_index(sim, {*dissolved, *retired})
        # The runs reach every kind of change to the games: road-zone
        # merges dissolve games only where there are road zones.
        assert sim.trace.conflicts and retired
        assert bool(dissolved) is (scene_name != "bundled")

    def test_direct_game_calls_keep_the_index(self, monkeypatch) -> None:
        # The calls the engagement tests above make by hand: a later game
        # over a bound pedestrian, then a retirement by timeout only.
        monkeypatch.setattr(engine, "CONFLICT_TIMEOUT_STEPS", 1)
        config = crossing_config(max_steps=3)
        config.scenario.entries.append(
            car_entry("c9", position=Vec2(20.0, 20.0), goal=Vec2(-20.0, 20.0), velocity=Vec2(-2.0, 0.0))
        )
        sim = Simulation(config)
        retired = recording_retirements(monkeypatch, sim)
        assert kept_index(sim) == rederived_index(sim, retired)
        sim.step()
        assert kept_index(sim) == rederived_index(sim, retired)
        first_id = sim.trace.conflicts[0].id
        sim._create_game(Conflict(
            id=99, conflict_class=ConflictClass.PEDESTRIANS_TO_CAR, anchor_car="c9",
            competitive_users=("p1",), created_at_step=sim.world.step,
        ))
        kept = kept_index(sim)
        assert kept == rederived_index(sim, retired)
        assert kept["games"] == {"c1": 1, "p1": 2, "c9": 1}
        assert kept["bound"] == {"c1": first_id, "p1": first_id, "c9": 99}
        monkeypatch.setattr(sim, "_action_completed", lambda agent, action, partner: False)
        sim._retire_conflicts()
        kept = kept_index(sim)
        assert kept == rederived_index(sim, retired)
        assert kept["games"] == {"p1": 1, "c9": 1}
        assert kept["bound"] == {"c9": 99}
        assert retired == [first_id]
        sim.step()
        assert kept_index(sim) == rederived_index(sim, retired)

    def test_keeping_no_game_empties_the_index(self) -> None:
        sim = Simulation(crossing_config(max_steps=2))
        sim.step()
        index = sim.world.conflict_index
        assert set(index.bound) == {"c1", "p1"}
        sim._keep_games(lambda runtime: False)
        assert (index.by_id, index.bound, index.games) == ({}, {}, {})
