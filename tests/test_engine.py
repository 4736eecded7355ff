"""Simulation-loop tests: scenario files, agent lifecycle, mode
priorities, conflict lifecycle, determinism, and trace output."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from helpers import open_square_scene
from sharedspace import conflicts, forces
from sharedspace.conflicts import Conflict, ConflictClass
from sharedspace.engine import (
    AgentEntry,
    Scenario,
    ScenarioError,
    ScenarioRejectedError,
    Simulation,
    SimulationConfig,
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
from sharedspace.scene import AgentKind, Rect, Scene, load_scene


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
        with pytest.raises(ScenarioError, match=f"bad {key}"):
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

    def test_unreachable_goal_rejected_at_construction(self) -> None:
        box = (Vec2(-2.0, -2.0), Vec2(2.0, -2.0), Vec2(2.0, 2.0), Vec2(-2.0, 2.0))
        scene = Scene(
            obstacles=(box,),
            intersection_zones=(),
            road_zones=(),
            bounds=Rect(-30.0, -30.0, 30.0, 30.0),
            meters_per_unit=1.0,
        )
        scenario = Scenario("s", [ped_entry("p1", position=Vec2(-10.0, 0.0), goal=Vec2(0.0, 0.0))])
        with pytest.raises(ScenarioRejectedError, match="p1"):
            Simulation(SimulationConfig(scene=scene, scenario=scenario))


class TestPlannedWaypoints:
    def test_given_waypoints_give_the_same_trace_and_stay_unchanged(self) -> None:
        box = (Vec2(-2.0, -2.0), Vec2(2.0, -2.0), Vec2(2.0, 2.0), Vec2(-2.0, 2.0))
        ring = (Vec2(-30.0, -30.0), Vec2(30.0, -30.0), Vec2(30.0, 30.0), Vec2(-30.0, 30.0))
        scene = Scene(
            obstacles=(box,),
            intersection_zones=(ring,),
            road_zones=(),
            bounds=Rect(-40.0, -40.0, 40.0, 40.0),
            meters_per_unit=1.0,
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


# ---------------------------------------------------------------------------
# Mode assignment
# ---------------------------------------------------------------------------


def modes_at_step(trace, step: int) -> dict[str, str]:
    return {r.agent_id: r.mode for r in trace.rows if r.step == step}


class TestModes:
    def test_steps_without_force_mode_agents(self, monkeypatch) -> None:
        # Step 0 holds no agent; at step 1 both agents are in a game.
        sums = []
        totals = forces.agent_repulsion_totals

        def recording(targets, agents, params, *columns):
            sums.append(([t.id for t in targets], [a.id for a in agents]))
            return totals(targets, agents, params, *columns)

        monkeypatch.setattr(forces, "agent_repulsion_totals", recording)
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

    def test_stalemate_expires_after_the_timeout(self) -> None:
        # Two near-stationary agents keep every completion condition
        # false, so only the timeout can retire the conflict.
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
            conflict_timeout=5,
            max_steps=8,
        )
        sim = Simulation(config)
        for _ in range(5):
            sim.step()
        assert len(sim.world.active_conflicts) == 1
        assert sim.world.active_conflicts[0].conflict.created_at_step == 0
        sim.step()  # age reaches the timeout at step 5
        assert sim.world.active_conflicts == []
        sim.step()  # the unresolved standoff re-engages afresh
        assert len(sim.world.active_conflicts) == 1
        assert sim.world.active_conflicts[0].conflict.created_at_step == 6
        assert len(sim.trace.conflicts) == 2

    def test_first_conflict_keeps_the_binding(self) -> None:
        config = crossing_config(max_steps=2)
        config.scenario.entries.append(
            car_entry("c9", position=Vec2(20.0, 20.0), goal=Vec2(-20.0, 20.0), velocity=Vec2(-2.0, 0.0))
        )
        sim = Simulation(config)
        sim.step()
        first_id = sim.trace.conflicts[0].id
        assert {aid: r.conflict.id for aid, r in sim._binding.items()} == {
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
        assert sim._binding["p1"].conflict.id == first_id
        assert sim._binding["c9"].conflict.id == 99
        assert sim._binding["p1"] is sim.world.active_conflicts[0]

    def test_retiring_the_bound_game_unbinds_despite_a_later_game(self, monkeypatch) -> None:
        config = crossing_config(max_steps=3, conflict_timeout=1)
        config.scenario.entries.append(
            car_entry("c9", position=Vec2(20.0, 20.0), goal=Vec2(-20.0, 20.0), velocity=Vec2(-2.0, 0.0))
        )
        sim = Simulation(config)
        sim.step()
        first = sim._binding["p1"]
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
        assert [r.conflict.id for r in sim.world.active_conflicts] == [99]
        assert first not in sim.world.active_conflicts
        # p1 still plays in game 99 but was never bound to it.
        assert {aid: r.conflict.id for aid, r in sim._binding.items()} == {"c9": 99}

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
        absorbed = sim._binding["c2"]
        assert absorbed.conflict.participants() == ("c2", "p1")
        assert sim._binding["p1"] is absorbed
        sim.step()
        (merged,) = sim.world.active_conflicts
        assert merged.conflict.conflict_class is ConflictClass.PEDESTRIANS_TO_CARS
        assert merged.conflict.participants() == ("c1", "p1", "c2")
        # Without the unbinding, c2 and p1 would still act on the
        # dissolved game.
        assert sim._binding == {"c1": merged, "p1": merged, "c2": merged}
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
            monkeypatch.setattr(conflicts, "RECOGNITION_SCALAR_MAX_PAIRS", guard)
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
            scene=open_square_scene(zone="road"), scenario=two_way_crowd(seed, n_peds=16, n_cars=6),
            params=ParameterSet.defaults(regime), max_steps=40,
        )
        peds = {e.id for e in config.scenario.entries if e.kind is AgentKind.PEDESTRIAN}
        sim = Simulation(config)
        for _ in range(config.max_steps):
            engaged = {
                (a, b)
                for r in sim.world.active_conflicts
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
            scene=open_square_scene(zone="road"), scenario=two_way_crowd(0, n_peds=16, n_cars=6),
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
