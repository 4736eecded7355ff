#!/usr/bin/env python3
"""Regenerate the bundled synthetic dataset under data/.

Runs a handful of hand-staged scenarios on an open square scene and
writes the resulting traces out as if they were observed trajectories,
together with decision annotations taken from the simulated games.
The staging is fixed, so the output is bit-identical across runs,
which makes it a convenient smoke input for the calibration tools.
Calibration does not recover the generating parameters exactly: it
rebuilds each scenario's spawns from the trajectories (goal at the last
observed position, speeds from the observed ones), so at the generating
`hbs` parameters `fitness_sfm` on this data is 2.29 m, not 0, and
decision agreement is 0.9, not 1.

Usage: python3 scripts/make_synthetic_dataset.py [--out-dir data]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from sharedspace.calibrate import trace_decisions
from sharedspace.dataio import (
    DecisionAnnotation,
    TrajectoryRecord,
    write_annotations,
    write_trajectories,
)
from sharedspace.engine import (
    AgentEntry,
    Scenario,
    SimulationConfig,
    run_scenario,
    save_scenario,
)
from sharedspace.geometry import Vec2
from sharedspace.params import ParameterSet, save_parameter_set
from sharedspace.scene import AgentKind, Rect, Scene, save_scene

HALF = 30.0  # half-width of the shared square


def square_scene() -> Scene:
    square = [Vec2(-HALF, -HALF), Vec2(HALF, -HALF), Vec2(HALF, HALF), Vec2(-HALF, HALF)]
    return Scene(
        obstacles=[],
        intersection_zones=[square],
        road_zones=[],
        bounds=Rect(-2 * HALF, -2 * HALF, 2 * HALF, 2 * HALF),
    )


def car(aid: str, pos: Vec2, vel: Vec2, goal: Vec2, desired: float, top: float) -> AgentEntry:
    return AgentEntry(aid, AgentKind.CAR, 0, pos, vel, goal, desired, top, 2.0)


def walker(aid: str, pos: Vec2, vel: Vec2, goal: Vec2, speed: float = 1.2) -> AgentEntry:
    return AgentEntry(aid, AgentKind.PEDESTRIAN, 0, pos, vel, goal, speed, speed, 0.5)


def scenarios() -> list[Scenario]:
    east = Vec2(2.0, 0.0)
    north = Vec2(0.0, 1.2)
    return [
        Scenario("crossing", [
            car("c1", Vec2(-14.0, 0.0), east, Vec2(30.0, 0.0), 2.0, 2.2),
            walker("p1", Vec2(0.0, -8.0), north, Vec2(0.0, 8.0)),
        ]),
        Scenario("giveway", [
            car("c1", Vec2(-6.0, 0.0), Vec2(1.0, 0.0), Vec2(30.0, 0.0), 1.0, 1.2),
            walker("p1", Vec2(0.0, -6.0), north, Vec2(0.0, 8.0)),
        ]),
        Scenario("two_peds", [
            car("c1", Vec2(-14.0, 0.0), east, Vec2(30.0, 0.0), 2.0, 2.2),
            walker("p1", Vec2(1.0, -8.0), north, Vec2(1.0, 8.0)),
            walker("p2", Vec2(-1.0, 7.0), Vec2(0.0, -1.0), Vec2(-1.0, -8.0), 1.0),
        ]),
        Scenario("car_follow", [
            car("c1", Vec2(-10.0, 0.0), east, Vec2(30.0, 0.0), 2.0, 2.2),
            car("c2", Vec2(-18.0, 0.0), east, Vec2(30.0, 0.0), 2.0, 2.2),
            walker("p1", Vec2(2.0, -7.0), north, Vec2(2.0, 8.0)),
        ]),
        Scenario("oncoming_cars", [
            car("c1", Vec2(-14.0, 0.0), Vec2(1.0, 0.0), Vec2(30.0, 0.0), 1.0, 1.2),
            car("c2", Vec2(14.0, 1.5), Vec2(-1.0, 0.0), Vec2(-30.0, 1.5), 1.0, 1.2),
        ]),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="data", help="directory to (re)write")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scene = square_scene()
    params = ParameterSet.defaults("hbs")
    save_scene(scene, out / "scene.json")
    save_parameter_set(params, out / "params_hbs.json")
    save_parameter_set(ParameterSet.defaults("dut"), out / "params_dut.json")

    records: list[TrajectoryRecord] = []
    annotations: list[DecisionAnnotation] = []
    for scenario in scenarios():
        if scenario.scenario_id == "crossing":
            save_scenario(scenario, out / "crossing.json")
        trace = run_scenario(SimulationConfig(
            scene=scene, scenario=scenario, params=params, max_steps=120, seed=0,
        ))
        records.extend(
            TrajectoryRecord(scenario.scenario_id, row.step, row.agent_id,
                             row.kind, row.x, row.y)
            for row in trace.rows
        )
        annotations.extend(
            DecisionAnnotation(scenario.scenario_id, agent_id, ordinal, action)
            for (agent_id, ordinal), action in sorted(trace_decisions(trace).items())
        )
        print(f"{scenario.scenario_id}: {len(trace.rows)} rows, "
              f"{len(trace.conflicts)} conflicts")

    write_trajectories(records, out / "trajectories.csv")
    write_annotations(annotations, out / "annotations.csv")
    print(f"wrote {len(records)} trajectory rows and {len(annotations)} "
          f"annotations to {out}/")


if __name__ == "__main__":
    main()
