"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and writes plain input
files; the program under test only ever sees those files. Equal seeds
give byte-identical files. Generation is never timed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from sharedspace.calibrate import scenario_from_records
from sharedspace.dataio import TrajectoryRecord, load_trajectories, write_trajectories
from sharedspace.engine import (
    AgentEntry,
    Scenario,
    ScenarioRejectedError,
    SimulationConfig,
    run_scenario,
    save_scenario,
)
from sharedspace.geometry import Vec2
from sharedspace.params import ParameterSet
from sharedspace.scene import AgentKind, Scene, load_scene, save_scene

HALF = 30.0  # half-width of the bundled shared square (its intersection zone)

# crowd: agents present at once, and the run length in steps
CROWD_STEPS = 40
CROWD_PEDS = 50
CROWD_CARS = 6
PED_SPEED = 1.34
CAR_SPEED = (3.0, 5.0)

# obstacles: the bundled scenario whose shape is replayed, and box centres
# laid out for it. The first five sit on its straight routes (the cars'
# y = 0 line and the pedestrian's x = 2 line); the seed jitters every
# centre by up to 0.5 m and draws the box sizes. Slots are spaced so that
# every jittered box keeps 2.5 m from each start and goal and 3 m from
# every other box: the visibility graph, and so the planner's load, varies
# little with the seed.
OBSTACLE_SHAPES = ("car_follow",)
OBSTACLE_SLOTS = (
    (-5.0, 0.0), (9.0, 0.0), (16.0, 0.0), (23.0, 0.0), (2.0, 3.0),
    (-16.0, 8.0), (-16.0, -8.0), (9.0, 9.0), (9.0, -9.0), (20.0, -8.0),
)
OBSTACLE_BOXES = len(OBSTACLE_SLOTS)
OBSTACLE_STEPS = 120

# analysis
ANALYSIS_AGENTS = 200
ANALYSIS_FRAMES = 100
OBSERVATION_ROWS = 4000  # per subject
FEATURE_FIELDS = (
    "own_speed", "competitor_speed", "noai", "car_stopped", "car_following",
    "angle", "car_followed", "min_dist", "giveway_nr",
    "pedestrian_min_dist", "car_min_dist",
)
# True log-odds of each action against `continue`, per unit of each
# feature, by subject; the other features carry no signal.
LOGIT_TRUTH = {
    "car": {
        "decelerate": {"own_speed": 1.0, "competitor_speed": -1.0, "angle": 0.8, "min_dist": -1.2},
    },
    "ped": {
        "decelerate": {"own_speed": -0.8, "min_dist": -1.0},
        "deviate": {"angle": 1.0, "pedestrian_min_dist": -0.8, "competitor_speed": 0.6},
    },
}


def crowd_scenario(seed: int, steps: int = CROWD_STEPS) -> Scenario:
    """A steady two-way crowd on the square: pedestrians cross S<->N and
    cars cross W<->E. Agents present at step 0 are spread along their
    routes and later spawns are evenly spaced in time, so the number of
    agents stays roughly flat over the run. Directions, progress along
    the route and speeds are stratified and only their pairing and the
    lateral positions are drawn, so the load varies little with the
    seed."""
    rng = np.random.default_rng(seed)
    entries: list[AgentEntry] = []

    def add(kind: AgentKind, n_now: int, speed_range: tuple[float, float], max_factor: float,
            diameter: float, prefix: str) -> None:
        mean_speed = sum(speed_range) / 2.0
        crossing_steps = 2.0 * HALF / (mean_speed * 0.5)
        n_later = int(round(n_now * steps / crossing_steps))
        n = n_now + n_later
        spawn_steps = [0] * n_now + [1 + (k * (steps - 1)) // max(n_later, 1) for k in range(n_later)]
        progress = rng.permutation(np.linspace(0.0, 0.9, n_now)).tolist() + [0.0] * n_later
        speeds = rng.permutation(np.linspace(*speed_range, n)).tolist()
        forwards = rng.permutation(np.arange(n) % 2 == 0).tolist()
        for i, step in enumerate(spawn_steps):
            lateral = float(rng.uniform(-HALF + 5.0, HALF - 5.0))
            done, speed = progress[i], speeds[i]
            sign = 1.0 if forwards[i] else -1.0
            along0, along1 = -sign * HALF, sign * HALF
            along = along0 + done * (along1 - along0)
            if kind is AgentKind.PEDESTRIAN:
                pos, goal, vel = Vec2(lateral, along), Vec2(lateral, along1), Vec2(0.0, sign * speed)
            else:
                pos, goal, vel = Vec2(along, lateral), Vec2(along1, lateral), Vec2(sign * speed, 0.0)
            entries.append(AgentEntry(
                f"{prefix}{i:03d}", kind, step, pos, vel, goal, speed, speed * max_factor, diameter,
            ))

    add(AgentKind.PEDESTRIAN, CROWD_PEDS, (PED_SPEED - 0.2, PED_SPEED + 0.2), 1.3, 0.5, "p")
    add(AgentKind.CAR, CROWD_CARS, CAR_SPEED, 1.1, 2.0, "c")
    return Scenario(f"crowd{seed}", entries)


def write_crowd(seed: int, data_dir: Path, out_dir: Path) -> dict[str, Path]:
    """Crowd inputs: the bundled scene and a seeded crowd scenario."""
    scenario_path = out_dir / "crowd.json"
    save_scenario(crowd_scenario(seed), scenario_path)
    return {"scene": data_dir / "scene.json", "scenario": scenario_path}


def _shapes(data_dir: Path) -> list[Scenario]:
    records = load_trajectories(data_dir / "trajectories.csv")
    return [scenario_from_records(sid, records) for sid in OBSTACLE_SHAPES]


def _box(cx: float, cy: float, w: float, h: float) -> list[Vec2]:
    return [Vec2(cx - w, cy - h), Vec2(cx + w, cy - h), Vec2(cx + w, cy + h), Vec2(cx - w, cy + h)]


def obstacle_inputs(seed: int, data_dir: Path) -> tuple[Scene, list[TrajectoryRecord]]:
    """A seeded obstacle scene built on the bundled square, and the
    trajectories of the replayed shapes simulated in it at the `hbs`
    defaults. A layout that leaves a goal unreachable is drawn again."""
    base = load_scene(data_dir / "scene.json")
    shapes = _shapes(data_dir)
    rng = np.random.default_rng(seed)
    params = ParameterSet.defaults("hbs")
    while True:
        jitter = rng.uniform(-0.5, 0.5, size=(OBSTACLE_BOXES, 2))
        sizes = rng.uniform(0.6, 1.2, size=(OBSTACLE_BOXES, 2))
        scene = Scene(
            obstacles=[
                _box(cx + dx, cy + dy, w, h)
                for (cx, cy), (dx, dy), (w, h) in zip(OBSTACLE_SLOTS, jitter.tolist(), sizes.tolist())
            ],
            intersection_zones=base.intersection_zones,
            road_zones=base.road_zones,
            bounds=base.bounds,
        )
        try:
            traces = [
                run_scenario(SimulationConfig(
                    scene=scene, scenario=shape, params=params, max_steps=OBSTACLE_STEPS,
                ))
                for shape in shapes
            ]
        except ScenarioRejectedError:
            continue
        records = [
            TrajectoryRecord(trace.scenario_id, r.step, r.agent_id, r.kind, r.x, r.y)
            for trace in traces
            for r in trace.rows
        ]
        return scene, records


def write_obstacles(seed: int, data_dir: Path, out_dir: Path) -> dict[str, Path]:
    """Obstacle inputs: the scene and trajectories of `obstacle_inputs`."""
    scene, records = obstacle_inputs(seed, data_dir)
    scene_path, traj_path = out_dir / "obstacle_scene.json", out_dir / "obstacle_trajectories.csv"
    save_scene(scene, scene_path)
    write_trajectories(records, traj_path)
    return {"scene": scene_path, "trajectories": traj_path}


def crowd_traces(seed: int) -> tuple[list[TrajectoryRecord], list[TrajectoryRecord]]:
    """A recorded crowd and a simulated one that drifts away from it:
    same agents and frames, positions off by a smooth random walk."""
    rng = np.random.default_rng(seed)
    real, sim = [], []
    for i in range(ANALYSIS_AGENTS):
        kind = AgentKind.CAR if i % 5 == 0 else AgentKind.PEDESTRIAN
        speed = rng.uniform(3.0, 5.0) if kind is AgentKind.CAR else rng.uniform(1.0, 1.6)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        start = rng.uniform(-HALF, HALF, size=2)
        first = int(rng.integers(0, ANALYSIS_FRAMES))
        frames = np.arange(first, first + ANALYSIS_FRAMES)
        t = (frames - first) * 0.5
        xy = start + np.outer(t, speed * np.array([math.cos(heading), math.sin(heading)]))
        xy += rng.normal(0.0, 0.02, size=xy.shape)
        drift = np.cumsum(rng.normal(0.0, 0.05, size=xy.shape), axis=0)
        aid = f"{kind.value}{i:03d}"
        for f, (x, y), (dx, dy) in zip(frames.tolist(), xy.tolist(), drift.tolist()):
            real.append(TrajectoryRecord("crowd", f, aid, kind, x, y))
            sim.append(TrajectoryRecord("crowd", f, aid, kind, x + dx, y + dy))
    return real, sim


def observation_rows(seed: int, subject: str) -> tuple[np.ndarray, list[str]]:
    """Decisions of one subject drawn from the multinomial logit
    LOGIT_TRUTH[subject]: the feature matrix (columns FEATURE_FIELDS)
    and the actions."""
    rng = np.random.default_rng([seed, 0 if subject == "car" else 1])
    n = OBSERVATION_ROWS
    X = np.column_stack([
        rng.normal(0.0, 1.0, n),            # own_speed (standardised)
        rng.normal(0.0, 1.0, n),            # competitor_speed
        rng.integers(0, 4, n),              # noai
        rng.integers(0, 2, n),              # car_stopped
        rng.integers(0, 2, n),              # car_following
        rng.normal(0.0, 1.0, n),            # angle
        rng.integers(0, 2, n),              # car_followed
        rng.normal(0.0, 1.0, n),            # min_dist
        rng.integers(0, 3, n),              # giveway_nr
        rng.normal(0.0, 1.0, n),            # pedestrian_min_dist
        rng.normal(0.0, 1.0, n),            # car_min_dist
    ]).astype(float)
    truth = LOGIT_TRUTH[subject]
    utility = np.column_stack([np.zeros(n)] + [
        X @ np.array([coef.get(name, 0.0) for name in FEATURE_FIELDS]) for coef in truth.values()
    ])
    prob = np.exp(utility - utility.max(axis=1, keepdims=True))
    cumulative = np.cumsum(prob / prob.sum(axis=1, keepdims=True), axis=1)
    choice = (rng.random(n)[:, None] > cumulative).sum(axis=1)
    actions = ["continue", *truth]
    return X, [actions[c] for c in choice.tolist()]


def write_analysis(seed: int, out_dir: Path) -> dict[str, Path]:
    """Analysis inputs: two crowd traces, and an observation table in the
    features.csv schema with car and pedestrian decisions."""
    real, sim = crowd_traces(seed)
    paths = {
        "real": out_dir / "real.csv",
        "sim": out_dir / "sim.csv",
        "observations": out_dir / "observations.csv",
    }
    write_trajectories(real, paths["real"])
    write_trajectories(sim, paths["sim"])
    lines = ["scenario_id,step,conflict_id,agent_id,kind,role," + ",".join(FEATURE_FIELDS) + ",action"]
    for subject, role in (("car", "leader"), ("ped", "follower")):
        X, actions = observation_rows(seed, subject)
        for i, (row, action) in enumerate(zip(X.tolist(), actions)):
            values = ",".join(repr(v) for v in row)
            lines.append(f"obs,{i},{i},{subject[0]}{i:04d},{subject},{role},{values},{action}")
    paths["observations"].write_text("\n".join(lines) + "\n")
    return paths
