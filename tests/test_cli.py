"""Command-line interface: subcommands, exit codes, manifests, reproducibility."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from helpers import count_graph_builds, open_square_scene
from sharedspace import __version__, calibrate, cli
from sharedspace.cli import main
from sharedspace.dataio import FEATURE_ID_COLUMNS, TrajectoryFormatError, parse_action
from sharedspace.engine import AgentEntry, Scenario, load_scenario, save_scenario
from sharedspace.geometry import Vec2
from sharedspace.params import ParameterSet, load_parameter_set, save_parameter_set
from sharedspace.scene import AgentKind, save_scene

DATA = Path(__file__).resolve().parents[1] / "data"
TRACE_HEADER = "scenario_id,frame,agent_id,kind,x,y"
DECISIONS_HEADER = "scenario_id,step,conflict_id,agent_id,action"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_host_recorded(manifest: dict) -> None:
    """The manifest names what decides its outputs' last bits: the
    interpreter, numpy's version, its baseline SIMD set and the
    dispatchable kernels this process runs, and the machine."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    host = manifest["host"]
    assert set(host) == {"python", "numpy", "numpy_simd_baseline", "numpy_simd_dispatched", "machine"}
    assert host["python"] == f"{platform.python_implementation()} {platform.python_version()}"
    assert host["numpy"] == np.__version__
    assert host["machine"] == platform.machine()
    assert host["numpy_simd_baseline"] == list(umath.__cpu_baseline__)
    # Every compiled-in target the CPU runs, in numpy's order.
    dispatched = host["numpy_simd_dispatched"]
    assert dispatched == [name for name in umath.__cpu_dispatch__ if name in dispatched]
    assert {name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)} == set(dispatched)


def write_crossing_inputs(tmp_path: Path) -> tuple[Path, Path]:
    """Scene + scenario files for the canonical car/pedestrian crossing."""
    scene_path = tmp_path / "scene.json"
    save_scene(open_square_scene(), scene_path)
    car = AgentEntry(
        "c1", AgentKind.CAR, 0,
        Vec2(-14.0, 0.0), Vec2(2.0, 0.0), Vec2(30.0, 0.0), 2.0, 2.2, 2.0,
    )
    ped = AgentEntry(
        "p1", AgentKind.PEDESTRIAN, 0,
        Vec2(0.0, -8.0), Vec2(0.0, 1.2), Vec2(0.0, 8.0), 1.2, 1.2, 0.5,
    )
    scenario_path = tmp_path / "crossing.json"
    save_scenario(Scenario("crossing", [car, ped]), scenario_path)
    return scene_path, scenario_path


def write_boxed_scene(tmp_path: Path) -> Path:
    """Open ground with a square obstacle around the origin."""
    path = tmp_path / "boxed.json"
    path.write_text(json.dumps({
        "meters_per_unit": 1.0,
        "bounds": [-30.0, -30.0, 30.0, 30.0],
        "obstacles": [[[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]],
        "intersection_zones": [],
        "road_zones": [],
    }) + "\n")
    return path


def write_detour_records(tmp_path: Path, *tracks: tuple[str, str, list[tuple[int, int]]]) -> Path:
    """A pedestrian and a car whose straight routes cross the box of
    write_boxed_scene, plus any further (id, kind, points) tracks, as
    recorded trajectories."""
    rows = [TRACE_HEADER]
    for agent_id, kind, points in (
        ("p1", "ped", [(-10, 0), (-5, 3), (0, 3.5), (5, 3), (10, 0)]),
        ("c1", "car", [(-16, 0), (-8, -4), (0, -4.5), (8, -4), (16, 0)]),
        *tracks,
    ):
        for f, (x, y) in enumerate(points):
            rows.append(f"s1,{f},{agent_id},{kind},{float(x)!r},{float(y)!r}")
    path = tmp_path / "detours.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def write_walk_records(tmp_path: Path) -> Path:
    """One pedestrian walking a straight line, as recorded trajectories."""
    rows = [TRACE_HEADER]
    for f in range(7):
        rows.append(f"s1,{f},p1,ped,{0.6 * f!r},0.0")
    path = tmp_path / "walk.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def write_logit_observations(tmp_path: Path, extra_ped_row: bool = False) -> Path:
    """Feature rows whose action depends on f0 and f1 but not on noise."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(600, 3))
    eta = X @ np.array([1.5, -1.2, 0.0])
    labels = np.where(rng.random(600) < 1.0 / (1.0 + np.exp(-eta)), "decelerate", "continue")
    rows = ["scenario_id,step,conflict_id,agent_id,kind,role,f0,f1,noise,action"]
    for i in range(600):
        rows.append(
            f"s,{i},0,a{i},car,leader,"
            f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(X[i, 2])!r},{labels[i]}"
        )
    if extra_ped_row:
        rows.append("s,999,0,zz,ped,follower,not_a_number,0.0,0.0,deviate")
    path = tmp_path / "observations.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def write_analysis_inputs(tmp_path: Path) -> dict[str, Path]:
    """Seeded evaluate and select-features inputs: a recorded crowd and a
    drifted copy with dropped frames and shifted starts, and an
    observation table of car and pedestrian decisions drawn from a
    multinomial logit."""
    rng = np.random.default_rng(2024)
    real, sim = [TRACE_HEADER], [TRACE_HEADER]
    for i in range(30):
        kind = "car" if i % 4 == 0 else "ped"
        scenario = f"s{i % 3}"
        speed = rng.uniform(3.0, 5.0) if kind == "car" else rng.uniform(1.0, 1.6)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        x0, y0 = rng.uniform(-20.0, 20.0, size=2).tolist()
        first = int(rng.integers(0, 10))
        for f in range(first, first + 40):
            t = 0.5 * (f - first)
            x = x0 + speed * math.cos(heading) * t + rng.normal(0.0, 0.02)
            y = y0 + speed * math.sin(heading) * t + rng.normal(0.0, 0.02)
            real.append(f"{scenario},{f},a{i:02d},{kind},{x!r},{y!r}")
            # the simulation skips some frames and starts some agents late
            if rng.random() < 0.15 or f < first + i % 5:
                continue
            dx, dy = rng.normal(0.0, 0.1, size=2).tolist()
            sim.append(f"{scenario},{f},a{i:02d},{kind},{x + dx!r},{y + dy!r}")
    # an agent the simulation never saw, and one it saw in one frame only
    real += ["s0,0,ghost,ped,0.0,0.0", "s1,0,solo,car,1.0,2.0", "s1,1,solo,car,2.0,2.0"]
    sim.append("s1,1,solo,car,2.5,2.0")
    paths = {"real": tmp_path / "real.csv", "sim": tmp_path / "sim.csv"}
    paths["real"].write_text("\n".join(real) + "\n")
    paths["sim"].write_text("\n".join(sim) + "\n")
    names = ("own_speed", "min_dist", "angle", "noise")
    truth = {"decelerate": (0.8, -1.2, 0.0, 0.0), "deviate": (-0.6, 0.0, 0.9, 0.0)}
    rows = ["scenario_id,step,conflict_id,agent_id,kind,role," + ",".join(names) + ",action"]
    for subject in ("car", "ped"):
        X = rng.normal(size=(500, len(names)))
        utility = np.column_stack([np.zeros(500)] + [X @ np.array(c) for c in truth.values()])
        prob = np.exp(utility)
        cumulative = np.cumsum(prob / prob.sum(axis=1, keepdims=True), axis=1)
        choice = (rng.random(500)[:, None] > cumulative).sum(axis=1)
        actions = ["continue", *truth]
        for k, (values, c) in enumerate(zip(X.tolist(), choice.tolist())):
            cells = ",".join(repr(v) for v in values)
            rows.append(f"obs,{k},{k},{subject}{k},{subject},leader,{cells},{actions[c]}")
    paths["observations"] = tmp_path / "observations.csv"
    paths["observations"].write_text("\n".join(rows) + "\n")
    return paths


def run_simulate(tmp_path: Path, out_name: str = "run", *extra: str) -> tuple[int, Path]:
    scene_path, scenario_path = write_crossing_inputs(tmp_path)
    out = tmp_path / out_name
    code = main([
        "simulate",
        "--scene", str(scene_path),
        "--scenario", str(scenario_path),
        "--out-dir", str(out),
        *extra,
    ])
    return code, out


# Each command's required flags, with placeholder values.
REQUIRED = {
    "simulate": ["--scene", "s", "--scenario", "x", "--out-dir", "o"],
    "calibrate-sfm": ["--scene", "s", "--trajectories", "t", "--out-dir", "o"],
    "calibrate-game": ["--scene", "s", "--trajectories", "t", "--annotations", "a", "--out-dir", "o"],
    "select-features": ["--observations", "x", "--subject", "car", "--out-dir", "o"],
}


# ---------------------------------------------------------------------------
# Parser basics
# ---------------------------------------------------------------------------


class TestParser:
    def test_no_arguments_is_a_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag_exits_cleanly(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    @pytest.mark.parametrize("dt", ["0", "-0.5", "nan", "inf"])
    @pytest.mark.parametrize(
        "command, required",
        [
            ("simulate", ["--scene", "s", "--scenario", "x", "--out-dir", "o"]),
            ("evaluate", ["--real", "r", "--sim", "s", "--out", "o"]),
            ("calibrate-sfm", ["--scene", "s", "--trajectories", "t", "--out-dir", "o"]),
            ("calibrate-game",
             ["--scene", "s", "--trajectories", "t", "--annotations", "a", "--out-dir", "o"]),
        ],
    )
    def test_dt_must_be_positive_and_finite(self, tmp_path, capsys, command, required, dt) -> None:
        with pytest.raises(SystemExit) as exc:
            main([command, *required, "--dt", dt])
        assert exc.value.code == 2
        assert "argument --dt: must be a positive, finite number" in capsys.readouterr().err
        # A config file's value gets the same check, as a one-line error.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"dt": float(dt)}))
        assert main([command, *required, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {config_path}: bad value {json.dumps(float(dt))} for option 'dt'\n"


    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            *[("calibrate-sfm", "--train-fraction", v, "must lie in (0, 1]")
              for v in ("5", "nan", "-1", "0")],
            *[("calibrate-game", "--jobs", v, "must be at least 1") for v in ("0", "-2")],
            *[("calibrate-sfm", "--population", v, "must be at least 2") for v in ("1", "0")],
            ("calibrate-game", "--population", "-3", "must be at least 2"),
            *[("calibrate-sfm", "--population", v, "must be at least 2 and at most 100000")
              for v in ("100001", str(10**30))],
            *[("calibrate-sfm", "--generations", v, "must be at least 1") for v in ("0", "-1")],
            *[("calibrate-game", "--stagnation", v, "must be at least 1") for v in ("0", "-4")],
            *[("simulate", "--max-steps", v, "must be at least 1") for v in ("0", "-5")],
            ("simulate", "--seed", "-1", "must be nonnegative"),
            ("calibrate-sfm", "--seed", "-1", "must be nonnegative"),
            *[("select-features", "--alpha", v, "must lie in [0, 1]") for v in ("nan", "-1", "1.5")],
        ],
    )
    def test_out_of_range_flags_exit_2(self, tmp_path, capsys, command, flag, value, message) -> None:
        args = [command, *REQUIRED[command]]
        with pytest.raises(SystemExit) as exc:
            main([*args, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        # A config file's value gets the same check, as a one-line error.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({flag.lstrip("-"): value}))
        assert main([*args, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {config_path}: bad value \"{value}\" for option {flag.lstrip('-')!r}\n"

    def test_range_limits_of_flags_are_accepted(self) -> None:
        parser = cli.build_parser()
        ns = parser.parse_args(
            ["calibrate-sfm", *REQUIRED["calibrate-sfm"], "--train-fraction", "1", "--jobs", "1",
             "--population", "2", "--generations", "1", "--stagnation", "1"]
        )
        assert (ns.train_fraction, ns.jobs) == (1.0, 1)
        assert (ns.population, ns.generations, ns.stagnation) == (2, 1, 1)
        for alpha in ("0", "1"):
            ns = parser.parse_args(["select-features", *REQUIRED["select-features"], "--alpha", alpha])
            assert ns.alpha == float(alpha)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_writes_trace_decisions_features_and_manifest(self, tmp_path, capsys) -> None:
        code, out = run_simulate(tmp_path)
        assert code == 0
        assert "crossing" in capsys.readouterr().out
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == TRACE_HEADER
        assert len(trace_lines) > 2
        assert (out / "decisions.csv").read_text().splitlines()[0] == DECISIONS_HEADER
        features_header = (out / "features.csv").read_text().splitlines()[0]
        assert features_header.startswith("scenario_id,step,conflict_id,agent_id,kind,role,")
        assert features_header.endswith(",action")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["tool_version"] == __version__
        assert manifest["seed"] == 0
        assert manifest["scenario_id"] == "crossing"
        assert manifest["conflicts"] == 1
        assert manifest["truncated"] is False
        assert sorted(manifest["outputs"]) == ["decisions.csv", "features.csv", "trace.csv"]
        assert_host_recorded(manifest)

    # sha256 of the outputs on the bundled crossing, recorded before
    # decisions.csv and features.csv were written from one row per
    # decision; a refactor must not change them.
    PINNED = {
        "hbs": {
            "trace.csv": "0b37a765acacbeee0a31daf35a5b9938bd1da032a982c8606a9ad87968733c10",
            "decisions.csv": "89af7d6888c5c81a43a0152be6ea71f1c1bf1776d98845b32e7340bc6e49d108",
            "features.csv": "0f1466a3c9d0e183a21e8b4210aa22df01a2881a089fd33c9c69ea405c698cbc",
        },
        "dut": {
            "trace.csv": "7c42d560fbb17e3292c96e296651cb2128dbc7310f5b0cb883d7a628fdcf461c",
            "decisions.csv": "be670a9244da4ed169c6bfedf6de21ca20d5eaf6991d653841dd36f96355fbc2",
            "features.csv": "868b801ed8fcabd4fc29f361293dc891f085f4fc632ebee75f2650b39d583c3e",
        },
    }

    @pytest.mark.parametrize("regime", ["hbs", "dut"])
    def test_bundled_crossing_outputs_match_the_pinned_digests(self, tmp_path, regime) -> None:
        out = tmp_path / regime
        code = main([
            "simulate", "--scene", str(DATA / "scene.json"),
            "--scenario", str(DATA / "crossing.json"), "--regime", regime, "--out-dir", str(out),
        ])
        assert code == 0
        assert {name: sha256(out / name) for name in self.PINNED[regime]} == self.PINNED[regime]

    def test_manifest_hashes_match_the_input_files(self, tmp_path) -> None:
        code, out = run_simulate(tmp_path)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for path_str, digest in manifest["inputs"].items():
            assert digest == sha256(Path(path_str))
        blob = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
        assert manifest["config_sha256"] == hashlib.sha256(blob.encode()).hexdigest()

    def test_same_seed_writes_identical_outputs(self, tmp_path) -> None:
        _, first = run_simulate(tmp_path, "first")
        _, second = run_simulate(tmp_path, "second")
        for name in ("trace.csv", "decisions.csv", "features.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_inputs_are_not_mutated(self, tmp_path) -> None:
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        before = (sha256(scene_path), sha256(scenario_path))
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(scenario_path),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (sha256(scene_path), sha256(scenario_path)) == before

    def test_missing_scene_file_exits_2(self, tmp_path, capsys) -> None:
        _, scenario_path = write_crossing_inputs(tmp_path)
        code = main([
            "simulate", "--scene", str(tmp_path / "nope.json"),
            "--scenario", str(scenario_path), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "flag, relative",
        [("--out-dir", "blocker"), ("--out-dir", "blocker/out"), ("--scene", "blocker/scene.json")],
    )
    def test_unusable_path_exits_2_with_one_line(self, tmp_path, capsys, flag, relative) -> None:
        # An existing file is no directory to write into, and no path
        # under a file can be read or made.
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        (tmp_path / "blocker").write_text("")
        paths = {"--scene": scene_path, "--out-dir": tmp_path / "out", flag: tmp_path / relative}
        code = main([
            "simulate", "--scene", str(paths["--scene"]), "--scenario", str(scenario_path),
            "--out-dir", str(paths["--out-dir"]),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_corrupt_scenario_exits_2(self, tmp_path) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(bad),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_bad_velocity_exits_2_with_one_line(self, tmp_path, capsys) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "scenario_id": "s1",
            "agents": [{"kind": "ped", "position": [0, 0], "goal": [5, 0],
                        "velocity": [1, 2, 3]}],
        }))
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(bad),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: agents[0].velocity: expected [x, y], got [1, 2, 3]\n"

    def test_bad_speed_exits_2_with_one_line(self, tmp_path, capsys) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "scenario_id": "s1",
            "agents": [{"kind": "ped", "position": [0, 0], "goal": [5, 0],
                        "desired_speed": [1]}],
        }))
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(bad),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: agents[0].desired_speed: expected a number, got [1]\n"

    @pytest.mark.parametrize(
        "content, message",
        [
            # a misspelled "agents" would otherwise load no agents at all
            ({"scenario_id": "s1", "agent": [{"kind": "ped", "position": [0, 0], "goal": [5, 0]}]},
             "unknown keys ['agent']"),
            # an entry step of 2.7 would otherwise spawn at step 2
            ({"scenario_id": "s1",
              "agents": [{"kind": "ped", "position": [0, 0], "goal": [5, 0], "entry_step": 2.7}]},
             "agents[0].entry_step: expected a whole number, got 2.7"),
        ],
    )
    def test_scenario_that_would_run_wrong_exits_2_with_one_line(
        self, tmp_path, capsys, content, message
    ) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(bad),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # the ids are the names these cases have always run under
            pytest.param("entry_step", True, "expected a number, got true", id="entry_step-True-bad entry_step"),
            pytest.param("desired_speed", True, "expected a number, got true",
                         id="desired_speed-True-bad desired_speed"),
            pytest.param("max_speed", False, "expected a number, got false", id="max_speed-False-bad max_speed"),
            pytest.param("diameter", True, "expected a number, got true", id="diameter-True-bad diameter"),
            pytest.param("position", [True, 0], "expected a number, got true", id="position-value4-bad position/goal"),
            pytest.param("goal", [5, False], "expected a number, got false", id="goal-value5-bad position/goal"),
            pytest.param("velocity", [True, 0], "expected a number, got true", id="velocity-value6-bad velocity"),
        ],
    )
    def test_boolean_scenario_number_exits_2_with_one_line(
        self, tmp_path, capsys, key, value, message
    ) -> None:
        # float() and int() read JSON true as 1 and false as 0
        scene_path, _ = write_crossing_inputs(tmp_path)
        entry = {"kind": "ped", "position": [0, 0], "goal": [5, 0], key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario_id": "s1", "agents": [entry]}))
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(bad),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: agents[0].{key}: {message}\n"

    def test_unreachable_goal_exits_3(self, tmp_path, capsys) -> None:
        scene_path = write_boxed_scene(tmp_path)
        scenario_path = tmp_path / "trapped.json"
        save_scenario(
            Scenario("trapped", [AgentEntry(
                "p1", AgentKind.PEDESTRIAN, 0,
                Vec2(-10.0, 0.0), Vec2(0.0, 0.0), Vec2(0.0, 0.0), 1.2, 1.2, 0.5,
            )]),
            scenario_path,
        )
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(scenario_path),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 3
        assert "rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_agent_outside_the_scene_bounds_exits_3_with_one_line(self, tmp_path, capsys, command) -> None:
        # Once simulated with exit 0, far outside the bundled scene's +-60 m.
        scenario = json.loads((DATA / "crossing.json").read_text())
        scenario["agents"][0]["position"] = [1e6, 1e6]
        scenario_path = tmp_path / "far.json"
        scenario_path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        args = ["--out-dir", str(out)] if command == "simulate" else []
        code = main([command, "--scene", str(DATA / "scene.json"), "--scenario", str(scenario_path), *args])
        assert code == 3
        agent = scenario["agents"][0]["id"]
        assert capsys.readouterr().err == (
            f"error: scenario rejected: agent {agent}: position (1000000.0, 1000000.0)"
            " lies outside the scene bounds\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("field", ["desired_speed", "max_speed", "diameter"])
    def test_infinite_speed_or_size_exits_2_with_one_line(self, tmp_path, capsys, field) -> None:
        # Infinity is valid JSON to Python's reader; an infinite max_speed
        # once ran with 0 conflicts, its predicted position out of reach.
        scenario = json.loads((DATA / "crossing.json").read_text())
        i = next(i for i, a in enumerate(scenario["agents"]) if a["id"] == "c1")
        scenario["agents"][i][field] = float("inf")
        scenario_path = tmp_path / "infinite.json"
        scenario_path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        code = main([
            "simulate", "--scene", str(DATA / "scene.json"), "--scenario", str(scenario_path),
            "--out-dir", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {scenario_path}: agents[{i}].{field}: expected a finite number, got Infinity\n"
        assert not (out / "trace.csv").exists()

    def test_non_finite_state_exits_3_with_one_line(self, tmp_path, capsys) -> None:
        # A step of 1e308 s overflows the first position update.
        scene_path = tmp_path / "scene.json"
        save_scene(open_square_scene(), scene_path)
        out = tmp_path / "out"
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(DATA / "crossing.json"),
            "--out-dir", str(out), "--dt", "1e308",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: scenario rejected: agent c1: non-finite state at step 0\n"
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("fields", [
        {"desired_speed": 1e308, "max_speed": 1e308},
        {"max_speed": 1000.5},
    ])
    def test_a_speed_beyond_the_bound_exits_2_with_one_line(self, tmp_path, capsys, fields) -> None:
        # Speeds of 1e308 once overflowed the first step (exit 3).
        scenario = json.loads((DATA / "crossing.json").read_text())
        i = next(i for i, a in enumerate(scenario["agents"]) if a["id"] == "c1")
        scenario["agents"][i].update(fields)
        scenario_path = tmp_path / "huge.json"
        scenario_path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        code = main([
            "simulate", "--scene", str(DATA / "scene.json"), "--scenario", str(scenario_path),
            "--out-dir", str(out),
        ])
        assert code == 2
        name = next(iter(fields))
        err = capsys.readouterr().err
        assert err == f"error: {scenario_path}: c1: {name} must be at most 1000 m/s, got {fields[name]!r}\n"
        assert not (out / "trace.csv").exists()

    def test_a_speed_at_the_bound_is_accepted(self, tmp_path) -> None:
        scenario = json.loads((DATA / "crossing.json").read_text())
        scenario["agents"][0].update(max_speed=1000.0)
        scenario_path = tmp_path / "fast.json"
        scenario_path.write_text(json.dumps(scenario))
        assert load_scenario(scenario_path).entries[0].max_speed == 1000.0

    @pytest.mark.parametrize("params", [{"g_angle": float("nan")}, {"u0": float("inf")}])
    def test_non_finite_params_exit_2_with_one_line(self, tmp_path, capsys, params) -> None:
        # A NaN weight once flipped the pedestrian's decision silently.
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(params))
        out = tmp_path / "out"
        code = main([
            "simulate", "--scene", str(DATA / "scene.json"),
            "--scenario", str(DATA / "crossing.json"), "--params", str(params_path),
            "--out-dir", str(out),
        ])
        assert code == 2
        ((key, value),) = params.items()
        err = capsys.readouterr().err
        assert err == f"error: {params_path}: {key}: expected a finite number, got {json.dumps(value)}\n"
        assert not (out / "trace.csv").exists()

    def test_regime_flag_recorded_in_manifest(self, tmp_path) -> None:
        code, out = run_simulate(tmp_path, "run", "--regime", "dut")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["regime"] == "dut"

    def test_regime_flag_overrides_the_params_file(self, tmp_path) -> None:
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        params_path = tmp_path / "params.json"
        save_parameter_set(ParameterSet.defaults("hbs"), params_path)
        out = tmp_path / "out"
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(scenario_path),
            "--params", str(params_path), "--regime", "dut", "--out-dir", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["regime"] == "dut"
        assert sha256(params_path) in manifest["inputs"].values()

    def test_config_file_overrides_flags(self, tmp_path) -> None:
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"max-steps": 3}))
        out = tmp_path / "out"
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(scenario_path),
            "--max-steps", "50", "--config", str(config_path), "--out-dir", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["max_steps"] == 3
        assert manifest["steps_run"] == 3
        assert manifest["truncated"] is True

    def test_config_values_are_read_as_their_flags_read_text(self, tmp_path) -> None:
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"max_steps": "3", "dt": 0.25}))
        out = tmp_path / "out"
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(scenario_path),
            "--config", str(config_path), "--out-dir", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["config"]["max_steps"], manifest["config"]["dt"]) == (3, 0.25)
        assert manifest["steps_run"] == 3

    @pytest.mark.parametrize(
        "setting",
        [{"max_steps": "ten"}, {"max_steps": 2.5}, {"max_steps": [10]}, {"dt": None},
         {"seed": True}, {"regime": "campus"}, {"out_dir": "out\u0000dir"}],
    )
    def test_bad_config_value_exits_2_with_one_line(self, tmp_path, capsys, setting) -> None:
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(setting))
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(scenario_path),
            "--config", str(config_path), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        ((key, value),) = setting.items()
        assert err == f"error: {config_path}: bad value {json.dumps(value)} for option {key!r}\n"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys) -> None:
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"no_such_option": 1}))
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(scenario_path),
            "--config", str(config_path), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "no_such_option" in capsys.readouterr().err

    def test_non_object_config_exits_2(self, tmp_path) -> None:
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text("[1, 2]")
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(scenario_path),
            "--config", str(config_path), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


ANNOTATIONS_MATCHING = (
    "scenario_id,agent_id,conflict_idx,action\n"
    "crossing,c1,0,accelerate\n"
    "crossing,p1,0,deviate\n"
)


class TestEvaluate:
    def test_identical_trajectories_score_zero(self, tmp_path, capsys) -> None:
        _, run = run_simulate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "mean_ade=0.000 m" in stdout
        report_lines = (out / "report.csv").read_text().splitlines()
        assert report_lines[0] == "scenario_id,agent_id,kind,ade,speed_deviation"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pedestrian"]["ade_mean"] == 0.0
        assert manifest["car"]["ade_mean"] == 0.0
        assert manifest["unmatched_agents"] == 0
        assert_host_recorded(manifest)
        assert (out / "summary.txt").read_text().strip() == stdout.strip()

    def test_summary_lines_are_the_manifest_statistics(self, tmp_path) -> None:
        # The bundled trajectories against a copy that drifts by a
        # per-agent amount, so every kind has a spread of ADEs and speeds.
        lines = (DATA / "trajectories.csv").read_text().splitlines()
        drifted = [lines[0]]
        for line in lines[1:]:
            scenario, frame, agent, kind, x, y = line.split(",")
            k = sum(map(ord, scenario + agent)) % 5 + 1
            x = float(x) + 0.01 * k * int(frame)
            drifted.append(f"{scenario},{frame},{agent},{kind},{x!r},{y}")
        sim = tmp_path / "sim.csv"
        sim.write_text("\n".join(drifted) + "\n")
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--real", str(DATA / "trajectories.csv"), "--sim", str(sim),
            "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = []
        for kind, key in (("ped", "pedestrian"), ("car", "car")):
            stats = manifest[key]
            assert stats["n"] > 1 and stats["ade_std"] > 0.0
            expected.append(f"{kind}: n={stats['n']} mean_ade={stats['ade_mean']:.3f} m")
            expected.append(f"{kind}: mean_speed_deviation={stats['speed_dev_mean']:.3f} m/s")
        summary = (out / "summary.txt").read_text().splitlines()
        assert [line for line in summary if line.startswith(("ped:", "car:"))] == expected

    def test_matching_annotations_score_zero_error(self, tmp_path) -> None:
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(ANNOTATIONS_MATCHING)
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--annotations", str(annotations), "--sim-decisions", str(run / "decisions.csv"),
            "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["decision_error_rate"] == 0.0
        confusion = (out / "confusion.csv").read_text().splitlines()
        assert confusion[0] == "real\\sim,continue,decelerate,deviate"
        # diagonal carries both matches
        assert confusion[1].startswith("continue,1,")
        assert confusion[3] == "deviate,0,0,1"

    def test_disagreeing_annotation_counts_as_error(self, tmp_path) -> None:
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(
            "scenario_id,agent_id,conflict_idx,action\n"
            "crossing,c1,0,decelerate\n"
            "crossing,p1,0,deviate\n"
        )
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--annotations", str(annotations), "--sim-decisions", str(run / "decisions.csv"),
            "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["decision_error_rate"] == 0.5

    def test_disjoint_agents_exit_4(self, tmp_path, capsys) -> None:
        _, run = run_simulate(tmp_path)
        other = tmp_path / "other.csv"
        other.write_text(TRACE_HEADER + "\nsX,0,p9,ped,0.0,0.0\n")
        code = main([
            "evaluate", "--real", str(other), "--sim", str(run / "trace.csv"),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 4
        assert "do not align" in capsys.readouterr().err

    def test_sim_decisions_require_annotations(self, tmp_path, capsys) -> None:
        _, run = run_simulate(tmp_path)
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--sim-decisions", str(tmp_path / "nonexistent.csv"), "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --sim-decisions requires --annotations\n"
        assert not out.exists()

    def test_annotations_require_sim_decisions(self, tmp_path) -> None:
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(ANNOTATIONS_MATCHING)
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--annotations", str(annotations), "--out", str(tmp_path / "eval"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("crossing,3,0,c1", "expected 5 columns"),
            ("crossing,3,0,c1,fly", "unknown action 'fly'"),
        ],
    )
    def test_bad_decisions_row_exits_2_with_its_line(self, tmp_path, capsys, row, message) -> None:
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(ANNOTATIONS_MATCHING)
        decisions = tmp_path / "decisions.csv"
        decisions.write_text(f"{DECISIONS_HEADER}\n{row}\n")
        capsys.readouterr()
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--annotations", str(annotations), "--sim-decisions", str(decisions),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {decisions}:2: {message}\n"

    def test_padded_decisions_row_joins_its_annotation(self, tmp_path) -> None:
        # every field of every input is stripped, decisions' ids too
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(ANNOTATIONS_MATCHING)
        decisions = tmp_path / "decisions.csv"
        decisions.write_text(f"{DECISIONS_HEADER}\ncrossing ,3,0, c1,continue\n crossing,3,0,p1 ,deviate\n")
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--annotations", str(annotations), "--sim-decisions", str(decisions), "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["decision_error_rate"], manifest["unmatched_annotations"]) == (0.0, 0)
        rows = (out / "confusion.csv").read_text().splitlines()[1:]
        assert sum(int(n) for row in rows for n in row.split(",")[1:]) == 2

    def test_annotation_without_a_simulated_decision_is_counted(self, tmp_path) -> None:
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(ANNOTATIONS_MATCHING + "crossing,p1,5,deviate\n")
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--annotations", str(annotations), "--sim-decisions", str(run / "decisions.csv"),
            "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["decision_error_rate"], manifest["unmatched_annotations"]) == (0.0, 1)

    def test_undecodable_input_exits_2_with_one_line(self, tmp_path, capsys) -> None:
        real = tmp_path / "real.csv"
        real.write_bytes(TRACE_HEADER.encode() + b"\ns1,0,p1,ped,\xff,0\n")
        code = main(["evaluate", "--real", str(real), "--sim", str(real), "--out", str(tmp_path / "eval")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {real}:2: not UTF-8 text\n"

    @pytest.mark.parametrize("flipped", ["real", "sim"])
    def test_agent_whose_kind_flips_exits_2(self, tmp_path, capsys, flipped) -> None:
        rows = ["s1,0,p1,ped,0.0,0.0", "s1,0,c1,car,5.0,0.0", "s1,1,p1,ped,1.0,0.0"]
        paths = {name: tmp_path / f"{name}.csv" for name in ("real", "sim")}
        for name, path in paths.items():
            extra = ["s1,2,p1,car,2.0,0.0"] if name == flipped else ["s1,2,p1,ped,2.0,0.0"]
            path.write_text("\n".join([TRACE_HEADER, *rows, *extra]) + "\n")
        code = main([
            "evaluate", "--real", str(paths["real"]), "--sim", str(paths["sim"]),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: agent 'p1' in 's1' changes kind mid-stream\n"

    def test_duplicate_decisions_column_exits_2(self, tmp_path, capsys) -> None:
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(ANNOTATIONS_MATCHING)
        decisions = tmp_path / "decisions.csv"
        decisions.write_text(DECISIONS_HEADER + ",action\ncrossing,3,0,c1,continue,deviate\n")
        capsys.readouterr()
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--annotations", str(annotations), "--sim-decisions", str(decisions),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {decisions}:1: duplicate column 'action'\n"

    # sha256 of evaluate's outputs on write_analysis_inputs, recorded when
    # the metrics were computed on per-agent dicts of Vec2
    PINNED = {
        "report.csv": "95a3be7ad96a7b2a0ea4b462c623ed15c8012c34b821bdfc50228fb24469e993",
        "summary.txt": "c0bee68da0709ccdbfc4247115b1c9e78579877504a8ea0211fe4bd6da8a6652",
    }

    def test_outputs_match_the_pinned_digests(self, tmp_path) -> None:
        inputs = write_analysis_inputs(tmp_path)
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--real", str(inputs["real"]), "--sim", str(inputs["sim"]),
            "--out", str(out),
        ])
        assert code == 0
        assert {name: sha256(out / name) for name in self.PINNED} == self.PINNED

    def test_annotations_matching_nothing_exit_4(self, tmp_path) -> None:
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(
            "scenario_id,agent_id,conflict_idx,action\nelsewhere,zz,0,continue\n"
        )
        code = main([
            "evaluate", "--real", str(run / "trace.csv"), "--sim", str(run / "trace.csv"),
            "--annotations", str(annotations), "--sim-decisions", str(run / "decisions.csv"),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 4


# ---------------------------------------------------------------------------
# select-features
# ---------------------------------------------------------------------------


class TestSelectFeatures:
    def test_eliminates_the_noise_feature(self, tmp_path) -> None:
        observations = write_logit_observations(tmp_path)
        out = tmp_path / "sel"
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--out-dir", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["retained"] == ["f0", "f1"]
        assert manifest["eliminated"] == ["noise"]
        assert_host_recorded(manifest)
        model_lines = (out / "model.csv").read_text().splitlines()
        assert model_lines[0] == "outcome,feature,coefficient,std_error,p_value"
        # one equation (decelerate vs continue) with two retained features
        assert len(model_lines) == 3
        for line in model_lines[1:]:
            for field in line.split(",")[2:]:
                float(field)  # plain numbers, not numpy scalar reprs
        elim_lines = (out / "elimination.csv").read_text().splitlines()
        assert elim_lines[0] == "step,feature,p_value"
        step, feature, p_value = elim_lines[1].split(",")
        assert (step, feature) == ("1", "noise")
        assert float(p_value) > 0.09

    def test_keep_protects_a_feature(self, tmp_path) -> None:
        observations = write_logit_observations(tmp_path)
        out = tmp_path / "sel"
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--keep", "noise", "--out-dir", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["retained"] == ["f0", "f1", "noise"]
        assert manifest["eliminated"] == []

    def test_feature_subset_narrows_the_candidates(self, tmp_path) -> None:
        observations = write_logit_observations(tmp_path)
        out = tmp_path / "sel"
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--features", "f0,noise", "--out-dir", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["retained"] == ["f0"]
        assert manifest["eliminated"] == ["noise"]

    def test_rows_of_other_subjects_are_ignored(self, tmp_path) -> None:
        observations = write_logit_observations(tmp_path, extra_ped_row=True)
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--out-dir", str(tmp_path / "sel"),
        ])
        # the pedestrian row holds a non-numeric value but is filtered out first
        assert code == 0

    def test_constant_column_is_dropped_before_fitting(self, tmp_path) -> None:
        rng = np.random.default_rng(7)
        x = rng.normal(size=200)
        labels = np.where(rng.random(200) < 1.0 / (1.0 + np.exp(-1.5 * x)), "decelerate", "continue")
        rows = ["scenario_id,step,conflict_id,agent_id,kind,role,f0,const,action"]
        for i in range(200):
            rows.append(f"s,{i},0,a{i},car,leader,{float(x[i])!r},1.0,{labels[i]}")
        observations = tmp_path / "observations.csv"
        observations.write_text("\n".join(rows) + "\n")
        out = tmp_path / "sel"
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--out-dir", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dropped_constant"] == ["const"]
        assert "const" not in manifest["retained"]

    def test_unknown_feature_name_exits_2(self, tmp_path, capsys) -> None:
        observations = write_logit_observations(tmp_path)
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--features", "f0,wat", "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2
        assert "wat" in capsys.readouterr().err

    def test_unknown_keep_feature_exits_2(self, tmp_path, capsys) -> None:
        observations = write_logit_observations(tmp_path)
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--keep", "zzz", "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: keep-list names unknown features: ['zzz']\n"

    def constant_speed_table(self, tmp_path) -> Path:
        """A 4-row car table whose own_speed is 1.0 on every row."""
        path = tmp_path / "observations.csv"
        rows = ["kind,own_speed,gap,action"]
        rows += [f"car,1.0,{g},{a}" for g, a in zip((1, 2, 3, 4), ("continue", "decelerate") * 2)]
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_keeping_a_constant_feature_exits_2_naming_it(self, tmp_path, capsys) -> None:
        code = main([
            "select-features", "--observations", str(self.constant_speed_table(tmp_path)),
            "--subject", "car", "--keep", "own_speed", "--out-dir", str(tmp_path / "sel"),
        ])
        assert (code, capsys.readouterr().err) == (
            2, "error: keep-list names constant features, which cannot be fitted: ['own_speed']\n"
        )
        assert not (tmp_path / "sel").exists()

    def test_keeping_an_unknown_feature_beside_a_constant_one_exits_2(self, tmp_path, capsys) -> None:
        code = main([
            "select-features", "--observations", str(self.constant_speed_table(tmp_path)),
            "--subject", "car", "--keep", "own_speed,zzz", "--out-dir", str(tmp_path / "sel"),
        ])
        assert (code, capsys.readouterr().err) == (2, "error: keep-list names unknown features: ['zzz']\n")

    @pytest.mark.parametrize(
        "actions, message",
        [
            (("continue",), "need at least two distinct outcomes"),
            (("decelerate", "deviate"), "baseline 'continue' not present in outcomes ['decelerate', 'deviate']"),
        ],
    )
    def test_outcomes_that_cannot_be_fitted_exit_2(self, tmp_path, capsys, actions, message) -> None:
        observations = tmp_path / "observations.csv"
        rows = ["kind,f0,action"] + [f"car,{i},{actions[i % len(actions)]}" for i in range(20)]
        observations.write_text("\n".join(rows) + "\n")
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_action_column_exits_2(self, tmp_path) -> None:
        observations = tmp_path / "observations.csv"
        observations.write_text("scenario_id,kind,f0\ns,car,1.0\n")
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2

    @pytest.mark.parametrize("dropped", ["kind", "action"])
    def test_missing_kind_or_action_column_exits_2(self, tmp_path, capsys, dropped) -> None:
        # without a kind column no row could be told apart by --subject
        path = write_logit_observations(tmp_path)
        rows = [row.split(",") for row in path.read_text().splitlines()]
        j = rows[0].index(dropped)
        path.write_text("".join(",".join(row[:j] + row[j + 1:]) + "\n" for row in rows))
        code = main([
            "select-features", "--observations", str(path), "--subject", "ped",
            "--out-dir", str(tmp_path / "sel"),
        ])
        assert (code, capsys.readouterr().err) == (2, f"error: {path}:1: needs columns ['action', 'kind']\n")
        assert not (tmp_path / "sel").exists()

    def test_short_row_exits_2_with_its_line(self, tmp_path, capsys) -> None:
        path = write_logit_observations(tmp_path)
        with open(path, "a") as fh:
            fh.write("s,600,0,a600,car,leader,0.5\n")  # line 602
        code = main([
            "select-features", "--observations", str(path), "--subject", "car",
            "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:602: expected 10 columns\n"

    def test_unknown_action_exits_2_with_its_line(self, tmp_path, capsys) -> None:
        path = tmp_path / "observations.csv"
        path.write_text("kind,f0,action\ncar,1.0,continue\ncar,2.0,fly\n")
        code = main([
            "select-features", "--observations", str(path), "--subject", "car",
            "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:3: unknown action 'fly'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_exits_2_with_its_line(self, tmp_path, capsys, value) -> None:
        path = tmp_path / "observations.csv"
        rows = ["kind,a,b,action", "car,1,5,continue", "car,2,4,decelerate"]
        rows += [f"car,{value},3,continue", "car,4,2,decelerate", "car,5,1,continue"]
        path.write_text("\n".join(rows) + "\n")
        code = main([
            "select-features", "--observations", str(path), "--subject", "car",
            "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:4: non-finite feature value\n"

    def test_duplicate_column_exits_2(self, tmp_path, capsys) -> None:
        # a csv.DictReader would keep the second own_speed and drop the first
        path = tmp_path / "observations.csv"
        rows = ["kind,own_speed,own_speed,action"]
        rows += [f"car,{i},{i % 3},{a}" for i, a in enumerate(("continue", "decelerate") * 10)]
        path.write_text("\n".join(rows) + "\n")
        code = main([
            "select-features", "--observations", str(path), "--subject", "car",
            "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:1: duplicate column 'own_speed'\n"

    # sha256 of select-features' outputs on write_analysis_inputs, recorded
    # when observations were read row by row
    PINNED = {
        "car": {
            "model.csv": "83dbc1df20677e0cea61cca4034a3533156534f1e22eeaedfc2172d6a2d2d455",
            "elimination.csv": "1f9bb957cb2e5841a5465e39389b97120d03c06562f36962b392373e201fcd25",
        },
        "ped": {
            "model.csv": "863be7bfed90ad6b4477c7981c01b144ffcb4711f8f45109cfe8acb9342cbfa9",
            "elimination.csv": "2c2db9443958c92a608b217dae7abd44412ed5f4e114f89545850469e641b3aa",
        },
    }

    @pytest.mark.parametrize("subject", ["car", "ped"])
    def test_outputs_match_the_pinned_digests(self, tmp_path, subject) -> None:
        inputs = write_analysis_inputs(tmp_path)
        out = tmp_path / "sel"
        code = main([
            "select-features", "--observations", str(inputs["observations"]),
            "--subject", subject, "--out-dir", str(out),
        ])
        assert code == 0
        assert {name: sha256(out / name) for name in self.PINNED[subject]} == self.PINNED[subject]

    def test_all_constant_features_exit_2(self, tmp_path, capsys) -> None:
        observations = tmp_path / "observations.csv"
        rows = ["scenario_id,kind,f0,action"]
        rows += [f"s,car,1.0,{a}" for a in ("continue", "decelerate") * 10]
        observations.write_text("\n".join(rows) + "\n")
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2
        assert "constant" in capsys.readouterr().err


OBSERVATIONS_HEADER = "kind,f0,f1,action"


def read_observation_rows(path: Path, subject: str):
    """A valid observations file read row by row: the reference for what
    select-features reads column by column."""
    with open(path, newline="") as fh:
        rows = [[field.strip() for field in row] for row in csv.reader(fh) if row]
    header, rows = rows[0], [dict(zip(rows[0], row)) for row in rows[1:]]
    rows = [row for row in rows if row.get("kind", subject) == subject]
    names = [c for c in header if c not in FEATURE_ID_COLUMNS and c != "action"]
    X = np.array([[float(row[c]) for c in names] for row in rows]).reshape(len(rows), len(names))
    return X, [parse_action(row["action"]).value for row in rows], names


class TestObservationScreen:
    """select-features reads its table column by column. On a valid file
    it must give what a row-by-row read gives; on a bad one it must name
    the line and the rule a row-by-row read would stop at."""

    @pytest.mark.parametrize(
        "text",
        [
            "kind,f0,f1,action\r\ncar,1.5,2,continue\r\ncar,-0.5,3e-2,decelerate\r\n",
            "kind,f0,f1,action\n\ncar,1.5,2,continue\n\n\ncar,-0.5,3,deviate\n",
            'kind,f0,f1,action\n"car","1.5",2,"continue"\ncar,"-0.5","3",decelerate\n',
            "kind,f0,f1,action\ncar, 1.5 ,2\t,continue \ncar,-0.5,3,  Decelerate\n",
            "kind,f0,f1,action\ncar,+3,1_0,accelerate\ncar,-0.5,.5,deviate\n",
            # the pedestrian rows are dropped before any value is read
            "kind,f0,f1,action\nped,x,y,fly\ncar,1,2,continue\nped,1\t,2,continue\n",
            # every field is stripped, so a kind with padding is the same subject
            "kind,f0,f1,action\n car,1,2,continue\ncar,1,2,continue\n",
        ],
    )
    def test_column_pass_reads_what_the_row_pass_reads(self, tmp_path, text) -> None:
        path = tmp_path / "observations.csv"
        path.write_bytes(text.encode())
        X, labels, names = cli._load_observations(path, "car", None)
        expected = read_observation_rows(path, "car")
        assert np.array_equal(X, expected[0]) and X.shape == expected[0].shape
        assert (labels, names) == expected[1:]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("car,nan,1,continue", "non-finite feature value"),
            ("car,1,-inf,continue", "non-finite feature value"),
            ("car,1,two,continue", "non-numeric feature value"),
            ("car,1,2,fly", "unknown action 'fly'"),
            ("car,1,2", "expected 4 columns"),
            ("ped,1,2,continue,extra", "expected 4 columns"),
        ],
    )
    def test_bad_row_is_handed_to_the_row_pass(self, tmp_path, row, message) -> None:
        path = tmp_path / "observations.csv"
        path.write_text(f"{OBSERVATIONS_HEADER}\ncar,1,2,continue\n{row}\ncar,2,1,deviate\n")
        with pytest.raises(TrajectoryFormatError) as err:
            cli._load_observations(path, "car", None)
        assert str(err.value) == f"{path}:3: {message}"

    def test_no_rows_of_the_subject_exits_2(self, tmp_path, capsys) -> None:
        path = tmp_path / "observations.csv"
        path.write_text(f"{OBSERVATIONS_HEADER}\nped,1,2,continue\n")
        code = main([
            "select-features", "--observations", str(path), "--subject", "car",
            "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: no rows for subject 'car'\n"


# ---------------------------------------------------------------------------
# calibrate-sfm / calibrate-game
# ---------------------------------------------------------------------------


class TestCalibrateSfm:
    def run_micro(self, tmp_path: Path, out_name: str, *extra: str) -> tuple[int, Path]:
        scene_path = tmp_path / "scene.json"
        if not scene_path.exists():
            save_scene(open_square_scene(), scene_path)
        records = tmp_path / "walk.csv"
        if not records.exists():
            write_walk_records(tmp_path)
        out = tmp_path / out_name
        code = main([
            "calibrate-sfm", "--scene", str(scene_path), "--trajectories", str(records),
            "--out-dir", str(out), "--population", "6", "--generations", "2", "--seed", "0",
            *extra,
        ])
        return code, out

    def test_micro_run_writes_params_history_and_manifest(self, tmp_path, capsys) -> None:
        code, out = self.run_micro(tmp_path, "cal")
        assert code == 0
        assert "best positional error" in capsys.readouterr().out
        fitted = load_parameter_set(out / "best_params.json")
        assert isinstance(fitted, ParameterSet)
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "generation,best_fitness,mean_fitness"
        assert len(history) >= 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "calibrate-sfm"
        assert manifest["config"]["ga"] == {
            "population_size": 6, "max_generations": 2, "stagnation_window": 30, "seed": 0,
        }
        assert len(manifest["config"]["gene_names"]) == 12
        assert len(manifest["config"]["bounds"]) == 12
        assert manifest["train_scenarios"] == ["s1"]
        assert manifest["test_scenarios"] == []  # a single scenario is never split
        assert manifest["best_fitness"] < 1.0
        assert_host_recorded(manifest)

    def test_search_box_stays_inside_the_valid_anisotropy(self, tmp_path) -> None:
        params = tmp_path / "params.json"
        params.write_text('{"lambda": 0.5}\n')
        code, out = self.run_micro(tmp_path, "cal", "--params", str(params))
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        bounds = dict(zip(config["gene_names"], config["bounds"]))
        assert bounds["anisotropy"] == [0.125, 1.0]

    def test_population_of_two_runs(self, tmp_path) -> None:
        # A tournament draws with replacement, so it needs no more
        # chromosomes than the smallest population holds.
        assert calibrate.TOURNAMENT_SIZE > 2
        code, out = self.run_micro(tmp_path, "cal", "--population", "2")
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["evaluations"] == 4

    def test_parallel_evaluation_reproduces_the_serial_run(self, tmp_path, monkeypatch) -> None:
        pickles = []

        def counting_getstate(objective):
            pickles.append(objective.group)
            return dict(objective.__dict__)

        monkeypatch.setattr(calibrate.Objective, "__getstate__", counting_getstate, raising=False)
        _, serial = self.run_micro(tmp_path, "serial")
        assert pickles == []
        _, parallel = self.run_micro(tmp_path, "parallel", "--jobs", "2")
        assert (serial / "best_params.json").read_bytes() == (parallel / "best_params.json").read_bytes()
        assert (serial / "history.csv").read_bytes() == (parallel / "history.csv").read_bytes()
        # At most once per pool process (never, where processes fork),
        # not once per task.
        manifest = json.loads((parallel / "manifest.json").read_text())
        assert manifest["evaluations"] > 2 and manifest["scenario_simulations"] > 2
        assert len(pickles) <= 2
        # the pool's initializer installs the objective in the pool's processes only
        assert cli._installed_objective is None

    def test_pool_size_is_capped_by_cores_and_population(self, tmp_path, monkeypatch) -> None:
        sizes = []

        class RecordingPool:
            """Records the pool size asked for and simulates in this
            process, so the test starts no process. Like a process pool,
            its map takes every task before it returns a result."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                cli._install_objective(None)

            def map(self, fn, items, chunksize=1):
                return [fn(item) for item in list(items)]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        _, serial = self.run_micro(tmp_path, "serial")
        # (cores, --jobs, pool size): --population is 6
        for cores, jobs, size in ((4, "100000", 4), (64, "100000", 6), (4, "3", 3), (None, "8", None)):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
            sizes.clear()
            code, out = self.run_micro(tmp_path, f"jobs-{cores}-{jobs}", "--jobs", jobs)
            assert code == 0
            assert sizes == ([] if size is None else [size])
            assert (out / "history.csv").read_bytes() == (serial / "history.csv").read_bytes()
        assert cli._installed_objective is None

    def test_inputs_are_not_mutated(self, tmp_path) -> None:
        scene_path = tmp_path / "scene.json"
        save_scene(open_square_scene(), scene_path)
        records = write_walk_records(tmp_path)
        before = (sha256(scene_path), sha256(records))
        code, _ = self.run_micro(tmp_path, "cal")
        assert code == 0
        assert (sha256(scene_path), sha256(records)) == before

    def test_routes_are_planned_once_per_run(self, tmp_path, monkeypatch) -> None:
        scene_path = write_boxed_scene(tmp_path)
        # agents of two sizes need two visibility graphs
        records = write_detour_records(tmp_path)
        clearances = count_graph_builds(monkeypatch)
        out = tmp_path / "cal"
        code = main([
            "calibrate-sfm", "--scene", str(scene_path), "--trajectories", str(records),
            "--out-dir", str(out), "--population", "3", "--generations", "1",
            "--jobs", "1", "--seed", "0",
        ])
        assert code == 0
        assert len(clearances) == len(set(clearances)) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["evaluations"] == 5
        assert manifest["cache_hits"] >= 0

    def test_trajectories_without_rows_exit_2(self, tmp_path, capsys) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        trajectories = tmp_path / "empty.csv"
        trajectories.write_text(TRACE_HEADER + "\n")
        code = main([
            "calibrate-sfm", "--scene", str(scene_path), "--trajectories", str(trajectories),
            "--out-dir", str(tmp_path / "cal"), "--population", "2", "--generations", "1",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: no training scenarios\n"

    def test_every_candidate_failing_exits_5(self, tmp_path, capsys) -> None:
        scene_path = write_boxed_scene(tmp_path)
        records = tmp_path / "doomed.csv"
        rows = [TRACE_HEADER]
        for f in range(5):
            rows.append(f"s1,{f},p1,ped,{-10.0 + 2.5 * f!r},0.0")  # ends inside the box
        records.write_text("\n".join(rows) + "\n")
        code = main([
            "calibrate-sfm", "--scene", str(scene_path), "--trajectories", str(records),
            "--out-dir", str(tmp_path / "cal"), "--population", "4", "--generations", "1",
            "--seed", "0",
        ])
        assert code == 5
        assert "failure penalty" in capsys.readouterr().err


class TestCalibrateGame:
    def test_micro_run_reaches_full_agreement(self, tmp_path) -> None:
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(ANNOTATIONS_MATCHING)
        out = tmp_path / "cal"
        code = main([
            "calibrate-game", "--scene", str(tmp_path / "scene.json"),
            "--trajectories", str(run / "trace.csv"), "--annotations", str(annotations),
            "--out-dir", str(out), "--population", "6", "--generations", "2", "--seed", "0",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "calibrate-game"
        assert manifest["best_agreement"] == 1.0
        assert_host_recorded(manifest)
        assert 0 <= manifest["cache_hits"] < manifest["evaluations"]
        assert len(manifest["config"]["gene_names"]) == 6
        fitted = load_parameter_set(out / "best_params.json")
        assert fitted.game.regime == "hbs"

    def test_without_annotated_scenarios_exits_2(self, tmp_path, capsys) -> None:
        _, run = run_simulate(tmp_path)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text("scenario_id,agent_id,conflict_idx,action\nelsewhere,zz,0,continue\n")
        code = main([
            "calibrate-game", "--scene", str(tmp_path / "scene.json"),
            "--trajectories", str(run / "trace.csv"), "--annotations", str(annotations),
            "--out-dir", str(tmp_path / "cal"), "--population", "4", "--generations", "1",
        ])
        assert code == 2
        assert "annotations" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["crossing,p9,0,continue", "nosuch,p1,0,continue"])
    def test_annotation_without_a_trajectory_exits_2_with_one_line(self, tmp_path, capsys, row) -> None:
        # Once silently dropped (no such scenario) or scored as a mismatch
        # (no such agent in the scenario).
        annotations = tmp_path / "annotations.csv"
        annotations.write_text((DATA / "annotations.csv").read_text() + row + "\n")
        out = tmp_path / "cal"
        code = main([
            "calibrate-game", "--scene", str(DATA / "scene.json"),
            "--trajectories", str(DATA / "trajectories.csv"), "--annotations", str(annotations),
            "--out-dir", str(out), "--population", "2", "--generations", "1",
        ])
        assert code == 2
        key = row.rsplit(",", 1)[0]
        assert capsys.readouterr().err == (
            f"error: annotations: {key} names an agent with no trajectory in its scenario\n"
        )
        assert not out.exists()


def calibrate_bundled(tmp_path: Path, command: str, trajectories: Path, *extra: str) -> tuple[int, Path]:
    """A short seed-0 run of `command` on the bundled scene and annotations."""
    out = tmp_path / "cal"
    annotations = ["--annotations", str(DATA / "annotations.csv")] if command == "calibrate-game" else []
    code = main([
        command, "--scene", str(DATA / "scene.json"), "--trajectories", str(trajectories),
        *annotations, "--out-dir", str(out), "--population", "6", "--generations", "2",
        "--seed", "0", *extra,
    ])
    return code, out


class TestCalibrateBundledData:
    # sha256 of (history.csv, best_params.json), recorded before both
    # commands shared one code path; a refactor must not change them.
    PINNED = {
        "calibrate-sfm": (
            "220e26600c804926c672b99dd54d686b41f5779c9e2895d725795c910bad00ba",
            "8d65e8d99d2b37a573187c73ae9f98c425ecddc6cc3b6f08747f3524a0bc3b35",
        ),
        "calibrate-game": (
            "5205d2b3d4cc51514135d0976286e526cce9ad5bbedfd43d536f0d8ae4b22a33",
            "a6e4e37fe9d4eada40a9fde6491352babf412a0860f09d1c89689010e2b25c12",
        ),
    }

    @pytest.mark.parametrize("command", ["calibrate-sfm", "calibrate-game"])
    def test_outputs_match_the_pinned_digests(self, tmp_path, command) -> None:
        code, out = calibrate_bundled(tmp_path, command, DATA / "trajectories.csv")
        assert code == 0
        assert (sha256(out / "history.csv"), sha256(out / "best_params.json")) == self.PINNED[command]

    # sha256 of (history.csv, best_params.json) of calibrate-sfm around
    # an obstacle, recorded before the agent rules moved to plain floats:
    # pins obstacle repulsion, the planner and the pair repulsion of a
    # pedestrian against a pedestrian and a car.
    PINNED_BOXED = (
        "588069ee129a2e8e94a37c1d8a7f09d593606a7e81fdc020c82ab7327e3dc106",
        "b44197fa40664d0d76e14aaeb640640f0e212c929bc75f0ed7579ac9e3bfce0e",
    )

    def test_obstacle_scene_outputs_match_the_pinned_digests(self, tmp_path) -> None:
        scene_path = write_boxed_scene(tmp_path)
        records = write_detour_records(tmp_path, ("p2", "ped", [(9, 1), (4, 3), (0, 3), (-4, 3), (-9, 1)]))
        out = tmp_path / "cal"
        code = main([
            "calibrate-sfm", "--scene", str(scene_path), "--trajectories", str(records),
            "--out-dir", str(out), "--population", "6", "--generations", "2",
            "--jobs", "1", "--seed", "0",
        ])
        assert code == 0
        assert (sha256(out / "history.csv"), sha256(out / "best_params.json")) == self.PINNED_BOXED

    @pytest.mark.parametrize("command", ["calibrate-sfm", "calibrate-game"])
    def test_manifest_counts_each_scored_pair_once(self, tmp_path, command) -> None:
        # every scenario trains; a chromosome the GA's cache answers asks
        # the objective nothing, and no chromosome in the search box fails
        # to decode
        code, out = calibrate_bundled(tmp_path, command, DATA / "trajectories.csv", "--train-fraction", "1")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        scored = len(manifest["train_scenarios"])
        fresh = manifest["evaluations"] - manifest["cache_hits"]
        assert manifest["scenario_simulations"] + manifest["memo_hits"] == fresh * scored
        assert manifest["scenario_simulations"] > 0 and manifest["failed_simulations"] == 0
        if command == "calibrate-sfm":
            assert manifest["memo_hits"] > 0

    @pytest.mark.parametrize("command", ["calibrate-sfm", "calibrate-game"])
    def test_agent_changing_kind_exits_2_with_one_line(self, tmp_path, capsys, command) -> None:
        lines = (DATA / "trajectories.csv").read_text().splitlines()
        flipped = next(i for i, line in enumerate(lines) if ",p1,ped," in line)
        lines[flipped] = lines[flipped].replace(",p1,ped,", ",p1,car,")
        trajectories = tmp_path / "flipped.csv"
        trajectories.write_text("\n".join(lines) + "\n")
        code, out = calibrate_bundled(tmp_path, command, trajectories)
        assert code == 2
        err = capsys.readouterr().err
        assert "changes kind mid-stream" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("dt, field, speed", [
        ("0.0008", "max_speed", "1250.0"), ("0.0001", "desired_speed", "5970.1481150157415"),
    ])
    def test_a_frame_length_that_infers_impossible_speeds_exits_2(self, tmp_path, capsys, dt, field, speed) -> None:
        # At these frame lengths the car_follow car moves faster than any
        # road user: the scenario inferred from it breaks the scenario
        # rules, which stops the run before any evaluation scores it.
        out = tmp_path / "cal"
        code = main([
            "calibrate-sfm", "--scene", str(DATA / "scene.json"), "--trajectories", str(DATA / "trajectories.csv"),
            "--out-dir", str(out), "--population", "6", "--generations", "2", "--dt", dt,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: scenario car_follow inferred from trajectories: c1: {field} must be at most 1000 m/s,"
            f" got {speed}\n"
        )
        assert not out.exists()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


class TestValidate:
    def test_scene_alone(self, tmp_path, capsys) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        assert main(["validate", "--scene", str(scene_path)]) == 0
        assert capsys.readouterr().out.startswith("ok: scene")

    def test_scenario_with_reachable_goals(self, tmp_path, capsys) -> None:
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        code = main(["validate", "--scene", str(scene_path), "--scenario", str(scenario_path)])
        assert code == 0
        assert "all goals reachable" in capsys.readouterr().out

    def test_params_file_checked(self, tmp_path, capsys) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        params_path = tmp_path / "params.json"
        save_parameter_set(ParameterSet.defaults("dut"), params_path)
        code = main(["validate", "--scene", str(scene_path), "--params", str(params_path)])
        assert code == 0
        assert "params" in capsys.readouterr().out

    def test_validate_and_simulate_name_the_same_agent_out_of_bounds(self, tmp_path, capsys) -> None:
        # both plan in spawn order, whatever order the file lists agents in
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"scenario_id": "s", "agents": [
            {"id": "b", "kind": "ped", "position": [500, 0], "goal": [0, 0]},
            {"id": "a", "kind": "ped", "position": [600, 0], "goal": [0, 0]},
        ]}))
        scene = str(DATA / "scene.json")
        assert main(["validate", "--scene", scene, "--scenario", str(scenario)]) == 3
        assert main(["simulate", "--scene", scene, "--scenario", str(scenario), "--out-dir", str(tmp_path / "o")]) == 3
        line = "error: scenario rejected: agent a: position (600.0, 0.0) lies outside the scene bounds"
        assert capsys.readouterr().err.splitlines() == [line, line]

    def test_unreachable_scenario_exits_3(self, tmp_path) -> None:
        scene_path = write_boxed_scene(tmp_path)
        scenario_path = tmp_path / "trapped.json"
        save_scenario(
            Scenario("trapped", [AgentEntry(
                "p1", AgentKind.PEDESTRIAN, 0,
                Vec2(-10.0, 0.0), Vec2(0.0, 0.0), Vec2(0.0, 0.0), 1.2, 1.2, 0.5,
            )]),
            scenario_path,
        )
        assert main(["validate", "--scene", str(scene_path), "--scenario", str(scenario_path)]) == 3

    def test_corrupt_scene_exits_2(self, tmp_path) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["validate", "--scene", str(bad)]) == 2

    def test_corrupt_params_exits_2(self, tmp_path) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps({"tau": -1.0}))
        assert main(["validate", "--scene", str(scene_path), "--params", str(bad)]) == 2

    @pytest.mark.parametrize(
        "content, field",
        [
            ({"bounds": 5}, "bounds"),
            ({"bounds": [0, 0, 10, [1]]}, "bounds"),
            ({"bounds": [0, 0, 10, 10], "meters_per_unit": [1]}, "meters_per_unit"),
            ({"bounds": [0, 0, 10, 10], "obstacles": [[[1, 1], [2, 1], [0, None]]]}, "obstacles[0]"),
            ({"bounds": [0, 0, 10, 10], "obstacles": 5}, "obstacles"),
        ],
    )
    def test_malformed_scene_exits_2_with_one_line(self, tmp_path, capsys, content, field) -> None:
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(content))
        assert main(["validate", "--scene", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key, label", [
        ("obstacles", "obstacle[1]"),
        ("intersection_zones", "intersection_zone[1]"),
        ("road_zones", "road_zone[1]"),
    ])
    def test_polygon_edge_under_1_mm_exits_2_with_one_line(self, tmp_path, capsys, key, label) -> None:
        # The on-edge band of the 1e-12 m edge would reach (0.5, 0.5).
        sliver = [[0.0, 0.0], [1e-12, 0.0], [0.0, 1.0]]
        square = [[5.0, 5.0], [6.0, 5.0], [6.0, 6.0], [5.0, 6.0]]
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps({"bounds": [-1, -1, 10, 10], key: [square, sliver]}))
        assert main(["validate", "--scene", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: {label}: edge 0 is 1e-12 m long, shorter than 1 mm\n"

    def test_bounds_that_overflow_when_scaled_exit_2_with_one_line(self, tmp_path, capsys) -> None:
        # 1e308 units at 10 m per unit is past the float range
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps({"bounds": [0, 0, 1e308, 1e308], "meters_per_unit": 10}))
        assert main(["validate", "--scene", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: bounds must be finite\n"

    def test_polygon_edges_are_measured_in_metres(self, tmp_path, capsys) -> None:
        # 0.5 units at 10 m per unit: 5 m long, however short in units.
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "bounds": [0, 0, 10, 10], "meters_per_unit": 10.0,
            "obstacles": [[[1, 1], [1.5, 1], [1.5, 1.5], [1, 1.5]]],
        }))
        assert main(["validate", "--scene", str(scene)]) == 0
        scene.write_text(json.dumps({
            "bounds": [0, 0, 10, 10], "meters_per_unit": 1e-4,
            "obstacles": [[[1, 1], [9, 1], [9, 9], [1, 9]]],
        }))
        assert main(["validate", "--scene", str(scene)]) == 2
        assert "obstacle[0]: edge 0 is 0.0008 m long, shorter than 1 mm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, field",
        [
            # the ids are the names these cases have always run under
            pytest.param({"g_angle": float("nan")}, "g_angle: expected a finite number, got NaN",
                         id="content0-g_angle"),
            pytest.param({"g_noai": float("-inf")}, "g_noai: expected a finite number, got -Infinity",
                         id="content1-g_noai"),
            pytest.param({"m": float("nan")}, "m: expected a finite number, got NaN", id="content2-m"),
            pytest.param({"s_high": float("inf")}, "s_high: expected a finite number, got Infinity",
                         id="content3-s_high"),
            pytest.param({"base_continue": float("inf")}, "base_continue: expected a finite number, got Infinity",
                         id="content4-base_continue"),
            pytest.param({"u0": float("inf")}, "u0: expected a finite number, got Infinity", id="content5-u0"),
            pytest.param({"v0": {"pc": float("nan")}}, "v0.pc: expected a finite number, got NaN",
                         id="content6-v0_pc"),
            pytest.param({"lambda": float("nan")}, "lambda: expected a finite number, got NaN",
                         id="content7-anisotropy"),
        ],
    )
    def test_non_finite_params_exit_2_with_one_line(self, tmp_path, capsys, content, field) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(content))
        assert main(["validate", "--scene", str(scene_path), "--params", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {field}\n"

    @pytest.mark.parametrize(
        "loader, field", [("scene", "meters_per_unit"), ("scenario", "position"), ("params", "u0")]
    )
    def test_integer_too_large_for_a_float_exits_2_with_one_line(
        self, tmp_path, capsys, loader, field
    ) -> None:
        scene_path, scenario_path = write_crossing_inputs(tmp_path)
        huge = 10**400  # valid JSON, but float() overflows on it
        args = ["validate", "--scene", str(scene_path)]
        if loader == "scene":
            scene_path.write_text(json.dumps({"bounds": [0, 0, 10, 10], "meters_per_unit": huge}))
        elif loader == "scenario":
            scenario = json.loads(scenario_path.read_text())
            scenario["agents"][0]["position"] = [huge, 0]
            scenario_path.write_text(json.dumps(scenario))
            args += ["--scenario", str(scenario_path)]
        else:
            params_path = tmp_path / "params.json"
            params_path.write_text(json.dumps({"u0": huge}))
            args += ["--params", str(params_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert len(err.strip().splitlines()) == 1

    def test_scene_number_out_of_range_is_named_not_printed(self, tmp_path, capsys) -> None:
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({"bounds": [0, 0, 10**400, 10]}))
        assert main(["validate", "--scene", str(scene_path)]) == 2
        assert capsys.readouterr().err == f"error: {scene_path}: bounds: number out of range\n"

    def test_params_number_out_of_range_is_named_not_printed(self, tmp_path, capsys) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"v0": {"pc": -10**400}}))
        assert main(["validate", "--scene", str(scene_path), "--params", str(params_path)]) == 2
        assert capsys.readouterr().err == f"error: {params_path}: v0.pc: number out of range\n"

    @pytest.mark.parametrize(
        "content, field",
        [
            ({"bounds": [0, 0, 10, 10], "meters_per_unit": True}, "meters_per_unit: expected a number, got true"),
            ({"bounds": [0, 0, True, 10]}, "bounds: expected a number, got true"),
            ({"bounds": [0, 0, 10, 10], "obstacles": [[[1, 1], [2, 1], [2, False]]]},
             "obstacles[0]: expected a number, got false"),
        ],
    )
    def test_boolean_scene_number_exits_2_with_one_line(self, tmp_path, capsys, content, field) -> None:
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(content))
        assert main(["validate", "--scene", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {field}\n"

    @pytest.mark.parametrize(
        "content, field",
        [({"u0": True}, "u0: expected a number, got true"),
         ({"v0": {"pp": False}}, "v0.pp: expected a number, got false"),
         ({"tau": True}, "tau: expected a number, got true")],
    )
    def test_boolean_params_number_exits_2_with_one_line(self, tmp_path, capsys, content, field) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(content))
        assert main(["validate", "--scene", str(scene_path), "--params", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {field}\n"

    @pytest.mark.parametrize("content, key", [({"u0": [1]}, "u0"), ({"v0": {"pp": None}}, "v0.pp")])
    def test_wrong_typed_params_exit_2_with_one_line(self, tmp_path, capsys, content, key) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(content))
        assert main(["validate", "--scene", str(scene_path), "--params", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}: expected a number" in err
        assert len(err.strip().splitlines()) == 1
