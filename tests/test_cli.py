"""Command-line interface: subcommands, exit codes, manifests, reproducibility."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import count_graph_builds, open_square_scene
from sharedspace import __version__, cli
from sharedspace.cli import main
from sharedspace.engine import AgentEntry, Scenario, save_scenario
from sharedspace.geometry import Vec2
from sharedspace.params import ParameterSet, load_parameter_set, save_parameter_set
from sharedspace.scene import AgentKind, save_scene

DATA = Path(__file__).resolve().parents[1] / "data"
TRACE_HEADER = "scenario_id,frame,agent_id,kind,x,y"
DECISIONS_HEADER = "scenario_id,step,conflict_id,agent_id,action"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        assert err.startswith("error: config file") and "bad value" in err
        assert len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            *[("calibrate-sfm", "--train-fraction", v, "must lie in (0, 1]")
              for v in ("5", "nan", "-1", "0")],
            *[("calibrate-game", "--jobs", v, "must be at least 1") for v in ("0", "-2")],
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
        assert err.startswith("error: config file") and "bad value" in err
        assert len(err.strip().splitlines()) == 1

    def test_range_limits_of_flags_are_accepted(self) -> None:
        parser = cli.build_parser()
        ns = parser.parse_args(
            ["calibrate-sfm", *REQUIRED["calibrate-sfm"], "--train-fraction", "1", "--jobs", "1"]
        )
        assert (ns.train_fraction, ns.jobs) == (1.0, 1)
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
        assert err.startswith("error:") and "bad velocity" in err
        assert len(err.strip().splitlines()) == 1

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
        assert err.startswith("error:") and "bad desired_speed" in err
        assert len(err.strip().splitlines()) == 1

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

    @pytest.mark.parametrize("field", ["desired_speed", "max_speed", "diameter"])
    def test_infinite_speed_or_size_exits_2_with_one_line(self, tmp_path, capsys, field) -> None:
        # Infinity is valid JSON to Python's reader; an infinite max_speed
        # once ran with 0 conflicts, its predicted position out of reach.
        scenario = json.loads((DATA / "crossing.json").read_text())
        c1 = next(a for a in scenario["agents"] if a["id"] == "c1")
        c1[field] = float("inf")
        scenario_path = tmp_path / "infinite.json"
        scenario_path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        code = main([
            "simulate", "--scene", str(DATA / "scene.json"), "--scenario", str(scenario_path),
            "--out-dir", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: c1: {field} must be finite\n"
        assert not (out / "trace.csv").exists()

    def test_non_finite_state_exits_3_with_one_line(self, tmp_path, capsys) -> None:
        # Speeds of 1e308 overflow the first integration step.
        scene_path = tmp_path / "scene.json"
        save_scene(open_square_scene(), scene_path)
        scenario = json.loads((DATA / "crossing.json").read_text())
        scenario["agents"][0].update(desired_speed=1e308, max_speed=1e308)
        scenario_path = tmp_path / "huge.json"
        scenario_path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        code = main([
            "simulate", "--scene", str(scene_path), "--scenario", str(scenario_path),
            "--out-dir", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: scenario rejected: agent c1: non-finite state at step 0\n"
        assert not (out / "trace.csv").exists()

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
        (key,) = params
        assert capsys.readouterr().err == f"error: {params_path}: {key} must be finite\n"
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
         {"seed": True}, {"regime": "campus"}],
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
        assert err.startswith("error: config file") and "bad value" in err
        assert len(err.strip().splitlines()) == 1

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

    def test_missing_action_column_exits_2(self, tmp_path) -> None:
        observations = tmp_path / "observations.csv"
        observations.write_text("scenario_id,kind,f0\ns,car,1.0\n")
        code = main([
            "select-features", "--observations", str(observations),
            "--subject", "car", "--out-dir", str(tmp_path / "sel"),
        ])
        assert code == 2

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
        assert manifest["config"]["ga"]["population_size"] == 6
        assert len(manifest["config"]["gene_names"]) == 12
        assert len(manifest["config"]["bounds"]) == 12
        assert manifest["train_scenarios"] == ["s1"]
        assert manifest["test_scenarios"] == []  # a single scenario is never split
        assert manifest["best_fitness"] < 1.0

    def test_parallel_evaluation_reproduces_the_serial_run(self, tmp_path, monkeypatch) -> None:
        pickles = []

        def counting_getstate(worker):
            pickles.append(worker.mode)
            return dict(worker.__dict__)

        monkeypatch.setattr(cli._FitnessWorker, "__getstate__", counting_getstate, raising=False)
        _, serial = self.run_micro(tmp_path, "serial")
        assert pickles == []
        _, parallel = self.run_micro(tmp_path, "parallel", "--jobs", "2")
        assert (serial / "best_params.json").read_bytes() == (parallel / "best_params.json").read_bytes()
        assert (serial / "history.csv").read_bytes() == (parallel / "history.csv").read_bytes()
        # At most once per pool process (never, where processes fork),
        # not once per evaluation.
        evaluations = json.loads((parallel / "manifest.json").read_text())["evaluations"]
        assert evaluations > 2
        assert len(pickles) <= 2
        assert cli._installed_worker is None

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
        records = tmp_path / "detours.csv"
        rows = [TRACE_HEADER]
        # both straight routes cross the box; agents of two sizes need two
        # visibility graphs
        for f, (x, y) in enumerate([(-10, 0), (-5, 3), (0, 3.5), (5, 3), (10, 0)]):
            rows.append(f"s1,{f},p1,ped,{float(x)!r},{float(y)!r}")
        for f, (x, y) in enumerate([(-16, 0), (-8, -4), (0, -4.5), (8, -4), (16, 0)]):
            rows.append(f"s1,{f},c1,car,{float(x)!r},{float(y)!r}")
        records.write_text("\n".join(rows) + "\n")
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


def calibrate_bundled(tmp_path: Path, command: str, trajectories: Path) -> tuple[int, Path]:
    """A short seed-0 run of `command` on the bundled scene and annotations."""
    out = tmp_path / "cal"
    annotations = ["--annotations", str(DATA / "annotations.csv")] if command == "calibrate-game" else []
    code = main([
        command, "--scene", str(DATA / "scene.json"), "--trajectories", str(trajectories),
        *annotations, "--out-dir", str(out), "--population", "6", "--generations", "2",
        "--seed", "0",
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

    @pytest.mark.parametrize(
        "content, field",
        [
            ({"g_angle": float("nan")}, "g_angle"),
            ({"g_noai": float("-inf")}, "g_noai"),
            ({"m": float("nan")}, "m"),
            ({"s_high": float("inf")}, "s_high"),
            ({"base_continue": float("inf")}, "base_continue"),
            ({"u0": float("inf")}, "u0"),
            ({"v0": {"pc": float("nan")}}, "v0_pc"),
            ({"lambda": float("nan")}, "anisotropy"),
        ],
    )
    def test_non_finite_params_exit_2_with_one_line(self, tmp_path, capsys, content, field) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(content))
        assert main(["validate", "--scene", str(scene_path), "--params", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {field} must be finite\n"

    @pytest.mark.parametrize("content, key", [({"u0": [1]}, "u0"), ({"v0": {"pp": None}}, "v0.pp")])
    def test_wrong_typed_params_exit_2_with_one_line(self, tmp_path, capsys, content, key) -> None:
        scene_path, _ = write_crossing_inputs(tmp_path)
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(content))
        assert main(["validate", "--scene", str(scene_path), "--params", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}: expected a number" in err
        assert len(err.strip().splitlines()) == 1
