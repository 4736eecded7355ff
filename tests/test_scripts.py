"""Smoke tests for the runnable scripts under scripts/, each run as its
own process in a scratch directory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from sharedspace.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def run_script(name: str, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_demo_crossing_writes_a_trace(tmp_path) -> None:
    proc = run_script("demo_crossing.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "demo_out" / "trace.csv").read_text().startswith(
        "scenario_id,frame,agent_id,kind,x,y\n"
    )


def test_dataset_generator_reproduces_the_bundled_data(tmp_path) -> None:
    proc = run_script("make_synthetic_dataset.py", tmp_path, "--out-dir", "gen")
    assert proc.returncode == 0, proc.stderr
    for name in ("trajectories.csv", "annotations.csv", "scene.json", "crossing.json"):
        assert (tmp_path / "gen" / name).read_bytes() == (DATA / name).read_bytes(), name


def test_run_calibration_drives_both_cli_rounds(tmp_path) -> None:
    budget = ["--population", "4", "--generations", "1", "--seed", "0"]
    proc = run_script(
        "run_calibration.py", tmp_path, "--data-dir", str(DATA), "--out-dir", "cal", *budget
    )
    cal = tmp_path / "cal"
    assert (cal / "sfm" / "manifest.json").exists(), proc.stderr

    direct = tmp_path / "direct"
    common = ["--scene", str(DATA / "scene.json"),
              "--trajectories", str(DATA / "trajectories.csv"), *budget]
    assert main(["calibrate-sfm", *common, "--out-dir", str(direct / "sfm")]) == 0
    assert (cal / "sfm" / "history.csv").read_bytes() == (
        direct / "sfm" / "history.csv"
    ).read_bytes()
    assert (cal / "sfm" / "best_params.json").read_bytes() == (
        direct / "sfm" / "best_params.json"
    ).read_bytes()

    round2 = main([
        "calibrate-game", *common, "--annotations", str(DATA / "annotations.csv"),
        "--params", str(direct / "sfm" / "best_params.json"),
        "--out-dir", str(direct / "game"),
    ])
    # The script reports round 2's outcome, failure included.
    assert proc.returncode == round2
