"""Smoke tests for the runnable scripts under scripts/, each run as its
own process in a scratch directory."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_run(
    side: str, pair: int, work: float, rss: float, correct: bool = True, failed: int = 0, attempted: int = 20
) -> dict:
    metrics = {"work_per_s": {"value": work, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"side": side, "pair": pair, "result": result}


def test_bench_pairs_summary_arithmetic() -> None:
    bench_pairs = load_bench_pairs()
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [11.0, 12.0, 12.5, 12.0, 10.0]
    rss_parent = [50.0, 50.0, 51.0, 49.0, 50.0]
    rss_change = [49.0, 50.5, 51.0, 48.0, 52.0]
    runs = [
        synthetic_run(side, pair, work[pair - 1], rss[pair - 1])
        for pair in (3, 1, 5, 2, 4)
        for side, work, rss in (("change", change, rss_change), ("parent", parent, rss_parent))
    ]
    summary = bench_pairs.summarize(runs, {"work_per_s": "higher", "peak_rss_mb": "lower"})
    work = summary["work_per_s"]
    # sorted parent 9, 10, 11, 12, 13: quartiles 10 and 12 (linear)
    assert work["parent_median"] == 11.0 and work["change_median"] == 12.0
    assert work["parent_quartiles"] == [10.0, 12.0] and work["parent_iqr"] == 2.0
    # sorted change 10, 11, 12, 12, 12.5
    assert work["change_quartiles"] == [11.0, 12.0]
    assert work["ratio"] == 12.0 / 11.0
    assert work["parent_runs"] == parent and work["change_runs"] == change
    # pair 2 is a tie, and pair 4 a loss
    assert work["change_better_pairs"] == 3 and work["pairs"] == 5 and work["all_correct"]
    assert work["parent_failed_share"] == work["change_failed_share"] == 0.0
    rss = summary["peak_rss_mb"]
    assert rss["parent_median"] == 50.0 and rss["change_median"] == 50.5
    assert rss["parent_quartiles"] == [50.0, 50.0] and rss["parent_iqr"] == 0.0
    assert rss["change_better_pairs"] == 2  # lower is better; pair 3 is a tie
    runs[0]["result"]["failed"] = 3  # a change run: 3 of the change's 100 ops
    work = bench_pairs.summarize(runs, {"work_per_s": "higher"})["work_per_s"]
    assert (work["parent_failed_share"], work["change_failed_share"]) == (0.0, 0.03)
    runs[0]["result"]["correct"] = False
    assert not bench_pairs.summarize(runs, {"work_per_s": "higher"})["work_per_s"]["all_correct"]
    with pytest.raises(ValueError):
        bench_pairs.summarize(runs[1:], {"work_per_s": "higher"})


def verdicts(
    parent: list[float], change: list[float], better: str, bound: float | None = 0.25,
    failed: tuple[int, int] = (0, 0),
) -> str:
    """The verdict on `work_per_s`; `failed` is the (parent, change)
    failed ops of each run, out of 20 attempted."""
    bench_pairs = load_bench_pairs()
    runs = [
        synthetic_run(side, pair, values[pair - 1], 50.0, failed=n)
        for pair in range(1, len(parent) + 1)
        for side, values, n in (("parent", parent, failed[0]), ("change", change, failed[1]))
    ]
    bounds = {} if bound is None else {"work_per_s": bound}
    return bench_pairs.summarize(runs, {"work_per_s": better}, bounds)["work_per_s"]["verdict"]


def test_bench_pairs_verdicts() -> None:
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]  # IQR 0.475
    # 9 of 10 pairs won, the median 1.0 better: a gain either way round
    up = [p + 1.0 for p in parent[:9]] + [parent[9] - 1.0]
    assert verdicts(parent, up, "higher") == "gain"
    assert verdicts([-p for p in parent], [-c for c in up], "lower") == "gain"
    # 8 of 10 pairs won is not enough, nor is a median gain inside the IQR
    assert verdicts(parent, [p + 1.0 for p in parent[:8]] + parent[8:], "higher") == "unchanged"
    assert verdicts(parent, [p + 0.3 for p in parent], "higher") == "unchanged"
    # worse by more than the bound: 30 % down, or 30 % up where lower is better
    assert verdicts(parent, [0.7 * p for p in parent], "higher") == "regression"
    assert verdicts(parent, [1.3 * p for p in parent], "lower") == "regression"
    assert verdicts(parent, [0.8 * p for p in parent], "higher") == "unchanged"
    # a parent too spread to tell a 25 % bound: quartiles 70 and 130
    wide = [40.0, 70.0, 70.0, 100.0, 100.0, 100.0, 130.0, 130.0, 130.0, 160.0]
    assert verdicts(wide, wide, "higher") == "unresolved"
    assert verdicts(wide, [0.5 * p for p in wide], "higher") == "regression"
    # no bound: never a regression, never unresolved
    assert verdicts(wide, [0.5 * p for p in wide], "higher", bound=None) == "unchanged"
    # a change that fails a larger share of ops gains nothing: it regresses,
    # bound or no bound; an equal or smaller share keeps the gain
    assert verdicts(parent, up, "higher", failed=(0, 1)) == "regression"
    assert verdicts(parent, up, "higher", failed=(2, 3), bound=None) == "regression"
    assert verdicts(parent, parent, "higher", failed=(0, 1)) == "regression"
    assert verdicts(parent, up, "higher", failed=(1, 1)) == "gain"
    assert verdicts(parent, up, "higher", failed=(3, 1)) == "gain"


STUB_RUN = """\
import json, sys
from pathlib import Path
root = Path(__file__).resolve().parents[1]
with (root.parent / "order.txt").open("a") as log:
    log.write(root.name + "\\n")
value = float((root / "value.txt").read_text())
print("env " + json.dumps({"python": "stub", "args": sys.argv[1:]}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"work_per_s": {"value": value, "unit": "1/s"}}}))
"""


def test_bench_pairs_alternates_and_writes_the_layout(tmp_path) -> None:
    for side, value in (("parent", "100.0"), ("change", "110.0")):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(STUB_RUN)
        (root / "value.txt").write_text(value)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "work_per_s", "better": "higher"}]}
    ))
    args = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "crowd",
            "--pairs", "3", "--seconds", "1", "--tag", "t", "--out-dir", str(tmp_path)]
    for seed in ("0", "7", "0"):
        proc = run_script("bench_pairs.py", tmp_path, *args, "--seed", seed)
        assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "order.txt").read_text().split()
    assert order[:6] == ["parent", "change", "change", "parent", "parent", "change"]
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(bench) == ["about", "host", "summary", "runs"]
    assert set(bench["summary"]) == {"crowd@seed0", "crowd@seed7"}
    # the second seed-0 set replaced the first
    assert [(r["seed"], r["pair"], r["side"]) for r in bench["runs"]].count((0, 1, "parent")) == 1
    assert len(bench["runs"]) == 12
    work = bench["summary"]["crowd@seed0"]["work_per_s"]
    assert (work["parent_median"], work["change_median"], work["change_better_pairs"]) == (100.0, 110.0, 3)
    assert bench["host"]["args"] == ["--workload", "crowd", "--seed", "0", "--seconds", "1.0", "--trace", "0"]


def test_bench_pairs_refuses_a_directory_without_the_benchmark(tmp_path) -> None:
    proc = run_script("bench_pairs.py", tmp_path, str(tmp_path), str(tmp_path), "--workload", "crowd", "--tag", "t")
    assert proc.returncode == 2
    assert proc.stderr == f"error: {tmp_path} has no perfbench/run.py\n"
