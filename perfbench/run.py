#!/usr/bin/env python3
"""Benchmark of the sharedspace simulator, calibration and analysis CLI.

Run from the root of a checkout (src/ and data/ must be there):

    python3 perfbench/run.py --workload crowd --seed 0 --seconds 20 --trace 0

Generates the workload's inputs from --seed (untimed), times the set-up
of fresh processes, then runs operations (CLI calls through
`sharedspace.cli.main`, in this one process, --jobs 1) for about
--seconds, checking every call's outputs. Times are in seconds at a
fixed nominal core speed (refclock.py), so that the drifting speed of a
shared host cancels out; the raw wall times are printed too. The
process pins itself to one core first. With --trace 1 each operation
runs twice, untraced and then traced, and the traced copy reports
per-module numbers per operation. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 7
MIN_OPS = 2
JOBS_NOTE = (
    "--jobs > 1 is not measured: on 2 shared cores calibrate took 7.3-8.8 s with "
    "--jobs 2 against 13.0-13.3 s with --jobs 1, so it does not repeat within a tenth"
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["crowd", "calibrate", "obstacles", "analysis"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = parser.parse_args(argv)
    if ns.seed < 0 or ns.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return ns


def environment(nproc: int) -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "jobs": 1,
        "jobs_note": JOBS_NOTE,
    }


def measure_setup(workload, root: Path) -> tuple[float, float]:
    """Median time, normalised and raw, that a fresh process takes to
    import sharedspace and load the workload's inputs, as each process
    measures it (setup_probe.py)."""
    path = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *workload.probe_args()]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(argv, env=env, cwd=root, check=True, timeout=120, capture_output=True, text=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return (statistics.median(t["seconds"] for t in times), statistics.median(t["wall"] for t in times))


def run_call(argv: list[str], clocked: bool = False) -> tuple[float, float, str | None]:
    """Normalised and raw time of one CLI call, and why it failed, if it
    did. Unclocked calls (the traced copies) report raw time twice."""
    from sharedspace import cli

    from refclock import RefClock

    error = None
    with RefClock() if clocked else contextlib.nullcontext() as clock:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                error = f"{argv[0]} exited with {code}"
        except Exception as exc:  # the run goes on; the call counts as failed
            error = f"{argv[0]} raised {exc!r}"
        wall = time.perf_counter() - start
    if clocked:
        return clock.seconds, clock.wall, error
    return wall, wall, error


class Run:
    """Runs the operations of one workload and collects their numbers."""

    def __init__(self, workload, traced: bool) -> None:
        self.workload = workload
        self.traced = traced
        self.attempted = 0
        self.failures: list[str] = []
        self.op_times: list[float] = []  # untraced operations, normalised
        self.op_walls: list[float] = []  # the same, raw
        self.traced_walls: list[float] = []
        self.call_walls: dict[str, list[float]] = defaultdict(list)
        self.rates: list[float] = []
        self.tracers: list = []

    def op(self, k: int, tracer) -> tuple[float, float]:
        """Normalised and raw time of op k; both raw when traced."""
        norm, wall, ok = 0.0, 0.0, True
        for label, argv in self.workload.calls(k):
            if tracer is None:
                elapsed, raw, error = run_call(argv, clocked=True)
            else:
                with tracer, tracer.span(f"cli.{label.split(':')[0]}"):
                    elapsed, raw, error = run_call(argv, clocked=False)
            self.attempted += 1
            norm += elapsed
            wall += raw
            if tracer is None:
                self.call_walls[label].append(elapsed)
            errors = [error] if error else []
            if not error:
                try:
                    errors = self.workload.check(k, label)
                except Exception as exc:  # malformed output: a failed check
                    errors = [f"checking {label} raised {exc!r}"]
            if errors:
                ok = False
                self.failures.append(f"op {k} {label}{' (traced)' if tracer else ''}: {errors[0]}")
        if ok and tracer is None:
            self.rates.append(self.workload.work(k) / norm)
        return norm, wall

    def loop(self, seconds: float) -> None:
        from tracer import Tracer

        start = time.perf_counter()
        rounds: list[float] = []
        k = 0
        while k < MIN_OPS or time.perf_counter() - start + statistics.median(rounds) <= seconds:
            round_start = time.perf_counter()
            norm, wall = self.op(k, None)
            self.op_times.append(norm)
            self.op_walls.append(wall)
            if self.traced:
                tracer = Tracer()
                self.traced_walls.append(self.op(k, tracer)[1])
                self.tracers.append(tracer)
            rounds.append(time.perf_counter() - round_start)
            k += 1

    def end_to_end(self, setup_s: float) -> dict:
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(self.op_times), "s"),
            "work_per_s": (statistics.median(self.rates) if self.rates else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }

    def named(self) -> dict:
        """The workload's own names for its numbers, for the human reader."""
        out = {f"{self.workload.work_unit}_per_s": statistics.median(self.rates) if self.rates else 0.0}
        by_command = defaultdict(list)  # "select-features:car" counts as select-features
        for label, walls in self.call_walls.items():
            by_command[label.split(":")[0]] += walls
        for command, walls in by_command.items():
            out[f"{command.replace('-', '_')}_s"] = statistics.median(walls)
        out["error_rate"] = len(self.failures) / self.attempted
        out["raw_wall_s"] = statistics.median(self.op_walls)
        return out


def layer_metrics(run: Run) -> dict:
    """Per-module numbers per traced operation (see README.md for the map
    from each to the end-to-end metric it should move)."""
    import numpy as np

    calls, total, self_time, errors, counts = Counter(), Counter(), Counter(), Counter(), Counter()
    for t in run.tracers:
        calls.update(t.calls)
        total.update(t.total)
        self_time.update(t.self_time)
        errors.update(t.errors)
        counts.update(t.counts)
    n = len(run.tracers)
    steps = [d for t in run.tracers for d in t.durations("engine.step")]
    evals = [d for t in run.tracers for d in t.durations("calibrate.fitness_sfm")]

    def ms(values: list[float], q: float) -> float:
        return float(np.percentile(values, q)) * 1e3 if values else 0.0

    zone = ("scene.in_intersection_zone", "scene.in_road_zone")
    writers = ("engine.write_trace_csv", "engine.write_decisions_csv", "engine.write_features_csv")
    per_op = {
        "engine.runs": calls["engine.run_scenario"] + calls["calibrate.run_scenario"],
        "engine.step_count": calls["engine.step"],
        "engine.step_self_s": self_time["engine.step"],
        "engine.write_csv_s": sum(total[w] for w in writers),
        "forces.agent_repulsion_calls": calls["forces.agent_repulsion"],
        "forces.agent_repulsion_s": total["forces.agent_repulsion"],
        "forces.integrate_step_calls": calls["forces.integrate_step"],
        "forces.integrate_step_s": total["forces.integrate_step"],
        "forces.stopping_corridor_s": total["forces.in_stopping_corridor"],
        "conflicts.recognize_calls": calls["conflicts.recognize_conflicts"],
        "conflicts.recognize_s": total["conflicts.recognize_conflicts"],
        "conflicts.classify_s": total["conflicts.classify_conflict"],
        "conflicts.created": counts["conflicts.created"],
        "scene.zone_tests": sum(calls[z] for z in zone),
        "scene.zone_test_s": sum(total[z] for z in zone),
        "game.games_solved": calls["game.solve_spne"],
        "game.solve_s": total["game.build_payoff_matrix"] + total["game.solve_spne"],
        "game.extract_features_s": total["game.extract_features"],
        "game.apply_action_s": total["game.apply_action"],
        "planner.graph_builds": calls["planner.build_visibility_graph"],
        "planner.graph_build_s": total["planner.build_visibility_graph"],
        "planner.plan_path_calls": calls["planner.plan_path"],
        "planner.plan_path_s": total["planner.plan_path"],
        "calibrate.sim_runs": calls["calibrate.run_scenario"],
        "calibrate.sim_steps": counts["calibrate.sim_steps"],
        "calibrate.sim_s": total["calibrate.run_scenario"],
        "calibrate.score_s": total["calibrate.position_error_score"] + total["calibrate.trace_positions"],
        "calibrate.ga_self_s": self_time["calibrate.ga_optimize"],
        "calibrate.duplicate_evals": counts["calibrate.duplicate_evals"],
        "calibrate.failed_sims": sum(errors[name] for name in (
            "calibrate.run_scenario", "calibrate.position_error_score", "calibrate.trace_positions",
        )),
        "dataio.rows_read": counts["dataio.rows_read"],
        "dataio.load_trajectories_s": total["dataio.load_trajectories"],
        "dataio.compare_s": total["dataio.compare_trajectories"],
        "logit.fits": calls["logit.fit_multinomial_logit"],
        "logit.fit_s": total["logit.fit_multinomial_logit"],
    }
    metrics = {name: (value / n, "s/op" if name.endswith("_s") else "count/op") for name, value in per_op.items()}
    metrics["conflicts.yield"] = (
        counts["conflicts.created"] / calls["conflicts.recognize_conflicts"]
        if calls["conflicts.recognize_conflicts"] else 0.0,
        "ratio",
    )
    metrics["engine.step_ms_p50"] = (ms(steps, 50), "ms")
    metrics["engine.step_ms_p95"] = (ms(steps, 95), "ms")
    metrics["calibrate.eval_ms_p50"] = (ms(evals, 50), "ms")
    metrics["calibrate.eval_ms_p95"] = (ms(evals, 95), "ms")
    overheads = [t - u for t, u in zip(run.traced_walls, run.op_walls)]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s/op")
    return metrics


def print_shares(run: Run) -> None:
    """Inclusive share of traced wall time per wrapped function."""
    total = Counter()
    for t in run.tracers:
        total.update(t.total)
    wall = sum(run.traced_walls)
    for name, seconds in total.most_common():
        if not name.startswith("cli.") and seconds / wall >= 0.005:
            print(f"share {name} {100 * seconds / wall:.1f}%")


def main(argv: list[str]) -> int:
    ns = parse_args(argv)
    # Program, set-up processes and speed samples all share one core, so
    # the samples measure the core the work runs on.
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cores[:1])
    root = Path.cwd()
    src, data = root / "src", root / "data"
    needed = [src / "sharedspace" / "__init__.py", data / "scene.json", data / "trajectories.csv"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from the root of a sharedspace checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sharedspace

    if not Path(sharedspace.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported sharedspace from {sharedspace.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS, load_references

    out_root = root / ".perfbench"
    work_dir = out_root / f"{ns.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        reference = load_references()[ns.workload] if ns.seed == DEFAULT_SEED else None
        workload = WORKLOADS[ns.workload](ns.seed, data, work_dir, reference)
        workload.prepare()
        setup_s, raw_setup_s = measure_setup(workload, root)
        run = Run(workload, traced=bool(ns.trace))
        run.loop(ns.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("env " + json.dumps(environment(len(cores)), sort_keys=True))
    print(f"{ns.workload}: seed {ns.seed}, {len(run.op_walls)} operations, "
          f"{run.attempted} CLI calls, {len(run.failures)} failed")
    for message in run.failures:
        print(f"FAILED {message}")
    for message in sorted(workload.warnings):
        print(f"WARNING known defect, not counted as a failure: {message}")
    for name, value in run.named().items():
        print(f"{name} {value!r}")
    print(f"raw_setup_s {raw_setup_s!r}")
    if ns.trace:
        metrics = layer_metrics(run)
        print_shares(run)
        spans = out_root / "spans" / f"{ns.workload}-seed{ns.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text("".join(
            json.dumps({"op": k, **s}) + "\n"
            for k, tracer in enumerate(run.tracers)
            for s in tracer.span_records()
        ))
    else:
        metrics = run.end_to_end(setup_s)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
