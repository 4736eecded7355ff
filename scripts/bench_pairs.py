#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs.

Usage:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N --tag T
        [--seconds 20] [--out-dir .] [--about TEXT]

PARENT and CHANGE are the roots of two checkouts. Each pair runs
`python3 perfbench/run.py --workload W --seed S --seconds SECONDS
--trace 0` once in each checkout, with that checkout's own benchmark;
the side that runs first alternates from pair to pair, so that a drift
of the host's speed falls on both sides alike. The last JSON line of
every run is kept.

The results go to BENCH_<T>.json in --out-dir, in the layout of the
committed BENCH_*.json files:

- `about`: what was run;
- `host`: the `env` line perfbench printed;
- `summary`: per `W@seedS` and per end-to-end metric, the median of each
  side, numpy's linear quartiles of each side and the parent's IQR, the
  ratio of the medians (change / parent), in how many pairs the
  change was better, by the metric's `better` in CHANGE's
  BENCHMARK.json (an equal value is no win), each side's share of
  failed ops (perfbench's `failed` over `attempted`, summed over its
  runs), and a `verdict`:
  - `regression`: the change failed a larger share of ops than the
    parent, or its median is worse than the parent's by more than the
    metric's relative `bound`;
  - `gain`: the change won at least 9 in 10 pairs, and its median is
    better than the parent's by more than the parent's IQR;
  - `unresolved`: the parent's IQR is wider than that bound;
  - `unchanged`: none of these;
- `runs`: every run, with its side, pair and result.

A file that exists already keeps its other workloads and seeds: the
summary and runs of W at seed S are replaced, and `about` is extended.
Exit codes: 0 on success, 2 for a checkout that is not one, 3 when a
run fails to give a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

SIDES = ("parent", "change")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--about", default="", help="a sentence on what is compared")
    ns = parser.parse_args(argv)
    if ns.pairs < 1 or ns.seconds <= 0 or ns.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    return ns


def summarize(
    runs: Iterable[Mapping], better: Mapping[str, str], bounds: Mapping[str, float] | None = None
) -> dict:
    """Per end-to-end metric in `better` ("lower" or "higher"): both
    sides' medians, linear quartiles and runs in pair order, the
    parent's IQR, the ratio of the medians, the pairs the change won and
    the verdict, with the metric's relative bound from `bounds` (a
    metric with none is a regression only by failed ops, and never
    unresolved), and each side's share of failed ops. Each run is
    {"side", "pair", "result"}, the result being perfbench's last JSON
    line; every pair must have one run on each side."""
    by_pair: dict[int, dict[str, Mapping]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [by_pair[k] for k in sorted(by_pair)]
    if any(set(p) != set(SIDES) for p in pairs):
        raise ValueError("every pair needs one parent and one change run")
    all_correct = all(p[side]["correct"] for p in pairs for side in SIDES)
    failed_share = {}
    for side in SIDES:
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed_share[side] = sum(p[side]["failed"] for p in pairs) / attempted if attempted else 0.0
    more_failed = failed_share["change"] > failed_share["parent"]
    summary = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        quartiles = {side: np.percentile(values[side], [25, 75]).tolist() for side in SIDES}
        medians = {side: float(np.median(values[side])) for side in SIDES}
        if direction == "lower":
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        else:
            wins = sum(c > p for p, c in zip(values["parent"], values["change"]))
        iqr = quartiles["parent"][1] - quartiles["parent"][0]
        gain = medians["change"] - medians["parent"]
        gain = -gain if direction == "lower" else gain
        bound = (bounds or {}).get(name, math.inf) * abs(medians["parent"])
        if more_failed or -gain > bound:
            verdict = "regression"
        elif wins >= 0.9 * len(pairs) and gain > iqr:
            verdict = "gain"
        elif iqr > bound:
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        summary[name] = {
            "parent_median": medians["parent"],
            "change_median": medians["change"],
            "ratio": medians["change"] / medians["parent"],
            "parent_iqr": iqr,
            "parent_quartiles": quartiles["parent"],
            "change_quartiles": quartiles["change"],
            "parent_runs": values["parent"],
            "change_runs": values["change"],
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "all_correct": all_correct,
            "parent_failed_share": failed_share["parent"],
            "change_failed_share": failed_share["change"],
            "verdict": verdict,
        }
    return summary


def run_side(root: Path, ns: argparse.Namespace) -> tuple[dict, dict]:
    """perfbench's result and `env` line for one run in checkout `root`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", ns.workload, "--seed", str(ns.seed),
           "--seconds", repr(ns.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{root}: perfbench/run.py exited {proc.returncode}: {tail}")
    host = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), host


def main(argv: list[str]) -> int:
    ns = parse_args(argv)
    for root in (ns.parent, ns.change):
        if not (root / "perfbench" / "run.py").is_file():
            print(f"error: {root} has no perfbench/run.py", file=sys.stderr)
            return 2
    spec = json.loads((ns.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    runs, host = [], {}
    for pair in range(1, ns.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            try:
                result, host = run_side(ns.parent if side == "parent" else ns.change, ns)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
            runs.append({"workload": ns.workload, "seed": ns.seed, "side": side, "pair": pair,
                         "trace": 0, "result": result})
            print(f"pair {pair} {side}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    key = f"{ns.workload}@seed{ns.seed}"
    path = ns.out_dir / f"BENCH_{ns.tag}.json"
    bench = json.loads(path.read_text()) if path.exists() else {"about": "", "host": {}, "summary": {}, "runs": []}
    line = (f"{key}: {ns.pairs} alternating pairs of `python3 perfbench/run.py --workload {ns.workload} "
            f"--seed {ns.seed} --seconds {ns.seconds:g} --trace 0`, parent then change in odd pairs. "
            f"{ns.about}").strip()
    bench["about"] = "\n".join(x for x in (bench.get("about", ""), line) if x)
    bench["host"] = host
    bench["summary"][key] = summarize(runs, better, bounds)
    bench["runs"] = [r for r in bench["runs"] if (r["workload"], r["seed"]) != (ns.workload, ns.seed)] + runs
    path.write_text(json.dumps(bench, indent=1) + "\n")
    for name, s in bench["summary"][key].items():
        print(f"{key} {name}: {s['parent_median']:.6g} -> {s['change_median']:.6g} "
              f"(x{s['ratio']:.4f}, better in {s['change_better_pairs']}/{s['pairs']}, "
              f"parent IQR {s['parent_iqr']:.4g}): {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
