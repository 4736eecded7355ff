#!/usr/bin/env python3
"""Calibrate motion and decision parameters against a trajectory dataset.

Two genetic-algorithm rounds, both run through the sharedspace CLI:
`calibrate-sfm` fits the twelve motion genes by minimising the mean
position error between replayed and observed trajectories, then
`calibrate-game` fits the six decision-utility genes by maximising
agreement with the annotated decisions, replayed with the motion
parameters round 1 fitted. Each round writes manifest.json (gene names,
bounds, train/test scores), history.csv and best_params.json to its own
subdirectory, <out-dir>/sfm and <out-dir>/game; game/best_params.json
carries both fitted gene sets.

The exit code is the CLI's: round 1's if it fails (round 2 is then not
run), otherwise round 2's. Defaults are sized for the bundled synthetic
dataset (about 55 s on a 2-vCPU Xeon host) — raise
--population/--generations for real work.

Usage: python3 scripts/run_calibration.py [--data-dir data] [--out-dir calib_out]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from sharedspace import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", default="data")
    parser.add_argument("--out-dir", default="calib_out")
    parser.add_argument("--regime", default="hbs", choices=["hbs", "dut"])
    parser.add_argument("--population", type=int, default=24)
    parser.add_argument("--generations", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-fraction", type=float, default=0.66)
    args = parser.parse_args()

    data = Path(args.data_dir)
    out = Path(args.out_dir)
    common = [
        "--scene", str(data / "scene.json"),
        "--trajectories", str(data / "trajectories.csv"),
        "--population", str(args.population),
        "--generations", str(args.generations),
        "--seed", str(args.seed),
        "--train-fraction", str(args.train_fraction),
    ]
    code = cli.main([
        "calibrate-sfm", *common, "--regime", args.regime, "--out-dir", str(out / "sfm"),
    ])
    if code != cli.EXIT_OK:
        return code
    return cli.main([
        "calibrate-game", *common,
        "--annotations", str(data / "annotations.csv"),
        "--params", str(out / "sfm" / "best_params.json"),
        "--out-dir", str(out / "game"),
    ])


if __name__ == "__main__":
    sys.exit(main())
