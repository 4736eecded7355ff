"""Set-up probe: import sharedspace and load one workload's inputs with
the package's public loaders, then exit. run.py starts fresh processes
of this script; each times its own imports and loads with a RefClock
(see refclock.py) and prints the normalised and the raw seconds as one
JSON line.

Usage: python3 perfbench/setup_probe.py scenario|calibration|trajectories PATH...
(with the checkout's src/ on PYTHONPATH)
"""

import json
import sys

from refclock import RefClock

kind, paths = sys.argv[1], sys.argv[2:]
if kind not in ("scenario", "calibration", "trajectories"):
    sys.exit(f"unknown input kind {kind!r}")
with RefClock() as clock:
    import sharedspace.cli  # noqa: F401  (the entry point every workload drives)
    from sharedspace.calibrate import build_calibration_set
    from sharedspace.dataio import load_trajectories
    from sharedspace.engine import load_scenario
    from sharedspace.scene import load_scene

    if kind == "scenario":
        load_scene(paths[0])
        load_scenario(paths[1])
    elif kind == "calibration":
        load_scene(paths[0])
        build_calibration_set(load_trajectories(paths[1]))
    else:
        for path in paths:
            load_trajectories(path)
print(json.dumps({"seconds": clock.seconds, "wall": clock.wall}))
