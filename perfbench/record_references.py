#!/usr/bin/env python3
"""Record the default-seed references that the output checks compare
against, from the program as it stands. Run from the checkout root:

    python3 perfbench/record_references.py [WORKLOAD...]

Runs each named workload's (default: all) first ops at the default seed, requires every
invariant check to pass, and writes perfbench/references/seed0.json
(calibrate and obstacles: the best fitness of each recorded op, whose
GA seed differs; crowd and analysis: the outputs of op 0, which every
op repeats). Entries of workloads not named are kept.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from run import run_call
    from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS

    names = sys.argv[1:] or list(WORKLOADS)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for name in names:
        cls = WORKLOADS[name]
        work_dir = root / ".perfbench" / f"record-{name}-{os.getpid()}"
        work_dir.mkdir(parents=True)
        try:
            workload = cls(DEFAULT_SEED, root / "data", work_dir)
            workload.prepare()
            recorded = []
            for k in range(workload.reference_ops):
                for label, argv in workload.calls(k):
                    *_, error = run_call(argv)
                    errors = [error] if error else workload.check(k, label)
                    if errors:
                        raise SystemExit(f"{name} op {k} {label}: {errors[0]}")
                recorded.append(workload.record(k))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        refs[name] = recorded if workload.reference_ops > 1 else recorded[0]
        print(f"{name}: recorded {len(recorded)} op(s)")
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
