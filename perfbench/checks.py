"""Output checks for the benchmark operations.

Each check returns a list of failure messages; an empty list means the
output passed. Invariants hold at any seed; reference comparisons apply
at the default seed, against values recorded by record_references.py.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

# Positions are compared to the recorded reference to this many metres;
# GA best fitness, evaluate metrics and logit coefficients to this
# relative tolerance. Conflict and decision sequences must match exactly.
POSITION_TOL = 1e-6
VALUE_RTOL = 1e-9


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rtol: float = VALUE_RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def trace_invariants(rows: list[dict[str, str]], bounds: tuple[float, float, float, float]) -> list[str]:
    """Every position is finite and inside the scene bounds."""
    x0, y0, x1, y1 = bounds
    errors = []
    for row in rows:
        x, y = float(row["x"]), float(row["y"])
        if not (math.isfinite(x) and math.isfinite(y)):
            errors.append(f"non-finite position for {row['agent_id']} at frame {row['frame']}")
        elif not (x0 <= x <= x1 and y0 <= y <= y1):
            errors.append(f"{row['agent_id']} at frame {row['frame']} is outside the scene bounds")
    if not rows:
        errors.append("empty trace")
    return errors


def decision_invariants(
    decisions: list[dict[str, str]], trace: list[dict[str, str]], n_conflicts: int
) -> list[str]:
    """Every decision refers to a conflict that was created (ids count up
    from 0; the crowd scenes have no road zone, so no conflict is ever
    merged away) and to an agent present in the trace at that step, and
    no agent decides twice in one conflict."""
    present = {(row["frame"], row["agent_id"]) for row in trace}
    seen = set()
    errors = []
    for d in decisions:
        cid = int(d["conflict_id"])
        if not 0 <= cid < n_conflicts:
            errors.append(f"decision refers to unknown conflict {cid}")
        if (d["step"], d["agent_id"]) not in present:
            errors.append(f"decision by {d['agent_id']} at step {d['step']}, absent from the trace")
        if (cid, d["agent_id"]) in seen:
            errors.append(f"{d['agent_id']} decides twice in conflict {cid}")
        seen.add((cid, d["agent_id"]))
    return errors


def trace_reference(rows: list[dict[str, str]], every: int) -> list[list]:
    """The trace rows of every `every`-th frame, as stored in a reference."""
    return [
        [int(r["frame"]), r["agent_id"], float(r["x"]), float(r["y"])]
        for r in rows
        if int(r["frame"]) % every == 0
    ]


def decision_sequence(decisions: list[dict[str, str]]) -> list[list]:
    return [[int(d["step"]), int(d["conflict_id"]), d["agent_id"], d["action"]] for d in decisions]


def compare_crowd(
    rows: list[dict[str, str]], decisions: list[dict[str, str]], manifest: dict, ref: dict
) -> list[str]:
    """A simulate output against its reference: conflict count, steps and
    decision sequence exactly, sampled positions within POSITION_TOL."""
    errors = []
    if manifest["conflicts"] != ref["conflicts"] or manifest["steps_run"] != ref["steps_run"]:
        errors.append(
            f"conflicts/steps {manifest['conflicts']}/{manifest['steps_run']}, "
            f"reference {ref['conflicts']}/{ref['steps_run']}"
        )
    if decision_sequence(decisions) != ref["decisions"]:
        errors.append("decision sequence differs from the reference")
    if len(rows) != ref["rows"]:
        errors.append(f"{len(rows)} trace rows, reference {ref['rows']}")
    sampled = trace_reference(rows, ref["every"])
    if [r[:2] for r in sampled] != [r[:2] for r in ref["positions"]]:
        errors.append("sampled trace rows differ from the reference")
    else:
        for got, want in zip(sampled, ref["positions"]):
            if math.hypot(got[2] - want[2], got[3] - want[3]) > POSITION_TOL:
                errors.append(f"{got[1]} at frame {got[0]} moved from the reference position")
                break
    return errors


def calibration_invariants(out_dir: Path, expected_evaluations: int, rescored: float) -> list[str]:
    """A calibrate-sfm output: the promised number of evaluations, a
    finite best fitness below the failure penalty that never worsens
    across generations, and re-scoring the best genes reproduces it."""
    from sharedspace.calibrate import SCENARIO_FAILURE_PENALTY

    manifest = json.loads((out_dir / "manifest.json").read_text())
    best = manifest["best_fitness"]
    errors = []
    if manifest["evaluations"] != expected_evaluations:
        errors.append(f"{manifest['evaluations']} evaluations, expected {expected_evaluations}")
    if not (math.isfinite(best) and best < SCENARIO_FAILURE_PENALTY):
        errors.append(f"best fitness {best} is not a finite score")
    history = [float(r["best_fitness"]) for r in read_rows(out_dir / "history.csv")]
    if any(b > a for a, b in zip(history, history[1:])) or not history or history[-1] != best:
        errors.append("best fitness in history.csv is not monotone or ends off the reported best")
    if not close(rescored, best):
        errors.append(f"re-scoring the best genes gives {rescored}, reported {best}")
    return errors


def evaluate_invariants(out_dir: Path, n_agents: int) -> list[str]:
    """An evaluate output: every agent matched, finite positive errors."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    report = read_rows(out_dir / "report.csv")
    errors = []
    if manifest["unmatched_agents"] != 0 or len(report) != n_agents:
        errors.append(f"{len(report)} agents reported, {manifest['unmatched_agents']} unmatched")
    for row in report:
        if not (math.isfinite(float(row["ade"])) and float(row["ade"]) > 0.0):
            errors.append(f"agent {row['agent_id']}: ade {row['ade']}")
            break
    return errors


def evaluate_summary(out_dir: Path) -> dict[str, float]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {
        f"{kind}.{key}": value
        for kind in ("pedestrian", "car")
        for key, value in sorted(manifest[kind].items())
    }


# With numpy >= 2, select-features writes model.csv numbers as numpy
# scalar reprs, e.g. `np.float64(0.99)`: a defect of the program that
# `model_format_errors` reports. The value checks read the number inside.
_NUMPY_SCALAR = re.compile(r"np\.float64\((.*)\)")


def csv_number(field: str) -> float:
    match = _NUMPY_SCALAR.fullmatch(field)
    return float(match.group(1) if match else field)


def model_coefficients(out_dir: Path) -> dict[str, float]:
    return {
        f"{r['outcome']}.{r['feature']}": csv_number(r["coefficient"])
        for r in read_rows(out_dir / "model.csv")
    }


def model_format_errors(out_dir: Path) -> list[str]:
    """model.csv numbers that are not plain decimal numbers."""
    bad = [
        field
        for r in read_rows(out_dir / "model.csv")
        for field in (r["coefficient"], r["std_error"], r["p_value"])
        if _NUMPY_SCALAR.fullmatch(field)
    ]
    return ["model.csv writes its numbers as numpy scalar reprs, e.g. np.float64(0.5)"] if bad else []


def logit_invariants(out_dir: Path, truth: dict[str, dict[str, float]], max_error: float = 0.5) -> list[str]:
    """A select-features output against the generating model `truth`
    (outcome -> feature -> coefficient): every feature with a true
    effect is retained, and each of its coefficients lies within
    `max_error` of the truth (over ten standard errors at the generated
    table size)."""
    coef = model_coefficients(out_dir)
    features = sorted({name for effects in truth.values() for name in effects})
    errors = []
    for outcome, effects in truth.items():
        for name in features:
            got = coef.get(f"{outcome}.{name}")
            want = effects.get(name, 0.0)
            if got is None:
                errors.append(f"feature {name} with a true effect was eliminated")
            elif abs(got - want) > max_error:
                errors.append(f"{outcome} coefficient of {name} is {got}, true value {want}")
    return errors


def compare_values(got: dict[str, float], want: dict[str, float], what: str) -> list[str]:
    if sorted(got) != sorted(want):
        return [f"{what}: keys {sorted(got)} differ from the reference {sorted(want)}"]
    return [
        f"{what}: {key} is {got[key]!r}, reference {want[key]!r}"
        for key in sorted(want)
        if not close(got[key], want[key])
    ]
