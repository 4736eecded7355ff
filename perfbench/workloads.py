"""The benchmark workloads.

A workload generates its inputs from the seed (untimed), then runs
operations: op k is a fixed list of CLI calls through
`sharedspace.cli.main`. After each call, untimed, it checks the call's
outputs and returns the failure messages.
"""

from __future__ import annotations

import json
from pathlib import Path

import gen
from checks import (
    calibration_invariants,
    compare_crowd,
    compare_values,
    decision_invariants,
    decision_sequence,
    evaluate_invariants,
    evaluate_summary,
    logit_invariants,
    model_coefficients,
    model_format_errors,
    read_rows,
    trace_invariants,
    trace_reference,
)

DEFAULT_SEED = 0
REFERENCES = Path(__file__).resolve().parent / "references" / "seed0.json"


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


class Workload:
    name = ""
    work_unit = ""
    # The set-up probe's loader and its input keys, see setup_probe.py.
    probe = ("", ())

    # How many ops record_references.py records: ops that repeat the same
    # inputs need one.
    reference_ops = 1

    def __init__(self, seed: int, data_dir: Path, work_dir: Path, reference=None) -> None:
        self.seed = seed
        self.data_dir = data_dir
        self.work_dir = work_dir
        self.out = work_dir / "out"
        self.inputs: dict[str, Path] = {}
        self.reference = reference
        # Known output defects that are reported but not counted as failures.
        self.warnings: set[str] = set()

    def prepare(self) -> None:
        raise NotImplementedError

    def calls(self, k: int) -> list[tuple[str, list[str]]]:
        """(label, argv) of each CLI call in op k."""
        raise NotImplementedError

    def check(self, k: int, label: str) -> list[str]:
        """Failure messages for the outputs of call `label` of op k."""
        raise NotImplementedError

    def work(self, k: int) -> int:
        """Units of work op k did, in `work_unit`."""
        raise NotImplementedError

    def record(self, k: int):
        """The reference values of op k at the default seed."""
        raise NotImplementedError

    def probe_args(self) -> list[str]:
        kind, keys = self.probe
        return [kind] + [str(self.inputs[key]) for key in keys]


class Crowd(Workload):
    """`simulate` of a steady two-way crowd on the bundled square. Every
    op repeats the same scenario; forces dominate."""

    name = "crowd"
    work_unit = "agent_steps"
    probe = ("scenario", ("scene", "scenario"))

    def prepare(self) -> None:
        self.inputs = gen.write_crowd(self.seed, self.data_dir, self.work_dir)
        self._first: dict[str, bytes] | None = None
        self._rows: dict[int, int] = {}

    def calls(self, k: int) -> list[tuple[str, list[str]]]:
        return [("simulate", [
            "simulate", "--scene", str(self.inputs["scene"]),
            "--scenario", str(self.inputs["scenario"]), "--out-dir", str(self.out),
            "--max-steps", str(gen.CROWD_STEPS),
        ])]

    def _outputs(self):
        rows = read_rows(self.out / "trace.csv")
        decisions = read_rows(self.out / "decisions.csv")
        manifest = json.loads((self.out / "manifest.json").read_text())
        return rows, decisions, manifest

    def check(self, k: int, label: str) -> list[str]:
        from sharedspace.scene import load_scene

        rows, decisions, manifest = self._outputs()
        self._rows[k] = len(rows)
        b = load_scene(self.inputs["scene"]).bounds
        errors = trace_invariants(rows, (b.x_min, b.y_min, b.x_max, b.y_max))
        errors += decision_invariants(decisions, rows, manifest["conflicts"])
        files = {n: (self.out / n).read_bytes() for n in ("trace.csv", "decisions.csv", "features.csv")}
        if self._first is None:
            self._first = files
        elif files != self._first:
            errors.append("a repeat of the same scenario gave different outputs")
        if self.reference is not None:
            errors += compare_crowd(rows, decisions, manifest, self.reference)
        return errors

    def work(self, k: int) -> int:
        return self._rows[k]

    def record(self, k: int) -> dict:
        rows, decisions, manifest = self._outputs()
        every = 5
        return {
            "conflicts": manifest["conflicts"],
            "steps_run": manifest["steps_run"],
            "rows": len(rows),
            "decisions": decision_sequence(decisions),
            "every": every,
            "positions": trace_reference(rows, every),
        }


class Calibrate(Workload):
    """`calibrate-sfm` on the bundled 5-scenario dataset, all scenarios
    in training, `--jobs 1`. Op k runs the GA with seed 1000*seed + k, so
    one run averages over several GA trajectories."""

    name = "calibrate"
    work_unit = "evals"
    probe = ("calibration", ("scene", "trajectories"))
    population = 12
    generations = 2
    reference_ops = 16

    def prepare(self) -> None:
        self.inputs = {
            "scene": self.data_dir / "scene.json",
            "trajectories": self.data_dir / "trajectories.csv",
        }

    @property
    def evaluations(self) -> int:
        return self.population + self.generations * (self.population - 1)

    def calls(self, k: int) -> list[tuple[str, list[str]]]:
        return [("calibrate-sfm", [
            "calibrate-sfm", "--scene", str(self.inputs["scene"]),
            "--trajectories", str(self.inputs["trajectories"]), "--out-dir", str(self.out),
            "--population", str(self.population), "--generations", str(self.generations),
            "--train-fraction", "1", "--jobs", "1", "--seed", str(1000 * self.seed + k),
        ])]

    def _rescore(self) -> float:
        """fitness_sfm of the saved best parameters on the training set."""
        from sharedspace.calibrate import build_calibration_set, fitness_sfm, sfm_reference_values
        from sharedspace.dataio import load_trajectories
        from sharedspace.params import ParameterSet, load_parameter_set
        from sharedspace.scene import load_scene

        genes = sfm_reference_values(load_parameter_set(self.out / "best_params.json").sfm)
        training = build_calibration_set(load_trajectories(self.inputs["trajectories"]))
        return fitness_sfm(genes, training, load_scene(self.inputs["scene"]), ParameterSet.defaults("hbs"))

    def check(self, k: int, label: str) -> list[str]:
        errors = calibration_invariants(self.out, self.evaluations, self._rescore())
        refs = self.reference or []
        if k < len(refs):
            best = json.loads((self.out / "manifest.json").read_text())["best_fitness"]
            errors += compare_values({"best_fitness": best}, {"best_fitness": refs[k]}, f"op {k}")
        return errors

    def work(self, k: int) -> int:
        return self.evaluations

    def record(self, k: int) -> float:
        return json.loads((self.out / "manifest.json").read_text())["best_fitness"]


class Obstacles(Calibrate):
    """`calibrate-sfm` with a small GA budget on a seeded scene of box
    obstacles that block straight routes; every evaluation re-plans, so
    the planner dominates."""

    name = "obstacles"
    population = 3
    generations = 1
    reference_ops = 6

    def prepare(self) -> None:
        self.inputs = gen.write_obstacles(self.seed, self.data_dir, self.work_dir)


class Analysis(Workload):
    """`evaluate` of one crowd trace against another, then
    `select-features` for cars and for pedestrians on a seeded
    observation table. Every op repeats the same inputs."""

    name = "analysis"
    work_unit = "calls"
    probe = ("trajectories", ("real", "sim"))
    subjects = ("car", "ped")

    def prepare(self) -> None:
        self.inputs = gen.write_analysis(self.seed, self.work_dir)
        self._first: dict[str, bytes] = {}

    def calls(self, k: int) -> list[tuple[str, list[str]]]:
        return [("evaluate", [
            "evaluate", "--real", str(self.inputs["real"]), "--sim", str(self.inputs["sim"]),
            "--out", str(self.out / "evaluate"),
        ])] + [
            (f"select-features:{subject}", [
                "select-features", "--observations", str(self.inputs["observations"]),
                "--subject", subject, "--out-dir", str(self.out / subject),
            ])
            for subject in self.subjects
        ]

    def _select(self, subject: str) -> dict:
        out = self.out / subject
        manifest = json.loads((out / "manifest.json").read_text())
        return {"coefficients": model_coefficients(out), "eliminated": manifest["eliminated"]}

    def check(self, k: int, label: str) -> list[str]:
        if label == "evaluate":
            out, name = self.out / "evaluate", "report.csv"
            errors = evaluate_invariants(out, gen.ANALYSIS_AGENTS)
            if self.reference is not None:
                errors += compare_values(evaluate_summary(out), self.reference["evaluate"], "evaluate")
        else:
            subject = label.split(":")[1]
            out, name = self.out / subject, "model.csv"
            errors = logit_invariants(out, gen.LOGIT_TRUTH[subject])
            self.warnings.update(model_format_errors(out))
            if self.reference is not None:
                got, want = self._select(subject), self.reference[subject]
                errors += compare_values(got["coefficients"], want["coefficients"], f"{subject} logit")
                if got["eliminated"] != want["eliminated"]:
                    errors.append(f"{subject} elimination order {got['eliminated']} differs from the reference")
        data = (out / name).read_bytes()
        if self._first.setdefault(label, data) != data:
            errors.append(f"a repeat of {label} on the same inputs gave different outputs")
        return errors

    def work(self, k: int) -> int:
        return len(self.calls(k))

    def record(self, k: int) -> dict:
        refs = {"evaluate": evaluate_summary(self.out / "evaluate")}
        refs.update({subject: self._select(subject) for subject in self.subjects})
        return refs


WORKLOADS = {w.name: w for w in (Crowd, Calibrate, Obstacles, Analysis)}
