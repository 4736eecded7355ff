"""Command-line entry point.

Subcommands: simulate, evaluate, calibrate-sfm, calibrate-game,
select-features, validate. Every run writes a manifest.json carrying
the resolved configuration, a config hash, input file hashes, the seed,
the tool version and the host (Python, numpy and its SIMD kernels, the
machine), so results can be reproduced bit-exactly on a like host. No
command writes to its input files.

Exit codes: 0 success, 2 configuration or input-format error, 3
scenario rejected by the simulator, 4 dataset alignment failure, 5
estimation failed to converge. Option precedence: values from a
--config JSON file override command-line flags, which override
defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, jsonin
from .calibrate import (
    GENE_NAMES,
    MAX_POPULATION,
    SCENARIO_FAILURE_PENALTY,
    CalibrationScenario,
    GaConfig,
    GaConfigError,
    SimulationMemo,
    build_calibration_set,
    decode,
    default_bounds,
    fitness_game,
    fitness_sfm,
    ga_optimize,
    train_test_split,
    write_history_csv,
)
from .dataio import (
    FEATURE_ID_COLUMNS,
    AlignmentError,
    MetricUndefinedError,
    TrajectoryFormatError,
    attach_decision_metrics,
    compare_trajectories,
    format_report_summary,
    load_annotations,
    load_decisions,
    load_trajectories,
    parse_action,
    read_columns,
    write_csv,
    write_metric_report,
)
from .engine import (
    ScenarioError,
    ScenarioRejectedError,
    Simulation,
    SimulationConfig,
    load_scenario,
    run_scenario,
    write_decisions_csv,
    write_features_csv,
    write_trace_csv,
)
from .game import Action
from .geometry import InvalidSceneError
from .logit import (
    ConvergenceError,
    RankDeficiencyError,
    backward_eliminate,
)
from .params import (
    ParameterFileError,
    ParameterSet,
    load_parameter_set,
    save_parameter_set,
)
from .scene import AgentKind, load_scene

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_ALIGNMENT = 4
EXIT_CONVERGENCE = 5


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG) -> None:
        super().__init__(message)
        self.code = code


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _host() -> dict:
    """What decides an output's last bits beside its inputs: numpy's
    `exp` and `log` round differently under different SIMD kernels."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "numpy_simd_baseline": list(umath.__cpu_baseline__),
        "numpy_simd_dispatched": [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)],
        "machine": platform.machine(),
    }


def _write_manifest(
    out_dir: Path,
    command: str,
    seed: int | None,
    config: dict,
    inputs: Sequence[Path],
    outputs: Sequence[str],
    extra: dict | None = None,
) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "config_sha256": _config_hash(config),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": list(outputs),
        "host": _host(),
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value read as its flag would read the same text:
    through the option's type, then checked against its choices."""
    bad = CliError(f"bad value {json.dumps(value)} for option {key!r}")
    if not isinstance(value, (str, int, float)) or isinstance(value, bool):
        raise bad
    # NaN and Infinity are not JSON; a NUL byte or a lone surrogate is no flag's text
    if isinstance(value, float) and not math.isfinite(value) or re.search("[\0\ud800-\udfff]", str(value)):
        raise bad
    try:
        converted = (action.type or str)(str(value))
    except (ValueError, argparse.ArgumentTypeError):
        raise bad from None
    if action.choices is not None and converted not in action.choices:
        raise bad
    return converted


def _apply_config_file(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Config-file keys override flags (dashes and underscores equivalent)."""
    if not getattr(ns, "config", None):
        return
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in commands.choices[ns.command]._actions}
    with jsonin.document(ns.config, CliError) as data:
        for key, value in data.items():
            dest = key.replace("-", "_")
            if dest in {"config", "help"} or dest not in actions:
                raise CliError(f"unknown option {key!r}")
            setattr(ns, dest, _config_value(actions[dest], key, value))


def _load_params(ns: argparse.Namespace) -> ParameterSet:
    if getattr(ns, "params", None):
        params = load_parameter_set(ns.params)
        if getattr(ns, "regime", None) and ns.regime != params.game.regime:
            params = dataclasses.replace(
                params, game=dataclasses.replace(params.game, regime=ns.regime)
            )
        return params
    return ParameterSet.defaults(getattr(ns, "regime", None) or "hbs")


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(ns: argparse.Namespace) -> int:
    scene = load_scene(ns.scene)
    scenario = load_scenario(ns.scenario)
    params = _load_params(ns)
    config = SimulationConfig(
        scene=scene,
        scenario=scenario,
        params=params,
        dt=ns.dt,
        max_steps=ns.max_steps,
        seed=ns.seed,
    )
    trace = run_scenario(config)
    out = _out_dir(ns.out_dir)
    write_trace_csv(trace, out / "trace.csv")
    write_decisions_csv(trace, out / "decisions.csv")
    write_features_csv(trace, out / "features.csv")
    inputs = [Path(ns.scene), Path(ns.scenario)] + ([Path(ns.params)] if ns.params else [])
    _write_manifest(
        out,
        "simulate",
        ns.seed,
        {
            "scene": ns.scene,
            "scenario": ns.scenario,
            "params": ns.params,
            "regime": params.game.regime,
            "dt": ns.dt,
            "max_steps": ns.max_steps,
        },
        inputs,
        ["trace.csv", "decisions.csv", "features.csv"],
        extra={
            "scenario_id": trace.scenario_id,
            "steps_run": trace.steps_run,
            "truncated": trace.truncated,
            "conflicts": len(trace.conflicts),
        },
    )
    print(f"simulated {trace.scenario_id}: {trace.steps_run} steps, "
          f"{len(trace.conflicts)} conflicts -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate

def _write_confusion_csv(confusion: dict, path: Path) -> None:
    write_csv(path, ["real\\sim", *(a.value for a in Action)], (
        f"{r.value}," + ",".join(str(confusion.get((r, s), 0)) for s in Action) for r in Action
    ))


def _cmd_evaluate(ns: argparse.Namespace) -> int:
    if ns.annotations and not ns.sim_decisions:
        raise CliError("--annotations requires --sim-decisions")
    if ns.sim_decisions and not ns.annotations:
        raise CliError("--sim-decisions requires --annotations")
    real = load_trajectories(ns.real)
    sim = load_trajectories(ns.sim)
    report = compare_trajectories(real, sim, frame_seconds=ns.dt)
    if not report.per_agent:
        raise AlignmentError("no agent in the real data matched the simulation")
    out = _out_dir(ns.out)
    write_metric_report(report, out / "report.csv")
    outputs = ["report.csv", "summary.txt"]
    missing: list = []
    if ns.annotations:
        annotations = load_annotations(ns.annotations)
        simulated = load_decisions(ns.sim_decisions)
        missing = attach_decision_metrics(report, annotations, simulated)
        if report.decision_error_rate is None:
            raise AlignmentError("no annotated decision matched a simulated one")
        _write_confusion_csv(report.confusion, out / "confusion.csv")
        outputs.append("confusion.csv")
    summary = format_report_summary(report)
    (out / "summary.txt").write_text(summary + "\n")
    inputs = [Path(ns.real), Path(ns.sim)]
    if ns.annotations:
        inputs += [Path(ns.annotations), Path(ns.sim_decisions)]
    _write_manifest(
        out,
        "evaluate",
        None,
        {
            "real": ns.real,
            "sim": ns.sim,
            "annotations": ns.annotations,
            "sim_decisions": ns.sim_decisions,
            "dt": ns.dt,
        },
        inputs,
        outputs,
        extra={
            "pedestrian": report.kind_stats(AgentKind.PEDESTRIAN),
            "car": report.kind_stats(AgentKind.CAR),
            "decision_error_rate": report.decision_error_rate,
            "unmatched_agents": len(report.unmatched_agents),
            "unmatched_annotations": len(missing),
        },
    )
    print(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibration (shared plumbing)

class _FitnessWorker:
    """Per-chromosome objective; picklable so `--jobs` can hand it to
    each pool process once. Its SimulationMemo plans the training
    scenarios' routes when the worker is built, which also builds the
    scene's obstacle index, so every copy carries both and no process
    re-plans or re-indexes; each copy then adds the scenario simulations
    it runs to its own memo."""

    def __init__(
        self,
        mode: str,
        training: list[CalibrationScenario],
        scene,
        base: ParameterSet,
        frame_seconds: float,
    ) -> None:
        self.mode = mode
        self.training = training
        self.scene = scene
        self.base = base
        self.frame_seconds = frame_seconds
        self.memo = SimulationMemo()
        for index, item in enumerate(training):
            self.memo.plan(index, item, scene)

    def __call__(self, genes: list[float]) -> float:
        args = (genes, self.training, self.scene, self.base, self.frame_seconds, self.memo)
        if self.mode == "sfm":
            return fitness_sfm(*args)
        return -fitness_game(*args)


# The objective of the GA run in progress in this process: set once per
# pool process by the pool's initializer (in-process for --jobs 1), so
# each task carries only its genes.
_installed_worker: _FitnessWorker | None = None


def _install_worker(worker: _FitnessWorker | None) -> None:
    global _installed_worker
    _installed_worker = worker


def _evaluate(genes: list[float]) -> float:
    return _installed_worker(genes)


def _run_ga(ns: argparse.Namespace, worker: _FitnessWorker, bounds) -> tuple:
    ga_config = GaConfig(
        population_size=ns.population,
        max_generations=ns.generations,
        seed=ns.seed,
        stagnation_window=ns.stagnation,
    )
    # A pool forks all its processes at once: no more than the cores, or
    # than the chromosomes that one batch can hand out.
    workers = min(ns.jobs, os.cpu_count() or 1, ns.population)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_install_worker, initargs=(worker,)
            )
            mapper = stack.enter_context(pool).map
        else:
            _install_worker(worker)
            stack.callback(_install_worker, None)
            mapper = map

        def batch(population: np.ndarray) -> np.ndarray:
            return np.array(list(mapper(_evaluate, population.tolist())), dtype=float)

        result = ga_optimize(bounds, batch, ga_config)
    return result, ga_config


def _prepare_training(ns: argparse.Namespace):
    scene = load_scene(ns.scene)
    records = load_trajectories(ns.trajectories)
    # only calibrate-game reads annotations, and it fits only annotated scenarios
    fits_decisions = hasattr(ns, "annotations")
    annotations = load_annotations(ns.annotations) if fits_decisions else ()
    items = build_calibration_set(records, annotations, frame_seconds=ns.dt)
    if fits_decisions:
        items = [item for item in items if item.annotations]
        if not items:
            raise CliError("no scenario carries decision annotations")
    if not items:
        raise CliError("no training scenarios")
    if len(items) > 1 and ns.train_fraction < 1.0:
        train, test = train_test_split(items, ns.train_fraction, ns.seed)
    else:
        train, test = items, []
    base = _load_params(ns)
    return scene, base, train, test


@dataclasses.dataclass(frozen=True)
class _Target:
    """What one calibrate-* command fits and how it reports the fit."""

    group: str  # the parameter group the genes fill, a key of GENE_NAMES
    score: str  # manifest keys best_<score> and test_<score>
    sign: float  # score = sign * the GA's minimum
    worst: float  # a run whose best score is this or worse has failed
    failure: str  # error message, formatted with the score
    report: str  # stdout line, formatted with the score


_TARGETS = {
    "calibrate-sfm": _Target(
        "sfm", "fitness", 1.0, SCENARIO_FAILURE_PENALTY,
        "calibration failed: every candidate scored the failure penalty (best {score})",
        "best positional error {score:.4f} m",
    ),
    "calibrate-game": _Target(
        "game", "agreement", -1.0, -1.0,
        "calibration failed: no candidate reproduced any decision (best agreement {score})",
        "best decision agreement {score:.4f}",
    ),
}


def _cmd_calibrate(ns: argparse.Namespace) -> int:
    target = _TARGETS[ns.command]
    scene, base, train, test = _prepare_training(ns)
    gene_names = GENE_NAMES[target.group]
    reference = getattr(base, target.group)
    bounds = default_bounds([getattr(reference, name) for name in gene_names], gene_names)
    worker = _FitnessWorker(target.group, train, scene, base, ns.dt)
    result, ga_config = _run_ga(ns, worker, bounds)
    score = target.sign * result.best_fitness
    # compared in the GA's terms, where lower is better
    if not math.isfinite(score) or result.best_fitness >= target.sign * target.worst:
        raise CliError(target.failure.format(score=score), EXIT_CONVERGENCE)
    best = decode(result.best_genes, base, target.group)
    out = _out_dir(ns.out_dir)
    save_parameter_set(best, out / "best_params.json")
    write_history_csv(result.history, out / "history.csv")
    test_score = (
        target.sign * _FitnessWorker(target.group, test, scene, base, ns.dt)(result.best_genes)
        if test
        else None
    )
    config = {
        "scene": ns.scene,
        "trajectories": ns.trajectories,
        "params": ns.params,
        "regime": base.game.regime,
        "dt": ns.dt,
        "train_fraction": ns.train_fraction,
        "jobs": ns.jobs,
        "ga": dataclasses.asdict(ga_config),
        "gene_names": list(gene_names),
        "bounds": bounds,
    }
    inputs = [Path(ns.scene), Path(ns.trajectories)]
    if hasattr(ns, "annotations"):
        config["annotations"] = ns.annotations
        inputs.append(Path(ns.annotations))
    _write_manifest(
        out,
        ns.command,
        ns.seed,
        config,
        inputs + ([Path(ns.params)] if ns.params else []),
        ["best_params.json", "history.csv"],
        extra={
            f"best_{target.score}": score,
            f"test_{target.score}": test_score,
            "evaluations": result.evaluations,
            "cache_hits": result.cache_hits,
            "stopped_early": result.stopped_early,
            "train_scenarios": [t.scenario.scenario_id for t in train],
            "test_scenarios": [t.scenario.scenario_id for t in test],
        },
    )
    print(target.report.format(score=score) + f" ({result.evaluations} evaluations) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# select-features

def _load_observations(path: Path, subject: str, wanted: list[str] | None):
    """The feature matrix, action labels and feature names (in file
    order) of the rows of `subject`; the rows of other subjects are
    dropped before any value is read, so the file needs a kind column.
    Each block of rows is typed as it is read."""
    feature_cols: list[str] = []

    def typed(block) -> dict:
        if not feature_cols:  # the first block: the header's names
            names = [c for c in block.columns if c not in FEATURE_ID_COLUMNS and c != "action"]
            unknown = set(wanted or ()) - set(names)
            if unknown:
                raise TrajectoryFormatError(f"{path}:1: unknown feature columns {sorted(unknown)}")
            feature_cols.extend(c for c in names if not wanted or c in wanted)
            if not feature_cols:
                raise TrajectoryFormatError(f"{path}:1: no feature columns")
        X = np.column_stack([block.convert(c, float, float, "non-numeric feature value") for c in feature_cols])
        block.flag(~np.isfinite(X).all(axis=1), "non-finite feature value")
        return {"X": X, "labels": block.convert("action", lambda token: parse_action(token).value)}

    table = read_columns(path, ("action", "kind"), exact=False, keep=("kind", subject), rules=typed)
    table.check()
    X, labels = table.columns["X"], table.columns["labels"]
    if not labels:
        raise TrajectoryFormatError(f"{path}: no rows for subject {subject!r}")
    return X, labels, feature_cols


def _drop_constant_columns(X: np.ndarray, names: list[str]):
    keep_idx = [j for j in range(X.shape[1]) if np.ptp(X[:, j]) > 0.0]
    dropped = [names[j] for j in range(X.shape[1]) if j not in keep_idx]
    return X[:, keep_idx], [names[j] for j in keep_idx], dropped


def _cmd_select_features(ns: argparse.Namespace) -> int:
    wanted = [s.strip() for s in ns.features.split(",") if s.strip()] if ns.features else None
    X, labels, names = _load_observations(Path(ns.observations), ns.subject, wanted)
    keep = [s.strip() for s in ns.keep.split(",") if s.strip()] if ns.keep else []
    unknown = set(keep) - set(names)
    if unknown:
        raise CliError(f"keep-list names unknown features: {sorted(unknown)}")
    X, names, dropped = _drop_constant_columns(X, names)
    constant = set(keep).intersection(dropped)
    if constant:
        raise CliError(f"keep-list names constant features, which cannot be fitted: {sorted(constant)}")
    if not names:
        raise CliError("all feature columns are constant; nothing to fit")
    outcomes = sorted(set(labels))
    if Action.CONTINUE.value not in outcomes:
        raise CliError(f"baseline 'continue' not present in outcomes {outcomes}")
    if len(outcomes) < 2:
        raise CliError("need at least two distinct outcomes")
    result = backward_eliminate(
        X, labels, baseline=Action.CONTINUE.value, feature_names=names,
        alpha=ns.alpha, keep=keep,
    )
    out = _out_dir(ns.out_dir)
    m = result.model
    write_csv(out / "model.csv", ("outcome", "feature", "coefficient", "std_error", "p_value"), (
        f"{outcome},{name},{float(m.coef[k, j])!r},{float(m.std_errors[k, j])!r},{float(m.p_values[k, j])!r}"
        for k, outcome in enumerate(m.outcomes)
        for j, name in enumerate(m.feature_names)
    ))
    write_csv(out / "elimination.csv", ("step", "feature", "p_value"), (
        f"{i},{step.feature},{step.p_value!r}" for i, step in enumerate(result.eliminated, start=1)
    ))
    _write_manifest(
        out,
        "select-features",
        None,
        {
            "observations": ns.observations,
            "subject": ns.subject,
            "alpha": ns.alpha,
            "keep": keep,
            "features": wanted,
        },
        [Path(ns.observations)],
        ["model.csv", "elimination.csv"],
        extra={
            "retained": list(result.retained),
            "eliminated": [s.feature for s in result.eliminated],
            "dropped_constant": dropped,
            "log_likelihood": m.log_likelihood,
            "n_obs": m.n_obs,
        },
    )
    order = " -> ".join(s.feature for s in result.eliminated) or "(none)"
    print(f"retained: {', '.join(result.retained)}; eliminated: {order}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate

def _cmd_validate(ns: argparse.Namespace) -> int:
    checked = []
    scene = load_scene(ns.scene)
    checked.append(f"scene {ns.scene}")
    params = None
    if ns.params:
        params = load_parameter_set(ns.params)
        checked.append(f"params {ns.params}")
    if ns.scenario:
        scenario = load_scenario(ns.scenario)
        config = SimulationConfig(
            scene=scene,
            scenario=scenario,
            params=params if params else ParameterSet.defaults(),
        )
        Simulation(config)  # plans every agent's path; raises if a goal is unreachable
        checked.append(f"scenario {ns.scenario} (all goals reachable)")
    print("ok: " + "; ".join(checked))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _checked(convert, holds, requirement: str):
    """An argparse type: the text read by `convert`, rejected unless the
    value `holds`. A --config value goes through the same check."""

    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_seconds = _checked(
    float, lambda v: v > 0.0 and math.isfinite(v), "must be a positive, finite number of seconds"
)
_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
_at_least_one = _checked(int, lambda v: v >= 1, "must be at least 1")
_population = _checked(int, lambda v: 2 <= v <= MAX_POPULATION,
                       f"must be at least 2 and at most {MAX_POPULATION}")
_seed = _checked(int, lambda v: v >= 0, "must be nonnegative")
_alpha = _checked(float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")


def _add_common_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", help="parameter set JSON (default: built-in values)")
    p.add_argument("--regime", choices=["hbs", "dut"], default=None,
                   help="parameter regime when no file is given; overrides the file's regime field")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dt", type=_seconds, default=0.5, help="seconds per step/frame")
    p.add_argument("--config", help="JSON file whose keys override the flags")


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--population", type=_population, default=50)
    p.add_argument("--generations", type=_at_least_one, default=200)
    p.add_argument("--stagnation", type=_at_least_one, default=30)
    p.add_argument("--train-fraction", type=_fraction, default=0.66)
    p.add_argument("--jobs", type=_at_least_one, default=1,
                   help="concurrent chromosome evaluations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharedspace",
        description="Shared-space traffic simulation, calibration and evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and write trace files")
    p.add_argument("--scene", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--max-steps", type=_at_least_one, default=400)
    _add_common_sim_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="compare recorded and simulated trajectories")
    p.add_argument("--real", required=True)
    p.add_argument("--sim", required=True)
    p.add_argument("--annotations", help="recorded decisions CSV")
    p.add_argument("--sim-decisions", help="decisions CSV from a simulate run")
    p.add_argument("--out", required=True)
    p.add_argument("--dt", type=_seconds, default=0.5)
    p.add_argument("--config", help="JSON file whose keys override the flags")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("calibrate-sfm", help="fit force/safety parameters to trajectories")
    p.add_argument("--scene", required=True)
    p.add_argument("--trajectories", required=True)
    p.add_argument("--out-dir", required=True)
    _add_common_sim_flags(p)
    _add_ga_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("calibrate-game", help="fit game weights to annotated decisions")
    p.add_argument("--scene", required=True)
    p.add_argument("--trajectories", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out-dir", required=True)
    _add_common_sim_flags(p)
    _add_ga_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("select-features", help="backward-eliminate decision-model features")
    p.add_argument("--observations", required=True,
                   help="features CSV (e.g. from simulate) with kind and action columns")
    p.add_argument("--subject", choices=["car", "ped"], required=True)
    p.add_argument("--alpha", type=_alpha, default=0.09)
    p.add_argument("--keep", default="", help="comma-separated features never dropped")
    p.add_argument("--features", default="", help="comma-separated feature subset to start from")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="JSON file whose keys override the flags")
    p.set_defaults(func=_cmd_select_features)

    p = sub.add_parser("validate", help="check scene/scenario/params files")
    p.add_argument("--scene", required=True)
    p.add_argument("--scenario")
    p.add_argument("--params")
    p.add_argument("--config", help="JSON file whose keys override the flags")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv if argv is not None else sys.argv[1:])
    try:
        _apply_config_file(ns, parser)
        return ns.func(ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ScenarioRejectedError as exc:
        print(f"error: scenario rejected: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (AlignmentError, MetricUndefinedError) as exc:
        print(f"error: datasets do not align: {exc}", file=sys.stderr)
        return EXIT_ALIGNMENT
    except (ConvergenceError, RankDeficiencyError) as exc:
        print(f"error: estimation failed: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (InvalidSceneError, ParameterFileError, ScenarioError, TrajectoryFormatError, GaConfigError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
