"""Genetic-algorithm calibration of simulator parameters.

Two calibration targets share one GA core:

* the force/safety parameter set, scored by positional error between
  simulated and recorded trajectories (lower is better), and
* the game weight set, scored by agreement between simulated and
  annotated conflict decisions (higher is better; the GA minimizes its
  negation).

Both targets share one command path and one gene decoder, `decode`,
which fills the parameter group a target names in `GENE_NAMES`.

Chromosomes are flat real vectors; the GA is elitist tournament
selection with single-point crossover and Gaussian mutation, fully
deterministic under a fixed seed. Candidate evaluations are independent
simulations, so a caller may evaluate a population concurrently;
results merge by chromosome index. A chromosome seen before in the same
run is answered from its earlier score.

Every fitness call goes through a SimulationMemo, the one cache of an
objective; a call given none uses a fresh one. Agent routes do not
depend on the genes, so the memo plans each scenario's routes once and
hands them to every simulation. Planning and every simulation read the
scene's one obstacle index, which the scene builds on first read, so
all objectives on one scene share it. A new chromosome often agrees
with an earlier one on every gene that some scenario's simulation
reads, so each simulation runs on a recording view of the calibrated
parameter group and the memo keeps the scenario's score under the
exact bits of the fields it read; a later match on those bits reuses
the score with no simulation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataio import (
    MetricUndefinedError,
    Track,
    TrajectoryRecord,
    ade,
    agent_tracks,
    index_decisions,
    track_speeds,
    write_csv,
)
from .engine import (
    KIND_DEFAULTS,
    AgentEntry,
    Scenario,
    ScenarioError,
    ScenarioRejectedError,
    SimulationConfig,
    SimulationTrace,
    plan_waypoints,
    run_scenario,
)
from .game import Action
from .geometry import Vec2
from .params import ANISOTROPY_MAX, GameParams, ParameterFileError, ParameterSet, SfmParams, recording_view
from .scene import Scene

SCENARIO_FAILURE_PENALTY = 1000.0

# The decision objective simulates this many steps past the last
# observed frame.
STEPS_PAST_LAST_FRAME = 20

SFM_GENE_NAMES = (
    "v0_pp",
    "v0_pc",
    "u0",
    "sigma_pp",
    "sigma_pc",
    "r_obstacle",
    "anisotropy",
    "d_min_pc",
    "d_min_cc",
    "s_a",
    "v_r",
    "s_c",
)

GAME_GENE_NAMES = (
    "g_own_speed",
    "g_competitor_speed",
    "g_angle",
    "g_noai",
    "g_stopped",
    "g_distance",
)

# The genes of each parameter group, in chromosome order.
GENE_NAMES = {"sfm": SFM_GENE_NAMES, "game": GAME_GENE_NAMES}


# The GA's operators: each parent is the fittest of TOURNAMENT_SIZE
# chromosomes drawn with replacement; a child takes a single-point
# crossover with probability CROSSOVER_RATE, then each of its genes
# Gaussian noise of MUTATION_SIGMA_FRACTION times the gene's range with
# probability MUTATION_RATE; the ELITISM fittest chromosomes carry over.
TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.1
MUTATION_SIGMA_FRACTION = 0.1
ELITISM = 1


# The largest population a run may ask for: far above any feasible run,
# and small enough that drawing the first population cannot overflow.
MAX_POPULATION = 100_000


class GaConfigError(ValueError):
    """Raised for out-of-range GA settings."""


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    max_generations: int = 200
    stagnation_window: int = 30
    seed: int = 0

    def validate(self) -> None:
        if self.population_size < 2:
            raise GaConfigError("population_size must be at least 2")
        if self.population_size > MAX_POPULATION:
            raise GaConfigError(f"population_size must be at most {MAX_POPULATION}")
        if self.max_generations < 1:
            raise GaConfigError("max_generations must be at least 1")
        if self.stagnation_window < 1:
            raise GaConfigError("stagnation_window must be at least 1")


@dataclass(frozen=True)
class GenStats:
    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass
class GaResult:
    best_genes: np.ndarray
    best_fitness: float
    history: list[GenStats]
    evaluations: int  # chromosomes scored, repeats included
    stopped_early: bool
    cache_hits: int  # repeats answered from an earlier score


BatchObjective = Callable[[np.ndarray], np.ndarray]


def per_individual(fn: Callable[[np.ndarray], float]) -> BatchObjective:
    """Adapt a scalar objective to the batch interface the GA expects."""

    def batch(population: np.ndarray) -> np.ndarray:
        return np.array([fn(individual) for individual in population], dtype=float)

    return batch


def _finite_mean(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    return float(finite.mean()) if finite.size else math.inf


def ga_optimize(
    bounds: Sequence[tuple[float, float]],
    evaluate: BatchObjective,
    config: GaConfig = GaConfig(),
) -> GaResult:
    """Minimize `evaluate` over the gene box. Non-finite scores count as
    the worst possible fitness; the run continues. `evaluate` must be
    deterministic: it sees each distinct chromosome once per run."""
    config.validate()
    box = np.asarray(bounds, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise GaConfigError("bounds must be a sequence of (low, high) pairs")
    lows, highs = box[:, 0], box[:, 1]
    if not np.all(np.isfinite(box)) or np.any(highs <= lows):
        raise GaConfigError("each bound must satisfy low < high and be finite")
    n_genes = box.shape[0]
    rng = np.random.default_rng(config.seed)
    seen: dict[bytes, float] = {}
    cache_hits = 0

    def scored(population: np.ndarray) -> np.ndarray:
        nonlocal cache_hits
        keys = [individual.tobytes() for individual in population]
        fresh: dict[bytes, int] = {}  # each unseen key's first row
        for row, k in enumerate(keys):
            if k not in seen:
                fresh.setdefault(k, row)
        cache_hits += len(keys) - len(fresh)
        if fresh:
            batch = population[list(fresh.values())]
            values = np.asarray(evaluate(batch), dtype=float)
            if values.shape != (batch.shape[0],):
                raise GaConfigError(
                    f"objective returned shape {values.shape}, expected ({batch.shape[0]},)"
                )
            seen.update(zip(fresh, np.where(np.isfinite(values), values, math.inf).tolist()))
        return np.array([seen[k] for k in keys])

    population = rng.uniform(lows, highs, size=(config.population_size, n_genes))
    fitness = scored(population)
    evaluations = population.shape[0]

    best_idx = int(np.argmin(fitness))
    best_genes = population[best_idx].copy()
    best_fitness = float(fitness[best_idx])
    history = [GenStats(0, best_fitness, _finite_mean(fitness))]

    sigma = MUTATION_SIGMA_FRACTION * (highs - lows)
    stagnant = 0
    stopped_early = False
    n_children = config.population_size - ELITISM

    for generation in range(1, config.max_generations + 1):
        picks = rng.integers(0, config.population_size, size=(2 * n_children, TOURNAMENT_SIZE))
        winners = picks[np.arange(2 * n_children), np.argmin(fitness[picks], axis=1)]
        parents_a = population[winners[:n_children]]
        parents_b = population[winners[n_children:]]

        children = parents_a.copy()
        if n_genes > 1:
            crossed = rng.random(n_children) < CROSSOVER_RATE
            cuts = rng.integers(1, n_genes, size=n_children)
            tail = np.arange(n_genes)[None, :] >= cuts[:, None]
            take_b = tail & crossed[:, None]
            children[take_b] = parents_b[take_b]

        mutate = rng.random(children.shape) < MUTATION_RATE
        noise = rng.normal(0.0, 1.0, size=children.shape) * sigma
        children = np.where(mutate, children + noise, children)
        np.clip(children, lows, highs, out=children)

        child_fitness = scored(children)
        evaluations += children.shape[0]
        elite = np.argsort(fitness, kind="stable")[:ELITISM]
        population = np.vstack([population[elite], children])
        fitness = np.concatenate([fitness[elite], child_fitness])

        gen_best = int(np.argmin(fitness))
        if float(fitness[gen_best]) < best_fitness:
            best_fitness = float(fitness[gen_best])
            best_genes = population[gen_best].copy()
            stagnant = 0
        else:
            stagnant += 1
        history.append(GenStats(generation, best_fitness, _finite_mean(fitness)))
        if stagnant >= config.stagnation_window:
            stopped_early = True
            break

    return GaResult(best_genes, best_fitness, history, evaluations, stopped_early, cache_hits)


def write_history_csv(history: Sequence[GenStats], path: str | Path) -> None:
    write_csv(path, ("generation", "best_fitness", "mean_fitness"), (
        f"{row.generation},{row.best_fitness!r},{row.mean_fitness!r}" for row in history
    ))


# The valid upper limit of each gene whose range ends (SfmParams.validate).
GENE_CEILINGS = {"anisotropy": ANISOTROPY_MAX}


def default_bounds(values: Sequence[float], names: Sequence[str]) -> list[tuple[float, float]]:
    """Search box per gene, given the genes' reference values and names:
    a quarter to four times the reference value, the top clipped to the
    gene's GENE_CEILINGS entry, so that no chromosome in it is invalid."""
    out = []
    for v, name in zip(values, names, strict=True):
        if v <= 0.0 or not math.isfinite(v):
            raise GaConfigError(f"reference value {v!r} does not admit relative bounds")
        out.append((0.25 * v, min(4.0 * v, GENE_CEILINGS.get(name, math.inf))))
    return out


def sfm_reference_values(base: SfmParams) -> list[float]:
    return [getattr(base, name) for name in SFM_GENE_NAMES]


def game_reference_values(base: GameParams) -> list[float]:
    return [getattr(base, name) for name in GAME_GENE_NAMES]


def decode(genes: Sequence[float], base: ParameterSet, group: str) -> ParameterSet:
    """`base` with the genes written into its `group` ("sfm" or "game")."""
    values = dict(zip(GENE_NAMES[group], (float(g) for g in genes), strict=True))
    return dataclasses.replace(base, **{group: dataclasses.replace(getattr(base, group), **values)})


# ---------------------------------------------------------------------------
# Training data assembly

@dataclass
class CalibrationScenario:
    scenario: Scenario
    real_positions: dict[str, dict[int, Vec2]]
    annotations: dict[tuple[str, int], Action] = field(default_factory=dict)


def _scenario(scenario_id: str, agents: Mapping[str, Track], frame_seconds: float) -> Scenario:
    entries = []
    for agent_id in sorted(agents):
        kind, frames, x, y = agents[agent_id]
        defaults = KIND_DEFAULTS[kind]
        speeds = track_speeds(frames, x, y, frame_seconds).tolist()
        frames, x, y = frames.tolist(), x.tolist(), y.tolist()
        velocity = Vec2(0.0, 0.0)
        if len(frames) >= 2:
            dt0 = (frames[1] - frames[0]) * frame_seconds
            velocity = Vec2((x[1] - x[0]) / dt0, (y[1] - y[0]) / dt0)
        desired = max(sum(speeds) / len(speeds) if speeds else defaults["desired_speed"], 0.05)
        entries.append(AgentEntry(
            id=agent_id, kind=kind, entry_step=frames[0], position=Vec2(x[0], y[0]), velocity=velocity,
            goal=Vec2(x[-1], y[-1]), desired_speed=desired, max_speed=max(desired, max(speeds, default=0.0)),
            diameter=defaults["diameter"],
        ))
    return Scenario(scenario_id=scenario_id, entries=entries)


def scenario_from_records(
    scenario_id: str,
    records: Sequence[TrajectoryRecord],
    frame_seconds: float = 0.5,
) -> Scenario:
    """Reconstruct spawn conditions from observed trajectories: entry at
    the first observed frame with velocity from the first displacement,
    goal at the last observed position, desired speed from the mean
    observed speed."""
    for item in build_calibration_set(records, frame_seconds=frame_seconds):
        if item.scenario.scenario_id == scenario_id:
            return item.scenario
    raise ScenarioError(f"no records for scenario {scenario_id!r}")


def build_calibration_set(
    records: Sequence[TrajectoryRecord],
    annotations: Sequence = (),
    frame_seconds: float = 0.5,
) -> list[CalibrationScenario]:
    """One item per scenario of `records`, in id order, with its
    annotated decisions. Raises ScenarioError naming the first
    annotation whose scenario has no trajectory of its agent."""
    by_scenario: dict[str, dict[str, Track]] = {}
    for (sid, agent_id), track in agent_tracks(records).items():
        by_scenario.setdefault(sid, {})[agent_id] = track
    annotation_map: dict[str, dict[tuple[str, int], Action]] = {}
    for a in annotations:
        if a.agent_id not in by_scenario.get(a.scenario_id, ()):
            raise ScenarioError(
                f"annotations: {a.scenario_id},{a.agent_id},{a.conflict_idx} names an agent"
                " with no trajectory in its scenario"
            )
        annotation_map.setdefault(a.scenario_id, {})[(a.agent_id, a.conflict_idx)] = a.action
    return [
        CalibrationScenario(
            scenario=_scenario(sid, agents, frame_seconds),
            real_positions={
                agent_id: dict(zip(frames.tolist(), map(Vec2, x.tolist(), y.tolist())))
                for agent_id, (_, frames, x, y) in agents.items()
            },
            annotations=annotation_map.get(sid, {}),
        )
        for sid, agents in sorted(by_scenario.items())
    ]


def train_test_split(
    items: Sequence, train_fraction: float = 0.66, seed: int = 0
) -> tuple[list, list]:
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    order = np.random.default_rng(seed).permutation(len(items))
    n_train = int(round(train_fraction * len(items)))
    n_train = min(max(n_train, 1), max(len(items) - 1, 1))
    train_idx = sorted(order[:n_train].tolist())
    test_idx = sorted(order[n_train:].tolist())
    return [items[i] for i in train_idx], [items[i] for i in test_idx]


# ---------------------------------------------------------------------------
# Fitness scores

class ScoreUndefinedError(ValueError):
    """Raised when a score has no comparison units to average over."""


# What simulating and scoring one scenario raise by design; a fitness
# function scores any of them as a failed scenario. Anything else is a
# fault in the program and propagates.
SIMULATION_FAILURES = (
    ScenarioError,
    ScenarioRejectedError,
    ParameterFileError,
    ScoreUndefinedError,
)


def position_error_score(
    real: Mapping[str, Mapping[int, Vec2]], sim: Mapping[str, Mapping[int, Vec2]]
) -> float:
    """Out of one scenario: mean over users of their time-averaged
    positional error on frames both sources share."""
    per_user = []
    for agent_id in sorted(real):
        try:
            per_user.append(ade(real[agent_id], sim.get(agent_id, {})))
        except MetricUndefinedError:
            raise ScoreUndefinedError(f"agent {agent_id!r} shares no frames") from None
    if not per_user:
        raise ScoreUndefinedError("scenario has no users")
    return sum(per_user) / len(per_user)


def agreement_score(
    annotated: Mapping[tuple[str, int], Action],
    simulated: Mapping[tuple[str, int], Action],
) -> float:
    """Out of one scenario: mean of +1 per reproduced decision and -1
    per mismatch; an annotated decision with no simulated counterpart
    counts as a mismatch. Bounded in [-1, 1]."""
    if not annotated:
        raise ScoreUndefinedError("scenario has no annotated decisions")
    total = 0.0
    for key in annotated:
        sim_action = simulated.get(key)
        total += 1.0 if sim_action is annotated[key] else -1.0
    return total / len(annotated)


def trace_positions(trace: SimulationTrace) -> dict[str, dict[int, Vec2]]:
    """Each agent's recorded positions by step: the trace's own Vec2s."""
    out: dict[str, dict[int, Vec2]] = {}
    for step, agent_id, _, position, _ in trace.records:
        out.setdefault(agent_id, {})[step] = position
    return out


def trace_decisions(trace: SimulationTrace) -> dict[tuple[str, int], Action]:
    """Index decisions by (agent, ordinal): an agent's n-th game in
    creation order, which is how annotations refer to them."""
    return index_decisions(((row.agent_id,), row.action) for row in trace.decisions)


def _simulate(
    item: CalibrationScenario,
    waypoints: dict[str, list[Vec2]] | ScenarioRejectedError,
    scene: Scene,
    params: ParameterSet,
    frame_seconds: float,
    steps_past_last_frame: int,
) -> SimulationTrace:
    if isinstance(waypoints, ScenarioRejectedError):
        # a fresh copy, so the kept one gathers no traceback
        raise ScenarioRejectedError(*waypoints.args)
    last_frame = max(max(t) for t in item.real_positions.values())
    config = SimulationConfig(
        scene=scene,
        scenario=item.scenario,
        params=params,
        dt=frame_seconds,
        max_steps=last_frame + steps_past_last_frame,
    )
    return run_scenario(config, waypoints)


class SimulationMemo:
    """The one cache of one objective run, by scenario position in the
    objective's `training` list. It keeps for each scenario the route
    plan, or a copy of the ScenarioRejectedError planning raised, with
    its message and no traceback (whose frames would hold the memo in a
    reference cycle): routes do not depend on the genes. The obstacle
    index is the scene's own, not the memo's. Beside the plans, it keeps
    the scenario's scores, each under the exact bits of the calibrated
    parameters that its simulation and scoring read (a
    `params.recording_view` notes them). A later
    parameter set that agrees bit for bit on those values gets that
    score with no simulation: it is the same program on the same inputs.
    A failed simulation is kept under the reads made before it failed.
    A memo serves one objective on fixed scenarios, scene, base
    parameters and frame length, and holds one plan per scenario and one
    entry per fresh scenario simulation."""

    def __init__(self) -> None:
        # scenario position -> its waypoints, or the rejection planning raised
        self._plans: dict[int, dict[str, list[Vec2]] | ScenarioRejectedError] = {}
        # scenario position -> fields read -> bits of their values -> score
        self._scores: dict[int, dict[tuple[str, ...], dict[tuple, float]]] = {}

    def plan(
        self, index: int, item: CalibrationScenario, scene: Scene
    ) -> dict[str, list[Vec2]] | ScenarioRejectedError:
        """The routes of the scenario at `index`, planned on first use."""
        plan = self._plans.get(index)
        if plan is None:
            try:
                plan = plan_waypoints(scene, item.scenario.entries)
            except ScenarioRejectedError as exc:
                plan = ScenarioRejectedError(*exc.args)
            self._plans[index] = plan
        return plan

    def get(self, index: int, group: SfmParams | GameParams) -> float | None:
        for names, scores in self._scores.get(index, {}).items():
            score = scores.get(_bits(getattr(group, name) for name in names))
            if score is not None:
                return score
        return None

    def put(self, index: int, view: SfmParams | GameParams, score: float) -> None:
        read = vars(view)
        names = tuple(sorted(read))
        self._scores.setdefault(index, {}).setdefault(names, {})[_bits(read[n] for n in names)] = score


def _bits(values) -> tuple:
    """Exact keys: `==` would merge 0.0 and -0.0."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _mean_score(
    items: Sequence[tuple[int, CalibrationScenario]],
    scene: Scene,
    params: ParameterSet,
    group: str,
    frame_seconds: float,
    steps_past_last_frame: int,
    score: Callable[[CalibrationScenario, SimulationTrace], float],
    failure: float,
    memo: SimulationMemo,
) -> float:
    """Mean over the (memo position, item) pairs of `items` of `score` of
    each item's simulation, or `failure` where simulating or scoring
    fails by design. Each scenario is answered from the memo or simulated
    on a recording view of the `group` parameters and kept in it."""
    try:
        params.validate()
    except ParameterFileError:
        # every simulation would fail this validation; keep nothing
        return failure
    scores = []
    for index, item in items:
        value = memo.get(index, getattr(params, group))
        if value is None:
            view = recording_view(getattr(params, group))
            try:
                trace = _simulate(
                    item, memo.plan(index, item, scene), scene,
                    dataclasses.replace(params, **{group: view}), frame_seconds, steps_past_last_frame,
                )
                value = score(item, trace)
            except SIMULATION_FAILURES:
                value = failure
            memo.put(index, view, value)
        scores.append(value)
    return sum(scores) / len(scores)


def _position_error(item: CalibrationScenario, trace: SimulationTrace) -> float:
    return position_error_score(item.real_positions, trace_positions(trace))


def _agreement(item: CalibrationScenario, trace: SimulationTrace) -> float:
    return agreement_score(item.annotations, trace_decisions(trace))


def fitness_sfm(
    genes: Sequence[float],
    training: Sequence[CalibrationScenario],
    scene: Scene,
    base: ParameterSet,
    frame_seconds: float = 0.5,
    memo: SimulationMemo | None = None,
) -> float:
    """Scenario-averaged positional error of the decoded parameter set;
    a scenario whose simulation fails scores the penalty. `memo`, kept
    across the calls of one objective on `training`, answers repeated
    plans and simulations; without one the call uses a fresh memo."""
    if not training:
        raise ScoreUndefinedError("no training scenarios")
    # Only observed frames are scored: simulate up to the last one.
    return _mean_score(
        list(enumerate(training)), scene, decode(genes, base, "sfm"), "sfm", frame_seconds, 1,
        _position_error, SCENARIO_FAILURE_PENALTY, SimulationMemo() if memo is None else memo,
    )


def fitness_game(
    genes: Sequence[float],
    training: Sequence[CalibrationScenario],
    scene: Scene,
    base: ParameterSet,
    frame_seconds: float = 0.5,
    memo: SimulationMemo | None = None,
) -> float:
    """Scenario-averaged decision agreement in [-1, 1] (higher is
    better). Scenarios without annotations are skipped; a failed
    simulation scores -1 for its scenario. `memo` as for fitness_sfm;
    its positions stay those of `training`."""
    annotated = [(index, item) for index, item in enumerate(training) if item.annotations]
    if not annotated:
        raise ScoreUndefinedError("no annotated scenarios")
    # A game created after the last observed frame can still match an
    # annotation, so run on past it.
    return _mean_score(
        annotated, scene, decode(genes, base, "game"), "game", frame_seconds, STEPS_PAST_LAST_FRAME,
        _agreement, -1.0, SimulationMemo() if memo is None else memo,
    )
