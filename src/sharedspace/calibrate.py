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
run is answered from its earlier score. Agent routes do not depend on
the genes, so each calibration scenario plans them once and reuses the
plan in every evaluation.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataio import (
    MetricUndefinedError,
    Trajectory,
    TrajectoryRecord,
    ade,
    group_by_agent,
    index_decisions,
    segment_speeds,
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
from .params import GameParams, ParameterFileError, ParameterSet, SfmParams
from .scene import AgentKind, Scene

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


class GaConfigError(ValueError):
    """Raised for out-of-range GA settings."""


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    max_generations: int = 200
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_sigma_fraction: float = 0.1
    elitism: int = 1
    stagnation_window: int = 30
    seed: int = 0

    def validate(self) -> None:
        if self.population_size < 2:
            raise GaConfigError("population_size must be at least 2")
        if self.max_generations < 1:
            raise GaConfigError("max_generations must be at least 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise GaConfigError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise GaConfigError("mutation_rate must lie in [0, 1]")
        if self.mutation_sigma_fraction < 0.0:
            raise GaConfigError("mutation_sigma_fraction must be non-negative")
        if not 1 <= self.tournament_size <= self.population_size:
            raise GaConfigError("tournament_size must lie in [1, population_size]")
        if not 0 <= self.elitism < self.population_size:
            raise GaConfigError("elitism must lie in [0, population_size)")
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
        fresh = list(dict.fromkeys(k for k in keys if k not in seen))
        cache_hits += len(keys) - len(fresh)
        if fresh:
            batch = population[[keys.index(k) for k in fresh]]
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

    sigma = config.mutation_sigma_fraction * (highs - lows)
    stagnant = 0
    stopped_early = False
    n_children = config.population_size - config.elitism

    for generation in range(1, config.max_generations + 1):
        picks = rng.integers(
            0, config.population_size, size=(2 * n_children, config.tournament_size)
        )
        winners = picks[np.arange(2 * n_children), np.argmin(fitness[picks], axis=1)]
        parents_a = population[winners[:n_children]]
        parents_b = population[winners[n_children:]]

        children = parents_a.copy()
        if n_genes > 1:
            crossed = rng.random(n_children) < config.crossover_rate
            cuts = rng.integers(1, n_genes, size=n_children)
            tail = np.arange(n_genes)[None, :] >= cuts[:, None]
            take_b = tail & crossed[:, None]
            children[take_b] = parents_b[take_b]

        mutate = rng.random(children.shape) < config.mutation_rate
        noise = rng.normal(0.0, 1.0, size=children.shape) * sigma
        children = np.where(mutate, children + noise, children)
        np.clip(children, lows, highs, out=children)

        child_fitness = scored(children)
        evaluations += children.shape[0]
        if config.elitism:
            elite = np.argsort(fitness, kind="stable")[: config.elitism]
            population = np.vstack([population[elite], children])
            fitness = np.concatenate([fitness[elite], child_fitness])
        else:
            population, fitness = children, child_fitness

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
    lines = ["generation,best_fitness,mean_fitness"]
    for row in history:
        lines.append(f"{row.generation},{row.best_fitness!r},{row.mean_fitness!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def default_bounds(values: Sequence[float]) -> list[tuple[float, float]]:
    """Search box per gene: a quarter to four times its reference value."""
    out = []
    for v in values:
        if v <= 0.0 or not math.isfinite(v):
            raise GaConfigError(f"reference value {v!r} does not admit relative bounds")
        out.append((0.25 * v, 4.0 * v))
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
    # (scene planned on, its waypoints or the rejection planning raised);
    # see plan_scenarios
    plan: tuple[Scene, dict[str, list[Vec2]] | ScenarioRejectedError] | None = field(
        default=None, init=False, repr=False, compare=False
    )


def _scenario(
    scenario_id: str,
    agents: Mapping[str, tuple[AgentKind, Trajectory]],
    frame_seconds: float,
) -> Scenario:
    entries = []
    for agent_id in sorted(agents):
        kind, traj = agents[agent_id]
        defaults = KIND_DEFAULTS[kind]
        frames = sorted(traj)
        speeds = segment_speeds(traj, frames, frame_seconds)
        first = traj[frames[0]]
        velocity = Vec2(0.0, 0.0)
        if len(frames) >= 2:
            second, dt0 = traj[frames[1]], (frames[1] - frames[0]) * frame_seconds
            velocity = Vec2((second.x - first.x) / dt0, (second.y - first.y) / dt0)
        desired = max(sum(speeds) / len(speeds) if speeds else defaults["desired_speed"], 0.05)
        entries.append(
            AgentEntry(
                id=agent_id,
                kind=kind,
                entry_step=frames[0],
                position=first,
                velocity=velocity,
                goal=traj[frames[-1]],
                desired_speed=desired,
                max_speed=max(desired, max(speeds, default=0.0)),
                diameter=defaults["diameter"],
            )
        )
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
    agents = {
        agent_id: agent
        for (sid, agent_id), agent in group_by_agent(records).items()
        if sid == scenario_id
    }
    if not agents:
        raise ScenarioError(f"no records for scenario {scenario_id!r}")
    return _scenario(scenario_id, agents, frame_seconds)


def build_calibration_set(
    records: Sequence[TrajectoryRecord],
    annotations: Sequence = (),
    frame_seconds: float = 0.5,
) -> list[CalibrationScenario]:
    annotation_map: dict[str, dict[tuple[str, int], Action]] = {}
    for a in annotations:
        annotation_map.setdefault(a.scenario_id, {})[(a.agent_id, a.conflict_idx)] = a.action
    by_scenario: dict[str, dict[str, tuple[AgentKind, Trajectory]]] = {}
    for (sid, agent_id), agent in group_by_agent(records).items():
        by_scenario.setdefault(sid, {})[agent_id] = agent
    return [
        CalibrationScenario(
            scenario=_scenario(sid, by_scenario[sid], frame_seconds),
            real_positions={agent_id: traj for agent_id, (_, traj) in by_scenario[sid].items()},
            annotations=annotation_map.get(sid, {}),
        )
        for sid in sorted(by_scenario)
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
    out: dict[str, dict[int, Vec2]] = {}
    for row in trace.rows:
        out.setdefault(row.agent_id, {})[row.step] = Vec2(row.x, row.y)
    return out


def trace_decisions(trace: SimulationTrace) -> dict[tuple[str, int], Action]:
    """Index decisions by (agent, ordinal): an agent's n-th game in
    creation order, which is how annotations refer to them."""
    return index_decisions(((row.agent_id,), row.action) for row in trace.decisions)


def plan_scenarios(items: Sequence[CalibrationScenario], scene: Scene) -> None:
    """Plan the agent routes of every item that holds no plan for an
    equal scene, and keep them on the item: routes do not depend on the
    genes, so every evaluation reuses them, and copies of the items (such
    as those pickled to worker processes) carry them. A scenario that
    planning rejects keeps the ScenarioRejectedError instead."""
    for item in items:
        if item.plan is None or item.plan[0] != scene:
            try:
                outcome = plan_waypoints(scene, item.scenario.entries)
            except ScenarioRejectedError as exc:
                outcome = exc
            # a copy, so that a scene later changed in place no longer matches
            item.plan = (copy.deepcopy(scene), outcome)


def _simulate(
    item: CalibrationScenario,
    scene: Scene,
    params: ParameterSet,
    frame_seconds: float,
    steps_past_last_frame: int,
) -> SimulationTrace:
    last_frame = max(max(t) for t in item.real_positions.values())
    config = SimulationConfig(
        scene=scene,
        scenario=item.scenario,
        params=params,
        dt=frame_seconds,
        max_steps=last_frame + steps_past_last_frame,
    )
    plan_scenarios([item], scene)
    waypoints = item.plan[1]
    if isinstance(waypoints, ScenarioRejectedError):
        raise waypoints.with_traceback(None)
    return run_scenario(config, waypoints)


def fitness_sfm(
    genes: Sequence[float],
    training: Sequence[CalibrationScenario],
    scene: Scene,
    base: ParameterSet,
    frame_seconds: float = 0.5,
) -> float:
    """Scenario-averaged positional error of the decoded parameter set;
    a scenario whose simulation fails scores the penalty."""
    if not training:
        raise ScoreUndefinedError("no training scenarios")
    params = decode(genes, base, "sfm")
    scores = []
    for item in training:
        try:
            # Only observed frames are scored: simulate up to the last one.
            trace = _simulate(item, scene, params, frame_seconds, 1)
            scores.append(position_error_score(item.real_positions, trace_positions(trace)))
        except SIMULATION_FAILURES:
            scores.append(SCENARIO_FAILURE_PENALTY)
    return sum(scores) / len(scores)


def fitness_game(
    genes: Sequence[float],
    training: Sequence[CalibrationScenario],
    scene: Scene,
    base: ParameterSet,
    frame_seconds: float = 0.5,
) -> float:
    """Scenario-averaged decision agreement in [-1, 1] (higher is
    better). Scenarios without annotations are skipped; a failed
    simulation scores -1 for its scenario."""
    annotated = [item for item in training if item.annotations]
    if not annotated:
        raise ScoreUndefinedError("no annotated scenarios")
    params = decode(genes, base, "game")
    scores = []
    for item in annotated:
        try:
            # A game created after the last observed frame can still match
            # an annotation, so run on past it.
            trace = _simulate(item, scene, params, frame_seconds, STEPS_PAST_LAST_FRAME)
            scores.append(agreement_score(item.annotations, trace_decisions(trace)))
        except SIMULATION_FAILURES:
            scores.append(-1.0)
    return sum(scores) / len(scores)
