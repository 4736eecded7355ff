"""Calibration layer: GA core, gene codecs, data assembly, fitness scores."""

from __future__ import annotations

import ast
import dataclasses
import functools
import gc
import math
import pickle
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_validations, open_square_scene
from sharedspace import calibrate, engine, forces
from sharedspace.calibrate import (
    GAME_GENE_NAMES,
    GENE_NAMES,
    SCENARIO_FAILURE_PENALTY,
    SFM_GENE_NAMES,
    STEPS_PAST_LAST_FRAME,
    CalibrationScenario,
    GaConfig,
    GaConfigError,
    GenStats,
    Objective,
    ScoreUndefinedError,
    agreement_score,
    build_calibration_set,
    decode,
    default_bounds,
    fitness_game,
    fitness_sfm,
    ga_optimize,
    game_reference_values,
    ga_optimize as _ga,  # noqa: F401  (re-exported name sanity)
    per_individual,
    position_error_score,
    scenario_from_records,
    sfm_reference_values,
    trace_decisions,
    trace_positions,
    train_test_split,
    write_history_csv,
)
from sharedspace.cli import _TARGETS
from sharedspace.dataio import (
    DecisionAnnotation,
    TrajectoryFormatError,
    TrajectoryRecord,
    load_annotations,
    load_trajectories,
    segment_speeds,
)
from sharedspace.engine import (
    AgentEntry,
    DecisionRow,
    Mode,
    Scenario,
    ScenarioError,
    ScenarioRejectedError,
    SimulationConfig,
    SimulationTrace,
    TraceRow,
    run_scenario,
)
from sharedspace.game import Action, FeatureVector
from sharedspace.geometry import ObstacleIndex, Vec2
from sharedspace.params import GameParams, ParameterFileError, ParameterSet, SfmParams, recording_view
from sharedspace.scene import AgentKind, Rect, Scene, load_scene


def quadratic(genes) -> float:
    return float(((np.asarray(genes, dtype=float) - 3.0) ** 2).sum())


QUAD_BOUNDS = [(0.0, 10.0)] * 5


# ---------------------------------------------------------------------------
# GA configuration validation
# ---------------------------------------------------------------------------


class TestGaConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"population_size": 1},
            {"max_generations": 0},
            {"population_size": 0},
            # keeps the id this case had when the list also held the
            # crossover, mutation, tournament and elitism settings
            pytest.param({"stagnation_window": 0}, id="overrides10"),
        ],
    )
    def test_out_of_range_settings_rejected(self, overrides) -> None:
        with pytest.raises(GaConfigError):
            GaConfig(**overrides)

    def test_defaults_valid(self) -> None:
        assert GaConfig().population_size == 50

    def test_population_is_bounded_above(self) -> None:
        assert GaConfig(population_size=calibrate.MAX_POPULATION).population_size == calibrate.MAX_POPULATION
        with pytest.raises(GaConfigError, match=f"at most {calibrate.MAX_POPULATION}"):
            GaConfig(population_size=calibrate.MAX_POPULATION + 1)

    @pytest.mark.parametrize(
        "bounds",
        [
            [],
            [(1.0, 1.0)],
            [(2.0, 1.0)],
            [(0.0, math.inf)],
            [(math.nan, 1.0)],
            [(0.0, 1.0, 2.0)],
        ],
    )
    def test_bad_bounds_rejected(self, bounds) -> None:
        with pytest.raises(GaConfigError):
            ga_optimize(bounds, per_individual(quadratic))

    def test_objective_with_wrong_shape_rejected(self) -> None:
        def bad(population: np.ndarray) -> np.ndarray:
            return np.zeros((population.shape[0], 1))

        with pytest.raises(GaConfigError, match="shape"):
            ga_optimize([(0.0, 1.0)], bad, GaConfig(population_size=4))


# ---------------------------------------------------------------------------
# GA optimization behavior
# ---------------------------------------------------------------------------


class TestGaOptimize:
    def test_quadratic_reaches_within_five_percent_of_initial_best(self) -> None:
        result = ga_optimize(
            QUAD_BOUNDS,
            per_individual(quadratic),
            GaConfig(population_size=50, max_generations=200, seed=0),
        )
        initial = result.history[0].best_fitness
        assert result.best_fitness <= 0.05 * initial
        assert result.best_fitness == quadratic(result.best_genes)

    def test_best_fitness_never_worsens(self) -> None:
        result = ga_optimize(
            QUAD_BOUNDS,
            per_individual(quadratic),
            GaConfig(population_size=30, max_generations=80, seed=7),
        )
        best = [g.best_fitness for g in result.history]
        assert all(a >= b for a, b in zip(best, best[1:]))
        assert result.best_fitness == best[-1]

    def test_same_seed_reproduces_the_run_exactly(self) -> None:
        config = GaConfig(population_size=50, max_generations=200, seed=0)
        first = ga_optimize(QUAD_BOUNDS, per_individual(quadratic), config)
        second = ga_optimize(QUAD_BOUNDS, per_individual(quadratic), config)
        assert np.array_equal(first.best_genes, second.best_genes)
        assert first.best_fitness == second.best_fitness
        assert first.history == second.history
        assert first.evaluations == second.evaluations

    def test_different_seeds_explore_differently(self) -> None:
        a = ga_optimize(
            QUAD_BOUNDS,
            per_individual(quadratic),
            GaConfig(population_size=50, max_generations=200, seed=0),
        )
        b = ga_optimize(
            QUAD_BOUNDS,
            per_individual(quadratic),
            GaConfig(population_size=50, max_generations=200, seed=1),
        )
        assert not np.array_equal(a.best_genes, b.best_genes)

    def test_best_genes_respect_the_bounds(self) -> None:
        bounds = [(2.0, 4.0)] * 3
        result = ga_optimize(
            bounds,
            per_individual(quadratic),
            GaConfig(population_size=20, max_generations=40, seed=11),
        )
        lows = np.array([lo for lo, _ in bounds])
        highs = np.array([hi for _, hi in bounds])
        assert np.all(result.best_genes >= lows)
        assert np.all(result.best_genes <= highs)

    def test_flat_objective_stops_early_after_stagnation_window(self) -> None:
        config = GaConfig(population_size=10, max_generations=200, seed=3)
        result = ga_optimize([(0.0, 1.0)] * 2, per_individual(lambda g: 0.0), config)
        assert result.stopped_early
        # generation 0 plus exactly `stagnation_window` non-improving ones
        assert len(result.history) == config.stagnation_window + 1
        assert result.evaluations == config.population_size + config.stagnation_window * (
            config.population_size - calibrate.ELITISM
        )

    def test_non_finite_scores_count_as_worst_but_run_continues(self) -> None:
        def partial(genes) -> float:
            x = float(genes[0])
            return math.nan if x < 5.0 else (x - 7.0) ** 2

        result = ga_optimize(
            [(0.0, 10.0)],
            per_individual(partial),
            GaConfig(population_size=20, max_generations=60, seed=2),
        )
        assert math.isfinite(result.best_fitness)
        assert result.best_fitness < 0.05

    def test_all_nan_objective_yields_infinite_best_and_stops(self) -> None:
        result = ga_optimize(
            [(0.0, 1.0)],
            per_individual(lambda g: math.nan),
            GaConfig(population_size=6, max_generations=200, seed=0),
        )
        assert result.best_fitness == math.inf
        assert result.history[0].mean_fitness == math.inf
        assert result.stopped_early

    def test_without_variation_operators_best_stays_at_initial(self, monkeypatch) -> None:
        monkeypatch.setattr(calibrate, "MUTATION_RATE", 0.0)
        monkeypatch.setattr(calibrate, "CROSSOVER_RATE", 0.0)
        result = ga_optimize(
            QUAD_BOUNDS,
            per_individual(quadratic),
            GaConfig(population_size=12, max_generations=200, seed=5),
        )
        assert result.best_fitness == result.history[0].best_fitness
        assert result.stopped_early

    def test_repeated_chromosomes_are_scored_once(self, monkeypatch) -> None:
        # Without variation every child copies a parent, so after
        # generation 0 every chromosome is a repeat.
        monkeypatch.setattr(calibrate, "MUTATION_RATE", 0.0)
        monkeypatch.setattr(calibrate, "CROSSOVER_RATE", 0.0)
        seen: list[bytes] = []

        def counting(population: np.ndarray) -> np.ndarray:
            seen.extend(individual.tobytes() for individual in population)
            return per_individual(quadratic)(population)

        config = GaConfig(population_size=6, max_generations=3, seed=5)
        result = ga_optimize(QUAD_BOUNDS, counting, config)
        assert len(seen) == len(set(seen)) == config.population_size
        assert result.evaluations == config.population_size + 3 * (config.population_size - 1)
        assert result.cache_hits == result.evaluations - config.population_size

    def test_fresh_chromosomes_are_scored_once_in_first_appearance_order(self, monkeypatch) -> None:
        # Generation 0 holds four chromosomes at the rows `order` gives,
        # so its batch repeats some; without variation generation 1 only
        # copies them.
        monkeypatch.setattr(calibrate, "MUTATION_RATE", 0.0)
        monkeypatch.setattr(calibrate, "CROSSOVER_RATE", 0.0)
        order = [0, 1, 0, 2, 1, 3, 2, 0]
        make_rng = np.random.default_rng
        lows, highs = np.array(QUAD_BOUNDS).T
        distinct = make_rng(5).uniform(lows, highs, size=(4, len(QUAD_BOUNDS)))

        class Repeating:
            def __init__(self, seed: int) -> None:
                self.rng = make_rng(seed)

            def uniform(self, lows, highs, size):
                return self.rng.uniform(lows, highs, size=(4, size[1]))[order]

            def __getattr__(self, name: str):
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", Repeating)
        batches = []

        def scoring(population: np.ndarray) -> np.ndarray:
            batches.append(population.copy())
            return population[:, 0] + 10.0 * population[:, 1]

        result = ga_optimize(QUAD_BOUNDS, scoring, GaConfig(population_size=len(order), max_generations=1, seed=5))
        assert len(batches) == 1 and np.array_equal(batches[0], distinct)
        # Each row's score is its own chromosome's.
        scores = (distinct[:, 0] + 10.0 * distinct[:, 1])[order]
        assert result.history[0] == GenStats(0, float(scores.min()), float(scores.mean()))
        assert np.array_equal(result.best_genes, distinct[order][int(np.argmin(scores))])
        assert result.cache_hits == (len(order) - 4) + (len(order) - calibrate.ELITISM)

    def test_per_individual_adapts_scalar_objective(self) -> None:
        batch = per_individual(quadratic)
        population = np.array([[3.0, 3.0], [4.0, 2.0]])
        values = batch(population)
        assert values.shape == (2,)
        assert values[0] == 0.0
        assert values[1] == 2.0


class TestHistoryCsv:
    def test_round_trips_floats_exactly(self, tmp_path) -> None:
        history = [
            GenStats(0, 1.5, 2.25),
            GenStats(1, math.pi, 1e-17),
        ]
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness"
        assert lines[1] == "0,1.5,2.25"
        _, best, mean = lines[2].split(",")
        assert float(best) == math.pi
        assert float(mean) == 1e-17


# ---------------------------------------------------------------------------
# Gene encodings
# ---------------------------------------------------------------------------


class TestGenes:
    def test_default_bounds_span_quarter_to_four_times(self) -> None:
        assert default_bounds([2.0, 0.4], ["v0_pp", "sigma_pp"]) == [(0.5, 8.0), (0.1, 1.6)]

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_default_bounds_reject_non_positive_references(self, value) -> None:
        with pytest.raises(GaConfigError):
            default_bounds([value], ["v0_pp"])

    def test_default_bounds_stop_at_the_valid_anisotropy(self) -> None:
        # A reference anisotropy of 0.5 once gave a box up to 2.0, where
        # every chromosome scored the failure penalty as invalid.
        base = ParameterSet(sfm=SfmParams(anisotropy=0.5))
        bounds = default_bounds(sfm_reference_values(base.sfm), SFM_GENE_NAMES)
        assert dict(zip(SFM_GENE_NAMES, bounds))["anisotropy"] == (0.125, 1.0)
        # decode builds, and so checks, each corner's group
        assert decode([hi for _, hi in bounds], base, "sfm").sfm.anisotropy == 1.0
        assert decode([lo for lo, _ in bounds], base, "sfm").sfm.anisotropy == 0.125

    def test_default_bounds_keep_the_default_anisotropy_box(self) -> None:
        bounds = default_bounds(sfm_reference_values(ParameterSet().sfm), SFM_GENE_NAMES)
        assert dict(zip(SFM_GENE_NAMES, bounds))["anisotropy"] == (0.05, 0.8)

    def test_sfm_reference_values_follow_gene_order(self) -> None:
        base = ParameterSet()
        values = sfm_reference_values(base.sfm)
        assert len(values) == len(SFM_GENE_NAMES)
        by_name = dict(zip(SFM_GENE_NAMES, values))
        assert by_name["v0_pp"] == base.sfm.v0_pp
        assert by_name["d_min_cc"] == base.sfm.d_min_cc
        assert by_name["s_c"] == base.sfm.s_c

    def test_game_reference_values_follow_gene_order(self) -> None:
        base = ParameterSet()
        values = game_reference_values(base.game)
        assert len(values) == len(GAME_GENE_NAMES)
        by_name = dict(zip(GAME_GENE_NAMES, values))
        assert by_name["g_own_speed"] == base.game.g_own_speed
        assert by_name["g_distance"] == base.game.g_distance

    def test_decode_round_trips_the_sfm_reference_vector(self) -> None:
        base = ParameterSet()
        assert decode(sfm_reference_values(base.sfm), base, "sfm") == base

    def test_decode_round_trips_the_game_reference_vector(self) -> None:
        base = ParameterSet()
        assert decode(game_reference_values(base.game), base, "game") == base

    def test_decode_changes_only_the_named_sfm_gene(self) -> None:
        base = ParameterSet()
        genes = sfm_reference_values(base.sfm)
        genes[SFM_GENE_NAMES.index("sigma_pp")] = 0.9
        decoded = decode(genes, base, "sfm")
        assert decoded.sfm.sigma_pp == 0.9
        assert decoded.game == base.game
        assert dataclasses.replace(decoded.sfm, sigma_pp=base.sfm.sigma_pp) == base.sfm

    def test_decode_of_game_genes_leaves_forces_untouched(self) -> None:
        base = ParameterSet()
        genes = game_reference_values(base.game)
        genes[GAME_GENE_NAMES.index("g_angle")] = 2.5
        decoded = decode(genes, base, "game")
        assert decoded.game.g_angle == 2.5
        assert decoded.sfm == base.sfm

    @pytest.mark.parametrize("group", ["sfm", "game"])
    def test_wrong_gene_count_rejected(self, group) -> None:
        with pytest.raises(ValueError):
            decode([1.0, 2.0], ParameterSet(), group)


# ---------------------------------------------------------------------------
# Training data assembly
# ---------------------------------------------------------------------------


def record(sid: str, frame: int, agent: str, kind: AgentKind, x: float, y: float):
    return TrajectoryRecord(sid, frame, agent, kind, x, y)


class TestScenarioFromRecords:
    def test_reconstructs_constant_velocity_walker(self) -> None:
        rows = [
            record("s", f, "p1", AgentKind.PEDESTRIAN, 0.6 * f, 0.0) for f in range(5)
        ]
        scenario = scenario_from_records("s", rows)
        assert scenario.scenario_id == "s"
        (entry,) = scenario.entries
        assert entry.id == "p1"
        assert entry.kind is AgentKind.PEDESTRIAN
        assert entry.entry_step == 0
        assert entry.position == Vec2(0.0, 0.0)
        assert entry.goal == Vec2(2.4, 0.0)
        # 0.6 length units per half-second frame
        assert entry.velocity.x == pytest.approx(1.2, rel=1e-12)
        assert entry.desired_speed == pytest.approx(1.2, rel=1e-12)
        assert entry.max_speed == pytest.approx(1.2, rel=1e-12)
        assert entry.diameter == 0.5

    def test_frame_seconds_scales_the_speeds(self) -> None:
        rows = [
            record("s", f, "p1", AgentKind.PEDESTRIAN, 0.6 * f, 0.0) for f in range(3)
        ]
        entry = scenario_from_records("s", rows, frame_seconds=1.0).entries[0]
        assert entry.velocity.x == pytest.approx(0.6, rel=1e-12)
        assert entry.desired_speed == pytest.approx(0.6, rel=1e-12)

    def test_unsorted_records_and_frame_gaps_handled(self) -> None:
        rows = [
            record("s", 2, "p1", AgentKind.PEDESTRIAN, 2.4, 0.0),
            record("s", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0),
        ]
        entry = scenario_from_records("s", rows).entries[0]
        assert entry.entry_step == 0
        assert entry.position == Vec2(0.0, 0.0)
        # 2.4 length units over two half-second frames
        assert entry.velocity.x == pytest.approx(2.4, rel=1e-12)

    def test_single_record_agent_falls_back_to_kind_defaults(self) -> None:
        ped = scenario_from_records(
            "s", [record("s", 3, "p1", AgentKind.PEDESTRIAN, 1.0, 2.0)]
        ).entries[0]
        assert ped.entry_step == 3
        assert ped.velocity == Vec2(0.0, 0.0)
        assert ped.desired_speed == 1.34
        assert ped.max_speed == 1.34
        car = scenario_from_records(
            "s", [record("s", 0, "c1", AgentKind.CAR, 0.0, 0.0)]
        ).entries[0]
        assert car.desired_speed == 5.0
        assert car.diameter == 2.0

    def test_stationary_agent_gets_a_small_positive_desired_speed(self) -> None:
        rows = [
            record("s", 0, "p1", AgentKind.PEDESTRIAN, 1.0, 1.0),
            record("s", 1, "p1", AgentKind.PEDESTRIAN, 1.0, 1.0),
        ]
        entry = scenario_from_records("s", rows).entries[0]
        assert entry.desired_speed == 0.05
        assert entry.max_speed == 0.05

    def test_other_scenarios_are_ignored(self) -> None:
        rows = [
            record("a", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0),
            record("b", 0, "p2", AgentKind.PEDESTRIAN, 5.0, 5.0),
        ]
        scenario = scenario_from_records("a", rows)
        assert [e.id for e in scenario.entries] == ["p1"]

    def test_unknown_scenario_rejected(self) -> None:
        rows = [record("a", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0)]
        with pytest.raises(ScenarioError, match="'b'"):
            scenario_from_records("b", rows)

    def test_agent_changing_kind_rejected(self) -> None:
        rows = [
            record("s", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0),
            record("s", 1, "p1", AgentKind.CAR, 0.6, 0.0),
        ]
        with pytest.raises(TrajectoryFormatError, match="changes kind"):
            scenario_from_records("s", rows)
        with pytest.raises(TrajectoryFormatError, match="changes kind"):
            build_calibration_set(rows)

    def test_duplicated_frame_keeps_the_last_record(self) -> None:
        rows = [
            record("s", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0),
            record("s", 1, "p1", AgentKind.PEDESTRIAN, 9.0, 9.0),
            record("s", 1, "p1", AgentKind.PEDESTRIAN, 0.6, 0.0),
        ]
        entry = scenario_from_records("s", rows).entries[0]
        assert entry.goal == Vec2(0.6, 0.0)
        assert entry.velocity.x == pytest.approx(1.2, rel=1e-12)
        (item,) = build_calibration_set(rows)
        assert item.real_positions == {"p1": {0: Vec2(0.0, 0.0), 1: Vec2(0.6, 0.0)}}

    def test_entries_sorted_by_agent_id(self) -> None:
        rows = [
            record("s", 0, "p2", AgentKind.PEDESTRIAN, 0.0, 0.0),
            record("s", 0, "c1", AgentKind.CAR, 5.0, 0.0),
        ]
        scenario = scenario_from_records("s", rows)
        assert [e.id for e in scenario.entries] == ["c1", "p2"]


def scalar_scenario(scenario_id: str, records: list[TrajectoryRecord], frame_seconds: float) -> Scenario:
    """The oracle of the spawn reconstruction: each agent's frame ->
    position dict read one record at a time, speeds by `segment_speeds`."""
    trajs: dict[str, tuple[AgentKind, dict[int, Vec2]]] = {}
    for r in records:
        if r.scenario_id == scenario_id:
            trajs.setdefault(r.agent_id, (r.kind, {}))[1][r.frame] = Vec2(r.x, r.y)
    entries = []
    for agent_id in sorted(trajs):
        kind, traj = trajs[agent_id]
        defaults = engine.KIND_DEFAULTS[kind]
        frames = sorted(traj)
        speeds = segment_speeds(traj, frames, frame_seconds)
        first = traj[frames[0]]
        velocity = Vec2(0.0, 0.0)
        if len(frames) >= 2:
            second, dt0 = traj[frames[1]], (frames[1] - frames[0]) * frame_seconds
            velocity = Vec2((second.x - first.x) / dt0, (second.y - first.y) / dt0)
        desired = max(sum(speeds) / len(speeds) if speeds else defaults["desired_speed"], 0.05)
        entries.append(AgentEntry(
            agent_id, kind, frames[0], first, velocity, traj[frames[-1]], desired,
            max(desired, max(speeds, default=0.0)), defaults["diameter"],
        ))
    return Scenario(scenario_id, entries)


class TestBuildCalibrationSet:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["s1", "s2"]),
                st.integers(0, 12),
                st.sampled_from(["a", "b", "c"]),
                st.floats(-50, 50),
                st.floats(-50, 50),
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([0.5, 0.1, 1.0 / 3.0]),
    )
    def test_spawn_conditions_equal_the_scalar_reconstruction(self, rows, frame_seconds) -> None:
        # Agent "c" is a car, the others pedestrians; frames repeat and
        # arrive out of order.
        records = [
            record(sid, f, aid, AgentKind.CAR if aid == "c" else AgentKind.PEDESTRIAN, x, y)
            for sid, f, aid, x, y in rows
        ]
        expected = {}
        for sid in sorted({r.scenario_id for r in records}):
            try:
                expected[sid] = scalar_scenario(sid, records, frame_seconds)
            except ScenarioError as exc:
                # the first scenario in id order that breaks the rules stops the build
                rule = re.escape(f"scenario {sid} inferred from trajectories: {exc}")
                with pytest.raises(ScenarioError, match=f"^{rule}$"):
                    build_calibration_set(records, frame_seconds=frame_seconds)
                return
        items = build_calibration_set(records, frame_seconds=frame_seconds)
        assert [item.scenario.scenario_id for item in items] == list(expected)
        for item in items:
            sid = item.scenario.scenario_id
            # repr shows every float's digits and any numpy scalar by name
            assert repr(item.scenario) == repr(expected[sid])
            assert repr(scenario_from_records(sid, records, frame_seconds)) == repr(expected[sid])
            assert item.real_positions == {
                aid: {r.frame: Vec2(r.x, r.y) for r in records if (r.scenario_id, r.agent_id) == (sid, aid)}
                for aid in {r.agent_id for r in records if r.scenario_id == sid}
            }

    def test_groups_records_and_attaches_annotations(self) -> None:
        rows = [
            record("s1", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0),
            record("s1", 1, "p1", AgentKind.PEDESTRIAN, 0.6, 0.0),
            record("s2", 0, "c1", AgentKind.CAR, 2.0, 3.0),
        ]
        annotations = [DecisionAnnotation("s1", "p1", 0, Action.DEVIATE)]
        items = build_calibration_set(rows, annotations)
        assert [item.scenario.scenario_id for item in items] == ["s1", "s2"]
        first, second = items
        assert first.real_positions == {"p1": {0: Vec2(0.0, 0.0), 1: Vec2(0.6, 0.0)}}
        assert first.annotations == {("p1", 0): Action.DEVIATE}
        assert second.annotations == {}
        assert second.real_positions == {"c1": {0: Vec2(2.0, 3.0)}}


class TestTrainTestSplit:
    def test_partitions_without_loss_or_overlap(self) -> None:
        items = list(range(10))
        train, test = train_test_split(items, train_fraction=0.66, seed=0)
        assert len(train) == 7
        assert len(test) == 3
        assert sorted(train + test) == items
        assert not set(train) & set(test)

    def test_deterministic_under_a_seed(self) -> None:
        items = list(range(9))
        assert train_test_split(items, seed=4) == train_test_split(items, seed=4)

    def test_two_items_split_one_and_one(self) -> None:
        train, test = train_test_split(["a", "b"], train_fraction=0.66, seed=1)
        assert len(train) == 1
        assert len(test) == 1

    def test_single_item_goes_to_training(self) -> None:
        train, test = train_test_split(["only"], train_fraction=0.66, seed=0)
        assert train == ["only"]
        assert test == []

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_must_be_strictly_interior(self, fraction) -> None:
        with pytest.raises(ValueError):
            train_test_split([1, 2, 3], train_fraction=fraction)


# ---------------------------------------------------------------------------
# Fitness scores
# ---------------------------------------------------------------------------


class TestPositionErrorScore:
    def test_identical_trajectories_score_zero(self) -> None:
        traj = {"p1": {0: Vec2(0.0, 0.0), 1: Vec2(1.0, 1.0)}}
        assert position_error_score(traj, traj) == 0.0

    def test_constant_offset_scores_the_offset(self) -> None:
        real = {"p1": {f: Vec2(float(f), 0.0) for f in range(4)}}
        sim = {"p1": {f: Vec2(float(f) + 3.0, 4.0) for f in range(4)}}
        assert position_error_score(real, sim) == pytest.approx(5.0, rel=1e-12)

    def test_averages_per_frame_errors_within_a_user(self) -> None:
        real = {"p1": {0: Vec2(0.0, 0.0), 1: Vec2(0.0, 0.0), 2: Vec2(0.0, 0.0)}}
        sim = {"p1": {0: Vec2(1.0, 0.0), 1: Vec2(2.0, 0.0), 2: Vec2(3.0, 0.0)}}
        assert position_error_score(real, sim) == pytest.approx(2.0, rel=1e-12)

    def test_averages_across_users(self) -> None:
        real = {
            "a": {0: Vec2(0.0, 0.0)},
            "b": {0: Vec2(0.0, 0.0)},
        }
        sim = {
            "a": {0: Vec2(2.0, 0.0)},
            "b": {0: Vec2(0.0, 4.0)},
        }
        assert position_error_score(real, sim) == pytest.approx(3.0, rel=1e-12)

    def test_only_shared_frames_are_compared(self) -> None:
        real = {"p1": {0: Vec2(0.0, 0.0), 1: Vec2(1.0, 0.0), 2: Vec2(2.0, 0.0)}}
        sim = {"p1": {1: Vec2(2.0, 0.0)}}
        assert position_error_score(real, sim) == pytest.approx(1.0, rel=1e-12)

    def test_agent_with_no_shared_frames_is_an_error(self) -> None:
        real = {"p1": {0: Vec2(0.0, 0.0)}}
        with pytest.raises(ScoreUndefinedError, match="p1"):
            position_error_score(real, {"p1": {5: Vec2(0.0, 0.0)}})
        with pytest.raises(ScoreUndefinedError, match="p1"):
            position_error_score(real, {})

    def test_no_users_is_an_error(self) -> None:
        with pytest.raises(ScoreUndefinedError, match="no users"):
            position_error_score({}, {})

    @given(
        dx=st.floats(-50, 50, allow_nan=False),
        dy=st.floats(-50, 50, allow_nan=False),
        frames=st.lists(st.integers(0, 100), min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=50, deadline=None)
    def test_score_is_nonnegative(self, dx, dy, frames) -> None:
        real = {"p1": {f: Vec2(float(f), 0.0) for f in frames}}
        sim = {"p1": {f: Vec2(float(f) + dx, dy) for f in frames}}
        assert position_error_score(real, sim) >= 0.0


class TestAgreementScore:
    def test_full_agreement_scores_one(self) -> None:
        annotated = {("c1", 0): Action.CONTINUE, ("p1", 0): Action.DEVIATE}
        assert agreement_score(annotated, dict(annotated)) == 1.0

    def test_one_match_one_mismatch_scores_zero(self) -> None:
        annotated = {("c1", 0): Action.CONTINUE, ("p1", 0): Action.DEVIATE}
        simulated = {("c1", 0): Action.CONTINUE, ("p1", 0): Action.DECELERATE}
        assert agreement_score(annotated, simulated) == 0.0

    def test_full_disagreement_scores_minus_one(self) -> None:
        annotated = {("c1", 0): Action.CONTINUE}
        simulated = {("c1", 0): Action.DECELERATE}
        assert agreement_score(annotated, simulated) == -1.0

    def test_missing_simulated_decision_counts_as_mismatch(self) -> None:
        annotated = {("c1", 0): Action.CONTINUE, ("p1", 0): Action.DEVIATE}
        simulated = {("c1", 0): Action.CONTINUE}
        assert agreement_score(annotated, simulated) == 0.0

    def test_extra_simulated_decisions_are_ignored(self) -> None:
        annotated = {("c1", 0): Action.CONTINUE}
        simulated = {("c1", 0): Action.CONTINUE, ("p9", 0): Action.DEVIATE}
        assert agreement_score(annotated, simulated) == 1.0

    def test_no_annotations_is_an_error(self) -> None:
        with pytest.raises(ScoreUndefinedError, match="no annotated"):
            agreement_score({}, {})

    @given(
        annotated=st.dictionaries(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3)),
            st.sampled_from(list(Action)),
            min_size=1,
            max_size=10,
        ),
        simulated=st.dictionaries(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3)),
            st.sampled_from(list(Action)),
            max_size=10,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_score_bounded_and_matches_direct_count(self, annotated, simulated) -> None:
        score = agreement_score(annotated, simulated)
        assert -1.0 <= score <= 1.0
        matches = sum(1 for k, v in annotated.items() if simulated.get(k) is v)
        expected = (matches - (len(annotated) - matches)) / len(annotated)
        assert score == pytest.approx(expected, abs=1e-12)


class TestTraceIndexing:
    def test_trace_positions_groups_rows_by_agent_and_step(self) -> None:
        ped, car = AgentKind.PEDESTRIAN, AgentKind.CAR
        records = [
            (0, "p1", ped, Vec2(1.0, 2.0), Mode.FORCES),
            (1, "p1", ped, Vec2(1.5, 2.5), Mode.FORCES),
            (0, "c1", car, Vec2(-3.0, 0.0), Mode.FREE_FLOW),
        ]
        trace = SimulationTrace(scenario_id="s", records=records)
        positions = trace_positions(trace)
        assert positions == {
            "p1": {0: Vec2(1.0, 2.0), 1: Vec2(1.5, 2.5)},
            "c1": {0: Vec2(-3.0, 0.0)},
        }
        # The recorded objects themselves, not copies.
        assert all(positions[aid][step] is p for step, aid, _, p, _ in records)
        assert trace.rows == [
            TraceRow(0, "p1", ped, 1.0, 2.0, "forces"),
            TraceRow(1, "p1", ped, 1.5, 2.5, "forces"),
            TraceRow(0, "c1", car, -3.0, 0.0, "free_flow"),
        ]

    def test_trace_decisions_index_by_per_agent_ordinal(self) -> None:
        fv = FeatureVector(*[0.0] * len(dataclasses.fields(FeatureVector)))
        car, ped = AgentKind.CAR, AgentKind.PEDESTRIAN
        trace = SimulationTrace(
            scenario_id="s",
            decisions=[
                DecisionRow(3, 0, "c1", car, "leader", fv, Action.CONTINUE),
                DecisionRow(3, 0, "p1", ped, "follower", fv, Action.DEVIATE),
                DecisionRow(9, 1, "p1", ped, "follower", fv, Action.DECELERATE),
            ],
        )
        assert trace_decisions(trace) == {
            ("c1", 0): Action.CONTINUE,
            ("p1", 0): Action.DEVIATE,
            ("p1", 1): Action.DECELERATE,
        }


# ---------------------------------------------------------------------------
# End-to-end fitness on live simulations
# ---------------------------------------------------------------------------


def ped_entry(agent_id: str, position: Vec2, goal: Vec2) -> AgentEntry:
    return AgentEntry(
        id=agent_id,
        kind=AgentKind.PEDESTRIAN,
        entry_step=0,
        position=position,
        velocity=Vec2(0.0, 1.2),
        goal=goal,
        desired_speed=1.2,
        max_speed=1.2,
        diameter=0.5,
    )


def crossing_scenario() -> Scenario:
    car = AgentEntry(
        id="c1",
        kind=AgentKind.CAR,
        entry_step=0,
        position=Vec2(-14.0, 0.0),
        velocity=Vec2(2.0, 0.0),
        goal=Vec2(30.0, 0.0),
        desired_speed=2.0,
        max_speed=2.2,
        diameter=2.0,
    )
    return Scenario("crossing", [car, ped_entry("p1", Vec2(0.0, -8.0), Vec2(0.0, 8.0))])


def boxed_scene() -> Scene:
    """A square obstacle around the origin inside open ground."""
    box = (Vec2(-2.0, -2.0), Vec2(2.0, -2.0), Vec2(2.0, 2.0), Vec2(-2.0, 2.0))
    return Scene(
        obstacles=(box,),
        intersection_zones=(),
        road_zones=(),
        bounds=Rect(-30.0, -30.0, 30.0, 30.0),
    )


def unreachable_item() -> CalibrationScenario:
    """Goal inside the boxed_scene obstacle: planning must fail."""
    scenario = Scenario("bad", [ped_entry("p1", Vec2(-10.0, 0.0), Vec2(0.0, 0.0))])
    return CalibrationScenario(
        scenario=scenario,
        real_positions={"p1": {0: Vec2(-10.0, 0.0), 5: Vec2(-5.0, 0.0)}},
        annotations={("p1", 0): Action.CONTINUE},
    )


class TestFitnessSfm:
    def test_replaying_the_generating_parameters_scores_zero(self) -> None:
        scene = open_square_scene()
        base = ParameterSet()
        scenario = Scenario("lone", [ped_entry("p1", Vec2(0.0, -8.0), Vec2(0.0, 8.0))])
        trace = run_scenario(SimulationConfig(scene=scene, scenario=scenario, params=base))
        item = CalibrationScenario(scenario=scenario, real_positions=trace_positions(trace))
        genes = sfm_reference_values(base.sfm)
        assert fitness_sfm(genes, [item], scene, base) == 0.0

    def test_failed_scenario_scores_the_penalty(self) -> None:
        base = ParameterSet()
        genes = sfm_reference_values(base.sfm)
        objective = Objective("sfm", [unreachable_item()], boxed_scene(), base, 0.5)
        # the second call meets the rejection kept in the memo
        for _ in range(2):
            assert objective([genes]) == [SCENARIO_FAILURE_PENALTY] == [1000.0]

    def test_scores_average_across_scenarios(self) -> None:
        scene = boxed_scene()
        base = ParameterSet()
        # path along x=10 never meets the obstacle at the origin
        good = Scenario("good", [ped_entry("p1", Vec2(10.0, -8.0), Vec2(10.0, 8.0))])
        trace = run_scenario(SimulationConfig(scene=scene, scenario=good, params=base))
        good_item = CalibrationScenario(scenario=good, real_positions=trace_positions(trace))
        genes = sfm_reference_values(base.sfm)
        assert fitness_sfm(genes, [good_item], scene, base) == 0.0
        mixed = fitness_sfm(genes, [good_item, unreachable_item()], scene, base)
        assert mixed == pytest.approx(500.0, rel=1e-12)

    def test_no_training_scenarios_is_an_error(self) -> None:
        with pytest.raises(ScoreUndefinedError):
            fitness_sfm([1.0], [], open_square_scene(), ParameterSet())

    def test_sfm_objective_matches_fitness(self) -> None:
        scene = open_square_scene()
        base = ParameterSet()
        scenario = Scenario("lone", [ped_entry("p1", Vec2(0.0, -8.0), Vec2(0.0, 8.0))])
        trace = run_scenario(SimulationConfig(scene=scene, scenario=scenario, params=base))
        item = CalibrationScenario(scenario=scenario, real_positions=trace_positions(trace))
        objective = Objective("sfm", [item], scene, base, 0.5)
        genes = sfm_reference_values(base.sfm)
        assert objective([genes, genes]) == [fitness_sfm(genes, [item], scene, base)] * 2 == [0.0, 0.0]


@pytest.fixture(scope="module")
def crossing():
    scene = open_square_scene()
    base = ParameterSet()
    scenario = crossing_scenario()
    trace = run_scenario(SimulationConfig(scene=scene, scenario=scenario, params=base))
    return scene, base, scenario, trace


class TestFitnessGame:
    def test_replaying_the_generating_weights_scores_one(self, crossing) -> None:
        scene, base, scenario, trace = crossing
        decisions = trace_decisions(trace)
        assert decisions  # the crossing produces at least one game
        item = CalibrationScenario(
            scenario=scenario,
            real_positions=trace_positions(trace),
            annotations=dict(decisions),
        )
        genes = game_reference_values(base.game)
        assert fitness_game(genes, [item], scene, base) == 1.0

    def test_one_flipped_annotation_of_two_scores_zero(self, crossing) -> None:
        scene, base, scenario, trace = crossing
        decisions = trace_decisions(trace)
        assert len(decisions) >= 2
        annotations = dict(list(decisions.items())[:2])
        key = next(iter(annotations))
        annotations[key] = (
            Action.DECELERATE
            if annotations[key] is not Action.DECELERATE
            else Action.CONTINUE
        )
        item = CalibrationScenario(
            scenario=scenario,
            real_positions=trace_positions(trace),
            annotations=annotations,
        )
        assert fitness_game(game_reference_values(base.game), [item], scene, base) == 0.0

    def test_scores_average_across_annotated_scenarios(self, crossing) -> None:
        scene, base, scenario, trace = crossing
        decisions = trace_decisions(trace)
        real = trace_positions(trace)
        agree = CalibrationScenario(scenario, real, dict(decisions))
        flipped = {
            key: Action.DECELERATE if value is not Action.DECELERATE else Action.CONTINUE
            for key, value in decisions.items()
        }
        disagree = CalibrationScenario(scenario, real, flipped)
        genes = game_reference_values(base.game)
        assert fitness_game(genes, [agree, disagree], scene, base) == 0.0

    def test_unannotated_scenarios_are_skipped(self, crossing) -> None:
        scene, base, scenario, trace = crossing
        item = CalibrationScenario(scenario, trace_positions(trace), dict(trace_decisions(trace)))
        silent = CalibrationScenario(scenario, trace_positions(trace), {})
        genes = game_reference_values(base.game)
        assert fitness_game(genes, [item, silent], scene, base) == 1.0

    def test_no_annotated_scenarios_is_an_error(self, crossing) -> None:
        scene, base, scenario, trace = crossing
        silent = CalibrationScenario(scenario, trace_positions(trace), {})
        with pytest.raises(ScoreUndefinedError):
            fitness_game(game_reference_values(base.game), [silent], scene, base)

    def test_failed_simulation_scores_minus_one(self) -> None:
        base = ParameterSet()
        genes = game_reference_values(base.game)
        objective = Objective("game", [unreachable_item()], boxed_scene(), base, 0.5)
        for _ in range(2):
            assert objective([genes]) == [-1.0]

    def test_game_objective_negates_agreement(self, crossing) -> None:
        scene, base, scenario, trace = crossing
        item = CalibrationScenario(scenario, trace_positions(trace), dict(trace_decisions(trace)))
        # calibrate-game hands the GA the negated agreement, which it minimizes
        sign = _TARGETS["calibrate-game"].sign
        genes = game_reference_values(base.game)
        assert sign * Objective("game", [item], scene, base, 0.5)([genes])[0] == -fitness_game(
            genes, [item], scene, base
        ) == -1.0


class TestFitnessFailures:
    """A fitness function scores a scenario as failed only for the errors
    simulating and scoring raise by design; any other error is a fault
    and must not pass itself off as a bad score."""

    @pytest.fixture
    def raising_simulator(self, monkeypatch):
        def install(error: Exception) -> None:
            def run(*args, **kwargs):
                raise error

            monkeypatch.setattr(calibrate, "run_scenario", run)

        return install

    @pytest.mark.parametrize(
        "error",
        [
            # keep the ids these cases had when a simulation could also
            # raise ScenarioError and ParameterFileError
            pytest.param(ScenarioRejectedError("rejected"), id="error1"),
            pytest.param(ScoreUndefinedError("none"), id="error3"),
        ],
    )
    def test_expected_failures_score_the_penalty(self, crossing, raising_simulator, error) -> None:
        scene, base, scenario, trace = crossing
        item = CalibrationScenario(scenario, trace_positions(trace), dict(trace_decisions(trace)))
        raising_simulator(error)
        assert fitness_sfm(sfm_reference_values(base.sfm), [item], scene, base) == 1000.0
        assert fitness_game(game_reference_values(base.game), [item], scene, base) == -1.0

    def test_a_scenario_error_from_a_simulation_propagates(self, crossing, raising_simulator) -> None:
        # The objective checks the frame length when it is built, so no
        # simulation raises ScenarioError: one that did would be a fault.
        scene, base, scenario, trace = crossing
        item = CalibrationScenario(scenario, trace_positions(trace), dict(trace_decisions(trace)))
        raising_simulator(ScenarioError("dt must be positive and finite"))
        with pytest.raises(ScenarioError):
            fitness_sfm(sfm_reference_values(base.sfm), [item], scene, base)
        with pytest.raises(ScenarioError):
            fitness_game(game_reference_values(base.game), [item], scene, base)

    @pytest.mark.parametrize("frame_seconds", [0.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("objective", ["sfm", "game"])
    def test_an_invalid_frame_length_raises(self, objective, frame_seconds, monkeypatch) -> None:
        scene, training = data_set()
        base = ParameterSet()
        simulations = count_simulations(monkeypatch)
        fitness, genes = {
            "sfm": (fitness_sfm, sfm_reference_values(base.sfm)),
            "game": (fitness_game, game_reference_values(base.game)),
        }[objective]
        with pytest.raises(ScenarioError, match="dt must be positive and finite"):
            fitness(genes, training, scene, base, frame_seconds)
        assert simulations == []

    def test_a_parameter_error_from_a_simulation_propagates(self, crossing, raising_simulator) -> None:
        # Parameters check themselves when built, so no simulation raises
        # ParameterFileError: one that did would be a fault, not a bad score.
        scene, base, scenario, trace = crossing
        item = CalibrationScenario(scenario, trace_positions(trace), dict(trace_decisions(trace)))
        raising_simulator(ParameterFileError("bad"))
        with pytest.raises(ParameterFileError):
            fitness_sfm(sfm_reference_values(base.sfm), [item], scene, base)

    def test_a_programming_error_propagates(self, crossing, raising_simulator) -> None:
        scene, base, scenario, trace = crossing
        item = CalibrationScenario(scenario, trace_positions(trace), dict(trace_decisions(trace)))
        raising_simulator(ZeroDivisionError("division by zero"))
        with pytest.raises(ZeroDivisionError):
            fitness_sfm(sfm_reference_values(base.sfm), [item], scene, base)
        with pytest.raises(ZeroDivisionError):
            fitness_game(game_reference_values(base.game), [item], scene, base)

    def test_a_planner_fault_propagates(self, monkeypatch) -> None:
        scene = boxed_scene()
        base = ParameterSet()
        item = detour_item(scene)

        def broken(*args, **kwargs):
            raise TypeError("planner fault")

        monkeypatch.setattr(engine, "plan_path", broken)
        with pytest.raises(TypeError):
            engine.plan_waypoints(scene, item.scenario.entries)
        with pytest.raises(TypeError):
            fitness_sfm(sfm_reference_values(base.sfm), [item], scene, base)

    def test_an_agent_outside_the_scene_bounds_scores_the_penalty(self) -> None:
        scene = boxed_scene()  # bounds +-30 m
        far = Scenario("far", [ped_entry("p1", Vec2(-10.0, 0.0), Vec2(-10.0, 45.0))])
        item = CalibrationScenario(far, {"p1": {0: Vec2(-10.0, 0.0), 5: Vec2(-10.0, 5.0)}})
        with pytest.raises(ScenarioRejectedError, match="agent p1: goal"):
            engine.plan_waypoints(scene, far.entries)
        assert fitness_sfm(sfm_reference_values(ParameterSet().sfm), [item], scene, ParameterSet()) == 1000.0

    def test_an_unreachable_goal_scores_the_penalty(self) -> None:
        scene = boxed_scene()
        base = ParameterSet()
        with pytest.raises(ScenarioRejectedError, match="agent p1"):
            engine.plan_waypoints(scene, unreachable_item().scenario.entries)
        assert fitness_sfm(sfm_reference_values(base.sfm), [unreachable_item()], scene, base) == 1000.0


# ---------------------------------------------------------------------------
# Route plans kept across evaluations
# ---------------------------------------------------------------------------


def detour_item(scene: Scene) -> CalibrationScenario:
    """A pedestrian whose straight route crosses the boxed_scene obstacle,
    observed as simulated at the default parameters."""
    scenario = Scenario("detour", [ped_entry("p1", Vec2(-10.0, 0.5), Vec2(10.0, 0.5))])
    trace = run_scenario(SimulationConfig(scene=scene, scenario=scenario))
    return CalibrationScenario(scenario=scenario, real_positions=trace_positions(trace))


def count_plans(monkeypatch) -> list[tuple[list[AgentEntry], Scene]]:
    """Record the entries and scene of every route plan the objectives
    make."""
    plans: list[tuple[tuple[AgentEntry, ...], Scene]] = []
    plan = calibrate.plan_waypoints

    def counting(scene, entries):
        plans.append((tuple(entries), scene))
        return plan(scene, entries)

    monkeypatch.setattr(calibrate, "plan_waypoints", counting)
    return plans


def planned(plans: list[tuple[tuple[AgentEntry, ...], Scene]], items: list[CalibrationScenario]) -> list[str]:
    """The scenario id of each plan in `plans`, looked up in `items`."""
    return [next(i.scenario.scenario_id for i in items if i.scenario.entries == entries) for entries, _ in plans]


class TestInputsAreCheckedWhenBuilt:
    def test_no_evaluation_checks_a_scenario_or_the_base_again(self, monkeypatch) -> None:
        """Each scenario is checked when it is inferred; an evaluation
        checks only the group its genes decode into, once."""
        calls = count_validations(monkeypatch, Scenario, SfmParams, GameParams)
        training = build_calibration_set(load_trajectories(DATA / "trajectories.csv"))
        assert calls == ["Scenario"] * len(training) == ["Scenario"] * 5
        scene, base = load_scene(DATA / "scene.json"), ParameterSet()
        objective = Objective("sfm", training, scene, base, 0.5)
        genes = sfm_reference_values(base.sfm)
        del calls[:]
        for k in (1.0, 1.1, 0.9):
            assert math.isfinite(objective([[g * k for g in genes]])[0])
        assert calls == ["SfmParams"] * 3


class TestPlanReuse:
    def test_one_memo_plans_each_scenario_once(self, monkeypatch) -> None:
        scene, training = boxed_set()  # the last scenario is rejected
        base = ParameterSet()
        genes = sfm_reference_values(base.sfm)
        plans = count_plans(monkeypatch)
        simulations = count_simulations(monkeypatch)
        objective = Objective("sfm", training, scene, base, 0.5)
        assert planned(plans, training) == ["detour", "pair", "bad"]
        for scale in (1.0, 1.1, 0.9, 1.2):
            objective([[scale * g for g in genes]])
        assert simulations.count("detour") == 4
        assert planned(plans, training) == ["detour", "pair", "bad"]

    def test_a_call_without_a_memo_plans_its_items_once(self, monkeypatch) -> None:
        scene, training = boxed_set()
        base = ParameterSet()
        plans = count_plans(monkeypatch)
        fitness_sfm(sfm_reference_values(base.sfm), training, scene, base)
        assert planned(plans, training) == ["detour", "pair", "bad"]
        del plans[:]
        # the decision objective plans the annotated scenarios only
        fitness_game(game_reference_values(base.game), training, scene, base)
        assert planned(plans, training) == ["pair", "bad"]

    def test_a_moved_scene_is_planned_in_the_moved_scene(self, monkeypatch) -> None:
        scene = boxed_scene()
        item = detour_item(scene)
        base = ParameterSet()
        genes = sfm_reference_values(base.sfm)
        assert fitness_sfm(genes, [item], scene, base) == 0.0
        moved = dataclasses.replace(scene, obstacles=[[v + Vec2(0.0, 1.0) for v in scene.obstacles[0]]])
        plans = count_plans(monkeypatch)
        score = fitness_sfm(genes, [item], moved, base)
        assert [on for _, on in plans] == [moved]
        assert score.hex() == reference_score("sfm", genes, [item], moved, base).hex()
        assert score != 0.0

    def test_pickled_worker_scores_without_planning(self, monkeypatch) -> None:
        # what a pool process receives: the objective, with its plans
        scene = boxed_scene()
        base = ParameterSet()
        genes = sfm_reference_values(base.sfm)
        training = [detour_item(scene), unreachable_item()]
        objective = Objective("sfm", training, scene, base, 0.5)
        expected = fitness_sfm(genes, [detour_item(scene), unreachable_item()], scene, base)

        def no_planning(*args, **kwargs):
            raise AssertionError("planned again")

        monkeypatch.setattr(engine, "build_visibility_graph", no_planning)
        monkeypatch.setattr(engine, "plan_path", no_planning)
        restored = pickle.loads(pickle.dumps(objective))
        group = decode(genes, base, "sfm").sfm
        assert [restored.simulate((0, column, group))[3] for column in (0, 1)] == [0.0, None]
        assert restored([genes]) == [expected] == [pytest.approx(500.0, rel=1e-12)]


# ---------------------------------------------------------------------------
# Scenario simulations reused within one objective run
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parents[1] / "data"


@functools.cache
def data_set() -> tuple[Scene, list[CalibrationScenario]]:
    items = build_calibration_set(
        load_trajectories(DATA / "trajectories.csv"), load_annotations(DATA / "annotations.csv")
    )
    return load_scene(DATA / "scene.json"), items


@functools.cache
def boxed_set() -> tuple[Scene, list[CalibrationScenario]]:
    """Routes around the boxed_scene obstacle, which read u0 and
    r_obstacle, and a scenario that planning rejects."""
    scene = boxed_scene()
    pair = Scenario("pair", [
        ped_entry("p1", Vec2(-10.0, 0.5), Vec2(10.0, 0.5)),
        ped_entry("p2", Vec2(10.0, -0.5), Vec2(-10.0, -0.5)),
    ])
    trace = run_scenario(SimulationConfig(scene=scene, scenario=pair))
    observed = CalibrationScenario(pair, trace_positions(trace), {("p1", 0): Action.CONTINUE})
    return scene, [detour_item(scene), observed, unreachable_item()]


SETS = {"data": data_set, "boxed": boxed_set}


@st.composite
def lineages(draw, bounds: list[tuple[float, float]]) -> list[list[float]]:
    """A few chromosomes and their offspring by single-point crossover
    and single-gene mutation, so that later ones share genes with
    earlier ones."""
    def gene(i: int) -> st.SearchStrategy[float]:
        return st.floats(*bounds[i])

    n = len(bounds)
    pool = [[draw(gene(i)) for i in range(n)] for _ in range(draw(st.integers(1, 2)))]
    for _ in range(draw(st.integers(2, 4))):
        child = list(draw(st.sampled_from(pool)))
        if draw(st.booleans()):
            cut = draw(st.integers(1, n - 1))
            child[cut:] = draw(st.sampled_from(pool))[cut:]
        else:
            i = draw(st.integers(0, n - 1))
            child[i] = draw(gene(i))
        pool.append(child)
    return pool


def reference_score(
    group: str,
    genes: list[float],
    training: list[CalibrationScenario],
    scene: Scene,
    base: ParameterSet,
) -> float:
    """The objective of `group` with no memo: decode the genes, plan each
    scenario, simulate it on the plain parameter set and score it, or
    score the failure value where that fails by design."""
    if group == "sfm":
        items, past, failure = training, 1, SCENARIO_FAILURE_PENALTY
    else:
        items, past, failure = [i for i in training if i.annotations], STEPS_PAST_LAST_FRAME, -1.0
    try:
        params = decode(genes, base, group)
    except ParameterFileError:
        return failure
    scores = []
    for item in items:
        try:
            waypoints = engine.plan_waypoints(scene, item.scenario.entries)
            last_frame = max(max(frames) for frames in item.real_positions.values())
            trace = run_scenario(SimulationConfig(
                scene=scene, scenario=item.scenario, params=params, dt=0.5, max_steps=last_frame + past,
            ), waypoints)
            if group == "sfm":
                scores.append(position_error_score(item.real_positions, trace_positions(trace)))
            else:
                scores.append(agreement_score(item.annotations, trace_decisions(trace)))
        except (ScenarioError, ScenarioRejectedError, ScoreUndefinedError):
            scores.append(failure)
    return sum(scores) / len(scores)


def reference_bounds(group: str) -> list[tuple[float, float]]:
    base = ParameterSet()
    values = sfm_reference_values(base.sfm) if group == "sfm" else game_reference_values(base.game)
    return default_bounds(values, GENE_NAMES[group])


def count_simulations(monkeypatch) -> list[str]:
    """Record the scenario id of every simulation the objectives run."""
    ids: list[str] = []
    simulate = Objective.simulate

    def counting(objective, task):
        ids.append(objective.items[task[1]].scenario.scenario_id)
        return simulate(objective, task)

    monkeypatch.setattr(Objective, "simulate", counting)
    return ids


def eager_map(simulate, tasks) -> list:
    """A model of a process pool's map that starts no process: it takes
    every task before it returns the first result."""
    return [simulate(task) for task in list(tasks)]


MAPPERS = {"map": map, "eager": eager_map}


def car_entry(agent_id: str, position: Vec2, goal: Vec2) -> AgentEntry:
    return dataclasses.replace(crossing_scenario().entries[0], id=agent_id, position=position, goal=goal)


class TestSimulationMemo:
    """The one score memo, which an Objective holds."""

    def test_one_obstacle_index_per_scene(self, monkeypatch) -> None:
        scene, training = boxed_set()
        built = []
        init = ObstacleIndex.__init__

        def counting(index, polygons):
            built.append(index)
            init(index, polygons)

        monkeypatch.setattr(ObstacleIndex, "__init__", counting)
        pushed_with = []
        repel = forces.obstacle_repulsion

        def recording(agent, obstacles, params):
            pushed_with.append(obstacles)
            return repel(agent, obstacles, params)

        monkeypatch.setattr(forces, "obstacle_repulsion", recording)
        simulated = count_simulations(monkeypatch)
        # boxed_set simulated on its scene; an equal copy has no index yet
        scene = dataclasses.replace(scene)
        base, runs = ParameterSet(), []
        for group, genes in (("sfm", sfm_reference_values(base.sfm)), ("game", game_reference_values(base.game))):
            del pushed_with[:], simulated[:]
            objective = Objective(group, training, scene, base, 0.5)
            for scale in (1.0, 1.1, 0.9):
                objective([[scale * g for g in genes]])
            assert pushed_with and all(index is scene.obstacle_index for index in pushed_with)
            runs.append(len(simulated))
        # both objectives, planning and pushing, on one index
        assert built == [scene.obstacle_index]
        assert runs[0] >= 3

    def test_a_car_only_run_does_not_read_d_min_pc(self, monkeypatch) -> None:
        # two cars too far apart to meet: no pedestrian to stop for, no game
        scene = open_square_scene()
        scenario = Scenario("cars", [
            car_entry("c1", Vec2(-14.0, -20.0), Vec2(30.0, -20.0)),
            car_entry("c2", Vec2(-14.0, 20.0), Vec2(30.0, 20.0)),
        ])
        base = ParameterSet()
        view = recording_view(base.sfm)
        trace = run_scenario(SimulationConfig(scene, scenario, dataclasses.replace(base, sfm=view)))
        assert trace.steps_run > 0 and "d_min_pc" not in vars(view)
        item = CalibrationScenario(scenario, trace_positions(trace))
        objective = Objective("sfm", [item], scene, base, 0.5)
        genes = sfm_reference_values(base.sfm)
        assert objective([genes]) == [0.0]
        simulations = count_simulations(monkeypatch)
        changed = list(genes)
        changed[SFM_GENE_NAMES.index("d_min_pc")] *= 1.5
        assert objective([changed]) == [0.0]
        assert simulations == []

    @pytest.mark.parametrize("group,items", [
        ("sfm", "data"), ("sfm", "boxed"), ("game", "data"), ("game", "boxed"),
    ])
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_scores_equal_fresh_evaluations_bit_for_bit(self, group, items, data) -> None:
        scene, training = SETS[items]()
        base = ParameterSet()
        objective = Objective(group, training, scene, base, 0.5)
        for genes in data.draw(lineages(reference_bounds(group))):
            [remembered] = objective([genes])
            assert remembered.hex() == reference_score(group, genes, training, scene, base).hex()

    @pytest.mark.parametrize("mapper", ["map", "eager"])
    @pytest.mark.parametrize("group,items", [("sfm", "boxed"), ("game", "data")])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_generations_score_as_fresh_evaluations_under_any_mapper(self, group, items, mapper, data) -> None:
        scene, training = SETS[items]()
        base = ParameterSet()
        objective = Objective(group, training, scene, base, 0.5)
        bounds = reference_bounds(group)
        invalid = [high for _, high in bounds]
        invalid[0] = -1.0  # no gene may be negative, so this does not decode
        decodable = 0
        for _ in range(2):
            generation = data.draw(lineages(bounds))
            generation.insert(data.draw(st.integers(0, len(generation))), invalid)
            scores = objective(generation, MAPPERS[mapper])
            assert [s.hex() for s in scores] == [
                reference_score(group, genes, training, scene, base).hex() for genes in generation
            ]
            decodable += len(generation) - 1
        assert objective.simulations + objective.memo_hits == decodable * len(objective.items)

    def test_a_game_worker_keeps_positions_past_unannotated_items(self) -> None:
        scene, items = data_set()
        crossing, giveway = items[1:3]
        # ahead of the annotated scenarios, an unannotated one that planning
        # rejects: every goal lies outside the scene's bounds
        far = Scenario("far", [dataclasses.replace(e, goal=Vec2(100.0, e.goal.y)) for e in crossing.scenario.entries])
        training = [CalibrationScenario(far, crossing.real_positions), crossing, giveway]
        base = ParameterSet()
        objective = Objective("game", training, scene, base, 0.5)
        reference = game_reference_values(base.game)
        for genes in (reference, [0.5 * g for g in reference], [2.0 * g for g in reference]):
            assert objective([genes])[0].hex() == reference_score("game", genes, training, scene, base).hex()

    def test_a_worker_reuses_across_the_ga_offspring(self, monkeypatch) -> None:
        scene, training = data_set()
        objective = Objective("sfm", training, scene, ParameterSet(), 0.5)
        simulations = count_simulations(monkeypatch)
        result = ga_optimize(reference_bounds("sfm"), objective, GaConfig(6, 2, seed=0))
        assert len(simulations) == objective.simulations < len(training) * (result.evaluations - result.cache_hits)
        assert objective.simulations + objective.memo_hits == len(training) * (result.evaluations - result.cache_hits)
        assert objective.failed_simulations == 0

    def test_an_unread_gene_change_reuses_the_simulation(self, monkeypatch) -> None:
        scene = open_square_scene()  # no obstacles: u0 and r_obstacle go unread
        scenario = crossing_scenario()
        item = CalibrationScenario(scenario, trace_positions(run_scenario(SimulationConfig(scene, scenario))))
        base = ParameterSet()
        objective = Objective("sfm", [item], scene, base, 0.5)
        genes = sfm_reference_values(base.sfm)
        assert objective([genes]) == [0.0]
        simulations = count_simulations(monkeypatch)
        for name in ("u0", "r_obstacle"):
            changed = list(genes)
            changed[SFM_GENE_NAMES.index(name)] *= 2.0
            assert objective([changed]) == [0.0]
        assert simulations == []

    @pytest.mark.parametrize("mapper, runs", [("map", 1), ("eager", 2)])
    def test_map_sees_the_earlier_results_of_its_own_call(self, monkeypatch, mapper, runs) -> None:
        # In-process map takes a task only after the previous result is
        # stored, so --jobs 1 simulates what it did one chromosome at a
        # time; a pool takes the whole generation first and learns its
        # results only for the next call.
        scene = open_square_scene()  # no obstacles: u0 goes unread
        scenario = crossing_scenario()
        item = CalibrationScenario(scenario, trace_positions(run_scenario(SimulationConfig(scene, scenario))))
        objective = Objective("sfm", [item], scene, ParameterSet(), 0.5)
        genes = sfm_reference_values(ParameterSet().sfm)
        changed = list(genes)
        changed[SFM_GENE_NAMES.index("u0")] *= 2.0
        simulations = count_simulations(monkeypatch)
        assert objective([genes, changed], MAPPERS[mapper]) == [0.0, 0.0]
        assert simulations == ["crossing"] * runs
        assert (objective.simulations, objective.memo_hits) == (runs, 2 - runs)

    def test_a_read_gene_change_simulates_again(self, monkeypatch) -> None:
        scene, training = boxed_set()
        base = ParameterSet()
        objective = Objective("sfm", training[:1], scene, base, 0.5)
        genes = sfm_reference_values(base.sfm)
        objective([genes])
        simulations = count_simulations(monkeypatch)
        changed = list(genes)
        changed[SFM_GENE_NAMES.index("u0")] *= 2.0
        [score] = objective([changed])
        assert simulations == ["detour"]
        assert score == reference_score("sfm", changed, training[:1], scene, base) != 0.0

    def test_a_failure_is_kept_only_for_the_values_it_read(self, monkeypatch) -> None:
        scene, training = boxed_set()
        base = ParameterSet()
        simulate = calibrate.run_scenario

        def blowing_up(config, waypoints):
            # a non-finite state that only a large v0_pp brings about
            if config.params.sfm.v0_pp > 2.0:
                raise ScenarioRejectedError("agent p1: non-finite state at step 3")
            return simulate(config, waypoints)

        monkeypatch.setattr(calibrate, "run_scenario", blowing_up)
        genes = sfm_reference_values(base.sfm)
        strong = list(genes)
        strong[SFM_GENE_NAMES.index("v0_pp")] = 3.0
        objective = Objective("sfm", training[:1], scene, base, 0.5)
        assert objective([strong, genes]) == [SCENARIO_FAILURE_PENALTY, 0.0]
        assert (objective.simulations, objective.failed_simulations) == (2, 1)
        simulations = count_simulations(monkeypatch)
        assert objective([strong, genes]) == [SCENARIO_FAILURE_PENALTY, 0.0]
        assert simulations == []

    def test_an_unreachable_goal_is_reused_for_any_genes(self, monkeypatch) -> None:
        scene, training = boxed_set()
        base = ParameterSet()
        objective = Objective("sfm", training[2:], scene, base, 0.5)
        genes = sfm_reference_values(base.sfm)
        assert objective([genes]) == [SCENARIO_FAILURE_PENALTY]
        simulations = count_simulations(monkeypatch)
        assert objective([[2.0 * g for g in genes]]) == [SCENARIO_FAILURE_PENALTY]
        assert simulations == []

    def test_a_failure_before_any_read_is_reused_for_any_genes(self, monkeypatch) -> None:
        scene, training = boxed_set()
        base = ParameterSet()

        def failing(config, waypoints):
            raise ScenarioRejectedError("agent p1: non-finite state at step 0")

        monkeypatch.setattr(calibrate, "run_scenario", failing)
        objective = Objective("sfm", training[:1], scene, base, 0.5)
        genes = sfm_reference_values(base.sfm)
        assert objective([genes]) == [SCENARIO_FAILURE_PENALTY]
        simulations = count_simulations(monkeypatch)
        assert objective([[2.0 * g for g in genes]]) == [SCENARIO_FAILURE_PENALTY]
        assert simulations == []
        assert (objective.simulations, objective.memo_hits, objective.failed_simulations) == (1, 1, 1)

    def test_a_game_weight_across_a_decision_boundary_simulates_again(self) -> None:
        # g_angle = 5/3 is a decision boundary of the bundled crossing
        # scenario at the other default weights (found by bisection): the
        # two chromosomes differ in that one weight and agree differently.
        scene, items = data_set()
        crossing = items[1:2]
        base = ParameterSet()
        objective = Objective("game", crossing, scene, base, 0.5)
        below, above = game_reference_values(base.game), game_reference_values(base.game)
        below[GAME_GENE_NAMES.index("g_angle")] = 1.6666666
        above[GAME_GENE_NAMES.index("g_angle")] = 1.6666667
        want = [reference_score("game", genes, crossing, scene, base) for genes in (below, above)]
        assert want[0] != want[1]
        for genes, expected in zip((below, above, below, above), want + want):
            assert objective([genes])[0].hex() == expected.hex()

    def test_a_dropped_memo_frees_without_the_cyclic_collector(self) -> None:
        scene, base = boxed_scene(), ParameterSet()
        genes = sfm_reference_values(base.sfm)
        gc.disable()
        try:
            objective = Objective("sfm", [unreachable_item()], scene, base, 0.5)
            assert objective([genes]) == [SCENARIO_FAILURE_PENALTY]
            alive = weakref.ref(objective)
            del objective
            assert alive() is None
        finally:
            gc.enable()

    def test_an_invalid_chromosome_fails_every_scenario(self, monkeypatch) -> None:
        scene, training = boxed_set()
        base = ParameterSet()
        objective = Objective("sfm", training, scene, base, 0.5)
        genes = sfm_reference_values(base.sfm)
        genes[SFM_GENE_NAMES.index("anisotropy")] = 1.5
        # the decoded group checks itself, so no scenario is simulated
        with pytest.raises(ParameterFileError, match="anisotropy"):
            decode(genes, base, "sfm")
        simulations = count_simulations(monkeypatch)
        for _ in range(2):
            assert objective([genes]) == [SCENARIO_FAILURE_PENALTY]
        assert simulations == []
        assert objective.simulations == objective.memo_hits == 0


# The modules a simulation runs in, which must read a parameter group
# field by field, so that a recording view sees every value they use.
SIMULATOR_MODULES = ("engine", "forces", "conflicts", "game", "scene")
WHOLESALE_READS = {
    "vars", "asdict", "astuple", "replace", "deepcopy",
    "copy.copy", "copy.deepcopy", "dataclasses.asdict", "dataclasses.astuple", "dataclasses.replace",
}


@pytest.mark.parametrize("module", SIMULATOR_MODULES)
def test_the_simulator_never_reads_a_parameter_group_wholesale(module) -> None:
    path = Path(calibrate.__file__).with_name(f"{module}.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "copy"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("copy", "dataclasses"):
            found += [alias.name for alias in node.names if alias.name not in ("dataclass", "field", "fields")]
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name in WHOLESALE_READS or (
                name in ("fields", "dataclasses.fields") and ast.unparse(node) != f"{name}(FeatureVector)"
            ):
                found.append(ast.unparse(node))
    assert found == []


def test_the_memo_tells_signed_zeros_apart() -> None:
    scene, training = boxed_set()
    base = ParameterSet()
    objective = Objective("sfm", training[:2], scene, base, 0.5)
    view = recording_view(SfmParams(anisotropy=0.0))
    assert view.anisotropy == 0.0

    def recorded(simulate, tasks):
        # scenario 0 read only anisotropy = 0.0; scenario 1 read it as 1.0
        return [(row, column, vars(view) if column == 0 else {"anisotropy": 1.0}, 1.0 + column)
                for row, column, _ in tasks]

    assert objective([sfm_reference_values(base.sfm)], recorded) == [1.5]
    assert objective.lookup(0, SfmParams(anisotropy=0.0, v_r=1.0)) == 1.0
    assert objective.lookup(0, SfmParams(anisotropy=-0.0)) is None
    assert objective.lookup(1, SfmParams(anisotropy=0.0)) is None
