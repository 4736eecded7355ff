"""Calibration layer: GA core, gene codecs, data assembly, fitness scores."""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_graph_builds, open_square_scene
from sharedspace import calibrate, engine
from sharedspace.calibrate import (
    GAME_GENE_NAMES,
    SCENARIO_FAILURE_PENALTY,
    SFM_GENE_NAMES,
    CalibrationScenario,
    GaConfig,
    GaConfigError,
    GenStats,
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
from sharedspace.cli import _FitnessWorker
from sharedspace.dataio import DecisionAnnotation, TrajectoryFormatError, TrajectoryRecord
from sharedspace.engine import (
    AgentEntry,
    DecisionRow,
    Scenario,
    ScenarioError,
    ScenarioRejectedError,
    SimulationConfig,
    SimulationTrace,
    TraceRow,
    run_scenario,
)
from sharedspace.game import Action, FeatureVector
from sharedspace.geometry import Vec2
from sharedspace.params import ParameterFileError, ParameterSet
from sharedspace.scene import AgentKind, Rect, Scene


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
            {"crossover_rate": -0.1},
            {"crossover_rate": 1.1},
            {"mutation_rate": 2.0},
            {"mutation_sigma_fraction": -0.5},
            {"tournament_size": 0},
            {"tournament_size": 51},
            {"elitism": -1},
            {"elitism": 50},
            {"stagnation_window": 0},
        ],
    )
    def test_out_of_range_settings_rejected(self, overrides) -> None:
        config = GaConfig(**overrides)
        with pytest.raises(GaConfigError):
            config.validate()

    def test_defaults_valid(self) -> None:
        GaConfig().validate()

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
            config.population_size - config.elitism
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

    def test_without_variation_operators_best_stays_at_initial(self) -> None:
        result = ga_optimize(
            QUAD_BOUNDS,
            per_individual(quadratic),
            GaConfig(
                population_size=12,
                max_generations=200,
                seed=5,
                mutation_rate=0.0,
                crossover_rate=0.0,
            ),
        )
        assert result.best_fitness == result.history[0].best_fitness
        assert result.stopped_early

    def test_repeated_chromosomes_are_scored_once(self) -> None:
        # Without variation every child copies a parent, so after
        # generation 0 every chromosome is a repeat.
        seen: list[bytes] = []

        def counting(population: np.ndarray) -> np.ndarray:
            seen.extend(individual.tobytes() for individual in population)
            return per_individual(quadratic)(population)

        config = GaConfig(
            population_size=6, max_generations=3, seed=5, mutation_rate=0.0, crossover_rate=0.0
        )
        result = ga_optimize(QUAD_BOUNDS, counting, config)
        assert len(seen) == len(set(seen)) == config.population_size
        assert result.evaluations == config.population_size + 3 * (config.population_size - 1)
        assert result.cache_hits == result.evaluations - config.population_size

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
        assert default_bounds([2.0, 0.4]) == [(0.5, 8.0), (0.1, 1.6)]

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_default_bounds_reject_non_positive_references(self, value) -> None:
        with pytest.raises(GaConfigError):
            default_bounds([value])

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


class TestBuildCalibrationSet:
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
        trace = SimulationTrace(
            scenario_id="s",
            rows=[
                TraceRow(0, "p1", AgentKind.PEDESTRIAN, 1.0, 2.0, "forces"),
                TraceRow(1, "p1", AgentKind.PEDESTRIAN, 1.5, 2.5, "forces"),
                TraceRow(0, "c1", AgentKind.CAR, -3.0, 0.0, "free_flow"),
            ],
        )
        assert trace_positions(trace) == {
            "p1": {0: Vec2(1.0, 2.0), 1: Vec2(1.5, 2.5)},
            "c1": {0: Vec2(-3.0, 0.0)},
        }

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
        meters_per_unit=1.0,
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
        item = unreachable_item()
        # the second call meets the rejection kept from the first
        for _ in range(2):
            score = fitness_sfm(genes, [item], boxed_scene(), base)
            assert score == SCENARIO_FAILURE_PENALTY == 1000.0

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
        worker = _FitnessWorker("sfm", [item], scene, base, 0.5)
        genes = sfm_reference_values(base.sfm)
        assert worker(genes) == fitness_sfm(genes, [item], scene, base) == 0.0


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
        item = unreachable_item()
        for _ in range(2):
            assert fitness_game(genes, [item], boxed_scene(), base) == -1.0

    def test_game_objective_negates_agreement(self, crossing) -> None:
        scene, base, scenario, trace = crossing
        item = CalibrationScenario(scenario, trace_positions(trace), dict(trace_decisions(trace)))
        worker = _FitnessWorker("game", [item], scene, base, 0.5)
        genes = game_reference_values(base.game)
        assert worker(genes) == -fitness_game(genes, [item], scene, base) == -1.0


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
            ScenarioError("bad"),
            ScenarioRejectedError("rejected"),
            ParameterFileError("bad"),
            ScoreUndefinedError("none"),
        ],
    )
    def test_expected_failures_score_the_penalty(self, crossing, raising_simulator, error) -> None:
        scene, base, scenario, trace = crossing
        item = CalibrationScenario(scenario, trace_positions(trace), dict(trace_decisions(trace)))
        raising_simulator(error)
        assert fitness_sfm(sfm_reference_values(base.sfm), [item], scene, base) == 1000.0
        assert fitness_game(game_reference_values(base.game), [item], scene, base) == -1.0

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


class TestPlanReuse:
    def test_routes_are_planned_once_while_the_scene_is_equal(self, monkeypatch) -> None:
        scene = boxed_scene()
        item = detour_item(scene)
        base = ParameterSet()
        genes = sfm_reference_values(base.sfm)
        builds = count_graph_builds(monkeypatch)
        assert fitness_sfm(genes, [item], scene, base) == 0.0
        assert fitness_sfm(genes, [item], boxed_scene(), base) == 0.0
        fitness_sfm([1.1 * g for g in genes], [item], scene, base)
        assert len(builds) == 1
        moved = dataclasses.replace(scene, obstacles=[[v + Vec2(0.0, 1.0) for v in scene.obstacles[0]]])
        fitness_sfm(genes, [item], moved, base)
        assert len(builds) == 2

    def test_pickled_worker_scores_without_planning(self, monkeypatch) -> None:
        scene = boxed_scene()
        base = ParameterSet()
        genes = sfm_reference_values(base.sfm)
        training = [detour_item(scene), unreachable_item()]
        worker = _FitnessWorker("sfm", training, scene, base, 0.5)
        expected = fitness_sfm(genes, [detour_item(scene), unreachable_item()], scene, base)

        def no_planning(*args, **kwargs):
            raise AssertionError("planned again")

        monkeypatch.setattr(engine, "build_visibility_graph", no_planning)
        monkeypatch.setattr(engine, "plan_path", no_planning)
        restored = pickle.loads(pickle.dumps(worker))
        assert restored(genes) == expected == pytest.approx(500.0, rel=1e-12)
