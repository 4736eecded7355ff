"""Trajectory/annotation IO and metric tests.

Metric oracles are tiny hand-built trajectories whose averages are
computed in the comments.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sharedspace.dataio import (
    ANNOTATION_COLUMNS,
    TRAJECTORY_COLUMNS,
    AlignmentError,
    DecisionAnnotation,
    MetricUndefinedError,
    TrajectoryFormatError,
    TrajectoryRecord,
    ade,
    attach_decision_metrics,
    compare_trajectories,
    confusion_matrix,
    decision_error,
    group_by_agent,
    index_decisions,
    load_annotations,
    load_decisions,
    load_trajectories,
    parse_action,
    speed_deviation,
    write_annotations,
    write_metric_report,
    write_trajectories,
    format_report_summary,
)
from sharedspace.game import Action
from sharedspace.geometry import Vec2
from sharedspace.scene import AgentKind

C, D, V = Action.CONTINUE, Action.DECELERATE, Action.DEVIATE


def write_csv(path: Path, header: tuple[str, ...], rows: list[str]) -> Path:
    path.write_text("\n".join([",".join(header), *rows]) + "\n")
    return path


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


class TestLoadTrajectories:
    def test_happy_path(self, tmp_path: Path) -> None:
        path = write_csv(
            tmp_path / "t.csv",
            TRAJECTORY_COLUMNS,
            ["s1,0,p1,ped,1.5,-2.25", "s1,1,p1,ped,2.0,-2.0", "s1,0,c1,car,0.0,0.0"],
        )
        records = load_trajectories(path)
        assert records == [
            TrajectoryRecord("s1", 0, "p1", AgentKind.PEDESTRIAN, 1.5, -2.25),
            TrajectoryRecord("s1", 1, "p1", AgentKind.PEDESTRIAN, 2.0, -2.0),
            TrajectoryRecord("s1", 0, "c1", AgentKind.CAR, 0.0, 0.0),
        ]

    def test_unit_scaling(self, tmp_path: Path) -> None:
        path = write_csv(tmp_path / "t.csv", TRAJECTORY_COLUMNS, ["s1,0,p1,ped,4.0,-6.0"])
        (record,) = load_trajectories(path, meters_per_unit=0.5)
        assert (record.x, record.y) == (2.0, -3.0)
        with pytest.raises(TrajectoryFormatError, match="meters_per_unit"):
            load_trajectories(path, meters_per_unit=0.0)

    def test_wrong_header_rejected(self, tmp_path: Path) -> None:
        path = write_csv(tmp_path / "t.csv", ("a", "b"), ["1,2"])
        with pytest.raises(TrajectoryFormatError, match=r"t\.csv:1"):
            load_trajectories(path)

    def test_empty_file_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(TrajectoryFormatError, match="empty"):
            load_trajectories(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s1,zero,p1,ped,0,0", "bad frame"),
            ("s1,-1,p1,ped,0,0", "negative frame"),
            ("s1,0,p1,bike,0,0", "kind"),
            ("s1,0,p1,ped,abc,0", "bad coordinates"),
            ("s1,0,p1,ped,nan,0", "non-finite"),
            ("s1,0,p1,ped,0", "expected 6 columns"),
        ],
    )
    def test_bad_rows_rejected_with_line_numbers(
        self, tmp_path: Path, row: str, message: str
    ) -> None:
        path = write_csv(tmp_path / "t.csv", TRAJECTORY_COLUMNS, ["s1,0,q1,ped,0,0", row])
        with pytest.raises(TrajectoryFormatError, match=message) as err:
            load_trajectories(path)
        assert ":3:" in str(err.value)

    def test_frames_must_increase_per_agent(self, tmp_path: Path) -> None:
        path = write_csv(
            tmp_path / "t.csv",
            TRAJECTORY_COLUMNS,
            ["s1,2,p1,ped,0,0", "s1,2,p1,ped,1,1"],
        )
        with pytest.raises(TrajectoryFormatError, match="increase"):
            load_trajectories(path)
        # The same frame for another agent or scenario is fine.
        path = write_csv(
            tmp_path / "t2.csv",
            TRAJECTORY_COLUMNS,
            ["s1,2,p1,ped,0,0", "s1,2,p2,ped,1,1", "s2,2,p1,ped,1,1"],
        )
        assert len(load_trajectories(path)) == 3

    def test_round_trip_preserves_floats(self, tmp_path: Path) -> None:
        records = [
            TrajectoryRecord("s1", 0, "p1", AgentKind.PEDESTRIAN, 1.0 / 3.0, -0.1),
            TrajectoryRecord("s1", 7, "p1", AgentKind.PEDESTRIAN, math.pi, 1e-17),
        ]
        path = tmp_path / "t.csv"
        write_trajectories(records, path)
        assert load_trajectories(path) == records


class TestAnnotations:
    def test_load_and_round_trip(self, tmp_path: Path) -> None:
        annotations = [
            DecisionAnnotation("s1", "p1", 0, C),
            DecisionAnnotation("s1", "p1", 1, V),
            DecisionAnnotation("s1", "c1", 0, D),
        ]
        path = tmp_path / "a.csv"
        write_annotations(annotations, path)
        assert load_annotations(path) == annotations

    def test_accelerate_alias_maps_to_continue(self, tmp_path: Path) -> None:
        path = write_csv(tmp_path / "a.csv", ANNOTATION_COLUMNS, ["s1,c1,0,accelerate"])
        assert load_annotations(path)[0].action is C
        assert parse_action("Accelerate") is C
        assert parse_action(" DEVIATE ") is V

    def test_unknown_action_rejected(self, tmp_path: Path) -> None:
        path = write_csv(tmp_path / "a.csv", ANNOTATION_COLUMNS, ["s1,c1,0,swerve"])
        with pytest.raises(TrajectoryFormatError, match="swerve") as err:
            load_annotations(path)
        assert ":2:" in str(err.value)

    def test_bad_conflict_idx_rejected(self, tmp_path: Path) -> None:
        path = write_csv(tmp_path / "a.csv", ANNOTATION_COLUMNS, ["s1,c1,first,continue"])
        with pytest.raises(TrajectoryFormatError, match="conflict_idx"):
            load_annotations(path)

    def test_wrong_header_rejected(self, tmp_path: Path) -> None:
        path = write_csv(tmp_path / "a.csv", TRAJECTORY_COLUMNS, [])
        with pytest.raises(TrajectoryFormatError, match="header"):
            load_annotations(path)


class TestDecisionIndexing:
    def test_ordinals_count_per_owner_in_input_order(self) -> None:
        decisions = [
            (("s1", "c1"), Action.CONTINUE),
            (("s1", "p1"), Action.DEVIATE),
            (("s2", "p1"), Action.CONTINUE),
            (("s1", "p1"), Action.DECELERATE),
        ]
        assert index_decisions(decisions) == {
            ("s1", "c1", 0): Action.CONTINUE,
            ("s1", "p1", 0): Action.DEVIATE,
            ("s2", "p1", 0): Action.CONTINUE,
            ("s1", "p1", 1): Action.DECELERATE,
        }

    def test_load_decisions_keys_rows_by_scenario_agent_and_ordinal(self, tmp_path) -> None:
        path = tmp_path / "decisions.csv"
        path.write_text(
            "scenario_id,step,conflict_id,agent_id,action\n"
            "s1,3,0,c1,continue\n"
            "s1,3,0,p1,deviate\n"
            "s1,9,1,p1,accelerate\n"
        )
        assert load_decisions(path) == {
            ("s1", "c1", 0): Action.CONTINUE,
            ("s1", "p1", 0): Action.DEVIATE,
            ("s1", "p1", 1): Action.CONTINUE,
        }

    def test_load_decisions_needs_its_columns(self, tmp_path) -> None:
        path = tmp_path / "decisions.csv"
        path.write_text("scenario_id,agent_id\ns1,c1\n")
        with pytest.raises(TrajectoryFormatError, match="action"):
            load_decisions(path)


class TestGroupByAgent:
    def test_groups_and_indexes_by_frame(self) -> None:
        records = [
            TrajectoryRecord("s1", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0),
            TrajectoryRecord("s1", 2, "p1", AgentKind.PEDESTRIAN, 1.0, 0.0),
            TrajectoryRecord("s2", 0, "p1", AgentKind.PEDESTRIAN, 5.0, 5.0),
        ]
        grouped = group_by_agent(records)
        kind, traj = grouped[("s1", "p1")]
        assert kind is AgentKind.PEDESTRIAN
        assert traj == {0: Vec2(0.0, 0.0), 2: Vec2(1.0, 0.0)}
        assert set(grouped) == {("s1", "p1"), ("s2", "p1")}

    def test_kind_change_rejected(self) -> None:
        records = [
            TrajectoryRecord("s1", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0),
            TrajectoryRecord("s1", 1, "p1", AgentKind.CAR, 1.0, 0.0),
        ]
        with pytest.raises(TrajectoryFormatError, match="kind"):
            group_by_agent(records)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestAde:
    def test_identical_trajectories_score_zero(self) -> None:
        traj = {0: Vec2(0.0, 0.0), 1: Vec2(1.0, 1.0)}
        assert ade(traj, dict(traj)) == 0.0

    def test_constant_offset_is_the_offset(self) -> None:
        real = {f: Vec2(float(f), 0.0) for f in range(4)}
        sim = {f: Vec2(float(f), 2.0) for f in range(4)}
        assert ade(real, sim) == pytest.approx(2.0, rel=1e-12)

    def test_averages_over_common_frames_only(self) -> None:
        # Common frames 0 and 2 with displacements 1 and 3: mean 2.
        real = {0: Vec2(0.0, 0.0), 1: Vec2(9.0, 9.0), 2: Vec2(0.0, 0.0)}
        sim = {0: Vec2(1.0, 0.0), 2: Vec2(3.0, 0.0), 5: Vec2(-9.0, 0.0)}
        assert ade(real, sim) == pytest.approx(2.0, rel=1e-12)

    def test_no_common_frames_is_undefined(self) -> None:
        with pytest.raises(MetricUndefinedError, match="common"):
            ade({0: Vec2(0.0, 0.0)}, {1: Vec2(0.0, 0.0)})

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
            ),
            min_size=1,
            max_size=20,
        ),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_translation_invariance(self, points: list[tuple[float, float]], dx: float, dy: float) -> None:
        real = {i: Vec2(x, y) for i, (x, y) in enumerate(points)}
        shifted = {i: Vec2(x + dx, y + dy) for i, (x, y) in enumerate(points)}
        expected = math.hypot(dx, dy)
        assert ade(real, shifted) == pytest.approx(expected, abs=1e-9)


class TestSpeedDeviation:
    def test_identical_trajectories_score_zero(self) -> None:
        traj = {0: Vec2(0.0, 0.0), 1: Vec2(1.0, 0.0), 2: Vec2(3.0, 0.0)}
        assert speed_deviation(traj, dict(traj)) == 0.0

    def test_hand_computed_value(self) -> None:
        # Frames 0.5 s apart. Real speeds: 2 m/s then 4 m/s.
        real = {0: Vec2(0.0, 0.0), 1: Vec2(1.0, 0.0), 2: Vec2(3.0, 0.0)}
        # Sim speeds: 1 m/s then 1 m/s. Deviations 1 and 3: mean 2.
        sim = {0: Vec2(0.0, 0.0), 1: Vec2(0.5, 0.0), 2: Vec2(1.0, 0.0)}
        assert speed_deviation(real, sim) == pytest.approx(2.0, rel=1e-12)

    def test_frame_gaps_extend_the_time_base(self) -> None:
        # Common frames 0 and 4: dt = 2 s. Real moves 4 m (2 m/s), sim
        # stays put: deviation 2 m/s.
        real = {0: Vec2(0.0, 0.0), 4: Vec2(4.0, 0.0)}
        sim = {0: Vec2(0.0, 0.0), 4: Vec2(0.0, 0.0)}
        assert speed_deviation(real, sim) == pytest.approx(2.0, rel=1e-12)

    def test_custom_frame_seconds(self) -> None:
        real = {0: Vec2(0.0, 0.0), 1: Vec2(1.0, 0.0)}
        sim = {0: Vec2(0.0, 0.0), 1: Vec2(0.0, 0.0)}
        assert speed_deviation(real, sim, frame_seconds=1.0) == pytest.approx(1.0)
        with pytest.raises(MetricUndefinedError, match="frame_seconds"):
            speed_deviation(real, sim, frame_seconds=0.0)

    def test_needs_two_common_frames(self) -> None:
        with pytest.raises(MetricUndefinedError, match="two common"):
            speed_deviation({0: Vec2(0.0, 0.0)}, {0: Vec2(0.0, 0.0)})


class TestDecisionError:
    def test_all_match(self) -> None:
        assert decision_error([C, D, V], [C, D, V]) == 0.0

    def test_fraction_of_mismatches(self) -> None:
        assert decision_error([C, D, V, C], [C, C, V, D]) == pytest.approx(0.5)

    def test_length_mismatch_is_alignment_error(self) -> None:
        with pytest.raises(AlignmentError, match="2 real vs 1"):
            decision_error([C, D], [C])

    def test_empty_is_undefined(self) -> None:
        with pytest.raises(MetricUndefinedError):
            decision_error([], [])

    def test_confusion_matrix_counts(self) -> None:
        matrix = confusion_matrix([C, C, D, V], [C, D, D, C])
        assert matrix == {(C, C): 1, (C, D): 1, (D, D): 1, (V, C): 1}
        with pytest.raises(AlignmentError):
            confusion_matrix([C], [])


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def make_records(scenario: str, agent: str, kind: AgentKind, points: list[tuple[int, float, float]]):
    return [TrajectoryRecord(scenario, f, agent, kind, x, y) for f, x, y in points]


class TestCompareTrajectories:
    def test_per_agent_metrics_and_kind_means(self) -> None:
        real = (
            make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.0, 0.0), (1, 1.0, 0.0)])
            + make_records("s1", "c1", AgentKind.CAR, [(0, 5.0, 0.0), (1, 7.0, 0.0)])
        )
        sim = (
            make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.0, 1.0), (1, 1.0, 1.0)])
            + make_records("s1", "c1", AgentKind.CAR, [(0, 5.0, 3.0), (1, 7.0, 3.0)])
        )
        report = compare_trajectories(real, sim)
        assert report.unmatched_agents == []
        by_agent = {m.agent_id: m for m in report.per_agent}
        assert by_agent["p1"].ade == pytest.approx(1.0)
        assert by_agent["c1"].ade == pytest.approx(3.0)
        # Both pairs move at identical speeds: zero deviation.
        assert by_agent["p1"].speed_deviation == pytest.approx(0.0)
        assert report.kind_stats(AgentKind.PEDESTRIAN)["ade_mean"] == pytest.approx(1.0)
        assert report.kind_stats(AgentKind.CAR)["ade_mean"] == pytest.approx(3.0)

    def test_single_frame_agent_has_no_speed_metric(self) -> None:
        real = make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.0, 0.0)])
        sim = make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 1.0, 0.0)])
        report = compare_trajectories(real, sim)
        assert report.per_agent[0].ade == pytest.approx(1.0)
        assert report.per_agent[0].speed_deviation is None
        assert "speed_dev_mean" not in report.kind_stats(AgentKind.PEDESTRIAN)

    def test_unmatched_agents_are_listed_not_scored(self) -> None:
        real = (
            make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.0, 0.0)])
            + make_records("s1", "p2", AgentKind.PEDESTRIAN, [(0, 0.0, 0.0)])
            + make_records("s2", "p3", AgentKind.PEDESTRIAN, [(5, 0.0, 0.0)])
        )
        # p2 is absent from the sim; p3 shares no frames with it.
        sim = (
            make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.5, 0.0)])
            + make_records("s2", "p3", AgentKind.PEDESTRIAN, [(9, 0.0, 0.0)])
        )
        report = compare_trajectories(real, sim)
        assert report.unmatched_agents == [("s1", "p2"), ("s2", "p3")]
        assert [m.agent_id for m in report.per_agent] == ["p1"]

    def test_empty_real_data_gives_empty_report(self) -> None:
        report = compare_trajectories([], [])
        assert report.per_agent == []
        assert report.kind_stats(AgentKind.PEDESTRIAN) == report.kind_stats(AgentKind.CAR) == {}


class TestAttachDecisionMetrics:
    def test_join_by_scenario_agent_and_ordinal(self) -> None:
        report = compare_trajectories([], [])
        annotations = [
            DecisionAnnotation("s1", "p1", 0, C),
            DecisionAnnotation("s1", "p1", 1, D),
            DecisionAnnotation("s1", "c1", 0, C),
            DecisionAnnotation("s2", "p9", 0, V),
        ]
        simulated = {
            ("s1", "p1", 0): C,
            ("s1", "p1", 1): V,
            ("s1", "c1", 0): C,
        }
        missing = attach_decision_metrics(report, annotations, simulated)
        assert missing == [("s2", "p9", 0)]
        # Two matches, one mismatch among three joined pairs.
        assert report.decision_error_rate == pytest.approx(1.0 / 3.0)
        assert report.confusion == {(C, C): 2, (D, V): 1}

    def test_no_matches_leaves_rate_unset(self) -> None:
        report = compare_trajectories([], [])
        missing = attach_decision_metrics(
            report, [DecisionAnnotation("s1", "p1", 0, C)], {}
        )
        assert missing == [("s1", "p1", 0)]
        assert report.decision_error_rate is None


class TestReportOutput:
    def test_report_csv(self, tmp_path: Path) -> None:
        real = make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.0, 0.0), (1, 1.0, 0.0)])
        sim = make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.0, 0.5), (1, 1.0, 0.5)])
        report = compare_trajectories(real, sim)
        path = tmp_path / "report.csv"
        write_metric_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario_id,agent_id,kind,ade,speed_deviation"
        cells = lines[1].split(",")
        assert cells[:3] == ["s1", "p1", "ped"]
        assert float(cells[3]) == report.per_agent[0].ade

    def test_summary_text(self) -> None:
        real = make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.0, 0.0), (1, 1.0, 0.0)])
        sim = make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.0, 1.0), (1, 1.0, 1.0)])
        report = compare_trajectories(real, sim)
        attach_decision_metrics(
            report, [DecisionAnnotation("s1", "p1", 0, C)], {("s1", "p1", 0): D}
        )
        text = format_report_summary(report)
        assert "ped: n=1 mean_ade=1.000 m" in text
        assert "decision_error_rate=1.000" in text
        assert "confusion real=continue sim=decelerate: 1" in text
