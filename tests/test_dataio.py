"""Trajectory/annotation IO and metric tests.

Metric oracles are tiny hand-built trajectories whose averages are
computed in the comments.
"""

from __future__ import annotations

import csv
import math
import random
import string
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedspace import cli, dataio
from sharedspace.dataio import (
    ANNOTATION_COLUMNS,
    TRAJECTORY_COLUMNS,
    AlignmentError,
    DecisionAnnotation,
    MetricUndefinedError,
    TrajectoryFormatError,
    TrajectoryRecord,
    TrajectoryTable,
    ade,
    agent_tracks,
    attach_decision_metrics,
    compare_trajectories,
    confusion_matrix,
    decision_error,
    index_decisions,
    load_annotations,
    load_decisions,
    load_trajectories,
    parse_action,
    read_columns,
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
        assert list(records) == [
            TrajectoryRecord("s1", 0, "p1", AgentKind.PEDESTRIAN, 1.5, -2.25),
            TrajectoryRecord("s1", 1, "p1", AgentKind.PEDESTRIAN, 2.0, -2.0),
            TrajectoryRecord("s1", 0, "c1", AgentKind.CAR, 0.0, 0.0),
        ]

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
        assert list(load_trajectories(path)) == records


def read_trajectory_rows(path: Path) -> list[TrajectoryRecord]:
    """A valid trajectory file read row by row: the reference for what
    load_trajectories reads column by column."""
    with open(path, newline="") as fh:
        rows = [[field.strip() for field in row] for row in csv.reader(fh) if row][1:]
    return [
        TrajectoryRecord(sid, int(frame), aid, AgentKind(kind), float(x), float(y))
        for sid, frame, aid, kind, x, y in rows
    ]


class TestTrajectoryScreen:
    """load_trajectories reads a file column by column. On a valid file it
    must give what a row-by-row read gives; on a bad one it must name the
    line and the rule a row-by-row read would stop at."""

    @pytest.mark.parametrize(
        "text",
        [
            "scenario_id,frame,agent_id,kind,x,y\r\ns1,0,p1,ped,1.5,2\r\ns1,1,p1,ped,2.5,2\r\n",
            "scenario_id,frame,agent_id,kind,x,y\n\ns1,0,p1,ped,1.5,2\n\n\ns1,0,c1,car,0,0\n\n",
            'scenario_id,frame,agent_id,kind,x,y\n"s1","0",p1,"ped","1.5",2\n"s2",0,"p1",car,0,0\n',
            " scenario_id , frame,agent_id,kind,x,y\n s1 , 0 ,p1 , ped,1.5 , 2\t\ns1,1, p1,ped ,\t2.5,2\n",
            "scenario_id,frame,agent_id,kind,x,y\ns1,+3,p1,ped,+1.5,-0\ns1,1_0,p1,ped,1_0.5,1e-320\n",
            # agents told apart by scenario; the same frame for another agent
            "scenario_id,frame,agent_id,kind,x,y\ns1,5,p1,ped,0,0\ns2,5,p1,ped,0,0\ns1,5,p2,car,0,0\n",
            # a kind that flips is the evaluation's error, not the loader's
            "scenario_id,frame,agent_id,kind,x,y\ns1,0,p1,ped,0,0\ns1,1,p1,car,0,0\n",
            "scenario_id,frame,agent_id,kind,x,y\n",
            f"scenario_id,frame,agent_id,kind,x,y\ns1,{2**63 - 1},p1,ped,1e308,-1e308\n",
        ],
    )
    def test_column_pass_reads_what_the_row_pass_reads(self, tmp_path: Path, text: str) -> None:
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        table = load_trajectories(path)
        records = read_trajectory_rows(path)
        assert list(table) == records
        assert [tuple(map(type, (r.frame, r.x, r.y))) for r in table] == [(int, float, float)] * len(records)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s1,zero,p1,ped,0,0", "bad frame 'zero'"),
            ("s1,1.0,p1,ped,0,0", "bad frame '1.0'"),
            ("s1,-1,p1,ped,0,0", "negative frame"),
            (f"s1,{2**63},p1,ped,0,0", "frame out of range"),
            (f"s1,{-2**63 - 1},p1,ped,0,0", "frame out of range"),
            ("s1,0,p1,bike,0,0", "kind must be 'ped' or 'car', got 'bike'"),
            ("s1,0,p1,PED,0,0", "kind must be 'ped' or 'car', got 'PED'"),
            ("s1,0,p1,ped,abc,0", "bad coordinates"),
            ("s1,0,p1,ped,0,", "bad coordinates"),
            ("s1,0,p1,ped,nan,0", "non-finite coordinates"),
            ("s1,0,p1,ped,0,-inf", "non-finite coordinates"),
            ("s1,0,p1,ped,1e999,0", "non-finite coordinates"),
            ("s1,0,p1,ped,0", "expected 6 columns"),
            ("s1,0,p1,ped,0,0,0", "expected 6 columns"),
            ("s1,0,q1,ped,0,0", "frames must increase per agent (agent 'q1' frame 0 after 0)"),
            (" s1 ,-0,q1 ,ped,0,0", "frames must increase per agent (agent 'q1' frame 0 after 0)"),
            # ids go unquoted into the outputs
            ('"s,1",1,q1,ped,0,0', "scenario_id: expected a nonempty id with no comma, quote, line break"
                                   " or NUL, got 's,1'"),
            ('s1,1,"q\n1",ped,0,0', "agent_id: expected a nonempty id with no comma, quote, line break"
                                    " or NUL, got 'q\\n1'"),
            ("s1,1, ,ped,0,0", "agent_id: expected a nonempty id with no comma, quote, line break"
                               " or NUL, got ''"),
        ],
    )
    def test_bad_row_is_handed_to_the_row_pass(self, tmp_path: Path, row: str, message: str) -> None:
        path = write_csv(tmp_path / "t.csv", TRAJECTORY_COLUMNS, ["s1,0,q1,ped,0,0", row, "s1,9,q1,ped,0,0"])
        with pytest.raises(TrajectoryFormatError) as err:
            load_trajectories(path)
        assert str(err.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("text", ["", "\n", "scenario_id,frame,agent_id,kind,x\n"])
    def test_bad_header_is_handed_to_the_row_pass(self, tmp_path: Path, text: str) -> None:
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(TrajectoryFormatError, match=r"t\.csv:1: "):
            load_trajectories(path)

    def test_a_field_too_large_for_the_csv_module_names_its_line(self, tmp_path: Path) -> None:
        path = write_csv(tmp_path / "t.csv", TRAJECTORY_COLUMNS, ["s1,0,q1,ped,0,0", "s1,1,q1,ped,0," + "1" * 200_000])
        with pytest.raises(TrajectoryFormatError) as err:
            load_trajectories(path)
        assert str(err.value) == f"{path}:3: field larger than field limit (131072)"

    def test_length_is_the_number_of_data_rows(self, tmp_path: Path) -> None:
        rows = [f"s{i % 2},{i // 4},a{i % 4},{'car' if i % 3 else 'ped'},{i}.5,0" for i in range(40)]
        path = write_csv(tmp_path / "t.csv", TRAJECTORY_COLUMNS, rows[:20] + [""] + rows[20:])
        assert len(load_trajectories(path)) == 40


class TestTrajectoryTable:
    RECORDS = [
        TrajectoryRecord("s1", 4, "p1", AgentKind.PEDESTRIAN, 1.5, -2.0),
        TrajectoryRecord("s1", 0, "c1", AgentKind.CAR, 0.1, 0.2),
        TrajectoryRecord("s2", 4, "p1", AgentKind.CAR, 3.0, 1e-300),
        TrajectoryRecord("s1", 5, "p1", AgentKind.PEDESTRIAN, 2.5, -2.0),
    ]

    def test_a_table_is_a_sequence_of_its_records(self) -> None:
        table = TrajectoryTable.from_records(self.RECORDS)
        assert len(table) == 4
        assert list(table) == self.RECORDS
        assert [table[i] for i in range(-4, 4)] == self.RECORDS * 2
        assert table[1:3] == self.RECORDS[1:3]
        assert table.agents == [("s1", "p1"), ("s1", "c1"), ("s2", "p1")]
        assert self.RECORDS[2] in table
        with pytest.raises(IndexError):
            table[4]

    def test_written_and_loaded_back_unchanged(self, tmp_path: Path) -> None:
        path = tmp_path / "t.csv"
        write_trajectories(TrajectoryTable.from_records(self.RECORDS), path)
        assert list(load_trajectories(path)) == self.RECORDS
        assert len(TrajectoryTable.from_records([])) == 0


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

    def test_negative_conflict_idx_rejected(self, tmp_path: Path) -> None:
        # No simulated decision has a negative ordinal, so the row could never match.
        path = write_csv(tmp_path / "a.csv", ANNOTATION_COLUMNS, ["s1,c1,0,continue", "s1,p1,-1,continue"])
        with pytest.raises(TrajectoryFormatError) as err:
            load_annotations(path)
        assert str(err.value) == f"{path}:3: negative conflict_idx"

    def test_repeated_key_rejected(self, tmp_path: Path) -> None:
        rows = ["s1,c1,0,continue", "s1,p1,0,deviate", "s2,c1,0,continue", "s1,c1, 0 ,decelerate"]
        path = write_csv(tmp_path / "a.csv", ANNOTATION_COLUMNS, rows)
        with pytest.raises(TrajectoryFormatError) as err:
            load_annotations(path)
        assert str(err.value) == f"{path}:5: scenario_id, agent_id and conflict_idx repeat line 2"

    def test_the_first_bad_row_is_named_whatever_its_rule(self, tmp_path: Path) -> None:
        # A row loop stops at the first row that breaks any rule.
        rows = ["s1,c1,0,continue", "s1,c1,0,fly", "s1,p1,-1,continue", "s1,p1,x,continue"]
        for k, message in enumerate([
            "scenario_id, agent_id and conflict_idx repeat line 2",
            "negative conflict_idx",
            "bad conflict_idx",
        ]):
            path = write_csv(tmp_path / "a.csv", ANNOTATION_COLUMNS, rows[:1] + rows[1 + k:])
            with pytest.raises(TrajectoryFormatError) as err:
                load_annotations(path)
            assert str(err.value) == f"{path}:3: {message}"


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
        with pytest.raises(TrajectoryFormatError) as err:
            load_decisions(path)
        assert str(err.value) == f"{path}:1: needs columns ['action', 'agent_id', 'conflict_id', 'scenario_id', 'step']"


class TestLineNumbers:
    """Every reader names a row by its record index, counting the header
    and blank rows: a quoted field that spans two lines is one line."""

    @pytest.mark.parametrize(
        "load, text",
        [
            (load_trajectories, 'scenario_id,frame,agent_id,kind,x,y\ns1,0,"p1\n",ped,0,0\n\ns1,1,p1,ped,0,fly\n'),
            (load_annotations, 'scenario_id,agent_id,conflict_idx,action\ns1,"c\n1",0,continue\n\ns1,c1,0,fly\n'),
            (load_decisions,
             'scenario_id,step,conflict_id,agent_id,action\ns1,0,0,"c\n1",continue\n\ns1,0,0,c1,fly\n'),
            (lambda path: cli._load_observations(path, "car", None), 'kind,f0,action\ncar,"1\n",continue\n\ncar,2,fly\n'),
        ],
        ids=["trajectories", "annotations", "decisions", "observations"],
    )
    def test_a_two_line_field_is_one_line(self, tmp_path: Path, load, text: str) -> None:
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(TrajectoryFormatError, match=r"fly|coordinates") as err:
            load(path)
        assert str(err.value).startswith(f"{path}:4: ")

    @pytest.mark.parametrize(
        "before, message",
        [
            ([], "2: not UTF-8 text"),
            (['s1,0,"p1\n",ped,0,0', "", "s1,1,p1,ped,0,0"], "5: not UTF-8 text"),
            # the byte lies past the first 8 KiB that the text reader decodes
            ([f"s1,{f},p1,ped,0,0" for f in range(2000)], "2002: not UTF-8 text"),
            # a row that breaks a rule ends the table before the byte is reached
            (["s1,0,p1,ped,0", "s1,1,p1,ped,0,0"], "2: expected 6 columns"),
        ],
        ids=["first row", "after a two-line field", "past the first chunk", "after a bad row"],
    )
    def test_a_byte_utf8_cannot_decode_names_its_line(self, tmp_path: Path, before, message) -> None:
        path = tmp_path / "in.csv"
        text = "\n".join([",".join(TRAJECTORY_COLUMNS), *before, ""]).encode()
        path.write_bytes(text + b"s1,9999,p\xff1,ped,0,0\ns1,10000,p1,ped,0,0\n")
        with pytest.raises(TrajectoryFormatError) as err:
            load_trajectories(path)
        assert str(err.value) == f"{path}:{message}"

    def test_a_header_utf8_cannot_decode_is_line_1(self, tmp_path: Path) -> None:
        path = tmp_path / "in.csv"
        path.write_bytes(b"scenario_id,frame,agent_id,kind,x,\xffy\ns1,0,p1,ped,0,0\n")
        with pytest.raises(TrajectoryFormatError) as err:
            load_trajectories(path)
        assert str(err.value) == f"{path}:1: not UTF-8 text"


# What a plain field may hold: printable ASCII but the quote, the comma
# and the space, and two control characters neither csv nor strip reads.
PLAIN_FIELD = "".join(sorted(set(string.printable) - set(string.whitespace) - set('",'))) + "\x01\x7f"


@st.composite
def csv_tables(draw):
    """A header and rows of plain fields, the columns a reader asks for,
    whether it asks for exactly those, and a (name, value) to keep."""
    header = draw(st.lists(st.sampled_from(["id", "kind", "x", "y", "a-b"]), min_size=1, max_size=4))
    # a field of a one-column row may not be empty: that line would be blank
    text = st.text(PLAIN_FIELD, min_size=1 if len(header) == 1 else 0, max_size=5)
    row = st.lists(st.one_of(st.sampled_from(["car", "ped"]), text), min_size=len(header), max_size=len(header))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    exact = draw(st.booleans())
    columns = tuple(header) if exact else tuple(draw(st.sets(st.sampled_from(header), min_size=1)))
    keep = None
    if draw(st.booleans()):
        keep = (draw(st.sampled_from(columns)), draw(st.sampled_from(["car", "ped"])))
    return [header, *rows], columns, exact, keep


def read_both_ways(path: Path, columns, exact, keep) -> tuple[object, object, list[bool]]:
    """What read_columns gives, what its csv path alone gives (each a
    table's fields or the message it raised), and whether each call of
    the plain path made a table."""
    taken: list[bool] = []
    plain_path = dataio._read_plain

    def spy(*args):
        table = plain_path(*args)
        taken.append(table is not None)
        return table

    def outcome():
        try:
            table = read_columns(path, columns, exact, keep)
        except TrajectoryFormatError as exc:
            return str(exc)
        return list(table.columns.items()), table.lines.tolist(), table.lines.dtype, table.n, table.error

    with mock.patch.object(dataio, "_read_plain", spy):
        got = outcome()
    with mock.patch.object(dataio, "_read_plain", lambda *args: None):
        expected = outcome()
    return got, expected, taken


# Each way to write a table; the plain ones must take the plain path.
def _write_plain(rows, draw):
    return "\n".join(map(",".join, rows)) + "\n"


def _at(rows, draw):
    i = draw(st.integers(0, len(rows) - 1))
    return i, draw(st.integers(0, len(rows[i]) - 1))


def _with_field(change):
    def write(rows, draw):
        rows = [list(row) for row in rows]
        i, j = _at(rows, draw)
        rows[i][j] = change(rows[i][j])
        return _write_plain(rows, draw)
    return write


def _quoted(rows, draw):
    rows = [list(row) for row in rows]
    for change in (lambda f: f'"{f}"', lambda f: f'"{f}\n{f}"'):
        i, j = _at(rows, draw)
        rows[i][j] = change(rows[i][j])
    return _write_plain(rows, draw)


def _blank_row(rows, draw):
    lines = list(map(",".join, rows))
    lines.insert(draw(st.integers(1, len(lines))), "")
    return "\n".join(lines) + "\n"


def _wrong_width(rows, draw):
    rows = [list(row) for row in rows]
    i = draw(st.integers(1, len(rows) - 1))
    if draw(st.booleans()) and ",".join(rows[i][:-1]):  # a row too short, but not a blank line
        rows[i].pop()
    else:
        rows[i].append("extra")
    return _write_plain(rows, draw)


WRITERS = {
    "plain": (_write_plain, True),
    "CRLF": (lambda rows, draw: _write_plain(rows, draw).replace("\n", "\r\n"), False),
    "padded": (_with_field(lambda f: f" {f}\t"), False),
    "quoted": (_quoted, False),
    "blank row": (_blank_row, False),
    "NUL": (_with_field(lambda f: f + "\0"), False),
    "non-ASCII": (_with_field(lambda f: "\u00e9" + f), False),
    "wrong width": (_wrong_width, True),
    "field over the limit": (_with_field(lambda f: "x" * (csv.field_size_limit() + 1)), False),
    "no final newline": (lambda rows, draw: _write_plain(rows, draw)[:-1], True),
}


class TestPlainPath:
    """read_columns splits a plain file as text. Its oracle is the csv
    path: on any table written any way, the two give the same columns,
    line numbers, row count and error, or raise the same message."""

    @pytest.mark.parametrize("way", sorted(WRITERS))
    @settings(max_examples=40, deadline=None)
    @given(table=csv_tables(), data=st.data())
    def test_both_paths_read_the_same_table(self, tmp_path_factory, way, table, data) -> None:
        rows, columns, exact, keep = table
        write, plain = WRITERS[way]
        path = tmp_path_factory.mktemp("plain") / "t.csv"
        path.write_bytes(write(rows, data.draw).encode())
        got, expected, taken = read_both_ways(path, columns, exact, keep)
        assert got == expected
        if plain and not isinstance(got, str):
            assert taken == [True]

    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_character_reads_as_csv_reads_it(self, tmp_path: Path, code: int) -> None:
        c = chr(code)
        path = tmp_path / "t.csv"
        path.write_bytes(f"id,kind\n{c}a{c},car\nb,{c}ped{c}\n".encode())
        got, expected, taken = read_both_ways(path, ("id", "kind"), True, ("kind", "ped"))
        assert got == expected
        # a line feed here makes blank lines
        assert taken == [not c.isspace() and c not in '"\0']

    def test_a_file_longer_than_a_block_is_read_whole(self, tmp_path: Path) -> None:
        rows = [f"s{i % 3},{i},a{i % 7},{'car' if i % 2 else 'ped'},{i}.25,-{i}" for i in range(6000)]
        path = write_csv(tmp_path / "t.csv", TRAJECTORY_COLUMNS, rows)
        assert path.stat().st_size > 2 * dataio._PLAIN_BLOCK
        for keep in (None, ("kind", "car")):
            got, expected, taken = read_both_ways(path, TRAJECTORY_COLUMNS, True, keep)
            assert got == expected and taken == [True]
        # a bad row in a later block ends the table there
        rows[4321] += ",0"
        path = write_csv(tmp_path / "t.csv", TRAJECTORY_COLUMNS, rows)
        got, expected, taken = read_both_ways(path, TRAJECTORY_COLUMNS, True, ("kind", "ped"))
        assert got == expected and taken == [True]
        assert got[3] == 2161 and got[4] == f"{path}:4323: expected 6 columns"


class TestGroupByAgent:
    def test_groups_and_indexes_by_frame(self) -> None:
        records = [
            TrajectoryRecord("s1", 2, "p1", AgentKind.PEDESTRIAN, 1.0, 0.0),
            TrajectoryRecord("s2", 0, "p1", AgentKind.PEDESTRIAN, 5.0, 5.0),
            TrajectoryRecord("s1", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0),
            TrajectoryRecord("s1", 2, "p1", AgentKind.PEDESTRIAN, 1.5, 0.5),
        ]
        grouped = agent_tracks(records)
        assert list(grouped) == [("s1", "p1"), ("s2", "p1")]
        kind, frames, x, y = grouped[("s1", "p1")]
        assert kind is AgentKind.PEDESTRIAN
        # frames sorted; the last row of a repeated frame wins
        assert (frames.tolist(), x.tolist(), y.tolist()) == ([0, 2], [0.0, 1.5], [0.0, 0.5])

    def test_kind_change_rejected(self) -> None:
        records = [
            TrajectoryRecord("s1", 0, "p1", AgentKind.PEDESTRIAN, 0.0, 0.0),
            TrajectoryRecord("s1", 1, "p1", AgentKind.CAR, 1.0, 0.0),
        ]
        with pytest.raises(TrajectoryFormatError, match="kind"):
            agent_tracks(records)


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


def random_tracks(seed: int) -> tuple[list[TrajectoryRecord], list[TrajectoryRecord]]:
    """Recorded and simulated records of a few agents: frames with gaps
    and shifted starts, agents that share one frame or none, an agent
    the simulation lacks, repeated frames (the last row counts) and rows
    in no particular order."""
    rng = random.Random(seed)
    real: list[TrajectoryRecord] = []
    sim: list[TrajectoryRecord] = []
    for i in range(rng.randint(1, 6)):
        key = (f"s{rng.randint(0, 1)}", f"a{i}")
        kind = rng.choice(list(AgentKind))
        start = rng.randint(0, 5)
        frames = sorted(rng.sample(range(start, start + 30), rng.randint(1, 12)))
        shape = rng.choice(["overlap", "one", "none", "absent"])
        if shape == "overlap":
            shift = rng.randint(-3, 3)
            sim_frames = sorted(rng.sample(range(start + shift, start + shift + 30), rng.randint(1, 12)))
        elif shape == "one":
            sim_frames = [frames[-1], frames[-1] + 100]
        elif shape == "none":
            sim_frames = [f + 1000 for f in frames]
        else:
            sim_frames = []
        for frames_of, out in ((frames, real), (sim_frames, sim)):
            for f in frames_of:
                for _ in range(rng.choice([1, 1, 1, 2])):
                    x, y = rng.uniform(-50, 50), rng.uniform(-50, 50)
                    out.append(TrajectoryRecord(key[0], f, key[1], kind, x, y))
    rng.shuffle(real)
    rng.shuffle(sim)
    return real, sim


def group_by_agent(records: list[TrajectoryRecord]) -> dict:
    """The scalar oracle of `agent_tracks`: (scenario_id, agent_id) ->
    (kind, frame -> position), one record at a time."""
    out: dict = {}
    for r in records:
        kind, traj = out.setdefault((r.scenario_id, r.agent_id), (r.kind, {}))
        if kind is not r.kind:
            raise TrajectoryFormatError(f"agent {r.agent_id!r} in {r.scenario_id!r} changes kind mid-stream")
        traj[r.frame] = Vec2(r.x, r.y)
    return out


def group_by_agent_arrays(records: list[TrajectoryRecord]) -> dict:
    """`group_by_agent` in `agent_tracks`'s form, for comparing the two."""
    return {
        key: (kind, frames, [traj[f].x for f in frames], [traj[f].y for f in frames])
        for key, (kind, traj) in group_by_agent(records).items()
        for frames in [sorted(traj)]
    }


class TestCompareTrajectoriesOracle:
    """compare_trajectories scores each agent on arrays; the dict metrics
    `ade` and `speed_deviation` on group_by_agent's trajectories are its
    oracle, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agent_tracks_equal_the_dict_grouping(self, seed: int) -> None:
        real, _ = random_tracks(seed)
        tracks = agent_tracks(real)
        expected = group_by_agent_arrays(real)
        assert list(tracks) == list(expected)
        for key, (kind, frames, x, y) in tracks.items():
            assert (kind, frames.tolist(), x.tolist(), y.tolist()) == expected[key]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 0.1, 1.0 / 3.0]))
    def test_per_agent_metrics_equal_the_dict_metrics(self, seed: int, frame_seconds: float) -> None:
        real, sim = random_tracks(seed)
        report = compare_trajectories(real, sim, frame_seconds)
        real_by_agent, sim_by_agent = group_by_agent(real), group_by_agent(sim)
        unmatched = [
            key for key in sorted(real_by_agent)
            if not set(real_by_agent[key][1]) & set(sim_by_agent.get(key, (None, {}))[1])
        ]
        assert report.unmatched_agents == unmatched
        scored = [key for key in sorted(real_by_agent) if key not in unmatched]
        assert [(m.scenario_id, m.agent_id) for m in report.per_agent] == scored
        for m in report.per_agent:
            kind, real_traj = real_by_agent[(m.scenario_id, m.agent_id)]
            sim_traj = sim_by_agent[(m.scenario_id, m.agent_id)][1]
            assert m.kind is kind
            assert m.ade.hex() == ade(real_traj, sim_traj).hex()
            try:
                expected = speed_deviation(real_traj, sim_traj, frame_seconds).hex()
            except MetricUndefinedError:
                expected = None
            assert (None if m.speed_deviation is None else m.speed_deviation.hex()) == expected

    def test_loaded_tables_score_as_their_records(self, tmp_path: Path) -> None:
        real, sim = random_tracks(3)
        # a file keeps frames increasing per agent and has no repeats
        paths = []
        for name, records in (("real", real), ("sim", sim)):
            path = tmp_path / f"{name}.csv"
            write_trajectories(list(group_records(records)), path)
            paths.append(path)
        from_files = compare_trajectories(*map(load_trajectories, paths))
        from_lists = compare_trajectories(*(list(load_trajectories(p)) for p in paths))
        assert from_files == from_lists

    def test_a_kind_that_flips_is_named_as_group_by_agent_names_it(self) -> None:
        real = make_records("s1", "p1", AgentKind.PEDESTRIAN, [(0, 0.0, 0.0), (1, 1.0, 0.0)])
        real += make_records("s1", "p2", AgentKind.CAR, [(0, 0.0, 0.0)])
        real += make_records("s1", "p2", AgentKind.PEDESTRIAN, [(1, 0.0, 0.0)])
        real += make_records("s1", "p1", AgentKind.CAR, [(2, 0.0, 0.0)])
        with pytest.raises(TrajectoryFormatError) as expected:
            group_by_agent(real)
        with pytest.raises(TrajectoryFormatError) as got:
            compare_trajectories(real, [])
        assert str(got.value) == str(expected.value) == "agent 'p2' in 's1' changes kind mid-stream"


def group_records(records: list[TrajectoryRecord]) -> list[TrajectoryRecord]:
    """`records` as group_by_agent reads them: per agent, frames in order
    and the last row of a repeated frame."""
    out = []
    for (sid, aid), (kind, traj) in group_by_agent(records).items():
        out += [TrajectoryRecord(sid, f, aid, kind, traj[f].x, traj[f].y) for f in sorted(traj)]
    return out


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
