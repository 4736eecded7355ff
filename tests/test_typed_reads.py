"""The loaders type each block of rows as the reader splits it.

Their oracle is one loop over csv.reader's rows that tests each row's
rules in the loader's order and stops at the first bad row. On random
files with bad fields at random rows, written plain (split as text) or
not (read by csv.reader), and read in blocks of a few bytes so that rows
cross block boundaries, a loader gives what the loop gives, or raises
its message.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from sharedspace import cli, dataio
from sharedspace.dataio import (
    FEATURE_ID_COLUMNS,
    ID_BREAKERS,
    TRAJECTORY_COLUMNS,
    TrajectoryFormatError,
    TrajectoryRecord,
    load_trajectories,
    parse_action,
)
from sharedspace.scene import AgentKind

BLOCKS = st.sampled_from([7, 40, 97, dataio._PLAIN_BLOCK])


def csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def trajectory_loop(path: Path):
    """load_trajectories as a loop over the rows: the records, or the
    first bad row's message."""
    rows = csv_rows(path)
    records, last = [], {}
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        where = f"{path}:{line}: "
        if len(row) != len(TRAJECTORY_COLUMNS):
            return where + f"expected {len(TRAJECTORY_COLUMNS)} columns"
        sid, frame, aid, kind, x, y = (field.strip() for field in row)
        for name, value in (("scenario_id", sid), ("agent_id", aid)):
            if not value or ID_BREAKERS.search(value):
                return where + f"{name}: expected a nonempty id with no comma, quote, line break or NUL, got {value!r}"
        try:
            f = int(frame)
        except ValueError:
            return where + f"bad frame {frame!r}"
        if not -2**63 <= f < 2**63:
            return where + "frame out of range"
        if f < 0:
            return where + "negative frame"
        if kind not in ("ped", "car"):
            return where + f"kind must be 'ped' or 'car', got {kind!r}"
        try:
            px, py = float(x), float(y)
        except ValueError:
            return where + "bad coordinates"
        if not (math.isfinite(px) and math.isfinite(py)):
            return where + "non-finite coordinates"
        before = last.get((sid, aid), -1)
        if f <= before:
            return where + f"frames must increase per agent (agent {aid!r} frame {f} after {before})"
        last[sid, aid] = f
        records.append(TrajectoryRecord(sid, f, aid, AgentKind(kind), px, py))
    return records


def observation_loop(path: Path, subject: str):
    """cli._load_observations as a loop over the rows: the feature rows,
    labels and names, or the first bad row's message."""
    rows = csv_rows(path)
    header = [name.strip() for name in rows[0]]
    names = [c for c in header if c not in FEATURE_ID_COLUMNS and c != "action"]
    X, labels = [], []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        where = f"{path}:{line}: "
        if len(row) != len(header):
            return where + f"expected {len(header)} columns"
        fields = dict(zip(header, (field.strip() for field in row)))
        if fields["kind"] != subject:
            continue
        try:
            values = [float(fields[c]) for c in names]
        except ValueError:
            return where + "non-numeric feature value"
        if not all(map(math.isfinite, values)):
            return where + "non-finite feature value"
        try:
            labels.append(parse_action(fields["action"]).value)
        except TrajectoryFormatError as exc:
            return where + str(exc)
        X.append(values)
    if not labels:
        return f"{path}: no rows for subject {subject!r}"
    return X, labels, names


def runs(values: list[str]):
    """Rows of one value in runs, as agents' rows come in a trace."""
    return st.lists(st.tuples(st.sampled_from(values), st.integers(1, 6)), min_size=1, max_size=8).map(
        lambda pairs: [value for value, n in pairs for _ in range(n)]
    )


@st.composite
def faults(draw, rows: list[list[str]], bad: dict[int, list[str]]):
    """`rows` with up to three fields swapped for bad ones, or a row
    widened or cut short."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.sampled_from(sorted(bad)))
        if j < 0:
            rows[i] = rows[i] + ["extra"] if draw(st.booleans()) else rows[i][:-1]
        elif j < len(rows[i]):
            rows[i][j] = draw(st.sampled_from(bad[j]))
    return rows


@st.composite
def trajectory_files(draw):
    agents = draw(runs(["s1,a1", "s1,a2", "s2,a1", "s1,c7"]))
    frames: dict[str, int] = {}
    rows = []
    for key in agents:
        frames[key] = frames.get(key, -1) + draw(st.integers(1, 3))
        sid, aid = key.split(",")
        kind = "car" if aid.startswith("c") else "ped"
        x, y = draw(st.sampled_from(["1.5", "-0", "2e3", "7"])), draw(st.sampled_from(["0.25", "-3", "1e-3"]))
        rows.append([sid, str(frames[key]), aid, kind, x, y])
    bad = {
        -1: [],
        0: [""],
        1: ["zero", "1.0", "-1", "0", str(2**63)],
        2: [""],
        3: ["bike", "PED"],
        4: ["abc", "", "nan", "inf"],
        5: ["-inf", "x"],
    }
    return [list(TRAJECTORY_COLUMNS), *draw(faults(rows, bad))]


@st.composite
def observation_files(draw):
    kinds = draw(runs(["car", "ped"]))
    number = st.sampled_from(["1.5", "-2", "3e-1", "0"])
    action = st.sampled_from(["continue", "decelerate", "deviate", "accelerate"])
    rows = [["s", kind, draw(number), draw(number), draw(action)] for kind in kinds]
    bad = {-1: [], 2: ["two", "nan", ""], 3: ["-inf", "1e999"], 4: ["fly", ""]}
    return [["scenario_id", "kind", "f0", "f1", "action"], *draw(faults(rows, bad))]


def write_plain(rows):
    return "\n".join(map(",".join, rows)) + "\n"


# Each way to write a table, and whether the plain path reads it: None
# when that depends on where the first bad row is.
WRITERS = {
    "plain": (write_plain, True),
    "CRLF": (lambda rows: write_plain(rows).replace("\n", "\r\n"), False),
    "padded": (lambda rows: write_plain([[f" {field} " for field in row] for row in rows]), False),
    "quoted": (lambda rows: write_plain([[f'"{field}"' for field in row] for row in rows]), False),
    # plain up to its last row, which is CRLF-terminated: the csv pass
    # reads it again from the start, unless a plain block had a bad row
    "CRLF at the end": (lambda rows: write_plain(rows)[:-1] + "\r\n", None),
}


def outcome(load, path: Path, block: int):
    """What `load` gives, or raises, reading blocks of `block` bytes,
    and whether the plain path read the whole file."""
    plain = dataio._read_plain
    taken = []

    def spy(*args):
        blocks = plain(*args)
        taken.append(blocks is not None)
        return blocks

    with mock.patch.object(dataio, "_PLAIN_BLOCK", block), mock.patch.object(dataio, "_read_plain", spy):
        try:
            return load(path), taken
        except TrajectoryFormatError as exc:
            return str(exc), taken


class TestTypedBlocks:
    @settings(max_examples=150, deadline=None)
    @given(rows=trajectory_files(), way=st.sampled_from(sorted(WRITERS)), block=BLOCKS)
    def test_trajectories_read_as_a_row_loop_reads_them(self, tmp_path_factory, rows, way, block) -> None:
        write, plain = WRITERS[way]
        path = tmp_path_factory.mktemp("typed") / "t.csv"
        path.write_bytes(write(rows).encode())
        got, taken = outcome(load_trajectories, path, block)
        expected = trajectory_loop(path)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert list(got) == expected
            assert [tuple(map(type, (r.frame, r.x, r.y))) for r in got] == [(int, float, float)] * len(expected)
        assert plain is None or taken == [plain]

    @settings(max_examples=150, deadline=None)
    @given(rows=observation_files(), way=st.sampled_from(sorted(WRITERS)), block=BLOCKS,
           subject=st.sampled_from(["car", "ped"]))
    def test_observations_read_as_a_row_loop_reads_them(self, tmp_path_factory, rows, way, block, subject) -> None:
        write, plain = WRITERS[way]
        path = tmp_path_factory.mktemp("typed") / "observations.csv"
        path.write_bytes(write(rows).encode())
        got, taken = outcome(lambda p: cli._load_observations(p, subject, None), path, block)
        expected = observation_loop(path, subject)
        if isinstance(expected, str):
            assert got == expected
        else:
            X, labels, names = got
            assert (X.tolist(), labels, names) == expected
            assert X.shape == (len(labels), 2)
        assert plain is None or taken == [plain]
