"""Trajectory datasets, decision annotations and evaluation metrics.

Trajectory CSVs carry exactly the columns
scenario_id,frame,agent_id,kind,x,y with kind in {ped, car}; simulator
traces use the same layout, so real and simulated data interchange
freely. `agent_tracks` groups rows into per-agent arrays for
calibration; it and `compare_trajectories` share one ordering of rows
by agent and frame. Positions are compared frame by frame over the
frames both sources share.
"""

from __future__ import annotations

import csv
import math
import re
import statistics
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import attrgetter, ne
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .game import Action
from .geometry import Vec2
from .scene import AgentKind

TRAJECTORY_COLUMNS = ("scenario_id", "frame", "agent_id", "kind", "x", "y")
ANNOTATION_COLUMNS = ("scenario_id", "agent_id", "conflict_idx", "action")
DECISION_COLUMNS = ("scenario_id", "step", "conflict_id", "agent_id", "action")
# A features file has these columns, then one per feature, then the action.
FEATURE_ID_COLUMNS = ("scenario_id", "step", "conflict_id", "agent_id", "kind", "role")
# A trajectory table stores each row's kind as an index into AGENT_KINDS.
AGENT_KINDS = tuple(AgentKind)
_KIND_CODES = {kind.value: code for code, kind in enumerate(AGENT_KINDS)}
_UNDECODED = re.compile("[\udc80-\udcff]")  # a byte that surrogateescape kept
# Ids go unquoted into the UTF-8 CSV outputs, which these characters would break.
ID_BREAKERS = re.compile(r'[,"\r\n\0\ud800-\udfff]')
# ASCII bytes that csv.reader or str.strip may take for more than a
# character of a field: the quote, NUL (an error to Python 3.10's csv)
# and whitespace other than the line feed
_NOT_PLAIN = b'"\0' + bytes(b for b in range(128) if chr(b).isspace() and b != ord("\n"))
# `_read_plain` reads this many bytes at a time, so it never holds a whole file's text
_PLAIN_BLOCK = 1 << 16


class TrajectoryFormatError(ValueError):
    """Raised with a line number for malformed trajectory input."""


class AlignmentError(ValueError):
    """Raised when real and simulated records cannot be matched."""


class MetricUndefinedError(ValueError):
    """Raised when a metric has no defined value (e.g. no common frames)."""


@dataclass(frozen=True)
class TrajectoryRecord:
    scenario_id: str
    frame: int
    agent_id: str
    kind: AgentKind
    x: float
    y: float


@dataclass(frozen=True)
class DecisionAnnotation:
    scenario_id: str
    agent_id: str
    conflict_idx: int
    action: Action


# Some annotation sets name the keep-going action "accelerate".
_ACTIONS = {action.value: action for action in Action} | {"accelerate": Action.CONTINUE}


def parse_action(token: str) -> Action:
    token = token.strip().lower()
    if token not in _ACTIONS:
        raise TrajectoryFormatError(f"unknown action {token!r}")
    return _ACTIONS[token]


@dataclass(eq=False)
class TrajectoryTable(Sequence[TrajectoryRecord]):
    """The rows of a trajectory file in file order, held by column.

    Row i belongs to agent `agents[agent[i]]`, a (scenario_id, agent_id)
    key; `agents` lists the keys in order of first appearance. `kind[i]`
    indexes AGENT_KINDS, and `frame`, `x` and `y` are arrays. Iterating
    or indexing yields TrajectoryRecords and `len` is the row count, so a
    table stands wherever a list of records is read.
    """

    agents: list[tuple[str, str]]
    agent: np.ndarray
    kind: np.ndarray
    frame: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[TrajectoryRecord]) -> "TrajectoryTable":
        codes: dict[tuple[str, str], int] = {}
        agent, kind, frame, x, y = [], [], [], [], []
        for r in records:
            agent.append(codes.setdefault((r.scenario_id, r.agent_id), len(codes)))
            kind.append(AGENT_KINDS.index(r.kind))
            frame.append(r.frame)
            x.append(r.x)
            y.append(r.y)
        return cls(
            list(codes), np.array(agent, dtype=np.intp), np.array(kind, dtype=np.int8),
            np.array(frame, dtype=np.int64), np.array(x, dtype=float), np.array(y, dtype=float),
        )

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        sid, aid = self.agents[self.agent[i]]
        return TrajectoryRecord(
            sid, int(self.frame[i]), aid, AGENT_KINDS[self.kind[i]], float(self.x[i]), float(self.y[i])
        )

    def __iter__(self) -> Iterator[TrajectoryRecord]:
        agents = self.agents
        for a, k, f, x, y in zip(self.agent.tolist(), self.kind.tolist(), self.frame.tolist(),
                                 self.x.tolist(), self.y.tolist()):
            sid, aid = agents[a]
            yield TrajectoryRecord(sid, f, aid, AGENT_KINDS[k], x, y)


@dataclass
class CsvColumns:
    """The data rows of a block of a CSV file, by column, every field
    stripped; or of the whole file, by what its rules made of each block.

    A loader's rules test a block with `convert` and `flag` in the order
    a loop over the rows would test them within one row. Each rule reads
    only the rows before the first bad row found so far, so a later rule
    takes over only with a lower row, and `check` raises what that loop
    would raise: the first bad row's line and the first rule it breaks.
    """

    path: str | Path
    columns: dict[str, Sequence]
    # each row's record index in the file, counting the header and blank
    # rows: a quoted field that spans two lines is on one line
    lines: np.ndarray
    n: int  # the rows before the first bad row found so far
    error: str | None  # the first bad row's message

    def fail(self, i: int, message: str) -> None:
        self.n = i
        self.error = f"{self.path}:{self.lines[i]}: {message}"

    def check(self) -> None:
        if self.error is not None:
            raise TrajectoryFormatError(self.error)

    def flag(self, bad: np.ndarray, message: str | Callable[[int], str]) -> None:
        """Fail the first row in play that `bad` marks, with `message`
        or `message(row)`."""
        hits = np.flatnonzero(bad[:self.n])
        if hits.size:
            i = int(hits[0])
            self.fail(i, message(i) if callable(message) else message)

    def convert(self, name: str, convert: Callable[[str], object], dtype=None, message: str = ""):
        """Column `name` converted field by field into an array of `dtype`,
        or a list when `dtype` is None. A field that `convert` rejects
        fails its row with `message` formatted with the field, or else
        with the converter's own message."""
        fields = self.columns[name]
        try:
            if dtype is None:
                value_of = {field: convert(field) for field in set(fields)}
                return list(map(value_of.__getitem__, fields))
            return np.fromiter(map(convert, fields), dtype, len(fields))
        except (ValueError, KeyError, OverflowError):
            pass
        values = [None] * len(fields) if dtype is None else np.zeros(len(fields), dtype)
        for i, field in enumerate(fields[:self.n]):
            try:
                values[i] = convert(field)
            except OverflowError:  # a value that does not fit `dtype`
                self.fail(i, f"{name} out of range")
                break
            except (ValueError, KeyError) as exc:
                self.fail(i, message.format(field) if message else str(exc))
                break
        return values


def read_columns(
    path: str | Path, columns: Sequence[str], exact: bool = True, keep: tuple[str, str] | None = None,
    rules: Callable[[CsvColumns], dict] = attrgetter("columns"),
) -> CsvColumns:
    """The data rows of the CSV file at `path`, by column.

    The header, every name stripped, must be `columns`, or hold all of
    them when not `exact`, and may name no column twice; else this
    raises for line 1. Blank rows are skipped. The first row whose width
    is not the header's, that the csv module cannot parse, or that holds
    a byte UTF-8 cannot decode, is the table's first bad row, and the
    table holds only the rows before it. With `keep` = (name, value),
    name one of `columns`, it holds only the rows whose field reads
    `value`.

    A plain file, as `_read_plain` defines it, is split as text, one
    block at a time. Any other file, with quoted fields, CRLF line ends,
    padded fields, blank rows or bytes beyond ASCII, goes through
    csv.reader as one block. On a plain file the two give the same
    table. `rules` type each block in file order, and the table joins
    what they return: arrays end to end, lists as one list; by default,
    the text. Reading stops at the block with the first bad row. State
    the rules carry from block to block may depend only on the rows
    before, in file order: after a block that is not plain, the csv pass
    reads the file again from its first row.
    """
    blocks = _read_plain(path, columns, exact, keep, rules)
    if blocks is not None:
        return _joined(path, blocks)
    rows: list[list[str]] = []
    error = None
    for errors in ("strict", "surrogateescape"):
        rows.clear()
        try:
            with open(path, newline="", encoding="utf-8", errors=errors) as fh:
                rows.extend(csv.reader(fh))
        except csv.Error as exc:
            error = f"{path}:{len(rows) + 1}: {exc}"
        except UnicodeDecodeError:  # raised for a chunk decoded ahead of the rows: find the row below
            continue
        break
    for i, row in enumerate(rows if errors != "strict" else ()):
        if _UNDECODED.search(",".join(row)):
            del rows[i:]
            error = f"{path}:{i + 1}: not UTF-8 text"
            break
    if not rows:
        raise TrajectoryFormatError(error or f"{path}:1: empty file")
    header = [name.strip() for name in rows.pop(0)]
    _check_header(path, header, columns, exact)
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    lines = np.flatnonzero(width) + 2
    rows = list(filter(None, rows))
    wrong = np.flatnonzero(width[lines - 2] != len(header))
    if wrong.size:
        end = int(wrong[0])
        error = f"{path}:{lines[end]}: expected {len(header)} columns"
        del rows[end:]
        lines = lines[:end]
    if keep:
        k, value = header.index(keep[0]), keep[1]
        mask = np.fromiter((row[k].strip() == value for row in rows), bool, len(rows))
        rows, lines = list(compress(rows, mask)), lines[mask]
    stripped = [list(map(str.strip, column)) for column in zip(*rows)] or [[] for _ in header]
    block = CsvColumns(path, dict(zip(header, stripped)), lines, len(rows), error)
    block.columns = rules(block)
    return block


def _joined(path: str | Path, blocks: list[CsvColumns]) -> CsvColumns:
    """One table of a plain file's blocks, each holding what the rules
    made of it; the last block's first bad row is the table's."""
    last = blocks[-1]
    columns = {
        name: np.concatenate(parts) if isinstance(parts[0], np.ndarray) else list(chain.from_iterable(parts))
        for name, parts in zip(last.columns, zip(*(block.columns.values() for block in blocks)))
    }
    lines = np.concatenate([block.lines for block in blocks])
    return CsvColumns(path, columns, lines, len(lines) - len(last.lines) + last.n, last.error)


def _check_header(path: str | Path, header: list[str], columns: Sequence[str], exact: bool) -> None:
    if exact and tuple(header) != tuple(columns):
        raise TrajectoryFormatError(f"{path}:1: header must be {','.join(columns)}")
    if not set(columns) <= set(header):
        raise TrajectoryFormatError(f"{path}:1: needs columns {sorted(columns)}")
    for i, name in enumerate(header):
        if name in header[:i]:
            raise TrajectoryFormatError(f"{path}:1: duplicate column {name!r}")


def _read_plain(
    path: str | Path, columns: Sequence[str], exact: bool, keep: tuple[str, str] | None,
    rules: Callable[[CsvColumns], dict],
) -> list[CsvColumns] | None:
    """`read_columns`' blocks of a plain file: ASCII text with no quote,
    CR, NUL or whitespace but the line feed, no blank line, and no line
    longer than the csv module's field limit. csv.reader splits such a
    text at each comma and line feed and nowhere else, and no field has
    anything to strip, so the text is split as it is, one block of whole
    lines at a time. `rules` make each block's columns before the next
    is read, so a block's text, and the fields of the rows `keep` drops,
    go with the block. None for any other file."""
    limit = csv.field_size_limit()
    header: list[str] = []
    blocks: list[CsvColumns] = []
    n, error, rest = 0, None, b""
    with open(path, "rb") as fh:
        while error is None:
            chunk = fh.read(_PLAIN_BLOCK)
            if not chunk and not rest:
                break
            text = rest + chunk
            cut = text.rfind(b"\n") + 1 if chunk else len(text)
            text, rest = text[:cut], text[cut:]
            if not text:
                continue
            if not text.isascii() or any(byte in text for byte in _NOT_PLAIN):
                return None
            raw = np.frombuffer(text, np.uint8)
            ends = np.flatnonzero(raw == ord("\n"))
            if raw[-1] != ord("\n"):
                ends = np.append(ends, len(raw))
            length = np.diff(ends, prepend=-1) - 1
            if not length.all() or length.max() > limit:
                return None
            # each line's field count, from the commas before its end
            width = np.diff(np.searchsorted(np.flatnonzero(raw == ord(",")), ends), prepend=0) + 1
            fields = text.replace(b"\n", b",").decode("ascii").split(",")
            if not header:
                header, fields, width = fields[:width[0]], fields[width[0]:], width[1:]
                _check_header(path, header, columns, exact)
            w = len(header)
            wrong = np.flatnonzero(width != w)
            m = int(wrong[0]) if wrong.size else len(width)
            rows = np.arange(n + 2, n + m + 2)
            n += m
            if wrong.size:
                error = f"{path}:{n + 2}: expected {w} columns"
            if keep:
                kept = np.fromiter(map(keep[1].__eq__, fields[header.index(keep[0]):m * w:w]), bool, m)
                rows = rows[kept]
                # the kept rows' fields, one slice per run of kept rows
                runs = np.flatnonzero(np.diff(kept, prepend=False, append=False)) * w
                fields = list(chain.from_iterable(map(fields.__getitem__, map(slice, runs[::2], runs[1::2]))))
                m = len(rows)
            block = CsvColumns(path, {name: fields[j:m * w:w] for j, name in enumerate(header)}, rows, m, error)
            del fields
            block.columns = rules(block)
            blocks.append(block)
            error = block.error
    return blocks or None


def _agent_codes(block: CsvColumns, codes: dict[tuple[str, str], int]) -> np.ndarray:
    """Each row's (scenario_id, agent_id) key as its number in `codes`,
    which numbers keys in order of first appearance. An agent's rows
    come in runs: this looks up one key per run, and tests a key's ids,
    which the outputs carry unquoted, when the key first comes."""
    sids, aids = block.columns["scenario_id"], block.columns["agent_id"]
    n = len(sids)
    change = np.fromiter(map(ne, sids, islice(sids, 1, None)), bool, max(n - 1, 0))
    change |= np.fromiter(map(ne, aids, islice(aids, 1, None)), bool, max(n - 1, 0))
    starts = [0, *(np.flatnonzero(change) + 1).tolist()] if n else []
    for i in starts:
        if (sids[i], aids[i]) not in codes:
            for name, v in (("scenario_id", sids[i]), ("agent_id", aids[i])):
                if i < block.n and (not v or ID_BREAKERS.search(v)):
                    block.fail(i, f"{name}: expected a nonempty id with no comma, quote, line break or NUL,"
                                  f" got {v!r}")
            codes[sids[i], aids[i]] = len(codes)
    runs = [codes[sids[i], aids[i]] for i in starts]
    return np.repeat(np.array(runs, dtype=np.intp), np.diff([*starts, n]))


def load_trajectories(path: str | Path) -> TrajectoryTable:
    """The rows of a trajectory CSV, whose coordinates are meters. Each
    block of rows is typed as it is read; the one rule across rows, that
    an agent's frames increase, runs once on the whole table."""
    codes: dict[tuple[str, str], int] = {}

    def typed(block: CsvColumns) -> dict:
        agent = _agent_codes(block, codes)
        frame = block.convert("frame", int, np.int64, "bad frame {!r}")
        block.flag(frame < 0, "negative frame")
        kind = block.convert("kind", _KIND_CODES.__getitem__, np.int8, "kind must be 'ped' or 'car', got {!r}")
        x = block.convert("x", float, float, "bad coordinates")
        y = block.convert("y", float, float, "bad coordinates")
        block.flag(~(np.isfinite(x) & np.isfinite(y)), "non-finite coordinates")
        return {"agent": agent, "kind": kind, "frame": frame, "x": x, "y": y}

    table = read_columns(path, TRAJECTORY_COLUMNS, rules=typed)
    agents, agent, frame = list(codes), table.columns["agent"], table.columns["frame"]
    # each row's previous frame of its agent in file order, -1 for the first
    order = np.argsort(agent, kind="stable")
    before, after = order[:-1], order[1:]
    same = agent[after] == agent[before]
    prev = np.full_like(frame, -1)
    prev[after[same]] = frame[before[same]]
    table.flag(frame <= prev, lambda i: (
        f"frames must increase per agent (agent {agents[agent[i]][1]!r} frame {frame[i]} after {prev[i]})"
    ))
    table.check()
    return TrajectoryTable(agents, **table.columns)


def write_csv(path: str | Path, columns: Sequence[str], lines: Iterable[str]) -> None:
    """A header of `columns`, then `lines`, each a row already joined."""
    Path(path).write_text("\n".join([",".join(columns), *lines]) + "\n", encoding="utf-8")


def write_trajectories(records: Sequence[TrajectoryRecord], path: str | Path) -> None:
    write_csv(path, TRAJECTORY_COLUMNS, (
        f"{r.scenario_id},{r.frame},{r.agent_id},{r.kind.value},{r.x!r},{r.y!r}" for r in records
    ))


def load_annotations(path: str | Path) -> list[DecisionAnnotation]:
    """Annotated decisions; each (scenario_id, agent_id, conflict_idx)
    appears once, with an ordinal that some simulated decision can have."""
    table = read_columns(path, ANNOTATION_COLUMNS)
    idx = table.convert("conflict_idx", int, np.int64, "bad conflict_idx")
    table.flag(idx < 0, "negative conflict_idx")
    keys = list(zip(table.columns["scenario_id"], table.columns["agent_id"], idx.tolist()))
    first: dict[tuple[str, str, int], int] = {}
    repeated = np.fromiter((first.setdefault(key, i) != i for i, key in enumerate(keys)), bool, len(keys))
    table.flag(repeated, lambda i: (
        f"scenario_id, agent_id and conflict_idx repeat line {table.lines[first[keys[i]]]}"
    ))
    actions = table.convert("action", parse_action)
    table.check()
    return [DecisionAnnotation(*key, action) for key, action in zip(keys, actions)]


def index_decisions(
    decisions: Iterable[tuple[tuple[str, ...], Action]],
) -> dict[tuple, Action]:
    """Key each (owner, action) decision by the owner's fields plus an
    ordinal: the owner's n-th decision in input order. Decisions arrive
    in game-creation order, and an annotation's conflict_idx is this
    ordinal."""
    counters: dict[tuple[str, ...], int] = {}
    out: dict[tuple, Action] = {}
    for owner, action in decisions:
        idx = counters.get(owner, 0)
        counters[owner] = idx + 1
        out[(*owner, idx)] = action
    return out


def load_decisions(path: str | Path) -> dict[tuple[str, str, int], Action]:
    """Simulator decisions CSV keyed by (scenario, agent, ordinal)."""
    table = read_columns(path, DECISION_COLUMNS, exact=False)
    actions = table.convert("action", parse_action)
    table.check()
    return index_decisions(zip(zip(table.columns["scenario_id"], table.columns["agent_id"]), actions))


def write_annotations(annotations: Sequence[DecisionAnnotation], path: str | Path) -> None:
    write_csv(path, ANNOTATION_COLUMNS, (
        f"{a.scenario_id},{a.agent_id},{a.conflict_idx},{a.action.value}" for a in annotations
    ))


# One agent's rows: kind, then frames in order with their x and y.
Track = tuple[AgentKind, np.ndarray, np.ndarray, np.ndarray]


def agent_tracks(records: Sequence[TrajectoryRecord]) -> dict[tuple[str, str], Track]:
    """Index records as (scenario_id, agent_id) -> (kind, frames, x, y),
    agents in order of first appearance, frames sorted and the last row
    of a repeated frame kept. An agent whose kind changes is an error."""
    table, first_kind, order = _track_rows(records)
    if not len(table):
        return {}
    a, f = table.agent[order], table.frame[order]
    x, y = table.x[order], table.y[order]
    bounds = [0, *(np.flatnonzero(a[1:] != a[:-1]) + 1).tolist(), len(order)]
    return {
        table.agents[a[lo]]: (AGENT_KINDS[first_kind[a[lo]]], f[lo:hi], x[lo:hi], y[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    }


def _track_rows(records: Sequence[TrajectoryRecord]) -> tuple[TrajectoryTable, np.ndarray, np.ndarray]:
    """The table of `records`, each agent's first kind, and the row
    order by agent and then frame that keeps the last row of a repeated
    frame. An agent whose kind changes is an error."""
    table = records if isinstance(records, TrajectoryTable) else TrajectoryTable.from_records(records)
    agent, kind = table.agent, table.kind
    first_kind = kind[np.unique(agent, return_index=True)[1]]
    flipped = np.flatnonzero(kind != first_kind[agent])
    if flipped.size:
        sid, aid = table.agents[agent[flipped[0]]]
        raise TrajectoryFormatError(f"agent {aid!r} in {sid!r} changes kind mid-stream")
    order = np.lexsort((table.frame, agent))
    a, f = agent[order], table.frame[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (a[1:] != a[:-1]) | (f[1:] != f[:-1])
    return table, first_kind, order[last]


def _hypot(dx: np.ndarray, dy: np.ndarray) -> list[float]:
    # math.hypot, as Vec2.distance_to computes it: np.hypot may round
    # differently. A memoryview hands out the floats one at a time.
    return list(map(math.hypot, memoryview(dx), memoryview(dy)))


def track_speeds(frames: np.ndarray, x: np.ndarray, y: np.ndarray, frame_seconds: float) -> np.ndarray:
    """Speed over each step between consecutive frames: `segment_speeds`
    on arrays, bit for bit."""
    return np.array(_hypot(np.diff(x), np.diff(y))) / (np.diff(frames) * frame_seconds)


def ade(real: Mapping[int, Vec2], sim: Mapping[int, Vec2]) -> float:
    """Average Euclidean displacement over the common frames."""
    common = sorted(set(real) & set(sim))
    if not common:
        raise MetricUndefinedError("no common frames")
    return sum(real[f].distance_to(sim[f]) for f in common) / len(common)


def segment_speeds(traj: Mapping[int, Vec2], frames: Sequence[int], frame_seconds: float) -> list[float]:
    """Speed over each step between consecutive `frames` of `traj`."""
    speeds = []
    for f0, f1 in zip(frames, frames[1:]):
        dt = (f1 - f0) * frame_seconds
        speeds.append(traj[f1].distance_to(traj[f0]) / dt)
    return speeds


def speed_deviation(
    real: Mapping[int, Vec2], sim: Mapping[int, Vec2], frame_seconds: float = 0.5
) -> float:
    """Mean absolute speed difference, speeds by finite differences over
    consecutive common frames."""
    if frame_seconds <= 0.0:
        raise MetricUndefinedError("frame_seconds must be positive")
    common = sorted(set(real) & set(sim))
    if len(common) < 2:
        raise MetricUndefinedError("need at least two common frames")
    real_speeds = segment_speeds(real, common, frame_seconds)
    sim_speeds = segment_speeds(sim, common, frame_seconds)
    return sum(abs(r - s) for r, s in zip(real_speeds, sim_speeds)) / len(real_speeds)


def decision_error(real: Sequence[Action], sim: Sequence[Action]) -> float:
    """Fraction of mismatched decisions over aligned pairs."""
    if len(real) != len(sim):
        raise AlignmentError(f"length mismatch: {len(real)} real vs {len(sim)} simulated")
    if not real:
        raise MetricUndefinedError("no decisions to compare")
    wrong = sum(1 for r, s in zip(real, sim) if r is not s)
    return wrong / len(real)


def confusion_matrix(
    real: Sequence[Action], sim: Sequence[Action]
) -> dict[tuple[Action, Action], int]:
    if len(real) != len(sim):
        raise AlignmentError(f"length mismatch: {len(real)} real vs {len(sim)} simulated")
    counts: dict[tuple[Action, Action], int] = {}
    for r, s in zip(real, sim):
        counts[(r, s)] = counts.get((r, s), 0) + 1
    return counts


@dataclass
class AgentMetrics:
    scenario_id: str
    agent_id: str
    kind: AgentKind
    ade: float
    speed_deviation: float | None


@dataclass
class MetricReport:
    per_agent: list[AgentMetrics] = field(default_factory=list)
    decision_error_rate: float | None = None
    confusion: dict[tuple[Action, Action], int] = field(default_factory=dict)
    unmatched_agents: list[tuple[str, str]] = field(default_factory=list)

    def kind_stats(self, kind: AgentKind) -> dict:
        """Count, mean and standard deviation of the ADE and of the speed
        deviation over the agents of `kind`; {} when there are none, and
        no speed keys when no such agent has a speed deviation."""
        agents = [m for m in self.per_agent if m.kind is kind]
        if not agents:
            return {}
        ades = [m.ade for m in agents]
        sds = [m.speed_deviation for m in agents if m.speed_deviation is not None]
        stats = {
            "n": len(agents),
            "ade_mean": statistics.mean(ades),
            "ade_std": statistics.stdev(ades) if len(ades) > 1 else 0.0,
        }
        if sds:
            stats["speed_dev_mean"] = statistics.mean(sds)
            stats["speed_dev_std"] = statistics.stdev(sds) if len(sds) > 1 else 0.0
        return stats


def compare_trajectories(
    real_records: Sequence[TrajectoryRecord],
    sim_records: Sequence[TrajectoryRecord],
    frame_seconds: float = 0.5,
) -> MetricReport:
    """Per-agent displacement and speed metrics over shared frames.

    Agents present in the real data but absent from the simulation (or
    sharing no frames with it) are listed as unmatched. Real and
    simulated rows are joined on (agent, frame) in one pass, and every
    displacement and step speed is computed at once; each agent's
    metrics then sum its slice of them in frame order, so they equal
    `ade` and `speed_deviation` on the agent's frame -> position dicts
    bit for bit.
    """
    real, real_kind, real_rows = _track_rows(real_records)
    sim, _, sim_rows = _track_rows(sim_records)
    code = {key: i for i, key in enumerate(real.agents)}
    # the simulated rows of real agents, each agent as its real code
    sim_agent = np.array([code.get(key, -1) for key in sim.agents], dtype=np.intp)[sim.agent[sim_rows]]
    sim_rows, sim_agent = sim_rows[sim_agent >= 0], sim_agent[sim_agent >= 0]
    # A stable sort by agent and frame puts each real row just before the
    # simulated row of its agent and frame, if there is one.
    agent = np.concatenate([real.agent[real_rows], sim_agent])
    frame = np.concatenate([real.frame[real_rows], sim.frame[sim_rows]])
    order = np.lexsort((frame, agent))
    agent, frame = agent[order], frame[order]
    pair = np.flatnonzero((agent[1:] == agent[:-1]) & (frame[1:] == frame[:-1]))
    # the common rows, sorted by agent and then frame
    agent, frame = agent[pair], frame[pair]
    ri, si = real_rows[order[pair]], sim_rows[order[pair + 1] - len(real_rows)]
    rx, ry, sx, sy = real.x[ri], real.y[ri], sim.x[si], sim.y[si]
    del order, pair, ri, si  # hold fewer arrays while the floats are made
    bounds = np.searchsorted(agent, np.arange(len(code) + 1)).tolist()
    spans = list(zip(bounds, bounds[1:]))  # each real agent's common rows
    shifts = _span_sums(_hypot(rx - sx, ry - sy), spans)
    gaps = None
    # speed_deviation's test: a NaN frame_seconds passes it
    if not frame_seconds <= 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):  # steps from one agent to the next go unread
            gap = track_speeds(frame, rx, ry, frame_seconds) - track_speeds(frame, sx, sy, frame_seconds)
        gaps = _span_sums(np.abs(gap).tolist(), [(lo, hi - 1) for lo, hi in spans])
    report = MetricReport()
    for key in sorted(code):
        c = code[key]
        lo, hi = spans[c]
        if lo == hi:
            report.unmatched_agents.append(key)
            continue
        sd = gaps[c] / (hi - lo - 1) if gaps is not None and hi - lo >= 2 else None
        kind = AGENT_KINDS[real_kind[c]]
        report.per_agent.append(AgentMetrics(key[0], key[1], kind, shifts[c] / (hi - lo), sd))
    return report


def _span_sums(values: list[float], spans: Sequence[tuple[int, int]]) -> list[float]:
    # the built-in sum, as ade and speed_deviation add
    return [sum(values[lo:hi]) for lo, hi in spans]


def attach_decision_metrics(
    report: MetricReport,
    annotations: Sequence[DecisionAnnotation],
    simulated: Mapping[tuple[str, str, int], Action],
) -> list[tuple[str, str, int]]:
    """Join annotated decisions against simulated ones by
    (scenario, agent, conflict index). Returns annotated keys with no
    simulated counterpart; matched pairs feed the error rate and the
    confusion table."""
    real_actions: list[Action] = []
    sim_actions: list[Action] = []
    missing: list[tuple[str, str, int]] = []
    for a in annotations:
        key = (a.scenario_id, a.agent_id, a.conflict_idx)
        if key not in simulated:
            missing.append(key)
            continue
        real_actions.append(a.action)
        sim_actions.append(simulated[key])
    if real_actions:
        report.decision_error_rate = decision_error(real_actions, sim_actions)
        report.confusion = confusion_matrix(real_actions, sim_actions)
    return missing


def write_metric_report(report: MetricReport, path: str | Path) -> None:
    write_csv(path, ("scenario_id", "agent_id", "kind", "ade", "speed_deviation"), (
        f"{m.scenario_id},{m.agent_id},{m.kind.value},{m.ade!r},"
        + ("" if m.speed_deviation is None else repr(m.speed_deviation))
        for m in report.per_agent
    ))


def format_report_summary(report: MetricReport) -> str:
    lines = []
    for kind in (AgentKind.PEDESTRIAN, AgentKind.CAR):
        stats = report.kind_stats(kind)
        if not stats:
            continue
        lines.append(f"{kind.value}: n={stats['n']} mean_ade={stats['ade_mean']:.3f} m")
        if "speed_dev_mean" in stats:
            lines.append(f"{kind.value}: mean_speed_deviation={stats['speed_dev_mean']:.3f} m/s")
    if report.decision_error_rate is not None:
        lines.append(f"decision_error_rate={report.decision_error_rate:.3f}")
        for (r, s), count in sorted(
            report.confusion.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            lines.append(f"confusion real={r.value} sim={s.value}: {count}")
    if report.unmatched_agents:
        lines.append(f"unmatched_agents={len(report.unmatched_agents)}")
    return "\n".join(lines)
