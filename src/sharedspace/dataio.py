"""Trajectory datasets, decision annotations and evaluation metrics.

Trajectory CSVs carry exactly the columns
scenario_id,frame,agent_id,kind,x,y with kind in {ped, car}; simulator
traces use the same layout, so real and simulated data interchange
freely. Positions are compared frame by frame over the frames both
sources share.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .game import Action
from .geometry import Vec2
from .scene import AgentKind

TRAJECTORY_COLUMNS = ("scenario_id", "frame", "agent_id", "kind", "x", "y")
ANNOTATION_COLUMNS = ("scenario_id", "agent_id", "conflict_idx", "action")


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
_ACTION_ALIASES = {"accelerate": Action.CONTINUE}


def parse_action(token: str) -> Action:
    token = token.strip().lower()
    if token in _ACTION_ALIASES:
        return _ACTION_ALIASES[token]
    try:
        return Action(token)
    except ValueError as exc:
        raise TrajectoryFormatError(f"unknown action {token!r}") from exc


def load_trajectories(
    path: str | Path, meters_per_unit: float = 1.0
) -> list[TrajectoryRecord]:
    if meters_per_unit <= 0.0:
        raise TrajectoryFormatError("meters_per_unit must be positive")
    records: list[TrajectoryRecord] = []
    last_frame: dict[tuple[str, str], int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TrajectoryFormatError(f"{path}:1: empty file") from None
        if tuple(h.strip() for h in header) != TRAJECTORY_COLUMNS:
            raise TrajectoryFormatError(
                f"{path}:1: header must be {','.join(TRAJECTORY_COLUMNS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise TrajectoryFormatError(f"{path}:{lineno}: expected 6 columns")
            scenario_id, frame_s, agent_id, kind_s, x_s, y_s = (v.strip() for v in row)
            try:
                frame = int(frame_s)
            except ValueError:
                raise TrajectoryFormatError(f"{path}:{lineno}: bad frame {frame_s!r}") from None
            if frame < 0:
                raise TrajectoryFormatError(f"{path}:{lineno}: negative frame")
            try:
                kind = AgentKind(kind_s)
            except ValueError:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: kind must be 'ped' or 'car', got {kind_s!r}"
                ) from None
            try:
                x = float(x_s) * meters_per_unit
                y = float(y_s) * meters_per_unit
            except ValueError:
                raise TrajectoryFormatError(f"{path}:{lineno}: bad coordinates") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TrajectoryFormatError(f"{path}:{lineno}: non-finite coordinates")
            key = (scenario_id, agent_id)
            if key in last_frame and frame <= last_frame[key]:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: frames must increase per agent "
                    f"(agent {agent_id!r} frame {frame} after {last_frame[key]})"
                )
            last_frame[key] = frame
            records.append(TrajectoryRecord(scenario_id, frame, agent_id, kind, x, y))
    return records


def write_trajectories(records: Sequence[TrajectoryRecord], path: str | Path) -> None:
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for r in records:
        lines.append(f"{r.scenario_id},{r.frame},{r.agent_id},{r.kind.value},{r.x!r},{r.y!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_annotations(path: str | Path) -> list[DecisionAnnotation]:
    out: list[DecisionAnnotation] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TrajectoryFormatError(f"{path}:1: empty file") from None
        if tuple(h.strip() for h in header) != ANNOTATION_COLUMNS:
            raise TrajectoryFormatError(
                f"{path}:1: header must be {','.join(ANNOTATION_COLUMNS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TrajectoryFormatError(f"{path}:{lineno}: expected 4 columns")
            scenario_id, agent_id, idx_s, action_s = (v.strip() for v in row)
            try:
                idx = int(idx_s)
            except ValueError:
                raise TrajectoryFormatError(f"{path}:{lineno}: bad conflict_idx") from None
            try:
                action = parse_action(action_s)
            except TrajectoryFormatError as exc:
                raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from None
            out.append(DecisionAnnotation(scenario_id, agent_id, idx, action))
    return out


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


def dict_rows(reader: csv.DictReader, path: str | Path) -> Iterator[tuple[int, dict]]:
    """The rows of `reader` with their line numbers. A row with more or
    fewer fields than the header raises."""
    width, last = len(reader.fieldnames), reader.fieldnames[-1]
    for row in reader:
        # DictReader files extra fields under None and fills missing ones with None
        if None in row or row[last] is None:
            raise TrajectoryFormatError(f"{path}:{reader.line_num}: expected {width} columns")
        yield reader.line_num, row


def load_decisions(path: str | Path) -> dict[tuple[str, str, int], Action]:
    """Simulator decisions CSV keyed by (scenario, agent, ordinal)."""
    decisions = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"scenario_id", "agent_id", "action"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise TrajectoryFormatError(
                f"{path}: decisions CSV needs columns {sorted(required)}"
            )
        for lineno, row in dict_rows(reader, path):
            try:
                action = parse_action(row["action"])
            except TrajectoryFormatError as exc:
                raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from None
            decisions.append(((row["scenario_id"], row["agent_id"]), action))
    return index_decisions(decisions)


def write_annotations(annotations: Sequence[DecisionAnnotation], path: str | Path) -> None:
    lines = [",".join(ANNOTATION_COLUMNS)]
    for a in annotations:
        lines.append(f"{a.scenario_id},{a.agent_id},{a.conflict_idx},{a.action.value}")
    Path(path).write_text("\n".join(lines) + "\n")


# Trajectory view: frame -> position.
Trajectory = dict[int, Vec2]


def group_by_agent(
    records: Sequence[TrajectoryRecord],
) -> dict[tuple[str, str], tuple[AgentKind, Trajectory]]:
    """Index records as (scenario_id, agent_id) -> (kind, frame->position)."""
    out: dict[tuple[str, str], tuple[AgentKind, Trajectory]] = {}
    for r in records:
        kind, traj = out.setdefault((r.scenario_id, r.agent_id), (r.kind, {}))
        if kind is not r.kind:
            raise TrajectoryFormatError(
                f"agent {r.agent_id!r} in {r.scenario_id!r} changes kind mid-stream"
            )
        traj[r.frame] = Vec2(r.x, r.y)
    return out


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
    sharing no frames with it) are listed as unmatched.
    """
    real_by_agent = group_by_agent(real_records)
    sim_by_agent = group_by_agent(sim_records)
    report = MetricReport()
    for key in sorted(real_by_agent):
        kind, real_traj = real_by_agent[key]
        sim_entry = sim_by_agent.get(key)
        if sim_entry is None or not (set(real_traj) & set(sim_entry[1])):
            report.unmatched_agents.append(key)
            continue
        _, sim_traj = sim_entry
        displacement = ade(real_traj, sim_traj)
        try:
            sd = speed_deviation(real_traj, sim_traj, frame_seconds)
        except MetricUndefinedError:
            sd = None
        report.per_agent.append(
            AgentMetrics(key[0], key[1], kind, displacement, sd)
        )
    return report


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
    lines = ["scenario_id,agent_id,kind,ade,speed_deviation"]
    for m in report.per_agent:
        sd = "" if m.speed_deviation is None else repr(m.speed_deviation)
        lines.append(f"{m.scenario_id},{m.agent_id},{m.kind.value},{m.ade!r},{sd}")
    Path(path).write_text("\n".join(lines) + "\n")


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
