"""Call tracer for the traced benchmark run.

`Tracer` wraps public functions of `sharedspace` at the names their
callers look up (for example the planner's graph build is patched as
`sharedspace.engine.build_visibility_graph`, the copy the engine calls),
and restores every patched attribute when the `with` block ends, also
on error. Untraced runs never create a Tracer.

Every wrapped call adds to a count, a total time, a self time (total
minus the time of instrumented calls made inside it) and an error
count. Coarse boundaries (CLI command, run_scenario, Simulation.step,
one fitness evaluation, the GA) are also recorded as spans with parent
ids, kept in memory until `span_records` hands them out.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _steps(tracer: "Tracer", args: tuple, trace) -> None:
    tracer.counts["calibrate.sim_steps"] += trace.steps_run


def _created(tracer: "Tracer", args: tuple, outcome) -> None:
    tracer.counts["conflicts.created"] += len(outcome.new_conflicts)


def _rows(tracer: "Tracer", args: tuple, records) -> None:
    tracer.counts["dataio.rows_read"] += len(records)


def _genes(tracer: "Tracer", args: tuple, fitness) -> None:
    genes = tuple(float(g) for g in args[0])
    if genes in tracer.seen_genes:
        tracer.counts["calibrate.duplicate_evals"] += 1
    tracer.seen_genes.add(genes)


# (module, attribute path, trace name, record spans, result observer)
TARGETS = (
    ("sharedspace.cli", "run_scenario", "engine.run_scenario", True, None),
    ("sharedspace.engine", "Simulation.step", "engine.step", True, None),
    ("sharedspace.cli", "write_trace_csv", "engine.write_trace_csv", False, None),
    ("sharedspace.cli", "write_decisions_csv", "engine.write_decisions_csv", False, None),
    ("sharedspace.cli", "write_features_csv", "engine.write_features_csv", False, None),
    ("sharedspace.forces", "agent_repulsion", "forces.agent_repulsion", False, None),
    ("sharedspace.forces", "integrate_step", "forces.integrate_step", False, None),
    ("sharedspace.forces", "in_stopping_corridor", "forces.in_stopping_corridor", False, None),
    ("sharedspace.conflicts", "recognize_conflicts", "conflicts.recognize_conflicts", False, _created),
    ("sharedspace.conflicts", "classify_conflict", "conflicts.classify_conflict", False, None),
    ("sharedspace.conflicts", "in_intersection_zone", "scene.in_intersection_zone", False, None),
    ("sharedspace.conflicts", "in_road_zone", "scene.in_road_zone", False, None),
    ("sharedspace.game", "extract_features", "game.extract_features", False, None),
    ("sharedspace.game", "build_payoff_matrix", "game.build_payoff_matrix", False, None),
    ("sharedspace.game", "solve_spne", "game.solve_spne", False, None),
    ("sharedspace.game", "apply_action", "game.apply_action", False, None),
    ("sharedspace.engine", "build_visibility_graph", "planner.build_visibility_graph", False, None),
    ("sharedspace.engine", "plan_path", "planner.plan_path", False, None),
    ("sharedspace.cli", "ga_optimize", "calibrate.ga_optimize", True, None),
    ("sharedspace.cli", "fitness_sfm", "calibrate.fitness_sfm", True, _genes),
    ("sharedspace.calibrate", "run_scenario", "calibrate.run_scenario", True, _steps),
    ("sharedspace.calibrate", "position_error_score", "calibrate.position_error_score", False, None),
    ("sharedspace.calibrate", "trace_positions", "calibrate.trace_positions", False, None),
    ("sharedspace.cli", "load_trajectories", "dataio.load_trajectories", False, _rows),
    ("sharedspace.cli", "compare_trajectories", "dataio.compare_trajectories", False, None),
    ("sharedspace.logit", "fit_multinomial_logit", "logit.fit_multinomial_logit", False, None),
)


def _owner(module: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.seen_genes: set[tuple[float, ...]] = set()
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        # open instrumented calls: [time of instrumented children, enclosing span id]
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, path, name, span, observe in TARGETS:
                owner, attr = _owner(module, path)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name, span, observe))
                self._patched.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _open(self, span: bool) -> tuple[list, int | None]:
        parent = self._stack[-1][1] if self._stack else None
        if span:
            sid, self._next_id = self._next_id, self._next_id + 1
        else:
            sid = parent
        frame = [0.0, sid]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name: str, frame: list, parent: int | None, span: bool,
               start: float, end: float, ok: bool) -> None:
        self._stack.pop()
        elapsed = end - start
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        if span:
            self.spans.append((frame[1], parent, name, start, end))
        if not ok:
            self.errors[name] += 1

    def _wrap(self, fn, name: str, span: bool, observe):
        tracer = self

        def traced(*args, **kwargs):
            frame, parent = tracer._open(span)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(name, frame, parent, span, start, perf_counter(), ok)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        frame, parent = self._open(True)
        start = perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(name, frame, parent, True, start, perf_counter(), ok)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]
