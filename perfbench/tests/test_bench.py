"""Tests of the benchmark itself: seeded generators, output checks and
the tracer. Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import inspect
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import gen
from checks import trace_invariants
import refclock
from conftest import BENCH, ROOT
from run import run_call
from tracer import Tracer
from workloads import DEFAULT_SEED, Crowd, load_references

DATA = ROOT / "data"


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("write", [
    lambda seed, out: gen.write_crowd(seed, DATA, out),
    lambda seed, out: gen.write_obstacles(seed, DATA, out),
    lambda seed, out: gen.write_analysis(seed, out),
], ids=["crowd", "obstacles", "analysis"])
def test_generators_are_deterministic_per_seed(write, tmp_path: Path) -> None:
    runs = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        write(seed, tmp_path / name)
        runs[name] = files(tmp_path / name)
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


def test_obstacles_block_a_straight_route() -> None:
    from sharedspace.planner import segment_is_free

    scene, records = gen.obstacle_inputs(3, DATA)
    assert len(scene.obstacles) == gen.OBSTACLE_BOXES
    routes = [(e.position, e.goal) for s in gen._shapes(DATA) for e in s.entries]
    assert any(not segment_is_free(scene, a, b) for a, b in routes)
    assert records


@pytest.fixture(scope="module")
def crowd_op(tmp_path_factory) -> Crowd:
    """Op 0 of the crowd workload at the default seed, checked clean."""
    work = tmp_path_factory.mktemp("crowd")
    workload = Crowd(DEFAULT_SEED, DATA, work, load_references()["crowd"])
    workload.prepare()
    (label, argv), = workload.calls(0)
    *_, error = run_call(argv)
    assert error is None
    assert workload.check(0, label) == []
    return workload


def move_first_sampled_position(trace: Path, dx: float) -> None:
    lines = trace.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        sid, frame, agent, kind, x, y = line.split(",")
        if int(frame) % 5 == 0:
            lines[i] = ",".join([sid, frame, agent, kind, repr(float(x) + dx), y])
            break
    trace.write_text("\n".join(lines) + "\n")


def test_checks_reject_a_moved_position(crowd_op: Crowd, tmp_path: Path) -> None:
    shutil.copytree(crowd_op.out, tmp_path / "out")
    crowd_op.out = tmp_path / "out"
    move_first_sampled_position(crowd_op.out / "trace.csv", 0.01)
    errors = crowd_op.check(0, "simulate")
    assert any("moved from the reference position" in e for e in errors)


def test_checks_reject_a_position_outside_the_scene(crowd_op: Crowd, tmp_path: Path) -> None:
    shutil.copytree(crowd_op.out, tmp_path / "out")
    move_first_sampled_position(tmp_path / "out" / "trace.csv", 1000.0)
    from checks import read_rows

    errors = trace_invariants(read_rows(tmp_path / "out" / "trace.csv"), (-60.0, -60.0, 60.0, 60.0))
    assert any("outside the scene bounds" in e for e in errors)


def sharedspace_attributes() -> dict[tuple[str, str], object]:
    """Every attribute of every sharedspace module and of their classes."""
    import sharedspace.cli  # noqa: F401  (imports every module)

    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if name == "sharedspace" or name.startswith("sharedspace."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
                if inspect.isclass(value) and value.__module__ == name:
                    for member, obj in vars(value).items():
                        snapshot[(f"{name}.{attr}", member)] = obj
    return snapshot


def test_tracer_restores_every_patched_attribute(tmp_path: Path) -> None:
    before = sharedspace_attributes()
    forces = importlib.import_module("sharedspace.forces")
    engine = importlib.import_module("sharedspace.engine")
    original = forces.agent_repulsion
    with Tracer() as tracer:
        assert forces.agent_repulsion is not original
        assert hasattr(engine.Simulation.step, "__wrapped__")
        *_, error = run_call(["simulate", "--scene", str(DATA / "scene.json"),
                             "--scenario", str(DATA / "crossing.json"),
                             "--out-dir", str(tmp_path)])
    assert error is None
    assert tracer.calls["engine.step"] > 0 and tracer.calls["engine.run_scenario"] == 1
    assert sharedspace_attributes() == before


def test_tracer_restores_on_error() -> None:
    before = sharedspace_attributes()
    with pytest.raises(RuntimeError), Tracer():
        raise RuntimeError("boom")
    assert sharedspace_attributes() == before


def busy() -> float:
    """About 0.1 s of pure-Python work."""
    return sum(float(i) ** 0.5 for i in range(400_000))


def test_refclock_restores_the_alarm_handler_and_disarms_the_timer() -> None:
    def handler(signum, frame) -> None:
        pass

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        with refclock.RefClock() as clock:
            busy()
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert len(clock.samples) > 2  # the timer fired during the section
    assert 0.0 < clock.wall and 0.0 < clock.seconds


def test_refclock_scales_wall_time_by_the_sampled_speed() -> None:
    with refclock.RefClock() as clock:
        busy()
    low, high = min(clock.samples), max(clock.samples)
    scaled = clock.wall * refclock.NOMINAL_S
    assert scaled / high <= clock.seconds * (1 + 1e-9) and clock.seconds <= scaled / low * (1 + 1e-9)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
