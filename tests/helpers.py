"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np

from sharedspace import engine
from sharedspace.geometry import Vec2
from sharedspace.scene import AgentKind, AgentState, Rect, Scene


def multinomial_labels(
    rng: np.random.Generator, X: np.ndarray, coef_by_class: dict[str, list[float]], baseline: str
) -> list[str]:
    """Sample labels from a multinomial logit with known coefficients.

    The baseline class has utility zero; other classes are keyed by
    name with one coefficient per column of X.
    """
    names = sorted(coef_by_class)
    eta = np.column_stack(
        [np.zeros(X.shape[0])] + [X @ np.asarray(coef_by_class[c], dtype=float) for c in names]
    )
    eta -= eta.max(axis=1, keepdims=True)
    probs = np.exp(eta)
    probs /= probs.sum(axis=1, keepdims=True)
    draws = rng.random(X.shape[0])
    idx = (draws[:, None] > probs.cumsum(axis=1)).sum(axis=1)
    labels = [baseline] + names
    return [labels[i] for i in idx]


def open_square_scene(half: float = 30.0, zone: str = "intersection") -> Scene:
    """Obstacle-free scene whose whole square is one zone."""
    ring = (
        Vec2(-half, -half),
        Vec2(half, -half),
        Vec2(half, half),
        Vec2(-half, half),
    )
    return Scene(
        obstacles=(),
        intersection_zones=(ring,) if zone == "intersection" else (),
        road_zones=(ring,) if zone == "road" else (),
        bounds=Rect(-2 * half, -2 * half, 2 * half, 2 * half),
    )


def car(
    agent_id: str = "c1",
    position: Vec2 = Vec2(0.0, 0.0),
    heading: Vec2 = Vec2(1.0, 0.0),
    speed: float = 2.0,
    max_speed: float = 2.2,
    goal: Vec2 | None = None,
    **kw,
) -> AgentState:
    h = heading.normalized()
    return AgentState(
        id=agent_id,
        kind=AgentKind.CAR,
        position=position,
        velocity=h * speed,
        desired_speed=max(speed, 0.1),
        max_speed=max_speed,
        goal=goal if goal is not None else position + h * 50.0,
        heading=h,
        diameter=kw.pop("diameter", 2.0),
        **kw,
    )


def ped(
    agent_id: str = "p1",
    position: Vec2 = Vec2(0.0, 0.0),
    heading: Vec2 = Vec2(0.0, 1.0),
    speed: float = 1.2,
    max_speed: float = 1.2,
    goal: Vec2 | None = None,
    **kw,
) -> AgentState:
    h = heading.normalized()
    return AgentState(
        id=agent_id,
        kind=AgentKind.PEDESTRIAN,
        position=position,
        velocity=h * speed,
        desired_speed=max(speed, 0.1),
        max_speed=max_speed,
        goal=goal if goal is not None else position + h * 50.0,
        heading=h,
        diameter=kw.pop("diameter", 0.5),
        **kw,
    )


def count_graph_builds(monkeypatch) -> list[float]:
    """Record the clearance of every visibility graph the engine builds."""
    clearances: list[float] = []
    build = engine.build_visibility_graph

    def counting(obstacles, clearance=0.0):
        clearances.append(clearance)
        return build(obstacles, clearance)

    monkeypatch.setattr(engine, "build_visibility_graph", counting)
    return clearances
