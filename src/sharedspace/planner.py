"""Global route planning over a visibility graph.

Graph nodes are obstacle corners pushed outward by a clearance margin;
edges connect mutually visible nodes. Paths come from A* with the
straight-line heuristic and are returned as corner waypoints without
densification.

Visibility is decided in bulk by one test, `geometry.ObstacleIndex.visible`,
with results identical to the scalar rule `segment_clear_of_polygon`,
which stays the oracle (`segment_is_free` is its scene-wide form). The
test of whether a corner lies inside an obstacle is the same test on
the zero-length segment from the corner to itself: such a segment gets
the parameters {0, 1} alone, so its one midpoint is the corner, and the
scalar rule reads it as `not point_strictly_inside`. The force pass
reads the same index (`forces.obstacle_repulsion`): the scene's own,
`scene.Scene.obstacle_index`, from which `engine.plan_waypoints` builds
all its graphs. A graph keeps the index it was built from, and
`plan_path` tests its endpoint segments with it.

- Two screens, on the polygon's box padded by _BOX_PAD of the
  coordinate scale. A (segment, polygon) pair is clear when the padded
  box and the segment's box are strictly disjoint, or when the padded
  box lies strictly on one side of the segment's line (the separating
  axis of the segment's own normal; Ericson, Real-Time Collision
  Detection, 2004, ch. 5). Every point the scalar rule tests lies on
  the segment to within rounding, far less than the pad, so it lies
  outside the polygon's box, where the even-odd rule counts no
  crossing, or an even number. The tolerance bands of `_on_segment_xy`
  and `_crossing_params` can only add boundary points, which are never
  strictly inside, so they cannot block such a pair.
- One numpy pass over the pairs left, grouped by the polygon's vertex
  count (`geometry.segments_clear_of_polygons`), repeating the scalar
  arithmetic element by element.
- A pair whose answer lies within a margin of a tolerance band, where
  np.hypot and math.hypot could disagree, is decided by the scalar rule.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ObstacleIndex, Vec2, segment_clear_of_polygon
from .scene import Scene


class UnreachableGoalError(RuntimeError):
    def __init__(self, start: Vec2, goal: Vec2) -> None:
        super().__init__(f"no obstacle-free path from ({start.x}, {start.y}) to ({goal.x}, {goal.y})")
        self.start = start
        self.goal = goal


@dataclass
class VisibilityGraph:
    nodes: list[Vec2]
    # adjacency: node index -> list of (neighbor index, edge length)
    edges: dict[int, list[tuple[int, float]]]
    # the index of the obstacles the graph was built in, which plan_path reads
    obstacles: ObstacleIndex


def _inflated_corners(ring: list[Vec2], clearance: float) -> list[Vec2]:
    # The ring is counterclockwise, so edge normals point outward.
    n = len(ring)
    out = []
    for i in range(n):
        prev_v = ring[(i - 1) % n]
        v = ring[i]
        next_v = ring[(i + 1) % n]
        n1 = -(v - prev_v).normalized().left_normal()
        n2 = -(next_v - v).normalized().left_normal()
        m = n1 + n2
        m_sq = m.norm_sq()
        if m_sq < 1e-12:
            # Degenerate spike; fall back to the first edge normal.
            out.append(v + n1 * clearance)
            continue
        # Miter offset: distance to both adjacent edges equals clearance.
        out.append(v + m * (2.0 * clearance / m_sq))
    return out


def segment_is_free(scene: Scene, a: Vec2, b: Vec2) -> bool:
    return all(segment_clear_of_polygon(a, b, poly) for poly in scene.obstacles)


def build_visibility_graph(obstacles: ObstacleIndex, clearance: float = 0.0) -> VisibilityGraph:
    """Nodes are the corners of the indexed obstacles offset outward by
    clearance; an edge joins every mutually visible node pair."""
    if clearance < 0.0:
        raise ValueError("clearance must be nonnegative")
    corners = [c for ring in obstacles.rings for c in _inflated_corners(ring, clearance)]
    # A corner is a node unless it lies strictly inside an obstacle: the
    # zero-length segment from it to itself is not free.
    k = np.arange(len(corners))
    nodes = [c for c, free in zip(corners, obstacles.visible(corners, k, k).tolist()) if free]
    edges: dict[int, list[tuple[int, float]]] = {i: [] for i in range(len(nodes))}
    i, j = np.triu_indices(len(nodes), k=1)
    free = obstacles.visible(nodes, i, j)
    for a, b in zip(i[free].tolist(), j[free].tolist()):
        d = nodes[a].distance_to(nodes[b])
        edges[a].append((b, d))
        edges[b].append((a, d))
    return VisibilityGraph(nodes=nodes, edges=edges, obstacles=obstacles)


def plan_path(graph: VisibilityGraph, start: Vec2, goal: Vec2) -> list[Vec2]:
    """Shortest waypoint path from start to goal, including both ends,
    around the obstacles of the scene the graph was built in.

    Raises UnreachableGoalError when no obstacle-free route exists.
    """
    nodes = list(graph.nodes) + [start, goal]
    start_idx = len(graph.nodes)
    goal_idx = start_idx + 1
    # the direct segment, then each endpoint to every graph node
    ends = np.repeat([start_idx, goal_idx], start_idx)
    others = np.tile(np.arange(start_idx), 2)
    free = graph.obstacles.visible(
        nodes, np.concatenate(([start_idx], ends)), np.concatenate(([goal_idx], others))
    )
    if free[0]:
        return [start, goal]
    # Endpoint edges sit beside the graph's and follow a node's own
    # edges, so the graph is read in place and A* breaks ties as before.
    endpoint_edges: dict[int, list[tuple[int, float]]] = {start_idx: [], goal_idx: []}
    for e, i in zip(ends[free[1:]].tolist(), others[free[1:]].tolist()):
        d = nodes[e].distance_to(nodes[i])
        endpoint_edges[e].append((i, d))
        endpoint_edges.setdefault(i, []).append((e, d))

    counter = itertools.count()
    g_score = {start_idx: 0.0}
    came_from: dict[int, int] = {}
    open_heap = [(nodes[start_idx].distance_to(nodes[goal_idx]), next(counter), start_idx)]
    closed: set[int] = set()
    while open_heap:
        _, _, current = heapq.heappop(open_heap)
        if current == goal_idx:
            path = [current]
            while path[-1] in came_from:
                path.append(came_from[path[-1]])
            return [nodes[i] for i in reversed(path)]
        if current in closed:
            continue
        closed.add(current)
        neighbors = itertools.chain(graph.edges.get(current, ()), endpoint_edges.get(current, ()))
        for neighbor, weight in neighbors:
            tentative = g_score[current] + weight
            if tentative < g_score.get(neighbor, math.inf):
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                f = tentative + nodes[neighbor].distance_to(nodes[goal_idx])
                heapq.heappush(open_heap, (f, next(counter), neighbor))
    raise UnreachableGoalError(start, goal)
