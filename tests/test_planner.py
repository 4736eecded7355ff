import heapq
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedspace import geometry
from sharedspace.geometry import (
    ObstacleIndex,
    Vec2,
    _edge_table,
    _nearest_on_edges_xy,
    point_strictly_inside,
    segment_clear_of_polygon,
)
from sharedspace.planner import (
    UnreachableGoalError,
    VisibilityGraph,
    _inflated_corners,
    build_visibility_graph,
    plan_path,
    segment_is_free,
)
from sharedspace.scene import Rect, Scene


def rect_poly(x0, y0, x1, y1):
    return (Vec2(x0, y0), Vec2(x1, y0), Vec2(x1, y1), Vec2(x0, y1))


def scene_with(obstacles):
    return Scene(
        obstacles=tuple(obstacles),
        intersection_zones=(),
        road_zones=(),
        bounds=Rect(-100, -100, 100, 100),
    )


def boundary_distance(p, poly):
    """The distance from p to the nearest boundary point of poly."""
    return _nearest_on_edges_xy(p.x, p.y, _edge_table(poly))[2]


def path_length(path):
    return sum(a.distance_to(b) for a, b in zip(path, path[1:]))


def dijkstra_cost(scene, graph, start, goal):
    """Independent shortest-path cost over the same visibility rule."""
    if segment_is_free(scene, start, goal):
        return start.distance_to(goal)
    nodes = list(graph.nodes) + [start, goal]
    n = len(nodes)
    dist = [math.inf] * n
    dist[n - 2] = 0.0
    heap = [(0.0, n - 2)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == n - 1:
            return d
        for v in range(n):
            if v == u:
                continue
            if segment_is_free(scene, nodes[u], nodes[v]):
                nd = d + nodes[u].distance_to(nodes[v])
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return math.inf


class TestVisibilityGraph:
    def test_no_obstacles_empty_graph(self):
        g = build_visibility_graph(ObstacleIndex([]))
        assert g.nodes == []

    def test_square_gives_four_corners(self):
        g = build_visibility_graph(ObstacleIndex([rect_poly(0, 0, 4, 4)]), clearance=0.5)
        assert len(g.nodes) == 4

    def test_inflated_corner_distance(self):
        poly = rect_poly(0, 0, 4, 4)
        g = build_visibility_graph(ObstacleIndex([poly]), clearance=0.5)
        for node in g.nodes:
            d = boundary_distance(node, poly)
            # Square corner miter: clearance on both adjacent edges.
            assert d == pytest.approx(0.5 * math.sqrt(2.0), rel=1e-9)

    def test_corner_inside_other_obstacle_dropped(self):
        a = rect_poly(0, 0, 4, 4)
        b = rect_poly(3, 3, 10, 10)  # overlaps a's top-right corner region
        g = build_visibility_graph(ObstacleIndex([a, b]), clearance=0.0)
        assert all(
            not point_strictly_inside(n, a) and not point_strictly_inside(n, b)
            for n in g.nodes
        )

    def test_negative_clearance_rejected(self):
        with pytest.raises(ValueError):
            build_visibility_graph(ObstacleIndex([]), clearance=-0.1)

    def test_edges_symmetric(self):
        g = build_visibility_graph(
            ObstacleIndex([rect_poly(0, 0, 4, 4), rect_poly(10, 0, 14, 4)]), clearance=0.3
        )
        for i, nbrs in g.edges.items():
            for j, d in nbrs:
                assert (i, d) in g.edges[j]


class TestPlanPath:
    def test_direct_when_free(self):
        scene = scene_with([rect_poly(0, 0, 4, 4)])
        g = build_visibility_graph(ObstacleIndex(scene.obstacles))
        path = plan_path(g, Vec2(-5, -5), Vec2(-5, 5))
        assert path == [Vec2(-5, -5), Vec2(-5, 5)]

    def test_detour_around_square(self):
        scene = scene_with([rect_poly(-2, -2, 2, 2)])
        g = build_visibility_graph(ObstacleIndex(scene.obstacles), clearance=0.5)
        path = plan_path(g, Vec2(-6, 0), Vec2(6, 0))
        assert path[0] == Vec2(-6, 0)
        assert path[-1] == Vec2(6, 0)
        assert len(path) > 2
        for a, b in zip(path, path[1:]):
            assert segment_is_free(scene, a, b)

    def test_detour_longer_than_straight_line(self):
        scene = scene_with([rect_poly(-2, -2, 2, 2)])
        g = build_visibility_graph(ObstacleIndex(scene.obstacles), clearance=0.5)
        path = plan_path(g, Vec2(-6, 0), Vec2(6, 0))
        assert path_length(path) > 12.0

    def test_unreachable_goal_raises(self):
        # Goal enclosed by a solid block wall ring built from four slabs.
        walls = [
            rect_poly(-5, -5, 5, -4),
            rect_poly(-5, 4, 5, 5),
            rect_poly(-5, -4, -4, 4),
            rect_poly(4, -4, 5, 4),
        ]
        scene = scene_with(walls)
        g = build_visibility_graph(ObstacleIndex(scene.obstacles), clearance=0.2)
        with pytest.raises(UnreachableGoalError):
            plan_path(g, Vec2(-20, 0), Vec2(0, 0))

    def test_clearance_respected_along_path(self):
        obstacle = rect_poly(-3, -3, 3, 3)
        scene = scene_with([obstacle])
        clearance = 0.8
        g = build_visibility_graph(ObstacleIndex(scene.obstacles), clearance=clearance)
        path = plan_path(g, Vec2(-10, 0), Vec2(10, 0))
        for a, b in zip(path, path[1:]):
            for t in range(21):
                p = a + (b - a) * (t / 20.0)
                d = boundary_distance(p, obstacle)
                if point_strictly_inside(p, obstacle):
                    pytest.fail("path enters obstacle")
                assert d >= clearance - 1e-9

    def test_astar_matches_dijkstra_on_random_scenes(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(150):
            obstacles = []
            for _ in range(rng.randint(1, 3)):
                x0 = rng.uniform(-20, 12)
                y0 = rng.uniform(-20, 12)
                w = rng.uniform(2, 8)
                h = rng.uniform(2, 8)
                obstacles.append(rect_poly(x0, y0, x0 + w, y0 + h))
            scene = scene_with(obstacles)
            start = Vec2(-30, rng.uniform(-25, 25))
            goal = Vec2(30, rng.uniform(-25, 25))
            if any(point_strictly_inside(p, o) for o in obstacles for p in (start, goal)):
                continue
            g = build_visibility_graph(ObstacleIndex(scene.obstacles), clearance=0.0)
            expected = dijkstra_cost(scene, g, start, goal)
            try:
                path = plan_path(g, start, goal)
            except UnreachableGoalError:
                assert expected == math.inf
                continue
            assert path_length(path) == pytest.approx(expected, rel=1e-9)
            checked += 1
        assert checked > 100


# ---------------------------------------------------------------------------
# The batched visibility tests against the scalar rules
# ---------------------------------------------------------------------------


def reference_graph(scene, clearance):
    """build_visibility_graph decided pair by pair with the scalar rules."""
    nodes = [
        corner
        for ring in ObstacleIndex(scene.obstacles).rings
        for corner in _inflated_corners(ring, clearance)
        if not any(point_strictly_inside(corner, other) for other in scene.obstacles)
    ]
    edges = {i: [] for i in range(len(nodes))}
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if all(segment_clear_of_polygon(nodes[i], nodes[j], poly) for poly in scene.obstacles):
                d = nodes[i].distance_to(nodes[j])
                edges[i].append((j, d))
                edges[j].append((i, d))
    # No obstacle index: reference_plan tests its segments on the scene.
    return VisibilityGraph(nodes=nodes, edges=edges, obstacles=None)


def reference_plan(graph, start, goal, scene):
    """plan_path with scalar endpoint visibility over a full adjacency copy."""
    if segment_is_free(scene, start, goal):
        return [start, goal]
    nodes = list(graph.nodes) + [start, goal]
    start_idx, goal_idx = len(graph.nodes), len(graph.nodes) + 1
    adjacency = {i: list(graph.edges[i]) for i in range(len(graph.nodes))}
    adjacency[start_idx], adjacency[goal_idx] = [], []
    for endpoint in (start_idx, goal_idx):
        for i in range(len(graph.nodes)):
            if segment_is_free(scene, nodes[endpoint], nodes[i]):
                d = nodes[endpoint].distance_to(nodes[i])
                adjacency[endpoint].append((i, d))
                adjacency[i].append((endpoint, d))
    counter = itertools.count()
    g_score, came_from, closed = {start_idx: 0.0}, {}, set()
    heap = [(start.distance_to(goal), next(counter), start_idx)]
    while heap:
        _, _, current = heapq.heappop(heap)
        if current == goal_idx:
            path = [current]
            while path[-1] in came_from:
                path.append(came_from[path[-1]])
            return [nodes[i] for i in reversed(path)]
        if current in closed:
            continue
        closed.add(current)
        for neighbor, weight in adjacency[current]:
            tentative = g_score[current] + weight
            if tentative < g_score.get(neighbor, math.inf):
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                heapq.heappush(heap, (tentative + nodes[neighbor].distance_to(goal), next(counter), neighbor))
    raise UnreachableGoalError(start, goal)


def plan_or_none(plan, *args):
    try:
        return plan(*args)
    except UnreachableGoalError:
        return None


def assert_same_graph(got, expected):
    assert got.nodes == expected.nodes
    assert list(got.edges.items()) == list(expected.edges.items())


# Half-metre grid coordinates make boxes overlap, touch, share edges and
# put corners (inflated by a multiple of 0.25) on other boxes' boundaries.
grid = st.integers(-8, 8).map(lambda k: k * 0.5)
coord = st.one_of(grid, st.floats(-5.0, 5.0, allow_nan=False))
side = st.one_of(st.integers(1, 6).map(lambda k: k * 0.5), st.floats(0.3, 3.0))
box = st.builds(lambda x, y, w, h: rect_poly(x, y, x + w, y + h), coord, coord, side, side)


def tilted_box(x, y, w, h, angle):
    # Off-axis edges: a midpoint of a segment along one lies off the edge
    # by rounding, inside _on_segment's band.
    u = Vec2(math.cos(angle), math.sin(angle))
    v = u.left_normal()
    return (Vec2(x, y), Vec2(x, y) + u * w, Vec2(x, y) + u * w + v * h, Vec2(x, y) + v * h)


tilted = st.builds(tilted_box, coord, coord, side, side, st.floats(0.0, math.pi))


@st.composite
def box_scenes(draw):
    obstacles = draw(st.lists(st.one_of(box, tilted), min_size=1, max_size=4))
    if draw(st.booleans()):
        # an L-shaped (concave) polygon
        x, y = draw(grid), draw(grid)
        obstacles.append(tuple(
            Vec2(x + u, y + v) for u, v in ((0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3))
        ))
    return scene_with(draw(st.permutations(obstacles)))


clearances = st.sampled_from([0.0, 0.25, 0.45, 0.5, 1.2, 1.3])
points = st.builds(Vec2, st.one_of(grid, st.floats(-8.0, 8.0)), st.one_of(grid, st.floats(-8.0, 8.0)))


# Boxes, maybe turned, at coordinates up to 1e4 with sides from 1e-3 to
# 10 m, and segments placed on their features.
far = st.floats(-1e4, 1e4, allow_nan=False)
box_side = st.floats(-3.0, 1.0).map(lambda k: 10.0**k)


@st.composite
def feature_segments(draw):
    """One to three boxes and segments that graze a corner (through it,
    the box on one side), run along an edge, end on the boundary, or
    have zero length; grazing ones may be moved 1e-9 m across their
    line. The boxes may lie far apart or overlap, and their edges may be
    shorter than a scene takes, so they are indexed directly."""
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        x, y, w, h = draw(far), draw(far), draw(box_side), draw(box_side)
        polys.append(tilted_box(x, y, w, h, draw(st.one_of(st.just(0.0), st.floats(0.0, math.pi)))))
    segments = []
    for poly in polys:
        for k in range(4):
            prev, c, nxt = poly[k - 1], poly[k], poly[(k + 1) % 4]
            into, along = (c - prev), (nxt - c)
            # a line through the corner between the incoming edge's
            # direction and the outgoing one's leaves the box on one side
            t = draw(st.floats(0.05, 0.95))
            d = into * t + along * (1.0 - t)
            r1, r2 = draw(st.sampled_from([0.0, 0.5, 2.0])), draw(st.sampled_from([0.5, 2.0]))
            nudge = d.left_normal() * (draw(st.sampled_from([0.0, 1e-9, -1e-9])) / max(d.norm(), 1e-300))
            segments.append((c - d * r1 + nudge, c + d * r2 + nudge))
            s1, s2 = draw(st.sampled_from([-0.5, 0.0, 0.3])), draw(st.sampled_from([0.7, 1.0, 1.5]))
            segments.append((c + along * s1, c + along * s2))
            on = c + along * draw(st.floats(0.0, 1.0))
            off = on + Vec2(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))) * max(along.norm(), into.norm())
            segments += [(on, off), (off, on), (c, c), (on, on)]
    centre = polys[0][0] + (polys[0][2] - polys[0][0]) * 0.5
    segments.append((centre, centre))
    return polys, segments


class TestObstacleScreens:
    @settings(max_examples=60, deadline=None)
    @given(feature_segments())
    def test_visible_is_segment_is_free(self, case):
        """segment_is_free's rule, the segment clear of every polygon."""
        polys, segments = case
        points = [p for segment in segments for p in segment]
        i = np.arange(0, len(points), 2)
        got = ObstacleIndex(polys).visible(points, i, i + 1).tolist()
        assert got == [all(segment_clear_of_polygon(a, b, poly) for poly in polys) for a, b in segments]

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e10])
    def test_a_near_miss_is_left_to_the_exact_test(self, scale):
        """The screen clears a pair only by more than its pad: a segment
        that passes a box corner a few ulps of its coordinates away goes
        to the exact kernels. Coordinates near 1e10, which Scene.validate
        would not take, are tested on the index itself."""
        c = scale
        index = ObstacleIndex([(Vec2(c, c), Vec2(c + 1.0, c), Vec2(c + 1.0, c + 1.0), Vec2(c, c + 1.0))])
        miss = 4.0 * math.ulp(c + 1001.0)
        # slope 1, above the corner (c, c + 1) by `miss`; the box lies below the line
        a, b = Vec2(c - 1000.0, c - 999.0 + miss), Vec2(c + 1000.0, c + 1001.0 + miss)
        assert a.y - a.x > 1.0 and b.y - b.x > 1.0
        kept, _ = index._screen(np.array([[a.x, a.y]]), np.array([[b.x, b.y]]))
        assert kept.tolist() == [0]
        assert index.visible([a, b], np.array([0]), np.array([1])).tolist() == [True]
        assert segment_clear_of_polygon(a, b, index.polygons[0])


class TestBatchedMatchesScalarRules:
    @settings(max_examples=80, deadline=None)
    @given(box_scenes(), clearances, st.lists(st.tuples(points, points), min_size=1, max_size=4))
    def test_graph_and_plans_match_the_scalar_reference(self, scene, clearance, routes):
        got = build_visibility_graph(ObstacleIndex(scene.obstacles), clearance)
        expected = reference_graph(scene, clearance)
        assert_same_graph(got, expected)
        for start, goal in routes:
            assert plan_or_none(plan_path, got, start, goal) == plan_or_none(
                reference_plan, expected, start, goal, scene
            )

    def test_unsure_pairs_are_decided_by_the_scalar_rules(self, monkeypatch):
        """Every pair the batch leaves unsure goes to the scalar rule: with
        all of them unsure, the result is still the reference's."""
        def all_unsure(kernel):
            def wrapped(*args):
                decided, _ = kernel(*args)
                return ~decided, np.ones_like(decided)
            return wrapped

        monkeypatch.setattr(geometry, "segments_clear_of_polygons", all_unsure(geometry.segments_clear_of_polygons))
        scene = scene_with([rect_poly(0, 0, 4, 4), rect_poly(3, 3, 10, 10), rect_poly(-6, 0, -2, 2)])
        for clearance in (0.0, 0.5):
            got = build_visibility_graph(ObstacleIndex(scene.obstacles), clearance)
            expected = reference_graph(scene, clearance)
            assert_same_graph(got, expected)
            assert plan_path(got, Vec2(-9, -3), Vec2(12, 12)) == reference_plan(
                expected, Vec2(-9, -3), Vec2(12, 12), scene
            )

    def test_plan_path_leaves_the_graph_unchanged(self):
        scene = scene_with([rect_poly(-2, -2, 2, 2)])
        graph = build_visibility_graph(ObstacleIndex(scene.obstacles), clearance=0.5)
        before = {i: list(nbrs) for i, nbrs in graph.edges.items()}
        plan_path(graph, Vec2(-6, 0), Vec2(6, 0))
        assert graph.edges == before
