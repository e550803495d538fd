"""Metric patrol graph: parsing, validation, shortest paths, routes, generator."""

import math
from importlib import resources
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import has_edge, route_is_valid, shortest_distance
from swarmpatrol.graph import (
    GraphValidationError,
    MapFormatError,
    PatrolGraph,
    build_cyclic_route,
    generate_default_map,
    parse_map,
    serialize_map,
)

SQ2 = math.sqrt(2.0)


def _diamond() -> PatrolGraph:
    # two equal-length routes 0-1-3 and 0-2-3, each 2*sqrt(2) long
    text = """
    # tie-breaking fixture
    node 0 0 0
    node 1 1 1
    node 2 1 -1
    node 3 2 0
    edge 0 1
    edge 0 2
    edge 1 3
    edge 2 3
    """
    return parse_map(text)


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


def test_parse_map_basic():
    g = parse_map("node 0 0 0\nnode 1 3 4\nedge 0 1\n")
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.edge_length(0, 1) == pytest.approx(5.0)
    assert g.edge_length(1, 0) == pytest.approx(5.0)


def test_parse_map_explicit_length_overrides_euclidean():
    g = parse_map("node 0 0 0\nnode 1 3 4\nedge 0 1 9.5\n")
    assert g.edge_length(0, 1) == 9.5


def test_parse_map_ignores_comments_and_blanks():
    g = parse_map("# header\n\nnode 0 0 0  # trailing\nnode 1 1 0\n\nedge 0 1\n")
    assert g.node_count == 2


def test_serialize_round_trip():
    g = _diamond()
    text = serialize_map(g, header="fixture")
    g2 = parse_map(text)
    assert g2.coords == g.coords
    assert g2.edges == g.edges
    assert serialize_map(g2, header="fixture") == text


def test_serialize_keeps_overridden_length_explicit():
    g = parse_map("node 0 0 0\nnode 1 1 0\nnode 2 2 0\nedge 0 1 7.0\nedge 1 2\n")
    text = serialize_map(g)
    assert "edge 0 1 7.0" in text
    assert "edge 1 2\n" in text
    g2 = parse_map(text)
    assert g2.edge_length(0, 1) == 7.0
    assert g2.edge_length(1, 2) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("node 0 0 0\nbogus 1 2\n", 2),
        ("node 0 0 0\nnode 1\n", 2),
        ("node 0 0 0\nnode 1 1 0\nedge 0\n", 3),
        ("node 0 0 0\nnode 0 1 0\n", 2),
        ("node 0 0 0\nnode 1 1 0\nedge 0 one\n", 3),
    ],
)
def test_parse_map_reports_offending_line(text, line_no):
    with pytest.raises(MapFormatError) as exc:
        parse_map(text)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    "text",
    [
        "",  # no nodes
        "node 0 0 0\nnode 2 1 0\nedge 0 2\n",  # ids not dense
        "node 0 0 0\nnode 1 1 0\nedge 0 5\n",  # unknown node ref
        "node 0 0 0\nnode 1 1 0\nedge 0 0\n",  # self-loop
        "node 0 0 0\nnode 1 1 0\nedge 0 1\nedge 1 0\n",  # parallel edge
        "node 0 0 0\nnode 1 1 0\nnode 2 9 9\nedge 0 1\n",  # disconnected
        # finite edges whose sum overflows: the route's length would be inf
        "node 0 0 0\nnode 1 1e308 0\nnode 2 -1e308 0\nedge 0 1\nedge 0 2\n",
    ],
)
def test_parse_map_rejects_invalid_graphs(text):
    with pytest.raises(MapFormatError):
        parse_map(text)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_graph_requires_two_nodes():
    with pytest.raises(GraphValidationError):
        PatrolGraph([(0.0, 0.0)], [])


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 0, 1.0)],
        [(0, 1, 1.0), (1, 0, 2.0)],
        [(0, 1, 0.0)],
        [(0, 1, -2.0)],
        [(0, 1, math.inf)],
        [(0, 1, math.nan)],
        [(0, 3, 1.0)],
        [],
    ],
)
def test_graph_rejects_bad_edges(edges):
    coords = [(0.0, 0.0), (1.0, 0.0)]
    with pytest.raises(GraphValidationError) as info:
        PatrolGraph(coords, edges)
    # a bad length is named for what it is, an infinite one too
    bad = [d for _, _, d in edges if not 0.0 < d < math.inf]
    if bad:
        assert f"has non-positive or non-finite length {bad[0]}" in str(info.value)


_NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("value", _NON_FINITE)
def test_graph_rejects_non_finite_coordinates(axis, value):
    # edge lengths are given, so no distance is ever computed from the pose
    point = [1.0, 0.0]
    point[axis] = value
    with pytest.raises(GraphValidationError, match="node 1 has a non-finite coordinate"):
        PatrolGraph([(0.0, 0.0), tuple(point), (2.0, 0.0)], [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_parse_map_rejects_non_finite_coordinates(token, axis):
    x, y = (token, "0") if axis == "x" else ("0", token)
    text = f"node 0 {x} {y}\nnode 1 1 0\nnode 2 2 0\nedge 0 1 1.0\nedge 1 2 1.0\n"
    with pytest.raises(MapFormatError, match="node 0 has a non-finite coordinate"):
        parse_map(text)


def test_neighbors_sorted_and_degree():
    g = _diamond()
    assert [v for v, _ in g.neighbors(0)] == [1, 2]
    assert [v for v, _ in g.neighbors(3)] == [1, 2]
    assert g.average_degree == pytest.approx(2.0)
    assert g.mean_edge_length == pytest.approx(SQ2)


def test_edge_length_missing_edge_raises():
    g = _diamond()
    with pytest.raises(KeyError):
        g.edge_length(0, 3)
    assert not has_edge(g, 0, 3)
    assert has_edge(g, 0, 1)


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------


def test_shortest_path_prefers_lexicographically_smaller_tie():
    g = _diamond()
    path, dist = g.shortest_path(0, 3)
    assert path == [0, 1, 3]
    assert dist == pytest.approx(2 * SQ2)


def test_shortest_path_trivial_and_symmetry():
    g = _diamond()
    assert g.shortest_path(2, 2) == ([2], 0.0)
    assert shortest_distance(g, 1, 2) == pytest.approx(shortest_distance(g, 2, 1))


def test_shortest_path_weighted_detour():
    # direct edge is overridden to be longer than the two-hop route
    g = parse_map(
        "node 0 0 0\nnode 1 1 0\nnode 2 2 0\nedge 0 1\nedge 1 2\nedge 0 2 10.0\n"
    )
    path, dist = g.shortest_path(0, 2)
    assert path == [0, 1, 2]
    assert dist == pytest.approx(2.0)


def test_shortest_path_unknown_node():
    g = _diamond()
    with pytest.raises(KeyError):
        g.shortest_path(0, 99)
    with pytest.raises(KeyError):
        g.shortest_path(-1, 2)


# ---------------------------------------------------------------------------
# cyclic patrol route
# ---------------------------------------------------------------------------


def _ring_with_chord() -> PatrolGraph:
    coords = [
        (math.cos(2 * math.pi * k / 6), math.sin(2 * math.pi * k / 6)) for k in range(6)
    ]
    edges = [(k, (k + 1) % 6, 1.0) for k in range(6)] + [(0, 3, 1.9)]
    return PatrolGraph(coords, edges)


def _brute_force_tour_length(g: PatrolGraph) -> float:
    best = math.inf
    rest = range(1, g.node_count)
    for perm in permutations(rest):
        order = (0, *perm)
        total = sum(
            shortest_distance(g, order[k], order[(k + 1) % len(order)])
            for k in range(len(order))
        )
        best = min(best, total)
    return best


def test_route_is_valid_on_small_graphs():
    for g in (_diamond(), _ring_with_chord()):
        route = build_cyclic_route(g)
        assert route_is_valid(g, route)
        assert len(route) >= g.node_count


def test_route_near_optimal_on_small_graphs():
    for g in (_diamond(), _ring_with_chord()):
        route = build_cyclic_route(g)
        assert route.length <= 1.5 * _brute_force_tour_length(g) + 1e-9


def test_route_is_valid_rejects_broken_walks():
    from swarmpatrol.graph import Route

    g = _diamond()
    assert not route_is_valid(g, Route(nodes=(0, 1, 3), length=0.0))  # misses node 2
    assert not route_is_valid(g, Route(nodes=(0, 1, 2, 3), length=0.0))  # 1-2 not an edge


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    coords = [(float(i), float((i * 7) % 13)) for i in range(n)]
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return PatrolGraph(
        coords, [(a, b, math.dist(coords[a], coords[b])) for a, b in sorted(edges)]
    )


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_random_graphs_get_valid_routes(g):
    assert route_is_valid(g, build_cyclic_route(g))


@settings(max_examples=50, deadline=None)
@given(connected_graphs(), st.data())
def test_random_graph_shortest_path_properties(g, data):
    a = data.draw(st.integers(min_value=0, max_value=g.node_count - 1))
    b = data.draw(st.integers(min_value=0, max_value=g.node_count - 1))
    c = data.draw(st.integers(min_value=0, max_value=g.node_count - 1))
    path, dist = g.shortest_path(a, b)
    assert path[0] == a and path[-1] == b
    assert all(has_edge(g, u, v) for u, v in zip(path, path[1:]))
    assert dist == pytest.approx(sum(g.edge_length(u, v) for u, v in zip(path, path[1:])))
    assert dist == pytest.approx(shortest_distance(g, b, a))
    assert shortest_distance(g, a, c) <= dist + shortest_distance(g, b, c) + 1e-9


# ---------------------------------------------------------------------------
# seeded map generator
# ---------------------------------------------------------------------------


def test_generated_map_shape(default_graph):
    g = default_graph
    assert g.node_count == 40
    assert g.edge_count == 44
    assert g.average_degree == pytest.approx(2.2)
    assert all(3.0 <= d <= 15.0 for _, _, d in g.edges)


def test_generator_is_deterministic():
    a = generate_default_map(7)
    b = generate_default_map(7)
    assert a.coords == b.coords
    assert a.edges == b.edges
    assert generate_default_map(8).coords != a.coords


def test_bundled_map_matches_generator_seed_zero(default_graph):
    text = resources.files("swarmpatrol").joinpath("data/default_map.txt").read_text()
    expected = serialize_map(default_graph, header="default patrol map, generator seed 0")
    assert text == expected
