"""Patrol graph: a connected metric graph embedded in the plane.

Covers validated construction, the line-oriented map file format, shortest
paths with deterministic lexicographic tie-breaking, construction of a short
closed patrol route, and a seeded generator for corridor-style maps.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

__all__ = [
    "GraphValidationError",
    "MapFormatError",
    "PatrolGraph",
    "Route",
    "parse_map",
    "serialize_map",
    "build_cyclic_route",
    "generate_default_map",
]


class GraphValidationError(ValueError):
    """Raised when a graph violates a structural constraint."""


class MapFormatError(ValueError):
    """Raised on malformed map file content; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PatrolGraph:
    """Immutable undirected metric graph with plane-embedded nodes.

    Nodes are dense ids 0..m-1 with finite (x, y) coordinates in meters. Edge
    lengths default to the Euclidean distance between endpoints; an explicit
    override is allowed when loaded from a map file. The graph must be
    connected, free of self-loops and parallel edges, with positive lengths
    small enough that twice their sum times m is finite.
    """

    __slots__ = ("coords", "edges", "adjacency", "_length", "_sp_cache", "_rows", "_mean_edge")

    def __init__(
        self,
        coords: list[tuple[float, float]],
        edges: list[tuple[int, int, float]],
    ):
        m = len(coords)
        if m < 2:
            raise GraphValidationError(f"need at least 2 nodes, got {m}")
        self.coords: tuple[tuple[float, float], ...] = tuple(
            (float(x), float(y)) for x, y in coords
        )
        for v, (x, y) in enumerate(self.coords):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GraphValidationError(f"node {v} has a non-finite coordinate ({x}, {y})")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int, float]] = []
        adjacency: list[list[tuple[int, float]]] = [[] for _ in range(m)]
        length: dict[tuple[int, int], float] = {}
        for a, b, d in edges:
            if not (0 <= a < m and 0 <= b < m):
                raise GraphValidationError(f"edge ({a},{b}) references unknown node")
            if a == b:
                raise GraphValidationError(f"self-loop at node {a}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise GraphValidationError(f"parallel edge ({key[0]},{key[1]})")
            seen.add(key)
            d = float(d)
            if not (d > 0.0) or not math.isfinite(d):
                raise GraphValidationError(
                    f"edge ({a},{b}) has non-positive or non-finite length {d}"
                )
            norm.append((key[0], key[1], d))
            adjacency[a].append((b, d))
            adjacency[b].append((a, d))
            length[(a, b)] = d
            length[(b, a)] = d
        norm.sort()
        self.edges: tuple[tuple[int, int, float], ...] = tuple(norm)
        for row in adjacency:
            row.sort()
        self.adjacency: tuple[tuple[tuple[int, float], ...], ...] = tuple(
            tuple(row) for row in adjacency
        )
        self._length = length
        self._sp_cache: dict[int, dict[int, tuple[float, tuple[int, ...]]]] = {}
        self._rows: list[tuple[float, ...] | None] = [None] * m
        total = sum(d for _, _, d in norm)
        # A shortest path is simple, so no longer than all edges together, and
        # a closed route is at most m of them: total * m bounds every sum of
        # lengths the simulator makes, and the factor 2 covers their rounding.
        if not math.isfinite(2.0 * m * total):
            raise GraphValidationError(
                f"edge lengths sum to {total} m over {m} nodes; routes would overflow"
            )
        self._mean_edge = total / len(norm) if norm else 0.0
        self._check_connected()

    def _check_connected(self) -> None:
        m = self.node_count
        seen = [False] * m
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v, _ in self.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if not all(seen):
            missing = seen.index(False)
            raise GraphValidationError(f"graph is disconnected (node {missing} unreachable)")

    @property
    def node_count(self) -> int:
        return len(self.coords)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def mean_edge_length(self) -> float:
        return self._mean_edge

    def neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        """(neighbor, edge length) pairs in ascending neighbor id."""
        return self.adjacency[v]

    def edge_length(self, a: int, b: int) -> float:
        try:
            return self._length[(a, b)]
        except KeyError:
            raise KeyError(f"no edge between {a} and {b}") from None

    def euclidean(self, a: int, b: int) -> float:
        (xa, ya), (xb, yb) = self.coords[a], self.coords[b]
        return math.hypot(xa - xb, ya - yb)

    @property
    def average_degree(self) -> float:
        return 2.0 * self.edge_count / self.node_count

    def _single_source(self, src: int) -> dict[int, tuple[float, tuple[int, ...]]]:
        """Dijkstra from src, breaking equal-cost ties lexicographically.

        Heap entries carry the full node sequence so that among equal-cost
        paths the lexicographically smallest settles first; extending the
        smaller of two equal-cost prefixes keeps it smaller, so settle-once
        remains valid.
        """
        cached = self._sp_cache.get(src)
        if cached is not None:
            return cached
        settled: dict[int, tuple[float, tuple[int, ...]]] = {}
        heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (src,))]
        while heap:
            dist, path = heapq.heappop(heap)
            tail = path[-1]
            if tail in settled:
                continue
            settled[tail] = (dist, path)
            for v, d in self.adjacency[tail]:
                if v not in settled:
                    heapq.heappush(heap, (dist + d, path + (v,)))
        self._sp_cache[src] = settled
        return settled

    def shortest_path(self, a: int, b: int) -> tuple[list[int], float]:
        """Node sequence a..b and its length; ties -> lexicographically least."""
        if not (0 <= a < self.node_count and 0 <= b < self.node_count):
            raise KeyError(f"no such node pair ({a},{b})")
        dist, path = self._single_source(a)[b]
        return list(path), dist

    def distances(self, a: int) -> tuple[float, ...]:
        """Shortest-path distance from a to every node, by node id; built on first use."""
        row = self._rows[a]
        if row is None:
            settled = self._single_source(a)
            row = self._rows[a] = tuple(settled[v][0] for v in range(self.node_count))
        return row


# ---------------------------------------------------------------------------
# map file format
# ---------------------------------------------------------------------------
#   node <id> <x> <y>
#   edge <a> <b> [length]
# '#' starts a comment, blank lines ignored. Node ids must be dense 0..m-1.


def parse_map(text: str) -> PatrolGraph:
    """Parse map file content into a validated PatrolGraph."""
    nodes: dict[int, tuple[float, float]] = {}
    edges: list[tuple[int, int, float | None]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) != 4:
                raise MapFormatError(line_no, f"node needs 'node <id> <x> <y>', got {raw!r}")
            try:
                nid, x, y = int(parts[1]), float(parts[2]), float(parts[3])
            except ValueError as exc:
                raise MapFormatError(line_no, str(exc)) from None
            if nid in nodes:
                raise MapFormatError(line_no, f"duplicate node id {nid}")
            nodes[nid] = (x, y)
        elif kind == "edge":
            if len(parts) not in (3, 4):
                raise MapFormatError(line_no, f"edge needs 'edge <a> <b> [length]', got {raw!r}")
            try:
                a, b = int(parts[1]), int(parts[2])
                d = float(parts[3]) if len(parts) == 4 else None
            except ValueError as exc:
                raise MapFormatError(line_no, str(exc)) from None
            edges.append((a, b, d))
        else:
            raise MapFormatError(line_no, f"unknown record {kind!r}")
    if not nodes:
        raise MapFormatError(0, "map has no nodes")
    m = len(nodes)
    if sorted(nodes) != list(range(m)):
        raise MapFormatError(0, f"node ids must be dense 0..{m - 1}")
    coords = [nodes[i] for i in range(m)]
    resolved: list[tuple[int, int, float]] = []
    for a, b, d in edges:
        if not (0 <= a < m and 0 <= b < m):
            raise MapFormatError(0, f"edge ({a},{b}) references unknown node")
        if d is None:
            (xa, ya), (xb, yb) = coords[a], coords[b]
            d = math.hypot(xa - xb, ya - yb)
        resolved.append((a, b, d))
    try:
        return PatrolGraph(coords, resolved)
    except GraphValidationError as exc:
        raise MapFormatError(0, str(exc)) from None


def serialize_map(g: PatrolGraph, header: str | None = None) -> str:
    """Render a graph in the map file format; parse_map round-trips it.

    Edge lengths equal to the Euclidean distance are left implicit so the
    output stays canonical; overridden lengths are written explicitly.
    """
    lines: list[str] = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}".rstrip())
    for i, (x, y) in enumerate(g.coords):
        lines.append(f"node {i} {x!r} {y!r}")
    for a, b, d in g.edges:
        if d == g.euclidean(a, b):
            lines.append(f"edge {a} {b}")
        else:
            lines.append(f"edge {a} {b} {d!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# closed patrol route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Route:
    """Closed walk visiting every node; consecutive entries share an edge.

    nodes[0] follows nodes[-1], i.e. the walk wraps around. length is the
    total meters of one full lap.
    """

    nodes: tuple[int, ...]
    length: float

    def __len__(self) -> int:
        return len(self.nodes)


def _visit_order(g: PatrolGraph) -> list[int]:
    # nearest-neighbor seed over the shortest-path metric, then 2-opt
    m = g.node_count
    order = [0]
    remaining = set(range(1, m))
    while remaining:
        dists = g.distances(order[-1])
        best = min(remaining, key=lambda v: (dists[v], v))
        order.append(best)
        remaining.remove(best)

    d = [g.distances(v) for v in range(m)]
    improved = True
    while improved:
        improved = False
        for i in range(1, m - 1):
            for j in range(i + 1, m):
                a, b = order[i - 1], order[i]
                c, e = order[j], order[(j + 1) % m]
                delta = d[a][c] + d[b][e] - d[a][b] - d[c][e]
                if delta < -1e-12:
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
    return order


def build_cyclic_route(g: PatrolGraph) -> Route:
    """Build a short closed walk covering every node.

    The first-visit order comes from nearest-neighbor + 2-opt over the
    shortest-path metric; consecutive order entries are then expanded into
    their shortest paths so the walk only moves along edges. Deterministic
    for a given graph.
    """
    order = _visit_order(g)
    m = len(order)
    walk: list[int] = []
    total = 0.0
    for k in range(m):
        a, b = order[k], order[(k + 1) % m]
        path, dist = g.shortest_path(a, b)
        walk.extend(path[:-1])
        total += dist
    return Route(nodes=tuple(walk), length=total)


# ---------------------------------------------------------------------------
# seeded corridor-style map generator
# ---------------------------------------------------------------------------

_GRID_COLS = 8
_GRID_ROWS = 5
_GRID_SPACING = 8.0
_GRID_JITTER = 1.5
_EXTRA_CHORDS = 5  # 39 tree edges + 5 chords = 44 -> average degree 2.2


def generate_default_map(seed: int) -> PatrolGraph:
    """Generate the default 40-node patrol map for a given seed.

    Nodes sit on a jittered 8x5 grid (8 m spacing, +-1.5 m uniform jitter per
    coordinate); edges are a random spanning tree over grid-adjacent pairs
    plus 5 extra grid-adjacent chords, giving 44 edges and average degree
    exactly 2.2 with every length inside [5, 11.5] m. Deterministic per seed.
    numpy's generator draws the map, so numpy is imported here, not with
    the module.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    for _ in range(1000):
        g = _generate_once(rng)
        if g is not None:
            return g
    raise GraphValidationError(f"map generation failed for seed {seed}")


def _generate_once(rng) -> PatrolGraph | None:
    """One attempt at a map from the numpy Generator rng; None if it breaks a bound."""
    m = _GRID_COLS * _GRID_ROWS
    coords: list[tuple[float, float]] = []
    for r in range(_GRID_ROWS):
        for c in range(_GRID_COLS):
            x = c * _GRID_SPACING + rng.uniform(-_GRID_JITTER, _GRID_JITTER)
            y = r * _GRID_SPACING + rng.uniform(-_GRID_JITTER, _GRID_JITTER)
            coords.append((float(x), float(y)))

    candidates: list[tuple[int, int]] = []
    for r in range(_GRID_ROWS):
        for c in range(_GRID_COLS):
            v = r * _GRID_COLS + c
            if c + 1 < _GRID_COLS:
                candidates.append((v, v + 1))
            if r + 1 < _GRID_ROWS:
                candidates.append((v, v + _GRID_COLS))

    # randomized Kruskal for the tree, then the first unused chords
    perm = rng.permutation(len(candidates))
    parent = list(range(m))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen: list[tuple[int, int]] = []
    leftovers: list[tuple[int, int]] = []
    for idx in perm:
        a, b = candidates[int(idx)]
        ra, rb = find(a), find(b)
        if ra == rb:
            leftovers.append((a, b))
        else:
            parent[ra] = rb
            chosen.append((a, b))
    if len(chosen) != m - 1 or len(leftovers) < _EXTRA_CHORDS:
        return None
    chosen.extend(leftovers[:_EXTRA_CHORDS])

    edges = []
    for a, b in chosen:
        (xa, ya), (xb, yb) = coords[a], coords[b]
        edges.append((a, b, math.hypot(xa - xb, ya - yb)))
    try:
        g = PatrolGraph(coords, edges)
    except GraphValidationError:
        return None
    if not (2.1 <= g.average_degree <= 2.3):
        return None
    if any(not (3.0 <= d <= 15.0) for _, _, d in g.edges):
        return None
    return g
