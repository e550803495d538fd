"""Independent brute-force oracles; nothing here imports the package."""

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np


def charpoly_coeffs(matrix: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier recursion."""
    n = matrix.shape[0]
    coeffs = [1.0]
    aux = np.zeros_like(matrix, dtype=float)
    for k in range(1, n + 1):
        aux = matrix @ aux + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(matrix @ aux) / k)
    return np.array(coeffs)


def eigenvalues_by_charpoly(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues as roots of the characteristic polynomial."""
    roots = np.roots(charpoly_coeffs(np.asarray(matrix, dtype=float)))
    return np.sort(roots.real)


def has_edge(g, a, b):
    """Whether a and b are adjacent, read from a's neighbor list."""
    return any(v == b for v, _ in g.neighbors(a))


def route_is_valid(g, route):
    """Closed, adjacency-respecting, and covering every node."""
    nodes = route.nodes
    if set(nodes) != set(range(g.node_count)):
        return False
    return all(has_edge(g, a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1]))


def shortest_distance(g, a, b):
    """Shortest-path distance from a to b, by Bellman-Ford relaxation over g.edges.

    Every candidate is a settled distance plus one edge length, as in
    Dijkstra, and float addition is monotone, so both settle on the same
    float bit for bit.
    """
    dist = [math.inf] * g.node_count
    dist[a] = 0.0
    changed = True
    while changed:
        changed = False
        for u, v, d in g.edges:
            for x, y in ((u, v), (v, u)):
                if dist[x] + d < dist[y]:
                    dist[y] = dist[x] + d
                    changed = True
    return dist[b]


def travel_distance(robot, g, v):
    """Shortest travel from the robot's last synced pose to node v: to either end of its edge, then on."""
    if robot.edge is None:
        return shortest_distance(g, robot.node, v)
    a, b = robot.edge
    via_b = (robot._edge_len - robot.offset) + shortest_distance(g, b, v)
    via_a = robot.offset + shortest_distance(g, a, v)
    return min(via_a, via_b)


def advance(robot, g, stride):
    """Move the robot one tick of `stride` meters; return the node reached, if any.

    The per-tick stepper: it moves the robot on every tick, writing its
    fields (edge, offset, pose, and the edge's start and unit vector) by hand
    without calling any of its methods. At most one arrival happens per
    tick: overshoot past the target node is clipped and the leftover travel
    discarded. A robot already at its goal reports an identity arrival
    without moving.
    """
    if robot.edge is None:
        if robot.node == robot.goal:
            return robot.node
        a, b = robot.node, robot.path[0]
        length = g.edge_length(a, b)
        (xa, ya), (xb, yb) = g.coords[a], g.coords[b]
        robot.edge = (a, b)
        robot.node = None
        robot.offset = 0.0
        robot._sx, robot._sy = xa, ya
        robot._ux, robot._uy = (xb - xa) / length, (yb - ya) / length
        robot._edge_len = length
    robot.offset += stride
    if robot.offset >= robot._edge_len - 1e-9:
        dest = robot.edge[1]
        robot.node = dest
        robot.edge = None
        robot.offset = 0.0
        robot.x, robot.y = g.coords[dest]
        if robot.path and robot.path[0] == dest:
            robot.path.pop(0)
        return dest
    robot.x = robot._sx + robot._ux * robot.offset
    robot.y = robot._sy + robot._uy * robot.offset
    return None


def edge_plan(g, a, b, stride, plan_ticks):
    """How a robot entering the edge a -> b at offset 0.0 plans it on its own.

    Returns its start, its unit vector, the edge's length, its crossing and
    its own offset table. The table is the running sum 0.0, 0.0 + stride,
    ... over as many ticks as reach the edge's length less 1e-9 m, plus
    one, or plan_ticks if that is fewer or the stride covers nothing; the
    crossing is the first tick of the table past 0 to reach that mark, or
    the table's last.
    """
    length = g.edge_length(a, b)
    (xa, ya), (xb, yb) = g.coords[a], g.coords[b]
    arrive_at = length - 1e-9
    if arrive_at <= 0.0:
        ticks = 1
    elif arrive_at < stride * (plan_ticks - 1):
        ticks = math.ceil(arrive_at / stride) + 1
    else:
        ticks = plan_ticks
    offs = [0.0]
    for _ in range(ticks):
        offs.append(offs[-1] + stride)
    crossing = next((i for i in range(1, ticks) if offs[i] >= arrive_at), ticks)
    return (xa, ya), ((xb - xa) / length, (yb - ya) / length), length, crossing, offs


def reverse(robot, g):
    """Turn a robot round mid-edge for advance; its offset is re-measured from the other end."""
    a, b = robot.edge
    robot.edge = (b, a)
    robot.offset = robot._edge_len - robot.offset
    robot._sx, robot._sy = g.coords[b]
    robot._ux, robot._uy = -robot._ux, -robot._uy


def per_tick_robot_class(robot_class):
    """A subclass of robot_class whose robots advance on every tick.

    Such a robot is due on every tick; its step is advance, its pose is
    always current (sync does nothing), and it turns round by reverse. A
    run or policy that drives it moves it exactly as the per-tick loop did.
    """

    class PerTickRobot(robot_class):
        __slots__ = ()

        def step(self, g, k):
            self.due = k + 1
            return advance(self, g, self.stride)

        def sync(self, k):
            pass

        def reverse_edge(self, g, k):
            reverse(self, g)

    return PerTickRobot


def per_tick_dtap_class(dtap_class, auction):
    """A subclass of dtap_class that holds auction on every tick while a robot is claimless.

    This is DTAP's hook without a schedule: poses synced to the previous
    tick, a group round whenever k is a multiple of the period, and each
    robot's nearest-peer distance found by scanning every other robot.
    `auction` has dtap_auction's signature, less its travel_row.
    """

    class PerTickDTAP(dtap_class):
        def next_tick(self):
            return 0 if None in self.claim else math.inf

        def tick(self, k, t, robots, last_visit):
            for r in robots:
                r.sync(k - 1)
            return auction(
                robots,
                self.g,
                [t - lv for lv in last_visit],
                self.claims,
                self.claim,
                self.comm_range,
                self.cfg,
                k % self.period_ticks == 0,
                nearest_sq(robots),
            )

    return PerTickDTAP


def nearest_sq(robots):
    """Each robot's least squared plane distance to any other robot; None if alone."""
    out = []
    for r in robots:
        d2 = []
        for o in robots:
            if o is not r:
                dx, dy = r.x - o.x, r.y - o.y
                d2.append(dx * dx + dy * dy)
        out.append(min(d2, default=None))
    return out


def dtap_auction(
    robots, g, idleness, claims, claim, comm_range, params, group_round, nearest, travel_row
):
    """One task-award pass with a loop for the group round and another for isolated robots.

    Claimless robots value node v at idleness(v) minus weighted travel
    distance, travel_row(robot, g)[v]. Robots out of communication range of
    everyone self-award their best node as soon as they are claimless;
    robots within range of at least one other robot wait for a group round
    (the periodic auction): each proposes its best unclaimed node,
    collisions go to the lowest travel distance (ties to the lowest robot
    id), and losers re-propose against the shrunken pool. Robots holding an
    award sit out. Each award is written to `claims` (node -> robot) and
    `claim` (robot -> node); returns the (robot_id, node) awards.
    `nearest` holds each robot's squared distance to its nearest peer.
    """
    bidders = [r for r in robots if claim[r.id] is None]
    if not bidders:
        return []
    unclaimed = [v for v in range(g.node_count) if v not in claims]
    if not unclaimed:
        return []
    w = params.task_distance_weight
    range_sq = comm_range * comm_range
    connected = [d2 is not None and d2 <= range_sq for d2 in nearest]
    # each bidding robot's travel distance to every node
    travel = {r.id: travel_row(r, g) for r in bidders if group_round or not connected[r.id]}
    awards = []

    if group_round:
        group = [r for r in bidders if connected[r.id]]
        while group and unclaimed:
            proposals = {}
            for r in group:
                pool = [v for v in unclaimed if v != r.node]
                if not pool:
                    continue
                row = travel[r.id]
                best_v = max(pool, key=lambda v: (idleness[v] - w * row[v], -v))
                proposals.setdefault(best_v, []).append(r)
            if not proposals:
                break
            group = []
            for v, rs in sorted(proposals.items()):
                winner = min(rs, key=lambda r: (travel[r.id][v], r.id))
                claims[v] = winner.id
                claim[winner.id] = v
                awards.append((winner.id, v))
                unclaimed.remove(v)
                group.extend(r for r in rs if r is not winner)

    for r in bidders:
        if connected[r.id] or not unclaimed:
            continue
        pool = [v for v in unclaimed if v != r.node]
        if not pool:
            continue
        row = travel[r.id]
        best_v = max(pool, key=lambda v: (idleness[v] - w * row[v], -v))
        claims[best_v] = r.id
        claim[r.id] = best_v
        awards.append((r.id, best_v))
        unclaimed.remove(best_v)
    return awards


def eligible_pairs(positions, last_exchange, t, range_m, timeout_s):
    """Every pair allowed to exchange at time t, in ascending (i, j) order.

    Tests all n(n-1)/2 pairs: a pair qualifies when its straight-line
    separation is within range_m and at least timeout_s has elapsed since
    its previous exchange, last_exchange[(i, j)] (a gap of exactly the
    cooldown is eligible, with 1e-9 s of slack for tick-grid float error).
    """
    range_sq = range_m * range_m
    horizon = t - timeout_s + 1e-9
    out = []
    n = len(positions)
    for i in range(n):
        xi, yi = positions[i]
        for j in range(i + 1, n):
            if last_exchange[(i, j)] > horizon:
                continue
            xj, yj = positions[j]
            dx = xi - xj
            dy = yi - yj
            if dx * dx + dy * dy <= range_sq:
                out.append((i, j))
    return out


def contact_weights(n_robots, events):
    """Symmetric (n, n) weights counting the exchanges of each pair in a (t, i, j) log."""
    counts = Counter((i, j) if i < j else (j, i) for _, i, j in events)
    w = np.zeros((n_robots, n_robots))
    for (i, j), count in counts.items():
        w[i, j] = w[j, i] = count
    return w


def social_edges_from_logs(runs_dir):
    """(strategy, noise, i, j, count) rows counted from the comm lines of every
    <strategy>_<noise>_r<rep>.log in runs_dir, pooled over reps, in sorted order."""
    counts = Counter()
    for log_path in sorted(runs_dir.glob("*.log")):
        strategy, noise_token, _rep = log_path.stem.rsplit("_", 2)
        noise = noise_token.replace("m", "-").replace("p", ".", 1)
        for line in log_path.read_text().splitlines():
            parts = line.split()
            if parts[1] == "comm":
                i = int(parts[2].removeprefix("robot="))
                j = int(parts[3].removeprefix("peer="))
                counts[strategy, noise, i, j] += 1
    return [(*key, count) for key, count in sorted(counts.items())]


def fuse_lists(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """Node-by-node fusion of two equal-length half-unit lists: clamp(a + b - 1, 0, 2)."""
    if len(u) != len(v):
        raise ValueError(f"belief vector length mismatch: {len(u)} != {len(v)}")
    return [min(max(a + b - 1, 0), 2) for a, b in zip(u, v)]


def pack(values: Sequence[int]) -> tuple[int, int]:
    """The packed (T, F) vector of a half-unit list, node 0 first: bit v of T
    for each 2, bit v of F for each 0."""
    t = sum(1 << node for node, b in enumerate(values) if b == 2)
    return t, sum(1 << node for node, b in enumerate(values) if b == 0)


def pack_truth(truth: Sequence[bool]) -> tuple[int, int]:
    """The packed vector of a boolean ground truth, certain at every node."""
    return pack([2 if v else 0 for v in truth])


def unpack(vector, m: int) -> list[int]:
    """The half-unit list of a packed (T, F) vector over m nodes, read bit by bit."""
    t, f = vector
    return [2 if t >> v & 1 else 0 if f >> v & 1 else 1 for v in range(m)]


def list_digest(values: Sequence[int]) -> str:
    """One char per node: '0' certain-false, 'u' uncertain, '1' certain-true."""
    return "".join("0u1"[b] for b in values)


def line_rendered_cell_class(harness):
    """A subclass of harness._CellBeliefs whose feed renders each log line whole.

    Each line is one f-string over its event, with the belief and the
    end-of-tick digest read from the vectors by unpack; nothing is kept
    between lines, batches or cells.
    """

    class LineRenderedCell(harness._CellBeliefs):
        def feed(self, events, pairs):
            consensus, lines, m = self.consensus, self.lines, self._m
            for kind, t, a, b in events:
                if kind == harness._VISIT:
                    reading = harness.sense(self.truth, b, self.noise, self.rngs[a])
                    held = unpack(consensus.sensed(t, a, b, reading), m)[b]
                    if lines is not None:
                        belief = ("0", "0.5", "1")[held]
                        lines.append(f"{t:.3f} visit robot={a} node={b} belief={belief}")
                elif kind == harness._COMM:
                    consensus.exchanged(t, [pairs[p] for p in a])
                    if lines is not None:
                        for p in a:
                            i, j = pairs[p]
                            d = list_digest(unpack(consensus.vectors[i], m))
                            lines.append(f"{t:.3f} comm robot={i} peer={j} beliefs={d}")
                elif lines is not None:
                    lines.append(f"{t:.3f} goal robot={a} node={b}")

    return LineRenderedCell


def brute_system_error(vectors: Sequence[Sequence[int]], truth: Sequence[bool]) -> Fraction:
    """Mean |belief - truth| on the unit scale, summed entry by entry."""
    total = Fraction(0)
    for row in vectors:
        for b, is_true in zip(row, truth):
            total += abs(Fraction(int(b), 2) - (1 if is_true else 0))
    return total / (len(vectors) * len(truth))


def brute_confusion(vectors: Sequence[Sequence[int]], truth: Sequence[bool]):
    tp = tn = fp = fn = u = 0
    for row in vectors:
        for b, is_true in zip(row, truth):
            if b == 1:
                u += 1
            elif b == 2 and is_true:
                tp += 1
            elif b == 2:
                fp += 1
            elif is_true:
                fn += 1
            else:
                tn += 1
    return tp, tn, fp, fn, u


def brute_f_score(vectors: Sequence[Sequence[int]], truth: Sequence[bool]) -> Fraction:
    """2(tp+tn) / (2(tp+tn) + fp + fn + u/2), written out longhand."""
    tp, tn, fp, fn, u = brute_confusion(vectors, truth)
    if tp + tn == 0:
        return Fraction(0)
    return Fraction(2 * (tp + tn)) / (2 * (tp + tn) + fp + fn + Fraction(u, 2))


def brute_consensus_replay(m: int, n_robots: int, truth: Sequence[bool], events, required: int):
    """Replay belief events from all-uncertain; return (t_full, tp, fp_nodes, misinformed).

    events, in execution order, are ("visit", t, robot, node, belief) for a
    robot's new belief about one node, ("sense", t, robot, node, reading) for
    a boolean reading fused into it, and ("comm", t, i, j) for an exchange,
    with beliefs in half-units. Fusion is clamp(a + b - 1, 0, 2), and a
    reading fuses as a certain belief. After every event the whole state is
    checked again: how many robots hold exactly the truth, and whether any
    certain belief contradicts it.
    """
    want = [2 if v else 0 for v in truth]
    vectors = [[1] * m for _ in range(n_robots)]
    t_full = None
    misinformed = False
    for kind, t, a, b, *rest in events:
        if kind == "visit":
            vectors[a][b] = rest[0]
        elif kind == "sense":
            vectors[a][b] = min(max(vectors[a][b] + (2 if rest[0] else 0) - 1, 0), 2)
        else:
            fused = [min(max(x + y - 1, 0), 2) for x, y in zip(vectors[a], vectors[b])]
            vectors[a] = fused
            vectors[b] = list(fused)
        if any(x != 1 and x != w for row in vectors for x, w in zip(row, want)):
            misinformed = True
        if t_full is None and sum(row == want for row in vectors) >= required:
            t_full = t
    holders = [sum(row[v] == 2 for row in vectors) for v in range(m)]
    tp = any(truth) and all(holders[v] >= required for v in range(m) if truth[v])
    fp_nodes = tuple(v for v in range(m) if holders[v] >= required and not truth[v])
    return t_full, tp, fp_nodes, misinformed


# ---------------------------------------------------------------------------
# the two-step belief layer: the fleet's vectors fused by fuse_pairs, and a
# consensus tracker fed the (i, j, fused) triples of the exchanges that
# changed a vector. The package's ConsensusTracker does both in one loop.
# ---------------------------------------------------------------------------


def fuse_packed(u, v):
    """Fuse two packed (T, F) vectors node by node, as clamp(a + b - 1, 0, 2)."""
    return (u[0] & ~v[1]) | (v[0] & ~u[1]), (u[1] & ~v[0]) | (v[1] & ~u[0])


def fuse_pairs(vectors, pairs):
    """Let each robot pair (i, j) exchange, in order; returns the (i, j, fused) that changed.

    Both robots take the fusion, and later pairs see it. Robots that already
    hold equal vectors keep them, and their exchange has no triple.
    """
    changed = []
    for i, j in pairs:
        u, v = vectors[i], vectors[j]
        if u != v:
            fused = vectors[i] = vectors[j] = fuse_packed(u, v)
            changed.append((i, j, fused))
    return changed


def fuse_every_pair(tracker, t, pairs):
    """The package tracker's `exchanged` with no equality check: every pair fuses.

    Both robots of each pair take the fusion, and both exact flags are set
    again, so an exchange between robots that already agree is fused too.
    """
    vectors, truth = tracker.vectors, tracker._truth
    for i, j in pairs:
        fused = vectors[i] = vectors[j] = fuse_packed(vectors[i], vectors[j])
        tracker._set_exact(t, i, fused == truth)
        tracker._set_exact(t, j, fused == truth)


class TwoStepConsensus:
    """The fleet's vectors in a list, and a tracker replaying what changed them.

    `sensed` folds a reading into a robot's vector and hands the tracker the
    new vector; `exchanged` fuses a tick's pairs with fuse_pairs and hands
    the tracker the triples. The tracker keeps one exact flag per robot and
    the number of exact robots, and is told only of vectors that changed.
    """

    def __init__(self, truth, n_robots, quorum):
        self.required = max(1, math.ceil(round(quorum * n_robots, 9)))
        self.t_full = None
        self.misinformed = False
        self.vectors = [(0, 0)] * n_robots
        self.truth = truth
        self.m = (truth[0] | truth[1]).bit_length()
        self.is_exact = [False] * n_robots

    def _set_exact(self, t, robot, exact):
        if exact == self.is_exact[robot]:
            return
        self.is_exact[robot] = exact
        if exact and self.t_full is None and sum(self.is_exact) >= self.required:
            self.t_full = t

    def sensed(self, t, robot, node, reading):
        bit = 1 << node
        held = self.vectors[robot] = fuse_packed(
            self.vectors[robot], (bit, 0) if reading else (0, bit)
        )
        wrong = held[0] & self.truth[1] | held[1] & self.truth[0]
        if wrong >> node & 1:
            self.misinformed = True
        self._set_exact(t, robot, held == self.truth)
        return held

    def exchanged(self, t, pairs):
        for i, j, fused in fuse_pairs(self.vectors, pairs):
            self._set_exact(t, i, fused == self.truth)
            self._set_exact(t, j, fused == self.truth)

    def report(self):
        """(t_full, tp, fp_nodes) on the vectors held now."""
        holders = [sum(t >> v & 1 for t, _ in self.vectors) for v in range(self.m)]
        anomalies = [v for v in range(self.m) if self.truth[0] >> v & 1]
        tp = bool(anomalies) and all(holders[v] >= self.required for v in anomalies)
        fp = tuple(
            v for v in range(self.m)
            if holders[v] >= self.required and not self.truth[0] >> v & 1
        )
        return self.t_full, tp, fp
