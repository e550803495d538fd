"""Ten patrol policies, one class each, behind three hooks.

`harness._simulate` drives a policy without knowing which one it runs:
`tick`, called at the start of each tick that `next_tick` makes due, may
move goals (only DTAP's auction does, and only it reads robots' poses),
`visited` follows every arrival (only CBLS learns from it), and `decide`,
through `decide_next`, picks the next goal when a robot reaches its current
one. The base class `Policy` is Conscientious Reactive (CR). The other
reactive policies (RAND, HCR, HPCC, GBS) read only the graph and per-node
idleness, the time since each node's last visit; the coordinated ones also
keep run-wide state: announced travel intentions (SEBS, CBLS), a fixed
cyclic route (CGG) or a claim table (DTAG, DTAP). No policy ever reads a
robot's beliefs.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Optional, Sequence

from .comms import closing_ticks
from .graph import PatrolGraph, Route, build_cyclic_route
from .world import RngStream, RobotState, max_step

__all__ = [
    "StrategyKind",
    "Policy",
    "POLICIES",
    "check_settings",
    "decide_next",
    "nearest_peer_sq",
    "retarget",
    "travel_distances",
]


class StrategyKind(Enum):
    """The ten available patrol policies."""

    CBLS = "CBLS"
    CGG = "CGG"
    CR = "CR"
    DTAG = "DTAG"
    DTAP = "DTAP"
    GBS = "GBS"
    HCR = "HCR"
    HPCC = "HPCC"
    RAND = "RAND"
    SEBS = "SEBS"


def _argmax(scored: Iterable[tuple[int, float]]) -> int:
    """Node of the first highest score, or -1 when nothing is scored."""
    best_v = -1
    best = -math.inf
    for v, score in scored:
        if score > best:
            best = score
            best_v = v
    return best_v


class Policy:
    """Conscientious Reactive (CR): go to the most idle neighbor.

    Also the interface of every policy: a subclass overrides `decide` and, if
    it needs them, `visited`, `tick` and `next_tick`, and keeps its own state.
    cfg is the run's ExperimentConfig, or anything with the fields a policy
    reads: n_robots, the tunables of CBLS, DTAG and DTAP, and for DTAP's
    auction comm_range, speed and dt.
    """

    def __init__(self, g: PatrolGraph, cfg):
        self.g = g
        self.cfg = cfg

    def decide(
        self, robot_id: int, node: int, t: float, last_visit: Sequence[float], rng: RngStream
    ) -> int:
        """Next goal of robot `robot_id`, which has just reached its goal `node` at time t.

        Node v's idleness is t - last_visit[v]; a policy computes it only for
        the nodes it scores.
        """
        # neighbors come in ascending id, so ties go to the lowest node id
        return _argmax((v, t - last_visit[v]) for v, _ in self.g.neighbors(node))

    def visited(self, robot_id: int, node: int, idleness_before: float) -> None:
        """Robot `robot_id` arrived at `node`, which had been idle `idleness_before` s."""

    def next_tick(self) -> float:
        """Earliest tick on which `tick` is due, 0 for every tick; inf for none."""
        return math.inf

    def tick(
        self, k: int, t: float, robots: Sequence[RobotState], last_visit: Sequence[float]
    ) -> list[tuple[int, int]]:
        """(robot_id, node) goal changes at the start of tick `k` (time `t`).

        Called only on ticks `next_tick` makes due; it must sync a robot to
        tick k - 1 before reading its pose.
        """
        return []


class RAND(Policy):
    """A uniformly random neighbor."""

    def decide(self, robot_id, node, t, last_visit, rng):
        nbrs = self.g.neighbors(node)
        return nbrs[rng.index(len(nbrs))][0]


def _idle_and_near(candidates: Sequence[tuple[int, float, float]]) -> int:
    """Node of the best (node, idleness, distance): half relative idleness, half closeness."""
    max_idl = max(idl for _, idl, _ in candidates)
    max_d = max(d for _, _, d in candidates)
    return _argmax(
        (v, 0.5 * (idl / max_idl if max_idl > 0.0 else 1.0) + 0.5 * (1.0 - d / max_d))
        for v, idl, d in candidates
    )


class HCR(Policy):
    """Neighbors scored half on relative idleness, half on closeness."""

    def decide(self, robot_id, node, t, last_visit, rng):
        return _idle_and_near([(v, t - last_visit[v], d) for v, d in self.g.neighbors(node)])


class HPCC(Policy):
    """HCR's scoring widened to every node, over shortest-path distances."""

    def decide(self, robot_id, node, t, last_visit, rng):
        dist = self.g.distances(node)
        return _idle_and_near(
            [(v, t - last_visit[v], dist[v]) for v in range(self.g.node_count) if v != node]
        )


class CGG(Policy):
    """Walk one fixed cyclic route, robots entering it evenly spaced."""

    def __init__(self, g, cfg):
        super().__init__(g, cfg)
        self.route = build_cyclic_route(g)
        self.entry_index = _entry_indices(self.route, g, cfg.n_robots)
        # position on the route; None until the robot first reaches its entry
        self.route_idx: list[Optional[int]] = [None] * cfg.n_robots

    def decide(self, robot_id, node, t, last_visit, rng):
        nodes = self.route.nodes
        idx = self.route_idx[robot_id]
        if idx is None:
            idx = self.entry_index[robot_id]
            if node != nodes[idx]:
                return nodes[idx]
        idx = (idx + 1) % len(nodes)
        self.route_idx[robot_id] = idx
        return nodes[idx]


def _entry_indices(route: Route, g: PatrolGraph, n_robots: int) -> list[int]:
    """Evenly spaced route entry positions, floor(length / n) meters apart.

    Robot k enters at the first route index whose cumulative walk distance
    reaches k * floor(length / n); spacing stays below one lap, so the scan
    never wraps.
    """
    spacing = float(math.floor(route.length / n_robots))
    cum = [0.0]
    for idx in range(len(route.nodes) - 1):
        cum.append(cum[-1] + g.edge_length(route.nodes[idx], route.nodes[idx + 1]))
    last = len(cum) - 1
    indices: list[int] = []
    for k in range(n_robots):
        target = k * spacing
        idx = 0
        # clamp to the final index when the target falls inside the wrap hop
        while idx < last and cum[idx] < target:
            idx += 1
        indices.append(idx)
    return indices


class GBS(Policy):
    """Idleness discounted by 2^(-edge length / mean edge length)."""

    def _scores(self, node: int, idleness: Sequence[float]) -> list[tuple[int, float]]:
        """(neighbor, score) of each neighbor of node; idleness is by neighbor, in order."""
        mean_edge = self.g.mean_edge_length
        return [
            (v, idl * 2.0 ** (-d / mean_edge))
            for (v, d), idl in zip(self.g.neighbors(node), idleness)
        ]

    def _idleness(self, node: int, t: float, last_visit: Sequence[float]) -> list[float]:
        """Idleness at time t of each neighbor of node, in order."""
        return [t - last_visit[v] for v, _ in self.g.neighbors(node)]

    def decide(self, robot_id, node, t, last_visit, rng):
        return _argmax(self._scores(node, self._idleness(node, t, last_visit)))


class SEBS(GBS):
    """GBS halved once per other robot that announced the same goal."""

    def __init__(self, g, cfg):
        super().__init__(g, cfg)
        # each robot's announced goal; None before its first decision
        self.intentions: list[Optional[int]] = [None] * cfg.n_robots
        # how many robots announced each node
        self.announced = [0] * g.node_count

    def _intend(self, robot_id: int, goal: int) -> None:
        old = self.intentions[robot_id]
        if old is not None:
            self.announced[old] -= 1
        self.announced[goal] += 1
        self.intentions[robot_id] = goal

    def _announce(self, robot_id: int, scored: list[tuple[int, float]]) -> int:
        announced = self.announced
        mine = self.intentions[robot_id]
        goal = _argmax((v, score / 2.0 ** (announced[v] - (v == mine))) for v, score in scored)
        self._intend(robot_id, goal)
        return goal

    def decide(self, robot_id, node, t, last_visit, rng):
        return self._announce(robot_id, self._scores(node, self._idleness(node, t, last_visit)))


class CBLS(SEBS):
    """SEBS over a learned idleness floor, exploring with probability epsilon.

    Each robot keeps an exponential moving average of the idleness it found
    at each node (`learned`); a decision scores max(idleness, learned).
    """

    def __init__(self, g, cfg):
        super().__init__(g, cfg)
        self.learned = [[0.0] * g.node_count for _ in range(cfg.n_robots)]

    def visited(self, robot_id, node, idleness_before):
        learned = self.learned[robot_id]
        a = self.cfg.cbls_alpha
        learned[node] = (1.0 - a) * learned[node] + a * idleness_before

    def decide(self, robot_id, node, t, last_visit, rng):
        # the epsilon coin is the first draw of every decision
        if rng.random() < self.cfg.cbls_epsilon:
            nbrs = self.g.neighbors(node)
            choice = nbrs[rng.index(len(nbrs))][0]
            self._intend(robot_id, choice)
            return choice
        # the learned estimate is a floor, not a replacement: an overdue
        # neighbor must still win, and a flat learned 0 prior would trap the
        # robot inside its already-visited pocket
        learned = self.learned[robot_id]
        floored = [max(t - last_visit[v], learned[v]) for v, _ in self.g.neighbors(node)]
        return self._announce(robot_id, self._scores(node, floored))


class _ClaimPolicy(Policy):
    """A claim table: `claims` maps node -> robot, `claim[r]` is robot r's node."""

    def __init__(self, g, cfg):
        super().__init__(g, cfg)
        self.claims: dict[int, int] = {}
        self.claim: list[Optional[int]] = [None] * cfg.n_robots

    def _release(self, robot_id: int, node: int) -> bool:
        """Drop the robot's claim if it has just reached the claimed node; True if it did."""
        if self.claim[robot_id] != node:
            return False
        del self.claims[node]
        self.claim[robot_id] = None
        return True


class DTAG(_ClaimPolicy):
    """Claim the unclaimed node of best idleness minus weighted path distance."""

    def decide(self, robot_id, node, t, last_visit, rng):
        self._release(robot_id, node)
        claims = self.claims
        w = self.cfg.task_distance_weight
        dist = self.g.distances(node)
        best_v = _argmax(
            (v, t - last_visit[v] - w * dist[v])
            for v in range(self.g.node_count)
            if v != node and v not in claims
        )
        if best_v < 0:
            # every other node claimed; fall back to the most idle neighbor
            return super().decide(robot_id, node, t, last_visit, rng)
        claims[best_v] = robot_id
        self.claim[robot_id] = best_v
        return best_v


class DTAP(_ClaimPolicy):
    """Tasks are awarded by a periodic auction; between tasks, patrol as CR.

    A claimless robot values node v at idleness(v) minus the weighted
    travel distance to v. Robots within communication range of at least
    one other robot wait for a group round (every period): each proposes
    its best unclaimed node, collisions go to the lowest travel distance
    (ties to the lowest robot id), and losers re-propose against the
    shrunken pool. A claimless robot out of range of everyone is an
    auction of one, held on every tick: it proposes its best node and
    wins it. Isolated robots bid after the group round, in id order.

    The auction is held only on ticks where it could award something, and
    it and that schedule read one `connected` list, each robot's range
    test against its nearest peer. Only a claimless robot can win, and
    between group rounds only an isolated one; an auction that awards
    nothing changes nothing. So after each auction the hook is next due on
    the next tick if a claimless robot is isolated, and otherwise on the
    next group round or the first tick on which a claimless robot could
    have lost its last peer, whichever comes first. Robots move at most
    max_step in the plane a tick (the run's world.max_step, which the
    radio's schedule gets too), so a peer D meters away after tick k - 1
    is still in range after tick k - 1 + j for every j <=
    comms.closing_ticks(range - D), the radio's own bound. A decision that
    frees a claim makes the hook due on the next tick.
    """

    def __init__(self, g, cfg):
        super().__init__(g, cfg)
        self.comm_range = cfg.comm_range
        self.period_ticks = _period_ticks(cfg)
        self.max_step = max_step(g, cfg.speed, cfg.dt)
        self._due = 0  # next auction tick while a robot is claimless; 0 for the next tick

    def decide(self, robot_id, node, t, last_visit, rng):
        if self._release(robot_id, node):
            self._due = 0
        return super().decide(robot_id, node, t, last_visit, rng)

    def next_tick(self):
        # only a claimless robot can win a task, and only decide frees one
        return self._due if None in self.claim else math.inf

    def tick(self, k, t, robots, last_visit):
        for r in robots:
            r.sync(k - 1)
        nearest = nearest_peer_sq(robots)
        range_sq = self.comm_range * self.comm_range
        connected = [d2 is not None and d2 <= range_sq for d2 in nearest]
        awards = self._auction(
            robots, [t - lv for lv in last_visit], k % self.period_ticks == 0, connected
        )
        self._due = self._next_auction(k, nearest, connected)
        return awards

    def _auction(
        self,
        robots: Sequence[RobotState],
        idleness: Sequence[float],
        group_round: bool,
        connected: Sequence[bool],
    ) -> list[tuple[int, int]]:
        """Hold the group round, if this is one, then each isolated robot's round.

        Returns the (robot_id, node) awards, each also written to `claims`
        (node -> robot) and `claim` (robot -> node).
        """
        claims, claim = self.claims, self.claim
        unclaimed = [v for v in range(self.g.node_count) if v not in claims]
        if not unclaimed:
            return []
        bidders = [r for r in robots if claim[r.id] is None]
        rounds = [[r for r in bidders if connected[r.id]]] if group_round else []
        rounds += [[r] for r in bidders if not connected[r.id]]
        w = self.cfg.task_distance_weight
        # each bidding robot's travel distance to every node
        travel = {r.id: travel_distances(r, self.g) for group in rounds for r in group}
        awards: list[tuple[int, int]] = []
        for group in rounds:
            while group and unclaimed:
                proposals: dict[int, list[RobotState]] = {}
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
        return awards

    def _next_auction(
        self, k: int, nearest: Sequence[Optional[float]], connected: Sequence[bool]
    ) -> int:
        """Earliest tick after k whose auction could award something, from the poses of k - 1."""
        due = (k // self.period_ticks + 1) * self.period_ticks
        for i, d2 in enumerate(nearest):
            if self.claim[i] is None:
                if not connected[i]:
                    return k + 1
                keep = closing_ticks(self.comm_range - math.sqrt(d2), self.max_step, due - k - 1)
                due = k + max(keep, 0) + 1
        return due


POLICIES: dict[StrategyKind, type[Policy]] = {
    StrategyKind.CBLS: CBLS,
    StrategyKind.CGG: CGG,
    StrategyKind.CR: Policy,
    StrategyKind.DTAG: DTAG,
    StrategyKind.DTAP: DTAP,
    StrategyKind.GBS: GBS,
    StrategyKind.HCR: HCR,
    StrategyKind.HPCC: HPCC,
    StrategyKind.RAND: RAND,
    StrategyKind.SEBS: SEBS,
}


def _period_ticks(cfg) -> int:
    """DTAP's auction period in whole ticks; ValueError if it is infinite or rounds to 0."""
    ticks = cfg.dtap_period_s / cfg.dt
    if math.isinf(ticks):
        raise ValueError(f"dtap_period {cfg.dtap_period_s} is too many ticks of dt {cfg.dt}")
    if round(ticks) == 0:
        raise ValueError(
            f"dtap_period {cfg.dtap_period_s} is under half a tick of "
            f"dt {cfg.dt}, so DTAP would never hold an auction"
        )
    return round(ticks)


def check_settings(cfg) -> None:
    """Raise ValueError unless cfg's policy tunables are in range for its strategies.

    cfg is an ExperimentConfig whose other fields are already checked.
    """
    if not (0.0 < cfg.cbls_alpha <= 1.0):
        raise ValueError(f"cbls_alpha must be in (0, 1], got {cfg.cbls_alpha}")
    if not (0.0 <= cfg.cbls_epsilon <= 1.0):
        raise ValueError(f"cbls_epsilon must be in [0, 1], got {cfg.cbls_epsilon}")
    if not (0.0 < cfg.dtap_period_s < math.inf):
        raise ValueError(f"dtap_period_s must be positive and finite, got {cfg.dtap_period_s}")
    # an infinite weight makes every task worth -inf, so DTAG would fall
    # back to CR on every decision
    if not (0.0 < cfg.task_distance_weight < math.inf):
        raise ValueError(
            f"task_distance_weight must be positive and finite, got {cfg.task_distance_weight}"
        )
    if StrategyKind.DTAP in cfg.strategies:
        _period_ticks(cfg)


def decide_next(
    policy: Policy,
    robot_id: int,
    node: int,
    t: float,
    last_visit: Sequence[float],
    rng: RngStream,
) -> int:
    """Pick the next goal at time t; always a valid node different from the current one."""
    goal = policy.decide(robot_id, node, t, last_visit, rng)
    if not (0 <= goal < policy.g.node_count) or goal == node:
        raise AssertionError(
            f"{type(policy).__name__} chose invalid goal {goal} from node {node}"
        )
    return goal


# ---------------------------------------------------------------------------
# pose-aware travel and the nearest peer
# ---------------------------------------------------------------------------


def travel_distances(robot: RobotState, g: PatrolGraph) -> Sequence[float]:
    """Shortest travel distance from the robot's last synced pose to every node, by node id."""
    if robot.edge is None:
        return g.distances(robot.node)
    a, b = robot.edge
    back = robot.offset
    ahead = robot._edge_len - back
    return [min(back + da, ahead + db) for da, db in zip(g.distances(a), g.distances(b))]


def retarget(robot: RobotState, g: PatrolGraph, goal: int, k: int) -> None:
    """Redirect a robot to a new goal at the start of tick k, from where tick k - 1 left it.

    Mid-edge the robot continues to the nearer completion of its travel
    (reversing only when strictly shorter, which moves its due tick); the
    leftover path is replanned from the end node it will reach.
    """
    robot.goal = goal
    if robot.edge is None:
        robot.path = g.shortest_path(robot.node, goal)[0][1:]
        return
    robot.sync(k - 1)
    a, b = robot.edge
    via_b = (robot._edge_len - robot.offset) + g.distances(b)[goal]
    via_a = robot.offset + g.distances(a)[goal]
    if via_a < via_b:
        robot.reverse_edge(g, k)
        robot.path = [a] + g.shortest_path(a, goal)[0][1:]
    else:
        robot.path = [b] + g.shortest_path(b, goal)[0][1:]


def nearest_peer_sq(robots: Sequence[RobotState]) -> list[Optional[float]]:
    """Each robot's squared plane distance to its nearest other robot, by id; None if alone."""
    nearest: list[Optional[float]] = [None] * len(robots)
    for i in range(len(robots)):
        xi, yi = robots[i].x, robots[i].y
        for j in range(i + 1, len(robots)):
            dx = xi - robots[j].x
            dy = yi - robots[j].y
            d2 = dx * dx + dy * dy
            if nearest[i] is None or d2 < nearest[i]:
                nearest[i] = d2
            if nearest[j] is None or d2 < nearest[j]:
                nearest[j] = d2
    return nearest
