"""World state and robot kinematics on the patrol graph.

Holds the planted ground truth, per-robot pose and belief state, noisy node
sensing, per-node idleness bookkeeping, and the deterministic RNG streams
that make every run reproducible from a single integer seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .beliefs import Belief, measurement_update, new_belief_vector
from .graph import PatrolGraph

__all__ = [
    "RngStream",
    "WorldState",
    "RobotState",
    "IdlenessTracker",
    "sense",
    "advance",
    "max_step",
    "visit",
]

_ARRIVAL_SLACK = 1e-9  # meters; absorbs float drift in accumulated offsets


def _derive_seed(master_seed: int, purpose: str, robot_id: int) -> int:
    label = f"{master_seed}|{purpose}|{robot_id}".encode()
    return int.from_bytes(hashlib.blake2b(label, digest_size=8).digest(), "big")


class RngStream:
    """Named random stream derived from (master seed, purpose, robot id).

    Identical labels always reproduce identical draw sequences; distinct
    labels are decorrelated by hashing, so adding draws to one stream never
    shifts another.
    """

    __slots__ = ("master_seed", "purpose", "robot_id", "_gen")

    def __init__(self, master_seed: int, purpose: str, robot_id: int = 0):
        self.master_seed = master_seed
        self.purpose = purpose
        self.robot_id = robot_id
        self._gen = np.random.default_rng(_derive_seed(master_seed, purpose, robot_id))

    def random(self) -> float:
        """Uniform draw in [0, 1)."""
        return float(self._gen.random())

    def index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self._gen.integers(n))


@dataclass
class WorldState:
    """Ground truth over the nodes."""

    truth: list[bool]
    anomaly_node: int

    @classmethod
    def single_anomaly(cls, m: int, anomaly_node: int) -> "WorldState":
        if not (0 <= anomaly_node < m):
            raise ValueError(f"anomaly node {anomaly_node} outside 0..{m - 1}")
        truth = [v == anomaly_node for v in range(m)]
        return cls(truth=truth, anomaly_node=anomaly_node)


@dataclass(slots=True)
class RobotState:
    """Pose, goal, path and belief vector of one robot.

    Exactly one of (node, edge) is set: a robot is either at a node or part
    way along a directed edge (edge=(a, b), offset meters from a). The cached
    fields (_sx, _sy, _ux, _uy, _edge_len) describe the current edge segment
    and are refreshed whenever the robot enters an edge.
    """

    id: int
    node: Optional[int]
    x: float
    y: float
    goal: int
    speed: float
    beliefs: list[Belief]
    edge: Optional[tuple[int, int]] = None
    offset: float = 0.0
    path: list[int] = field(default_factory=list)
    _sx: float = 0.0
    _sy: float = 0.0
    _ux: float = 0.0
    _uy: float = 0.0
    _edge_len: float = 0.0

    @classmethod
    def at_node(cls, robot_id: int, g: PatrolGraph, node: int, speed: float) -> "RobotState":
        x, y = g.coords[node]
        return cls(
            id=robot_id,
            node=node,
            x=x,
            y=y,
            goal=node,
            speed=speed,
            beliefs=new_belief_vector(g.node_count),
        )

    def enter_edge(self, g: PatrolGraph, nxt: int) -> None:
        """Leave the current node onto the edge towards nxt."""
        a = self.node
        assert a is not None and a != nxt
        length = g.edge_length(a, nxt)
        (xa, ya), (xb, yb) = g.coords[a], g.coords[nxt]
        self.edge = (a, nxt)
        self.offset = 0.0
        self.node = None
        self._sx, self._sy = xa, ya
        self._ux, self._uy = (xb - xa) / length, (yb - ya) / length
        self._edge_len = length

    def reverse_edge(self, g: PatrolGraph) -> None:
        """Turn around mid-edge; offset is re-measured from the other end."""
        a, b = self.edge
        length = self._edge_len
        (xb, yb) = g.coords[b]
        self.edge = (b, a)
        self.offset = length - self.offset
        self._sx, self._sy = xb, yb
        self._ux, self._uy = -self._ux, -self._uy


class IdlenessTracker:
    """Per-node time since last visit, plus a running instantaneous average.

    last_visit is warm-started to 0.0 for every node, so idleness at time t
    is t until the first visit. sample() accumulates the instantaneous graph
    idleness (mean over nodes) for the end-of-run average.
    """

    __slots__ = ("last_visit", "sample_sum", "sample_count")

    def __init__(self, m: int):
        self.last_visit = [0.0] * m
        self.sample_sum = 0.0
        self.sample_count = 0

    def idleness(self, node: int, clock: float) -> float:
        return clock - self.last_visit[node]

    def record_visit(self, node: int, clock: float) -> None:
        self.last_visit[node] = clock

    def sample(self, clock: float) -> None:
        lv = self.last_visit
        self.sample_sum += (clock * len(lv) - sum(lv)) / len(lv)
        self.sample_count += 1

    def average(self) -> float:
        """Mean sampled idleness; 0.0 when nothing was sampled."""
        if self.sample_count == 0:
            return 0.0
        return self.sample_sum / self.sample_count


def sense(world: WorldState, node: int, noise_p: float, rng: RngStream) -> bool:
    """Read the node's truth through a symmetric noisy channel.

    Returns truth with probability 1 - noise_p, else its negation; consumes
    exactly one draw per call.
    """
    value = world.truth[node]
    if rng.random() < noise_p:
        return not value
    return value


def advance(robot: RobotState, g: PatrolGraph, dt: float) -> Optional[int]:
    """Move the robot for one tick; return the node reached, if any.

    At most one arrival happens per tick: overshoot past the target node is
    clipped and the leftover travel discarded. A robot already at its goal
    reports an identity arrival without moving.
    """
    if robot.edge is None:
        if robot.node == robot.goal:
            return robot.node
        robot.enter_edge(g, robot.path[0])
    robot.offset += robot.speed * dt
    if robot.offset >= robot._edge_len - _ARRIVAL_SLACK:
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


def max_step(g: PatrolGraph, speed: float, dt: float) -> float:
    """Farthest advance moves a robot in the plane in one tick on map g.

    A tick adds speed * dt to the robot's offset along its edge, and the
    snap onto the node it reaches adds at most the arrival slack. A meter of
    offset covers euclidean / length meters of the plane, which exceeds 1 on
    an edge whose map length is shorter than the straight line between its
    ends, so the step is scaled by the largest such ratio over the edges, and
    never by less than 1. Turning round in place (reverse_edge) moves a
    robot not at all.
    """
    stretch = max(1.0, max(g.euclidean(a, b) / d for a, b, d in g.edges))
    return (speed * dt + _ARRIVAL_SLACK) * stretch


def visit(
    robot: RobotState,
    tracker: IdlenessTracker,
    world: WorldState,
    node: int,
    t: float,
    noise_p: float,
    rng: RngStream,
) -> Belief:
    """Handle an arrival at node at time t: sense, update belief, reset idleness.

    Returns the robot's belief about the node after the update.
    """
    observation = sense(world, node, noise_p, rng)
    updated = measurement_update(robot.beliefs[node], observation)
    robot.beliefs[node] = updated
    tracker.record_visit(node, t)
    return updated
