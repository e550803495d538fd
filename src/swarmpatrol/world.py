"""World state and robot kinematics on the patrol graph.

Holds per-robot pose state and moves robots along edges; covers per-node
idleness bookkeeping and the deterministic RNG streams that make every run
reproducible from a single integer seed. Beliefs, the ground truth and
sensing live in `beliefs`.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Iterator, Optional

from .graph import PatrolGraph

__all__ = [
    "MotionTables",
    "RngStream",
    "RobotState",
    "IdlenessTracker",
    "label_seed",
    "max_step",
    "sample_ticks",
]

_ARRIVAL_SLACK = 1e-9  # meters; absorbs float drift in accumulated offsets

# Most ticks one offset table covers, the run's shared table included; a
# longer crossing is planned on from the last of them, so a tiny stride on a
# long edge never builds a huge table.
_PLAN_TICKS = 4096


def label_seed(label: str) -> int:
    """A 64-bit seed hashed from a label; distinct labels give unrelated seeds."""
    return int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "big")


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_keys(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pairs of count successive SeedSequence hashes.

    Each hash XORs its value with the running constant, steps the constant
    (times mult, mod 2**32) and multiplies by the new one; the constants
    depend on no data, so they are listed once.
    """
    keys, const = [], init
    for _ in range(count):
        step = const * mult & _M32
        keys.append((const, step))
        const = step
    return keys


# numpy's SeedSequence: 4 + 12 hashes fill and mix the pool, 8 draw it out
_POOL_KEYS = _hash_keys(0x43B0D7E5, 0x931E8875, 16)
_DRAW_KEYS = _hash_keys(0x8B51F9DD, 0x58F38DED, 8)


def _seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(8, uint32), for 0 <= seed < 2**128.

    The seed is split into the fewest little-endian 32-bit words (one for 0)
    and hashed into a pool of four, padded with hashes of 0; each pool word
    is mixed into every other, and eight hashes of the pool, read cyclically,
    are the state.
    """
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    keys = iter(_POOL_KEYS)
    pool = []
    for word, (xor, mult) in zip(words + [0] * (4 - len(words)), keys):
        v = (word ^ xor) * mult & _M32
        pool.append(v ^ v >> 16)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                xor, mult = next(keys)
                v = (pool[src] ^ xor) * mult & _M32
                v = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _M32
                pool[dst] = v ^ v >> 16
    out = []
    for i, (xor, mult) in enumerate(_DRAW_KEYS):
        v = (pool[i & 3] ^ xor) * mult & _M32
        out.append(v ^ v >> 16)
    return out


class RngStream:
    """Named random stream derived from (master seed, purpose, robot id).

    Identical labels always reproduce identical draw sequences; distinct
    labels are decorrelated by hashing, so adding draws to one stream never
    shifts another.

    The draws are those of np.random.default_rng(label_seed(label)), computed
    in pure Python: PCG64 (XSL-RR output) seeded through numpy's SeedSequence.
    `random` is numpy's `random()` and `index` its `integers(n)`, including
    the spare high half of a 64-bit draw that a 32-bit draw keeps for the
    next one.
    """

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, master_seed: int, purpose: str, robot_id: int = 0):
        w = _seed_words(label_seed(f"{master_seed}|{purpose}|{robot_id}"))
        # generate_state(4, uint64) pairs the 32-bit words little-endian into
        # u0..u3; PCG64 seeds with initstate (u0, u1) and initseq (u2, u3) as
        # (high, low) halves
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        initseq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._inc = (initseq << 1 | 1) & _M128
        # from state 0, one step leaves inc; add initstate and step again
        self._state = (self._inc + initstate) & _M128
        self._next64()
        self._spare: Optional[int] = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        r = s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        x = self._next64()
        self._spare = x >> 32
        return x & _M32

    def random(self) -> float:
        """Uniform draw in [0, 1)."""
        return (self._next64() >> 11) * 2.0**-53

    def index(self, n: int) -> int:
        """Uniform integer in [0, n), for 1 <= n <= 2**32.

        n == 1 draws nothing. Otherwise it is Lemire's method on 32-bit draws,
        rejecting a draw whose low product word falls below 2**32 mod n.
        """
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"index range must be in 1..2**32, got {n}")
        if n == 1:
            return 0
        if n == 1 << 32:
            return self._next32()
        threshold = (1 << 32) % n
        m = self._next32() * n
        while m & _M32 < threshold:
            m = self._next32() * n
        return m >> 32


def _plan_ticks(left: float, stride: float) -> int:
    """Ticks an offset table covers for a robot `left` meters short of arriving.

    A table covers the ticks up to the one that reaches the node, and at
    most _PLAN_TICKS of them.
    """
    if left <= 0.0:
        return 1
    if left < stride * (_PLAN_TICKS - 1):
        return math.ceil(left / stride) + 1
    # a long crossing, or a stride that underflowed to 0 or nearly so
    return _PLAN_TICKS


class MotionTables:
    """The edge plans that one run's robots share: one map, one stride.

    Every robot that leaves a node starts its edge at offset 0.0, so its
    end-of-tick offsets are a prefix of one running float sum, `offsets`
    (0.0, stride, stride + stride, ...). That table is built once, as long
    as the map's longest edge needs and capped at _PLAN_TICKS + 1 entries.
    `edge(a, b)` gives a directed edge's plan, worked out on its first use:
    the edge, its start, its unit vector, its length and its crossing, the
    index in `offsets` of the tick a robot entering it is due again. Robots
    only read the tables, and nothing keeps them past the run.
    """

    __slots__ = ("g", "stride", "offsets", "_edges")

    def __init__(self, g: PatrolGraph, stride: float):
        self.g = g
        self.stride = stride
        ticks = max((_plan_ticks(d - _ARRIVAL_SLACK, stride) for _, _, d in g.edges), default=1)
        self.offsets = list(accumulate(repeat(stride, ticks), initial=0.0))
        self._edges: dict[tuple[int, int], tuple] = {}

    def edge(self, a: int, b: int) -> tuple:
        """((a, b), start x, start y, unit x, unit y, length, crossing) of the edge from a to b."""
        plan = self._edges.get((a, b))
        if plan is None:
            g = self.g
            length = g.edge_length(a, b)
            (xa, ya), (xb, yb) = g.coords[a], g.coords[b]
            arrive_at = length - _ARRIVAL_SLACK
            crossing = bisect_left(self.offsets, arrive_at, 1, _plan_ticks(arrive_at, self.stride))
            plan = (a, b), xa, ya, (xb - xa) / length, (yb - ya) / length, length, crossing
            self._edges[a, b] = plan
        return plan


@dataclass(slots=True)
class RobotState:
    """Pose, goal and path of one robot.

    Exactly one of (node, edge) is set: a robot is either at a node or part
    way along a directed edge (edge=(a, b), offset meters from a). A tick
    moves it `stride` meters along its edge, but it is handled only on the
    tick `due`: the next tick at a node (it departs, or at its goal makes an
    identity arrival), its arrival tick on an edge. In between, sync reads
    its pose off an offset table: `_offs[i]` is its offset at the end of
    tick `_base + i`, the same running float sum offset + stride + stride +
    ... that stepping tick by tick makes, so every pose is bit-identical to
    it. A robot that leaves a node reads the run's shared table and edge
    plan (`_tables`, see MotionTables); one that turns round mid-edge, or
    whose crossing outlasts a table, builds a table of its own (_plan). On
    an edge, offset, x and y hold the pose of the tick last synced. The
    cached fields (_sx, _sy, _ux, _uy, _edge_len) describe the current edge
    segment.
    """

    id: int
    node: Optional[int]
    x: float
    y: float
    goal: int
    stride: float
    edge: Optional[tuple[int, int]] = None
    offset: float = 0.0
    path: list[int] = field(default_factory=list)
    due: int = 1
    _sx: float = 0.0
    _sy: float = 0.0
    _ux: float = 0.0
    _uy: float = 0.0
    _edge_len: float = 0.0
    _offs: list[float] = field(default_factory=list)
    _base: int = 0
    _tables: Optional[MotionTables] = None

    @classmethod
    def at_node(
        cls,
        robot_id: int,
        g: PatrolGraph,
        node: int,
        stride: float,
        tables: Optional[MotionTables] = None,
    ) -> "RobotState":
        """A robot at node that moves stride meters a tick, due on tick 1.

        The robots of one run share one MotionTables of g and stride; a
        robot given none builds its own.
        """
        if tables is None:
            tables = MotionTables(g, stride)
        elif tables.g is not g or tables.stride != stride:
            raise ValueError("motion tables are for another map or stride")
        x, y = g.coords[node]
        return cls(
            id=robot_id,
            node=node,
            x=x,
            y=y,
            goal=node,
            stride=stride,
            _tables=tables,
        )

    def enter_edge(self, nxt: int, k: int) -> None:
        """Leave the current node on tick k onto the edge towards nxt."""
        assert self.node is not None and self.node != nxt
        tables = self._tables
        self.edge, self._sx, self._sy, self._ux, self._uy, self._edge_len, crossing = (
            tables.edge(self.node, nxt)
        )
        self.offset = 0.0
        self.node = None
        self._offs = tables.offsets
        self._base = k - 1
        self.due = k - 1 + crossing

    def reverse_edge(self, g: PatrolGraph, k: int) -> None:
        """Turn around at the start of tick k; offset is re-measured from the other end."""
        self.sync(k - 1)
        a, b = self.edge
        (xb, yb) = g.coords[b]
        self.edge = (b, a)
        self.offset = self._edge_len - self.offset
        self._sx, self._sy = xb, yb
        self._ux, self._uy = -self._ux, -self._uy
        self._plan(k - 1)

    def _plan(self, base: int) -> None:
        """Tabulate own offsets from tick `base`, whose offset is self.offset, and set due.

        Only a robot whose offset is not 0.0 needs this: one turned round
        mid-edge, or one whose table ran out short of the node. due is the
        first later tick whose offset reaches the edge's length less the
        arrival slack, or the table's last tick if none does.
        """
        arrive_at = self._edge_len - _ARRIVAL_SLACK
        ticks = _plan_ticks(arrive_at - self.offset, self.stride)
        self._offs = list(accumulate(repeat(self.stride, ticks), initial=self.offset))
        self._base = base
        self.due = base + bisect_left(self._offs, arrive_at, 1, ticks)

    def sync(self, k: int) -> None:
        """Bring offset, x and y to the end of tick k, which must come before due."""
        if self.edge is not None:
            offset = self.offset = self._offs[k - self._base]
            self.x = self._sx + self._ux * offset
            self.y = self._sy + self._uy * offset

    def step(self, g: PatrolGraph, k: int) -> Optional[int]:
        """Handle the robot on tick k, its due tick; return the node reached, if any.

        At a node it departs along its path, or, already at its goal,
        reports an identity arrival without moving. A robot on an edge
        arrives, as does one whose departure tick covers the whole edge, and
        the overshoot past the node is dropped; a robot whose table ran out
        short of the node is tabulated on instead. Afterwards due is the
        next tick to handle it on.
        """
        if self.edge is None:
            if self.node == self.goal:
                self.due = k + 1
                return self.node
            self.enter_edge(self.path[0], k)
            if self.due > k:
                return None
        offset = self._offs[k - self._base]
        if offset < self._edge_len - _ARRIVAL_SLACK:
            # the table ran out before the node: plan on from this tick
            self.offset = offset
            self._plan(k)
            return None
        dest = self.edge[1]
        self.node = dest
        self.edge = None
        self.offset = 0.0
        self.x, self.y = g.coords[dest]
        if self.path and self.path[0] == dest:
            self.path.pop(0)
        self.due = k + 1
        return dest


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

    def sample(self, clock: float) -> None:
        lv = self.last_visit
        self.sample_sum += (clock * len(lv) - sum(lv)) / len(lv)
        self.sample_count += 1

    def average(self) -> float:
        """Mean sampled idleness; 0.0 when nothing was sampled."""
        if self.sample_count == 0:
            return 0.0
        return self.sample_sum / self.sample_count


def sample_ticks(dt: float, ticks: int) -> Iterator[int]:
    """Ascending ticks at which idleness is sampled, once a simulated second.

    They are the ticks nearest each whole second, {round(s / dt) : s = 1,
    2, ...}, within 1..ticks. Shorter ticks than a second give one distinct
    tick a second; with longer ones every tick is nearest some second.
    """
    if dt >= 1.0:
        yield from range(1, ticks + 1)
        return
    s = 1
    while (k := round(s / dt)) <= ticks:
        yield k
        s += 1


def max_step(g: PatrolGraph, speed: float, dt: float) -> float:
    """Farthest a robot moves in the plane in one tick on map g.

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
