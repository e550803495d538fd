"""Proximity-triggered pairwise belief exchange with a per-pair cooldown.

Two robots within straight-line communication range exchange belief vectors:
both end up holding the elementwise fusion of the two. A pair that has
exchanged must wait out a cooldown before exchanging again. Within a tick,
eligible pairs run sequentially in ascending (i, j) order, so later pairs see
the results of earlier fusions.

A pair is not tested on every tick: CommState schedules each pair for the
earliest tick at which it could pass the test again, from how far apart its
robots are and how long its cooldown still runs. It also keeps each pair's
last exchange time and exchange count: the run's only record of exchanges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional, Sequence

from .beliefs import BeliefVector, fuse_vectors
from .world import RobotState

__all__ = [
    "CommConfig",
    "CommState",
    "exchange",
    "tick_comms",
]

# Slack on the cooldown test, in seconds, so a gap of exactly the cooldown
# stays eligible under the accumulated float error of tick-grid timestamps.
_COOLDOWN_SLACK = 1e-9

# Margin, in meters, taken off a pair's gap to the range before the gap is
# turned into ticks. A position on a map of a few hundred meters carries a
# float error near 1e-13 m, and an offset summed over a tick's travel gains
# under one ulp a tick, which the arrival slack in max_step already covers.
# 1e-6 m leaves six orders of magnitude for the interpolation, the snap to a
# node's coordinates and the distance itself.
_RANGE_EPS = 1e-6


@dataclass(frozen=True)
class CommConfig:
    """Exchange gating parameters."""

    range_m: float = 5.0
    timeout_s: float = 30.0

    def __post_init__(self):
        if not (self.range_m > 0.0):
            raise ValueError(f"range_m must be positive, got {self.range_m}")
        if self.timeout_s < 0.0:
            raise ValueError(f"timeout_s must be non-negative, got {self.timeout_s}")


class CommState:
    """Per-pair exchange records and the pair schedule of one run.

    pairs holds the robot pairs (i, j), i < j, in ascending order, indexed by
    pair id p; last[p] is p's latest exchange time (-inf before any) and
    exchanges[p] how many exchanges p has made.

    Ticks count from 0 at t = 0 in steps of dt, and max_step is the farthest
    a robot moves in the plane in one tick (world.max_step, which allows for
    map edges shorter than the straight line between their ends). Every pair
    is due on the first tick. After a pair is tested on tick k it is due
    again on tick k + w, where w >= 1 is a lower bound on the ticks before
    the exact test can pass:

    - Out of range at distance D: the gap closes by at most 2 * max_step a
      tick, so the pair stays out of range for floor((D - range - eps) /
      (2 * max_step)) ticks, eps being _RANGE_EPS.
    - Cooling down since time last: the test passes from time
      last + timeout - 1e-9 on. Counted in ticks from now and rounded up,
      that is the first tick it can pass; one tick less absorbs the float
      error of the tick clock for any run under about 1e15 ticks.

    A due pair is tested with the exact predicate, so a bound that is too
    cautious costs one more test and never moves an exchange; only a bound
    that overshoots could. A pair whose cooldown never ends is dropped.
    """

    __slots__ = ("cfg", "dt", "max_step", "pairs", "last", "exchanges", "_due", "_ticks")

    def __init__(self, n_robots: int, cfg: CommConfig, dt: float, max_step: float):
        if not (dt > 0.0 and max_step > 0.0):
            raise ValueError(f"dt and max_step must be positive, got {dt} and {max_step}")
        self.cfg = cfg
        self.dt = dt
        self.max_step = max_step
        self.pairs = [(i, j) for i in range(n_robots) for j in range(i + 1, n_robots)]
        self.last = [-math.inf] * len(self.pairs)
        self.exchanges = [0] * len(self.pairs)
        self._due: dict[int, list[int]] = {0: list(range(len(self.pairs)))}
        self._ticks = [0]  # heap of the keys of _due

    def next_tick(self) -> float:
        """Earliest tick with a pair due; inf when no pair is due ever again."""
        return self._ticks[0] if self._ticks else math.inf

    def _cooldown_wait(self, last: float, t: float) -> Optional[int]:
        """Ticks from time t before a pair last exchanged at `last` can pass; None for never."""
        ticks = (last + self.cfg.timeout_s - _COOLDOWN_SLACK - t) / self.dt
        if ticks == math.inf:
            return None
        return math.ceil(ticks) - 1


def exchange(ri: RobotState, rj: RobotState, t: float, state: CommState, p: int) -> BeliefVector:
    """Fuse the beliefs of pair p's robots at time t; both then hold the fused vector.

    Returns the fused vector. A packed vector is immutable, so the robots
    can share it. Fusion costs the same whatever the robots hold.
    """
    fused = ri.beliefs = rj.beliefs = fuse_vectors(ri.beliefs, rj.beliefs)
    state.last[p] = t
    state.exchanges[p] += 1
    return fused


def tick_comms(
    robots: Sequence[RobotState],
    state: CommState,
    k: int,
) -> list[tuple[int, int, BeliefVector]]:
    """Run all eligible exchanges of tick k, at time k * dt; returns (i, j, fused) triples.

    Only the pairs due by tick k are tested, and only their robots are
    synced to tick k, each once. A pair qualifies when its
    straight-line separation is within range and at least the cooldown has
    elapsed since its previous exchange (a gap of exactly the cooldown is
    eligible). Eligibility is evaluated once against the positions of tick
    k, then the exchanges apply sequentially in ascending pair order. Each
    triple holds the vector that exchange fused; a later exchange in the
    same tick may have changed what robots i and j hold since.
    """
    due, ticks = state._due, state._ticks
    tested: list[int] = []
    while ticks and ticks[0] <= k:
        tested += due.pop(heappop(ticks))
    if not tested:
        return []
    tested.sort()
    t = k * state.dt
    pairs, last_exchange = state.pairs, state.last
    range_m = state.cfg.range_m
    range_sq = range_m * range_m
    closing = 2.0 * state.max_step
    horizon = t - state.cfg.timeout_s + _COOLDOWN_SLACK
    # A pair is filed in the bucket of the tick it is next due, which is new
    # when it is empty. Most such ticks get one pair, so grouping the pairs
    # by tick first, or a call per pair, costs more than it saves.
    near: list[int] = []
    for p in tested:
        last = last_exchange[p]
        if last <= horizon:
            near.append(p)
            continue
        wait = state._cooldown_wait(last, t)
        if wait is not None:
            later = k + max(1, wait)
            bucket = due.setdefault(later, [])
            if not bucket:
                heappush(ticks, later)
            bucket.append(p)
    for rid in {rid for p in near for rid in pairs[p]}:
        robots[rid].sync(k)
    eligible: list[int] = []
    for p in near:
        i, j = pairs[p]
        ri, rj = robots[i], robots[j]
        dx = ri.x - rj.x
        dy = ri.y - rj.y
        d2 = dx * dx + dy * dy
        if d2 <= range_sq:
            eligible.append(p)
        else:
            wait = math.floor((math.sqrt(d2) - range_m - _RANGE_EPS) / closing)
            later = k + max(1, wait)
            bucket = due.setdefault(later, [])
            if not bucket:
                heappush(ticks, later)
            bucket.append(p)
    done = []
    for p in eligible:
        i, j = pairs[p]
        done.append((i, j, exchange(robots[i], robots[j], t, state, p)))
    if eligible:
        wait = state._cooldown_wait(t, t)
        if wait is not None:
            later = k + max(1, wait)
            bucket = due.setdefault(later, [])
            if not bucket:
                heappush(ticks, later)
            bucket += eligible
    return done
