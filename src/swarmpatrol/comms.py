"""Proximity-triggered pairwise exchanges with a per-pair cooldown.

Two robots within straight-line communication range exchange. A pair that
has exchanged must wait out a cooldown before exchanging again. Within a
tick, eligible pairs exchange in ascending (i, j) order. The radio reads
poses only: which pairs exchange comes from motion alone, and what an
exchange does to the robots' beliefs is the caller's.

A pair is not tested on every tick: CommState schedules each pair for the
earliest tick at which it could pass the test again, from how far apart its
robots are and how long its cooldown still runs. A pair found in range is
known to stay in range for as many ticks as its robots, moving apart at full
speed, need to reach the edge of the range; on those ticks it exchanges
without a range test. closing_ticks defines both bounds; tick_comms writes
it out for each pair it tests. CommState also keeps each pair's last
exchange time and exchange count: the run's only record of exchanges.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Sequence

from .world import RobotState

__all__ = [
    "CommState",
    "closing_ticks",
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

# The radio's cap on closing_ticks. No run lasts this many ticks, and a
# capped bound is still a lower bound: at worst it costs one more test.
_FOREVER = 1 << 62


def closing_ticks(gap: float, max_step: float, cap: int) -> int:
    """Ticks, at most cap, over which two robots stay on their side of the range's edge.

    gap is how far the pair's distance D is from the range: D - range for a
    pair out of range, range - D for one in range. Each robot moves at most
    max_step in the plane a tick, so D changes by at most 2 * max_step a
    tick, and the pair stays on its side for floor((gap - eps) /
    (2 * max_step)) more ticks, eps being _RANGE_EPS. The result can be
    negative. The quotient is clamped to [-cap, cap] before it is floored
    (floor(x) < cap exactly when x < cap, for a whole cap), so an infinite
    or NaN gap, or a quotient that overflows, never reaches floor: NaN
    gives cap.
    """
    ticks = (gap - _RANGE_EPS) / (2.0 * max_step)
    if ticks < cap:
        return math.floor(ticks) if ticks > -cap else -cap
    return cap


class CommState:
    """Per-pair exchange records and the pair schedule of one run.

    Robots exchange within range_m meters of each other (range_m > 0), and
    a pair waits timeout_s seconds (>= 0) between exchanges. pairs holds the
    robot pairs (i, j), i < j, in ascending order, indexed by pair id p;
    last[p] is p's latest exchange time (-inf before any) and exchanges[p]
    how many exchanges p has made.

    Ticks count from 0 at t = 0 in steps of dt, and max_step is the farthest
    a robot moves in the plane in one tick (world.max_step, which allows for
    map edges shorter than the straight line between their ends). Every pair
    is due on the first tick. After a pair is handled on tick k it is due
    again on tick k + w, where w >= 1 is a lower bound on the ticks before
    it can exchange again:

    - Out of range at distance D: the gap closes by at most 2 * max_step a
      tick, so the pair stays out of range for closing_ticks(D - range)
      ticks.
    - Cooling down since time last: the test passes from time
      last + timeout - 1e-9 on. Counted in ticks from now and rounded up,
      that is the first tick it can pass; one tick less absorbs the float
      error of the tick clock for any run under about 1e15 ticks.

    A pair found in range at distance D on tick k stays in range through
    tick in_range_until[p] = k + closing_ticks(range - D), by the same
    bound. A due pair past its cooldown exchanges on those ticks without a
    range test; on any other tick it is tested with the exact predicate.
    So a bound that is too cautious costs one more test and never moves an
    exchange; only a bound that overshoots could. Both bounds come from
    poses alone, never from beliefs. A pair whose cooldown never ends is
    dropped.
    """

    __slots__ = (
        "range_m", "timeout_s", "dt", "max_step", "pairs", "last", "exchanges",
        "in_range_until", "_due", "_ticks", "_synced",
    )

    def __init__(
        self, n_robots: int, range_m: float, timeout_s: float, dt: float, max_step: float
    ):
        if not (range_m > 0.0):
            raise ValueError(f"range_m must be positive, got {range_m}")
        if not (timeout_s >= 0.0):
            raise ValueError(f"timeout_s must be non-negative, got {timeout_s}")
        if not (dt > 0.0 and max_step > 0.0):
            raise ValueError(f"dt and max_step must be positive, got {dt} and {max_step}")
        self.range_m = range_m
        self.timeout_s = timeout_s
        self.dt = dt
        self.max_step = max_step
        self.pairs = [(i, j) for i in range(n_robots) for j in range(i + 1, n_robots)]
        self.last = [-math.inf] * len(self.pairs)
        self.exchanges = [0] * len(self.pairs)
        self.in_range_until = [-1] * len(self.pairs)
        self._due: dict[int, list[int]] = {0: list(range(len(self.pairs)))}
        self._ticks = [0]  # heap of the keys of _due
        self._synced = [-1] * n_robots  # the tick each robot was last synced to here

    def next_tick(self) -> float:
        """Earliest tick with a pair due; inf when no pair is due ever again."""
        return self._ticks[0] if self._ticks else math.inf


def tick_comms(robots: Sequence[RobotState], state: CommState, k: int) -> list[int]:
    """Run all eligible exchanges of tick k, at time k * dt; returns their pair ids.

    Only the pairs due by tick k are handled, in ascending pair order, and
    the ids of those that exchange are returned in that order. A pair
    qualifies when its straight-line separation is within range and at
    least the cooldown has elapsed since its previous exchange (a gap of
    exactly the cooldown is eligible). A pair past its cooldown is
    range-tested against the positions of tick k unless it is known to be
    in range on tick k (see CommState); each robot of a tested pair is
    synced to tick k once. Each exchange updates the pair's last and
    exchanges records. The returned list is the caller's: the radio keeps
    no reference to it.

    A tested pair's bounds are closing_ticks written out, with the same
    float operations in the same order and max(1, w) as a comparison: the
    loop runs once per tested pair, and two calls there cost more than the
    arithmetic.
    """
    due, ticks = state._due, state._ticks
    batch: list[int] = []
    while ticks and ticks[0] <= k:
        batch += due.pop(heappop(ticks))
    if not batch:
        return []
    batch.sort()
    dt = state.dt
    t = k * dt
    pairs, last_exchange, exchanges = state.pairs, state.last, state.exchanges
    until, synced = state.in_range_until, state._synced
    range_m = state.range_m
    range_sq = range_m * range_m
    timeout = state.timeout_s
    horizon = t - timeout + _COOLDOWN_SLACK
    sqrt, floor, ceil = math.sqrt, math.floor, math.ceil
    eps, forever = _RANGE_EPS, _FOREVER
    per_tick = 2.0 * state.max_step  # the most a pair's distance changes in a tick
    exchanged: list[int] = []
    # A pair is filed in the bucket of the tick it is next due, which is new
    # when it is empty. Most such ticks get one pair, so grouping the pairs
    # by tick first, or a call per pair, costs more than it saves.
    for p in batch:
        last = last_exchange[p]
        if last > horizon:
            # due one tick before the first tick its cooldown can have ended
            wait = (last + timeout - _COOLDOWN_SLACK - t) / dt
            if wait == math.inf:
                continue
            # k + max(1, ceil(wait) - 1)
            w = ceil(wait)
            later = k + w - 1 if w > 2 else k + 1
        else:
            later = None
            if until[p] < k:
                i, j = pairs[p]
                ri, rj = robots[i], robots[j]
                if synced[i] != k:
                    ri.sync(k)
                    synced[i] = k
                if synced[j] != k:
                    rj.sync(k)
                    synced[j] = k
                dx = ri.x - rj.x
                dy = ri.y - rj.y
                d2 = dx * dx + dy * dy
                if d2 > range_sq:
                    # k + max(1, closing_ticks(D - range))
                    q = (sqrt(d2) - range_m - eps) / per_tick
                    if q < 2.0:
                        later = k + 1
                    elif q < forever:
                        later = k + floor(q)
                    else:
                        later = k + forever
                else:
                    # k + closing_ticks(range - D)
                    q = (range_m - sqrt(d2) - eps) / per_tick
                    if q < forever:
                        until[p] = k + floor(q) if q > -forever else k - forever
                    else:
                        until[p] = k + forever
            if later is None:
                last_exchange[p] = t
                exchanges[p] += 1
                exchanged.append(p)
                continue
        bucket = due.get(later)
        if bucket is None:
            due[later] = [p]
            heappush(ticks, later)
        else:
            bucket.append(p)
    if exchanged:
        # the pairs that exchanged all wait out one cooldown from t
        wait = (t + timeout - _COOLDOWN_SLACK - t) / dt
        if wait != math.inf:
            w = ceil(wait)
            later = k + w - 1 if w > 2 else k + 1
            bucket = due.get(later)
            if bucket is None:
                # a copy: later filings append to the bucket
                due[later] = exchanged[:]
                heappush(ticks, later)
            else:
                bucket += exchanged
    return exchanged
