"""Proximity-triggered pairwise belief exchange with a per-pair cooldown.

Two robots within straight-line communication range exchange belief vectors:
both end up holding the elementwise fusion of the two. A pair that has
exchanged must wait out a cooldown before exchanging again. Within a tick,
eligible pairs run sequentially in ascending (i, j) order, so later pairs see
the results of earlier fusions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .beliefs import Belief, fuse_vectors
from .world import RobotState

__all__ = [
    "CommConfig",
    "CommState",
    "eligible_pairs",
    "exchange",
    "tick_comms",
]


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
    """Per-pair last exchange times plus the contact log for one run.

    log lists every executed exchange in time order as (t, i, j) with i < j.
    """

    __slots__ = ("last_exchange", "log")

    def __init__(self, n_robots: int):
        self.last_exchange: dict[tuple[int, int], float] = {
            (i, j): -math.inf
            for i in range(n_robots)
            for j in range(i + 1, n_robots)
        }
        self.log: list[tuple[float, int, int]] = []


def eligible_pairs(
    positions: Sequence[tuple[float, float]],
    last_exchange: dict[tuple[int, int], float],
    t: float,
    cfg: CommConfig,
) -> list[tuple[int, int]]:
    """Pairs allowed to exchange at time t, in ascending (i, j) order.

    A pair qualifies when its straight-line separation is within range and
    at least the cooldown has elapsed since its previous exchange (a gap of
    exactly the cooldown is eligible).
    """
    range_sq = cfg.range_m * cfg.range_m
    # tiny slack so a gap of exactly the cooldown stays eligible under the
    # accumulated float error of tick-grid timestamps
    horizon = t - cfg.timeout_s + 1e-9
    out: list[tuple[int, int]] = []
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


def exchange(ri: RobotState, rj: RobotState, t: float, state: CommState) -> list[Belief]:
    """Fuse the two belief vectors and hand each robot its own copy.

    Returns the fused vector; it is the list `ri` now holds.
    """
    fused = fuse_vectors(ri.beliefs, rj.beliefs)
    ri.beliefs = fused
    rj.beliefs = fused.copy()
    i, j = (ri.id, rj.id) if ri.id < rj.id else (rj.id, ri.id)
    state.last_exchange[(i, j)] = t
    state.log.append((t, i, j))
    return fused


def tick_comms(
    robots: Sequence[RobotState],
    state: CommState,
    t: float,
    cfg: CommConfig,
) -> list[tuple[int, int, list[Belief]]]:
    """Run all eligible exchanges for this tick; returns (i, j, fused) triples.

    Eligibility is evaluated once against positions at time t, then the
    exchanges apply sequentially in ascending pair order. Each triple holds
    the vector that exchange fused; a later exchange in the same tick may
    have changed what robots i and j hold since.
    """
    positions = [(r.x, r.y) for r in robots]
    pairs = eligible_pairs(positions, state.last_exchange, t, cfg)
    return [(i, j, exchange(robots[i], robots[j], t, state)) for i, j in pairs]
