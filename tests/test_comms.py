"""Proximity gossip: range and cooldown gates, pairwise fusion, contact log."""

import pytest

from swarmpatrol.beliefs import Belief
from swarmpatrol.comms import CommConfig, CommState, eligible_pairs, exchange, tick_comms
from swarmpatrol.graph import parse_map
from swarmpatrol.world import RobotState

F, U, T = Belief.FALSE, Belief.UNCERTAIN, Belief.TRUE


def _robots_at(*coords):
    # a throwaway line graph supplies valid poses; positions are then pinned
    n = len(coords)
    text = "".join(f"node {i} {i * 100} 0\n" for i in range(max(n, 2)))
    text += "".join(f"edge {i} {i + 1}\n" for i in range(max(n, 2) - 1))
    g = parse_map(text)
    robots = []
    for i, (x, y) in enumerate(coords):
        r = RobotState.at_node(i, g, i, speed=1.0)
        r.x, r.y = x, y
        robots.append(r)
    return robots


def test_comm_config_validates():
    with pytest.raises(ValueError):
        CommConfig(range_m=0.0)
    with pytest.raises(ValueError):
        CommConfig(timeout_s=-1.0)


def test_range_boundary_is_inclusive():
    cfg = CommConfig(range_m=5.0, timeout_s=30.0)
    state = CommState(2)
    assert eligible_pairs([(0.0, 0.0), (5.0, 0.0)], state.last_exchange, 1.0, cfg) == [(0, 1)]
    assert eligible_pairs([(0.0, 0.0), (5.0001, 0.0)], state.last_exchange, 1.0, cfg) == []


def test_first_contact_possible_immediately():
    cfg = CommConfig()
    state = CommState(2)
    assert eligible_pairs([(0.0, 0.0), (1.0, 0.0)], state.last_exchange, 0.0, cfg) == [(0, 1)]


def test_cooldown_boundary_is_inclusive():
    cfg = CommConfig(range_m=5.0, timeout_s=30.0)
    state = CommState(2)
    positions = [(0.0, 0.0), (1.0, 0.0)]
    state.last_exchange[(0, 1)] = 100.0
    assert eligible_pairs(positions, state.last_exchange, 129.9, cfg) == []
    assert eligible_pairs(positions, state.last_exchange, 130.0, cfg) == [(0, 1)]


def test_pairs_listed_in_ascending_order():
    cfg = CommConfig()
    state = CommState(3)
    positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    assert eligible_pairs(positions, state.last_exchange, 0.0, cfg) == [(0, 1), (0, 2), (1, 2)]


def test_exchange_fuses_both_ways_without_aliasing():
    state = CommState(2)
    ri, rj = _robots_at((0.0, 0.0), (1.0, 0.0))
    ri.beliefs = [T, F, U]
    rj.beliefs = [U, T, U]
    fused = exchange(ri, rj, 42.0, state)
    assert fused is ri.beliefs
    assert ri.beliefs == [T, U, U]
    assert rj.beliefs == [T, U, U]
    ri.beliefs[0] = F
    assert rj.beliefs[0] is T
    assert state.last_exchange[(0, 1)] == 42.0
    assert state.log == [(42.0, 0, 1)]


def test_tick_comms_chains_fusion_through_pair_order():
    # pair order (0,1), (0,2), (1,2): robot 2 learns robot 0's certainty
    # in the same tick, relayed via the second exchange
    cfg = CommConfig(range_m=5.0, timeout_s=30.0)
    state = CommState(3)
    robots = _robots_at((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    robots[0].beliefs = [T]
    robots[1].beliefs = [U]
    robots[2].beliefs = [U]
    done = tick_comms(robots, state, 5.0, cfg)
    assert [(i, j) for i, j, _ in done] == [(0, 1), (0, 2), (1, 2)]
    assert [fused for _, _, fused in done] == [[T], [T], [T]]
    assert [r.beliefs for r in robots] == [[T], [T], [T]]
    assert len(state.log) == 3


def test_tick_comms_reports_each_exchange_own_fused_vector():
    # (0,1) fuses [T] with [U] to [T]; (0,2) then meets robot 2's contrary
    # [F] and both fall back to [U]. The first triple keeps the [T] that
    # (0,1) produced, though robot 0 ends the tick holding [U].
    cfg = CommConfig(range_m=5.0, timeout_s=30.0)
    state = CommState(3)
    robots = _robots_at((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    robots[0].beliefs = [T]
    robots[1].beliefs = [U]
    robots[2].beliefs = [F]
    done = tick_comms(robots, state, 5.0, cfg)
    assert done == [(0, 1, [T]), (0, 2, [U]), (1, 2, [T])]
    assert [r.beliefs for r in robots] == [[U], [T], [T]]


def test_tick_comms_respects_cooldown_next_tick():
    cfg = CommConfig(range_m=5.0, timeout_s=30.0)
    state = CommState(2)
    robots = _robots_at((0.0, 0.0), (1.0, 0.0))
    assert [(i, j) for i, j, _ in tick_comms(robots, state, 5.0, cfg)] == [(0, 1)]
    assert tick_comms(robots, state, 5.1, cfg) == []
    assert tick_comms(robots, state, 34.9, cfg) == []
    assert [(i, j) for i, j, _ in tick_comms(robots, state, 35.0, cfg)] == [(0, 1)]
    assert state.log == [(5.0, 0, 1), (35.0, 0, 1)]
