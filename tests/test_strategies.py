"""Patrol policies: decision rules, per-policy state, hooks, task auction."""

import math
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dtap_auction, per_tick_dtap_class, shortest_distance, travel_distance
from swarmpatrol.graph import PatrolGraph, parse_map
from swarmpatrol.harness import ConfigError, ExperimentConfig
from swarmpatrol.strategies import (
    POLICIES,
    StrategyKind,
    decide_next,
    nearest_peer_sq,
    retarget,
    travel_distances,
)
from swarmpatrol.world import RngStream, RobotState, max_step

K = StrategyKind

# the two-loop auction DTAP once called, as the per-tick reference
TWO_LOOP_AUCTION = partial(dtap_auction, travel_row=travel_distances)


def _star() -> PatrolGraph:
    # center node 0 with three spokes of equal length 5
    return parse_map(
        "node 0 0 0\nnode 1 5 0\nnode 2 0 5\nnode 3 -5 0\n"
        "edge 0 1\nedge 0 2\nedge 0 3\n"
    )


def _path(spacing: float = 1.0, n: int = 3) -> PatrolGraph:
    text = "".join(f"node {i} {i * spacing} 0\n" for i in range(n))
    text += "".join(f"edge {i} {i + 1}\n" for i in range(n - 1))
    return parse_map(text)


def _ring(n: int = 6) -> PatrolGraph:
    coords = "".join(
        f"node {k} {math.cos(2 * math.pi * k / n)} {math.sin(2 * math.pi * k / n)}\n"
        for k in range(n)
    )
    edges = "".join(f"edge {k} {(k + 1) % n} 1.0\n" for k in range(n))
    return parse_map(coords + edges)


def _cfg(n_robots=2, **settings) -> ExperimentConfig:
    # robots move at 1 m/s and dt is 0.1 s, as the tests' robots with a stride of 0.1 do
    return ExperimentConfig(n_robots=n_robots, **settings)


def _policy(kind, g, n_robots=2, **settings):
    return POLICIES[kind](g, _cfg(n_robots, **settings))


def _decide(policy, *, robot_id=0, node=0, idleness=None, rng=None) -> int:
    # at t = 0 a node idle for x seconds was last visited at -x, and 0 - (-x) is x exactly
    if idleness is None:
        idleness = [0.0] * policy.g.node_count
    return decide_next(
        policy,
        robot_id,
        node,
        0.0,
        [-idl for idl in idleness],
        rng if rng is not None else RngStream(0, "strategy", robot_id),
    )


def _choose(kind, g, **kwargs) -> int:
    """One decision of a fresh two-robot policy."""
    return _decide(_policy(kind, g), **kwargs)


# ---------------------------------------------------------------------------
# parameters and initialization
# ---------------------------------------------------------------------------


def test_params_validate():
    with pytest.raises(ConfigError):
        ExperimentConfig(cbls_alpha=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(cbls_epsilon=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(dtap_period_s=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(dtap_period_s=math.inf)
    with pytest.raises(ConfigError):
        ExperimentConfig(task_distance_weight=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(task_distance_weight=math.inf)


def test_policy_initial_state():
    g = _star()
    assert set(POLICIES) == set(K)

    sebs = _policy(K.SEBS, g, 3)
    assert sebs.intentions == [None, None, None]

    cbls = _policy(K.CBLS, g, 2)
    assert cbls.learned == [[0.0] * g.node_count] * 2
    assert cbls.learned[0] is not cbls.learned[1]

    dtag = _policy(K.DTAG, g, 2)
    assert dtag.claim == [None, None]
    assert dtag.claims == {}


def test_cgg_route_and_entries():
    g = _ring()
    cgg = _policy(K.CGG, g, 2)
    assert cgg.route.length == pytest.approx(6.0)
    assert len(cgg.entry_index) == 2
    assert cgg.entry_index[0] < cgg.entry_index[1]  # spread along the lap


# ---------------------------------------------------------------------------
# local rules
# ---------------------------------------------------------------------------


def test_rand_choices_are_neighbors_and_seeded():
    g = _star()
    rand = _policy(K.RAND, g)
    a = [_decide(rand, rng=RngStream(5, "strategy")) for _ in range(1)]
    rng1 = RngStream(5, "strategy")
    rng2 = RngStream(5, "strategy")
    seq1 = [_decide(rand, rng=rng1) for _ in range(20)]
    seq2 = [_decide(rand, rng=rng2) for _ in range(20)]
    assert seq1 == seq2
    assert set(seq1) <= {1, 2, 3}
    assert a[0] == seq1[0]


def test_cr_picks_most_idle_neighbor():
    g = _star()
    assert _choose(K.CR, g, idleness=[0.0, 10.0, 30.0, 5.0]) == 2


def test_cr_breaks_ties_to_lowest_id():
    g = _star()
    assert _choose(K.CR, g, idleness=[0.0, 10.0, 30.0, 30.0]) == 2
    assert _choose(K.CR, g, idleness=[0.0, 0.0, 0.0, 0.0]) == 1


def test_hcr_discounts_distance():
    g = parse_map("node 0 0 0\nnode 1 1 0\nnode 2 10 0\nedge 0 1\nedge 0 2\n")
    idleness = [0.0, 10.0, 12.0]
    assert _choose(K.CR, g, idleness=idleness) == 2
    # 0.5 * 10/12 + 0.5 * (1 - 1/10) beats 0.5 * 1 + 0
    assert _choose(K.HCR, g, idleness=idleness) == 1


def test_hpcc_considers_whole_graph():
    g = _path()
    idleness = [0.0, 1.0, 100.0]
    assert _choose(K.CR, g, idleness=idleness) == 1
    assert _choose(K.HPCC, g, idleness=idleness) == 2


def test_gbs_exponential_travel_discount():
    # spokes of length 4 and 8, mean edge 6: 30 * 2^(-4/6) > 40 * 2^(-8/6)
    g = parse_map("node 0 0 0\nnode 1 4 0\nnode 2 0 8\nedge 0 1\nedge 0 2\n")
    idleness = [0.0, 30.0, 40.0]
    assert _choose(K.CR, g, idleness=idleness) == 2
    assert _choose(K.GBS, g, idleness=idleness) == 1


def test_cgg_walks_the_route_in_order():
    g = _ring()
    cgg = _policy(K.CGG, g, 2)
    nodes = cgg.route.nodes
    entry = nodes[cgg.entry_index[0]]
    nxt = _decide(cgg, node=entry)
    assert nxt == nodes[(cgg.entry_index[0] + 1) % len(nodes)]
    # following calls keep advancing, wrapping at the lap end
    seen = [nxt]
    for _ in range(6):
        seen.append(_decide(cgg, node=seen[-1]))
    idx = nodes.index(seen[0])
    want = [nodes[(idx + k) % 6] for k in range(7)]
    assert seen == want


def test_cgg_heads_to_entry_first():
    g = _ring()
    cgg = _policy(K.CGG, g, 2)
    entry1 = cgg.route.nodes[cgg.entry_index[1]]
    start = (entry1 + 3) % 6  # anywhere off the entry
    assert _decide(cgg, robot_id=1, node=start) == entry1
    assert cgg.route_idx[1] is None  # not on the lap yet


# ---------------------------------------------------------------------------
# coordinated rules
# ---------------------------------------------------------------------------


def test_sebs_halves_score_per_peer_intention():
    g = _star()
    sebs = _policy(K.SEBS, g, 2)
    idleness = [0.0, 32.0, 20.0, 0.0]
    first = _decide(sebs, robot_id=0, idleness=idleness)
    assert first == 1
    assert sebs.intentions[0] == 1
    # same view, but node 1 now carries an announced intention: 32/2 < 20
    second = _decide(sebs, robot_id=1, idleness=idleness)
    assert second == 2
    assert sebs.intentions == [1, 2]


def test_cbls_learned_estimate_is_a_floor():
    g = _star()
    cbls = _policy(K.CBLS, g, 1, cbls_epsilon=0.0)
    idleness = [0.0, 4.0, 8.0, 0.0]
    assert _decide(cbls, idleness=idleness) == 2  # plain idleness wins
    cbls.learned[0][1] = 9.0
    assert _decide(cbls, idleness=idleness) == 1  # learned floor outweighs current reading
    assert cbls.intentions[0] == 1


def test_cbls_respects_peer_intentions():
    g = _star()
    cbls = _policy(K.CBLS, g, 2, cbls_epsilon=0.0)
    assert _decide(cbls, robot_id=1, idleness=[0.0, 8.0, 0.0, 0.0]) == 1  # robot 1 announces 1
    assert _decide(cbls, robot_id=0, idleness=[0.0, 8.0, 5.0, 0.0]) == 2  # 8/2 < 5
    assert cbls.intentions == [2, 1]
    assert cbls.announced == [0, 1, 1, 0]
    # a robot's own announcement does not count against it: 8 beats 5
    assert _decide(cbls, robot_id=1, idleness=[0.0, 8.0, 0.0, 5.0]) == 1
    assert cbls.announced == [0, 1, 1, 0]


@pytest.mark.parametrize("kind", [K.SEBS, K.CBLS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_announced_counts_equal_a_recount(kind, data):
    g = _ring(6)
    n = data.draw(st.integers(1, 5))
    epsilon = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    policy = _policy(kind, g, n, cbls_epsilon=epsilon)
    rngs = [RngStream(data.draw(st.integers(0, 99)), "strategy", r) for r in range(n)]
    for _ in range(data.draw(st.integers(1, 30))):
        robot_id = data.draw(st.integers(0, n - 1))
        node = data.draw(st.integers(0, g.node_count - 1))
        idleness = data.draw(st.lists(st.floats(0.0, 100.0), min_size=6, max_size=6))
        goal = _decide(policy, robot_id=robot_id, node=node, idleness=idleness, rng=rngs[robot_id])
        assert policy.intentions[robot_id] == goal
        recount = [sum(1 for i in policy.intentions if i == v) for v in range(g.node_count)]
        assert policy.announced == recount


def test_cbls_full_exploration_is_seeded_and_announced():
    g = _star()
    cbls = _policy(K.CBLS, g, 1, cbls_epsilon=1.0)
    picks1 = [_decide(cbls, rng=RngStream(4, "strategy"))]
    picks2 = [_decide(cbls, rng=RngStream(4, "strategy"))]
    assert picks1 == picks2
    assert picks1[0] in (1, 2, 3)
    assert cbls.intentions[0] == picks1[0]


def test_cbls_visited_moving_average():
    cbls = _policy(K.CBLS, _path(), 2, cbls_alpha=0.3)
    cbls.visited(0, 2, 10.0)
    assert cbls.learned[0][2] == pytest.approx(3.0)
    cbls.visited(0, 2, 20.0)
    assert cbls.learned[0][2] == pytest.approx(0.7 * 3.0 + 0.3 * 20.0)
    assert cbls.learned[0][:2] == [0.0, 0.0]
    assert cbls.learned[1] == [0.0, 0.0, 0.0]


def test_visited_and_tick_are_noops_for_other_kinds():
    g = _star()
    robots = [RobotState.at_node(i, g, 0, stride=0.1) for i in range(2)]
    for kind in K:
        if kind is K.CBLS:
            continue
        policy = _policy(kind, g, 2)
        before = dict(vars(policy))
        policy.visited(1, 1, 10.0)
        if kind is not K.DTAP:  # DTAP.tick is the auction
            assert policy.next_tick() == math.inf
            assert policy.tick(200, 20.0, robots, [0.0] * g.node_count) == []
        assert vars(policy) == before, kind


def test_dtag_claims_weighted_best_node():
    g = _path()
    dtag = _policy(K.DTAG, g, 1)  # weight 7
    # 100 - 7*2 = 86 beats 10 - 7*1 = 3
    assert _decide(dtag, idleness=[0.0, 10.0, 100.0]) == 2
    assert dtag.claims == {2: 0}
    assert dtag.claim[0] == 2


def test_dtag_weight_trades_idleness_for_distance():
    g = _path()
    idleness = [0.0, 10.0, 12.0]
    light = _policy(K.DTAG, g, 1, task_distance_weight=1.0)
    assert _decide(light, idleness=idleness) == 2  # 12 - 2 > 10 - 1
    heavy = _policy(K.DTAG, g, 1, task_distance_weight=7.0)
    assert _decide(heavy, idleness=idleness) == 1  # 12 - 14 < 10 - 7


def test_dtag_skips_claimed_nodes():
    g = _path()
    dtag = _policy(K.DTAG, g, 2)
    dtag.claims[2] = 1
    assert _decide(dtag, idleness=[0.0, 10.0, 100.0]) == 1
    assert dtag.claims == {2: 1, 1: 0}


def test_dtag_releases_claim_on_arrival():
    g = _path()
    dtag = _policy(K.DTAG, g, 1)
    dtag.claims[1] = 0
    dtag.claim[0] = 1
    goal = _decide(dtag, node=1, idleness=[5.0, 0.0, 8.0])
    assert 1 not in dtag.claims
    assert goal == 2  # 8 - 7 > 5 - 7
    assert dtag.claims == {2: 0}


def test_dtag_falls_back_when_everything_is_claimed():
    g = _star()
    dtag = _policy(K.DTAG, g, 2)
    dtag.claims.update({1: 1, 2: 1, 3: 1})
    # plain most-idle-neighbor fallback
    assert _decide(dtag, idleness=[0.0, 1.0, 5.0, 3.0]) == 2
    assert dtag.claim[0] is None


def test_dtap_decide_releases_then_patrols():
    g = _star()
    dtap = _policy(K.DTAP, g, 1)
    dtap.claims[0] = 0
    dtap.claim[0] = 0
    # most idle neighbor, no new claim
    assert _decide(dtap, node=0, idleness=[0.0, 1.0, 9.0, 3.0]) == 2
    assert dtap.claims == {}
    assert dtap.claim[0] is None


# ---------------------------------------------------------------------------
# pose-aware travel and retargeting
# ---------------------------------------------------------------------------


def _mid_edge_robot(g):
    r = RobotState.at_node(0, g, 0, stride=0.1)
    r.goal = 1
    r.path = [1]
    r.step(g, 1)  # departs on tick 1; 2 m onto the 0-1 edge after tick 20
    return r


def test_travel_distance_mid_edge():
    g = _path(spacing=5.0)
    r = _mid_edge_robot(g)
    r.sync(20)
    assert travel_distance(r, g, 0) == pytest.approx(2.0)
    assert travel_distance(r, g, 1) == pytest.approx(3.0)
    assert travel_distance(r, g, 2) == pytest.approx(8.0)


def test_travel_distance_at_node():
    g = _path(spacing=5.0)
    r = RobotState.at_node(0, g, 2, stride=0.1)
    assert travel_distance(r, g, 0) == pytest.approx(10.0)


def test_retarget_reverses_only_when_strictly_shorter():
    g = _path(spacing=5.0)
    r = _mid_edge_robot(g)
    retarget(r, g, 0, 21)  # 2 m back vs 8 m around
    assert r.edge == (1, 0)
    assert r.goal == 0
    assert r.path == [0]

    r = _mid_edge_robot(g)
    retarget(r, g, 2, 21)  # ahead is shorter, keep going
    assert r.edge == (0, 1)
    assert r.path == [1, 2]


def test_retarget_decides_from_where_the_previous_tick_left_the_robot():
    # via 1, node 2 is 3.16 m past the end of the 5 m edge 0-1; via 0 it is
    # 5 m past its start, so a robot turns back only before it is 1.58 m along
    g = parse_map("node 0 0 0\nnode 1 5 0\nnode 2 4 3\nedge 0 1\nedge 1 2\nedge 0 2\n")
    for k, edge, path in [(11, (1, 0), [0, 2]), (21, (0, 1), [1, 2])]:
        r = RobotState.at_node(0, g, 0, stride=0.1)
        r.goal = 1
        r.path = [1]
        r.step(g, 1)
        retarget(r, g, 2, k)  # 1 m, then 2 m along after tick k - 1
        assert (r.edge, r.path) == (edge, path)


def test_retarget_from_node_replans_path():
    g = _path(spacing=5.0)
    r = RobotState.at_node(0, g, 0, stride=0.1)
    retarget(r, g, 2, 1)
    assert r.goal == 2
    assert r.path == [1, 2]


# ---------------------------------------------------------------------------
# task auction
# ---------------------------------------------------------------------------


def _auction_setup(positions, n_nodes=4, spacing=2.0):
    g = _path(spacing=spacing, n=n_nodes)
    dtap = _policy(K.DTAP, g, len(positions))
    robots = [RobotState.at_node(i, g, node, stride=0.1) for i, node in enumerate(positions)]
    return g, dtap, robots


def _hold(dtap, robots, idleness, group_round):
    """DTAP's tick on a group round, or on the tick before one, with the given idleness."""
    k = dtap.period_ticks if group_round else dtap.period_ticks - 1
    t = k * 0.1
    return dtap.tick(k, t, robots, [t - idl for idl in idleness])


def test_auction_collision_goes_to_nearest_then_loser_reproposes():
    g, dtap, robots = _auction_setup([1, 2])
    awards = _hold(dtap, robots, [0.0, 0.0, 0.0, 50.0], group_round=True)
    # both want node 3 (50 - 7*travel); robot 1 is 2 m closer and wins,
    # robot 0 settles for its best leftover
    assert awards == [(1, 3), (0, 0)]
    assert dtap.claims == {3: 1, 0: 0}
    assert dtap.claim[0] == 0
    assert dtap.claim[1] == 3


def test_auction_connected_bidders_wait_for_group_round():
    g, dtap, robots = _auction_setup([1, 2])
    awards = _hold(dtap, robots, [0.0, 0.0, 0.0, 50.0], group_round=False)
    assert awards == []
    assert dtap.claims == {}


def test_auction_isolated_bidders_self_award_immediately():
    # nodes 0 and 3 are 6 m apart, beyond the 5 m range
    g, dtap, robots = _auction_setup([0, 3])
    awards = _hold(dtap, robots, [0.0, 0.0, 0.0, 50.0], group_round=False)
    assert awards == [(0, 3), (1, 2)]
    assert dtap.claims == {3: 0, 2: 1}


def test_auction_skips_robots_holding_awards():
    g, dtap, robots = _auction_setup([1, 2])
    dtap.claims[0] = 0
    dtap.claim[0] = 0
    awards = _hold(dtap, robots, [0.0, 0.0, 0.0, 50.0], group_round=True)
    assert awards == [(1, 3)]
    assert dtap.claim[0] == 0


def test_auction_no_bidders_is_a_noop():
    g, dtap, robots = _auction_setup([1, 2])
    for i in range(2):
        dtap.claim[i] = i
        dtap.claims[i] = i
    for group_round in (True, False):
        assert _hold(dtap, robots, [0.0] * 4, group_round) == []


def test_dtap_tick_holds_no_auction_while_every_robot_has_a_claim(monkeypatch):
    g, dtap, robots = _auction_setup([1, 2])
    last_visit = [0.0] * 4
    every = dtap.period_ticks
    assert every == 200  # the default 20 s period at dt 0.1
    held = []
    monkeypatch.setattr(
        dtap, "_auction", lambda robots, idleness, group, connected: held.append(group) or []
    )
    dtap.claim[:] = [0, 3]
    dtap.claims.update({0: 0, 3: 1})
    # the hook is never due, so a run calls no tick
    assert dtap.next_tick() == math.inf
    # one claimless robot is enough to hold one, a group round on the period
    dtap.claim[0] = None
    del dtap.claims[0]
    assert dtap.next_tick() == 0
    dtap.tick(every - 1, 19.9, robots, last_visit)
    dtap.tick(every, 20.0, robots, last_visit)
    assert held == [False, True]


def test_dtap_next_tick_is_due_again_once_decide_releases_a_claim():
    g, dtap, robots = _auction_setup([1, 2])
    assert dtap.next_tick() == 0  # no robot holds a claim yet
    last_visit = [20.0, 20.0, 20.0, -30.0]  # at t = 20 only node 3 is idle
    assert dtap.tick(dtap.period_ticks, 20.0, robots, last_visit) == [(1, 3), (0, 0)]
    assert dtap.next_tick() == math.inf
    # robot 1 reaches node 2, which it has not claimed: its claim stands
    _decide(dtap, robot_id=1, node=2)
    assert dtap.next_tick() == math.inf
    # robot 0 reaches its claimed node 0 and decides on: the claim is released
    _decide(dtap, robot_id=0, node=0)
    assert dtap.claim == [None, 3]
    assert dtap.next_tick() == 0


def test_dtap_tick_syncs_poses_to_the_previous_tick():
    # robot 0 leaves node 0 for node 1 on tick 1; by the end of tick 14 it is
    # 1.4 m along, 4.6 m from robot 1 at node 3, so in range: connected
    # robots wait for a group round. At node 0 it would be 6 m away and
    # award itself a task at once.
    g, dtap, robots = _auction_setup([0, 3])
    robots[0].goal = 1
    robots[0].path = [1]
    robots[0].step(g, 1)
    dtap.claim[1] = 0
    dtap.claims[0] = 1
    assert dtap.tick(15, 1.5, robots, [0.0] * g.node_count) == []
    assert robots[0].x == pytest.approx(1.4)
    assert robots[0].offset == pytest.approx(1.4)


def test_dtap_tick_awards_through_the_auction():
    g, dtap, robots = _auction_setup([1, 2])
    last_visit = [50.0, 50.0, 50.0, 0.0]  # at t = 50 only node 3 is idle
    assert dtap.tick(dtap.period_ticks, 50.0, robots, last_visit) == [(1, 3), (0, 0)]
    assert dtap.claim == [0, 3]
    assert dtap.tick(dtap.period_ticks, 50.0, robots, last_visit) == []


def _drifting_apart(dtap_class):
    # robot 1 holds a claim and stays at node 0; claimless robot 0 leaves
    # node 0 on tick 1 along a 10 m edge at 0.1 m a tick, out of the 5 m range
    # about 50 ticks later, long before the group round on tick 200
    g = _path(spacing=10.0)
    dtap = dtap_class(g, _cfg())
    robots = [RobotState.at_node(i, g, 0, stride=0.1) for i in range(2)]
    robots[0].goal = 1
    robots[0].path = [1]
    robots[0].step(g, 1)
    dtap.claim[1] = 2
    dtap.claims[2] = 1
    return g, dtap, robots


def _auctions_until_an_award(dtap, robots):
    """(tick, awards) of each auction, driven as run_one does, up to the first award."""
    held = []
    k = 1
    while not held or not held[-1][1]:
        k = max(k + 1, dtap.next_tick())
        assert k < dtap.period_ticks
        held.append((k, dtap.tick(k, k * 0.1, robots, [0.0] * 3)))
    return held


def test_dtap_waiting_robot_is_auctioned_once_it_drifts_out_of_range():
    g, dtap, robots = _drifting_apart(POLICIES[K.DTAP])
    held = _auctions_until_an_award(dtap, robots)
    every_tick_class = per_tick_dtap_class(POLICIES[K.DTAP], TWO_LOOP_AUCTION)
    _, oracle, oracle_robots = _drifting_apart(every_tick_class)
    every_tick = _auctions_until_an_award(oracle, oracle_robots)
    # the same award on the same tick: the first whose poses are out of range
    assert held[-1] == every_tick[-1] == (every_tick[-1][0], [(0, 1)])
    assert robots[0].x > 5.0
    assert [k for k, _ in every_tick] == list(range(2, held[-1][0] + 1))
    # each wait is the bound's: the peer's distance after tick k - 1, less the
    # range and the margin, over twice the farthest a robot moves in a tick
    closing = 2.0 * max_step(g, 1.0, 0.1)
    for (k, _), (later, _) in zip(held, held[1:]):
        gap = 5.0 - robots[0]._offs[k - 1 - robots[0]._base] - 1e-6
        assert later == k + max(0, math.floor(gap / closing)) + 1
    assert len(held) < 12


def test_dtap_isolated_robot_with_nothing_to_claim_is_auctioned_again_next_tick():
    # robots 1 and 2 hold nodes 0 and 2, 10 m either side of claimless robot 0;
    # at node 1 it has nothing left to claim, but once it leaves node 1 it has
    g = _path(spacing=10.0)
    dtap = _policy(K.DTAP, g, 3)
    robots = [RobotState.at_node(i, g, node, stride=0.1) for i, node in enumerate([1, 0, 2])]
    dtap.claim[1:] = [0, 2]
    dtap.claims.update({0: 1, 2: 2})
    assert dtap.tick(1, 0.1, robots, [0.0] * 3) == []
    assert dtap.next_tick() == 2
    robots[0].goal = 0
    robots[0].path = [0]
    robots[0].step(g, 1)
    assert dtap.tick(2, 0.2, robots, [0.0] * 3) == [(0, 1)]


def test_dtap_waiting_robots_far_inside_the_range_skip_to_the_group_round():
    g = _path(spacing=2.0, n=4)
    dtap = _policy(K.DTAP, g, 2, comm_range=1000.0)
    robots = [RobotState.at_node(i, g, i + 1, stride=0.1) for i in range(2)]
    assert dtap.tick(1, 0.1, robots, [0.0] * 4) == []
    # 2 m apart, they need about 4990 ticks to part, and the round is on tick 200
    assert dtap.next_tick() == dtap.period_ticks
    assert dtap.tick(dtap.period_ticks, 20.0, robots, [0.0] * 4) != []
    assert dtap.next_tick() == math.inf


def test_nearest_peer_sq_is_the_auction_range_test():
    g = _path(spacing=3.0, n=4)
    # robots 0 and 2 meet their nearest peer last in the pair order, not first
    robots = [RobotState.at_node(i, g, node, stride=0.1) for i, node in enumerate([3, 0, 1])]
    assert nearest_peer_sq(robots) == [36.0, 9.0, 9.0]
    assert nearest_peer_sq(robots[:1]) == [None]
    # a lone robot has no peer in range, however far the radio reaches, so
    # it awards itself a task off the group round
    lone = _policy(K.DTAP, g, 1, comm_range=math.inf)
    assert lone.tick(1, 0.1, robots[:1], [0.0] * 4) == [(0, 2)]
    # a peer exactly the range away is in range, one a hair beyond it is not
    for comm_range, awards in [(3.0, []), (math.nextafter(3.0, 0.0), [(0, 1), (1, 0)])]:
        pair = [RobotState.at_node(i, g, node, stride=0.1) for i, node in enumerate([0, 1])]
        dtap = _policy(K.DTAP, g, 2, comm_range=comm_range)
        assert dtap.tick(1, 0.1, pair, [0.0] * 4) == awards


@pytest.mark.parametrize("comm_range", [math.inf, 1e308])
def test_dtap_waiting_robots_with_an_unbounded_range_wait_for_the_group_round(comm_range):
    # (range - D) / (2 * max_step) is infinite, so no tick before the round can part them
    g = _path(spacing=2.0, n=4)
    dtap = _policy(K.DTAP, g, 2, comm_range=comm_range)
    robots = [RobotState.at_node(i, g, i + 1, stride=0.1) for i in range(2)]
    assert dtap.tick(1, 0.1, robots, [0.0] * 4) == []
    assert dtap.next_tick() == dtap.period_ticks
    # alone, a robot is auctioned again on the next tick until it holds a claim
    lone = _policy(K.DTAP, g, 1, comm_range=comm_range)
    lone.claims[0] = 1  # every node but its own claimed, as by robots it cannot hear
    lone.claims[2] = 1
    lone.claims[3] = 1
    assert lone.tick(1, 0.1, robots[:1], [0.0] * 4) == []
    assert lone.next_tick() == 2


@st.composite
def _maps_and_poses(draw, max_robots=4):
    """A random connected map, some edges shorter than the straight line, and robot poses on it."""
    m = draw(st.integers(2, 8))
    coords = [(draw(st.floats(0.0, 40.0)), draw(st.floats(0.0, 40.0))) for _ in range(m)]
    links = {(draw(st.integers(0, v - 1)), v) for v in range(1, m)}
    for _ in range(draw(st.integers(0, m))):
        a, b = sorted(draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)))
        links.add((a, b))
    edges = []
    for a, b in sorted(links):
        factor = draw(st.sampled_from([1.0, 1.0, 0.2, 0.5, 0.9, 1.7]))
        edges.append((a, b, max(math.dist(coords[a], coords[b]) * factor, 0.5)))
    g = PatrolGraph(coords, edges)
    robots = []
    for _ in range(draw(st.integers(1, max_robots))):
        a = draw(st.integers(0, m - 1))
        r = RobotState.at_node(len(robots), g, a, stride=draw(st.floats(0.01, 0.5)))
        if draw(st.booleans()):
            r.goal = g.neighbors(a)[draw(st.integers(0, len(g.neighbors(a)) - 1))][0]
            r.path = [r.goal]
            r.step(g, 1)
            if r.edge is not None:
                r.sync(draw(st.integers(1, r.due - 1)))
        robots.append(r)
    return g, robots


@settings(max_examples=150, deadline=None)
@given(case=_maps_and_poses())
def test_distance_rows_equal_shortest_paths_and_travel_distance(case):
    g, robots = case
    for a in range(g.node_count):
        row = g.distances(a)
        assert row is g.distances(a)  # built once
        # bit for bit, not approximately
        assert list(row) == [g.shortest_path(a, b)[1] for b in range(g.node_count)]
        assert [shortest_distance(g, a, b) for b in range(g.node_count)] == list(row)
    for r in robots:
        want = [travel_distance(r, g, v) for v in range(g.node_count)]
        assert list(travel_distances(r, g)) == want


@st.composite
def _auction_states(draw):
    """One DTAP tick k on a random fleet: a range, claims held by some robots, and idleness.

    Robots stand on nodes or mid-edge, poses synced to k - 1. The range is
    often exactly some robot's nearest-peer distance, and the period makes k
    a group round or the tick before one.
    """
    g, robots = draw(_maps_and_poses(max_robots=8))
    k = 1 + draw(st.integers(1, min((r.due - 1 for r in robots if r.edge is not None), default=50)))
    for r in robots:
        r.sync(k - 1)
    gaps = [math.sqrt(d2) for d2 in nearest_peer_sq(robots) if d2 is not None]
    comm_range = draw(
        st.one_of(st.sampled_from([0.0, 1e308, math.inf, *gaps]), st.floats(0.0, 60.0))
    )
    period = k if draw(st.booleans()) else k + 1
    claims = {}
    for r in robots:
        free = [v for v in range(g.node_count) if v not in claims]
        if free and draw(st.integers(0, 4)) < 2:
            claims[draw(st.sampled_from(free))] = r.id
    last_visit = [
        draw(st.one_of(st.sampled_from([0.0, -5.0]), st.floats(-100.0, float(k))))
        for _ in range(g.node_count)
    ]
    weight = draw(st.sampled_from([0.5, 7.0, 20.0]))
    return g, robots, comm_range, period, k, claims, last_visit, weight


@settings(max_examples=300, deadline=None)
@given(case=_auction_states())
def test_dtap_tick_awards_as_the_two_loop_auction(case):
    g, robots, comm_range, period, k, claims, last_visit, weight = case
    # a range of 0, which ExperimentConfig rejects, is drawn too, so the
    # policies get a plain namespace with the fields they read
    cfg = SimpleNamespace(
        n_robots=len(robots),
        comm_range=comm_range,
        speed=1.0,
        dt=1.0,
        dtap_period_s=float(period),
        task_distance_weight=weight,
    )
    dtap, ref = [
        cls(g, cfg)
        for cls in (POLICIES[K.DTAP], per_tick_dtap_class(POLICIES[K.DTAP], TWO_LOOP_AUCTION))
    ]
    for policy in (dtap, ref):
        assert policy.period_ticks == period
        policy.claims.update(claims)
        for v, i in claims.items():
            policy.claim[i] = v
    awards = dtap.tick(k, float(k), robots, last_visit)
    assert awards == ref.tick(k, float(k), robots, last_visit)
    assert dtap.claims == ref.claims
    assert dtap.claim == ref.claim


# ---------------------------------------------------------------------------
# shared sanity across every policy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(K))
def test_every_policy_returns_a_valid_move(kind, default_graph):
    g = default_graph
    policy = _policy(kind, g, 4)
    idleness = [float((v * 13) % 29) for v in range(g.node_count)]
    for robot_id in range(4):
        node = robot_id * 7 % g.node_count
        goal = _decide(
            policy,
            robot_id=robot_id,
            node=node,
            idleness=idleness,
            rng=RngStream(11, "strategy", robot_id),
        )
        assert 0 <= goal < g.node_count
        assert goal != node


def test_decide_next_rejects_an_invalid_goal():
    class Stay(POLICIES[K.CR]):
        def decide(self, robot_id, node, t, last_visit, rng):
            return node

    with pytest.raises(AssertionError, match="Stay chose invalid goal 1 from node 1"):
        _decide(Stay(_star(), _cfg(1)), node=1)


# the policies whose decisions draw from their strategy streams, written out
# rather than read from the classes' declarations
_DRAWING = {K.RAND, K.CBLS}


class _CountingStream(RngStream):
    """A strategy stream that counts the calls that draw from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def index(self, n):
        self.draws += n > 1  # index(1) draws nothing
        return super().index(n)


def test_the_declared_drawing_policies_are_the_expected_ones():
    assert {kind for kind in K if POLICIES[kind].draws} == _DRAWING


@settings(max_examples=150, deadline=None)
@given(case=_maps_and_poses(), epsilon=st.sampled_from([0.0, 0.2]), data=st.data())
def test_only_the_declared_policies_draw(case, epsilon, data):
    g, robots = case
    n = len(robots)
    policies = {kind: _policy(kind, g, n, cbls_epsilon=epsilon) for kind in K}
    seed = data.draw(st.integers(0, 99))
    streams = {kind: [_CountingStream(seed, "strategy", i) for i in range(n)] for kind in _DRAWING}
    # each robot decides at the goal its last decision chose, as in a run
    starts = data.draw(st.lists(st.integers(0, g.node_count - 1), min_size=n, max_size=n))
    at = {kind: list(starts) for kind in K}
    for _ in range(data.draw(st.integers(1, 20))):
        i = data.draw(st.integers(0, n - 1))
        t = data.draw(st.floats(0.0, 100.0))
        last_visit = data.draw(
            st.lists(st.floats(-100.0, t), min_size=g.node_count, max_size=g.node_count)
        )
        for kind, policy in policies.items():
            node = at[kind][i]
            policy.visited(i, node, t - last_visit[node])
            rng = streams[kind][i] if kind in _DRAWING else None
            before = rng.draws if rng is not None else 0
            at[kind][i] = decide_next(policy, i, node, t, last_visit, rng)
            if kind is K.CBLS or (kind is K.RAND and len(g.neighbors(node)) > 1):
                assert rng.draws > before
