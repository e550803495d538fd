"""World state: seeded RNG streams, motion along edges, idleness, and sensing at a visit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import edge_plan, pack, per_tick_robot_class, unpack
from swarmpatrol import world
from swarmpatrol.beliefs import sense, single_anomaly
from swarmpatrol.graph import PatrolGraph, parse_map
from swarmpatrol.metrics import ConsensusTracker
from swarmpatrol.strategies import retarget
from swarmpatrol.world import (
    IdlenessTracker,
    MotionTables,
    RngStream,
    RobotState,
    max_step,
    sample_ticks,
)

F, U, T = 0, 1, 2  # half-units of truth


def _line_graph():
    # three collinear nodes, 5 m apart
    return parse_map("node 0 0 0\nnode 1 5 0\nnode 2 10 0\nedge 0 1\nedge 1 2\n")


# ---------------------------------------------------------------------------
# rng streams
# ---------------------------------------------------------------------------


def test_rng_stream_is_reproducible():
    a = RngStream(123, "sense", 4)
    b = RngStream(123, "sense", 4)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    assert [a.index(10) for _ in range(5)] == [b.index(10) for _ in range(5)]


def test_rng_stream_separates_purpose_robot_and_seed():
    base = [RngStream(123, "sense", 4).random() for _ in range(4)]
    assert [RngStream(123, "strategy", 4).random() for _ in range(4)] != base
    assert [RngStream(123, "sense", 5).random() for _ in range(4)] != base
    assert [RngStream(124, "sense", 4).random() for _ in range(4)] != base


def test_rng_index_range():
    rng = RngStream(0, "strategy")
    draws = [rng.index(3) for _ in range(200)]
    assert set(draws) <= {0, 1, 2}
    assert len(set(draws)) == 3


def _stream_of_seed(seed):
    """An RngStream whose label hashes to seed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(world, "label_seed", lambda label: seed)
        return RngStream(0, "oracle")


# seeds at the 32- and 64-bit word edges; ranges on each side of Lemire's
# 32-bit path (n == 1 draws nothing, 2**32 takes one 32-bit draw unbounded)
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]
_RANGES = [1, 2, 3, 40, 2**31 + 1, 2**32]


@settings(max_examples=400, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**32), st.integers(0, 2**64 - 1)),
    calls=st.lists(st.one_of(st.none(), st.sampled_from(_RANGES)), max_size=40),
)
def test_rng_stream_draws_numpys_default_rng(seed, calls):
    ours, ref = _stream_of_seed(seed), np.random.default_rng(seed)
    for n in calls:
        if n is None:
            assert ours.random() == ref.random()
        else:
            assert ours.index(n) == ref.integers(n)


def test_rng_stream_is_numpys_stream_of_its_label():
    for label in [(0, "sense", 0), (123, "strategy", 7), (2**64 - 1, "sense", 1023)]:
        ours = RngStream(*label)
        ref = np.random.default_rng(world.label_seed("|".join(map(str, label))))
        assert [ours.random() for _ in range(3)] == [ref.random() for _ in range(3)]
        assert [ours.index(5) for _ in range(3)] == [ref.integers(5) for _ in range(3)]


def test_rng_index_of_one_draws_nothing():
    rng, ref = RngStream(3, "strategy", 2), RngStream(3, "strategy", 2)
    assert [rng.index(1) for _ in range(4)] == [0, 0, 0, 0]
    assert rng.index(7) == ref.index(7)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**64])
def test_rng_index_outside_its_range_raises(n):
    with pytest.raises(ValueError):
        RngStream(0, "strategy").index(n)


# ---------------------------------------------------------------------------
# world state
# ---------------------------------------------------------------------------


def test_single_anomaly_truth_vector():
    w = single_anomaly(5, 3)
    assert w == pack([F, F, F, T, F])
    assert unpack(w, 5) == [F, F, F, T, F]
    assert single_anomaly(1, 0) == pack([T])


# ---------------------------------------------------------------------------
# sensing
# ---------------------------------------------------------------------------


def test_sense_is_exact_at_zero_noise():
    w = single_anomaly(4, 2)
    rng = RngStream(9, "sense", 0)
    assert all(sense(w, v, 0.0, rng) is (v == 2) for v in range(4) for _ in range(5))


def test_sense_always_flips_at_full_noise():
    w = single_anomaly(4, 2)
    rng = RngStream(9, "sense", 0)
    assert all(sense(w, v, 1.0, rng) is (v != 2) for v in range(4))


def test_sense_consumes_exactly_one_draw():
    w = single_anomaly(4, 2)
    rng = RngStream(9, "sense", 0)
    ref = RngStream(9, "sense", 0)
    ref.random()
    sense(w, 0, 0.0, rng)
    assert rng.random() == ref.random()


def test_sense_flip_rate_tracks_noise():
    w = single_anomaly(2, 1)
    rng = RngStream(11, "sense", 0)
    flips = sum(1 for _ in range(4000) if sense(w, 0, 0.25, rng))
    assert 0.20 < flips / 4000 < 0.30


# ---------------------------------------------------------------------------
# motion
# ---------------------------------------------------------------------------


def _to_tick(r, g, k):
    """Bring r to tick k: step it if k is its due tick, then sync its pose."""
    arrived = r.step(g, k) if r.due == k else None
    r.sync(k)
    return arrived


def test_advance_interpolates_and_arrives():
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, stride=0.1)
    r.goal = 1
    r.path = [1]
    assert r.step(g, 1) is None  # departs
    assert r.due == 50  # the 50th tick covers the last meter
    for k in range(1, 50):
        r.sync(k)
        assert r.x == pytest.approx(0.1 * k)
        assert r.y == 0.0
    assert r.step(g, 50) == 1
    assert r.node == 1
    assert r.edge is None
    assert (r.x, r.y) == (5.0, 0.0)
    assert r.path == []
    assert r.due == 51


def test_advance_clips_overshoot():
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, stride=4.7)
    r.goal = 1
    r.path = [1]
    assert r.step(g, 1) is None
    assert r.due == 2
    assert r.step(g, 2) == 1  # 9.4 m of travel collapses onto the 5 m node
    assert (r.x, r.y) == (5.0, 0.0)


def test_advance_identity_arrival_at_goal():
    g = _line_graph()
    r = RobotState.at_node(0, g, 1, stride=0.1)
    assert r.due == 1
    assert r.step(g, 1) == 1
    assert (r.x, r.y) == (5.0, 0.0)
    assert r.due == 2


def test_advance_pops_path_head_on_arrival():
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, stride=0.1)
    r.goal = 2
    r.path = [1, 2]
    assert r.step(g, 1) is None
    assert r.due == 50
    assert r.step(g, 50) == 1
    assert r.path == [2]
    assert r.step(g, 51) is None
    assert r.due == 100
    assert r.step(g, 100) == 2
    assert r.path == []


def test_departure_and_arrival_on_one_tick():
    # a tick's travel covers the whole edge
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, stride=5.0)
    r.goal = 1
    r.path = [1]
    assert r.step(g, 7) == 1
    assert r.due == 8


def test_reverse_edge_remeasures_offset():
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, stride=0.1)
    r.goal = 1
    r.path = [1]
    r.step(g, 1)
    r.reverse_edge(g, 21)  # turns round from where tick 20 left it
    assert r.edge == (1, 0)
    assert r.offset == pytest.approx(3.0)
    assert (r.x, r.y) == (pytest.approx(2.0), 0.0)
    assert r.due == 40  # 2 m back at 0.1 m a tick


def test_long_crossing_is_planned_in_pieces(monkeypatch):
    monkeypatch.setattr(world, "_PLAN_TICKS", 7)
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, stride=0.1)
    r.goal = 1
    r.path = [1]
    dues = []
    for k in range(1, 51):
        if r.due == k:
            dues.append(k)
        _to_tick(r, g, k)
        if r.node is None:
            assert r.x == pytest.approx(0.1 * k)
    assert dues == [1, 7, 14, 21, 28, 35, 42, 49, 50]
    assert r.node == 1


def test_max_step_bounds_travel_in_the_plane():
    # edge 0-1 spans 100 m of the plane but is 10 m long on the map, so a
    # robot there covers 10 m of the plane per meter of travel; edge 1-2 is
    # 20 m long for a 5 m span and stretches nothing
    g = parse_map(
        "node 0 0 0\nnode 1 100 0\nnode 2 100 5\nedge 0 1 10\nedge 1 2 20\n"
    )
    step = max_step(g, 1.0, 0.1)
    assert step == pytest.approx(10 * (0.1 + 1e-9))
    assert max_step(_line_graph(), 1.0, 0.1) == 0.1 + 1e-9
    r = RobotState.at_node(0, g, 0, stride=0.1)
    r.goal = 2
    r.path = [1, 2]
    moves = []
    k = 0
    while r.node != 2:
        k += 1
        x, y = r.x, r.y
        _to_tick(r, g, k)
        moves.append(math.hypot(r.x - x, r.y - y))
    assert len(moves) == 100 + 200
    assert max(moves) <= step
    assert max(moves) == pytest.approx(1.0)


PerTickRobot = per_tick_robot_class(RobotState)


@st.composite
def _motion_case(draw):
    """A random connected map, some edges shorter than the straight line, and a walk on it."""
    m = draw(st.integers(3, 7))
    coords = [
        (draw(st.floats(0.0, 40.0)), draw(st.floats(0.0, 40.0))) for _ in range(m)
    ]
    links = {(draw(st.integers(0, v - 1)), v) for v in range(1, m)}
    for _ in range(draw(st.integers(0, m))):
        a, b = sorted(draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)))
        links.add((a, b))
    edges = []
    for a, b in sorted(links):
        span = math.dist(coords[a], coords[b])
        factor = draw(st.sampled_from([1.0, 1.0, 0.2, 0.5, 0.9, 1.7]))
        edges.append((a, b, max(span * factor, 0.5)))
    g = PatrolGraph(coords, edges)
    shortest = min(d for _, _, d in g.edges)
    # a stride may also underflow to nothing, and then no robot ever arrives
    stride = draw(st.floats(0.01, 1.0) | st.sampled_from([0.0, 5e-324, 1e-300])) * shortest
    start = draw(st.integers(0, m - 1))
    goals = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8))
    ticks = draw(st.integers(1, 400))
    retargets = draw(st.dictionaries(st.integers(2, ticks + 1), st.integers(0, m - 1), max_size=12))
    plan_ticks = draw(st.sampled_from([1, 2, 5, world._PLAN_TICKS]))
    return g, stride, start, goals, ticks, retargets, plan_ticks


@settings(max_examples=150, deadline=None)
@given(case=_motion_case())
def test_event_motion_matches_per_tick_oracle(case):
    g, stride, start, goals, ticks, retargets, plan_ticks = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(world, "_PLAN_TICKS", plan_ticks)
        event = RobotState.at_node(0, g, start, stride)
        oracle = PerTickRobot.at_node(0, g, start, stride)
        decisions = 0
        for k in range(1, ticks + 1):
            if k in retargets:
                for r in (event, oracle):
                    retarget(r, g, retargets[k], k)
            got = _to_tick(event, g, k)
            want = oracle.step(g, k)
            assert got == want, k
            assert (event.node, event.edge, event.path) == (oracle.node, oracle.edge, oracle.path)
            assert (event.x, event.y, event.offset) == (oracle.x, oracle.y, oracle.offset), k
            if got is not None and got == event.goal:
                goal = goals[decisions % len(goals)]
                decisions += 1
                if goal == got:
                    goal = (goal + 1) % g.node_count
                for r in (event, oracle):
                    r.goal = goal
                    r.path = g.shortest_path(got, goal)[0][1:]


def _bits(*xs):
    return [float(x).hex() for x in xs]


@settings(max_examples=150, deadline=None)
@given(case=_motion_case())
def test_motion_tables_equal_each_robot_planning_alone(case):
    g, stride, _, _, _, _, plan_ticks = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(world, "_PLAN_TICKS", plan_ticks)
        tables = MotionTables(g, stride)
        longest = 0
        for a, b, _ in g.edges:
            for u, v in ((a, b), (b, a)):
                start, unit, length, crossing, offs = edge_plan(g, u, v, stride, plan_ticks)
                longest = max(longest, len(offs))
                plan = tables.edge(u, v)
                assert tables.edge(u, v) is plan  # worked out once
                edge, sx, sy, ux, uy, got_length, got_crossing = plan
                assert edge == (u, v)
                assert _bits(sx, sy, ux, uy, got_length) == _bits(*start, *unit, length)
                assert got_crossing == crossing
                assert _bits(*tables.offsets[: len(offs)]) == _bits(*offs)
                # a robot leaving u reads the same plan off the shared tables
                r = RobotState.at_node(0, g, u, stride, tables)
                r.enter_edge(v, 10)
                assert (r.edge, r.node, r.due, r._base) == ((u, v), None, 9 + crossing, 9)
                assert r._offs is tables.offsets
                assert _bits(r.offset, r._sx, r._sy, r._ux, r._uy, r._edge_len) == _bits(
                    0.0, *start, *unit, length
                )
        # the shared table holds no more than the longest edge's own table
        assert len(tables.offsets) == longest


def test_motion_tables_belong_to_one_map_and_stride():
    g = _line_graph()
    tables = MotionTables(g, 0.1)
    assert RobotState.at_node(0, g, 0, 0.1, tables)._tables is tables
    with pytest.raises(ValueError, match="another map or stride"):
        RobotState.at_node(0, g, 0, 0.2, tables)
    with pytest.raises(ValueError, match="another map or stride"):
        RobotState.at_node(0, _line_graph(), 0, 0.1, tables)
    # a robot given no tables builds its own
    r, s = (RobotState.at_node(i, g, 0, 0.1) for i in range(2))
    assert r._tables is not s._tables
    assert r._tables.offsets == tables.offsets


@st.composite
def _fleet_motion_case(draw):
    """_motion_case's map, stride and cap; a few robots; retargets that often turn one round."""
    g, stride, _, _, ticks, _, plan_ticks = draw(_motion_case())
    m = g.node_count
    n = draw(st.integers(2, 5))
    node = st.integers(0, m - 1)
    starts = draw(st.lists(node, min_size=n, max_size=n))
    goals = draw(st.lists(st.lists(node, min_size=1, max_size=6), min_size=n, max_size=n))
    # None sends a robot back to the node its edge started from
    retargets = draw(
        st.dictionaries(
            st.integers(2, ticks + 1),
            st.tuples(st.integers(0, n - 1), st.none() | node),
            max_size=16,
        )
    )
    return g, stride, starts, goals, ticks, retargets, plan_ticks


@settings(max_examples=150, deadline=None)
@given(case=_fleet_motion_case())
def test_fleet_sharing_motion_tables_matches_per_tick_oracles(case):
    g, stride, starts, goals, ticks, retargets, plan_ticks = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(world, "_PLAN_TICKS", plan_ticks)
        tables = MotionTables(g, stride)
        shared = list(tables.offsets)
        fleet = [RobotState.at_node(i, g, s, stride, tables) for i, s in enumerate(starts)]
        oracles = [PerTickRobot.at_node(i, g, s, stride) for i, s in enumerate(starts)]
        decisions = [0] * len(fleet)
        for k in range(1, ticks + 1):
            if k in retargets:
                i, goal = retargets[k]
                if goal is None:
                    goal = fleet[i].node if fleet[i].edge is None else fleet[i].edge[0]
                for r in (fleet[i], oracles[i]):
                    retarget(r, g, goal, k)
            for i, (event, oracle) in enumerate(zip(fleet, oracles)):
                got = _to_tick(event, g, k)
                want = oracle.step(g, k)
                assert got == want, (i, k)
                assert (event.node, event.edge, event.path) == (
                    oracle.node, oracle.edge, oracle.path
                ), (i, k)
                pose = (event.x, event.y, event.offset)
                assert pose == (oracle.x, oracle.y, oracle.offset), (i, k)
                if got is not None and got == event.goal:
                    own = goals[i]
                    goal = own[decisions[i] % len(own)]
                    decisions[i] += 1
                    if goal == got:
                        goal = (goal + 1) % g.node_count
                    for r in (event, oracle):
                        r.goal = goal
                        r.path = g.shortest_path(got, goal)[0][1:]
        assert all(r._tables is tables for r in fleet)
        assert _bits(*tables.offsets) == _bits(*shared)


# ---------------------------------------------------------------------------
# idleness
# ---------------------------------------------------------------------------


def test_idleness_tracker_visit_resets():
    tr = IdlenessTracker(3)
    assert 10.0 - tr.last_visit[0] == 10.0
    tr.last_visit[0] = 10.0
    assert 10.0 - tr.last_visit[0] == 0.0
    assert 14.5 - tr.last_visit[0] == 4.5
    assert 14.5 - tr.last_visit[1] == 14.5


def test_idleness_tracker_average_of_samples():
    tr = IdlenessTracker(2)
    tr.last_visit[0] = 1.0
    tr.sample(2.0)  # node means: (1 + 2) / 2 = 1.5
    tr.sample(4.0)  # (3 + 4) / 2 = 3.5
    assert tr.average() == pytest.approx((1.5 + 3.5) / 2)


def test_idleness_tracker_average_empty_is_zero():
    assert IdlenessTracker(4).average() == 0.0


@pytest.mark.parametrize("dt", [0.05, 0.1, 0.25, 0.5, 1 / 3, 1.0, 1 / 7, 0.01])
def test_sample_ticks_every_whole_second_when_one_over_dt_is_whole(dt):
    # the rule they replace: every round(1 / dt)-th tick
    ticks = int(round(400.0 / dt))
    every = round(1.0 / dt)
    assert list(sample_ticks(dt, ticks)) == [k for k in range(1, ticks + 1) if k % every == 0]


def _nearest_ticks(dt, ticks):
    """{round(s / dt) : s = 1, 2, ...} within 1..ticks, by brute force."""
    return sorted({round(s / dt) for s in range(1, int(ticks * dt) + 3)} & set(range(1, ticks + 1)))


@pytest.mark.parametrize("dt", [0.3, 0.7, 0.15, 1.0, 1.5, 2.0, 3.7])
def test_sample_ticks_are_the_ticks_nearest_each_second(dt):
    for ticks in (0, 1, 2, 3, 10, 333, 1000):
        assert list(sample_ticks(dt, ticks)) == _nearest_ticks(dt, ticks)


def test_sample_ticks_at_dt_three_tenths_keep_one_hertz():
    # every third tick would sample each 0.9 s, 400 times in 360 s
    got = list(sample_ticks(0.3, 1200))
    assert got[:7] == [3, 7, 10, 13, 17, 20, 23]
    assert len(got) == 360
    assert [k * 0.3 for k in got] == pytest.approx(range(1, 361), abs=0.15 + 1e-9)


def test_graph_idleness_mean():
    tr = IdlenessTracker(4)
    tr.last_visit[2] = 6.0
    tr.sample(8.0)
    assert tr.average() == pytest.approx((8.0 + 8.0 + 2.0 + 8.0) / 4)


# ---------------------------------------------------------------------------
# visit
# ---------------------------------------------------------------------------


def test_sensed_updates_and_returns_the_robots_belief():
    w = single_anomaly(3, 1)
    tracker = ConsensusTracker(w, 1, 1.0)
    rng = RngStream(3, "sense", 0)
    held = tracker.sensed(7.0, 0, 1, sense(w, 1, 0.0, rng))
    assert unpack(held, 3)[1] == T
    assert tracker.vectors == [held]
    assert tracker.sensed(7.0, 0, 0, sense(w, 0, 0.0, rng)) == pack([F, T, U])
    assert tracker.vectors == [pack([F, T, U])]


def test_visit_contrary_reading_softens_belief():
    w = single_anomaly(3, 1)
    tracker = ConsensusTracker(w, 1, 1.0)
    tracker.sensed(0.0, 0, 1, False)  # misled
    assert tracker.vectors == [pack([U, F, U])]
    rng = RngStream(3, "sense", 0)
    held = tracker.sensed(1.0, 0, 1, sense(w, 1, 0.0, rng))
    assert unpack(held, 3)[1] == U  # true reading against false prior


def test_visit_by_one_robot_leaves_another_unchanged():
    # robots start with equal vectors, and an exchange leaves both holding
    # the same one; a visit replaces the visiting robot's vector only
    w = single_anomaly(3, 1)
    tracker = ConsensusTracker(w, 2, 1.0)
    vectors = tracker.vectors
    rng = RngStream(3, "sense", 0)
    tracker.sensed(1.0, 0, 1, sense(w, 1, 0.0, rng))
    assert vectors[1] == pack([U, U, U])
    tracker.exchanged(1.0, [(0, 1)])
    assert vectors[0] is vectors[1]
    tracker.sensed(2.0, 0, 0, sense(w, 0, 0.0, rng))
    assert vectors[0] == pack([F, T, U])
    assert vectors[1] == pack([U, T, U])
