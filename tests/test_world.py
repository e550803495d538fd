"""World state: seeded RNG streams, motion along edges, sensing, idleness."""

import math

import pytest

from swarmpatrol.beliefs import Belief
from swarmpatrol.graph import parse_map
from swarmpatrol.world import (
    IdlenessTracker,
    RngStream,
    RobotState,
    WorldState,
    advance,
    max_step,
    sense,
    visit,
)

F, U, T = Belief.FALSE, Belief.UNCERTAIN, Belief.TRUE


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


# ---------------------------------------------------------------------------
# world state
# ---------------------------------------------------------------------------


def test_single_anomaly_truth_vector():
    w = WorldState.single_anomaly(5, 3)
    assert w.truth == [False, False, False, True, False]
    assert w.anomaly_node == 3


def test_single_anomaly_rejects_bad_node():
    with pytest.raises(ValueError):
        WorldState.single_anomaly(5, 5)
    with pytest.raises(ValueError):
        WorldState.single_anomaly(5, -1)


# ---------------------------------------------------------------------------
# sensing
# ---------------------------------------------------------------------------


def test_sense_is_exact_at_zero_noise():
    w = WorldState.single_anomaly(4, 2)
    rng = RngStream(9, "sense", 0)
    assert all(sense(w, v, 0.0, rng) == w.truth[v] for v in range(4) for _ in range(5))


def test_sense_always_flips_at_full_noise():
    w = WorldState.single_anomaly(4, 2)
    rng = RngStream(9, "sense", 0)
    assert all(sense(w, v, 1.0, rng) == (not w.truth[v]) for v in range(4))


def test_sense_consumes_exactly_one_draw():
    w = WorldState.single_anomaly(4, 2)
    rng = RngStream(9, "sense", 0)
    ref = RngStream(9, "sense", 0)
    ref.random()
    sense(w, 0, 0.0, rng)
    assert rng.random() == ref.random()


def test_sense_flip_rate_tracks_noise():
    w = WorldState.single_anomaly(2, 1)
    rng = RngStream(11, "sense", 0)
    flips = sum(1 for _ in range(4000) if sense(w, 0, 0.25, rng))
    assert 0.20 < flips / 4000 < 0.30


# ---------------------------------------------------------------------------
# motion
# ---------------------------------------------------------------------------


def test_advance_interpolates_and_arrives():
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, speed=1.0)
    r.goal = 1
    r.path = [1]
    for k in range(1, 50):
        assert advance(r, g, 0.1) is None
        assert r.x == pytest.approx(0.1 * k)
        assert r.y == 0.0
    assert advance(r, g, 0.1) == 1  # 50th tick covers the last meter
    assert r.node == 1
    assert r.edge is None
    assert (r.x, r.y) == (5.0, 0.0)
    assert r.path == []


def test_advance_clips_overshoot():
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, speed=1.0)
    r.goal = 1
    r.path = [1]
    assert advance(r, g, 4.7) is None
    assert advance(r, g, 4.7) == 1  # 9.4 m of travel collapses onto the 5 m node
    assert (r.x, r.y) == (5.0, 0.0)


def test_advance_identity_arrival_at_goal():
    g = _line_graph()
    r = RobotState.at_node(0, g, 1, speed=1.0)
    assert advance(r, g, 0.1) == 1
    assert (r.x, r.y) == (5.0, 0.0)


def test_advance_pops_path_head_on_arrival():
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, speed=1.0)
    r.goal = 2
    r.path = [1, 2]
    for _ in range(49):
        advance(r, g, 0.1)
    assert advance(r, g, 0.1) == 1
    assert r.path == [2]
    for _ in range(49):
        advance(r, g, 0.1)
    assert advance(r, g, 0.1) == 2
    assert r.path == []


def test_reverse_edge_remeasures_offset():
    g = _line_graph()
    r = RobotState.at_node(0, g, 0, speed=1.0)
    r.goal = 1
    r.path = [1]
    for _ in range(20):
        advance(r, g, 0.1)
    assert r.offset == pytest.approx(2.0)
    r.reverse_edge(g)
    assert r.edge == (1, 0)
    assert r.offset == pytest.approx(3.0)
    assert (r.x, r.y) == (pytest.approx(2.0), 0.0)


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
    r = RobotState.at_node(0, g, 0, speed=1.0)
    r.goal = 2
    r.path = [1, 2]
    moves = []
    while r.node != 2:
        x, y = r.x, r.y
        advance(r, g, 0.1)
        moves.append(math.hypot(r.x - x, r.y - y))
    assert len(moves) == 100 + 200
    assert max(moves) <= step
    assert max(moves) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# idleness
# ---------------------------------------------------------------------------


def test_idleness_tracker_visit_resets():
    tr = IdlenessTracker(3)
    assert tr.idleness(0, 10.0) == 10.0
    tr.record_visit(0, 10.0)
    assert tr.idleness(0, 10.0) == 0.0
    assert tr.idleness(0, 14.5) == 4.5
    assert tr.idleness(1, 14.5) == 14.5


def test_idleness_tracker_average_of_samples():
    tr = IdlenessTracker(2)
    tr.record_visit(0, 1.0)
    tr.sample(2.0)  # node means: (1 + 2) / 2 = 1.5
    tr.sample(4.0)  # (3 + 4) / 2 = 3.5
    assert tr.average() == pytest.approx((1.5 + 3.5) / 2)


def test_idleness_tracker_average_empty_is_zero():
    assert IdlenessTracker(4).average() == 0.0


def test_graph_idleness_mean():
    tr = IdlenessTracker(4)
    tr.record_visit(2, 6.0)
    tr.sample(8.0)
    assert tr.average() == pytest.approx((8.0 + 8.0 + 2.0 + 8.0) / 4)


# ---------------------------------------------------------------------------
# visit
# ---------------------------------------------------------------------------


def test_visit_updates_belief_and_idleness():
    g = _line_graph()
    w = WorldState.single_anomaly(3, 1)
    tr = IdlenessTracker(3)
    r = RobotState.at_node(0, g, 1, speed=1.0)
    rng = RngStream(3, "sense", 0)
    assert visit(r, tr, w, 1, 7.0, 0.0, rng) is T
    assert r.beliefs[1] is T
    assert tr.idleness(1, 7.0) == 0.0
    assert visit(r, tr, w, 0, 7.0, 0.0, rng) is F
    assert r.beliefs == [F, T, U]


def test_visit_contrary_reading_softens_belief():
    g = _line_graph()
    w = WorldState.single_anomaly(3, 1)
    tr = IdlenessTracker(3)
    r = RobotState.at_node(0, g, 1, speed=1.0)
    rng = RngStream(3, "sense", 0)
    r.beliefs[1] = F  # previously misled
    assert visit(r, tr, w, 1, 0.0, 0.0, rng) is U  # true reading against false prior
