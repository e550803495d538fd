"""Run metrics: confusion, exact error and F-score, spectrum, consensus, correlation."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_confusion,
    brute_consensus_replay,
    brute_f_score,
    brute_system_error,
    contact_weights,
    TwoStepConsensus,
    eigenvalues_by_charpoly,
    fuse_every_pair,
    fuse_lists,
    pack,
    pack_truth,
)
from swarmpatrol.metrics import (
    _NUMPY_JACOBI_MIN,
    CommGraph,
    ConfusionCounts,
    ConsensusTracker,
    _jacobi_numpy,
    _jacobi_rows,
    algebraic_connectivity,
    classify,
    f_score,
    jacobi_eigenvalues,
    pearson,
    required_quorum,
    system_error,
)

# ---------------------------------------------------------------------------
# confusion, error, F-score
# ---------------------------------------------------------------------------


def _packed(vectors):
    return [pack(row) for row in vectors]


def test_classify_buckets_each_entry():
    counts = classify(_packed([[2, 0], [1, 2], [0, 1]]), pack_truth([True, False]))
    assert counts == ConfusionCounts(tp=1, tn=1, fp=1, fn=1, u=2)
    assert counts.total == 6


def test_classify_length_mismatch():
    # a packed vector has no length: a certain belief about a node past the
    # truth's last one, or a node both certain-true and certain-false, is not
    # a vector over the truth's nodes
    with pytest.raises(ValueError):
        classify(_packed([[2, 0, 2]]), pack_truth([True, False]))
    with pytest.raises(ValueError):
        classify(_packed([[1, 1, 0]]), pack_truth([True, False]))
    with pytest.raises(ValueError):
        classify([(0b01, 0b01)], pack_truth([True, False]))


def test_small_example_exact_values():
    vectors = _packed([[2, 0], [1, 2]])
    truth = pack_truth([True, False])
    assert system_error(classify(vectors, truth)) == Fraction(3, 8)
    assert f_score(classify(vectors, truth)) == Fraction(8, 11)


def test_fleet_example_exact_values():
    # 8 robots x 40 nodes, anomaly at node 30; every entry correct except
    # all robots uncertain at node 1 and half of them certain-true at node 2
    truth = [v == 30 for v in range(40)]
    vectors = []
    for r in range(8):
        row = [2 if truth[v] else 0 for v in range(40)]
        row[1] = 1
        if r < 4:
            row[2] = 2
        vectors.append(row)
    counts = classify(_packed(vectors), pack_truth(truth))
    assert counts == ConfusionCounts(tp=8, tn=300, fp=4, fn=0, u=8)
    assert f_score(counts) == Fraction(616, 624) == Fraction(77, 78)
    assert system_error(counts) == Fraction(1, 40)


def test_all_uncertain_scores_zero():
    vectors = [(0, 0)] * 4
    truth = pack_truth([False, True, False])
    assert f_score(classify(vectors, truth)) == Fraction(0)
    assert system_error(classify(vectors, truth)) == Fraction(1, 2)


def test_results_are_exact_fractions():
    vectors = _packed([[2, 1, 0]])
    truth = pack_truth([True, False, False])
    assert isinstance(system_error(classify(vectors, truth)), Fraction)
    assert isinstance(f_score(classify(vectors, truth)), Fraction)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=70),
    st.data(),
)
def test_error_and_fscore_match_brute_force(n_robots, m, data):
    vectors = [
        data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        for _ in range(n_robots)
    ]
    truth = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    counts = classify(_packed(vectors), pack_truth(truth))
    assert system_error(counts) == brute_system_error(vectors, truth)
    assert (counts.tp, counts.tn, counts.fp, counts.fn, counts.u) == brute_confusion(
        vectors, truth
    )
    assert f_score(counts) == brute_f_score(vectors, truth)


# ---------------------------------------------------------------------------
# contact graph and spectrum
# ---------------------------------------------------------------------------


def test_comm_graph_validation():
    with pytest.raises(ValueError):
        CommGraph(weights=np.ones((2, 3)))
    with pytest.raises(ValueError):
        CommGraph(weights=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        CommGraph(weights=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        CommGraph(weights=np.array([[0.0, -1.0], [-1.0, 0.0]]))


def _from_log(n, events):
    """CommGraph.from_exchanges over the pair ids and per-pair counts of a (t, i, j) log."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    exchanges = [0] * len(pairs)
    for _, i, j in events:
        exchanges[pairs.index((min(i, j), max(i, j)))] += 1
    return CommGraph.from_exchanges(n, pairs, exchanges)


def test_comm_graph_from_contacts_counts_exchanges():
    cg = CommGraph.from_exchanges(3, [(0, 1), (0, 2), (1, 2)], [2, 0, 1])
    assert cg.weights[0][1] == 2.0
    assert cg.weights[1][0] == 2.0
    assert cg.weights[1][2] == 1.0
    assert cg.weights[0][2] == 0.0
    events = [(1.0, 0, 1), (2.0, 1, 0), (3.5, 1, 2)]
    assert np.array_equal(cg.weights, contact_weights(3, events))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 6),
    pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=300),
)
def test_comm_graph_weights_equal_per_event_accumulation(n, pairs):
    events = [(0.1 * e, i % n, j % n) for e, (i, j) in enumerate(pairs) if i % n != j % n]
    want = np.zeros((n, n))
    for _, i, j in events:
        want[i, j] += 1.0
        want[j, i] += 1.0
    cg = _from_log(n, events)
    oracle = contact_weights(n, events)
    assert np.array_equal(cg.weights, want)
    assert np.array_equal(cg.weights, oracle)
    assert algebraic_connectivity(cg) == algebraic_connectivity(CommGraph(weights=oracle))


def test_laplacian_rows_sum_to_zero():
    cg = CommGraph.from_exchanges(3, [(0, 1), (0, 2), (1, 2)], [1, 0, 1])
    lap = cg.laplacian()
    assert np.allclose([sum(row) for row in lap], 0.0)
    assert lap == [list(col) for col in zip(*lap)]


def test_jacobi_validates_input():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_jacobi_trivial_sizes():
    assert jacobi_eigenvalues(np.array([[5.0]])) == pytest.approx([5.0])
    got = jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert got == pytest.approx([1.0, 3.0])


def test_jacobi_path_graph_spectrum():
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert jacobi_eigenvalues(lap) == pytest.approx([0.0, 1.0, 3.0], abs=1e-10)


def test_complete_graph_connectivity_equals_node_count():
    w = np.ones((8, 8)) - np.eye(8)
    cg = CommGraph(weights=w)
    eig = jacobi_eigenvalues(cg.laplacian())
    assert abs(eig[0]) <= 1e-8
    assert eig[1:] == pytest.approx([8.0] * 7, abs=1e-8)
    assert algebraic_connectivity(cg) == pytest.approx(8.0, abs=1e-8)


def test_disconnected_graph_has_zero_connectivity():
    events = [(0.0, 0, 1), (0.0, 2, 3)]  # two separate pairs
    cg = _from_log(4, events)
    lam2 = algebraic_connectivity(cg)
    assert 0.0 <= lam2 <= 1e-8
    assert lam2 == algebraic_connectivity(CommGraph(weights=contact_weights(4, events)))
    assert algebraic_connectivity(_from_log(3, [])) == 0.0


def test_single_weighted_edge_spectrum():
    cg = CommGraph(weights=np.array([[0.0, 3.5], [3.5, 0.0]]))
    assert jacobi_eigenvalues(cg.laplacian()) == pytest.approx([0.0, 7.0], abs=1e-10)


def test_jacobi_matches_charpoly_roots():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(3, 5))
        a = rng.normal(size=(n, n)) * 4.0
        s = (a + a.T) / 2.0
        got = jacobi_eigenvalues(s)
        want = eigenvalues_by_charpoly(s)
        assert got == pytest.approx(want, abs=1e-7)


def test_jacobi_matches_lapack_up_to_eight():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        for _ in range(5):
            a = rng.normal(size=(n, n)) * 10.0
            s = (a + a.T) / 2.0
            assert jacobi_eigenvalues(s) == pytest.approx(np.linalg.eigvalsh(s), abs=1e-8)


def _hexes(values):
    """Floats as hex strings, so equality is bit equality (0.0 differs from -0.0)."""
    return [float(x).hex() for x in values]


def _both_jacobi_loops(matrix):
    """The diagonals the list loop and the numpy loop leave, as hex strings."""
    rows = [[float(x) for x in row] for row in matrix]
    return (
        _hexes(_jacobi_rows([row[:] for row in rows])),
        _hexes(_jacobi_numpy([row[:] for row in rows])),
    )


def test_list_jacobi_is_the_numpy_loop_bit_for_bit_on_contact_laplacians():
    rng = np.random.default_rng(15)
    for n in range(1, 71):  # crosses _NUMPY_JACOBI_MIN
        density = rng.uniform(0.05, 0.6)
        counts = rng.integers(1, 40, size=(n, n)) * (rng.random((n, n)) < density)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        lap = CommGraph.from_exchanges(n, pairs, [int(counts[i, j]) for i, j in pairs]).laplacian()
        rows, numpy_loop = _both_jacobi_loops(lap)
        assert rows == numpy_loop, n
        if n in (_NUMPY_JACOBI_MIN - 1, _NUMPY_JACOBI_MIN):
            assert _hexes(jacobi_eigenvalues(lap)) == sorted(rows, key=float.fromhex), n
    assert 1 < _NUMPY_JACOBI_MIN <= 70


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True), min_size=n * n,
            max_size=n * n,
        ).map(lambda xs: [xs[i * n:(i + 1) * n] for i in range(n)])
    ),
    st.floats(0.0, 1e-13),
)
def test_list_jacobi_is_the_numpy_loop_bit_for_bit_on_symmetric_floats(a, skew):
    n = len(a)
    # symmetric up to skew on one side of the diagonal, which both loops accept
    s = [[a[i][j] if i <= j else a[j][i] + skew for j in range(n)] for i in range(n)]
    rows, numpy_loop = _both_jacobi_loops(s)
    assert rows == numpy_loop


def test_numpy_laplacian_matches_the_float_rows():
    rng = np.random.default_rng(4)
    w = rng.integers(0, 9, size=(9, 9)).astype(float)
    w = np.triu(w, 1) + np.triu(w, 1).T
    want = np.diag(w.sum(axis=1)) - w
    assert _hexes(np.ravel(want)) == _hexes(x for row in CommGraph(weights=w).laplacian() for x in row)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.data())
def test_adding_contact_weight_never_lowers_connectivity(n, data):
    entries = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3)
            ),
            max_size=12,
        )
    )
    w = np.zeros((n, n))
    for i, j, c in entries:
        if i != j:
            w[i, j] += c
            w[j, i] += c
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    w2 = w.copy()
    w2[i, j] += 1.0
    w2[j, i] += 1.0
    before = algebraic_connectivity(CommGraph(weights=w))
    after = algebraic_connectivity(CommGraph(weights=w2))
    assert after >= before - 1e-9


# ---------------------------------------------------------------------------
# quorum consensus tracking
# ---------------------------------------------------------------------------


def test_required_quorum_values():
    assert required_quorum(8, 0.85) == 7
    assert required_quorum(8, 1.0) == 8
    assert required_quorum(8, 0.001) == 1
    assert required_quorum(3, 0.85) == 3
    # 0.28 * 25 floats to 7.000000000000001; the rounding guard keeps it at 7
    assert required_quorum(25, 0.28) == 7
    # a product that rounds to 0 still needs one robot
    assert required_quorum(8, 1e-11) == 1
    assert required_quorum(1, 5e-324) == 1


def test_tiny_quorum_is_not_reached_by_uncertain_robots():
    truth = [False, True, False]
    tracker = ConsensusTracker(pack_truth(truth), 8, 1e-11)
    report = tracker.report()
    assert tracker.vectors == [(0, 0)] * 8
    assert tracker.required == 1
    assert report.t_full_consensus is None
    assert not report.tp_consensus
    assert report.fp_consensus_nodes == ()


def test_required_quorum_rejects_bad_fraction():
    for q in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            required_quorum(8, q)


def _track(m, n_robots, truth, events, quorum, skip_agreeing=True):
    """Feed a ConsensusTracker the way run_one does; return (report, misinformed, required).

    events are ("sense", t, robot, node, reading) and ("comm", t, i, j), as
    the brute-force replay reads them. With skip_agreeing, each exchange is
    the tracker's own, which skips robots that hold equal vectors; otherwise
    every exchange fuses and sets both exact flags again.
    """
    tracker = ConsensusTracker(pack_truth(truth), n_robots, quorum)
    for kind, t, a, b, *rest in events:
        if kind == "sense":
            assert tracker.sensed(t, a, b, rest[0]) is tracker.vectors[a]
        elif skip_agreeing:
            tracker.exchanged(t, [(a, b)])
        else:
            fuse_every_pair(tracker, t, [(a, b)])
    assert all(t & f == 0 and (t | f) >> m == 0 for t, f in tracker.vectors)
    return tracker.report(), tracker.misinformed, tracker.required


def _seed_events():
    # robot 0 learns the whole truth, then gossip spreads it to 1 and 2
    return [
        ("sense", 1.0, 0, 1, True),
        ("sense", 2.0, 0, 0, False),
        ("sense", 3.0, 0, 2, False),
        ("comm", 4.0, 0, 1),
        ("comm", 5.0, 1, 2),
    ]


def test_consensus_replay_frozen_scenario():
    truth = [False, True, False]
    report, misinformed, required = _track(3, 3, truth, _seed_events(), 1.0)
    assert required == 3
    assert report.t_full_consensus == 5.0
    assert report.tp_consensus is True
    assert report.fp_consensus_nodes == ()
    assert report.fp_consensus_count == 0
    assert misinformed is False


def test_consensus_time_respects_quorum_size():
    truth = [False, True, False]
    # 2 of 3 robots exact already after the first exchange
    report, _, required = _track(3, 3, truth, _seed_events(), 0.6)
    assert required == 2
    assert report.t_full_consensus == 4.0


def test_consensus_never_reached_is_none():
    truth = [False, True, False]
    events = [("sense", 1.0, 0, 1, True)]
    report, _, _ = _track(3, 3, truth, events, 1.0)
    assert report.t_full_consensus is None
    assert report.tp_consensus is False


def test_false_positive_consensus_detected():
    truth = [False, True, False]
    events = [("sense", float(r + 1), r, 0, True) for r in range(3)]
    report, misinformed, _ = _track(3, 3, truth, events, 0.85)
    assert report.fp_consensus_nodes == (0,)
    assert report.fp_consensus_count == 1
    assert report.tp_consensus is False
    assert misinformed is True


def test_misinformation_spreads_through_exchange():
    truth = [False, True, False]
    # a false reading at the anomaly, then gossiped onward
    events = [("sense", 1.0, 0, 1, False), ("comm", 2.0, 0, 1)]
    assert _track(3, 3, truth, events, 1.0)[1] is True


def test_uncertainty_is_not_misinformation():
    truth = [False, True, False]
    # correct readings and an exchange leave plenty of uncertain entries,
    # none of which count as misinformation
    events = [("sense", 1.0, 0, 0, False), ("sense", 2.0, 1, 1, True), ("comm", 3.0, 0, 1)]
    assert _track(3, 2, truth, events, 1.0)[1] is False
    assert _track(3, 2, truth, [], 1.0)[1] is False


@st.composite
def _belief_event_streams(draw):
    m = draw(st.integers(1, 4))
    n_robots = draw(st.integers(2, 4))
    truth = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    required = draw(st.integers(1, n_robots))
    events = []
    t = 0.0
    for _ in range(draw(st.integers(0, 30))):
        # mostly the same tick, so exchanges chain as they do within one tick
        t += draw(st.sampled_from((0.0, 0.0, 0.5)))
        if draw(st.booleans()):
            robot = draw(st.integers(0, n_robots - 1))
            node = draw(st.integers(0, m - 1))
            events.append(("sense", t, robot, node, draw(st.booleans())))
        else:
            i = draw(st.integers(0, n_robots - 2))
            j = draw(st.integers(i + 1, n_robots - 1))
            events.append(("comm", t, i, j))
    return m, n_robots, truth, required, events


# robots 0 and 1 reach the quorum of 2 at the first exchange of tick 2.0;
# the second exchange of that tick fuses robot 0 with robot 2's false
# certainty and breaks it again
_QUORUM_LOST_IN_TICK = (
    2,
    3,
    [False, True],
    2,
    [
        ("sense", 1.0, 0, 0, False),
        ("sense", 1.0, 0, 1, True),
        ("sense", 1.0, 2, 0, True),
        ("sense", 1.0, 2, 1, True),
        ("comm", 2.0, 0, 1),
        ("comm", 2.0, 0, 2),
    ],
)


@settings(max_examples=400, deadline=None)
@example(case=_QUORUM_LOST_IN_TICK)
@given(case=_belief_event_streams())
def test_tracker_matches_brute_force_replay(case):
    m, n_robots, truth, required, events = case
    report, misinformed, tracked_required = _track(m, n_robots, truth, events, required / n_robots)
    assert tracked_required == required
    assert (
        report.t_full_consensus,
        report.tp_consensus,
        report.fp_consensus_nodes,
        misinformed,
    ) == brute_consensus_replay(m, n_robots, truth, events, required)


# robots 0 and 1 both know the truth after their first exchange, so the
# second changes nothing; the quorum of 3 is reached only when robot 2 learns
# it too, at t = 2.5
_AGREEING_BEFORE_QUORUM = (
    2,
    3,
    [False, True],
    3,
    [
        ("sense", 1.0, 0, 0, False),
        ("sense", 1.0, 0, 1, True),
        ("comm", 1.5, 0, 1),
        ("comm", 2.0, 0, 1),
        ("comm", 2.5, 1, 2),
        ("comm", 2.5, 0, 2),
    ],
)


@settings(max_examples=400, deadline=None)
@example(case=_QUORUM_LOST_IN_TICK)
@example(case=_AGREEING_BEFORE_QUORUM)
@given(case=_belief_event_streams())
def test_tracker_skipping_agreeing_exchanges_matches_every_fusion_fed(case):
    # an exchange between robots that hold equal vectors changes neither, so
    # a tracker that skips it ends where one that fuses it does
    m, n_robots, truth, required, events = case
    quorum = required / n_robots
    skipped = _track(m, n_robots, truth, events, quorum)
    assert skipped == _track(m, n_robots, truth, events, quorum, skip_agreeing=False)
    if case is _AGREEING_BEFORE_QUORUM:
        assert skipped[0].t_full_consensus == 2.5


@st.composite
def _near_truth(draw, truth):
    """A half-unit vector that is often the truth exactly, else the truth with a few edits."""
    want = [2 if v else 0 for v in truth]
    if draw(st.booleans()):
        return want
    edits = draw(st.lists(st.sampled_from(("keep", "keep", "keep", "unsure", "wrong")),
                          min_size=len(truth), max_size=len(truth)))
    return [1 if e == "unsure" else 2 - w if e == "wrong" else w for e, w in zip(edits, want)]


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 70), data=st.data())
def test_tracker_flags_match_list_oracle(m, data):
    truth = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    want = [2 if v else 0 for v in truth]
    values = data.draw(_near_truth(truth))
    # one robot, quorum of one, that reads each certain node of values from
    # the all-uncertain start: only the last reading can complete the
    # quorum, exactly when the vector equals the truth, and a reading
    # misinforms when it leaves its node's belief certain and wrong
    tracker = ConsensusTracker(pack_truth(truth), 1, 1.0)
    certain = [v for v in range(m) if values[v] != 1]
    for step, v in enumerate(certain, start=1):
        held = tracker.sensed(float(step), 0, v, values[v] == 2)
        assert tracker.misinformed == any(values[u] != want[u] for u in certain[:step])
    assert tracker.vectors == [pack(values)]
    assert tracker.t_full == (float(len(certain)) if values == want else None)
    if certain:
        assert held == pack(values)
    # two robots, quorum of two: an exchange completes it exactly when the
    # fused vector equals the truth, and misinforms no one
    other = data.draw(_near_truth(truth))
    tracker = ConsensusTracker(pack_truth(truth), 2, 1.0)
    for robot, held in enumerate((values, other)):
        for v in range(m):
            if held[v] != 1:
                tracker.sensed(1.0, robot, v, held[v] == 2)
    misinformed = tracker.misinformed
    tracker.exchanged(2.0, [(0, 1)])
    assert tracker.vectors == [pack(fuse_lists(values, other))] * 2
    assert (tracker.t_full is not None) == (fuse_lists(values, other) == want)
    assert tracker.misinformed is misinformed


@st.composite
def _tick_streams(draw):
    """A fleet, a truth, a quorum and a run of ticks: one robot senses, or pairs exchange.

    Small vectors and few robots make agreeing robots common, and a tick's
    pairs may share robots, so fusion chains through them.
    """
    m = draw(st.integers(1, 3))
    n_robots = draw(st.integers(1, 5))
    truth = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    quorum = draw(st.sampled_from((1e-11, 0.3, 0.5, 0.85, 1.0)))
    pairs = [(i, j) for i in range(n_robots) for j in range(i + 1, n_robots)]
    events = []
    for k in range(1, draw(st.integers(0, 30)) + 1):
        if not pairs or draw(st.booleans()):
            robot = draw(st.integers(0, n_robots - 1))
            node = draw(st.integers(0, m - 1))
            events.append(("sense", float(k), robot, node, draw(st.booleans())))
        else:
            tick = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
            events.append(("comm", float(k), tick))
    return m, n_robots, truth, quorum, events


# two robots read the anomaly, then the tick's pairs (0, 1), (0, 2), (1, 2)
# relay it to robot 2 in the second exchange, and the third meets robots
# that already agree; with quorum 1e-11 the first reading completes it
_CHAINED_AGREEING = (
    1,
    3,
    [True],
    1e-11,
    [
        ("sense", 1.0, 0, 0, True),
        ("sense", 2.0, 1, 0, True),
        ("comm", 3.0, [(0, 1), (0, 2), (1, 2)]),
        ("comm", 4.0, [(1, 2), (0, 2)]),
    ],
)


@settings(max_examples=400, deadline=None)
@example(case=_CHAINED_AGREEING)
@given(case=_tick_streams())
def test_tracker_matches_two_step_reference(case):
    # the tracker fuses a tick's pairs and updates its flags in one loop;
    # the reference fuses them with fuse_pairs, then replays the triples
    m, n_robots, truth, quorum, events = case
    tracker = ConsensusTracker(pack_truth(truth), n_robots, quorum)
    ref = TwoStepConsensus(pack_truth(truth), n_robots, quorum)
    assert tracker.required == ref.required
    for kind, t, *args in events:
        if kind == "sense":
            assert tracker.sensed(t, *args) == ref.sensed(t, *args)
        else:
            # run_one hands the tick's pairs over as an iterator
            tracker.exchanged(t, iter(args[0]))
            ref.exchanged(t, args[0])
        assert tracker.vectors == ref.vectors
        assert (tracker.t_full, tracker.misinformed) == (ref.t_full, ref.misinformed)
    report = tracker.report()
    got = (report.t_full_consensus, report.tp_consensus, report.fp_consensus_nodes)
    assert got == ref.report()
    if case is _CHAINED_AGREEING:
        assert tracker.t_full == 1.0
        assert tracker.vectors == [pack([2])] * 3


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------


def test_pearson_matches_scipy_on_random_data():
    rng = np.random.default_rng(3)
    for n in (4, 10, 50, 200):
        xs = rng.normal(size=n)
        ys = 0.4 * xs + rng.normal(size=n)
        r, p = pearson(list(xs), list(ys))
        want = scipy.stats.pearsonr(xs, ys)
        assert r == pytest.approx(want.statistic, abs=1e-8)
        assert p == pytest.approx(want.pvalue, abs=1e-8)


def test_pearson_near_zero_correlation():
    rng = np.random.default_rng(8)
    xs = rng.normal(size=100)
    ys = rng.normal(size=100)
    r, p = pearson(list(xs), list(ys))
    want = scipy.stats.pearsonr(xs, ys)
    assert r == pytest.approx(want.statistic, abs=1e-8)
    assert p == pytest.approx(want.pvalue, abs=1e-8)


def test_pearson_perfect_correlation():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == (1.0, 0.0)
    assert pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == (-1.0, 0.0)


def test_pearson_rejects_degenerate_input():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([1e308, -1e308, 0.0], [1.0, 2.0, 4.0]),  # a square overflows
        ([1e308, 1e308, 1e307], [1.0, 2.0, 4.0]),  # the mean is inf
        ([1e-160, 2e-160, 4e-160], [1e-160, 3e-160, 2e-160]),  # sxx * syy is 0
        ([1.0, 2.0, 4.0], [1e308, -1e308, 0.0]),  # a square of ys overflows
    ],
)
def test_pearson_reports_sums_outside_the_float_range(xs, ys):
    with pytest.raises(OverflowError):
        pearson(xs, ys)


def test_pearson_scales_normal_spreads_whose_product_underflows():
    # sxx and syy are about 2e-200 and 3e-200, normal floats, but their
    # product underflows to 0.0; scaled up by 1e100 the data are ordinary
    r, p = pearson([1e-100, 2e-100, 3e-100], [1e-100, 2e-100, 3.5e-100])
    want_r, want_p = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.5])
    assert r == pytest.approx(want_r, rel=1e-14)
    assert p == pytest.approx(want_p, rel=1e-12)


def test_pearson_scales_finite_spreads_whose_product_overflows():
    # sxx and syy are about 4.7e200 and 2e200, finite, but their product
    # overflows; scaled down by 1e100 the data are ordinary
    r, p = pearson([1e100, 0.0, 3e100], [1e100, 2e100, 0.0])
    want_r, want_p = pearson([1.0, 0.0, 3.0], [1.0, 2.0, 0.0])
    assert r == pytest.approx(want_r, rel=1e-14)
    assert p == pytest.approx(want_p, rel=1e-12)


def _one_root_r(xs, ys):
    """The correlation over sqrt(sxx * syy), clamped to [-1, 1]; None if a sum leaves the range."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    product = sxx * syy
    if not 0.0 < product < math.inf or not math.isfinite(sxy):
        return None
    return max(-1.0, min(1.0, sxy / math.sqrt(product)))


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=3, max_size=12),
    x_scale=st.sampled_from([1.0, 1e-150, 1e-100, 1e-30, 1e30, 1e100, 1e150]),
    y_scale=st.sampled_from([1.0, 1e-150, 1e-100, 1e-30, 1e30, 1e100, 1e150]),
)
def test_pearson_keeps_its_bits_while_the_product_is_in_range(data, x_scale, y_scale):
    xs = [x * x_scale for x, _ in data]
    ys = [y * y_scale for _, y in data]
    want = _one_root_r(xs, ys)
    if want is not None:
        assert pearson(xs, ys)[0].hex() == want.hex()
