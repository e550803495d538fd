"""Packed belief vectors: the fusion table, fusion, exchanges, sensing and renderings."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import fuse_lists, list_digest, pack, pack_truth, unpack
from swarmpatrol import harness, metrics
from swarmpatrol.beliefs import digest, format_belief, fuse_vectors, measurement_update
from swarmpatrol.metrics import ConsensusTracker

# half-units of truth: certain-false, uncertain, certain-true
F, U, T = 0, 1, 2

# full fusion table: conflicting certainties soften to uncertain, uncertain
# is the identity, agreement is absorbing
FUSION_TABLE = {
    (F, F): F,
    (F, U): F,
    (F, T): U,
    (U, F): F,
    (U, U): U,
    (U, T): T,
    (T, F): U,
    (T, U): T,
    (T, T): T,
}


def fuse(a, b):
    """One node's fusion, read off fuse_vectors on one-node vectors."""
    return unpack(fuse_vectors(pack([a]), pack([b])), 1)[0]


def test_fusion_table_all_nine_cells():
    for (a, b), want in FUSION_TABLE.items():
        assert fuse(a, b) == want
        assert fuse_lists([a], [b]) == [want]


def test_fuse_equals_clamped_sum():
    # half-unit closed form: clamp(a + b - 1, 0, 2)
    for a, b in product((0, 1, 2), repeat=2):
        assert fuse(a, b) == min(max(a + b - 1, 0), 2)


def test_fuse_commutative_idempotent_identity():
    for a, b in product((F, U, T), repeat=2):
        assert fuse(a, b) == fuse(b, a)
    for a in (F, U, T):
        assert fuse(a, a) == a
        assert fuse(U, a) == a


def test_fuse_is_not_associative():
    # (F + T) + T = T but F + (T + T) = U
    assert fuse(fuse(F, T), T) == T
    assert fuse(F, fuse(T, T)) == U
    assert fuse(fuse(F, T), T) != fuse(F, fuse(T, T))
    assert fuse_lists(fuse_lists([F], [T]), [T]) != fuse_lists([F], fuse_lists([T], [T]))


def test_pack_sets_one_bit_per_certain_node():
    # node 0 is bit 0; T marks certain-true nodes, F certain-false ones
    assert pack([T, U, F, F, U]) == (0b00001, 0b01100)
    assert pack([U, U]) == (0, 0)
    assert unpack(pack([F, U, T]), 3) == [F, U, T]


def test_fuse_vectors_elementwise():
    got = fuse_vectors(pack([F, F, T, U]), pack([T, U, T, U]))
    assert got == pack([U, F, T, U])
    assert [format_belief(got, v) for v in range(4)] == ["0.5", "0", "1", "0.5"]


@given(
    st.lists(st.sampled_from([F, U, T]), min_size=1, max_size=12),
    st.data(),
)
def test_fuse_vectors_matches_scalar_fuse(u, data):
    v = data.draw(st.lists(st.sampled_from([F, U, T]), min_size=len(u), max_size=len(u)))
    fused = fuse_vectors(pack(u), pack(v))
    assert unpack(fused, len(u)) == [FUSION_TABLE[a, b] for a, b in zip(u, v)]
    assert fused == fuse_vectors(pack(v), pack(u))


@given(st.lists(st.sampled_from([F, U, T]), max_size=40))
def test_fuse_vectors_of_a_vector_with_itself_gives_it_back(v):
    assert fuse_vectors(pack(v), pack(v)) == pack(v)


def _vectors(m):
    return st.lists(st.integers(0, 2), min_size=m, max_size=m)


def _is_packed_over(vector, m):
    t, f = vector
    return t >= 0 and f >= 0 and t & f == 0 and (t | f) >> m == 0


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 70), data=st.data())
def test_packed_fusion_matches_list_oracle(m, data):
    u = data.draw(_vectors(m))
    v = data.draw(_vectors(m))
    fused = fuse_vectors(pack(u), pack(v))
    assert _is_packed_over(fused, m)
    assert unpack(fused, m) == fuse_lists(u, v)
    # chained, as the exchanges of one tick chain
    w = data.draw(_vectors(m))
    assert unpack(fuse_vectors(fused, pack(w)), m) == fuse_lists(fuse_lists(u, v), w)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 70), data=st.data())
def test_measurement_update_matches_list_oracle(m, data):
    prior = data.draw(_vectors(m))
    node = data.draw(st.integers(0, m - 1))
    observation = data.draw(st.booleans())
    updated = measurement_update(pack(prior), node, observation)
    want = list(prior)
    [want[node]] = fuse_lists([prior[node]], [2 if observation else 0])
    assert _is_packed_over(updated, m)
    assert unpack(updated, m) == want
    assert updated == fuse_vectors(pack(prior), pack([1] * node + [2 if observation else 0]))
    assert format_belief(updated, node) == ("0", "0.5", "1")[want[node]]


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 70), data=st.data())
def test_digest_matches_list_oracle(m, data):
    values = data.draw(_vectors(m))
    assert digest(pack(values), m) == list_digest(values)


def test_measurement_update_from_uncertain():
    assert measurement_update(pack([U]), 0, True) == pack([T])
    assert measurement_update(pack([U]), 0, False) == pack([F])


def test_measurement_update_contrary_reading_softens():
    assert measurement_update(pack([T]), 0, False) == pack([U])
    assert measurement_update(pack([F]), 0, True) == pack([U])


def test_measurement_update_confirming_reading_keeps():
    assert measurement_update(pack([T]), 0, True) == pack([T])
    assert measurement_update(pack([F]), 0, False) == pack([F])


def test_new_belief_vector_all_uncertain(default_graph, monkeypatch):
    # a robot starts out uncertain about every node: the first visit of each
    # robot of a run senses into the all-uncertain vector
    firsts = {}  # robot -> the vector it held before its first reading
    sensed = ConsensusTracker.sensed

    def recorded(self, t, robot, node, reading):
        firsts.setdefault(robot, self.vectors[robot])
        return sensed(self, t, robot, node, reading)

    monkeypatch.setattr(ConsensusTracker, "sensed", recorded)
    cfg = harness.ExperimentConfig(n_robots=3, duration=5.0)
    harness.run_one(cfg, default_graph, harness.StrategyKind.CR, 0.2, 0)
    assert firsts == {robot: (0, 0) for robot in range(3)}
    m = default_graph.node_count
    assert unpack((0, 0), m) == [U] * m
    assert [format_belief((0, 0), v) for v in range(m)] == ["0.5"] * m


def _fleet(lists, truth=None, quorum=1.0):
    """A ConsensusTracker whose robots hold the half-unit lists, read node by node.

    The truth defaults to every node normal; each robot reads each certain
    node of its list once, at time 0, from the all-uncertain start.
    """
    m = len(lists[0])
    tracker = ConsensusTracker(pack_truth(truth or [False] * m), len(lists), quorum)
    for robot, values in enumerate(lists):
        for node, b in enumerate(values):
            if b != U:
                tracker.sensed(0.0, robot, node, b == T)
    assert [unpack(v, m) for v in tracker.vectors] == lists
    return tracker


def _fusions(monkeypatch):
    """The vectors each later fusion of a tracker's exchanges makes, in order."""
    made = []
    fuse = metrics.fuse_vectors
    monkeypatch.setattr(metrics, "fuse_vectors", lambda u, v: made.append(fuse(u, v)) or made[-1])
    return made


def test_fuse_pairs_fuses_both_ways_without_aliasing():
    tracker = _fleet([[T, F, U], [U, T, U]])
    tracker.exchanged(1.0, [(0, 1)])
    vectors = tracker.vectors
    fused = vectors[1]
    assert vectors[0] is fused
    assert vectors[0] == pack([T, U, U])
    # a later visit by one robot leaves the other's vector as it was
    assert tracker.sensed(2.0, 0, 0, False) == pack([U, U, U])
    assert vectors[0] == pack([U, U, U])
    assert unpack(vectors[1], 3)[0] == T
    assert vectors[1] == fused == pack([T, U, U])


def test_fuse_pairs_between_agreeing_robots_skips_fusion(monkeypatch):
    # fusing a vector with itself gives it back, so robots that already agree
    # keep their own vectors, and the exchange changes nothing
    tracker = _fleet([[T, F, U], [T, F, U]])
    calls = _fusions(monkeypatch)
    bi, bj = vectors = tracker.vectors
    tracker.exchanged(1.0, [(0, 1)])
    assert calls == []
    assert vectors[0] is bi and vectors[1] is bj
    # a later visit by one robot leaves the other's vector as it was
    assert tracker.sensed(2.0, 1, 2, False) == pack([T, F, F])
    assert vectors[0] == pack([T, F, U])
    tracker.sensed(3.0, 1, 0, False)
    assert vectors[1] == pack([U, F, F])
    tracker.exchanged(4.0, iter([(0, 1)]))
    assert calls == [pack([T, F, F])]
    assert vectors == [pack([T, F, F])] * 2


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exchanged_matches_list_fusion_in_pair_order(data):
    # every pair exchanges, in ascending order, each one seeing the fusions
    # before it; small vectors often agree
    n = data.draw(st.integers(2, 5))
    m = data.draw(st.integers(1, 3))
    lists = data.draw(
        st.lists(st.lists(st.sampled_from([F, U, T]), min_size=m, max_size=m), min_size=n, max_size=n)
    )
    held = [list(v) for v in lists]
    want = []
    for i in range(n):
        for j in range(i + 1, n):
            # an exchange between equal lists changes nothing and fuses nothing
            if held[i] == held[j]:
                continue
            fused = fuse_lists(held[i], held[j])
            held[i], held[j] = fused, list(fused)
            want.append(fused)
    tracker = _fleet(lists)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    with pytest.MonkeyPatch.context() as patch:
        made = _fusions(patch)
        tracker.exchanged(1.0, pairs)
    assert [unpack(fused, m) for fused in made] == want
    assert [unpack(v, m) for v in tracker.vectors] == held
    # a later visit by robot 0 leaves every other robot's vector as it was
    tracker.sensed(2.0, 0, 0, False)
    assert [unpack(v, m) for v in tracker.vectors[1:]] == held[1:]


def test_fuse_pairs_chains_fusion_through_pair_order(monkeypatch):
    # pair order (0,1), (0,2), (1,2): robot 2 learns robot 0's certainty
    # in the same tick, relayed via the second exchange, so (1,2) meets two
    # robots that already hold [T] and changes nothing; the third robot to
    # know the anomaly completes the quorum of three at that exchange
    tracker = _fleet([[T], [U], [U]], truth=[True])
    made = _fusions(monkeypatch)
    tracker.exchanged(1.0, [(0, 1), (0, 2), (1, 2)])
    assert made == [pack([T]), pack([T])]
    assert tracker.vectors == [pack([T])] * 3
    assert tracker.t_full == 1.0


def test_exchanged_fuses_each_pair_with_what_earlier_pairs_left(monkeypatch):
    # (0,1) fuses [T] with [U] to [T], which completes the quorum of two;
    # (0,2) then meets robot 2's contrary [F] and both fall back to [U], and
    # (1,2) fuses robot 1's [T] with that [U]. The quorum was reached at the
    # first exchange, though robot 0 ends the tick holding [U].
    tracker = _fleet([[T], [U], [F]], truth=[True], quorum=0.5)
    made = _fusions(monkeypatch)
    tracker.exchanged(1.0, [(0, 1), (0, 2), (1, 2)])
    assert made == [pack([T]), pack([U]), pack([T])]
    assert tracker.vectors == [pack([U]), pack([T]), pack([T])]
    assert tracker.t_full == 1.0


def test_format_belief():
    vec = pack([F, U, T])
    assert [format_belief(vec, v) for v in range(3)] == ["0", "0.5", "1"]


def test_digest():
    assert digest(pack([F, U, T, T, F]), 5) == "0u110"
    assert digest(pack([T]), 1) == "1"
    # uncertain nodes past the last certain one still get their 'u'
    assert digest(pack([F, U, U]), 3) == "0uu"
