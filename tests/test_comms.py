"""Proximity gossip: range and cooldown gates, pair scheduling, pair records."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import eligible_pairs
from swarmpatrol.comms import CommState, closing_ticks, tick_comms
from swarmpatrol.graph import parse_map
from swarmpatrol.world import RobotState, max_step

DT = 0.1


def _line_graph(n):
    # nodes 100 m apart, each edge as long as the straight line
    text = "".join(f"node {i} {i * 100} 0\n" for i in range(max(n, 2)))
    text += "".join(f"edge {i} {i + 1}\n" for i in range(max(n, 2) - 1))
    return parse_map(text)


def _robots_at(*coords):
    # a throwaway line graph supplies valid poses; positions are then pinned
    g = _line_graph(len(coords))
    robots = []
    for i, (x, y) in enumerate(coords):
        r = RobotState.at_node(i, g, i, stride=0.1)
        r.x, r.y = x, y
        robots.append(r)
    return robots


def _state(n, range_m=5.0, timeout_s=30.0, step=1.0):
    return CommState(n, range_m, timeout_s, DT, step)


def _pairs(state, ids):
    return [state.pairs[p] for p in ids]


def test_comm_state_validates():
    with pytest.raises(ValueError):
        CommState(2, 0.0, 30.0, DT, 1.0)
    with pytest.raises(ValueError):
        CommState(2, math.nan, 30.0, DT, 1.0)
    with pytest.raises(ValueError):
        CommState(2, 5.0, -1.0, DT, 1.0)
    with pytest.raises(ValueError):
        CommState(2, 5.0, math.nan, DT, 1.0)
    with pytest.raises(ValueError):
        CommState(2, 5.0, 30.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CommState(2, 5.0, 30.0, DT, 0.0)


def test_range_boundary_is_inclusive():
    last = {(0, 1): -math.inf}
    assert eligible_pairs([(0.0, 0.0), (5.0, 0.0)], last, 1.0, 5.0, 30.0) == [(0, 1)]
    assert eligible_pairs([(0.0, 0.0), (5.0001, 0.0)], last, 1.0, 5.0, 30.0) == []
    state = _state(2)
    assert _pairs(state, tick_comms(_robots_at((0.0, 0.0), (5.0, 0.0)), state, 10)) == [(0, 1)]
    assert state.last == [1.0]
    assert state.exchanges == [1]
    assert tick_comms(_robots_at((0.0, 0.0), (5.0001, 0.0)), _state(2), 10) == []


def test_first_contact_possible_immediately():
    assert eligible_pairs([(0.0, 0.0), (1.0, 0.0)], {(0, 1): -math.inf}, 0.0, 5.0, 30.0) == [(0, 1)]
    state = _state(2)
    assert _pairs(state, tick_comms(_robots_at((0.0, 0.0), (1.0, 0.0)), state, 0)) == [(0, 1)]


def test_cooldown_boundary_is_inclusive():
    positions = [(0.0, 0.0), (1.0, 0.0)]
    last = {(0, 1): 100.0}
    assert eligible_pairs(positions, last, 129.9, 5.0, 30.0) == []
    assert eligible_pairs(positions, last, 130.0, 5.0, 30.0) == [(0, 1)]
    # through the schedule: exchange on tick 1000 (t = 100.0), then every tick
    # to 1300 (t = 130.0); tick 1299 is t = 129.9
    robots = _robots_at(*positions)
    state = _state(2)
    exchanged = [k for k in range(1000, 1301) if tick_comms(robots, state, k)]
    assert exchanged == [1000, 1300]
    assert state.last == [130.0]
    assert state.exchanges == [2]


def test_pairs_listed_in_ascending_order():
    positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    last = {(0, 1): -math.inf, (0, 2): -math.inf, (1, 2): -math.inf}
    assert eligible_pairs(positions, last, 0.0, 5.0, 30.0) == [(0, 1), (0, 2), (1, 2)]
    robots = _robots_at(*positions)
    state = _state(3)
    assert _pairs(state, tick_comms(robots, state, 0)) == [(0, 1), (0, 2), (1, 2)]
    assert state.last == [0.0] * 3
    assert state.exchanges == [1] * 3


class _Probe:
    """Stands in for a robot; counts how often its position is read, and lists its syncs."""

    def __init__(self, rid, x):
        self.id = rid
        self.pos_x = x
        self.y = 0.0
        self.reads = 0
        self.synced = []

    @property
    def x(self):
        self.reads += 1
        return self.pos_x

    def sync(self, k):
        self.synced.append(k)


def test_far_pair_waits_for_its_scheduled_tick():
    # 100 m apart, 5 m range, each robot closing 1 m a tick: the gap can reach
    # the range no sooner than floor((100 - 5 - eps) / 2) = 47 ticks later
    step = 1.0
    robots = [_Probe(0, 0.0), _Probe(1, 100.0)]
    state = _state(2, step=step)
    last = {(0, 1): -math.inf}
    tested, got, want = [], [], []
    for k in range(60):
        if k:
            robots[0].pos_x += step
            robots[1].pos_x -= step
        reads = robots[1].reads
        if tick_comms(robots, state, k):
            got.append(k)
        if robots[1].reads > reads:
            tested.append(k)
        positions = [(r.pos_x, r.y) for r in robots]
        for pair in eligible_pairs(positions, last, k * DT, 5.0, 30.0):
            last[pair] = k * DT
            want.append(k)
    # tick 47 leaves a 6 m gap, so the pair is due again on the next tick
    assert tested == [0, 47, 48]
    assert got == want == [48]
    assert robots[0].synced == robots[1].synced == tested


def test_tick_comms_syncs_each_robot_of_a_tested_pair_once():
    # robot 3 is far from the rest, so after tick 0 only its pairs wait.
    # Robots 0-2 are in range, and every one of their pairs is due again on
    # every tick; 1 or 2 m apart with a 5 m range and 1 m steps, each pair is
    # known to stay in range for floor((5 - 2 - eps) / 2) = 1 more tick, so
    # they are range-tested, and their robots synced, every other tick
    state = _state(4, timeout_s=0.0)
    robots = [_Probe(0, 0.0), _Probe(1, 1.0), _Probe(2, 2.0), _Probe(3, 500.0)]
    for k in range(5):
        assert _pairs(state, tick_comms(robots, state, k)) == [(0, 1), (0, 2), (1, 2)]
    assert [r.synced for r in robots] == [[0, 2, 4]] * 3 + [[0]]


@pytest.mark.parametrize(
    "walkers, tested",
    [
        # the gap grows 1 m a tick, but the window allows for 2 m: at 0 m the
        # pair stays in range through tick floor((20.5 - eps) / 2) = 10, at
        # 11 m through 11 + floor((9.5 - eps) / 2) = 15, and so on; out of
        # range from tick 21, it waits as a far pair does
        ((1,), [0, 11, 16, 19, 20, 21, 22, 23, 24, 25, 27, 30, 34]),
        # both walk apart, so the window is exact: 20 m on tick 10, 22 m on 11
        ((0, 1), [0, 11, 12, 13, 15, 19, 27]),
    ],
    ids=["one-walks", "both-walk"],
)
def test_near_pair_is_range_tested_only_when_its_window_ends(walkers, tested):
    # two robots start together, deep in a 20.5 m range, with no cooldown,
    # and walk apart at the full max_step of 1 m a tick
    step = 1.0
    robots = [_Probe(0, 0.0), _Probe(1, 0.0)]
    state = _state(2, range_m=20.5, timeout_s=0.0, step=step)
    last = {(0, 1): -math.inf}
    got_tested, got, want = [], [], []
    for k in range(40):
        if k:
            robots[1].pos_x += step
            if 0 in walkers:
                robots[0].pos_x -= step
        reads = robots[1].reads
        if tick_comms(robots, state, k):
            got.append(k)
        if robots[1].reads > reads:
            got_tested.append(k)
        positions = [(r.pos_x, r.y) for r in robots]
        for pair in eligible_pairs(positions, last, k * DT, 20.5, 0.0):
            last[pair] = k * DT
            want.append(k)
    assert got_tested == tested
    assert got == want == list(range(21 if walkers == (1,) else 11))
    assert robots[0].synced == robots[1].synced == tested
    assert state.exchanges == [len(want)]


@pytest.mark.parametrize("range_m", [math.inf, 1e308])
def test_unbounded_range_with_no_cooldown_never_overflows(range_m):
    # (range - D - eps) / (2 * max_step) is infinite here (1e308 / 0.2
    # overflows): each pair is known to be in range for good, so it is
    # range-tested once and exchanges on every tick
    step = 0.1
    robots = [_Probe(0, 0.0), _Probe(1, 3.0), _Probe(2, 1e6)]
    state = _state(3, range_m=range_m, timeout_s=0.0, step=step)
    for k in range(50):
        robots[2].pos_x += step
        assert _pairs(state, tick_comms(robots, state, k)) == [(0, 1), (0, 2), (1, 2)]
    assert state.exchanges == [50] * 3
    assert [r.synced for r in robots] == [[0]] * 3
    assert state.in_range_until == [1 << 62] * 3


def test_pair_too_far_apart_for_a_finite_distance_waits_without_overflowing():
    # dx * dx overflows, so the gap to the range is infinite
    robots = [_Probe(0, -1e200), _Probe(1, 1e200)]
    state = _state(2)
    assert [k for k in range(100) if tick_comms(robots, state, k)] == []
    assert robots[1].synced == [0]
    assert state.next_tick() == 1 << 62


def test_pair_in_range_too_far_apart_for_a_finite_distance_is_tested_on_every_tick():
    # dx * dx and range * range both overflow, so the pair is in range while
    # range - D is -inf: nothing bounds its window, and it never overflows
    robots = [_Probe(0, -1e200), _Probe(1, 1e200)]
    state = _state(2, range_m=1e308, timeout_s=0.0)
    assert [k for k in range(5) if tick_comms(robots, state, k)] == list(range(5))
    assert robots[1].synced == list(range(5))
    assert state.in_range_until == [4 - (1 << 62)]


def test_closing_ticks_is_the_closing_bound_capped_before_floor():
    # 2 m a tick, less the 1e-6 m margin: 9.999999 m is 4 whole ticks
    assert closing_ticks(10.0, 1.0, 100) == 4
    assert closing_ticks(10.0000009, 1.0, 100) == 4
    assert closing_ticks(10.0000011, 1.0, 100) == 5
    assert closing_ticks(0.0, 1.0, 100) == -1
    assert closing_ticks(10.0, 1.0, 3) == 3
    assert closing_ticks(10.0, 1.0, 4) == 4
    for gap in (math.inf, 1e308, math.nan):
        assert closing_ticks(gap, 0.1, 7) == 7
    for gap in (-math.inf, -1e308):
        assert closing_ticks(gap, 0.1, 7) == -7


@st.composite
def _probe_pair(draw):
    """A range, a max_step, a tick, how far apart two robots stand on it and
    how many ticks of their cooldown are left (None: they never exchanged)."""
    range_m = draw(st.sampled_from([math.inf, 1e308, 5.0, 3e9]) | st.floats(1e-3, 1e12))
    step = draw(st.sampled_from([1e-300, 1e-9, 0.1, 1.0]) | st.floats(1e-300, 1e3))
    apart = draw(
        st.sampled_from([0.0, range_m, range_m + 1e-7, range_m - 1e-7, 1e200])
        | st.floats(0.0, 1e6)
        | st.floats(0.0, 4.0).map(lambda f: f * range_m).filter(lambda d: not math.isnan(d))
        | st.floats(-6.0, 6.0).map(lambda w: range_m + w * 2.0 * step)  # a few ticks either side
        | st.integers(1, 6).map(lambda w: range_m + w * 2.0 * step + 5e-7)  # inside the margin
    )
    k = draw(st.integers(0, 10**6))
    timeout_s = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.1 + 1e-9, 0.25, 0.3, 30.0, math.inf]))
    left = draw(st.none() | st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]) | st.floats(0.0, 400.0))
    return range_m, step, abs(apart), k, timeout_s, left


@settings(max_examples=400, deadline=None)
@given(case=_probe_pair())
def test_due_pair_is_filed_by_closing_ticks(case):
    # the radio writes closing_ticks out in its loop; both give the same ticks
    range_m, step, apart, k, timeout_s, left = case
    cap = 1 << 62
    robots = [_Probe(0, 0.0), _Probe(1, apart)]
    state = _state(2, range_m=range_m, timeout_s=timeout_s, step=step)
    t = k * DT
    last = -math.inf if left is None else min(t, t - timeout_s + left * DT)
    state.last[0] = last
    near = eligible_pairs([(0.0, 0.0), (apart, 0.0)], {(0, 1): last}, t, range_m, timeout_s)
    done = tick_comms(robots, state, k)
    dist = math.sqrt(apart * apart)
    if last > t - timeout_s + 1e-9:
        # still cooling down: no test, and due one tick before it can end
        assert done == [] and robots[1].synced == []
        wait = (last + timeout_s - 1e-9 - t) / DT
    elif near:
        assert _pairs(state, done) == [(0, 1)] and robots[1].synced == [k]
        assert state.in_range_until == [k + closing_ticks(range_m - dist, step, cap)]
        wait = (t + timeout_s - 1e-9 - t) / DT
    else:
        assert done == [] and robots[1].synced == [k]
        assert state.in_range_until == [-1]
        wait = None
    if wait is None:
        want = k + max(1, closing_ticks(dist - range_m, step, cap))
    else:
        want = math.inf if wait == math.inf else k + max(1, math.ceil(wait) - 1)
    assert state.next_tick() == want


@st.composite
def _walk(draw):
    dt = draw(st.sampled_from([0.1, 1 / 3, 0.25]) | st.floats(0.01, 2.0))
    speed = draw(st.floats(0.05, 5.0))
    range_m = draw(st.sampled_from([5.0]) | st.floats(0.1, 30.0))
    timeout_s = draw(st.sampled_from([0.0, 30.0, 3 * dt, 7.25]) | st.floats(0.0, 20.0))
    n = draw(st.integers(2, 7))
    ticks = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    return dt, speed, range_m, timeout_s, n, ticks, seed


def _move(rng, robots, i, step):
    """One tick of a valid walk: stay, or move up to step, often straight at a peer."""
    r = robots[i]
    mode = rng.random()
    if mode < 0.15:
        return
    length = step if mode < 0.75 else rng.uniform(0.0, step)
    if mode < 0.55:
        peer = robots[rng.choice([j for j in range(len(robots)) if j != i])]
        angle = math.atan2(peer.y - r.y, peer.x - r.x)
    else:
        angle = rng.uniform(-math.pi, math.pi)
    r.x += length * math.cos(angle)
    r.y += length * math.sin(angle)


@settings(max_examples=150, deadline=None)
@given(case=_walk())
def test_tick_comms_matches_brute_force_scan(case):
    dt, speed, range_m, timeout_s, n, ticks, seed = case
    rng = random.Random(seed)
    step = max_step(_line_graph(n), speed, dt)
    spread = rng.choice([2.0, 10.0, 40.0]) * range_m
    robots = _robots_at(*[(rng.uniform(0, spread), rng.uniform(0, spread)) for _ in range(n)])
    state = CommState(n, range_m, timeout_s, dt, step)
    last = dict.fromkeys(state.pairs, -math.inf)
    log = []
    for k in range(ticks + 1):
        t = k * dt
        if k:
            for i in range(n):
                _move(rng, robots, i, step)
        want = eligible_pairs([(r.x, r.y) for r in robots], last, t, range_m, timeout_s)
        for i, j in want:
            last[(i, j)] = t
            log.append((t, i, j))
        assert _pairs(state, tick_comms(robots, state, k)) == want, (k, t)
        assert state.last == [last[pair] for pair in state.pairs], (k, t)
    counts = Counter((i, j) for _, i, j in log)
    assert state.exchanges == [counts[pair] for pair in state.pairs]


def test_tick_comms_respects_cooldown_next_tick():
    state = _state(2)
    robots = _robots_at((0.0, 0.0), (1.0, 0.0))
    exchanged = [k for k in range(50, 351) if tick_comms(robots, state, k)]
    assert exchanged == [50, 350]  # t = 5.0 and 35.0; none at 5.1 or 34.9
    assert state.last == [35.0]
    assert state.exchanges == [2]


def test_returned_pair_ids_are_never_changed_by_later_filings():
    # pair (0, 1) exchanges on tick 0 and waits out its 3 s cooldown in the
    # bucket of tick 29, which the tick's list of exchanged pairs starts; on
    # tick 1 robot 2 is 62 m from robot 0, so pair (0, 2) is filed there too
    state = _state(3, timeout_s=3.0)
    robots = [_Probe(0, 0.0), _Probe(1, 1.0), _Probe(2, 7.0)]
    kept = tick_comms(robots, state, 0)
    assert kept == [0]
    robots[2].pos_x = 62.0
    assert tick_comms(robots, state, 1) == []
    assert state._due[29] == [0, 1]
    for k in range(2, 40):
        tick_comms(robots, state, k)
    assert kept == [0]
    assert state.exchanges == [2, 0, 0]


def test_endless_cooldown_drops_the_pair():
    state = _state(2, timeout_s=math.inf)
    robots = [_Probe(0, 0.0), _Probe(1, 1.0)]
    assert [k for k in range(200) if tick_comms(robots, state, k)] == [0]
    assert robots[1].reads == 1  # never tested after its one exchange


def test_cooldown_bound_leaves_a_tick_for_clock_error():
    # the cooldown is a tick plus the test's own 1e-9 s slack, so float error
    # in the tick clock decides whether a pair passes one or two ticks after
    # its exchange: after tick 4 (t = 0.4) it passes on tick 5, although
    # (0.4 + timeout - 1e-9 - 0.4) / dt rounds up to 2 ticks
    timeout = 0.1 + 1e-9
    robots = _robots_at((0.0, 0.0), (1.0, 0.0))
    state = _state(2, timeout_s=timeout)
    last = {(0, 1): -math.inf}
    got, want = [], []
    for k in range(40):
        if tick_comms(robots, state, k):
            got.append(k)
        if eligible_pairs([(0.0, 0.0), (1.0, 0.0)], last, k * DT, 5.0, timeout):
            last[(0, 1)] = k * DT
            want.append(k)
    assert {4, 5} <= set(want)
    assert got == want
