"""Experiment harness: config files, seeding, runs, CSV round-trips, analysis."""

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import math
import pkgutil
import re
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import (
    brute_consensus_replay,
    dtap_auction,
    eligible_pairs,
    fuse_every_pair,
    line_rendered_cell_class,
    per_tick_dtap_class,
    per_tick_robot_class,
)
import swarmpatrol
from swarmpatrol import harness, metrics
from swarmpatrol.beliefs import fuse_vectors
from swarmpatrol.cli import main as cli_main
from swarmpatrol.graph import PatrolGraph, generate_default_map, parse_map
from swarmpatrol.harness import (
    MAX_REPS,
    MAX_ROBOTS,
    RUN_COLUMNS,
    SOCIAL_COLUMNS,
    ConfigError,
    ExperimentConfig,
    cell_seed,
    load_map,
    read_runs_csv,
    run_matrix,
    run_one,
    summarize,
    write_runs_csv,
)
from swarmpatrol.metrics import ConsensusTracker
from swarmpatrol.strategies import DTAP, StrategyKind, travel_distances
from swarmpatrol.world import MotionTables, RobotState

# the two-loop auction DTAP once called, as the per-tick reference
TWO_LOOP_AUCTION = partial(dtap_auction, travel_row=travel_distances)

PATH3 = "node 0 0 0\nnode 1 1 0\nnode 2 2 0\nedge 0 1\nedge 1 2\n"


def _micro_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        n_robots=2,
        duration=120.0,
        anomaly_node=1,
        quorum=1.0,
        start_node=0,
        noise_levels=(0.0,),
        strategies=(StrategyKind.CR, StrategyKind.RAND),
        reps=2,
        master_seed=5,
    )
    base.update(overrides)
    return replace(ExperimentConfig(), **base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults_match_reference_setup():
    cfg = ExperimentConfig()
    assert cfg.n_robots == 8
    assert cfg.speed == 1.0
    assert cfg.dt == 0.1
    assert cfg.duration == 3600.0
    assert cfg.comm_range == 5.0
    assert cfg.comm_timeout == 30.0
    assert cfg.anomaly_node == 30
    assert cfg.quorum == 0.85
    assert cfg.noise_levels == (0.0, 0.05, 0.2)
    assert len(cfg.strategies) == 10
    assert cfg.reps == 20


def test_config_from_file_full(tmp_path):
    text = """
    # experiment setup
    robots = 4
    speed = 2.0
    dt = 0.05
    duration = 100      # seconds
    comm_range = 6.5
    comm_timeout = 10
    anomaly = 2
    quorum = 0.75
    start_node = 1
    noises = 0.0, 0.1
    strategies = cr, sebs
    reps = 3
    seed = 99
    map_seed = 4
    cbls_alpha = 0.5
    cbls_epsilon = 0.1
    dtap_period = 15
    task_weight = 3.5
    """
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    cfg = ExperimentConfig.from_file(path)
    assert cfg.n_robots == 4
    assert cfg.speed == 2.0
    assert cfg.dt == 0.05
    assert cfg.duration == 100.0
    assert cfg.comm_range == 6.5
    assert cfg.comm_timeout == 10.0
    assert cfg.anomaly_node == 2
    assert cfg.quorum == 0.75
    assert cfg.start_node == 1
    assert cfg.noise_levels == (0.0, 0.1)
    assert cfg.strategies == (StrategyKind.CR, StrategyKind.SEBS)
    assert cfg.reps == 3
    assert cfg.master_seed == 99
    assert cfg.map_seed == 4
    assert cfg.cbls_alpha == 0.5
    assert cfg.cbls_epsilon == 0.1
    assert cfg.dtap_period_s == 15.0
    assert cfg.task_distance_weight == 3.5


def test_config_strategies_all(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("strategies = all\n")
    assert len(ExperimentConfig.from_file(path).strategies) == 10


@pytest.mark.parametrize(
    "line",
    [
        "bogus_key = 1",
        "robots = many",
        "strategies = NOPE",
        "robots 4",
        "quorum = 0",
        "noises = 1.5",
        "reps = 0",
        "duration = -5",
        "robots = 8\nrobots = 3",
    ],
)
def test_config_from_file_rejects_bad_input(tmp_path, line):
    path = tmp_path / "exp.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize(
    "text, where",
    [
        ("seed = 1\nbogus = 1\n", "2: unknown config key 'bogus'"),
        ("robots = 8\n# again\nrobots = 3\n", "3: config key 'robots' repeats line 1"),
        ("cbls_alpha = 0.3\ncbls_alpha = 0.3\n", "2: config key 'cbls_alpha' repeats line 1"),
    ],
)
def test_config_from_file_errors_name_path_and_line(tmp_path, text, where):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_file(path)
    assert str(info.value) == f"{path}:{where}"


def test_fleet_size_and_reps_are_bounded(tmp_path):
    # checked at construction alone: no run is started at the bounds
    assert ExperimentConfig(n_robots=MAX_ROBOTS, reps=MAX_REPS).n_robots == 1024
    for overrides in (
        {"n_robots": MAX_ROBOTS + 1},
        {"n_robots": 10**6},
        {"reps": MAX_REPS + 1},
        {"reps": 10**9},
    ):
        with pytest.raises(ConfigError, match="must be in 1.."):
            ExperimentConfig(**overrides)
    path = tmp_path / "exp.cfg"
    path.write_text(f"robots = {MAX_ROBOTS}\nreps = {MAX_REPS}\n")
    assert ExperimentConfig.from_file(path).reps == MAX_REPS
    for line in (f"robots = {MAX_ROBOTS + 1}", f"reps = {MAX_REPS + 1}"):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)


def test_config_map_file_and_seed_are_exclusive(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("map = some.map\nmap_seed = 3\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)


def test_load_map_sources(tmp_path):
    bundled = load_map(ExperimentConfig())
    assert bundled.node_count == 40

    generated = load_map(replace(ExperimentConfig(), map_seed=2))
    assert generated.node_count == 40
    assert generated.coords != bundled.coords

    map_path = tmp_path / "tiny.map"
    map_path.write_text(PATH3)
    custom = load_map(replace(ExperimentConfig(), map_file=str(map_path)))
    assert custom.node_count == 3


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_cell_seed_is_stable():
    assert cell_seed(0, "CR", 0.0, 0) == 1619197253688156543


def test_cell_seed_separates_every_coordinate():
    base = cell_seed(0, "CR", 0.0, 0)
    assert cell_seed(0, "CR", 0.0, 1) != base
    assert cell_seed(0, "CR", 0.05, 0) != base
    assert cell_seed(0, "SEBS", 0.0, 0) != base
    assert cell_seed(1, "CR", 0.0, 0) != base
    seeds = {
        cell_seed(0, kind.value, noise, rep)
        for kind in StrategyKind
        for noise in (0.0, 0.05, 0.2)
        for rep in range(20)
    }
    assert len(seeds) == 600


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


def test_run_one_zero_duration_reports_prior_state(default_graph):
    cfg = replace(ExperimentConfig(), duration=0.0)
    rec = run_one(cfg, default_graph, StrategyKind.CR, 0.0, 0)
    assert rec.avg_graph_idleness == 0.0
    assert rec.final_error == 0.5  # every belief still uncertain
    assert rec.f_score == 0.0
    assert rec.lambda2 == 0.0
    assert rec.t_consensus is None
    assert rec.tp_consensus is False
    assert rec.fp_consensus_count == 0
    assert rec.misinformed is False
    assert rec.n_exchanges == 0


def test_run_one_single_robot_micro_run():
    g = parse_map(PATH3)
    cfg = _micro_cfg(n_robots=1, duration=60.0, master_seed=3)
    rec = run_one(cfg, g, StrategyKind.CR, 0.0, 0)
    # visits land at 0.1 (start), 1.1 and 2.1; the third completes the truth
    assert rec.t_consensus == pytest.approx(2.1)
    assert rec.final_error == 0.0
    assert rec.f_score == 1.0
    assert rec.tp_consensus is True
    assert rec.fp_consensus_count == 0
    assert rec.misinformed is False
    assert rec.lambda2 == 0.0  # nobody to talk to
    assert rec.seed == cell_seed(3, "CR", 0.0, 0)


def test_run_one_start_node_out_of_range():
    g = parse_map(PATH3)
    cfg = _micro_cfg(start_node=7)
    with pytest.raises(ConfigError):
        run_one(cfg, g, StrategyKind.CR, 0.0, 0)


@pytest.mark.parametrize("node", [-1, 3])
def test_run_one_anomaly_node_out_of_range(node):
    g = parse_map(PATH3)
    with pytest.raises(ConfigError, match=f"anomaly_node {node} outside"):
        run_one(_micro_cfg(anomaly_node=node), g, StrategyKind.CR, 0.0, 0)


def test_run_one_step_may_equal_the_shortest_edge():
    g = parse_map(PATH3)  # every edge is 1 m
    rec = run_one(_micro_cfg(speed=10.0, dt=0.1), g, StrategyKind.CR, 0.0, 0)
    assert rec.final_error == 0.0
    with pytest.raises(ConfigError, match="shortest edge"):
        run_one(_micro_cfg(speed=10.5, dt=0.1), g, StrategyKind.CR, 0.0, 0)


def test_run_one_is_deterministic():
    g = parse_map(PATH3)
    cfg = _micro_cfg()
    a = run_one(cfg, g, StrategyKind.RAND, 0.1, 1)
    b = run_one(cfg, g, StrategyKind.RAND, 0.1, 1)
    assert a == b


def test_run_one_two_robots_gossip_consensus():
    g = parse_map(PATH3)
    cfg = _micro_cfg()
    rec = run_one(cfg, g, StrategyKind.CR, 0.0, 0)
    assert rec.t_consensus is not None
    assert rec.n_exchanges > 0
    assert rec.lambda2 > 0.0  # the pair talked, so the contact graph connects
    assert rec.f_score == 1.0


def test_run_one_writes_parseable_log(tmp_path):
    g = parse_map(PATH3)
    cfg = _micro_cfg()
    run_one(cfg, g, StrategyKind.CR, 0.05, 1, out_dir=tmp_path)
    log = tmp_path / "CR_0p05_r1.log"
    assert log.exists()
    lines = log.read_text().splitlines()
    assert lines  # a 120 s run produces events
    visit_re = re.compile(r"^\d+\.\d{3} visit robot=\d+ node=\d+ belief=(0|0\.5|1)$")
    goal_re = re.compile(r"^\d+\.\d{3} goal robot=\d+ node=\d+$")
    comm_re = re.compile(r"^\d+\.\d{3} comm robot=\d+ peer=\d+ beliefs=[01u]{3}$")
    for line in lines:
        assert visit_re.match(line) or goal_re.match(line) or comm_re.match(line), line
    assert any(" visit " in line for line in lines)
    assert any(" comm " in line for line in lines)


_LOG_BELIEF = {"0": 0, "0.5": 1, "1": 2}


def _belief_events(log_path):
    """Visit and comm lines of a run log as brute-force replay events."""
    events = []
    for line in log_path.read_text().splitlines():
        t, kind, robot, other, value = (line.split() + [""])[:5]
        robot = int(robot.removeprefix("robot="))
        if kind == "visit":
            node = int(other.removeprefix("node="))
            events.append(("visit", t, robot, node, _LOG_BELIEF[value.removeprefix("belief=")]))
        elif kind == "comm":
            events.append(("comm", t, robot, int(other.removeprefix("peer="))))
    return events


@pytest.mark.parametrize(
    "bundled, rep, overrides",
    [
        # the quorum is reached, then lost again before the end
        (False, 0, dict(n_robots=2, duration=120.0, anomaly_node=1, quorum=1.0)),
        # every pair exchanges on every tick, so exchanges chain within a tick
        (False, 2, dict(n_robots=4, duration=60.0, anomaly_node=1, quorum=1.0,
                        comm_range=70.0, comm_timeout=0.0)),
        # no quorum on the 40-node map, but false-positive consensus
        (True, 0, dict(n_robots=8, duration=600.0, anomaly_node=30, quorum=0.25)),
    ],
)
def test_run_consensus_matches_replay_of_its_log(tmp_path, default_graph, bundled, rep, overrides):
    g = default_graph if bundled else parse_map(PATH3)
    cfg = replace(ExperimentConfig(), **overrides)
    rec = run_one(cfg, g, StrategyKind.CR, 0.2, rep, out_dir=tmp_path)
    events = _belief_events(tmp_path / f"CR_0p2_r{rep}.log")
    truth = [v == cfg.anomaly_node for v in range(g.node_count)]
    required = math.ceil(cfg.quorum * cfg.n_robots)
    t_full, tp, fp_nodes, misinformed = brute_consensus_replay(
        g.node_count, cfg.n_robots, truth, events, required
    )
    assert t_full == (None if rec.t_consensus is None else f"{rec.t_consensus:.3f}")
    assert tp == rec.tp_consensus
    assert len(fp_nodes) == rec.fp_consensus_count
    assert misinformed is rec.misinformed is True
    assert sum(1 for e in events if e[0] == "comm") == rec.n_exchanges


def _brute_tick_comms(robots, state, k):
    """tick_comms with every pair tested on every tick."""
    t = k * state.dt
    for r in robots:
        r.sync(k)
    positions = [(r.x, r.y) for r in robots]
    last_exchange = dict(zip(state.pairs, state.last))
    pairs = eligible_pairs(positions, last_exchange, t, state.range_m, state.timeout_s)
    ids = {pair: p for p, pair in enumerate(state.pairs)}
    done = [ids[pair] for pair in pairs]
    for p in done:
        state.last[p] = t
        state.exchanges[p] += 1
    return done


def _rescaled(g, factors):
    """g with edge number e's length multiplied by factors[e % len(factors)]."""
    edges = [(a, b, d * factors[e % len(factors)]) for e, (a, b, d) in enumerate(g.edges)]
    return PatrolGraph(list(g.coords), edges)


# with dt = 0.5, a tick's travel is exactly the default map's shortest edge
_EDGE_SPEED = 2 * 6.106869347964157

# configs on which the run-level oracle tests run every strategy
_ORACLE_CONFIGS = pytest.mark.parametrize(
    "overrides, factors",
    [
        (dict(), (1.0,)),  # 8 robots, 5 m, 30 s cooldown
        (dict(dt=0.5, speed=_EDGE_SPEED), (1.0,)),
        (dict(comm_timeout=0.0, duration=90.0), (1.0,)),
        (dict(comm_timeout=7.25), (1.0,)),  # not a multiple of dt
        (dict(dt=1 / 3), (1.0,)),
        (dict(comm_range=70.0), (1.0,)),
        # every pair in range on every tick, and free to exchange again at once
        (dict(comm_range=70.0, comm_timeout=0.0, duration=60.0), (1.0,)),
        (dict(n_robots=2), (1.0,)),
        (dict(n_robots=16), (1.0,)),
        # map lengths shorter than the straight line move robots faster in the plane
        (dict(speed=3.0), (0.25, 1.5, 0.6)),
        # speed x dt is subnormal, or underflows to 0: nobody arrives anywhere
        (dict(speed=1e-300, dt=1e-10, duration=1e-7), (1.0,)),
        (dict(speed=1e-200, dt=1e-200, duration=1e-197), (1.0,)),
    ],
    ids=["default", "step-is-shortest-edge", "no-cooldown", "cooldown-off-grid",
         "dt-third", "range-70", "range-70-no-cooldown", "robots-2", "robots-16", "edges-shorter-than-straight",
         "step-subnormal", "step-underflows"],
)


def _oracle_case(default_graph, overrides, factors):
    g = _rescaled(default_graph, factors)
    cfg = replace(ExperimentConfig(), **{"duration": 240.0, **overrides})
    shortest = min(d for _, _, d in g.edges)
    step_is_edge = cfg.speed == _EDGE_SPEED
    assert cfg.speed * cfg.dt == shortest if step_is_edge else cfg.speed * cfg.dt < shortest
    return g, cfg


# _runs_digest of each config's runs as the loop made them when it moved
# every robot on every tick; a change to the order in which the loop handles
# robots, ticks or exchanges shows here even where both arms of a test share it
_PER_TICK_DIGESTS = {
    "default": "d90d53befbc4858394559a4c8a006e966369df19e89f58147ea1942d82799826",
    "step-is-shortest-edge": "c3837e54ff65f5db5da9ea1b74428b84f193b0fb702923d5333f46d2a17639d0",
    "no-cooldown": "87af5e89566a80c9db4bc3407925280242b06e2bcf8692ba42c04afd870cac5e",
    "cooldown-off-grid": "b2ae4e7f6210aa17f1aefbe9b717e649e21e9ca258826f90bccf39703399dd2a",
    "dt-third": "9c609e7b40f931fd9b856022bcac43066a7e9e1540db37bc3ef8c4ec745ede08",
    "range-70": "8a83cf9c7163ba91ca8d349a44867a8e601fc7c36bc67e02b46c5d95b92951e3",
    "range-70-no-cooldown": "0048af0610948fd39f190b8df6e585694eb266ca0651529ebeb2bc58cdde2224",
    "robots-2": "51f60e6ec9fbfc95b946376b4b7a9b273987b516dceae9fb9232ee6aee4a4146",
    "robots-16": "00fd7ae3223788cc0670ee12ad8d3fe9023e7b61a4be811ccf660db181e9aa8c",
    "edges-shorter-than-straight": "365c58df5e696ec8df03afe6efd4a032ec382c3242171a5e597c9aa19a9b05ea",
    "step-subnormal": "09a857981170ec621b8b361773a71a9d1cbed7df8fb9010abdc2ba76b506c276",
    "step-underflows": "09a857981170ec621b8b361773a71a9d1cbed7df8fb9010abdc2ba76b506c276",
}


def _record_repr(rec):
    """A RunRecord's repr as it read when the digests were frozen: its total
    exchange count as the last field, where the per-pair counts now sit."""
    fields = [
        f"{f.name}={getattr(rec, f.name)!r}" for f in dataclasses.fields(rec)
        if f.name != "exchanges"
    ]
    return f"RunRecord({', '.join(fields)}, n_exchanges={rec.n_exchanges!r})"


def _runs_digest(records, log_dir):
    """SHA-256 over the runs' records and their logs' names and bytes."""
    h = hashlib.sha256()
    for rec in records:
        h.update(_record_repr(rec).encode())
    for path in sorted(log_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _assert_same_runs(tmp_path, a, b):
    """Equal RunRecords for every strategy, and byte-identical logs under tmp_path/a and /b."""
    assert a == b
    assert sum(r.n_exchanges for r in a) > 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert len(names) == len(StrategyKind)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@_ORACLE_CONFIGS
def test_scheduled_comms_match_brute_force_scan(
    tmp_path, default_graph, monkeypatch, overrides, factors
):
    # every strategy; DTAP's auctions turn robots round mid-edge
    g, cfg = _oracle_case(default_graph, overrides, factors)
    reversals = []
    reverse_edge = RobotState.reverse_edge
    monkeypatch.setattr(
        RobotState, "reverse_edge", lambda r, *a: reversals.append(r.id) or reverse_edge(r, *a)
    )
    scheduled = [run_one(cfg, g, kind, 0.2, 0, out_dir=tmp_path / "a") for kind in StrategyKind]
    monkeypatch.setattr(harness, "tick_comms", _brute_tick_comms)
    # fusing robots that already agree leaves every vector and exact flag as it was
    monkeypatch.setattr(ConsensusTracker, "exchanged", fuse_every_pair)
    brute = [run_one(cfg, g, kind, 0.2, 0, out_dir=tmp_path / "b") for kind in StrategyKind]
    # robots that barely move stay together, so DTAP awards nothing to turn round for
    assert reversals or cfg.speed * cfg.dt < 1e-100
    _assert_same_runs(tmp_path, scheduled, brute)


@_ORACLE_CONFIGS
def test_event_driven_runs_match_per_tick_stepping(
    tmp_path, default_graph, monkeypatch, request, overrides, factors
):
    # the per-tick robots are due on every tick, so no tick is skipped and
    # every robot is moved by the oracle on every tick, as the loop once did
    g, cfg = _oracle_case(default_graph, overrides, factors)
    events = [run_one(cfg, g, kind, 0.2, 0, out_dir=tmp_path / "a") for kind in StrategyKind]
    assert _runs_digest(events, tmp_path / "a") == _PER_TICK_DIGESTS[request.node.callspec.id]
    reversals = []
    reverse = _oracles.reverse
    monkeypatch.setattr(_oracles, "reverse", lambda r, g: reversals.append(r.id) or reverse(r, g))
    monkeypatch.setattr(harness, "RobotState", per_tick_robot_class(RobotState))
    stepped = [run_one(cfg, g, kind, 0.2, 0, out_dir=tmp_path / "b") for kind in StrategyKind]
    # robots that barely move stay together, so DTAP awards nothing to turn round for
    assert reversals or cfg.speed * cfg.dt < 1e-100
    _assert_same_runs(tmp_path, events, stepped)


@_ORACLE_CONFIGS
def test_runs_leave_their_shared_motion_tables_as_built(
    default_graph, monkeypatch, overrides, factors
):
    g, cfg = _oracle_case(default_graph, overrides, factors)
    built = []

    class Recorded(MotionTables):
        def __init__(self, *args):
            super().__init__(*args)
            built.append((self, [x.hex() for x in self.offsets]))

    monkeypatch.setattr(harness, "MotionTables", Recorded)
    for kind in StrategyKind:
        run_one(cfg, g, kind, 0.2, 0)
    assert len(built) == len(StrategyKind)  # one per run, shared by its fleet
    fresh = MotionTables(g, cfg.speed * cfg.dt)
    for tables, offsets in built:
        assert [x.hex() for x in tables.offsets] == offsets
        assert tables.offsets == fresh.offsets
        assert all(plan == fresh.edge(*edge) for edge, plan in tables._edges.items())


@_ORACLE_CONFIGS
def test_scheduled_auctions_match_an_auction_on_every_tick(
    tmp_path, default_graph, monkeypatch, overrides, factors
):
    g, cfg = _oracle_case(default_graph, overrides, factors)
    held = []  # ticks the schedule holds an auction on
    tick = DTAP.tick
    monkeypatch.setattr(DTAP, "tick", lambda self, k, *a: held.append(k) or tick(self, k, *a))
    scheduled = run_one(cfg, g, StrategyKind.DTAP, 0.2, 0, out_dir=tmp_path / "a")

    every_tick = []  # (tick, awards) of each auction the oracle holds

    class Recorded(per_tick_dtap_class(DTAP, TWO_LOOP_AUCTION)):
        def tick(self, k, *args):
            awards = super().tick(k, *args)
            every_tick.append((k, awards))
            return awards

    monkeypatch.setitem(harness.POLICIES, StrategyKind.DTAP, Recorded)
    oracle = run_one(cfg, g, StrategyKind.DTAP, 0.2, 0, out_dir=tmp_path / "b")
    assert scheduled == oracle
    log = "DTAP_0p2_r0.log"
    assert (tmp_path / "a" / log).read_bytes() == (tmp_path / "b" / log).read_bytes()
    assert set(held) <= {k for k, _ in every_tick}
    # unless one tick's travel can take a peer out of range, some ticks are skipped
    assert len(held) < len(every_tick) or 2 * cfg.speed * cfg.dt > cfg.comm_range
    # a skipped auction would have awarded nothing
    assert [awards for k, awards in every_tick if k not in set(held) and awards] == []


@pytest.mark.parametrize(
    "comm_range, n_robots", [(math.inf, 1), (math.inf, 2), (1e308, 1), (1e308, 2), (1e308, 8)]
)
def test_dtap_runs_with_an_unbounded_range(
    tmp_path, default_graph, monkeypatch, comm_range, n_robots
):
    # range - D over twice the step is infinite here (1e308 / 0.2 overflows),
    # and a lone robot has no peer at all, so is out of range of everyone
    cfg = _micro_cfg(
        comm_range=comm_range, n_robots=n_robots, duration=60.0, strategies=(StrategyKind.DTAP,)
    )
    held = []
    tick = DTAP.tick
    monkeypatch.setattr(DTAP, "tick", lambda self, k, *a: held.append(k) or tick(self, k, *a))
    scheduled = run_one(cfg, default_graph, StrategyKind.DTAP, 0.2, 0, out_dir=tmp_path / "a")
    every_tick = per_tick_dtap_class(DTAP, TWO_LOOP_AUCTION)
    monkeypatch.setitem(harness.POLICIES, StrategyKind.DTAP, every_tick)
    oracle = run_one(cfg, default_graph, StrategyKind.DTAP, 0.2, 0, out_dir=tmp_path / "b")
    assert scheduled == oracle
    log = "DTAP_0p2_r0.log"
    assert (tmp_path / "a" / log).read_bytes() == (tmp_path / "b" / log).read_bytes()
    assert held


def test_dense_runs_fuse_only_the_exchanges_whose_vectors_differ(default_graph, monkeypatch):
    # the radio covers the map and there is no cooldown, so every pair
    # exchanges on every tick. Which pairs are range-tested comes from poses
    # alone, and SEBS and CR draw none of them from the seed, so the sensing
    # draws the seed changes move no sync count. They do move how many
    # exchanges meet robots that still disagree, and only those fuse
    fusions, syncs, exchanges, differing = [], [], [], []
    fuse, sync, exchanged = metrics.fuse_vectors, RobotState.sync, ConsensusTracker.exchanged
    monkeypatch.setattr(metrics, "fuse_vectors", lambda u, v: fusions.append(1) or fuse(u, v))
    monkeypatch.setattr(RobotState, "sync", lambda r, k: syncs.append(1) or sync(r, k))

    def replayed(tracker, t, pairs):
        # replay the tick's exchanges, in order, on the vectors held before it
        pairs = list(pairs)
        held = list(tracker.vectors)
        exchanged(tracker, t, pairs)
        for i, j in pairs:
            exchanges.append(1)
            if held[i] != held[j]:
                differing.append(1)
                held[i] = held[j] = fuse_vectors(held[i], held[j])
        assert held == tracker.vectors

    monkeypatch.setattr(ConsensusTracker, "exchanged", replayed)
    cfg = replace(
        ExperimentConfig(),
        duration=30.0,
        comm_range=70.0,
        comm_timeout=0.0,
        noise_levels=(0.2,),
        strategies=(StrategyKind.SEBS, StrategyKind.CR),
        reps=1,
    )
    counts, outcomes = [], []
    for seed in (0, 5):
        for tally in (fusions, syncs, exchanges, differing):
            tally.clear()
        records, _ = run_matrix(replace(cfg, master_seed=seed), g=default_graph)
        counts.append((len(fusions), len(differing), len(exchanges), len(syncs)))
        outcomes.append([(r.final_error, r.t_consensus) for r in records])
    assert outcomes[0] != outcomes[1]
    runs, pairs, ticks = 2, 28, 300
    for fused, differed, exchanged, synced in counts:
        assert exchanged == runs * pairs * ticks
        assert fused == differed < exchanged
        # a pair is range-tested only when its window runs out
        assert synced == counts[0][3] < runs * cfg.n_robots * ticks / 4
    # the fusions follow the sensing draws
    assert counts[0][0] != counts[1][0]


@pytest.mark.parametrize("dt", [0.1, 0.25, 1 / 3, 0.3, 1.0, 2.5])
def test_idleness_samples_taken_late_equal_samples_taken_on_their_tick(
    default_graph, monkeypatch, dt
):
    # the loop takes a tick's idleness sample only when robots next move, or
    # at the end of the run; the oracle visits every tick and takes each
    # sample at the end of its own tick, as the loop once did
    cfg = replace(ExperimentConfig(), dt=dt, duration=90.0)
    kinds = (StrategyKind.SEBS, StrategyKind.RAND)
    lazy = [run_one(cfg, default_graph, kind, 0.2, 0) for kind in kinds]

    trackers = []

    class Tracked(harness.IdlenessTracker):
        def __init__(self, m):
            super().__init__(m)
            trackers.append(self)

    class EveryTick(harness.CommState):
        def next_tick(self):
            return -math.inf

    ticks = int(round(cfg.duration / dt))
    due = set(harness.sample_ticks(dt, ticks))
    sums, tick = [], harness.tick_comms

    def sampled(robots, state, k):
        done = tick(robots, state, k)
        if k in due:
            lv = trackers[-1].last_visit
            sums[-1].append((k * dt * len(lv) - sum(lv)) / len(lv))
        return done

    monkeypatch.setattr(harness, "IdlenessTracker", Tracked)
    monkeypatch.setattr(harness, "CommState", EveryTick)
    monkeypatch.setattr(harness, "tick_comms", sampled)
    for kind, rec in zip(kinds, lazy):
        sums.append([])
        assert run_one(cfg, default_graph, kind, 0.2, 0) == rec
        assert len(sums[-1]) == len(due) == trackers[-1].sample_count > 0
        total = 0.0
        for x in sums[-1]:
            total += x
        assert rec.avg_graph_idleness == total / len(due)


# ---------------------------------------------------------------------------
# motion traces: a draw-free strategy's motion simulated once per matrix
# ---------------------------------------------------------------------------

# the strategies whose decisions draw from the strategy streams
_DRAWING = {StrategyKind.RAND, StrategyKind.CBLS}


@contextlib.contextmanager
def _counted_runs():
    """Count run_one calls and full motion simulations (a CommState each), by strategy."""
    runs, sims = {}, {}
    run, comm_state = harness.run_one, harness.CommState
    current = []

    def counted_run(cfg, g, kind, *args, **kwargs):
        runs[kind] = runs.get(kind, 0) + 1
        current[:] = [kind]
        return run(cfg, g, kind, *args, **kwargs)

    class Counted(comm_state):
        def __init__(self, *args):
            sims[current[0]] = sims.get(current[0], 0) + 1
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_one", counted_run)
        mp.setattr(harness, "CommState", Counted)
        yield runs, sims


def _logs(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.suffix == ".log"}


@settings(max_examples=12, deadline=None)
@given(
    overrides=st.sampled_from([
        dict(n_robots=4, duration=60.0),
        dict(n_robots=3, duration=90.0, comm_range=math.inf),
        dict(n_robots=5, duration=40.0, comm_range=70.0, comm_timeout=0.0),
        dict(n_robots=6, duration=45.0, comm_timeout=7.25, dt=1 / 3),
    ]),
    noises=st.lists(st.sampled_from([0.0, 0.05, 0.2]), min_size=1, max_size=3, unique=True),
    reps=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    epsilon=st.sampled_from([0.0, 0.1]),
)
def test_replayed_cells_equal_fresh_runs(
    tmp_path_factory, default_graph, overrides, noises, reps, seed, epsilon
):
    cfg = replace(
        ExperimentConfig(),
        **overrides,
        noise_levels=tuple(noises),
        reps=reps,
        master_seed=seed,
        cbls_epsilon=epsilon,
    )
    out = tmp_path_factory.mktemp("replay")
    with _counted_runs() as (runs, sims):
        records, _ = run_matrix(cfg, out_dir=out / "matrix", g=default_graph)
    fresh = [
        run_one(cfg, default_graph, StrategyKind(r.strategy), r.noise, r.rep, out_dir=out / "one")
        for r in records
    ]
    assert records == fresh
    assert _logs(out / "matrix") == _logs(out / "one")
    cells = len(noises) * reps
    assert runs == {kind: cells for kind in StrategyKind}
    # every run decides on tick 1, so RAND and CBLS (even at epsilon 0) draw in each
    assert sims == {kind: cells if kind in _DRAWING else 1 for kind in StrategyKind}


def test_trace_past_the_cap_runs_every_cell_in_full(tmp_path, default_graph, monkeypatch):
    cfg = replace(
        ExperimentConfig(),
        duration=60.0,
        noise_levels=(0.0, 0.2),
        strategies=(StrategyKind.CR, StrategyKind.DTAP, StrategyKind.RAND),
        reps=2,
    )
    sizes = {}
    for kind in cfg.strategies:
        trace = harness.MotionTrace()
        run_one(cfg, default_graph, kind, 0.0, 0, trace=trace)
        sizes[kind] = trace.size
    assert sizes[StrategyKind.CR] != sizes[StrategyKind.DTAP]
    with _counted_runs() as (_, sims):
        want, _ = run_matrix(cfg, out_dir=tmp_path / "free", g=default_graph)
    assert sims == {StrategyKind.CR: 1, StrategyKind.DTAP: 1, StrategyKind.RAND: 4}
    want_files = {p.name: p.read_bytes() for p in (tmp_path / "free").iterdir()}
    for cap in (3, sizes[StrategyKind.CR], sizes[StrategyKind.DTAP] - 1):
        monkeypatch.setattr(harness, "TRACE_CAP", cap)
        with _counted_runs() as (_, sims):
            got, _ = run_matrix(cfg, out_dir=tmp_path / f"cap{cap}", g=default_graph)
        assert got == want
        assert {p.name: p.read_bytes() for p in (tmp_path / f"cap{cap}").iterdir()} == want_files
        # a trace exactly at the cap is kept; one entry past it runs each cell in full
        assert sims == {
            kind: 1 if sizes[kind] <= cap and kind not in _DRAWING else 4
            for kind in cfg.strategies
        }


def test_a_trace_replays_only_the_run_it_was_recorded_on(default_graph):
    cfg = replace(ExperimentConfig(), duration=30.0)
    trace = harness.MotionTrace()
    rec = run_one(cfg, default_graph, StrategyKind.CR, 0.0, 0, trace=trace)
    assert trace.motion is not None
    assert run_one(cfg, default_graph, StrategyKind.CR, 0.0, 0, trace=trace) == rec
    for other in (
        (replace(cfg, duration=20.0), default_graph, StrategyKind.CR),
        (cfg, default_graph, StrategyKind.HCR),
        (cfg, generate_default_map(0), StrategyKind.CR),
    ):
        with pytest.raises(ValueError, match="replays only"):
            run_one(*other, 0.0, 1, trace=trace)


# a 4-node ring: its digests are 4 characters long, the default map's 40
RING4 = "node 0 0 0\nnode 1 2 0\nnode 2 2 2\nnode 3 0 2\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\n"

# the configs of test_replayed_cells_equal_fresh_runs whose radio is busiest
_LOG_ORACLE_CONFIGS = [
    dict(n_robots=3, duration=90.0, comm_range=math.inf),
    dict(n_robots=5, duration=40.0, comm_range=70.0, comm_timeout=0.0),
    dict(n_robots=6, duration=45.0, comm_timeout=7.25, dt=1 / 3),
]


def _oracle_logs(cfg, g, cells, out_dir):
    """The logs of fresh runs of cells (kind, noise, rep), every line rendered whole."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_CellBeliefs", line_rendered_cell_class(harness))
        for kind, noise, rep in cells:
            run_one(cfg, g, kind, noise, rep, out_dir=out_dir)
    return _logs(out_dir)


@settings(max_examples=8, deadline=None)
@given(
    overrides=st.sampled_from(_LOG_ORACLE_CONFIGS),
    ring=st.booleans(),
    noises=st.lists(st.sampled_from([0.0, 0.05, 0.2]), min_size=1, max_size=3, unique=True),
    reps=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    batch=st.sampled_from([1, 7, harness._FEED_BATCH]),
)
# both maps in every session, so text a cell kept from another map would show
@example(_LOG_ORACLE_CONFIGS[0], False, [0.0, 0.2], 2, 0, 7)
@example(_LOG_ORACLE_CONFIGS[1], True, [0.0, 0.2], 2, 0, 7)
def test_logs_equal_the_line_rendered_oracle(
    tmp_path_factory, default_graph, overrides, ring, noises, reps, seed, batch
):
    g = parse_map(RING4) if ring else default_graph
    cfg = replace(
        ExperimentConfig(), **overrides, noise_levels=tuple(noises), reps=reps, master_seed=seed
    )
    if ring:
        cfg = replace(cfg, anomaly_node=2)
    out = tmp_path_factory.mktemp("logtext")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_FEED_BATCH", batch)
        records, _ = run_matrix(cfg, out_dir=out / "matrix", g=g)
        cells = [(StrategyKind(r.strategy), r.noise, r.rep) for r in records]
        for kind, noise, rep in cells:
            run_one(cfg, g, kind, noise, rep, out_dir=out / "one")
        want = _oracle_logs(cfg, g, cells, out / "oracle")
    assert StrategyKind.DTAP in cfg.strategies
    assert len(want) == len(records)
    assert _logs(out / "matrix") == want
    assert _logs(out / "one") == want


@pytest.mark.parametrize("overrides", _LOG_ORACLE_CONFIGS)
@pytest.mark.parametrize("kind", [StrategyKind.DTAP, StrategyKind.CR])
def test_replayed_logs_equal_the_oracle_however_the_trace_was_recorded(
    tmp_path, default_graph, monkeypatch, overrides, kind
):
    cfg = replace(ExperimentConfig(), **overrides)
    cells = [(kind, noise, rep) for noise in (0.0, 0.2) for rep in (0, 1)]
    want = _oracle_logs(cfg, default_graph, cells, tmp_path / "oracle")
    fresh = [run_one(cfg, default_graph, *cell) for cell in cells]

    # recorded without logs, replayed with them
    trace = harness.MotionTrace()
    assert run_one(cfg, default_graph, *cells[0], trace=trace) == fresh[0]
    assert trace.motion is not None
    got = [run_one(cfg, default_graph, *cell, out_dir=tmp_path / "a", trace=trace) for cell in cells]
    assert got == fresh
    assert _logs(tmp_path / "a") == want

    # recorded with logs, replayed without them
    trace = harness.MotionTrace()
    assert run_one(cfg, default_graph, *cells[0], out_dir=tmp_path / "b", trace=trace) == fresh[0]
    assert trace.motion is not None
    assert [run_one(cfg, default_graph, *cell, trace=trace) for cell in cells] == fresh
    first = f"{kind.value}_0p0_r0.log"
    assert _logs(tmp_path / "b") == {first: want[first]}

    # a trace exactly at the cap is kept; one entry past it is dropped
    matrix_cfg = replace(cfg, strategies=(kind,), noise_levels=(0.0, 0.2), reps=2)
    for cap, kept in ((trace.size, True), (trace.size - 1, False)):
        monkeypatch.setattr(harness, "TRACE_CAP", cap)
        capped = harness.MotionTrace()
        run_one(cfg, default_graph, *cells[0], out_dir=tmp_path / "c", trace=capped)
        assert (capped.motion is not None) == kept
        run_matrix(matrix_cfg, out_dir=tmp_path / f"cap{cap}", g=default_graph)
        assert _logs(tmp_path / f"cap{cap}") == want


def test_run_one_seeds_logs_and_records_a_level_as_its_float(tmp_path, default_graph):
    cfg = replace(ExperimentConfig(), duration=5.0)
    want = run_one(cfg, default_graph, StrategyKind.CR, 0.0, 0, out_dir=tmp_path / "float")
    assert want.seed == cell_seed(cfg.master_seed, "CR", 0.0, 0)
    for noise in (0, -0.0, False):
        out = tmp_path / repr(noise)
        got = run_one(cfg, default_graph, StrategyKind.CR, noise, 0, out_dir=out)
        assert got == want and repr(got.noise) == "0.0"
        assert _logs(out) == _logs(tmp_path / "float")
        assert [p.name for p in out.iterdir()] == ["CR_0p0_r0.log"]
    # abs makes -0.0 zero; it must not turn an invalid level into a valid one
    for noise in (-0.2, -1e-300, 1.5, math.nan):
        with pytest.raises(ConfigError, match="noise level must be in"):
            run_one(cfg, default_graph, StrategyKind.CR, noise, 0)


# ---------------------------------------------------------------------------
# matrix, summaries, CSV round-trips
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_matrix(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    g = parse_map(PATH3)
    cfg = _micro_cfg(noise_levels=(0.0, 0.1))
    records, summaries = run_matrix(cfg, out_dir=out, g=g)
    return cfg, out, records, summaries


def test_integer_noise_levels_run_as_their_floats(default_graph):
    # an int level once seeded its cells from repr(0), while its records said 0.0
    cfg = replace(
        ExperimentConfig(), duration=30.0, strategies=(StrategyKind.CR, StrategyKind.RAND), reps=2
    )
    assert [repr(p) for p in replace(cfg, noise_levels=(0, 1)).noise_levels] == ["0.0", "1.0"]
    ints, _ = run_matrix(replace(cfg, noise_levels=(0, 1)), g=default_graph)
    floats, _ = run_matrix(replace(cfg, noise_levels=(0.0, 1.0)), g=default_graph)
    assert ints == floats
    for rec in ints:
        assert rec.seed == cell_seed(cfg.master_seed, rec.strategy, rec.noise, rec.rep)


def test_run_matrix_canonical_order(micro_matrix):
    cfg, _, records, _ = micro_matrix
    got = [(r.strategy, r.noise, r.rep) for r in records]
    want = [
        (kind.value, noise, rep)
        for kind in cfg.strategies
        for noise in cfg.noise_levels
        for rep in range(cfg.reps)
    ]
    assert got == want


def test_runs_csv_round_trip(micro_matrix):
    _, out, records, _ = micro_matrix
    loaded = read_runs_csv(out / "runs.csv")
    assert len(loaded) == len(records)
    for a, b in zip(loaded, records):
        assert a.strategy == b.strategy
        assert a.noise == b.noise
        assert a.seed == b.seed
        assert a.avg_graph_idleness == b.avg_graph_idleness  # repr round-trip
        assert a.final_error == b.final_error
        assert a.f_score == b.f_score
        assert a.lambda2 == b.lambda2
        assert a.t_consensus == b.t_consensus
        assert a.tp_consensus == b.tp_consensus
        assert a.fp_consensus_count == b.fp_consensus_count


def test_read_runs_csv_rejects_foreign_columns(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("strategy,noise\nCR,0.0\n")
    with pytest.raises(ConfigError):
        read_runs_csv(path)
    header = ",".join(RUN_COLUMNS)
    for row in ("CR,x,1,1,1,1,1,,0,0", "CR,0.0,1"):
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ConfigError):
            read_runs_csv(path)


_GOOD_ROW = dict(
    strategy="CR", noise="0.2", seed="7", avg_graph_idleness="12.5", final_error="0.25",
    f_score="0.7500", lambda2="1.5", t_consensus="30.0", tp_consensus="1",
    fp_consensus_count="0",
)


@pytest.mark.parametrize(
    "bad",
    [
        # the row CHANGES reported as read without error
        dict(tp_consensus="7", fp_consensus_count="-4", f_score="7", avg_graph_idleness="-5"),
        dict(tp_consensus="7"),
        dict(tp_consensus="-1"),
        dict(fp_consensus_count="-4"),
        dict(f_score="7"),
        dict(f_score="-0.5"),
        dict(final_error="1.5"),
        dict(final_error="-0.25"),
        dict(avg_graph_idleness="-5"),
        dict(lambda2="-1e-3"),
        dict(t_consensus="0.0"),
        dict(t_consensus="-3.0"),
        # write_runs_csv never writes a negative zero
        dict(noise="-0.0"),
        dict(lambda2="-0.0"),
        dict(strategy=""),
        dict(strategy="FOO"),
        dict(strategy="cr"),
        dict(seed="-1"),
        dict(seed=str(2**64)),
        dict(seed=str(2**70)),
        # too large for a float, so the finiteness test itself overflows
        dict(fp_consensus_count="1" + "0" * 400),
        dict(seed="1" + "0" * 400),
        # the bytes \xff\xfe, which are not UTF-8
        dict(strategy="\udcff\udcfe"),
        dict(f_score="\udcff\udcfe"),
        # more values than columns
        dict(fp_consensus_count="0,999,junk"),
    ],
)
def test_read_runs_csv_rejects_values_never_written(tmp_path, capsys, bad):
    row = ",".join({**_GOOD_ROW, **bad}[c] for c in RUN_COLUMNS)
    text = ",".join(RUN_COLUMNS) + "\n" + row + "\n"
    (tmp_path / "runs.csv").write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ConfigError, match="bad row"):
        read_runs_csv(tmp_path / "runs.csv")
    assert cli_main(["summarize", "--runs", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


def test_read_runs_csv_accepts_the_bounds(tmp_path):
    edges = dict(avg_graph_idleness="0.0", final_error="1.0", f_score="0.0000", lambda2="0.0",
                 t_consensus="", tp_consensus="0", fp_consensus_count="0")
    for seed in (0, 2**64 - 1):
        row = {**_GOOD_ROW, **edges, "seed": str(seed)}
        (tmp_path / "runs.csv").write_text(
            ",".join(RUN_COLUMNS) + "\n" + ",".join(row[c] for c in RUN_COLUMNS) + "\n"
        )
        (rec,) = read_runs_csv(tmp_path / "runs.csv")
        assert (rec.t_consensus, rec.tp_consensus, rec.final_error) == (None, False, 1.0)
        assert (rec.strategy, rec.seed) == ("CR", seed)


def test_summarize_recomputes_group_statistics(micro_matrix):
    _, _, records, summaries = micro_matrix
    row = next(s for s in summaries if s.strategy == "CR" and s.noise == 0.0)
    recs = [r for r in records if r.strategy == "CR" and r.noise == 0.0]
    assert row.runs == len(recs) == 2
    idl = [r.avg_graph_idleness for r in recs]
    mean = sum(idl) / len(idl)
    assert row.idleness_mean == pytest.approx(mean, abs=1e-9)
    var = sum((x - mean) ** 2 for x in idl) / len(idl)
    assert row.idleness_std == pytest.approx(var**0.5, abs=1e-9)
    reached = [r.t_consensus for r in recs if r.t_consensus is not None]
    assert row.consensus_rate == len(reached) / len(recs)
    if reached:
        assert row.t_consensus_mean == pytest.approx(sum(reached) / len(reached))
    assert row.note == ""


def test_summarize_single_run_notes_zero_std():
    g = parse_map(PATH3)
    rec = run_one(_micro_cfg(), g, StrategyKind.CR, 0.0, 0)
    row = summarize([rec])[0]
    assert row.runs == 1
    assert row.idleness_std == 0.0
    assert "single run" in row.note


def test_matrix_log_filenames_encode_cells(micro_matrix):
    _, out, _, _ = micro_matrix
    names = sorted(p.name for p in out.glob("*.log"))
    assert "CR_0p0_r0.log" in names
    assert "CR_0p1_r1.log" in names
    assert "RAND_0p1_r0.log" in names
    assert len(names) == 8  # 2 strategies x 2 noises x 2 reps


def test_write_runs_csv_keeps_float_precision(tmp_path, micro_matrix):
    _, _, records, _ = micro_matrix
    path = tmp_path / "copy.csv"
    write_runs_csv(path, records)
    header = path.read_text().splitlines()[0]
    assert tuple(header.split(",")) == RUN_COLUMNS
    assert read_runs_csv(path)[0].avg_graph_idleness == records[0].avg_graph_idleness


def test_csv_headers_are_the_published_schema(micro_matrix):
    # the headers come from the record types, so a reordered field must fail here
    _, out, _, _ = micro_matrix
    assert (out / "runs.csv").read_text().splitlines()[0] == (
        "strategy,noise,seed,avg_graph_idleness,final_error,f_score,lambda2,"
        "t_consensus,tp_consensus,fp_consensus_count"
    )
    assert (out / "summary.csv").read_text().splitlines()[0] == (
        "strategy,noise,runs,idleness_mean,idleness_std,error_mean,fscore_mean,fscore_std,"
        "consensus_rate,t_consensus_mean,tp_consensus_rate,fp_consensus_mean,lambda2_mean,"
        "lambda2_median,note"
    )


@pytest.mark.parametrize("reps", [1, 2])
def test_summarize_rewrites_the_summary_simulate_wrote(tmp_path, reps):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"duration = 60\nstrategies = CR, RAND, SEBS\nnoises = 0, 0.2\nreps = {reps}\n"
    )
    out = tmp_path / "runs"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    written = (out / "summary.csv").read_bytes()
    (out / "summary.csv").unlink()
    assert cli_main(["summarize", "--runs", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == written


# ---------------------------------------------------------------------------
# analysis outputs and CLI
# ---------------------------------------------------------------------------


def test_analyze_runs_outputs(micro_matrix):
    from swarmpatrol.harness import analyze_runs

    _, out, records, _ = micro_matrix
    written = analyze_runs(out)
    names = {p.name for p in written}
    assert names == {
        "correlations.csv",
        "connectivity_by_strategy.csv",
        "consensus_vs_connectivity.csv",
        "consensus_outcomes.csv",
    }
    corr = (out / "correlations.csv").read_text().splitlines()
    assert corr[0] == "noise,n_points,pearson_r,p_value,note"
    assert len(corr) == 3  # one row per noise level
    scatter = (out / "consensus_vs_connectivity.csv").read_text().splitlines()
    assert len(scatter) == len(records) + 1


def _social_rows(out):
    with open(out / "social_edges.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == SOCIAL_COLUMNS
    return [(s, noise, int(i), int(j), int(count)) for s, noise, i, j, count in rows]


def _assert_social_edges_match_logs(out, records):
    rows = _social_rows(out)
    assert rows == _oracles.social_edges_from_logs(out)
    assert sum(row[-1] for row in rows) == sum(r.n_exchanges for r in records)
    for r in records:
        assert all(count > 0 for _, _, count in r.exchanges)
        assert [(i, j) for i, j, _ in r.exchanges] == sorted({(i, j) for i, j, _ in r.exchanges})
        assert all(i < j for i, j, _ in r.exchanges)


def test_social_edges_match_log_oracle(micro_matrix):
    _, out, records, _ = micro_matrix
    assert len(_social_rows(out)) > 0  # the two robots talked in at least one cell
    _assert_social_edges_match_logs(out, records)


def test_social_edges_match_log_oracle_for_every_strategy(tmp_path, default_graph):
    cfg = replace(
        ExperimentConfig(),
        n_robots=4,
        duration=300.0,
        noise_levels=(0.0, 0.05),
        strategies=tuple(StrategyKind),
        reps=2,
        master_seed=3,
    )
    records, _ = run_matrix(cfg, out_dir=tmp_path, g=default_graph)
    assert {row[0] for row in _social_rows(tmp_path)} == {k.value for k in StrategyKind}
    _assert_social_edges_match_logs(tmp_path, records)


def test_social_edges_ignore_stale_logs(tmp_path):
    # logs of another config, left in the directory, are not this matrix's exchanges
    stale = "1.000 comm robot=0 peer=1 beliefs=x\n"
    (tmp_path / "SEBS_0p2_r7.log").write_text(stale)
    (tmp_path / "CR_0p0_r9.log").write_text(stale)
    g = parse_map(PATH3)
    records, _ = run_matrix(_micro_cfg(), out_dir=tmp_path, g=g)
    # pooling every log in the directory would count the stale exchanges
    assert _social_rows(tmp_path) != _oracles.social_edges_from_logs(tmp_path)
    for name in ("SEBS_0p2_r7.log", "CR_0p0_r9.log"):
        (tmp_path / name).rename(tmp_path / f"{name}.stale")
    _assert_social_edges_match_logs(tmp_path, records)
    assert all(row[0] != "SEBS" for row in _social_rows(tmp_path))


def test_cli_genmap_and_simulate(tmp_path, capsys):
    assert cli_main(["genmap", "--seed", "3", "--out", str(tmp_path / "m.map")]) == 0
    assert (tmp_path / "m.map").exists()

    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "robots = 2\nduration = 60\nanomaly = 1\nstart_node = 0\n"
        f"map = {tmp_path / 'tiny.map'}\n"
        "noises = 0.0\nstrategies = cr\nreps = 1\nquorum = 1.0\n"
    )
    (tmp_path / "tiny.map").write_text(PATH3)
    out = tmp_path / "runs"
    code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "runs.csv").exists()
    assert (out / "summary.csv").exists()
    captured = capsys.readouterr()
    assert "strategy" in captured.out  # the aligned summary table header

    assert cli_main(["summarize", "--runs", str(out)]) == 0
    assert cli_main(["analyze", "--runs", str(out)]) == 0
    assert (out / "correlations.csv").exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("robots = banana\n")
    assert cli_main(["simulate", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    bad.write_bytes(b"\xff\xfe robots = 2\n")
    assert cli_main(["simulate", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli_main(["simulate", "--config", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli_main(["genmap", "--seed", "-1", "--out", str(tmp_path / "m.map")]) == 2
    assert "error:" in capsys.readouterr().err
    header = ",".join(RUN_COLUMNS) + "\n"
    for row, names in (
        ("CR,x,1,1,1,1,1,,0,0", "bad row"),
        ("CR,0.0,1,1,1,1,nan,,0,0", "'nan' is not a finite number"),
        ("CR,0.0,1,inf,1,1,1,,0,0", "'inf' is not a finite number"),
        ("CR,0.0,1,1,1,1,1,-inf,0,0", "'-inf' is not a finite number"),
        ("CR,2.0,1,1,1,1,1,,0,0", "noise 2.0 outside [0, 1]"),
        ("CR,nan,1,1,1,1,1,,0,0", "'nan' is not a finite number"),
    ):
        (tmp_path / "runs.csv").write_text(header + row + "\n")
        for command in ("summarize", "analyze"):
            assert cli_main([command, "--runs", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert names in err
    # extreme but finite values: the correlation's sums overflow and the
    # idleness spread leaves the float range; both are reported, not raised
    rows = [
        f"CR,0.0,{k},{idleness},0.5,0.5,{lam},{t},1,0"
        for k, (idleness, lam, t) in enumerate(
            [(1e308, 1e308, 10.0), (0.0, 0.0, 20.0), (0.0, 0.0, 40.0)]
        )
    ]
    (tmp_path / "runs.csv").write_text(header + "\n".join(rows) + "\n")
    for command in ("summarize", "analyze"):
        assert cli_main([command, "--runs", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
    corr = (tmp_path / "correlations.csv").read_text().splitlines()
    assert corr[1] == "0.0,3,,,sums overflow the float range"


def test_cli_analyze_notes_variance_that_underflows(tmp_path, capsys):
    # the lambda2 values differ, so the pre-check passes, but their squared
    # deviations underflow to 0.0 and pearson finds no variance
    header = ",".join(RUN_COLUMNS) + "\n"
    rows = [
        f"CR,0.0,{k},1,0,1,{lam},{t},1,0"
        for k, (lam, t) in enumerate([("1e-320", 5.0), ("2e-320", 6.0), ("3e-320", 7.0)])
    ]
    (tmp_path / "runs.csv").write_text(header + "\n".join(rows) + "\n")
    assert cli_main(["analyze", "--runs", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    corr = (tmp_path / "correlations.csv").read_text().splitlines()
    assert corr == ["noise,n_points,pearson_r,p_value,note", "0.0,3,,,degenerate variance"]


def test_cli_analyze_correlates_spreads_whose_product_underflows(tmp_path, capsys):
    # each spread is a normal float, about 1e-200, but their product
    # underflows; the correlation is that of the same data scaled by 1e100
    header = ",".join(RUN_COLUMNS) + "\n"
    rows = [
        f"CR,0.0,{k},1,0,1,{lam},{t},1,0"
        for k, (lam, t) in enumerate(
            [("1e-100", "1e-100"), ("2e-100", "2e-100"), ("3e-100", "3.5e-100")]
        )
    ]
    (tmp_path / "runs.csv").write_text(header + "\n".join(rows) + "\n")
    assert cli_main(["analyze", "--runs", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    corr = list(csv.reader((tmp_path / "correlations.csv").open()))
    assert corr[0] == ["noise", "n_points", "pearson_r", "p_value", "note"]
    noise, points, r, p, note = corr[1]
    assert (noise, points, note) == ("0.0", "3", "")
    want_r, want_p = metrics.pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.5])
    assert float(r) == pytest.approx(want_r, rel=1e-14)
    assert float(p) == pytest.approx(want_p, rel=1e-12)


def test_cli_reports_os_errors(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("duration = 1\nreps = 1\nstrategies = cr\nnoises = 0\n")
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "runs.csv").mkdir()
    (tmp_path / "taken").write_text("")
    for argv in (
        ["genmap", "--seed", "1", "--out", str(tmp_path)],
        ["summarize", "--runs", str(tmp_path / "runs")],
        ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "taken")],
    ):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "line, names",
    [
        ("anomaly = 99", "anomaly_node 99"),
        ("start_node = 40", "start_node 40"),
        ("speed = 1000", "shortest edge"),
    ],
)
def test_cli_config_that_misfits_the_map_leaves_no_output_directory(
    tmp_path, capsys, line, names
):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"duration = 10\nreps = 1\nstrategies = cr\nnoises = 0\n{line}\n")
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err
    assert not out.exists()


def test_cli_simulate_out_on_a_file_fails_before_any_run(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("duration = 60\nreps = 2\nstrategies = cr\nnoises = 0\n")
    (tmp_path / "taken").write_text("")
    runs = []
    monkeypatch.setattr(harness, "run_one", lambda *a, **kw: runs.append(a))
    code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "taken")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert runs == []


@pytest.mark.parametrize(
    "lines, names",
    [
        ("strategies = CR, CR", "duplicate strategy CR"),
        ("noises = 0, 0.0", "duplicate noise level 0.0"),
        ("comm_range = 0", "comm_range"),
        ("comm_timeout = -1", "comm_timeout"),
        ("anomaly = 99", "anomaly_node 99"),
        ("strategies = DTAP\ndtap_period = 0.04", "dtap_period"),
        ("map = {tmp}/split.map", "connected"),
        ("map = {tmp}/garbled.map", "line 2"),
        ("map = {tmp}/binary.map", "decode"),
        ("map = {tmp}/nan.map", "node 1 has a non-finite coordinate"),
        ("map = {tmp}/huge.map\nstrategies = CGG\nrobots = 3\nanomaly = 1", "overflow"),
        ("map_seed = -1", "map_seed"),
        ("duration = nan", "duration"),
        ("duration = inf", "duration"),
        ("duration = 1e308", "too many ticks"),
        ("strategies = DTAP\ndtap_period = inf", "dtap_period"),
        ("strategies = DTAP\ndtap_period = 1e308", "dtap_period"),
        ("cbls_alpha = 0", "cbls_alpha"),
        ("task_weight = inf", "task_distance_weight"),
        ("speed = 1000", "shortest edge"),
        ("duration = 0\ndt = 5e-324", "1/dt"),
        ("robots = 1025", "n_robots must be in 1..1024"),
        ("reps = 1000000000", "reps must be in 1..10000"),
        ("robots = 8\nrobots = 3", "exp.cfg:6: config key 'robots' repeats line 5"),
        ("strategies = foo", "exp.cfg:4: bad value for strategies: unknown strategy"),
        ("strategies = all, CR", "exp.cfg:4: bad value for strategies: unknown strategy"),
    ],
)
def test_cli_rejects_invalid_config_cleanly(tmp_path, capsys, lines, names):
    (tmp_path / "split.map").write_text(PATH3 + "node 3 9 9\n")
    (tmp_path / "garbled.map").write_text("node 0 0 0\nnode 1 x 0\n")
    (tmp_path / "binary.map").write_bytes(b"\xff\xfe node")
    # explicit lengths: no edge length is derived from the NaN pose
    (tmp_path / "nan.map").write_text(
        "node 0 0 0\nnode 1 nan 0\nnode 2 2 0\nedge 0 1 1.0\nedge 1 2 1.0\n"
    )
    # every edge is finite, but a route over them is not
    (tmp_path / "huge.map").write_text(
        "node 0 0 0\nnode 1 1e308 0\nnode 2 -1e308 0\nedge 0 1\nedge 0 2\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    # the case's lines follow the base lines of the keys they do not set
    base = {"duration": "10", "reps": "1", "strategies": "cr", "noises": "0"}
    given = {line.partition("=")[0].strip() for line in lines.splitlines()}
    cfg_path.write_text(
        "".join(f"{key} = {value}\n" for key, value in base.items() if key not in given)
        + lines.format(tmp=tmp_path) + "\n"
    )
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert names in err
    assert "Traceback" not in err


# valid values of each config key; the fuzz test mixes them with _JUNK
_VALID_VALUES = {
    "map": ["{tmp}/tiny.map"],
    "map_seed": ["0", "3"],
    "speed": ["0.5", "1", "2"],
    "dt": ["0.05", "0.1", "0.25", "5e-324"],
    "comm_range": ["1", "5", "70"],
    "comm_timeout": ["0", "30"],
    "anomaly": ["0", "1", "30"],
    "quorum": ["0.5", "0.85", "1"],
    "start_node": ["0", "2", "39"],
    "noises": ["0", "0.2", "0, 0.2"],
    "strategies": ["all", "cr", "dtap", "cbls, cgg", "sebs, dtag, hpcc"],
    "seed": ["0", "7"],
    "cbls_alpha": ["0.3", "1"],
    "cbls_epsilon": ["0", "0.2", "1"],
    "dtap_period": ["0.5", "20"],
    "task_weight": ["1", "7"],
}
_JUNK = ["nan", "inf", "-inf", "-1", "0", "1e308", "banana", "1,,2", ""]


@st.composite
def _fuzzed_config(draw):
    # robots, duration and reps are always set, so every run stays short
    lines = {
        "robots": draw(st.sampled_from(["1", "2", "3", "4"] + _JUNK)),
        "duration": draw(st.sampled_from(["nan", "inf", "-1", "0", "2"])),
        "reps": draw(st.sampled_from(["1", "2"] + _JUNK)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(_VALID_VALUES)), unique=True)):
        lines[key] = draw(st.sampled_from(_VALID_VALUES[key] + _JUNK))
    flags = []
    if draw(st.booleans()):
        flags += ["--strategy", draw(st.sampled_from(["rand", "DTAP", "nope"]))]
    if draw(st.booleans()):
        flags += ["--noise", draw(st.sampled_from(["0.1", "nan", "inf", "2", "x"]))]
    if draw(st.booleans()):
        flags += ["--seed", draw(st.sampled_from(["3", "-1", "1e308"]))]
    return lines, flags


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "tiny.map").write_text(PATH3)
    return path


@settings(max_examples=60, deadline=None)
@given(case=_fuzzed_config())
def test_cli_fuzzed_config_runs_or_fails_cleanly(fuzz_dir, case):
    lines, flags = case
    cfg_path = fuzz_dir / "exp.cfg"
    cfg_path.write_text(
        "".join(f"{key} = {value.format(tmp=fuzz_dir)}\n" for key, value in lines.items())
    )
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(["simulate", "--config", str(cfg_path), *flags])
        except SystemExit as exc:  # argparse rejects a malformed flag value
            code = exc.code
    if code != 0:
        assert code == 2
        assert "error:" in err.getvalue()
        assert "Traceback" not in err.getvalue()


def test_negative_zero_noise_is_zero_noise(tmp_path):
    (tmp_path / "tiny.map").write_text(PATH3)
    cfg_path = tmp_path / "exp.cfg"
    base = f"map = {tmp_path / 'tiny.map'}\nrobots = 2\nduration = 30\nanomaly = 1\nreps = 2\n"
    cfg_path.write_text(base + "noises = 0.2\nstrategies = cr, rand\n")
    outs = []
    for noise in ("0", "-0", "-0.0"):
        outs.append(tmp_path / f"noise{noise}")
        args = ["simulate", "--config", str(cfg_path), "--noise", noise, "--out", str(outs[-1])]
        assert cli_main(args) == 0
    # a config file's noises go through the same ExperimentConfig
    cfg_path.write_text(base + "noises = -0\nstrategies = cr, rand\n")
    outs.append(tmp_path / "file")
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(outs[-1])]) == 0
    assert ExperimentConfig.from_file(cfg_path).noise_levels == (0.0,)
    assert math.copysign(1.0, ExperimentConfig.from_file(cfg_path).noise_levels[0]) == 1.0
    want = {p.name: p.read_bytes() for p in outs[0].iterdir()}
    assert sorted(want) == [
        "CR_0p0_r0.log", "CR_0p0_r1.log", "RAND_0p0_r0.log", "RAND_0p0_r1.log",
        "runs.csv", "social_edges.csv", "summary.csv",
    ]
    for out in outs[1:]:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == want


def test_cli_strategy_and_noise_overrides(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    (tmp_path / "tiny.map").write_text(PATH3)
    cfg_path.write_text(
        f"map = {tmp_path / 'tiny.map'}\nrobots = 2\nduration = 30\nanomaly = 1\n"
        "noises = 0.0, 0.2\nstrategies = all\nreps = 1\n"
    )
    out = tmp_path / "runs"
    code = cli_main(
        ["simulate", "--config", str(cfg_path), "--strategy", "rand",
         "--noise", "0.2", "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    records = read_runs_csv(out / "runs.csv")
    assert [r.strategy for r in records] == ["RAND"]
    assert records[0].noise == 0.2
    assert records[0].seed == cell_seed(11, "RAND", 0.2, 0)


# ---------------------------------------------------------------------------
# package exports
# ---------------------------------------------------------------------------


def test_every_exported_name_resolves():
    # a name deleted from a module but left in an __all__ would only fail a
    # star import; read every export of the package and of each submodule
    modules = [swarmpatrol] + [
        importlib.import_module(f"swarmpatrol.{info.name}")
        for info in pkgutil.iter_modules(swarmpatrol.__path__)
    ]
    assert len(modules) == 9
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
