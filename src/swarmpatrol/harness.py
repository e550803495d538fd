"""Experiment orchestration: config, seeded runs, aggregation, CSV output.

One run simulates a fixed-duration patrol of one strategy at one noise level
and reduces it to scalar metrics; a matrix sweeps strategies x noise levels
x replicates with per-cell seeds derived from a single master seed, so every
number in the output is reproducible from the config alone.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import MISSING, dataclass, fields
from heapq import heappop, heappush
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .beliefs import digest, format_belief, sense, single_anomaly
from .comms import CommState, tick_comms
from .graph import MapFormatError, PatrolGraph, generate_default_map, parse_map
from .metrics import (
    CommGraph,
    ConsensusTracker,
    algebraic_connectivity,
    classify,
    f_score,
    pearson,
    system_error,
)
from .strategies import POLICIES, StrategyKind, check_settings, decide_next, retarget
from .world import (
    IdlenessTracker,
    MotionTables,
    RngStream,
    RobotState,
    label_seed,
    max_step,
    sample_ticks,
)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "RunRecord",
    "SummaryRow",
    "cell_seed",
    "parse_strategy",
    "load_map",
    "run_one",
    "run_matrix",
    "MotionTrace",
    "TRACE_CAP",
    "summarize",
    "write_runs_csv",
    "read_runs_csv",
    "write_summary_csv",
    "analyze_runs",
    "RUN_COLUMNS",
]

ALL_STRATEGIES: tuple[StrategyKind, ...] = tuple(StrategyKind)

SOCIAL_COLUMNS = ("strategy", "noise", "robot_i", "robot_j", "exchanges")


class ConfigError(ValueError):
    """Raised on unreadable or inconsistent experiment configuration."""


# The radio keeps a record for each of the n(n - 1)/2 robot pairs from the
# start (523,776 at 1024 robots), and run_matrix lists every cell before it
# runs one, so both are bounded before anything is allocated.
MAX_ROBOTS = 1024
MAX_REPS = 10_000


def _noise_level(p: float) -> float:
    """Check a noise level is in [0, 1] and return it as the float its cell runs at.

    -0.0 and 0 equal 0.0, but their reprs would give them other cell seeds
    and log names than the float noise their records carry.
    """
    if not (0.0 <= p <= 1.0):
        raise ConfigError(f"noise level must be in [0, 1], got {p}")
    return float(abs(p))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment matrix."""

    map_file: Optional[str] = None
    map_seed: Optional[int] = None
    n_robots: int = 8
    speed: float = 1.0
    dt: float = 0.1
    duration: float = 3600.0
    comm_range: float = 5.0
    comm_timeout: float = 30.0
    anomaly_node: int = 30
    quorum: float = 0.85
    start_node: int = 0
    noise_levels: tuple[float, ...] = (0.0, 0.05, 0.2)
    strategies: tuple[StrategyKind, ...] = ALL_STRATEGIES
    reps: int = 20
    master_seed: int = 0
    # the policies' tunables, which strategies.check_settings checks
    cbls_alpha: float = 0.3
    cbls_epsilon: float = 0.2
    dtap_period_s: float = 20.0
    task_distance_weight: float = 7.0

    def __post_init__(self):
        if self.map_file is not None and self.map_seed is not None:
            raise ConfigError("give either map_file or map_seed, not both")
        if self.map_seed is not None and self.map_seed < 0:
            raise ConfigError(f"map_seed must be >= 0, got {self.map_seed}")
        if not (1 <= self.n_robots <= MAX_ROBOTS):
            raise ConfigError(f"n_robots must be in 1..{MAX_ROBOTS}, got {self.n_robots}")
        if not (self.speed > 0.0):
            raise ConfigError(f"speed must be positive, got {self.speed}")
        if not (self.dt > 0.0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if math.isinf(1.0 / self.dt):
            raise ConfigError(f"dt {self.dt} is too small: 1/dt is not finite")
        if not (0.0 <= self.duration < math.inf):
            raise ConfigError(f"duration must be finite and >= 0, got {self.duration}")
        if math.isinf(self.duration / self.dt):
            raise ConfigError(f"duration {self.duration} is too many ticks of dt {self.dt}")
        if not (self.comm_range > 0.0):
            raise ConfigError(f"comm_range must be positive, got {self.comm_range}")
        if not (self.comm_timeout >= 0.0):
            raise ConfigError(f"comm_timeout must be >= 0, got {self.comm_timeout}")
        if not (0.0 < self.quorum <= 1.0):
            raise ConfigError(f"quorum must be in (0, 1], got {self.quorum}")
        object.__setattr__(self, "noise_levels", tuple(map(_noise_level, self.noise_levels)))
        if not (1 <= self.reps <= MAX_REPS):
            raise ConfigError(f"reps must be in 1..{MAX_REPS}, got {self.reps}")
        if not self.strategies:
            raise ConfigError("strategies must not be empty")
        if not self.noise_levels:
            raise ConfigError("noise_levels must not be empty")
        # a repeated cell would run twice and be summarized as one group
        for label, values in (
            ("strategy", [kind.value for kind in self.strategies]),
            ("noise level", list(self.noise_levels)),
        ):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"duplicate {label} {value}")
        try:
            check_settings(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """Load a line-oriented 'key = value' config file.

        '#' starts a comment, blank lines are skipped, unknown and repeated
        keys are an error. List values (noises, strategies) are comma
        separated; strategies also accepts 'all'.
        """
        kwargs: dict = {}
        seen: dict[str, int] = {}  # key -> the line it was given on
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            if key in seen:
                raise ConfigError(f"{path}:{line_no}: config key {key!r} repeats line {seen[key]}")
            seen[key] = line_no
            name, parse = _CONFIG_KEYS[key]
            try:
                kwargs[name] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from None


def parse_strategy(name: str) -> StrategyKind:
    """The policy named `name`, in any case; ConfigError if there is none."""
    try:
        return StrategyKind[name.strip().upper()]
    except KeyError:
        known = ", ".join(k.value for k in ALL_STRATEGIES)
        raise ConfigError(f"unknown strategy {name.strip()!r} (known: {known})") from None


def _parse_strategies(value: str) -> tuple[StrategyKind, ...]:
    if value.strip().lower() == "all":
        return ALL_STRATEGIES
    return tuple(parse_strategy(token) for token in value.split(",") if token.strip())


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in value.split(",") if tok.strip())


# config key -> (field it sets, value parser)
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "map": ("map_file", str),
    "map_seed": ("map_seed", int),
    "robots": ("n_robots", int),
    "speed": ("speed", float),
    "dt": ("dt", float),
    "duration": ("duration", float),
    "comm_range": ("comm_range", float),
    "comm_timeout": ("comm_timeout", float),
    "anomaly": ("anomaly_node", int),
    "quorum": ("quorum", float),
    "start_node": ("start_node", int),
    "noises": ("noise_levels", _parse_floats),
    "strategies": ("strategies", _parse_strategies),
    "reps": ("reps", int),
    "seed": ("master_seed", int),
    "cbls_alpha": ("cbls_alpha", float),
    "cbls_epsilon": ("cbls_epsilon", float),
    "dtap_period": ("dtap_period_s", float),
    "task_weight": ("task_distance_weight", float),
}


def load_map(cfg: ExperimentConfig) -> PatrolGraph:
    """Resolve the configured map: explicit file, generator seed, or bundled.

    A map file that cannot be read or is not a valid map raises ConfigError.
    """
    if cfg.map_file is not None:
        try:
            return parse_map(Path(cfg.map_file).read_text())
        except (OSError, UnicodeDecodeError, MapFormatError) as exc:
            raise ConfigError(f"map {cfg.map_file}: {exc}") from None
    if cfg.map_seed is not None:
        return generate_default_map(cfg.map_seed)
    text = resources.files("swarmpatrol").joinpath("data/default_map.txt").read_text()
    return parse_map(text)


def cell_seed(master_seed: int, strategy: str, noise: float, rep: int) -> int:
    """Derive a 64-bit run seed from the cell coordinates."""
    return label_seed(f"{master_seed}|{strategy}|{noise!r}|{rep}")


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one run: the per-run CSV's columns, then what only a live run knows.

    The fields without a default are runs.csv's columns, in order: RUN_COLUMNS.
    exchanges holds (i, j, count) for each robot pair i < j that exchanged
    at least once, in ascending (i, j) order.
    """

    strategy: str
    noise: float
    seed: int
    avg_graph_idleness: float
    final_error: float
    f_score: float  # already rounded to 4 decimals
    lambda2: float
    t_consensus: Optional[float]
    tp_consensus: bool
    fp_consensus_count: int
    rep: int = -1
    misinformed: Optional[bool] = None
    exchanges: tuple[tuple[int, int, int], ...] = ()

    @property
    def n_exchanges(self) -> int:
        return sum(count for _, _, count in self.exchanges)


RUN_COLUMNS = tuple(f.name for f in fields(RunRecord) if f.default is MISSING)


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate over the replicates of one (strategy, noise) cell; its fields are summary.csv's."""

    strategy: str
    noise: float
    runs: int
    idleness_mean: float
    idleness_std: float
    error_mean: float
    fscore_mean: float
    fscore_std: float
    consensus_rate: float
    t_consensus_mean: Optional[float]
    tp_consensus_rate: float
    fp_consensus_mean: float
    lambda2_mean: float
    lambda2_median: float
    note: str


SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


def _noise_token(noise: float) -> str:
    return repr(float(noise)).replace(".", "p").replace("-", "m")


def _check_map(cfg: ExperimentConfig, g: PatrolGraph) -> None:
    """Raise ConfigError unless cfg's start node, anomaly node and step fit map g."""
    m = g.node_count
    for label, node in (("start_node", cfg.start_node), ("anomaly_node", cfg.anomaly_node)):
        if not (0 <= node < m):
            raise ConfigError(f"{label} {node} outside the map's nodes 0..{m - 1}")
    # a robot makes at most one arrival a tick and drops the overshoot, so a
    # step longer than an edge would silently slow the robots down
    step = cfg.speed * cfg.dt
    shortest_edge = min(d for _, _, d in g.edges)
    if step > shortest_edge:
        raise ConfigError(
            f"speed {cfg.speed} x dt {cfg.dt} = {step} m a tick is longer than "
            f"the map's shortest edge of {shortest_edge} m"
        )


# Most entries a MotionTrace holds: each goal change and arrival is one, and
# so is each exchanged pair. A 3600 s run of 8 robots on the bundled map
# records 7,000 to 11,000, at about 95 bytes each. Past the cap recording
# stops, so a trace never holds much over 12 MB, however large the fleet or
# short the cooldown, and the strategy's other cells run in full.
TRACE_CAP = 1 << 17

# The motion loop hands its events on in batches of about this many entries
# (events plus pair ids). The consumer never steers the motion, so when it
# sees an event changes nothing, and with a radio that exchanges on every
# tick, one call a tick made a run about 12% slower.
_FEED_BATCH = 1024

# the kinds of event a trace holds
_GOAL, _VISIT, _COMM = range(3)


class _Motion(NamedTuple):
    """What a run measures from motion alone, whatever its sensing draws."""

    avg_graph_idleness: float
    lambda2: float
    exchanges: tuple[tuple[int, int, int], ...]


class MotionTrace:
    """One run's motion as its beliefs see it, recorded once and replayed by other cells.

    events lists, in execution order, the goal changes (_GOAL, t, robot,
    node), the arrivals (_VISIT, t, robot, node) and each tick's exchanges
    (_COMM, t, ids, None), ids being the pair ids that exchanged, in the
    order they ran; pairs[p] is the robot pair (i, j) of pair id p.

    A policy that does not declare `draws` never reads the cell seed, so
    every cell of one config, map and strategy moves the same way. Its run
    records into a new trace and keeps it unless it passes TRACE_CAP
    entries; a kept trace has motion set, and run_one replays it.
    """

    __slots__ = ("events", "size", "pairs", "motion", "source")

    def __init__(self) -> None:
        self.events: Optional[list[tuple]] = []
        self.size = 0  # events plus exchanged pair ids recorded
        self.pairs: list[tuple[int, int]] = []
        self.motion: Optional[_Motion] = None
        self.source: tuple = ()  # the (cfg, g, kind) of a kept trace

    def record(self, events: list[tuple], entries: int) -> bool:
        """Append events, which hold `entries` events and pair ids; past the cap, drop all.

        Returns whether the trace is still recording.
        """
        self.size += entries
        if self.size > TRACE_CAP:
            self.events = None
            return False
        self.events += events
        return True


class _CellBeliefs:
    """One cell's sensing, fusion and log lines: the one consumer of a run's events.

    The motion loop feeds it its events as it goes, and a replay feeds it a
    trace's. It senses each arrival on the cell's own sense streams, fuses
    each tick's exchanges on its ConsensusTracker and, when logging, renders
    each event's log line.
    """

    __slots__ = ("truth", "noise", "rngs", "consensus", "lines", "_m", "_digests")

    def __init__(
        self, cfg: ExperimentConfig, g: PatrolGraph, run_seed: int, noise: float, logged: bool
    ):
        n = cfg.n_robots
        self._m = g.node_count
        self.truth = single_anomaly(self._m, cfg.anomaly_node)
        self.noise = noise
        self.rngs = [RngStream(run_seed, "sense", i) for i in range(n)]
        self.consensus = ConsensusTracker(self.truth, n, cfg.quorum)
        self.lines: Optional[list[str]] = [] if logged else None
        self._digests: dict[tuple[int, int], str] = {}  # digest of each vector logged

    def feed(self, events: Iterable[tuple], pairs: Sequence[tuple[int, int]]) -> None:
        """Apply MotionTrace events in execution order; pairs[p] is pair id p's (i, j)."""
        truth, noise, rngs, m = self.truth, self.noise, self.rngs, self._m
        consensus, lines, digests = self.consensus, self.lines, self._digests
        last = None
        for kind, t, a, b in events:
            if lines is not None and t != last:
                # events come in time order, so each time is formatted once a batch
                last, ts = t, f"{t:.3f}"
            if kind == _VISIT:
                held = consensus.sensed(t, a, b, sense(truth, b, noise, rngs[a]))
                if lines is not None:
                    belief = format_belief(held, b)
                    lines.append(f"{ts} visit robot={a} node={b} belief={belief}")
            elif kind == _COMM:
                consensus.exchanged(t, map(pairs.__getitem__, a))
                if lines is not None:
                    # every exchange of the tick has run, so the digest is end-of-tick state
                    vectors = consensus.vectors
                    for p in a:
                        i, j = pairs[p]
                        v = vectors[i]
                        d = digests.get(v)
                        if d is None:
                            d = digests[v] = digest(v, m)
                        lines.append(f"{ts} comm robot={i} peer={j} beliefs={d}")
            elif lines is not None:
                lines.append(f"{ts} goal robot={a} node={b}")


def _simulate(
    cfg: ExperimentConfig,
    g: PatrolGraph,
    kind: StrategyKind,
    run_seed: int,
    feed: Callable[[list[tuple], Sequence[tuple[int, int]]], None],
    trace: Optional[MotionTrace],
) -> _Motion:
    """Move one run's fleet, handing its events to feed, with the pairs, as it goes.

    A draw-free policy's run records them into a new trace too (see MotionTrace).
    """
    m = g.node_count
    n = cfg.n_robots
    step = cfg.speed * cfg.dt
    tracker = IdlenessTracker(m)
    policy = POLICIES[kind](g, cfg)
    tables = MotionTables(g, step)  # the fleet's shared edge plans, dropped with the run
    robots = [RobotState.at_node(i, g, cfg.start_node, step, tables) for i in range(n)]
    comm = CommState(n, cfg.comm_range, cfg.comm_timeout, cfg.dt, max_step(g, cfg.speed, cfg.dt))
    # the cell seed reaches the motion through these streams alone; a
    # draw-free policy gets None, so a draw it should not make raises
    strat_rngs = [RngStream(run_seed, "strategy", i) if policy.draws else None for i in range(n)]
    recording = trace is not None and trace.events is not None and not policy.draws

    dt = cfg.dt
    ticks = int(round(cfg.duration / dt))
    last_visit = tracker.last_visit
    pairs = comm.pairs
    events: list[tuple] = []  # not yet fed, in execution order
    pending_ids = 0  # pair ids in events
    # each robot sits in the bucket of its due tick; a heap holds the keys
    moves: dict[int, list[int]] = {1: list(range(n))}
    move_ticks = [1]
    samples = sample_ticks(dt, ticks)
    next_sample = next(samples, math.inf)

    def take_samples(before: float) -> None:
        # last_visit changes only when robots move, so a sample taken later
        # for a tick with no moves since reads what that tick left
        nonlocal next_sample
        while next_sample < before:
            tracker.sample(next_sample * dt)
            next_sample = next(samples, math.inf)

    def flush() -> None:
        nonlocal recording, pending_ids
        feed(events, pairs)
        if recording:
            recording = trace.record(events, len(events) + pending_ids)
        events.clear()
        pending_ids = 0

    def schedule(r: RobotState) -> None:
        bucket = moves.get(r.due)
        if bucket is None:
            moves[r.due] = [r.id]
            heappush(move_ticks, r.due)
        else:
            bucket.append(r.id)

    k = 0
    while True:
        hook = policy.next_tick()
        # a tick where no robot, pair or policy hook is due changes nothing
        k = max(k + 1, min(move_ticks[0], comm.next_tick(), hook))
        if k > ticks:
            break
        t = k * dt
        if hook <= k:
            for rid, v in policy.tick(k, t, robots, last_visit):
                r = robots[rid]
                due = r.due
                retarget(r, g, v, k)
                if r.due != due:
                    moves[due].remove(rid)
                    schedule(r)
                events.append((_GOAL, t, rid, v))
        if move_ticks[0] == k:
            heappop(move_ticks)
            take_samples(k)
            # in ascending id: last_visit and announced intentions carry one
            # robot's decision to the next
            for rid in sorted(moves.pop(k)):
                r = robots[rid]
                arrived = r.step(g, k)
                schedule(r)
                if arrived is None:
                    continue
                idleness_before = t - last_visit[arrived]
                last_visit[arrived] = t
                events.append((_VISIT, t, rid, arrived))
                policy.visited(rid, arrived, idleness_before)
                if arrived == r.goal:
                    goal = decide_next(policy, rid, arrived, t, last_visit, strat_rngs[rid])
                    r.goal = goal
                    r.path = g.shortest_path(arrived, goal)[0][1:]
                    events.append((_GOAL, t, rid, goal))
        exchanged = tick_comms(robots, comm, k)
        if exchanged:
            events.append((_COMM, t, exchanged, None))
            pending_ids += len(exchanged)
        if len(events) + pending_ids >= _FEED_BATCH:
            flush()
    flush()
    take_samples(math.inf)

    result = _Motion(
        avg_graph_idleness=tracker.average(),
        lambda2=algebraic_connectivity(CommGraph.from_exchanges(n, pairs, comm.exchanges)),
        exchanges=tuple((i, j, count) for (i, j), count in zip(pairs, comm.exchanges) if count),
    )
    if recording:
        trace.pairs, trace.motion, trace.source = pairs, result, (cfg, g, kind)
    return result


def run_one(
    cfg: ExperimentConfig,
    g: PatrolGraph,
    kind: StrategyKind,
    noise: float,
    rep: int,
    out_dir: Optional[Path] = None,
    trace: Optional[MotionTrace] = None,
) -> RunRecord:
    """Simulate one run and reduce it to a RunRecord.

    When out_dir is given, the per-event log is written there as
    <strategy>_<noise>_r<rep>.log with byte-stable lines.

    Given a new MotionTrace, a draw-free policy's run records into it (see
    MotionTrace). Given a kept trace of the same cfg, g and kind, the run
    replays it: only the sensing draws of this cell's seed, the fusions and
    the log lines are computed. Either way the record and the log equal a
    run's with no trace.
    """
    _check_map(cfg, g)
    noise = _noise_level(noise)
    run_seed = cell_seed(cfg.master_seed, kind.value, noise, rep)
    cell = _CellBeliefs(cfg, g, run_seed, noise, logged=out_dir is not None)
    if trace is not None and trace.motion is not None:
        if trace.source != (cfg, g, kind):
            raise ValueError("a trace replays only the config, map and strategy it was recorded on")
        cell.feed(trace.events, trace.pairs)
        motion = trace.motion
    else:
        motion = _simulate(cfg, g, kind, run_seed, cell.feed, trace)

    counts = classify(cell.consensus.vectors, cell.truth)
    report = cell.consensus.report()
    record = RunRecord(
        strategy=kind.value,
        noise=noise,
        seed=run_seed,
        avg_graph_idleness=motion.avg_graph_idleness,
        final_error=float(system_error(counts)),
        f_score=round(float(f_score(counts)), 4),
        lambda2=motion.lambda2,
        t_consensus=report.t_full_consensus,
        tp_consensus=report.tp_consensus,
        fp_consensus_count=report.fp_consensus_count,
        rep=rep,
        misinformed=cell.consensus.misinformed,
        exchanges=motion.exchanges,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        name = f"{kind.value}_{_noise_token(noise)}_r{rep}.log"
        lines = cell.lines
        (out_dir / name).write_text("\n".join(lines) + ("\n" if lines else ""))
    return record


def run_matrix(
    cfg: ExperimentConfig,
    out_dir: Optional[Path] = None,
    g: Optional[PatrolGraph] = None,
    progress: bool = False,
) -> tuple[list[RunRecord], list[SummaryRow]]:
    """Run the full strategy x noise x replicate matrix in canonical order.

    Canonical order is strategies as configured, noise levels as configured,
    replicates ascending; the per-run CSV rows follow it, so repeated
    executions of the same config are byte-identical. With out_dir, writes
    runs.csv, summary.csv and social_edges.csv there, beside the run logs.

    Every cell goes through run_one. A draw-free strategy with more than one
    cell shares one MotionTrace among them: the first cell records it and
    the others replay it, unless it passed TRACE_CAP.
    """
    if g is None:
        g = load_map(cfg)
    _check_map(cfg, g)
    cells = [
        (kind, noise, rep)
        for kind in cfg.strategies
        for noise in cfg.noise_levels
        for rep in range(cfg.reps)
    ]
    seeds = [cell_seed(cfg.master_seed, kind.value, noise, rep) for kind, noise, rep in cells]
    if len(set(seeds)) != len(seeds):
        raise RuntimeError("cell seed collision; change the master seed")
    if out_dir is not None:
        # an unusable output path fails here, not after the first cell
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    per_strategy = len(cfg.noise_levels) * cfg.reps
    records: list[RunRecord] = []
    for idx, (kind, noise, rep) in enumerate(cells):
        if idx % per_strategy == 0:
            trace = MotionTrace() if per_strategy > 1 and not POLICIES[kind].draws else None
        records.append(run_one(cfg, g, kind, noise, rep, out_dir=out_dir, trace=trace))
        if progress:
            print(f"[{idx + 1}/{len(cells)}] {kind.value} noise={noise} rep={rep}", flush=True)
    summaries = summarize(records)
    if out_dir is not None:
        write_runs_csv(out_dir / "runs.csv", records)
        write_summary_csv(out_dir / "summary.csv", summaries)
        _write_table(out_dir / "social_edges.csv", SOCIAL_COLUMNS, _social_edges(records))
    return records, summaries


def _social_edges(records: Sequence[RunRecord]) -> list[tuple[str, str, int, int, int]]:
    """Exchange counts per (strategy, noise, robot_i, robot_j), pooled over replicates.

    Rows are in ascending order of the key, with the noise as its repr.
    """
    counts: dict[tuple[str, str, int, int], int] = {}
    for r in records:
        for i, j, count in r.exchanges:
            key = (r.strategy, repr(r.noise), i, j)
            counts[key] = counts.get(key, 0) + count
    return [(*key, count) for key, count in sorted(counts.items())]


def summarize(records: Sequence[RunRecord]) -> list[SummaryRow]:
    """Aggregate records into per-(strategy, noise) rows, in input order.

    Standard deviations are population deviations (divide by n), so a single
    replicate reports 0; such rows carry a note.
    """
    groups: dict[tuple[str, float], list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.strategy, rec.noise), []).append(rec)
    rows: list[SummaryRow] = []
    for (strategy, noise), recs in groups.items():
        n = len(recs)
        idleness = [r.avg_graph_idleness for r in recs]
        errors = [r.final_error for r in recs]
        scores = [r.f_score for r in recs]
        lambdas = [r.lambda2 for r in recs]
        reached = [r.t_consensus for r in recs if r.t_consensus is not None]
        rows.append(
            SummaryRow(
                strategy=strategy,
                noise=noise,
                runs=n,
                idleness_mean=_mean(idleness),
                idleness_std=_pstd(idleness),
                error_mean=_mean(errors),
                fscore_mean=_mean(scores),
                fscore_std=_pstd(scores),
                consensus_rate=len(reached) / n,
                t_consensus_mean=_mean(reached) if reached else None,
                tp_consensus_rate=sum(1 for r in recs if r.tp_consensus) / n,
                fp_consensus_mean=_mean([float(r.fp_consensus_count) for r in recs]),
                lambda2_mean=_mean(lambdas),
                lambda2_median=float(statistics.median(lambdas)),
                note="std is 0 by definition for a single run" if n == 1 else "",
            )
        )
    return rows


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _pstd(xs: Sequence[float]) -> float:
    mu = _mean(xs)
    try:
        return math.sqrt(sum((x - mu) ** 2 for x in xs) / len(xs))
    except OverflowError:
        # a square left the float range, as the sum in an infinite mean does
        return math.inf


# ---------------------------------------------------------------------------
# CSV serialization; floats use repr so reading back is lossless, None is an
# empty cell and a bool is 0 or 1
# ---------------------------------------------------------------------------


def _cell(x: object) -> object:
    if x is None:
        return ""
    if isinstance(x, bool):
        return int(x)
    return repr(x) if isinstance(x, float) else x


def _write_table(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write one CSV table in the default dialect, each cell through _cell; returns path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)
    return path


def write_runs_csv(path: Path, records: Sequence[RunRecord]) -> None:
    # f_score is already rounded, and always shows its 4 decimals
    rows = (
        [f"{r.f_score:.4f}" if c == "f_score" else getattr(r, c) for c in RUN_COLUMNS]
        for r in records
    )
    _write_table(path, RUN_COLUMNS, rows)


def _within(
    row: dict[str, str], column: str, high: float = math.inf, parse: Callable = float
) -> float:
    """The row's number in `column`, which must be finite, lie in [0, high] and not be -0.0."""
    x = parse(row[column])
    if not math.isfinite(x):
        raise ValueError(f"{row[column]!r} is not a finite number")
    if not 0 <= x <= high:
        raise ValueError(f"{column} {x} outside [0, {high}]")
    if x == 0 and math.copysign(1.0, x) < 0:
        raise ValueError(f"{column} {x} is a negative zero")
    return x


def read_runs_csv(path: Path) -> list[RunRecord]:
    """Read a runs.csv back; a value write_runs_csv never writes is a ConfigError.

    strategy is a StrategyKind value and seed lies in [0, 2**64 - 1], as
    label_seed makes them. Numbers must be finite and not -0.0; noise,
    final_error and f_score lie in [0, 1], avg_graph_idleness and lambda2
    are at least 0, t_consensus is empty or positive, tp_consensus is 0 or
    1 and fp_consensus_count at least 0. A row has one value per column. Bytes
    that do not decode are read as surrogate escapes, which no column
    accepts, so they end in a ConfigError too.
    """
    records: list[RunRecord] = []
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != RUN_COLUMNS:
            raise ConfigError(f"{path}: unexpected columns {reader.fieldnames}")
        for row in reader:
            try:
                if None in row:  # DictReader files values past the header under None
                    raise ValueError(f"{len(RUN_COLUMNS) + len(row[None])} values "
                                     f"for {len(RUN_COLUMNS)} columns")
                t_consensus = _within(row, "t_consensus") if row["t_consensus"] else None
                if t_consensus == 0.0:
                    raise ValueError("t_consensus 0.0 is not positive")
                records.append(
                    RunRecord(
                        strategy=StrategyKind(row["strategy"]).value,
                        noise=_within(row, "noise", 1),
                        seed=_within(row, "seed", 2**64 - 1, int),
                        avg_graph_idleness=_within(row, "avg_graph_idleness"),
                        final_error=_within(row, "final_error", 1),
                        f_score=_within(row, "f_score", 1),
                        lambda2=_within(row, "lambda2"),
                        t_consensus=t_consensus,
                        tp_consensus=bool(_within(row, "tp_consensus", 1, int)),
                        fp_consensus_count=_within(row, "fp_consensus_count", parse=int),
                    )
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}:{reader.line_num}: bad row: {exc}") from None
    return records


def write_summary_csv(path: Path, rows: Sequence[SummaryRow]) -> None:
    _write_table(path, SUMMARY_COLUMNS, ([getattr(s, c) for c in SUMMARY_COLUMNS] for s in rows))


# ---------------------------------------------------------------------------
# post-hoc analysis over a runs directory
# ---------------------------------------------------------------------------


def _correlation_row(noise: float, records: Sequence[RunRecord]) -> list:
    points = [
        (r.lambda2, r.t_consensus)
        for r in records
        if r.noise == noise and r.t_consensus is not None
    ]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    note = ""
    r_val = p_val = None
    if len(points) < 3:
        note = "fewer than 3 consensus runs"
    elif len(set(xs)) == 1 or len(set(ys)) == 1:
        note = "degenerate variance"
    else:
        try:
            r_val, p_val = pearson(xs, ys)
        except ValueError:
            # distinct values whose squared deviations underflow to zero
            note = "degenerate variance"
        except OverflowError:
            note = "sums overflow the float range"
    return [noise, len(points), r_val, p_val, note]


def analyze_runs(runs_dir: Path) -> list[Path]:
    """Build analysis CSVs from the runs.csv in runs_dir, the only file read.

    Emits correlations.csv (per-noise Pearson between lambda2 and
    consensus time), connectivity_by_strategy.csv (per-cell lambda2 stats),
    consensus_vs_connectivity.csv (per-run scatter points) and
    consensus_outcomes.csv (true/false positive consensus rates). The
    per-pair exchange counts, social_edges.csv, come from run_matrix.
    """
    runs_dir = Path(runs_dir)
    records = read_runs_csv(runs_dir / "runs.csv")
    noises = sorted({r.noise for r in records})
    strategies = list(dict.fromkeys(r.strategy for r in records))
    by_cell = {(s.strategy, s.noise): s for s in summarize(records)}
    cells = [
        (strategy, noise, by_cell[strategy, noise])
        for strategy in strategies
        for noise in noises
        if (strategy, noise) in by_cell
    ]
    return [
        _write_table(
            runs_dir / "correlations.csv",
            ("noise", "n_points", "pearson_r", "p_value", "note"),
            (_correlation_row(noise, records) for noise in noises),
        ),
        _write_table(
            runs_dir / "connectivity_by_strategy.csv",
            ("strategy", "noise", "lambda2_median", "lambda2_mean"),
            ([strategy, noise, s.lambda2_median, s.lambda2_mean] for strategy, noise, s in cells),
        ),
        _write_table(
            runs_dir / "consensus_vs_connectivity.csv",
            ("strategy", "noise", "seed", "lambda2", "t_consensus"),
            ([r.strategy, r.noise, r.seed, r.lambda2, r.t_consensus] for r in records),
        ),
        _write_table(
            runs_dir / "consensus_outcomes.csv",
            ("strategy", "noise", "tp_consensus_rate", "fp_consensus_mean"),
            (
                [strategy, noise, s.tp_consensus_rate, s.fp_consensus_mean]
                for strategy, noise, s in cells
            ),
        ),
    ]
