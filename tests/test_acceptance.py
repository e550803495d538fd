"""Acceptance checks: one test per required property of the full system.

The heavyweight fixture runs the complete reference matrix once per session
(10 strategies x 3 noise levels x 20 replicates on the bundled 40-node map,
8 robots, 3600 simulated seconds per run) and every behavioral check reads
from it. Each test records one labelled PASS/FAIL line; the lines are
printed together at the end of the pytest run.
"""

import filecmp
import statistics
import time
from dataclasses import replace
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest

from _oracles import (
    brute_f_score,
    brute_system_error,
    eigenvalues_by_charpoly,
    fuse_lists,
    pack,
    pack_truth,
    unpack,
)
from swarmpatrol.beliefs import fuse_vectors
from swarmpatrol.harness import ExperimentConfig, RunRecord, load_map, run_matrix
from swarmpatrol.metrics import (
    CommGraph,
    algebraic_connectivity,
    classify,
    f_score,
    jacobi_eigenvalues,
    pearson,
    system_error,
)

F, U, T = 0, 1, 2  # half-units of truth

HIGH_GROUP = ("CR", "HCR", "HPCC", "CGG")
LOW_GROUP = ("DTAG", "DTAP")


class Matrix(NamedTuple):
    cfg: ExperimentConfig
    records: list[RunRecord]
    elapsed: float


@pytest.fixture(scope="session")
def matrix() -> Matrix:
    cfg = ExperimentConfig()
    g = load_map(cfg)
    t0 = time.perf_counter()
    records, _ = run_matrix(cfg, g=g)
    return Matrix(cfg, records, time.perf_counter() - t0)


def _at_noise(records, noise):
    return [r for r in records if r.noise == noise]


def _by_strategy(records):
    out: dict[str, list[RunRecord]] = {}
    for r in records:
        out.setdefault(r.strategy, []).append(r)
    return out


def _mean(xs):
    return sum(xs) / len(xs)


# ---------------------------------------------------------------------------
# exact algebra and formula checks
# ---------------------------------------------------------------------------


def _fuse(a, b):
    # one node's fusion, read off fuse_vectors on one-node vectors
    return unpack(fuse_vectors(pack([a]), pack([b])), 1)[0]


def test_fusion_operator_is_exact(check):
    t0 = time.perf_counter()
    table = {
        (F, F): F, (F, U): F, (F, T): U,
        (U, F): F, (U, U): U, (U, T): T,
        (T, F): U, (T, U): T, (T, T): T,
    }
    cells_ok = all(
        _fuse(a, b) == want and fuse_lists([a], [b]) == [want] for (a, b), want in table.items()
    )
    clamp_ok = all(
        _fuse(a, b) == min(max(a + b - 1, 0), 2) for a, b in product((0, 1, 2), repeat=2)
    )
    witness_ok = _fuse(_fuse(F, T), T) != _fuse(F, _fuse(T, T))
    elapsed = time.perf_counter() - t0
    check(
        "belief fusion: 9-cell table exact, clamp-equivalent, non-associative",
        cells_ok and clamp_ok and witness_ok and elapsed < 1.0,
        f"{elapsed:.3f} s",
    )


def test_eigensolver_against_oracles(check):
    t0 = time.perf_counter()
    complete = CommGraph(weights=np.ones((8, 8)) - np.eye(8))
    complete_ok = abs(algebraic_connectivity(complete) - 8.0) <= 1e-8

    # two chains 0-1-2-3 and 4-5-6-7, one exchange on each link
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    links = {(i, i + 1) for i in (0, 1, 2, 4, 5, 6)}
    split = CommGraph.from_exchanges(8, pairs, [int(pair in links) for pair in pairs])
    split_ok = algebraic_connectivity(split) <= 1e-8

    rng = np.random.default_rng(1234)
    worst = 0.0
    for k in range(100):
        n = 3 if k % 2 == 0 else 4
        a = rng.normal(size=(n, n)) * 5.0
        s = (a + a.T) / 2.0
        got = jacobi_eigenvalues(s)
        want = eigenvalues_by_charpoly(s)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    check(
        "eigensolver: complete and split contact graphs, 100 random matrices",
        complete_ok and split_ok and worst <= 1e-7 and elapsed < 5.0,
        f"max |diff| {worst:.2e}, {elapsed:.2f} s",
    )


def test_error_and_fscore_formulas_brute_forced(check):
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        n_robots = int(rng.integers(1, 9))
        m = int(rng.integers(1, 41))
        vectors = [[int(b) for b in rng.integers(0, 3, size=m)] for _ in range(n_robots)]
        truth = [bool(v) for v in rng.integers(0, 2, size=m)]
        counts = classify([pack(row) for row in vectors], pack_truth(truth))
        if system_error(counts) != brute_system_error(vectors, truth):
            mismatches += 1
        elif f_score(counts) != brute_f_score(vectors, truth):
            mismatches += 1
    check(
        "system error and F-score: exact match with brute force on 1000 configurations",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# behavioral checks over the full matrix
# ---------------------------------------------------------------------------


def test_zero_noise_runs_stay_pure(check, matrix):
    runs = _at_noise(matrix.records, 0.0)
    n_misinformed = sum(1 for r in runs if r.misinformed)
    n_fp = sum(1 for r in runs if r.fp_consensus_count != 0)
    check(
        "noise 0: no certain belief ever contradicts the truth, no false consensus",
        len(runs) == 200 and n_misinformed == 0 and n_fp == 0,
        f"{len(runs)} runs, {n_misinformed} misinformed, {n_fp} with false consensus, "
        f"matrix {matrix.elapsed:.0f} s (< 600 s target)",
    )
    assert matrix.elapsed < 600.0


def test_zero_noise_consensus_rate_and_perfect_fscore(check, matrix):
    runs = _at_noise(matrix.records, 0.0)
    reached = [r for r in runs if r.t_consensus is not None]
    rate = len(reached) / len(runs)
    imperfect = sum(1 for r in reached if r.f_score != 1.0)
    check(
        "noise 0: >= 95% of runs reach quorum consensus, each with F-score 1.0",
        rate >= 0.95 and imperfect == 0,
        f"rate {rate:.1%}, {imperfect} consensus runs below F = 1",
    )


def test_connectivity_correlates_with_faster_consensus(check, matrix):
    reached = [r for r in _at_noise(matrix.records, 0.0) if r.t_consensus is not None]
    xs = [r.lambda2 for r in reached]
    ys = [r.t_consensus for r in reached]
    r_val, p_val = pearson(xs, ys)
    check(
        "pooled noise 0: consensus time falls as connectivity rises",
        r_val < 0.0 and p_val < 0.05,
        f"r = {r_val:.4f}, p = {p_val:.3g}, n = {len(xs)}",
    )


def test_false_consensus_grows_with_noise(check, matrix):
    groups = _by_strategy(matrix.records)
    violations = []
    for strategy, recs in groups.items():
        lo = _mean([r.fp_consensus_count for r in recs if r.noise == 0.05])
        hi = _mean([r.fp_consensus_count for r in recs if r.noise == 0.2])
        if hi < lo:
            violations.append(f"{strategy} ({lo:.2f} -> {hi:.2f})")
    check(
        "false consensus count: mean at 20% noise >= mean at 5% (at most 1 exception)",
        len(violations) <= 1,
        "; ".join(violations) if violations else "0 violations",
    )


def test_fscore_degrades_with_noise(check, matrix):
    groups = _by_strategy(matrix.records)
    violations = []
    for strategy, recs in groups.items():
        clean = _mean([r.f_score for r in recs if r.noise == 0.0])
        noisy = _mean([r.f_score for r in recs if r.noise == 0.2])
        if clean < noisy:
            violations.append(f"{strategy} ({clean:.4f} -> {noisy:.4f})")
    check(
        "F-score: mean at 0% noise >= mean at 20% noise for every strategy",
        not violations,
        "; ".join(violations) if violations else "0 violations",
    )


def test_connectivity_separates_strategy_families(check, matrix):
    runs = _at_noise(matrix.records, 0.0)
    groups = _by_strategy(runs)
    med = {s: statistics.median([r.lambda2 for r in recs]) for s, recs in groups.items()}
    high_floor = min(med[s] for s in HIGH_GROUP)
    low_ceiling = max(med[s] for s in LOW_GROUP)
    high_median = statistics.median([med[s] for s in HIGH_GROUP])
    low_median = statistics.median([med[s] for s in LOW_GROUP])
    sebs, cbls = med["SEBS"], med["CBLS"]
    between = low_median < sebs < high_median and low_median < cbls < high_median
    check(
        "lambda2 medians: synchronized group above auction group, SEBS and CBLS between",
        high_floor > low_ceiling and between,
        f"min(high) {high_floor:.2f} > max(low) {low_ceiling:.2f}; "
        f"SEBS {sebs:.2f}, CBLS {cbls:.2f} within ({low_median:.2f}, {high_median:.2f})",
    )


def test_learning_strategies_patrol_better_than_random(check, matrix):
    runs = _at_noise(matrix.records, 0.0)
    groups = _by_strategy(runs)
    idle = {s: _mean([r.avg_graph_idleness for r in recs]) for s, recs in groups.items()}
    check(
        "mean graph idleness at noise 0: SEBS and CBLS each beat RAND",
        idle["SEBS"] < idle["RAND"] and idle["CBLS"] < idle["RAND"],
        f"SEBS {idle['SEBS']:.1f}, CBLS {idle['CBLS']:.1f}, RAND {idle['RAND']:.1f}",
    )


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_repeat_execution_is_byte_identical(check, tmp_path):
    cfg = replace(
        ExperimentConfig(),
        duration=500.0,
        noise_levels=(0.0, 0.2),
        reps=2,
        master_seed=7,
    )
    g = load_map(cfg)
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_matrix(cfg, out_dir=first, g=g)
    run_matrix(cfg, out_dir=second, g=g)
    names = sorted(p.name for p in first.iterdir())
    names2 = sorted(p.name for p in second.iterdir())
    same_names = names == names2
    differing = [
        name for name in names if not filecmp.cmp(first / name, second / name, shallow=False)
    ]
    n_bytes = sum((first / name).stat().st_size for name in names)
    check(
        "re-running the same matrix and seed is byte-identical (CSVs and logs)",
        same_names and not differing,
        f"{len(names)} files, {n_bytes} bytes compared"
        + (f"; differing: {differing}" if differing else ""),
    )
