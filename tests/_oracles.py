"""Independent brute-force oracles; nothing here imports the package."""

from fractions import Fraction
from typing import Sequence

import numpy as np


def charpoly_coeffs(matrix: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier recursion."""
    n = matrix.shape[0]
    coeffs = [1.0]
    aux = np.zeros_like(matrix, dtype=float)
    for k in range(1, n + 1):
        aux = matrix @ aux + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(matrix @ aux) / k)
    return np.array(coeffs)


def eigenvalues_by_charpoly(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues as roots of the characteristic polynomial."""
    roots = np.roots(charpoly_coeffs(np.asarray(matrix, dtype=float)))
    return np.sort(roots.real)


def eligible_pairs(positions, last_exchange, t, range_m, timeout_s):
    """Every pair allowed to exchange at time t, in ascending (i, j) order.

    Tests all n(n-1)/2 pairs: a pair qualifies when its straight-line
    separation is within range_m and at least timeout_s has elapsed since
    its previous exchange, last_exchange[(i, j)] (a gap of exactly the
    cooldown is eligible, with 1e-9 s of slack for tick-grid float error).
    """
    range_sq = range_m * range_m
    horizon = t - timeout_s + 1e-9
    out = []
    n = len(positions)
    for i in range(n):
        xi, yi = positions[i]
        for j in range(i + 1, n):
            if last_exchange[(i, j)] > horizon:
                continue
            xj, yj = positions[j]
            dx = xi - xj
            dy = yi - yj
            if dx * dx + dy * dy <= range_sq:
                out.append((i, j))
    return out


def brute_system_error(vectors: Sequence[Sequence[int]], truth: Sequence[bool]) -> Fraction:
    """Mean |belief - truth| on the unit scale, summed entry by entry."""
    total = Fraction(0)
    for row in vectors:
        for b, is_true in zip(row, truth):
            total += abs(Fraction(int(b), 2) - (1 if is_true else 0))
    return total / (len(vectors) * len(truth))


def brute_confusion(vectors: Sequence[Sequence[int]], truth: Sequence[bool]):
    tp = tn = fp = fn = u = 0
    for row in vectors:
        for b, is_true in zip(row, truth):
            if b == 1:
                u += 1
            elif b == 2 and is_true:
                tp += 1
            elif b == 2:
                fp += 1
            elif is_true:
                fn += 1
            else:
                tn += 1
    return tp, tn, fp, fn, u


def brute_f_score(vectors: Sequence[Sequence[int]], truth: Sequence[bool]) -> Fraction:
    """2(tp+tn) / (2(tp+tn) + fp + fn + u/2), written out longhand."""
    tp, tn, fp, fn, u = brute_confusion(vectors, truth)
    if tp + tn == 0:
        return Fraction(0)
    return Fraction(2 * (tp + tn)) / (2 * (tp + tn) + fp + fn + Fraction(u, 2))


def brute_consensus_replay(m: int, n_robots: int, truth: Sequence[bool], events, required: int):
    """Replay belief events from all-uncertain; return (t_full, tp, fp_nodes, misinformed).

    events, in execution order, are ("visit", t, robot, node, belief) for a
    robot's new belief about one node and ("comm", t, i, j) for an exchange,
    with beliefs in half-units. Fusion is clamp(a + b - 1, 0, 2). After every
    event the whole state is checked again: how many robots hold exactly the
    truth, and whether any certain belief contradicts it.
    """
    want = [2 if v else 0 for v in truth]
    vectors = [[1] * m for _ in range(n_robots)]
    t_full = None
    misinformed = False
    for kind, t, a, b, *rest in events:
        if kind == "visit":
            vectors[a][b] = rest[0]
        else:
            fused = [min(max(x + y - 1, 0), 2) for x, y in zip(vectors[a], vectors[b])]
            vectors[a] = fused
            vectors[b] = list(fused)
        if any(x != 1 and x != w for row in vectors for x, w in zip(row, want)):
            misinformed = True
        if t_full is None and sum(row == want for row in vectors) >= required:
            t_full = t
    holders = [sum(row[v] == 2 for row in vectors) for v in range(m)]
    tp = any(truth) and all(holders[v] >= required for v in range(m) if truth[v])
    fp_nodes = tuple(v for v in range(m) if holders[v] >= required and not truth[v])
    return t_full, tp, fp_nodes, misinformed
