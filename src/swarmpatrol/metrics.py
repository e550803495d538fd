"""System-level measurements over belief states and exchange counts.

Covers the mean absolute belief error, the confusion-count score with an
uncertainty penalty (both in exact rational arithmetic), the fleet's belief
vectors with the quorum consensus and misinformation they reach as sensing
and exchanges change them, the communication graph spectrum (hand-rolled
cyclic Jacobi), and Pearson correlation with a two-sided p-value computed
from the t distribution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .beliefs import BeliefVector, fuse_vectors, measurement_update

__all__ = [
    "ConfusionCounts",
    "classify",
    "system_error",
    "f_score",
    "CommGraph",
    "jacobi_eigenvalues",
    "algebraic_connectivity",
    "required_quorum",
    "ConsensusReport",
    "ConsensusTracker",
    "pearson",
]


# ---------------------------------------------------------------------------
# belief accuracy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    """Counts over every (robot, node) belief entry."""

    tp: int
    tn: int
    fp: int
    fn: int
    u: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn + self.u


def classify(vectors: Sequence[BeliefVector], truth: BeliefVector) -> ConfusionCounts:
    """Bucket every belief entry of the packed vectors against the packed truth.

    Certain-true at a true node counts tp, at a false node fp; certain-false
    at a false node tn, at a true node fn; uncertain always u. The truth is
    certain at every node, so its node count m is (T | F).bit_length().
    Entries total n_robots * m.
    """
    anomalous, normal = truth
    m = (anomalous | normal).bit_length()
    tp = tn = fp = fn = 0
    for t, f in vectors:
        if t & f or (t | f) >> m:
            raise ValueError(f"not a packed belief vector over {m} nodes")
        tp += (t & anomalous).bit_count()
        fp += (t & normal).bit_count()
        fn += (f & anomalous).bit_count()
        tn += (f & normal).bit_count()
    u = len(vectors) * m - tp - tn - fp - fn
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn, u=u)


def system_error(counts: ConfusionCounts) -> Fraction:
    """Mean absolute difference between beliefs and truth, exact.

    Each entry contributes |belief - truth| on the unit scale, so certain
    agreement adds 0, uncertainty adds 1/2 and certain disagreement adds 1.
    """
    return Fraction(counts.u + 2 * (counts.fp + counts.fn), 2 * counts.total)


def f_score(counts: ConfusionCounts) -> Fraction:
    """Correct-classification score with a half-weight uncertainty penalty.

    2(tp+tn) / (2(tp+tn) + fp + fn + u/2), exact; 0 when the numerator is 0
    (e.g. every entry uncertain).
    """
    good = counts.tp + counts.tn
    if good == 0:
        return Fraction(0)
    return Fraction(2 * good) / (2 * good + counts.fp + counts.fn + Fraction(counts.u, 2))


# ---------------------------------------------------------------------------
# communication graph spectrum
# ---------------------------------------------------------------------------


@dataclass
class CommGraph:
    """Weighted contact graph over robots; weight = number of exchanges.

    weights is a list of n float rows: symmetric, zero diagonal, non-negative.
    Any square nested sequence of numbers (a numpy array too) is accepted and
    copied into that form.
    """

    weights: list[list[float]]

    def __post_init__(self):
        w = _float_rows(self.weights, "weights")
        for i, row in enumerate(w):
            if row[i] != 0.0:
                raise ValueError("weights must have a zero diagonal")
            if any(x < 0.0 for x in row):
                raise ValueError("weights must be non-negative")
            if any(row[j] != w[j][i] for j in range(i)):
                raise ValueError("weights must be symmetric")
        self.weights = w

    @classmethod
    def from_exchanges(
        cls, n_robots: int, pairs: Sequence[tuple[int, int]], exchanges: Sequence[int]
    ) -> "CommGraph":
        """Weight each robot pair pairs[p] by its exchange count exchanges[p]."""
        w = [[0.0] * n_robots for _ in range(n_robots)]
        for (i, j), count in zip(pairs, exchanges):
            if count:
                w[i][j] = w[j][i] = float(count)
        return cls(weights=w)

    def laplacian(self) -> list[list[float]]:
        """Weighted Laplacian: degree matrix minus weights, as float rows.

        Row sums of exchange counts are sums of integers, exact in any order.
        """
        return [
            [(sum(row) if j == i else 0.0) - x for j, x in enumerate(row)]
            for i, row in enumerate(self.weights)
        ]


def _float_rows(matrix: Sequence[Sequence[float]], name: str) -> list[list[float]]:
    """A square nested sequence of numbers as a new list of float rows."""
    try:
        rows = [[float(x) for x in row] for row in matrix]
    except TypeError:
        raise ValueError(f"{name} must be a square matrix") from None
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{name} must be square, got {len(rows)} rows of lengths "
                         f"{sorted({len(row) for row in rows})}")
    return rows


# Matrices from this size up rotate a numpy array. A rotation costs O(n)
# Python operations on float rows and a few array operations in numpy; on
# the contact Laplacians of 600 s RAND and SEBS runs, rows took 0.93x
# numpy's time at 32 robots and 1.04x at 36, 1.23x at 40, 1.37x at 48.
_NUMPY_JACOBI_MIN = 36

_JACOBI_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 100


def jacobi_eigenvalues(matrix: Sequence[Sequence[float]]) -> list[float]:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Sweeps annihilate each off-diagonal entry in turn until every |a_pq|
    falls below _JACOBI_TOL, in at most _JACOBI_MAX_SWEEPS sweeps; returns
    the eigenvalues in ascending order.

    Matrices of fewer than _NUMPY_JACOBI_MIN rows rotate lists of float
    rows; larger ones rotate a numpy array, imported only then. Both take
    the same rotations in the same order with the same elementwise float
    operations, so they return the same floats; the choice is speed alone.
    """
    a = _float_rows(matrix, "matrix")
    n = len(a)
    if not all(abs(a[i][j] - a[j][i]) <= 1e-12 for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    if n == 1:
        return [a[0][0]]
    rotate = _jacobi_numpy if n >= _NUMPY_JACOBI_MIN else _jacobi_rows
    return sorted(rotate(a))


def _rotation(app: float, aqq: float, apq: float) -> tuple[float, float]:
    """(c, s) of the classical 2x2 rotation that annihilates a_pq."""
    theta = (aqq - app) / (2.0 * apq)
    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return c, t * c


def _jacobi_rows(a: list[list[float]]) -> list[float]:
    """The cyclic Jacobi sweeps on float rows a (rotated in place); the diagonal."""
    n = len(a)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= _JACOBI_TOL:
                    continue
                off = max(off, abs(apq))
                c, s = _rotation(a[p][p], a[q][q], apq)
                ap, aq = a[p], a[q]
                rot_p = [c * x - s * y for x, y in zip(ap, aq)]
                rot_q = [s * x + c * y for x, y in zip(ap, aq)]
                app = c * rot_p[p] - s * rot_p[q]
                aqq = s * rot_q[p] + c * rot_q[q]
                a[p], a[q] = rot_p, rot_q
                for row, x, y in zip(a, rot_p, rot_q):
                    row[p] = x
                    row[q] = y
                rot_p[p], rot_p[q] = app, 0.0
                rot_q[p], rot_q[q] = 0.0, aqq
        if off <= _JACOBI_TOL:
            return [a[i][i] for i in range(n)]
    raise RuntimeError(f"jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")


def _jacobi_numpy(rows: list[list[float]]) -> list[float]:
    """The cyclic Jacobi sweeps of _jacobi_rows on a numpy copy of rows; the diagonal."""
    import numpy as np

    a = np.array(rows, dtype=float)
    n = a.shape[0]
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a.item(p, q)
                if abs(apq) <= _JACOBI_TOL:
                    continue
                off = max(off, abs(apq))
                c, s = _rotation(a.item(p, p), a.item(q, q), apq)
                ap, aq = a[p], a[q]
                rot_p = c * ap - s * aq
                rot_q = s * ap + c * aq
                a[p] = rot_p
                a[q] = rot_q
                a[:, p] = rot_p
                a[:, q] = rot_q
                a[p, p] = c * rot_p[p] - s * rot_p[q]
                a[q, q] = s * rot_q[p] + c * rot_q[q]
                a[p, q] = 0.0
                a[q, p] = 0.0
        if off <= _JACOBI_TOL:
            return np.diag(a).tolist()
    raise RuntimeError(f"jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")


def algebraic_connectivity(graph: CommGraph) -> float:
    """Second-smallest Laplacian eigenvalue; 0 for a disconnected graph."""
    lam = jacobi_eigenvalues(graph.laplacian())
    if len(lam) < 2:
        return 0.0
    value = lam[1]
    # the Laplacian is PSD; clip the tiny negative noise Jacobi can leave
    return value if value > 0.0 else 0.0


# ---------------------------------------------------------------------------
# the fleet's beliefs, with quorum consensus tracked as they change
# ---------------------------------------------------------------------------


def required_quorum(n_robots: int, quorum: float) -> int:
    """Robots needed for a quorum; round(., 9) absorbs float artifacts.

    At least one robot, however small the fraction: rounding a tiny product
    to 0 would declare consensus with every robot still uncertain.
    """
    if not (0.0 < quorum <= 1.0):
        raise ValueError(f"quorum must be in (0, 1], got {quorum}")
    return max(1, math.ceil(round(quorum * n_robots, 9)))


@dataclass(frozen=True)
class ConsensusReport:
    """Quorum consensus milestones for one run."""

    t_full_consensus: Optional[float]
    tp_consensus: bool
    fp_consensus_nodes: tuple[int, ...]

    @property
    def fp_consensus_count(self) -> int:
        return len(self.fp_consensus_nodes)


class ConsensusTracker:
    """The fleet's belief vectors, with quorum consensus and misinformation.

    It owns every robot's packed vector, all uncertain at the start, and is
    the only code that changes one: `sensed` folds a robot's reading at a
    visit into its vector, and `exchanged` fuses the vectors of each robot
    pair of a tick's exchanges. Feed it a run's events in execution order
    (exchanges within one tick chain, so a quorum reached after one can be
    lost by the next). The truth is the packed vector of a robot certain
    about every node, and whether each robot's vector equals it is kept as
    one flag per robot.

    t_full is the time of the first change after which at least `required`
    robots hold a belief vector exactly equal to the truth, or None.
    misinformed is whether any robot ever held a certain belief that
    contradicts the truth.
    """

    __slots__ = (
        "required", "t_full", "misinformed", "vectors", "_m", "_truth", "_is_exact", "_exact"
    )

    def __init__(self, truth: BeliefVector, n_robots: int, quorum: float):
        self.required = required_quorum(n_robots, quorum)
        self.t_full: Optional[float] = None
        self.misinformed = False
        # every robot starts uncertain about every node; the vectors are
        # immutable, so robots may share one
        self.vectors: list[BeliefVector] = [(0, 0)] * n_robots
        # the truth is certain at every node, so its highest set bit is node m - 1
        self._m = (truth[0] | truth[1]).bit_length()
        self._truth = truth
        # the all-uncertain start differs from the truth everywhere
        self._is_exact = [False] * n_robots
        self._exact = 0

    def _set_exact(self, t: float, robot: int, exact: bool) -> None:
        if exact == self._is_exact[robot]:
            return
        self._is_exact[robot] = exact
        if exact:
            # only a robot becoming exact can complete a quorum
            self._exact += 1
            if self.t_full is None and self._exact >= self.required:
                self.t_full = t
        else:
            self._exact -= 1

    def sensed(self, t: float, robot: int, node: int, reading: bool) -> BeliefVector:
        """Fold robot's reading of `node` at time t into its vector; returns that vector."""
        held = self.vectors[robot] = measurement_update(self.vectors[robot], node, reading)
        # certain-true at a normal node or certain-false at the anomaly
        wrong = held[0] & self._truth[1] | held[1] & self._truth[0]
        if wrong >> node & 1:
            self.misinformed = True
        self._set_exact(t, robot, held == self._truth)
        return held

    def exchanged(self, t: float, pairs: Iterable[tuple[int, int]]) -> None:
        """Let each robot pair (i, j) of one tick exchange at time t, in the order they ran.

        After an exchange, robots i and j both hold the fusion of their
        vectors, and later pairs see it. Robots that already hold equal
        vectors keep them, since fusion would give the same vector back, so
        their flags stay as they are too. An exchange never misinforms:
        fusion yields 2 only if one input was 2, and 0 only if one input was
        0. So a certain belief in the fusion that contradicts the truth was
        already held by robot i or j, and the visit that set it was flagged
        by `sensed`.
        """
        vectors, truth, is_exact = self.vectors, self._truth, self._is_exact
        for i, j in pairs:
            u, v = vectors[i], vectors[j]
            if u == v:
                continue
            fused = vectors[i] = vectors[j] = fuse_vectors(u, v)
            exact = fused == truth
            if is_exact[i] != exact:
                self._set_exact(t, i, exact)
            if is_exact[j] != exact:
                self._set_exact(t, j, exact)

    def report(self) -> ConsensusReport:
        """Milestones of the run, with tp/fp consensus judged on the vectors held now.

        A node is in consensus when at least `required` robots hold it
        certain-true; tp means every anomaly node is, fp lists the non-anomaly
        nodes that are.
        """
        anomalous, vectors = self._truth[0], self.vectors
        agreed = [sum(t >> v & 1 for t, _ in vectors) >= self.required for v in range(self._m)]
        anomalies = [v for v in range(self._m) if anomalous >> v & 1]
        return ConsensusReport(
            t_full_consensus=self.t_full,
            tp_consensus=bool(anomalies) and all(agreed[v] for v in anomalies),
            fp_consensus_nodes=tuple(
                v for v in range(self._m) if agreed[v] and not anomalous >> v & 1
            ),
        )


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the regularized incomplete beta (Lentz's method)
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m_it in range(1, 300):
        m2 = 2 * m_it
        aa = m_it * (b - m_it) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m_it) * (qab + m_it) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # symmetry pick for fastest convergence
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _t_two_sided_p(t_stat: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if math.isinf(t_stat):
        return 0.0
    x = df / (df + t_stat * t_stat)
    return _betainc(df / 2.0, 0.5, x)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Pearson correlation and its two-sided p-value.

    Requires at least 3 points and non-degenerate variance in both inputs.
    The p-value comes from the exact t transform r * sqrt(df / (1 - r^2))
    with df = n - 2. The scale is sqrt(sxx * syy), or, when that product
    leaves the float range though sxx and syy are both finite normal floats,
    sqrt(sxx) * sqrt(syy). Sums outside the float range raise OverflowError,
    as does a product that underflows with a subnormal factor (such a sum of
    squares has already lost precision).
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"length mismatch: {n} != {len(ys)}")
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance input")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    scale = math.sqrt(sxx * syy)
    if scale in (0.0, math.inf) and sys.float_info.min <= min(sxx, syy) <= max(sxx, syy) < math.inf:
        # the product of two normal spreads left the float range; their roots do not
        scale = math.sqrt(sxx) * math.sqrt(syy)
    if not (0.0 < scale < math.inf and math.isfinite(sxy)):
        raise OverflowError("sums outside the float range")
    r = sxy / scale
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        return r, 0.0
    t_stat = r * math.sqrt(df / (1.0 - r * r))
    return r, _t_two_sided_p(t_stat, df)
