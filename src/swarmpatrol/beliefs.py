"""Packed ternary beliefs with conflict-absorbing pairwise fusion.

A belief about one node is one of three states: certain-false, uncertain,
certain-true, or 0, 1 and 2 in half-units of truth. A robot holds its
beliefs over every node as one packed vector of two bitmasks, and fusion,
noisy sensing of the planted ground truth and the log renderings all work
on that vector directly; the float values 0.0/0.5/1.0 appear only at
serialization and metric boundaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .world import RngStream

__all__ = [
    "BeliefVector",
    "single_anomaly",
    "sense",
    "fuse_vectors",
    "measurement_update",
    "format_belief",
    "digest",
]

# A robot's beliefs over m nodes, packed into one immutable pair (T, F) of
# ints: bit v of T is set when node v is certain-true, bit v of F when it is
# certain-false. T & F is 0 and no bit at or above m is set. The ground truth
# is the same pair with every node certain.
BeliefVector = tuple[int, int]

_STR_OF = ("0", "0.5", "1")
_DIGEST_OF = bytes.maketrans(b"/02", b"0u1")  # bytes 47, 48, 50 of digest


def single_anomaly(m: int, anomaly_node: int) -> BeliefVector:
    """The ground truth over m nodes with one anomaly, as a packed vector.

    It is the vector of a robot that knows every node for certain: bit
    anomaly_node of T, and every other bit below m of F. The caller checks
    that anomaly_node is one of the m nodes.
    """
    bit = 1 << anomaly_node
    return bit, ((1 << m) - 1) ^ bit


def sense(truth: BeliefVector, node: int, noise_p: float, rng: RngStream) -> bool:
    """Read the node's bit of the packed truth through a symmetric noisy channel.

    Returns whether the node is anomalous with probability 1 - noise_p, else
    its negation; consumes exactly one draw per call.
    """
    value = truth[0] >> node & 1 == 1
    if rng.random() < noise_p:
        return not value
    return value


def fuse_vectors(u: BeliefVector, v: BeliefVector) -> BeliefVector:
    """Fuse two packed vectors node by node.

    A node comes out certain-true when one side holds it true and the
    other does not hold it false, and likewise for false; every other node
    comes out uncertain. That is clamp(a + b - 1, 0, 2) in half-units on
    every bit: agreement keeps the shared value, uncertain is the identity,
    and opposing certainties cancel to uncertain.
    """
    ut, uf = u
    vt, vf = v
    return (ut & ~vf) | (vt & ~uf), (uf & ~vt) | (vf & ~ut)


def measurement_update(prior: BeliefVector, node: int, observation: bool) -> BeliefVector:
    """Fold a boolean sensor reading about `node` into a prior vector.

    The reading is treated as a certain opinion (true -> 2, false -> 0) and
    fused with the prior, so a fresh reading always overrides uncertainty
    and a contradicting reading demotes certainty back to uncertain.
    """
    t, f = prior
    bit = 1 << node
    # fuse_vectors(prior, (bit, 0)) or fuse_vectors(prior, (0, bit)), written out
    if observation:
        return t | (bit & ~f), f & ~bit
    return t & ~bit, f | (bit & ~t)


def format_belief(vector: BeliefVector, node: int) -> str:
    """Render a vector's belief about one node for event logs: '0', '0.5' or '1'."""
    t, f = vector
    return _STR_OF[1 + (t >> node & 1) - (f >> node & 1)]


def digest(vector: BeliefVector, m: int) -> str:
    """Compact one-char-per-node rendering ('0', 'u', '1') of m nodes for log lines."""
    t, f = vector
    # Read each mask's m binary digits, node m - 1 first, as one big-endian
    # int of ASCII bytes. Node v's byte in 2*ts - fs is 48 + 2 t_v - f_v, one
    # of 47, 48 and 50, so no byte borrows from its neighbour.
    ts = int.from_bytes(f"{t:0{m}b}".encode(), "big")
    fs = int.from_bytes(f"{f:0{m}b}".encode(), "big")
    return (2 * ts - fs).to_bytes(m, "big")[::-1].translate(_DIGEST_OF).decode()
