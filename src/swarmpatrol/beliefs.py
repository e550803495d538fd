"""Packed ternary beliefs with conflict-absorbing pairwise fusion.

A belief about one node is one of three states: certain-false, uncertain,
certain-true, or 0, 1 and 2 in half-units of truth. A robot holds its
beliefs over every node as one packed vector of two bitmasks, and fusion,
sensing and the log renderings all work on that vector directly; the float
values 0.0/0.5/1.0 appear only at serialization and metric boundaries.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "BeliefVector",
    "fuse_vectors",
    "fuse_pairs",
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


def fuse_pairs(
    vectors: list[BeliefVector], pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, int, BeliefVector]]:
    """Let each robot pair (i, j) exchange, in order; returns the (i, j, fused) that changed.

    After an exchange, robots i and j both hold the fusion of their vectors
    in `vectors`, which a packed vector's immutability lets them share, and
    later pairs see it. Robots that already hold equal vectors keep them,
    since fusion would give the same vector back: that exchange changed
    nothing and has no triple. Each triple holds the vector its exchange
    fused; a later exchange may have changed what i and j hold since.
    """
    changed = []
    for i, j in pairs:
        u, v = vectors[i], vectors[j]
        if u != v:
            fused = vectors[i] = vectors[j] = fuse_vectors(u, v)
            changed.append((i, j, fused))
    return changed


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
