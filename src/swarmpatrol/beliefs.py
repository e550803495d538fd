"""Ternary belief algebra with conflict-absorbing pairwise fusion.

A belief about one node is one of three states: certain-false, uncertain,
certain-true. States are stored in half-units (ints 0, 1, 2) so every
operation is exact integer arithmetic; the float values 0.0/0.5/1.0 appear
only at serialization and metric boundaries.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Sequence

__all__ = [
    "Belief",
    "BeliefVector",
    "fuse",
    "fuse_vectors",
    "measurement_update",
    "new_belief_vector",
    "pack",
    "belief_at",
    "format_belief",
    "digest",
]

# A robot's beliefs over m nodes, packed into one immutable pair (T, F) of
# ints: bit v of T is set when node v is certain-true, bit v of F when it is
# certain-false. T & F is 0 and no bit at or above m is set.
BeliefVector = tuple[int, int]


class Belief(IntEnum):
    """One robot's opinion about one node, in half-units of truth."""

    FALSE = 0
    UNCERTAIN = 1
    TRUE = 2


# The 3x3 table is the specification of fusion: in half-units it is
# clamp(a + b - 1, 0, 2). fuse_vectors computes it for every node at once.
_FUSION: tuple[tuple[Belief, ...], ...] = tuple(
    tuple(Belief(min(max(a + b - 1, 0), 2)) for b in range(3)) for a in range(3)
)

_MEMBERS = tuple(Belief)
_STR_OF = ("0", "0.5", "1")
_DIGEST_OF = bytes.maketrans(b"/02", b"0u1")  # bytes 47, 48, 50 of digest


def fuse(a: int, b: int) -> Belief:
    """Combine two opinions symmetrically.

    Agreement keeps the shared value, the uncertain state is the identity,
    and opposing certainties cancel to uncertain. Equivalent closed form on
    the unit scale: clamp(a + b - 1/2, 0, 1).
    """
    return _FUSION[a][b]


def fuse_vectors(u: BeliefVector, v: BeliefVector) -> BeliefVector:
    """Fuse two packed vectors node by node, as `fuse` does one node.

    A node comes out certain-true when one side holds it true and the
    other does not hold it false, and likewise for false; every other node
    comes out uncertain. That is clamp(a + b - 1, 0, 2) on every bit.
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


def new_belief_vector(m: int) -> BeliefVector:
    """Initial all-uncertain vector over m nodes."""
    if m <= 0:
        raise ValueError(f"node count must be positive, got {m}")
    return 0, 0


def pack(values: Sequence[int]) -> BeliefVector:
    """The packed vector of a sequence of half-unit beliefs, node 0 first."""
    t = sum(1 << node for node, b in enumerate(values) if b == 2)
    return t, sum(1 << node for node, b in enumerate(values) if b == 0)


def belief_at(vector: BeliefVector, node: int) -> Belief:
    """The belief a packed vector holds about one node."""
    t, f = vector
    return _MEMBERS[1 + (t >> node & 1) - (f >> node & 1)]


def format_belief(b: int) -> str:
    """Render a belief for event logs: '0', '0.5' or '1'."""
    return _STR_OF[b]


def digest(vector: BeliefVector, m: int) -> str:
    """Compact one-char-per-node rendering ('0', 'u', '1') of m nodes for log lines."""
    t, f = vector
    # Read each mask's m binary digits, node m - 1 first, as one big-endian
    # int of ASCII bytes. Node v's byte in 2*ts - fs is 48 + 2 t_v - f_v, one
    # of 47, 48 and 50, so no byte borrows from its neighbour.
    ts = int.from_bytes(f"{t:0{m}b}".encode(), "big")
    fs = int.from_bytes(f"{f:0{m}b}".encode(), "big")
    return (2 * ts - fs).to_bytes(m, "big")[::-1].translate(_DIGEST_OF).decode()
