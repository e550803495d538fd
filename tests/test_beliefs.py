"""Belief algebra: fusion table, conversions, vector helpers."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmpatrol.beliefs import (
    Belief,
    belief_from_float,
    belief_to_float,
    digest,
    format_belief,
    fuse,
    fuse_vectors,
    measurement_update,
    new_belief_vector,
)

F, U, T = Belief.FALSE, Belief.UNCERTAIN, Belief.TRUE

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


def test_fusion_table_all_nine_cells():
    for (a, b), want in FUSION_TABLE.items():
        assert fuse(a, b) is want


def test_fuse_equals_clamped_sum():
    # half-unit closed form: clamp(a + b - 1, 0, 2)
    for a, b in product((0, 1, 2), repeat=2):
        assert fuse(a, b) == min(max(a + b - 1, 0), 2)


def test_fuse_returns_belief_enum():
    assert all(isinstance(fuse(a, b), Belief) for a, b in product((0, 1, 2), repeat=2))


def test_fuse_commutative_idempotent_identity():
    for a, b in product((F, U, T), repeat=2):
        assert fuse(a, b) == fuse(b, a)
    for a in (F, U, T):
        assert fuse(a, a) is a
        assert fuse(U, a) is a


def test_fuse_is_not_associative():
    # (F + T) + T = T but F + (T + T) = U
    assert fuse(fuse(F, T), T) is T
    assert fuse(F, fuse(T, T)) is U
    assert fuse(fuse(F, T), T) != fuse(F, fuse(T, T))


def test_fuse_vectors_elementwise():
    got = fuse_vectors([F, F, T, U], [T, U, T, U])
    assert got == [U, F, T, U]
    assert all(isinstance(b, Belief) for b in got)


def test_fuse_vectors_length_mismatch():
    with pytest.raises(ValueError):
        fuse_vectors([F, U], [F])


@given(
    st.lists(st.sampled_from([F, U, T]), min_size=1, max_size=12),
    st.data(),
)
def test_fuse_vectors_matches_scalar_fuse(u, data):
    v = data.draw(st.lists(st.sampled_from([F, U, T]), min_size=len(u), max_size=len(u)))
    assert fuse_vectors(u, v) == [fuse(a, b) for a, b in zip(u, v)]
    assert fuse_vectors(u, v) == fuse_vectors(v, u)


@given(st.lists(st.sampled_from([F, U, T]), max_size=40))
def test_fuse_vectors_of_a_vector_with_itself_gives_it_back(v):
    assert fuse_vectors(v, v) == v
    assert fuse_vectors(v, list(v)) == v


def test_measurement_update_from_uncertain():
    assert measurement_update(U, True) is T
    assert measurement_update(U, False) is F


def test_measurement_update_contrary_reading_softens():
    assert measurement_update(T, False) is U
    assert measurement_update(F, True) is U


def test_measurement_update_confirming_reading_keeps():
    assert measurement_update(T, True) is T
    assert measurement_update(F, False) is F


def test_new_belief_vector_all_uncertain():
    vec = new_belief_vector(5)
    assert len(vec) == 5
    assert all(b is U for b in vec)


def test_new_belief_vector_rejects_non_positive():
    for m in (0, -3):
        with pytest.raises(ValueError):
            new_belief_vector(m)


def test_float_round_trip():
    assert [belief_to_float(b) for b in (F, U, T)] == [0.0, 0.5, 1.0]
    for b in (F, U, T):
        assert belief_from_float(belief_to_float(b)) is b


def test_belief_from_float_rejects_off_grid():
    for x in (0.3, -1.0, 0.999, 2.0):
        with pytest.raises(ValueError):
            belief_from_float(x)


def test_format_belief():
    assert [format_belief(b) for b in (F, U, T)] == ["0", "0.5", "1"]


def test_digest():
    assert digest([F, U, T, T, F]) == "0u110"
    assert digest([]) == ""
