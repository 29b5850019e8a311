import pytest
from hypothesis import given
import hypothesis.strategies as st

from torusham import TorusSpec, transposition


def test_moduli_validation():
    with pytest.raises(ValueError):
        TorusSpec(())
    with pytest.raises(ValueError):
        TorusSpec((3, 1))
    with pytest.raises(ValueError):
        TorusSpec((0,))
    with pytest.raises(ValueError, match="integers"):
        TorusSpec((3.9, 3))
    with pytest.raises(ValueError, match="integers"):
        TorusSpec((3.0,))
    # any sequence of moduli is kept as a tuple
    assert TorusSpec([3, 3]).moduli == (3, 3) and TorusSpec([3, 3]) == TorusSpec((3, 3))


def test_vertex_count_overflow_rejected():
    with pytest.raises(ValueError, match="overflow"):
        TorusSpec((2,) * 64)
    # one factor fewer fits in a signed 64-bit count
    assert TorusSpec((2,) * 62).vertex_count == 2**62


def test_power_constructor():
    spec = TorusSpec.power(3, 4)
    assert spec.moduli == (3, 3, 3, 3)
    assert spec.vertex_count == 81


def test_add_step_examples():
    spec = TorusSpec((3, 3, 3))
    assert spec.add_step((0, 0, 0), 0) == (1, 0, 0)
    assert spec.add_step((2, 1, 0), 0) == (0, 1, 0)
    assert TorusSpec((2, 3)).add_step((1, 2), 1) == (1, 0)


def test_directed_distance_examples():
    assert TorusSpec((2, 3)).directed_distance((0, 0), (1, 2)) == 3
    spec = TorusSpec((3, 3, 3))
    assert spec.directed_distance((0, 0, 0), (2, 0, 0)) == 2
    assert spec.directed_distance((1, 1, 1), (1, 1, 1)) == 0


def test_congruence_examples():
    spec = TorusSpec((3, 3, 3))
    assert spec.ham_path_congruence_ok((0, 0, 0), (2, 0, 0))
    assert not spec.ham_path_congruence_ok((0, 0, 0), (1, 0, 0))
    # gcd 1 admits every pair
    assert TorusSpec((2, 3, 4)).ham_path_congruence_ok((0, 0, 0), (0, 0, 1))


def test_perm_helpers():
    assert transposition(4, 1, 3) == (0, 3, 2, 1)


SPEC = TorusSpec((3, 4, 2))
verts = st.tuples(*(st.integers(0, m - 1) for m in SPEC.moduli))


@given(verts, verts)
def test_distance_zero_iff_equal(u, v):
    assert (SPEC.directed_distance(u, v) == 0) == (u == v)


@given(verts, st.integers(0, SPEC.k - 1))
def test_single_step_distance(v, g):
    assert SPEC.directed_distance(v, SPEC.add_step(v, g)) == 1


@given(st.lists(st.integers(0, 1), max_size=24), verts)
def test_walk_length_congruent_to_distance(arcs, start):
    # any two directed walks between fixed endpoints agree mod gcd
    spec = TorusSpec((4, 6))
    start = start[:2]
    start = (start[0] % 4, start[1] % 6)
    cur = start
    for g in arcs:
        cur = spec.add_step(cur, g)
    g = spec.moduli_gcd
    assert len(arcs) % g == spec.directed_distance(start, cur) % g


@given(st.integers(2, 7), st.integers(1, 5), st.data())
def test_equal_moduli_congruence_reduces_to_residue(m, k, data):
    # the paper's form: a path from u to v needs u_1 + ... + u_k = v_1 + ... + v_k + 1 (mod m)
    vertex = st.tuples(*[st.integers(0, m - 1)] * k)
    u, v = data.draw(vertex), data.draw(vertex)
    assert TorusSpec.power(m, k).ham_path_congruence_ok(u, v) == ((sum(v) - sum(u)) % m == m - 1)
