import random

import pytest

from torusham import (
    Case,
    CaseNotApplicableError,
    Cycle,
    TorusSpec,
    any_cycle_power,
    classify_case,
    conjugate_cycle,
    cycle_distance,
    even_distance_cycle_2d,
    even_distance_cycle_power,
    staircase_a,
    staircase_b,
    trace,
    transposition,
    verify_ham_cycle,
    word_from_flat,
)
from torusham.cycles import _any_cycle_distance


def test_staircase_a_examples():
    w = staircase_a(3, 3)
    assert w.arcs == bytes([0, 0, 1] * 3)
    assert w.length == 9
    small = staircase_a(2, 2)
    vs = list(trace(small.spec, (0, 0), word_from_flat(small.arcs)))
    assert vs == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    with pytest.raises(ValueError, match="multiple"):
        staircase_a(3, 4)


def test_staircase_b_examples():
    assert staircase_b(3, 3).arcs == bytes([1, 0, 0] * 3)
    assert staircase_b(3, 6).length == 18
    with pytest.raises(ValueError, match="multiple"):
        staircase_b(2, 3)


def test_classify_case_examples():
    assert classify_case(3, 3, (1, 2)).tag is Case.J_PLUS_R_EVEN
    assert classify_case(3, 3, (1, 2)).r == 0
    assert classify_case(3, 9, (0, 1)).tag is Case.J_PLUS_R_EVEN
    assert classify_case(3, 3, (0, 0)).tag is Case.J_PLUS_R_EVEN
    assert classify_case(3, 9, (2, 3)).tag is Case.J_AND_R_NONZERO
    # j = 0 with odd r: nothing applies
    assert classify_case(3, 3, (1, 0)).tag is Case.NONE
    with pytest.raises(ValueError, match="odd"):
        classify_case(2, 2, (0, 0))


def test_even_distance_2d_examples():
    w, d = even_distance_cycle_2d(3, 3, (1, 2))
    assert d == 6 and cycle_distance(w, (1, 2)) == 6
    w, d = even_distance_cycle_2d(3, 9, (2, 3))
    assert d == 8
    w, d = even_distance_cycle_2d(5, 5, (0, 0))
    assert d == 0
    with pytest.raises(CaseNotApplicableError):
        even_distance_cycle_2d(3, 3, (1, 0))


def _r(m, i, j):
    return (i + j) % m


def test_staircase_closed_forms_by_enumeration():
    for m, n in [(3, 3), (3, 6), (5, 5)]:
        a = staircase_a(m, n)
        b = staircase_b(m, n)
        for i in range(m):
            for j in range(n):
                r = _r(m, i, j)
                assert cycle_distance(a, (i, j)) == j * m + r
                if j >= 1:
                    expected = (j - 1) * m + 1 + ((r - 1) % m)
                    assert cycle_distance(b, (i, j)) == expected


def test_even_distance_2d_sweep_small():
    for m, n in [(3, 3), (3, 6), (5, 5)]:
        for i in range(m):
            for j in range(n):
                info = classify_case(m, n, (i, j))
                if info.tag is Case.NONE:
                    continue
                w, d = even_distance_cycle_2d(m, n, (i, j))
                assert d % 2 == 0
                assert cycle_distance(w, (i, j)) == d


def test_even_distance_power_base_case():
    w, d, perm = even_distance_cycle_power(3, 2, (1, 2))
    assert d == 6 and perm == (0, 1)
    assert cycle_distance(w, (1, 2)) == 6
    w, d, perm = even_distance_cycle_power(3, 2, (0, 0))
    assert d == 0
    # (2, 1): j + r = 1 + 0 odd, i + r = 2 + 0 even, so the swap fires
    w, d, perm = even_distance_cycle_power(3, 2, (2, 1))
    assert perm == (1, 0)
    conj = conjugate_cycle(w, perm)
    assert cycle_distance(conj, (2, 1)) == d and d % 2 == 0


def test_even_distance_power_dimension_three():
    w, d, perm = even_distance_cycle_power(3, 3, (1, 1, 1))
    assert w.length == 27 and d % 2 == 0
    conj = conjugate_cycle(w, perm)
    assert cycle_distance(conj, (1, 1, 1)) == d


def test_even_distance_power_rejects_even_m():
    with pytest.raises(ValueError, match="odd"):
        even_distance_cycle_power(2, 3, (0, 0, 0))
    with pytest.raises(ValueError, match="odd"):
        even_distance_cycle_power(4, 2, (0, 0))


def test_even_distance_power_full_sweep_tiny():
    spec = TorusSpec.power(3, 2)
    for v in spec.vertices():
        w, d, perm = even_distance_cycle_power(3, 2, v)
        conj = conjugate_cycle(w, perm)
        assert d % 2 == 0
        assert cycle_distance(conj, v) == d


def test_conjugate_cycle_distance_relation():
    inner = staircase_a(3, 3)
    spec = inner.spec
    perm = transposition(2, 0, 1)
    conj = conjugate_cycle(inner, perm)
    for v in spec.vertices():
        assert cycle_distance(conj, v) == cycle_distance(inner, spec.permute_coords(v, perm))


def test_any_cycle_power_small_sweep():
    # hamiltonian, and the closed form matches the traced distance at every vertex
    rng = random.Random(1)
    for m in range(2, 8):
        n = 1
        while m**n <= 2401:
            w = any_cycle_power(m, n)
            assert w.spec.moduli == (m,) * n
            assert isinstance(verify_ham_cycle(w.spec, w.arcs), Cycle)
            vs = list(trace(w.spec, w.base, word_from_flat(w.arcs)))[:-1]
            assert [_any_cycle_distance(m, v) for v in vs] == list(range(m**n))
            for d in rng.sample(range(m**n), min(4, m**n)):
                assert cycle_distance(w, vs[d]) == d
            n += 1


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [3, 5, 7])
def test_even_distance_cycle_power_is_hamiltonian_with_its_distance(m, n):
    spec = TorusSpec.power(m, n)
    targets = list(spec.vertices())
    if m**n > 243:
        targets = [spec.zero()] + random.Random(10 * m + n).sample(targets, 24)
    for v in targets:
        cycle, dist, perm = even_distance_cycle_power(m, n, v)
        conj = conjugate_cycle(cycle, perm)
        assert dist % 2 == 0
        assert isinstance(verify_ham_cycle(spec, conj.arcs), Cycle)
        assert cycle_distance(conj, v) == dist
