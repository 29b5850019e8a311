import random

import pytest

from torusham import Cycle, TorusSpec, trace, transposition, verify_ham_cycle
from torusham.cycles import _any_cycle_distance, _arc_table, _lift

from conftest import any_cycle, cycle_distance, even_distance_cycle, staircase

# arc relabelling that exchanges generators 0 and 1
_SWAP = _arc_table((1, 0))


def _permuted(v, perm):
    """v with coordinate i moved to position perm[i]."""
    out = [0] * len(v)
    for i, p in enumerate(perm):
        out[p] = v[i]
    return tuple(out)


def test_staircase_a_examples():
    w = staircase(3, 3, 2)
    assert w.arcs == bytes([0, 0, 1] * 3)
    assert w.length == 9
    small = staircase(2, 2, 1)
    vs = list(trace(small.spec, (0, 0), small.arcs))
    assert vs == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]


def test_staircase_b_examples():
    assert staircase(3, 3, 0).arcs == bytes([1, 0, 0] * 3)
    assert staircase(3, 6, 0).length == 18


def test_classify_case_examples():
    # the base rule picks S_a = staircase(3, 3, 2), S_a on swapped coordinates, or S_b
    a, b = staircase(3, 3, 2).arcs, staircase(3, 3, 0).arcs
    cases = {(1, 2): (a, 6), (0, 0): (a, 0), (1, 0): (a.translate(_SWAP), 4), (2, 2): (b, 4)}
    for v, expected in cases.items():
        cycle, dist = even_distance_cycle(3, v)
        assert (cycle.arcs, dist) == expected, v


def test_even_distance_2d_examples():
    w, d = even_distance_cycle(3, (1, 2))
    assert d == 6 and cycle_distance(w, (1, 2)) == 6
    assert cycle_distance(staircase(3, 9, 0), (2, 3)) == 8
    w, d = even_distance_cycle(5, (0, 0))
    assert d == 0
    # (1, 0) is in neither class (1) nor (2); its swap (0, 1) is in class (1)
    w, d = even_distance_cycle(3, (1, 0))
    assert d == 4 and cycle_distance(w, (1, 0)) == 4


def _r(m, i, j):
    return (i + j) % m


def test_staircase_closed_forms_by_enumeration():
    for m, n in [(3, 3), (3, 6), (5, 5)]:
        a = staircase(m, n, m - 1)
        b = staircase(m, n, 0)
        for i in range(m):
            for j in range(n):
                r = _r(m, i, j)
                assert cycle_distance(a, (i, j)) == j * m + r
                if j >= 1:
                    expected = (j - 1) * m + 1 + ((r - 1) % m)
                    assert cycle_distance(b, (i, j)) == expected


def test_even_distance_power_base_case():
    w, d = even_distance_cycle(3, (1, 2))
    assert d == 6 and w.arcs == staircase(3, 3, 2).arcs
    assert cycle_distance(w, (1, 2)) == 6
    w, d = even_distance_cycle(3, (0, 0))
    assert d == 0
    # (2, 1): j + r = 1 + 0 odd, i + r = 2 + 0 even, so the swap fires
    w, d = even_distance_cycle(3, (2, 1))
    assert w.arcs == staircase(3, 3, 2).arcs.translate(_SWAP)
    assert cycle_distance(w, (2, 1)) == d and d % 2 == 0


def test_even_distance_power_dimension_three():
    w, d = even_distance_cycle(3, (1, 1, 1))
    assert w.length == 27 and d % 2 == 0
    assert cycle_distance(w, (1, 1, 1)) == d


def test_even_distance_power_full_sweep_tiny():
    spec = TorusSpec.power(3, 2)
    for v in spec.vertices():
        w, d = even_distance_cycle(3, v)
        assert d % 2 == 0
        assert cycle_distance(w, v) == d


def test_conjugate_cycle_distance_relation():
    # relabelling arcs by a transposition carries distances to the permuted target
    inner = staircase(3, 3, 2)
    spec = inner.spec
    perm = transposition(2, 0, 1)
    conj = Cycle(spec, inner.arcs.translate(_arc_table(perm)))
    for v in spec.vertices():
        assert cycle_distance(conj, v) == cycle_distance(inner, _permuted(v, perm))


def test_any_cycle_power_small_sweep():
    # hamiltonian, and the closed form matches the traced distance at every vertex
    rng = random.Random(1)
    for m in range(2, 8):
        n = 1
        while m**n <= 2401:
            w = any_cycle(m, n)
            assert w.spec.moduli == (m,) * n
            assert isinstance(verify_ham_cycle(w.spec, w.arcs), Cycle)
            vs = list(trace(w.spec, w.base, w.arcs))[:-1]
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
        cycle, dist = even_distance_cycle(m, v)
        assert dist % 2 == 0
        assert isinstance(verify_ham_cycle(spec, cycle.arcs), Cycle)
        assert cycle_distance(cycle, v) == dist


# The recursive builder that the planned lift chain (_even_distance_levels,
# then _lift_chain) replaced, kept as the reference it must equal byte for byte: each level
# classifies its 2-dimensional target, recurses and conjugates the inner cycle.


def _ref_conjugate(arcs, perm):
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    return arcs.translate(_arc_table(inverse))


def _ref_staircase_case(m, v):
    """(lift offset, even distance) of the staircase that class (1) or (2) picks."""
    i, j = v
    r = (i + j) % m
    if (j + r) % 2 == 0:
        return m - 1, j * m + r
    if j != 0 and r != 0:
        return 0, (j - 1) * m + 1 + (r - 1)
    raise ValueError(f"no staircase case applies to {v}")


def _ref_2d(m, v, perm):
    at, dist = _ref_staircase_case(m, v)
    return _lift(bytes(m), m, at), dist, perm


def _ref_even_distance_cycle_power(m, n, v):
    """(arcs, distance, perm): the distance is to v permuted by perm."""
    if n == 2:
        i, j = v
        r = (i + j) % m
        if (j + r) % 2 == 0:
            return _ref_2d(m, (i, j), (0, 1))
        if (i + r) % 2 == 0:
            return _ref_2d(m, (j, i), transposition(2, 0, 1))
        if j != 0:
            return _ref_2d(m, (i, j), (0, 1))
        return _ref_2d(m, (j, i), transposition(2, 0, 1))
    if all(c == 0 for c in v):
        return any_cycle(m, n).arcs, 0, tuple(range(n))
    last = max(idx for idx, c in enumerate(v) if c != 0)
    perm = tuple(range(n)) if last == n - 1 else transposition(n, last, n - 1)
    u = _permuted(v, perm)
    inner_raw, inner_dist, inner_perm = _ref_even_distance_cycle_power(m, n - 1, u[1:])
    assert inner_dist % 2 == 0 and inner_dist != 0
    at, dist = _ref_staircase_case(m, (u[0], inner_dist))
    return _lift(_ref_conjugate(inner_raw, inner_perm), m, at), dist, perm


def _reference_targets():
    """Every target up to 2401 vertices, and 100 seeded ones per larger power."""
    rng = random.Random(0)
    for m in (3, 5, 7, 9, 11):
        for n in range(2, 7):
            if m**n > 20_000:
                continue
            if m**n <= 2401:
                for v in TorusSpec.power(m, n).vertices():
                    yield m, n, v
            else:
                for _ in range(100):
                    yield m, n, tuple(rng.randrange(m) for _ in range(n))


def test_even_distance_cycle_power_matches_the_recursive_reference():
    checked = 0
    for m, n, v in _reference_targets():
        cycle, dist = even_distance_cycle(m, v)
        raw, ref_dist, perm = _ref_even_distance_cycle_power(m, n, v)
        assert (cycle.arcs, dist) == (_ref_conjugate(raw, perm), ref_dist), (m, n, v)
        checked += 1
    assert checked == 7419
