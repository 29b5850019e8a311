import ast
import itertools
import random
import sys
from pathlib import Path

import pytest

from torusham import (
    DEFAULT_CAP,
    SizeCapError,
    TorusSpec,
    endpoint_set,
    enumerate_torus_specs,
    ham_cycle_exists_2d,
    ham_cycle_witness,
    ham_path_exists,
    ham_path_witness,
    hamiltonian_path,
    verify_ham_cycle,
    verify_ham_path,
    Cycle,
    PathCertificate,
)
from torusham import oracle


def test_ham_path_exists_matches_constructor():
    spec = TorusSpec((2, 2, 2))
    assert ham_path_exists(spec, (0, 0, 0), (1, 0, 0))
    missing = hamiltonian_path(2, 3, (0, 0, 0), (1, 0, 0))
    assert isinstance(missing, PathCertificate) and missing.verified


def test_k2_odd_endpoints():
    spec = TorusSpec((3, 3))
    assert not ham_path_exists(spec, (0, 0), (1, 1))
    assert ham_path_exists(spec, (0, 0), (0, 2))


def test_witness_words_verify():
    spec = TorusSpec((2, 3, 4))
    w = ham_path_witness(spec, (0, 0, 0), (0, 0, 3))
    assert w is not None
    assert verify_ham_path(spec, (0, 0, 0), (0, 0, 3), w).verified


def test_cycle_witness_verifies():
    spec = TorusSpec((2, 2, 3))
    w = ham_cycle_witness(spec)
    assert w is not None
    assert isinstance(verify_ham_cycle(spec, w), Cycle)


def test_endpoint_set_two_power_three():
    spec = TorusSpec((3, 3))
    report = endpoint_set(spec, (0, 0))
    assert report.reachable == ((0, 2), (2, 0))
    assert report.predicted == ((0, 2), (1, 1), (2, 0))
    assert not report.agreement
    assert report.counterexamples == ((1, 1),)


def test_endpoint_set_cube():
    spec = TorusSpec((2, 2, 2))
    report = endpoint_set(spec, (0, 0, 0))
    odd = tuple(v for v in spec.vertices() if sum(v) % 2 == 1)
    assert report.reachable == odd and report.agreement


@pytest.mark.parametrize("m", [3, 5, 7])
def test_endpoint_set_odd_squared(m):
    # the paper's k = 2, odd-m exception: only (m+1)/2 of the m admissible
    # endpoints from 0 are reachable
    report = endpoint_set(TorusSpec((m, m)), (0, 0), cap=m * m)
    assert report.reachable == tuple((2 * n, m - 1 - 2 * n) for n in range((m + 1) // 2))


def test_endpoint_set_reachable_subset_of_predicted():
    for moduli in [(2, 2, 3), (2, 3, 4), (3, 3)]:
        report = endpoint_set(TorusSpec(moduli), (0,) * len(moduli))
        assert set(report.reachable) <= set(report.predicted)


def test_mixed_moduli_failures_are_real():
    # exhaustively confirmed: these congruence-satisfying targets terminate
    # no hamiltonian path from 0, so distance-mod-gcd alone does not decide
    report = endpoint_set(TorusSpec((2, 2, 3)), (0, 0, 0))
    assert report.counterexamples == ((0, 0, 1), (1, 1, 1), (1, 1, 2))


def test_ham_cycle_exists_2d_examples():
    assert ham_cycle_exists_2d(3, 6)
    # brute force finds the alternating cycle in Z_2 x Z_4; the coprime
    # pair is (s1, s2) = (2, 1)
    assert ham_cycle_exists_2d(2, 4)
    assert not ham_cycle_exists_2d(2, 3)
    assert not ham_cycle_exists_2d(2, 5)
    assert ham_cycle_exists_2d(2, 2)


def test_ham_cycle_exists_2d_agrees_with_brute_force_small():
    # the Trotter-Erdos criterion against exhaustive search up to the hard
    # cap, with the moduli in both orders
    for spec in enumerate_torus_specs(2, 64):
        for m1, m2 in (spec.moduli, spec.moduli[::-1]):
            brute = ham_cycle_witness(TorusSpec((m1, m2)), cap=64) is not None
            assert ham_cycle_exists_2d(m1, m2) == brute, (m1, m2)


def test_size_cap_enforced():
    with pytest.raises(SizeCapError):
        endpoint_set(TorusSpec((9, 9, 9)), (0, 0, 0))
    with pytest.raises(SizeCapError):
        ham_path_exists(TorusSpec((2, 2)), (0, 0), (1, 1), cap=100)
    # no torus has fewer than 2 vertices: a cap below 2 is refused, as scan refuses it
    with pytest.raises(SizeCapError, match="^cap 1 is below 2, the fewest vertices of a torus$"):
        endpoint_set(TorusSpec((3, 3)), (0, 0), cap=1)
    with pytest.raises(SizeCapError, match="^cap 1 is below 2"):
        ham_path_exists(TorusSpec((2, 2)), (0, 0), (1, 1), cap=1)
    # explicit raise up to the hard cap is allowed
    spec = TorusSpec((3, 3, 4))
    assert spec.vertex_count > DEFAULT_CAP
    report = endpoint_set(spec, (0, 0, 0), cap=64)
    assert report.predicted and report.agreement
    report = endpoint_set(TorusSpec((3, 3, 5)), (0, 0, 0), cap=45)
    assert len(report.reachable) == 44 and report.agreement


def test_enumerate_torus_specs():
    assert [s.moduli for s in enumerate_torus_specs(3, 8)] == [(2, 2, 2)]
    got = [s.moduli for s in enumerate_torus_specs(3, 32)]
    assert got == [
        (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 7),
        (2, 2, 8), (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 4, 4), (3, 3, 3),
    ]


def test_conjecture_scan_tiny():
    # the sufficiency scan that `torusham scan` and criterion 7 run: endpoint sets from 0
    reports = [endpoint_set(spec, spec.zero()) for spec in enumerate_torus_specs(3, 16)]
    assert [r.spec.moduli for r in reports] == [(2, 2, 2), (2, 2, 3), (2, 2, 4)]
    for r in reports:
        assert set(r.reachable) <= set(r.predicted)
    assert reports[0].agreement and reports[2].agreement
    assert not reports[1].agreement


def _unpruned_witness(spec, start, target, *, cycle=False):
    """Plain DFS with no prunes, generators in index order: the reference."""
    total = spec.vertex_count
    arcs, seen = [], {start}

    def dfs(cur):
        if len(seen) == total:
            if not cycle:
                return cur == target
            closing = [g for g in range(spec.k) if spec.add_step(cur, g) == start]
            arcs.extend(closing[:1])
            return bool(closing)
        for g in range(spec.k):
            nxt = spec.add_step(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                arcs.append(g)
                if dfs(nxt):
                    return True
                seen.remove(nxt)
                arcs.pop()
        return False

    return bytes(arcs) if dfs(start) else None


def _small_specs():
    return [s for k in (1, 2, 3) for s in enumerate_torus_specs(k, 12)]


def test_path_witness_matches_the_unpruned_search():
    # an unsound prune would drop witnesses and report false counterexamples;
    # every query also drops symmetric copies, which must never drop the first
    for spec in _small_specs():
        for start in spec.vertices():
            for target in spec.vertices():
                expected = _unpruned_witness(spec, start, target)
                assert ham_path_witness(spec, start, target) == expected, (
                    spec.moduli, start, target,
                )
                assert ham_path_exists(spec, start, target) == (expected is not None), (
                    spec.moduli, start, target,
                )


def _queries():
    """Every spec with k = 1..4 and at most 24 vertices, from 0 and one seeded start."""
    rng = random.Random(18)
    for k in (1, 2, 3, 4):
        for spec in enumerate_torus_specs(k, 24):
            seeded = tuple(rng.randrange(m) for m in spec.moduli)
            for start in (spec.zero(), seeded):
                yield spec, start


def _symmetries(spec, start, target):
    """Generator relabellings p with m_p(i) = m_i and d_p(i) = d_i, d = target - start."""
    key = list(zip(spec.moduli, spec.subtract(target, start)))
    for p in itertools.permutations(range(spec.k)):
        if all(key[p[i]] == key[i] for i in range(spec.k)):
            yield p


def test_witnesses_reversed_and_relabelled_stay_paths():
    # the lemma behind every oracle query, checked by the trusted walk: reading a
    # witness backwards, or relabelling it by a symmetry of (start, target),
    # gives another hamiltonian path between the same endpoints
    witnesses = relabelled_words = 0
    for spec, start in _queries():
        for target in spec.vertices():
            w = ham_path_witness(spec, start, target)
            if w is None:
                continue
            witnesses += 1
            assert verify_ham_path(spec, start, target, w[::-1]).verified, (
                spec.moduli, start, target,
            )
            for p in _symmetries(spec, start, target):
                relabelled = bytes(p[g] for g in w)
                assert verify_ham_path(spec, start, target, relabelled).verified, (
                    spec.moduli, start, target, p,
                )
                relabelled_words += relabelled != w
    assert (witnesses, relabelled_words) == (470, 224)


def _lexicographic_witness(spec, graph, s, t):
    """The plain lexicographic search's path: each first arc in turn, no last arc banned."""
    paths = (oracle._dfs_ham(graph, s, t, g, ()) for g in range(spec.k))
    return next((w for w in paths if w is not None), None)


def test_existence_agrees_with_the_witness_search():
    queries = 0
    for spec, start in _queries():
        graph, s = oracle._graph(spec), oracle._index(spec, start)
        found = {}
        for target in spec.vertices():
            w = _lexicographic_witness(spec, graph, s, oracle._index(spec, target))
            assert ham_path_witness(spec, start, target) == w, (spec.moduli, start, target)
            found[target] = w is not None
        for target, expected in found.items():
            assert ham_path_exists(spec, start, target) == expected, (spec.moduli, start, target)
        report = endpoint_set(spec, start)
        assert report.reachable == tuple(t for t in report.predicted if found[t])
        assert report.counterexamples == tuple(t for t in report.predicted if not found[t])
        queries += len(found)
    assert queries > 1500


@pytest.mark.parametrize("moduli", [(3, 3, 4), (2, 2, 2, 6)])
def test_forced_first_and_banned_last_arcs_past_30_vertices(moduli):
    # every first arc, with no banned last arcs and with those that the lemma
    # bans, to every admissible target of a seeded start: the search must
    # return the least witness that keeps both constraints
    spec = TorusSpec(moduli)
    start = tuple(random.Random(19).randrange(m) for m in moduli)
    graph, s = oracle._graph(spec), oracle._index(spec, start)
    for target in spec.vertices():
        if target == start or not spec.ham_path_congruence_ok(start, target):
            continue
        w = ham_path_witness(spec, start, target, cap=64)
        assert w is not None
        assert ham_path_exists(spec, start, target, cap=64)
        t = oracle._index(spec, target)
        assert w == _lexicographic_witness(spec, graph, s, t), target
        key = list(zip(spec.moduli, spec.subtract(target, start)))
        for first in range(spec.k):
            lemma = tuple(h for h in range(spec.k) if key.index(key[h]) < first)
            for banned in {(), lemma}:
                got = oracle._dfs_ham(graph, s, t, first, banned)
                if w[0] == first and w[-1] not in banned:
                    assert got == w, (target, first, banned)
                elif got is not None:
                    assert got > w and got[0] == first and got[-1] not in banned
                    assert verify_ham_path(spec, start, target, got).verified


def test_cycle_witness_matches_the_unpruned_search():
    for spec in _small_specs():
        expected = _unpruned_witness(spec, spec.zero(), spec.zero(), cycle=True)
        assert ham_cycle_witness(spec) == expected, spec.moduli


def test_oracle_imports_only_the_stdlib_and_the_torus():
    # the oracle is ground truth for the construction, so it must not share
    # the construction's code
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module == "torus", ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
