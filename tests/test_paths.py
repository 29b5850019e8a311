import ast
import hashlib
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from torusham import (
    PathCertificate,
    Refusal,
    TorusSpec,
    hamiltonian_path,
    trace,
    verify_ham_path,
    verify_ham_cycle,
    Cycle,
)
from torusham import cycles, paths, words
from torusham.cli import certificate_record
from torusham.words import expect_path

from conftest import expand, prism_path_arcs, staircase


def _prism_walk(m, N, arcs):
    """Vertices of the prism path on Z_m x Z_N: both steps advance x, b = 1 also advances y."""
    assert set(arcs) <= {0, 1}
    x = y = 0
    vs = [(0, 0)]
    for b in arcs:
        x, y = (x + 1) % m, (y + b) % N
        vs.append((x, y))
    return vs


def _ab_is_ham_path(m, N, arcs, target):
    vs = _prism_walk(m, N, arcs)
    return len(vs) == m * N and len(set(vs)) == m * N and vs[-1] == target


def test_prism_arcs_pinned_bytes():
    assert prism_path_arcs(3, 9, 1) == bytes([0, 1, 1] + [0, 1, 0] * 6 + [0, 1, 1] + [0, 1])


def test_prism_word_main_example():
    arcs = prism_path_arcs(3, 9, 1)
    assert len(arcs) == 26
    assert _prism_walk(3, 9, arcs)[-1] == (2, 2)
    assert _ab_is_ham_path(3, 9, arcs, (2, 2))


def test_prism_word_length_two_cycle():
    arcs = prism_path_arcs(2, 4, 0)
    assert len(arcs) == 7
    assert _ab_is_ham_path(2, 4, arcs, (1, 0))


def test_prism_word_collapsed_blocks():
    assert _prism_walk(3, 9, prism_path_arcs(3, 9, 0))[-1] == (2, 0)


def test_prism_word_range_check():
    with pytest.raises(ValueError, match="n must"):
        paths._roll(3, bytes(9), 5)
    with pytest.raises(ValueError, match="n must"):
        paths._roll(3, bytes(9), -1)


def test_prism_word_is_ham_path_small_sweep():
    for m, N in [(2, 2), (2, 4), (3, 3), (3, 9), (4, 4), (5, 5)]:
        for n in range((N + 1) // 2):
            arcs = prism_path_arcs(m, N, n)
            assert len(arcs) == m * N - 1
            assert _ab_is_ham_path(m, N, arcs, ((-1) % m, (2 * n) % N))


def test_prism_symbolic_identities():
    for m in range(2, 10):
        for N in (2, 3, 8, 81):
            for n in range((N + 1) // 2):
                arcs = prism_path_arcs(m, N, n)
                assert arcs.count(1) == N + 2 * n
                assert len(arcs) == m * N - 1
                assert _prism_walk(m, N, arcs)[-1] == ((-1) % m, (2 * n) % N)


def _roll_reference(m, k, inner, n):
    """Each a of the prism path becomes 0; the i-th b becomes inner arc i mod N, plus 1."""
    cursor = itertools.cycle(inner)
    return bytes(next(cursor) + 1 if b else 0 for b in prism_path_arcs(m, m ** (k - 1), n))


def test_rolled_path_matches_the_substitution_reference():
    rng = random.Random(5)
    for m in range(2, 8):
        for k in range(2, 5):
            spec = TorusSpec.power(m, k - 1)
            # arbitrary arcs, not a cycle: the roll must place every arc, whatever it is
            inner = bytes(rng.randrange(k - 1) for _ in range(spec.vertex_count))
            for n in range((spec.vertex_count + 1) // 2):
                assert paths._roll(m, inner, n) == _roll_reference(m, k, inner, n)


def _rolled_certificate(m, k, inner, n):
    # the rolled path ends at c - x_1 in the zero-sum coordinates, where c is
    # the end of the first 2n inner arcs
    c = list(trace(inner.spec, inner.base, inner.arcs[: 2 * n]))[-1]
    target = ((-1 - sum(c)) % m, *c)
    return verify_ham_path(TorusSpec.power(m, k), (0,) * k, target, paths._roll(m, inner.arcs, n))


def test_path_from_inner_cycle_k2():
    inner = verify_ham_cycle(TorusSpec.power(3, 1), "x1^3")
    assert isinstance(inner, Cycle)
    cert = _rolled_certificate(3, 2, inner, 1)
    assert cert.verified and cert.length == 8
    assert cert.target == (0, 2)


def test_path_from_inner_cycle_n_zero_targets_minus_x1():
    cert = _rolled_certificate(3, 3, staircase(3, 3, 2), 0)
    assert cert.verified and cert.target == (2, 0, 0)


def test_path_from_inner_cycle_even_m():
    cert = _rolled_certificate(2, 3, staircase(2, 2, 1), 1)
    assert cert.verified and cert.length == 7


def test_path_for_odd_m_examples():
    zero = (0, 0, 0)
    cert = hamiltonian_path(3, 3, zero, (2, 0, 0))
    assert cert.verified and cert.length == 26
    cert = hamiltonian_path(3, 3, zero, (0, 1, 1))
    assert cert.verified
    cert = hamiltonian_path(5, 3, zero, (4, 0, 0))
    assert cert.verified and cert.length == 124


def test_path_for_even_m_examples():
    zero = (0, 0, 0)
    cert = hamiltonian_path(2, 3, zero, (1, 0, 0))
    assert cert.verified and cert.length == 7
    cert = hamiltonian_path(2, 3, zero, (1, 1, 1))
    assert cert.verified
    cert = hamiltonian_path(4, 3, zero, (3, 0, 0))
    assert cert.verified and cert.length == 63


def test_path_builders_validate_inputs():
    with pytest.raises(ValueError, match="cycle length"):
        hamiltonian_path(1, 3, (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="not a reduced vertex"):
        hamiltonian_path(3, 3, (0, 0, 0), (3, 0, 0))
    with pytest.raises(ValueError, match="not a reduced vertex"):
        hamiltonian_path(3, 3, (0, 0), (2, 0, 0))
    # a bool coordinate would end up in the certificate record, which verify rejects
    with pytest.raises(ValueError, match="not a reduced vertex"):
        hamiltonian_path(3, 3, (True, 0, 0), (0, 0, 0))


@pytest.mark.parametrize(
    "m, k, u, v",
    [
        (3, 3, (1, 1, 1), (0, 1, 1)),  # odd m, non-zero start
        (2, 4, (1, 0, 0, 0), (1, 1, 0, 0)),  # even m, target difference permuted
    ],
    ids=["odd-m", "even-m-transposition"],
)
def test_hamiltonian_path_traces_the_certificate_once(monkeypatch, m, k, u, v):
    calls = []
    walks = []
    walk = words._walk

    def counting(spec, start, target, word):
        calls.append((start, target))
        return expect_path(spec, start, target, word)

    def counting_walk(spec, *args):
        walks.append(spec.moduli)
        return walk(spec, *args)

    monkeypatch.setattr(paths, "expect_path", counting)
    monkeypatch.setattr(words, "_walk", counting_walk)
    cert = hamiltonian_path(m, k, u, v)
    assert cert.verified and (cert.start, cert.target) == (u, v)
    assert calls == [(u, v)]
    # only the certificate itself: the inner arcs are counted, not walked
    assert walks == [(m,) * k]


def test_certificate_word_renders_the_walked_arcs():
    # the trace walks cert.arcs; the word is only a rendering, so it must expand to them
    configs = [(m, k) for k in (3, 4, 5) for m in range(2, 10) if m**k <= 4096]
    certified = 0
    # the records of acceptance criterion 1, one JSON line each, pinned by digest
    digest = hashlib.sha256()
    for m, k in configs:
        spec = TorusSpec.power(m, k)
        for v in spec.vertices():
            if sum(v) % m != m - 1:
                continue
            cert = hamiltonian_path(m, k, spec.zero(), v)
            assert type(cert.arcs) is bytes and len(cert.arcs) == m**k - 1
            assert expand(cert.word) == list(cert.arcs)
            digest.update(json.dumps(certificate_record(cert)).encode() + b"\n")
            certified += 1
    assert certified == sum(m ** (k - 1) for m, k in configs) == 2557
    assert digest.hexdigest() == (
        "019734814e97eb84c7a357ba5e2c2e0b9e2c6189aa30a68e231049272c6c3eb4"
    )


@pytest.mark.parametrize("m, k", [(3, 30), (4, 25)])
def test_plan_is_pure_arithmetic(m, k):
    # 2*10^14 and 10^15 vertices: anything of size m^k would blow the budget
    rng = random.Random(m * k)
    rest = tuple(rng.randrange(m) for _ in range(k - 1))
    v = ((m - 1 - sum(rest)) % m, *rest)
    tracemalloc.start()
    try:
        term = paths.plan(m, k, (0,) * k, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(term, paths.Term) and len(term.levels) == k - 2
    assert all(at in (0, m - 1) for at in term.levels)
    assert sorted(term.tau) == list(range(k))
    assert peak < 64 * 1024


def test_plan_refuses_like_hamiltonian_path():
    for m, k in [(2, 3), (3, 3), (4, 3), (3, 4)]:
        spec = TorusSpec.power(m, k)
        u = tuple(i % m for i in range(k))
        refused = 0
        for v in spec.vertices():
            got = paths.plan(m, k, u, v)
            if isinstance(got, Refusal):
                assert got == hamiltonian_path(m, k, u, v)
                refused += 1
        assert refused == spec.vertex_count - m ** (k - 1)


def test_hamiltonian_path_dispatch_and_translation():
    cert = hamiltonian_path(3, 3, (1, 1, 1), (0, 1, 1))
    assert isinstance(cert, PathCertificate) and cert.verified
    assert cert.start == (1, 1, 1) and cert.target == (0, 1, 1)
    got = hamiltonian_path(3, 3, (0, 0, 0), (1, 0, 0))
    assert isinstance(got, Refusal)
    assert "mod 3" in got.message.replace("(", "").replace(")", "")
    # every path has length 1 (mod 3), and a hamiltonian path 26 = 2 (mod 3)
    assert (got.residue, got.required) == (1, 2)
    cert = hamiltonian_path(2, 4, (0, 0, 0, 0), (1, 0, 0, 0))
    assert cert.verified and cert.length == 15


def test_hamiltonian_path_rejects_k2():
    with pytest.raises(ValueError, match="k >= 3"):
        hamiltonian_path(3, 2, (0, 0), (2, 0))


def test_hamiltonian_path_rejects_u_equals_v():
    got = hamiltonian_path(3, 3, (1, 1, 1), (1, 1, 1))
    assert isinstance(got, Refusal)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)
def test_translation_invariance(u, v):
    # the certificate for (u, v) reuses the 0-based word for v - u
    spec = TorusSpec.power(3, 3)
    got = hamiltonian_path(3, 3, u, v)
    diff = spec.subtract(v, u)
    base = hamiltonian_path(3, 3, spec.zero(), diff)
    assert type(got) is type(base)
    if isinstance(got, PathCertificate):
        assert got.word == base.word
        assert verify_ham_path(spec, u, v, base.arcs).verified


def test_exhaustive_small_powers():
    for m, k in [(2, 3), (3, 3)]:
        spec = TorusSpec.power(m, k)
        good = 0
        for v in spec.vertices():
            got = hamiltonian_path(m, k, spec.zero(), v)
            admissible = v != spec.zero() and sum(v) % m == m - 1
            if admissible:
                assert isinstance(got, PathCertificate) and got.verified
                good += 1
            else:
                assert isinstance(got, Refusal)
        assert good == m ** (k - 1)


def test_paths_imports_from_words_only_the_certificate_and_expect_path():
    # the construction reaches the trusted checker through expect_path alone
    names = [
        alias.name
        for node in ast.walk(ast.parse(Path(paths.__file__).read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "words"
        for alias in node.names
    ]
    assert sorted(names) == ["PathCertificate", "expect_path"]


def test_cycles_imports_from_the_package_only_torus():
    # the arc builders cannot reach the trusted checker, in words or anywhere else
    tree = ast.parse(Path(cycles.__file__).read_text())
    relative = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    absolute = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    absolute += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level]
    assert relative == ["torus"]
    assert [name for name in absolute if name.split(".")[0] == "torusham"] == []
