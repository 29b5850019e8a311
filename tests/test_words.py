import ast
import itertools
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import (
    any_cycle,
    cycle_distance,
    expand,
    generator_words,
    reference_word_from_text,
    reference_word_to_text,
    staircase,
    walk_reference,
    word_trees,
)
from torusham import (
    Concat,
    Cycle,
    CycleRejection,
    Power,
    Symbol,
    TorusSpec,
    hamiltonian_path,
    trace,
    verify_ham_cycle,
    verify_ham_path,
    word_from_text,
)
from torusham import words
from torusham.words import arcs_from_text, text_from_arcs, word_from_flat, word_from_runs

X1, X2 = Symbol(0), Symbol(1)


def test_expand_nested_power():
    w = Power(Concat((Power(X1, 2), X2)), 3)
    assert expand(w) == [0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_expand_zero_power_and_mixed():
    assert expand(Power(Concat((X1, X2)), 0)) == []
    assert expand(Concat((X1, Power(X2, 2)))) == [0, 1, 1]


@pytest.mark.parametrize("exponent", [-1, True, 1.0])
def test_negative_exponent_rejected(exponent):
    # True would render as x1^True, which word_from_text rejects
    with pytest.raises(ValueError, match="non-negative int"):
        Power(X1, exponent)


@pytest.mark.parametrize("label", ["a", True, -1, 1.0, None])
def test_symbol_label_must_be_a_generator_index(label):
    with pytest.raises(ValueError, match="non-negative int"):
        Symbol(label)


@given(generator_words(2), st.integers(0, 8))
def test_power_expands_to_repetition(w, j):
    assert expand(Power(w, j)) == expand(w) * j


def test_trace_examples():
    spec = TorusSpec((3, 3))
    assert list(trace(spec, (0, 0), [0, 0, 1])) == [(0, 0), (1, 0), (2, 0), (2, 1)]
    spec3 = TorusSpec((2, 2, 2))
    assert list(trace(spec3, (0, 0, 0), b"")) == [(0, 0, 0)]


def test_trace_covers_nine_vertices():
    spec = TorusSpec((3, 3))
    w = Power(Concat((Power(Symbol(0), 2), Symbol(1))), 3)
    vs = list(trace(spec, (0, 0), expand(w)))
    assert len(vs) == 10 and vs[-1] == (0, 0)
    assert set(vs) == set(itertools.product(range(3), range(3)))


def test_trace_rejects_bad_symbol():
    spec = TorusSpec((3, 3))
    with pytest.raises(ValueError, match="generator"):
        list(trace(spec, (0, 0), [7]))
    for arcs in ([-1], [0, -1]):
        with pytest.raises(ValueError, match="generator"):
            list(trace(spec, (0, 0), arcs))


@given(generator_words(3))
def test_endpoint_agrees_with_trace(w):
    spec = TorusSpec((3, 4, 2))
    flat = expand(w)
    last = None
    for last in trace(spec, (1, 2, 0), flat):
        pass
    counts = [flat.count(g) for g in range(spec.k)]
    assert last == tuple((c + n) % m for c, n, m in zip((1, 2, 0), counts, spec.moduli))


def _naive_ham_path(spec, start, target, w):
    vs = list(trace(spec, start, expand(w)))
    return (
        len(vs) == spec.vertex_count
        and len(set(vs)) == spec.vertex_count
        and vs[-1] == target
    )


def test_verify_ham_path_hand_case():
    spec = TorusSpec((2, 2))
    w = word_from_flat([0, 1, 0])
    assert verify_ham_path(spec, (0, 0), (0, 1), w).verified
    cert = verify_ham_path(spec, (0, 0), (1, 0), w)
    assert not cert.verified and "endpoint" in cert.failure
    # an endpoint that is no reduced vertex is raised, not reported
    with pytest.raises(ValueError, match=r"^\(2, 0\) is not a reduced vertex of "):
        verify_ham_path(spec, (2, 0), (0, 1), w)
    with pytest.raises(ValueError, match=r"^\(0, 2\) is not a reduced vertex of "):
        verify_ham_path(spec, (0, 0), (0, 2), w)


def test_verify_ham_path_reports_first_repeat():
    spec = TorusSpec((2, 2))
    cert = verify_ham_path(spec, (0, 0), (0, 1), word_from_flat([0, 0, 1]))
    assert not cert.verified
    assert cert.failure == "repeated vertex"
    assert cert.failure_position == 2
    assert cert.failure_vertex == (0, 0)


def test_verify_ham_path_length_mismatch():
    spec = TorusSpec((2, 2))
    cert = verify_ham_path(spec, (0, 0), (0, 1), word_from_flat([0]))
    assert not cert.verified and "length" in cert.failure
    # a cycle claim of the wrong length is refused by its length, even one that closes at 0
    for w, n in (("x1^2", 2), (b"\0\0\1\1\0", 5)):
        got = verify_ham_cycle(spec, w)
        assert (got.reason, got.position) == (f"length {n} != vertex count 4", None)


def test_verify_ham_path_walks_bytes_and_keeps_the_tree_as_rendering():
    spec = TorusSpec((2, 2))
    from_text = verify_ham_path(spec, (0, 0), (0, 1), "x1 x2 x1")
    from_bytes = verify_ham_path(spec, (0, 0), (0, 1), bytes([0, 1, 0]))
    assert from_text.verified and from_bytes.verified
    assert from_text.arcs == from_bytes.arcs == b"\0\1\0" and from_text.length == 3
    assert (from_text.claim, from_bytes.claim) == ("(x1 x2 x1)", None)
    # a tree is only a construction's rendering, never a claim's
    assert from_text.word is None and from_bytes.word is None
    built = hamiltonian_path(2, 3, (0, 0, 0), (1, 0, 0))
    assert verify_ham_path(built.spec, built.start, built.target, reference_word_to_text(built.word)).verified
    cert = verify_ham_path(spec, (0, 0), (0, 1), bytes([0, 0, 1]))
    assert (cert.failure, cert.failure_position, cert.arcs) == ("repeated vertex", 2, b"\0\0\1")
    with pytest.raises(ValueError, match="arc 2 is not a generator"):
        verify_ham_path(spec, (0, 0), (0, 1), bytes([0, 2, 1]))


def test_verify_ham_path_takes_a_checked_flat_list():
    spec = TorusSpec((2, 2))
    cert = verify_ham_path(spec, (0, 0), (0, 1), word_from_flat([0, 1, 0]))
    assert cert.verified and cert.arcs == b"\0\1\0" and cert.word is None
    short = verify_ham_path(spec, (0, 0), (0, 1), word_from_flat([0, 1]))
    assert short.failure.startswith("length 2") and short.arcs == b"\0\1"
    # a wrong length is reported before the range check, even past a byte
    wide = verify_ham_path(spec, (0, 0), (0, 1), word_from_flat([300]))
    assert wide.failure.startswith("length 1") and wide.arcs == b""
    with pytest.raises(ValueError, match="arc 300 is not a generator"):
        verify_ham_path(spec, (0, 0), (0, 1), word_from_flat([0, 300, 0]))


def test_verify_ham_path_refuses_an_unchecked_negative_arc():
    # a list the caller did not check: a negative entry is refused, not walked as empty
    spec = TorusSpec((2, 2))
    for arcs in ([0, -1, 0], [0, -1], [-1, 300, 0]):
        with pytest.raises(ValueError, match=r"^flat form entries must be non-negative ints, got -1$"):
            verify_ham_path(spec, (0, 0), (0, 1), arcs)


@pytest.mark.parametrize(
    "arcs, bad",
    [
        ([False, True, False], "False"),
        ([0, 1.0, 0], "1.0"),
        ([0, "1", 0], "'1'"),
        ([0, -1, 0], "-1"),
        # the first bad entry is named, not the 0 before it
        ([0, -1], "-1"),
        # a largest entry of 255 or 256 changes nothing: the negative one is named
        ([255, -1], "-1"),
        ([256, -1], "-1"),
    ],
    ids=["bool", "float", "str", "negative", "negative-last", "negative-after-255", "negative-after-256"],
)
def test_verify_ham_path_names_the_bad_entry_of_a_list(arcs, bad):
    # the verifier checks a list itself, whatever its length: one message for every bad entry
    spec = TorusSpec((2, 2))
    message = f"flat form entries must be non-negative ints, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_ham_path(spec, (0, 0), (0, 1), arcs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_ham_cycle(spec, arcs)


def _peak_bytes(f, *args):
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_ham_path_refuses_a_power_bomb_before_expanding():
    # trees are output only: either verifier refuses a Symbol, a Concat or a Power by its type,
    # and expands nothing
    spec = TorusSpec((3, 3))
    for tree in (X1, Concat((X1, X2, X1)), Power(X1, 3), Power(X1, 10**18)):
        message = f"^a claim is nested text, bytes or a list of ints, not {type(tree).__name__}$"
        for verify, args in ((verify_ham_path, (spec, (0, 0), (2, 2), tree)), (verify_ham_cycle, (spec, tree))):
            tracemalloc.start()
            try:
                with pytest.raises(TypeError, match=message):
                    verify(*args)
                assert tracemalloc.get_traced_memory()[1] < 64 * 1024
            finally:
                tracemalloc.stop()


# an empty power of a huge power: a valid-length word with it spliced in holds no more arcs
EMPTY_BOMB = "(x1^1000000000000)^0"


def test_verify_ham_path_expands_a_tree_under_its_budget():
    u, v = (0, 0, 0), (2, 0, 0)
    built = hamiltonian_path(3, 3, u, v)
    cut = [i for i, c in enumerate(built.text) if c == " "][4]
    text = built.text[:cut] + " " + EMPTY_BOMB + built.text[cut:]
    cert, peak = _peak_bytes(verify_ham_path, TorusSpec.power(3, 3), u, v, text)
    assert cert.verified and cert.arcs == built.arcs and cert.claim == text
    assert peak < 64 * 1024


def test_verify_ham_cycle_expands_a_tree_under_its_budget():
    cycle, peak = _peak_bytes(verify_ham_cycle, TorusSpec((3,)), EMPTY_BOMB + " x1^3")
    assert isinstance(cycle, Cycle) and cycle.arcs == b"\0\0\0"
    assert peak < 64 * 1024


def test_labels_past_a_byte_keep_the_generator_range_check():
    spec = TorusSpec((2, 2))
    with pytest.raises(ValueError, match="arc 299 is not a generator"):
        verify_ham_path(spec, (0, 0), (0, 1), word_from_flat([0, 299, 0]))
    # an empty power of a label past a byte expands to nothing
    assert verify_ham_path(spec, (0, 0), (0, 1), "x1 x300^0 x2 x1").verified


@given(generator_words(2, max_exponent=3))
def test_verify_matches_naive_reimplementation(w):
    spec = TorusSpec((2, 3))
    for target in spec.vertices():
        got = verify_ham_path(spec, (0, 0), target, reference_word_to_text(w)).verified
        assert got == _naive_ham_path(spec, (0, 0), target, w)


def test_verify_ham_cycle_examples():
    spec = TorusSpec((3, 3))
    assert verify_ham_cycle(spec, "(x1^2 x2)^3") == Cycle(spec, bytes([0, 0, 1] * 3))
    bad = verify_ham_cycle(spec, "(x1^3)^3")
    assert isinstance(bad, CycleRejection)
    assert bad.reason == "revisits a vertex early"
    spec22 = TorusSpec((2, 2))
    assert isinstance(verify_ham_cycle(spec22, word_from_flat([0, 1, 0, 1])), Cycle)


def test_verify_ham_cycle_wrong_closure():
    spec = TorusSpec((2, 2))
    got = verify_ham_cycle(spec, word_from_flat([0, 1, 1, 0]))
    assert isinstance(got, CycleRejection)
    assert (got.reason, got.position, got.vertex) == ("revisits a vertex early", 3, (1, 0))
    # every vertex once, then a last arc to (1, 2) instead of back to 0
    spec = TorusSpec((3, 3))
    arcs = bytes([0, 0, 1] * 2 + [0, 0, 0])
    got = verify_ham_cycle(spec, arcs)
    assert (got.reason, got.position, got.vertex) == ("does not close at 0", 9, (1, 2))
    assert walk_reference(spec, (0, 0), arcs) == (9, (1, 2))


def test_cycle_distance_examples():
    a = staircase(3, 3, 2)
    assert cycle_distance(a, (1, 2)) == 6
    assert cycle_distance(a, (0, 0)) == 0
    b = staircase(3, 3, 0)
    assert cycle_distance(b, (0, 1)) == 1


def test_cycle_distance_is_bijection():
    for witness in (staircase(3, 6, 2), staircase(5, 5, 0)):
        positions = {cycle_distance(witness, v) for v in witness.spec.vertices()}
        assert positions == set(range(witness.spec.vertex_count))


# --- the sliced walk ---------------------------------------------------------
#
# _walk marks a slice of arcs unchecked and confirms it by one count.  With
# _SLICE set small, words of up to 16 * _SLICE arcs are cut into slices of
# exactly _SLICE arcs, so these words cross many slice boundaries.

SLICES = [1, 2, 3, 7]


def _self_avoiding(spec, start, rng, length):
    """Arcs of a random walk that avoids visited vertices while it can, so it repeats late."""
    seen, v, arcs = {start}, start, []
    for _ in range(length):
        fresh = [g for g in range(spec.k) if spec.add_step(v, g) not in seen]
        g = rng.choice(fresh or range(spec.k))
        v = spec.add_step(v, g)
        seen.add(v)
        arcs.append(g)
    return bytes(arcs)


def _first_landing(spec, start, arcs, v):
    """Index of the first vertex of the trace equal to v: 0 for the start."""
    return next(i for i, w in enumerate(trace(spec, start, arcs)) if w == v)


def _one_arc_edits(arcs, k):
    """Every word one arc inserted into, or replaced in, arcs."""
    for j in range(len(arcs) + 1):
        for g in range(k):
            yield arcs[:j] + bytes([g]) + arcs[j:]
            if j < len(arcs):
                yield arcs[:j] + bytes([g]) + arcs[j + 1 :]


@pytest.mark.parametrize("size", SLICES)
def test_walk_agrees_with_the_reference_on_random_words(monkeypatch, size):
    monkeypatch.setattr(words, "_SLICE", size)
    rng = random.Random(size)
    for _ in range(400):
        spec = TorusSpec(tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 4))))
        start = tuple(rng.randrange(m) for m in spec.moduli)
        length = rng.randint(0, spec.vertex_count + 2)
        for arcs in (
            bytes(rng.randrange(spec.k) for _ in range(length)),
            _self_avoiding(spec, start, rng, length),
        ):
            assert words._walk(spec, start, arcs) == walk_reference(spec, start, arcs)


@pytest.mark.parametrize("size", [3, 7])
def test_walk_finds_a_repeat_on_the_first_and_last_arc_of_a_slice(monkeypatch, size):
    monkeypatch.setattr(words, "_SLICE", size)
    u, v = (1, 0, 2), (0, 1, 1)
    cert = hamiltonian_path(3, 3, u, v)
    offsets = []  # where in its slice each repeat past the first slice falls
    for arcs in _one_arc_edits(cert.arcs, 3):
        hit = walk_reference(cert.spec, u, arcs)
        assert words._walk(cert.spec, u, arcs) == hit
        if hit[0] is not None and hit[0] > size:
            offsets.append((hit[0] - 1) % size)
    assert offsets.count(0) > 1 and offsets.count(size - 1) > 1


@pytest.mark.parametrize("size", SLICES)
def test_walk_finds_a_vertex_marked_in_an_earlier_slice(monkeypatch, size):
    monkeypatch.setattr(words, "_SLICE", size)
    u, v = (0, 0, 0), (2, 0, 0)
    cert = hamiltonian_path(3, 3, u, v)
    spec = cert.spec
    earlier = 0
    for j in range(len(cert.arcs) + 1):
        for g in range(spec.k):
            # the path so far, then one generator until it comes round
            arcs = cert.arcs[:j] + bytes([g]) * 3
            hit = walk_reference(spec, u, arcs)
            assert words._walk(spec, u, arcs) == hit
            landed = _first_landing(spec, u, arcs, hit[1])
            earlier += 0 < landed and (landed - 1) // size < (hit[0] - 1) // size
    assert earlier > 1


@pytest.mark.parametrize(
    "cycle, size",
    [
        (staircase(2, 2, 1), 1),
        (staircase(2, 4, 1), 2),
        (staircase(3, 3, 2), 3),
        (any_cycle(3, 3), 3),
        (staircase(7, 7, 0), 7),
    ],
    ids=["2x2", "2x4", "3x3", "3x3x3", "7x7"],
)
def test_walk_of_a_cycle_that_closes_at_a_slice_end(monkeypatch, cycle, size):
    monkeypatch.setattr(words, "_SLICE", size)
    spec, arcs, zero = cycle.spec, cycle.arcs, cycle.spec.zero()
    # at most 16 slices of exactly `size` arcs, the last of which closes the cycle
    assert len(arcs) % size == 0 and len(arcs) <= 16 * size
    assert words._walk(spec, zero, arcs) == (len(arcs), zero)
    assert verify_ham_cycle(spec, arcs) == cycle
    assert sorted(cycle_distance(cycle, v) for v in spec.vertices()) == list(range(len(arcs)))
    # the last two unequal adjacent arcs swapped: it revisits a vertex early, or misses 0
    j = max(j for j in range(len(arcs) - 1) if arcs[j] != arcs[j + 1])
    bad = _swapped(arcs, j)
    got = verify_ham_cycle(spec, bad)
    assert isinstance(got, CycleRejection)
    assert (got.position, got.vertex) == walk_reference(spec, zero, bad)


def _swapped(arcs, j):
    """arcs with the arcs at j and j + 1 swapped."""
    return arcs[:j] + arcs[j + 1 : j + 2] + arcs[j : j + 1] + arcs[j + 2 :]


def _located_as_the_reference_walk_does(cert, arcs):
    got = verify_ham_path(cert.spec, cert.start, cert.target, arcs)
    hit, stop = walk_reference(cert.spec, cert.start, arcs)
    if hit is None:
        assert got.verified == (stop == cert.target)
    else:
        assert (got.failure, got.failure_position, got.failure_vertex) == (
            "repeated vertex", hit, stop,
        )


@pytest.mark.parametrize("size", SLICES)
@pytest.mark.parametrize(
    "m, k, u, v",
    [
        (3, 4, (0, 0, 0, 0), (2, 0, 0, 0)),
        (4, 3, (1, 0, 0), (1, 2, 1)),
        (5, 3, (0, 0, 0), (1, 2, 1)),
        (2, 6, (0,) * 6, (1, 0, 0, 0, 0, 0)),
    ],
)
def test_verify_locates_every_adjacent_swap_as_the_reference_walk_does(
    monkeypatch, size, m, k, u, v
):
    monkeypatch.setattr(words, "_SLICE", size)
    cert = hamiltonian_path(m, k, u, v)
    swaps = [j for j in range(len(cert.arcs) - 1) if cert.arcs[j] != cert.arcs[j + 1]]
    assert swaps
    for j in swaps:
        _located_as_the_reference_walk_does(cert, _swapped(cert.arcs, j))


def test_verify_locates_a_swap_in_a_later_slice_of_a_large_certificate():
    # 177,146 arcs: three slices of _SLICE arcs, swapped at 60% as the benchmark's verify is
    u, v = (0,) * 11, (2,) + (0,) * 10
    cert = hamiltonian_path(3, 11, u, v)
    arcs = cert.arcs
    j = next(j for j in range(len(arcs) * 3 // 5, len(arcs)) if arcs[j] != arcs[j + 1])
    assert len(arcs) > 2 * words._SLICE and j > words._SLICE
    _located_as_the_reference_walk_does(cert, _swapped(arcs, j))


# --- the run loop -------------------------------------------------------------
#
# _walk gives g0, the generator most frequent in the first _HEAD arcs, stride 1,
# and marks a slice run by run when m0 > _RUNS and its g0 arcs outnumber its
# other arcs _RUNS times over.  The random words above use moduli 2..5, so they
# never reach it; these use moduli 7..40 (7..16 when k = 3), or set _RUNS to 0,
# which sends every slice holding a g0 arc through it.  Its marks are exact, so a slice is walked
# again (by _first_repeat) exactly when it repeats a vertex: `rewalks` records
# each such slice, and a valid claim must have none.


@pytest.fixture
def rewalks(monkeypatch):
    """Arc offsets of the slices _walk walks again, recorded through _first_repeat."""
    offsets = []
    first_repeat = words._first_repeat

    def recording(part, lo, *state):
        offsets.append(lo)
        return first_repeat(part, lo, *state)

    monkeypatch.setattr(words, "_first_repeat", recording)
    return offsets


def _walks_as_the_reference(rewalks, spec, start, arcs):
    """_walk's answer, asserted equal to walk_reference's, with one slice walked again iff it repeats."""
    rewalks.clear()
    hit = walk_reference(spec, start, arcs)
    assert words._walk(spec, start, arcs) == hit
    assert len(rewalks) == (hit[0] is not None)
    return hit


def _run_word(spec, start, g0, rng, length):
    """Arcs of runs of g0 between single other arcs, avoiding visited vertices while it can.

    Runs are aimed at m0 - 1, m0 - 2 or a random length and stop short of a
    visited vertex; one in twenty is forced to m0 - 1, m0, m0 + 1 or 2 m0 + 1
    arcs, which repeats a vertex unless it is shorter than m0.
    """
    m0 = spec.moduli[g0]
    seen, v, arcs = {start}, start, bytearray()
    while len(arcs) < length:
        if rng.random() < 0.05:
            run = rng.choice((m0 - 1, m0, m0 + 1, 2 * m0 + 1))
        else:
            run = rng.choice((m0 - 1, m0 - 2, rng.randrange(1, m0)))
        for _ in range(run):
            w = spec.add_step(v, g0)
            if w in seen and run < m0:
                break
            v = w
            seen.add(v)
            arcs.append(g0)
        fresh = [g for g in range(spec.k) if g != g0 and spec.add_step(v, g) not in seen]
        g = rng.choice(fresh or range(spec.k))
        v = spec.add_step(v, g)
        seen.add(v)
        arcs.append(g)
    return bytes(arcs[:length])


@pytest.mark.parametrize("size, runs", [(5, 6), (16, 6), (64, 6), (16, 0)])
def test_run_loop_agrees_with_the_reference_on_random_words(monkeypatch, rewalks, size, runs):
    monkeypatch.setattr(words, "_SLICE", size)
    monkeypatch.setattr(words, "_RUNS", runs)
    rng = random.Random(size + runs)
    low = 2 if runs == 0 else 7
    passed = set()
    for _ in range(120):
        k = rng.randint(1, 3)
        spec = TorusSpec(tuple(rng.randint(low, (40, 40, 16)[k - 1]) for _ in range(k)))
        start = tuple(rng.randrange(m) for m in spec.moduli)
        g0 = rng.randrange(k)
        length = rng.randint(spec.vertex_count // 2, spec.vertex_count + 2)
        hit = _walks_as_the_reference(rewalks, spec, start, _run_word(spec, start, g0, rng, length))
        passed.add(hit[0] is None)
    assert passed == {True, False}


@pytest.mark.parametrize("runs", [0, 6])
def test_run_loop_on_runs_about_the_length_of_a_line(monkeypatch, rewalks, runs):
    # runs of m0 - 1, m0 and more, from every coordinate, so they end short of,
    # at and past the end of their line, and wrap it
    monkeypatch.setattr(words, "_SLICE", 8)
    monkeypatch.setattr(words, "_RUNS", runs)
    spec = TorusSpec((9, 11))
    for c in range(11):
        start = (4, c)
        for r in (1, 9, 10, 11, 12, 21, 22, 23, 40):
            for tail in (b"", b"\0", b"\0" + b"\1" * 10, b"\0" + b"\1" * 11):
                arcs = (b"\1" * 10 + b"\0") * 6 + b"\1" * r + tail
                _walks_as_the_reference(rewalks, spec, start, arcs)
                _walks_as_the_reference(rewalks, spec, start, b"\0" + b"\1" * r + tail)


@pytest.mark.parametrize("size", [8, 1 << 16])
@pytest.mark.parametrize("moduli", [(7,), (40,), (7, 7), (9, 12, 8), (2, 3, 13), (2,) * 8 + (7,)])
def test_walk_of_a_claim_all_of_one_generator(monkeypatch, rewalks, size, moduli):
    # a hostile claim picks its own frequencies: every arc one generator
    monkeypatch.setattr(words, "_SLICE", size)
    spec = TorusSpec(moduli)
    start = tuple(m - 1 for m in moduli)
    for g in range(spec.k):
        arcs = bytes([g]) * (spec.vertex_count - 1)
        hit, stop = _walks_as_the_reference(rewalks, spec, start, arcs)
        # it comes round after m_g arcs, unless one cycle is the whole torus
        assert hit == (None if spec.k == 1 else spec.moduli[g])
        assert verify_ham_path(spec, start, stop, arcs).verified == (spec.k == 1)
        cycle = bytes([g]) * spec.vertex_count
        assert (verify_ham_cycle(spec, cycle) == Cycle(spec, cycle)) == (spec.k == 1)


def test_run_loop_when_the_head_favours_another_generator(rewalks):
    # g0 comes from the first _HEAD arcs: here generator 1 there, generator 0
    # after, so later slices are walked arc by arc; and the reverse
    spec = TorusSpec((41, 37))
    head = (b"\1" * 36 + b"\0") * (words._HEAD // 37 + 2)
    body = (b"\0" * 40 + b"\1") * 30
    for arcs in (head + body, body + head, body[:-5] + head, body + body):
        for start in ((0, 0), (40, 36), (17, 5)):
            _walks_as_the_reference(rewalks, spec, start, arcs)


@pytest.mark.parametrize("m", range(17, 42, 3))
def test_verify_locates_adjacent_swaps_of_long_run_certificates(monkeypatch, rewalks, m):
    # certificates of mean run m - 2 or so: every slice is marked run by run
    monkeypatch.setattr(words, "_SLICE", 500)
    u, v = (0, 0, 0), (m - 1, 0, 0)
    cert = hamiltonian_path(m, 3, u, v)
    spec = cert.spec
    assert _walks_as_the_reference(rewalks, spec, u, cert.arcs) == (None, v)
    cycle = cert.arcs + b"\0"  # v steps back to u along generator 0
    assert verify_ham_cycle(spec, cycle) == Cycle(spec, cycle) and not rewalks
    rng = random.Random(m)
    swaps = [j for j in range(len(cert.arcs) - 1) if cert.arcs[j] != cert.arcs[j + 1]]
    for j in sorted(rng.sample(swaps, 6)) + swaps[:1] + swaps[-1:]:
        rewalks.clear()
        _located_as_the_reference_walk_does(cert, _swapped(cert.arcs, j))
        bad = _swapped(cycle, j)
        got = verify_ham_cycle(spec, bad)
        assert isinstance(got, CycleRejection)
        hit, stop = walk_reference(spec, u, bad[:-1])
        if hit is None:
            hit, stop = len(bad), spec.add_step(stop, bad[-1])
        assert (got.position, got.vertex) == (hit, stop)
        assert len(rewalks) == 2 * (hit < len(bad))


# --- serialization ----------------------------------------------------------


def test_text_round_trip_pinned_example():
    text = "((x1^1 x2^2)^1 (x1^1 x2 x1)^6 (x1^1 x2^2)^1 x1^1 x2)"
    w = word_from_text(text)
    assert reference_word_to_text(w) == text


def test_generator_rendering():
    w = Power(Concat((Power(Symbol(0), 2), Symbol(1))), 3)
    assert reference_word_to_text(w) == "(x1^2 x2)^3"
    assert word_from_text("(x1^2 x2)^3") == w


@given(generator_words(5))
def test_text_round_trip_random_trees(w):
    assert word_from_text(reference_word_to_text(w)) == w


def test_text_parse_errors():
    for bad in ["(x1", "x1)", "x1^", "x1^-1", "^2", "x1 $ x2", "x0"]:
        with pytest.raises(ValueError):
            word_from_text(bad)


def test_text_rejects_letter_tokens():
    for bad in ["a", "(a^1 b)"]:
        with pytest.raises(ValueError, match="unexpected token"):
            word_from_text(bad)


def test_flat_round_trip():
    # bytes for entries below 256, from a list or any other iterable
    assert word_from_flat([0, 2, 1, 1, 0]) == b"\0\2\1\1\0"
    assert word_from_flat(iter([0, 255])) == b"\0\xff" and word_from_flat([]) == b""
    # an entry past a byte: the list itself, kept for the verifiers' range check to name
    wide = [0, 300, 0]
    assert word_from_flat(wide) is wide and word_from_flat(iter(wide)) == wide
    # set() merges 1, 1.0 and True, so every entry is checked, not each distinct value
    for bad, name in ((["a"], "'a'"), ([0, 1.0], "1.0"), ([0, True], "True"), ([0, -1], "-1"), ([300, -1], "-1")):
        with pytest.raises(ValueError, match=f"^flat form entries must be non-negative ints, got {re.escape(name)}$"):
            word_from_flat(bad)


def test_parsers_share_equal_nodes():
    # one node per distinct leaf keeps a parsed million-arc certificate small
    flat = word_from_runs(bytes([0, 1] * 1000), 0)
    assert len({id(p) for p in flat.parts}) == 2
    text = word_from_text("(x1 x2^2 x1 x2^2)")
    assert text.parts[0] is text.parts[2] and text.parts[1] is text.parts[3]


# 10 is the newline byte and 40, 42 are regex metacharacters
ARC_BYTES = st.sampled_from([0, 1, 10, 40, 42, 255])


@given(st.lists(ARC_BYTES, max_size=64).map(bytes), ARC_BYTES)
def test_run_length_encoder_round_trip(arcs, g):
    w = word_from_runs(arcs, g)
    assert expand(w) == list(arcs)
    assert set(re.findall(r"(\w+)\^", reference_word_to_text(w))) <= {f"x{g + 1}"}
    labels = [p.base.label if isinstance(p, Power) else p.label for p in w.parts]
    assert not any(a == b == g for a, b in zip(labels, labels[1:])), "runs must be maximal"


# --- the text codec against the recursive reference ---------------------------
#
# The recursive-descent parser and the recursive renderer that the flat codec
# replaced (reference_word_from_text and reference_word_to_text in conftest):
# the codec must accept and reject the same inputs and give equal trees and
# equal text.


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return ValueError, str(exc)


# \x1c is whitespace to str.isspace and \\s, but not to int(); \u0663 is a digit to \\d
TEXT_PIECES = st.sampled_from(
    ["x1", "x2", "x10", "x0", "X1", "(", ")", "^", "^3", "^-1", "2", "$", "a", " ", "  ", "\n",
     "\x1c", "\u0663"]
)
WORD_TEXTS = st.one_of(
    generator_words(10).map(reference_word_to_text),
    st.lists(TEXT_PIECES, max_size=16).map("".join),
    # the text of a tree with pieces spliced in
    st.tuples(generator_words(3).map(reference_word_to_text), st.integers(0, 200), TEXT_PIECES).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :]
    ),
)


@settings(max_examples=600)
@given(WORD_TEXTS)
@example("x1 ^\x1c2^\u0663 (x2)^\x1c3")
def test_parser_agrees_with_the_recursive_reference(text):
    # equal trees, or a ValueError with the same message from both
    assert _outcome(word_from_text, text) == _outcome(reference_word_from_text, text)


def test_parser_takes_deep_nesting_without_recursion():
    depth = 3000
    node = word_from_text("(" * depth + "x1" + ")" * depth)
    for _ in range(depth - 1):
        assert isinstance(node, Concat) and len(node.parts) == 1
        node = node.parts[0]
    assert node == Concat((X1,))
    node = word_from_text("x2" + "^1" * depth)
    for _ in range(depth):
        assert isinstance(node, Power) and node.exponent == 1
        node = node.base
    assert node == X2


# --- the bytes codec against the tree reference ------------------------------
#
# arcs_from_text and text_from_arcs never build a tree; word_from_text,
# expand, reference_word_to_text and word_from_runs are their reference.

# labels past a byte, under ^0 or not, and big exponents against small budgets
BIG_LABEL_TEXTS = word_trees(st.sampled_from([0, 1, 299, 10**20]), max_exponent=9).map(
    reference_word_to_text
)


@settings(max_examples=600)
@given(st.one_of(WORD_TEXTS, BIG_LABEL_TEXTS), st.integers(0, 40))
@example("x1 ^\x1c2^\u0663 (x2)^\x1c3", 10)
@example("(x300 x1)^0 x300^2 x1", 3)
@example("(x1^20 x1^20)^0 x2^3", 26)
@example("((x1 x2)^3 x1^5)^2 (x3 x400)^0", 40)
@example("(x1) ^ 2 ^\x1c3", 6)
@example("(x1)^", 6)
@example("(^3 x1)", 6)
@example("()^2 x1", 6)
@example("((x1^30)^0 x2)^2", 2)
@example("((x1^30)^0 x2)^2", 1)
def test_bytes_parser_agrees_with_the_tree_reference(text, budget):
    got = _outcome(lambda t: arcs_from_text(t, budget), text)
    try:
        tree = word_from_text(text)
    except ValueError as exc:
        assert got == (ValueError, str(exc))
        return
    n, canonical, arcs, top = got
    flat = expand(tree)
    assert n == len(flat)
    assert canonical == reference_word_to_text(tree)
    if n > budget:
        assert arcs is None
        return
    assert top == max(flat, default=-1)
    # labels past a byte are held as 255, and top reports them
    assert arcs == bytes(min(g, 255) for g in flat)


@given(WORD_TEXTS)
def test_slice_cuts_split_no_token(text):
    for seg in re.split(r"[()]", text):
        cuts = list(words._cuts(seg, 3))
        assert [cut[0] for cut in cuts[1:]] == [cut[1] for cut in cuts[:-1]]
        assert (cuts[0][0], cuts[-1][1]) == (0, len(seg))
        sliced = [tok for pos, end in cuts for tok in words._TOKEN_RE.findall(seg, pos, end)]
        assert sliced == words._TOKEN_RE.findall(seg)


@given(WORD_TEXTS)
def test_brackets_and_cuts_read_the_text_as_the_group_split_does(text):
    spans = list(words._brackets(text))
    assert spans == [m.span() for m in words._GROUP_RE.finditer(text)] + [(len(text),) * 2]
    starts = [0] + [end for _, end in spans[:-1]]
    for seg, start, (at, _) in zip(words._GROUP_RE.split(text)[::2], starts, spans, strict=True):
        assert text[start:at] == seg
        cuts = list(words._cuts(text, 3, start, at))
        sliced = [tok for pos, end in cuts for tok in words._TOKEN_RE.findall(text, pos, end)]
        assert sliced == words._TOKEN_RE.findall(seg)


def test_bytes_codec_slices_long_runs():
    # several slices each way; the slices of the text start and end mid-run
    rng = random.Random(5)
    arcs = bytes(rng.choice(b"\0\0\0\1\2") for _ in range(3 * words._SLICE + 7))
    text = text_from_arcs(arcs, 0)
    assert text == reference_word_to_text(word_from_runs(arcs, 0))
    assert text_from_arcs(arcs) == reference_word_to_text(Concat(tuple(map(Symbol, arcs))))
    assert arcs_from_text(text, len(arcs)) == (len(arcs), text, arcs, 2)
    assert arcs_from_text(text, len(arcs) - 1)[2] is None


@given(st.lists(ARC_BYTES, max_size=64).map(bytes), ARC_BYTES)
@example(b"", 0)
@example(b"\0\1\1\0", 7)
def test_renderer_agrees_with_the_tree_reference(arcs, g):
    assert text_from_arcs(arcs, g) == reference_word_to_text(word_from_runs(arcs, g))
    assert text_from_arcs(arcs) == reference_word_to_text(Concat(tuple(map(Symbol, arcs))))


# whitespace to \s: \t, \n, \x0b, \x1c, \x1f, \x85, \xa0 and \u2003; digits to \d: \u0663 and
# \uff11; neither: \x00, \x07, \x7f and the rest
PROBE_CHARS = "x1^() \t\n\x0b\x1c\x1f\x85\xa0\u2003\u0663\uff11\x00\x07\x7f!$X\u00e9"
PROBE_TEXTS = st.one_of(
    st.text(st.sampled_from(PROBE_CHARS), max_size=24),
    st.tuples(WORD_TEXTS, st.integers(0, 200), st.sampled_from(PROBE_CHARS)).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :]
    ),
)


@settings(max_examples=400)
@given(PROBE_TEXTS)
@example("x1\xa0x2")
@example("x1\u2003x2 x3")
@example("x1^\u0663")
@example("x1\x00")
@example("(x1 x2)\x7f")
def test_bytes_parser_refuses_exactly_the_characters_the_regex_finds(text):
    try:
        arcs_from_text(text, 40)
    except ValueError as exc:
        refused = str(exc) == "unrecognized characters in word text"
    else:
        refused = False
    assert refused == bool(words._BAD_CHAR_RE.search(text))


SEPARATORS = st.sampled_from([" ", "  ", "\t", "\xa0", "\n", " \u2003", " ^ "])
LEAVES = st.sampled_from(["x1", "x2", "x3", "x1^2", "x2^1", "x3^0", "x01", "x1 ^ 2", "(x1 x2)^2"])


@settings(max_examples=300)
@given(st.lists(st.tuples(LEAVES, SEPARATORS), min_size=1, max_size=12), st.sampled_from([4, 8, 64]))
@example([("x1", "\t"), ("x2", " ")], 4)
@example([("x1", "\xa0"), ("x2", "  "), ("x3", "\n")], 4)
@example([("x1", " ^ "), ("2", " "), ("x2", " ")], 4)
def test_bytes_parser_gives_the_canonical_text_whatever_the_separators(parts, size):
    # single spaces, the separators the canonical text keeps, interleaved with every other kind
    text = "".join(leaf + sep for leaf, sep in parts).rstrip()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_SLICE", size)
        got = _outcome(lambda t: arcs_from_text(t, 200), text)
    try:
        tree = word_from_text(text)
    except ValueError as exc:
        assert got == (ValueError, str(exc))
        return
    flat = expand(tree)
    assert got[:3] == (len(flat), reference_word_to_text(tree), bytes(flat))


def test_bytes_parser_takes_distinct_tokens_in_linear_time(monkeypatch):
    # one slice of n distinct leaf tokens: ten times the tokens may not take thirty times as long
    monkeypatch.setattr(words, "_SLICE", 1 << 30)

    def best(n):
        text = " ".join(f"x1^{e}" for e in range(1, n + 1))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            got = arcs_from_text(text, 0)
            times.append(time.perf_counter() - start)
        assert got[0] == n * (n + 1) // 2 and got[1] == "(" + text + ")" and got[2] is None
        return min(times)

    assert best(20_000) < 30 * best(2_000)


@pytest.mark.parametrize("text", ["x1^1000000000000", "(x1^1000000)^1000000"])
def test_verify_ham_path_refuses_a_text_power_bomb_before_expanding(text):
    spec = TorusSpec((3, 3))
    cert, peak = _peak_bytes(verify_ham_path, spec, (0, 0), (2, 2), text)
    assert cert.failure == f"length {10**12} != vertex count - 1 = 8"
    assert cert.arcs == b"" and cert.word is None
    assert peak < 64 * 1024


def test_verify_ham_path_on_text_holds_less_than_the_tree_did():
    # a (3,10) certificate: 59,048 arcs in 157,466 characters of text
    u, v = (0,) * 10, (2,) + (0,) * 9
    text = hamiltonian_path(3, 10, u, v).text
    cert, peak = _peak_bytes(verify_ham_path, TorusSpec.power(3, 10), u, v, text)
    assert cert.verified and cert.claim == text and cert.word is None
    # word_from_text then verify_ham_path on its tree peaked at 3,066,000 bytes
    # (CPython 3.11); parsing straight to bytes measured 2,296,000
    assert peak <= 3_066_000


def test_words_imports_only_the_stdlib_and_torus():
    # the trusted checker must not lean on the construction it checks
    for node in ast.walk(ast.parse(Path(words.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module == "torus", ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
