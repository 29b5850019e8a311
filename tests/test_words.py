import itertools
import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import generator_words
from torusham import (
    Concat,
    Cycle,
    CycleRejection,
    Power,
    Symbol,
    TorusSpec,
    cycle_distance,
    expand,
    flat_length,
    staircase_a,
    staircase_b,
    trace,
    verify_ham_cycle,
    verify_ham_path,
    word_from_flat,
    word_from_text,
    word_to_text,
)
from torusham.words import word_from_runs

X1, X2 = Symbol(0), Symbol(1)


def test_expand_nested_power():
    w = Power(Concat((Power(X1, 2), X2)), 3)
    assert expand(w) == [0, 0, 1, 0, 0, 1, 0, 0, 1]
    assert flat_length(w) == 9


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


@given(generator_words(3))
def test_flat_length_matches_expansion(w):
    assert flat_length(w) == len(expand(w))


@given(generator_words(2), st.integers(0, 8))
def test_power_expands_to_repetition(w, j):
    assert expand(Power(w, j)) == expand(w) * j


def test_trace_examples():
    spec = TorusSpec((3, 3))
    w = word_from_flat([0, 0, 1])
    assert list(trace(spec, (0, 0), w)) == [(0, 0), (1, 0), (2, 0), (2, 1)]
    spec3 = TorusSpec((2, 2, 2))
    assert list(trace(spec3, (0, 0, 0), Concat(()))) == [(0, 0, 0)]


def test_trace_covers_nine_vertices():
    spec = TorusSpec((3, 3))
    w = Power(Concat((Power(Symbol(0), 2), Symbol(1))), 3)
    vs = list(trace(spec, (0, 0), w))
    assert len(vs) == 10 and vs[-1] == (0, 0)
    assert set(vs) == set(itertools.product(range(3), range(3)))


def test_trace_rejects_bad_symbol():
    spec = TorusSpec((3, 3))
    with pytest.raises(ValueError, match="generator"):
        list(trace(spec, (0, 0), Symbol(7)))


@given(generator_words(3))
def test_endpoint_agrees_with_trace(w):
    spec = TorusSpec((3, 4, 2))
    last = None
    for last in trace(spec, (1, 2, 0), w):
        pass
    flat = expand(w)
    counts = [flat.count(g) for g in range(spec.k)]
    assert last == tuple((c + n) % m for c, n, m in zip((1, 2, 0), counts, spec.moduli))


def _naive_ham_path(spec, start, target, w):
    vs = list(trace(spec, start, w))
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


@given(generator_words(2, max_exponent=3))
def test_verify_matches_naive_reimplementation(w):
    spec = TorusSpec((2, 3))
    for target in spec.vertices():
        got = verify_ham_path(spec, (0, 0), target, w).verified
        assert got == _naive_ham_path(spec, (0, 0), target, w)


def test_verify_ham_cycle_examples():
    spec = TorusSpec((3, 3))
    good = Power(Concat((Power(Symbol(0), 2), Symbol(1))), 3)
    assert isinstance(verify_ham_cycle(spec, good), Cycle)
    bad = verify_ham_cycle(spec, Power(Power(Symbol(0), 3), 3))
    assert isinstance(bad, CycleRejection)
    assert bad.reason == "revisits a vertex early"
    spec22 = TorusSpec((2, 2))
    assert isinstance(verify_ham_cycle(spec22, word_from_flat([0, 1, 0, 1])), Cycle)


def test_verify_ham_cycle_wrong_closure():
    spec = TorusSpec((2, 2))
    got = verify_ham_cycle(spec, word_from_flat([0, 1, 1, 0]))
    assert isinstance(got, CycleRejection)


def test_cycle_distance_examples():
    a = staircase_a(3, 3)
    assert cycle_distance(a, (1, 2)) == 6
    assert cycle_distance(a, (0, 0)) == 0
    b = staircase_b(3, 3)
    assert cycle_distance(b, (0, 1)) == 1


def test_cycle_distance_is_bijection():
    for witness in (staircase_a(3, 6), staircase_b(5, 5)):
        positions = {cycle_distance(witness, v) for v in witness.spec.vertices()}
        assert positions == set(range(witness.spec.vertex_count))


# --- serialization ----------------------------------------------------------


def test_text_round_trip_pinned_example():
    text = "((x1^1 x2^2)^1 (x1^1 x2 x1)^6 (x1^1 x2^2)^1 x1^1 x2)"
    w = word_from_text(text)
    assert word_to_text(w) == text


def test_generator_rendering():
    w = Power(Concat((Power(Symbol(0), 2), Symbol(1))), 3)
    assert word_to_text(w) == "(x1^2 x2)^3"
    assert word_from_text("(x1^2 x2)^3") == w


@given(generator_words(5))
def test_text_round_trip_random_trees(w):
    assert word_from_text(word_to_text(w)) == w


def test_text_parse_errors():
    for bad in ["(x1", "x1)", "x1^", "x1^-1", "^2", "x1 $ x2", "x0"]:
        with pytest.raises(ValueError):
            word_from_text(bad)


def test_text_rejects_letter_tokens():
    for bad in ["a", "(a^1 b)"]:
        with pytest.raises(ValueError, match="unexpected token"):
            word_from_text(bad)


def test_flat_round_trip():
    arcs = [0, 2, 1, 1, 0]
    w = word_from_flat(arcs)
    assert expand(w) == arcs
    # set() merges 1, 1.0 and True, so every entry is checked, not each distinct value
    for bad in (["a"], [0, 1.0], [0, True]):
        with pytest.raises(ValueError):
            word_from_flat(bad)


def test_parsers_share_equal_nodes():
    # one node per distinct leaf keeps a parsed million-arc certificate small
    flat = word_from_flat([0, 1] * 1000)
    assert len({id(p) for p in flat.parts}) == 2
    text = word_from_text("(x1 x2^2 x1 x2^2)")
    assert text.parts[0] is text.parts[2] and text.parts[1] is text.parts[3]


# 10 is the newline byte and 40, 42 are regex metacharacters
ARC_BYTES = st.sampled_from([0, 1, 10, 40, 42, 255])


@given(st.lists(ARC_BYTES, max_size=64).map(bytes), ARC_BYTES)
def test_run_length_encoder_round_trip(arcs, g):
    w = word_from_runs(arcs, g)
    assert expand(w) == list(arcs)
    assert set(re.findall(r"(\w+)\^", word_to_text(w))) <= {f"x{g + 1}"}
    labels = [p.base.label if isinstance(p, Power) else p.label for p in w.parts]
    assert not any(a == b == g for a, b in zip(labels, labels[1:])), "runs must be maximal"
