"""Acceptance suite: one test per release criterion, with a printed verdict.

Run as `pytest tests/test_acceptance.py -v` (add -s to watch the verdict
lines stream).  Criteria marked with runtime budgets assert them, measured
with a plain monotonic clock.
"""

import random
import time

from torusham import (
    PathCertificate,
    TorusSpec,
    endpoint_set,
    enumerate_torus_specs,
    ham_cycle_exists_2d,
    ham_cycle_witness,
    hamiltonian_path,
    trace,
    Concat,
    Power,
    Symbol,
)

from torusham.words import arcs_from_text

from conftest import (
    cycle_distance,
    even_distance_cycle,
    expand,
    prism_path_arcs,
    reference_word_to_text,
    staircase,
)

def _verdict(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}" + (f" | {detail}" if detail else ""))
    return ok


def test_criterion_1_full_certification_sweep():
    t0 = time.monotonic()
    configs = [(m, k) for k in (3, 4, 5) for m in range(2, 10) if m**k <= 4096]
    failures = []
    targets = 0
    for m, k in configs:
        spec = TorusSpec.power(m, k)
        zero = spec.zero()
        found = 0
        for v in spec.vertices():
            if sum(v) % m != m - 1:
                continue
            got = hamiltonian_path(m, k, zero, v)
            if not (
                isinstance(got, PathCertificate)
                and got.verified
                and got.length == m**k - 1
            ):
                failures.append((m, k, v))
            found += 1
        if found != m ** (k - 1):
            failures.append((m, k, "target count", found))
        targets += found
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    assert _verdict(
        "1 full certification sweep",
        ok,
        f"{len(configs)} configs, {targets} certified paths, {elapsed:.1f}s",
    ), failures[:5]


def test_criterion_2_oracle_equivalence_equal_moduli():
    t0 = time.monotonic()
    cases = [((2, 2, 2), 4), ((2, 2, 2, 2), 8), ((3, 3, 3), 9), ((2, 2, 2, 2, 2), 16)]
    failures = []
    for moduli, size in cases:
        spec = TorusSpec(moduli)
        m = moduli[0]
        report = endpoint_set(spec, spec.zero())
        expected = tuple(
            v for v in spec.vertices() if v != spec.zero() and sum(v) % m == m - 1
        )
        if report.reachable != expected or len(expected) != size:
            failures.append((moduli, report.reachable))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    assert _verdict(
        "2 oracle equivalence on equal moduli", ok, f"sizes 4/8/9/16, {elapsed:.1f}s"
    ), failures


def test_criterion_3_two_power_odd_endpoint_sets():
    failures = []
    for m in (3, 5):
        spec = TorusSpec((m, m))
        report = endpoint_set(spec, spec.zero())
        expected = tuple(
            v
            for v in spec.vertices()
            if v != (0, 0) and sum(v) % m == m - 1 and v[0] % 2 == 0
        )
        if report.reachable != expected or len(expected) != (m + 1) // 2:
            failures.append((m, report.reachable, expected))
    assert _verdict(
        "3 k=2 odd-m endpoint sets", not failures, "sizes (m+1)/2 = 2 and 3"
    ), failures


def test_criterion_4_two_cycle_criterion_vs_brute_force():
    failures = []
    checked = 0
    for m1 in range(2, 16):
        for m2 in range(2, 16):
            if m1 * m2 > 30:
                continue
            formula = ham_cycle_exists_2d(m1, m2)
            brute = ham_cycle_witness(TorusSpec((m1, m2))) is not None
            if formula != brute:
                failures.append((m1, m2, formula, brute))
            checked += 1
    # two pinned instances, confirmed by the brute-force search
    if not ham_cycle_exists_2d(3, 6):
        failures.append((3, 6))
    if not ham_cycle_exists_2d(2, 4):
        failures.append((2, 4))
    if ham_cycle_exists_2d(2, 3):
        failures.append((2, 3))
    assert _verdict(
        "4 two-cycle criterion vs brute force", not failures, f"{checked} pairs agree"
    ), failures


def test_criterion_5_staircase_closed_forms():
    failures = []
    checked = 0
    for m in (3, 5):
        for n in (m, 2 * m, 3 * m):
            if m * n > 200:
                continue
            for i in range(m):
                for j in range(n):
                    # class (1) takes S_a, class (2) S_b; others are skipped
                    r = (i + j) % m
                    if (j + r) % 2 == 0:
                        witness, expected = staircase(m, n, m - 1), j * m + r
                    elif j != 0 and r != 0:
                        witness, expected = staircase(m, n, 0), (j - 1) * m + 1 + (r - 1)
                    else:
                        continue
                    traced = cycle_distance(witness, (i, j))
                    if expected % 2 or expected != traced:
                        failures.append((m, n, (i, j), expected, traced))
                    checked += 1
    assert _verdict(
        "5 staircase distance closed forms", not failures, f"{checked} targets"
    ), failures[:5]


def test_criterion_6_even_distance_cycles_all_targets():
    failures = []
    checked = 0
    for m in (3, 5):
        for n in (2, 3):
            if m**n > 243:
                continue
            spec = TorusSpec.power(m, n)
            for v in spec.vertices():
                witness, dist = even_distance_cycle(m, v)
                if dist % 2 or cycle_distance(witness, v) != dist:
                    failures.append((m, n, v, dist))
                checked += 1
    assert _verdict(
        "6 even-distance cycles on powers", not failures, f"{checked} targets"
    ), failures[:5]


def test_criterion_7_mixed_moduli_scan():
    t0 = time.monotonic()
    hard_failures = []
    findings = []
    for spec in enumerate_torus_specs(3, 32):
        report = endpoint_set(spec, spec.zero())
        # the subset direction is unconditional: path lengths between fixed
        # endpoints are congruent mod gcd, so unpredicted targets cannot appear
        if not set(report.reachable) <= set(report.predicted):
            hard_failures.append(spec.moduli)
        print(
            f"[scan] {spec.moduli}: predicted {len(report.predicted)}, "
            f"reachable {len(report.reachable)}, agreement {report.agreement}"
        )
        if not report.agreement:
            findings.append((spec.moduli, report.counterexamples))
    elapsed = time.monotonic() - t0
    for moduli, counterexamples in findings:
        print(
            f"[acceptance] COUNTEREXAMPLE FINDING: {moduli} predicts endpoints "
            f"{list(counterexamples)} but exhaustive search finds no hamiltonian "
            f"path to them"
        )
    ok = not hard_failures and elapsed < 600.0
    assert _verdict(
        "7 mixed-moduli congruence scan",
        ok,
        f"12 specs, {len(findings)} sufficiency counterexample spec(s), {elapsed:.1f}s",
    ), hard_failures


def _random_word(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.4:
        return Symbol(rng.randrange(3))
    if roll < 0.7:
        return Concat(tuple(_random_word(rng, depth + 1) for _ in range(rng.randrange(4))))
    return Power(_random_word(rng, depth + 1), rng.randrange(5))


def test_criterion_8_word_algebra_bulk_properties():
    rng = random.Random(0x5EED)
    spec = TorusSpec((3, 4, 2))
    start = (1, 0, 1)
    for _ in range(10_000):
        w = _random_word(rng)
        flat = expand(w)
        # the bytes codec expands the reference text of the tree to the same arcs
        assert arcs_from_text(reference_word_to_text(w), len(flat))[::2] == (len(flat), bytes(flat))
        last = start
        for last in trace(spec, start, flat):
            pass
        counts = [flat.count(g) for g in range(spec.k)]
        assert last == tuple((c + n) % m for c, n, m in zip(start, counts, spec.moduli))
    checked = 0
    for m in range(2, 10):
        for N in range(2, 82):
            for n in range((N + 1) // 2):
                # a = 0 and b = 1 both advance x; only b advances y
                arcs = prism_path_arcs(m, N, n)
                assert len(arcs) == m * N - 1
                assert arcs.count(1) == N + 2 * n
                assert (len(arcs) % m, arcs.count(1) % N) == ((m - 1) % m, (2 * n) % N)
                checked += 1
    assert _verdict(
        "8 word-algebra bulk properties",
        True,
        f"10000 random trees, {checked} prism paths",
    )
