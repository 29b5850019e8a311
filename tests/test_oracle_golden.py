"""Golden oracle witnesses: the exhaustive search pinned by digest.

Each digest is the sha256 of one line per query: the spec, the endpoints
and the hex of the arcs that the trace check walked for the oracle's
witness, or `none` when the oracle finds no witness.  A rewrite of the
search (its prunes, its order, its return type) must leave every digest
unchanged: the oracle returns the lexicographically first witness in
generator order, whatever it prunes.
"""

import hashlib
import random

import pytest

from torusham import (
    Cycle,
    TorusSpec,
    endpoint_set,
    enumerate_torus_specs,
    ham_cycle_witness,
    ham_path_witness,
    verify_ham_cycle,
    verify_ham_path,
)

PATH_DIGEST = "71735738d54dad7e1f3c8227c457acd966cb0744b27999efba4812cf5315411f"
CYCLE_DIGEST = "32a3c12035573cb0d75429c6b87900bfe244751a00efb430a615852d4a6f7e1d"
# past 30 vertices a vertex bitmask spans two 30-bit int digits
WIDE_DIGESTS = {
    (2, 2, 2, 2, 2): "d9c34de63cd9f768c740ba1a9c4b49442aea879924dad8c71bfb80ac726aceb0",
    (6, 6): "5514a8fb7963e63f7170a81c7a43dd16f92b4c684bed06e6981af6f9dbbc105c",
    (3, 3, 4): "b690e872879108f933a6b009497e6e1c76a1ac50819e53727cece265b42c8a94",
    (2, 2, 2, 6): "dbff7d6567afbfff69294124c2ad9e85918681f636c31db6d97603a1d4a5cc88",
    (4, 4, 4): "f329f5dfc7498c8c0b41c09ec581568ba4991440dfffc6837ace3ec15e12ece5",
}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _path_line(spec: TorusSpec, start, target, cap=None) -> str:
    w = ham_path_witness(spec, start, target, cap=cap)
    if w is None:
        return f"{spec.moduli} {start} {target} none"
    cert = verify_ham_path(spec, start, target, w)
    assert cert.verified, (spec.moduli, start, target, cert.failure)
    return f"{spec.moduli} {start} {target} {cert.arcs.hex()}"


def _cycle_line(spec: TorusSpec) -> str:
    w = ham_cycle_witness(spec)
    if w is None:
        return f"{spec.moduli} none"
    cycle = verify_ham_cycle(spec, w)
    assert isinstance(cycle, Cycle), (spec.moduli, cycle)
    return f"{spec.moduli} {cycle.arcs.hex()}"


def test_path_witnesses_match_the_golden_digest():
    # k = 2..4, at most 24 vertices, from 0 and from one seeded start, to
    # every target the distance congruence admits
    rng = random.Random(2001)
    lines = []
    for k in (2, 3, 4):
        for spec in enumerate_torus_specs(k, 24):
            seeded = tuple(rng.randrange(m) for m in spec.moduli)
            for start in (spec.zero(), seeded):
                for target in spec.vertices():
                    if target != start and spec.ham_path_congruence_ok(start, target):
                        lines.append(_path_line(spec, start, target))
    assert _digest(lines) == PATH_DIGEST


def test_cycle_witnesses_match_the_golden_digest():
    specs = [*enumerate_torus_specs(2, 30), *enumerate_torus_specs(3, 24)]
    assert _digest([_cycle_line(spec) for spec in specs]) == CYCLE_DIGEST


@pytest.mark.parametrize("moduli", list(WIDE_DIGESTS))
def test_wide_path_witnesses_and_counterexamples_match_their_digests(moduli):
    # from 0 to every target the distance congruence admits, then the
    # targets that endpoint_set reports no path to
    spec = TorusSpec(moduli)
    start = spec.zero()
    lines = [
        _path_line(spec, start, target, cap=64)
        for target in spec.vertices()
        if target != start and spec.ham_path_congruence_ok(start, target)
    ]
    lines.append(f"counterexamples {endpoint_set(spec, start, cap=64).counterexamples}")
    assert _digest(lines) == WIDE_DIGESTS[moduli]
