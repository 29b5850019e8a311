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

from torusham import (
    Cycle,
    TorusSpec,
    enumerate_torus_specs,
    ham_cycle_witness,
    ham_path_witness,
    verify_ham_cycle,
    verify_ham_path,
)

PATH_DIGEST = "71735738d54dad7e1f3c8227c457acd966cb0744b27999efba4812cf5315411f"
CYCLE_DIGEST = "32a3c12035573cb0d75429c6b87900bfe244751a00efb430a615852d4a6f7e1d"


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _path_line(spec: TorusSpec, start, target) -> str:
    w = ham_path_witness(spec, start, target)
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
