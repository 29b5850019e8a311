"""Output checks that do not lean on the library's own verifiers.

Certificates are expanded here and walked with a visited bitmap indexed
first-coordinate-fastest, so a defect shared by `words.verify_ham_path` and
the constructions cannot hide itself.  Oracle reports are compared with the
congruence computed here, with translation by the start vertex, and with the
zero-start reports pinned in golden.json.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expand(word) -> list:
    """Labels of a word tree (Symbol / Concat / Power by their fields)."""
    if hasattr(word, "label"):
        return [word.label]
    if hasattr(word, "parts"):
        out: list = []
        for part in word.parts:
            out.extend(expand(part))
        return out
    if hasattr(word, "exponent"):
        return expand(word.base) * word.exponent
    raise TypeError(f"not a word node: {word!r}")


def walk_path(moduli, start, target, arcs) -> tuple[bool, int | None, str]:
    """Check a hamiltonian start->target path: (ok, failing step, reason).

    The step is 1-based, counting arcs, as the CLI reports it.
    """
    moduli = tuple(moduli)
    k = len(moduli)
    count = math.prod(moduli)
    if len(arcs) != count - 1:
        return False, None, f"length {len(arcs)} != {count - 1}"
    if not set(arcs) <= set(range(k)):
        return False, None, "symbol outside the generator range"
    strides = [1] * k
    for i in range(1, k):
        strides[i] = strides[i - 1] * moduli[i - 1]
    coords = list(start)
    idx = sum(c * s for c, s in zip(coords, strides))
    seen = bytearray(count)
    seen[idx] = 1
    for step, g in enumerate(arcs, 1):
        c = coords[g] + 1
        if c == moduli[g]:
            coords[g] = 0
            idx -= (c - 1) * strides[g]
        else:
            coords[g] = c
            idx += strides[g]
        if seen[idx]:
            return False, step, "repeated vertex"
        seen[idx] = 1
    if tuple(coords) != tuple(target):
        return False, len(arcs), f"ends at {tuple(coords)}, not {tuple(target)}"
    return True, None, "ok"


def swap_adjacent(arcs: list, at: int) -> tuple[list, int]:
    """Copy of arcs with the first differing adjacent pair from `at` swapped.

    In a hamiltonian path, replacing g, h by h, g at x visits x + e_h, which
    the path already visits elsewhere, so the copy always repeats a vertex.
    """
    n = len(arcs)
    for off in range(n - 1):
        p = (at + off) % (n - 1)
        if arcs[p] != arcs[p + 1]:
            out = list(arcs)
            out[p], out[p + 1] = out[p + 1], out[p]
            return out, p
    raise ValueError("no two adjacent arcs differ")


def congruence_targets(moduli, start) -> set:
    """Non-start vertices v with d(start, v) = -1 (mod gcd(moduli))."""
    g = math.gcd(*moduli)
    return {
        v
        for v in itertools.product(*(range(m) for m in moduli))
        if v != tuple(start)
        and sum((b - a) % m for a, b, m in zip(start, v, moduli)) % g == (g - 1) % g
    }


def translate(vertices, by, moduli) -> set:
    return {tuple((a + b) % m for a, b, m in zip(v, by, moduli)) for v in vertices}


def check_endpoint_report(report, start, pinned: dict) -> list[str]:
    """Problems with one seeded-start endpoint report; empty when it holds.

    `pinned` is the zero-start entry of golden.json for this spec.
    """
    moduli = tuple(report.spec.moduli)
    predicted = set(report.predicted)
    reachable = set(report.reachable)
    missing = set(report.counterexamples)
    problems = []
    if predicted != congruence_targets(moduli, start):
        problems.append("predicted set differs from the congruence")
    if not reachable <= predicted:
        problems.append("reachable is not a subset of predicted")
    if missing != predicted - reachable:
        problems.append("counterexamples != predicted - reachable")
    if report.agreement != (not missing):
        problems.append("agreement flag disagrees with counterexamples")
    if len(set(moduli)) == 1 and not report.agreement:
        problems.append("equal moduli must agree (k >= 3 theorem)")
    zero_reach = {tuple(v) for v in pinned["reachable"]}
    zero_missing = {tuple(v) for v in pinned["counterexamples"]}
    if reachable != translate(zero_reach, start, moduli):
        problems.append("reachable set is not the pinned zero-start set translated")
    if missing != translate(zero_missing, start, moduli):
        problems.append("counterexamples are not the pinned zero-start set translated")
    return problems
