"""Shared hypothesis strategies, the reference expansion, walk and cycle distance,
the recursive text references, the prism path reference, and the cycles the
construction's helpers build."""

import re

import hypothesis.strategies as st

from torusham import Concat, Cycle, Power, Symbol, TorusSpec
from torusham.cycles import _arc_table, _even_distance_levels, _lift, _lift_chain


def expand(w) -> list[int]:
    """Generator indices of a word tree's expansion, left to right, by plain recursion."""
    if isinstance(w, Symbol):
        return [w.label]
    if isinstance(w, Concat):
        return [g for part in w.parts for g in expand(part)]
    if isinstance(w, Power):
        return expand(w.base) * w.exponent
    raise TypeError(f"not a word: {w!r}")


# The recursive-descent parser and the recursive renderer that the flat codec replaced.
_REF_TOKEN_RE = re.compile(r"\(|\)|\^|\d+|[A-Za-z][A-Za-z0-9]*")
_REF_GEN_RE = re.compile(r"x[0-9]+\Z")


def reference_word_to_text(w):
    def item(node):
        if isinstance(node, Symbol):
            return f"x{node.label + 1}"
        if isinstance(node, Concat):
            return "(" + " ".join(item(p) for p in node.parts) + ")"
        if isinstance(node, Power):
            return f"{item(node.base)}^{node.exponent}"
        raise TypeError(f"not a word: {node!r}")

    return item(w)


def reference_word_from_text(text):
    tokens = _REF_TOKEN_RE.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError("unrecognized characters in word text")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_item():
        nonlocal pos
        tok = peek()
        if tok == "(":
            pos += 1
            parts = []
            while peek() not in (")", None):
                parts.append(parse_item())
            if peek() != ")":
                raise ValueError("unbalanced parenthesis in word text")
            pos += 1
            node = Concat(tuple(parts))
        elif tok is not None and _REF_GEN_RE.match(tok):
            pos += 1
            index = int(tok[1:])
            if index < 1:
                raise ValueError(f"generator token {tok!r} must be x1 or higher")
            node = Symbol(index - 1)
        else:
            raise ValueError(f"unexpected token {tok!r} in word text")
        while peek() == "^":
            pos += 1
            exp = peek()
            if exp is None or not exp.isdigit():
                raise ValueError("exponent must be a non-negative integer")
            pos += 1
            node = Power(node, int(exp))
        return node

    items = []
    while peek() is not None:
        if peek() == ")":
            raise ValueError("unbalanced parenthesis in word text")
        items.append(parse_item())
    if len(items) == 1:
        return items[0]
    return Concat(tuple(items))


def walk_reference(spec, start, arcs, marked=()):
    """(first repeat position, vertex) or (None, end vertex), checking every landing.

    The per-arc loop the sliced walk words._walk must agree with.
    """
    moduli = spec.moduli
    weights = [1] * spec.k
    for i in range(spec.k - 2, -1, -1):
        weights[i] = weights[i + 1] * moduli[i + 1]
    seen = bytearray(spec.vertex_count)
    for v in marked:
        seen[sum(c * wt for c, wt in zip(v, weights))] = 1
    coords = list(start)
    idx = sum(c * wt for c, wt in zip(coords, weights))
    seen[idx] = 1
    pos = 0
    for g in arcs:
        pos += 1
        c = coords[g] + 1
        if c == moduli[g]:
            c = 0
            idx -= (moduli[g] - 1) * weights[g]
        else:
            idx += weights[g]
        coords[g] = c
        if seen[idx]:
            return pos, tuple(coords)
        seen[idx] = 1
    return None, tuple(coords)


def cycle_distance(cycle, v) -> int:
    """Index of v along the trace of a hamiltonian cycle from its base vertex 0."""
    if v == cycle.base:
        return 0
    # a hamiltonian cycle repeats no vertex before it closes, so the first repeat is v
    return walk_reference(cycle.spec, cycle.spec.zero(), cycle.arcs, (v,))[0]


def staircase(m, n, at) -> Cycle:
    """The staircase cycle on Z_m x Z_n, m | n, as the lift of bytes(n) at `at`.

    at = m-1 gives (x1^(m-1) x2)^n and at = 0 gives (x2 x1^(m-1))^n.
    """
    return Cycle(TorusSpec((m, n)), _lift(bytes(n), m, at))


def any_cycle(m, n) -> Cycle:
    """The hamiltonian cycle of (Z_m)^n that lifts by sigma_a at every level."""
    return Cycle(TorusSpec.power(m, n), _lift_chain(m, (m - 1,) * (n - 1)))


def even_distance_cycle(m, v) -> tuple[Cycle, int]:
    """(cycle, distance) of the cycle of (Z_m)^len(v), odd m, with an even distance to v."""
    offsets, d, perm = _even_distance_levels(m, v)
    arcs = _lift_chain(m, offsets).translate(_arc_table(perm))
    return Cycle(TorusSpec.power(m, len(v)), arcs), d


def prism_path_arcs(m, N, n) -> bytes:
    """The rolling path on Z_m x Z_N as arcs 0 = a and 1 = b, for 0 <= n < N/2.

    As a path in the digraph with arc steps a = (1, 0) and b = (1, 1) it has
    length m*N - 1 and runs from 0 to (-1, 2n), visiting every vertex once.
    It spells out the block pattern that paths._roll fills by slices.
    """
    turnback = bytes(m - 2) + b"\1\1"
    return (
        turnback * n
        + (bytes(m - 2) + b"\1\0") * (N - 2 * n - 1)
        + turnback * n
        + bytes(m - 2)
        + b"\1"
    )


def word_trees(labels: st.SearchStrategy, max_exponent: int = 4) -> st.SearchStrategy:
    """Random nested words over the given label strategy."""
    return st.recursive(
        st.builds(Symbol, labels),
        lambda child: st.one_of(
            st.lists(child, max_size=4).map(lambda ps: Concat(tuple(ps))),
            st.builds(Power, child, st.integers(min_value=0, max_value=max_exponent)),
        ),
        max_leaves=12,
    )


def generator_words(k: int, max_exponent: int = 4) -> st.SearchStrategy:
    """Random words whose labels are generator indices below k."""
    return word_trees(st.integers(min_value=0, max_value=k - 1), max_exponent)
