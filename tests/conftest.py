"""Shared hypothesis strategies, and the reference expansion, walk and cycle distance."""

import hypothesis.strategies as st

from torusham import Concat, Power, Symbol


def expand(w) -> list[int]:
    """Generator indices of a word tree's expansion, left to right, by plain recursion."""
    if isinstance(w, Symbol):
        return [w.label]
    if isinstance(w, Concat):
        return [g for part in w.parts for g in expand(part)]
    if isinstance(w, Power):
        return expand(w.base) * w.exponent
    raise TypeError(f"not a word: {w!r}")


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
