"""Shared hypothesis strategies, the reference expansion, walk and cycle distance,
the prism path reference, and the cycles the construction's helpers build."""

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
