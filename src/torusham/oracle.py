"""Brute-force ground truth for small directed tori.

Exhaustive depth-first search for hamiltonian paths on mixed moduli
products (a cycle is one arc plus a path back to 0), endpoint-set
enumeration against the distance congruence, and the number-theoretic
two-cycle hamiltonicity criterion.  Everything here is deliberately
independent of the constructive machinery: it imports only the torus
definition, and witnesses are plain bytes of generator indices.

Searches are capped: the default bound is 32 vertices and the hard bound is
64.  Under the search's prunes most specs up to the hard bound are decided
in a fraction of a second.  Every query skips the symmetric copies of each
path (see `_witness`), yet disproofs on thin mixed products such as
Z_2 x Z_2 x Z_odd still grow fast: (2,2,9) takes about 1.5 s and (2,2,11)
25-31 s, so the hard bound is nominal for them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .torus import DEFAULT_CAP, HARD_CAP, Record, TorusSpec, Vertex


class SizeCapError(ValueError):
    """The instance exceeds the configured exhaustive-search bound."""


def _check_hard_cap(cap: int) -> None:
    if cap > HARD_CAP:
        raise SizeCapError(f"cap {cap} exceeds the hard limit of {HARD_CAP} vertices")
    if cap < 2:
        raise SizeCapError(f"cap {cap} is below 2, the fewest vertices of a torus")


def _check_cap(spec: TorusSpec, cap: int | None) -> None:
    cap = DEFAULT_CAP if cap is None else cap
    _check_hard_cap(cap)
    if spec.vertex_count > cap:
        raise SizeCapError(f"{spec.moduli} has {spec.vertex_count} vertices, over the cap of {cap}")


def _graph(spec: TorusSpec) -> tuple[list, list, list[int], list[int]]:
    """Successors and predecessors by generator, then as bitmasks, by lexicographic index."""
    total, moduli = spec.vertex_count, spec.moduli
    # (e_g, the length of a g-cycle) in index units
    steps = [(math.prod(moduli[g + 1 :]), math.prod(moduli[g:])) for g in range(spec.k)]
    out = [tuple(x + e - c if x % c >= c - e else x + e for e, c in steps) for x in range(total)]
    incoming = [tuple(x - e + c if x % c < e else x - e for e, c in steps) for x in range(total)]
    outm = [sum(1 << y for y in ys) for ys in out]
    inm = [sum(1 << y for y in ys) for ys in incoming]
    return out, incoming, outm, inm


def _covers(masks: list[int], bit: list[int], root: int, left: int) -> bool:
    """Whether a sweep from root along masks, through left only, reaches all of left."""
    frontier = masks[root] & left
    left ^= frontier
    while left:
        if not frontier:
            return False
        x = frontier.bit_length() - 1
        frontier ^= bit[x]
        new = masks[x] & left
        left ^= new
        frontier |= new
    return True


def _index(spec: TorusSpec, v: Vertex) -> int:
    return sum(c * math.prod(spec.moduli[g + 1 :]) for g, c in enumerate(v))


def _dfs_ham(graph, start: int, target: int, first: int, banned) -> bytes | None:
    """Arcs of the lexicographically first hamiltonian start->target path, or None.

    The path's first arc is generator `first`, and arcs into the target by a
    generator in `banned` are ignored: both are replaced by arcs to the
    start, which is always visited.

    Generators are tried in index order, under three prunes.  Before each
    step, two sweeps must each find every unvisited vertex: forward from the
    current vertex, never expanding the target (the path enters it last, so
    a step into it before then finds nothing), and backward from the target.
    They imply the degree checks: each vertex the forward sweep finds has
    the current vertex or an unvisited non-target one as a predecessor, and
    each vertex the backward sweep finds has an unvisited successor.  Both
    run on int bitsets (`free` holds the unvisited vertices) along the masks
    of `_graph`, patched here for `first` and `banned` and with the target's
    successors cleared, and stop once they have found every vertex.

    The search also keeps a perfect matching that gives the current vertex
    and every unvisited non-target vertex its own unvisited successor, and
    takes a step only if one exists after it.  It is built once by
    augmenting paths; if it cannot be, there is no path.  A step
    cur -> nxt drops cur from the vertices that need a successor and nxt
    from those that may be one: if cur was matched to nxt nothing else
    changes, otherwise one augmenting path from nxt's old partner must
    reach cur's old successor, and backtracking restores the matching.  A
    step into the target before the last one is skipped outright, as the
    forward sweep would reject it.

    No prune cuts a branch that has a completion: the rest of a hamiltonian
    path visits every unvisited vertex, and its arcs form such a matching.
    So the witness is the one an unpruned search finds.
    """
    out, outm, inm = graph[0].copy(), graph[2].copy(), graph[3].copy()
    total = len(out)
    bit = [1 << x for x in range(total)]
    into = graph[1][target]
    for h in banned:
        x = into[h]
        out[x] = tuple(start if g == h else y for g, y in enumerate(out[x]))
        outm[x] &= ~bit[target]
        inm[target] &= ~bit[x]
    out[start] = tuple(y if g == first else start for g, y in enumerate(out[start]))
    outm[start] = bit[out[start][first]]
    outm[target] = 0
    visited = bytearray(total)
    visited[start] = 1
    path = bytearray()
    mate = [-1] * total  # successor -> the vertex it is matched to
    succ = [-1] * total  # vertex -> its matched successor

    def augment(x: int, seen: bytearray) -> bool:
        """Match x by an augmenting path over the unseen successors."""
        for y in out[x]:
            if not seen[y]:
                seen[y] = 1
                if mate[y] < 0 or augment(mate[y], seen):
                    mate[y], succ[x] = x, y
                    return True
        return False

    def dfs(cur: int, free: int) -> bool:
        if not free:
            return cur == target
        if not _covers(outm, bit, cur, free) or not _covers(inm, bit, target, free ^ bit[target]):
            return False
        for g, nxt in enumerate(out[cur]):
            if visited[nxt] or (nxt == target and free != bit[target]):
                continue
            visited[nxt] = 1
            saved = None
            if succ[cur] != nxt:
                saved = mate[:], succ[:]
                mate[succ[cur]] = -1
            if saved is None or augment(mate[nxt], bytearray(visited)):
                path.append(g)
                if dfs(nxt, free ^ bit[nxt]):
                    return True
                path.pop()
            if saved is not None:
                mate[:], succ[:] = saved
            visited[nxt] = 0
        return False

    for x in range(total):
        if x != target and not augment(x, bytearray(visited)):
            return None
    return bytes(path) if dfs(start, ((1 << total) - 1) ^ bit[start]) else None


def _witness(spec: TorusSpec, graph, start: Vertex, target: Vertex) -> bytes | None:
    """Arcs of the lexicographically first hamiltonian start->target path, or None.

    Lemma.  Let S be the coordinate permutations p with m_p(i) = m_i and
    d_p(i) = d_i, d = target - start.  x -> start + p(x - start) fixes both
    endpoints and relabels arcs by p, and x -> start + target - x reverses
    them, so for the first path w, p(w) and p(w reversed) are paths not
    below w.  So w[0] is least in its S-orbit and no arc in w[-1]'s orbit is
    below w[0]: the loop skips no first arc and bans no last arc of w, and
    a search for a lesser first arc finds nothing, so it returns w.
    """
    key = list(zip(spec.moduli, spec.subtract(target, start)))
    least = [key.index(x) for x in key]  # least generator of each one's S-orbit
    s, t = _index(spec, start), _index(spec, target)
    for g in range(spec.k):
        if least[g] == g:
            arcs = _dfs_ham(graph, s, t, g, [h for h in range(spec.k) if least[h] < g])
            if arcs is not None:
                return arcs
    return None


def ham_path_witness(
    spec: TorusSpec, start: Vertex, target: Vertex, *, cap: int | None = None
) -> bytes | None:
    """Exhaustive search; the witness arcs if a path exists, else None."""
    _check_cap(spec, cap)
    spec.require_vertex(start)
    spec.require_vertex(target)
    return _witness(spec, _graph(spec), start, target)


def ham_path_exists(
    spec: TorusSpec, start: Vertex, target: Vertex, *, cap: int | None = None
) -> bool:
    """Whether a hamiltonian start->target path exists."""
    return ham_path_witness(spec, start, target, cap=cap) is not None


def ham_cycle_witness(spec: TorusSpec, *, cap: int | None = None) -> bytes | None:
    """Arcs of the lexicographically first hamiltonian cycle based at 0, or None.

    It is the first arc g, in index order, from 0 to a vertex x_g with a
    hamiltonian path back to 0, followed by the first such path.
    """
    _check_cap(spec, cap)
    graph, zero = _graph(spec), spec.zero()
    for g in range(spec.k):
        arcs = _witness(spec, graph, spec.add_step(zero, g), zero)
        if arcs is not None:
            return bytes((g,)) + arcs
    return None


def ham_cycle_exists_2d(m1: int, m2: int) -> bool:
    """Whether Z_m1 x Z_m2 carries a hamiltonian cycle.

    Holds exactly when some coprime positive pair (s1, s2) solves
    s1*m1 + s2*m2 = m1*m2; s2 >= 1 forces s1 < m2, so enumeration over
    s1 in [1, m2) is exact.
    """
    if m1 < 2 or m2 < 2:
        raise ValueError(f"cycle lengths must be >= 2, got ({m1}, {m2})")
    product = m1 * m2
    for s1 in range(1, m2):
        rest = product - s1 * m1
        if rest <= 0:
            break
        if rest % m2:
            continue
        s2 = rest // m2
        if s2 >= 1 and math.gcd(s1, s2) == 1:
            return True
    return False


class EndpointReport(Record):
    """Reachable vs congruence-predicted hamiltonian path endpoints.

    `predicted` holds the non-start vertices satisfying the distance
    congruence; `reachable` is the exhaustively confirmed subset actually
    terminating some hamiltonian path.  `reachable` is a subset of
    `predicted` by the necessity of the congruence; `counterexamples` lists
    predicted endpoints with no path (disproofs of sufficiency).
    """

    spec: TorusSpec
    start: Vertex
    reachable: tuple[Vertex, ...]
    predicted: tuple[Vertex, ...]
    agreement: bool
    counterexamples: tuple[Vertex, ...]


def endpoint_set(spec: TorusSpec, start: Vertex, *, cap: int | None = None) -> EndpointReport:
    """Exhaust every congruence-satisfying target and compile the report.

    Targets failing the congruence are excluded up front: path lengths from
    a fixed pair of endpoints are all congruent mod gcd(moduli), so they
    provably terminate no hamiltonian path.
    """
    _check_cap(spec, cap)
    spec.require_vertex(start)
    predicted = tuple(
        v for v in spec.vertices() if v != start and spec.ham_path_congruence_ok(start, v)
    )
    graph = _graph(spec)
    reachable: list[Vertex] = []
    missing: list[Vertex] = []
    for v in predicted:
        (missing if _witness(spec, graph, start, v) is None else reachable).append(v)
    return EndpointReport(
        spec=spec,
        start=start,
        reachable=tuple(reachable),
        predicted=predicted,
        agreement=not missing,
        counterexamples=tuple(missing),
    )


def enumerate_torus_specs(k: int, max_vertices: int) -> Iterator[TorusSpec]:
    """All k-coordinate specs with nondecreasing moduli and bounded size."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > max_vertices.bit_length():
        return  # 2^k > max_vertices, so no spec fits

    def rec(prefix: list[int], low: int, budget: int):
        if len(prefix) == k:
            yield TorusSpec(tuple(prefix))
            return
        m = low
        while m <= budget:
            # remaining coordinates are at least m each
            if m ** (k - len(prefix)) > budget:
                break
            yield from rec(prefix + [m], m, budget // m)
            m += 1

    yield from rec([], 2, max_vertices)

