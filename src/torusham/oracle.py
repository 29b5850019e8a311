"""Brute-force ground truth for small directed tori.

Exhaustive depth-first search for hamiltonian paths on mixed moduli
products (a cycle is one arc plus a path back to 0), endpoint-set
enumeration against the distance congruence, and the number-theoretic
two-cycle hamiltonicity criterion.  Everything here is deliberately
independent of the constructive machinery: it imports only the torus
definition, and witnesses are plain bytes of generator indices.

Searches are capped: the default bound is 32 vertices and the hard bound is
64.  Under the search's matching prune most specs up to the hard bound are
decided in a fraction of a second, but non-existence proofs on thin mixed
products such as Z_2 x Z_2 x Z_odd still grow fast: (2,2,9) takes seconds
and (2,2,11) more than a minute, so the hard bound is nominal for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .torus import TorusSpec, Vertex

DEFAULT_CAP = 32
HARD_CAP = 64


class SizeCapError(ValueError):
    """The instance exceeds the configured exhaustive-search bound."""


def _check_cap(spec: TorusSpec, cap: int | None) -> int:
    cap = DEFAULT_CAP if cap is None else cap
    if cap > HARD_CAP:
        raise SizeCapError(f"cap {cap} exceeds the hard limit of {HARD_CAP} vertices")
    if spec.vertex_count > cap:
        raise SizeCapError(
            f"{spec.moduli} has {spec.vertex_count} vertices, over the cap of {cap}"
        )
    return cap


def _dfs_ham(spec: TorusSpec, start: Vertex, target: Vertex) -> bytes | None:
    """Arcs of the lexicographically first hamiltonian start->target path, or None.

    Generators are tried in index order, under three prunes.  Before each
    step, two sweeps must each find every unvisited vertex: forward from the
    current vertex, never expanding the target (the path enters it last, so
    a step into it before then finds nothing), and backward from the target.
    They imply the degree checks: each vertex the forward sweep finds has
    the current vertex or an unvisited non-target one as a predecessor, and
    each vertex the backward sweep finds has an unvisited successor.

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
    verts = list(spec.vertices())
    index = {v: i for i, v in enumerate(verts)}
    out = [tuple(index[spec.add_step(v, g)] for g in range(spec.k)) for v in verts]
    units = [spec.add_step(spec.zero(), g) for g in range(spec.k)]
    incoming = [tuple(index[spec.subtract(v, e)] for e in units) for v in verts]
    total = len(verts)
    start_i, target_i = index[start], index[target]
    visited = bytearray(total)
    visited[start_i] = 1
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

    def reach(root: int, adjacent, stop: int) -> int:
        """Unvisited vertices reachable from root via unvisited ones; stop is not expanded."""
        seen = bytearray(visited)
        seen[root] = 1
        stack = [root]
        found = 0
        while stack:
            x = stack.pop()
            if x == stop:
                continue
            for y in adjacent[x]:
                if not seen[y]:
                    seen[y] = 1
                    found += 1
                    stack.append(y)
        return found

    def dfs(cur: int, remaining: int) -> bool:
        if remaining == 0:
            return cur == target_i
        if (
            reach(cur, out, target_i) != remaining
            or reach(target_i, incoming, -1) != remaining - 1
        ):
            return False
        for g, nxt in enumerate(out[cur]):
            if visited[nxt] or (nxt == target_i and remaining > 1):
                continue
            visited[nxt] = 1
            saved = None
            if succ[cur] != nxt:
                saved = mate[:], succ[:]
                mate[succ[cur]] = -1
            if saved is None or augment(mate[nxt], bytearray(visited)):
                path.append(g)
                if dfs(nxt, remaining - 1):
                    return True
                path.pop()
            if saved is not None:
                mate[:], succ[:] = saved
            visited[nxt] = 0
        return False

    for x in range(total):
        if x != target_i and not augment(x, bytearray(visited)):
            return None
    return bytes(path) if dfs(start_i, total - 1) else None


def ham_path_witness(
    spec: TorusSpec, start: Vertex, target: Vertex, *, cap: int | None = None
) -> bytes | None:
    """Exhaustive search; the witness arcs if a path exists, else None."""
    _check_cap(spec, cap)
    spec.require_vertex(start)
    spec.require_vertex(target)
    return _dfs_ham(spec, start, target)


def ham_path_exists(
    spec: TorusSpec, start: Vertex, target: Vertex, *, cap: int | None = None
) -> bool:
    return ham_path_witness(spec, start, target, cap=cap) is not None


def ham_cycle_witness(spec: TorusSpec, *, cap: int | None = None) -> bytes | None:
    """Arcs of the lexicographically first hamiltonian cycle based at 0, or None.

    It is the first arc g, in index order, from 0 to a vertex x_g with a
    hamiltonian path back to 0, followed by the first such path.
    """
    _check_cap(spec, cap)
    zero = spec.zero()
    for g in range(spec.k):
        arcs = _dfs_ham(spec, spec.add_step(zero, g), zero)
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


@dataclass(frozen=True)
class EndpointReport:
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
    reachable: list[Vertex] = []
    missing: list[Vertex] = []
    for v in predicted:
        (reachable if ham_path_exists(spec, start, v, cap=cap) else missing).append(v)
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

