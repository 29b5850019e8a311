"""Brute-force ground truth for small directed tori.

Exhaustive depth-first search for hamiltonian paths and cycles on mixed
moduli products, endpoint-set enumeration against the distance congruence,
and the number-theoretic two-cycle hamiltonicity criterion.  Everything here
is deliberately independent of the constructive machinery; the only shared
ingredient is the arc definition itself.

Searches are capped: the default bound is 32 vertices and the hard bound is
64, because exhaustive non-existence proofs get expensive quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .torus import TorusSpec, Vertex
from .words import Word, word_from_flat

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


def _tables(spec: TorusSpec):
    verts = list(spec.vertices())
    index = {v: i for i, v in enumerate(verts)}
    out = [tuple(index[spec.add_step(v, g)] for g in range(spec.k)) for v in verts]
    incoming: list[list[int]] = [[] for _ in verts]
    for src, succs in enumerate(out):
        for dst in succs:
            incoming[dst].append(src)
    return verts, index, out, [tuple(xs) for xs in incoming]


def _dfs_ham(spec: TorusSpec, start: Vertex, target: Vertex, cycle: bool) -> list[int] | None:
    """Arc indices of a hamiltonian start->target path (or based cycle), or None.

    Generators are tried in index order, so the witness is deterministic.
    Pruning: dead-in/dead-out degree checks on the unvisited region, forward
    reachability of every unvisited vertex from the current one, and
    backward reachability of the target from every unvisited vertex.
    """
    verts, index, out, incoming = _tables(spec)
    total = len(verts)
    start_i = index[start]
    target_i = index[target]
    visited = bytearray(total)
    visited[start_i] = 1
    path: list[int] = []

    def feasible(cur: int, remaining: int) -> bool:
        for w in range(total):
            if visited[w]:
                continue
            if w != target_i or cycle:
                if not any(
                    (not visited[y]) or (cycle and y == start_i) for y in out[w]
                ):
                    return False
            if not any(
                y == cur or (not visited[y] and (cycle or y != target_i))
                for y in incoming[w]
            ):
                return False
        # forward: every unvisited vertex reachable from cur through unvisited
        seen = bytearray(total)
        seen[cur] = 1
        stack = [cur]
        found = 0
        while stack:
            x = stack.pop()
            for y in out[x]:
                if not seen[y] and not visited[y]:
                    seen[y] = 1
                    found += 1
                    stack.append(y)
        if found != remaining:
            return False
        # backward: every unvisited vertex must reach the target through unvisited
        seen = bytearray(total)
        seen[target_i] = 1
        stack = [target_i]
        found = 0
        while stack:
            x = stack.pop()
            for y in incoming[x]:
                if not seen[y] and not visited[y]:
                    seen[y] = 1
                    found += 1
                    stack.append(y)
        return found == (remaining if cycle else remaining - 1)

    def dfs(cur: int, remaining: int) -> bool:
        if remaining == 0:
            if not cycle:
                return cur == target_i
            for g, nxt in enumerate(out[cur]):
                if nxt == start_i:
                    path.append(g)
                    return True
            return False
        if not feasible(cur, remaining):
            return False
        for g, nxt in enumerate(out[cur]):
            if visited[nxt]:
                continue
            if not cycle and nxt == target_i and remaining > 1:
                continue
            visited[nxt] = 1
            path.append(g)
            if dfs(nxt, remaining - 1):
                return True
            visited[nxt] = 0
            path.pop()
        return False

    if not cycle and start_i == target_i:
        return [] if total == 1 else None
    if dfs(start_i, total - 1):
        return path
    return None


def ham_path_witness(
    spec: TorusSpec, start: Vertex, target: Vertex, *, cap: int | None = None
) -> Word | None:
    """Exhaustive search; a flat witness word if a path exists, else None."""
    _check_cap(spec, cap)
    spec.require_vertex(start)
    spec.require_vertex(target)
    arcs = _dfs_ham(spec, start, target, cycle=False)
    return None if arcs is None else word_from_flat(arcs)


def ham_path_exists(
    spec: TorusSpec, start: Vertex, target: Vertex, *, cap: int | None = None
) -> bool:
    return ham_path_witness(spec, start, target, cap=cap) is not None


def ham_cycle_witness(spec: TorusSpec, *, cap: int | None = None) -> Word | None:
    """Exhaustive search for a hamiltonian cycle based at 0."""
    _check_cap(spec, cap)
    arcs = _dfs_ham(spec, spec.zero(), spec.zero(), cycle=True)
    return None if arcs is None else word_from_flat(arcs)


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
    reachable = tuple(
        v for v in predicted if ham_path_exists(spec, start, v, cap=cap)
    )
    missing = tuple(v for v in predicted if v not in set(reachable))
    return EndpointReport(
        spec=spec,
        start=start,
        reachable=reachable,
        predicted=predicted,
        agreement=not missing,
        counterexamples=missing,
    )


def enumerate_torus_specs(k: int, max_vertices: int) -> Iterator[TorusSpec]:
    """All k-coordinate specs with nondecreasing moduli and bounded size."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

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


def conjecture_scan(
    specs: Sequence[TorusSpec], *, cap: int | None = None
) -> list[EndpointReport]:
    """Endpoint reports from 0 for each spec; any disagreement is a finding.

    Each spec needs k >= 3.  A report with agreement=False means a
    congruence-predicted endpoint is unreachable, i.e. a counterexample to
    sufficiency on mixed moduli; callers should surface it loudly.
    """
    reports = []
    for spec in specs:
        if spec.k < 3:
            raise ValueError(f"conjecture scan needs k >= 3 coordinates, got {spec.moduli}")
        reports.append(endpoint_set(spec, spec.zero(), cap=cap))
    return reports
