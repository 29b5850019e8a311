"""Certified hamiltonian paths between prescribed endpoints in (Z_m)^k.

For k >= 3 a hamiltonian path from u to v exists exactly when the coordinate
sums satisfy sum(v - u) = -1 (mod m).  Translation by u is a digraph
automorphism, so the construction builds a word for w = v - u from 0: the
subgroup H of zero-sum vertices is generated by the differences x_t - x_1,
and Cay(H; S - x_1) is isomorphic to the (k-1)-power torus, so a hamiltonian
cycle c_0, c_1, ... of H with an even distance 2n to w + x_1 can be rolled
into the full torus.  The rolling pattern is the prism path over the steps
a = (1, 0) and b = (1, 1) on Z_m x Z_N with N = m^(k-1), carried as bytes
with 0 = a and 1 = b:

    ( (a^(m-2) b^2)^n  (a^(m-2) b a)^(N-2n-1)  (a^(m-2) b^2)^n  a^(m-2)  b )

a hamiltonian path from 0 to (-1, 2n) of length m*N - 1.  Substituting
a -> x_1 and the i-th b -> x_1 + (c_{i+1} - c_i) lands the rolled path at
c_{2n} - x_1 = w.  The b arcs sit at fixed offsets of each m-arc block, so
the substitution is a few slice assignments of the shifted inner arcs.

The construction is a Term of O(k) integers, made by plan and evaluated by
evaluate, and it is a straight pipeline: a lift chain of the two staircase
morphisms builds the inner cycle, one roll makes the path, one relabel by
the permutation tau carries it to v - u, and one walk checks it.  plan is
pure integer arithmetic: it validates, refuses on the congruence, and
picks the chain's lift offsets (m-1 for sigma_a, 0 for sigma_b), n and tau.
The parity of m only picks the offsets and tau.  For odd m they come from
the cycles module's even-distance plan, whose arc map perm becomes tau on
the inner generators, with tau[0] = 0.  For even m any hamiltonian cycle
of H works: arcs of Cay(H; S - x_1) lower the first coordinate by one, so
first-coordinate parity bipartitions H and forces the distance to w + x_1
even once a transposition tau moves an odd coordinate of w to the front;
so every offset is sigma_a's, whose distance has a closed form.  evaluate
is the only code that builds arcs.  It does not trace the inner cycle:
counting its first 2n arcs per generator checks that they end at w[1:],
since a walk from 0 in an abelian group ends at its arc counts.  The
certificate bytes are traced once, from u to v; the certificate renders
them in runs of tau's first generator.
"""

from __future__ import annotations

from .torus import Perm, Record, TorusSpec, Vertex, transposition
from .words import PathCertificate, expect_path
from .cycles import (
    _SHIFT,
    _any_cycle_distance,
    _arc_table,
    _even_distance_levels,
    _lift_chain,
)


def _roll(m: int, inner: bytes, n: int) -> bytes:
    """Flat arcs of the rolled path, without verification.

    Substitutes the inner arcs into the prism path of the module docstring:
    each a becomes generator 0, and the i-th b becomes inner arc i mod N,
    plus 1.  The b arcs sit at offsets m-2 and m-1 of the n turnback blocks
    at either end, at offset m-2 of the blocks between them, and last.  The
    tests hold this to the prism path spelled out block by block.
    """
    N = len(inner)
    if not 0 <= n < N / 2:
        raise ValueError(f"n must satisfy 0 <= n < N/2 = {N / 2}, got {n}")
    shifted = inner.translate(_SHIFT)
    seq = shifted + shifted[: 2 * n]
    out = bytearray(m * N - 1)
    base = (N - n - 1) * m
    out[m - 2 : n * m : m] = seq[0 : 2 * n : 2]
    out[m - 1 : n * m : m] = seq[1 : 2 * n : 2]
    out[n * m + m - 2 : base : m] = seq[2 * n : N - 1]
    out[base + m - 2 : base + n * m : m] = seq[N - 1 : N - 1 + 2 * n : 2]
    out[base + m - 1 : base + n * m : m] = seq[N : N - 1 + 2 * n : 2]
    out[-1] = seq[N - 1 + 2 * n]
    return bytes(out)


class Refusal(Record):
    """A certified non-existence answer for the endpoint congruence.

    Every directed path from start to target has length congruent to the
    directed distance mod m, while a hamiltonian path has length
    vertex_count - 1 = -1 (mod m).  When the congruence fails, no word can
    ever verify, and the refusal records why.
    """

    spec: TorusSpec
    start: Vertex
    target: Vertex
    residue: int
    required: int

    @property
    def message(self) -> str:
        m = self.spec.moduli[0]
        return (
            f"no hamiltonian path from {self.start} to {self.target}: every directed "
            f"path between them has length = {self.residue} (mod {m}), but a "
            f"hamiltonian path has length = {self.required} (mod {m})"
        )


class Term(Record):
    """The construction of a path from 0 to the relative target, as O(k) integers.

    `levels` is the inner cycle of (Z_m)^(k-1) as a lift chain: one lift
    offset per level, m-1 for sigma_a or 0 for sigma_b.  Its first 2n arcs
    end at w[1:].  Rolled, the inner cycle gives a path from 0 to `w`, and
    relabelled by the permutation `tau` (arc g becomes tau[g]) a path from 0
    to v - u, so w[g] is coordinate tau[g] of v - u.
    """

    m: int
    k: int
    levels: tuple[int, ...]
    n: int
    tau: Perm
    w: Vertex


def plan(m: int, k: int, u: Vertex, v: Vertex) -> Term | Refusal:
    """The Term for a path from u to v in (Z_m)^k, or the Refusal.

    Pure integer arithmetic on O(k) numbers: it validates the inputs like
    hamiltonian_path, refuses exactly when TorusSpec.ham_path_congruence_ok
    (the oracle's prediction) fails, and allocates nothing of size m^k.  Odd
    m takes the even-distance offsets, and tau is their arc map on the
    inner generators; even m takes sigma_a at every level, its closed-form
    distance and the tau that moves an odd coordinate to the front.
    """
    if k < 3:
        raise ValueError(
            "k >= 3 required: for k = 2 and odd m only (m+1)/2 of the admissible "
            "endpoints terminate a hamiltonian path; use the oracle for k = 2"
        )
    spec = TorusSpec.power(m, k)
    spec.require_vertex(u)
    spec.require_vertex(v)
    if not spec.ham_path_congruence_ok(u, v):
        return Refusal(spec, u, v, spec.directed_distance(u, v) % m, m - 1)
    # translation by u is an automorphism: a word from 0 to v - u runs from u to v
    diff = spec.subtract(v, u)
    if m % 2 == 1:
        levels, dist, perm = _even_distance_levels(m, diff[1:])
        tau = (0,) + tuple(p + 1 for p in perm)
    else:
        # the coordinate sum is odd, so some coordinate is: move the first one to the front
        tau = transposition(k, 0, next(i for i, c in enumerate(diff) if c % 2 == 1))
        levels = (m - 1,) * (k - 2)
        dist = _any_cycle_distance(m, tuple(diff[p] for p in tau[1:]))
    w = tuple(diff[p] for p in tau)
    if dist % 2 != 0:
        raise AssertionError(f"cycle distance {dist} to {w[1:]} is odd")
    return Term(m, k, levels, dist // 2, tau, w)


def evaluate(term: Term) -> bytes:
    """The arcs of a term's path from 0, relabelled by tau; the only arc builder.

    The inner cycle is not traced: its first 2n arcs, counted per
    generator, must end at w[1:], which puts the rolled path's end at the
    target.
    """
    m, k, n = term.m, term.k, term.n
    inner = _lift_chain(m, term.levels)
    # in an abelian group a walk from 0 ends at its per-generator arc counts
    end = tuple(inner.count(g, 0, 2 * n) % m for g in range(k - 1))
    if end != term.w[1:]:
        raise AssertionError(f"inner cycle reaches {end} after {2 * n} arcs, not {term.w[1:]}")
    return _roll(m, inner, n).translate(_arc_table(term.tau))


def hamiltonian_path(m: int, k: int, u: Vertex, v: Vertex) -> PathCertificate | Refusal:
    """Certified hamiltonian path from u to v in (Z_m)^k, or a refusal.

    Outcomes are a trichotomy: a verified PathCertificate, a Refusal when
    the endpoint congruence sum(v - u) = -1 (mod m) fails (in which case no
    path exists), or an exception for unusable inputs.  k = 2 is not built
    yet and is rejected: the paper's converse holds there for even m, while
    for odd m only about half the admissible endpoints are reachable; use
    the search oracle for k = 2.

    plan makes the term or the refusal, evaluate builds its arcs, and one
    trace checks them at (u, v).  The certificate's text and its word tree
    render the arcs in runs of the generator tau moves to the front; the
    tree is built only when `word` is first read.
    """
    term = plan(m, k, u, v)
    if isinstance(term, Refusal):
        return term
    arcs = evaluate(term)
    spec = TorusSpec.power(m, k)
    expect_path(spec, u, v, arcs)
    return PathCertificate(spec, u, v, arcs, None, True, runs=term.tau[0])
