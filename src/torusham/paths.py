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

The parity of m only picks the inner cycle.  For odd m the parity-targeted
cycles come from the cycles module.  For even m any hamiltonian cycle of H
works: arcs of Cay(H; S - x_1) lower the first coordinate by one, so
first-coordinate parity bipartitions H and forces the distance to w + x_1
even once a transposition tau moves an odd coordinate of w to the front
(the rolled arcs are relabelled back by tau); its distance has a closed
form.  Either way the inner cycle is not traced: walking its first 2n arcs
checks the distance, and the certificate bytes are traced once, from u to
v, before they are rendered as a run-length tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .torus import TorusSpec, Vertex, identity_perm, transposition
from .words import Cycle, PathCertificate, _walk, expect_path, word_from_runs
from .cycles import (
    _SHIFT,
    _any_cycle_distance,
    _arc_table,
    any_cycle_power,
    even_distance_cycle_power,
)


@dataclass(frozen=True)
class ArcForcingIso:
    """Isomorphism between (Z_m)^(k-1) and the zero-sum subgroup of (Z_m)^k.

    forward sends w to sum_i w_i (x_{i+2} - x_1), i.e. the zero-sum vertex
    (-sum(w), w_1, ..., w_{k-1}); backward drops the first coordinate.  The
    i-th generator of the small torus corresponds to the arc label
    x_{i+2} - x_1 of the subgroup digraph.
    """

    m: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.k < 2:
            raise ValueError(f"need m >= 2 and k >= 2, got m={self.m}, k={self.k}")

    @property
    def inner_spec(self) -> TorusSpec:
        return TorusSpec.power(self.m, self.k - 1)

    @property
    def outer_spec(self) -> TorusSpec:
        return TorusSpec.power(self.m, self.k)

    def forward(self, w: Vertex) -> Vertex:
        self.inner_spec.require_vertex(w)
        return ((-sum(w)) % self.m,) + tuple(w)

    def backward(self, h: Vertex) -> Vertex:
        self.outer_spec.require_vertex(h)
        if sum(h) % self.m != 0:
            raise ValueError(f"{h} is not a zero-sum vertex mod {self.m}")
        return tuple(h[1:])


def prism_path_arcs(m: int, N: int, n: int) -> bytes:
    """The rolling path on Z_m x Z_N as arcs 0 = a and 1 = b, for 0 <= n < N/2.

    As a path in the digraph with arc steps a = (1, 0) and b = (1, 1) it has
    length m*N - 1 and runs from 0 to (-1, 2n), visiting every vertex once.
    """
    if m < 2 or N < 2:
        raise ValueError(f"need m >= 2 and N >= 2, got m={m}, N={N}")
    if not 0 <= n < N / 2:
        raise ValueError(f"n must satisfy 0 <= n < N/2 = {N / 2}, got {n}")
    turnback = bytes(m - 2) + b"\1\1"
    return (
        turnback * n
        + (bytes(m - 2) + b"\1\0") * (N - 2 * n - 1)
        + turnback * n
        + bytes(m - 2)
        + b"\1"
    )


def _rolled_path(m: int, k: int, inner: Cycle, n: int) -> tuple[bytes, Vertex]:
    """Flat arcs and target of the rolled path, without verification.

    Substitutes the inner cycle into prism_path_arcs: each a becomes
    generator 0, and the i-th b becomes inner arc i mod N, plus 1.  The b
    arcs sit at offsets m-2 and m-1 of the n turnback blocks at either end,
    at offset m-2 of the blocks between them, and last.
    """
    iso = ArcForcingIso(m, k)
    if inner.spec != iso.inner_spec:
        raise ValueError(
            f"inner cycle lives on {inner.spec.moduli}, expected {(m,) * (k - 1)}"
        )
    N = len(inner.arcs)
    if not 0 <= n < N / 2:
        raise ValueError(f"n must satisfy 0 <= n < N/2 = {N / 2}, got {n}")
    shifted = inner.arcs.translate(_SHIFT)
    seq = shifted + shifted[: 2 * n]
    out = bytearray(m * N - 1)
    base = (N - n - 1) * m
    out[m - 2 : n * m : m] = seq[0 : 2 * n : 2]
    out[m - 1 : n * m : m] = seq[1 : 2 * n : 2]
    out[n * m + m - 2 : base : m] = seq[2 * n : N - 1]
    out[base + m - 2 : base + n * m : m] = seq[N - 1 : N - 1 + 2 * n : 2]
    out[base + m - 1 : base + n * m : m] = seq[N : N - 1 + 2 * n : 2]
    out[-1] = seq[N - 1 + 2 * n]
    _, inner_2n = _walk(iso.inner_spec, inner.base, inner.arcs[: 2 * n])
    c_2n = iso.forward(inner_2n)
    target = iso.outer_spec.subtract(c_2n, (1,) + (0,) * (k - 1))
    return bytes(out), target


@dataclass(frozen=True)
class Refusal:
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


def hamiltonian_path(m: int, k: int, u: Vertex, v: Vertex) -> PathCertificate | Refusal:
    """Certified hamiltonian path from u to v in (Z_m)^k, or a refusal.

    Outcomes are a trichotomy: a verified PathCertificate, a Refusal when
    the endpoint congruence sum(v - u) = -1 (mod m) fails (in which case no
    path exists), or an exception for unusable inputs.  k = 2 is not built
    yet and is rejected: the paper's converse holds there for even m, while
    for odd m only about half the admissible endpoints are reachable; use
    the search oracle for k = 2.

    The parity of m picks the inner cycle, its distance and tau.  Odd m
    takes both from even_distance_cycle_power, with the cycle already
    carried to the target and tau the identity; even m takes any_cycle_power,
    its closed-form distance and the tau that moves an odd coordinate to the
    front.  One shared tail rolls, relabels by tau and trace-checks the arcs
    at (u, v), then renders them as the certificate's word.
    """
    if m < 2:
        raise ValueError(f"cycle length must be >= 2, got {m}")
    if k < 3:
        raise ValueError(
            "k >= 3 required: for k = 2 and odd m only (m+1)/2 of the admissible "
            "endpoints terminate a hamiltonian path; use the oracle for k = 2"
        )
    spec = TorusSpec.power(m, k)
    spec.require_vertex(u)
    spec.require_vertex(v)
    diff = spec.subtract(v, u)
    residue = spec.residue_sum(diff, m)
    if residue != m - 1:
        return Refusal(spec, u, v, residue, m - 1)
    # translation by u is an automorphism: a word from 0 to v - u runs from u to v
    if m % 2 == 1:
        tau = identity_perm(k)
        w = diff
        inner, dist = even_distance_cycle_power(m, k - 1, w[1:])
    else:
        # the coordinate sum is odd, so some coordinate is: move the first one to the front
        tau = transposition(k, 0, next(i for i, c in enumerate(diff) if c % 2 == 1))
        w = spec.permute_coords(diff, tau)
        inner = any_cycle_power(m, k - 1)
        dist = _any_cycle_distance(m, w[1:])
    if dist % 2 != 0:
        raise AssertionError(f"cycle distance {dist} to {w[1:]} is odd")
    arcs, target = _rolled_path(m, k, inner, dist // 2)
    if target != w:
        raise AssertionError(f"constructed endpoint {target} != permuted target {w}")
    arcs = arcs.translate(_arc_table(tau))
    return replace(expect_path(spec, u, v, arcs), word=word_from_runs(arcs, tau[0]))
