"""Hamiltonian cycles with parity-controlled distance to a prescribed target.

The 2-dimensional workhorses are the staircase cycles on Z_m x Z_n with m
dividing n:

    staircase_a = (x1^(m-1) x2)^n        staircase_b = (x2 x1^(m-1))^n

Both wind once around the second cycle per block while stepping the first
coordinate backward (net -1 per block), and they are hamiltonian exactly
because m divides n.  For a target v = (i, j) write r = (i + j) % m.  Then
the distance from 0 to v along staircase_a is j*m + r, and along staircase_b
it is (j-1)*m + 1 + (r-1) whenever j and r are nonzero.  For odd m this
gives an even distance in each of three target classes:

    (1) j + r even           -> staircase_a
    (2) j != 0 and r != 0    -> staircase_b   (when j + r is odd)
    (3) j even and nonzero   -> reduces to (1) or (2)

Higher powers (Z_m)^n are handled by induction: roll a hamiltonian cycle of
(Z_m)^(n-1) into the fibers of Z_m x Z_{m^(n-1)} (product_embed), and pick
the 2-dimensional cycle through class (3), since the inner distance is even
and nonzero by induction.

Cycles are carried as flat bytes of generator indices (CycleWitness.arcs);
word trees appear only in the certificates that the paths module builds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle

from .torus import TorusSpec, Perm, Vertex, identity_perm, invert_perm, transposition
from .words import CycleWitness, cycle_distance, expect_cycle


class Case(enum.Enum):
    """Which staircase argument applies to a 2-torus target (i, j)."""

    J_PLUS_R_EVEN = "j+r even"
    J_AND_R_NONZERO = "j and r nonzero"
    NONE = "no case applies"


@dataclass(frozen=True)
class CaseInfo:
    tag: Case
    r: int


class CaseNotApplicableError(ValueError):
    """No staircase case covers the target; the caller must transform it."""


def _staircase_spec(m: int, n: int) -> TorusSpec:
    if m < 2 or n < 2:
        raise ValueError(f"staircase needs m, n >= 2, got m={m}, n={n}")
    if n % m != 0:
        raise ValueError(f"staircase needs n to be a multiple of m, got m={m}, n={n}")
    return TorusSpec((m, n))


@lru_cache(maxsize=None)
def staircase_a(m: int, n: int) -> CycleWitness:
    """Verified hamiltonian cycle (x1^(m-1) x2)^n on Z_m x Z_n, m | n."""
    return expect_cycle(_staircase_spec(m, n), (bytes(m - 1) + b"\1") * n)


@lru_cache(maxsize=None)
def staircase_b(m: int, n: int) -> CycleWitness:
    """Verified hamiltonian cycle (x2 x1^(m-1))^n on Z_m x Z_n, m | n."""
    return expect_cycle(_staircase_spec(m, n), (b"\1" + bytes(m - 1)) * n)


def classify_case(m: int, n: int, v: Vertex) -> CaseInfo:
    """Classify target (i, j) on Z_m x Z_n for the staircase arguments.

    Requires m odd and m | n.  Returns the first of cases (1) and (2) that
    applies.  Case (3) needs no tag of its own: when it holds and (1) fails,
    r is odd and therefore nonzero, which is case (2).
    """
    if m % 2 == 0:
        raise ValueError(f"classification needs odd m, got {m}")
    _staircase_spec(m, n)
    i, j = v
    if not (0 <= i < m and 0 <= j < n):
        raise ValueError(f"target {v!r} out of range for Z_{m} x Z_{n}")
    r = (i + j) % m
    if (j + r) % 2 == 0:
        return CaseInfo(Case.J_PLUS_R_EVEN, r)
    if j != 0 and r != 0:
        return CaseInfo(Case.J_AND_R_NONZERO, r)
    return CaseInfo(Case.NONE, r)


def even_distance_cycle_2d(m: int, n: int, v: Vertex) -> tuple[CycleWitness, int]:
    """Staircase cycle on Z_m x Z_n with an even distance from 0 to v.

    Case (1) uses staircase_a with distance j*m + r; case (2) uses
    staircase_b with distance (j-1)*m + 1 + (r-1).  The returned distance is
    revalidated against the actual cycle trace.
    """
    info = classify_case(m, n, v)
    i, j = v
    r = info.r
    if info.tag is Case.J_PLUS_R_EVEN:
        witness = staircase_a(m, n)
        dist = j * m + r
    elif info.tag is Case.J_AND_R_NONZERO:
        witness = staircase_b(m, n)
        dist = (j - 1) * m + 1 + (r - 1)
    else:
        raise CaseNotApplicableError(
            f"no staircase case applies to target {v} on Z_{m} x Z_{n} "
            f"(j={j}, r={r}); transform the target first"
        )
    if dist % 2 != 0 or not 0 <= dist < m * n:
        raise AssertionError(f"distance formula out of range: {dist} for {v}")
    if cycle_distance(witness, v) != dist:
        raise AssertionError(f"distance formula disagrees with trace for {v} on Z_{m} x Z_{n}")
    return witness, dist


def _embed(outer: bytes, inner: bytes) -> bytes:
    """Roll a cursor along the inner arcs while copying outer 0/1 arcs.

    Each 0 (plain) arc stays generator 0; the i-th 1 (consume) arc becomes
    inner arc i mod len(inner), plus 1.
    """
    if outer.translate(None, b"\0\1"):
        raise ValueError("outer arcs must be 0 (plain) or 1 (consume)")
    cursor = cycle(inner)
    return bytes(next(cursor) + 1 if a else 0 for a in outer)


def product_embed(m: int, inner: CycleWitness, outer: bytes) -> bytes:
    """Lift flat arcs on Z_m x Z_{m^(n-1)} through a cycle of (Z_m)^(n-1).

    The embedding sends (i, j) to i*e_0 + c_j, where c_j is the j-th vertex
    of the inner cycle placed on coordinates 1..n-1.  Generator 0 of the
    2-torus maps to generator 0 of (Z_m)^n; generator 1 maps, at each use,
    to the inner cycle's next arc shifted up one coordinate.
    """
    if not isinstance(inner, CycleWitness):
        raise ValueError("inner cycle must be a verified CycleWitness")
    if not (inner.spec.is_equal_power and inner.spec.moduli[0] == m):
        raise ValueError(f"inner cycle must live on a power of Z_{m}, got {inner.spec.moduli}")
    return _embed(outer, inner.arcs)


def _arc_table(perm: Perm) -> bytes:
    """bytes.translate table sending generator g to perm[g]."""
    return bytes(perm) + bytes(range(len(perm), 256))


def conjugate_cycle(witness: CycleWitness, perm: Perm) -> CycleWitness:
    """Carry a cycle through the inverse coordinate permutation.

    The result satisfies  distance(result, v) == distance(witness, perm(v))
    for every vertex v, so a witness built for a permuted target turns into
    one for the original target.
    """
    spec = witness.spec
    perm = spec.require_perm(perm)
    if perm == identity_perm(spec.k):
        return witness
    return expect_cycle(spec, witness.arcs.translate(_arc_table(invert_perm(perm))))


def even_distance_cycle_power(m: int, n: int, v: Vertex) -> tuple[CycleWitness, int, Perm]:
    """Hamiltonian cycle on (Z_m)^n with even distance to v, for odd m >= 3.

    Returns (witness, distance, perm) where the witness has the stated even
    distance from 0 to permute_coords(v, perm); conjugate_cycle(witness,
    perm) is then a cycle with that distance to v itself.

    Dimension 2 tries case (1) on (i, j), then on the swapped target (j, i),
    then falls back to case (2) after ensuring j != 0 by swapping.  Higher
    dimensions move a nonzero coordinate last (the largest such index),
    recurse on the tail, and route through case (3): the recursive distance
    is even and nonzero, so a staircase on Z_m x Z_{m^(n-1)} with even
    distance to (v_0, inner distance) exists and is rolled up with
    product_embed.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"even-distance cycles need odd m >= 3, got {m}")
    if n < 2:
        raise ValueError(f"even-distance cycles need dimension n >= 2, got {n}")
    spec = TorusSpec.power(m, n)
    spec.require_vertex(v)

    if n == 2:
        i, j = v
        r = (i + j) % m
        if (j + r) % 2 == 0:
            witness, dist = even_distance_cycle_2d(m, m, (i, j))
            return witness, dist, identity_perm(2)
        if (i + r) % 2 == 0:
            witness, dist = even_distance_cycle_2d(m, m, (j, i))
            return witness, dist, transposition(2, 0, 1)
        if v == (0, 0):
            return staircase_a(m, m), 0, identity_perm(2)
        if j != 0:
            witness, dist = even_distance_cycle_2d(m, m, (i, j))
            return witness, dist, identity_perm(2)
        witness, dist = even_distance_cycle_2d(m, m, (j, i))
        return witness, dist, transposition(2, 0, 1)

    if all(c == 0 for c in v):
        return any_cycle_power(m, n), 0, identity_perm(n)

    last = max(idx for idx, c in enumerate(v) if c != 0)
    perm = identity_perm(n) if last == n - 1 else transposition(n, last, n - 1)
    u = spec.permute_coords(v, perm)
    tail = u[1:]
    inner_raw, inner_dist, inner_perm = even_distance_cycle_power(m, n - 1, tail)
    inner = conjugate_cycle(inner_raw, inner_perm)
    if inner_dist % 2 != 0 or inner_dist == 0:
        raise AssertionError(f"inner distance {inner_dist} is not even and nonzero for {tail}")
    outer, dist = even_distance_cycle_2d(m, m ** (n - 1), (u[0], inner_dist))
    witness = expect_cycle(spec, product_embed(m, inner, outer.arcs))
    if cycle_distance(witness, u) != dist:
        raise AssertionError(f"embedded distance disagrees with trace for {v} on (Z_{m})^{n}")
    return witness, dist, perm


@lru_cache(maxsize=None)
def any_cycle_power(m: int, n: int) -> CycleWitness:
    """Some verified hamiltonian cycle on (Z_m)^n, any m >= 2.

    Staircases are hamiltonian for every m with m | n, so the same
    staircase-plus-embedding recursion works without parity targeting.
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if n == 1:
        return expect_cycle(TorusSpec.power(m, 1), bytes(m))
    if n == 2:
        return staircase_a(m, m)
    inner = any_cycle_power(m, n - 1)
    arcs = product_embed(m, inner, staircase_a(m, m ** (n - 1)).arcs)
    return expect_cycle(TorusSpec.power(m, n), arcs)
