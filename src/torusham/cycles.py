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
(Z_m)^(n-1) into the fibers of Z_m x Z_{m^(n-1)}, and pick the
2-dimensional cycle through class (3), since the inner distance is even and
nonzero by induction.  The staircase vertex (i, j) becomes i*e_0 + c_j,
where c_j is the j-th inner vertex, so the staircase distance to
(v_0, inner distance) is the distance to v.

On arcs the roll is a morphism.  With g+1 the inner arc g moved up one
coordinate, staircase_a sends g to 0^(m-1) (g+1) and staircase_b sends it
to (g+1) 0^(m-1); _lift applies either one as a single slice assignment, and
the staircases themselves are the lifts of the m-cycle bytes(n).

Cycles are flat bytes of generator indices (Cycle.arcs).  The builders here
return them unchecked: the tests trace every builder, and the paths module
traces every certificate it builds from them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .torus import TorusSpec, Perm, Vertex, identity_perm, invert_perm, transposition
from .words import Cycle


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


# bytes.translate table sending generator g to g + 1
_SHIFT = bytes(range(1, 256)) + b"\0"


def _lift(inner: bytes, m: int, at: int) -> bytes:
    """Roll inner arcs through a staircase: arc g becomes m arcs, g+1 at `at`.

    at = m-1 is staircase_a's morphism 0^(m-1) (g+1); at = 0 is
    staircase_b's (g+1) 0^(m-1).
    """
    out = bytearray(m * len(inner))
    out[at::m] = inner.translate(_SHIFT)
    return bytes(out)


def _staircase_spec(m: int, n: int) -> TorusSpec:
    if m < 2 or n < 2:
        raise ValueError(f"staircase needs m, n >= 2, got m={m}, n={n}")
    if n % m != 0:
        raise ValueError(f"staircase needs n to be a multiple of m, got m={m}, n={n}")
    return TorusSpec((m, n))


def staircase_a(m: int, n: int) -> Cycle:
    """Hamiltonian cycle (x1^(m-1) x2)^n on Z_m x Z_n, m | n."""
    return Cycle(_staircase_spec(m, n), _lift(bytes(n), m, m - 1))


def staircase_b(m: int, n: int) -> Cycle:
    """Hamiltonian cycle (x2 x1^(m-1))^n on Z_m x Z_n, m | n."""
    return Cycle(_staircase_spec(m, n), _lift(bytes(n), m, 0))


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


def _staircase_case(m: int, n: int, v: Vertex) -> tuple[int, int]:
    """(lift offset, even distance) of the staircase that case (1) or (2) picks."""
    info = classify_case(m, n, v)
    j = v[1]
    r = info.r
    if info.tag is Case.J_PLUS_R_EVEN:
        at, dist = m - 1, j * m + r
    elif info.tag is Case.J_AND_R_NONZERO:
        at, dist = 0, (j - 1) * m + 1 + (r - 1)
    else:
        raise CaseNotApplicableError(
            f"no staircase case applies to target {v} on Z_{m} x Z_{n} "
            f"(j={j}, r={r}); transform the target first"
        )
    if dist % 2 != 0 or not 0 <= dist < m * n:
        raise AssertionError(f"distance formula out of range: {dist} for {v}")
    return at, dist


def even_distance_cycle_2d(m: int, n: int, v: Vertex) -> tuple[Cycle, int]:
    """Staircase cycle on Z_m x Z_n with an even distance from 0 to v.

    Case (1) uses staircase_a with distance j*m + r; case (2) uses
    staircase_b with distance (j-1)*m + 1 + (r-1).
    """
    at, dist = _staircase_case(m, n, v)
    return Cycle(_staircase_spec(m, n), _lift(bytes(n), m, at)), dist


def _arc_table(perm: Perm) -> bytes:
    """bytes.translate table sending generator g to perm[g]."""
    return bytes(perm) + bytes(range(len(perm), 256))


def conjugate_cycle(cycle: Cycle, perm: Perm) -> Cycle:
    """Carry a cycle through the inverse coordinate permutation.

    The result satisfies  distance(result, v) == distance(cycle, perm(v))
    for every vertex v, so a cycle built for a permuted target turns into
    one for the original target.
    """
    perm = cycle.spec.require_perm(perm)
    return Cycle(cycle.spec, cycle.arcs.translate(_arc_table(invert_perm(perm))))


def even_distance_cycle_power(m: int, n: int, v: Vertex) -> tuple[Cycle, int, Perm]:
    """Hamiltonian cycle on (Z_m)^n with even distance to v, for odd m >= 3.

    Returns (cycle, distance, perm) where the cycle has the stated even
    distance from 0 to permute_coords(v, perm); conjugate_cycle(cycle,
    perm) is then a cycle with that distance to v itself.

    Dimension 2 tries case (1) on (i, j), then on the swapped target (j, i),
    then falls back to case (2) after ensuring j != 0 by swapping.  Higher
    dimensions move a nonzero coordinate last (the largest such index),
    recurse on the tail, and route through case (3): the recursive distance
    is even and nonzero, so a staircase on Z_m x Z_{m^(n-1)} with even
    distance to (v_0, inner distance) exists, and the inner cycle is lifted
    through it.
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
            cycle, dist = even_distance_cycle_2d(m, m, (i, j))
            return cycle, dist, identity_perm(2)
        if (i + r) % 2 == 0:
            cycle, dist = even_distance_cycle_2d(m, m, (j, i))
            return cycle, dist, transposition(2, 0, 1)
        if j != 0:
            cycle, dist = even_distance_cycle_2d(m, m, (i, j))
            return cycle, dist, identity_perm(2)
        cycle, dist = even_distance_cycle_2d(m, m, (j, i))
        return cycle, dist, transposition(2, 0, 1)

    if all(c == 0 for c in v):
        return any_cycle_power(m, n), 0, identity_perm(n)

    last = max(idx for idx, c in enumerate(v) if c != 0)
    perm = identity_perm(n) if last == n - 1 else transposition(n, last, n - 1)
    u = spec.permute_coords(v, perm)
    inner_raw, inner_dist, inner_perm = even_distance_cycle_power(m, n - 1, u[1:])
    inner = conjugate_cycle(inner_raw, inner_perm)
    if inner_dist % 2 != 0 or inner_dist == 0:
        raise AssertionError(f"inner distance {inner_dist} is not even and nonzero for {u[1:]}")
    at, dist = _staircase_case(m, m ** (n - 1), (u[0], inner_dist))
    return Cycle(spec, _lift(inner.arcs, m, at)), dist, perm


def any_cycle_power(m: int, n: int) -> Cycle:
    """Some hamiltonian cycle on (Z_m)^n, any m >= 2.

    It is staircase_a's morphism applied n-1 times to the m-cycle bytes(m):
    staircases are hamiltonian for every m with m | n, so no parity
    targeting is needed.  _any_cycle_distance gives its distances.
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    spec = TorusSpec.power(m, n)
    arcs = bytes(m)
    for _ in range(n - 1):
        arcs = _lift(arcs, m, m - 1)
    return Cycle(spec, arcs)


def _any_cycle_distance(m: int, v: Vertex) -> int:
    """Distance from 0 to v along any_cycle_power(m, len(v)), in closed form.

    Level by level this is staircase_a's j*m + r with j the inner distance:
    d(v) = d(v[1:]) * m + (v[0] + d(v[1:])) % m, and d((x,)) = x.
    """
    d = 0
    for x in reversed(v):
        d = d * m + (x + d) % m
    return d
