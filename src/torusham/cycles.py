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
coordinate, staircase_a sends g to sigma_a(g) = 0^(m-1) (g+1) and
staircase_b sends it to sigma_b(g) = (g+1) 0^(m-1); _lift applies either
one as a single slice assignment, and the staircases themselves are the
lifts of the m-cycle bytes(n).

Every power cycle here is a lift chain relabelled once: _lift_chain lifts
the seed bytes(m) once per level by an offset, m-1 for sigma_a or 0 for sigma_b,
and a permutation of the generators relabels the result.  any_cycle_power
takes sigma_a at every level and no relabel.  even_distance_cycle_power
unrolls the induction into offsets and one arc map perm; the chain reaches
(v[p] for p in perm), so relabelled by perm it reaches v.  Each level
above the base needs its inner target nonzero.  Moving the last nonzero
coordinate of v to the end does that at every level at once, since
dropping first coordinates keeps it last; for n = 2 there is no such move.
A zero target has no nonzero coordinate and ends at sigma_a levels with d = 0
all the way up.

One recurrence then gives every level, the base included.  Start from the
1-dimensional distance d = j, the last coordinate of the permuted target,
and at each level, with x its coordinate and r = (x + d) % m, take

    d + r even   -> sigma_a, d = d*m + r
    otherwise    -> sigma_b, d = (d-1)*m + r

At the base (i, j) this is class (1) when j + r is even and class (2)
otherwise, except when i + r is even: then perm also swaps its last two
entries, so the base is the swapped target (j, i), reached by sigma_a at
i*m + r.  The sigma_b base is class (2): with j + r and i + r both odd, j = 0
would give r = i and i + r even, and r = 0 would need the even sum of the
odd i and j to be 0 or the odd m.  Above the base the inner distance d is
even and nonzero, which is class (3).

Cycles are flat bytes of generator indices (Cycle.arcs).  The builders here
return them unchecked: the tests trace every builder, and the paths module
traces every certificate it builds from them.
"""

from __future__ import annotations

from .torus import TorusSpec, Perm, Vertex
from .words import Cycle


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


def _arc_table(perm: Perm) -> bytes:
    """bytes.translate table sending generator g to perm[g]."""
    return bytes(perm) + bytes(range(len(perm), 256))


def _lift_chain(m: int, offsets) -> bytes:
    """Lift the m-cycle bytes(m) once per offset: m-1 is sigma_a, 0 is sigma_b.

    Level i (from 0) lifts the arcs by _lift into dimension i + 2; nothing
    is relabelled.
    """
    arcs = bytes(m)
    for at in offsets:
        arcs = _lift(arcs, m, at)
    return arcs


def _even_distance_levels(m: int, v: Vertex) -> tuple[tuple[int, ...], int, Perm]:
    """(offsets, distance, perm) of the even-distance cycle to v, for odd m and len(v) >= 2.

    perm is an arc map (arc g becomes perm[g]): _lift_chain(m, offsets)
    reaches (v[p] for p in perm) at the distance, and relabelled by perm it
    reaches v.  The module docstring gives the rules.  A zero target keeps
    the identity and takes sigma_a at every level, at distance 0.
    """
    perm = list(range(len(v)))
    if len(v) > 2:
        # the last nonzero coordinate moves to the end, and stays last at every inner level
        last = max((idx for idx, c in enumerate(v) if c), default=len(v) - 1)
        perm[last], perm[-1] = perm[-1], perm[last]
    i, j = v[perm[-2]], v[perm[-1]]
    r = (i + j) % m
    if (j + r) % 2 and (i + r) % 2 == 0:
        # the base (i, j) is reached on the swapped target (j, i)
        perm[-2], perm[-1] = perm[-1], perm[-2]
    *xs, d = (v[p] for p in perm)
    offsets = []
    for level, x in enumerate(reversed(xs)):
        # above the base only a zero target has inner distance 0, and it stays on sigma_a
        if level and (d % 2 != 0 or (d == 0 and x != 0)):
            raise AssertionError(f"inner distance {d} is odd, or 0 under x = {x}")
        r = (x + d) % m
        if (d + r) % 2 == 0:
            offsets.append(m - 1)
            d = d * m + r
        else:
            offsets.append(0)
            d = (d - 1) * m + r
    return tuple(offsets), d, tuple(perm)


def even_distance_cycle_power(m: int, n: int, v: Vertex) -> tuple[Cycle, int]:
    """Hamiltonian cycle on (Z_m)^n with even distance to v, for odd m >= 3.

    Returns (cycle, distance) with the cycle's distance from 0 to v itself:
    _even_distance_levels plans the offsets and perm, _lift_chain lifts by
    the offsets, and one relabel by perm carries the chain to v.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"even-distance cycles need odd m >= 3, got {m}")
    if n < 2:
        raise ValueError(f"even-distance cycles need dimension n >= 2, got {n}")
    spec = TorusSpec.power(m, n)
    spec.require_vertex(v)
    offsets, d, perm = _even_distance_levels(m, v)
    return Cycle(spec, _lift_chain(m, offsets).translate(_arc_table(perm))), d


def any_cycle_power(m: int, n: int) -> Cycle:
    """Some hamiltonian cycle on (Z_m)^n, any m >= 2.

    It is staircase_a's morphism applied n-1 times to the m-cycle bytes(m):
    staircases are hamiltonian for every m with m | n, so no parity
    targeting is needed.  _any_cycle_distance gives its distances.
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    return Cycle(TorusSpec.power(m, n), _lift_chain(m, (m - 1,) * (n - 1)))


def _any_cycle_distance(m: int, v: Vertex) -> int:
    """Distance from 0 to v along any_cycle_power(m, len(v)), in closed form.

    Level by level this is staircase_a's j*m + r with j the inner distance:
    d(v) = d(v[1:]) * m + (v[0] + d(v[1:])) % m, and d((x,)) = x.
    """
    d = 0
    for x in reversed(v):
        d = d * m + (x + d) % m
    return d
