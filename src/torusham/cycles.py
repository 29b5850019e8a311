"""Hamiltonian cycles with parity-controlled distance to a prescribed target.

The 2-dimensional workhorses are the staircase cycles on Z_m x Z_n with m
dividing n:

    S_a = (x1^(m-1) x2)^n        S_b = (x2 x1^(m-1))^n

Both wind once around the second cycle per block while stepping the first
coordinate backward (net -1 per block), and they are hamiltonian exactly
because m divides n.  For a target v = (i, j) write r = (i + j) % m.  Then
the distance from 0 to v along S_a is j*m + r, and along S_b it is
(j-1)*m + 1 + (r-1) whenever j and r are nonzero.  For odd m this gives an
even distance in each of three target classes:

    (1) j + r even           -> S_a
    (2) j != 0 and r != 0    -> S_b   (when j + r is odd)
    (3) j even and nonzero   -> reduces to (1) or (2)

Higher powers (Z_m)^n are handled by induction: roll a hamiltonian cycle of
(Z_m)^(n-1) into the fibers of Z_m x Z_{m^(n-1)}, and pick the
2-dimensional cycle through class (3), since the inner distance is even and
nonzero by induction.  The staircase vertex (i, j) becomes i*e_0 + c_j,
where c_j is the j-th inner vertex, so the staircase distance to
(v_0, inner distance) is the distance to v.

On arcs the roll is a morphism.  With g+1 the inner arc g moved up one
coordinate, S_a sends g to sigma_a(g) = 0^(m-1) (g+1) and S_b sends it to
sigma_b(g) = (g+1) 0^(m-1); _lift applies either one as a single slice
assignment, and the staircases themselves are the lifts of the m-cycle
bytes(n).

Every power cycle here is a lift chain relabelled once: _lift_chain lifts
the seed bytes(m) once per level by an offset, m-1 for sigma_a or 0 for sigma_b,
and a permutation of the generators relabels the result.  sigma_a at every
level and no relabel gives a cycle of every (Z_m)^n, whose distances
_any_cycle_distance gives in closed form.  For odd m, _even_distance_levels
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

Cycles are flat bytes of generator indices.  The helpers here build them
unchecked; the paths module traces every certificate it builds from them.
"""

from __future__ import annotations

from .torus import Perm, Vertex


# bytes.translate table sending generator g to g + 1
_SHIFT = bytes(range(1, 256)) + b"\0"


def _lift(inner: bytes, m: int, at: int) -> bytes:
    """Roll inner arcs through a staircase: arc g becomes m arcs, g+1 at `at`.

    at = m-1 is S_a's morphism 0^(m-1) (g+1); at = 0 is S_b's
    (g+1) 0^(m-1).
    """
    out = bytearray(m * len(inner))
    out[at::m] = inner.translate(_SHIFT)
    return bytes(out)


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


def _any_cycle_distance(m: int, v: Vertex) -> int:
    """Distance from 0 to v along _lift_chain(m, (m-1,) * (len(v)-1)), in closed form.

    Level by level this is S_a's j*m + r with j the inner distance:
    d(v) = d(v[1:]) * m + (v[0] + d(v[1:])) % m, and d((x,)) = x.
    """
    d = 0
    for x in reversed(v):
        d = d * m + (x + d) % m
    return d
