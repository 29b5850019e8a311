"""Group arithmetic for products of directed cycles.

A torus here is the cartesian product of k directed cycles with lengths
m_1, ..., m_k.  Its vertices are tuples of residues, one per cycle, and the
digraph has exactly one outgoing arc per coordinate: v -> v + e_i, where e_i
bumps coordinate i by one modulo m_i.  Vertices are stored reduced, and every
operation reduces eagerly.  Everything is a pure function on immutable data,
so values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator

Vertex = tuple[int, ...]
Perm = tuple[int, ...]

# vertex bounds of the oracle's exhaustive searches: the default and the
# most a caller may ask for.  They live here so the CLI's help can print
# them without importing the oracle.
DEFAULT_CAP = 32
HARD_CAP = 64


class Record:
    """Base of the frozen records: a subclass's fields are its annotations, in order.

    As in a dataclass, a class attribute named after a field is its default,
    and such fields come last; an instance not given one reads it from the
    class.  A record takes its fields by position or keyword, then runs
    __post_init__; compares and hashes by its fields, only with records of
    its own class; repr()s as a dataclass does; and refuses assignment and
    deletion.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._required = sum(name not in cls.__dict__ for name in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields, n = self._fields, len(args)
        if n > len(fields) or kwargs and not kwargs.keys() <= set(fields[n:]):
            raise TypeError(f"{type(self).__name__}() got too many or unexpected arguments")
        if n < self._required and not kwargs.keys() >= set(fields[n : self._required]):
            raise TypeError(f"{type(self).__name__}() needs all of {fields[: self._required]}")
        values = self.__dict__
        values.update(zip(fields, args))
        if kwargs:
            values.update(kwargs)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TorusSpec(Record):
    """Cycle lengths of the ambient product digraph (every m_i >= 2)."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        moduli = tuple(self.moduli)
        object.__setattr__(self, "moduli", moduli)
        if not moduli:
            raise ValueError("at least one cycle length is required")
        for m in moduli:
            # int() would silently truncate 3.9 to the wrong torus
            if not isinstance(m, int):
                raise ValueError(f"cycle lengths must be integers, got {m!r}")
            if m < 2:
                raise ValueError(f"cycle lengths must be >= 2, got {m}")
        count = 1
        for m in moduli:
            count *= m
            # exact vertex counts are load-bearing for verification and the
            # oracle, so overflow is a constructor error, never a silent wrap
            if count > sys.maxsize:
                raise ValueError("vertex count overflows the platform integer size")
        object.__setattr__(self, "_count", count)

    @classmethod
    def power(cls, m: int, k: int) -> TorusSpec:
        """The k-th cartesian power of a directed m-cycle."""
        if k < 1:
            raise ValueError(f"power needs k >= 1, got {k}")
        if k >= 64:
            # m >= 2 gives m^k >= 2^64: check m alone, before building k copies of it
            cls((m,))
            raise ValueError("vertex count overflows the platform integer size")
        return cls((m,) * k)

    @property
    def k(self) -> int:
        return len(self.moduli)

    @property
    def vertex_count(self) -> int:
        return self._count  # type: ignore[attr-defined]

    @property
    def moduli_gcd(self) -> int:
        return math.gcd(*self.moduli)

    def zero(self) -> Vertex:
        return (0,) * self.k

    def vertices(self) -> Iterator[Vertex]:
        """All vertices in lexicographic coordinate order."""
        return itertools.product(*(range(m) for m in self.moduli))

    def is_vertex(self, v) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == self.k
            and all(type(c) is int and 0 <= c < m for c, m in zip(v, self.moduli))
        )

    def require_vertex(self, v) -> Vertex:
        if not self.is_vertex(v):
            raise ValueError(f"{v!r} is not a reduced vertex of {self}")
        return v

    def add_step(self, v: Vertex, g: int) -> Vertex:
        """Follow the arc that advances coordinate g by one."""
        if not 0 <= g < self.k:
            raise ValueError(f"generator index {g} out of range for k={self.k}")
        return v[:g] + ((v[g] + 1) % self.moduli[g],) + v[g + 1 :]

    def subtract(self, u: Vertex, v: Vertex) -> Vertex:
        return tuple((a - b) % m for a, b, m in zip(u, v, self.moduli))

    def directed_distance(self, u: Vertex, v: Vertex) -> int:
        """Length of the shortest directed path from u to v.

        Each coordinate must advance independently around its own cycle, so
        the distance is the sum of the forward coordinate gaps.
        """
        return sum((b - a) % m for a, b, m in zip(u, v, self.moduli))

    def ham_path_congruence_ok(self, u: Vertex, v: Vertex) -> bool:
        """Necessary condition for a hamiltonian path from u to v.

        All directed u->v paths have lengths congruent modulo the gcd of the
        cycle lengths, and a hamiltonian path has length vertex_count - 1,
        which is -1 modulo every m_i.  So d(u, v) = -1 (mod gcd) is forced.
        """
        g = self.moduli_gcd
        return self.directed_distance(u, v) % g == (g - 1) % g


def transposition(k: int, a: int, b: int) -> Perm:
    out = list(range(k))
    out[a], out[b] = out[b], out[a]
    return tuple(out)
