"""Symbolic arc words with nested powers, tracing, and hamiltonicity checks.

A word is a tree: a single symbol, a concatenation, or a power (w)^e with a
non-negative integer exponent, so run-length constructions like
(x1^2 x2)^9 stay small.  Exponent 0 is the empty word and is meaningful (for
cycle length 2 several building blocks degenerate to it).  Symbol labels are
generator indices, non-negative ints rendered x1..xk.

A certificate is flat: bytes of generator indices (PathCertificate.arcs),
the exact sequence its trace walked.  Constructions carry arcs as bytes
(Cycle.arcs), check them, and render them once as a run-length tree with
word_from_runs; the tree and its text are renderings of those bytes.  The
verifiers take a tree or flat arcs (bytes, or a checked list of ints); a
tree's length is checked before it is expanded.  Tree walks (_fold) run
C-level loops over each Concat's parts and one Python call per distinct
part, and free each level's values once the level above is built; the
text parser is one loop over regex tokens, with no recursion and no
function call per token.

Verification is exact: a visited set sized to the vertex count, no
probabilistic shortcuts.  The construction does not trace its intermediate
cycles; expect_path traces each certificate once before it leaves the
library, so the verifiers are the one place allowed to be boring and
thorough.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Union

from .torus import TorusSpec, Vertex


class ConstructionError(RuntimeError):
    """A construction produced something its own verifier rejected."""


@dataclass(frozen=True)
class Symbol:
    label: int

    def __post_init__(self) -> None:
        if type(self.label) is not int or self.label < 0:
            raise ValueError(f"label must be a non-negative int, got {self.label!r}")


@dataclass(frozen=True)
class Concat:
    parts: tuple["Word", ...]


@dataclass(frozen=True)
class Power:
    base: "Word"
    exponent: int

    def __post_init__(self) -> None:
        if type(self.exponent) is not int or self.exponent < 0:
            raise ValueError(f"exponent must be a non-negative int, got {self.exponent!r}")


Word = Union[Symbol, Concat, Power]


def _fold(w: Word, symbol: Callable, concat: Callable, power: Callable):
    """Evaluate a tree bottom-up.

    symbol(label) gives a leaf's value, concat(values) a Concat's from its
    parts' values, power(value, exponent) a Power's.  Each Concat evaluates
    its distinct parts once, memoised by id in a dict of its own, so a
    Concat of a million shared leaves costs C-level loops over its parts
    and one Python call per distinct part.  The dict is dropped as soon as
    the Concat's value is built, so a deep tree holds the values of one
    path of levels at a time, not every level's.
    """

    def value(node: Word):
        if isinstance(node, Symbol):
            return symbol(node.label)
        if isinstance(node, Concat):
            parts = node.parts
            ids = list(map(id, parts))
            values = {}
            for key, part in dict(zip(ids, parts)).items():
                values[key] = value(part)
            return concat(map(values.__getitem__, ids))
        if isinstance(node, Power):
            return power(value(node.base), node.exponent)
        raise TypeError(f"not a word: {node!r}")

    return value(w)


# flat arcs: bytes, or a list of non-negative ints such as _checked_flat returns
_FLAT = (bytes, list)


def flat_length(w: Word) -> int:
    """Length of the fully expanded word, computed without expanding."""
    return _fold(w, lambda g: 1, sum, operator.mul)


def expand(w: Word) -> list[int]:
    """Generator indices of the expansion, left to right."""
    return _fold(w, lambda g: [g], lambda xs: list(chain.from_iterable(xs)), operator.mul)


def _generator_arcs(spec: TorusSpec, w: Word | bytes | list[int]) -> bytes:
    """The expansion as bytes, every arc checked to be a generator index of spec.

    Callers check the length first, so a power bomb never gets here.
    """
    arcs = w if isinstance(w, _FLAT) else expand(w)
    if arcs and max(arcs) >= spec.k:
        raise ValueError(f"arc {max(arcs)} is not a generator index in [0, {spec.k})")
    return bytes(arcs)


def trace(spec: TorusSpec, start: Vertex, w: Word | bytes | list[int]) -> Iterator[Vertex]:
    """Yield the vertex sequence of a word tree or flat arcs starting at `start`.

    The first yielded vertex is `start`; one more follows per arc, which
    must be a generator index below spec.k.
    """
    spec.require_vertex(start)
    coords = list(start)
    moduli = spec.moduli
    k = spec.k
    yield start
    for g in w if isinstance(w, _FLAT) else expand(w):
        if g >= k:
            raise ValueError(f"symbol {g!r} is not a generator index in [0, {k})")
        coords[g] = (coords[g] + 1) % moduli[g]
        yield tuple(coords)


def _weights(moduli: tuple[int, ...]) -> list[int]:
    w = [1] * len(moduli)
    for i in range(len(moduli) - 2, -1, -1):
        w[i] = w[i + 1] * moduli[i + 1]
    return w


def _walk(
    spec: TorusSpec, start: Vertex, arcs: Iterable[int], marked: tuple[Vertex, ...] = ()
) -> tuple[int | None, Vertex]:
    """The one exact trace: walk validated generator arcs from `start`.

    Marks `start`, every vertex in `marked` and each vertex the walk lands
    on, in a bytearray keyed by flat index.  Stops at the first arc that
    lands on an already marked vertex and returns its 1-based position with
    that vertex; otherwise returns None with the final vertex.
    """
    moduli = spec.moduli
    weights = _weights(moduli)
    seen = bytearray(spec.vertex_count)
    for v in marked:
        seen[sum(c * wt for c, wt in zip(v, weights))] = 1
    coords = list(start)
    idx = sum(c * wt for c, wt in zip(coords, weights))
    seen[idx] = 1
    pos = 0
    for g in arcs:
        pos += 1
        c = coords[g] + 1
        if c == moduli[g]:
            c = 0
            idx -= (moduli[g] - 1) * weights[g]
        else:
            idx += weights[g]
        coords[g] = c
        if seen[idx]:
            return pos, tuple(coords)
        seen[idx] = 1
    return None, tuple(coords)


@dataclass(frozen=True)
class PathCertificate:
    """An endpoint-checked hamiltonian path claim.

    `arcs` holds the generator indices the trace walked: it is the
    certificate.  `word` is a rendering of it: the tree the claim was read
    from, the run-length tree a construction built from its arcs, or None
    for a claim given as flat arcs.  A tree refused by its length is never
    expanded, and its `arcs` stay empty, as do those of refused flat arcs
    with an entry past a byte.

    When `verified` is false, `failure` says what went wrong and, for
    repeats and endpoint mismatches, `failure_position`/`failure_vertex`
    locate the first defect in the trace.
    """

    spec: TorusSpec
    start: Vertex
    target: Vertex
    arcs: bytes
    word: Word | None
    verified: bool
    failure: str | None = None
    failure_position: int | None = None
    failure_vertex: Vertex | None = None

    @property
    def length(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class Cycle:
    """A cycle claim based at 0, flat: one generator index per byte of `arcs`.

    The builders in the cycles module return these unchecked; only
    `verify_ham_cycle` certifies that one is hamiltonian.
    """

    spec: TorusSpec
    arcs: bytes

    @property
    def base(self) -> Vertex:
        return self.spec.zero()

    @property
    def length(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class CycleRejection:
    spec: TorusSpec
    word: Word | bytes | list[int]
    reason: str
    position: int | None = None
    vertex: Vertex | None = None


def verify_ham_path(
    spec: TorusSpec, start: Vertex, target: Vertex, w: Word | bytes | list[int]
) -> PathCertificate:
    """Check that a word tree or flat arcs trace a hamiltonian path from start to target.

    Flat arcs are bytes or a list of non-negative ints.  Accepts exactly the
    words whose trace has vertex_count distinct vertices (hence all of them)
    and ends at target.  The length is checked first, so a tree is expanded,
    once, to bytes only when its length is right.  Failures are reported in
    the certificate, never raised.
    """
    spec.require_vertex(start)
    spec.require_vertex(target)
    count = spec.vertex_count
    flat = isinstance(w, _FLAT)
    word = None if flat else w
    n = len(w) if flat else flat_length(w)
    if n != count - 1:
        # refused flat arcs are kept when they fit in bytes; a refused tree is never expanded
        arcs = bytes(w) if flat and max(w, default=0) < 256 else b""
        return PathCertificate(
            spec, start, target, arcs, word, False,
            failure=f"length {n} != vertex count - 1 = {count - 1}",
        )
    arcs = _generator_arcs(spec, w)
    hit, stop = _walk(spec, start, arcs)
    if hit is not None:
        return PathCertificate(
            spec, start, target, arcs, word, False,
            failure="repeated vertex",
            failure_position=hit,
            failure_vertex=stop,
        )
    if stop != target:
        return PathCertificate(
            spec, start, target, arcs, word, False,
            failure=f"endpoint {stop} != target {target}",
            failure_position=n,
            failure_vertex=stop,
        )
    return PathCertificate(spec, start, target, arcs, word, True)


def verify_ham_cycle(spec: TorusSpec, w: Word | bytes | list[int]) -> Cycle | CycleRejection:
    """Check that a word tree or flat arcs trace a hamiltonian cycle based at 0.

    Accepts exactly the words of length vertex_count whose trace visits
    every vertex once and returns to 0.  Rejections are reported, not
    raised.
    """
    count = spec.vertex_count
    n = len(w) if isinstance(w, _FLAT) else flat_length(w)
    if n != count:
        return CycleRejection(spec, w, f"length {n} != vertex count {count}")
    zero = spec.zero()
    arcs = _generator_arcs(spec, w)
    # count arcs over count vertices must land on a marked vertex by step count
    hit, stop = _walk(spec, zero, arcs)
    if hit < count:
        return CycleRejection(spec, w, "revisits a vertex early", hit, stop)
    if stop != zero:
        return CycleRejection(spec, w, "does not close at 0", hit, stop)
    return Cycle(spec, arcs)


def expect_path(
    spec: TorusSpec, start: Vertex, target: Vertex, w: Word | bytes | list[int]
) -> PathCertificate:
    cert = verify_ham_path(spec, start, target, w)
    if not cert.verified:
        raise ConstructionError(
            f"internal path construction failed on {spec.moduli}: {cert.failure}"
        )
    return cert


def cycle_distance(c: Cycle, v: Vertex) -> int:
    """Index of v along the trace of a hamiltonian cycle from the base vertex 0."""
    spec = c.spec
    spec.require_vertex(v)
    if v == c.base:
        return 0
    # a hamiltonian cycle repeats no vertex before it closes, so the first hit is v
    hit, _ = _walk(spec, c.base, c.arcs, (v,))
    return hit


# --- serialization ----------------------------------------------------------
#
# Nested text form, e.g. ((x1^1 x2^2)^1 (x1^1 x2 x1)^6 (x1^1 x2^2)^1 x1^1 x2).
# Generator indices render as x1..xk; any other letter token is an error.
# The flat JSON form is just a list of generator indices.  Both forms
# round-trip through the Word tree exactly.  The parser is one loop over
# tokens with an explicit stack of open groups.

# One token per generator with its exponent chain (x3^2, x1 ^ 2^3), per
# group exponent, per other letter or digit run, and per bracket or bare ^.
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:\s*\^\s*\d+)*|\^\s*\d+|\d+|[()^]")
_CARET_RE = re.compile(r"\s*\^\s*")
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z()^]")
_GEN_RE = re.compile(r"x[0-9]+\Z")


def word_to_text(w: Word) -> str:
    return _fold(
        w,
        lambda g: f"x{g + 1}",
        lambda texts: "(" + " ".join(texts) + ")",
        lambda text, e: f"{text}^{e}",
    )


class _Leaves(dict):
    """Leaf token text -> its node, built on first sight, so equal leaves share one node."""

    def __missing__(self, token: str) -> Word:
        name, *exponents = _CARET_RE.split(token)
        if not _GEN_RE.match(name):
            raise ValueError(f"unexpected token {name!r} in word text")
        index = int(name[1:])
        if index < 1:
            raise ValueError(f"generator token {name!r} must be x1 or higher")
        node: Word = self[name] if exponents else Symbol(index - 1)
        for e in exponents:
            node = Power(node, int(e))
        self[token] = node
        return node


def word_from_text(text: str) -> Word:
    """Parse the nested text form, iteratively: nesting depth costs no recursion."""
    if _BAD_CHAR_RE.search(text):
        raise ValueError("unrecognized characters in word text")
    leaves = _Leaves()
    groups: list[list[Word]] = []
    items: list[Word] = []
    for tok in _TOKEN_RE.findall(text):
        c = tok[0]
        if c == "(":
            groups.append(items)
            items = []
        elif c == ")":
            if not groups:
                raise ValueError("unbalanced parenthesis in word text")
            node = Concat(tuple(items))
            items = groups.pop()
            items.append(node)
        elif c == "^":
            # a leaf token holds its own exponents, so a ^ follows ")", a ^e or nothing
            if not items:
                raise ValueError("unexpected token '^' in word text")
            if tok == "^":
                raise ValueError("exponent must be a non-negative integer")
            items[-1] = Power(items[-1], int(tok[1:].lstrip()))
        else:
            items.append(leaves[tok])
    if groups:
        raise ValueError("unbalanced parenthesis in word text")
    if len(items) == 1:
        return items[0]
    return Concat(tuple(items))


def _checked_flat(arcs: Iterable[int]) -> list[int]:
    """The flat form as a list, every entry checked to be a non-negative int in C loops.

    The verifiers take the checked list as flat arcs.
    """
    arcs = list(arcs)
    # set() would merge 1, 1.0 and True, so the check is on the types
    if not set(map(type, arcs)) <= {int} or min(arcs, default=0) < 0:
        bad = next(g for g in arcs if type(g) is not int or g < 0)
        raise ValueError(f"flat form entries must be non-negative ints, got {bad!r}")
    return arcs


def word_from_flat(arcs: Iterable[int]) -> Concat:
    """Concat of one Symbol per arc; equal arcs share one node."""
    arcs = _checked_flat(arcs)
    nodes = {g: Symbol(g) for g in set(arcs)}
    return Concat(tuple(map(nodes.__getitem__, arcs)))


def word_from_runs(arcs: bytes, g: int) -> Concat:
    """Certificate tree of flat arcs, run-length encoding generator g.

    Each maximal run of g becomes Power(Symbol(g), e), or Symbol(g) when
    e = 1, and every other arc becomes a Symbol.  Equal runs share one node.
    """
    tokens = re.findall(re.escape(bytes([g])) + b"+|.", arcs, re.DOTALL)
    nodes = {t: Power(Symbol(g), len(t)) if len(t) > 1 else Symbol(t[0]) for t in set(tokens)}
    return Concat(tuple(map(nodes.__getitem__, tokens)))
