"""Symbolic arc words with nested powers, tracing, and hamiltonicity checks.

A word is a tree: a single symbol, a concatenation, or a power (w)^e with a
non-negative integer exponent, so run-length constructions like
(x1^2 x2)^9 stay small.  Exponent 0 is the empty word and is meaningful (for
cycle length 2 several building blocks degenerate to it).  Symbol labels are
generator indices, non-negative ints rendered x1..xk.

Trees are the certificate and text format.  Constructions carry arcs flat,
as bytes of generator indices (Cycle.arcs), and build a certificate tree
once with word_from_runs.

Verification is exact: a visited set sized to the vertex count, no
probabilistic shortcuts.  The construction does not trace its intermediate
cycles; expect_path traces each certificate once before it leaves the
library, so the verifiers are the one place allowed to be boring and
thorough.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

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

def flat_length(w: Word) -> int:
    """Length of the fully expanded word, computed without expanding."""
    if isinstance(w, Symbol):
        return 1
    if isinstance(w, Concat):
        return sum(flat_length(p) for p in w.parts)
    if isinstance(w, Power):
        return w.exponent * flat_length(w.base)
    raise TypeError(f"not a word: {w!r}")


def expand(w: Word) -> list[int]:
    """Generator indices of the expansion, left to right.

    List repetition keeps Power expansion at C speed.
    """
    if isinstance(w, Symbol):
        return [w.label]
    if isinstance(w, Concat):
        out: list[int] = []
        for p in w.parts:
            out.extend(expand(p))
        return out
    if isinstance(w, Power):
        return expand(w.base) * w.exponent
    raise TypeError(f"not a word: {w!r}")


def _generator_arcs(spec: TorusSpec, w: Word | bytes) -> list[int] | bytes:
    arcs = w if isinstance(w, bytes) else expand(w)
    if arcs and max(arcs) >= spec.k:
        raise ValueError(f"arc {max(arcs)} is not a generator index in [0, {spec.k})")
    return arcs


def trace(spec: TorusSpec, start: Vertex, w: Word) -> Iterator[Vertex]:
    """Yield the vertex sequence of the word starting at `start`.

    The first yielded vertex is `start`; one more follows per expanded
    symbol, which must be a generator index below spec.k.
    """
    spec.require_vertex(start)
    coords = list(start)
    moduli = spec.moduli
    k = spec.k
    yield start
    for g in expand(w):
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

    When `verified` is false, `failure` says what went wrong and, for
    repeats and endpoint mismatches, `failure_position`/`failure_vertex`
    locate the first defect in the trace.
    """

    spec: TorusSpec
    start: Vertex
    target: Vertex
    word: Word
    verified: bool
    failure: str | None = None
    failure_position: int | None = None
    failure_vertex: Vertex | None = None

    @property
    def length(self) -> int:
        return flat_length(self.word)


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
    word: Word | bytes
    reason: str
    position: int | None = None
    vertex: Vertex | None = None


def verify_ham_path(spec: TorusSpec, start: Vertex, target: Vertex, w: Word) -> PathCertificate:
    """Check that the word traces a hamiltonian path from start to target.

    Accepts exactly the words whose trace has vertex_count distinct vertices
    (hence all of them) and ends at target.  Failures are reported in the
    certificate, never raised.
    """
    spec.require_vertex(start)
    spec.require_vertex(target)
    count = spec.vertex_count
    n = flat_length(w)
    if n != count - 1:
        return PathCertificate(
            spec, start, target, w, False,
            failure=f"length {n} != vertex count - 1 = {count - 1}",
        )
    hit, stop = _walk(spec, start, _generator_arcs(spec, w))
    if hit is not None:
        return PathCertificate(
            spec, start, target, w, False,
            failure="repeated vertex",
            failure_position=hit,
            failure_vertex=stop,
        )
    if stop != target:
        return PathCertificate(
            spec, start, target, w, False,
            failure=f"endpoint {stop} != target {target}",
            failure_position=n,
            failure_vertex=stop,
        )
    return PathCertificate(spec, start, target, w, True)


def verify_ham_cycle(spec: TorusSpec, w: Word | bytes) -> Cycle | CycleRejection:
    """Check that a word tree or flat arcs trace a hamiltonian cycle based at 0.

    Accepts exactly the words of length vertex_count whose trace visits
    every vertex once and returns to 0.  Rejections are reported, not
    raised.
    """
    count = spec.vertex_count
    n = len(w) if isinstance(w, bytes) else flat_length(w)
    if n != count:
        return CycleRejection(spec, w, f"length {n} != vertex count {count}")
    zero = spec.zero()
    arcs = bytes(_generator_arcs(spec, w))
    # count arcs over count vertices must land on a marked vertex by step count
    hit, stop = _walk(spec, zero, arcs)
    if hit < count:
        return CycleRejection(spec, w, "revisits a vertex early", hit, stop)
    if stop != zero:
        return CycleRejection(spec, w, "does not close at 0", hit, stop)
    return Cycle(spec, arcs)


def expect_path(spec: TorusSpec, start: Vertex, target: Vertex, w: Word) -> PathCertificate:
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
# round-trip through the Word tree exactly.

_TOKEN_RE = re.compile(r"\(|\)|\^|\d+|[A-Za-z][A-Za-z0-9]*")
_GEN_RE = re.compile(r"x[0-9]+\Z")


def word_to_text(w: Word) -> str:
    def item(node: Word) -> str:
        if isinstance(node, Symbol):
            return f"x{node.label + 1}"
        if isinstance(node, Concat):
            return "(" + " ".join(item(p) for p in node.parts) + ")"
        if isinstance(node, Power):
            return f"{item(node.base)}^{node.exponent}"
        raise TypeError(f"not a word: {node!r}")

    return item(w)


def word_from_text(text: str) -> Word:
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError("unrecognized characters in word text")
    pos = 0
    # equal leaves share one node; Concat bases are not hashed (that hash recurses)
    symbols: dict[str, Symbol] = {}
    powers: dict[tuple[str, int], Power] = {}

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def parse_item() -> Word:
        nonlocal pos
        tok = peek()
        if tok == "(":
            pos += 1
            parts = []
            while peek() not in (")", None):
                parts.append(parse_item())
            if peek() != ")":
                raise ValueError("unbalanced parenthesis in word text")
            pos += 1
            node: Word = Concat(tuple(parts))
        elif tok is not None and _GEN_RE.match(tok):
            pos += 1
            node = symbols.get(tok)
            if node is None:
                index = int(tok[1:])
                if index < 1:
                    raise ValueError(f"generator token {tok!r} must be x1 or higher")
                node = symbols[tok] = Symbol(index - 1)
        else:
            raise ValueError(f"unexpected token {tok!r} in word text")
        while peek() == "^":
            pos += 1
            exp = peek()
            if exp is None or not exp.isdigit():
                raise ValueError("exponent must be a non-negative integer")
            pos += 1
            if isinstance(node, Symbol):
                key = (tok, int(exp))
                if key not in powers:
                    powers[key] = Power(node, key[1])
                node = powers[key]
            else:
                node = Power(node, int(exp))
        return node

    items = []
    while peek() is not None:
        if peek() == ")":
            raise ValueError("unbalanced parenthesis in word text")
        items.append(parse_item())
    if len(items) == 1:
        return items[0]
    return Concat(tuple(items))


def word_from_flat(arcs: Iterable[int]) -> Concat:
    """Concat of one Symbol per arc; equal arcs share one node."""
    arcs = list(arcs)
    for g in arcs:
        if type(g) is not int or g < 0:
            raise ValueError(f"flat form entries must be non-negative ints, got {g!r}")
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
