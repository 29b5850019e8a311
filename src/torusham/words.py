"""Symbolic arc words with nested powers, tracing, and hamiltonicity checks.

A word is a tree: a single symbol, a concatenation, or a power (w)^e with a
non-negative integer exponent, so run-length constructions like
(x1^2 x2)^9 stay small.  Exponent 0 is the empty word and is meaningful (for
cycle length 2 several building blocks degenerate to it).  Symbol labels are
generator indices, non-negative ints rendered x1..xk.

A certificate is flat: bytes of generator indices (PathCertificate.arcs),
the exact sequence its trace walked.  The construction carries arcs as
bytes and checks them once; their nested text is rendered straight from
the bytes (text_from_arcs), and their run-length tree only on demand.
Trees are output only: the verifiers take nested text or flat arcs (bytes,
or a list of ints word_from_flat checks), and raise TypeError for anything
else.  arcs_from_text is the one expander of nested words: it parses text
straight to bytes and checks each length against the budget before every
repetition.  The text parsers never recurse, and the bytes parser loops in
Python once per parenthesis and distinct leaf token.  The tree reader
word_from_text and the run-length encoder word_from_runs remain for
PathCertificate.word and as the reference the tests hold the codec to.

Verification is exact: a visited set sized to the vertex count, no
probabilistic shortcuts.  The one walk (_walk) marks arcs slice by slice
with no check per arc and confirms each slice by one count of the unmarked
vertices, which falls short exactly when the slice repeats a vertex; only
such a slice is walked again, from a snapshot, checking every arc to locate
the first repeat.  Its flat index gives stride 1 to g0, the generator most
frequent in the first arcs, and a slice made mostly of long runs of g0 (a
certificate's a^(m-2) blocks) is marked run by run, one slice assignment
per run, instead of arc by arc.  The construction does not trace its
intermediate cycles; expect_path traces each certificate once before it
leaves the library, so the verifiers are the one place allowed to be
boring and thorough.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache, reduce

from .torus import Record, TorusSpec, Vertex


class ConstructionError(RuntimeError):
    """A construction produced something its own verifier rejected."""


class Symbol(Record):
    label: int

    def __post_init__(self) -> None:
        if type(self.label) is not int or self.label < 0:
            raise ValueError(f"label must be a non-negative int, got {self.label!r}")


class Concat(Record):
    parts: tuple["Word", ...]


class Power(Record):
    base: "Word"
    exponent: int

    def __post_init__(self) -> None:
        if type(self.exponent) is not int or self.exponent < 0:
            raise ValueError(f"exponent must be a non-negative int, got {self.exponent!r}")


# a types.UnionType: typing.Union[...] would keep these classes, and with them
# this module, alive in typing's cache after the module is dropped and imported again
Word = Symbol | Concat | Power


# flat arcs: bytes, or a list of ints that _claim checks by word_from_flat
_FLAT = (bytes, list)
# every byte value, in order: its first k are the generator indices of k cycles
_BYTE_VALUES = bytes(range(256))


def trace(spec: TorusSpec, start: Vertex, arcs: bytes | list[int]) -> Iterator[Vertex]:
    """Yield the vertex sequence of flat arcs starting at `start`.

    The first yielded vertex is `start`; one more follows per arc, which
    must be a generator index below spec.k.
    """
    spec.require_vertex(start)
    coords = list(start)
    moduli = spec.moduli
    k = spec.k
    yield start
    for g in arcs:
        if not 0 <= g < k:
            raise ValueError(f"symbol {g!r} is not a generator index in [0, {k})")
        coords[g] = (coords[g] + 1) % moduli[g]
        yield tuple(coords)


@lru_cache(maxsize=64)
def _rule(moduli: tuple[int, ...], order: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(weights, last, wrap) per generator: strides in the given order, from 1, and the wrap steps."""
    weights = [0] * len(moduli)
    stride = 1
    for g in order:
        weights[g], stride = stride, stride * moduli[g]
    return tuple(weights), tuple(m - 1 for m in moduli), tuple((m - 1) * wt for m, wt in zip(moduli, weights))


def _walk(spec: TorusSpec, start: Vertex, arcs: bytes) -> tuple[int | None, Vertex]:
    """The one exact trace: walk validated generator arcs, as bytes, from `start`.

    Marks `start` and each vertex the walk lands on, in a bytearray keyed
    by flat index.  Stops at the first arc that lands on an already marked
    vertex and returns its 1-based position with that vertex; otherwise
    returns None with the final vertex.

    The flat index may be any bijection, since positions and vertices come
    from the coordinates.  The generators take strides in order of their
    counts in the first _HEAD arcs, so g0, the most frequent, has stride
    1: each line of g0 (the m0 vertices that differ only in coordinate g0)
    is a contiguous range of the bytearray.

    The arcs are walked in at most 16 slices of at least _SLICE arcs.  A
    slice is marked with no check per arc, then confirmed by one count: a
    slice that lands only on unmarked vertices turns exactly one zero into
    a one per arc, and any landing on a marked vertex leaves fewer zeros.
    A slice is marked arc by arc, unless m0 > _RUNS and its g0 arcs
    outnumber its other arcs _RUNS times over: then it is marked run by
    run, each maximal run of g0 by one slice assignment (two where it wraps
    its line) and each other arc on its own.  A run of m0 or more marks its
    whole line, its start included, so the count falls short.  Only a slice
    whose count falls short is walked again, by _first_repeat.
    """
    moduli = spec.moduli
    order = tuple(sorted(range(spec.k), key=arcs[:_HEAD].count, reverse=True))
    rule = weights, last, wrap = _rule(moduli, order)
    g0 = order[0]
    m0 = moduli[g0]
    seen = bytearray(spec.vertex_count)
    coords = list(start)
    idx = sum(c * wt for c, wt in zip(coords, weights))
    seen[idx] = 1
    free = len(seen) - 1  # every vertex but start
    size = max(_SLICE, -(-len(arcs) // 16))
    snap = bytearray()
    for lo in range(0, len(arcs), size):
        part = arcs[lo : lo + size]
        snap[:] = seen
        at, at_coords = idx, coords[:]
        # runs of a path are shorter than m0, so with m0 <= _RUNS they are too short to pay
        others = part.translate(None, _BYTE_VALUES[g0 : g0 + 1]) if m0 > _RUNS else part
        if len(part) - len(others) <= _RUNS * len(others):
            for g in part:
                c = coords[g]
                if c == last[g]:
                    coords[g] = 0
                    idx -= wrap[g]
                else:
                    coords[g] = c + 1
                    idx += weights[g]
                seen[idx] = 1
        else:
            # a bytearray: a slice of bytes would be copied into one per assignment
            ones = bytearray(b"\1" * m0)
            # the g0 run before each other arc, by a table that maps g0 to 0 and any other arc to 1
            runs = list(map(len, part.translate(b"\1" * g0 + b"\0" + b"\1" * (255 - g0)).split(b"\1")))
            if runs[-1]:
                # a last run of r: one of r - 1, then a g0 arc
                runs[-1] -= 1
                others += _BYTE_VALUES[g0 : g0 + 1]
            for r, g in zip(runs, others):
                if r:
                    c = coords[g0]
                    if c + r < m0:
                        seen[idx + 1 : idx + r + 1] = ones[:r]
                        idx += r
                        coords[g0] = c + r
                    else:
                        line = idx - c
                        if r < m0:
                            seen[idx + 1 : line + m0] = ones[c + 1 :]
                            c += r - m0
                            seen[line : line + c + 1] = ones[: c + 1]
                        else:
                            seen[line : line + m0] = ones
                            c = (c + r) % m0
                        idx = line + c
                        coords[g0] = c
                c = coords[g]
                if c == last[g]:
                    coords[g] = 0
                    idx -= wrap[g]
                else:
                    coords[g] = c + 1
                    idx += weights[g]
                seen[idx] = 1
        free -= len(part)
        if seen.count(0) != free:
            return _first_repeat(part, lo, snap, at, at_coords, rule)
    return None, tuple(coords)


def _first_repeat(
    part: bytes, lo: int, seen: bytearray, idx: int, coords: list[int], rule: tuple
) -> tuple[int, Vertex]:
    """(position, vertex) of the first repeat in a slice of _walk whose count fell short.

    Walks the slice at arc offset lo again from its start state (the
    snapshot `seen`, the flat index and the coordinates), with _walk's
    (weights, last, wrap) rule, checking each landing.  A slice whose
    count falls short repeats a vertex unless its marks were wrong, and
    then this raises rather than let the walk pass.
    """
    weights, last, wrap = rule
    for pos, g in enumerate(part, lo + 1):
        c = coords[g]
        if c == last[g]:
            coords[g] = 0
            idx -= wrap[g]
        else:
            coords[g] = c + 1
            idx += weights[g]
        if seen[idx]:
            return pos, tuple(coords)
        seen[idx] = 1
    raise AssertionError("a slice fell short of its count but repeats no vertex")


class PathCertificate(Record):
    """An endpoint-checked hamiltonian path claim.

    `arcs` holds the generator indices the trace walked: it is the
    certificate.  `claim` is the canonical text of a claim read from nested
    text, or None for flat arcs and for a construction, whose `runs` names
    the generator its rendering writes in runs.  Text refused by its length
    is never expanded, and its `arcs` stay empty, as do those of refused
    flat arcs with an entry past a byte.

    When `verified` is false, `failure` says what went wrong and, for
    repeats and endpoint mismatches, `failure_position`/`failure_vertex`
    locate the first defect in the trace.
    """

    spec: TorusSpec
    start: Vertex
    target: Vertex
    arcs: bytes
    claim: str | None
    verified: bool
    failure: str | None = None
    failure_position: int | None = None
    failure_vertex: Vertex | None = None
    runs: int | None = None

    @property
    def length(self) -> int:
        return len(self.arcs)

    @cached_property
    def word(self) -> Word | None:
        """A construction's run-length tree, built on first access; None for a claim."""
        return None if self.runs is None else word_from_runs(self.arcs, self.runs)

    @property
    def text(self) -> str:
        """The nested text: a text claim's canonical text, else the arcs'."""
        return text_from_arcs(self.arcs, self.runs) if self.claim is None else self.claim

    def text_slices(self) -> Iterator[str]:
        """The pieces of `text`, in order: the arcs' text rendered slice by slice, else the whole text."""
        if self.claim is None:
            return _text_slices(self.arcs, self.runs)
        return iter((self.text,))


class Cycle(Record):
    """A cycle claim based at 0, flat: one generator index per byte of `arcs`.

    Making one checks nothing; `verify_ham_cycle` returns one only for arcs
    it certifies hamiltonian.
    """

    spec: TorusSpec
    arcs: bytes

    @property
    def base(self) -> Vertex:
        return self.spec.zero()

    @property
    def length(self) -> int:
        return len(self.arcs)


class CycleRejection(Record):
    spec: TorusSpec
    word: str | bytes | list[int]
    reason: str
    position: int | None = None
    vertex: Vertex | None = None


def _claim(spec: TorusSpec, w: str | bytes | list[int], budget: int) -> tuple[int, str | None, bytes]:
    """(length, claim, arcs) of nested text or flat arcs; TypeError for anything else.

    arcs_from_text is the one expander: text is parsed under budget.  A
    claim whose length is not budget keeps no arcs, except flat arcs that
    fit in bytes.  Otherwise every arc is checked to be a generator index
    of spec, and claim is the canonical text or None.  Bytes pass as they
    are; a list of any length is checked by word_from_flat.  The arcs are
    range-checked by one translate; only a list with an entry past a byte
    takes its max.
    """
    if isinstance(w, str):
        n, claim, arcs, top = arcs_from_text(w, budget)
    elif isinstance(w, _FLAT):
        n, claim = len(w), None
        arcs = w if isinstance(w, bytes) else word_from_flat(w)
        if isinstance(arcs, list):
            # an entry past a byte: the largest is what the range check reports
            arcs, top = b"", max(arcs)
        else:
            # the arcs left once every generator index is deleted
            top = max(arcs.translate(None, _BYTE_VALUES[: spec.k]), default=-1)
    else:
        raise TypeError(f"a claim is nested text, bytes or a list of ints, not {type(w).__name__}")
    if n != budget:
        # refused flat arcs are kept when they fit in bytes; refused text keeps none
        return n, claim, arcs if isinstance(w, _FLAT) else b""
    if top >= spec.k:
        raise ValueError(f"arc {top} is not a generator index in [0, {spec.k})")
    return n, claim, arcs


def verify_ham_path(
    spec: TorusSpec, start: Vertex, target: Vertex, w: str | bytes | list[int]
) -> PathCertificate:
    """Check that nested text or flat arcs trace a hamiltonian path.

    Flat arcs are bytes, or a list of non-negative ints.
    Accepts exactly the words whose trace has vertex_count distinct vertices
    (hence all of them) and ends at target.  Text is expanded to bytes
    under the budget vertex_count - 1.  A wrong length, a repeated vertex
    and a wrong endpoint are reported in the certificate, not raised.
    ValueError is raised for an endpoint that is no reduced vertex, text
    that does not parse, a list with an entry that is no non-negative int
    (a bool, a float, a str or a negative int, named in one message), and
    a word of the right length with an arc of k or more; TypeError for a
    claim that is neither text nor flat arcs, a tree included.
    """
    spec.require_vertex(start)
    spec.require_vertex(target)
    count = spec.vertex_count
    n, claim, arcs = _claim(spec, w, count - 1)
    if n != count - 1:
        return PathCertificate(
            spec, start, target, arcs, claim, False,
            failure=f"length {n} != vertex count - 1 = {count - 1}",
        )
    hit, stop = _walk(spec, start, arcs)
    if hit is not None:
        return PathCertificate(
            spec, start, target, arcs, claim, False,
            failure="repeated vertex",
            failure_position=hit,
            failure_vertex=stop,
        )
    if stop != target:
        return PathCertificate(
            spec, start, target, arcs, claim, False,
            failure=f"endpoint {stop} != target {target}",
            failure_position=n,
            failure_vertex=stop,
        )
    return PathCertificate(spec, start, target, arcs, claim, True)


def verify_ham_cycle(
    spec: TorusSpec, w: str | bytes | list[int]
) -> Cycle | CycleRejection:
    """Check that nested text or flat arcs trace a hamiltonian cycle based at 0.

    Accepts exactly the words of length vertex_count whose trace visits
    every vertex once and returns to 0; text is expanded under that
    budget.  Rejections are reported, not raised; as in verify_ham_path,
    text that does not parse and a word of the right length with an arc of
    k or more raise ValueError, and any other claim, a tree included,
    TypeError.
    """
    count = spec.vertex_count
    n, _, arcs = _claim(spec, w, count)
    if n != count:
        return CycleRejection(spec, w, f"length {n} != vertex count {count}")
    zero = spec.zero()
    # all but the last arc must repeat no vertex, so the walk of a valid cycle
    # confirms every slice by its count; the last arc must step back to 0
    hit, stop = _walk(spec, zero, arcs[:-1])
    if hit is not None:
        return CycleRejection(spec, w, "revisits a vertex early", hit, stop)
    stop = spec.add_step(stop, arcs[-1])
    if stop != zero:
        return CycleRejection(spec, w, "does not close at 0", count, stop)
    return Cycle(spec, arcs)


def expect_path(
    spec: TorusSpec, start: Vertex, target: Vertex, w: str | bytes | list[int]
) -> PathCertificate:
    cert = verify_ham_path(spec, start, target, w)
    if not cert.verified:
        raise ConstructionError(
            f"internal path construction failed on {spec.moduli}: {cert.failure}"
        )
    return cert


# --- serialization ----------------------------------------------------------
#
# Nested text form, e.g. ((x1^1 x2^2)^1 (x1^1 x2 x1)^6 (x1^1 x2^2)^1 x1^1 x2).
# Generator indices render as x1..xk; any other letter token is an error.
# The flat JSON form is just a list of generator indices, read by
# word_from_flat.  word_from_text and arcs_from_text both split the text on
# groups, keep an explicit stack of open groups and read leaf tokens with
# _leaf; word_from_text builds the tree, arcs_from_text goes straight to
# bytes, and text_from_arcs renders bytes back.

# One token per generator with its exponent chain (x3^2, x1 ^ 2^3), per
# group exponent, per other letter or digit run, and per bracket or bare ^.
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:\s*\^\s*\d+)*|\^\s*\d+|\d+|[()^]")
_CARET_RE = re.compile(r"\s*\^\s*")
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z()^]")
# the ASCII characters _BAD_CHAR_RE accepts, bar whitespace other than a space, as a
# str.translate table that deletes them: arcs_from_text runs the regex on what is left
_PLAIN = dict.fromkeys(c for c in range(128) if not _BAD_CHAR_RE.match(chr(c)) and not chr(c).isspace())
_PLAIN[ord(" ")] = None
_GEN_RE = re.compile(r"x[0-9]+\Z")
# "(", or ")" with the exponent chain that follows it: the groups word_from_text splits on
_GROUP_RE = re.compile(r"(\(|\)(?:\s*\^\s*\d+)*)")
# whitespace with no ^ on either side, where arcs_from_text cuts a long run
_CUT_RE = re.compile(r"(?<=[^\s^])\s+(?=[^\s^])")
# characters of text, or arcs, per slice of the bytes codec: it bounds the per-token lists
_SLICE = 1 << 16
# the first arcs, whose counts order _walk's strides
_HEAD = 256
# the ratio of g0 arcs to other arcs, and the least m0, above which _walk marks a slice run by run
_RUNS = 6
# the text of each byte as a lone symbol, after the space that separates it from the token before
_NAMES = tuple(f" x{g + 1}" for g in range(256))


def word_from_text(text: str) -> Word:
    """Parse the nested text form, iteratively: nesting depth costs no recursion.

    It splits on groups as arcs_from_text does: each run between brackets is
    tokenized in slices of about _SLICE characters, and a group's exponent
    chain is read from its ")".
    """
    if _BAD_CHAR_RE.search(text):
        raise ValueError("unrecognized characters in word text")
    nodes: dict = {}  # leaf token -> its node, and label -> its Symbol, so equal leaves share one
    groups: list[list[Word]] = []
    items: list[Word] = []
    for i, seg in enumerate(_GROUP_RE.split(text)):
        if i % 2 == 0:
            # slices bound the token lists, and a slice after the first never starts with a ^
            for pos, end in _cuts(seg, _SLICE):
                run = _TOKEN_RE.findall(seg, pos, end)
                # a ^ token with no item before it in its group; after an item, _leaf rejects it
                if run and run[0][0] == "^" and not items:
                    raise ValueError("unexpected token '^' in word text")
                for tok in dict.fromkeys(run):
                    if tok not in nodes:
                        label, exponents = _leaf(tok)
                        symbol = nodes.setdefault(label, Symbol(label))
                        nodes[tok] = reduce(Power, exponents, symbol)
                items += map(nodes.__getitem__, run)
        elif seg == "(":
            groups.append(items)
            items = []
        elif not groups:
            raise ValueError("unbalanced parenthesis in word text")
        else:
            node = reduce(Power, map(int, _CARET_RE.split(seg)[1:]), Concat(tuple(items)))
            items = groups.pop()
            items.append(node)
    if groups:
        raise ValueError("unbalanced parenthesis in word text")
    if len(items) == 1:
        return items[0]
    return Concat(tuple(items))


def word_from_flat(arcs: Iterable[int]) -> bytes | list[int]:
    """The flat form as bytes, or as a list when an entry is past a byte.

    Every entry is checked to be a non-negative int, in C passes: one over
    the types and one bytes() conversion.  Only a conversion that fails
    looks for a negative entry.  A list is read as it is, and returned
    itself when an entry is past a byte, for the verifiers' range check
    to name; any other iterable is copied to one first.  It is the
    verifiers' one check of a list, run by _claim.
    """
    if not isinstance(arcs, list):
        arcs = list(arcs)
    # set() would merge 1, 1.0 and True, so the check is on the types
    if set(map(type, arcs)) <= {int}:
        try:
            return bytes(arcs)
        except ValueError:
            # a negative entry, or one past a byte
            if min(arcs) >= 0:
                return arcs
    bad = next(g for g in arcs if type(g) is not int or g < 0)
    raise ValueError(f"flat form entries must be non-negative ints, got {bad!r}")


def word_from_runs(arcs: bytes, g: int) -> Concat:
    """Certificate tree of flat arcs, run-length encoding generator g.

    Each maximal run of g becomes Power(Symbol(g), e), or Symbol(g) when
    e = 1, and every other arc becomes a Symbol.  Equal runs share one node.
    """
    tokens = re.findall(re.escape(bytes([g])) + b"+|.", arcs, re.DOTALL)
    nodes = {t: Power(Symbol(g), len(t)) if len(t) > 1 else Symbol(t[0]) for t in set(tokens)}
    return Concat(tuple(map(nodes.__getitem__, tokens)))


def text_from_arcs(arcs: bytes, g: int | None = None) -> str:
    """Nested text of flat arcs, each maximal run of generator g written as a power.

    It is the canonical text of word_from_runs(arcs, g), as arcs_from_text
    gives it, and for g None of one symbol per arc, without building a
    tree: the pieces of _text_slices, joined.
    """
    return "".join(_text_slices(arcs, g))


def _text_slices(arcs: bytes, g: int | None) -> Iterator[str]:
    """text_from_arcs(arcs, g) in pieces: "(", the texts of slices of the arcs, ")".

    Each slice is about _SLICE arcs and ends where a run of g does.  Every
    token is written with the space before it, and the first slice drops
    its leading one.  A slice's text is one join: of each arc's token for
    g None, else of each run of g and the arc after it, the runs found by
    one translate and one split, as _walk finds them.
    """
    if g is not None:
        run = _BYTE_VALUES[g : g + 1]
        tail = re.compile(re.escape(run) + b"*")
        # g to 0 and any other arc to 1: a split on 1 gives the run of g before each other arc
        mark = b"\1" * g + b"\0" + b"\1" * (255 - g)
        names = {b"": ""}
    yield "("
    pos = 0
    while pos < len(arcs):
        end = min(pos + _SLICE, len(arcs))
        if g is None:
            text = "".join(map(_NAMES.__getitem__, arcs[pos:end]))
        else:
            end = tail.match(arcs, end).end()
            part = arcs[pos:end]
            runs = part.translate(mark).split(b"\1")
            others = part.translate(None, run)
            for r in set(runs).difference(names):
                names[r] = _NAMES[g] if len(r) == 1 else f" x{g + 1}^{len(r)}"
            # each run, then the arc after it, and the last run
            tokens = [""] * (2 * len(others) + 1)
            tokens[0::2] = map(names.__getitem__, runs)
            tokens[1::2] = map(_NAMES.__getitem__, others)
            text = "".join(tokens)
        yield text[1:] if pos == 0 else text
        pos = end
    yield ")"


def _leaf(token: str) -> tuple[int, list[int]]:
    """(label, exponent chain) of a leaf token; the one leaf reader of both text parsers."""
    if token[0] == "^":
        # bare, or after a token that fails first: a leaf absorbs the exponents that follow it
        raise ValueError("exponent must be a non-negative integer")
    name, *exponents = _CARET_RE.split(token)
    if not _GEN_RE.match(name):
        raise ValueError(f"unexpected token {name!r} in word text")
    index = int(name[1:])
    if index < 1:
        raise ValueError(f"generator token {name!r} must be x1 or higher")
    return index - 1, list(map(int, exponents))


def _cuts(seg: str, size: int, pos: int = 0, end: int | None = None):
    """(start, end) bounds of slices of seg[pos:end], about size long, cut where no token spans.

    A token spans whitespace only next to a ^ of an exponent chain, so
    whitespace with no ^ on either side is a cut.
    """
    end = len(seg) if end is None else end
    while end - pos > size:
        found = _CUT_RE.search(seg, pos + size, end)
        if found is None:
            break
        yield pos, found.start()
        pos = found.start()
    yield pos, end


def _brackets(text: str) -> Iterator[tuple[int, int]]:
    """(start, end) of each "(", and of each ")" with its exponent chain, in order; then (len, len).

    These are _GROUP_RE's matches, found by str.find rather than by a
    regex scan of the whole text.  A chain holds no bracket.
    """
    opening, closing = text.find("("), text.find(")")
    while opening >= 0 or closing >= 0:
        if closing < 0 or 0 <= opening < closing:
            yield opening, opening + 1
            opening = text.find("(", opening + 1)
        else:
            end = _GROUP_RE.match(text, closing).end()
            yield closing, end
            closing = text.find(")", end)
    yield len(text), len(text)


def arcs_from_text(text: str, budget: int) -> tuple[int, str, bytes | None, int]:
    """Parse the nested text form straight to arcs, never building a tree.

    Returns (length, canonical text, arcs, top): the expanded length as an
    exact integer; the canonical text, in which each leaf is written
    x<label + 1> with its exponents, each group in parentheses, items one
    space apart, and the whole in parentheses unless it is one item;
    the arcs as bytes, or None when the length exceeds budget; and the
    largest label in the expansion, or -1 for none.  Labels past a byte
    are held as 255 in the arcs, so top is what reports them.  Raises
    word_from_text's ValueError on the same texts.

    One stack of open groups, each holding its arcs as pieces of bytes.
    Every item, a run of leaf tokens or a closed group, is counted into
    the open group against the arcs held in all of them, so no allocation
    exceeds budget: a group that overflows only counts its length from
    then on, and an exponent 0 drops it again.  A group closed with
    exponent 1 hands its pieces to its parent unjoined.  Python loops once
    per parenthesis, new distinct leaf token and slice of about _SLICE
    characters; each slice's run of leaf tokens is split on whitespace (or
    tokenized, where a chunk is not one leaf token), looked up, summed and
    joined by C calls.  A slice of single arcs is counted by its number of
    tokens, and a slice of canonical tokens split on single spaces is its
    own canonical text.  Whole-text passes are few and run in C: one
    str.translate deletes the accepted ASCII characters and one regex pass
    checks the rest, and str.find locates the parentheses (_brackets).
    Slices are cut from the text, not from copies of the runs between
    parentheses.
    """
    rest = text.translate(_PLAIN)
    if rest and _BAD_CHAR_RE.search(rest):
        raise ValueError("unrecognized characters in word text")
    # no whitespace but spaces: a chunk split into r tokens at r - 1 spaces has one per gap
    plain = not rest
    labels: dict[str, int] = {}
    lengths: dict[str, int] = {}
    texts: dict[str, str] = {}
    ones: set[str] = set()  # leaf tokens of one arc
    verbatim: set[str] = set()  # leaf tokens that are their own canonical text
    canon: list[str] = []  # canonical text pieces, in order
    live = 0  # arcs held in the pieces of the open groups
    stack: list[list] = []  # the open groups around `group`
    # per group: its pieces (None once over budget), items, length, top label
    group: list = [[], 0, 0, -1]

    def put(items: int, n: int, top: int, pieces: list[str] | None) -> None:
        # count an item of length n into the open group; pieces None: its arcs are not held
        nonlocal live
        if group[0] is not None:
            if pieces is not None and live + n <= budget:
                group[0] += pieces
                live += n
            else:
                # drop the group's arcs: its length is kept, its arcs never will be
                live -= group[2]
                group[0] = None
        group[1] += items
        group[2] += n
        group[3] = max(group[3], top)

    start = 0  # where the leaf tokens before the next bracket start
    for at, after in _brackets(text):
        for pos, end in _cuts(text, _SLICE, start, at) if start < at else ():
            # a slice after the first starts with the whitespace it was cut at; one character of it is dropped
            chunk = text[pos + (pos > start) : end]
            run = chunk.split()
            distinct = set(run)
            new = distinct.difference(labels)
            split = not new or all(_TOKEN_RE.fullmatch(tok) and tok[0] != "^" for tok in new)
            if not split:
                # a chunk holds several tokens, or a token spans whitespace or is an exponent
                run = _TOKEN_RE.findall(text, pos, end)
                distinct = set(run)
                new = distinct.difference(labels)
            if not run:
                continue
            # a ^ token with no item before it in its group; after an item, _leaf rejects it
            if run[0][0] == "^" and not group[1]:
                raise ValueError("unexpected token '^' in word text")
            if new:
                bad = {}
                for tok in new:
                    try:
                        labels[tok], exponents = _leaf(tok)
                    except ValueError as exc:
                        bad[tok] = exc
                        continue
                    lengths[tok] = math.prod(exponents)
                    texts[tok] = f"x{labels[tok] + 1}" + "".join(map("^{}".format, exponents))
                    if lengths[tok] == 1:
                        ones.add(tok)
                    if texts[tok] == tok:
                        verbatim.add(tok)
                if bad:
                    raise next(bad[tok] for tok in run if tok in bad)
            n = len(run) if distinct <= ones else sum(map(lengths.__getitem__, run))
            canon.append(" " if group[1] else "")
            if plain and split and distinct <= verbatim and chunk.count(" ") == len(run) - 1:
                # canonical tokens, one space apart: the chunk is its own canonical text
                canon.append(chunk)
            else:
                canon.append(" ".join(map(texts.__getitem__, run)))
            pieces = None
            if group[0] is not None and live + n <= budget:
                chars = {tok: bytes([min(labels[tok], 255)]) * lengths[tok] for tok in distinct}
                pieces = [b"".join(map(chars.__getitem__, run))]
            top = max((labels[t] for t in distinct if lengths[t]), default=-1)
            put(len(run), n, top, pieces)
        start = after
        if at == after:
            break  # the end of the text
        if text[at] == "(":
            canon.append(" (" if group[1] else "(")
            stack.append(group)
            group = [None if group[0] is None else [], 0, 0, -1]
        elif not stack:
            raise ValueError("unbalanced parenthesis in word text")
        else:
            # ")" with its exponent chain, cached as a leaf token is
            seg = text[at:after]
            if seg not in texts:
                exps = list(map(int, _CARET_RE.split(seg)[1:]))
                lengths[seg], texts[seg] = math.prod(exps), ")" + "".join(map("^{}".format, exps))
            e = lengths[seg]
            canon.append(texts[seg])
            (pieces, _, n, top), group = group, stack.pop()
            if pieces is not None:
                live -= n
                if e != 1:
                    # an exponent 0 holds no arcs, whatever the group held
                    pieces = [b"".join(pieces) * e] if e and live + n * e <= budget else None
            put(1, n * e, top if e else -1, pieces if e else [])
    if stack:
        raise ValueError("unbalanced parenthesis in word text")
    if group[1] != 1:
        canon.insert(0, "(")
        canon.append(")")
    canonical = "".join(canon)
    del canon  # its pieces are freed before the arcs are joined
    arcs = None if group[0] is None else b"".join(group[0])
    return group[2], canonical, arcs, group[3]
