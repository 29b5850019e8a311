"""Layer spans recorded from outside the library.

The library is left untouched: `install` replaces chosen functions at every
`torusham` module attribute that is bound to them, which is where callers
resolve them, with a wrapper that appends a span to an in-memory list.  A
span is [name, start, end, parent index, op id, attribute]; the attribute is
a size or outcome taken from the call (bytes, arcs, found, parts).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

MODULES = ("torus", "words", "cycles", "paths", "oracle", "cli")


def load_library() -> dict:
    """Import torusham afresh, so module state and lru caches start cold."""
    for name in [n for n in sys.modules if n == "torusham" or n.startswith("torusham.")]:
        del sys.modules[name]
    mods = {"torusham": importlib.import_module("torusham")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"torusham.{name}")
    return mods


def _len_result(args, result):
    return len(result)


def _len_arg(args, result):
    return len(args[0])


def _arcs_checked(args, result):
    # arcs the trace walked: all of them, up to the defect, or none
    if result.verified:
        return result.spec.vertex_count - 1
    return result.failure_position or 0


def _found(args, result):
    return 1 if result else 0


def _top_parts(args, result):
    word = getattr(result, "word", None)
    if word is None:
        return None  # a Refusal
    return len(word.parts) if hasattr(word, "parts") else 1


# (span name, module, function, attribute taken from the call)
LAYERS = (
    ("cli.main", "cli", "main", None),
    ("paths.hamiltonian_path", "paths", "hamiltonian_path", _top_parts),
    ("paths.path_for_odd_m", "paths", "path_for_odd_m", None),
    ("paths.path_for_even_m", "paths", "path_for_even_m", None),
    ("paths.path_from_inner_cycle", "paths", "path_from_inner_cycle", None),
    ("cycles.even_distance_cycle_power", "cycles", "even_distance_cycle_power", None),
    ("cycles.conjugate_cycle", "cycles", "conjugate_cycle", None),
    ("cycles.product_embed", "cycles", "product_embed", None),
    ("words.expect_cycle", "words", "expect_cycle", None),
    ("words.expect_path", "words", "expect_path", None),
    ("words.cycle_distance", "words", "cycle_distance", None),
    ("words.verify_ham_path", "words", "verify_ham_path", _arcs_checked),
    ("words.word_to_text", "words", "word_to_text", _len_result),
    ("words.word_from_text", "words", "word_from_text", _len_arg),
    ("words.word_from_flat", "words", "word_from_flat", _len_arg),
    ("oracle.endpoint_set", "oracle", "endpoint_set", None),
    ("oracle.ham_path_exists", "oracle", "ham_path_exists", _found),
)

# Bindings left unwrapped: expect_path calls verify_ham_path inside words, and
# that trusted final check should stay expect_path's own time, while
# verify_ham_path spans time the `verify` subcommand's check.
UNWRAPPED = {("words", "verify_ham_path")}

# lru caches read through cache_info(); staircase_a and staircase_b pool.
CACHES = {
    "cycles.any_cycle_power": ("any_cycle_power",),
    "cycles.staircase": ("staircase_a", "staircase_b"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attribute=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attribute is not None:
                rec[5] = attribute(args, result)
            return result

        return wrapper

    def install(self, mods: dict) -> list[str]:
        """Wrap every LAYERS function where it is bound; return the absent ones."""
        absent = []
        for name, home, attr, attribute in LAYERS:
            fn = getattr(mods[home], attr, None)
            if fn is None:
                absent.append(name)
                continue
            wrapper = self.wrap(name, fn, attribute)
            for mod_name, mod in mods.items():
                if (mod_name, attr) in UNWRAPPED:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        return absent

    def export(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "attr")
        return [dict(zip(keys, rec)) for rec in self.spans]


def cache_stats(mods: dict) -> dict:
    """{cache name: [hits, calls]} for the lru caches that exist."""
    out = {}
    for name, attrs in CACHES.items():
        hits = calls = 0
        for attr in attrs:
            info = getattr(getattr(mods["cycles"], attr, None), "cache_info", None)
            if info is None:
                break
            got = info()
            hits += got.hits
            calls += got.hits + got.misses
        else:
            out[name] = [hits, calls]
    return out


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for c in sorted(children[i], key=lambda j: spans[j]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def summarize(spans: list[dict]) -> dict:
    """{span name: {calls, total_s, self_s, attr}} over a list of spans."""
    agg: dict = {}
    for s, own in zip(spans, self_times(spans)):
        a = agg.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attr": 0})
        a["calls"] += 1
        a["total_s"] += s["end"] - s["start"]
        a["self_s"] += own
        if s["attr"] is not None:
            a["attr"] += s["attr"]
    return agg
