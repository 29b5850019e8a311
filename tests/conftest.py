"""Shared hypothesis strategies for word trees, and the reference expansion."""

import hypothesis.strategies as st

from torusham import Concat, Power, Symbol


def expand(w) -> list[int]:
    """Generator indices of a word tree's expansion, left to right, by plain recursion."""
    if isinstance(w, Symbol):
        return [w.label]
    if isinstance(w, Concat):
        return [g for part in w.parts for g in expand(part)]
    if isinstance(w, Power):
        return expand(w.base) * w.exponent
    raise TypeError(f"not a word: {w!r}")


def word_trees(labels: st.SearchStrategy, max_exponent: int = 4) -> st.SearchStrategy:
    """Random nested words over the given label strategy."""
    return st.recursive(
        st.builds(Symbol, labels),
        lambda child: st.one_of(
            st.lists(child, max_size=4).map(lambda ps: Concat(tuple(ps))),
            st.builds(Power, child, st.integers(min_value=0, max_value=max_exponent)),
        ),
        max_leaves=12,
    )


def generator_words(k: int, max_exponent: int = 4) -> st.SearchStrategy:
    """Random words whose labels are generator indices below k."""
    return word_trees(st.integers(min_value=0, max_value=k - 1), max_exponent)
