"""Slow reference semantics for the tests, independent of the fast paths.

``simulate`` walks ``pfa.delta`` one state at a time, and ``shortest_words``
enumerates words in lexicographic order, so neither shares code with
``apply_word`` or the subset search they check.  ``exact_row`` evaluates the
closed form with arbitrary-precision integers, one c at a time, so it
shares nothing with the int64 column evaluator behind the family-wide
queries.
"""

from functools import lru_cache
from itertools import product

from carefulsync import rt_formula


def simulate(pfa, states, letters):
    """The set of images of ``states`` under ``letters``, or ``None`` as soon
    as some state takes an undefined transition."""
    current = set(states)
    for s in letters:
        following = set()
        for q in current:
            target = pfa.delta[q - 1][s]
            if target is None:
                return None
            following.add(target)
        current = following
    return current


def synchronizes(pfa, letters):
    image = simulate(pfa, range(1, pfa.n + 1), letters)
    return image is not None and len(image) == 1


def shortest_words(pfa, cap):
    """Every shortest synchronizing word of length at most ``cap``, in
    lexicographic order; empty when there is none that short."""
    for length in range(cap + 1):
        hits = [
            letters
            for letters in product(range(len(pfa.symbols)), repeat=length)
            if synchronizes(pfa, letters)
        ]
        if hits:
            return hits
    return []


@lru_cache(maxsize=None)
def exact_row(n):
    """rt(n, c) for c = 0 .. n-2, each from the exact closed form."""
    return tuple(rt_formula(n, c) for c in range(n - 1))


def row_optimum(row):
    """The maximum of a row and the set of every c that attains it."""
    best = max(row)
    return best, {c for c, value in enumerate(row) if value == best}
