"""Slow reference semantics for the tests, independent of the bitset kernel.

``simulate`` walks ``pfa.delta`` one state at a time, and ``shortest_words``
enumerates words in lexicographic order, so neither shares code with
``apply_word`` or the subset search they check.
"""

from itertools import product


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
