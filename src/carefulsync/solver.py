"""Exact shortest careful synchronizing words via subset BFS.

The search runs forward from the full state set over the subsets actually
reachable, never materializing all 2^n of them.  Expansion order is fixed
(frontier in discovery order, symbols in index order), which makes the
reported word the lexicographically least shortest one and the whole result
independent of hashing or threading.

One pass yields the threshold, that word and the exact number of shortest
words: it counts shortest paths as it goes and finishes the level in which
the first singleton appears.  Each step is :func:`carefulsync.pfa.image`, the
step :func:`carefulsync.pfa.apply_word` takes too.
"""

from dataclasses import dataclass

from .pfa import Pfa, Word, image


@dataclass(frozen=True)
class SolveLimits:
    """Caps on the search; exceeding either aborts loudly, never silently."""

    max_subsets: int = 1 << 24
    max_length: int = 10**6

    def __post_init__(self):
        if self.max_subsets < 1 or self.max_length < 1:
            raise ValueError("limits must be positive")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one subset search.

    ``count`` is the exact number of distinct shortest words.  ``explored``
    is the number of subsets discovered up to and including the first
    singleton; the search goes on to finish that level for ``count``, and
    ``max_subsets`` applies through the whole of it, so a cap that falls
    inside the final level raises :class:`LimitExceeded`.  ``levels`` is the
    number of BFS levels expanded, equal to ``threshold``.
    """

    threshold: int
    word: Word
    explored: int
    levels: int
    count: int


class NotSynchronizing(Exception):
    """The reachable subset graph contains no singleton."""

    def __init__(self, explored: int, levels: int):
        super().__init__(f"no synchronizing word exists (explored {explored} subsets)")
        self.explored = explored
        self.levels = levels


class LimitExceeded(Exception):
    """A resource cap was hit; carries the partial statistics."""

    def __init__(self, what: str, explored: int, levels: int):
        super().__init__(f"{what} exceeded after {explored} subsets / {levels} levels")
        self.what = what
        self.explored = explored
        self.levels = levels


def _search(pfa: Pfa, limits: SolveLimits):
    if pfa.n == 1:
        return 0, [], 1, 0, 1

    masks, cols = pfa.kernel
    steps = tuple(zip(range(len(masks)), masks, cols))
    step = image
    full = (1 << pfa.n) - 1
    parents = {full: None}
    # shortest-path counts of the current level, keyed in discovery order
    counts = {full: 1}
    level = 0
    while counts:
        if level >= limits.max_length:
            raise LimitExceeded("max_length", len(parents), level)
        next_counts = {}
        hit = None
        for bits, c in counts.items():
            for s, mask, col in steps:
                target = step(bits, mask, col)
                if target is None:
                    continue
                if target not in parents:
                    parents[target] = (bits, s)
                    if len(parents) > limits.max_subsets:
                        raise LimitExceeded("max_subsets", len(parents), level + 1)
                    next_counts[target] = c
                    if hit is None and target.bit_count() == 1:
                        # first discovery in this level is the lex-least word
                        hit = target
                        explored = len(parents)
                elif target in next_counts:
                    next_counts[target] += c
        level += 1
        if hit is not None:
            total = sum(v for k, v in next_counts.items() if k.bit_count() == 1)
            return level, _backtrack(parents, hit), explored, level, total
        counts = next_counts
    raise NotSynchronizing(len(parents), level)


def _backtrack(parents, bits):
    letters = []
    while parents[bits] is not None:
        bits, s = parents[bits]
        letters.append(s)
    letters.reverse()
    return letters


def solve(pfa: Pfa, limits: SolveLimits = SolveLimits()) -> SolveResult:
    """Shortest careful synchronizing word, its length, the number of
    shortest words, and search statistics.

    Raises :class:`NotSynchronizing` when the automaton has none, and
    :class:`LimitExceeded` when a cap is hit.
    """
    threshold, letters, explored, levels, count = _search(pfa, limits)
    # the word is copied once the search's subsets are freed
    return SolveResult(threshold, Word(tuple(letters)), explored, levels, count)


def count_shortest(pfa: Pfa, limits: SolveLimits = SolveLimits()) -> tuple[int, int]:
    """Reset threshold plus the exact number of distinct shortest words.

    Counts shortest paths from the full set to every singleton reached at the
    minimal BFS level; the count is an arbitrary-precision integer.
    """
    result = solve(pfa, limits)
    return result.threshold, result.count
