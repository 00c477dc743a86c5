"""Exact shortest careful synchronizing words via subset BFS.

The search runs forward from the full state set over the subsets actually
reachable, never materializing all 2^n of them.  Expansion order is fixed
(frontier in discovery order, symbols in index order), which makes the
reported word the lexicographically least shortest one and the whole result
independent of hashing or threading.

One pass yields the threshold, that word and the exact number of shortest
words: it counts shortest paths as it goes and finishes the level in which
the first singleton appears.  The search state is the set of subsets seen,
the current level's path counts in discovery order, and one flat array that
holds, by discovery number, each subset's parent and symbol, from which the
word is read back.

The search is level-synchronous, and each level takes one of two steps:

* The vectorized step (:class:`_WideKernel`) expands the whole level with
  numpy: images by byte-chunk table gathers over a ``uint64`` frontier,
  deduplication by ``np.unique``, exact int64 sums of the path counts, and
  new subsets ordered by first occurrence in (parent, symbol) order, so it
  discovers the same subsets in the same order as the Python step.  It is
  taken when the automaton has at most 64 states, the level has at least
  ``WIDE`` subsets, and ``symbols * width * largest count < 2^63``, so that
  no int64 sum can overflow.
* The Python step walks each subset's set bits with
  :func:`carefulsync.pfa.image`, the step :func:`carefulsync.pfa.apply_word`
  takes too, with arbitrary-precision counts.  It serves every other level,
  and it is the reference that the tests hold the vectorized step to.

The bit walk stays for narrow levels because numpy's fixed cost per level,
about 0.1 ms, outweighs its per-subset gain below ``WIDE``
subsets; ``apply_word`` steps one set at a time, where that is always so.
"""

from array import array
from dataclasses import dataclass

import numpy as np

from .pfa import Pfa, Word, image

# Levels of at least this many subsets take the vectorized step.  Timed level
# by level on C(14, 2), C(16, 3) and C(20, 4) (2 symbols, 2-vCPU VM), the two
# steps broke even between 64 and 128 subsets; from 128 up the vectorized
# step was the faster on every input, 1.5-1.7x at 256-511 subsets.
WIDE = 128


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
    nsym = len(masks)
    steps = tuple(zip(range(nsym), masks, cols))
    step = image
    full = (1 << pfa.n) - 1
    seen = {full}
    # by discovery number: the parent's discovery number * nsym + the symbol
    origin = array("q", [-1])
    # shortest-path counts of the current level, keyed in discovery order
    counts = {full: 1}
    wide = None
    level = 0
    # nsym times the discovery number of the next subset to expand; subsets
    # are expanded in discovery order, so this only ever counts up
    base = 0
    while counts:
        if level >= limits.max_length:
            raise LimitExceeded("max_length", len(seen), level)
        hit = None
        if (
            len(counts) >= WIDE
            and pfa.n <= 64
            and nsym * len(counts) * max(counts.values()) < 1 << 63
        ):
            if wide is None:
                wide = _WideKernel(pfa)
            next_counts, hit = wide.step(counts, base, seen, origin, limits, level)
            base += nsym * len(counts)
        else:
            next_counts = {}
            for bits, c in counts.items():
                for s, mask, col in steps:
                    target = step(bits, mask, col)
                    if target is None:
                        continue
                    if target not in seen:
                        seen.add(target)
                        origin.append(base + s)
                        if len(seen) > limits.max_subsets:
                            raise LimitExceeded("max_subsets", len(seen), level + 1)
                        next_counts[target] = c
                        if hit is None and target.bit_count() == 1:
                            # first discovery in this level is the lex-least word
                            hit = len(seen) - 1
                    elif target in next_counts:
                        next_counts[target] += c
                base += nsym
        level += 1
        if hit is not None:
            total = sum(v for k, v in next_counts.items() if k.bit_count() == 1)
            return level, _backtrack(origin, nsym, hit), hit + 1, level, total
        counts = next_counts
    raise NotSynchronizing(len(seen), level)


class _WideKernel:
    """The automaton as byte-chunk gather tables for whole ``uint64``
    frontiers, derived from :attr:`Pfa.kernel`, for ``n <= 64`` only.

    ``tables[k][byte][s]`` is the OR of the one-bit targets, under symbol
    ``s``, of the states set in ``byte``, bit ``j`` standing for state
    ``8k + j + 1``; ``outside[s]`` is the set of states where ``s`` is
    undefined."""

    def __init__(self, pfa: Pfa):
        masks, cols = pfa.kernel
        chunks = (pfa.n + 7) // 8
        onebit = np.zeros((8 * chunks, len(masks)), np.uint64)
        onebit[: pfa.n] = np.array(cols, np.uint64).T
        byte = np.arange(256)
        self.tables = np.zeros((chunks, 256, len(masks)), np.uint64)
        for j in range(8):
            self.tables[:, byte >> j & 1 == 1] |= onebit[j::8, None]
        full = (1 << pfa.n) - 1
        self.outside = np.array([full & ~m for m in masks], np.uint64)

    def step(self, counts, base, seen, origin, limits, level):
        """One level at once; the same discoveries, in the same order, with
        the same counts as the Python step of :func:`_search`, whose state
        and ``base`` it takes."""
        width = len(counts)
        nsym = self.outside.size
        front = np.fromiter(counts, "<u8", width)
        weight = np.fromiter(counts.values(), np.int64, width)
        octets = front.view(np.uint8).reshape(width, 8)
        images = self.tables[0][octets[:, 0]]
        for k in range(1, len(self.tables)):
            images |= self.tables[k][octets[:, k]]
        # candidates in (parent, symbol) order, the Python step's order
        where = np.flatnonzero((front[:, None] & self.outside) == 0)
        uniq, first, inverse = np.unique(
            images.ravel()[where], return_index=True, return_inverse=True
        )
        sums = np.zeros(uniq.size, np.int64)
        np.add.at(sums, inverse, weight[where // nsym])
        old = np.fromiter(map(seen.__contains__, uniq.tolist()), bool, uniq.size)
        # first occurrences of the new subsets, in discovery order
        firsts = np.sort(first[~old])
        if len(seen) + firsts.size > limits.max_subsets:
            raise LimitExceeded("max_subsets", limits.max_subsets + 1, level + 1)
        fresh = inverse[firsts]
        origin.frombytes((where[firsts] + base).astype(np.int64, copy=False).tobytes())
        found = uniq[fresh]
        singles = np.flatnonzero(np.bitwise_count(found) == 1)
        hit = len(seen) + int(singles[0]) if singles.size else None
        keys = found.tolist()
        seen.update(keys)
        return dict(zip(keys, sums[fresh].tolist())), hit


def _backtrack(origin, nsym, d):
    letters = []
    while origin[d] >= 0:
        d, s = divmod(origin[d], nsym)
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
