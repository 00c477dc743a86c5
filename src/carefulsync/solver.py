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
  deduplication by sorting, exact int64 sums of the path counts, and new
  subsets ordered by first occurrence in (parent, symbol) order, so it
  discovers the same subsets in the same order as the Python step.  It is
  taken when the automaton has at most 64 states, the level has at least
  ``WIDE`` subsets, and ``symbols * width * largest count < 2^63``, so that
  no int64 sum can overflow.
* The Python step walks each subset's set bits with
  :func:`carefulsync.pfa.image`, the step :func:`carefulsync.pfa.apply_word`
  takes once per run of equal letters, with arbitrary-precision counts.  It
  serves every other level, and it is the reference that the tests hold the
  vectorized step to.

Until the first vectorized level, the subsets seen are a Python set of ints
and each level is a dict from subset to count; a search that never goes
wide (every ``n > 64``, and every level narrower than ``WIDE``) keeps them
so throughout.  The first vectorized level moves the set into a
:class:`_SubsetTable`, an open-addressing hash table of ``uint64`` subsets
that takes each level's distinct images in vectorized probe rounds.  From
then on, a level that follows a vectorized one stays a ``uint64`` array of
subsets beside an int64 array of counts when it is wide too; a narrow level
turns the arrays back into a dict and tests and adds its images by scalar
probes of the table.

The bit walk stays for narrow levels because numpy's fixed cost per level,
about 0.1 ms, outweighs its per-subset gain below ``WIDE``
subsets; ``apply_word`` steps one set at a time, one run of a letter per
step, where that is always so.
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
    """Caps on the search; exceeding either aborts loudly, never silently.

    Memory grows with the subsets discovered.  Every subset costs 8 bytes of
    parent link.  While the seen subsets are a Python set, each costs about
    90 bytes more (97 bytes in all, measured on C(20, 4) with the Python
    step alone).  Once the search has gone wide, the hash table costs 8 bytes
    per slot and is kept at most 3/4 full, so 11-22 bytes per subset, and 32
    while it doubles.  At the default ``max_subsets`` of 2^24, a search of at
    most 64 states that goes wide early holds at most about 0.5 GB: a table
    of 2^25 slots (256 MiB), or 384 MiB while it doubles, and 128 MiB of
    parent links; one that stays in Python needs about 1.6 GB.
    """

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
    # the current level in discovery order with its shortest-path counts: a
    # dict keyed by subset, or, from a wide step on, the arrays front and
    # weight while levels stay wide (counts is then None)
    counts = {full: 1}
    front = weight = None
    wide = None
    level = 0
    # nsym times the discovery number of the next subset to expand; subsets
    # are expanded in discovery order, so this only ever counts up
    base = 0
    while True:
        width = len(counts) if counts is not None else front.size
        if not width:
            raise NotSynchronizing(len(seen), level)
        if level >= limits.max_length:
            raise LimitExceeded("max_length", len(seen), level)
        hit = None
        if (
            width >= WIDE
            and pfa.n <= 64
            and nsym * width * (int(weight.max()) if counts is None else max(counts.values()))
            < 1 << 63
        ):
            if wide is None:
                wide = _WideKernel(pfa)
                seen = _SubsetTable(np.fromiter(seen, np.uint64, len(seen)))
            if counts is not None:
                front = np.fromiter(counts, np.uint64, width)
                weight = np.fromiter(counts.values(), np.int64, width)
                counts = None
            front, weight, hit = wide.step(front, weight, base, seen, origin, limits, level)
            base += nsym * width
        else:
            if counts is None:
                counts = dict(zip(front.tolist(), weight.tolist()))
                front = weight = None
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
            counts = next_counts
        level += 1
        if hit is not None:
            if counts is None:
                total = sum(weight[np.bitwise_count(front) == 1].tolist())
            else:
                total = sum(v for k, v in counts.items() if k.bit_count() == 1)
            return level, _backtrack(origin, nsym, hit), hit + 1, level, total


# Fibonacci hashing: a subset's home slot is the top bits of the subset times
# this odd constant (2^64 over the golden ratio), modulo 2^64.
_GOLDEN = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


def _scramble(keys):
    return keys * np.uint64(_GOLDEN)


# slots rehashed at once when the table grows
_CHUNK = 1 << 18


class _SubsetTable:
    """A set of nonzero ``uint64`` subsets: open addressing with linear
    probing in one ``uint64`` array, where 0 marks an empty slot (the search
    holds no empty set, since a careful image of a nonempty set is never
    empty).

    :meth:`insert` adds a batch of distinct keys in vectorized probe rounds;
    ``in`` and :meth:`add` probe one key at a time.  The table doubles before
    more than 3/4 of its slots would be taken, rehashing ``_CHUNK`` slots at
    a time."""

    def __init__(self, keys):
        self.slots = np.zeros(2, np.uint64)
        self.shift = 63
        self.size = 0
        self.insert(keys)

    def __len__(self):
        return self.size

    def _reserve(self, extra):
        if 4 * (self.size + extra) <= 3 * self.slots.size:
            return
        old = self.slots
        capacity = old.size
        while 4 * (self.size + extra) > 3 * capacity:
            capacity *= 2
        self.slots = np.zeros(capacity, np.uint64)
        self.shift = 64 - capacity.bit_length() + 1
        for start in range(0, old.size, _CHUNK):
            part = old[start : start + _CHUNK]
            self._probe(part[part != 0])

    def insert(self, keys):
        """Add the distinct nonzero ``keys`` (a ``uint64`` array); returns
        the mask of those that were not in the table."""
        self._reserve(keys.size)
        fresh = self._probe(keys)
        self.size += int(np.count_nonzero(fresh))
        return fresh

    def _probe(self, keys):
        slots = self.slots
        mask = slots.size - 1
        fresh = np.zeros(keys.size, bool)
        todo = np.arange(keys.size)
        at = (_scramble(keys) >> np.uint64(self.shift)).view(np.int64)
        while todo.size:
            held = slots.take(at)
            empty = held == 0
            # keys probing one slot read the same word: they all write it
            # back, or each writes itself to the empty slot and one wins
            slots[at] = np.where(empty, keys, held)
            done = slots.take(at) == keys
            fresh[todo[empty & done]] = True
            left = np.flatnonzero(~done)
            todo, keys, at = todo.take(left), keys.take(left), (at.take(left) + 1) & mask
        return fresh

    def _find(self, key):
        """The slot that holds ``key``, or the empty slot where it would go."""
        slots = self.slots
        mask = slots.size - 1
        at = (key * _GOLDEN & _M64) >> self.shift
        while True:
            held = slots.item(at)
            if held == key or not held:
                return at
            at = (at + 1) & mask

    def __contains__(self, key):
        return self.slots.item(self._find(key)) != 0

    def add(self, key):
        """Add one key that is not in the table."""
        self._reserve(1)
        self.slots[self._find(key)] = key
        self.size += 1


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

    def step(self, front, weight, base, seen, origin, limits, level):
        """One level at once; the same discoveries, in the same order, with
        the same counts as the Python step of :func:`_search`, whose state
        and ``base`` it takes.  Returns the next level's subsets and counts
        in discovery order, and the discovery number of its first
        singleton, or None."""
        width = front.size
        nsym = self.outside.size
        octets = front.view(np.uint8).reshape(width, 8)
        images = np.take(self.tables[0], octets[:, 0], axis=0)
        for k in range(1, len(self.tables)):
            images |= np.take(self.tables[k], octets[:, k], axis=0)
        # candidates in (parent, symbol) order, the Python step's order
        where = np.flatnonzero((front[:, None] & self.outside) == 0)
        found = images.ravel()[where]
        # sorted by home slot, so that equal images are adjacent and the
        # table is probed in address order
        order = np.argsort(_scramble(found))
        byhome = found[order]
        edge = np.empty(byhome.size, bool)
        edge[:1] = True
        np.not_equal(byhome[1:], byhome[:-1], out=edge[1:])
        starts = np.flatnonzero(edge)
        # each distinct image, its earliest candidate and its summed count
        first = np.minimum.reduceat(order, starts)
        sums = np.add.reduceat(weight[where // nsym][order], starts)
        before = len(seen)
        new = np.flatnonzero(seen.insert(byhome[starts]))
        if len(seen) > limits.max_subsets:
            raise LimitExceeded("max_subsets", limits.max_subsets + 1, level + 1)
        # the new subsets in discovery order: their earliest candidates, sorted
        rank = np.zeros(found.size, np.int64)
        rank[first[new]] = new + 1
        new = rank[rank != 0] - 1
        origin.frombytes((where[first[new]] + base).astype(np.int64, copy=False).tobytes())
        found = found[first[new]]
        singles = np.flatnonzero(np.bitwise_count(found) == 1)
        hit = before + int(singles[0]) if singles.size else None
        return found, sums[new], hit


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
