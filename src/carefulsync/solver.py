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
word is read back: 4 bytes a subset wherever every entry fits in 32 bits,
as under the default cap.

The search is level-synchronous and runs in two phases, a loop each: the
narrow phase takes the Python step, or the chain step where it applies, up
to the first level of at least ``WIDE`` subsets, and the wide phase takes
the vectorized step for that level and every later one, however narrow.
The chain and vectorized steps read one kernel (:class:`_Kernel`) of
byte-chunk image tables and per-symbol successor and orbit tables, which a
search over at most 64 states builds on first need; a search over more
states takes only the Python step.

* The Python step walks each subset's set bits with
  :func:`carefulsync.pfa.image`, the step of :func:`carefulsync.pfa.apply_word`,
  with arbitrary-precision counts.  It is the reference the tests hold the
  two other steps to.
* The chain step (:meth:`_Kernel.chain`) takes many levels at once where the
  frontier is one subset T whose only new image is s(T), for the symbol s
  that found T: the long runs of one letter in the words of the prime
  constructions.  It is taken once the last ``CHAIN`` levels each held one
  subset and found one new subset in the Python step.  It reads the orbit
  s(T), s^2(T), ... a batch at a time off a table of every state's
  trajectory under s, and the other symbols' images of the orbit off the
  byte tables, then commits level by level while the Python step would make
  exactly one discovery, the next set of the orbit: that set is defined,
  unseen and not a singleton, every other symbol's image is undefined or
  already seen, and both caps still hold.  Such a level adds one subset
  under s and keeps the count, as the Python step would; the first level
  that fails goes to the Python step, so the result and every exception are
  the Python step's.
* The vectorized step (:meth:`_Kernel.step`) expands the whole level with
  numpy: images by byte-chunk table gathers over a ``uint64`` frontier, where
  an undefined image reads as the full set, which is always seen;
  deduplication by sorting, exact sums of the path counts, and new subsets
  ordered by first occurrence in (parent, symbol) order, so it discovers the
  same subsets in the same order as the Python step.  With the dense map
  below, the images the map holds are dropped first and the rest sorted by
  value, each as one ``uint64`` of image and candidate number; with the hash
  table, every image is argsorted by its home slot, the order in which the
  table is probed.  Its counts are int64 while ``symbols * width * largest
  count < 2^63``, so that no sum overflows, and Python ints past that.

In the narrow phase, the subsets seen are a Python set of ints and each
level is a dict from subset to count.  The handoff between the phases goes
one way: the level goes to a ``uint64`` array of subsets beside an array of
counts, and the set to a :class:`_DenseSet`, a map indexed by the subset
itself, wherever an image and a candidate number fit in one ``uint64``
(``2n + bit_length(nsym) <= 64``: up to 31 states for a binary alphabet,
fewer than 2^16 symbols at 24 states), or else to a :class:`_SubsetTable`,
a hash table of ``uint64`` subsets.  The map needs no hashing and no
probing.  It holds one byte per subset up to ``DENSE`` states, 2^n bytes,
at most 16 MiB, a quarter of the hash table of the 3.1 million subsets of
C(24, 4), and one bit past that, 2^n / 8 bytes: 4 MiB at 25 states, 256
MiB at 31, of which only the pages that a search touches are resident.
The narrow phase comes first because numpy's fixed cost per level, about
0.1 ms, outweighs its per-subset gain below ``WIDE`` subsets.  After it, a
level of one subset costs one vectorized step, about 0.14 ms, against about
2 us a level for a chain step: going wide pays only while no search has a
long tail of one-subset levels after a wide level, as none here has (the
prime constructions, whose words are such tails, never go wide).
"""

from array import array
from dataclasses import dataclass
from math import inf

import numpy as np

from .pfa import Pfa, Word, image

# The first level of at least this many subsets, and every level after it,
# take the vectorized step.  The value is from a level-by-level timing made
# before the dense map of seen subsets, where the two steps broke even between
# 64 and 128 subsets.  Since the dense map, 32 has been faster on every member
# timed from C(14, 2) to C(22, 4), with the same results; retuning, with that
# timing redone for both seen kinds, is left to a change that measures
# performance.
WIDE = 128

# A level of one subset takes the chain step once at least this many (and at
# least 1) levels in a row have each held one subset and found one new subset
# in the Python step.  C(20, 4) and C(22, 4) never have more than 7 such
# levels in a row, so their searches never take it.
CHAIN = 8
# A search over at most this many states keeps its subsets seen, from the
# first wide level on, in a map of 2^n bytes (16 MiB at 24), and one of more
# states in a map of 2^n bits, where the packed keys of the map fit.  In fresh
# processes on a 2-vCPU VM (medians of 5), the byte map took solve on
# C(22, 4) from 0.34 to 0.071 s and 56 to 39 MB peak RSS against the hash
# table, and on C(24, 4) from 1.21 to 0.26 s and 103 to 66 MB; a bit map on
# C(22, 4) cost up to 25% more time for 3 MB less.  The bit map took solve on
# C(26, 7) from 1.18 to 0.30 s in-process and from 102 to 46 MB against the
# hash table.
DENSE = 24
# Levels the chain step reads in one batch.  On the prime solves of 55 507 and
# 86 257 levels, batches of 256 to 4096 all ran in the same time, and each
# doubling from 256 on added about 0.5 MB of peak RSS.
_BATCH = 256


@dataclass(frozen=True)
class SolveLimits:
    """Caps on the search; exceeding either aborts loudly, never silently.

    Memory grows with the subsets discovered.  Every subset costs 4 bytes of
    parent link, or 8 where ``symbols * (max_subsets + 1)`` exceeds 2^31.
    While the seen subsets are a Python set, each costs about 90 bytes more
    (97 bytes in all with 8-byte links, measured on C(20, 4) with the Python
    step alone).  Once a search with fewer than 2^(64 - 2n) symbols (so of
    at most 31 states) has gone wide, they are a map indexed by the subset,
    whatever the search holds, and only the pages the search touches count
    in RSS.  Up to ``DENSE`` (24) states it holds a byte per subset, 2^n
    bytes, at most 16 MiB, which a sparse search pays too (C(24, 10) rose
    from 35 to 41 MB of peak RSS with it); past that a bit per subset,
    2^n / 8 bytes.  From 32 states on, or with more symbols, the hash table
    costs 8 bytes per slot and is kept at most 3/4 full, so 11-22 bytes per
    subset, and 32 while it doubles.  At the default ``max_subsets`` of
    2^24, a search of 25 to 31 states holds at most 2^n / 8 bytes of map
    (256 MiB at 31 states), counting only touched pages, plus 4 bytes per
    discovery (64 MiB); one of 32 to 64 states that goes wide early holds at
    most about 0.45 GB: a table of 2^25 slots (256 MiB), or 384 MiB while it
    doubles, and 64 MiB of parent links; one that stays in Python needs
    about 1.6 GB.
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
        return 0, b"", 1, 0, 1

    masks, cols = pfa.kernel
    nsym = len(masks)
    steps = tuple(zip(range(nsym), masks, cols))
    step = image
    full = (1 << pfa.n) - 1
    seen = {full}
    # by discovery number: the parent's discovery number * nsym + the symbol,
    # below nsym * (max_subsets + 1), in 4 bytes where that fits
    origin = array("i" if nsym * (limits.max_subsets + 1) <= 1 << 31 else "q", [-1])
    # the current level in discovery order with its shortest-path counts
    counts = {full: 1}
    # a search over more than 64 states takes neither the chain nor the wide
    # step, and one over at most 64 builds their kernel on first need
    chain, wide = (CHAIN, WIDE) if pfa.n <= 64 else (inf, inf)
    kernel = None
    level = 0
    # consecutive levels of one subset that the Python step expanded into one
    narrow = 0
    # nsym times the discovery number of the next subset to expand; subsets
    # are expanded in discovery order, so this only ever counts up
    base = 0
    # (first discovery number, past the last, symbol) of every chain step's
    # commits, each discovery's parent the one before it
    runs = []
    # the narrow phase: the Python step, and the chain step after ``chain``
    # levels of one subset, until the first level of ``wide`` subsets
    while True:
        width = len(counts)
        if narrow >= chain or width >= wide:
            # the chain and vectorized steps both read the kernel
            kernel = kernel or _Kernel(pfa)
            if width >= wide:
                break
            [(bits, c)] = counts.items()
            s = origin[-1] % nsym
            room = min(limits.max_length - level, limits.max_subsets - len(seen))
            bits, done = kernel.chain(bits, s, seen, room)
            if done:
                runs.append((len(origin), len(origin) + done, s))
            origin.extend(range(base + s, base + nsym * done, nsym))
            counts = {bits: c}
            level += done
            base += nsym * done
            if not done:
                # one batch per CHAIN levels at most where chains never commit
                narrow = 0
        if not width:
            raise NotSynchronizing(len(seen), level)
        if level >= limits.max_length:
            raise LimitExceeded("max_length", len(seen), level)
        hit = None
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
        narrow = narrow + 1 if width == 1 and len(next_counts) == 1 else 0
        counts = next_counts
        level += 1
        if hit is not None:
            total = sum(v for k, v in counts.items() if k.bit_count() == 1)
            return level, _backtrack(origin, nsym, hit, runs), hit + 1, level, total
    # the one handoff: the level goes to the arrays front and weight, the
    # subsets seen to a set off the Python heap, and this level and every
    # later one, however narrow, take the vectorized step
    seen = _seen_set(pfa.n, nsym, np.fromiter(seen, np.uint64, len(seen)))
    front = np.fromiter(counts, np.uint64, len(counts))
    weight = np.fromiter(counts.values(), object, len(counts))
    while True:
        width = front.size
        if not width:
            raise NotSynchronizing(len(seen), level)
        if level >= limits.max_length:
            raise LimitExceeded("max_length", len(seen), level)
        # int64 sums are exact while no sum can reach 2^63; Python ints past that
        big = nsym * width * int(weight.max()) >> 63
        weight = weight.astype(object if big else np.int64, copy=False)
        front, weight, hit = kernel.step(front, weight, base, seen, origin, limits, level)
        base += nsym * width
        level += 1
        if hit is not None:
            total = sum(weight[np.bitwise_count(front) == 1].tolist())
            return level, _backtrack(origin, nsym, hit, runs), hit + 1, level, total


def _seen_set(n, nsym, keys):
    """The set that the subsets seen, ``keys``, are handed over to at the
    first wide level: the dense map where a candidate's image and number,
    below ``2^n * nsym``, fit in 64 bits together, a byte per subset for at
    most ``DENSE`` states and a bit per subset past that; the hash table
    otherwise."""
    if 2 * n + nsym.bit_length() <= 64:
        return _DenseSet(n, keys, packed=n > DENSE)
    return _SubsetTable(keys)


def _group_starts(keys):
    """Where each run of equal values in the sorted ``keys`` starts."""
    edge = np.empty(keys.size, bool)
    edge[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:])
    return edge.nonzero()[0]


# Fibonacci hashing: a subset's home slot is the top bits of the subset times
# this odd constant (2^64 over the golden ratio), modulo 2^64.
_GOLDEN = 0x9E3779B97F4A7C15


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
    it is the only way in, since every level from the first wide one on
    takes the vectorized step, through :meth:`claim`.  The table doubles
    before more than 3/4 of its slots would be taken, rehashing ``_CHUNK``
    slots at a time."""

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

    def claim(self, found, weight, nsym):
        """Add the unseen subsets among a level's candidate images ``found``,
        in (parent, symbol) order, the parents' counts being ``weight``.
        Returns the new subsets in discovery order, that is by earliest
        candidate: those candidates' numbers, the subsets, and the sums of
        their candidates' counts."""
        # sorted by home slot, so that equal images are adjacent and the
        # table is probed in address order
        order = np.argsort(_scramble(found))
        byhome = found.take(order)
        starts = _group_starts(byhome)
        first = np.minimum.reduceat(order, starts)
        sums = np.add.reduceat(weight.take(order // nsym), starts)
        new = np.flatnonzero(self.insert(byhome.take(starts)))
        # the new subsets in discovery order: their earliest candidates, sorted
        rank = np.zeros(found.size, np.int64)
        rank[first.take(new)] = new + 1
        new = rank[rank != 0] - 1
        return first.take(new), byhome.take(starts.take(new)), sums.take(new)


# the bit of each of a byte's 8 subsets in a packed _DenseSet
_BIT = np.uint8(1) << np.arange(8, dtype=np.uint8)


class _DenseSet:
    """A set of subsets indexed by the subset itself: one byte per subset,
    or, when ``packed``, one bit, bit ``k & 7`` of byte ``k >> 3`` standing
    for subset ``k``.

    :meth:`claim` orders a level's candidates by value sorts of ``uint64``
    keys, each a subset in ``n`` bits beside a number below ``2^(64 - n)``:
    a candidate's number, or a new subset's rank.  Candidate numbers are
    below ``2^n * nsym``, so the keys fit where ``2n + bit_length(nsym) <=
    64``, which :func:`_seen_set` checks."""

    def __init__(self, n, keys, packed):
        self.packed = packed
        self.bits = np.zeros((1 << n) + 7 >> 3 if packed else 1 << n, np.uint8 if packed else bool)
        self.size = 0
        self._add(keys)
        self.n = np.uint64(n)
        self.shift = np.uint64(64 - n)
        # the low n bits, and the low 64 - n
        self.subset = np.uint64((1 << n) - 1)
        self.number = np.uint64((1 << 64 - n) - 1)

    def __len__(self):
        return self.size

    def claim(self, found, weight, nsym):
        """:meth:`_SubsetTable.claim`, without hashing or probing, and
        without an argsort: the candidates already in the map are dropped
        first, and the rest sorted once by subset above candidate number,
        so that each run of one subset starts with its earliest candidate."""
        keep = self._unseen(found)
        keys = found.take(keep) << self.shift | keep.view(np.uint64)
        keys.sort()
        del keep
        subsets = keys >> self.shift
        starts = _group_starts(subsets)
        new = subsets.take(starts)
        del subsets
        number = (keys & self.number).view(np.int64)
        sums = np.add.reduceat(weight.take(number // nsym), starts)
        self._add(new)
        # the runs in discovery order: by earliest candidate above run number
        keys = number.take(starts).view(np.uint64) << self.n | np.arange(new.size, dtype=np.uint64)
        keys.sort()
        run = (keys & self.subset).view(np.int64)
        return (keys >> self.n).view(np.int64), new.take(run), sums.take(run)

    def _unseen(self, found):
        """The positions of the subsets ``found`` that the set does not hold."""
        if not self.packed:
            return (~self.bits.take(found.view(np.int64))).nonzero()[0]
        held = self.bits.take((found >> 3).view(np.int64))
        held &= _BIT.take((found & 7).view(np.int64))
        return (held == 0).nonzero()[0]

    def _add(self, new):
        """Add the distinct subsets ``new``."""
        self.size += new.size
        if self.packed:
            np.bitwise_or.at(self.bits, (new >> 3).view(np.int64), _BIT.take((new & 7).view(np.int64)))
        else:
            self.bits[new.view(np.int64)] = True


class _Kernel:
    """The automaton compiled for the chain and vectorized steps of
    :func:`_search`, from :attr:`Pfa.kernel`, for ``n <= 64`` only.

    ``tables[k][byte][s]`` is the OR of the one-bit targets, under symbol
    ``s``, of the states set in ``byte``, bit ``j`` standing for state
    ``8k + j + 1``, or the full set where ``s`` is undefined on one of those
    states; ``outside[s]`` is the set of states where ``s`` is undefined.

    ``orbits[s][q, j]`` is the one-bit set of s^(j+1) of state ``q + 1``, or
    0 from the first undefined step on, built by index doubling off the
    successor table ``succ[s]`` once per symbol, ``_BATCH`` steps wide.  The
    OR of a subset's rows is its orbit T_0, T_1 = s(T_0), ..., exact up to
    the first T_i that meets ``outside[s]``, beyond which no level
    commits."""

    def __init__(self, pfa: Pfa):
        n = pfa.n
        masks, cols = pfa.kernel
        chunks = (n + 7) // 8
        onebit = np.zeros((8 * chunks, len(masks)), np.uint64)
        onebit[:n] = np.array(cols, np.uint64).T
        byte = np.arange(256, dtype=np.uint64)
        self.tables = np.zeros((chunks, 256, len(masks)), np.uint64)
        for j in range(8):
            self.tables[:, byte >> j & 1 == 1] |= onebit[j::8, None]
        full = (1 << n) - 1
        self.outside = np.array([full & ~m for m in masks], np.uint64)
        for k in range(chunks):
            off = self.outside >> np.uint64(8 * k) & np.uint64(255)
            self.tables[k][byte[:, None] & off != 0] = full
        # state index -> one-bit set, with index n standing for undefined
        self.bit = np.append(np.uint64(1) << np.arange(n, dtype=np.uint64), np.uint64(0))
        self.succ = [np.array([t.bit_length() - 1 if t else n for t in col] + [n], np.uint8)
                     for col in cols]
        self.orbits = {}

    def images(self, front):
        """The images of the ``uint64`` subsets ``front`` under every symbol,
        one row per subset, and the full set where the symbol is undefined:
        the search starts from it, so it is always seen."""
        octets = front.view(np.uint8).reshape(front.size, 8)
        images = self.tables[0].take(octets[:, 0], axis=0)
        for k in range(1, len(self.tables)):
            images |= self.tables[k].take(octets[:, k], axis=0)
        return images

    def step(self, front, weight, base, seen, origin, limits, level):
        """The vectorized step: one level at once; the same discoveries, in
        the same order, with the same counts as the Python step of
        :func:`_search`, whose state and ``base`` it takes.  Returns the
        next level's subsets and counts in discovery order, and the
        discovery number of its first singleton, or None."""
        # the candidates in (parent, symbol) order, the Python step's order
        found = self.images(front).ravel()
        before = len(seen)
        first, found, sums = seen.claim(found, weight, self.outside.size)
        if len(seen) > limits.max_subsets:
            raise LimitExceeded("max_subsets", limits.max_subsets + 1, level + 1)
        origin.frombytes((first + base).astype(origin.typecode, copy=False).view(np.uint8))
        singles = (np.bitwise_count(found) == 1).nonzero()[0]
        hit = before + int(singles[0]) if singles.size else None
        return found, sums, hit

    def _orbit_table(self, s):
        table = self.orbits.get(s)
        if table is None:
            at = self.succ[s][:, None]
            while at.shape[1] < _BATCH:
                # s^(m+j) = s^j after s^m, for j = 1..m
                at = np.hstack([at, at[at[:, -1]]])
            table = self.orbits[s] = self.bit[at[:-1]]
        return table

    def chain(self, bits, s, seen, room):
        """The chain step: expand the levels from ``bits`` on under symbol
        ``s``, a batch at a time over its orbit, for as long as the Python
        step would find exactly one new subset, T_(i+1), from each T_i: it
        is defined, unseen and not a singleton, and every other symbol's
        image of T_i is undefined or already seen.  Commits at most ``room``
        levels, adding each T_(i+1) to the Python set ``seen``; returns the
        last subset reached and the number of levels committed."""
        others = [r for r in range(self.outside.size) if r != s]
        has, add = seen.__contains__, seen.add
        done = 0
        while room > 0:
            k = min(_BATCH, room)
            members = np.flatnonzero(
                np.unpackbits(np.array([bits], "<u8").view(np.uint8), bitorder="little")
            )
            orbit = np.bitwise_or.reduce(self._orbit_table(s)[members, :k], axis=0)
            front = np.concatenate((np.array([bits], np.uint64), orbit[:-1]))
            undefined = (front & self.outside[s]) != 0
            stop = np.flatnonzero(undefined | (np.bitwise_count(orbit) == 1))
            stop = int(stop[0]) if stop.size else k
            checks = self.images(front)[:stop, others]
            if len(others) == 1:
                rows, known = checks[:, 0].tolist(), has
            else:
                rows, known = checks.tolist(), lambda row: all(map(has, row))
            committed = stop
            for i, (target, row) in enumerate(zip(orbit[:stop].tolist(), rows)):
                if has(target) or not known(row):
                    committed = i
                    break
                add(target)
            if committed:
                bits = orbit[committed - 1].item()
            done += committed
            room -= committed
            if committed < _BATCH:
                break
        return bits, done


def _backtrack(origin, nsym, d, runs):
    """The letters from the full set to discovery ``d``, jumping in one go
    over each of the chain step's ``runs``; consumes ``runs``.  The path
    enters every run: once a chain step commits, its last subset is the
    whole frontier, so every later discovery descends from it, and the
    chain step never commits the singleton ``d``."""
    letters = bytearray()
    while origin[d] >= 0:
        if runs and d < runs[-1][1]:
            first, _, s = runs.pop()
            letters += bytes((s,)) * (d + 1 - first)
            d = first - 1
        else:
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
    # the word is copied to bytes once the search's subsets are freed
    return SolveResult(threshold, Word(letters), explored, levels, count)


def count_shortest(pfa: Pfa, limits: SolveLimits = SolveLimits()) -> tuple[int, int]:
    """Reset threshold plus the exact number of distinct shortest words.

    Counts shortest paths from the full set to every singleton reached at the
    minimal BFS level; the count is an arbitrary-precision integer.
    """
    result = solve(pfa, limits)
    return result.threshold, result.count
