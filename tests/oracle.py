"""Slow reference semantics for the tests, independent of the fast paths.

``simulate`` walks ``pfa.delta`` one state at a time, and ``shortest_words``
enumerates words in lexicographic order, so neither shares code with
``apply_word`` or the subset search they check.  ``TermSequence`` keeps
every term of the split sequence p_c in a list, where the package keeps runs
of equal values, and ``exact_row`` evaluates the closed form from it with
arbitrary-precision integers, one c at a time, so neither shares code with
the run tables behind ``rt_formula``, ``f_closed`` and the family-wide
queries.  ``f_recursive`` reads no split sequence at all: it minimizes the
race cost over every split point, in one int64 table per c that grows by
doubling under a lock (so threads may share it) and refuses any n with
(c+1)n^2 >= 2^63, past which a split sum could wrap.  ``split_interval``
reads the optimal splits from the same term list; ``race_counts`` counts
the optimal races of every pawn count bottom-up, and ``plans`` builds the
optimal plans with no memo, for ``count_races`` and ``enumerate_plans`` to
be checked against.  ``simulate_race`` walks a
plan's pawns iteration by iteration, with a position, a live set and the
pawns on each position, from the windows of ``pawn_windows_reference``, a
recursive walk of each pawn's ancestors, where the package fills its race
grid from the split nodes alone.  ``columns`` is the int64 column
loop that the family scans ran before the shared run template: one
``SequenceCache(c)``, a run table of that c alone, per c (itself checked
against ``TermSequence``), its runs scattered into a count array and summed
by two cumsums, with no term shared between two values of c.  ``scan_optimal``, ``scan_maximizers``,
``scan_drops`` and ``scan_grid`` are the dense scans over every column, one
c at a time, that the package's monotone-argmax scans replaced.

The rest check the paper's claims on the package's outputs, and no command
needs them.  ``generic_twinverse`` inverts any increasing sequence by
galloping, for the involution m_c(m_c(i)) = p_c(i).  ``expand_star_word``
substitutes ã -> b^c a and b̃ -> b^(c+1), the reduction of C(n, c) to the
3-letter automaton C* of n - c states; ``greedy_factorization`` splits a
word into the blocks a, b^c a and b^(c+1) that every shortest word of the
family factors into after its b^(c+1) prefix.  ``strongly_connected``
checks that the transitive prime construction is strongly connected, and
``first_primes`` and ``growth_exponent`` give the lists and the scale
ln(rt) / sqrt(n ln n) of the prime constructions' growth.
``binary_thresholds`` searches every binary PFA (a, b) of up to 6 states,
from the tables of ``partial_maps`` and ``subset_images``, for the upper
bound p(n, 2) <= (n-1)^2 that no command checks;
``total_noninjective_classes`` gives the one letter a per class that its
pruning keeps.
"""

import threading
from bisect import bisect_right
from functools import lru_cache
from itertools import permutations, product
from math import isqrt, log

import numpy as np

from carefulsync.cerny import DropEvent
from carefulsync.pawnrace import RacePlan, RaceTrace, SequenceCache, leaf
from carefulsync.pfa import Word
from carefulsync.primes import group_count, prime_rt_formula


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


class TermSequence:
    """Every term of p_c as a list, grown c terms at a time.

    p(k) is 1 for k <= 2c and p(k-c-1) + p(k-c) afterwards; q(k) is 1 plus
    p(1) + ... + p(k-1), and twinverse(n) is the least k with n < p(k).
    """

    def __init__(self, c):
        self.c = c
        self._p = [1] * (2 * c)
        self._sums = list(range(2 * c + 1))  # _sums[k] = p(1) + ... + p(k)

    def _extend_block(self):
        c, size = self.c, len(self._p)
        for x, y in zip(self._p[size - c - 1: size - 1], self._p[size - c: size]):
            self._p.append(x + y)
            self._sums.append(self._sums[-1] + x + y)

    def p(self, k):
        while len(self._p) < k:
            self._extend_block()
        return self._p[k - 1]

    def q(self, k):
        while len(self._p) < k:
            self._extend_block()
        return 1 + self._sums[k - 1]

    def twinverse(self, n):
        while self._p[-1] <= n:
            self._extend_block()
        return bisect_right(self._p, n) + 1


@lru_cache(maxsize=None)
def term_sequence(c):
    return TermSequence(c)


def exact_f(n, c):
    """f_c(n) = n*m - q(m) with m = twinverse(n), from the term list."""
    if c == 0:
        return n - 1
    terms = term_sequence(c)
    m = terms.twinverse(n)
    return n * m - terms.q(m)


_f_tables = {}  # c -> the int64 table of f_recursive, grown by doubling
_f_lock = threading.Lock()


def f_recursive(n, c):
    """Minimum race cost by direct recursion over every split point.

    f(1) = 0 and f(n) = min over 1<=i<=n-1 of f(i) + f(n-i) + (c+1)n - i.
    Memoized per cost parameter; deliberately independent of the closed form
    so the two can check each other.  The table is int64: f(m) <= (c+1)m(m-1),
    so every split sum stays below (c+1)m^2, and n needs (c+1)n^2 < 2^63.
    """
    if n < 1:
        raise ValueError("need at least one pawn")
    if c < 0:
        raise ValueError("cost parameter must be >= 0")
    m_max = isqrt((2**63 - 1) // (c + 1))  # the largest m with (c+1)m^2 < 2^63
    if n > m_max:
        raise ValueError(f"need (c + 1) * n**2 < 2**63, got n={n}, c={c}")
    with _f_lock:
        table = _f_tables.get(c)
        if table is None or len(table) <= n:
            size = min(max(n + 1, 16, 0 if table is None else 2 * len(table)), m_max + 1)
            new = np.zeros(size, dtype=np.int64)
            start = 2
            if table is not None:
                new[: len(table)] = table
                start = len(table)
            idx = np.arange(size, dtype=np.int64)
            for m in range(start, size):
                splits = new[1:m] + new[m - 1:0:-1] - idx[1:m]
                new[m] = (c + 1) * m + splits.min()
            table = _f_tables[c] = new
        return int(table[n])


def split_interval(n, c):
    """The optimal sizes of the trailing group of n >= 3 pawns, from the
    term list: every i with p(k-1) <= n-i <= p(k) <= i <= p(k+1), where
    k = twinverse(n) - c - 1."""
    terms = term_sequence(c)
    k = terms.twinverse(n) - c - 1
    return range(max(terms.p(k), n - terms.p(k)), min(terms.p(k + 1), n - terms.p(k - 1)) + 1)


def race_counts(n_max, c):
    """The optimal-race counts o(0..n_max), o(0) = 0, every m bottom-up."""
    counts = [0, 1, 1]
    for m in range(3, n_max + 1):
        counts.append(sum(counts[m - i] * counts[i] for i in split_interval(m, c)))
    return counts[:n_max + 1]


def plans(lo, hi, c):
    """Every optimal plan of the pawns lo..hi, in the package's order, with
    no memo: each sub-interval's plans are rebuilt wherever it is met.  Only
    the leading side's list is built once per split, not once per peloton
    plan; the plain loop nest takes about 12 s for n <= 40 at c = 1."""
    n = hi - lo + 1
    if n == 1:
        return [leaf(lo)]
    if n == 2:
        return [RacePlan(lo, hi, lo, leaf(lo), leaf(hi))]
    out = []
    for i in split_interval(n, c):
        split = lo + i - 1
        rights = plans(split + 1, hi, c)
        for left in plans(lo, split, c):
            for right in rights:
                out.append(RacePlan(lo, hi, split, left, right))
    return out


def pawn_windows_reference(plan):
    """Per pawn k, by a recursive walk of its ancestors: the iterations it
    stays, k - lo for the largest subtree [lo..k] that it ends, and the
    iteration its moves end, the right end of the node above that subtree
    less lo (for the last survivor, which never moves, its stay)."""
    stay_until, move_until = {}, {}

    def walk(node, ancestors):
        if node.split is not None:
            walk(node.left, ancestors + [node])
            walk(node.right, ancestors + [node])
            return
        k = lo = node.lo
        parent = None
        for anc in reversed(ancestors):
            if anc.hi != k:
                parent = anc
                break
            lo = anc.lo
        stay_until[k] = k - lo
        move_until[k] = (node.hi if parent is None else parent.hi) - lo

    walk(plan, [])
    return stay_until, move_until


def simulate_race(plan, c):
    """The ``RaceTrace`` of a plan's canonical schedule, by walking the pawns
    iteration by iteration: each live pawn stays or moves by its windows,
    and pawns that meet on a position fuse into the one of largest index."""
    n = plan.hi
    stay_until, move_until = pawn_windows_reference(plan)
    position = {k: k for k in range(1, n + 1)}
    alive = set(position)
    rows = []
    merges = []
    move_steps = stay_steps = 0
    for t in range(1, n):
        row = ["."] * n
        for k in sorted(alive):
            if t <= stay_until[k]:
                row[position[k] - 1] = "R"
                stay_steps += 1
            else:
                assert t <= move_until[k], f"pawn {k} outlived its schedule"
                row[position[k] - 1] = "C"
                move_steps += 1
                position[k] += 1
        occupied = {}
        for k in alive:
            occupied.setdefault(position[k], []).append(k)
        fused = []
        for pos, ks in occupied.items():
            if len(ks) > 1:
                keep = max(ks)
                fused.append(pos)
                for k in ks:
                    if k != keep:
                        alive.discard(k)
        rows.append("".join(row))
        merges.append(tuple(sorted(fused)))
    assert len(alive) == 1 and position[next(iter(alive))] == n
    cost = (c + 1) * move_steps + c * stay_steps
    return RaceTrace(n=n, c=c, cost=cost, move_steps=move_steps, stay_steps=stay_steps,
                     rows=tuple(rows), merges=tuple(merges))


@lru_cache(maxsize=None)
def exact_row(n):
    """rt(n, c) for c = 0 .. n-2, each from the closed form over term lists."""
    return tuple((n - c - 1) * (n - c - 2) + c + 1 + exact_f(n - c - 1, c) for c in range(n - 1))


def row_optimum(row):
    """The maximum of a row and the set of every c that attains it."""
    best = max(row)
    return best, {c for c, value in enumerate(row) if value == best}


def columns(n_max):
    """``(c, column)`` for c = 0 .. n_max-2, as ``cerny.scan_grid`` reads
    them: entry j of ``column`` is rt(c + 2 + j, c).  The column is a view
    of a buffer that the next one overwrites."""
    top = n_max - 1  # largest n'
    nprime = np.arange(1, top + 1, dtype=np.int64)
    base = nprime * (nprime - 1)
    f = np.empty(top, dtype=np.int64)
    column = np.empty(top, dtype=np.int64)
    hist = np.zeros(top, dtype=np.int64)  # hist[v]: terms of p_c equal to v
    below = np.empty(top, dtype=np.int64)
    for c in range(n_max - 1):
        count = n_max - c - 1
        if c == 0:
            np.subtract(nprime[:count], 1, out=f[:count])
        else:
            values, multiplicities = SequenceCache(c).runs(count - 1)
            hist[values] = multiplicities
            np.cumsum(hist[1:count], out=below[: count - 1])  # terms <= j
            hist[values] = 0
            f[0] = 0
            np.cumsum(below[: count - 1], out=f[1:count])
            f[1:count] += nprime[: count - 1]  # m = below + 1
        out = column[:count]
        np.add(base[:count], c + 1, out=out)
        out += f[:count]
        yield c, out


def scan_optimal(n_max):
    """Per-n maximum threshold and largest maximizing c, as int64 arrays
    indexed by n (-1 below n=2): the maximum over every column."""
    best = np.full(n_max + 1, -1, dtype=np.int64)
    best_c = np.full(n_max + 1, -1, dtype=np.int64)
    for c, column in columns(n_max):
        window = best[c + 2:]
        better = column >= window  # ties move to the larger c
        np.maximum(window, column, out=window)
        np.copyto(best_c[c + 2:], c, where=better)
    return best, best_c


def scan_maximizers(n_max):
    """Per-n maximum threshold and largest maximizing c, as int64 arrays
    indexed by n (-1 below n=2), and for each n with more than one
    maximizing c the others, increasing."""
    best = np.full(n_max + 1, -1, dtype=np.int64)
    lead = np.full(n_max + 1, -1, dtype=np.int64)  # the first c to reach the best
    ties = []
    for c, column in columns(n_max):
        window = best[c + 2:]
        for j in np.flatnonzero(column == window).tolist():
            ties.append((c + 2 + j, int(column[j]), c))
        np.copyto(lead[c + 2:], c, where=column > window)
        np.maximum(window, column, out=window)
    argmax = [[c] for c in lead.tolist()]
    for n, value, c in ties:
        if value == best[n]:
            argmax[n].append(c)
    best_c = np.array([cs[-1] for cs in argmax], dtype=np.int64)
    return best, best_c, {n: cs[:-1] for n, cs in enumerate(argmax) if len(cs) > 1}


def scan_drops(n_max):
    """Every n at which the largest optimal c falls from n to n + 1."""
    best, best_c = (array.tolist() for array in scan_optimal(n_max))
    return [DropEvent(n, n + 1, best_c[n], best_c[n + 1], best[n], best[n + 1])
            for n in range(2, n_max) if best_c[n + 1] < best_c[n]]


def scan_grid(n_max, c_max):
    """``(n, values)`` for n = 2 .. n_max, values holding rt(n, c) for
    c = 0 .. min(c_max, n-2) as Python ints."""
    grid = [[] for _ in range(n_max + 1)]
    for c, column in columns(n_max):
        if c > c_max:
            break
        for row, value in zip(grid[c + 2:], column.tolist()):
            row.append(value)
    return list(enumerate(grid))[2:]


def generic_twinverse(p, i):
    """Twinverse of an arbitrary increasing unbounded sequence.

    ``p`` is a callable on 1-based indices; returns min{k : i < p(k)}.
    Galloping plus binary search keeps this usable even when the answer is
    astronomically large (the twinverse of a twinverse grows like p itself).
    """
    if i < 1:
        raise ValueError("argument must be >= 1")
    if p(1) > i:
        return 1
    lo, hi = 1, 2
    while p(hi) <= i:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if p(mid) <= i:
            lo = mid
        else:
            hi = mid
    return hi


def expand_star_word(word, c):
    """Substitute ã -> b^c a and b̃ -> b^(c+1) and report the weighted length.

    Applying the expansion on the n-state family member agrees with applying
    the original word on the (n-c)-state auxiliary automaton.
    """
    if c < 0:
        raise ValueError("cost parameter must be >= 0")
    bad = word.letters.translate(None, b"\0\1\2")  # the letters out of range
    if bad:
        raise ValueError(f"symbol index {bad[0]} outside the 3-letter alphabet")
    expansion = {0: "\0", 1: "\1" * c + "\0", 2: "\1" * (c + 1)}
    out = word.letters.decode("latin-1").translate(expansion).encode("latin-1")
    return Word(out), len(out)


def greedy_factorization(text, c):
    """Split a word (after its b^(c+1) prefix) into a, b^c a, b^(c+1) blocks.

    Returns the block list, or None if the text does not factor.  Every
    minimum-length word between subsets of the family decomposes this way.
    The decomposition of each maximal b-run is unique: a run of length L
    works iff L = 0 or L = c modulo c+1, the latter only directly before an
    a, which then completes the b^c a block.
    """
    if c < 0:
        raise ValueError("cost parameter must be >= 0")
    blocks = []
    i = 0
    while i < len(text):
        if text[i] == "a":
            blocks.append("a")
            i += 1
            continue
        if text[i] != "b":
            return None
        run = 0
        while i + run < len(text) and text[i + run] == "b":
            run += 1
        full, rest = divmod(run, c + 1)
        if rest == 0:
            blocks.extend(["b" * (c + 1)] * full)
            i += run
        elif rest == c and i + run < len(text) and text[i + run] == "a":
            blocks.extend(["b" * (c + 1)] * full)
            blocks.append("b" * c + "a")
            i += run + 1
        else:
            return None
    return blocks


def strongly_connected(pfa):
    """True iff every state is reachable from every other along defined edges."""
    edges = [[] for _ in range(pfa.n + 1)]
    redges = [[] for _ in range(pfa.n + 1)]
    for q in range(1, pfa.n + 1):
        for s in range(len(pfa.symbols)):
            t = pfa.delta[q - 1][s]
            if t is not None:
                edges[q].append(t)
                redges[t].append(q)

    def reach(adj):
        seen = {1}
        stack = [1]
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return len(seen) == pfa.n

    return reach(edges) and reach(redges)


def first_primes(r):
    """The first r prime numbers (trial division; r stays small here)."""
    out = []
    candidate = 2
    while len(out) < r:
        if all(candidate % p for p in out if p <= isqrt(candidate)):
            out.append(candidate)
        candidate += 1
    return tuple(out)


def growth_exponent(values):
    """ln(threshold) / sqrt(n ln n) with n = group_count(values), the scale
    on which the prime constructions grow."""
    n = group_count(values)
    return log(prime_rt_formula(values)) / (n * log(n)) ** 0.5


def partial_maps(n):
    """Every partial map of the states 0..n-1 into themselves, one row each,
    -1 marking an undefined image: (n + 1)^n rows, in lexicographic order."""
    return (np.indices((n + 1,) * n, dtype=np.int8).reshape(n, -1).T - 1).copy()


def total_noninjective_classes(n):
    """One total, non-injective map of 0..n-1 per conjugacy class under
    relabelling the states: the lexicographically least of each class."""
    maps = np.indices((n,) * n, dtype=np.int64).reshape(n, -1).T
    maps = maps[[len(set(row)) < n for row in maps.tolist()]]
    weights = n ** np.arange(n - 1, -1, -1)
    least = None
    for perm in permutations(range(n)):
        sigma = np.array(perm)
        # sigma f sigma^-1, as a row: x -> sigma[f[sigma^-1[x]]]
        codes = sigma[maps[:, np.argsort(sigma)]] @ weights
        least = codes if least is None else np.minimum(least, codes)
    classes = np.unique(least)
    return (classes[:, None] // weights % n).astype(np.int8)


def subset_images(n, maps):
    """The image of every subset of 0..n-1 (as a bitmask) under each partial
    map: a ``uint8`` table of shape (2^n, len(maps)), 0 where the map is
    undefined on some member (a nonempty set never maps onto the empty one)."""
    maps = np.asarray(maps)
    table = np.zeros((1 << n, len(maps)), np.uint8)
    single = np.where(maps >= 0, np.left_shift(1, maps.clip(0)), 0).astype(np.uint8)
    for s in range(1, 1 << n):
        q = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        if rest:
            both = (table[rest] != 0) & (single[:, q] != 0)
            table[s] = np.where(both, table[rest] | single[:, q], 0)
        else:
            table[s] = single[:, q]
    return table


def binary_thresholds(n, a_maps, b_maps):
    """The careful synchronization threshold of every binary PFA (a, b) with
    a in ``a_maps`` and b in ``b_maps`` (rows of ``partial_maps``), by
    breadth-first search over subsets with no code of the package's search:
    an ``int8`` array of shape (len(a_maps), len(b_maps)), -1 where no word
    synchronizes.  Each automaton keeps the subsets it has reached as the
    bits of one ``uint64`` (so n <= 6), and each level ORs the bits of a(S)
    and b(S) into every automaton whose frontier holds S, bit 0 standing
    for an undefined image.  An automaton leaves the search at its first
    singleton or when its frontier empties; at most 2^18 automata are
    searched at once."""
    if not 2 <= n <= 6:
        raise ValueError("one uint64 holds the subsets of at most 6 states")
    a_img, b_img = subset_images(n, a_maps), subset_images(n, b_maps)
    one = np.uint64(1)
    singletons = np.uint64(sum(1 << (1 << q) for q in range(n)))
    full = (1 << n) - 1
    nb = len(b_maps)
    out = np.full(len(a_maps) * nb, -1, np.int8)
    rows = max(1, (1 << 18) // nb)
    for first in range(0, len(a_maps), rows):
        ids = np.arange(first * nb, min(len(a_maps), first + rows) * nb)
        ai, bi = ids // nb, ids % nb
        frontier = np.full(ids.size, 1 << full, np.uint64)
        seen = frontier.copy()
        level = 0
        while ids.size:
            hit = (frontier & singletons) != 0
            out[ids[hit]] = level
            live = ~hit & (frontier != 0)
            ids, ai, bi, frontier, seen = ids[live], ai[live], bi[live], frontier[live], seen[live]
            reached = np.zeros_like(frontier)
            for s in range(1, full + 1):
                at = np.flatnonzero((frontier >> np.uint64(s)) & one)
                if at.size:
                    reached[at] |= (one << a_img[s][ai[at]]) | (one << b_img[s][bi[at]])
            frontier = reached & ~(seen | one)
            seen |= frontier
            level += 1
    return out.reshape(len(a_maps), nb)
