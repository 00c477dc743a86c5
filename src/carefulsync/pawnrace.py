"""The pawn merging race and its exact solution.

``n`` pawns sit on the integers 1..n.  Each iteration every live pawn either
moves one step right (cost ``c+1``) or stays (cost ``c``); pawns landing on
the same spot merge.  ``f_recursive`` minimizes the total cost by brute
recursion, ``f_closed`` evaluates the closed form built on the generalized
Fibonacci sequences below, and the plan machinery enumerates and simulates
the optimal races themselves.
"""

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .pfa import Word


class SequenceCache:
    """Exact values of the split sequences for one cost parameter ``c``.

    ``p(k)`` is 1 for k <= 2c and p(k-c-1) + p(k-c) afterwards (Fibonacci for
    c=1, a shifted Padovan for c=2).  ``q(k)`` is 1 plus the partial sums of
    p through p(k-1), and ``twinverse(n)`` is the least k with n < p(k).

    p is nondecreasing with few distinct values (at c = 420000 the 8.8 M
    terms up to 579999 form 198 runs), so the table holds runs: ``_p`` lists
    the distinct values in increasing order, ``_ends[i]`` counts the terms
    <= ``_p[i]`` and ``_sums[i]`` adds them up, so p, q and twinverse are
    each one bisection.  ``_p`` keeps its name because its length is still
    the table's size, now one entry per run, as the benchmark's cache
    statistics read it.

    The table grows block by block.  Block j holds the terms (j-1)c+1 .. jc,
    and B_j[i] = B_{j-1}[i-1] + B_{j-1}[i], where B_{j-1}[-1] is the last
    term of B_{j-2}.  So a run (v, m) of block j-1, preceded by the value u,
    becomes (u+v, 1) and (2v, m-1) in block j, and equal neighbours merge.

    ``cache_for`` memoizes at most ``_CACHE_CAP`` tables and evicts the least
    recently used; the family scans build one table per c and drop it.

    Values are exact Python ints.  Growth holds a lock, appends a value and
    its sum before its count, and changes only the last run, so reads, which
    take the lock only to grow, see final runs below the last while another
    thread grows the table.
    """

    def __init__(self, c: int):
        if c < 1:
            raise ValueError("cost parameter must be >= 1")
        self.c = c
        self._p = [1]
        self._ends = [2 * c]
        self._sums = [2 * c]
        self._block = [(1, c)]  # runs of the last complete block
        self._before = 1  # last term of the block before it
        self._lock = threading.Lock()

    def _extend_block(self):
        block = []
        u = self._before
        # values increase along a block, so u+v exceeds every value before it
        # and merges only into (2v, m-1), when u == v
        for v, m in self._block:
            if u == v:
                block.append((2 * v, m))
            else:
                block.append((u + v, 1))
                if m > 1:
                    block.append((2 * v, m - 1))
            u = v
        self._before, self._block = u, block
        values, sums, ends = self._p, self._sums, self._ends
        for value, count in block:
            if value == values[-1]:
                sums[-1] += value * count
                ends[-1] += count
            else:
                values.append(value)
                sums.append(sums[-1] + value * count)
                ends.append(ends[-1] + count)

    def _grow_to(self, k: int):
        with self._lock:
            while self._ends[-1] < k:
                self._extend_block()

    def _grow_beyond(self, value: int):
        with self._lock:
            while self._p[-1] <= value:
                self._extend_block()

    def p(self, k: int) -> int:
        if k < 1:
            raise ValueError("index must be >= 1")
        self._grow_to(k)
        return self._p[bisect_left(self._ends, k)]

    def q(self, k: int) -> int:
        if k < 1:
            raise ValueError("index must be >= 1")
        self._grow_to(k)
        i = bisect_left(self._ends, k - 1)  # the run holding p(k-1)
        done, total = (self._ends[i - 1], self._sums[i - 1]) if i else (0, 0)
        return 1 + total + self._p[i] * (k - 1 - done)

    def twinverse(self, n: int) -> int:
        if n < 1:
            raise ValueError("argument must be >= 1")
        self._grow_beyond(n)
        return self._ends[bisect_right(self._p, n) - 1] + 1

    def runs(self, limit: int) -> tuple[list[int], list[int]]:
        """The distinct values v <= limit of p, and how many terms equal each."""
        self._grow_beyond(limit)
        r = bisect_right(self._p, limit)
        ends = self._ends[:r]
        return self._p[:r], [end - start for start, end in zip([0, *ends], ends)]


# Run tables memoized by ``cache_for``, least recently used first; a fixed
# cap keeps sweeps over many c from pinning a table per c.
_CACHE_CAP = 64
_caches: dict[int, SequenceCache] = {}
_caches_lock = threading.Lock()


def cache_for(c: int) -> SequenceCache:
    with _caches_lock:
        cache = _caches.pop(c, None)
        if cache is None:
            cache = SequenceCache(c)
            if len(_caches) >= _CACHE_CAP:
                del _caches[next(iter(_caches))]
        _caches[c] = cache
    return cache


def sequences(c: int, k: int) -> tuple[int, int]:
    """The pair (p_c(k), q_c(k)) of split-sequence values."""
    cache = cache_for(c)
    return cache.p(k), cache.q(k)


def twinverse(c: int, n: int) -> int:
    """Least k with n < p_c(k)."""
    return cache_for(c).twinverse(n)


def generic_twinverse(p, i: int) -> int:
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


# ---------------------------------------------------------------------------
# minimum race cost, two independent ways

_f_tables: dict[int, np.ndarray] = {}
_f_lock = threading.Lock()


def f_recursive(n: int, c: int) -> int:
    """Minimum race cost by direct recursion over every split point.

    f(1) = 0 and f(n) = min over 1<=i<=n-1 of f(i) + f(n-i) + (c+1)n - i.
    Memoized per cost parameter; deliberately independent of the closed form
    so the two can check each other.
    """
    if n < 1:
        raise ValueError("need at least one pawn")
    if c < 0:
        raise ValueError("cost parameter must be >= 0")
    with _f_lock:
        table = _f_tables.get(c)
        if table is None or len(table) <= n:
            size = max(n + 1, 16, 0 if table is None else 2 * len(table))
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


def f_closed(n: int, c: int) -> int:
    """Minimum race cost via the closed form n*m_c(n) - q_c(m_c(n)).

    For c = 0 the answer is simply n - 1 (one pawn does all the moving).
    """
    if n < 1:
        raise ValueError("need at least one pawn")
    if c < 0:
        raise ValueError("cost parameter must be >= 0")
    if c == 0:
        return n - 1
    return race_cost(cache_for(c), n)


def race_cost(cache: SequenceCache, n: int) -> int:
    """f_c(n) = n*m - q(m) with m = twinverse(n), read from one run table."""
    m = cache.twinverse(n)
    return n * m - cache.q(m)


def split_interval(n: int, c: int) -> list[int]:
    """All optimal sizes for the trailing group when racing ``n`` pawns.

    With k = m_c(n) - c - 1, these are the i with
    p(k-1) <= n-i <= p(k) <= i <= p(k+1); the result is a nonempty
    contiguous range whose least element is max(p(k), n - p(k)).
    """
    if n < 3:
        raise ValueError("meaningful only for n >= 3")
    cache = cache_for(c)
    k = cache.twinverse(n) - c - 1
    pk_prev, pk, pk_next = cache.p(k - 1), cache.p(k), cache.p(k + 1)
    lo = max(pk, n - pk)
    hi = min(pk_next, n - pk_prev)
    result = list(range(lo, hi + 1))
    assert result, f"empty split interval for n={n}, c={c}"
    return result


# One memo of optimal-race counts per c.  Unlike the tables above it needs
# no lock: ``setdefault`` hands every thread the same memo, and each entry
# is written by a single dict assignment of a value that depends only on
# (n, c).  Threads that race on a missing entry compute it twice and store
# equal values; no thread can read a partial one.
_o_tables: dict[int, dict[int, int]] = {}


def count_races(n: int, c: int) -> int:
    """Number of distinct optimal races (arbitrary precision)."""
    if n < 1:
        raise ValueError("need at least one pawn")
    if c < 1:
        raise ValueError("optimal-race counting needs cost parameter >= 1")
    memo = _o_tables.setdefault(c, {1: 1, 2: 1})
    return _count_races(n, c, memo)


def _count_races(n, c, memo):
    known = memo.get(n)
    if known is not None:
        return known
    total = 0
    for i in split_interval(n, c):
        total += _count_races(n - i, c, memo) * _count_races(i, c, memo)
    memo[n] = total
    return total


# ---------------------------------------------------------------------------
# race plans

@dataclass(frozen=True)
class RacePlan:
    """Binary split tree over a pawn interval [lo..hi].

    An inner node splits [lo..hi] at ``split`` into the peloton [lo..split]
    and the leading group [split+1..hi]; leaves are single pawns.
    """

    lo: int
    hi: int
    split: int | None = None
    left: "RacePlan | None" = None
    right: "RacePlan | None" = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty pawn interval")
        if self.split is None:
            if self.lo != self.hi or self.left or self.right:
                raise ValueError("a leaf covers exactly one pawn")
        else:
            if not self.lo <= self.split < self.hi:
                raise ValueError("split outside the interval")
            if self.left is None or self.right is None:
                raise ValueError("inner node needs both children")
            if (self.left.lo, self.left.hi) != (self.lo, self.split):
                raise ValueError("left child does not cover the peloton side")
            if (self.right.lo, self.right.hi) != (self.split + 1, self.hi):
                raise ValueError("right child does not cover the leading side")

    @property
    def pawns(self) -> int:
        return self.hi - self.lo + 1

    def splits(self):
        """Yield (lo, hi, split) of every inner node, preorder."""
        if self.split is not None:
            yield (self.lo, self.hi, self.split)
            yield from self.left.splits()
            yield from self.right.splits()


class TooManyPlans(Exception):
    """More optimal plans than the caller's cap; carries the true count."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} optimal plans exceed cap {cap}")
        self.count = count
        self.cap = cap


def leaf(k: int) -> RacePlan:
    return RacePlan(k, k)


def enumerate_plans(n: int, c: int, cap: int = 1000) -> list[RacePlan]:
    """All optimal race plans for ``n`` pawns, as split trees.

    Requires c >= 1 (split optimality is only characterized there).  When the
    number of plans exceeds ``cap``, raises :class:`TooManyPlans` with the
    exact count attached instead of building them.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    total = 1 if n <= 2 else count_races(n, c)
    if total > cap:
        raise TooManyPlans(total, cap)
    return _plans(1, n, c)


def _plans(lo, hi, c):
    n = hi - lo + 1
    if n == 1:
        return [leaf(lo)]
    if n == 2:
        return [RacePlan(lo, hi, lo, leaf(lo), leaf(hi))]
    out = []
    for i in split_interval(n, c):
        split = lo + i - 1
        for left in _plans(lo, split, c):
            for right in _plans(split + 1, hi, c):
                out.append(RacePlan(lo, hi, split, left, right))
    return out


def plan_text(plan: RacePlan) -> str:
    """Compact one-line tree form, e.g. ``(1-7@5 (1-5@3 ...) (6-7@6 6 7))``."""
    if plan.split is None:
        return str(plan.lo)
    return (
        f"({plan.lo}-{plan.hi}@{plan.split} "
        f"{plan_text(plan.left)} {plan_text(plan.right)})"
    )


def greedy_plan(n: int) -> RacePlan:
    """The left-spine plan: one pawn chases, everyone else sits still.

    This is the optimal shape for c = 0, where staying is free.
    """
    if n < 1:
        raise ValueError("need at least one pawn")
    plan = leaf(1)
    for hi in range(2, n + 1):
        plan = RacePlan(1, hi, hi - 1, plan, leaf(hi))
    return plan


# ---------------------------------------------------------------------------
# simulation

@dataclass(frozen=True)
class RaceTrace:
    """Outcome of running a plan's canonical schedule.

    ``actions[t][k-1]`` is the pawn k action in iteration t+1: 'C' move,
    'R' stay, '.' already merged away.  ``positions[t][k-1]`` is where pawn k
    stands at the start of that iteration (None once merged), and
    ``merges[t]`` lists the positions where pawns fused at its end.
    """

    n: int
    c: int
    cost: int
    move_steps: int
    stay_steps: int
    actions: tuple[str, ...]
    positions: tuple[tuple[int | None, ...], ...]
    merges: tuple[tuple[int, ...], ...]


def _pawn_windows(plan: RacePlan):
    """Per pawn: iterations spent staying, then moving, per the canonical schedule.

    Within a node split at i, both children run their own schedules from
    iteration 1; the peloton's survivor starts chasing right after its
    subtree finishes and moves every iteration until it hits the stationary
    survivor of the leading group.  Pawn k stays for (k - lo of the largest
    subtree it ends) iterations and then moves up to the enclosing node's
    right end.
    """
    stay_until = {}
    move_until = {}

    def walk(node, ancestors):
        if node.split is None:
            k = node.lo
            lo = node.lo
            parent = None
            for anc in reversed(ancestors):
                if anc.hi == k:
                    lo = anc.lo
                else:
                    parent = anc
                    break
            stay_until[k] = k - lo
            # the overall survivor never moves; everyone else chases to the
            # right end of the first enclosing node they are not rightmost in
            move_until[k] = (node.hi if parent is None else parent.hi) - lo
        else:
            ancestors.append(node)
            walk(node.left, ancestors)
            walk(node.right, ancestors)
            ancestors.pop()

    walk(plan, [])
    return stay_until, move_until


def simulate_race(plan: RacePlan, c: int) -> RaceTrace:
    """Run the canonical schedule of a plan and account every step.

    Any well-formed tree may be simulated, optimal or not; the cost equals
    the plan's recursion value, and for plans whose splits all lie in the
    optimal intervals it equals f_c(n).
    """
    if c < 0:
        raise ValueError("cost parameter must be >= 0")
    if plan.lo != 1:
        raise ValueError("plans must cover pawns 1..n")
    n = plan.hi
    stay_until, move_until = _pawn_windows(plan)

    position = {k: k for k in range(1, n + 1)}
    alive = set(position)
    actions = []
    starts = []
    merges = []
    move_steps = stay_steps = 0
    for t in range(1, n):
        row = ["."] * n
        starts.append(tuple(position[k] if k in alive else None for k in range(1, n + 1)))
        for k in sorted(alive):
            if t <= stay_until[k]:
                row[k - 1] = "R"
                stay_steps += 1
            else:
                assert t <= move_until[k], f"pawn {k} outlived its schedule"
                row[k - 1] = "C"
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
        actions.append("".join(row))
        merges.append(tuple(sorted(fused)))
    assert len(alive) == 1 and position[next(iter(alive))] == n
    cost = (c + 1) * move_steps + c * stay_steps
    return RaceTrace(
        n=n,
        c=c,
        cost=cost,
        move_steps=move_steps,
        stay_steps=stay_steps,
        actions=tuple(actions),
        positions=tuple(starts),
        merges=tuple(merges),
    )


def render_race(trace: RaceTrace) -> str:
    """ASCII picture of a race: one row per iteration, C moves, R stays."""
    n = trace.n
    header = " it | " + "".join(str(p % 10) for p in range(1, n + 1))
    lines = [header, "-" * len(header)]
    for t in range(n - 1):
        cells = ["."] * n
        for k in range(1, n + 1):
            pos = trace.positions[t][k - 1]
            if pos is not None:
                cells[pos - 1] = trace.actions[t][k - 1]
        note = ""
        if trace.merges[t]:
            note = "  merge@" + ",".join(str(p) for p in trace.merges[t])
        lines.append(f"{t + 1:>3} | {''.join(cells)}{note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# from races to synchronizing words

A, B = 0, 1  # symbol indices of the binary family alphabet


def build_sync_word(n: int, c: int, plan: RacePlan) -> Word:
    """Turn a race plan into a synchronizing word for the n-state family member.

    Emits the b^(c+1) prefix, then one iteration block per race iteration:
    a, then for each line position from n' down to 1 the pawn's b-run
    (b^c stay, b^(c+1) move, nothing when vacant) followed by a; the final
    trailing run of n'-1 letters a is cut so every pawn lands on state 1.
    For an optimal plan the word length is exactly the reset threshold.
    """
    if c < 0 or n < c + 2:
        raise ValueError(f"need n >= c + 2, got n={n}, c={c}")
    npr = n - c - 1
    if plan.lo != 1 or plan.hi != npr:
        raise ValueError(f"plan covers pawns {plan.lo}..{plan.hi}, expected 1..{npr}")
    trace = simulate_race(plan, c)

    letters = [B] * (c + 1)
    for t in range(npr - 1):
        runs = {}
        for k in range(1, npr + 1):
            pos = trace.positions[t][k - 1]
            if pos is None:
                continue
            runs[pos] = c + 1 if trace.actions[t][k - 1] == "C" else c
        for pos in range(npr, 0, -1):
            letters.append(A)
            letters.extend([B] * runs.get(pos, 0))
        letters.append(A)  # the final slot stays empty: the leader never wraps
    if npr > 1:
        tail = npr - 1
        assert all(x == A for x in letters[-tail:])
        del letters[-tail:]
    return Word(tuple(letters))
