"""The pawn merging race and its exact solution.

``n`` pawns sit on the integers 1..n.  Each iteration every live pawn either
moves one step right (cost ``c+1``) or stays (cost ``c``); pawns landing on
the same spot merge.  ``f_recursive`` minimizes the total cost by brute
recursion, ``f_closed`` evaluates the closed form built on the generalized
Fibonacci sequences below, and the plan machinery enumerates and simulates
the optimal races themselves.

The split sequences p_c are held as runs of equal values in one kind of
table, ``SequenceCache``, whose run lengths are affine in c.  A table for
one c fixes them; the template of ``run_template`` runs the recurrence once
for every c from a small ``c_min`` on.  Every query reads the template where
it is exact for its c and a table of that c alone below that.
"""

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .pfa import Word


def _next_block(block, before, need):
    """One step of the run recurrence, for one c or for every c at once.

    Block j holds the terms (j-1)c+1 .. jc of p_c, and
    B_j[i] = B_{j-1}[i-1] + B_{j-1}[i], where B_{j-1}[0] is the last term of
    B_{j-2}.  So a run (v, m) of block j-1, preceded by the value u, becomes
    (u+v, 1) and (2v, m-1) in block j, and equal neighbours merge.  A run is
    ``(v, a, b, need)``: the value v repeated a + b·c times.  ``block`` holds
    the runs of the last complete block and ``before`` the last term of the
    block before it.  Only the values are compared, so the one branch that
    depends on c is whether m > 1; when b > 0 it is taken, and ``need``, a
    running maximum along the runs, rises to the least c for which it holds,
    ceil((2-a)/b).  Returns the runs of the next block and its ``before``.
    """
    out = []
    u = before
    # values increase along a block, so u+v exceeds every value before it
    # and merges only into (2v, m-1), when u == v
    for v, a, b, _ in block:
        if u == v:
            out.append((2 * v, a, b, need))
        else:
            out.append((u + v, 1, 0, need))
            if b:
                need = max(need, -((a - 2) // b))
                out.append((2 * v, a - 1, b, need))
            elif a > 1:
                out.append((2 * v, a - 1, 0, need))
        u = v
    return out, u


def _steps(ends):
    """The run lengths behind running term counts."""
    return [end - start for start, end in zip([0, *ends], ends)]


class SequenceCache:
    """Exact values of the split sequences, for one cost parameter ``c`` or,
    as the template, for every large c at once.

    ``p(k)`` is 1 for k <= 2c and p(k-c-1) + p(k-c) afterwards (Fibonacci for
    c=1, a shifted Padovan for c=2).  ``q(k)`` is 1 plus the partial sums of
    p through p(k-1), and ``twinverse(n)`` is the least k with n < p(k).

    p is nondecreasing with few distinct values (at c = 420000 the 8.8 M
    terms up to 579999 form 198 runs), so the table holds runs: ``_p`` lists
    the distinct values in increasing order, the terms <= ``_p[i]`` number
    ``_ends_a[i] + c·_ends_b[i]`` and add up to ``_sums_a[i] +
    c·_sums_b[i]``, so p, q and twinverse are each one bisection.  ``_p``
    keeps its name because its length is still the table's size, one entry
    per run, as the benchmark's cache statistics read it.

    The table grows block by block through ``_next_block``, which compares
    values only; the values do not depend on c.  ``SequenceCache(c)`` seeds
    it with b = 0: 2c ones and a first block of c ones, so every branch is
    decided for that c.  The template, ``SequenceCache()``, seeds it with
    (0, 2) ones and a first block of (0, 1) ones.  Where the one
    c-dependent branch, m > 1, has b > 0, it is taken, and the least c for
    which it holds is recorded: ``_floor[i]`` is the largest such c over the
    runs up to ``_p[i]`` (always 1 in a table of one c).  A branch decision
    changes only runs of equal or larger value, so the template's runs up to
    a limit are exactly those of ``SequenceCache(c)`` for every c >=
    ``c_min(limit)``, by construction; c_min is 8 at 300, 12 at 7200 and 20
    just below 2^21.  ``at`` reads the template for one such c, and the
    template grows only as far as the queries that it answers need.

    Values are exact Python ints.  Growth holds a lock, appends a value and
    its sums before its counts, and changes only the last run, so reads,
    which take the lock only to grow, see final runs below the last while
    another thread grows the table.
    """

    def __init__(self, c: int | None = None):
        if c is not None and c < 1:
            raise ValueError("cost parameter must be >= 1")
        self.c = c
        self._limit = None  # the values that a table made by ``at`` reads
        a, b = (0, 1) if c is None else (c, 0)  # the first block: c ones
        self._p = [1]
        self._ends_a, self._ends_b = [2 * a], [2 * b]
        # the terms <= _p[i] at this table's c: where every b is 0, the a's
        self._ends = None if c is None else self._ends_a
        self._sums_a, self._sums_b = [2 * a], [2 * b]
        self._floor = [1]
        self._block = [(1, a, b, 1)]  # runs of the last complete block
        self._before = 1  # last term of the block before it
        self._lock = threading.Lock()

    def _extend_block(self):
        self._block, self._before = _next_block(self._block, self._before, self._floor[-1])
        values, floor = self._p, self._floor
        ends_a, ends_b, sums_a, sums_b = self._ends_a, self._ends_b, self._sums_a, self._sums_b
        for value, a, b, need in self._block:
            if value == values[-1]:
                sums_a[-1] += value * a
                sums_b[-1] += value * b
                ends_a[-1] += a
                ends_b[-1] += b
                floor[-1] = need
            else:
                values.append(value)
                sums_a.append(sums_a[-1] + value * a)
                sums_b.append(sums_b[-1] + value * b)
                ends_a.append(ends_a[-1] + a)
                ends_b.append(ends_b[-1] + b)
                floor.append(need)

    def _grow(self, value: int, count: int = 0, c: int | None = None) -> bool:
        """Grow until a run exceeds ``value`` and, read at ``c``, the runs
        hold ``count`` terms.  With ``c``, stop early and return False once
        the last run needs a larger c (never, in a table of its own c)."""
        with self._lock:
            while (self._p[-1] <= value
                   or count and self._ends_a[-1] + c * self._ends_b[-1] < count):
                if c is not None and self._floor[-1] > c:
                    return False
                self._extend_block()
        return True

    def _run(self, k: int) -> int:
        """Index of the run holding p(k), grown to it in a table of one c."""
        if self._ends[-1] < k:
            if self._limit is not None:
                raise ValueError(f"p({k}) exceeds the limit {self._limit} of these runs")
            self._grow(0, k, self.c)
        return bisect_left(self._ends, k)

    def p(self, k: int) -> int:
        if k < 1:
            raise ValueError("index must be >= 1")
        return self._p[self._run(k)]

    def q(self, k: int) -> int:
        if k < 1:
            raise ValueError("index must be >= 1")
        i = self._run(k - 1)  # the run holding p(k-1)
        if not i:
            return k  # 1 plus k-1 ones
        total = self._sums_a[i - 1] + self.c * self._sums_b[i - 1]
        return 1 + total + self._p[i] * (k - 1 - self._ends[i - 1])

    def twinverse(self, n: int) -> int:
        if n < 1:
            raise ValueError("argument must be >= 1")
        if self._limit is None:
            self._grow(n)
        elif n > self._limit:
            raise ValueError(f"argument must be in 1..{self._limit}")
        return self._ends[bisect_right(self._p, n) - 1] + 1

    def runs(self, limit: int):
        """The distinct values v <= limit of p, and how many terms equal
        each; for the template, the a and b of each multiplicity a + b·c,
        exact for c >= ``c_min(limit)``."""
        self._grow(limit)
        r = bisect_right(self._p, limit)
        if self.c is None:
            return self._p[:r], _steps(self._ends_a[:r]), _steps(self._ends_b[:r])
        return self._p[:r], _steps(self._ends[:r])

    def c_min(self, limit: int) -> int:
        """The least c >= 1 from which the runs of values <= limit are exact."""
        self._grow(limit)
        return self._floor[max(bisect_right(self._p, limit) - 1, 0)]

    def at(self, c: int, limit: int | None = None, index: int = 0) -> "SequenceCache | None":
        """The template's p_c, q_c and twinverse, as a table of that c that
        reads the runs of values <= ``limit`` (or, with ``limit`` None, the
        runs through p_c(index)), holds their counts at c and never grows;
        None when c < ``c_min`` of those runs."""
        if limit is None:
            if not self._grow(0, index, c):
                return None
            # search the runs before the last, final even while another
            # thread grows the table; when none holds p_c(index), the last does
            done = range(len(self._ends_b) - 1)
            i = bisect_left(done, index, key=lambda i: self._ends_a[i] + c * self._ends_b[i])
            limit = self._p[i]
        if not self._grow(limit, c=c):
            return None
        r = bisect_right(self._p, limit)
        if self._floor[max(r - 1, 0)] > c:
            return None
        ends = [a + c * b for a, b in zip(self._ends_a[:r], self._ends_b[:r])]
        view = object.__new__(SequenceCache)  # the read state only, so it cannot grow
        vars(view).update(c=c, _limit=limit, _p=self._p, _sums_a=self._sums_a,
                          _sums_b=self._sums_b, _ends=ends)
        return view


# Run tables of single c, each below the template's c_min for the query that
# built it; c_min is below 40 for every value under 10^12.
_caches: dict[int, SequenceCache] = {}
_caches_lock = threading.Lock()


def cache_for(c: int) -> SequenceCache:
    with _caches_lock:
        if c not in _caches:
            _caches[c] = SequenceCache(c)
        return _caches[c]


_template: SequenceCache | None = None


def run_template() -> SequenceCache:
    """The one process-wide template, built on first use."""
    global _template
    with _caches_lock:
        if _template is None:
            _template = SequenceCache()
        return _template


def _runs_for(c: int, limit: int | None = None, index: int = 0) -> SequenceCache:
    """The runs of p_c that answer every read of a value <= limit (or, with
    ``limit`` None, of an index <= index): the template where it is exact
    for c, else the table of ``cache_for``."""
    runs = run_template().at(c, limit, index)
    return cache_for(c) if runs is None else runs


def cache_info() -> dict[str, int]:
    """Sizes of the module-level memos: the run tables that ``cache_for``
    holds (one per c below c_min that a query met) and their runs, the runs
    of the shared template (0 before its first use), the ``f_recursive``
    tables and their entries, and the ``count_races`` memos and the counts
    they hold.  Reading them grows nothing."""
    with _caches_lock:
        sequence = list(_caches.values())
        template = _template
    with _f_lock:
        f_tables = list(_f_tables.values())
    o_tables = list(_o_tables.values())
    return {
        "sequence_tables": len(sequence),
        "sequence_runs": sum(len(cache._p) for cache in sequence),
        "template_runs": 0 if template is None else len(template._p),
        "f_tables": len(f_tables),
        "f_entries": sum(len(table) for table in f_tables),
        "race_count_tables": len(o_tables),
        "race_counts": sum(len(memo) for memo in o_tables),
    }


def sequences(c: int, k: int) -> tuple[int, int]:
    """The pair (p_c(k), q_c(k)) of split-sequence values."""
    runs = _runs_for(c, index=k)
    return runs.p(k), runs.q(k)


def twinverse(c: int, n: int) -> int:
    """Least k with n < p_c(k)."""
    return _runs_for(c, n).twinverse(n)


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
    return race_cost(_runs_for(c, n), n)


def race_cost(runs, n: int) -> int:
    """f_c(n) = n*m - q(m) with m = twinverse(n), read from one
    ``SequenceCache`` of c (or the template's copy for c)."""
    m = runs.twinverse(n)
    return n * m - runs.q(m)


def split_interval(n: int, c: int) -> list[int]:
    """All optimal sizes for the trailing group when racing ``n`` pawns.

    With k = m_c(n) - c - 1, these are the i with
    p(k-1) <= n-i <= p(k) <= i <= p(k+1); the result is a nonempty
    contiguous range whose least element is max(p(k), n - p(k)).
    """
    if n < 3:
        raise ValueError("meaningful only for n >= 3")
    return _split_interval(_runs_for(c, n), n, c)


def _split_interval(runs, n, c):
    # every value read is at most p(m-1) <= n
    k = runs.twinverse(n) - c - 1
    pk_prev, pk, pk_next = runs.p(k - 1), runs.p(k), runs.p(k + 1)
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
    return memo.get(n) or _count_races(n, c, memo, _runs_for(c, n))


def _count_races(n, c, memo, runs):
    """Counts for every n' <= n not in the memo, all read from ``runs``."""
    known = memo.get(n)
    if known is not None:
        return known
    total = 0
    for i in _split_interval(runs, n, c):
        total += _count_races(n - i, c, memo, runs) * _count_races(i, c, memo, runs)
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
    if n < 1:
        raise ValueError("need at least one pawn")
    if cap < 1:
        raise ValueError("cap must be positive")
    total = 1 if n <= 2 else count_races(n, c)
    if total > cap:
        raise TooManyPlans(total, cap)
    return _plans(1, n, c, _runs_for(c, n) if n > 2 else None)


def _plans(lo, hi, c, runs):
    n = hi - lo + 1
    if n == 1:
        return [leaf(lo)]
    if n == 2:
        return [RacePlan(lo, hi, lo, leaf(lo), leaf(hi))]
    out = []
    for i in _split_interval(runs, n, c):
        split = lo + i - 1
        for left in _plans(lo, split, c, runs):
            for right in _plans(split + 1, hi, c, runs):
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
