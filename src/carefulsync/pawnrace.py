"""The pawn merging race and its exact solution.

``n`` pawns sit on the integers 1..n.  Each iteration every live pawn either
moves one step right (cost ``c+1``) or stays (cost ``c``); pawns landing on
the same spot merge.  ``f_closed`` evaluates the minimum total cost in
the closed form built on the generalized Fibonacci sequences below, and the
plan machinery enumerates the optimal races, lays out each race's schedule
from its split nodes and writes the races' words.  The run tables below are
the package's only source of split-sequence values; the brute recursion
over every split point that checks the closed form is a test oracle.

The split sequences p_c are held as runs of equal values in a growing
table, ``SequenceCache``, whose run lengths are affine in c.  A table for
one c fixes them; the template of ``run_template`` runs the recurrence once
for every c from a small ``c_min`` on.  A query reads p_c, q_c and the
twinverse from ``Runs``, the frozen view at its c that ``at`` makes of the
template where it is exact for c, and of a table of that c alone below that.
"""

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import mul

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
    """The runs of the split sequences, grown for one cost parameter ``c``
    or, as the template, for every large c at once.

    p_c(k) is 1 for k <= 2c and p_c(k-c-1) + p_c(k-c) afterwards (Fibonacci
    for c=1, a shifted Padovan for c=2).  p is nondecreasing with few
    distinct values (at c = 420000 the 8.8 M terms up to 579999 form 198
    runs), so the table holds runs: ``_p`` lists the distinct values in
    increasing order, the terms <= ``_p[i]`` number ``_ends_a[i] +
    c·_ends_b[i]`` and add up to ``_sums_a[i] + c·_sums_b[i]``.  ``_p``
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
    just below 2^21.

    ``runs`` and ``c_min`` read the runs up to a value, and ``at`` reads
    them at one c as a frozen ``Runs``, which answers p, q and twinverse;
    each grows the table only as far as it needs.  ``at`` returns None
    wherever the table is not exact for its c: a table of one c at any
    other c, and the template below c_min.

    Values are exact Python ints.  Growth holds a lock and only appends,
    a value and its sums before its counts, so reads, which take the lock
    only to grow, see final runs below the last while another thread grows
    the table.
    """

    def __init__(self, c: int | None = None):
        if c is not None and c < 1:
            raise ValueError("cost parameter must be >= 1")
        self._c = c
        a, b = (0, 1) if c is None else (c, 0)  # the first block: c ones
        self._p = [1]
        self._ends_a, self._ends_b = [2 * a], [2 * b]
        self._sums_a, self._sums_b = [2 * a], [2 * b]
        self._floor = [1]
        self._block = [(1, a, b, 1)]  # runs of the last complete block
        self._before = 1  # last term of the block before it
        self._lock = threading.Lock()

    def _extend_block(self):
        """Append the runs of the next block, each a value of its own: a
        block's values increase, and its first exceeds the last term of the
        block before it, as p((j-1)c+1) - p((j-1)c) = p((j-2)c+1) -
        p((j-2)c-1) > 0, by induction from block 3, whose twos follow ones."""
        self._block, self._before = _next_block(self._block, self._before, self._floor[-1])
        values, floor = self._p, self._floor
        ends_a, ends_b, sums_a, sums_b = self._ends_a, self._ends_b, self._sums_a, self._sums_b
        for value, a, b, need in self._block:
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

    def runs(self, limit: int):
        """The distinct values v <= limit of p, and the a and b of the
        multiplicity a + b·c of each: exact for c >= ``c_min(limit)`` in the
        template, and with b = 0 at its own c in a table of one c."""
        self._grow(limit)
        r = bisect_right(self._p, limit)
        return self._p[:r], _steps(self._ends_a[:r]), _steps(self._ends_b[:r])

    def c_min(self, limit: int) -> int:
        """The least c >= 1 from which the runs of values <= limit are exact."""
        self._grow(limit)
        return self._floor[max(bisect_right(self._p, limit) - 1, 0)]

    def at(self, c: int, limit: int | None = None, index: int = 0) -> "Runs | None":
        """The ``Runs`` of p_c that read the runs of values <= ``limit`` (or,
        with ``limit`` None, the runs through p_c(index)); None where this
        table is not exact for them at c."""
        if self._c not in (None, c):
            return None
        # end(i): the terms <= _p[i] at c; in a table of one c every b is 0
        ends_a, ends_b = self._ends_a, self._ends_b
        end = ends_a.__getitem__ if self._c else lambda i: ends_a[i] + c * ends_b[i]
        if limit is None:
            if not self._grow(0, index, c):
                return None
            # search the runs before the last, final even while another
            # thread grows the table; when none holds p_c(index), the last does
            i = bisect_left(range(len(ends_b) - 1), index, key=end)
            limit = self._p[i]
        if not self._grow(limit, c=c):
            return None
        r = bisect_right(self._p, limit)
        if self._floor[max(r - 1, 0)] > c:
            return None
        return Runs(self, c, r, end)


class Runs:
    """p_c, q_c and twinverse at one c, read from the first ``r`` runs of a
    ``SequenceCache`` exact for c; it never grows.

    ``q(k)`` is 1 plus the partial sums of p through p(k-1), and
    ``twinverse(n)`` is the least k with n < p(k), for every n up to the
    limit that ``at`` read.  Each is one bisection.  The view shares the
    table's lists, final below r, and copies none: at c = 1 every term is a
    run of its own.
    """

    def __init__(self, table: SequenceCache, c: int, r: int, end):
        self._c, self._r, self._end = c, r, end  # end(i): the terms <= _p[i] at c
        self._p, self._sums_a, self._sums_b = table._p, table._sums_a, table._sums_b

    def _run(self, k: int) -> int:
        """Index of the run holding p(k)."""
        i = bisect_left(range(self._r), k, key=self._end)
        if i == self._r:
            raise ValueError(f"p({k}) lies past these runs")
        return i

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
        total = self._sums_a[i - 1] + self._c * self._sums_b[i - 1]
        return 1 + total + self._p[i] * (k - 1 - self._end(i - 1))

    def twinverse(self, n: int) -> int:
        if n < 1:
            raise ValueError("argument must be >= 1")
        return self._end(bisect_right(self._p, n, 0, self._r) - 1) + 1


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


def _runs_for(c: int, limit: int | None = None, index: int = 0) -> Runs:
    """The runs of p_c that answer every read of a value <= limit (or, with
    ``limit`` None, of an index <= index): the template's where it is exact
    for c, else those of the table of ``cache_for``."""
    return run_template().at(c, limit, index) or cache_for(c).at(c, limit, index)


def cache_info() -> dict[str, int]:
    """Sizes of the module-level memos: the run tables that ``cache_for``
    holds (one per c below c_min that a query met) and their runs, the runs
    of the shared template (0 before its first use), and the
    ``count_races`` memos and the counts they hold.  Reading them grows
    nothing."""
    with _caches_lock:
        sequence = list(_caches.values())
        template = _template
    o_tables = list(_o_tables.values())
    return {
        "sequence_tables": len(sequence),
        "sequence_runs": sum(len(cache._p) for cache in sequence),
        "template_runs": 0 if template is None else len(template._p),
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


# ---------------------------------------------------------------------------
# minimum race cost

# Empty and written by nothing: the benchmark's child process reads this
# name after every operation, until it reads cache_info() instead.
_f_tables: dict = {}


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


def race_cost(runs: Runs, n: int) -> int:
    """f_c(n) = n*m - q(m) with m = twinverse(n), read from the ``Runs`` of
    c that ``SequenceCache.at`` makes."""
    m = runs.twinverse(n)
    return n * m - runs.q(m)


def _split_interval(runs, n, c):
    """The least and greatest optimal size of the trailing group of n >= 3
    pawns: with k = m_c(n) - c - 1, the i with p(k-1) <= n-i <= p(k) <= i <=
    p(k+1), a nonempty contiguous range."""
    # every value read is at most p(m-1) <= n
    k = runs.twinverse(n) - c - 1
    pk_prev, pk, pk_next = runs.p(k - 1), runs.p(k), runs.p(k + 1)
    lo = max(pk, n - pk)
    hi = min(pk_next, n - pk_prev)
    assert lo <= hi, f"empty split interval for n={n}, c={c}"
    return lo, hi


# One memo of optimal-race counts per c.  Unlike the tables above it needs
# no lock: ``setdefault`` hands every thread the same memo, and each entry
# is written by a single dict assignment of a value that depends only on
# (n, c).  Threads that race on a missing entry compute it twice and store
# equal values; no thread can read a partial one, and none iterates a memo.
_o_tables: dict[int, dict[int, int]] = {}


def count_races(n: int, c: int) -> int:
    """Number of distinct optimal races (arbitrary precision): o(1) = o(2) = 1
    and o(m) sums o(m-i)·o(i) over the split interval of m.  A pass down
    from n marks the counts that o(n) reaches and the memo lacks; a pass up
    computes each of them once.  At c = 0 the one optimal race is
    :func:`greedy_plan`'s, the only tree whose every node moves one pawn
    one position."""
    if n < 1:
        raise ValueError("need at least one pawn")
    if c < 0:
        raise ValueError("cost parameter must be >= 0")
    if c == 0:
        return 1
    memo = _o_tables.setdefault(c, {1: 1, 2: 1})
    known = memo.get(n)
    if known is not None:
        return known
    runs = _runs_for(c, n)
    o = [0] * (n + 1)
    o[1] = o[2] = 1
    reached = bytearray(n + 1)
    reached[n] = 1
    windows = {}  # the split window of each count to compute, by falling m
    for m in range(n, 2, -1):
        if reached[m]:
            count = memo.get(m)
            if count is not None:
                o[m] = count
                continue
            windows[m] = lo, hi = _split_interval(runs, m, c)
            reached[lo:hi + 1] = reached[m - hi:m - lo + 1] = b"\1" * (hi - lo + 1)
    for m, (lo, hi) in reversed(windows.items()):
        o[m] = memo[m] = sum(map(mul, o[m - hi:m - lo + 1], reversed(o[lo:hi + 1])))
    return o[n]


# ---------------------------------------------------------------------------
# race plans

@dataclass(frozen=True, eq=False)
class RacePlan:
    """Binary split tree over a pawn interval [lo..hi].

    An inner node splits [lo..hi] at ``split`` into the peloton [lo..split]
    and the leading group [split+1..hi]; leaves are single pawns.  Plans
    compare, hash, print and pickle by their nodes in preorder, with no
    recursion: a greedy plan is n deep.
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

    def __eq__(self, other):
        return isinstance(other, RacePlan) and tuple(self._nodes()) == tuple(other._nodes())

    def __hash__(self):
        return hash(tuple(self._nodes()))

    def __repr__(self):
        return f"RacePlan({plan_text(self)})"

    def __reduce__(self):
        return _from_nodes, (tuple(self._nodes()),)

    @property
    def pawns(self) -> int:
        return self.hi - self.lo + 1

    def _nodes(self):
        """Yield (lo, hi, split) of every node, preorder, by an explicit stack."""
        pending = [self]
        while pending:
            node = pending.pop()
            yield node.lo, node.hi, node.split
            if node.split is not None:
                pending += [node.right, node.left]

    def splits(self):
        """Yield (lo, hi, split) of every inner node, preorder."""
        return (node for node in self._nodes() if node[2] is not None)


class TooManyPlans(Exception):
    """More optimal plans than the caller's cap; carries the true count."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} optimal plans exceed cap {cap}")
        self.count = count
        self.cap = cap


def leaf(k: int) -> RacePlan:
    return RacePlan(k, k)


def enumerate_plans(n: int, c: int, cap: int = 1000) -> list[RacePlan]:
    """All optimal race plans for ``n`` pawns, as split trees: at c = 0 the
    one plan is :func:`greedy_plan`.

    When the number of plans exceeds ``cap``, raises :class:`TooManyPlans`
    with the exact count attached instead of building them.
    """
    if n < 1:
        raise ValueError("need at least one pawn")
    if cap < 1:
        raise ValueError("cap must be positive")
    total = 1 if n <= 2 else count_races(n, c)
    if total > cap:
        raise TooManyPlans(total, cap)
    if c == 0:
        return [greedy_plan(n)]
    return _plans(1, n, c, _runs_for(c, n) if n > 2 else None, {})


def _plans(lo, hi, c, runs, built):
    """The plans of [lo..hi]; ``built`` keeps each interval's list, so that it
    is built once and shared as a subtree wherever it recurs."""
    plans = built.get((lo, hi))
    if plans is None:
        n = hi - lo + 1
        if n <= 2:
            plans = [leaf(lo)] if n == 1 else [RacePlan(lo, hi, lo, leaf(lo), leaf(hi))]
        else:
            low, high = _split_interval(runs, n, c)
            plans = [RacePlan(lo, hi, split, left, right)
                     for split in range(lo + low - 1, lo + high)
                     for left in _plans(lo, split, c, runs, built)
                     for right in _plans(split + 1, hi, c, runs, built)]
        built[lo, hi] = plans
    return plans


def plan_at(n: int, c: int, index: int) -> RacePlan:
    """Plan ``index`` of ``enumerate_plans(n, c)``, built alone: at c = 0 the
    one plan is :func:`greedy_plan`.

    The plans of a node of m pawns run by split s ascending, then by left
    plan, then by right plan, o(s)·o(m-s) of them per split, where o counts
    the races; so a walk down the splits of each node, read from the memo
    that ``count_races(n, c)`` fills, unranks the index (mixed radix).
    """
    if n < 1:
        raise ValueError("need at least one pawn")
    count = 1 if n <= 2 else count_races(n, c)
    if not 0 <= index < count:
        raise ValueError(f"plan index {index} out of range (have {count})")
    if c == 0:
        return greedy_plan(n)
    o, runs = _o_tables.get(c, {1: 1, 2: 1}), _runs_for(c, n) if n > 2 else None
    nodes, pending = [], [(1, n, index)]  # preorder, by an explicit stack
    while pending:
        lo, hi, k = pending.pop()
        m = hi - lo + 1
        if m == 1:
            nodes.append((lo, hi, None))
            continue
        low, high = (1, 1) if m == 2 else _split_interval(runs, m, c)
        for s in range(low, high + 1):
            if k < o[s] * o[m - s]:
                break
            k -= o[s] * o[m - s]
        left, right = divmod(k, o[m - s])
        nodes.append((lo, hi, lo + s - 1))
        pending += [(lo + s, hi, right), (lo, lo + s - 1, left)]
    return _from_nodes(nodes)


def _from_nodes(nodes) -> RacePlan:
    """The plan of its (lo, hi, split) nodes in preorder, as ``_nodes``
    yields them."""
    built = []  # preorder from the back: a node finds its left child on top
    for lo, hi, split in reversed(nodes):
        built.append(leaf(lo) if split is None
                     else RacePlan(lo, hi, split, built.pop(), built.pop()))
    return built[0]


def plan_text(plan: RacePlan) -> str:
    """Compact one-line tree form, e.g. ``(1-7@5 (1-5@3 ...) (6-7@6 6 7))``."""
    return next(plan_texts([plan]))


def plan_texts(plans: list[RacePlan]):
    """Yield the :func:`plan_text` of each of ``plans``, rendering each
    subtree once however many of the plans share it, as those of
    :func:`enumerate_plans` share theirs."""
    # by node identity: each subtree with its text, holding the node so
    # that its id stays unique; the plans' own texts are not kept
    texts = {}
    for plan in plans:
        pending = [plan]  # a node stays until both its children have texts
        while pending:
            node = pending[-1]
            if id(node) in texts:
                pending.pop()
            elif node.split is None:
                texts[id(node)] = node, str(node.lo)
            elif id(node.left) in texts and id(node.right) in texts:
                left, right = texts[id(node.left)][1], texts[id(node.right)][1]
                texts[id(node)] = node, f"({node.lo}-{node.hi}@{node.split} {left} {right})"
            else:
                pending += [node.right, node.left]
        yield texts.pop(id(plan))[1]


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

    ``rows[t][p-1]`` is the action in iteration t+1 of the pawn that stands
    on position p at its start: 'C' move, 'R' stay, '.' no pawn there.
    ``merges[t]`` lists the positions where pawns fused at its end: a node
    [lo..hi] merges on position hi at the end of iteration hi - lo.
    """

    n: int
    c: int
    cost: int
    move_steps: int
    stay_steps: int
    rows: tuple[str, ...]
    merges: tuple[tuple[int, ...], ...]


def simulate_race(plan: RacePlan, c: int) -> RaceTrace:
    """Lay out the canonical schedule of a plan and account every step.

    Both children of a node run their own schedules from iteration 1.  In a
    node [lo..hi] split at s, pawn s, the survivor of the peloton, stays
    s - lo iterations, until its subtree is done, then moves hi - s
    positions and merges with the leading group's survivor on position hi
    at the end of iteration hi - lo.  Every pawn but n is the split of one
    node, so its trail in the grid of iterations by positions is a column
    and then a diagonal; pawn n stays all n - 1 iterations.

    Any well-formed tree may be laid out, optimal or not; the cost equals
    the plan's recursion value, and for plans whose splits all lie in the
    optimal intervals it equals f_c(n).
    """
    if c < 0:
        raise ValueError("cost parameter must be >= 0")
    if plan.lo != 1:
        raise ValueError("plans must cover pawns 1..n")
    n = plan.hi
    grid = bytearray(b".") * ((n - 1) * n)  # iteration t, position p at (t-1)·n + p-1
    grid[n - 1::n] = b"R" * (n - 1)  # the last survivor never moves
    merges = [[] for _ in range(n - 1)]
    stay_steps, move_steps = n - 1, 0
    for lo, hi, s in plan.splits():
        stay, moves = s - lo, hi - s
        grid[s - 1:stay * n:n] = b"R" * stay
        start = stay * n + s - 1
        grid[start:start + moves * (n + 1):n + 1] = b"C" * moves
        merges[hi - lo - 1].append(hi)
        stay_steps += stay
        move_steps += moves
    cost = (c + 1) * move_steps + c * stay_steps
    return RaceTrace(
        n=n,
        c=c,
        cost=cost,
        move_steps=move_steps,
        stay_steps=stay_steps,
        rows=tuple(grid[i:i + n].decode() for i in range(0, len(grid), n)),
        merges=tuple(tuple(sorted(fused)) for fused in merges),
    )


def render_lines(trace: RaceTrace):
    """Yield the lines of the ASCII picture of a race, each with its
    newline: a header, its rule, then one row per iteration, C moves, R
    stays."""
    header = " it | " + "".join(str(p % 10) for p in range(1, trace.n + 1))
    yield header + "\n"
    yield "-" * len(header) + "\n"
    for t, (row, merged) in enumerate(zip(trace.rows, trace.merges), 1):
        note = "  merge@" + ",".join(map(str, merged)) if merged else ""
        yield f"{t:>3} | {row}{note}\n"


def render_race(trace: RaceTrace) -> str:
    """The picture of :func:`render_lines` as one string."""
    return "".join(render_lines(trace))


# ---------------------------------------------------------------------------
# from races to synchronizing words

A, B = "\0", "\1"  # symbol indices of the binary family alphabet, as code points


def build_sync_word(n: int, c: int, plan: RacePlan) -> Word:
    """Turn a race plan into a synchronizing word for the n-state family member.

    Emits the b^(c+1) prefix, then one iteration block per race iteration,
    one ``str.translate`` of its row read from position n' down to 1: a and
    the pawn's b-run (b^c stay, b^(c+1) move, nothing when vacant) per
    position, then a; the final trailing run of n'-1 letters a is cut so
    every pawn lands on state 1.  For an optimal plan the word length is
    exactly the reset threshold.
    """
    if c < 0 or n < c + 2:
        raise ValueError(f"need n >= c + 2, got n={n}, c={c}")
    npr = n - c - 1
    if plan.lo != 1 or plan.hi != npr:
        raise ValueError(f"plan covers pawns {plan.lo}..{plan.hi}, expected 1..{npr}")
    blocks = str.maketrans({"C": A + B * (c + 1), "R": A + B * c, ".": A})
    # the final slot of a block stays empty: the leader never wraps
    texts = (row[::-1].translate(blocks) + A for row in simulate_race(plan, c).rows)
    letters = "".join(chain([B * (c + 1)], texts)).encode("latin-1")
    tail = npr - 1
    assert letters.endswith(bytes(tail))
    return Word(letters[:len(letters) - tail])
