"""The binary family C(n, c) generalizing the classical Cerny automata.

Symbol ``a`` advances the low states and wraps n to 1 but is undefined just
below the top; ``b`` idles on the low states and climbs the top ones.  For
c = 0 this is exactly the Cerny sequence.  The reset threshold of every
member has a closed form driven by the pawn race solution.  Every value
comes from the runs of the split sequences in ``pawnrace``:
``rt_formula`` evaluates single points through ``f_closed``, which reads
the frozen ``pawnrace.Runs`` view at its c, and the family queries read the
runs of the one template of ``pawnrace.run_template`` that serves every
c >= c_min at once, with a fresh run table of its own for each c < c_min
(c_min is 12 at n = 7200), so that no family query pins one.  Every family
value comes from one of two int64 sources: the columns of ``_head_columns`` for c < c_min, and the template's
lines u + c·v of ``_template_columns`` for c >= c_min.  ``_rows`` joins
them into one row per n: ``optimal_c`` and ``local_optima`` read the row of
their n, and ``scan_grid`` every row in turn.  ``scan_optimal``,
``scan_maximizers`` and ``scan_drops`` take the maximum over c >= c_min by a
monotone-argmax scan of the lines.

From the template, the terms <= j of p_c number A(j) + c·B(j) for every
c >= c_min, so f_c(n') = (n'-1) + SA(n') + c·SB(n') with SA and SB the
prefix sums of A and B below n', and the threshold is
rt(n, c) = n'(n'-1) + c + 1 + f_c(n') = (n'^2 + SA(n')) + c·(1 + SB(n')):
one multiply-add over two arrays shared by every such c.

The int64 values are exact: every family query accepts only n < 2^21.
In the race on n' = n - c - 1 pawns each of the n' - 1
iterations costs at most c + 1 per pawn, so f_c(n') <= (c+1) n'(n'-1), and
then rt = n'(n'-1) + c + 1 + f_c(n') < (c+2) n'^2 <= n^3 < 2^63.  The
template's arrays stay below n^3 too.  p_c(k) >= k/c - 1 (it is 1 up to
k = 2c and rises by at least 1 every c terms), so at most (j+1)c terms are
<= j.  A(j) + c·B(j) counts them for every c >= c_min and no run has b < 0,
so 0 <= B(j) <= j+1; the count is >= 0 at c = c_min, so
|A(j)| <= c_min·(j+1).  As c_min < 21 below 2^21 and c_min <= c < n,
c·(1 + SB), |SA| and |n'^2 + SA| stay below n^3, and so do the partial
cumsums.  The per-c columns below c_min scatter run values below the
column length, and their prefix sums stay below f_c(n').

The family optimum by a monotone-argmax scan.  Put j = n' - 1 = n - c - 2,
so c = n - 2 - j, and i = n - 2 - c_min.  For c >= c_min the threshold is
then M[i][j] = rt(n, c) = u[j] + (i + c_min - j)·v[j], and
M[i+1][j] = M[i][j] + v[j]: row i of M is the lines j evaluated at n.

- Eligibility.  Line j stands for c = n - 2 - j, which is >= c_min from
  row i = j on, and <= n - 2 as j >= 0.  So the maximum of rt(n, c) over
  c >= c_min is the maximum of row i over the lines j = 0 .. i.
- Slopes.  v[j+1] - v[j] = B(j+1).  The template's first run, the 2c terms
  equal to 1, has b = 2, and no run has b < 0, so B(j) >= B(1) = 2 for
  j >= 1: the slopes increase strictly.
- Monotone argmax.  For j < k, M[i][k] - M[i][j] grows by v[k] - v[j] > 0
  from each row to the next, so once line k ties line j or beats it, k
  beats j in every later row.  Let lo(i) and hi(i) be the least and the
  greatest maximizing j of row i.  Every j < lo(i) is beaten by lo(i) in
  every later row, and every j < hi(i) is tied or beaten by hi(i) in row
  i, so beaten in row i + 1: lo(i) <= hi(i) <= lo(i + 1).
- Queries.  The scan finds lo(i) at the rows i = p - 1, p an odd multiple
  of step, for step = 2^m down to 1.  The rows i - step and i + step were
  done at a coarser step, or lie outside, where lo(-1) = 0 and
  lo(rows) = rows - 1 stand in.  So lo(i) is the first maximum of row i
  over j from lo(i - step) to min(lo(i + step), i).  The ranges of one
  step overlap only at their ends, so one step evaluates fewer than
  rows + rows/step pairs, and the scan O(n_max log n_max).  Every pair is
  an eligible rt(n, c), exact in int64.
- Ties.  ``best_c`` keeps the largest maximizing c.  The columns below
  c_min fold in first, in increasing c with ties moving to the larger c,
  then the scan's maximum at lo(i), whose c >= c_min exceeds each of theirs,
  so a tie moves to it.  The other maximizers j with c >= c_min lie in
  (lo(i), lo(i + 1)], a range no other row shares, and need not be
  adjacent in j: one more pass over the lines finds them.
  ``scan_maximizers`` keeps them, and each c that a tie displaced, with its
  value, and returns those whose value is the final maximum, by n.  Up to
  30 000, 1 152 values of n have two maximizers and none has three; apart
  from n = 99, the double drop, the two are adjacent values of c.
- Cost.  Pairs are evaluated, and results written into the int64 ``best``
  and ``best_c``, ``_CHUNK`` at a time; a row that a slice cuts keeps its
  earlier j on a tie.  Besides u, v, ``best`` and ``best_c``, the scan
  holds lo as int32, and two int32 arrays of the rows of one step.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .pfa import Pfa
from . import pawnrace

STAR_SYMBOLS = ("a", "ã", "b̃")


def build_cerny(n: int, c: int) -> Pfa:
    """The n-state family member with cost parameter c (requires n >= c+2)."""
    if c < 0 or n < c + 2:
        raise ValueError(f"need n >= c + 2 and c >= 0, got n={n}, c={c}")
    rows = []
    for q in range(1, n + 1):
        if q <= n - c - 1:
            rows.append((q + 1, q))
        elif q <= n - 1:
            rows.append((None, q + 1))
        else:
            rows.append((1, 1))
    return Pfa(n=n, symbols=("a", "b"), delta=tuple(rows))


def build_cerny_star(m: int) -> Pfa:
    """The 3-symbol auxiliary automaton the family reduces to.

    Both ``a`` and ``ã`` rotate q to q+1, except that ``a`` is undefined on
    the top state while ``ã`` wraps it to 1; ``b̃`` fixes everything except
    the top state, which it sends to 1.
    """
    if m < 2:
        raise ValueError(f"need at least 2 states, got {m}")
    rows = []
    for q in range(1, m):
        rows.append((q + 1, q + 1, q))
    rows.append((None, 1, 1))
    return Pfa(n=m, symbols=STAR_SYMBOLS, delta=tuple(rows))


def rt_formula(n: int, c: int) -> int:
    """Reset threshold of the family member, in closed form.

    With n' = n - c - 1 this is n'(n'-1) + c + 1 + f_c(n'), the race cost
    coming from the closed form (f_0(n') = n' - 1).
    """
    if c < 0 or n < c + 2:
        raise ValueError(f"need n >= c + 2 and c >= 0, got n={n}, c={c}")
    npr = n - c - 1
    return npr * (npr - 1) + c + 1 + pawnrace.f_closed(npr, c)


def _check_n_max(n_max: int):
    if not 2 <= n_max < 2**21:
        raise ValueError(f"need 2 <= n_max < 2**21, got {n_max}")


def _template_columns(top: int) -> tuple[int, np.ndarray, np.ndarray]:
    """c_min and the int64 arrays u, v over n' = 1 .. top with
    rt(n' + c + 1, c) = u[n'-1] + c·v[n'-1] for every c >= c_min: u is
    n'^2 + SA(n') and v is 1 + SB(n'), SA and SB built once from the
    template's runs below top."""
    template = pawnrace.run_template()
    values, a, b = template.runs(top - 1)
    u = _sums_below(top, values, a)
    u += _squares(top)
    v = _sums_below(top, values, b)
    v += 1
    return template.c_min(top - 1), u, v


def _squares(top: int) -> np.ndarray:
    """n'^2 for n' = 1 .. top, as int64."""
    squares = np.arange(1, top + 1, dtype=np.int64)
    squares *= squares
    return squares


def _sums_below(size: int, values: list[int], counts: list[int]) -> np.ndarray:
    """Entry n'-1, for n' = 1 .. size, sums over j < n' the counts at the
    values <= j: one scatter and two cumsums, in place (every value is >= 1)."""
    out = np.zeros(size, dtype=np.int64)
    out[values] = counts
    np.cumsum(out, out=out)  # entry j: the counts at the values <= j
    np.cumsum(out, out=out)
    return out


def _rows(n_max: int, c_max: int, n_min: int = 2):
    """rt(n, c) for c = 0 .. min(c_max, n-2), as int64, for n = n_min ..
    n_max in turn: below c_min the entries of the head columns at n, kept
    from n_min on, and for c >= c_min the anti-diagonal u[j] + c·v[j],
    j = n - 2 - c, of the template's arrays, read backwards.  Checks the
    range and builds the columns on the call."""
    _check_n_max(n_max)
    top = n_max - 1  # largest n'
    c_min, u, v = _template_columns(top)
    head = np.zeros((min(c_min, c_max + 1, top), n_max + 1 - n_min), dtype=np.int64)
    for c, column in islice(_head_columns(top, c_min), len(head)):
        start = max(c + 2, n_min)
        head[c, start - n_min:] = column[start - c - 2:]

    def row(n):
        c = np.arange(c_min, min(c_max, n - 2) + 1, dtype=np.int64)
        j = slice(n - 1 - c_min - c.size, n - 1 - c_min)
        return np.concatenate([head[: n - 1, n - n_min], u[j][::-1] + c * v[j][::-1]])

    return map(row, range(n_min, n_max + 1))


def optimal_c(n: int) -> tuple[int, set[int]]:
    """Maximum reset threshold over all c, with every maximizing c."""
    (row,) = _rows(n, n - 2, n)
    best = row.max()
    return int(best), set(np.flatnonzero(row == best).tolist())


def local_optima(n: int) -> list[tuple[int, int]]:
    """Interior c whose threshold is >= both neighbours, with values."""
    (row,) = _rows(n, n - 2, n)
    inner = row[1:-1]
    at = np.flatnonzero((inner >= row[:-2]) & (inner >= row[2:])) + 1
    return list(zip(at.tolist(), row[at].tolist()))


@dataclass(frozen=True)
class DropEvent:
    """The largest optimal c decreased from one n to the next."""

    n_before: int
    n_after: int
    c_before: int
    c_after: int
    r_before: int
    r_after: int

    def __post_init__(self):
        if self.n_after != self.n_before + 1:
            raise ValueError("drop events connect consecutive n")
        if self.c_after >= self.c_before:
            raise ValueError("not a drop")

    @property
    def gap(self) -> int:
        return self.c_before - self.c_after


def _head_columns(top: int, c_min: int):
    """``(c, column)`` for c < c_min (c = 0 .. 11 up to n_max = 7200), with
    n' = 1 .. top - c: entry j (0-based) of ``column`` is the threshold for
    n' = j + 1, that is n = c + 2 + j, so the column ends at n = top + 1.
    Each is n'(n'-1) + c + 1 + f_c(n'), with f_c(n') the partial sums of
    m_c(j) = twinverse(j) over j < n': it scatters the runs of its own p_c
    and takes two cumsums."""
    squares = _squares(top)
    for c in range(min(c_min, top)):
        count = top - c
        values, counts, _ = pawnrace.SequenceCache(c).runs(count - 1) if c else ([], [], [])
        column = _sums_below(count, values, counts)
        column += squares[:count]
        column += c
        yield c, column


_CHUNK = 1 << 14  # pairs (n, j) evaluated, and results written, per step


def _row_maxima(u: np.ndarray, v: np.ndarray, c_min: int, n_max: int, touches: list | None):
    """The maxima of the rows i = n - 2 - c_min of M, for n = c_min + 2 ..
    n_max, by the monotone-argmax scan of the module docstring.

    Yields ``(n0, values, cs)`` for consecutive n from n0, as int64 arrays:
    the maximum of rt(n, c) over c_min <= c <= n-2, and the largest c that
    attains it.  When ``touches`` is a list, appends ``(n, value, c)`` to it
    for every other c >= c_min that attains it.  ``least[p]`` gets lo(p - 1).
    """
    rows = n_max - 1 - c_min
    if rows <= 0:
        return

    def rt(i, j):
        return u[j] + (i + c_min - j) * v[j]

    least = np.zeros(rows + 2, dtype=np.int32)  # j < 2^21, pairs per stride < 2^22
    least[-1] = rows - 1  # a bound above every row
    step = 1 << (rows.bit_length() - 1)
    while step:
        p = np.arange(step, rows + 1, 2 * step, dtype=np.int32)  # rows p - 1, each searched
        last = np.minimum(least[np.minimum(p + step, rows + 1)], p - 1)  # from least[p - step]
        ends = last - least[p - step] + 1
        np.cumsum(ends, out=ends)  # a row's pairs end where the next row's start
        shift = last + 1 - ends  # j minus the pair's position
        del p, last
        total, held = int(ends[-1]), 0  # held: the p the previous slice ended in
        for start in range(0, total, _CHUNK):
            stop = min(start + _CHUNK, total)
            first, final = np.searchsorted(ends, (start, stop - 1), side="right")
            p = np.arange((2 * first + 1) * step, (2 * final + 2) * step, 2 * step)  # rows met
            bounds = np.minimum(ends[first: final + 1], stop) - start
            heads = np.concatenate(([0], bounds[:-1]))  # where each row's pairs start
            sizes = bounds - heads
            j = np.arange(start, stop) + np.repeat(shift[first: final + 1], sizes)
            values = rt(np.repeat(p - 1, sizes), j)
            tops = np.maximum.reduceat(values, heads)
            argmax = np.minimum.reduceat(np.where(values == np.repeat(tops, sizes), j, rows), heads)
            if p[0] == held and rt(held - 1, least[held]) >= tops[0]:
                argmax[0] = least[held]  # a row split between slices keeps its earlier j
            held = p[-1]
            least[p] = argmax
        step >>= 1
    least = least[1:-1]
    for start in range(0, rows, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, rows))
        yield start + c_min + 2, rt(i, least[i]), i + c_min - least[i]
        if touches is not None:
            # the maximizers of row r lie in [least[r], least[r + 1]]: pair
            # each line i with the row whose range it closes, if it is in it
            r = np.searchsorted(least, i) - 1
            r, i = r[i <= r], i[i <= r]
            values = rt(r, i)
            at = np.flatnonzero(values == rt(r, least[r]))
            touches.extend(zip((r[at] + c_min + 2).tolist(), values[at].tolist(),
                               (r[at] + c_min - i[at]).tolist()))


def _merge(best: np.ndarray, best_c: np.ndarray, n0: int, values: np.ndarray, c, ties):
    """Fold ``values`` for n = n0, n0+1, ... and their c (a scalar or one
    per n), all larger than every c folded in before, into ``best`` and
    ``best_c``.  A tie moves to the larger c, and the c it displaces goes
    to ``ties`` as ``(n, value, c)`` when that is a list."""
    window, window_c = best[n0: n0 + values.size], best_c[n0: n0 + values.size]
    if ties is not None:
        at = np.flatnonzero(values == window)
        ties.extend(zip((at + n0).tolist(), window[at].tolist(), window_c[at].tolist()))
    better = values >= window
    np.copyto(window, values, where=better)
    np.copyto(window_c, c, where=better)


def _scan(n_max: int, ties: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of ``scan_optimal``.  When ``ties`` is a list, it also
    collects ``(n, value, c)`` for every c but the largest that attains the
    maximum at n, among entries whose value falls short of it."""
    _check_n_max(n_max)
    top = n_max - 1  # largest n'
    c_min, u, v = _template_columns(top)
    best = np.full(n_max + 1, -1, dtype=np.int64)
    best_c = np.full(n_max + 1, -1, dtype=np.int64)
    for c, column in _head_columns(top, c_min):
        _merge(best, best_c, c + 2, column, c, ties)
    for n0, values, cs in _row_maxima(u, v, c_min, n_max, ties):
        _merge(best, best_c, n0, values, cs, ties)
    return best, best_c


def scan_optimal(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-n maximum threshold and largest maximizing c, for 2 <= n <= n_max.

    Returns int64 arrays indexed by n (entries below n=2 are -1).
    """
    return _scan(n_max)


def scan_maximizers(n_max: int) -> tuple[np.ndarray, np.ndarray, dict[int, list[int]]]:
    """The arrays of ``scan_optimal``, and for each n that more than one c
    attains, its maximizers below ``best_c[n]``, increasing."""
    ties = []
    best, best_c = _scan(n_max, ties)
    smaller = {}
    for n, value, c in ties:
        if value == best[n]:
            smaller.setdefault(n, []).append(c)
    return best, best_c, {n: sorted(cs) for n, cs in smaller.items()}


def scan_grid(n_max: int, c_max: int):
    """``(n, values)`` for n = 2 .. n_max in turn: rt(n, c) for c = 0 ..
    min(c_max, n-2), as Python ints.  Checks the range on the call."""
    if c_max < 0:
        raise ValueError(f"need c_max >= 0, got {c_max}")
    return ((n, row.tolist()) for n, row in enumerate(_rows(n_max, c_max), 2))


def scan_drops(n_max: int) -> list[DropEvent]:
    """All drops of the largest optimal c between consecutive n up to n_max."""
    best, best_c = scan_optimal(n_max)
    at = np.flatnonzero(best_c[3:] < best_c[2:-1]) + 2  # the n before each drop
    return [
        DropEvent(n_before=n, n_after=n + 1, c_before=c_before, c_after=c_after,
                  r_before=r_before, r_after=r_after)
        for n, c_before, c_after, r_before, r_after in zip(
            at.tolist(), best_c[at].tolist(), best_c[at + 1].tolist(),
            best[at].tolist(), best[at + 1].tolist())
    ]
