"""The binary family C(n, c) generalizing the classical Cerny automata.

Symbol ``a`` advances the low states and wraps n to 1 but is undefined just
below the top; ``b`` idles on the low states and climbs the top ones.  For
c = 0 this is exactly the Cerny sequence.  The reset threshold of every
member has a closed form driven by the pawn race solution.  Every value
comes from the runs of the split sequences in ``pawnrace``:
``rt_formula`` evaluates single points through ``f_closed``, and the family
queries read the one template of ``pawnrace.run_template`` that serves every
c >= c_min at once, with a run table of its own only for each c < c_min
(c_min is 12 at n = 7200).  ``optimal_c`` and ``local_optima`` read one row
of exact points through ``_row``, and the ``scan_*`` functions read the
int64 column evaluator ``_columns``, whose layout no other module sees.

From the template, the terms <= j of p_c number A(j) + c·B(j) for every
c >= c_min, so f_c(n') = (n'-1) + SA(n') + c·SB(n') with SA and SB the
prefix sums of A and B below n', and the threshold is
rt(n, c) = n'(n'-1) + c + 1 + f_c(n') = (n'^2 + SA(n')) + c·(1 + SB(n')):
one multiply-add over two arrays shared by every such c.

The int64 values are exact: ``_columns`` and ``_row`` accept only
n < 2^21.  In the race on n' = n - c - 1 pawns each of the n' - 1
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
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .pfa import Pfa, Word
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


def expand_star_word(word: Word, c: int) -> tuple[Word, int]:
    """Substitute ã -> b^c a and b̃ -> b^(c+1) and report the weighted length.

    Applying the expansion on the n-state family member agrees with applying
    the original word on the (n-c)-state auxiliary automaton.
    """
    if c < 0:
        raise ValueError("cost parameter must be >= 0")
    out = []
    for letter in word:
        if letter == 0:
            out.append(0)
        elif letter == 1:
            out.extend([1] * c)
            out.append(0)
        elif letter == 2:
            out.extend([1] * (c + 1))
        else:
            raise ValueError(f"symbol index {letter} outside the 3-letter alphabet")
    return Word(tuple(out)), len(out)


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
    squares = np.arange(1, top + 1, dtype=np.int64) ** 2
    return template.c_min(top - 1), squares + _sums_below(top, values, a), 1 + _sums_below(top, values, b)


def _sums_below(size: int, values: list[int], counts: list[int]) -> np.ndarray:
    """Entry n'-1, for n' = 1 .. size, sums over j < n' the counts at the
    values <= j: one scatter and two cumsums."""
    hist = np.zeros(size, dtype=np.int64)
    hist[values] = counts
    out = np.zeros(size, dtype=np.int64)
    np.cumsum(np.cumsum(hist[1:]), out=out[1:])
    return out


def _row(n: int) -> list[int]:
    """rt(n, c) for c = 0 .. n-2, as Python ints: one gather along the
    anti-diagonal of the template's arrays for c >= c_min, and below c_min
    one point each from a run table built for that c alone."""
    _check_n_max(n)
    c_min, u, v = _template_columns(n - 1)
    head = min(c_min, n - 1)
    row = []
    for c in range(head):
        npr = n - c - 1
        f = npr - 1 if c == 0 else pawnrace.race_cost(pawnrace.SequenceCache(c), npr)
        row.append(npr * (npr - 1) + c + 1 + f)
    c = np.arange(head, n - 1, dtype=np.int64)
    j = n - 2 - c  # n' - 1
    return row + (u[j] + c * v[j]).tolist()


def optimal_c(n: int) -> tuple[int, set[int]]:
    """Maximum reset threshold over all c, with every maximizing c."""
    row = _row(n)
    best = max(row)
    return best, {c for c, value in enumerate(row) if value == best}


def local_optima(n: int) -> list[tuple[int, int]]:
    """Interior c whose threshold is >= both neighbours, with values."""
    if n < 4:
        return []
    row = _row(n)
    return [
        (c, row[c])
        for c in range(1, n - 2)
        if row[c] >= row[c - 1] and row[c] >= row[c + 1]
    ]


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


def _columns(n_max: int):
    """Thresholds of all members up to n_max, one column per c = 0 .. n_max-2.

    Yields ``(c, column)``, where entry j (0-based) of ``column`` is the
    threshold for n' = j + 1, that is n = c + 2 + j.  Each column is
    n'(n'-1) + c + 1 + f_c(n'), with f_c(n') the partial sums of
    m_c(j) = twinverse(j) over j < n'.  For c >= c_min it is the prefix of
    u + c·v from ``_template_columns``, one multiply-add into one reused
    buffer; ``column`` is then a view that the next column overwrites, so
    consume or copy it before advancing.  The c < c_min columns (c = 0 .. 11
    up to n_max = 7200) scatter the runs of their own p_c and take two
    cumsums.

    Raises ValueError at once unless 2 <= n_max < 2^21, the range in which
    every value is exact in int64 (see the module docstring).
    """
    _check_n_max(n_max)
    return _fill_columns(n_max)


def _fill_columns(n_max: int):
    top = n_max - 1  # largest n'
    c_min, u, v = _template_columns(top)
    squares = np.arange(1, top + 1, dtype=np.int64) ** 2
    for c in range(min(c_min, top)):
        count = top - c
        values, counts = pawnrace.SequenceCache(c).runs(count - 1) if c else ([], [])
        yield c, squares[:count] + _sums_below(count, values, counts) + c
    column = np.empty(top, dtype=np.int64)
    for c in range(c_min, top):
        out = column[: top - c]
        np.multiply(v[: out.size], c, out=out)
        out += u[: out.size]
        yield c, out


def scan_optimal(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-n maximum threshold and largest maximizing c, for 2 <= n <= n_max.

    Returns int64 arrays indexed by n (entries below n=2 are -1).
    """
    columns = _columns(n_max)
    best = np.full(n_max + 1, -1, dtype=np.int64)
    best_c = np.full(n_max + 1, -1, dtype=np.int64)
    better = np.empty(n_max - 1, dtype=bool)
    for c, column in columns:
        window_best = best[c + 2:]
        mask = better[: column.size]
        np.greater_equal(column, window_best, out=mask)  # ties move to the larger c
        np.maximum(window_best, column, out=window_best)
        np.copyto(best_c[c + 2:], c, where=mask)
    return best, best_c


def scan_maximizers(n_max: int) -> tuple[list[int], list[list[int]]]:
    """Per-n maximum threshold and every maximizing c, increasing, for
    2 <= n <= n_max, as lists indexed by n.  One pass over the columns keeps
    per n the best value so far, the first c to reach it, and every later c
    that ties some value; a tie counts if its value is the final best."""
    best = np.full(n_max + 1, -1, dtype=np.int64)
    lead = np.full(n_max + 1, -1, dtype=np.int64)
    ties = []
    for c, column in _columns(n_max):
        window = best[c + 2:]
        for j in np.flatnonzero(column == window).tolist():
            ties.append((c + 2 + j, int(column[j]), c))
        np.copyto(lead[c + 2:], c, where=column > window)
        np.maximum(window, column, out=window)
    argmax = [[c] for c in lead.tolist()]
    for n, value, c in ties:
        if value == best[n]:
            argmax[n].append(c)
    return best.tolist(), argmax


def scan_grid(n_max: int, c_max: int) -> list[list[int]]:
    """rt(n, c) for c = 0 .. min(c_max, n-2), as lists of Python ints
    indexed by n <= n_max (entries below n=2 are empty)."""
    if c_max < 0:
        raise ValueError(f"need c_max >= 0, got {c_max}")
    grid = [[] for _ in range(n_max + 1)]
    for c, column in islice(_columns(n_max), c_max + 1):
        for row, value in zip(grid[c + 2:], column.tolist()):
            row.append(value)
    return grid


def scan_drops(n_max: int) -> list[DropEvent]:
    """All drops of the largest optimal c between consecutive n up to n_max."""
    best, best_c = scan_optimal(n_max)
    events = []
    for n in range(2, n_max):
        if best_c[n + 1] < best_c[n]:
            events.append(
                DropEvent(
                    n_before=n,
                    n_after=n + 1,
                    c_before=int(best_c[n]),
                    c_after=int(best_c[n + 1]),
                    r_before=int(best[n]),
                    r_after=int(best[n + 1]),
                )
            )
    return events


def greedy_factorization(text: str, c: int) -> list[str] | None:
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
