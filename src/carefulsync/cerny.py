"""The binary family C(n, c) generalizing the classical Cerny automata.

Symbol ``a`` advances the low states and wraps n to 1 but is undefined just
below the top; ``b`` idles on the low states and climbs the top ones.  For
c = 0 this is exactly the Cerny sequence.  The reset threshold of every
member has a closed form driven by the pawn race solution.  Every
value comes from the runs of the split sequences in ``pawnrace``, built for
one c at a time: ``rt_formula`` evaluates single points through the memoized
tables, ``optimal_c`` and ``local_optima`` read one row of exact points
through ``_row``, and ``scan_optimal`` and ``scan_drops`` read the int64
column evaluator ``_columns``.

The int64 values are exact: ``_columns`` accepts only n_max < 2^21.  In the
race on n' = n - c - 1 pawns each of the n' - 1 iterations costs at most
c + 1 per pawn, so f_c(n') <= (c+1) n'(n'-1), and then
rt = n'(n'-1) + c + 1 + f_c(n') < (c+2) n'^2 <= n^3 < 2^63.  Every
intermediate value is smaller: the run values scattered are below the
column length, and the prefix sums below f_c(n').
"""

from dataclasses import dataclass

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


def _row(n: int) -> list[int]:
    """rt(n, c) for c = 0 .. n-2, as Python ints, each from a run table built
    for that c alone and dropped after its one point."""
    _check_n_max(n)
    row = []
    for c in range(n - 1):
        npr = n - c - 1
        f = npr - 1 if c == 0 else pawnrace.race_cost(pawnrace.SequenceCache(c), npr)
        row.append(npr * (npr - 1) + c + 1 + f)
    return row


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
    m_c(j) = twinverse(j) over j < n'.  The multiplicities of the runs of p_c
    below the column length are scattered into a count array at their
    values; one cumsum counts the terms <= j, which is m_c(j) - 1, and a
    second sums those.  All scratch is allocated once, so ``column`` is a
    view that the next column overwrites: consume or copy it before
    advancing.

    Raises ValueError at once unless 2 <= n_max < 2^21, the range in which
    every value is exact in int64 (see the module docstring).
    """
    _check_n_max(n_max)
    return _fill_columns(n_max)


def _fill_columns(n_max: int):
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
            values, multiplicities = pawnrace.SequenceCache(c).runs(count - 1)
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
