"""Slow reference semantics for the tests, independent of the fast paths.

``simulate`` walks ``pfa.delta`` one state at a time, and ``shortest_words``
enumerates words in lexicographic order, so neither shares code with
``apply_word`` or the subset search they check.  ``TermSequence`` keeps
every term of the split sequence p_c in a list, where the package keeps runs
of equal values, and ``exact_row`` evaluates the closed form from it with
arbitrary-precision integers, one c at a time, so neither shares code with
the run tables behind ``rt_formula``, ``f_closed`` and the family-wide
queries.  ``columns`` is the int64 column loop that the family scans ran
before the shared run template: one ``SequenceCache(c)``, a run table of
that c alone, per c (itself checked against ``TermSequence``), its runs
scattered into a count array and summed by two cumsums, with no term shared
between two values of c.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import product

import numpy as np

from carefulsync.pawnrace import SequenceCache


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


@lru_cache(maxsize=None)
def exact_row(n):
    """rt(n, c) for c = 0 .. n-2, each from the closed form over term lists."""
    return tuple((n - c - 1) * (n - c - 2) + c + 1 + exact_f(n - c - 1, c) for c in range(n - 1))


def row_optimum(row):
    """The maximum of a row and the set of every c that attains it."""
    best = max(row)
    return best, {c for c, value in enumerate(row) if value == best}


def columns(n_max):
    """``(c, column)`` for c = 0 .. n_max-2, as ``cerny._columns`` yields
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
