"""The "only if" half of the headline theorem: no binary PFA of n <= 5
states has a careful synchronization threshold above (n-1)^2, so p(n, 2),
the largest threshold over all of them, is 1, 4, 9 and 16 for n = 2..5, as
``tables.P_N_2`` publishes and the family attains.

``oracle.binary_thresholds`` searches every automaton, in the style of the
exhaustive searches of small binary PFAs by de Bondt, Don and Zantema.  The
search is pruned: until the full set first shrinks, every letter applied
maps it onto itself and is a total bijection, and the letter that shrinks it
is total and not injective.  So one letter, a, is total and non-injective
(swap the names if needed), one a per conjugacy class under relabelling the
states is enough, and b ranges over all (n+1)^n partial maps.  The tests
check the pruning against the unpruned search at n <= 4, and the search's
thresholds against the package's subset search and against the enumeration
of words in ``oracle.shortest_words``.  The maximum at n = 6, 26, is a slow
check in ``tests/slow_drops.py``."""

import random
from itertools import permutations, product

import numpy as np
import pytest
from oracle import (binary_thresholds, partial_maps, shortest_words,
                    total_noninjective_classes)

from carefulsync import NotSynchronizing, Pfa, solve, tables


def automaton(a, b):
    """The binary PFA with letters a and b, rows of ``partial_maps``."""
    rows = tuple((x + 1 if x >= 0 else None, y + 1 if y >= 0 else None)
                 for x, y in zip(a.tolist(), b.tolist()))
    return Pfa(n=len(rows), symbols=("a", "b"), delta=rows)


def pruned(n):
    classes = total_noninjective_classes(n)
    b_maps = partial_maps(n)
    return classes, b_maps, binary_thresholds(n, classes, b_maps)


def test_conjugacy_classes_of_total_noninjective_maps():
    assert [len(total_noninjective_classes(n)) for n in range(2, 6)] == [1, 4, 14, 40]
    for n in (2, 3, 4):
        # the least of each class by brute force: every relabelling s of every
        # map f, as the map x -> s(f(s^-1(x)))
        least = set()
        for f in product(range(n), repeat=n):
            if len(set(f)) < n:
                least.add(min(tuple(s[f[s.index(x)]] for x in range(n))
                              for s in permutations(range(n))))
        assert total_noninjective_classes(n).tolist() == sorted(map(list, least)), n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_no_binary_pfa_beats_the_cerny_bound_below_6_states(n):
    _, _, thresholds = pruned(n)
    assert thresholds.max() == (n - 1) ** 2 == tables.P_N_2[n]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_pruning_keeps_the_maximum(n):
    maps = partial_maps(n)
    every = binary_thresholds(n, maps, maps)
    assert every.max() == pruned(n)[2].max() == (n - 1) ** 2
    assert (every == every.T).all()  # swapping the letters keeps the threshold


@pytest.mark.parametrize("n", [4, 5])
def test_thresholds_match_the_subset_search(n):
    classes, b_maps, thresholds = pruned(n)
    rng = random.Random(n)
    picks = {(i, j) for i, j in zip(*np.nonzero(thresholds == thresholds.max()))}
    picks |= {(rng.randrange(len(classes)), rng.randrange(len(b_maps))) for _ in range(300)}
    for i, j in sorted(picks):
        try:
            found = solve(automaton(classes[i], b_maps[j])).threshold
        except NotSynchronizing:
            found = -1
        assert thresholds[i, j] == found, (classes[i].tolist(), b_maps[j].tolist())


@pytest.mark.parametrize("n", [2, 3])
def test_thresholds_match_the_word_enumeration(n):
    maps = partial_maps(n)
    thresholds = binary_thresholds(n, maps, maps)
    cap = 2**n - n - 1  # a shortest word visits distinct subsets of 2 or more states
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            words = shortest_words(automaton(a, b), cap)
            assert thresholds[i, j] == (len(words[0]) if words else -1), (i, j)
