"""Property tests of the bitset kernel and the subset search against the
per-state simulator and the brute-force word enumerator of ``oracle``."""

from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from carefulsync import (
    NotSynchronizing,
    Pfa,
    StateSet,
    Word,
    apply_word,
    count_shortest,
    solve,
    solver,
)
from oracle import shortest_words, simulate

# longest word enumerated per alphabet size, so that each case checks at most
# a few hundred words
CAP = {1: 16, 2: 8, 3: 5}


@st.composite
def pfas(draw):
    n = draw(st.integers(1, 8))
    nsym = draw(st.integers(1, 3))
    target = st.sampled_from((None, *range(1, n + 1)))
    delta = tuple(tuple(draw(target) for _ in range(nsym)) for _ in range(n))
    return Pfa(n=n, symbols=("a", "b", "c")[:nsym], delta=delta)


@st.composite
def pfa_subset_word(draw):
    pfa = draw(pfas())
    bits = draw(st.integers(0, (1 << pfa.n) - 1))
    letters = draw(st.lists(st.integers(0, len(pfa.symbols) - 1), max_size=12))
    return pfa, StateSet(bits, pfa.n), Word(tuple(letters))


def expected_image(pfa, s, w):
    image = simulate(pfa, s.members(), w.letters)
    return None if image is None else StateSet.of(image, pfa.n)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pfa_subset_word())
def test_apply_word_matches_simulator(case):
    pfa, s, w = case
    assert apply_word(pfa, s, w) == expected_image(pfa, s, w)
    assert apply_word(pfa, s, Word()) == s
    empty = StateSet(0, pfa.n)
    assert apply_word(pfa, empty, w) == empty


def check_against_oracle(pfa):
    cap = CAP[len(pfa.symbols)]
    hits = shortest_words(pfa, cap)
    try:
        result = solve(pfa)
    except NotSynchronizing:
        assert hits == []
        return
    if result.threshold > cap:
        assert hits == []
        return
    assert result.threshold == len(hits[0])
    assert result.word.letters == hits[0]  # lexicographically least
    assert result.count == len(hits)
    assert count_shortest(pfa) == (result.threshold, len(hits))
    assert result.levels == result.threshold
    assert result.explored >= result.levels


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pfas())
def test_search_matches_brute_force(pfa):
    check_against_oracle(pfa)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pfas())
def test_wide_step_matches_brute_force(pfa):
    # no level of these automata reaches the default width, so a width of 1
    # is what puts the vectorized step under the oracle
    with patch.object(solver, "WIDE", 1):
        check_against_oracle(pfa)
