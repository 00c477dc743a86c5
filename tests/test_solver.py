import pytest

from carefulsync import (
    LimitExceeded,
    NotSynchronizing,
    Pfa,
    SolveLimits,
    Word,
    build_cerny,
    count_shortest,
    format_word,
    is_sync_word,
    sequences,
    solve,
)


def test_classic_cerny_4():
    pfa = build_cerny(4, 0)
    result = solve(pfa)
    assert result.threshold == 9
    assert format_word(pfa, result.word) == "baaabaaab"
    assert is_sync_word(pfa, result.word)
    assert result.count == 1
    assert count_shortest(pfa) == (9, 1)


def test_family_member_10_2():
    assert solve(build_cerny(10, 2)).threshold == 94


def test_single_state():
    one = Pfa(n=1, symbols=("a",), delta=((1,),))
    result = solve(one)
    assert (result.threshold, result.word, result.count) == (0, Word(), 1)
    assert count_shortest(one) == (0, 1)


def test_not_synchronizing():
    # both symbols are permutations, so subsets never shrink
    spin = Pfa(n=2, symbols=("a", "b"), delta=((2, 1), (1, 2)))
    with pytest.raises(NotSynchronizing):
        solve(spin)


def test_limits_are_loud():
    pfa = build_cerny(10, 0)
    with pytest.raises(LimitExceeded) as info:
        solve(pfa, SolveLimits(max_subsets=5))
    assert info.value.explored >= 5
    with pytest.raises(LimitExceeded):
        solve(pfa, SolveLimits(max_length=3))


def test_lexicographically_least_word():
    # both symbols merge instantly; 'a' (index 0) must win
    pfa = Pfa(n=2, symbols=("a", "b"), delta=((1, 1), (1, 1)))
    result = solve(pfa)
    assert result.threshold == 1
    assert format_word(pfa, result.word) == "a"
    assert result.count == 2
    assert count_shortest(pfa) == (1, 2)


def test_count_is_arbitrary_precision():
    # a 70-state funnel under three interchangeable symbols: every one of the
    # 3^69 words of length 69 synchronizes
    n = 70
    row = lambda q: (max(q - 1, 1),) * 3
    pfa = Pfa(n=n, symbols=("a", "b", "c"), delta=tuple(row(q) for q in range(1, n + 1)))
    threshold, count = count_shortest(pfa)
    assert threshold == n - 1
    assert count == 3 ** (n - 1)
    assert count > 2**63


def test_solved_word_always_synchronizes():
    for n in range(2, 9):
        for c in range(n - 1):
            pfa = build_cerny(n, c)
            result = solve(pfa)
            assert is_sync_word(pfa, result.word)
            assert len(result.word) == result.threshold


def test_uniqueness_matches_sequence_membership():
    # exactly one shortest word iff the reduced size n-c-1 is a sequence term
    for n in range(3, 13):
        for c in range(1, n - 1):
            threshold, count = count_shortest(build_cerny(n, c))
            npr = n - c - 1
            k = 1
            is_term = False
            while True:
                p = sequences(c, k)[0]
                if p == npr:
                    is_term = True
                if p >= npr:
                    break
                k += 1
            assert (count == 1) == is_term, (n, c, count)


def test_count_unique_for_8_2():
    assert count_shortest(build_cerny(8, 2)) == (52, 1)
    assert solve(build_cerny(8, 2)).count == 1


def test_cap_applies_through_the_final_level():
    # 'a' merges at once; 'b' then discovers {1, 2} in that same final level,
    # which the search finishes to count every shortest word
    pfa = Pfa(n=3, symbols=("a", "b"), delta=((1, 1), (1, 2), (1, 2)))
    result = solve(pfa)
    assert (result.threshold, result.explored, result.count) == (1, 2, 1)
    with pytest.raises(LimitExceeded) as info:
        solve(pfa, SolveLimits(max_subsets=2))
    assert (info.value.what, info.value.explored) == ("max_subsets", 3)
    assert solve(pfa, SolveLimits(max_subsets=3)) == result


def test_explored_and_levels_reported():
    result = solve(build_cerny(6, 1))
    assert result.levels == result.threshold
    assert result.explored >= result.threshold


def test_brute_force_word_enumeration_oracle():
    # enumerate every word in lexicographic order with the per-state
    # simulator and compare threshold, chosen word, and count of shortest
    # words against the subset search
    import random

    from oracle import shortest_words

    cap = 8
    rng = random.Random(2024)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        delta = tuple(
            tuple(None if rng.random() < 0.25 else rng.randint(1, n) for _ in range(2))
            for _ in range(n)
        )
        pfa = Pfa(n=n, symbols=("a", "b"), delta=delta)
        hits = shortest_words(pfa, cap)

        try:
            result = solve(pfa)
        except NotSynchronizing:
            assert hits == []
            continue
        if result.threshold > cap:
            assert hits == []
            continue
        checked += 1
        assert result.threshold == len(hits[0])
        assert result.word.letters == hits[0]  # lexicographically least
        assert result.count == len(hits)
        assert count_shortest(pfa) == (len(hits[0]), len(hits))
    assert checked > 30  # the sample really exercised the comparison
