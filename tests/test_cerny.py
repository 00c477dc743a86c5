import random
import tracemalloc

import numpy as np
import pytest
from oracle import exact_row, row_optimum

from carefulsync import (
    StateSet,
    Word,
    apply_word,
    build_cerny,
    build_cerny_star,
    expand_star_word,
    greedy_factorization,
    local_optima,
    optimal_c,
    rt_formula,
    scan_drops,
    scan_optimal,
    solve,
    format_word,
)
from carefulsync.cerny import STAR_SYMBOLS, _sequence_terms, rt_table
from carefulsync.pawnrace import SequenceCache, f_closed
from carefulsync.tables import CONCLUSION, GRID, P_N_2


def test_member_structure_8_2():
    pfa = build_cerny(8, 2)
    a, b = 0, 1
    assert [pfa.step(q, a) for q in range(1, 9)] == [2, 3, 4, 5, 6, None, None, 1]
    assert [pfa.step(q, b) for q in range(1, 9)] == [1, 2, 3, 4, 5, 7, 8, 1]
    assert pfa.defined_count() == 14


def test_cost_zero_member_is_total():
    pfa = build_cerny(6, 0)
    assert pfa.defined_count() == 12  # a DFA: nothing undefined
    assert [pfa.step(q, 0) for q in range(1, 7)] == [2, 3, 4, 5, 6, 1]
    assert [pfa.step(q, 1) for q in range(1, 7)] == [1, 2, 3, 4, 5, 1]


def test_member_parameter_errors():
    with pytest.raises(ValueError):
        build_cerny(4, 3)
    with pytest.raises(ValueError):
        build_cerny(3, -1)


def test_star_structure():
    pfa = build_cerny_star(6)
    assert pfa.symbols == STAR_SYMBOLS
    a, a_tilde, b_tilde = 0, 1, 2
    assert pfa.step(6, a) is None
    assert pfa.step(6, a_tilde) == 1 and pfa.step(6, b_tilde) == 1
    for q in range(1, 6):
        assert pfa.step(q, a) == pfa.step(q, a_tilde) == q + 1
        assert pfa.step(q, b_tilde) == q
    with pytest.raises(ValueError):
        build_cerny_star(1)


def test_expansion_examples():
    a, a_tilde, b_tilde = 0, 1, 2
    word, weight = expand_star_word(Word((a_tilde,)), 2)
    assert word.letters == (1, 1, 0) and weight == 3  # b b a
    word, weight = expand_star_word(Word((a_tilde, b_tilde)), 0)
    assert word.letters == (0, 1) and weight == 2
    word, weight = expand_star_word(Word((a, b_tilde)), 1)
    assert word.letters == (0, 1, 1) and weight == 3


def test_expansion_semantics_random():
    # the m-state auxiliary automaton stands for the (m+c)-state member
    rng = random.Random(23)
    for _ in range(400):
        c = rng.randint(1, 4)
        m = rng.randint(2, 8)
        n = m + c
        star = build_cerny_star(m)
        member = build_cerny(n, c)
        w = Word(tuple(rng.randrange(3) for _ in range(rng.randint(0, 8))))
        expanded, weight = expand_star_word(w, c)
        assert weight == len(expanded)
        s = StateSet.of([q for q in range(1, m + 1) if rng.random() < 0.6], m)
        on_star = apply_word(star, s, w)
        on_member = apply_word(member, StateSet(s.bits, n), expanded)
        if on_star is None:
            assert on_member is None
        else:
            assert on_member is not None
            assert on_member.bits == on_star.bits


def test_expansion_semantics_cost_zero_one_way():
    # with c = 0 the member is total, so it can only be more defined than
    # the star; where the star image exists the two agree
    rng = random.Random(29)
    for _ in range(200):
        m = rng.randint(2, 8)
        star = build_cerny_star(m)
        member = build_cerny(m, 0)
        w = Word(tuple(rng.randrange(3) for _ in range(rng.randint(0, 8))))
        expanded, _ = expand_star_word(w, 0)
        s = StateSet.of([q for q in range(1, m + 1) if rng.random() < 0.6], m)
        on_star = apply_word(star, s, w)
        on_member = apply_word(member, s, expanded)
        assert on_member is not None
        if on_star is not None:
            assert on_member == on_star


def test_rt_formula_examples():
    assert rt_formula(8, 2) == 52
    assert rt_formula(13, 2) == rt_formula(13, 3) == 176
    for n in range(2, 40):
        assert rt_formula(n, 0) == (n - 1) ** 2
    assert rt_formula(57, 18) == 5152
    with pytest.raises(ValueError):
        rt_formula(4, 3)


def test_published_grid():
    for n, row in GRID.items():
        for c, value in enumerate(row):
            assert rt_formula(n, c) == value, (n, c)


def test_optimal_c_examples():
    assert optimal_c(13) == (176, {2, 3})
    assert optimal_c(10) == (94, {2})
    assert optimal_c(2) == (1, {0})


def test_published_maxima():
    for n, value in P_N_2.items():
        assert optimal_c(n)[0] == value
    for n, value in CONCLUSION.items():
        assert optimal_c(n)[0] == value


def test_one_beats_zero_eventually():
    for n in range(6, 201):
        assert rt_formula(n, 1) > rt_formula(n, 0)
    for n in range(2, 6):
        assert rt_formula(n, 0) >= max(rt_formula(n, c) for c in range(n - 1))


def test_local_optima_13():
    found = dict(local_optima(13))
    assert found[2] == 176 and found[3] == 176


def test_row_queries_match_exact_oracle():
    for n in [*range(2, 301), 512]:
        row = exact_row(n)
        best, argmax = optimal_c(n)
        assert (best, argmax) == row_optimum(row), n
        assert type(best) is int and all(type(c) is int for c in argmax), n
        found = local_optima(n)
        assert found == [
            (c, row[c])
            for c in range(1, n - 2)
            if row[c] >= row[c - 1] and row[c] >= row[c + 1]
        ], n
        assert all(type(value) is int for _, value in found), n


def test_family_queries_refuse_out_of_range_n():
    for query in (optimal_c, scan_optimal, scan_drops, rt_table):
        for n in (-1, 0, 1, 2**21):
            with pytest.raises(ValueError, match="2\\*\\*21"):
                query(n)
    assert local_optima(1) == local_optima(3) == []


def test_int64_bound_behind_the_range_check():
    # f_c(n') <= (c+1) n'(n'-1), hence rt(n, c) < (c+2) n'^2 <= n^3
    for c in range(0, 40):
        for npr in range(1, 400):
            assert f_closed(npr, c) <= (c + 1) * npr * (npr - 1), (npr, c)
    for n in range(2, 120):
        assert max(exact_row(n)) <= n**3


def test_optimal_c_memory_is_linear():
    tracemalloc.start()
    try:
        assert optimal_c(1000) == (2587228, {398})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_local_maxima_stay_below_half():
    table = rt_table(2000)
    for n in range(6, 2001):
        row = table[n, : n - 1]
        for c in range(1, n - 2):
            if row[c] >= row[c - 1] and row[c] >= row[c + 1]:
                assert c < n / 2, (n, c)


def test_asymptotic_smoke():
    from math import log2

    n = 1024
    best, _ = scan_optimal(n)
    ratio = int(best[n]) / (n * n * log2(n) / 4)
    assert 0.8 <= ratio <= 1.2


def test_double_double_at_3512():
    assert rt_formula(3512, 1438) == 37170635
    assert rt_formula(3512, 1439) == 37170635
    assert rt_formula(3512, 1502) == 37180596
    assert rt_formula(3512, 1503) == 37180596
    assert optimal_c(3512) == (37180596, {1502, 1503})
    assert local_optima(3512) == [
        (1438, 37170635), (1439, 37170635), (1502, 37180596), (1503, 37180596),
    ]


def test_scan_against_formula():
    best, best_c = scan_optimal(600)
    assert best[:2].tolist() == best_c[:2].tolist() == [-1, -1]
    for n in range(2, 601):
        value, argmax = row_optimum(exact_row(n))
        assert int(best[n]) == value, n
        assert int(best_c[n]) == max(argmax), n


def test_first_drop():
    events = scan_drops(120)
    assert [(e.n_before, e.c_before, e.c_after, e.gap) for e in events] == [
        (47, 15, 14, 1),
        (99, 35, 33, 2),
    ]
    assert events[0].r_before == 3331 and events[0].r_after == 3490


def test_rt_table_matches_formula():
    n_max = 400
    table = rt_table(n_max)
    assert table.shape == (n_max + 1, n_max - 1)
    for n in range(n_max + 1):
        for c in range(n_max - 1):
            want = rt_formula(n, c) if n >= c + 2 else -1
            assert int(table[n, c]) == want, (n, c)


@pytest.mark.parametrize("c", [1, 2, 3, 7, 64, 499])
def test_sequence_terms_match_cache(c):
    cache = SequenceCache(c)
    for limit in (1, 5, 1000, 10**6):
        fresh, size = _sequence_terms(c, limit)
        # too small for the final size, so it has to grow on the way
        grown, grown_size = _sequence_terms(c, limit, np.zeros(2 * c, dtype=np.int64))
        assert grown_size == size and size % c == 0
        assert fresh[:size].tolist() == grown[:size].tolist()
        assert fresh[:size].tolist() == [cache.p(k) for k in range(1, size + 1)]
        assert fresh[size - 1] > limit  # through the first term beyond the limit ...
        assert fresh[size - c - 1] <= limit  # ... and no block beyond it
        # a buffer that is large enough is filled in place
        again, again_size = _sequence_terms(c, limit, fresh)
        assert again is fresh and again_size == size


def test_solved_words_start_with_b_run_and_factor():
    for n in range(2, 13):
        for c in range(n - 1):
            pfa = build_cerny(n, c)
            text = format_word(pfa, solve(pfa).word)
            prefix = "b" * (c + 1)
            assert text.startswith(prefix), (n, c, text)
            blocks = greedy_factorization(text[len(prefix):], c)
            assert blocks is not None, (n, c, text)
            assert set(blocks) <= {"a", "b" * c + "a", "b" * (c + 1)}


def test_factorization_blocks():
    assert greedy_factorization("bba", 2) == ["bba"]  # b^c a
    assert greedy_factorization("bbab", 1) is None  # the trailing b dangles
    assert greedy_factorization("ba", 2) is None  # b alone cannot start a block
    assert greedy_factorization("bb", 1) == ["bb"]
    assert greedy_factorization("ba", 1) == ["ba"]
    assert greedy_factorization("b", 1) is None
    assert greedy_factorization("aba", 0) == ["a", "b", "a"]
