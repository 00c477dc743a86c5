import random
import tracemalloc
from unittest.mock import patch

import numpy as np
import oracle
import pytest
from oracle import TermSequence, exact_row, expand_star_word, greedy_factorization, row_optimum

from carefulsync import (
    StateSet,
    Word,
    apply_word,
    build_cerny,
    build_cerny_star,
    local_optima,
    optimal_c,
    rt_formula,
    scan_drops,
    scan_optimal,
    solve,
    format_word,
)
from carefulsync import cerny
from carefulsync.cerny import (STAR_SYMBOLS, _row_maxima, _template_columns, scan_grid,
                               scan_maximizers)
from carefulsync.pawnrace import SequenceCache, f_closed
from carefulsync.tables import CONCLUSION, GRID, P_N_2
from carefulsync.verify import check


def rt_table(n_max):
    """Dense (n, c) threshold table from ``scan_grid``, -1 in the invalid corner."""
    grid = scan_grid(n_max, max(n_max - 2, 0))
    table = np.full((n_max + 1, n_max - 1), -1, dtype=np.int64)
    for n, row in grid:
        table[n, : len(row)] = row
    return table


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
    assert word == Word((1, 1, 0)) and weight == 3  # b b a
    word, weight = expand_star_word(Word((a_tilde, b_tilde)), 0)
    assert word == Word((0, 1)) and weight == 2
    word, weight = expand_star_word(Word((a, b_tilde)), 1)
    assert word == Word((0, 1, 1)) and weight == 3


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


def test_family_exceeds_the_cerny_bound_from_6_to_7200():
    # the family side of the headline theorem: the best threshold is
    # (n-1)^2 for n = 2..5 and more than (n-1)^2 for every 6 <= n <= 7200;
    # tests/slow_drops.py runs the same check to 2^21 - 1
    n_max = 7200
    best, _ = scan_optimal(n_max)
    bound = (np.arange(n_max + 1) - 1) ** 2
    assert best[2:6].tolist() == [1, 4, 9, 16] == bound[2:6].tolist()
    assert (best[6:] > bound[6:]).all()


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
    for query in (optimal_c, local_optima, scan_optimal, scan_drops, rt_table):
        for n in (-5, -1, 0, 1, 2**21):
            with pytest.raises(ValueError, match="2\\*\\*21"):
                query(n)
    assert local_optima(2) == local_optima(3) == []


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


def test_grid_rows_stream():
    # 499 500 rows; built whole, as dicts, they peaked at 118 MiB
    tracemalloc.start()
    try:
        columns, rows, mismatches = check("grid", nmax=1000, cmax=1000)
        count = 0
        for count, row in enumerate(rows, 1):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert (columns, mismatches, count) == (("n", "c", "value", "max"), [], 999 * 1000 // 2)
    assert row == (1000, 998, rt_formula(1000, 998), "")


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
    best, best_c, smaller = scan_maximizers(3512)
    assert (best[3512], best_c[3512], smaller[3512]) == (37180596, 1503, [1502])
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


def test_maximizers_to_7200_match_the_dense_oracle():
    best, best_c, smaller = scan_maximizers(7200)
    want_best, want_c, want_smaller = oracle.scan_maximizers(7200)
    assert best.tolist() == want_best.tolist() and best_c.tolist() == want_c.tolist()
    assert smaller == want_smaller
    tied = {n: [*cs, int(best_c[n])] for n, cs in smaller.items()}
    assert len(tied) == 326 and tied[99] == [33, 35]  # the double drop at 99
    assert all(len(cs) == 2 and cs[1] == cs[0] + 1 for n, cs in tied.items() if n != 99)


def test_maxima_at_the_stride_edges():
    # the scan's strides are powers of two up to its row count, n_max - 1 -
    # c_min: every n_max to 130, and for k = 7..10 each n_max from 2^k - 1
    # to 2^k + 14, which holds 2^k - 1, 2^k and 2^k + 1 both as n_max and as
    # row count.  A row's values do not depend on n_max, so one oracle scan
    # serves every size.
    assert _template_columns(2**10 + 13)[0] <= 12  # c_min at the largest n_max
    want_best, want_c, want_smaller = oracle.scan_maximizers(2**10 + 14)
    sizes = [*range(2, 131), *(m for k in range(7, 11) for m in range(2**k - 1, 2**k + 15))]
    for n_max in sizes:
        best, best_c, smaller = scan_maximizers(n_max)
        assert best.tolist() == want_best[: n_max + 1].tolist(), n_max
        assert best_c.tolist() == want_c[: n_max + 1].tolist(), n_max
        assert smaller == {n: cs for n, cs in want_smaller.items() if n <= n_max}, n_max


def test_envelope_keeps_a_line_that_only_touches():
    # with c_min = 0 line j enters at n = j + 2; lines 0, 1 and 2 meet at
    # n = 10 with the value 1000, so line 1 attains the maximum there and
    # nowhere else, and each later line stays far below
    lines = 11
    slopes = np.arange(1, lines + 1, dtype=np.int64)
    intercepts = np.full(lines, -10**6, dtype=np.int64)
    intercepts[:3] = 1000 - 10 * slopes[:3]
    u = intercepts + (np.arange(lines) + 2) * slopes
    touches = []
    ((n0, values, cs),) = _row_maxima(u, slopes, 0, lines + 1, touches)
    assert n0 == 2
    assert values.tolist() == [1000 + n - 10 for n in range(2, 11)] + [1003, 1006]
    assert cs.tolist() == [n - 2 for n in range(2, 11)] + [7, 8]
    assert touches == [(10, 1000, 7), (10, 1000, 6)]


def scan_matches_every_line(intercepts, slopes, c_min):
    """Whether the scan of the lines agrees with the maximum over every line
    at each n, also in slices of 2 pairs, which split rows, and whether some
    n has two maximizers with a lower line between them in j."""
    lines = len(intercepts)
    u = np.array(intercepts) + (np.arange(lines) + 2) * slopes
    scans = []
    for chunk in (cerny._CHUNK, 2):
        touches = []
        with patch.object(cerny, "_CHUNK", chunk):
            got = [(n0 + i, value, c) for n0, values, cs in
                   _row_maxima(u, slopes, c_min, lines + 1 + c_min, touches)
                   for i, (value, c) in enumerate(zip(values.tolist(), cs.tolist()))]
        scans.append((got, touches))
    want, want_touches, apart = [], [], False
    for n in range(c_min + 2, lines + 2 + c_min):
        row = {n - 2 - j: intercepts[j] + n * int(slopes[j]) for j in range(n - 1 - c_min)}
        best = max(row.values())
        cs = sorted(c for c, value in row.items() if value == best)
        want.append((n, best, cs[-1]))
        want_touches += [(n, best, c) for c in reversed(cs[:-1])]
        apart |= any(b - a > 1 for a, b in zip(cs, cs[1:]))
    assert scans == [(want, want_touches)] * 2
    return apart


def test_envelope_matches_every_line_on_random_sets():
    # lines through a few shared integer points, so that many of them meet
    # three or more at a time, against the maximum over every line
    rng = random.Random(13)
    for _ in range(300):
        lines, c_min = rng.randint(1, 25), rng.randint(0, 3)
        slopes = np.cumsum([rng.randint(1, 3) for _ in range(lines)])
        points = [(rng.randint(0, 40), rng.randint(-50, 50)) for _ in range(3)]
        intercepts = []
        for s in slopes.tolist():
            x, y = rng.choice(points)
            intercepts.append(y - s * x + rng.choice([0, 0, 0, -1, 1]))
        scan_matches_every_line(intercepts, slopes, c_min)


def test_envelope_finds_maximizers_apart_in_j():
    # every line passes through (x, y) or below it at n = x, so the
    # maximizers there have lower lines between them
    rng = random.Random(29)
    apart = 0
    for _ in range(200):
        lines, c_min = rng.randint(3, 25), rng.randint(0, 3)
        slopes = np.cumsum([rng.randint(1, 3) for _ in range(lines)])
        x, y = rng.randint(c_min + 2, lines + 1 + c_min), rng.randint(-50, 50)
        intercepts = [y - s * x - rng.choice([0, 0, 1, 2, 5]) for s in slopes.tolist()]
        apart += scan_matches_every_line(intercepts, slopes, c_min)
    assert apart >= 50, apart


def test_template_slopes_increase():
    # the scan's argmax never decreases from one n to the next because the
    # slopes v[j] increase strictly
    _, _, v = _template_columns(2**16)
    assert v[0] == 1 and (np.diff(v) >= 2).all()


def test_envelope_scan_memory_is_linear():
    # no Python list as long as the scan: a list of n ints costs about
    # 40 bytes per n on top of the int64 arrays u, v, best and best_c.  The
    # scan runs no Python loop per line, so tracing barely slows it.
    scan_optimal(2**17)  # grow the shared run template first
    peaks = {}
    for n_max in (2**14, 2**17):
        tracemalloc.start()
        try:
            scan_optimal(n_max)
            peaks[n_max] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_n = (peaks[2**17] - peaks[2**14]) / (2**17 - 2**14)
    assert per_n < 64, peaks


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


@pytest.mark.parametrize("c", [*range(1, 40), 64, 300, 499, 1502])
def test_sequence_terms_match_cache(c):
    # the runs of the package against the term list of the oracle
    cache, terms = SequenceCache(c), TermSequence(c)
    for k in range(1, 20000 if c >= 64 else 3000):
        assert (cache.p(k), cache.q(k)) == (terms.p(k), terms.q(k)), k
    for n in range(1, 5000):
        assert cache.twinverse(n) == terms.twinverse(n), n


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
