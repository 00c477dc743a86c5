"""Acceptance suite: every reproduction target, each at exact tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here is exact integer agreement; the only float
checks are the deliberately wide asymptotic smoke bands.
"""

from math import log2

from carefulsync import (
    build_cerny,
    build_prime_pfa,
    build_sync_word,
    count_races,
    count_shortest,
    enumerate_plans,
    f_closed,
    format_word,
    greedy_plan,
    is_sync_word,
    local_optima,
    optimal_c,
    prime_rt_formula,
    rt_formula,
    scan_optimal,
    simulate_race,
    solve,
)
from carefulsync.pawnrace import SequenceCache, cache_for
from carefulsync.estimates import f_bounds, phi
from carefulsync.tables import DROPS, GRID, P_N_2
from carefulsync.verify import check
from oracle import (
    f_recursive, first_primes, generic_twinverse, greedy_factorization, growth_exponent,
    strongly_connected,
)


def ok(label):
    print(f"PASS  {label}")


def verified(which, **options):
    """The rows of one published table, once ``verify`` found no mismatch."""
    _, rows, mismatches = check(which, **options)
    assert mismatches == []
    return rows


def test_01_maximal_thresholds_up_to_ten():
    verified("pn2")
    for n, published in P_N_2.items():
        solved = solve(build_cerny(n, max(optimal_c(n)[1]))).threshold
        assert solved == published, f"solve({n}) = {solved} != {published}"
    ok("criterion 1: p(n,2) for n=2..10 via formula and subset search")


def test_02_grid_reproduction():
    for n, row in GRID.items():
        for c, published in enumerate(row):
            assert rt_formula(n, c) == published, (n, c)
    assert rt_formula(13, 2) == rt_formula(13, 3) == 176
    ok("criterion 2: the 2<=n<=15, c<=4 grid, double maximum included")


def test_03_triple_oracle_agreement():
    for n in range(2, 19):
        for c in range(n - 1):
            npr = n - c - 1
            formula = rt_formula(n, c)
            recursive = npr * (npr - 1) + c + 1 + f_recursive(npr, c)
            searched = solve(build_cerny(n, c)).threshold
            assert formula == recursive == searched, (n, c)
    ok("criterion 3: formula = recursion = subset search for n<=18")


def test_04_pawn_race():
    for c in range(0, 61):
        f_recursive(3000, c)  # build each table in one vectorized pass
        for n in range(1, 3001):
            assert f_recursive(n, c) == f_closed(n, c), (n, c)
    assert f_closed(7, 1) == 29
    assert count_races(7, 1) == 3
    plans = enumerate_plans(7, 1)
    assert len(plans) == 3
    outcomes = set()
    for plan in plans:
        trace = simulate_race(plan, 1)
        assert trace.cost == 29
        outcomes.add((trace.move_steps, trace.stay_steps))
        assert (trace.move_steps, trace.stay_steps) in {(8, 13), (9, 11)}
    assert outcomes == {(8, 13), (9, 11)}
    ok("criterion 4: closed form = recursion to n=3000, c=60; the three races")


def test_05_constructive_words():
    for n in range(2, 15):
        for c in range(n - 1):
            npr = n - c - 1
            plans = [greedy_plan(npr)] if c == 0 else enumerate_plans(npr, c, cap=100)
            member = build_cerny(n, c)
            expected = rt_formula(n, c)
            for plan in plans:
                word = build_sync_word(n, c, plan)
                assert len(word) == expected, (n, c)
                assert is_sync_word(member, word), (n, c)
    ok("criterion 5: every optimal plan builds a word of exactly the threshold")


def test_06_prime_constructions():
    from carefulsync import transitive_lower_bound

    assert solve(build_prime_pfa((5, 7, 8, 9))).threshold == 3114
    assert solve(build_prime_pfa((5, 7, 8, 9), transitive=True)).threshold == 3056
    assert 3056 >= transitive_lower_bound((5, 7, 8, 9)) == 2800
    assert solve(build_prime_pfa((5, 7, 8, 9), padding=1)).threshold == 3117
    assert solve(build_prime_pfa((5, 7, 8, 9), padding=1, transitive=True)).threshold == 3062
    assert prime_rt_formula((2, 3, 5, 7)) == 368
    small = build_prime_pfa((2, 3, 5, 7))
    assert small.n == 29
    assert solve(small).threshold == 368
    assert prime_rt_formula((2, 3, 5, 7, 11)) == 3950
    ok("criterion 6: prime-family thresholds 3114/3056/3117/3062 and 368/3950")


def test_07_defeat_from_41_states():
    verified("defeat")
    ok("criterion 7: the prime builds beat the family for 41<=n<=46")


def test_08_drops_gating_scan():
    assert len(verified("drops", nmax=1768)) == 6
    value, argmax = optimal_c(99)
    assert value == 17323 and argmax == {33, 35}
    # the neighbouring local-optimum points named alongside the published rows
    assert (36, rt_formula(100, 36)) in local_optima(100)
    assert (32, rt_formula(98, 32)) in local_optima(98)
    ok("criterion 8: first six drops, including the double at n=99")


def test_08_extended_full_drop_table():
    assert len(verified("drops", nmax=7200)) == len(DROPS) == 8
    ok("criterion 8 extended: all eight drops up to n=7133")


def track_end(n, cs, step):
    """Follow a local-optimum track from the set ``cs`` of its c at ``n``,
    one n at a time in the direction ``step``; forward the track's c moves
    by 0 or +1 per n (backward by 0 or -1), and a tie keeps every branch.
    Returns the last n at which some branch is still a local optimum."""
    while True:
        optima = {c for c, _ in local_optima(n + step)}
        following = {c + step * move for c in cs for move in (0, 1)} & optima
        if not following:
            return n
        n, cs = n + step, following


def test_08_drop_tracks_follow_local_optima():
    for row in DROPS:
        assert row.c_left in dict(local_optima(row.n_left)), row
        assert row.c_right in dict(local_optima(row.n_right)), row
        assert track_end(row.n_left, {row.c_left}, 1) == row.track_end, row
        assert track_end(row.n_right, {row.c_right}, -1) == row.track_start, row
    ok("criterion 8 tracks: every old track ends and every new one starts as published")


def test_09_double_double_3512():
    assert rt_formula(3512, 1438) == 37170635
    assert rt_formula(3512, 1439) == 37170635
    assert rt_formula(3512, 1502) == 37180596
    assert rt_formula(3512, 1503) == 37180596
    assert optimal_c(3512) == (37180596, {1502, 1503})
    assert local_optima(3512) == [
        (1438, 37170635), (1439, 37170635), (1502, 37180596), (1503, 37180596),
    ]
    ok("criterion 9: n=3512 carries two double optima")


def test_10_conclusion_table():
    verified("conclusion")
    ok("criterion 10: best thresholds for n=11..40, ending 2334")


def test_11_property_suites():
    # twinverse involution
    for c in range(1, 11):
        cache = SequenceCache(c)
        m = lambda i: generic_twinverse(cache.p, i)
        for i in range(1, 51):
            assert generic_twinverse(m, i) == cache.p(i)

    # rectangle identity
    for c in range(1, 11):
        cache = SequenceCache(c)
        twin_sum = 0
        for n in range(1, 501):
            m_n = cache.twinverse(n)
            assert cache.q(m_n) - 1 == n * m_n - twin_sum - 1
            twin_sum += m_n

    # bracketing bounds, both pairs
    for c in range(1, 31):
        for n in range(1, 2001):
            f = f_closed(n, c)
            lo, hi, slo, shi = f_bounds(n, c)
            assert lo < f < hi and slo <= f <= shi, (n, c)

    # cost ratio between consecutive cost parameters
    for c in range(1, 11):
        for n in range(2, 501):
            ratio = f_closed(n, c + 1) / f_closed(n, c)
            assert 1 + 1 / (c + 1) < ratio < 1 + 1 / c, (n, c)

    # affine linearity between sequence terms
    for c in (1, 2, 3):
        cache = SequenceCache(c)
        k = 1
        while cache.p(k + 1) <= 1500:
            for x in range(cache.p(k), cache.p(k + 1)):
                assert f_closed(x + 1, c) - f_closed(x, c) == k + 1
            k += 1

    # uniqueness of the shortest word iff the reduced size is a sequence term
    for n in range(3, 13):
        for c in range(1, n - 1):
            cache = cache_for(c)
            npr = n - c - 1
            is_term = cache.p(cache.twinverse(npr) - 1) == npr
            assert (count_shortest(build_cerny(n, c))[1] == 1) == is_term, (n, c)

    # b-run prefix and block factorization of every solved word
    for n in range(2, 13):
        for c in range(n - 1):
            pfa = build_cerny(n, c)
            text = format_word(pfa, solve(pfa).word)
            assert text.startswith("b" * (c + 1)), (n, c)
            assert greedy_factorization(text[c + 1:], c) is not None, (n, c)

    # transitive prime builds are strongly connected, plain ones are not
    for values in [(2, 3), (2, 3, 5), (5, 7, 8, 9)]:
        assert strongly_connected(build_prime_pfa(values, transitive=True))
        assert not strongly_connected(build_prime_pfa(values))
    ok("criterion 11: property suites (twinverse, bounds, ratios, words)")


def test_12_asymptotic_smoke_bands():
    n = 1 << 10
    best, _ = scan_optimal(n)
    ratio = int(best[n]) / (n * n * log2(n) / 4)
    assert 0.8 <= ratio <= 1.2
    for r in range(10, 21):
        assert 0.5 <= growth_exponent(first_primes(r)) <= 1.5
    # phi really is the growth rate the bands lean on
    for c in (1, 2, 5):
        cache = SequenceCache(c)
        k = 150 * c  # the smaller roots die off more slowly for larger c
        assert abs(cache.p(k) / cache.p(k - 1) - phi(c).value) < 1e-6
    ok("criterion 12: wide-band smoke checks of the asymptotics")
