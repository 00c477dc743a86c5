from math import gcd, log

import pytest

from carefulsync import (
    PrimeList,
    StateSet,
    apply_word,
    best_prime_list,
    build_prime_pfa,
    martyugin_stats,
    parse_word,
    prime_rt_formula,
    solve,
    transitive_lower_bound,
)
from carefulsync.primes import group_count
from carefulsync.tables import DEFEAT
from oracle import first_primes, growth_exponent, strongly_connected


def test_prime_list_validation():
    PrimeList((5, 7, 8, 9))
    with pytest.raises(ValueError):
        PrimeList((4, 6))
    with pytest.raises(ValueError):
        PrimeList((1, 3))
    assert PrimeList((5, 7, 8, 9)).q == 2520


def test_build_needs_two_groups():
    with pytest.raises(ValueError):
        build_prime_pfa((5,))
    with pytest.raises(ValueError):
        build_prime_pfa((5, 7), padding=-1)


def test_state_count_and_labels():
    pfa = build_prime_pfa((5, 7, 8, 9))
    assert pfa.n == 41 == group_count((5, 7, 8, 9))
    assert pfa.labels[:8] == ("50", "51", "52", "53", "54", "55", "5A", "5B")
    padded = build_prime_pfa((5, 7, 8, 9), padding=1)
    assert padded.n == 42
    assert padded.labels[-1] == "pad1"


def test_group_transitions():
    pfa = build_prime_pfa((2, 3))
    by_label = {label: q for q, label in enumerate(pfa.labels, start=1)}
    a, b = 0, 1

    def step(label, s):
        target = pfa.step(by_label[label], s)
        return None if target is None else pfa.labels[target - 1]

    # inside the first group (p = 2)
    assert step("21", a) == "22" and step("22", a) == "21"
    assert step("20", a) == "21"
    assert step("21", b) == "2B" and step("22", b) == "2A"
    assert step("2A", b) == "2B" and step("2B", b) == "20"
    assert step("20", b) == "20"
    assert step("2B", a) is None and step("3B", a) is None
    # group connections for r = 2: the next-to-last A feeds the last group's A
    assert step("2A", a) == "3A"
    assert step("3A", a) == "33"


def test_padding_chain_has_no_a():
    pfa = build_prime_pfa((2, 3), padding=2)
    by_label = {label: q for q, label in enumerate(pfa.labels, start=1)}
    assert pfa.step(by_label["pad1"], 0) is None
    assert pfa.step(by_label["3B"], 1) == by_label["pad1"]
    assert pfa.step(by_label["pad1"], 1) == by_label["pad2"]
    assert pfa.step(by_label["pad2"], 1) == by_label["30"]


def test_rt_formula_values():
    assert prime_rt_formula((2, 3, 5, 7)) == 368
    assert prime_rt_formula((2, 3, 5, 7, 11)) == 3950
    assert prime_rt_formula((5, 7, 9, 11, 13, 16)) == 887980
    assert prime_rt_formula((5, 7, 8, 9)) == 3114
    # the 79-state build over the first seven primes, and the free list
    # with the same state count that beats it
    assert group_count(first_primes(7)) == 79 == group_count((5, 7, 9, 11, 13, 16))
    assert prime_rt_formula(first_primes(7)) == 870552 < 887980


def test_flexible_lists_overtake_chained_builds():
    # with one more group, the grouped build needs fewer states than the
    # chained one yet resets later (checked on the first few prime runs)
    for r in range(6, 11):
        chained_states, chained_rt = martyugin_stats(first_primes(r))
        grouped = first_primes(r + 1)
        assert group_count(grouped) < chained_states
        assert prime_rt_formula(grouped) > chained_rt
    assert martyugin_stats(first_primes(6))[0] == 83
    assert group_count(first_primes(7)) == 79


def test_solve_matches_formula_on_small_lists():
    for values in [(2, 3), (2, 3, 5), (3, 4, 5), (2, 3, 5, 7)]:
        pfa = build_prime_pfa(values)
        assert pfa.n <= 45
        assert solve(pfa).threshold == prime_rt_formula(values), values
    assert solve(build_prime_pfa((2, 3))).threshold == 14


def test_solve_matches_formula_exhaustively_for_pairs():
    # every two-group build with at most 45 states, in both orders
    from math import gcd

    pairs = [
        (a, b)
        for a in range(2, 20)
        for b in range(a + 1, 40 - a)
        if gcd(a, b) == 1 and 6 + a + b <= 45
    ]
    assert len(pairs) > 100
    for a, b in pairs:
        assert solve(build_prime_pfa((a, b))).threshold == prime_rt_formula((a, b))
        assert solve(build_prime_pfa((b, a))).threshold == prime_rt_formula((b, a))


def test_solve_matches_formula_for_sampled_longer_lists():
    lists = [
        (2, 3, 5), (5, 3, 2), (3, 4, 5), (5, 4, 3), (2, 5, 9), (3, 8, 11),
        (4, 9, 25), (2, 9, 25), (7, 8, 9), (5, 7, 9), (2, 3, 5, 7),
        (7, 5, 3, 2), (3, 4, 5, 7), (2, 3, 5, 11), (5, 7, 8, 9), (9, 8, 7, 5),
        (2, 3, 5, 7, 11), (11, 7, 5, 3, 2),
    ]
    for values in lists:
        pfa = build_prime_pfa(values)
        assert solve(pfa).threshold == prime_rt_formula(values), values


def test_martyugin_stats():
    assert martyugin_stats(first_primes(5)) == (57, 4622)
    assert martyugin_stats(first_primes(9)) == (201, 446185742)
    assert martyugin_stats((5, 7, 9, 11, 13, 16, 17, 19)) == (195, 465585122)


def test_transitive_lower_bound():
    assert transitive_lower_bound((5, 7, 8, 9)) == 2800
    bound = transitive_lower_bound((2, 3))
    assert bound == 8
    assert solve(build_prime_pfa((2, 3), transitive=True)).threshold >= bound


def test_reset_funnel_then_lineup():
    for values in [(2, 3, 5), (5, 7, 8, 9)]:
        pfa = build_prime_pfa(values)
        by_label = {label: q for q, label in enumerate(pfa.labels, start=1)}
        starts = StateSet.of([by_label[f"{p}0"] for p in values], pfa.n)
        image = apply_word(pfa, StateSet.full(pfa.n), parse_word(pfa, "bbb"))
        assert image == starts
        q = PrimeList(values).q
        lined_up = apply_word(pfa, image, parse_word(pfa, "a" * q + "b"))
        assert lined_up == StateSet.of([by_label[f"{p}A"] for p in values], pfa.n)


def test_transitivity():
    assert not strongly_connected(build_prime_pfa((5, 7, 8, 9)))
    assert strongly_connected(build_prime_pfa((5, 7, 8, 9), transitive=True))
    assert strongly_connected(build_prime_pfa((2, 3, 5), padding=2, transitive=True))


def test_padding_raises_threshold_marginally():
    base = None
    for t in range(4):
        value = solve(build_prime_pfa((5, 7, 8, 9), padding=t)).threshold
        if base is None:
            base = prev = value
            assert value == 3114
            continue
        assert prev <= value <= base + 3 * t + 6, t
        prev = value


def test_growth_spot_check():
    for r in range(10, 21):
        values = first_primes(r)
        assert 0.5 <= growth_exponent(values) <= 1.5, r


def test_best_prime_list_published_points():
    assert best_prime_list(41) == ((5, 7, 8, 9), 0, 3114)
    assert best_prime_list(42) == ((5, 7, 8, 9), 1, 3114)
    assert best_prime_list(44) == ((5, 7, 9, 11), 0, 4275)


def test_best_prime_list_beats_every_defeat_row():
    # maximizing the formula can only improve on the published sample lists
    for row in DEFEAT:
        values, padding, value = best_prime_list(row.n)
        assert value >= prime_rt_formula(row.primes)
        assert value == prime_rt_formula(values)
        assert group_count(values) + padding == row.n


def test_best_prime_list_can_beat_published_sample():
    # the published n=43 sample (5,7,8,11) scores 3802, but the five-group
    # list of the first five primes fits in 43 states and scores 3950
    values, padding, value = best_prime_list(43)
    assert (values, padding, value) == ((2, 3, 5, 7, 11), 0, 3950)


def test_best_prime_list_matches_the_validated_formula():
    # every ascending pairwise-coprime list of at least two entries within
    # 100 states, scored by the formula that checks its list
    lists = []

    def grow(chosen, room):
        if len(chosen) >= 2:
            lists.append((group_count(chosen), prime_rt_formula(chosen), chosen))
        for v in range(chosen[-1] + 1 if chosen else 2, room - 2):
            if all(gcd(v, u) == 1 for u in chosen):
                grow(chosen + (v,), room - v - 3)

    grow((), 100)
    for n in range(16, 101):
        fits = [(value, values) for states, value, values in lists if states <= n]
        best = max(value for value, _ in fits)
        values = min(values for value, values in fits if value == best)
        assert best_prime_list(n) == (values, n - group_count(values), best), n


def test_best_prime_list_bounds():
    with pytest.raises(ValueError):
        best_prime_list(15)


def test_order_matters():
    ascending = prime_rt_formula((5, 7, 9, 11, 13, 16))
    shuffled = prime_rt_formula((16, 13, 11, 9, 7, 5))
    assert ascending > shuffled


def test_growth_exponent_against_log():
    values = first_primes(12)
    n = group_count(values)
    expected = log(prime_rt_formula(values)) / (n * log(n)) ** 0.5
    assert abs(growth_exponent(values) - expected) < 1e-12
