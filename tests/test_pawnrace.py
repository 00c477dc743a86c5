import copy
import hashlib
import pickle
import random
import tracemalloc
from math import ceil, isqrt, log2

import oracle
import pytest
from oracle import TermSequence, exact_f, f_recursive, generic_twinverse, greedy_factorization

from carefulsync import (
    RacePlan,
    TooManyPlans,
    build_cerny,
    build_sync_word,
    count_races,
    enumerate_plans,
    f_closed,
    format_word,
    greedy_plan,
    is_sync_word,
    plan_at,
    render_race,
    rt_formula,
    sequences,
    simulate_race,
    twinverse,
)
from carefulsync import cerny, pawnrace
from carefulsync.pawnrace import SequenceCache, leaf, plan_text, plan_texts, run_template


def split_interval(n, c):
    """The optimal sizes of the trailing group of n >= 3 pawns, as the plan
    machinery reads them."""
    lo, hi = pawnrace._split_interval(pawnrace._runs_for(c, n), n, c)
    return list(range(lo, hi + 1))


def f_reference(n, c):
    """Plain-Python restatement of the recursion, for checking the fast one."""
    memo = [0, 0]
    for m in range(2, n + 1):
        memo.append(
            min(memo[i] + memo[m - i] + (c + 1) * m - i for i in range(1, m))
        )
    return memo[n]


# --- sequences ------------------------------------------------------------

def test_fibonacci_values():
    assert [sequences(1, k)[0] for k in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert sequences(1, 5)[0] == 5 and sequences(1, 6)[0] == 8
    assert sequences(1, 6)[1] == 13  # q_1(k) = p_1(k+1)


def test_q_base_and_recurrence():
    for c in (1, 2, 3, 5):
        for k in range(1, 2 * c + 1):
            assert sequences(c, k)[1] == k
        for k in range(2 * c + 1, 2 * c + 30):
            q = sequences(c, k)[1]
            assert q == sequences(c, k - c - 1)[1] + sequences(c, k - c)[1]


def test_q1_equals_shifted_p1():
    for k in range(1, 40):
        assert sequences(1, k)[1] == sequences(1, k + 1)[0]


def test_padovan_base_segment():
    for k in range(1, 5):
        assert sequences(2, k) == (1, k)


def test_sequences_are_exact_big_ints():
    value = sequences(1, 300)[0]
    assert value > 2**200  # Fibonacci(300) overflows any fixed width
    assert sequences(1, 300)[1] == sequences(1, 301)[0]


def test_twinverse_values():
    assert twinverse(1, 7) == 6
    for c in range(1, 11):
        assert twinverse(c, 1) == 2 * c + 1


def test_twinverse_involution():
    cache = SequenceCache(3)
    m = lambda i: generic_twinverse(cache.p, i)
    back = lambda i: generic_twinverse(m, i)
    for i in range(1, 51):
        assert back(i) == cache.p(i)


def test_twinverse_monotone_unbounded():
    for c in (1, 4):
        values = [twinverse(c, n) for n in range(1, 200)]
        assert values == sorted(values)
        assert values[-1] > values[0]


# --- minimum cost ----------------------------------------------------------

def test_recursion_small_values():
    assert [f_recursive(n, 1) for n in range(1, 6)] == [0, 3, 7, 12, 17]
    assert f_recursive(7, 1) == 29


def test_f0_is_linear():
    for n in range(1, 101):
        assert f_recursive(n, 0) == n - 1
        assert f_closed(n, 0) == n - 1


def test_fast_recursion_matches_reference():
    for c in range(0, 4):
        for n in (1, 2, 7, 23, 40):
            assert f_recursive(n, c) == f_reference(n, c)


def test_closed_form_worked_example():
    # m_1(7) = 6 and q_1(6) = 13, so f_1(7) = 7*6 - 13
    assert f_closed(7, 1) == 7 * 6 - 13 == 29


def test_closed_form_5_2():
    assert twinverse(2, 5) == 10
    assert sequences(2, 10)[1] == 21
    assert f_closed(5, 2) == 29 == f_recursive(5, 2)


def test_single_pawn_is_free():
    for c in range(0, 20):
        assert f_closed(1, c) == 0


def test_oracle_equivalence_moderate_grid():
    for c in range(1, 9):
        for n in range(1, 301):
            assert f_closed(n, c) == f_recursive(n, c), (n, c)


def test_recursion_stays_within_int64():
    # f(m) <= (c+1)m(m-1), so the int64 table is exact while (c+1)n^2 < 2^63;
    # past that the sums would wrap silently or overflow
    for n, c in ((12, 2**58), (3, 2**60)):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            f_recursive(n, c)
    for c in (2**58, 2**60, 2**40):
        n = isqrt((2**63 - 1) // (c + 1))  # the largest n under the bound
        assert f_recursive(n, c) == f_closed(n, c), c
        assert len(oracle._f_tables[c]) == n + 1, c  # never grown past it
        with pytest.raises(ValueError, match="2\\*\\*63"):
            f_recursive(n + 1, c)


def test_closed_form_bounds():
    for c in range(1, 7):
        for n in range(2, 400):
            f = f_closed(n, c)
            assert c * n * log2(n) <= f <= (c + 0.5) * n * ceil(log2(n))


def test_rectangle_identity():
    for c in range(1, 11):
        cache = SequenceCache(c)
        twin_sum = 0  # running total of twinverse(1..n-1)
        for n in range(1, 501):
            m_n = cache.twinverse(n)
            left = cache.q(m_n) - 1  # q packages the partial sums of p
            assert left == n * m_n - twin_sum - 1, (n, c)
            twin_sum += m_n


def test_affine_linearity_between_terms():
    for c in (1, 2, 5):
        cache = SequenceCache(c)
        k = 1
        while cache.p(k + 1) <= 2000:
            a, b = cache.p(k), cache.p(k + 1)
            if a < b:
                for x in range(a, b):
                    assert f_closed(x + 1, c) - f_closed(x, c) == k + 1
            k += 1


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_over_every_c_keeps_memory_bounded(monkeypatch):
    monkeypatch.setattr(pawnrace, "_caches", {})
    n = 1000
    peak = traced_peak(lambda: [f_closed(n - c - 1, c) for c in range(n - 1)])
    assert peak < 2 * 2**20, peak
    # every c >= c_min reads the template, so only smaller c keep a table
    assert len(pawnrace._caches) < run_template().c_min(n)


def test_cache_info_reports_the_memos(monkeypatch):
    from carefulsync import cache_info

    # start from empty memos, whatever the tests before this one left
    monkeypatch.setattr(pawnrace, "_caches", {})
    monkeypatch.setattr(pawnrace, "_o_tables", {})
    monkeypatch.setattr(pawnrace, "_template", None)
    assert set(cache_info().values()) == {0}
    count_races(400, 3)  # below c_min: a per-c table
    counted = cache_info()
    assert counted["race_count_tables"] == 1
    assert counted["race_counts"] > 2
    assert counted["sequence_tables"] == 1 and counted["sequence_runs"] > 0
    assert counted["template_runs"] > 0
    for c in range(1, 192):
        twinverse(c, 500)  # a table of its own exactly for each c < c_min
    swept = cache_info()
    c_min = run_template().c_min(500)
    assert swept["sequence_tables"] == c_min - 1
    assert swept["sequence_runs"] >= c_min - 1
    assert cache_info() == swept  # reading the sizes changes nothing


@pytest.fixture
def built(monkeypatch):
    """The c of every ``SequenceCache`` of one c the package builds from
    here on; building the template, ``SequenceCache()``, is not counted."""
    built = []

    class Counting(SequenceCache):
        def __init__(self, c=None):
            if c is not None:
                built.append(c)
            super().__init__(c)

    monkeypatch.setattr(pawnrace, "SequenceCache", Counting)
    return built


def test_rt_formula_sweep_builds_few_run_tables(monkeypatch, built):
    # every c >= c_min reads the shared template, so a sweep over c no longer
    # rebuilds an evicted per-c table on each call
    monkeypatch.setattr(pawnrace, "_caches", {})
    c_min = run_template().c_min(400)
    for _ in range(2):
        for c in range(399):
            rt_formula(400, c)
    assert 0 < len(built) <= c_min
    assert 0 < pawnrace.cache_info()["sequence_tables"] <= c_min


def test_huge_race_cost_in_small_memory():
    values = []
    peak = traced_peak(lambda: values.append(f_closed(10**6, 420000)))
    assert values == [8379607867404]
    assert peak < 5 * 2**20, peak


def test_cost_ratio_between_cost_parameters():
    for c in range(1, 11):
        for n in range(2, 400):
            ratio = f_closed(n, c + 1) / f_closed(n, c)
            assert 1 + 1 / (c + 1) < ratio < 1 + 1 / c, (n, c)


# --- split structure ---------------------------------------------------------

def test_split_interval_examples():
    assert split_interval(7, 1) == [4, 5]
    assert split_interval(8, 1) == [5]  # 8 = 3 + 5 forces the split


def test_split_interval_least_element():
    for c in (1, 2, 3):
        cache = SequenceCache(c)
        for n in range(3, 120):
            interval = split_interval(n, c)
            k = cache.twinverse(n) - c - 1
            assert interval[0] == max(cache.p(k), n - cache.p(k))


def test_split_interval_is_exact_argmin_set():
    for c in (1, 2, 3, 4):
        for n in range(3, 61):
            costs = [f_recursive(i, c) + f_recursive(n - i, c) + (c + 1) * n - i
                     for i in range(1, n)]
            best = min(costs)
            argmin = [i for i, cost in zip(range(1, n), costs) if cost == best]
            assert argmin == split_interval(n, c), (n, c)


def test_count_races_examples():
    assert count_races(7, 1) == 3
    assert count_races(4, 1) == 2
    assert count_races(8, 1) == 1


def test_count_one_iff_sequence_term():
    for c in (1, 2, 3):
        cache = SequenceCache(c)
        terms = set()
        k = 1
        while cache.p(k) <= 60:
            terms.add(cache.p(k))
            k += 1
        for n in range(1, 61):
            assert (count_races(n, c) == 1) == (n in terms), (n, c)


@pytest.mark.parametrize("c", [1, 2, 3, 4, 7, 40, 41, 73, 78])
def test_count_races_matches_the_bottom_up_counts(monkeypatch, c):
    # c >= 40 reads the run template at n <= 500, the smaller c a table each;
    # a query from an empty memo, and each later one from the part of the
    # memo the queries before it filled
    want = oracle.race_counts(500, c)
    ascending = list(range(1, 501))
    shuffled = ascending[:]
    random.Random(c).shuffle(shuffled)
    for order in (ascending, ascending[::-1], shuffled):
        monkeypatch.setattr(pawnrace, "_o_tables", {})
        assert [count_races(n, c) for n in order] == [want[n] for n in order]
        assert pawnrace._o_tables[c] == {n: want[n] for n in pawnrace._o_tables[c]}


def test_count_races_10000_3(monkeypatch):
    monkeypatch.setattr(pawnrace, "_o_tables", {})
    digits = str(count_races(10000, 3))
    assert len(digits) == 409
    assert hashlib.sha256(digits.encode()).hexdigest().startswith("71548704014144ad")


def test_count_races_at_zero_cost_is_one():
    for n in (1, 2, 5, 40, 20000):
        assert count_races(n, 0) == 1
        assert plan_at(n, 0, 0) == greedy_plan(n)
    assert enumerate_plans(40, 0) == [greedy_plan(40)]
    for c in (-1, -5):
        with pytest.raises(ValueError, match="^cost parameter must be >= 0$"):
            count_races(5, c)


def split_trees(lo, hi):
    """Every split tree over the pawns [lo..hi]."""
    if lo == hi:
        return [leaf(lo)]
    return [RacePlan(lo, hi, split, left, right)
            for split in range(lo, hi)
            for left in split_trees(lo, split)
            for right in split_trees(split + 1, hi)]


def test_greedy_tree_is_the_one_least_cost_tree_at_zero_cost():
    # every split tree of up to 9 pawns, 1 430 of them at 9: at c = 0 only
    # moves cost, and the greedy tree alone moves each merged pawn one step
    for n in range(1, 10):
        trees = split_trees(1, n)
        costs = [simulate_race(tree, 0).cost for tree in trees]
        least = [tree for tree, cost in zip(trees, costs) if cost == min(costs)]
        assert least == enumerate_plans(n, 0) == [greedy_plan(n)], n
        assert min(costs) == f_closed(n, 0) and len(least) == count_races(n, 0)
    assert len(trees) == 1430


# --- plans and simulation ---------------------------------------------------

def test_enumerate_matches_count():
    for c in range(1, 5):
        for n in range(1, 26):
            plans = enumerate_plans(n, c, cap=10**9)
            assert len(plans) == (count_races(n, c) if n > 2 else 1)
            assert len(set(map(plan_text, plans))) == len(plans)


@pytest.mark.parametrize("n, c", [*((n, c) for c in range(1, 5) for n in range(1, 41)),
                                  (131, 73), (124, 78), (64, 35)])
def test_enumerate_matches_the_memo_free_plans(n, c):
    plans = enumerate_plans(n, c, cap=10**6)
    want = oracle.plans(1, n, c)
    assert plans == want
    assert list(map(plan_text, plans)) == list(map(plan_text, want))


def test_enumerate_builds_each_interval_once(monkeypatch):
    built = []
    check = RacePlan.__post_init__

    def counting(plan):
        built.append(plan)
        check(plan)

    monkeypatch.setattr(RacePlan, "__post_init__", counting)
    assert len(enumerate_plans(131, 73)) == 21
    # rebuilding each sub-interval's plans wherever it recurs made 5 481
    assert len(built) < 1000, len(built)


@pytest.mark.parametrize("n, c", [(1, 1), (2, 3), (12, 1), (25, 1), (40, 2), (40, 3),
                                  (131, 73), (124, 78)])
def test_shared_rendering_matches_plan_text(n, c):
    plans = enumerate_plans(n, c, cap=10**6)
    # and plans that share no node with them, or every node, or some
    plans += [greedy_plan(n), plans[-1], *enumerate_plans(n, c, cap=10**6)[::2]]
    plans += [plan.left for plan in plans if plan.split is not None]
    assert list(plan_texts(plans)) == list(map(plan_text, plans))


@pytest.mark.parametrize("n, c", [*((n, c) for c in range(1, 6) for n in range(1, 31)),
                                  (131, 73), (124, 78)])
def test_plan_at_matches_enumerate_at_every_index(n, c):
    plans = enumerate_plans(n, c, cap=10**6)
    assert [plan_text(plan_at(n, c, i)) for i in range(len(plans))] == list(plan_texts(plans))


@pytest.mark.parametrize("n", [1, 2, 3, 40, 200])
def test_plan_at_is_greedy_at_zero_cost(n):
    assert plan_at(n, 0, 0) == greedy_plan(n)


@pytest.mark.parametrize("n, c, count", [(1, 1, 1), (2, 4, 1), (7, 1, 3), (40, 0, 1),
                                         (184, 115, 23535820)])
def test_plan_at_refuses_an_index_out_of_range(n, c, count):
    for index in (count, -1):
        with pytest.raises(ValueError, match=rf"^plan index {index} out of range \(have {count}\)$"):
            plan_at(n, c, index)


def test_plan_at_builds_the_last_plan_of_a_large_race():
    # far past what enumeration reaches, and still an optimal race
    last = plan_at(4999, 1, count_races(4999, 1) - 1)
    assert (last.lo, last.hi) == (1, 4999)
    assert simulate_race(last, 1).cost == f_closed(4999, 1)


def test_enumerate_cap():
    count = count_races(12, 1)
    assert count > 2
    with pytest.raises(TooManyPlans) as info:
        enumerate_plans(12, 1, cap=2)
    assert info.value.count == count


@pytest.mark.parametrize("n", [0, -3])
def test_enumerate_refuses_an_empty_race(n):
    with pytest.raises(ValueError, match="^need at least one pawn$"):
        enumerate_plans(n, 1)


def test_three_optimal_races_for_seven():
    plans = enumerate_plans(7, 1)
    assert len(plans) == 3
    # one race splits off a 5-pawn peloton, two split off the 4-pawn one
    assert sorted(p.split for p in plans) == [4, 4, 5]
    outcomes = []
    for plan in plans:
        trace = simulate_race(plan, 1)
        assert trace.cost == 29 == f_recursive(7, 1)
        outcomes.append((trace.move_steps, trace.stay_steps))
    assert sorted(outcomes) == [(8, 13), (8, 13), (9, 11)]


def test_every_plan_simulates_to_optimum():
    for c in range(1, 5):
        for n in range(1, 26):
            expected = f_recursive(n, c)
            for plan in enumerate_plans(n, c, cap=10**6):
                assert simulate_race(plan, c).cost == expected


def test_two_pawn_race():
    for c in range(0, 5):
        trace = simulate_race(enumerate_plans(2, max(c, 1))[0], c)
        assert trace.cost == 2 * c + 1
        assert len(trace.rows) == 1


def test_subtree_completion_times():
    # every subtree over [lo..hi] is merged to one pawn after hi-lo iterations
    for plan in enumerate_plans(9, 2, cap=100):
        trace = simulate_race(plan, 2)
        for lo, hi, split in plan.splits():
            merge_iteration = hi - lo
            assert hi in trace.merges[merge_iteration - 1], (lo, hi, split)


def test_greedy_plan_cost_under_free_staying():
    for n in range(1, 12):
        if n == 1:
            continue
        trace = simulate_race(greedy_plan(n), 0)
        assert trace.cost == n - 1 == f_closed(n, 0)


def every_tree(lo, hi):
    """Every well-formed split tree over the pawns lo..hi."""
    if lo == hi:
        return [leaf(lo)]
    return [RacePlan(lo, hi, split, left, right)
            for split in range(lo, hi)
            for left in every_tree(lo, split)
            for right in every_tree(split + 1, hi)]


def random_tree(lo, hi, rng):
    """A well-formed split tree over the pawns lo..hi, each split uniform."""
    if lo == hi:
        return leaf(lo)
    split = rng.randrange(lo, hi)
    return RacePlan(lo, hi, split, random_tree(lo, split, rng), random_tree(split + 1, hi, rng))


def right_spine(n):
    """The tree over 1..n whose every peloton is one pawn."""
    plan = leaf(n)
    for lo in range(n - 1, 0, -1):
        plan = RacePlan(lo, n, lo, leaf(lo), plan)
    return plan


def test_filled_race_matches_the_pawn_walk():
    plans = [tree for n in range(1, 9) for tree in every_tree(1, n)]
    plans += [greedy_plan(n) for n in range(1, 80)]
    plans += [plan for c in (1, 2, 3) for n in range(9, 24) for plan in enumerate_plans(n, c, cap=10**4)]
    assert len(plans) == 1218
    rng = random.Random(20240)
    plans += [random_tree(1, rng.randint(30, 300), rng) for _ in range(20)]
    plans += [right_spine(n) for n in (2, 3, 30, 151)]
    for plan in plans:
        for c in (0, 1, 3):
            assert simulate_race(plan, c) == oracle.simulate_race(plan, c), (plan_text(plan), c)


def test_race_trace_is_one_row_per_iteration():
    # two pawn-indexed tables of n entries per iteration peaked at 1.54 MiB
    plan = greedy_plan(400)
    tracemalloc.start()
    try:
        trace = simulate_race(plan, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2**20, peak
    assert trace.rows[0] == "C" + "R" * 399 and trace.rows[-1] == "." * 398 + "CR"


def test_greedy_race_deeper_than_the_recursion_limit():
    # the greedy plan is a left spine 1 500 nodes deep
    trace = simulate_race(greedy_plan(1500), 0)
    assert (trace.cost, trace.move_steps, trace.stay_steps) == (1499, 1499, 1499 * 1500 // 2)
    assert trace.merges[-1] == (1500,)


def test_plans_deeper_than_the_recursion_limit():
    # the greedy plan is a left spine 1 500 nodes deep
    plan = greedy_plan(1500)
    assert plan == greedy_plan(1500) and plan != greedy_plan(1499)
    assert hash(plan) == hash(greedy_plan(1500))
    assert len(list(plan.splits())) == 1499
    text = "1"
    for hi in range(2, 1501):
        text = f"(1-{hi}@{hi - 1} {text} {hi})"
    assert plan_text(plan) == text
    assert list(plan_texts([plan, greedy_plan(1500), plan])) == [text] * 3
    assert repr(plan) == str(plan) == f"RacePlan({text})"
    assert pickle.loads(pickle.dumps(plan)) == plan == copy.deepcopy(plan)


def test_plans_compare_by_their_splits():
    plans = enumerate_plans(20, 1, cap=10**4)
    assert len(set(plans)) == len(plans) == count_races(20, 1)
    assert plans == [plan_at(20, 1, i) for i in range(len(plans))]
    assert leaf(3) == RacePlan(3, 3) != leaf(4)
    assert leaf(3) != (3, 3, None)


def test_plan_validation():
    with pytest.raises(ValueError):
        RacePlan(2, 1)
    with pytest.raises(ValueError):
        RacePlan(1, 3, 3, leaf(1), leaf(3))
    with pytest.raises(ValueError):
        RacePlan(1, 2, 1, leaf(1), None)


# --- words -------------------------------------------------------------------

def test_word_for_classic_cerny():
    pfa = build_cerny(4, 0)
    word = build_sync_word(4, 0, greedy_plan(3))
    assert format_word(pfa, word) == "baaabaaab"


def test_word_lengths_match_formula_squares():
    for n in range(2, 11):
        word = build_sync_word(n, 0, greedy_plan(n - 1))
        assert len(word) == (n - 1) ** 2
        assert is_sync_word(build_cerny(n, 0), word)


def test_words_for_9_1():
    pfa = build_cerny(9, 1)
    for plan in enumerate_plans(7, 1):
        word = build_sync_word(9, 1, plan)
        assert len(word) == 73 == rt_formula(9, 1)
        assert is_sync_word(pfa, word)


def test_word_for_8_2_is_optimal():
    from carefulsync import solve

    plans = enumerate_plans(5, 2)
    assert len(plans) == 1
    word = build_sync_word(8, 2, plans[0])
    assert len(word) == 52
    assert is_sync_word(build_cerny(8, 2), word)
    assert solve(build_cerny(8, 2)).threshold == 52


def test_plans_exhaust_all_shortest_words():
    # distinct optimal races build distinct words, and together they hit
    # every shortest synchronizing word the subset search can count
    from carefulsync import count_shortest

    for n in range(3, 13):
        for c in range(1, n - 1):
            npr = n - c - 1
            member = build_cerny(n, c)
            words = set()
            for plan in enumerate_plans(npr, c, cap=200):
                word = build_sync_word(n, c, plan)
                assert is_sync_word(member, word)
                words.add(word.letters)
            races = count_races(npr, c) if npr > 2 else 1
            assert len(words) == races
            assert count_shortest(member)[1] == races, (n, c)


def test_word_beyond_the_small_grid():
    from carefulsync import solve

    for n, c in [(16, 3), (17, 5)]:
        member = build_cerny(n, c)
        expected = rt_formula(n, c)
        for plan in enumerate_plans(n - c - 1, c, cap=100):
            word = build_sync_word(n, c, plan)
            assert len(word) == expected
            assert is_sync_word(member, word)
    assert solve(build_cerny(16, 3)).threshold == rt_formula(16, 3)


def test_race_word_takes_few_bytes_per_letter():
    # a Python int per letter in a list, then a tuple, took 16.5 bytes per letter
    plan = greedy_plan(1000)
    tracemalloc.start()
    try:
        word = build_sync_word(1001, 0, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(word) == rt_formula(1001, 0) == 10**6
    assert peak < 5 * len(word), peak / len(word)


def test_word_needs_matching_plan():
    with pytest.raises(ValueError):
        build_sync_word(9, 1, greedy_plan(5))


def test_built_words_factor_into_blocks():
    for n in range(2, 12):
        for c in range(n - 1):
            npr = n - c - 1
            plans = [greedy_plan(npr)] if c == 0 else enumerate_plans(npr, c, cap=50)
            for plan in plans:
                word = build_sync_word(n, c, plan)
                text = format_word(build_cerny(n, c), word)
                assert text.startswith("b" * (c + 1))
                blocks = greedy_factorization(text[c + 1:], c)
                assert blocks is not None, (n, c, text)


def test_skewed_plans_still_cost_their_recursion_value():
    # simulation accepts any well-formed tree, not only optimal ones
    def recursion_cost(plan, c):
        if plan.split is None:
            return 0
        size = plan.pawns
        left_size = plan.split - plan.lo + 1
        return (
            recursion_cost(plan.left, c)
            + recursion_cost(plan.right, c)
            + (c + 1) * size
            - left_size
        )

    right_heavy = RacePlan(
        1, 4, 1,
        leaf(1),
        RacePlan(2, 4, 2, leaf(2), RacePlan(3, 4, 3, leaf(3), leaf(4))),
    )
    for c in range(0, 4):
        trace = simulate_race(right_heavy, c)
        assert trace.cost == recursion_cost(right_heavy, c)
        if c >= 1:
            assert trace.cost > f_recursive(4, c)  # it is genuinely suboptimal


# --- rendering ----------------------------------------------------------------

def test_render_row_counts():
    trace = simulate_race(enumerate_plans(2, 1)[0], 1)
    body = [line for line in render_race(trace).splitlines() if "|" in line][1:]
    assert len(body) == 1

    trace7 = simulate_race(enumerate_plans(7, 1)[0], 1)
    body7 = [line for line in render_race(trace7).splitlines() if "|" in line][1:]
    assert len(body7) == 6
    assert body7[-1].split("|")[1].strip().startswith(".....")  # survivor column 7


def test_render_distinguishes_all_optimal_races():
    pictures = {render_race(simulate_race(p, 1)) for p in enumerate_plans(7, 1)}
    assert len(pictures) == 3


def test_concurrent_queries_are_consistent(monkeypatch):
    import sys
    import threading

    expected = {(n, c): f_closed(n, c) for n in (500, 1500) for c in (7, 19)}
    races = {(n, c): count_races(n, c) for n in (300, 2000) for c in (2, 11)}
    # the template grows under the readers from scratch, and the sweepers
    # read it and the per-c tables for every c
    monkeypatch.setattr(pawnrace, "_template", None)
    sweep = {c: exact_f(300, c) for c in range(1, 130)}
    for c in (2, 11):
        pawnrace._o_tables.pop(c)  # make the threads fill the memo themselves
    errors = []
    start = threading.Barrier(8)

    def worker():
        start.wait()
        local = SequenceCache(13)  # grow a private cache too
        for _ in range(40):
            for (n, c), want in races.items():
                if count_races(n, c) != want:
                    errors.append(("races", n, c))
            for (n, c), want in expected.items():
                if f_closed(n, c) != want or f_recursive(n, c) != want:
                    errors.append((n, c))
            local.twinverse(2000)

    def sweeper():
        start.wait()
        for _ in range(10):
            for c, want in sweep.items():
                if f_closed(300, c) != want:
                    errors.append(("sweep", c))
                if pawnrace.race_cost(pawnrace.cache_for(c), 300) != want:
                    errors.append(("sweep per-c", c))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        threads += [threading.Thread(target=sweeper) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors


def test_render_golden_two_pawns():
    trace = simulate_race(enumerate_plans(2, 1)[0], 1)
    assert render_race(trace) == (
        " it | 12\n"
        "--------\n"
        "  1 | CR  merge@2\n"
    )


# --- the run template shared by every large c -------------------------------

TEMPLATE_LIMITS = (1, 2, 10, 300, 2000, 7198)
LARGE_C = (64, 300, 499, 1502, 5000)


def template_runs(c, limit):
    values, a, b = run_template().runs(limit)
    return values, [x + c * y for x, y in zip(a, b)]


def test_template_c_min_values():
    t = run_template()
    assert [t.c_min(limit) for limit in (1, 10, 300, 2000, 7198, 30000, 2**21 - 3)] == [
        1, 3, 8, 10, 12, 14, 20,
    ]


@pytest.mark.parametrize("limit", TEMPLATE_LIMITS)
def test_template_runs_match_per_c_tables(limit):
    c_min = run_template().c_min(limit)
    for c in [*range(c_min, c_min + 41), *LARGE_C]:
        assert template_runs(c, limit) == SequenceCache(c).runs(limit), c


@pytest.mark.parametrize("limit", TEMPLATE_LIMITS)
def test_c_min_is_the_exact_boundary(limit):
    t = run_template()
    c_min = t.c_min(limit)
    assert t.at(c_min, limit) is not None
    for c in range(1, c_min):  # c_min - 1 among them
        assert template_runs(c, limit) != SequenceCache(c).runs(limit), c
        assert t.at(c, limit) is None, c


@pytest.mark.parametrize("limit", [300, 2000])
def test_template_reads_match_term_lists(limit):
    c_min = run_template().c_min(limit)
    for c in [*range(c_min, c_min + 41), *LARGE_C]:
        runs, terms = run_template().at(c, limit), TermSequence(c)
        count = runs.twinverse(limit) - 1  # every term <= limit
        for k in range(1, count + 1, 1 + count // 3000):
            assert (runs.p(k), runs.q(k)) == (terms.p(k), terms.q(k)), (c, k)
        assert runs.q(count + 1) == terms.q(count + 1), c
        for n in range(1, limit + 1):
            assert runs.twinverse(n) == terms.twinverse(n), (c, n)
        with pytest.raises(ValueError):
            runs.p(count + 1)  # beyond the limit the template does not answer


def test_sequence_queries_match_term_lists(monkeypatch):
    # index reads go through the template's index-bounded tables for every
    # c >= c_min, and through a table of their own c below it; each c starts
    # from an empty template, so the reads themselves make it grow
    monkeypatch.setattr(pawnrace, "_caches", {})
    limit = 2000
    c_min = run_template().c_min(limit)
    for c in [*range(1, c_min + 41), *LARGE_C]:
        monkeypatch.setattr(pawnrace, "_template", None)
        terms = TermSequence(c)
        count = terms.twinverse(limit) - 1  # every term <= limit
        for k in range(1, count + 1, 1 + count // 300):
            assert sequences(c, k) == (terms.p(k), terms.q(k)), (c, k)
        assert sequences(c, count) == (terms.p(count), terms.q(count)), c
        for n in range(1, limit + 1, 7):
            assert twinverse(c, n) == terms.twinverse(n), (c, n)
    assert sorted(pawnrace._caches) == list(range(1, c_min))


def test_sequence_queries_keep_their_error_messages():
    # the template's tables for one c refuse reads beyond their limit in
    # words of their own; a public query must never show that message
    c_min = run_template().c_min(500)
    for c in [1, 2, c_min - 1, c_min, c_min + 1, *LARGE_C]:
        with pytest.raises(ValueError, match=r"^index must be >= 1$"):
            sequences(c, 0)
        for n in (0, -5):
            with pytest.raises(ValueError, match=r"^argument must be >= 1$"):
                twinverse(c, n)
        for bad in (0, -c):
            with pytest.raises(ValueError, match=r"^cost parameter must be >= 1$"):
                sequences(bad, 500)
            with pytest.raises(ValueError, match=r"^cost parameter must be >= 1$"):
                twinverse(bad, 500)


def test_every_block_starts_a_run_of_its_own():
    # each block's first value exceeds the last term of the block before
    # it, so every run a block appends is a new distinct value
    limit = 10**6
    for c in range(1, run_template().c_min(limit) + 41):
        table = SequenceCache(c)
        table.runs(limit)
        assert all(a < b for a, b in zip(table._p, table._p[1:])), c
    template = SequenceCache()
    template.runs(2**40)
    assert template._p[-1] > 2**40
    assert all(a < b for a, b in zip(template._p, template._p[1:]))


def test_template_refuses_reads_at_one_c():
    # the template holds every large c at once, and at() reads it at one
    template = SequenceCache()
    for read in (template.p, template.q, template.twinverse):
        with pytest.raises(ValueError, match=r"call p, q and twinverse on at\(c, limit\)"):
            read(5)
    assert template.at(40, 300).p(5) == SequenceCache(40).p(5)


def test_tables_made_by_at_refuse_to_grow():
    view = run_template().at(40, 300)
    for read in (view.runs, view.c_min):
        with pytest.raises(ValueError, match=r"call runs and c_min on the template"):
            read(10)
    assert view.twinverse(300) == SequenceCache(40).twinverse(300)


def test_only_the_template_reads_at_another_c():
    # a table of one c would read its own runs as those of the c asked for
    for table in (run_template().at(40, 300), SequenceCache(5)):
        for read in (lambda: table.at(40, 300), lambda: table.at(40, index=5)):
            with pytest.raises(ValueError, match=r"call it on run_template\(\)"):
                read()


def test_point_queries_read_the_template():
    n = 2000
    c_min = run_template().c_min(n)
    for c in [*range(1, c_min + 41), *LARGE_C]:
        assert f_closed(n, c) == exact_f(n, c), c
        assert split_interval(n, c) == list(oracle.split_interval(n, c)), c
    assert [count_races(300, c) for c in (40, 41)] == [
        oracle.race_counts(300, 40)[300], oracle.race_counts(300, 41)[300],
    ]


def scans(scanner, n_max):
    best, best_c = scanner.scan_optimal(n_max)
    top, top_c, smaller = scanner.scan_maximizers(n_max)
    return (best.tolist(), best_c.tolist(), scanner.scan_drops(n_max),
            top.tolist(), top_c.tolist(), smaller,
            list(scanner.scan_grid(n_max, min(n_max, 60))))


@pytest.mark.parametrize("n_max", [2, 3, 4, 5, 13, 48, 301, 2000])
def test_scans_match_the_per_c_column_loop(n_max):
    assert scans(cerny, n_max) == scans(oracle, n_max)


def test_rows_match_the_per_c_column_loop():
    n_max = 2000
    ns = sorted({*range(2, 130), *range(130, n_max + 1, 41), 204, 205, 854, 855,
                 1737, 1738, n_max})
    want = {n: [] for n in ns}
    for c, column in oracle.columns(n_max):
        for n in ns:
            if n >= c + 2:
                want[n].append(int(column[n - c - 2]))
    for n in ns:
        (row,) = cerny._rows(n, n - 2, n)
        assert row.tolist() == want[n], n
    # rows from an n_min > 2, cut at c_max = 60
    for n, row in enumerate(cerny._rows(n_max, 60, 1730), 1730):
        if n in want:
            assert row.tolist() == want[n][:61], n


def test_drops_to_7200_match_the_per_c_column_loop():
    drops = cerny.scan_drops(7200)
    assert len(drops) == 8
    assert drops == oracle.scan_drops(7200)


def test_scan_builds_run_tables_only_below_c_min(built):
    cerny.scan_drops(7200)
    c_min = run_template().c_min(7200)
    assert len(built) <= c_min and max(built) < c_min, built
