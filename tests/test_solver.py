import tracemalloc
from itertools import groupby
from unittest.mock import patch

import numpy as np
import pytest

from carefulsync import (
    LimitExceeded,
    NotSynchronizing,
    Pfa,
    SolveLimits,
    Word,
    best_prime_list,
    build_cerny,
    build_prime_pfa,
    count_shortest,
    format_word,
    is_sync_word,
    rt_formula,
    sequences,
    solve,
    solver,
    tables,
)

# WIDE values that send every level to the vectorized step, or none of them
ALL_WIDE = 1
PYTHON_ONLY = 1 << 62
# CHAIN values that take the chain step wherever a level allows it, or never
ALL_CHAINS = 1
NO_CHAINS = 1 << 62


def funnel(n, symbols="abc"):
    """n states under k interchangeable symbols, three by default, each
    moving state q to q - 1: every one of the k^(n-1) words of length n - 1
    synchronizes."""
    row = lambda q: (max(q - 1, 1),) * len(symbols)
    return Pfa(n=n, symbols=tuple(symbols), delta=tuple(row(q) for q in range(1, n + 1)))


# the three sets of subsets seen that the first wide level may hand over to,
# each built in place of the one that ``solver._seen_set`` picks: the dense
# map of a byte per subset, the dense map of a bit per subset, and the hash
# table
SEEN = {
    "bytes": lambda n, nsym, keys: solver._DenseSet(n, keys, packed=False),
    "bits": lambda n, nsym, keys: solver._DenseSet(n, keys, packed=True),
    "hash": lambda n, nsym, keys: solver._SubsetTable(keys),
}


def seen_kinds_for(pfa):
    """The keys of ``SEEN`` whose sets can hold the subsets of ``pfa``: the
    dense maps only where their packed keys fit."""
    fits = 2 * pfa.n + len(pfa.symbols).bit_length() <= 64
    return tuple(SEEN) if fits else ("hash",)


def seen_kind(seen):
    """The key of ``SEEN`` for the set of subsets seen ``seen``."""
    if isinstance(seen, solver._SubsetTable):
        return "hash"
    return "bits" if seen.packed else "bytes"


def outcome(pfa, wide, limits=SolveLimits(), chain=NO_CHAINS, seen=None):
    """solve's result, or the fields of the exception it raised, with levels
    of at least ``wide`` subsets taking the vectorized step, the chain step
    taken after ``chain`` levels of one subset, and the wide levels keeping
    their subsets in the set ``SEEN[seen]``, or the one the search picks
    when ``seen`` is None."""
    picked = SEEN[seen] if seen else solver._seen_set
    with (patch.object(solver, "WIDE", wide), patch.object(solver, "CHAIN", chain),
          patch.object(solver, "_seen_set", picked)):
        try:
            return solve(pfa, limits)
        except (LimitExceeded, NotSynchronizing) as exc:
            return type(exc), getattr(exc, "what", None), exc.explored, exc.levels


@pytest.fixture
def wide_levels(monkeypatch):
    """(level, width) of every level the vectorized step expands."""
    levels = []
    step = solver._Kernel.step

    def spy(self, front, weight, base, seen, origin, limits, level):
        levels.append((level, front.size))
        return step(self, front, weight, base, seen, origin, limits, level)

    monkeypatch.setattr(solver._Kernel, "step", spy)
    return levels


@pytest.fixture
def seen_kinds(monkeypatch):
    """The kind (a key of ``SEEN``) of the set of subsets seen that each
    wide level fills, with the typecode of the search's parent links."""
    kinds = set()
    step = solver._Kernel.step

    def spy(self, front, weight, base, seen, origin, limits, level):
        kinds.add((seen_kind(seen), origin.typecode))
        return step(self, front, weight, base, seen, origin, limits, level)

    monkeypatch.setattr(solver._Kernel, "step", spy)
    return kinds


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
    n = 70
    threshold, count = count_shortest(funnel(n))
    assert threshold == n - 1
    assert count == 3 ** (n - 1)
    assert count > 2**63


def test_wide_counts_hand_over_before_int64_overflows(wide_levels):
    # n = 64 is in the vectorized step's range; the counts 3^k pass 2^63 on
    # the way, so the later levels sum Python ints, still in the wide step
    with patch.object(solver, "WIDE", ALL_WIDE):
        assert count_shortest(funnel(64)) == (63, 3**63)
    assert 3**63 > 2**63
    assert [level for level, _ in wide_levels] == list(range(63))
    assert outcome(funnel(64), ALL_WIDE) == outcome(funnel(64), PYTHON_ONLY)


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
        assert tuple(result.word) == hits[0]  # lexicographically least
        assert result.count == len(hits)
        assert count_shortest(pfa) == (len(hits[0]), len(hits))
    assert checked > 30  # the sample really exercised the comparison


def test_dense_counts_hand_over_before_int64_overflows(monkeypatch):
    # 20 states and 16 symbols: the counts 16^k pass 2^63 from level 15 on,
    # so the dense map's last levels sum Python ints
    pfa = funnel(20, "abcdefghijklmnop")
    assert 16**19 > 2**63
    kinds = set()
    step = solver._Kernel.step

    def spy(self, front, weight, base, seen, origin, limits, level):
        kinds.add((seen_kind(seen), weight.dtype.kind))
        return step(self, front, weight, base, seen, origin, limits, level)

    monkeypatch.setattr(solver._Kernel, "step", spy)
    expected = outcome(pfa, PYTHON_ONLY)
    assert (expected.threshold, expected.count) == (19, 16**19)
    assert outcome(pfa, ALL_WIDE) == expected
    assert kinds == {("bytes", "i"), ("bytes", "O")}
    for seen in ("bits", "hash"):
        kinds.clear()
        assert outcome(pfa, ALL_WIDE, seen=seen) == expected
        assert kinds == {(seen, "i"), (seen, "O")}


def test_dense_map_only_where_a_packed_key_fits():
    # the dense map sorts each candidate as one uint64: its image in n bits
    # above its number, below 2^n * nsym, in the 64 - n bits left; it holds
    # a byte per subset up to DENSE states and a bit past that
    keys = np.array([1], np.uint64)
    picked = {}
    for n in (1, 2, 8, 16, 20, 23, 24, 25, 28, 30, 31, 32, 40, 64):
        for nsym in (1, 2, 3, 4, 255, 256, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 20):
            kind = seen_kind(solver._seen_set(n, nsym, keys))
            if kind != "hash":
                assert (1 << n) * nsym <= 1 << (64 - n), (n, nsym)
            assert (kind == "bits") == (kind != "hash" and n > solver.DENSE), (n, nsym)
            picked[n, nsym] = kind
    assert picked[24, (1 << 16) - 1] == picked[20, 1 << 20] == picked[16, 1 << 20] == "bytes"
    assert picked[24, (1 << 16) + 1] == picked[23, 1 << 20] == "hash"
    assert picked[25, 1] == picked[28, 255] == picked[31, 3] == picked[30, 4] == "bits"
    assert picked[31, 4] == picked[32, 1] == picked[25, 1 << 16] == "hash"
    assert all(kind == "hash" for (n, _), kind in picked.items() if n >= 32)


def test_wide_step_matches_python_step():
    cases = [build_cerny(n, c) for n in range(2, 17) for c in range(n - 1)]
    cases += [build_prime_pfa((5, 7, 8, 9)), build_cerny(18, 4)]
    for pfa in cases:
        assert outcome(pfa, ALL_WIDE) == outcome(pfa, PYTHON_ONLY), (pfa.n, pfa.symbols)


def test_default_width_takes_the_wide_step(wide_levels):
    pfa = build_cerny(18, 4)
    result = solve(pfa)
    assert result == outcome(pfa, PYTHON_ONLY)
    assert max(width for _, width in wide_levels) == 502
    assert wide_levels[0][1] >= solver.WIDE
    # one run of wide levels from the first to the last, narrow ones included
    first = wide_levels[0][0]
    assert [level for level, _ in wide_levels] == list(range(first, result.levels))
    assert min(width for _, width in wide_levels) < solver.WIDE


def test_default_wide_phase_on_the_hash_table(seen_kinds):
    # past 31 states the packed keys of the dense map no longer fit, so the
    # wide phase of C(34, 22), at the default width, keeps its subsets seen
    # in the hash table
    pfa = build_cerny(34, 22)
    result = solve(pfa)
    assert result == outcome(pfa, PYTHON_ONLY)
    assert (result.threshold, result.explored) == (rt_formula(34, 22), 49_053)
    assert result.threshold == 1008
    assert seen_kinds == {("hash", "i")}


def test_cap_inside_a_wide_level(wide_levels, seen_kinds):
    # C(18, 4) has levels of at least 128 subsets from 1 469 to 43 832 discovered
    pfa = build_cerny(18, 4)
    for seen in SEEN:
        seen_kinds.clear()
        for cap in (1_500, 10_000, 30_000, 43_000):
            limits = SolveLimits(max_subsets=cap)
            expected = outcome(pfa, PYTHON_ONLY, limits)
            assert expected[:3] == (LimitExceeded, "max_subsets", cap + 1)
            assert outcome(pfa, ALL_WIDE, limits, seen=seen) == expected
            del wide_levels[:]
            assert outcome(pfa, solver.WIDE, limits, seen=seen) == expected
            # the cap fell inside the last level, which the wide step expanded
            assert wide_levels[-1][0] + 1 == expected[3]
        assert seen_kinds == {(seen, "i")}


def test_not_synchronizing_explored_agrees(wide_levels, seen_kinds):
    # C(16, 3) next to two more states that both letters swap: no subset of
    # the full set ever drops below two states
    core = build_cerny(16, 3)
    n = core.n + 2
    pfa = Pfa(n=n, symbols=core.symbols, delta=core.delta + ((n, n), (n - 1, n - 1)))
    expected = outcome(pfa, PYTHON_ONLY)
    assert expected[0] is NotSynchronizing
    for seen in SEEN:
        seen_kinds.clear()
        assert outcome(pfa, ALL_WIDE, seen=seen) == expected
        del wide_levels[:]
        assert outcome(pfa, solver.WIDE, seen=seen) == expected
        assert wide_levels
        assert seen_kinds == {(seen, "i")}


def test_every_handoff_between_the_steps(wide_levels, seen_kinds):
    # the search goes wide at most once, by width, and stays wide, past the
    # int64 range of the counts too (funnel(64)), each run against the
    # Python step alone, with each set of subsets seen
    cases = [build_cerny(n, c) for n in (16, 17, 18) for c in (3, 4)]
    cases += [build_prime_pfa((5, 7, 8, 9)), funnel(64)]
    patterns = set()
    for pfa in cases:
        expected = outcome(pfa, PYTHON_ONLY)
        for wide in (ALL_WIDE, 2, 8, 64, 128, 500):
            for seen in seen_kinds_for(pfa):
                del wide_levels[:]
                assert outcome(pfa, wide, seen=seen) == expected, (pfa.n, pfa.symbols, wide, seen)
                taken = {level for level, _ in wide_levels}
                steps = (level in taken for level in range(expected.levels))
                patterns.add("".join("W" if w else "N" for w, _ in groupby(steps)))
    assert patterns == {"N", "NW", "W"}, patterns
    assert {kind for kind, _ in seen_kinds} == set(SEEN)


def traced_peak(pfa, seen=None):
    """solve's result, its wide levels keeping their subsets in
    ``SEEN[seen]`` (or the set the search picks), and the peak of the memory
    it traced."""
    tracemalloc.start()
    try:
        with patch.object(solver, "_seen_set", SEEN[seen] if seen else solver._seen_set):
            result = solve(pfa)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_search_keeps_its_subsets_off_the_python_heap():
    # 196 592 subsets: about 19 MB as Python ints in a set and dicts, about
    # 8 MB in the hash table and level arrays, and the dense map is 1 MiB of
    # bytes or 128 KiB of bits
    pfa = build_cerny(20, 4)
    expected = outcome(pfa, PYTHON_ONLY)
    for seen in SEEN:
        result, peak = traced_peak(pfa, seen)
        assert result == expected
        assert peak < 12 * 2**20, (seen, peak)


def test_dense_map_bounds_a_wide_search_of_22_states():
    # 786 400 subsets: the hash table grows to 2^21 slots (16 MiB, and 24 MiB
    # while it doubles), where the dense map of 2^22 bytes holds all of them
    result, peak = traced_peak(build_cerny(22, 4))
    assert (result.threshold, result.explored, result.count) == (590, 786_400, 1)
    assert peak < 16 * 2**20, peak


def test_parent_links_fall_back_to_8_bytes(seen_kinds):
    # a link, below nsym * (max_subsets + 1), takes 4 bytes up to 2^31
    pfa = funnel(12)
    cap = (1 << 31) // 3
    assert 3 * cap <= 1 << 31 < 3 * (cap + 1)
    expected = outcome(pfa, PYTHON_ONLY)
    for max_subsets, typecode in ((cap - 1, "i"), (cap, "q")):
        limits = SolveLimits(max_subsets=max_subsets)
        seen_kinds.clear()
        for wide in (PYTHON_ONLY, ALL_WIDE, 4):
            assert outcome(pfa, wide, limits) == expected
            assert outcome(pfa, wide, limits, ALL_CHAINS) == expected
        assert seen_kinds == {("bytes", typecode)}
    # 128 symbols pass 2^31 under the default cap of 2^24 subsets, 127 do not
    for nsym, typecode in ((127, "i"), (128, "q")):
        pfa = funnel(5, [f"s{k}" for k in range(nsym)])
        seen_kinds.clear()
        assert outcome(pfa, ALL_WIDE) == outcome(pfa, PYTHON_ONLY)
        assert outcome(pfa, ALL_WIDE).count == nsym**4
        assert seen_kinds == {("bytes", typecode)}


def test_bit_map_matches_hash_table_and_python_step(seen_kinds, chains):
    # members of 25 to 27 states, past DENSE, where the search picks the bit
    # map, prime builds of 25 to 27 states with long chains, one that never
    # synchronizes, and members of 4, 8 and 12 states with the bit map
    # forced: with and without the chain step, at every width and under
    # caps, the outcome is the Python step's, with the bit map and with the
    # hash table
    core = build_cerny(23, 16)
    cases = [build_cerny(25, 17), build_cerny(26, 18), build_cerny(27, 19)]
    cases += [build_prime_pfa((3, 5, 7), padding) for padding in (1, 2, 3)]
    cases += [Pfa(n=25, symbols=core.symbols, delta=core.delta + ((25, 25), (24, 24)))]
    cases += [build_cerny(n, c) for n in (4, 8, 12) for c in range(n - 1)]
    assert {pfa.n for pfa in cases[:7]} == {25, 26, 27}
    for pfa in cases:
        full = outcome(pfa, PYTHON_ONLY)
        explored = full[2] if isinstance(full, tuple) else full.explored
        for limits in (SolveLimits(), SolveLimits(max_subsets=max(1, explored // 2)),
                       SolveLimits(max_length=max(1, explored // 100))):
            expected = outcome(pfa, PYTHON_ONLY, limits)
            for chain in (ALL_CHAINS, NO_CHAINS):
                for wide in (ALL_WIDE, 16, solver.WIDE):
                    for seen in (None, "bits", "hash") if pfa.n > solver.DENSE else ("bits", "hash"):
                        got = outcome(pfa, wide, limits, chain, seen)
                        assert got == expected, (pfa.n, pfa.symbols, limits, chain, wide, seen)
    assert {kind for kind, _ in seen_kinds} == {"bits", "hash"}
    assert any(done for _, done, _ in chains)
    assert outcome(cases[6], PYTHON_ONLY)[0] is NotSynchronizing


def relay(p, r, leak=None):
    """Two paths of p and r states: 'a' walks the first to its end and
    fixes the second, 'b' walks the second and, once the first has shrunk to
    its end state, merges that into the second's end.  'b' is undefined
    below state ``leak`` of the first path (below p when None), so the
    shortest word is a^(p-1) b^(r-1), one subset a level: a chain under 'a'
    that ends where its next image is seen, then one under 'b' that ends in
    a singleton.  With a ``leak`` below p, 'b' finds a new subset from level
    ``leak - 1`` on and breaks the 'a' chain there."""
    first = lambda q: (min(q + 1, p), p + r if q == p else q if leak and q >= leak else None)
    second = lambda q: (q, min(q + 1, p + r))
    rows = [first(q) for q in range(1, p + 1)] + [second(q) for q in range(p + 1, p + r + 1)]
    return Pfa(n=p + r, symbols=("a", "b"), delta=tuple(rows))


@pytest.fixture
def chains(monkeypatch):
    """(symbol, levels committed, whether ``seen`` is still a Python set) of
    every chain step."""
    steps = []
    run = solver._Kernel.chain

    def spy(self, bits, s, seen, room):
        bits, done = run(self, bits, s, seen, room)
        steps.append((s, done, isinstance(seen, set)))
        return bits, done

    monkeypatch.setattr(solver._Kernel, "chain", spy)
    return steps


def chained(pfa, limits=SolveLimits(), chain=ALL_CHAINS, wide=solver.WIDE):
    """The outcome with the chain step, which must equal the Python step's."""
    result = outcome(pfa, wide, limits, chain)
    assert result == outcome(pfa, PYTHON_ONLY, limits), (pfa.n, limits, chain, wide)
    return result


def test_chain_step_matches_python_step_on_prime_builds(chains):
    cases = [build_prime_pfa(*best_prime_list(n)[:2]) for n in (60, 62)]
    cases += [build_prime_pfa(row.primes, row.padding, transitive)
              for row in tables.DEFEAT for transitive in (False, True)]
    for pfa in cases:
        for chain in (ALL_CHAINS, solver.CHAIN):
            del chains[:]
            levels = chained(pfa, chain=chain).levels
            # most levels of these searches are chain levels
            assert 2 * sum(done for _, done, _ in chains) > levels
    assert max(done for _, done, _ in chains) > solver._BATCH


def test_chain_changes_symbol_and_ends_in_a_singleton(chains):
    result = chained(relay(30, 30))
    assert (result.threshold, format_word(relay(30, 30), result.word, pretty=True)) == (58, "a^29 b^29")
    # level 0 by the Python step, levels 1-28 by the chain under 'a', which
    # stops where the image under 'a' is seen; level 29 by the Python step,
    # then the chain under 'b' up to the level whose image is the singleton
    assert chains == [(0, 28, True), (1, 27, True)]
    chained(relay(30, 30), chain=solver.CHAIN)
    assert chains[2:] == [(0, 21, True), (1, 27, True)]


def test_chain_broken_by_a_new_image_of_another_symbol(chains):
    pfa = relay(30, 30, leak=10)
    result = chained(pfa)
    assert result.count > 1
    # the chain stops below the level that expands {10..30} and the second
    # path, where 'b' first finds a new subset
    assert chains[0] == (0, 8, True)


def test_chain_ending_where_its_letter_is_undefined(chains):
    # 'b' maps everything into {1, 2, 3}, which 'a' moves round a path of m
    # states until it holds m, where 'a' is undefined: no new subset follows
    m = 30
    pfa = Pfa(n=m, symbols=("a", "b"),
              delta=tuple((q + 1 if q < m else None, q % 3 + 1) for q in range(1, m + 1)))
    for chain in (ALL_CHAINS, solver.CHAIN):
        assert chained(pfa, chain=chain) == (NotSynchronizing, None, m - 1, m - 1)
    # the first chain, under 'b', commits nothing
    assert [done for _, done, _ in chains] == [0, m - 4, m - 10]


def test_chain_longer_than_its_batches(chains, monkeypatch):
    monkeypatch.setattr(solver, "_BATCH", 8)
    widths = set()
    table = solver._Kernel._orbit_table
    monkeypatch.setattr(solver._Kernel, "_orbit_table",
                        lambda self, s: widths.add(table(self, s).shape[1]) or table(self, s))
    for p, r in ((30, 30), (12, 40), (3, 50)):
        chained(relay(p, r))
        chained(relay(p, r), chain=2)
    assert max(done for _, done, _ in chains) == 47
    assert widths == {8}


def test_chain_after_a_wide_level(chains, wide_levels):
    # levels of two subsets go wide, and no chain step follows them
    chained(build_prime_pfa((5, 7, 8, 9)), wide=2)
    assert wide_levels and any(done for _, done, _ in chains)
    assert all(python for _, _, python in chains)


def test_chain_step_covers_64_states_and_no_more(chains):
    # relay(34, 30) ends in state 64, bit 63 of the subsets
    result = chained(relay(34, 30))
    assert result.threshold == 62 and result.word.letters[-1] == 1
    assert chains == [(0, 32, True), (1, 27, True)]
    del chains[:]
    assert chained(relay(35, 30)).threshold == 63
    assert chains == []


def test_caps_inside_a_chain(chains):
    cases = [relay(30, 30), relay(34, 30), build_prime_pfa((5, 7, 8, 9))]
    for pfa in cases:
        full = outcome(pfa, PYTHON_ONLY)
        for cap in (2, 3, 10, full.explored // 2, full.explored - 1, full.explored):
            expected = chained(pfa, SolveLimits(max_subsets=cap))
            if cap < full.explored:
                assert expected[:3] == (LimitExceeded, "max_subsets", cap + 1)
        for cap in (2, 3, 10, full.levels // 2, full.levels - 1):
            expected = chained(pfa, SolveLimits(max_length=cap))
            assert expected == (LimitExceeded, "max_length", expected[2], cap)
        assert chained(pfa, SolveLimits(max_length=full.levels)) == full
    assert any(done for _, done, _ in chains)
