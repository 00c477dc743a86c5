"""Property tests of the bitset kernel and the subset search against the
per-state simulator and the brute-force word enumerator of ``oracle``, and
of the search's sets of subsets, the hash table and the dense map of a byte
or of a bit per subset, against a Python set."""

from unittest.mock import patch

import numpy as np
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


@st.composite
def pfa_subset_run_word(draw):
    """Words of long runs of one letter, over automata of up to 70 states,
    so that sets span more than one machine word, with a few undefined
    transitions, so that long runs both reach and escape ``None``.  The
    targets, holes and members come uniformly from a seeded ``Random``."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 70) | st.integers(65, 70))
    nsym = draw(st.integers(1, 3))
    holes = draw(st.integers(0, 4))
    delta = [[rng.randint(1, n) for _ in range(nsym)] for _ in range(n)]
    for _ in range(holes):
        delta[rng.randrange(n)][rng.randrange(nsym)] = None
    pfa = Pfa(n=n, symbols=("a", "b", "c")[:nsym], delta=tuple(map(tuple, delta)))
    members = rng.sample(range(1, n + 1), draw(st.integers(0, n)))
    runs = draw(st.lists(st.tuples(st.integers(0, nsym - 1), st.integers(1, 300)), max_size=8))
    letters = tuple(sym for sym, k in runs for _ in range(k))
    return pfa, StateSet.of(members, n), Word(letters)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pfa_subset_run_word())
def test_apply_word_matches_simulator_on_long_runs(case):
    pfa, s, w = case
    assert apply_word(pfa, s, w) == expected_image(pfa, s, w)


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
    assert tuple(result.word) == hits[0]  # lexicographically least
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


@st.composite
def chain_pfas(draw):
    """Automata whose letter 'a' is one cycle through every state, changed
    at one or two states, while the other letters are mostly undefined: 'a'
    moves a subset on for many levels in which the others find nothing new,
    and the changed states shrink it, so these levels of one subset run
    until a singleton or a subset seen before."""
    n = draw(st.integers(4, 8))
    nsym = draw(st.integers(1, 3))
    order = draw(st.permutations(range(1, n + 1)))
    a = dict(zip(order, order[1:] + order[:1]))
    for q in draw(st.lists(st.sampled_from(order), min_size=1, max_size=2, unique=True)):
        a[q] = draw(st.sampled_from(order))
    target = st.sampled_from((None, None, None, *range(1, n + 1)))
    delta = tuple((a[q], *(draw(target) for _ in range(nsym - 1))) for q in range(1, n + 1))
    return Pfa(n=n, symbols=("a", "b", "c")[:nsym], delta=delta)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain_pfas())
def test_chain_step_matches_brute_force(pfa):
    # a chain of 1 tries the chain step after every level of one subset
    # that found one new subset
    with patch.object(solver, "CHAIN", 1):
        check_against_oracle(pfa)


def test_chain_pfas_take_the_chain_step(monkeypatch):
    # the test above holds the chain step to the oracle only if its automata
    # make the chain step commit levels
    committed = []
    run = solver._Kernel.chain

    def spy(self, bits, s, seen, room):
        bits, done = run(self, bits, s, seen, room)
        committed.append(done)
        return bits, done

    monkeypatch.setattr(solver._Kernel, "chain", spy)
    test_chain_step_matches_brute_force()
    assert sum(committed) > 200


# a key k sits at home slot (k * GOLDEN mod 2^64) >> (64 - bits) of a table of
# 2^bits slots, so r * INVERSE for small r lands in slot 0 of every table, and
# -r * INVERSE in the last slot, from which probes wrap around
INVERSE = pow(solver._GOLDEN, -1, 1 << 64)
keys = st.one_of(
    st.integers(1, (1 << 64) - 1),
    st.integers(1, 1 << 16).map(lambda r: r * INVERSE % (1 << 64)),
    st.integers(1, 1 << 16).map(lambda r: -r * INVERSE % (1 << 64)),
)


@st.composite
def key_batches(draw):
    """Batches of distinct keys from the first quarter of a pool, so that
    keys repeat across batches, and last the whole pool one key a batch,
    which grows the table at least twice."""
    pool = draw(st.lists(keys, min_size=32, max_size=64, unique=True))
    batch = st.lists(st.sampled_from(pool[: len(pool) // 4]), min_size=1, unique=True)
    return draw(st.lists(batch, max_size=8)) + [[key] for key in pool]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(keys, min_size=1, max_size=3, unique=True), key_batches())
def test_subset_table_matches_set(start, batches):
    # rehash a few slots at a time, so that growing crosses chunk boundaries
    with patch.object(solver, "_CHUNK", 4):
        table = solver._SubsetTable(np.array(start, np.uint64))
        model = set(start)
        sizes = {table.slots.size}
        for batch in batches:
            fresh = table.insert(np.array(batch, np.uint64))
            assert fresh.tolist() == [key not in model for key in batch]
            model.update(batch)
            sizes.add(table.slots.size)
            assert len(table) == len(model)
        assert len(sizes) >= 3  # grown at least twice
        assert sorted(table.slots[table.slots != 0].tolist()) == sorted(model)


@st.composite
def dense_batches(draw):
    """A number of states n, up to 31, the keys the map starts with,
    and batches of candidate images as a level's step hands them to
    ``claim``, from a pool that holds the least and the greatest index of
    the map, 1 and 2^n - 1: keys repeat within batches and across them, and
    last comes the whole pool one key a batch."""
    n = draw(st.one_of(st.integers(1, 16), st.just(solver.DENSE), st.integers(25, 31)))
    top = (1 << n) - 1
    pool = draw(st.lists(st.integers(1, top), max_size=64, unique=True))
    pool = list(dict.fromkeys([1, top, *pool]))
    start = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
    batch = st.lists(st.sampled_from(pool[: max(2, len(pool) // 4)]), min_size=1)
    return n, start, draw(st.lists(batch, max_size=8)) + [[key] for key in pool]


def claimed(model, batch, weight, nsym):
    """What a claim of the candidates ``batch``, under the parents' counts
    ``weight``, returns when the subsets seen are ``model``, which it
    updates: the new subsets' earliest candidates, the subsets, and their
    summed counts, by earliest candidate."""
    first, sums = {}, {}
    for number, key in enumerate(batch):
        if key not in model:
            first.setdefault(key, number)
            sums[key] = sums.get(key, 0) + weight[number // nsym]
    model.update(first)
    return [list(first.values()), list(first), list(sums.values())]


def check_claims(seen, start, batches, nsym, big):
    """Claims of ``batches`` by ``seen``, which starts from the keys
    ``start``, against :func:`claimed`, with counts past 2^63 when ``big``;
    returns the keys seen at the end."""
    model = set(start)
    assert len(seen) == len(model)
    for batch in batches:
        weight = [number + 1 + (big << 64) for number in range(-(-len(batch) // nsym))]
        got = seen.claim(np.array(batch, np.uint64),
                         np.array(weight, object if big else np.int64), nsym)
        assert [part.tolist() for part in got] == claimed(model, batch, weight, nsym)
        assert len(seen) == len(model)
    return model


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dense_batches(), st.integers(1, 3), st.booleans(), st.booleans())
def test_dense_set_matches_set(case, nsym, big, packed):
    n, start, batches = case
    packed = packed or n > solver.DENSE  # a byte map past 24 states is too large
    dense = solver._DenseSet(n, np.array(start, np.uint64), packed)
    model = check_claims(dense, start, batches, nsym, big)
    if not packed:
        assert dense.bits.size == 1 << n
        assert np.flatnonzero(dense.bits).tolist() == sorted(model)
        return
    # bit k & 7 of byte k >> 3 is subset k; the last byte, at n < 3, in part
    assert dense.bits.size == ((1 << n) + 7) // 8
    # the bytes of every key the claims met, since a scan of the whole map
    # reads 256 MiB at 31 states: they hold the model's keys and no more
    at = np.unique(np.array(start + [key for batch in batches for key in batch]) >> 3)
    held = np.unpackbits(dense.bits.take(at), bitorder="little").reshape(-1, 8)
    rows, bits = held.nonzero()
    assert (at.take(rows) * 8 + bits).tolist() == sorted(model)
    if n <= solver.DENSE:
        assert np.bitwise_count(dense.bits).sum() == len(model)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dense_batches(), st.integers(1, 3), st.booleans())
def test_subset_table_claims_like_the_dense_set(case, nsym, big):
    _, start, batches = case
    table = solver._SubsetTable(np.array(start, np.uint64))
    model = check_claims(table, start, batches, nsym, big)
    assert sorted(table.slots[table.slots != 0].tolist()) == sorted(model)
