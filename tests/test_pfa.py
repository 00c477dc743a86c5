import json
import random
from itertools import groupby
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from carefulsync import (
    FormatError,
    Pfa,
    StateSet,
    Word,
    apply_word,
    build_cerny,
    build_cerny_star,
    build_prime_pfa,
    build_sync_word,
    enumerate_plans,
    format_word,
    from_json,
    is_sync_word,
    parse_word,
    to_dot,
    to_json,
)
from carefulsync import pfa as pfa_module
from carefulsync.pfa import image
from oracle import simulate, strongly_connected


def random_pfa(rng, n, nsym=2, hole_rate=0.3):
    delta = tuple(
        tuple(None if rng.random() < hole_rate else rng.randint(1, n) for _ in range(nsym))
        for _ in range(n)
    )
    return Pfa(n=n, symbols=tuple("abcdef"[:nsym]), delta=delta)


def test_stateset_basics():
    s = StateSet.of([1, 3, 5], 6)
    assert len(s) == 3
    assert list(s) == [1, 3, 5]
    assert 3 in s and 2 not in s
    assert StateSet.full(4).members() == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        StateSet.of([7], 6)


def test_apply_word_cerny4():
    pfa = build_cerny(4, 0)
    w = parse_word(pfa, "baaabaaab")
    image = apply_word(pfa, StateSet.full(4), w)
    assert image.members() == (1,)
    assert is_sync_word(pfa, w)


def test_empty_word_is_identity():
    pfa = build_cerny(6, 2)
    s = StateSet.of([2, 4], 6)
    assert apply_word(pfa, s, Word()) == s
    assert apply_word(pfa, StateSet.of([], 6), parse_word(pfa, "ab")).members() == ()


def test_undefined_image_is_none_not_error():
    pfa = build_cerny(8, 2)
    assert apply_word(pfa, StateSet.of([6], 8), parse_word(pfa, "a")) is None
    # one bad pawn poisons the whole set
    assert apply_word(pfa, StateSet.full(8), parse_word(pfa, "a")) is None


def test_symbol_out_of_range_is_usage_error():
    pfa = build_cerny(4, 0)
    with pytest.raises(ValueError):
        apply_word(pfa, StateSet.full(4), Word((2,)))
    with pytest.raises(ValueError):
        apply_word(pfa, StateSet.full(4), Word((-1,)))
    with pytest.raises(ValueError):
        format_word(pfa, Word((5,)))
    with pytest.raises(ValueError):
        pfa.step(1, 2)
    # state indexes are 1-based; 0 must not wrap round to state n
    for q in (0, 5):
        with pytest.raises(ValueError):
            pfa.step(q, 0)


def test_symbol_out_of_range_after_undefined_step_is_none():
    pfa = build_cerny(8, 2)
    # the walk stops at the undefined step and never reaches the bad index
    assert apply_word(pfa, StateSet.full(8), Word((0, 5))) is None
    assert apply_word(pfa, StateSet.full(8), Word((1, 1, 0, 0, 0, 5, 5))) is None


def test_symbol_out_of_range_on_defined_set_raises():
    pfa = build_cerny(8, 2)
    for letters in ((2,), (2, 2, 1), (1, 1, 1, 2), (1, 1, 1, -1, -1)):
        with pytest.raises(ValueError, match="out of range"):
            apply_word(pfa, StateSet.full(8), Word(letters))


def test_empty_set_survives_a_run_of_a_letter_undefined_everywhere():
    pfa = Pfa(n=3, symbols=("a", "b"), delta=((None, 2), (None, 3), (None, 1)))
    run = Word((1,) + (0,) * 50 + (1,))
    assert apply_word(pfa, StateSet(0, 3), run) == StateSet(0, 3)
    assert apply_word(pfa, StateSet.of([2], 3), run) is None


def test_race_word_takes_one_image_step_per_run():
    n, c = 100, 35
    member = build_cerny(n, c)
    word = build_sync_word(n, c, enumerate_plans(n - c - 1, c)[0])
    runs = sum(1 for _ in groupby(word))
    assert (len(word), runs) == (17700, 769)
    steps = []

    def counted(*args):
        steps.append(1)
        return image(*args)

    with patch.object(pfa_module, "image", counted):
        result = apply_word(member, StateSet.full(n), word)
    assert len(steps) <= runs
    assert result == StateSet.of(simulate(member, range(1, n + 1), word.letters), n)
    assert len(result) == 1


def test_is_sync_word_edges():
    one = Pfa(n=1, symbols=("a",), delta=((1,),))
    assert is_sync_word(one, Word())
    assert not is_sync_word(build_cerny(4, 0), Word())


def test_image_never_grows_and_distributes():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 9)
        pfa = random_pfa(rng, n)
        w = Word(tuple(rng.randrange(2) for _ in range(rng.randint(0, 6))))
        s = StateSet.of([q for q in range(1, n + 1) if rng.random() < 0.5], n)
        t = StateSet.of([q for q in range(1, n + 1) if rng.random() < 0.5], n)
        image_s = apply_word(pfa, s, w)
        image_t = apply_word(pfa, t, w)
        image_union = apply_word(pfa, StateSet(s.bits | t.bits, n), w)
        if image_s is None or image_t is None:
            assert image_union is None
        else:
            assert image_union == StateSet(image_s.bits | image_t.bits, n)
            assert len(image_s) <= len(s)


def test_concatenation_composes():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        pfa = random_pfa(rng, n)
        u = Word(tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))))
        v = Word(tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))))
        s = StateSet.of([q for q in range(1, n + 1) if rng.random() < 0.6], n)
        via_u = apply_word(pfa, s, u)
        expected = None if via_u is None else apply_word(pfa, via_u, v)
        assert apply_word(pfa, s, u + v) == expected


def test_json_round_trip():
    from carefulsync import build_cerny_star

    for pfa in (
        build_cerny(8, 2),
        build_cerny(2, 0),
        build_prime_pfa((2, 3), padding=1),
        build_cerny_star(6),  # non-ascii symbol labels survive the trip
    ):
        assert from_json(to_json(pfa)) == pfa


def test_json_null_means_undefined():
    doc = '{"n": 2, "symbols": ["a"], "delta": [[null], [1]]}'
    pfa = from_json(doc)
    assert pfa.delta == ((None,), (1,))


@pytest.mark.parametrize(
    "doc, field",
    [
        ('{"n": 2, "symbols": ["a"], "delta": [[0], [1]]}', "delta[0][0]"),
        ('{"n": 2, "symbols": ["a"], "delta": [[3], [1]]}', "delta[0][0]"),
        ('{"n": 2, "symbols": ["a", "a"], "delta": [[1], [1]]}', "symbols"),
        ('{"n": 2, "symbols": ["a"], "delta": [[1]]}', "delta"),
        ('{"n": 2, "symbols": ["a"], "delta": [[1], [1]], "labels": ["x"]}', "labels"),
        ('{"n": 2, "symbols": ["a"], "delta": [[1], [1]], "labels": ["x", "x"]}', "labels"),
        ('{"n": 0, "symbols": ["a"], "delta": []}', "n"),
        ('{"n": true, "symbols": ["a"], "delta": [[1]]}', "n"),
        ('{"n": 1, "symbols": ["a", ""], "delta": [[1, 1]]}', "symbols"),
        ("[1, 2]", "document"),
        ("{invalid", "JSON"),
    ],
)
def test_json_errors_name_the_field(doc, field):
    with pytest.raises(FormatError, match=field.replace("[", "\\[")):
        from_json(doc)


@st.composite
def broken_documents(draw):
    """A valid automaton document with one change that makes it invalid."""
    n = draw(st.integers(1, 5))
    nsym = draw(st.integers(1, 3))
    target = st.sampled_from((None, *range(1, n + 1)))
    doc = {
        "n": n,
        "symbols": list("abc"[:nsym]),
        "delta": [[draw(target) for _ in range(nsym)] for _ in range(n)],
        "labels": [f"q{q}" for q in range(1, n + 1)],
    }
    q = draw(st.integers(0, n - 1))
    s = draw(st.integers(0, nsym - 1))
    wrong = st.sampled_from((True, False, "1", 1.0, None, [], {}))
    kind = draw(st.sampled_from((
        "drop", "n", "symbols", "symbol", "duplicate symbol", "empty symbol",
        "delta", "rows", "row", "target", "labels", "label", "duplicate label", "document",
    )))
    if kind == "drop":
        del doc[draw(st.sampled_from(("n", "symbols", "delta")))]
    elif kind == "n":
        doc["n"] = draw(st.sampled_from((True, False, "1", float(n), None, [], 0, -n)))
    elif kind == "symbols":
        doc["symbols"] = draw(st.sampled_from(("ab", True, None, [], {})))
    elif kind == "symbol":
        doc["symbols"][s] = draw(st.sampled_from((True, 1, None, [])))
    elif kind == "duplicate symbol":
        doc["symbols"].append(doc["symbols"][s])
        for row in doc["delta"]:
            row.append(None)
    elif kind == "empty symbol":
        doc["symbols"][s] = ""
    elif kind == "delta":
        doc["delta"] = draw(wrong)
    elif kind == "rows":
        doc["delta"] = doc["delta"][:-1] if draw(st.booleans()) else doc["delta"] * 2
    elif kind == "row":
        doc["delta"][q] = draw(st.one_of(wrong, st.just(doc["delta"][q] + [1])))
    elif kind == "target":
        doc["delta"][q][s] = draw(st.sampled_from((True, False, 0, n + 1, -1, 1.0, "1", [1], {})))
    elif kind == "labels":
        doc["labels"] = draw(st.sampled_from(("q", True, {}, doc["labels"][:-1])))
    elif kind == "label":
        doc["labels"][q] = draw(st.sampled_from((1, None, True, [])))
    elif kind == "duplicate label":
        assume(n > 1)
        doc["labels"][q] = doc["labels"][(q + 1) % n]
    else:
        doc = draw(wrong)
    return doc


@settings(max_examples=500, deadline=None, derandomize=True)
@given(broken_documents())
def test_mutated_documents_raise_format_error(doc):
    # any other exception escapes pytest.raises and fails the test
    with pytest.raises(FormatError):
        from_json(json.dumps(doc))


def test_dot_edge_counts():
    # one edge per defined transition: the family member (n, c) defines 2n - c
    small = to_dot(build_cerny(2, 0))
    assert small.count("->") == 4
    assert small.startswith("digraph")
    pfa = build_cerny(8, 2)
    assert pfa.defined_count() == 2 * 8 - 2
    assert to_dot(pfa).count("->") == pfa.defined_count()


def test_dot_prime_nodes_and_labels():
    pfa = build_prime_pfa((5, 7, 8, 9))
    assert pfa.n == 41
    dot = to_dot(pfa)
    assert '"5A"' in dot and '"90"' in dot
    assert dot.count("->") == pfa.defined_count()


def test_word_parse_and_format():
    pfa = build_cerny(5, 1)
    w = parse_word(pfa, "bbaab")
    assert format_word(pfa, w) == "bbaab"
    assert format_word(pfa, w, pretty=True) == "b^2 a^2 b"
    assert parse_word(pfa, "b b a a b") == w
    with pytest.raises(ValueError):
        parse_word(pfa, "bxa")


def test_parse_word_errors_name_the_position():
    one_char = build_cerny(5, 1)
    mixed = Pfa(n=1, symbols=("a", "bb", "c"), delta=((1, 1, 1),))
    cases = [
        (one_char, "bbaxb", "cannot match a symbol at position 3 of 'bbaxb'"),
        (one_char, "x", "cannot match a symbol at position 0 of 'x'"),
        (mixed, "abbcbx", "cannot match a symbol at position 4 of 'abbcbx'"),
        (one_char, "b a x", "unknown symbol 'x'"),
        (mixed, "a bb b", "unknown symbol 'b'"),
    ]
    for pfa, text, message in cases:
        with pytest.raises(ValueError) as info:
            parse_word(pfa, text)
        assert str(info.value) == message
    assert parse_word(mixed, "abbcbba") == Word((0, 1, 2, 1, 0))
    assert parse_word(one_char, "") == Word()


def test_word_holds_one_byte_per_letter():
    word = Word((0, 1))
    assert word.letters == b"\0\1"
    assert word == Word(b"\0\1") == Word(bytearray(b"\0\1")) == Word(iter([0, 1]))
    assert hash(word) == hash(Word(b"\0\1"))
    assert word + Word((255,)) == Word(b"\0\1\xff") and list(word) == [0, 1]
    for bad in (256, -1):
        with pytest.raises(ValueError, match=f"symbol index {bad} out of range"):
            Word((0, bad))


def test_every_label_formats_by_one_translate():
    star = build_cerny_star(4)
    word = Word((0, 1, 2, 2, 0))
    assert format_word(star, word) == "aãb̃b̃a"
    assert format_word(star, word, pretty=True) == "a ã b̃^2 a"
    assert parse_word(star, "aãb̃b̃a") == word


def test_alphabet_of_more_than_256_symbols_is_refused():
    # a word holds one symbol index per byte
    symbols = tuple(f"s{i}" for i in range(257))
    with pytest.raises(ValueError, match="at most 256 symbols"):
        Pfa(n=1, symbols=symbols, delta=((1,) * 257,))
    widest = Pfa(n=1, symbols=symbols[:256], delta=((1,) * 256,))
    assert format_word(widest, Word((255, 0))) == "s255s0"
    doc = {"n": 1, "symbols": list(symbols), "delta": [[1] * 257]}
    with pytest.raises(FormatError, match="symbols"):
        from_json(json.dumps(doc))


def test_strongly_connected():
    ring = Pfa(n=3, symbols=("a",), delta=((2,), (3,), (1,)))
    assert strongly_connected(ring)
    chain = Pfa(n=3, symbols=("a",), delta=((2,), (3,), (3,)))
    assert not strongly_connected(chain)


def test_large_carrier():
    # carriers well beyond machine word width (bit-vector semantics)
    n = 300
    delta = tuple((max(q - 1, 1),) for q in range(1, n + 1))
    funnel = Pfa(n=n, symbols=("a",), delta=delta)
    word = Word((0,) * (n - 1))
    assert is_sync_word(funnel, word)
    image = apply_word(funnel, StateSet.full(n), Word((0,) * 10))
    assert len(image) == n - 10


def test_pfa_validation():
    with pytest.raises(ValueError):
        Pfa(n=2, symbols=("a", "a"), delta=((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        Pfa(n=2, symbols=("a",), delta=((3,), (1,)))
    with pytest.raises(ValueError):
        Pfa(n=2, symbols=("a",), delta=((1,), (1,)), labels=("x",))


def test_empty_symbol_label_is_refused():
    # parse_word would match an empty label forever without advancing
    with pytest.raises(ValueError, match="nonempty"):
        Pfa(n=1, symbols=("a", ""), delta=((1, 1),))
    with pytest.raises(FormatError, match="symbols"):
        from_json('{"n": 1, "symbols": ["a", ""], "delta": [[1, 1]]}')
