import json
import os
import subprocess
import sys
from dataclasses import replace
from math import nextafter
from pathlib import Path
from textwrap import dedent

import pytest
from oracle import exact_row, row_optimum

from carefulsync import (build_cerny, enumerate_plans, from_json, is_sync_word, parse_word,
                         render_race, rt_formula, simulate_race, to_json)
from carefulsync.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
SRC = str(Path(__file__).resolve().parent.parent / "src")


# stdout recorded before a change behind it, one file per case under
# tests/golden/cli: the tables and the --full tie pass before they moved
# behind `verify` and `cerny`, the prime solves (55 507 and 86 257 levels,
# almost all of one subset) before the search took the chain step, the wide
# search of C(22, 4) before it kept its subsets in the dense map, the race
# pictures and words before the trace kept one row per iteration by position;
# and the last plans of two members with more than 1 000 plans, which the
# commands refused while they enumerated every plan (checked below by other
# means than the plan they print)
GOLDEN_RUNS = {
    "tables_pn2": "tables pn2",
    "tables_grid": "tables grid",
    "tables_conclusion": "tables conclusion",
    "tables_defeat": "tables defeat",
    "tables_drops_120": "tables drops --nmax 120",
    "tables_grid_json_20_6": "tables grid --json --nmax 20 --cmax 6",
    "scan_optimal_c_full_json_120": "scan optimal-c --nmax 120 --full --json",
    "solve_prime_5_13_pretty": "solve prime --primes 5,7,9,11,13 --pretty",
    "solve_prime_3_13_json_count": "solve prime --primes 3,4,5,7,11,13 --json --count",
    "solve_cerny_22_4_count_json": "solve cerny --n 22 --c 4 --count --json",
    "race_render_20_2_plan_1": "race render --n 20 --c 2 --plan-index 1",
    "race_render_40_0": "race render --n 40 --c 0",
    "race_word_203_78_pretty": "race word --n 203 --c 78 --pretty",
    "race_word_205_73_plan_2_json": "race word --n 205 --c 73 --plan-index 2 --json",
    "race_word_300_115_pretty_last_plan":
        "race word --n 300 --c 115 --pretty --plan-index 23535819",
    "race_render_40_1_last_plan": "race render --n 40 --c 1 --plan-index 54263",
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_cli_output_is_golden(capsys, name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert dispatch(GOLDEN_RUNS[name].split()) == 0
    assert capsys.readouterr() == (expected, "")


def test_last_plan_word_golden_is_an_optimal_sync_word(capsys):
    pretty = (GOLDEN / "race_word_300_115_pretty_last_plan.txt").read_text(encoding="utf-8")
    plain = "".join(token.split("^")[0] * int(token.partition("^")[2] or 1)
                    for token in pretty.split())
    assert len(plain) == rt_formula(300, 115) == 195_422
    pfa = build_cerny(300, 115)
    assert is_sync_word(pfa, parse_word(pfa, plain))
    assert run(capsys, *"race word --n 300 --c 115 --plan-index 23535819".split()) == (
        0, plain + "\n")


def test_last_plan_render_golden_is_the_last_enumerated_plan():
    plans = enumerate_plans(40, 1, cap=60000)
    assert len(plans) == 54264
    expected = (GOLDEN / "race_render_40_1_last_plan.txt").read_text(encoding="utf-8")
    assert render_race(simulate_race(plans[-1], 1)) == expected


def _with_row(rows, index, **changes):
    return rows[:index] + (replace(rows[index], **changes),) + rows[index + 1:]


def test_tables_mismatch_exit_code(capsys, monkeypatch):
    from carefulsync import tables

    cases = [
        ("pn2", "P_N_2", lambda t: {**t, 10: 95}, "p(10,2): computed 94, published 95"),
        ("grid", "GRID", lambda t: {**t, 13: (144, 168, 176, 177, 169)},
         "grid(13,3): computed 176, published 177"),
        ("conclusion", "CONCLUSION", lambda t: {**t, 40: 2335},
         "conclusion(40): computed 2334, published 2335"),
        ("drops --nmax 120", "DROPS", lambda t: _with_row(t, 1, r_left=17324),
         "drop@99 r: computed 17323, published 17324"),
        ("defeat", "DEFEAT", lambda t: _with_row(t, 0, rt=3115),
         "defeat(41) rt: computed 3114, published 3115"),
        # published values all agree, but the prime build is no longer better
        ("defeat", "DEFEAT", lambda t: (tables.DefeatRow(41, 13, 2465, 210, 404, 449, (2, 3, 5, 7)),),
         "defeat(41): 404 does not beat 2465"),
    ]
    for argv, name, patch, line in cases:
        with monkeypatch.context() as patched:
            patched.setattr(tables, name, patch(getattr(tables, name)))
            code, out = run(capsys, "tables", *argv.split())
        assert code == 1, argv
        assert [row for row in out.splitlines() if "MISMATCH" in row] == [f"MISMATCH {line}"]


def test_race_word_round_trips_through_solver(capsys):
    code, out = run(capsys, "race", "word", "--n", "9", "--c", "1")
    assert code == 0
    text = out.strip()
    assert len(text) == 73
    pfa = build_cerny(9, 1)
    assert is_sync_word(pfa, parse_word(pfa, text))


def test_race_f_count_enumerate_render(capsys):
    assert run(capsys, "race", "f", "--n", "7", "--c", "1") == (0, "29\n")
    assert run(capsys, "race", "count", "--n", "7", "--c", "1") == (0, "3\n")
    code, out = run(capsys, "race", "enumerate", "--n", "7", "--c", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    code, out = run(capsys, "race", "render", "--n", "7", "--c", "1")
    assert code == 0
    assert len([line for line in out.splitlines() if "|" in line]) == 7  # header + 6


def test_race_kinds_agree_at_zero_cost(capsys):
    # at c = 0 the one optimal race is the greedy one, plan 0, the only index
    # that render takes
    assert run(capsys, "race", "count", "--n", "5", "--c", "0") == (0, "1\n")
    greedy = "0\t(1-5@4 (1-4@3 (1-3@2 (1-2@1 1 2) 3) 4) 5)\n"
    assert run(capsys, "race", "enumerate", "--n", "5", "--c", "0") == (0, greedy)
    assert run(capsys, "race", "render", "--n", "5", "--c", "0", "--plan-index", "0")[0] == 0
    assert dispatch(["race", "render", "--n", "5", "--c", "0", "--plan-index", "1"]) == 2
    assert dispatch(["race", "count", "--n", "5", "--c", "-1"]) == 2
    capsys.readouterr()


def test_race_count_refuses_n_above_its_limit(capsys, monkeypatch):
    from carefulsync import cli, pawnrace

    monkeypatch.setattr(pawnrace, "count_races", lambda n, c: n)
    assert run(capsys, "race", "count", "--n", "20000", "--c", "1") == (0, "20000\n")
    n = str(cli.RACE_COUNT_MAX_N + 1)
    assert dispatch(["race", "count", "--n", n, "--c", "3", "--json"]) == 3
    assert capsys.readouterr() == ("", f"resources: race count takes --n up to 20000, not {n}\n")


def test_race_kinds_refuse_pawns_above_their_limit(capsys, monkeypatch):
    from carefulsync import pawnrace

    class PastThePawnCheck(Exception):
        pass

    def past(n, c, index):
        raise PastThePawnCheck(n)

    monkeypatch.setattr(pawnrace, "count_races", lambda n, c: n)
    monkeypatch.setattr(pawnrace, "plan_at", past)
    # enumerate takes up to RACE_COUNT_MAX_N pawns, and render the most whose
    # trace of n(n-1) bytes fits the budget
    for kind, n in (("enumerate", 20000), ("render", 5000)):
        # at the limit the command goes on: enumerate finds more plans than
        # --cap-plans, and render goes on to build its one plan
        if kind == "enumerate":
            assert dispatch(["race", kind, "--n", str(n), "--c", "1"]) == 3
            assert capsys.readouterr() == ("", f"resources: {n} optimal plans exceed cap 1000\n")
        else:
            with pytest.raises(PastThePawnCheck, match=f"^{n}$"):
                dispatch(["race", kind, "--n", str(n), "--c", "1"])
        assert dispatch(["race", kind, "--n", str(n + 1), "--c", "1"]) == 3
        assert capsys.readouterr() == ("", f"resources: race {kind} takes --n up to {n}, not {n + 1}\n")
    # word --c 0 races on --n minus 1 pawns: 5000 of them make a word of
    # exactly the budget, 5001 of them one past it
    with pytest.raises(PastThePawnCheck, match="^5000$"):
        dispatch(["race", "word", "--n", "5001", "--c", "0"])
    for n, c in ((5002, 0), (5002, 1), (5012, 10)):
        assert dispatch(["race", "word", "--n", str(n), "--c", str(c)]) == 3
        assert capsys.readouterr().err == (
            f"resources: race word makes at most 25000000 letters, not {rt_formula(n, c)}\n")


def test_race_render_budget_counts_trace_bytes(capsys, monkeypatch):
    from carefulsync import cli

    assert 5000 * 4999 <= cli.RACE_MAX_BYTES < 5001 * 5000
    # n(n-1) is positive for a negative n, which is still a usage error
    assert dispatch(["race", "render", "--n", "-6000", "--c", "0"]) == 2
    assert capsys.readouterr() == ("", "error: need at least one pawn\n")
    # the pawn limit is the most pawns whose trace fits, for every budget
    for budget in range(100):
        monkeypatch.setattr(cli, "RACE_MAX_BYTES", budget)
        assert dispatch(["race", "render", "--n", "100", "--c", "0"]) == 3
        cap = int(capsys.readouterr().err.split()[7].rstrip(","))
        assert cap * (cap - 1) <= budget < (cap + 1) * cap
    monkeypatch.setattr(cli, "RACE_MAX_BYTES", 42)
    code, out = run(capsys, "race", "render", "--n", "7", "--c", "1")
    assert code == 0 and out.count("\n") == 2 + 6


@pytest.mark.parametrize("argv, count", [
    ("race render --n 40 --c 1", 54264),
    ("race render --n 40 --c 0", 1),
    ("race word --n 300 --c 115", 23535820),
    ("race word --n 9 --c 1", 3),
])
def test_plan_index_out_of_range_is_a_usage_error(capsys, argv, count):
    for index in (count, -1):
        assert dispatch([*argv.split(), "--plan-index", str(index)]) == 2
        assert capsys.readouterr() == (
            "", f"error: plan index {index} out of range (have {count})\n")


def test_render_and_word_build_their_plan_without_enumerating(capsys, monkeypatch):
    from carefulsync import pawnrace

    def refuse(*args):
        raise AssertionError("enumerate_plans called")

    monkeypatch.setattr(pawnrace, "enumerate_plans", refuse)
    for argv in ("race render --n 40 --c 1 --plan-index 54263", "race render --n 20 --c 2",
                 "race word --n 300 --c 115 --plan-index 9", "race word --n 205 --c 73"):
        assert dispatch(argv.split()) == 0, argv
    capsys.readouterr()


def test_race_word_refuses_words_above_its_letter_cap(capsys, monkeypatch):
    from carefulsync import cli, pawnrace

    def refuse(*args):
        raise AssertionError("a race was counted or planned")

    # refused before any race is counted or planned, whatever the plan index;
    # the last member has 2 pawns but a word of 30 000 004 letters
    with monkeypatch.context() as patched:
        patched.setattr(pawnrace, "count_races", refuse)
        patched.setattr(pawnrace, "plan_at", refuse)
        for argv in ("race word --n 5002 --c 1", "race word --n 5002 --c 1 --plan-index -1",
                     "race word --n 5012 --c 10", "race word --n 10000003 --c 10000000"):
            n, c = int(argv.split()[3]), int(argv.split()[5])
            assert dispatch(argv.split()) == 3, argv
            assert capsys.readouterr() == (
                "", f"resources: race word makes at most 25000000 letters, not {rt_formula(n, c)}\n")
    assert rt_formula(10000003, 10000000) == 30000004
    monkeypatch.setattr(cli, "RACE_MAX_BYTES", 73)  # rt(9, 1)
    code, out = run(capsys, "race", "word", "--n", "9", "--c", "1")
    assert code == 0 and len(out.strip()) == 73
    monkeypatch.setattr(cli, "RACE_MAX_BYTES", 72)
    assert dispatch(["race", "word", "--n", "9", "--c", "1"]) == 3
    assert capsys.readouterr() == ("", "resources: race word makes at most 72 letters, not 73\n")


def test_race_word_does_not_build_the_member(capsys, monkeypatch):
    from carefulsync import cerny

    built = []
    build = cerny.build_cerny
    monkeypatch.setattr(cerny, "build_cerny", lambda n, c: built.append(n) or build(n, c))
    code, out = run(capsys, "race", "word", "--n", "40", "--c", "3", "--pretty")
    assert code == 0 and out.startswith("b^4 a b^3 a")
    assert max(built, default=0) < 40


def test_race_word_json_equals_the_encoded_record(capsys):
    # the record is written around the word's text, which needs no escape
    code, pretty = run(capsys, "race", "word", "--n", "40", "--c", "3", "--pretty")
    code_json, out = run(capsys, "race", "word", "--n", "40", "--c", "3", "--json", "--pretty")
    assert code == code_json == 0
    record = {"n": 40, "c": 3, "length": rt_formula(40, 3), "word": pretty.removesuffix("\n")}
    assert out == json.dumps(record) + "\n"


def test_race_on_a_greedy_plan_deeper_than_the_recursion_limit(capsys):
    code, out = run(capsys, "race", "word", "--n", "1501", "--c", "0", "--json")
    assert code == 0 and json.loads(out)["length"] == 1500**2
    code, out = run(capsys, "race", "render", "--n", "1500", "--c", "0")
    assert code == 0 and out.count("\n") == 2 + 1499
    assert out.endswith("merge@1500\n")


def test_gen_json_round_trip(capsys):
    code, out = run(capsys, "gen", "cerny", "--n", "8", "--c", "2")
    assert code == 0
    assert from_json(out) == build_cerny(8, 2)


def test_gen_dot(capsys):
    code, out = run(capsys, "gen", "prime", "--primes", "5,7,8,9", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 78  # b total, a undefined exactly on the 4 B states


def test_gen_prime_states(capsys):
    code, out = run(capsys, "gen", "prime", "--primes", "5,7,8,9")
    assert code == 0
    assert json.loads(out)["n"] == 41


def test_gen_and_solve_refuse_more_states_than_the_cap(capsys):
    from carefulsync import cli

    cap = cli.MAX_STATES
    assert cap == 2**21 - 1
    # a prime build has p + 3 states per entry p, then its padding
    for argv, states in (
        (f"gen cerny --n {cap + 1} --c 1", cap + 1),
        (f"solve cerny --n {cap + 1} --c 3", cap + 1),
        ("gen cerny-star --n 1000000000000", 10**12),
        (f"solve cerny-star --n {cap + 1}", cap + 1),
        (f"gen prime --primes 2,3 --padding {cap - 10}", cap + 1),
        (f"solve prime --primes 2,3 --padding {cap - 10} --transitive", cap + 1),
        (f"gen prime --primes 5,{cap - 7}", cap + 4),
    ):
        assert dispatch(argv.split()) == 3, argv
        command = argv.split()[0]
        assert capsys.readouterr() == (
            "", f"resources: {command} builds at most {cap} states, not {states}\n"), argv
    # the count is the size of what the build makes
    for argv in ("gen prime --primes 5,7,8,9 --padding 3", "gen prime --primes 2,3 --transitive",
                 "gen cerny --n 9 --c 2", "gen cerny-star --n 7"):
        args = cli._parse(argv.split())
        assert cli._states(args) == cli._build(args).n, argv


def test_gen_past_the_cap_exits_at_once():
    # it built all 10^12 states first, about 250 bytes each
    proc = subprocess.run([sys.executable, "-m", "carefulsync", "gen", "cerny", "--n", str(10**12),
                           "--c", "1"], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "resources: gen builds at most 2097151 states, not 1000000000000\n"


def test_solve_cerny(capsys, monkeypatch):
    from carefulsync import solver

    searches = []
    search = solver._search
    monkeypatch.setattr(solver, "_search", lambda *a: searches.append(a) or search(*a))
    code, out = run(capsys, "solve", "cerny", "--n", "4", "--c", "0", "--count")
    assert code == 0
    assert len(searches) == 1  # the word and its count come from one search
    assert "threshold\t9" in out
    assert "word\tbaaabaaab" in out
    assert "count\t1" in out
    # the count changes no other line of the output
    code, plain = run(capsys, "solve", "cerny", "--n", "4", "--c", "0")
    assert code == 0
    assert out == plain + "count\t1\n"


# stdout recorded before the search expanded wide levels with numpy; both
# inputs have levels of hundreds of subsets, which take the vectorized step
GOLDEN_18_4_COUNT_JSON = (
    '{"threshold": 379, "word": "'
    "bbbbbabbbbabbbbabbbbbabbbbabbbbabbbbbabbbbabbbbabbbbbabbbbabbbbbabbbbabbbbb"
    "aabbbbabbbbbaabbbbabbbbbaabbbbabbbbbaabbbbaabbbbbaaabbbbaaabbbbbaaabbbbaaab"
    "bbbabbbbbaaaabbbbaabbbbbaaaabbbbaaabbbbbaaaaabbbbabbbbbaaaaabbbbaabbbbbaaaa"
    "aabbbbaaaaaabbbbabbbbbaaaaaaabbbbaaaaaabbbbbaaaaaaaabbbbaaaaabbbbbaaaaaaaaab"
    "bbbaaaabbbbbaaaaaaaaaabbbbaaabbbbbaaaaaaaaaaabbbbaabbbbbaaaaaaaaaaaabbbbabbb"
    'bb", "explored": 49138, "levels": 379, "count": 3}\n'
)
GOLDEN_16_3_PRETTY = (
    "threshold\t287\n"
    "word\tb^4 a b^3 a b^4 a b^3 a b^3 a b^4 a b^3 a b^3 a b^4 a b^3 a b^4 a b^3 a b^4"
    " a^2 b^3 a^2 b^3 a b^4 a^2 b^3 a b^4 a^2 b^3 a^2 b^4 a^3 b^3 a^2 b^4 a^3 b^3 a^3"
    " b^3 a b^4 a^4 b^3 a b^4 a^4 b^3 a^3 b^4 a^5 b^3 a^5 b^3 a^2 b^4 a^6 b^3 a^5 b^3"
    " a b^4 a^7 b^3 a^5 b^4 a^8 b^3 a^4 b^4 a^9 b^3 a^3 b^4 a^10 b^3 a^2 b^4 a^11 b^3"
    " a b^4\n"
    "explored\t20467\n"
    "levels\t287\n"
)


def test_solve_output_is_golden(capsys):
    argv = ("solve", "cerny", "--n", "18", "--c", "4", "--count", "--json")
    assert run(capsys, *argv) == (0, GOLDEN_18_4_COUNT_JSON)
    argv = ("solve", "cerny", "--n", "16", "--c", "3", "--pretty")
    assert run(capsys, *argv) == (0, GOLDEN_16_3_PRETTY)


def test_solve_path_and_out_file(tmp_path, capsys):
    target = tmp_path / "pfa.json"
    code, _ = run(capsys, "gen", "cerny", "--n", "6", "--c", "1", "--out", str(target))
    assert code == 0
    code, out = run(capsys, "solve", "path", "--path", str(target), "--json")
    assert code == 0
    assert json.loads(out)["threshold"] == 26


def test_solve_path_refuses_more_than_256_symbols(tmp_path, capsys):
    target = tmp_path / "pfa.json"
    symbols = [f"s{i}" for i in range(257)]
    target.write_text(json.dumps({"n": 1, "symbols": symbols, "delta": [[1] * 257]}))
    assert dispatch(["solve", "path", "--path", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at most 256 entries" in err


def test_unwritable_out_file_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.tsv"
    assert dispatch(["tables", "pn2", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: [Errno 2]")


def test_solve_resource_exit(capsys):
    code, _ = run(capsys, "solve", "cerny", "--n", "10", "--c", "0", "--cap-subsets", "4")
    assert code == 3


def test_scan_optimal_c(capsys):
    code, out = run(capsys, "scan", "optimal-c", "--nmax", "13", "--full")
    assert code == 0
    assert "13\t176\t2,3" in out


def test_scan_full_matches_exact_oracle(capsys):
    lines = ["n\tvalue\tc"]
    for n in range(2, 301):
        value, argmax = row_optimum(exact_row(n))
        lines.append(f"{n}\t{value}\t{','.join(map(str, sorted(argmax)))}")
    expected = "\n".join(lines) + "\n"
    assert run(capsys, "scan", "optimal-c", "--nmax", "300", "--full") == (0, expected)


@pytest.mark.parametrize("argv, nmax, cmax", [((), 15, 4), (("--nmax", "40", "--cmax", "40"), 40, 40)])
def test_tables_grid_matches_exact_oracle(capsys, argv, nmax, cmax):
    lines = ["n\tc\tvalue\tmax"]
    for n in range(2, nmax + 1):
        row = exact_row(n)
        for c in range(min(cmax, n - 2) + 1):
            lines.append(f"{n}\t{c}\t{row[c]}\t{'*' if row[c] == max(row) else ''}")
    expected = "\n".join(lines) + "\n"
    assert run(capsys, "tables", "grid", *argv) == (0, expected)


def test_family_queries_never_evaluate_single_points(capsys, monkeypatch):
    from carefulsync import cerny, pawnrace

    def refuse(*args):
        raise AssertionError("exact point evaluator reached")

    monkeypatch.setattr(cerny, "rt_formula", refuse)
    monkeypatch.setattr(pawnrace, "f_closed", refuse)
    monkeypatch.setattr(pawnrace, "cache_for", refuse)
    monkeypatch.setattr(pawnrace, "_caches", {})
    for argv in (("tables", "pn2"), ("tables", "grid"), ("tables", "conclusion"),
                 ("tables", "defeat"), ("scan", "optimal-c", "--nmax", "60"),
                 ("scan", "optimal-c", "--nmax", "60", "--full")):
        assert dispatch(list(argv)) == 0, argv
    assert cerny.local_optima(99) == [(33, 17323), (35, 17323)]
    assert pawnrace._caches == {}  # no family query pins a run table
    capsys.readouterr()


@pytest.mark.parametrize("nmax", ["0", "1"])
@pytest.mark.parametrize(
    "argv",
    [("tables", "grid"), ("tables", "drops"), ("scan", "optimal-c"),
     ("scan", "optimal-c", "--full"), ("scan", "drops")],
)
def test_nmax_below_two_is_usage_error(capsys, argv, nmax):
    assert dispatch([*argv, "--nmax", nmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "n_max" in captured.err


def test_negative_cmax_is_usage_error(capsys):
    assert dispatch(["tables", "grid", "--cmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "c_max" in captured.err


@pytest.mark.parametrize(
    "which, option",
    [("pn2", "--nmax"), ("pn2", "--cmax"), ("conclusion", "--nmax"),
     ("conclusion", "--cmax"), ("defeat", "--nmax"), ("defeat", "--cmax"),
     ("drops", "--cmax")],
)
def test_tables_refuse_options_they_ignore(capsys, which, option):
    assert dispatch(["tables", which, option, "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tables {which} takes no {option}\n"


def test_tables_drops_refuses_nmax_past_the_published_table(capsys):
    assert dispatch(["tables", "drops", "--nmax", "7247"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: tables drops checks the published drops for --nmax up to "
                            "7246, not 7247; scan drops reports drops beyond that\n")
    assert dispatch(["tables", "drops", "--nmax", "7246"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 8


def test_scan_drops(capsys):
    code, out = run(capsys, "scan", "drops", "--nmax", "60", "--json")
    assert code == 0
    events = json.loads(out)
    assert events[0]["n_before"] == 47 and events[0]["gap"] == 1


def test_estimate(capsys):
    code, out = run(capsys, "estimate", "--c", "1", "--n", "7")
    assert code == 0
    assert "phi\t1.618" in out
    assert "f\t29" in out


@pytest.mark.parametrize("c", [1749, 1750, 2000])
def test_estimate_large_c(capsys, c):
    # 1.5^(c+1) overflows a float from c = 1750 on; the root stays exact
    code, out = run(capsys, "estimate", "--c", str(c), "--json")
    doc = json.loads(out)
    assert code == 0 and doc["c"] == c and 1.0 < doc["phi"] < 1.0005
    assert doc["residual"] <= 1e-12


def test_estimate_refuses_a_root_it_cannot_resolve(capsys, monkeypatch):
    from carefulsync import PhiRoot, estimates

    # the residual at c = 10^4 is 1.7e-12, within one float step of the root
    code, out = run(capsys, "estimate", "--c", "10000")
    assert code == 0
    assert dict(line.split("\t") for line in out.splitlines()).keys() == {"c", "phi", "residual"}
    # a root two float steps off is refused
    x = estimates.phi(10**4).value
    off = nextafter(nextafter(x, 2.0), 2.0)
    monkeypatch.setattr(estimates, "phi", lambda c: PhiRoot(c, off, abs(off ** (c + 1) - off - 1.0)))
    assert dispatch(["estimate", "--c", "10000"]) == 2
    assert capsys.readouterr() == ("", "error: residual too large\n")


def test_estimate_refuses_c_past_the_float_range(capsys):
    # x**c in the Newton step overflowed, a traceback and exit 1; past about
    # 7.5*10**15 the root is no float within one step of the true root
    for c in (8 * 10**15, 10**16, 5 * 10**16, 10**17, 10**30, 10**400):
        assert dispatch(["estimate", "--c", str(c)]) == 2
        assert capsys.readouterr() == (
            "", f"error: the root is found for c up to about 7.5*10**15, not c={c}\n")


def test_estimate_refuses_n_past_the_float_range(capsys):
    # the bounds converted n to a float and overflowed, a traceback and exit 1
    n = 10**309
    assert dispatch(["estimate", "--c", "2", "--n", str(n)]) == 2
    assert capsys.readouterr() == (
        "", f"error: need 3*c*n < 2**1024 - 2**970, the float range; got n={n}, c=2\n")
    # the largest n whose bounds are floats still gets them
    n = (2**1024 - 2**970 - 1) // 6
    code, out = run(capsys, "estimate", "--c", "2", "--n", str(n), "--json")
    assert code == 0 and json.loads(out)["n"] == n


def test_output_is_byte_stable(capsys):
    first = run(capsys, "tables", "grid", "--nmax", "12")
    second = run(capsys, "tables", "grid", "--nmax", "12")
    assert first == second
    third = run(capsys, "race", "enumerate", "--n", "10", "--c", "1")
    fourth = run(capsys, "race", "enumerate", "--n", "10", "--c", "1")
    assert third == fourth


@pytest.mark.parametrize("what", ["enumerate", "render"])
def test_race_without_pawns_is_usage_error(capsys, what):
    assert dispatch(["race", what, "--n", "0", "--c", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: need at least one pawn\n"


def test_usage_errors(capsys):
    assert dispatch(["nope"]) == 2
    assert dispatch(["race", "f", "--n", "7"]) == 2  # missing --c
    assert dispatch(["gen", "cerny", "--n", "4", "--c", "3"]) == 2  # bad parameters
    assert dispatch(["solve", "path"]) == 2  # no --path
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    "solve cerny-star --n 4 --p",  # not --pretty
    "scan drops --nm 300",  # not --nmax
])
def test_abbreviated_flags_are_usage_errors(capsys, argv):
    words = argv.split()
    assert dispatch(words) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: carefulsync {' '.join(words[:2])} [-h]")


# the (command, kind, flag) slots that the parser accepted and no handler
# read, each with a command line that runs without the flag
IGNORED_FLAGS = [
    *[("gen cerny --n 4 --c 1", flag) for flag in ("--primes 5,7", "--padding 1", "--transitive")],
    *[("gen cerny-star --n 4", flag)
      for flag in ("--c 3", "--primes 5,7", "--padding 1", "--transitive")],
    *[("gen prime --primes 2,3", flag) for flag in ("--n 4", "--c 1")],
    *[("solve cerny --n 4 --c 1", flag)
      for flag in ("--primes 5,7", "--padding 1", "--transitive", "--path {pfa}")],
    *[("solve cerny-star --n 4", flag)
      for flag in ("--c 3", "--primes 5,7", "--padding 1", "--transitive", "--path {pfa}")],
    *[("solve prime --primes 2,3", flag) for flag in ("--n 4", "--c 1", "--path {pfa}")],
    *[("solve path --path {pfa}", flag)
      for flag in ("--n 4", "--c 1", "--primes 5,7", "--padding 1", "--transitive")],
    *[("race f --n 7 --c 1", flag) for flag in ("--cap-plans 5", "--plan-index 4", "--pretty")],
    *[("race count --n 7 --c 1", flag) for flag in ("--cap-plans 5", "--plan-index 4", "--pretty")],
    *[("race enumerate --n 7 --c 1", flag) for flag in ("--plan-index 4", "--pretty")],
    *[("race render --n 7 --c 1", flag) for flag in ("--cap-plans 5", "--pretty", "--json")],
    ("race word --n 9 --c 1", "--cap-plans 5"),
    ("scan drops --nmax 60", "--full"),
]


@pytest.fixture
def pfa_file(tmp_path):
    path = tmp_path / "pfa.json"
    path.write_text(to_json(build_cerny(5, 1)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("line, flag", IGNORED_FLAGS)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, pfa_file, line, flag):
    argv = line.format(pfa=pfa_file).split()
    assert dispatch(argv) == 0
    capsys.readouterr()
    assert dispatch(argv + flag.format(pfa=pfa_file).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # refused by the parser of the pair as unrecognized, also where it
    # abbreviates flags the pair reads (--c: --cap-subsets, --count)
    assert captured.err.startswith(f"usage: carefulsync {' '.join(argv[:2])} [-h]")


# one cheap command line per (command, kind), with no option it may leave out
READ_ALL = {
    ("gen", "cerny"): "gen cerny --n 4 --c 1",
    ("gen", "cerny-star"): "gen cerny-star --n 4",
    ("gen", "prime"): "gen prime --primes 2,3",
    ("solve", "cerny"): "solve cerny --n 4 --c 1",
    ("solve", "cerny-star"): "solve cerny-star --n 4",
    ("solve", "prime"): "solve prime --primes 2,3",
    ("solve", "path"): "solve path --path {pfa}",
    ("race", "f"): "race f --n 7 --c 1",
    ("race", "count"): "race count --n 7 --c 1",
    ("race", "enumerate"): "race enumerate --n 7 --c 1",
    ("race", "render"): "race render --n 7 --c 1",
    ("race", "word"): "race word --n 9 --c 1",
    ("tables", "pn2"): "tables pn2",
    ("tables", "grid"): "tables grid",
    ("tables", "conclusion"): "tables conclusion",
    ("tables", "drops"): "tables drops --nmax 60",
    ("tables", "defeat"): "tables defeat",
    ("scan", "optimal-c"): "scan optimal-c --nmax 10",
    ("scan", "drops"): "scan drops --nmax 10",
    ("estimate", None): "estimate --c 1 --n 7",
}


class _Reads:
    """Parsed arguments that record which of them are read."""

    def __init__(self, args):
        self._args, self.read = vars(args), set()

    def __getattr__(self, name):
        self.read.add(name)
        return self._args[name]


def test_every_declared_flag_is_read(capsys, monkeypatch, pfa_file):
    from carefulsync import cli

    pairs = {(command, kind) for command, (_, kinds) in cli._COMMANDS.items() for kind in kinds}
    assert pairs == set(READ_ALL)
    parse, seen = cli._parse, []

    def recording(argv):
        seen.append(_Reads(parse(argv)))
        return seen[-1]

    monkeypatch.setattr(cli, "_parse", recording)
    for (command, kind), line in READ_ALL.items():
        assert dispatch(line.format(pfa=pfa_file).split()) == 0, line
        declared = {name[2:].replace("-", "_") for name, _ in cli._COMMANDS[command][1][kind]}
        assert declared <= seen[-1].read, line
    capsys.readouterr()


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: carefulsync [-h] {gen,solve,race,tables,scan,estimate}\n"),
    (["race", "-h"], "usage: carefulsync race [-h] {f,count,enumerate,render,word}\n"),
    (["race", "render", "--help"], "usage: carefulsync race render [-h] --n N --c C"),
    (["estimate", "-h"], "usage: carefulsync estimate [-h] --c C [--n N] [--json] [--out OUT]\n"),
])
def test_help_at_every_level(capsys, argv, usage):
    assert dispatch(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(usage) and captured.err == ""


def test_one_dispatch_builds_at_most_two_parsers(capsys, monkeypatch, pfa_file):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for line in [*READ_ALL.values(), "", "-h", "nope", "race", "race -h", "race nope",
                 "race word -h", "race word --n 9", "estimate -h", "scan drops --nmax 60 --full"]:
        built.clear()
        dispatch(line.format(pfa=pfa_file).split())
        assert 1 <= len(built) <= 2, line
    capsys.readouterr()


def test_importing_the_cli_builds_no_parser():
    script = dedent("""
        import argparse
        built, init = [], argparse.ArgumentParser.__init__
        argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)
        import carefulsync.cli
        print(len(built))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr
