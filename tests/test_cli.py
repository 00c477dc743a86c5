import json
from dataclasses import replace
from pathlib import Path

import pytest
from oracle import exact_row, row_optimum

from carefulsync import build_cerny, from_json, is_sync_word, parse_word
from carefulsync.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"


# stdout recorded before a change behind it, one file per case under
# tests/golden/cli: the tables and the --full tie pass before they moved
# behind `verify` and `cerny`, the prime solves (55 507 and 86 257 levels,
# almost all of one subset) before the search took the chain step
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
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_cli_output_is_golden(capsys, name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert dispatch(GOLDEN_RUNS[name].split()) == 0
    assert capsys.readouterr() == (expected, "")


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


def test_race_count_refuses_n_above_its_limit(capsys, monkeypatch):
    from carefulsync import cli, pawnrace

    monkeypatch.setattr(pawnrace, "count_races", lambda n, c: n)
    assert run(capsys, "race", "count", "--n", "20000", "--c", "1") == (0, "20000\n")
    n = str(cli.RACE_COUNT_MAX_N + 1)
    assert dispatch(["race", "count", "--n", n, "--c", "3", "--json"]) == 3
    assert capsys.readouterr() == ("", f"resources: race count takes --n up to 20000, not {n}\n")


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
