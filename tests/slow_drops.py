"""Slow checks, outside the tier-1 suite: the widest subset searches pinned
here, the family by search against its formula and the published table to
30 states, the race commands at their limits, the drop table to
n = 2^21 - 1, the family's best threshold against (n-1)^2 over the same
range, and the largest threshold of every binary PFA of 6 states.

``test_solve_cerny_24_4`` runs ``solve cerny --n 24 --c 4 --count`` as a
CLI process, within 64 MB, and compares its stdout (threshold 712, count 6,
the lexicographically least word) with ``tests/golden/cli``.  Each bound
of a CLI process is on that process's own peak, read by ``spawn_python``,
so the checks may run in any order and in one process.
``test_solve_cerny_64_50`` runs ``solve cerny --n 64 --c 50 --count`` as a
CLI process, within 80 MB, and checks its threshold against
``rt_formula``, its count and the 424 550 subsets it explores: the wide
phase of the search on the hash table, with state 64 on bit 63.
``test_best_member_by_search_25_to_30`` solves the family's best member at
each n = 25..30 as a CLI process with ``--cap-subsets 67108864``, each
within 200 MB, and checks its threshold against ``tables.CONCLUSION``;
C(30, 8) explores 20 968 208 subsets, past the default cap.
``test_solve_matches_formula_to_24`` solves every member of 19 to 24
states in this process and checks each threshold against ``rt_formula``.
``test_race_render_5000`` runs ``race render --n 5000 --c 0``, and the last
optimal plan of ``race render --n 5000 --c 1``, each as a CLI process within
100 MB: the race trace holds one row per iteration, by position, and the
picture is written a line at a time.  ``test_race_word_5001`` runs ``race
word --n 5001 --c 0``, within 150 MB, and checks that its word is
25 000 000 letters long, the most that ``race word`` makes, held one byte
per letter; ``test_race_word_5001_json`` runs the same word with
``--json``, within 130 MB, as the record is written around one copy of the
word's text, and parses it.
``test_race_count_20000`` runs ``race count --n 20000 --c 1``, the most
costly count under the cap of ``--n`` (``cli.RACE_COUNT_MAX_N``), as a CLI
process, and pins the 2 436 digits it prints by their SHA-256.
``test_drops_to_120000_match_the_dense_oracle`` compares the monotone-argmax scan
``scan_drops(120000)`` with the dense per-c scan of ``oracle.scan_drops`` and
pins the four drops beyond the published eight that it finds.
``test_scan_optimal_c_to_2097151`` runs ``scan optimal-c --nmax 2097151``
as a CLI process, plain and ``--json``, each within 300 MB, and pins its
row count and last row: the rows stream out instead of being gathered
first.  ``test_scan_optimal_c_full_to_2097151`` runs the same scan with ``--full``,
within 320 MB: only the few tied n keep a list of maximizers.
``test_tables_grid_3000`` runs ``tables grid --nmax 3000 --cmax 3000`` as a
CLI process, within 100 MB, and counts its 4 498 500 cells: the grid
streams one n at a time.
``test_drops_to_2097151`` checks the two endpoints of each of the
four drops after those with ``optimal_c``, one exact row each, which does
not show that no other drop lies between them.  It also runs
``scan drops --nmax 2097151`` as a CLI process, within 15 s and 200 MB,
and pins the 16 drops it prints.
``test_family_exceeds_the_cerny_bound_to_2097151`` checks the family side
of the headline theorem, which the tier-1 suite checks to 7200: the
family's best threshold is (n-1)^2 for n = 2..5 and more than (n-1)^2 for
every 6 <= n <= 2^21 - 1.
``test_binary_pfas_of_6_states_reach_26`` runs the exhaustive search of
``tests/test_exhaustive_bound.py`` at n = 6 in a fresh process, within 25 s
and 160 MB: over every binary PFA of 6 states, pruned as there, the largest
threshold is 26, ``tables.P_N_2[6]``, so the family's member is extremal.

The file name does not start with ``test_``, so a plain ``pytest`` run does
not collect it; run it by name, from the repository root:

    PYTHONPATH=src python -m pytest -q tests/slow_drops.py

On a 2-vCPU VM the solve takes about 0.7 s, at about 55 MB, that of 64
states about 0.6 s, at about 53 MB, the best
members to 30 states about 7 s in all, C(30, 8) about 2.6 s at about
145 MB, every member of 19 to 24 states about 11 s, the race picture
about 0.55 s and the last plan at c = 1 about 0.8 s, each at about 80 MB,
the race word about 1.1 s at about 110 MB, plain or ``--json``, the race
count about 35 s, the drop
table to 120000 about 1.5 minutes, nearly all of it in the oracle, the
scan of optimal c about 12 s, at about 225 MB per CLI process, with
``--full`` about 5 s and 250 MB, the grid about 7 s and 32 MB, the drop
table to 2^21 - 1 about 3.5 s (the CLI scan about 2.7 s at 150 MB), the
family's best threshold about 1.5 s, and the search of 6 states about
12.5 s at about 79 MB.
"""

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import oracle

from carefulsync import (build_cerny, count_races, f_closed, optimal_c, rt_formula,
                         scan_drops, scan_optimal, solve, tables)

SRC = Path(__file__).resolve().parent.parent / "src"
HEADER = "n_before\tn_after\tc_before\tc_after\tr_before\tr_after\tgap"
# the drops after the published eight, as (n_before, n_after, c_before,
# c_after, r_before, r_after)
BEYOND_7200 = [
    (14411, 14412, 6335, 6106, 729531301, 729638666),
    (29076, 29077, 12914, 12476, 3180251137, 3180483339),
    (58598, 58599, 26253, 25420, 13772143004, 13772634989),
    (117988, 117989, 53258, 51669, 59304759967, 59305818693),
    (237388, 237389, 107856, 104818, 254114969530, 254117210892),
    (477311, 477312, 218114, 212298, 1084158816472, 1084163513572),
    (959200, 959201, 440560, 429406, 4607842866185, 4607852933201),
    (1926703, 1926704, 888969, 867545, 19517510201906, 19517531283404),
]


def rows(events):
    return [(e.n_before, e.n_after, e.c_before, e.c_after, e.r_before, e.r_after) for e in events]


def test_solve_cerny_24_4():
    golden = (Path(__file__).resolve().parent / "golden" / "cli"
              / "solve_cerny_24_4_count.txt").read_text(encoding="utf-8")
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_cli(out, "solve", "cerny", "--n", "24", "--c", "4", "--count")
        out.seek(0)
        text = out.read().decode()
    assert code == 0
    assert peak < 64 * 1024, peak
    fields = dict(line.split("\t") for line in text.splitlines())
    assert (fields["threshold"], fields["count"]) == ("712", "6")
    assert text == golden


def test_solve_cerny_64_50():
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_cli(out, "solve", "cerny", "--n", "64", "--c", "50", "--count")
        out.seek(0)
        fields = dict(line.split("\t") for line in out.read().decode().splitlines())
    assert code == 0
    assert peak < 80 * 1024, peak
    assert int(fields["threshold"]) == rt_formula(64, 50) == 2679
    assert (fields["count"], fields["explored"]) == ("3", "424550")


def test_best_member_by_search_25_to_30():
    for n in range(25, 31):
        _, argmax = optimal_c(n)
        c = min(argmax)
        with tempfile.TemporaryFile() as out:
            code, _, peak = spawn_cli(out, "solve", "cerny", "--n", str(n), "--c", str(c),
                                        "--cap-subsets", str(1 << 26))
            out.seek(0)
            fields = dict(line.split("\t") for line in out.read().decode().splitlines())
        assert code == 0, n
        assert peak < 200 * 1024, (n, peak)
        assert int(fields["threshold"]) == tables.CONCLUSION[n] == rt_formula(n, c), n


def test_race_render_5000():
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_cli(out, "race", "render", "--n", "5000", "--c", "0")
        count, tail = count_and_tail(out, b"\n")
    assert code == 0
    assert peak < 100 * 1024, peak
    assert count == 2 + 4999  # the header and its rule, then one line per iteration
    assert tail.endswith(b"CR  merge@5000\n"), tail
    # the last of the optimal plans at c = 1, built alone by its index
    last = str(count_races(5000, 1) - 1)
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_cli(out, "race", "render", "--n", "5000", "--c", "1",
                                    "--plan-index", last)
        count, tail = count_and_tail(out, b"\n")
        moves, _ = count_and_tail(out, b"C")
        stays, _ = count_and_tail(out, b"R")
    assert code == 0
    assert peak < 100 * 1024, peak
    assert count == 2 + 4999
    assert tail.endswith(b"CR  merge@5000\n"), tail
    assert 2 * moves + stays == f_closed(5000, 1)  # each move costs c + 1, each stay c


def test_race_word_5001():
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_cli(out, "race", "word", "--n", "5001", "--c", "0")
        count, _ = count_and_tail(out, b"\n")
        size = out.seek(0, os.SEEK_END)
    assert code == 0
    assert peak < 150 * 1024, peak
    assert (count, size) == (1, 25_000_000 + 1)  # one line: the word


def test_race_word_5001_json():
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_cli(out, "race", "word", "--n", "5001", "--c", "0", "--json")
        a, tail = count_and_tail(out, b"a")
        b, _ = count_and_tail(out, b"b")
        size = out.seek(0, os.SEEK_END)
        out.seek(0)
        head = out.read(100)
    assert code == 0
    assert peak < 130 * 1024, peak
    # parsed without its word, whose letters a and b need no escape
    prefix = head[:head.index(b'"word": "') + len(b'"word": "')]
    assert json.loads(prefix + b'"}') == {"n": 5001, "c": 0, "length": 25_000_000, "word": ""}
    assert a + b == 25_000_000 and size == len(prefix) + 25_000_000 + len(b'"}\n')
    assert tail.endswith(b'"}\n'), tail


def test_race_count_20000():
    with tempfile.TemporaryFile() as out:
        code, _, _ = spawn_cli(out, "race", "count", "--n", "20000", "--c", "1")
        out.seek(0)
        text = out.read()
    assert code == 0
    digits = text.removesuffix(b"\n")
    assert digits.isdigit() and len(digits) == 2436
    assert hashlib.sha256(digits).hexdigest().startswith("3858ebf0c4b1b371")


def test_drops_to_120000_match_the_dense_oracle():
    drops = scan_drops(120000)
    assert drops == oracle.scan_drops(120000)
    assert len(drops) == 12
    assert rows(drops[8:]) == BEYOND_7200[:4]


def spawn_cli(out, *args):
    """Run ``python -m carefulsync *args`` with stdout into the file ``out``;
    returns what ``spawn_python`` returns."""
    return spawn_python(out, ["-m", "carefulsync", *args])


# Runs ``python -m module ...`` or ``python -c code ...`` as given after it,
# and at exit, however it exits, writes this process's own peak resident
# set, VmHWM in kB, to fd 3.  VmHWM restarts at exec; a child's ru_maxrss
# starts at the peak of the process that spawned it.
_PEAK_WRAPPER = """\
import atexit, os, runpy, sys

def peak():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    os.write(3, line.split()[1].encode())

atexit.register(peak)
flag, target, *args = sys.argv[1:]
sys.argv = [flag, *args]  # as python sets it; run_module puts the module's path first
if flag == "-m":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
"""


def spawn_python(out, args):
    """Run ``python *args``, where ``args`` start with ``-m`` or ``-c``, with
    the package and the tests' modules on its path and stdout into the file
    ``out``; returns its exit code, wall time and its own peak resident set
    in kB, read from its VmHWM at exit, also on a nonzero exit."""
    argv = [sys.executable, "-c", _PEAK_WRAPPER, *args]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), str(Path(__file__).parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    with tempfile.TemporaryFile() as peak_kb:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, peak_kb.fileno(), 3)])
        _, status = os.waitpid(pid, 0)
        elapsed = time.perf_counter() - start
        peak_kb.seek(0)
        return os.waitstatus_to_exitcode(status), elapsed, int(peak_kb.read())


def count_and_tail(out, mark):
    """The occurrences of ``mark`` in the file ``out`` and its last 100 bytes,
    read a chunk at a time."""
    out.seek(0)
    count = 0
    while chunk := out.read(1 << 20):
        count += chunk.count(mark)
    out.seek(-100, os.SEEK_END)
    return count, out.read()


def test_scan_optimal_c_to_2097151():
    rows = 2097151 - 1  # n = 2 .. 2097151
    for flag, mark, last in (
        ([], b"\n", b"\n2097151\t23299139627484\t948711\n"),
        (["--json"], b"{", b', {"n": 2097151, "value": 23299139627484, "c": 948711}]\n'),
    ):
        with tempfile.TemporaryFile() as out:
            code, _, peak = spawn_cli(out, "scan", "optimal-c", "--nmax", "2097151", *flag)
            count, tail = count_and_tail(out, mark)
        assert code == 0, flag
        assert peak < 300 * 1024, (flag, peak)
        assert count == rows + (not flag), flag  # the TSV header is one more line
        assert tail.endswith(last), (flag, tail)


def test_scan_optimal_c_full_to_2097151():
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_cli(out, "scan", "optimal-c", "--nmax", "2097151", "--full")
        count, tail = count_and_tail(out, b"\n")
    assert code == 0
    assert peak < 320 * 1024, peak
    assert count == 1 + (2097151 - 1)  # the header, then n = 2 .. 2097151
    assert tail.endswith(b"\n2097151\t23299139627484\t948711\n"), tail


def test_tables_grid_3000():
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_cli(out, "tables", "grid", "--nmax", "3000", "--cmax", "3000")
        count, tail = count_and_tail(out, b"\n")
    assert code == 0
    assert peak < 100 * 1024, peak
    assert count == 1 + 2999 * 3000 // 2  # the header, then c = 0 .. n-2 for n = 2 .. 3000
    assert tail.endswith(b"\n3000\t2998\t2999\t\n"), tail


def test_drops_to_2097151():
    with tempfile.TemporaryFile() as out:
        code, elapsed, peak = spawn_cli(out, "scan", "drops", "--nmax", "2097151")
        out.seek(0)
        lines = out.read().decode().splitlines()
    assert code == 0
    assert elapsed < 15, elapsed
    assert peak < 200 * 1024, peak
    assert lines[0] == HEADER and len(lines) == 1 + 16
    assert [tuple(map(int, line.split("\t")[:6])) for line in lines[-8:]] == BEYOND_7200

    for n_before, n_after, c_before, c_after, r_before, r_after in BEYOND_7200[4:]:
        best, argmax = optimal_c(n_before)
        assert (best, max(argmax)) == (r_before, c_before), n_before
        best, argmax = optimal_c(n_after)
        assert (best, max(argmax)) == (r_after, c_after), n_after


def test_family_exceeds_the_cerny_bound_to_2097151():
    n_max = 2**21 - 1
    best, _ = scan_optimal(n_max)
    bound = (np.arange(n_max + 1) - 1) ** 2
    assert best[2:6].tolist() == [1, 4, 9, 16] == bound[2:6].tolist()
    assert (best[6:] > bound[6:]).all()


def test_binary_pfas_of_6_states_reach_26():
    # the search of tests/test_exhaustive_bound.py at n = 6: 119 classes of
    # a, each with all 7^6 maps b, 14 M automata in chunks of 2^18
    search = ("import oracle\n"
              "classes = oracle.total_noninjective_classes(6)\n"
              "found = oracle.binary_thresholds(6, classes, oracle.partial_maps(6))\n"
              "print(len(classes), found.max(), (found == found.max()).sum())\n")
    with tempfile.TemporaryFile() as out:
        code, elapsed, peak = spawn_python(out, ["-c", search])
        out.seek(0)
        text = out.read().decode()
    assert code == 0
    assert elapsed < 25, elapsed
    assert peak < 160 * 1024, peak
    # the maximum is p(6, 2), which the family attains; 6 pairs (class, b) reach it
    assert text.split() == ["119", str(tables.P_N_2[6]), "6"] and tables.P_N_2[6] == 26


def test_solve_matches_formula_to_24():
    for n in range(19, 25):
        for c in range(n - 1):
            assert solve(build_cerny(n, c)).threshold == rt_formula(n, c), (n, c)
