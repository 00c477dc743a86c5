"""Independent checkers for the benchmark's CLI outputs.

Nothing here imports carefulsync.  The automata are rebuilt from their
definitions, words are simulated one state at a time, race costs come from
the plain O(n^2) split recursion, and the prime thresholds from the paper's
closed formula.  The published reference values are read from
``src/carefulsync/tables.py`` as data, without importing the package.

Every checker returns a list of problems; an empty list means the output
passed.  Results are memoized per distinct input, so a run that repeats the
same operation verifies its output once.
"""

import importlib.util
import os
from functools import lru_cache
from math import gcd

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# published tables, loaded as data


@lru_cache(maxsize=None)
def published():
    path = os.path.join(ROOT, "src", "carefulsync", "tables.py")
    spec = importlib.util.spec_from_file_location("_published_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# automata, rebuilt from their definitions
# A transition table is a list of dicts, one per symbol, mapping a 1-based
# state to its 1-based target; a missing key is an undefined transition.


def family_automaton(n, c):
    """C(n, c): a moves q -> q+1 on the n-c-1 low states and is undefined on
    the c states below the top; b fixes the low states and moves the upper
    ones up by one; both send the top state n to 1."""
    a, b = {}, {}
    for q in range(1, n - c):
        a[q] = q + 1
        b[q] = q
    for q in range(n - c, n):
        b[q] = q + 1
    a[n] = b[n] = 1
    return ["ab", [a, b]]


def prime_automaton(values):
    """The unpadded, non-transitive grouped automaton of a coprime list.

    Group i of a p-entry has a start state 0, a cycle 1..p, and two
    bottleneck states A and B.  a runs the cycle (0 -> 1, p -> 1) and hands
    A on to the next group's B, the second-last group's A to the last
    group's A, and the last A to the last cycle's top; a is undefined on
    every B.  b sends cycle states 1..p-1 and A to B, p to A, B to 0, and
    fixes 0.
    """
    states = {}
    for i, p in enumerate(values):
        for key in list(range(p + 1)) + ["A", "B"]:
            states[(i, key)] = len(states) + 1
    a, b = {}, {}
    last = len(values) - 1
    for i, p in enumerate(values):
        g = {key: q for (group, key), q in states.items() if group == i}
        for j in range(p):
            a[g[j]] = g[j + 1]
        a[g[p]] = g[1]
        if i < last - 1:
            a[g["A"]] = states[(i + 1, "B")]
        elif i == last - 1:
            a[g["A"]] = states[(last, "A")]
        else:
            a[g["A"]] = states[(last, values[last])]
        for j in range(1, p):
            b[g[j]] = g["B"]
        b[g[p]] = g["A"]
        b[g["A"]] = g["B"]
        b[g["B"]] = g[0]
        b[g[0]] = g[0]
    return ["ab", [a, b]], len(states)


def word_problems(automaton, n, text):
    """Simulate every state separately; the word must be defined on each
    and end with all of them in one state."""
    symbols, delta = automaton
    try:
        letters = [symbols.index(ch) for ch in text]
    except ValueError:
        return [f"word has a letter outside {symbols!r}"]
    ends = set()
    for q in range(1, n + 1):
        for s in letters:
            q = delta[s].get(q)
            if q is None:
                return [f"word is undefined on some state (letter {symbols[s]})"]
        ends.add(q)
    if len(ends) != 1:
        return [f"word leaves {len(ends)} states, not one"]
    return []


# ---------------------------------------------------------------------------
# the race cost f_c and the count of optimal races, by the split recursion
# f(1) = 0, f(m) = min over 1 <= i < m of f(i) + f(m-i) + (c+1)m - i


@lru_cache(maxsize=None)
def race_costs(c, m_max):
    f = np.zeros(max(m_max, 1) + 1, dtype=np.int64)
    idx = np.arange(f.size, dtype=np.int64)
    for m in range(2, m_max + 1):
        f[m] = (c + 1) * m + (f[1:m] + f[m - 1:0:-1] - idx[1:m]).min()
    return f


def race_cost(m, c):
    if c == 0:
        return m - 1
    return int(race_costs(c, _bucket(m))[m])


def _bucket(m):
    # share one table between nearby sizes
    return max(64, 1 << (m - 1).bit_length())


def threshold(n, c):
    """n'(n'-1) + c + 1 + f_c(n') with n' = n - c - 1."""
    npr = n - c - 1
    return npr * (npr - 1) + c + 1 + race_cost(npr, c)


def best_threshold(n):
    """Largest threshold over every c, and the set of maximizing c."""
    values = [threshold(n, c) for c in range(n - 1)]
    best = max(values)
    return best, {c for c, v in enumerate(values) if v == best}


@lru_cache(maxsize=None)
def race_count(m, c):
    """Optimal races of m pawns: the product counts summed over every
    minimizing split of the recursion."""
    f = race_costs(c, _bucket(m))
    idx = np.arange(f.size, dtype=np.int64)
    count = [0, 1, 1] + [0] * max(0, m - 2)
    for k in range(3, m + 1):
        split = f[1:k] + f[k - 1:0:-1] - idx[1:k]
        for i in np.flatnonzero(split == split.min()) + 1:
            count[k] += count[int(i)] * count[k - int(i)]
    return count[m]


# ---------------------------------------------------------------------------
# the prime formula


def prime_formula(values):
    """5r - 2 plus the suffix products p_i * ... * p_r for i = 1 .. r-1."""
    total = 5 * len(values) - 2
    suffix = values[-1]
    for v in reversed(values[:-1]):
        suffix *= v
        total += suffix
    return total


def coprime(values):
    return all(v >= 2 for v in values) and all(
        gcd(v, u) == 1 for i, v in enumerate(values) for u in values[i + 1:]
    )


# ---------------------------------------------------------------------------
# parsing CLI output


def fields(text):
    """``key<TAB>value`` lines as a dict."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("\t")
        out[key] = value
    return out


def rows(text):
    """A TSV table with a header line, as a list of dicts; MISMATCH lines
    the CLI appends are returned separately."""
    lines = text.splitlines()
    mismatches = [line for line in lines if line.startswith("MISMATCH")]
    body = [line for line in lines if not line.startswith("MISMATCH")]
    if not body:
        return [], mismatches
    header = body[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in body[1:]], mismatches


def _compare(problems, label, got, expected):
    if got != expected:
        problems.append(f"{label}: got {got}, expected {expected}")


# ---------------------------------------------------------------------------
# per-operation checks; each takes the op spec and its output, plus what
# else it needs: the outputs of the whole round (for cross checks), keyed
# by op id, or the facts the child reported; each returns problems


def check_solve_cerny(op, out, outputs):
    n, c = op["n"], op["c"]
    doc = fields(out)
    problems = []
    try:
        got = int(doc["threshold"])
        levels = int(doc["levels"])
        explored = int(doc["explored"])
    except (KeyError, ValueError):
        return [f"unparsable solve output: {out[:200]!r}"]
    _compare(problems, f"C({n},{c}) threshold", got, threshold(n, c))
    _compare(problems, f"C({n},{c}) word length", len(doc.get("word", "")), got)
    _compare(problems, f"C({n},{c}) levels", levels, got)
    if explored < levels:
        problems.append(f"C({n},{c}) explored {explored} < levels {levels}")
    problems += list(_word_verdict(("family", n, c), doc.get("word", "")))
    if op.get("count_from"):
        race = outputs.get(op["count_from"])
        _compare(
            problems, f"C({n},{c}) word count vs race count",
            doc.get("count"), race.strip() if race is not None else None,
        )
    return problems


def check_solve_prime(op, out, extra):
    values = tuple(extra.get("primes") or ())
    problems = []
    if len(values) < 2 or not coprime(values):
        return [f"best list {values} is not a pairwise coprime list"]
    states = 3 * len(values) + sum(values)
    if states > op["n"] or extra.get("padding") != op["n"] - states:
        problems.append(f"best list {values} with padding {extra.get('padding')} "
                        f"does not fill {op['n']} states")
    doc = fields(out)
    try:
        got = int(doc["threshold"])
    except (KeyError, ValueError):
        return [f"unparsable solve output: {out[:200]!r}"]
    _compare(problems, f"prime {values} threshold", got, prime_formula(values))
    _compare(problems, f"prime {values} word length", len(doc.get("word", "")), got)
    problems += list(_word_verdict(("prime", values), doc.get("word", "")))
    return problems


def check_race_word(op, out, extra):
    n, c = op["n"], op["c"]
    word = out.strip()
    problems = []
    _compare(problems, f"C({n},{c}) race word length", len(word), threshold(n, c))
    if extra.get("reapplied") is not True:
        problems.append(f"C({n},{c}) race word rejected by is_sync_word")
    problems += list(_word_verdict(("family", n, c), word))
    return problems


def check_race_count(op, out):
    m, c = op["m"], op["c"]
    problems = []
    _compare(problems, f"race count({m},{c})", out.strip(), str(race_count(m, c)))
    return problems


def check_race_enumerate(op, out, outputs):
    plans = [line for line in out.splitlines() if line]
    count = outputs.get(op["count_from"])
    problems = []
    _compare(
        problems, f"enumerated plans({op['m']},{op['c']}) vs race count",
        str(len(plans)), count.strip() if count is not None else None,
    )
    _compare(problems, "distinct plans", len(set(plans)), len(plans))
    return problems


def check_tables(op, out):
    which = op["which"]
    table, mismatches = rows(out)
    problems = list(mismatches)
    ref = published()
    if which in ("pn2", "conclusion"):
        expected = ref.P_N_2 if which == "pn2" else ref.CONCLUSION
        got = {int(r["n"]): int(r["value"]) for r in table}
        _compare(problems, f"tables {which} rows", got, expected)
        for n, value in got.items():
            _compare(problems, f"{which}({n}) recursion", value, best_threshold(n)[0])
    elif which == "grid":
        for r in table:
            n, c, value = int(r["n"]), int(r["c"]), int(r["value"])
            _compare(problems, f"grid({n},{c}) recursion", value, threshold(n, c))
            if n in ref.GRID and c < len(ref.GRID[n]):
                _compare(problems, f"grid({n},{c}) published", value, ref.GRID[n][c])
            is_max = value == best_threshold(n)[0]
            _compare(problems, f"grid({n},{c}) max mark", r["max"] == "*", is_max)
        covered = {(int(r["n"]), int(r["c"])) for r in table}
        missing = [
            (n, c) for n, vals in ref.GRID.items() for c in range(len(vals))
            if n <= op["nmax"] and c <= op["cmax"] and (n, c) not in covered
        ]
        if missing:
            problems.append(f"grid rows missing: {missing[:5]}")
    elif which == "drops":
        expected = [r for r in ref.DROPS if r.n_left < op["nmax"]]
        _compare(problems, f"drop count below {op['nmax']}", len(table), len(expected))
        for r, pub in zip(table, expected):
            ev = {k: int(v) for k, v in r.items()}
            label = f"drop@{pub.n_left}"
            _compare(problems, label, (ev["n_before"], ev["c_before"], ev["r_before"],
                                       ev["c_after"], ev["gap"]),
                     (pub.n_left, pub.c_left, pub.r_left, pub.c_right, pub.drop))
            if pub.n_right == ev["n_after"]:
                _compare(problems, label + " r'", ev["r_after"], pub.r_right)
            _compare(problems, label + " recursion", ev["r_before"],
                     threshold(ev["n_before"], ev["c_before"]))
            _compare(problems, label + " recursion'", ev["r_after"],
                     threshold(ev["n_after"], ev["c_after"]))
    else:  # defeat
        expected = {r.n: r for r in ref.DEFEAT}
        _compare(problems, "defeat rows", sorted(int(r["n"]) for r in table), sorted(expected))
        for r in table:
            pub = expected.get(int(r["n"]))
            if pub is None:
                continue
            values = tuple(int(x) for x in r["primes"].split(","))
            got = (int(r["cerny"]), int(r["q"]), int(r["rt"]), int(r["rt_transitive"]), values)
            _compare(problems, f"defeat({pub.n})", got,
                     (pub.cerny_rt, pub.q, pub.rt, pub.rt_transitive, pub.primes))
            best, argmax = best_threshold(pub.n)
            _compare(problems, f"defeat({pub.n}) recursion", int(r["cerny"]), best)
            _compare(problems, f"defeat({pub.n}) c'", max(argmax), pub.best_c)
            if 3 * len(values) + sum(values) == pub.n:
                _compare(problems, f"defeat({pub.n}) prime formula", int(r["rt"]),
                         prime_formula(values))
            if int(r["rt"]) <= best:
                problems.append(f"defeat({pub.n}): {r['rt']} does not beat {best}")
    return problems


def check_scan_full(op, out, outputs):
    table, _ = rows(out)
    problems = []
    _compare(problems, "scan rows", [int(r["n"]) for r in table],
             list(range(2, op["nmax"] + 1)))
    for r in table:
        n = int(r["n"])
        best, argmax = best_threshold(n)
        got = (int(r["value"]), {int(c) for c in r["c"].split(",")})
        if got != (best, argmax):
            problems.append(f"scan optimal-c n={n}: got {got}, recursion ({best}, {argmax})")
            break
    fast = outputs.get(op["int64_from"])
    fast_rows, _ = rows(fast or "")
    exact = [(int(r["n"]), int(r["value"]), max(int(c) for c in r["c"].split(",")))
             for r in table]
    cheap = [(int(r["n"]), int(r["value"]), int(r["c"])) for r in fast_rows]
    _compare(problems, "scan optimal-c --full vs the int64 scan", exact == cheap, True)
    return problems


def check_scan_int64(op, out):
    table, _ = rows(out)
    problems = []
    _compare(problems, "int64 scan rows", len(table), op["nmax"] - 1)
    return problems


@lru_cache(maxsize=64)
def _word_verdict(kind, word):
    if kind[0] == "family":
        _, n, c = kind
        return tuple(word_problems(family_automaton(n, c), n, word))
    automaton, states = prime_automaton(kind[1])
    return tuple(word_problems(automaton, states, word))


def check(op, result, outputs):
    """Problems with one operation's result; an exit code other than 0
    is a problem too."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result.get('err', '')[-300:]}"]
    out, extra, kind = result["out"], result.get("extra", {}), op["check"]
    if kind == "solve-cerny":
        return check_solve_cerny(op, out, outputs)
    if kind == "solve-prime":
        return check_solve_prime(op, out, extra)
    if kind == "race-word":
        return check_race_word(op, out, extra)
    if kind == "race-count":
        return check_race_count(op, out)
    if kind == "race-enumerate":
        return check_race_enumerate(op, out, outputs)
    if kind == "tables":
        return check_tables(op, out)
    if kind == "scan-full":
        return check_scan_full(op, out, outputs)
    if kind == "scan-int64":
        return check_scan_int64(op, out)
    raise ValueError(f"no checker named {kind!r}")
