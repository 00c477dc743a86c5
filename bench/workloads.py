"""The benchmark's workloads: fixed lists of CLI operations.

Each operation is one CLI invocation (plus, for some, a step the workload
adds around it) and names the checker its output must pass.  The inputs are
fixed; the seed only chooses the order of a round's operations, which
optimal race a ``race word`` operation builds, and which of the state
budgets 61..64 (all with the same best list) the second prime solve uses;
none of these changes the amount of work.  The quick profile runs smaller
inputs through the same code and the same checks.
"""

import random

import checks

NAMES = ("bfs-wide", "long-words", "family-scan")


def cli_op(argv, check, **params):
    return {"id": " ".join(argv), "kind": "cli", "argv": argv, "check": check, **params}


def solve_cerny(n, c, count=False):
    argv = ["solve", "cerny", "--n", str(n), "--c", str(c)]
    if count:
        return cli_op(argv + ["--count"], "solve-cerny", n=n, c=c,
                      count_from=race_count_op(n - c - 1, c)["id"])
    return cli_op(argv, "solve-cerny", n=n, c=c)


def race_count_op(m, c):
    return cli_op(["race", "count", "--n", str(m), "--c", str(c)], "race-count", m=m, c=c)


def race_word(n, c, rng):
    """``race word`` on C(n, c), re-applied with parse_word/is_sync_word,
    plus the enumeration and count of the same races."""
    m = n - c - 1
    plans = checks.race_count(m, c)
    index = rng.randrange(plans)
    word = cli_op(["race", "word", "--n", str(n), "--c", str(c), "--plan-index", str(index)],
                  "race-word", n=n, c=c)
    word["kind"] = "word"
    count = race_count_op(m, c)
    enum = cli_op(["race", "enumerate", "--n", str(m), "--c", str(c)],
                  "race-enumerate", m=m, c=c, count_from=count["id"])
    return [word, enum, count]


def solve_best_prime(n):
    """best_prime_list(n), then ``solve prime`` on that list, unpadded."""
    return {"id": f"solve prime best_prime_list({n})", "kind": "prime", "n": n,
            "check": "solve-prime"}


def tables(which, **params):
    argv = ["tables", which]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    return cli_op(argv, "tables", which=which, **params)


def scan(nmax):
    fast = cli_op(["scan", "optimal-c", "--nmax", str(nmax)], "scan-int64", nmax=nmax)
    full = cli_op(["scan", "optimal-c", "--nmax", str(nmax), "--full"], "scan-full",
                  nmax=nmax, int64_from=fast["id"])
    return [full, fast]


def build(name, seed, quick=False):
    """The operations of one round, in the seed's order."""
    rng = random.Random(seed)
    if name == "bfs-wide":
        # frontiers of tens of thousands of subsets, n <= 64; the sequence
        # layer does almost nothing
        if quick:
            ops = [solve_cerny(12, 3), solve_cerny(10, 2, count=True), race_count_op(7, 2)]
        else:
            ops = [solve_cerny(22, 4), solve_cerny(20, 4, count=True), race_count_op(15, 4)]
    elif name == "long-words":
        # one or two subsets per level over tens of thousands of levels, and
        # words of tens of thousands of letters applied state set by state set
        if quick:
            ops = [tables("defeat"), solve_best_prime(30), *race_word(48, 14, rng),
                   race_count_op(500, 3)]
        else:
            # the best lists for 61..64 states are one list with more padding
            ops = [tables("defeat"), solve_best_prime(60),
                   solve_best_prime(61 + rng.randrange(4)),
                   *race_word(203, 78, rng), *race_word(205, 73, rng),
                   *race_word(100, 35, rng), race_count_op(10000, 3)]
    elif name == "family-scan":
        # int64 and exact sequence evaluators only; no subset search
        nmax, scan_max = (500, 60) if quick else (7200, 300)
        ops = [tables("drops", nmax=nmax), tables("pn2"), tables("grid", nmax=15, cmax=4),
               tables("conclusion"), *scan(scan_max)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops
