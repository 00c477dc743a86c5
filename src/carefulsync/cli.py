"""Command line surface: generate automata, solve them, and reproduce the
published tables (the ``tables`` subcommands recompute everything and exit
nonzero on any disagreement with the frozen reference values)."""

import argparse
import json
import sys
from contextlib import nullcontext
from itertools import islice

from . import cerny, estimates, pawnrace, primes, verify
from .pfa import from_json, to_dot, to_json, format_word
from .solver import SolveLimits, LimitExceeded, NotSynchronizing, solve

OK, MISMATCH, USAGE, RESOURCES = 0, 1, 2, 3

# `race count` refuses a larger --n.  count_races does about n^2.7
# big-integer products, and c = 1 costs the most: 22 s at n = 20 000, against
# 7.6 s for c = 2 and 2 s for c = 3 (2-vCPU VM).
RACE_COUNT_MAX_N = 20_000


def _parser():
    top = argparse.ArgumentParser(prog="carefulsync")
    sub = top.add_subparsers(dest="command", required=True)

    def add_pfa_args(p, kinds):
        p.add_argument("kind", choices=kinds)
        p.add_argument("--n", type=int)
        p.add_argument("--c", type=int)
        p.add_argument("--primes", type=str, help="comma separated, e.g. 5,7,8,9")
        p.add_argument("--padding", type=int, default=0)
        p.add_argument("--transitive", action="store_true")

    gen = sub.add_parser("gen", help="emit an automaton as JSON or DOT")
    add_pfa_args(gen, ["cerny", "cerny-star", "prime"])
    gen.add_argument("--dot", action="store_true")
    gen.add_argument("--out")

    slv = sub.add_parser("solve", help="exact shortest synchronizing word")
    add_pfa_args(slv, ["cerny", "cerny-star", "prime", "path"])
    slv.add_argument("--path", help="JSON automaton file (kind=path)")
    slv.add_argument("--cap-subsets", type=int, default=SolveLimits.max_subsets)
    slv.add_argument("--cap-length", type=int, default=SolveLimits.max_length)
    slv.add_argument("--count", action="store_true", help="also count shortest words")
    slv.add_argument("--json", action="store_true")
    slv.add_argument("--pretty", action="store_true")
    slv.add_argument("--out")

    race = sub.add_parser("race", help="pawn race costs, plans and words")
    race.add_argument("what", choices=["f", "count", "enumerate", "render", "word"])
    race.add_argument(
        "--n", type=int, required=True,
        help=f"pawn count, at most {RACE_COUNT_MAX_N} for `count`; for `word` the "
        "automaton size (racing n-c-1 pawns)",
    )
    race.add_argument("--c", type=int, required=True)
    race.add_argument("--cap-plans", type=int, default=1000)
    race.add_argument("--plan-index", type=int, default=0)
    race.add_argument("--pretty", action="store_true")
    race.add_argument("--json", action="store_true")
    race.add_argument("--out")

    tab = sub.add_parser("tables", help="reproduce a published table and diff it")
    tab.add_argument("which", choices=list(verify.TABLES))
    tab.add_argument("--nmax", type=int)
    tab.add_argument("--cmax", type=int)
    tab.add_argument("--json", action="store_true")
    tab.add_argument("--out")

    scan = sub.add_parser("scan", help="sweep the family over n")
    scan.add_argument("what", choices=["optimal-c", "drops"])
    scan.add_argument("--nmax", type=int, required=True)
    scan.add_argument("--full", action="store_true", help="report every maximizer")
    scan.add_argument("--json", action="store_true")
    scan.add_argument("--out")

    est = sub.add_parser("estimate", help="growth root and cost brackets")
    est.add_argument("--c", type=int, required=True)
    est.add_argument("--n", type=int)
    est.add_argument("--json", action="store_true")
    est.add_argument("--out")

    return top


def _parse_primes(text):
    if not text:
        raise ValueError("--primes is required for prime automata")
    return tuple(int(x) for x in text.split(","))


def _build(args):
    if args.kind == "cerny":
        if args.n is None or args.c is None:
            raise ValueError("cerny needs --n and --c")
        return cerny.build_cerny(args.n, args.c)
    if args.kind == "cerny-star":
        if args.n is None:
            raise ValueError("cerny-star needs --n")
        return cerny.build_cerny_star(args.n)
    if args.kind == "prime":
        return primes.build_prime_pfa(
            _parse_primes(args.primes), args.padding, args.transitive
        )
    if getattr(args, "path", None) is None:
        raise ValueError("kind=path needs --path FILE")
    with open(args.path, encoding="utf-8") as handle:
        return from_json(handle.read())


def _plan(n, c, cap, index):
    if c == 0:
        plans = [pawnrace.greedy_plan(n)]
    else:
        plans = pawnrace.enumerate_plans(n, c, cap)
    if not 0 <= index < len(plans):
        raise ValueError(f"plan index {index} out of range (have {len(plans)})")
    return plans[index]


def _cmd_gen(args, out):
    pfa = _build(args)
    print(to_dot(pfa) if args.dot else to_json(pfa), end="", file=out)
    print(file=out)
    return OK


def _cmd_solve(args, out):
    pfa = _build(args)
    limits = SolveLimits(max_subsets=args.cap_subsets, max_length=args.cap_length)
    try:
        result = solve(pfa, limits)
    except NotSynchronizing as exc:
        if args.json:
            print(json.dumps({"synchronizing": False, "explored": exc.explored}), file=out)
        else:
            print(f"not-synchronizing\texplored\t{exc.explored}", file=out)
        return OK
    text = format_word(pfa, result.word, pretty=args.pretty)
    if args.json:
        doc = {
            "threshold": result.threshold,
            "word": text,
            "explored": result.explored,
            "levels": result.levels,
        }
        if args.count:
            doc["count"] = result.count
        print(json.dumps(doc), file=out)
    else:
        print(f"threshold\t{result.threshold}", file=out)
        print(f"word\t{text}", file=out)
        print(f"explored\t{result.explored}", file=out)
        print(f"levels\t{result.levels}", file=out)
        if args.count:
            print(f"count\t{result.count}", file=out)
    return OK


def _cmd_race(args, out):
    n, c = args.n, args.c
    if args.what == "f":
        value = pawnrace.f_closed(n, c)
        print(json.dumps({"f": value}) if args.json else value, file=out)
        return OK
    if args.what == "count":
        if n > RACE_COUNT_MAX_N:
            print(f"resources: race count takes --n up to {RACE_COUNT_MAX_N}, not {n}",
                  file=sys.stderr)
            return RESOURCES
        value = pawnrace.count_races(n, c)
        print(json.dumps({"count": value}) if args.json else value, file=out)
        return OK
    if args.what == "enumerate":
        plans = pawnrace.enumerate_plans(n, c, args.cap_plans)
        if args.json:
            print(json.dumps([pawnrace.plan_text(p) for p in plans]), file=out)
        else:
            for i, plan in enumerate(plans):
                print(f"{i}\t{pawnrace.plan_text(plan)}", file=out)
        return OK
    if args.what == "render":
        plan = _plan(n, c, args.cap_plans, args.plan_index)
        print(pawnrace.render_race(pawnrace.simulate_race(plan, c)), end="", file=out)
        return OK
    # word: n and c name the family member; the race runs on n-c-1 pawns
    member = cerny.build_cerny(n, c)
    plan = _plan(n - c - 1, c, args.cap_plans, args.plan_index)
    word = pawnrace.build_sync_word(n, c, plan)
    text = format_word(member, word, pretty=args.pretty)
    if args.json:
        print(json.dumps({"n": n, "c": c, "length": len(word), "word": text}), file=out)
    else:
        print(text, file=out)
    return OK


def _cmd_tables(args, out):
    columns, rows, mismatches = verify.check(args.which, nmax=args.nmax, cmax=args.cmax)
    _emit_rows(args, out, rows, columns)
    for line in mismatches:
        print(line, file=out)
    return MISMATCH if mismatches else OK


def _emit_rows(args, out, rows, columns):
    """Write an iterable of row dicts as TSV or as the JSON array that
    ``json.dumps(list(rows))`` gives, a chunk of rows per write."""
    if args.json:
        rows = iter(rows)
        separator = ""
        out.write("[")
        while chunk := list(islice(rows, 4096)):
            out.write(separator + json.dumps(chunk)[1:-1])
            separator = ", "
        print("]", file=out)
    else:
        print("\t".join(columns), file=out)
        for row in rows:
            print("\t".join(str(row[col]) for col in columns), file=out)


def _cmd_scan(args, out):
    nmax = args.nmax
    if args.what == "drops":
        _emit_rows(args, out, verify.drop_rows(cerny.scan_drops(nmax)), verify.DROP_COLUMNS)
        return OK
    if args.full:
        best, argmax = cerny.scan_maximizers(nmax)
        best_c = [",".join(map(str, c)) for c in argmax]
    else:
        best, best_c = (array.tolist() for array in cerny.scan_optimal(nmax))
    rows = ({"n": n, "value": best[n], "c": best_c[n]} for n in range(2, nmax + 1))
    _emit_rows(args, out, rows, ("n", "value", "c"))
    return OK


def _cmd_estimate(args, out):
    c = args.c
    root = estimates.phi(c)
    doc = {"c": c, "phi": root.value, "residual": root.residual}
    if args.n is not None:
        n = args.n
        lo, hi, slo, shi = estimates.f_bounds(n, c)
        doc.update(
            {
                "n": n,
                "f": pawnrace.f_closed(n, c),
                "tight_lower": lo,
                "tight_upper": hi,
                "simple_lower": slo,
                "simple_upper": shi,
            }
        )
        k = pawnrace.twinverse(c, n) - 1
        if pawnrace.sequences(c, k)[0] == n and n >= 10:
            doc["leading_estimate"] = estimates.f_leading_estimate(k, c)
    if args.json:
        print(json.dumps(doc), file=out)
    else:
        for key, value in doc.items():
            print(f"{key}\t{value}", file=out)
    return OK


_HANDLERS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "race": _cmd_race,
    "tables": _cmd_tables,
    "scan": _cmd_scan,
    "estimate": _cmd_estimate,
}


def dispatch(argv) -> int:
    """Run one command line; returns the exit code instead of exiting."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else USAGE
    out_path = getattr(args, "out", None)
    context = open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout)
    try:
        with context as out:
            return _HANDLERS[args.command](args, out)
    except (LimitExceeded, pawnrace.TooManyPlans) as exc:
        print(f"resources: {exc}", file=sys.stderr)
        return RESOURCES
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main():
    sys.exit(dispatch(sys.argv[1:]))
