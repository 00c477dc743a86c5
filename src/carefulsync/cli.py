"""Command line surface: generate automata, solve them, and reproduce the
published tables (the ``tables`` subcommands recompute everything and exit
nonzero on any disagreement with the frozen reference values).

A well-formed command line is read straight off the flag table,
``_COMMANDS``: a known command and kind, then only that kind's flags spelled
in full, each with a value its type accepts that does not begin with ``-``
(none for a switch), and every required flag.  Every other line, among them
``-h``, ``--flag=value``, negative values, abbreviations and unknown flags,
goes to argparse, imported only then, which prints the help or the usage
error and sets the exit code.
"""

import json
import sys
from contextlib import nullcontext
from itertools import islice
from math import isqrt
from types import SimpleNamespace

from . import cerny, estimates, pawnrace, primes, verify
from .pfa import from_json, to_dot, to_json, format_word
from .solver import SolveLimits, LimitExceeded, NotSynchronizing, solve

OK, MISMATCH, USAGE, RESOURCES = 0, 1, 2, 3

# `count` and `enumerate` refuse more pawns, as they run count_races (as do
# `render` and `word`, through plan_at, when c > 0).  At n = 20 000
# count_races reaches 11 049 pawn counts and does 7 522 413 big-integer
# products for c = 1, 5 331 598 for c = 2 and 2 398 426 for c = 3; c = 1
# costs the most, about 34 s, against 10 s for c = 2 and 2.4 s for c = 3
# (2-vCPU VM).
RACE_COUNT_MAX_N = 20_000
# One budget for what `render` and `word` hold, checked before any plan is
# built: `render` holds a trace of n(n-1) bytes, `word` its word at one byte
# per letter (at least n'^2 for n' pawns, and more with c: 2 pawns at c = 10^7
# make 3·10^7 letters).  It is the length of `race word --n 5001 --c 0`, about
# 110 MB in 1.1 s; `race render --n 5000 --c 0`, the most pawns it allows,
# takes 80 MB in 0.55 s (2-vCPU VM).
RACE_MAX_BYTES = 25_000_000
# `gen` and `solve` build at most this many states, counted from the
# arguments before anything is built (a file read by --path is not counted).
# At the cap, `gen cerny --n 2097151 --c 1` peaks at 558 MB, 1.24 GB with
# --dot, and `gen prime` at 830 MB (2-vCPU VM).
MAX_STATES = 2**21 - 1


class _TooLarge(Exception):
    """An automaton of more than ``MAX_STATES`` states, refused unbuilt."""


def _flag(name, **spec):
    """One option: its name and its ``add_argument`` keywords."""
    return name, spec


N = _flag("--n", type=int, required=True,
          help=f"automaton size, at most {MAX_STATES} states; at that size `gen` "
               f"peaks at 558 MB as JSON, 1.24 GB with --dot")
PAWNS = _flag("--n", type=int, required=True,
              help=f"pawn count, at most {RACE_COUNT_MAX_N} for `count` and `enumerate`; "
                   f"`render` holds n(n-1) bytes, at most {RACE_MAX_BYTES}")
MEMBER = _flag("--n", type=int, required=True,
               help=f"automaton size: n - c - 1 pawns, a word of at most {RACE_MAX_BYTES} letters")
C = _flag("--c", type=int, required=True)
NMAX = _flag("--nmax", type=int, required=True)
JSON = _flag("--json", action="store_true")
PRETTY = _flag("--pretty", action="store_true", help="run-length words, e.g. b^4 a^2")
OUT = _flag("--out", help="write to this file instead of stdout")
CAP_PLANS = _flag("--cap-plans", type=int, default=1000)
PLAN_INDEX = _flag("--plan-index", type=int, default=0)
SOLVE = (_flag("--cap-subsets", type=int, default=SolveLimits.max_subsets),
         _flag("--cap-length", type=int, default=SolveLimits.max_length),
         _flag("--count", action="store_true",
               help="also print the number of shortest words, which every search counts"),
         JSON, PRETTY, OUT)
AUTOMATA = {
    "cerny": (N, C),
    "cerny-star": (N,),
    "prime": (_flag("--primes", required=True,
                    help=f"comma separated, e.g. 5,7,8,9: p + 3 states per entry p, plus the "
                         f"padding, at most {MAX_STATES}; at that size `gen prime` peaks at 830 MB"),
              _flag("--padding", type=int, default=0),
              _flag("--transitive", action="store_true")),
    "path": (_flag("--path", required=True, help="JSON automaton file"),),
}

# command -> (help, {kind: the flags its handler reads}); estimate has no kind
_COMMANDS = {
    "gen": ("emit an automaton as JSON or DOT",
            {kind: AUTOMATA[kind] + (_flag("--dot", action="store_true"), OUT)
             for kind in ("cerny", "cerny-star", "prime")}),
    "solve": ("exact shortest synchronizing word",
              {kind: flags + SOLVE for kind, flags in AUTOMATA.items()}),
    "race": ("pawn race costs, plans and words", {
        "f": (PAWNS, C, JSON, OUT),
        "count": (PAWNS, C, JSON, OUT),
        "enumerate": (PAWNS, C, CAP_PLANS, JSON, OUT),
        "render": (PAWNS, C, PLAN_INDEX, OUT),
        "word": (MEMBER, C, PLAN_INDEX, PRETTY, JSON, OUT),
    }),
    # verify.check refuses the options a table does not read
    "tables": ("reproduce a published table and diff it",
               dict.fromkeys(verify.TABLES, (_flag("--nmax", type=int),
                                             _flag("--cmax", type=int), JSON, OUT))),
    "scan": ("sweep the family over n", {
        "optimal-c": (NMAX, _flag("--full", action="store_true", help="report every maximizer"),
                      JSON, OUT),
        "drops": (NMAX, JSON, OUT),
    }),
    "estimate": ("growth root and cost brackets",
                 {None: (C, _flag("--n", type=int, help="also bracket the race cost"),
                         JSON, OUT)}),
}


def _choose(prog, name, choices, text, argv):
    """Exit as argparse does for a missing or unknown word, or for -h."""
    import argparse

    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument(name, choices=choices, help=text)
    parser.parse_args(argv)


def _read(flags, tokens):
    """The arguments of one kind's ``flags`` in ``tokens``, with the dest
    names and defaults that ``add_argument`` derives from each flag's spec,
    or None unless the tokens are well formed."""
    flags, given, tokens = dict(flags), {}, iter(tokens)
    for name in tokens:
        if name not in flags:
            return None
        spec = flags[name]
        if spec.get("action") == "store_true":
            given[name] = True
            continue
        value = next(tokens, "-")  # a missing value is refused as one
        if value.startswith("-"):
            return None
        try:
            given[name] = spec.get("type", str)(value)
        except ValueError:
            return None
    args = SimpleNamespace()
    for name, spec in flags.items():
        if name not in given and spec.get("required"):
            return None
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        setattr(args, name.lstrip("-").replace("-", "_"), given.get(name, default))
    return args


def _parse(argv):
    """Parse one command line.  The command and the kind are the first two
    words; argparse prints the help or the usage error for a missing or
    unknown one.  The kind's flags are read straight off ``_COMMANDS`` (see
    ``_read``) when well formed, and otherwise by argparse, with the parser
    of that (command, kind) alone, which prints every help text and usage
    error."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        _choose("carefulsync", "command", _COMMANDS,
                "; ".join(f"{c}: {text}" for c, (text, _) in _COMMANDS.items()), argv[:1])
    text, kinds = _COMMANDS[command]
    words = argv[:1] if None in kinds else argv[:2]
    kind = words[1] if len(words) == 2 else None
    if kind not in kinds:
        _choose(f"carefulsync {command}", "kind", kinds, text, argv[1:2])
    args = _read(kinds[kind], argv[len(words):])
    if args is None:
        import argparse

        leaf = argparse.ArgumentParser(prog=" ".join(["carefulsync", *words]),
                                       allow_abbrev=False)
        for name, spec in kinds[kind]:
            leaf.add_argument(name, **spec)
        args = leaf.parse_args(argv[len(words):])
    args.command, args.kind = command, kind
    return args


def _states(args):
    """The states that ``_build`` makes, from the arguments alone: a prime
    build has p + 3 states per entry p and its padding (0 for a file)."""
    if args.kind == "prime":
        return sum(int(p) + 3 for p in args.primes.split(",")) + args.padding
    return 0 if args.kind == "path" else args.n


def _build(args):
    states = _states(args)
    if states > MAX_STATES:
        raise _TooLarge(f"{args.command} builds at most {MAX_STATES} states, not {states}")
    if args.kind == "cerny":
        return cerny.build_cerny(args.n, args.c)
    if args.kind == "cerny-star":
        return cerny.build_cerny_star(args.n)
    if args.kind == "prime":
        plist = tuple(int(p) for p in args.primes.split(","))
        return primes.build_prime_pfa(plist, args.padding, args.transitive)
    with open(args.path, encoding="utf-8") as handle:
        return from_json(handle.read())


def _cmd_gen(args, out):
    pfa = _build(args)
    print(to_dot(pfa) if args.dot else to_json(pfa), file=out)
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
    doc = {
        "threshold": result.threshold,
        "word": format_word(pfa, result.word, pretty=args.pretty),
        "explored": result.explored,
        "levels": result.levels,
    }
    if args.count:
        doc["count"] = result.count
    _emit_record(args, out, doc)
    return OK


def _cmd_race(args, out):
    n, c = args.n, args.c
    if args.kind == "f":
        value = pawnrace.f_closed(n, c)
        print(json.dumps({"f": value}) if args.json else value, file=out)
        return OK
    if args.kind == "word":
        # n and c name the family member; the race runs on n-c-1 pawns, and
        # an optimal race makes a word of exactly rt_formula letters
        letters = cerny.rt_formula(n, c)
        if letters > RACE_MAX_BYTES:
            print(f"resources: race word makes at most {RACE_MAX_BYTES} letters, not {letters}",
                  file=sys.stderr)
            return RESOURCES
    else:
        # render takes the most pawns whose trace, n(n-1) bytes, fits the budget
        cap = (1 + isqrt(1 + 4 * RACE_MAX_BYTES)) // 2 if args.kind == "render" else RACE_COUNT_MAX_N
        if n > cap:
            print(f"resources: race {args.kind} takes --n up to {cap}, not {n}", file=sys.stderr)
            return RESOURCES
    if args.kind == "count":
        value = pawnrace.count_races(n, c)
        print(json.dumps({"count": value}) if args.json else value, file=out)
        return OK
    if args.kind == "enumerate":
        texts = pawnrace.plan_texts(pawnrace.enumerate_plans(n, c, args.cap_plans))
        if args.json:
            print(json.dumps(list(texts)), file=out)
        else:
            for i, text in enumerate(texts):
                print(f"{i}\t{text}", file=out)
        return OK
    if args.kind == "render":
        plan = pawnrace.plan_at(n, c, args.plan_index)
        out.writelines(pawnrace.render_lines(pawnrace.simulate_race(plan, c)))
        return OK
    plan = pawnrace.plan_at(n - c - 1, c, args.plan_index)
    word = pawnrace.build_sync_word(n, c, plan)
    # every member has the same two letters: label them from the smallest
    text = format_word(cerny.build_cerny(2, 0), word, pretty=args.pretty)
    if args.json:
        # the labels a, b, digits, ^ and spaces need no JSON escape, so the
        # text is written as it is, between the fields and its closing quote
        out.write(f'{{"n": {n}, "c": {c}, "length": {len(word)}, "word": "')
        out.write(text)
        out.write('"}\n')
    else:
        print(text, file=out)
    return OK


def _cmd_tables(args, out):
    columns, rows, mismatches = verify.check(args.kind, nmax=args.nmax, cmax=args.cmax)
    _emit_rows(args, out, rows, columns)
    for line in mismatches:
        print(line, file=out)
    return MISMATCH if mismatches else OK


def _emit_record(args, out, doc):
    """Write one record as ``key<TAB>value`` lines or as a JSON object."""
    if args.json:
        print(json.dumps(doc), file=out)
    else:
        print("\n".join(f"{key}\t{value}" for key, value in doc.items()), file=out)


def _emit_rows(args, out, rows, columns):
    """Write an iterable of tuples in ``columns`` order as TSV or as the
    JSON array of one object per row, a chunk of rows per write."""
    if args.json:
        out.write("[")
        encode = lambda chunk: json.dumps([dict(zip(columns, row)) for row in chunk])[1:-1]
        between, end = ", ", "]\n"
    else:
        out.write("\t".join(columns) + "\n")
        line = "\t".join(["%s"] * len(columns)) + "\n"
        encode, between, end = (lambda chunk: "".join(map(line.__mod__, chunk))), "", ""
    rows, separator = iter(rows), ""
    while chunk := list(islice(rows, 4096)):
        out.write(separator + encode(chunk))
        separator = between
    out.write(end)


def _cmd_scan(args, out):
    nmax = args.nmax
    if args.kind == "drops":
        _emit_rows(args, out, map(verify.drop_row, cerny.scan_drops(nmax)), verify.DROP_COLUMNS)
        return OK
    best, best_c, *ties = (cerny.scan_maximizers if args.full else cerny.scan_optimal)(nmax)
    rows = zip(range(2, nmax + 1), best[2:].tolist(), best_c[2:].tolist())
    if args.full:  # every maximizer, increasing
        rows = ((n, value, ",".join(map(str, [*ties[0].get(n, ()), c]))) for n, value, c in rows)
    _emit_rows(args, out, rows, ("n", "value", "c"))
    return OK


def _cmd_estimate(args, out):
    c = args.c
    root = estimates.phi(c)
    doc = {"c": c, "phi": root.value, "residual": root.residual}
    if args.n is not None:
        n = args.n
        lo, hi, slo, shi = estimates.f_bounds(n, c)
        doc.update(n=n, f=pawnrace.f_closed(n, c), tight_lower=lo, tight_upper=hi,
                   simple_lower=slo, simple_upper=shi)
        k = pawnrace.twinverse(c, n) - 1
        if pawnrace.sequences(c, k)[0] == n and n >= 10:
            doc["leading_estimate"] = estimates.f_leading_estimate(k, c)
    _emit_record(args, out, doc)
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
        args = _parse(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else USAGE
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            return _HANDLERS[args.command](args, out)
    except (LimitExceeded, pawnrace.TooManyPlans, _TooLarge) as exc:
        print(f"resources: {exc}", file=sys.stderr)
        return RESOURCES
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main():
    sys.exit(dispatch(sys.argv[1:]))
