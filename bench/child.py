"""One benchmark operation in a fresh interpreter.

Reads ``{"op": ..., "trace": bool}`` as JSON on stdin, imports carefulsync
and its CLI (timed as set-up), runs the operation through
``carefulsync.cli.dispatch`` with its stdout captured (timed as the
operation), and writes one JSON result to stdout.  The runner starts one of
these per operation, so no operation sees another's module caches or heap.
"""

import contextlib
import io
import json
import resource
import sys
import time


def run(op, modules, out):
    """Execute one operation; returns (exit code, extra facts).  A race
    word is parsed back from the captured output ``out`` and re-applied."""
    cli, cerny, pfa, primes = modules
    extra = {}
    if op["kind"] == "prime":
        values, padding, _ = primes.best_prime_list(op["n"])
        extra.update(primes=list(values), padding=padding)
        argv = ["solve", "prime", "--primes", ",".join(map(str, values))]
        return cli.dispatch(argv), extra
    rc = cli.dispatch(op["argv"])
    if op["kind"] == "word" and rc == 0:
        member = cerny.build_cerny(op["n"], op["c"])
        text = out.getvalue().strip()
        extra["reapplied"] = pfa.is_sync_word(member, pfa.parse_word(member, text))
    return rc, extra


def cache_sizes(pawnrace):
    """Entries held by the module-level memo tables after the operation."""
    sequence = list(pawnrace._caches.values())
    return {
        "pawnrace.caches": len(sequence) + len(pawnrace._f_tables) + len(pawnrace._o_tables),
        "pawnrace.cache_terms": (
            sum(len(cache._p) for cache in sequence)
            + sum(len(table) for table in pawnrace._f_tables.values())
            + sum(len(memo) for memo in pawnrace._o_tables.values())
        ),
    }


def main():
    request = json.load(sys.stdin)
    op, traced = request["op"], request["trace"]
    start = time.perf_counter()
    import carefulsync.cli
    from carefulsync import cerny, pawnrace, pfa, primes
    setup_s = time.perf_counter() - start

    tracer = None
    runner = run
    if traced:
        from spans import Tracer  # beside this script, so on sys.path

        tracer = Tracer()
        tracer.install()
        runner = tracer.span("op", run)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc, extra = runner(op, (carefulsync.cli, cerny, pfa, primes), out)
        op_s = time.perf_counter() - start

    text = out.getvalue()
    result = {
        "rc": rc,
        "out": text,
        "err": err.getvalue(),
        "setup_s": setup_s,
        "op_s": op_s,
        "output_bytes": len(text.encode("utf-8")),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": sys.modules["numpy"].__version__,
        "extra": extra,
        "caches": cache_sizes(pawnrace),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        result["counts"] = tracer.counts
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
