"""One verification path for the published tables, shared by the ``tables``
command and the acceptance suite: ``check`` recomputes one table of
``TABLES`` and returns ``(columns, rows, mismatches)``, the rows tuples in
``columns`` order, and each mismatch a line ``MISMATCH <label>: computed X,
published Y``.  The published values are read from ``tables`` at call time."""

from itertools import chain, islice
from operator import attrgetter

from . import cerny, primes, tables
from .solver import solve

DROP_COLUMNS = ("n_before", "n_after", "c_before", "c_after", "r_before", "r_after", "gap")
drop_row = attrgetter(*DROP_COLUMNS)


def _check(mismatches, label, got, expected):
    if got != expected:
        mismatches.append(f"MISMATCH {label}: computed {got}, published {expected}")


def _best_values(published, label):
    """Best family threshold per n against a published ``{n: value}``."""
    best = cerny.scan_optimal(max(published))[0].tolist()
    mismatches, rows = [], []
    for n, value in sorted(published.items()):
        _check(mismatches, label.format(n), best[n], value)
        rows.append((n, best[n]))
    return ("n", "value"), rows, mismatches


def _grid(nmax, cmax):
    best = cerny.scan_optimal(nmax)[0].tolist()
    grid = cerny.scan_grid(nmax, cmax)
    first = list(islice(grid, max(tables.GRID) - 1))  # n = 2 .. 15, the published ones
    mismatches = []
    for n, values in first:
        for c, (got, published) in enumerate(zip(values, tables.GRID.get(n, ()))):
            _check(mismatches, f"grid({n},{c})", got, published)
    rows = ((n, c, got, "*" if got == best[n] else "")
            for n, values in chain(first, grid) for c, got in enumerate(values))
    return ("n", "c", "value", "max"), rows, mismatches


def _drops(nmax):
    # the published table lists every drop up to its last track end; past
    # that, a missing row would read as a mismatch
    last = tables.DROPS[-1].track_end
    if nmax > last:
        raise ValueError(f"tables drops checks the published drops for --nmax up to {last}, "
                         f"not {nmax}; scan drops reports drops beyond that")
    events = cerny.scan_drops(nmax)
    expected = [row for row in tables.DROPS if row.n_left < nmax]
    mismatches = []
    _check(mismatches, f"drop count below {nmax}", len(events), len(expected))
    for event, row in zip(events, expected):
        label = f"drop@{row.n_left}"
        _check(mismatches, label + " n", event.n_before, row.n_left)
        _check(mismatches, label + " c", event.c_before, row.c_left)
        _check(mismatches, label + " r", event.r_before, row.r_left)
        _check(mismatches, label + " c'", event.c_after, row.c_right)
        _check(mismatches, label + " gap", event.gap, row.drop)
        if row.n_right == event.n_after:
            _check(mismatches, label + " r'", event.r_after, row.r_right)
    return DROP_COLUMNS, list(map(drop_row, events)), mismatches


def _defeat():
    family, family_c = (a.tolist() for a in cerny.scan_optimal(max(r.n for r in tables.DEFEAT)))
    mismatches, rows = [], []
    for row in tables.DEFEAT:
        best = family[row.n]
        _check(mismatches, f"defeat({row.n}) cerny", best, row.cerny_rt)
        _check(mismatches, f"defeat({row.n}) c'", family_c[row.n], row.best_c)
        plist = primes.PrimeList(row.primes)
        _check(mismatches, f"defeat({row.n}) q", plist.q, row.q)
        plain = solve(primes.build_prime_pfa(plist, row.padding, False)).threshold
        _check(mismatches, f"defeat({row.n}) rt", plain, row.rt)
        trans = solve(primes.build_prime_pfa(plist, row.padding, True)).threshold
        _check(mismatches, f"defeat({row.n}) rt-transitive", trans, row.rt_transitive)
        if plain <= best:
            mismatches.append(f"MISMATCH defeat({row.n}): {plain} does not beat {best}")
        rows.append((row.n, best, plist.q, plain, trans, ",".join(map(str, row.primes))))
    return ("n", "cerny", "q", "rt", "rt_transitive", "primes"), rows, mismatches


# table name -> (the options it reads, with their defaults; its function)
TABLES = {
    "pn2": ({}, lambda: _best_values(tables.P_N_2, "p({},2)")),
    "grid": ({"nmax": 15, "cmax": 4}, _grid),
    "conclusion": ({}, lambda: _best_values(tables.CONCLUSION, "conclusion({})")),
    "drops": ({"nmax": 1768}, _drops),
    "defeat": ({}, _defeat),
}


def check(which, **options):
    """Recompute one table against its published values.

    The rows are an iterable of tuples: a list, but for ``grid``, whose
    rows stream after its published cells were checked on the first ones.
    An option left at None takes the table's default; any other option
    that the table does not read raises ValueError.
    """
    defaults, table = TABLES[which]
    for option, value in options.items():
        if value is not None and option not in defaults:
            raise ValueError(f"tables {which} takes no --{option}")
    return table(**{o: d if options.get(o) is None else options[o] for o, d in defaults.items()})
