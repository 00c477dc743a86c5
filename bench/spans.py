"""Span tracing for one benchmark child process, installed from outside.

``install`` replaces chosen public functions of carefulsync with wrappers,
both in their own module and wherever another carefulsync module bound the
same object by name (``from .solver import solve`` in ``cli``), plus the
CLI's per-command handlers.  Each wrapped call records a span with its
parent; a few wrappers also read counts off their arguments or results.
Nothing is written while the program runs: ``layer_totals`` derives calls
and self time per span name at the end, and the spans themselves are
returned to the runner, which writes them out.
"""

import sys
import time

# (module, function, span name); the span name's prefix is the layer
SPANNED = (
    ("pfa", "apply_word", "pfa.apply_word"),
    ("solver", "solve", "solver.solve"),
    ("solver", "count_shortest", "solver.count_shortest"),
    ("pawnrace", "f_closed", "pawnrace.f_closed"),
    ("pawnrace", "count_races", "pawnrace.count_races"),
    ("pawnrace", "enumerate_plans", "pawnrace.enumerate_plans"),
    ("pawnrace", "simulate_race", "pawnrace.simulate_race"),
    ("pawnrace", "build_sync_word", "pawnrace.build_sync_word"),
    ("cerny", "optimal_c", "cerny.optimal_c"),
    ("cerny", "scan_drops", "cerny.scan_drops"),
    ("primes", "build_prime_pfa", "primes.build_prime_pfa"),
    ("primes", "best_prime_list", "primes.best_prime_list"),
)

# called too often for a span each; counted only
COUNTED = (("cerny", "rt_formula", "cerny.rt_formula"),)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.calls = {}
        self.counts = {"pfa.letters": 0, "solver.explored": 0, "solver.levels": 0}

    def span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _letters(self, args, _result):
        self.counts["pfa.letters"] += len(args[2])

    def _solved(self, _args, result):
        self.counts["solver.explored"] += result.explored
        self.counts["solver.levels"] += result.levels

    def install(self):
        """Wrap every traced function of the already imported package."""
        package = {
            name: module for name, module in sys.modules.items()
            if name == "carefulsync" or name.startswith("carefulsync.")
        }
        observers = {"pfa.apply_word": self._letters, "solver.solve": self._solved}
        for module, fn_name, name in SPANNED + COUNTED:
            original = getattr(package["carefulsync." + module], fn_name)
            if (module, fn_name, name) in COUNTED:
                wrapped = self.counter(name, original)
            else:
                wrapped = self.span(name, original, observers.get(name))
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        handlers = package["carefulsync.cli"]._HANDLERS
        for command, handler in list(handlers.items()):
            handlers[command] = self.span("cli." + command, handler)

    def layer_totals(self):
        """Calls and self time per span name.  Self time is a span's
        duration minus the time covered by its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for (name, _parent, start, end), inner in zip(self.spans, child_time):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - inner
        for name, calls in self.calls.items():
            totals[name] = {"calls": calls, "self_s": 0.0}
        return totals
