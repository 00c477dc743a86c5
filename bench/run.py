"""Benchmark of the carefulsync CLI: fresh-process workloads, checked outputs.

    python3 bench/run.py --workload bfs-wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick            # every workload, small inputs

Each operation of a workload runs in its own fresh interpreter (see
``child.py``), one at a time, and a run repeats whole rounds of the
workload's operations until ``--seconds`` have passed.  With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics;
with ``--trace 1`` rounds alternate between untraced and traced, and the
metrics are the per-layer ones.  Without ``--trace`` both are run.  Every
output is checked after its round, outside the timed region, by the
independent checkers in ``checks.py``; an operation that exits non-zero or
fails a check counts as failed, and any failure makes the exit code 1.
The summary and, when traced, every span of the last traced round are
written under ``bench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
CHILD_TIMEOUT_S = 120

# The program does no linear algebra, but numpy's BLAS starts a thread pool
# on import whose start-up spin made import times bimodal (about 0.07 s or
# 0.15 s) on a 2-core machine; one BLAS thread removes that source of spread.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# metric names and units, as BENCHMARK.json declares them; the README says
# which end-to-end metric each per-layer one should move, on which workload
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _DECLARED = json.load(_handle)
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def run_child(op, traced):
    """Run one operation in a fresh interpreter; returns its result dict
    with the child's own resource usage, read by the parent, attached."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **ONE_THREAD)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD], input=json.dumps({"op": op, "trace": traced}),
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        result = {"rc": -1, "err": f"timed out after {CHILD_TIMEOUT_S} s"}
    else:
        try:
            result = json.loads(proc.stdout)
        except ValueError:
            result = {"rc": proc.returncode or -1, "err": proc.stderr}
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["rusage"] = {
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "sys_s": after.ru_stime - before.ru_stime,
        "user_s": after.ru_utime - before.ru_utime,
    }
    return result


def run_round(ops, traced):
    results = [run_child(op, traced) for op in ops]
    outputs = {op["id"]: r.get("out") for op, r in zip(ops, results) if r["rc"] == 0}
    problems = {}
    for op, r in zip(ops, results):
        found = checks.check(op, r, outputs)
        if found:
            problems[op["id"]] = found
    ok = [r for r in results if r["rc"] == 0]
    record = {
        "traced": traced,
        "attempted": len(ops),
        "failed": len(problems),
        "problems": problems,
        "setup_s": [r["setup_s"] for r in ok],
        "numpy": next((r["numpy"] for r in ok), None),
        "process.minor_faults": sum(r["rusage"]["minor_faults"] for r in results),
        "process.sys_s": sum(r["rusage"]["sys_s"] for r in results),
        "process.user_s": sum(r["rusage"]["user_s"] for r in results),
        "ops": [
            {"id": op["id"], "rc": r["rc"], "op_s": r.get("op_s"),
             "setup_s": r.get("setup_s"), "maxrss_mb": r.get("maxrss_mb")}
            for op, r in zip(ops, results)
        ],
    }
    if traced:
        record["layers"] = layer_metrics(ok)
        record["spans"] = [
            {"op": op["id"], "id": i, "parent": parent, "name": name,
             "start": start, "end": end}
            for op, r in zip(ops, results) if r["rc"] == 0
            for i, (name, parent, start, end) in enumerate(r["spans"])
        ]
    return record


def layer_metrics(results):
    """Per-layer metrics of one traced round, summed over its processes."""
    layers = {}
    counts = {"pfa.letters": 0, "solver.explored": 0, "solver.levels": 0}
    caches = {"pawnrace.caches": 0, "pawnrace.cache_terms": 0}
    for r in results:
        for name, entry in r["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            total["calls"] += entry["calls"]
            total["self_s"] += entry["self_s"]
        for table, into in ((r["counts"], counts), (r["caches"], caches)):
            for name, value in table.items():
                into[name] = into.get(name, 0) + value

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    solve_s = self_s("solver.solve")
    m = {
        "pfa.apply_word.s": self_s("pfa.apply_word"),
        "pfa.apply_word.calls": calls("pfa.apply_word"),
        "pfa.letters": counts["pfa.letters"],
        "pfa.letters_per_s": rate(counts["pfa.letters"], self_s("pfa.apply_word")),
        "solver.search.s": solve_s + self_s("solver.count_shortest"),
        "solver.calls": calls("solver.solve") + calls("solver.count_shortest"),
        "solver.explored": counts["solver.explored"],
        "solver.levels": counts["solver.levels"],
        "solver.subsets_per_s": rate(counts["solver.explored"], solve_s),
        "solver.levels_per_s": rate(counts["solver.levels"], solve_s),
        "cli.output_bytes": sum(r["output_bytes"] for r in results),
        **caches,
    }
    for name in ("pawnrace.f_closed", "cerny.optimal_c"):
        m[name + ".calls"] = calls(name)
    m["cerny.rt_formula.calls"] = calls("cerny.rt_formula")
    for name in ("pawnrace.f_closed", "pawnrace.count_races", "pawnrace.enumerate_plans",
                 "pawnrace.simulate_race", "pawnrace.build_sync_word", "cerny.scan_drops",
                 "cerny.optimal_c", "primes.build_prime_pfa", "primes.best_prime_list",
                 "cli.solve", "cli.race", "cli.tables", "cli.scan"):
        m[name + ".s"] = self_s(name)
    return m


def median(values):
    return statistics.median(values) if values else 0.0


def per_op(rounds, field):
    """Median over rounds of one field, for each operation of the round."""
    columns = zip(*(r["ops"] for r in rounds))
    return [median([op[field] for op in ops if op["rc"] == 0]) for ops in columns]


def run_workload(name, seed, seconds, traced, quick):
    ops = workloads.build(name, seed, quick)
    # untimed: compiles the package's bytecode and warms the file cache
    run_child({"kind": "cli", "argv": ["--help"]}, False)
    modes = [False, True] if traced else [False]
    rounds = []
    start = last = time.perf_counter()
    while True:
        for mode in modes:
            rounds.append(run_round(ops, mode))
        now = time.perf_counter()
        # start another cycle only if it is expected to end in time
        if quick or now + (now - last) - start > seconds:
            break
        last = now
    for r in rounds:
        for op_id, problems in r["problems"].items():
            for problem in problems:
                print(f"FAILED {name}: {op_id}: {problem}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    if traced:
        layered = [r for r in rounds if r["traced"]]
        metrics = {
            key: median([r["layers"][key] for r in layered])
            for key in layered[0]["layers"]
        }
        for key in ("process.minor_faults", "process.sys_s", "process.user_s"):
            metrics[key] = median([r[key] for r in plain])
        metrics["trace.overhead_s"] = sum(per_op(layered, "op_s")) - sum(per_op(plain, "op_s"))
        units = PER_LAYER
    else:
        # a typical round: each operation's median, so that one slow
        # process does not stand for its whole round
        metrics = {
            "wall_s": sum(per_op(plain, "op_s")),
            "setup_s": median([s for r in plain for s in r["setup_s"]]),
            "peak_rss_mb": max(per_op(plain, "maxrss_mb")),
        }
        units = END_TO_END
    summary = {
        "correct": all(r["failed"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    write_results(name, seed, traced, quick, summary, rounds)
    return summary


def stamp(rounds):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in rounds if r["numpy"]), "unknown"),
        "nproc": os.cpu_count(),
    }


def write_results(name, seed, traced, quick, summary, rounds):
    os.makedirs(RESULTS, exist_ok=True)
    base = os.path.join(RESULTS, f"{name}{'-quick' if quick else ''}-seed{seed}-trace{int(traced)}")
    spans = []
    for r in rounds:
        if r["traced"]:
            spans = r.pop("spans")
    with open(base + ".json", "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, **stamp(rounds), "summary": summary,
                   "rounds": rounds}, handle, indent=1)
    if traced:
        with open(base + "-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def report(name, summary):
    print(f"# {name}: attempted {summary['attempted']}, failed {summary['failed']}")
    for key, metric in summary["metrics"].items():
        print(f"#   {key:28s} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="small inputs, one round each")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "carefulsync", "cli.py")):
        print(f"error: no carefulsync sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for traced in modes:
            summary = run_workload(name, args.seed, args.seconds, traced, args.quick)
            report(name, summary)
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            for key, metric in summary["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined if len(names) * len(modes) > 1 else summary))
    return 1 if combined["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
