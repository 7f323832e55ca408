"""Benchmark of the singquandles package, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run imports the package from ``src/`` and builds the workload's inputs
from the seed, SETUPS times over; ``setup_s`` is the median of those.  It
then runs whole rounds of the workload's operations until the time spent
inside the program reaches ``--seconds``; ``wall_s`` is the median round.
Every output is checked (see workloads.py).

With ``--trace 1`` rounds alternate between untraced and traced, and the
run prints the per-layer metrics of the traced rounds instead, each given
for one set-up plus one round, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the same result,
with the set-up and round times it came from, is written to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
RESULTS = HERE / "results"
BENCHMARK = HERE.parent / "BENCHMARK.json"
SETUPS = 3


def import_package():
    """Import singquandles afresh, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "singquandles" or m.startswith("singquandles.")]:
        del sys.modules[name]
    return importlib.import_module("singquandles")


def per_layer(rec, setups, rounds):
    """The per-layer metrics that BENCHMARK.json lists, except trace.*.

    A name is a span or a counter with a suffix: ``_s`` the seconds inside
    the span's calls, ``_calls`` their number, ``_max_s`` the longest single
    call of the traced phases; no suffix, a counter.  Sums are given for
    one set-up plus one round.
    """
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    out = {}
    for name in names:
        if name.startswith("trace."):
            continue
        if name.endswith("_max_s"):
            out[name] = {"value": rec.longest.get(name[:-6], 0.0), "unit": "s"}
            continue
        for suffix, tally, unit in (("_s", rec.seconds, "s"),
                                    ("_calls", rec.calls, "count"),
                                    ("", rec.counts, "count")):
            if name.endswith(suffix):
                key = name[:len(name) - len(suffix)]
                value = (tally["setup"].get(key, 0) / setups
                         + tally["round"].get(key, 0) / rounds)
                out[name] = {"value": value, "unit": unit}
                break
    return out


def run_workload(name, seed, seconds, trace):
    sys.path[:0] = [str(SOURCE), str(HERE)]
    if not (SOURCE / "singquandles" / "__init__.py").is_file():
        print(f"error: no package at {SOURCE / 'singquandles'}", file=sys.stderr)
        return 2
    import oracles
    from recorder import Recorder
    from workloads import WORKLOADS, SetupError

    problems = oracles.self_test()
    if problems:
        print("error: oracle self-test failed: " + "; ".join(problems),
              file=sys.stderr)
        return 1

    rec = Recorder()
    rec.tracing = bool(trace)
    setup_times = []
    try:
        for _ in range(SETUPS):
            workload = None
            gc.collect()
            start = time.perf_counter()
            sq = import_package()
            workload = WORKLOADS[name](sq, random.Random(seed), rec)
            setup_times.append(time.perf_counter() - start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    coloring = sys.modules["singquandles.coloring"]
    linear = coloring.count_colorings_linear
    walls = {False: [], True: []}
    measured = 0.0
    rec.in_round = True
    while True:
        traced = bool(trace) and len(walls[False]) > len(walls[True])
        rec.tracing = traced
        if traced:
            # the linear counts that distinguish makes inside the program
            coloring.count_colorings_linear = rec.wrap(
                "smith.count_colorings_linear", linear)
        gc.collect()
        rec.wall = 0.0
        workload.round(rec)
        coloring.count_colorings_linear = linear
        walls[traced].append(rec.wall)
        measured += rec.wall
        if measured >= seconds and (not trace or walls[True]):
            break

    for line in rec.errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    if trace:
        metrics = per_layer(rec, SETUPS, len(walls[True]))
        traced_wall = statistics.median(walls[True])
        untraced_wall = statistics.median(walls[False])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall,
                                       "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    rounds = len(walls[False]) + len(walls[True])
    print(f"workload {name}: seed {seed}, {rounds} rounds, "
          f"{rec.attempted} operations attempted, {rec.failed} failed "
          f"({rec.failed - rec.unexpected} of them the known slow linear count)")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": rec.unexpected == 0, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "setup_s": setup_times,
        "round_wall_s": walls[False], "traced_round_wall_s": walls[True],
        "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a process of its own, one after another."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "invariance", "distinguish",
                                 "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        sys.path.insert(0, str(HERE))
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
