"""Paired benchmark runs of two checkouts, written to BENCH_<workload>.json.

Usage, from a checkout's root:

    python3 tools/bench_pairs.py --parent ../parent --workload units \
        --seeds 31,61 --pairs 10

The checkout that holds this script is the change.  For every seed, runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in the
parent checkout and in this one, one run at a time, ``--pairs`` times, with
T the ``run_seconds`` of this checkout's BENCHMARK.json, as
``perfbench/spread.py`` runs it.  The order alternates within the pairs
(parent first in even pairs, change first in odd ones), so a drift of the
machine's speed favours neither side.  Only the last line of each run's
stdout, its JSON result, is read.

The file holds the machine (``machine_info`` of perfbench/run.py, whose
commit is this checkout's), every run's metrics and, per seed and metric,
each side's median and quartiles (``statistics.quantiles(values, n=4)``, as
``perfbench/spread.py`` takes them) and the number of pairs the change won,
by the direction in this checkout's BENCHMARK.json.  A claimed gain
holds on a seed when the change wins at least nine pairs in ten and its
median is better than the parent's by more than the parent's
interquartile range; ``claim_holds`` records that test.  An end-to-end
metric also gets ``regressed``: the change's median is worse than the
parent's by more than the metric's ``bound`` in BENCHMARK.json, read as a
fraction of the parent's median, and ``unresolved``: the parent's
interquartile range exceeds that same fraction of its median, so the runs
spread too widely to tell a regression from noise, unless every run of the
change beats every run of the parent.  Per-layer metrics have no bound and
get neither flag.  A run that exits nonzero or reports ``correct: false``
stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(HERE, "perfbench"))

from run import machine_info  # noqa: E402


def quartiles(values: list[float]) -> dict:
    """Median and first and third quartiles of one side's values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per-metric summary of (parent, change) metric dicts, one per pair.

    better maps a metric to "lower" or "higher"; a metric without a
    direction gets its quartiles but no wins and no claim.  bounds maps a
    metric with a direction to the fraction of the parent's median by
    which the change's may be worse before it counts as regressed; the
    same fraction bounds the parent's interquartile range, past which the
    metric is unresolved unless the two sides' runs do not overlap.
    """
    summary = {}
    for name in pairs[0][0]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        entry = {"parent": quartiles(parent), "change": quartiles(change)}
        direction = better.get(name)
        if direction in ("lower", "higher"):
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
            gain = sign * (entry["parent"]["median"] - entry["change"]["median"])
            iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
            entry.update(better=direction, wins=wins, pairs=len(pairs),
                         claim_holds=10 * wins >= 9 * len(pairs) and gain > iqr)
            if bounds and name in bounds:
                limit = bounds[name] * abs(entry["parent"]["median"])
                separated = min(sign * p for p in parent) > max(sign * c for c in change)
                entry["regressed"] = -gain > limit
                entry["unresolved"] = iqr > limit and not separated
        summary[name] = entry
    return summary


def directions(bench: dict) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from a parsed BENCHMARK.json."""
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def bounds(bench: dict) -> dict[str, float]:
    """End-to-end metric name -> its bound, from a parsed BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in bench["end_to_end"]}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One run.py invocation in a checkout: its metrics as name -> value."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=root)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{root}: {workload} seed {seed} failed (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the checkout to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload; repeat for several")
    parser.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")], required=True,
                        help="comma-separated, e.g. 31,61")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out-dir", default=".", help="where BENCH_<workload>.json goes")
    args = parser.parse_args(argv)

    roots = {"parent": os.path.abspath(args.parent), "change": HERE}
    with open(os.path.join(HERE, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better, bound = directions(bench), bounds(bench)
    seconds = bench["run_seconds"]
    for workload in args.workload:
        doc = {"workload": workload, "seconds": seconds, "trace": 0,
               "machine": {**machine_info(args.seeds[0]), "seed": args.seeds},
               "seeds": {}}
        for seed in args.seeds:
            runs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"pair": i, "first": order[0]}
                for side in order:
                    run[side] = run_once(roots[side], workload, seed, seconds)
                runs.append(run)
                print(workload, seed, i, order[0], "first",
                      {side: {k: round(v, 6) for k, v in run[side].items()}
                       for side in ("parent", "change")}, flush=True)
            summary = summarize([(r["parent"], r["change"]) for r in runs], better, bound)
            doc["seeds"][str(seed)] = {"summary": summary, "runs": runs}
            for name, entry in summary.items():
                if "wins" in entry:
                    print(f"{workload} {seed} {name:14s} parent {entry['parent']['median']:<11.6g}"
                          f" change {entry['change']['median']:<11.6g}"
                          f" wins {entry['wins']}/{entry['pairs']}"
                          f" claim_holds {entry['claim_holds']}"
                          + (f" unresolved {entry['unresolved']} regressed {entry['regressed']}"
                             if "regressed" in entry else ""),
                          flush=True)
        path = os.path.join(args.out_dir, f"BENCH_{workload}.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
