"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 --out FILE

Every run uses BENCHMARK.json's ``run_seconds`` and ``--trace 0``: only
the end-to-end metrics have bounds.  Spread is the distance between the
first and third quartiles of the per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median;
BENCHMARK.json's bound for each end-to-end metric is set against it.  Each seed is one ``run.py`` invocation, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import machine_info  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--out", help="write per-seed values and spreads as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(seed, {k: round(v["value"], 6) for k, v in result["metrics"].items()},
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        bound = f" bound {bounds[name]}" if name in bounds else ""
        print(f"{args.workload} {name:28s} median {median:<12.6g} spread {spread:.4f}{bound}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": 0,
                       "machine": {**machine_info(args.seeds[0]), "seed": args.seeds},
                       "summary": summary, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
