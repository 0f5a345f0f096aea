"""rdnorm's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; rdnorm is imported from its ``src``.  The
op list comes from the seed (workloads.py) and runs in a fresh interpreter
(child.py), so the unit cache and the lazy numpy import start cold.  Every
output is checked against references that do not come from rdnorm
(checks.py).  Wrong answers are printed to stderr and make the exit code 1.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same ops
again untraced, with spans and with qint counters, each in its own fresh
interpreter, plus the layer micro-benchmarks, and reports the per-layer
metrics (layers.py).  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import verdict  # noqa: E402
from child import probe  # noqa: E402
from layers import PER_LAYER_UNITS, per_layer  # noqa: E402
from workloads import DEADLINE_S, WORKLOADS, make_ops  # noqa: E402

SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170
# Reported times are scaled to this probe time (child.probe), its typical
# value on the machine the benchmark was calibrated on, using the probes
# taken within PROBE_WINDOW_S of each op.
PROBE_REF_S = 0.002
PROBE_WINDOW_S = 0.5

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "ok_ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "ok_ratio": "ratio", "rss_mb": "MB",
}


def machine_info(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for name in ("numpy", "sympy"):
        try:
            versions[name] = __import__(name).__version__
        except ImportError:
            versions[name] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "commit": _git_commit(), "seed": seed}


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _child_env() -> dict:
    """The environment of a CLI user: no thread fan-out, the default
    int-to-str limit, and bytecode caches written and used."""
    env = dict(os.environ)
    for var in ("RDNORM_THREADS", "PYTHONINTMAXSTRDIGITS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    return env


def measure_setup() -> list[float]:
    """Scaled seconds for a fresh interpreter to import rdnorm.cli, timed
    inside it (interpreter start-up is not rdnorm's), after one unmeasured
    start that writes the bytecode cache."""
    code = ("import time; start = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import rdnorm.cli; "
            "print(time.perf_counter() - start)")
    times = []
    for i in range(SETUP_RUNS + 1):
        speed = statistics.median(probe() for _ in range(3))
        proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                              capture_output=True, text=True, env=_child_env(),
                              timeout=CHILD_TIMEOUT_S)
        if i:
            times.append(float(proc.stdout) * PROBE_REF_S / speed)
    return times


def scaled_times(doc: dict) -> list[float]:
    """Op latencies in seconds at the reference probe speed.  A timed-out
    op counts unscaled, at its time to the deadline."""
    stamps = [t for t, _ in doc["probes"]]
    out = []
    for r in doc["results"]:
        if r["status"] == "timeout":
            out.append(r["s"])
            continue
        lo = bisect.bisect_left(stamps, r["t"] - PROBE_WINDOW_S)
        hi = bisect.bisect_right(stamps, r["t"] + r["s"] + PROBE_WINDOW_S)
        speed = statistics.median(d for _, d in doc["probes"][lo:hi])
        out.append(r["s"] * PROBE_REF_S / speed)
    return out


def run_child(mode: str, ops: list[dict], deadline_s: float) -> dict:
    request = json.dumps({"mode": mode, "deadline_s": deadline_s,
                          "ops": [op["argv"] for op in ops]})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")],
                          input=request, capture_output=True, text=True,
                          cwd=ROOT, env=_child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child ({mode}) exited {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout)
    if "results" in doc:
        doc["scaled_s"] = scaled_times(doc)
    return doc


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) density (midpoint rule), which
    is steadier than any single order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
            for u in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def judge(ops: list[dict], doc: dict) -> list[tuple[str, str]]:
    return [verdict(op, r) for op, r in zip(ops, doc["results"])]


def end_to_end(ops: list[dict], doc: dict, verdicts, setup: list[float]) -> dict:
    lat_ms = [s * 1e3 for s in doc["scaled_s"]]
    ok = sum(v == "ok" for v, _ in verdicts)
    wall = sum(doc["scaled_s"])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ok_ops_per_s": ok / wall,
        "op_p50_ms": quantile(lat_ms, 0.5),
        "op_p90_ms": quantile(lat_ms, 0.9),
        "ok_ratio": ok / len(ops),
        "rss_mb": doc["rss_kb"] / 1024,
    }


def report(workload: str, machine: dict, ops, plain: dict, verdicts,
           metrics: dict, units: dict, samples: dict) -> None:
    print(f"workload {workload}: {len(ops)} ops, closed loop, one client")
    print("machine: " + json.dumps(machine))
    probes = [d for _, d in plain["probes"]]
    print(f"  unscaled loop wall {plain['wall_s']:.3f} s; probe median "
          f"{statistics.median(probes) * 1e3:.3f} ms over {len(probes)} "
          f"(times below are scaled to {PROBE_REF_S * 1e3:g} ms); "
          f"peak RSS inside ops {plain['peak_rss_kb'] / 1024:.1f} MB")
    kinds = sorted({op["kind"] for op in ops})
    for kind in kinds:
        vs = [v for op, (v, _) in zip(ops, verdicts) if op["kind"] == kind]
        print(f"  {kind}: {len(vs)} ops, {vs.count('failed')} failed, "
              f"{vs.count('wrong')} wrong")
    failed = sum(v != "ok" for v, _ in verdicts)
    print(f"  fail_ratio {failed / len(ops):.4f} ({failed}/{len(ops)})")
    for name, value in metrics.items():
        count = f"n={samples[name]}" if name in samples else ""
        print(f"  {name:32s} {value:>16.6g} {units[name]:8s} {count}")
    for op, (v, detail) in zip(ops, verdicts):
        if v == "wrong":
            print(f"WRONG: {' '.join(op['argv'])[:200]}: {detail[:500]}", file=sys.stderr)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: the op list, its passes, the report and the result object."""
    ops = make_ops(workload, seed, seconds)
    deadline = DEADLINE_S[workload]
    machine = machine_info(seed)
    plain = run_child("plain", ops, deadline)
    verdicts = judge(ops, plain)
    if trace == 0:
        metrics = end_to_end(ops, plain, verdicts, measure_setup())
        units = E2E_UNITS
        samples = {"setup_s": SETUP_RUNS, "wall_s": len(ops), "ok_ops_per_s": len(ops),
                   "op_p50_ms": len(ops), "op_p90_ms": len(ops), "ok_ratio": len(ops),
                   "rss_mb": len(plain["probes"])}
    else:
        traced = run_child("spans", ops, deadline)
        counted = run_child("counts", ops, deadline)
        micro = run_child("micro", [], deadline)["micro"]
        # the traced passes must not change any answer either
        for doc in (traced, counted):
            verdicts = [max(a, b, key=lambda v: ("ok", "failed", "wrong").index(v[0]))
                        for a, b in zip(verdicts, judge(ops, doc))]
        metrics = per_layer(ops, plain, traced, counted["counts"], micro)
        units = PER_LAYER_UNITS
        samples = {}
    report(workload, machine, ops, plain, verdicts, metrics, units, samples)
    return {
        "correct": all(v != "wrong" for v, _ in verdicts),
        "attempted": len(ops),
        "failed": sum(v != "ok" for v, _ in verdicts),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "machine": machine,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rdnorm", "cli.py")):
        print(f"error: no rdnorm sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # references print units of any size

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": args.seconds, "trace": args.trace, **results}, f, indent=1)
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = dict(results[args.workload])
        del result["machine"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
