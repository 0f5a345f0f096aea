"""The benchmark harness runs end to end against this checkout.

perfbench/ reaches into rdnorm by name (the unit cache object, the
functions its layer micro-benchmarks call, the QuadInt methods its counters
wrap), so a refactor that renames one of them breaks the benchmark with a
traceback instead of a result line.  One short run per cheap workload
catches that, and one short traced run per cheap workload covers the
passes that wrap rdnorm's functions; `solve` is left out because its
timeouts alone cost seconds.

The result line must be strict JSON (no NaN or Infinity) and name exactly
the metrics BENCHMARK.json declares for its trace level.
"""

import importlib
import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _refuse(constant):
    raise ValueError(f"{constant} in the result line")


def check_result_line(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["attempted"] > 0
    declared = BENCHMARK["end_to_end" if trace == 0 else "per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)


def test_counters_count_qint_hot_paths(monkeypatch):
    """The counting pass's hooks reach QuadInt's multiply, sign test and
    radicand check; a hook that missed one would report 0 calls."""
    bench = os.path.join(ROOT, "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import tracing
    from rdnorm.qint import QuadInt, check_radicand

    # let monkeypatch put back what install() rebinds
    for attr in ("__mul__", "__rmul__", "sign_real"):
        monkeypatch.setattr(QuadInt, attr, vars(QuadInt)[attr])
    for name in tracing.ALL_MODULES:
        module = importlib.import_module(name)
        for attr, obj in list(vars(module).items()):
            if obj is check_radicand:
                monkeypatch.setattr(module, attr, obj)
    counters = tracing.Counters()
    counters.install()
    x = QuadInt(3, 1, 10)
    assert x * x == QuadInt(19, 6, 10)
    assert (x * x).sign_real() == 1
    assert all(counters.counts[key] >= 1 for key in ("mul", "sign", "radicand")), \
        counters.counts


@pytest.mark.parametrize("workload", ["sweep", "units"])
def test_short_run_ends_with_correct_result_line(workload):
    check_result_line(workload, 0)


def test_short_traced_run_reports_every_layer_metric():
    check_result_line("sweep", 1)


def test_short_traced_units_run_reports_every_layer_metric():
    # the unit computation's spans (pell, cli) are what this run reads
    check_result_line("units", 1)
