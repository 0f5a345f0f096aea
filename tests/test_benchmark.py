"""The benchmark harness runs end to end against this checkout.

perfbench/ reaches into rdnorm by name (the unit cache object, the
functions its layer micro-benchmarks call, the QuadInt methods its counters
wrap), so a refactor that renames one of them breaks the benchmark with a
traceback instead of a result line.  One short run per cheap workload
catches that; `solve` is left out because its timeouts alone cost seconds.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["sweep", "units"])
def test_short_run_ends_with_correct_result_line(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
