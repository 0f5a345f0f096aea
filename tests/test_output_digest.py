"""tools/output_digest.py hashes the checkout that --root names, or nothing.

The tool reaches into perfbench/child.py and perfbench/workloads.py by
name, so the real-root run also turns red when a rename there breaks it.
"""

import os
import re
import subprocess
import sys

import rdnorm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "output_digest.py")


def digest(*args):
    # PYTHONPATH names this suite's rdnorm, as the tier-1 command sets it
    src = os.path.dirname(os.path.dirname(rdnorm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, TOOL, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_bad_root_prints_no_digest(tmp_path):
    proc = digest("--workload", "solve", "--seed", "31",
                  "--root", str(tmp_path / "missing"))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "missing" in proc.stderr


def test_real_root_prints_one_digest_line():
    proc = digest("--workload", "sweep", "--seed", "31", "--root", ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert re.fullmatch(r"sweep 31 180 0 [0-9a-f]{64}\n", proc.stdout)
