"""tools/output_digest.py hashes the checkout that --root names, or nothing,
and hashes each op's plain form apart from its --json form.

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

# A stand-in rdnorm.cli: it logs every argv, prints one line per form and
# hangs past the tool's 2 s deadline on its first call when HANG is set.
STUB_CLI = """\
import os
import time

LOG = os.path.join(os.path.dirname(__file__), "log")
calls = 0


def main(argv):
    global calls
    calls += 1
    with open(LOG, "a") as f:
        f.write(" ".join(argv) + "\\n")
    if calls == 1 and {hang!r}:
        time.sleep(10)
    print("json" if "--json" in argv else {human!r})
    return 0
"""


def digest(*args):
    # PYTHONPATH names this suite's rdnorm, as the tier-1 command sets it
    src = os.path.dirname(os.path.dirname(rdnorm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, TOOL, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def stub_root(path, human, hang=False):
    package = path / "src" / "rdnorm"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI.format(human=human, hang=hang))
    return package / "log"


def test_bad_root_prints_no_digest(tmp_path):
    proc = digest("--workload", "solve", "--seed", "31",
                  "--root", str(tmp_path / "missing"))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "missing" in proc.stderr


def test_real_root_prints_one_digest_line():
    proc = digest("--workload", "sweep", "--seed", "31", "--root", ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert re.fullmatch(r"sweep 31 180 0 [0-9a-f]{64} [0-9a-f]{64}\n", proc.stdout)


def test_plain_form_has_its_own_digest(tmp_path):
    lines, logs = [], []
    for human in ("human", "other"):
        logs.append(stub_root(tmp_path / human, human))
        proc = digest("--workload", "solve", "--seed", "31",
                      "--root", str(tmp_path / human))
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines.append(proc.stdout.split())
    # the same --json output, other human lines: only the second hash moves
    assert lines[0][:5] == lines[1][:5] and lines[0][5] != lines[1][5]
    assert lines[0][2:4] == ["140", "0"]
    log = logs[0].read_text().splitlines()
    assert len(log) == 2 * 140
    assert all(j == p + " --json" for j, p in zip(log[::2], log[1::2]))


def test_no_plain_rerun_after_a_timeout(tmp_path):
    log = stub_root(tmp_path, "human", hang=True)
    proc = digest("--workload", "solve", "--seed", "31", "--root", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split()[2:4] == ["140", "1"]
    bench = os.path.join(ROOT, "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import make_ops

    runs = log.read_text().splitlines()
    # the first op's --json run timed out, so the next run is the second op's
    ops = [" ".join(op["argv"]) for op in make_ops("solve", 31, 20)]
    assert runs[:3] == [ops[0], ops[1], ops[1].removesuffix(" --json")]
    assert len(runs) == 2 * 140 - 1


def test_per_op_listing(tmp_path):
    listings = {}
    for human, hang in (("human", False), ("other", True)):
        stub_root(tmp_path / human, human, hang=hang)
        proc = digest("--workload", "solve", "--seed", "31", "--per-op",
                      "--root", str(tmp_path / human))
        assert proc.returncode == 0, proc.stderr[-2000:]
        listings[human] = [line.split() for line in proc.stdout.splitlines()]
    calm, hung = listings["human"], listings["other"]
    # one line per op, then the line a run without --per-op prints
    assert len(calm) == len(hung) == 141
    plain = digest("--workload", "solve", "--seed", "31",
                   "--root", str(tmp_path / "human"))
    assert calm[-1] == plain.stdout.split()
    assert calm[-1][2:4] == ["140", "0"] and hung[-1][2:4] == ["140", "1"]
    assert [row[0] for row in calm[:-1]] == [str(i) for i in range(140)]
    assert all(re.fullmatch(r"[0-9a-f]{64}", row[2]) for row in calm[:-1])
    # the hung op has no plain run; every other op prints the same --json
    # bytes on both roots, and only its plain hash moves
    assert hung[0][1] == "timeout" and hung[0][3:] == ["-", "-"]
    for a, b in zip(calm[1:-1], hung[1:-1]):
        assert a[1] == b[1] == a[3] == b[3] == "ok"
        assert a[2] == b[2] and a[4] != b[4]
