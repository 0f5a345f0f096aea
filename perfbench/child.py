"""Runs rdnorm CLI operations inside one fresh interpreter.

Usage: ``python3 perfbench/child.py`` from the checkout root, with a JSON
request on stdin: ``{"mode": ..., "deadline_s": ..., "ops": [argv, ...]}``.
Writes one JSON document to stdout.

Modes: ``plain`` (no tracing), ``spans`` and ``counts`` (the traced passes
of tracing.py) and ``micro`` (the fixed-input layer micro-benchmarks).

Each op calls ``rdnorm.cli.main(argv)`` in-process with stdout and stderr
captured, one after another (a closed loop with one client).  An op still
running at the deadline is interrupted by SIGALRM.  Between ops, at most
every PROBE_EVERY_S, a fixed speed probe runs; run.py scales op times by it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_EVERY_S = 0.1


class OpTimeout(BaseException):
    """Raised in the op by the deadline alarm; not an Exception, so no
    handler inside rdnorm can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(cli, argv: list[str], deadline_s: float) -> dict:
    """Run ``cli.main(argv)``, looked up at call time so that a traced pass's
    wrapper is used; status is ok, timeout, exit (SystemExit) or crash."""
    out, err = io.StringIO(), io.StringIO()
    status, code = "ok", None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                code = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except SystemExit as exc:
        status, code = "exit", exc.code
    except Exception as exc:  # a crash is a failed op, not a failed run
        status, code = "crash", repr(exc)
    elapsed = time.perf_counter() - start
    return {"status": status, "code": code, "t": start, "s": elapsed,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def probe() -> float:
    """Seconds for a fixed mix of interpreter and big-integer work.

    The machine's speed drifts by tens of percent within seconds when it
    is shared; op times divided by nearby probe times do not.
    """
    start = time.perf_counter()
    x, acc = 3**2000, 0
    for i in range(10000):
        acc += (x * (i + 1)) & 0xFFFF
    return time.perf_counter() - start


def run_ops(ops: list[list[str]], deadline_s: float, recorder=None) -> dict:
    import rdnorm.cli as cli

    signal.signal(signal.SIGALRM, _on_alarm)
    results, probes = [], []
    last_probe = -PROBE_EVERY_S
    start = time.perf_counter()
    rss_kb = []
    for i, argv in enumerate(ops):
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            rss_kb.append(memory_kb("VmRSS"))
            last_probe = time.perf_counter()
            probes.append((last_probe, probe()))
        if recorder is not None:
            recorder.op = i
        results.append(run_op(cli, argv, deadline_s))
    probes.append((time.perf_counter(), probe()))
    wall = time.perf_counter() - start
    return {"results": results, "probes": probes, "wall_s": wall,
            "rss_kb": statistics.median(rss_kb + [memory_kb("VmRSS")]),
            "peak_rss_kb": memory_kb("VmHWM")}


def memory_kb(field: str) -> int:
    """VmRSS (resident now) or VmHWM (peak) of this process, in KiB.

    VmHWM restarts at exec, unlike ru_maxrss, which still holds the RSS of
    the parent that forked this child; the fallback is ru_maxrss.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _per_call(fn, number: int, repeat: int = 5) -> float:
    """Median over repeats of the mean seconds per call."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return statistics.median(times)


def micro() -> dict:
    """Layer micro-benchmarks: public functions on fixed inputs."""
    from rdnorm.pell import fundamental_unit
    from rdnorm.qint import QuadInt
    from rdnorm.reduction import reduce_window
    from rdnorm.solve import coeff_bounds

    m = 2851
    x64 = QuadInt(2**63 - 25, -(2**62 + 11), m)
    y64 = QuadInt(2**62 + 3, 2**61 - 7, m)
    x4k = QuadInt(7 * 10**3999 + 1, 3 * 10**3998 + 7, m)
    y4k = QuadInt(5 * 10**3999 + 3, -(2 * 10**3998 + 9), m)
    mixed = QuadInt(53 * 2**56, -(2**56), m)  # opposite signs, |a| near |b|*sqrt(m)
    eps2 = fundamental_unit(2)
    xi = QuadInt(3, -1, 2) * eps2**4000
    eps_2851 = fundamental_unit(m)

    def cold_unit():
        fundamental_unit.cache_clear()
        fundamental_unit(10**9 + 9)

    return {
        "qint.mul_ns_64b": _per_call(lambda: x64 * y64, 20000) * 1e9,
        "qint.mul_ns_4kd": _per_call(lambda: x4k * y4k, 300) * 1e9,
        "qint.sign_ns": _per_call(mixed.sign_real, 20000) * 1e9,
        "pell.unit_ms_1e9": _per_call(cold_unit, 1, 3) * 1e3,
        "reduction.reduce_ms_k4000":
            _per_call(lambda: reduce_window(xi, eps2), 1, 3) * 1e3,
        "solve.coeff_bounds_us":
            _per_call(lambda: coeff_bounds(m, 1, eps_2851), 200) * 1e6,
    }


def main() -> int:
    request = json.load(sys.stdin)
    os.environ.pop("RDNORM_THREADS", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rdnorm.cli  # noqa: F401  (rdnorm must come from this checkout)

    src = os.path.join(ROOT, "src", "rdnorm")
    if os.path.dirname(os.path.abspath(rdnorm.cli.__file__)) != src:
        raise SystemExit(f"rdnorm imported from {rdnorm.cli.__file__}, not {src}")

    unit_cache = rdnorm.cli.fundamental_unit  # the lru_cache object itself
    mode = request["mode"]
    if mode == "micro":
        json.dump({"micro": micro()}, sys.stdout)
        return 0
    recorder = counters = None
    if mode == "spans":
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    elif mode == "counts":
        from tracing import Counters

        counters = Counters()
        counters.install()
    doc = run_ops(request["ops"], request["deadline_s"], recorder)
    if recorder is not None:
        doc["spans"] = recorder.spans
        doc["unit_cache"] = unit_cache.cache_info()._asdict()
    if counters is not None:
        doc["counts"] = counters.counts
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
