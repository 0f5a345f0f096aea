"""Self-tests of the benchmark's checker, references and op runner.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def run_ops(argvs: list[list[str]], deadline_s: float = 30.0) -> list[dict]:
    """Run ops in a fresh child interpreter, as the benchmark does."""
    request = json.dumps({"mode": "plain", "deadline_s": deadline_s, "ops": argvs})
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py")],
                          input=request, capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["results"]


def edited(result: dict, edit) -> dict:
    """A copy of an op result whose JSON ``result`` field went through edit."""
    doc = json.loads(result["stdout"])
    edit(doc["result"])
    return {**result, "stdout": json.dumps(doc)}


def reduce_op(m: int, xi0: tuple[int, int], k: int) -> dict:
    eps = ref.pell_unit(m)
    step = eps if k > 0 else ref.inverse_unit(eps, m)
    a, b = ref.mul(xi0, ref.power(step, abs(k), m), m)
    return {"kind": "reduce", "m": m, "k": k, "xi0": list(xi0),
            "argv": ["reduce", str(m), str(a), str(b), "--json"]}


OPS = {
    "solve": {"kind": "solve", "m": 10, "n": 6, "argv": ["solve", "10", "6", "--json"]},
    "unit": {"kind": "unit", "m": 146, "argv": ["unit", "146", "--json"]},
    "reduce": reduce_op(7, (3, -2), -40),
    "sweep": {"kind": "verify", "rule": "2.6", "t": 12,
              "argv": ["verify", "2.6", "--t-min", "12", "--t-max", "12", "--json"]},
    "witness": {"kind": "witness", "l": 2, "q": 3, "argv": ["witness", "2", "3", "--json"]},
}


@pytest.fixture(scope="module")
def results() -> dict[str, dict]:
    return dict(zip(OPS, run_ops([op["argv"] for op in OPS.values()])))


def test_correct_answers_pass(results):
    for name, op in OPS.items():
        assert checks.verdict(op, results[name]) == ("ok", ""), name


def test_sweep_rules_without_exceptions_pass():
    ops = [{"kind": "verify", "rule": rule, "t": t,
            "argv": ["verify", rule, "--t-min", str(t), "--t-max", str(t), "--json"]}
           for rule in ("2.3", "2.4", "2.5") for t in (5, 13, 40)]
    for op, result in zip(ops, run_ops([op["argv"] for op in ops])):
        assert checks.verdict(op, result)[0] == "ok", op["argv"]


def test_wrong_orbit_is_caught(results):
    def swap_for_associate(res):
        # eps * rep is in the same orbit but outside the window
        rep = (int(res["reps"][0]["a"]), int(res["reps"][0]["b"]))
        a, b = ref.mul(rep, ref.pell_unit(10), 10)
        res["reps"][0] = {"a": str(a), "b": str(b)}

    def drop_one(res):
        res["reps"].pop()
        res["count"] -= 1

    for edit in (swap_for_associate, drop_one):
        verdict = checks.verdict(OPS["solve"], edited(results["solve"], edit))
        assert verdict[0] == "wrong", edit.__name__


def test_wrong_exponent_is_caught(results):
    def shift(res):
        res["j"] += 1

    assert checks.verdict(OPS["reduce"], edited(results["reduce"], shift))[0] == "wrong"


def test_missing_sweep_exception_is_caught(results):
    def drop_one(res):
        res["exceptions"].pop()

    assert checks.verdict(OPS["sweep"], edited(results["sweep"], drop_one))[0] == "wrong"


def test_non_minimal_unit_is_caught(results):
    def square(res):
        eps = (int(res["a"]), int(res["b"]))
        a, b = ref.mul(eps, eps, 146)  # still a unit, of norm +1
        res.update(a=str(a), b=str(b), norm=1)

    assert checks.verdict(OPS["unit"], edited(results["unit"], square))[0] == "wrong"


def test_wrong_witness_check_is_caught(results):
    def flip(res):
        res["checks"]["norm_q_unsolvable"] = False
        res["valid"] = False

    assert checks.verdict(OPS["witness"], edited(results["witness"], flip))[0] == "wrong"


def test_timed_out_op_leaves_the_runner_usable():
    # solve 2851 1 scans about 2**73 values of b in pure Python
    timed_out, after = run_ops([["solve", "2851", "1", "--json"], OPS["solve"]["argv"]],
                               deadline_s=0.5)
    assert timed_out["status"] == "timeout"
    assert checks.verdict(OPS["solve"], timed_out)[0] == "failed"
    assert checks.verdict(OPS["solve"], after) == ("ok", "")


def test_overlong_argument_is_a_failed_op():
    # int() refuses more than 4300 digits, so argparse exits with usage 2
    overlong, after = run_ops([["solve", "2", "9" * 5000, "--json"], OPS["solve"]["argv"]])
    assert overlong["status"] == "exit" and overlong["code"] == 2
    assert checks.verdict(OPS["solve"], overlong)[0] == "failed"
    assert checks.verdict(OPS["solve"], after) == ("ok", "")


def test_own_units_match_sympy():
    for m in range(2, 400):
        if not ref.is_square(m):
            assert ref.pell_unit(m) == ref.sympy_unit(m), m
            a, b = ref.pell_unit(m)
            assert ref.cf_period(m)[1] == pytest.approx(math.log10(a + b * math.sqrt(m)))


def test_orbit_enumeration_matches_sympy():
    for m in [2, 3, 6, 7, 10, 13, 19, 23, 31, 46, 61, 79, 94, 146]:
        eps = ref.pell_unit(m)
        found = ref.orbits_below(m, eps, 60)
        for n in range(1, 61):
            reps = ref.sympy_orbits(m, n, eps)
            assert found.get(n, set()) == reps, (m, n)
            for a, b in reps:
                assert ref.in_window((a, b), eps, m)
                assert abs(b) <= ref.b_bound(m, n, eps)


def test_op_lists_are_seeded():
    for workload in workloads.WORKLOADS:
        first = workloads.make_ops(workload, 7, 1)
        assert first == workloads.make_ops(workload, 7, 1)
        assert first != workloads.make_ops(workload, 8, 1)
        assert len(first) >= workloads.MIN_OPS


def test_class_shares_match_the_input_distribution():
    rng = random.Random(3)
    draws = 4000
    hard = 0
    for _ in range(draws):
        m = workloads._nonsquare(rng, 2, 3 * 10**4)
        n = rng.randint(1, 1000)
        b = ref.b_bound(m, n, ref.pell_unit(m))
        hard += m * (b + 1) ** 2 + n >= workloads.INT64_SCAN_LIMIT
    big = 0
    for _ in range(draws):
        m = workloads._nonsquare(rng, 10**3, 10**9)
        big += ref.cf_period(m)[1] - math.log10(2) >= workloads.PRINT_LIMIT_DIGITS
    for count, share in ((hard, workloads.HARD_SOLVE_SHARE),
                         (big, workloads.BIG_UNIT_SHARE)):
        sd = math.sqrt(share * (1 - share) / draws)
        assert abs(count / draws - share) < 4 * sd
