"""Verdicts on op results: ok, failed or wrong.

An op *fails* if it timed out, raised (argparse's SystemExit included) or
exited nonzero, except ``verify``'s exit 1 that reports exceptions.  An op
that exited cleanly is *wrong* if its JSON document disagrees with the
reference in reference.py.  Wrong ops count as failed too.
"""

from __future__ import annotations

import json

import reference as ref


def verdict(op: dict, result: dict) -> tuple[str, str]:
    """("ok" | "failed" | "wrong", detail) for one op's result."""
    status, code = result["status"], result["code"]
    if status != "ok":
        return "failed", f"{status}: {code}"
    if code not in ((0, 1) if op["kind"] == "verify" else (0,)):
        lines = result["stderr"].strip().splitlines()
        return "failed", f"exit {code}: {lines[-1] if lines else ''}"
    try:
        doc = json.loads(result["stdout"])
    except ValueError:
        return "wrong", "stdout is not one JSON document"
    if doc.get("command") != op["argv"][0] or doc.get("ok") is not True:
        return "wrong", f"bad envelope {str(doc)[:200]}"
    try:
        problem = _CHECKERS[op["kind"]](op, doc["result"], code)
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"malformed result: {exc!r}"
    return ("wrong", problem) if problem else ("ok", "")


def _pair(obj: dict) -> tuple[int, int]:
    return int(obj["a"]), int(obj["b"])


def check_unit(op, res, code):
    m = op["m"]
    a, b = ref.sympy_unit(m)
    want = {"m": m, "a": a, "b": b, "norm": ref.norm((a, b), m),
            "cf_period_length": ref.cf_period(m)[0]}
    got = {"m": int(res["m"]), "a": int(res["a"]), "b": int(res["b"]),
           "norm": res["norm"], "cf_period_length": res["cf_period_length"]}
    if got != want:
        return f"unit {got} != {want}"


def check_reduce(op, res, code):
    m, k, xi0 = op["m"], op["k"], tuple(op["xi0"])
    alpha, j0 = ref.reduce(xi0, ref.pell_unit(m), m)
    # the input is xi0 * eps**k, so its canonical associate is xi0's
    want = {"m": m, "j": j0 - k, "alpha": alpha, "n": abs(ref.norm(xi0, m))}
    got = {"m": int(res["m"]), "j": res["j"], "alpha": _pair(res["alpha"]),
           "n": int(res["n"])}
    if got != want:
        return f"reduce {got} != {want}"


def check_solve(op, res, code):
    m, n = op["m"], op["n"]
    reps = [_pair(r) for r in res["reps"]]
    if (int(res["m"]), int(res["n"])) != (m, n) or res["count"] != len(reps):
        return f"header {res['m']} {res['n']} count {res['count']}"
    if len(set(reps)) != len(reps):
        return f"duplicate orbits {reps}"
    want = ref.sympy_orbits(m, n, ref.pell_unit(m))
    if set(reps) != want:
        return f"orbits {sorted(reps)} != {sorted(want)}"


def check_verify(op, res, code):
    rule, t = op["rule"], op["t"]
    m, eps, checked, want = ref.sweep_case(rule, t)
    if res["prop"] != rule or res["t_range"] != [t, t] or res["checked"] != checked:
        return f"header {res['prop']} {res['t_range']} checked {res['checked']}"
    found = res["exceptions"]
    if code != (1 if want else 0):
        return f"exit {code} with {len(want)} expected exceptions"
    if any(e["t"] != t for e in found):
        return "exception at another t"
    if rule == "2.6":
        got = [(int(e["n"]), int(e["x"]), int(e["y"])) for e in found]
        if len(set(got)) != len(got) or set(got) != want:
            return f"orbit exceptions {sorted(got)} != {sorted(want)}"
        return None
    ns = [int(e["n"]) for e in found]
    if len(set(ns)) != len(ns) or set(ns) != want:
        return f"exceptions at n {sorted(ns)} != {sorted(want)}"
    for e in found:
        x, y = int(e["x"]), int(e["y"])
        if abs(ref.norm((x, y), m)) != int(e["n"]) or not ref.in_window((x, y), eps, m):
            return f"witness ({x}, {y}) for n={e['n']} is not a window representative"


def check_witness(op, res, code):
    want = ref.expected_witness(op["l"], op["q"])
    if res != want:
        return f"witness {res} != {want}"


_CHECKERS = {"unit": check_unit, "reduce": check_reduce, "solve": check_solve,
             "verify": check_verify, "witness": check_witness}
