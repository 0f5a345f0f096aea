"""Per-layer metrics from one traced run.

Inputs: the untraced pass (per-op latencies and outputs), the span pass
(spans from tracing.py), the counting pass (qint call counts) and the
micro-benchmarks.  A span's self time is its duration minus its child
spans'; a layer's inclusive time sums its outermost spans only, so nested
calls inside one layer are not counted twice.  Metrics a workload gives no
data for (for example a t exponent without verify ops) read 0.
"""

from __future__ import annotations

import math

LAYERS = ("pell", "reduction", "solve", "rdtheory", "cli")
_VERIFY_BIT = 1 << len(LAYERS)
# reduction.digit_exponent fits reduce_window calls on inputs of at least
# this many digits; below it the per-call overhead, not the arithmetic,
# sets the time and flattens the slope.
DIGIT_EXPONENT_MIN = 300

PER_LAYER_UNITS = {
    "qint.mul_calls": "count", "qint.sign_calls": "count",
    "qint.radicand_checks": "count", "qint.mul_ns_64b": "ns",
    "qint.mul_ns_4kd": "ns", "qint.sign_ns": "ns",
    "pell.unit_calls": "count", "pell.unit_s": "s",
    "pell.unit_digits_max": "digits", "pell.cache_size": "count",
    "pell.cache_hit_ratio": "ratio", "pell.unit_ms_1e9": "ms",
    "reduction.calls": "count", "reduction.s": "s",
    "reduction.exponent_total": "count", "reduction.us_per_exponent": "us",
    "reduction.digit_exponent": "slope", "reduction.reduce_ms_k4000": "ms",
    "solve.calls": "count", "solve.s": "s", "solve.self_s": "s",
    "solve.coeff_bounds_calls": "count", "solve.coeff_bounds_s": "s",
    "solve.coeff_bounds_share": "ratio", "solve.coeff_bounds_us": "us",
    "solve.b_scanned": "count", "solve.b_per_s": "1/s",
    "solve.orbits": "count", "solve.orbit_yield": "ratio",
    "solve.canonical_rep_calls": "count",
    "rdtheory.verify_calls": "count", "rdtheory.n_checked": "count",
    "rdtheory.solves_per_t": "count", "rdtheory.self_s": "s",
    "rdtheory.ms_per_t": "ms", "rdtheory.t_exponent": "slope",
    "rdtheory.witness_calls": "count", "rdtheory.witness_s": "s",
    "cli.self_s": "s", "cli.out_bytes": "bytes", "cli.nonzero_exits": "count",
    "cli.peak_rss_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def slope(points: list[tuple[float, float, object]]) -> float:
    """Least-squares slope of log y on log x, with one intercept per group."""
    groups: dict[object, list[tuple[float, float]]] = {}
    for x, y, group in points:
        if x > 0 and y > 0:
            groups.setdefault(group, []).append((math.log(x), math.log(y)))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(p[0] for p in pts) / len(pts)
        my = sum(p[1] for p in pts) / len(pts)
        sxy += sum((p[0] - mx) * (p[1] - my) for p in pts)
        sxx += sum((p[0] - mx) ** 2 for p in pts)
    return sxy / sxx if sxx else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(ops: list[dict], plain: dict, traced: dict, counts: dict,
              micro: dict) -> dict[str, float]:
    spans = traced["spans"]
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0] * n
    # ancestor mask: one bit per layer, plus one for "inside verify_prop"
    mask = [0] * n
    layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            pname = spans[parent][0]
            mask[i] = (mask[parent] | layer_bit[pname.split(".")[0]]
                       | (_VERIFY_BIT if pname == "rdtheory.verify_prop" else 0))

    inclusive = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        layer = s[0].split(".")[0]
        self_ns[layer] += dur[i] - child[i]
        if not mask[i] & layer_bit[layer]:
            inclusive[layer] += dur[i]
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total_s(name):
        return sum(dur[i] for i in idx(name)) / 1e9

    out: dict[str, float] = {}
    out["qint.mul_calls"] = counts["mul"]
    out["qint.sign_calls"] = counts["sign"]
    out["qint.radicand_checks"] = counts["radicand"]

    units = idx("pell.fundamental_unit")
    cache = traced["unit_cache"]
    out["pell.unit_calls"] = len(units)
    out["pell.unit_s"] = inclusive["pell"] / 1e9
    bits = max((spans[i][5] for i in units if spans[i][5] is not None), default=0)
    out["pell.unit_digits_max"] = math.ceil(bits * math.log10(2))
    out["pell.cache_size"] = cache["currsize"]
    out["pell.cache_hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])

    reductions = [i for i in idx("reduction.reduce_window") if spans[i][5]]
    steps = sum(spans[i][5][0] for i in reductions)
    out["reduction.calls"] = len(idx("reduction.reduce_window"))
    out["reduction.s"] = inclusive["reduction"] / 1e9
    out["reduction.exponent_total"] = steps
    out["reduction.us_per_exponent"] = _ratio(
        out["reduction.s"] * 1e6, steps + len(reductions))
    digits = {i: spans[i][5][1] * math.log10(2) for i in reductions
              if ops[spans[i][4]]["kind"] == "reduce"}
    out["reduction.digit_exponent"] = slope([
        (d, dur[i], None) for i, d in digits.items() if d >= DIGIT_EXPONENT_MIN])

    solves = idx("solve.solve_norm")
    done = {i for i in solves if spans[i][5] is not None}
    bounds = idx("solve.coeff_bounds")
    scanned = sum(spans[i][5] + 1 for i in bounds
                  if spans[i][5] is not None and spans[i][3] in done)
    done_self_s = sum(dur[i] - child[i] for i in done) / 1e9
    out["solve.calls"] = len(solves)
    out["solve.s"] = inclusive["solve"] / 1e9
    out["solve.self_s"] = (self_ns["solve"] - sum(dur[i] - child[i] for i in bounds)) / 1e9
    out["solve.coeff_bounds_calls"] = len(bounds)
    out["solve.coeff_bounds_s"] = total_s("solve.coeff_bounds")
    out["solve.coeff_bounds_share"] = _ratio(out["solve.coeff_bounds_s"], out["solve.s"])
    out["solve.b_scanned"] = scanned
    out["solve.b_per_s"] = _ratio(scanned, done_self_s)
    out["solve.orbits"] = sum(spans[i][5] for i in done)
    out["solve.orbit_yield"] = _ratio(out["solve.orbits"], scanned)
    out["solve.canonical_rep_calls"] = len(idx("solve.canonical_rep"))

    verifies = idx("rdtheory.verify_prop")
    t_count = sum(spans[i][5][1] for i in verifies if spans[i][5])
    out["rdtheory.verify_calls"] = len(verifies)
    out["rdtheory.n_checked"] = sum(spans[i][5][0] for i in verifies if spans[i][5])
    out["rdtheory.solves_per_t"] = _ratio(
        sum(1 for i in solves if mask[i] & _VERIFY_BIT), t_count)
    out["rdtheory.self_s"] = self_ns["rdtheory"] / 1e9
    out["rdtheory.ms_per_t"] = _ratio(total_s("rdtheory.verify_prop") * 1e3, t_count)
    out["rdtheory.t_exponent"] = slope([
        (op["t"], s, op["rule"])
        for op, s in zip(ops, plain["scaled_s"]) if op["kind"] == "verify"])
    out["rdtheory.witness_calls"] = len(idx("rdtheory.class_number_witness"))
    out["rdtheory.witness_s"] = total_s("rdtheory.class_number_witness")

    out["cli.self_s"] = self_ns["cli"] / 1e9
    out["cli.out_bytes"] = sum(len(r["stdout"].encode()) for r in plain["results"])
    out["cli.nonzero_exits"] = sum(
        1 for r in plain["results"] if r["status"] in ("ok", "exit") and r["code"] != 0)
    out["cli.peak_rss_mb"] = plain["peak_rss_kb"] / 1024
    out["trace.overhead_ratio"] = sum(traced["scaled_s"]) / sum(plain["scaled_s"])
    out.update(micro)
    return out
