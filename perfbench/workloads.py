"""Seeded operation lists for the benchmark's three workloads.

Every workload is a list of rdnorm CLI invocations drawn from its seed.
Inputs follow the distributions below, but each list is a *stratified*
sample, so that two seeds give lists of nearly the same cost while every
input is still random: t values are a Latin hypercube in log t, and other
inputs come from a seeded pool 20 (reductions: 200) times the size needed,
sorted by a cost proxy, one from the middle of each equal-count slice.  Classes of
inputs that behave in kind differently (solves that never finish, units
too long to print, reductions up or down) make up a fixed share of each
list, equal to their share of the whole input distribution, so that the
failure count does not depend on the seed.

- sweep: ~90% ``verify <rule> --t-min t --t-max t``, rule uniform over
  2.3-2.6, t log-uniform over [12, 1000]; the rest ``witness l q``, l in
  [2, 10] and q a prime below 10**7.
- solve: ``solve m n``, m nonsquare log-uniform over [2, 3*10**4), n
  uniform in [1, 1000].
- units: half ``unit m``, m nonsquare log-uniform over [10**3, 10**9); half
  ``reduce m a b`` with a + b*sqrt(m) = xi0 * eps**k, m nonsquare
  log-uniform over [2, 10**4), xi0 small and k of either sign, sized so
  the coefficients have log-uniform digit counts up to about 3000.
"""

from __future__ import annotations

import math
import random

from reference import b_bound, cf_period, inverse_unit, is_square, mul, pell_unit, power

WORKLOADS = ("sweep", "solve", "units")

# Ops per requested second, calibrated on the seed commit (Intel Xeon,
# 2 cores, Python 3.11) so that one pass takes about --seconds there.  The
# count depends only on --seconds, never on the clock: a faster program
# finishes the same list sooner.
OPS_PER_SECOND = {"sweep": 9.0, "solve": 7.0, "units": 80.0}
MIN_OPS = 100  # p90 then has at least ten samples beyond it

# Per-op deadline in seconds.  On solve it separates the ops that finish
# (slowest about 0.2 s, numpy import included) from those whose pure-Python
# scan runs for minutes; elsewhere it only guards the run time.
DEADLINE_S = {"sweep": 60.0, "solve": 1.0, "units": 60.0}

INT64_SCAN_LIMIT = 2**62
# Share of solve inputs with m*(B+1)**2 + n >= 2**62, where B is the window
# bound on |b|: rdnorm's numpy sieve cannot take them and its pure-Python
# scan walks 2**29 or more values of b.  Exact over the input distribution
# (every nonsquare m weighted by its log-uniform mass, every n).
HARD_SOLVE_SHARE = 0.1386
# Share of unit inputs whose fundamental unit a + b*sqrt(m) has a > 10**4300,
# past CPython's default int-to-str limit; from 40 000 seeded draws.
BIG_UNIT_SHARE = 0.0331
PRINT_LIMIT_DIGITS = 4300


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(OPS_PER_SECOND[workload] * seconds))


def make_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    """The op list: dicts with the CLI ``argv`` and the fields the checker
    needs.  Same (workload, seed, seconds), same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _MAKERS[workload](rng, op_count(workload, seconds))
    rng.shuffle(ops)
    return ops


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _nonsquare(rng: random.Random, lo: float, hi: float) -> int:
    while True:
        m = _log_uniform(rng, lo, hi)
        if not is_square(m):
            return m


POOL = 20
# The reduce inputs' cost has a long tail (small units, many digits, k < 0),
# so a pool of 20 per op still moved the list's total cost by +-7 % between
# seeds; their proxy is cheap, so their pool is ten times larger.
REDUCE_POOL = 200


def _stratified(pool: list, key, n: int) -> list:
    """The middle member of each of n equal-count slices of the sorted pool."""
    pool = sorted(pool, key=key)
    width = len(pool) / n
    return [pool[int((i + 0.5) * width)] for i in range(n)]


def _pools(draw, classify, counts: dict, factor: int = POOL) -> dict:
    """Seeded draws sorted into classes until each class has factor times
    its count."""
    pools = {c: [] for c in counts}
    while any(len(pools[c]) < factor * counts[c] for c in counts):
        item = draw()
        c = classify(item)
        if len(pools[c]) < factor * counts[c]:
            pools[c].append(item)
    return pools


def _split(total: int, share: float) -> tuple[int, int]:
    first = round(share * total)
    return first, total - first


def _sweep(rng: random.Random, n: int) -> list[dict]:
    n_witness = round(n / 10)
    n_verify = n - n_witness
    rules = ["2.3", "2.4", "2.5", "2.6"]
    counts = [n_verify // 4] * 4
    for i in rng.sample(range(4), n_verify % 4):
        counts[i] += 1
    ops = []
    for rule, count in zip(rules, counts):
        # Latin hypercube in log t: one t from each equal slice.
        for i in range(count):
            u = (i + rng.random()) / count
            t = min(1000, max(12, round(12 * (1000 / 12) ** u)))
            ops.append({"kind": "verify", "rule": rule, "t": t,
                        "argv": ["verify", rule, "--t-min", str(t),
                                 "--t-max", str(t), "--json"]})
    from sympy import prevprime

    for _ in range(n_witness):
        l = rng.randint(2, 10)
        q = int(prevprime(rng.randrange(3, 10**7)))
        ops.append({"kind": "witness", "l": l, "q": q,
                    "argv": ["witness", str(l), str(q), "--json"]})
    return ops


def _solve(rng: random.Random, n: int) -> list[dict]:
    n_hard, n_easy = _split(n, HARD_SOLVE_SHARE)

    def draw():
        m = _nonsquare(rng, 2, 3 * 10**4)
        k = rng.randint(1, 1000)
        return b_bound(m, k, pell_unit(m)), m, k

    def hard(item):
        b, m, k = item
        return m * (b + 1) ** 2 + k >= INT64_SCAN_LIMIT

    pools = _pools(draw, hard, {True: n_hard, False: n_easy})
    picked = (_stratified(pools[True], lambda p: p[0], n_hard)
              + _stratified(pools[False], lambda p: p[0], n_easy))
    return [{"kind": "solve", "m": m, "n": k, "argv": ["solve", str(m), str(k), "--json"]}
            for _, m, k in picked]


def _units(rng: random.Random, n: int) -> list[dict]:
    n_unit = n // 2
    n_big, n_small = _split(n_unit, BIG_UNIT_SHARE)

    def draw_unit():
        m = _nonsquare(rng, 10**3, 10**9)
        return cf_period(m)[1], m

    def big(item):
        return item[0] - math.log10(2) >= PRINT_LIMIT_DIGITS

    pools = _pools(draw_unit, big, {True: n_big, False: n_small})
    picked = (_stratified(pools[True], lambda p: p[0], n_big)
              + _stratified(pools[False], lambda p: p[0], n_small))
    ops = [{"kind": "unit", "m": m, "argv": ["unit", str(m), "--json"]}
           for _, m in picked]

    # reductions downwards (k < 0) cost about three times as much as upwards
    n_up, n_down = _split(n - n_unit, 0.5)

    def draw_reduce():
        m = _nonsquare(rng, 2, 10**4)
        log_unit = cf_period(m)[1]
        digits = math.exp(rng.uniform(math.log(10), math.log(3000)))
        k = max(1, round(digits / log_unit)) * rng.choice((1, -1))
        xi0 = (rng.randint(1, 9), rng.randint(-9, 9))
        # cost proxy: unit steps times coefficient digits
        return k * k * log_unit, m, k, xi0

    pools = _pools(draw_reduce, lambda item: item[2] > 0, {True: n_up, False: n_down},
                   REDUCE_POOL)
    for _, m, k, xi0 in (_stratified(pools[True], lambda p: p[0], n_up)
                         + _stratified(pools[False], lambda p: p[0], n_down)):
        eps = pell_unit(m)
        step = eps if k > 0 else inverse_unit(eps, m)
        a, b = mul(xi0, power(step, abs(k), m), m)
        ops.append({"kind": "reduce", "m": m, "k": k, "xi0": list(xi0),
                    "argv": ["reduce", str(m), str(a), str(b), "--json"]})
    return ops


_MAKERS = {"sweep": _sweep, "solve": _solve, "units": _units}
