"""Independent arithmetic the benchmark checks rdnorm's answers against.

Nothing here imports rdnorm.  An element a + b*sqrt(m) of Z[sqrt(m)] is a
plain (a, b) pair; every comparison of real numbers is decided with
integers.  Units and orbit sets come from sympy's ``diop_DN`` (or, where
an input is built from a unit, from the continued fraction here, which the
self-tests hold equal to sympy's); window membership, associate relations
and the sweep and witness oracles are the benchmark's own exact integer
tests.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import gcd, isqrt

# -- exact arithmetic in Z[sqrt(m)] -------------------------------------------


def sign(a: int, b: int, m: int) -> int:
    """Sign of the real number a + b*sqrt(m) for nonsquare m."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > m * b * b else sb


def mul(x: tuple[int, int], y: tuple[int, int], m: int) -> tuple[int, int]:
    return x[0] * y[0] + m * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def norm(x: tuple[int, int], m: int) -> int:
    return x[0] * x[0] - m * x[1] * x[1]


def power(x: tuple[int, int], k: int, m: int) -> tuple[int, int]:
    out = (1, 0)
    while k:
        if k & 1:
            out = mul(out, x, m)
        x = mul(x, x, m)
        k >>= 1
    return out


def inverse_unit(eps: tuple[int, int], m: int) -> tuple[int, int]:
    """eps**-1 for a unit eps: +conj(eps) for norm +1, -conj(eps) for -1."""
    return (eps[0], -eps[1]) if norm(eps, m) == 1 else (-eps[0], eps[1])


def in_window(x: tuple[int, int], eps: tuple[int, int], m: int) -> bool:
    """Exact test of sqrt(n/eps) <= x < sqrt(n*eps) with x > 0, n = |norm x|."""
    if sign(x[0], x[1], m) <= 0:
        return False
    n = abs(norm(x, m))
    sq = mul(x, x, m)
    lower = mul(sq, eps, m)
    return (sign(lower[0] - n, lower[1], m) >= 0
            and sign(n * eps[0] - sq[0], n * eps[1] - sq[1], m) > 0)


def reduce(x: tuple[int, int], eps: tuple[int, int], m: int) -> tuple[tuple[int, int], int]:
    """The canonical associate +-x*eps**j in the window, and j.

    Walks one unit power at a time, so it is only meant for elements that
    start a few powers from the window.
    """
    if x == (0, 0):
        raise ValueError("cannot reduce zero")
    if sign(x[0], x[1], m) < 0:
        x = (-x[0], -x[1])
    n = abs(norm(x, m))
    inv = inverse_unit(eps, m)
    j = 0
    while True:
        sq = mul(x, x, m)
        if sign(n * eps[0] - sq[0], n * eps[1] - sq[1], m) <= 0:
            x, j = mul(x, inv, m), j - 1
            continue
        lower = mul(sq, eps, m)
        if sign(lower[0] - n, lower[1], m) < 0:
            x, j = mul(x, eps, m), j + 1
            continue
        return x, j


# -- units ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def pell_unit(m: int) -> tuple[int, int]:
    """Smallest unit a + b*sqrt(m) > 1, from the first continued-fraction
    convergent p/q of sqrt(m) with p**2 - m*q**2 = +-1."""
    a0 = isqrt(m)
    if a0 * a0 == m or m < 2:
        raise ValueError(f"radicand {m} is not a nonsquare >= 2")
    P, Q, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    while True:
        P = a * Q - P
        Q = (m - P * P) // Q
        if Q == 1:  # p**2 - m*q**2 = +-Q
            break
        a = (a0 + P) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    if norm((p, q), m) not in (1, -1):
        raise ArithmeticError(f"convergent {p}/{q} of sqrt({m}) is not a unit")
    return p, q


@lru_cache(maxsize=None)
def sympy_unit(m: int) -> tuple[int, int]:
    """Fundamental unit from sympy: the norm -1 solution if it exists."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    for rhs in (-1, 1):
        sols = diop_DN(m, rhs)
        if sols:
            a, b = sols[0]
            return abs(int(a)), abs(int(b))
    raise ArithmeticError(f"sympy found no unit for m={m}")


@lru_cache(maxsize=None)
def cf_period(m: int) -> tuple[int, float]:
    """Period length of the continued fraction of sqrt(m), and log10 of the
    fundamental unit summed in floating point (used only to size inputs)."""
    a0 = isqrt(m)
    root = math.sqrt(m)
    P, Q = a0, m - a0 * a0
    start = (P, Q)
    length, log_unit = 0, 0.0
    while True:
        a = (a0 + P) // Q
        P = a * Q - P
        Q = (m - P * P) // Q
        length += 1
        log_unit += math.log10((P + root) / Q)
        if (P, Q) == start:
            return length, log_unit


def b_bound(m: int, n: int, eps: tuple[int, int]) -> int:
    """Largest |b| of a window representative of norm +-n (closed form of
    4*B**2*m*eps <= n*(eps + 1)**2)."""
    a, b = eps
    if norm(eps, m) == 1:
        s = 2 * n * (a + 1)
    else:
        s = 2 * n + isqrt(4 * n * n * b * b * m)
    return isqrt(s // (4 * m))


# -- orbit sets -------------------------------------------------------------------


def orbits_below(m: int, eps: tuple[int, int], n_max: int) -> dict[int, set]:
    """Canonical representatives of every orbit with 1 <= |norm| <= n_max,
    grouped by |norm|, found by direct enumeration of small elements."""
    b_max = isqrt(n_max * (2 * eps[0] + 4) // (4 * m)) + 1
    out: dict[int, set] = {}
    for b in range(b_max + 1):
        v = m * b * b
        for a in range(isqrt(max(v - n_max, 0)), isqrt(v + n_max) + 1):
            n = abs(a * a - v)
            if 1 <= n <= n_max:
                for x in ((a, b), (-a, b)):
                    out.setdefault(n, set()).add(reduce(x, eps, m)[0])
    return out


@lru_cache(maxsize=None)
def sympy_orbits(m: int, n: int, eps: tuple[int, int]) -> frozenset:
    """Canonical representatives of |x**2 - m*y**2| = n from diop_DN."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    reps = set()
    for rhs in (n, -n):
        for x, y in diop_DN(m, rhs):
            reps.add(reduce((int(x), int(y)), eps, m)[0])
    return frozenset(reps)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# -- the exclusion rules 2.3-2.6, restated --------------------------------------

# rule -> (r in m = t**2 + r, threshold, listed norms, square escape,
#          double-square escape)
RULES = {
    "2.3": (1, lambda t: 2 * t, lambda t: (), True, False),
    "2.4": (1, lambda t: 4 * t + 3, lambda t: (4 * t - 3, 2 * t), True, False),
    "2.5": (2, lambda t: 4 * t + 2,
            lambda t: (2 * t - 1, 2 * t + 1, 4 * t - 7, 4 * t - 2), True, True),
    "2.6": (-2, lambda t: 4 * t + 6,
            lambda t: (2 * t - 3, 2 * t + 3, 4 * t - 9, 4 * t - 6, 4 * t + 6),
            True, False),
}


def rule_allows(rule: str, t: int, n: int) -> bool:
    _, threshold, listed, square, double_square = RULES[rule]
    return (n >= threshold(t) or n in listed(t)
            or (square and is_square(n))
            or (double_square and is_square(2 * n)))


def rule26_generators(t: int) -> list[tuple[int, int]]:
    gens = [(t + e, s) for e in (1, -1, 2, -2) for s in (1, -1)]
    gens += [(2 * t - 1, s) for s in (2, -2)]
    gens += [(2 * t + e, s) for e in (2, -2) for s in (2, -2)]
    return gens


@lru_cache(maxsize=None)
def sweep_case(rule: str, t: int) -> tuple[int, tuple[int, int], int, frozenset]:
    """(m, unit, number of n checked, expected exceptions) for one rule at t.

    Rules 2.3-2.5: the set of representable n the rule does not allow.
    Rule 2.6: the set of (n, a, b) canonical orbits that are neither an
    integer times a unit nor associate to a listed generator.
    """
    r, threshold, _, _, _ = RULES[rule]
    m = t * t + r
    eps = sympy_unit(m)
    thr = threshold(t)
    orbits = orbits_below(m, eps, thr - 1)
    if rule != "2.6":
        return m, eps, thr - 1, frozenset(n for n in orbits if not rule_allows(rule, t, n))
    gens = {reduce(g, eps, m)[0] for g in rule26_generators(t)}
    out = set()
    for n, reps in orbits.items():
        for a, b in reps:
            g = gcd(a, b)
            if norm((a // g, b // g), m) in (1, -1) or (a, b) in gens:
                continue
            out.add((n, a, b))
    return m, eps, thr - 1, frozenset(out)


# -- class-number witness ---------------------------------------------------------


def representable(m: int, n: int, eps: tuple[int, int]) -> bool:
    """Whether |x**2 - m*y**2| = n has a solution, by scanning b up to the
    window bound (only used where that bound is tiny)."""
    for b in range(b_bound(m, n, eps) + 1):
        v = m * b * b
        if is_square(v + n) or is_square(v - n):
            return True
    return False


def expected_witness(l: int, q: int) -> dict:
    from sympy import isprime

    t = 2 * l * q
    m = t * t + 1
    eps = (t, 1)  # t + sqrt(t**2 + 1), norm -1
    if q == 2:
        splits = m % 8 == 1
    else:
        splits = pow(m % q, (q - 1) // 2, q) == 1
    checks = {
        "q_prime": bool(isprime(q)),
        "l_greater_1": l > 1,
        "q_splits": splits,
        "4q_below_2t": 4 * q < 2 * t,
        "4q_nonsquare": not is_square(4 * q),
        "norm_4q_unsolvable": not representable(m, 4 * q, eps),
        "norm_q_unsolvable": not representable(m, q, eps),
    }
    return {"l": l, "q": str(q), "t": str(t), "m": str(m),
            "checks": checks, "valid": all(checks.values())}
