"""Complete solver for |x**2 - m*y**2| = n up to associates.

Enumeration runs over the y-coefficient only: every solution orbit has a
window representative a + b*sqrt(m) with |b| <= B, so it suffices to
square-test m*b**2 +- n for b in [0, B] and keep the hits that lie in the
window.  For large B the square-testing is done with a residue sieve and
numpy; the pure-Python path is the reference.
A sweep over every n below some N instead walks, in one pass, each b up to
the bound for N - 1 and the few a with |a**2 - m*b**2| < N, and buckets the
hits by n (_norm_table).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from math import gcd, isqrt

from .pell import fundamental_unit
from .qint import DomainError, QuadInt, Record, _sgn, sign_ab
from .reduction import _check_reducer, _in_window, reduce_window

# Smallest b-range scanned with numpy.  Not the break-even point: in a warm
# process (2-core Xeon VM, Python 3.11.7, numpy 2.4.6; median of 30 random
# m < 3e4, n < 1000 per B) the two scans tie near B = 450, take about 0.27
# vs 0.21 ms at B = 512 and 2.2-2.9 vs 0.21 ms at B = 4096.  The first
# numpy call in a process also pays its import, about 150 ms.
_NUMPY_CUTOFF = 4096
_INT64_LIMIT = 2**62


def coeff_bounds(m: int, n: int, eps: QuadInt) -> tuple[int, int]:
    """Largest coefficients a window representative of norm +-n can have.

    Returns (A, B) with every reduced solution satisfying |a| <= A and
    |b| <= B: the largest values with 4*A**2*eps <= n*(eps+1)**2 and
    4*B**2*m*eps <= n*(eps+1)**2.  Dividing by eps leaves
    n*(2 + eps + 1/eps), which is 2n*(a+1) for a unit a + b*sqrt(m) of norm
    +1 and 2n + 2n*b*sqrt(m) for norm -1 (Nagell's bound); 4*A**2 and
    4*B**2*m are integers, so both tests are decided exactly against the
    floor s of that value.  The tests must be non-strict: both bounds are
    attained with equality by window representatives at the lower window
    edge (e.g. m=146, n=2, representative -12 + sqrt(146)).
    """
    if n < 1:
        raise DomainError("n must be positive")
    if eps.m != m:
        raise DomainError(f"unit {eps} does not lie in Z[sqrt({m})]")
    _check_reducer(eps)
    if eps.norm() == 1:
        s = 2 * n * (eps.a + 1)
    else:
        s = 2 * n + isqrt(4 * n * n * eps.b * eps.b * eps.m)
    return isqrt(s // 4), isqrt(s // (4 * m))


# -- square-testing scans ----------------------------------------------------


def _scan_py(m: int, n: int, b_max: int) -> list[tuple[int, int]]:
    """All (a, b) with 0 <= b <= b_max, a >= 0 and m*b**2 +- n = a**2."""
    hits = []
    for b in range(b_max + 1):
        v = m * b * b
        for s in (n, -n):
            w = v + s
            if w >= 0:
                a = isqrt(w)
                if a * a == w:
                    hits.append((a, b))
    return hits


def _scan_np(m: int, n: int, b_max: int) -> list[tuple[int, int]]:
    """Sieved numpy version of _scan_py; identical output.

    For each sign, b survives mod 4032 = lcm(64, 63) and mod 65 only if
    m*b**2 + s is a square residue; survivors (a couple of percent) get the
    exact float-sqrt-plus-fixup test.
    """
    import numpy as np

    sq64, sq63, sq65 = _build_tables()
    hits = []
    span = np.arange(4032, dtype=np.int64)
    chunk_groups = max(1, (1 << 21) // 4032)
    for s in (n, -n):
        vals = (m * span * span + s) % 4032
        lead = np.flatnonzero(
            sq64[vals & 63] & sq63[vals % 63]
        ).astype(np.int64)
        for g0 in range(0, b_max // 4032 + 1, chunk_groups):
            g1 = min(g0 + chunk_groups, b_max // 4032 + 1)
            b = (
                np.arange(g0, g1, dtype=np.int64)[:, None] * 4032 + lead
            ).ravel()
            b = b[b <= b_max]
            w = m * b * b + s
            keep = sq65[w % 65] & (w >= 0)
            b = b[keep]
            w = w[keep]
            a = np.sqrt(w.astype(np.float64)).astype(np.int64)
            for d in (-1, 0, 1):  # at most one offset is the exact root
                cand = a + d
                ok = (cand >= 0) & (cand * cand == w)
                hits.extend(zip(cand[ok].tolist(), b[ok].tolist()))
    hits.sort(key=lambda h: (h[1], h[0]))
    return hits


@cache
def _build_tables():
    import numpy as np

    def table(mod):
        t = np.zeros(mod, dtype=bool)
        for i in range(mod):
            t[(i * i) % mod] = True
        return t

    return table(64), table(63), table(65)


def _scan(m: int, n: int, b_max: int) -> list[tuple[int, int]]:
    if b_max >= _NUMPY_CUTOFF and m * (b_max + 1) ** 2 + n < _INT64_LIMIT:
        return _scan_np(m, n, b_max)
    return _scan_py(m, n, b_max)


# -- solution sets -----------------------------------------------------------


def canonical_rep(alpha: QuadInt, eps: QuadInt) -> QuadInt:
    """Deterministic representative of the orbit {+-alpha * eps**j}."""
    return reduce_window(alpha, eps).alpha


def _sort_key(x: QuadInt):
    return (abs(x.b), abs(x.a), -_sgn(x.b), -_sgn(x.a))


def _orbits(m: int, n: int, eps: QuadInt, hits) -> tuple[QuadInt, ...]:
    """The elements |+-a + b*sqrt(m)| over the hits (a, b) that lie in the
    window of norm n, in _sort_key order: the canonical reps, since each has
    |b| <= B (coeff_bounds).  For b = 0 both signs give the same element.
    Sign, absolute value and window test run on ints; only a kept
    candidate becomes a QuadInt."""
    e, f = eps.a, eps.b
    reps = []
    for a, b in hits:
        for x in (a, -a) if a and b else (a,):
            y = b
            if sign_ab(x, y, m) < 0:
                x, y = -x, -y
            if _in_window(x, y, m, e, f, n):
                reps.append(QuadInt(x, y, m))
    return tuple(sorted(reps, key=_sort_key))


def _norm_table(
    m: int, N: int, eps: QuadInt, keep: Callable[[int], bool] = lambda n: True
) -> dict[int, tuple[QuadInt, ...]]:
    """Orbit representatives of every norm 0 < n < N from one pass.

    Walks each b up to the bound for N - 1 and the few a with
    |a**2 - m*b**2| < N; hits past the bound of their own n are never in
    the window.  Maps n, ascending, to exactly the reps of
    solve_norm(m, n, eps=eps); an n without solutions, or for which keep(n)
    is false, has no key, and its hits are never tested.
    """
    hits: dict[int, list[tuple[int, int]]] = {}
    for b in range(coeff_bounds(m, N - 1, eps)[1] + 1):
        v = m * b * b
        for a in range(isqrt(max(v - N, 0)), isqrt(v + N - 1) + 1):
            n = abs(a * a - v)
            if 0 < n < N:
                hits.setdefault(n, []).append((a, b))
    return {n: _orbits(m, n, eps, hits[n]) for n in sorted(hits) if keep(n)}


class SolutionSet(Record):
    """Canonical orbit representatives of |x**2 - m*y**2| = n: the
    tuple reps of QuadInts, one per orbit under the fundamental unit eps."""

    __slots__ = ("m", "n", "eps", "reps")

    def __len__(self) -> int:
        return len(self.reps)

    def to_json(self) -> dict:
        return {
            "m": str(self.m),
            "n": str(self.n),
            "reps": [{"a": str(r.a), "b": str(r.b)} for r in self.reps],
            "count": len(self.reps),
        }


def solve_norm(
    m: int,
    n: int,
    primitive_only: bool = False,
    eps: QuadInt | None = None,
) -> SolutionSet:
    """Solve |x**2 - m*y**2| = n completely, up to units and sign.

    Every solution is associate to exactly one returned representative.
    With primitive_only, orbits whose coordinates share a factor are
    dropped (the gcd test runs on the raw candidate, which is equivalent
    on the whole orbit since units are primitive).
    """
    if n < 1:  # before fundamental_unit, which may take long for big m
        raise DomainError("n must be positive")
    if eps is None:
        eps = fundamental_unit(m)
    _, b_bound = coeff_bounds(m, n, eps)
    hits = [(a, b) for a, b in _scan(m, n, b_bound)
            if not primitive_only or gcd(a, b) == 1]
    return SolutionSet(m=m, n=n, eps=eps, reps=_orbits(m, n, eps, hits))


def is_representable(m: int, n: int, eps: QuadInt | None = None) -> bool:
    """True iff |x**2 - m*y**2| = n has an integer solution."""
    return len(solve_norm(m, n, eps=eps)) > 0


def brute_oracle(m: int, n: int, x_max: int, y_max: int) -> list[tuple[int, int]]:
    """All (x, y), |x| <= x_max, 0 <= y <= y_max, with |x**2 - m*y**2| = n.

    Plain double loop with no unit-group logic; the independent reference
    the solver is checked against.
    """
    if x_max < 0 or y_max < 0:
        raise DomainError("bounds must be nonnegative")
    out = []
    for y in range(y_max + 1):
        myy = m * y * y
        for x in range(-x_max, x_max + 1):
            if abs(x * x - myy) == n:
                out.append((x, y))
    return out
