"""Complete solver for |x**2 - m*y**2| = n up to associates.

Enumeration runs over the y-coefficient only: every solution orbit has a
window representative a + b*sqrt(m) with |b| <= B, so it suffices to
square-test m*b**2 +- n for b in [0, B] and keep the hits that lie in the
window.  For large B the square-testing is done with a residue sieve and
numpy; the pure-Python path is the reference.
A sweep over every n below some N instead walks, in one pass, each b from 1
up to the bound for N - 1 and the few a with |a**2 - m*b**2| < N, and
buckets the hits by n (_norm_table); row b = 0 holds only squares' reps.
Both hand each norm's hits to reduction._window_reps, the package's one
window test, one call per norm, which picks the reps on plain ints: one
exact sign per hit decides which of a + b*sqrt(m) and |a - b*sqrt(m)| lie
in the window.  solve_norm wraps the reps it returns into QuadInts; a
sweep's table stays on int pairs.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from math import gcd, isqrt
from operator import itemgetter

from .pell import fundamental_unit
from .qint import DomainError, QuadInt, Record
from .reduction import _check_reducer, _window_reps

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
    _check_reducer(eps, m)
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
    """Sieved numpy version of _scan_py; the same hits.

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


def _norm_table(
    m: int, N: int, eps: QuadInt, keep: Callable[[int], bool] = lambda n: True
) -> dict[int, list[tuple[int, int]]]:
    """Orbit reps with b != 0 of every norm 0 < n < N, from one pass.

    Walks each b from 1 up to the bound for N - 1 and the few a with
    |a**2 - m*b**2| < N; hits past the bound of their own n are never in
    the window.  A hit is collected only if keep(n) holds, and each n's
    hits go to one _window_reps call.  Maps n, ascending, to exactly the
    reps of solve_norm(m, n, eps=eps) with b != 0, as (x, y) int pairs in
    the same order; an n without them has no key, nor has one with keep(n)
    false.
    Row b = 0 holds only the integer reps of the squares, which no sweep
    reads.
    """
    hits: dict[int, list[tuple[int, int]]] = {}
    for b in range(1, coeff_bounds(m, N - 1, eps)[1] + 1):
        v = m * b * b
        for a in range(isqrt(max(v - N, 0)), isqrt(v + N - 1) + 1):
            n = abs(a * a - v)
            if n < N and keep(n):  # n > 0: m is no square
                hits.setdefault(n, []).append((a, b))
    return {n: reps for n in sorted(hits) if (reps := _window_reps(m, eps, n, hits[n]))}


class SolutionSet(Record):
    """Canonical orbit representatives of |x**2 - m*y**2| = n: the
    tuple reps of QuadInts, one per orbit under the fundamental unit eps."""

    __slots__ = ("m", "n", "eps", "reps")

    def __len__(self) -> int:
        return len(self.reps)


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
    hits.sort(key=itemgetter(1, 0))
    reps = _window_reps(m, eps, n, hits)
    return SolutionSet(m=m, n=n, eps=eps,
                       reps=tuple(QuadInt(x, y, m) for x, y in reps))


def is_representable(m: int, n: int, eps: QuadInt | None = None) -> bool:
    """True iff |x**2 - m*y**2| = n has an integer solution."""
    return len(solve_norm(m, n, eps=eps)) > 0
