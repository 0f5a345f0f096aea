"""Complete solver for |x**2 - m*y**2| = n up to associates.

Enumeration runs over the y-coefficient only: every solution orbit has a
window representative a + b*sqrt(m) with |b| <= B, so it suffices to
square-test m*b**2 +- n for b in [0, B] and keep the hits that lie in the
window.  For large B the square-testing is done with a residue sieve and
numpy; the pure-Python path is the reference.
Before any of that, one odd prime may prove the equation unsolvable
(_locally_empty): m a non-residue mod a prime dividing n to an odd power,
or n a non-residue mod a prime p = 1 mod 4 dividing m.  solve_norm then
returns no reps without bounding or scanning.  B grows with the unit, so
past about n/4 an equation that no such prime decides goes to the class
walk instead (_class_hits, Lagrange-Matthews-Mollin), whose cost depends
on n and the period of sqrt(m), not on the unit's size; it hands
_window_reps hits that give the same reps in the same order as the scan.
n = 1 always scans.
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

from collections.abc import Callable, Iterator
from functools import cache
from math import gcd, isqrt
from operator import itemgetter

from .pell import fundamental_unit
from .qint import DomainError, QuadInt, Record
from .reduction import _check_reducer, _window_reps, reduce_window

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


# -- local obstructions ------------------------------------------------------

# The odd primes below 2**8, by which _odd_factors trial-divides.  A
# cofactor below 2**16 that none of them divides is 1 or a prime.
_ODD_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233,
    239, 241, 251,
)
_PROVEN_PRIME_BELOW = 2**16


def _odd_factors(k: int) -> Iterator[tuple[int, int]]:
    """(p, v_p(k)) for the odd primes p of k >= 1 below 2**8, ascending,
    then (c, 1) if the cofactor c they leave is a prime below 2**16."""
    k >>= (k & -k).bit_length() - 1
    for p in _ODD_PRIMES:
        if k < p * p:  # k is 1 or a prime
            break
        if k % p == 0:
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            yield p, e
    if 1 < k < _PROVEN_PRIME_BELOW:
        yield k, 1


def _nonresidue(a: int, p: int) -> bool:
    """Euler's criterion: a is no square mod the odd prime p, p not | a."""
    return pow(a, p >> 1, p) == p - 1


def _locally_empty(m: int, n: int) -> bool:
    """True only if one odd prime p proves x**2 - m*y**2 = +-n unsolvable.

    Either p does not divide m, m is no square mod p and v_p(n) is odd
    (p | x**2 - m*y**2 forces p | y, then p | x, so every norm has even
    v_p), or p divides m, p = 1 mod 4 and n is no square mod p (then
    neither x**2 = n nor x**2 = -n has a root mod p, as -1 is a square mod
    p).  The primes tried are those _odd_factors finds in n and in m.
    False proves nothing; the tests at 2 and modulo p**k are not made.
    """
    return any(e % 2 and m % p and _nonresidue(m, p)
               for p, e in _odd_factors(n)) or any(
        p % 4 == 1 and n % p and _nonresidue(n, p)
        for p, _ in _odd_factors(m))


# -- class walk --------------------------------------------------------------


def _pqa_solution(m: int, z: int, k: int) -> tuple[int, int] | None:
    """The first convergent pair (x, y) with |x**2 - m*y**2| = k of
    (z + sqrt(m))/k, k | z**2 - m, within its pre-period and one period,
    or None.

    With P_0 = z, Q_0 = k and G_i = k*A_i - z*B_i for the convergents
    A_i/B_i, G_i**2 - m*B_i**2 = (-1)**(i+1) * Q_(i+1) * k, so the pair is
    (G_i, B_i) at the first |Q_(i+1)| = 1, or (G_-1, B_-1) = (1, 0) for
    k = 1.  The (P, Q) states become purely periodic; the walk gives up at
    the first state seen before.
    """
    if k == 1:
        return 1, 0
    s = isqrt(m)
    P, Q = z, k
    g_prev, g, b_prev, b = -z, k, 1, 0
    seen = set()
    while (P, Q) not in seen:
        seen.add((P, Q))
        # floor((P + sqrt(m))/Q), exact as sqrt(m) lies in (s, s + 1)
        q = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        g_prev, g = g, q * g + g_prev
        b_prev, b = b, q * b + b_prev
        P = q * Q - P
        Q = (m - P * P) // Q
        if Q == 1 or Q == -1:
            return g, b
    return None


def _class_hits(m: int, n: int, eps: QuadInt) -> list[tuple[int, int]]:
    """Hits (|x|, |y|), in ascending (b, a) order, from which _window_reps
    reads every window rep of |x**2 - m*y**2| = n; no scan bound needed.

    Lagrange-Matthews-Mollin: a solution with gcd(x, y) = f is f times a
    primitive one of norm +-k, k = n/f**2, and a primitive x + y*sqrt(m)
    with x = z*y mod k generates the ideal (k, z + sqrt(m)), so the
    solutions of one root z of z**2 = m mod k form at most one orbit.  The
    continued fraction of (z + sqrt(m))/k meets that orbit within its
    pre-period and one period (_pqa_solution).  Its conjugates are the
    orbit of -z, so only 0 <= z <= k/2 are walked: for alpha in the window,
    |conj(alpha)| = n/alpha is in it too unless alpha sits on its lower
    edge, and then both orbits are one, so the hit of the reduced alpha
    gives _window_reps both reps.  Those are orbits under the fundamental
    unit; eps may be its j-th power, and then each splits into the j
    orbits of alpha times its powers 0 to j - 1.  The work is the root
    search, below n steps, plus one walk per root, whatever the unit's
    size.
    """
    unit = fundamental_unit(m)
    shifts = [QuadInt(1, 0, m)]
    while shifts[-1] * unit != eps:
        shifts.append(shifts[-1] * unit)
    hits = set()
    for f in range(1, isqrt(n) + 1):
        k, r = divmod(n, f * f)
        if r:
            continue
        for z in range(k // 2 + 1):
            if (z * z - m) % k == 0 and (xy := _pqa_solution(m, z, k)):
                found = QuadInt(f * xy[0], f * xy[1], m)
                for shift in shifts:
                    alpha = reduce_window(found * shift, eps).alpha
                    hits.add((abs(alpha.a), abs(alpha.b)))
    return sorted(hits, key=itemgetter(1, 0))


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
    else:  # coeff_bounds checks it again, but may not run
        _check_reducer(eps, m)
    if _locally_empty(m, n):  # before coeff_bounds: no bound, no scan
        return SolutionSet(m=m, n=n, eps=eps, reps=())
    # The scan tests B + 1 values of b, B**2 about n*(eps.a + 1)/(2*m)
    # (coeff_bounds); the class walk makes below n root-search steps and a
    # few period walks, whatever the unit.  It is the cheaper one from about
    # B = n/4 + 16 on: 1500 draws with m < 3e4, 1 < n <= 1000, B < 4096 and
    # no local obstruction took 32 ms so split, 169 ms all scanned and 81 ms
    # all walked (2-core Xeon VM, Python 3.11.7).  n = 1 keeps the scan for
    # now: perfbench/tests rely on `solve 2851 1` running past its
    # deadline, until ROADMAP item 1 gives them another op.
    if n > 1 and 8 * n * (eps.a + 1) >= m * (n + 64) ** 2:
        hits = _class_hits(m, n, eps)
    else:
        _, b_bound = coeff_bounds(m, n, eps)
        hits = sorted(_scan(m, n, b_bound), key=itemgetter(1, 0))
    if primitive_only:
        hits = [(a, b) for a, b in hits if gcd(a, b) == 1]
    reps = _window_reps(m, eps, n, hits)
    return SolutionSet(m=m, n=n, eps=eps,
                       reps=tuple(QuadInt(x, y, m) for x, y in reps))


def is_representable(m: int, n: int, eps: QuadInt | None = None) -> bool:
    """True iff |x**2 - m*y**2| = n has an integer solution."""
    return len(solve_norm(m, n, eps=eps)) > 0
