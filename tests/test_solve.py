import random
import sys
from math import gcd, isqrt

import numpy as np
import pytest

from rdnorm import (
    DomainError,
    QuadInt,
    allowed_set,
    coeff_bounds,
    fundamental_unit,
    is_representable,
    is_square,
    prop_radicand,
    rd_unit,
    solve_norm,
)
from rdnorm.rdtheory import PROP_IDS
from rdnorm.reduction import _window_reps
from rdnorm.solve import (
    _NUMPY_CUTOFF,
    _norm_table,
    _scan_np,
    _scan_py,
)

from oracles import brute_oracle, canonical_rep, rep_key, window_reps


def collapse(pairs, m, eps):
    """Orbit-collapse raw (x, y) solutions onto canonical representatives."""
    reps = set()
    for x, y in pairs:
        if (x, y) != (0, 0):
            r = canonical_rep(QuadInt(x, y, m), eps)
            reps.add((r.a, r.b))
    return reps


def oracle_box(m, n, eps):
    """A box guaranteed to contain the window box, plus one eps-multiple
    when that stays affordable for the double-loop oracle."""

    a_max, b_max = coeff_bounds(m, n, eps)
    corner = QuadInt(a_max, b_max, m) * eps + QuadInt(1, 1, m)
    if corner.b <= 40:
        return corner.a, corner.b
    return isqrt(m * (b_max + 1) ** 2 + n), b_max + 1


def assert_bounds_maximal(m, n, eps):
    """(A, B) are the largest k passing the defining exact inequalities
    4*k**2*w <= n*(eps+1)**2, w = eps for A and w = m*eps for B."""
    a_max, b_max = coeff_bounds(m, n, eps)
    upper = n * (eps + 1) ** 2
    for k, weight in ((a_max, eps), (b_max, m * eps)):
        case = (m, n, eps, k)
        assert (upper - 4 * k * k * weight).sign_real() >= 0, case
        assert (upper - 4 * (k + 1) ** 2 * weight).sign_real() < 0, case


class TestCoeffBounds:
    def test_frozen_values(self):
        eps = fundamental_unit(10)
        assert coeff_bounds(10, 6, eps) == (3, 1)
        assert coeff_bounds(10, 1, eps) == (1, 0)

    def test_bound_attained_with_equality(self):
        # m=146, n=2: the representative -12 + sqrt(146) has |b| = 1, and
        # 4*1*m*eps = n*(eps+1)**2 exactly; a strict cut-off would lose it
        eps = fundamental_unit(146)
        assert 4 * 146 * eps == 2 * (eps + 1) ** 2
        assert coeff_bounds(146, 2, eps)[1] == 1

    def test_small_norm_on_t_squared_plus_1_family(self):
        for t in range(2, 50):
            m = t * t + 1
            eps = fundamental_unit(m)
            for n in range(1, 2 * t):
                assert coeff_bounds(m, n, eps)[1] <= 1

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            coeff_bounds(10, 0, fundamental_unit(10))

    def test_rejects_non_unit_or_unit_below_one(self):
        for eps in (QuadInt(4, 1, 10), QuadInt(-3, 1, 10), QuadInt(3, -1, 10),
                    QuadInt(1, 0, 10)):
            with pytest.raises(ValueError):
                coeff_bounds(10, 6, eps)

    def test_maximal_for_fundamental_units_and_squares(self):
        rng = random.Random(11)
        norms = set()
        for m in range(2, 501):
            if is_square(m):
                continue
            eps = fundamental_unit(m)
            norms.add(eps.norm())
            for n in rng.sample(range(1, 201), 8):
                assert_bounds_maximal(m, n, eps)
                assert_bounds_maximal(m, n, eps * eps)
        assert norms == {1, -1}

    def test_maximal_for_rd_units(self):
        for t in range(1, 23):
            for r in (1, -1, 2, -2):
                if abs(r) > t or t * t + r < 2:
                    continue
                eps = rd_unit(t, r)
                for n in range(1, 201):
                    assert_bounds_maximal(eps.m, n, eps)


class TestSolveNorm:
    def test_two_conjugate_orbits(self):
        sols = solve_norm(10, 6)
        assert len(sols) == 2
        eps = fundamental_unit(10)
        got = {(r.a, r.b) for r in sols.reps}
        expect = collapse([(4, 1), (4, -1)], 10, eps)
        assert got == expect
        assert all(abs(r.norm()) == 6 for r in sols.reps)

    def test_empty(self):
        assert len(solve_norm(10, 2)) == 0
        assert len(solve_norm(10, 3)) == 0

    def test_units(self):
        assert solve_norm(10, 1).reps == (QuadInt(1, 0, 10),)
        # 3 + sqrt(10) is associate to 1
        eps = fundamental_unit(10)
        assert canonical_rep(QuadInt(3, 1, 10), eps) == QuadInt(1, 0, 10)

    def test_norm_two_in_t_squared_plus_2_family(self):
        sols = solve_norm(146, 2)
        assert len(sols) >= 1
        rep = canonical_rep(QuadInt(12, 1, 146), fundamental_unit(146))
        assert rep in sols.reps

    def test_primitive_filter(self):
        # every solution of |x^2 - 10 y^2| = 36 has a common factor
        assert len(solve_norm(10, 36)) > 0
        assert len(solve_norm(10, 36, primitive_only=True)) == 0
        # primitive orbits survive
        assert len(solve_norm(10, 6, primitive_only=True)) == 2

    def test_sorted_deterministically(self):
        reps = solve_norm(79, 15).reps
        keys = [(abs(r.b), abs(r.a)) for r in reps]
        assert keys == sorted(keys)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_norm(10, 0)
        # rejected before the long unit computation of a huge m
        with pytest.raises(DomainError):
            solve_norm(123456789012345678901234567891, 0)
        with pytest.raises(ValueError):
            solve_norm(9, 5)
        # a unit of Z[sqrt(2)] cannot bound the orbits of Z[sqrt(79)]
        with pytest.raises(ValueError):
            solve_norm(79, 15, eps=fundamental_unit(2))
        with pytest.raises(ValueError):
            is_representable(79, 15, eps=fundamental_unit(2))

    def test_conjugate_symmetry(self):
        for n in (1, 6, 9, 10, 15, 41):
            sols = solve_norm(79, n) if is_representable(79, n) else None
            if sols is None:
                continue
            eps = sols.eps
            got = {(r.a, r.b) for r in sols.reps}
            for r in sols.reps:
                c = canonical_rep(r.conj(), eps)
                assert (c.a, c.b) in got


class TestIsRepresentable:
    def test_examples(self):
        assert is_representable(10, 6)
        assert not is_representable(10, 3)
        for m in (2, 3, 10, 146, 145):
            assert is_representable(m, 1)


class TestCanonicalRep:
    def test_orbit_invariance(self):
        eps = fundamental_unit(10)
        alpha = QuadInt(4, 1, 10)
        base = canonical_rep(alpha, eps)
        for j in range(-8, 9):
            scaled = alpha * (eps**j if j >= 0 else (-eps.conj()) ** (-j))
            assert canonical_rep(scaled, eps) == base
            assert canonical_rep(-scaled, eps) == base

    def test_window_member_is_fixed(self):
        eps = fundamental_unit(10)
        rep = canonical_rep(QuadInt(4, 1, 10), eps)
        assert canonical_rep(rep, eps) == rep


class TestBruteOracle:
    def test_examples(self):
        hits = brute_oracle(10, 6, 10, 3)
        assert (4, 1) in hits and (-4, 1) in hits
        hits = brute_oracle(10, 1, 10, 3)
        assert (1, 0) in hits and (3, 1) in hits

    def test_no_unit_logic_needed_for_empty(self):
        assert brute_oracle(10, 3, 50, 15) == []

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            brute_oracle(10, 6, -1, 3)


class TestOracleEquivalence:
    def test_small_grid(self):
        for m in (2, 3, 5, 6, 7, 10, 13, 17, 23, 79, 146):
            eps = fundamental_unit(m)
            for n in range(1, 21):
                x_max, y_max = oracle_box(m, n, eps)
                raw = brute_oracle(m, n, x_max, y_max)
                got = {(r.a, r.b) for r in solve_norm(m, n, eps=eps).reps}
                assert got == collapse(raw, m, eps), (m, n)


class TestScanPaths:
    def test_numpy_matches_python(self):
        rng = random.Random(7)
        cases = [(rng.randrange(2, 400), rng.randrange(1, 120)) for _ in range(40)]
        for m, n in cases:
            if is_square(m):
                continue
            b_max = rng.randrange(0, 30000)
            assert sorted(_scan_np(m, n, b_max)) == sorted(_scan_py(m, n, b_max))
        # one more batch past the cutoff where _scan picks the sieve, with
        # m*b**2 near 2**60, past the 53 bits a float holds exactly; each n
        # is chosen so that (a0, b0) is a hit
        rng = random.Random(8)
        for _ in range(12):
            m = rng.randrange(10**8, 10**9)
            if is_square(m):
                continue
            b_max = rng.randrange(_NUMPY_CUTOFF, 40000)
            b0 = rng.randrange(b_max // 2, b_max + 1)
            a0 = isqrt(m * b0 * b0) + rng.randrange(2)
            n = abs(a0 * a0 - m * b0 * b0)
            hits = _scan_py(m, n, b_max)
            assert (a0, b0) in hits
            assert sorted(_scan_np(m, n, b_max)) == sorted(hits)


def norm_table_from_b0(m, N, eps):
    """Reference: the sweep table walked from b = 0, row b = 0 included, so
    that it maps n to every rep of solve_norm(m, n, eps=eps); the reps come
    from the QuadInt oracle window_reps, sorted by rep_key."""
    hits = {}
    for b in range(coeff_bounds(m, N - 1, eps)[1] + 1):
        v = m * b * b
        for a in range(isqrt(max(v - N, 0)), isqrt(v + N - 1) + 1):
            n = abs(a * a - v)
            if 0 < n < N:
                hits.setdefault(n, []).append((a, b))
    return {n: window_reps(m, n, eps, hits[n]) for n in sorted(hits)}


def table_pairs(m, N, eps, keep):
    """The number of (a, b) pairs _norm_table(m, N, eps, keep) visits.

    Read from the walk's frame: a pair is counted when, at a line the frame
    runs, its local a holds another value than at the line before, b being
    the row.  A row's first pair is missed only if its a repeats the row
    before's last one, which for a rule radicand (m about t**2, N about 4t)
    needs t < 5.
    """
    code = _norm_table.__code__
    pairs = set()
    last = [None]

    def local(frame, event, arg):
        if event == "line":
            a = frame.f_locals.get("a")
            if a is not None and a != last[0]:
                pairs.add((a, frame.f_locals["b"]))
            last[0] = a
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        _norm_table(m, N, eps, keep)
    finally:
        sys.settrace(previous)
    return len(pairs)


class TestNormTable:
    """_norm_table must equal one solve_norm per n < N, its reps with b = 0
    left out, order included, and a table walked from b = 0 whose reps come
    from the QuadInt oracle."""

    @staticmethod
    def assert_matches_per_n(m, N, eps):
        """Returns the number of squares n the table has a key for."""
        table = _norm_table(m, N, eps)
        assert list(table) == sorted(table)
        assert all(0 < n < N and reps for n, reps in table.items())
        for n in range(1, N):
            # a missing key means n has no solutions with b != 0
            want = [(r.a, r.b) for r in solve_norm(m, n, eps=eps).reps if r.b]
            assert want == sorted(want, key=lambda r: rep_key(*r))
            assert table.get(n, []) == want, (m, N, n)
        return sum(is_square(n) for n in table)

    def test_rule_radicands_at_rule_thresholds(self):
        squares = 0
        for prop_id, ts in (("2.3", range(2, 60)), ("2.4", range(2, 60)),
                            ("2.5", range(12, 70)), ("2.6", range(12, 70))):
            for t in ts:
                m = prop_radicand(prop_id, t)
                N = allowed_set(prop_id, t).threshold
                squares += self.assert_matches_per_n(m, N, fundamental_unit(m))
        # the filtered comparison still reaches squares with b != 0 reps
        assert squares == 33

    def test_random_radicands_both_unit_norms(self):
        rng = random.Random(5)
        seen = {1: 0, -1: 0}
        while min(seen.values()) < 12:
            m, N = rng.randrange(2, 1000), rng.randrange(2, 200)
            if is_square(m):
                continue
            eps = fundamental_unit(m)
            if eps.a > 10**6 or seen[eps.norm()] >= 12:
                continue  # the scans' b-range grows with the unit
            seen[eps.norm()] += 1
            self.assert_matches_per_n(m, N, eps)


    def test_keep_drops_exactly_the_other_norms(self):
        for prop_id, t in (("2.3", 40), ("2.4", 5), ("2.5", 30), ("2.6", 33)):
            m = prop_radicand(prop_id, t)
            cls = allowed_set(prop_id, t)
            eps = fundamental_unit(m)
            full = _norm_table(m, cls.threshold, eps)
            for keep in (lambda n: not cls.allows(n), lambda n: n % 3 == 1):
                kept = _norm_table(m, cls.threshold, eps, keep)
                assert kept == {n: reps for n, reps in full.items() if keep(n)}
                assert list(kept) == sorted(kept)

    @pytest.mark.parametrize("prop_id", PROP_IDS)
    def test_matches_walk_from_b0_at_large_t(self, prop_id):
        for t in (10**4, 10**6, 10**8):
            m = prop_radicand(prop_id, t)
            cls = allowed_set(prop_id, t)
            eps = fundamental_unit(m)
            ref = norm_table_from_b0(m, cls.threshold, eps)
            for keep in (lambda n: True, lambda n: not cls.allows(n)):
                want = {n: [r for r in reps if r[1]] for n, reps in ref.items() if keep(n)}
                assert _norm_table(m, cls.threshold, eps, keep) == \
                    {n: reps for n, reps in want.items() if reps}, t

    @pytest.mark.parametrize("prop_id", ["2.3", "2.4"])
    def test_pairs_per_t_do_not_grow_with_t(self, prop_id):
        counts = set()
        for t in (10**2, 10**4, 10**6, 10**8):
            m = prop_radicand(prop_id, t)
            cls = allowed_set(prop_id, t)
            keep = lambda n: not cls.allows(n)
            counts.add(table_pairs(m, cls.threshold, fundamental_unit(m), keep))
        assert len(counts) == 1, counts


def reduce_then_dedup(m, eps, hits):
    """Reference _window_reps: every hit +-a + b*sqrt(m) moved into the
    window by canonical_rep, then deduplicated, as pairs in rep_key order."""
    reps = set()
    for a, b in hits:
        for x in (a, -a) if a else (0,):
            rep = canonical_rep(QuadInt(x, b, m), eps)
            reps.add((rep.a, rep.b))
    return sorted(reps, key=lambda r: rep_key(*r))


def by_row(hits):
    """Hits in the ascending (b, a) order _window_reps takes them in."""
    return sorted(hits, key=lambda h: (h[1], h[0]))


def hits_by_norm(m, n_max, b_max):
    """All (a, b) with a, b >= 0, b <= b_max and 0 < |a**2 - m*b**2| <=
    n_max, keyed by that norm: a double loop, vectorised once m*b**2 >
    n_max**2 leaves at most the two a nearest sqrt(m)*b."""
    hits = {}

    def add(a, b):
        n = abs(a * a - m * b * b)
        if 0 < n <= n_max:
            hits.setdefault(n, []).append((a, b))

    b_small = min(b_max, isqrt(n_max * n_max // m) + 1)
    for b in range(b_small + 1):
        v = m * b * b
        for a in range(isqrt(max(v - n_max, 0)), isqrt(v + n_max) + 1):
            add(a, b)
    step = 1 << 20
    for lo in range(b_small + 1, b_max + 1, step):
        b = np.arange(lo, min(lo + step, b_max + 1), dtype=np.int64)
        v = m * b * b
        root = np.sqrt(v.astype(np.float64)).astype(np.int64)
        for d in (-1, 0, 1, 2):
            a = root + d
            near = np.abs(a * a - v) <= n_max
            for x, y in zip(a[near].tolist(), b[near].tolist()):
                add(x, y)
    return hits


class TestOrbitsDifferential:
    """_window_reps keeps the hits already in the window; it must equal
    reducing every hit and deduplicating, order included."""

    def test_criterion_3_grid(self):
        norms, square_b0 = set(), 0
        for m in range(2, 401):
            if is_square(m):
                continue
            eps = fundamental_unit(m)
            norms.add(eps.norm())
            # the reference also reduces hits past each n's own bound
            by_n = hits_by_norm(m, 100, coeff_bounds(m, 100, eps)[1] + 1)
            for n, hits in by_n.items():
                b_max = coeff_bounds(m, n, eps)[1]
                for prim in (False, True):
                    ok = [h for h in hits if not prim or gcd(*h) == 1]
                    kept = by_row(h for h in ok if h[1] <= b_max)
                    got = _window_reps(m, eps, n, kept)
                    assert got == reduce_then_dedup(m, eps, ok), (m, n, prim)
                    square_b0 += any(y == 0 and x > 1 for x, y in got)
        assert norms == {1, -1}
        assert square_b0 > 0

    def test_solve_norm_on_units_squares_and_window_edge(self):
        cases = [(m, 1) for m in (2, 3, 5, 10, 13, 79, 146)]  # units
        cases += [(m, n) for m in (10, 79, 142, 146) for n in (4, 9, 36, 49)]
        cases += [(146, 2), (79, 15), (10, 6)]
        for m, n in cases:
            eps = fundamental_unit(m)
            for unit in (eps, eps * eps):
                b_max = coeff_bounds(m, n, unit)[1] + 1
                hits = _scan_py(m, n, b_max)
                for prim in (False, True):
                    ok = [h for h in hits if not prim or gcd(*h) == 1]
                    got = solve_norm(m, n, primitive_only=prim, eps=unit).reps
                    assert [(r.a, r.b) for r in got] == reduce_then_dedup(m, unit, ok), \
                        (m, n, unit)
        # the representative on the lower window edge, with |b| = B = 1
        eps = fundamental_unit(146)
        assert QuadInt(-12, 1, 146) in solve_norm(146, 2, eps=eps).reps
        assert coeff_bounds(146, 2, eps)[1] == 1
