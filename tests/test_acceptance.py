"""End-to-end acceptance gate: one test per stated criterion, each emitting
one pass/fail line (the -v status line; a human summary is also printed).

Criterion 7 is asserted exactly as stated and is expected to fail: the
coverage claim misses the norm-2 orbits, see test_criterion_07 companion.
"""

import random
from math import gcd, isqrt

import pytest

from rdnorm import (
    QuadInt,
    class_number_witness,
    coeff_bounds,
    fundamental_unit,
    is_square,
    is_unit,
    prop26_generators,
    rd_classify,
    rd_unit,
    reduce_window,
    solve_norm,
    unit_inverse,
)
from rdnorm.cli import main
from rdnorm.solve import _scan

from oracles import brute_oracle, canonical_rep, sign_real

SEED = 20260826


def _is_integer_times_unit(rep):
    """True iff rep = k * eta for an integer k and a unit eta: rep divided
    by the gcd of its coordinates is a unit."""
    g = gcd(rep.a, rep.b)
    return (rep.a // g) ** 2 - rep.m * (rep.b // g) ** 2 in (1, -1)


def _nonsquare_range(lo, hi):
    return [m for m in range(lo, hi + 1) if not is_square(m)]


def _minimal_unit_by_pell(m):
    from sympy.solvers.diophantine.diophantine import diop_DN

    for rhs in (-1, 1):
        sols = diop_DN(m, rhs)
        if sols:
            a, b = sols[0]
            return int(abs(a)), int(abs(b))
    raise AssertionError(f"no Pell solution for m={m}")


def test_criterion_01_fundamental_unit_minimality():
    """All nonsquare m in [2, 2000]: fundamental_unit is a unit > 1, minimal,
    and the closed forms of the m = t**2 + r families (|r| in {1, 2}) agree."""
    scan_cap = 10**6
    for m in _nonsquare_range(2, 2000):
        eps = fundamental_unit(m)
        assert is_unit(eps) and eps > 1
        assert (eps.a, eps.b) == _minimal_unit_by_pell(m)
        cap = min(eps.b - 1, scan_cap)
        if cap >= 1:
            smaller = [(a, b) for a, b in _scan(m, 1, cap) if b >= 1]
            assert smaller == []
        form = rd_classify(m)
        if form is not None and abs(form.r) in (1, 2):
            assert rd_unit(form.t, form.r) == eps
    print("criterion 1: PASS - unit minimality and closed forms, m in [2, 2000]")


def test_criterion_02_reduction_invariants():
    """10,000 seeded (m, xi) cases: exact window membership, squared
    coefficient bounds, idempotence and orbit invariance."""
    rng = random.Random(SEED)
    ms = _nonsquare_range(2, 360)
    for _ in range(10000):
        m = rng.choice(ms)
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**6, 10**6)
        if a == 0 and b == 0:
            a = 1
        xi = QuadInt(a, b, m)
        eps = fundamental_unit(m)
        res = reduce_window(xi, eps)
        al, n = res.alpha, res.n
        assert n == abs(al.norm()) == abs(xi.norm())
        # window membership: alpha**2 * eps - n >= 0 and n * eps - alpha**2 > 0
        assert sign_real(al * al * eps - n) >= 0
        assert sign_real(eps * n - al * al) > 0
        # squared coefficient bounds, attained with equality in edge cases
        assert sign_real((eps + 1) ** 2 * n - eps * 4 * al.a**2) >= 0
        assert sign_real((eps + 1) ** 2 * n - eps * 4 * m * al.b**2) >= 0
        again = reduce_window(al, eps)
        assert again.j == 0 and again.alpha == al
        j = rng.randint(-2, 2)
        shift = eps**j if j >= 0 else unit_inverse(eps) ** (-j)
        assert reduce_window(xi * shift * rng.choice((1, -1)), eps).alpha == al
    print("criterion 2: PASS - 10000 randomized reduction invariant cases")


def _exhaustive_norms_up_to(m, n_max, b_max):
    """All (a, b), a, b >= 0, b <= b_max, 0 < |a**2 - m*b**2| <= n_max,
    found by direct scan (isqrt for small values, vectorized above that)."""
    hits = []
    b_small = isqrt((120 * 120 + n_max) // m) + 1
    for b in range(0, min(b_small, b_max) + 1):
        v = m * b * b
        for a in range(isqrt(max(v - n_max, 0)), isqrt(v + n_max) + 1):
            if 0 < abs(a * a - v) <= n_max:
                hits.append((a, b))
    if b_max > b_small:
        import numpy as np

        bs = np.arange(b_small + 1, b_max + 1, dtype=np.int64)
        for chunk in np.array_split(bs, max(1, bs.size // (1 << 20))):
            v = m * chunk * chunk
            a_est = np.sqrt(v.astype(np.float64)).astype(np.int64)
            for d in (-2, -1, 0, 1, 2):
                a = a_est + d
                diff = a * a - v
                keep = (a >= 0) & (diff != 0) & (np.abs(diff) <= n_max)
                hits.extend(
                    (int(x), int(y)) for x, y in zip(a[keep], chunk[keep])
                )
    return hits


def test_criterion_03_oracle_equivalence():
    """All nonsquare m <= 400, n <= 100: solve_norm equals the orbit-collapsed
    output of an exhaustive independent scan (tied to brute_oracle below)."""
    # tie the batch scan to the literal double-loop oracle on a small corner
    for m in (2, 3, 10, 23):
        got = set(_exhaustive_norms_up_to(m, 20, 30))
        a_box = isqrt(m * 900) + 20
        ref = set()
        for n in range(1, 21):
            ref |= {(x, y) for x, y in brute_oracle(m, n, a_box, 30) if x >= 0}
        assert got == ref

    for m in _nonsquare_range(2, 400):
        eps = fundamental_unit(m)
        _, b_box = coeff_bounds(m, 100, eps)
        by_n = {n: set() for n in range(1, 101)}
        for a, b in _exhaustive_norms_up_to(m, 100, b_box):
            n = abs(a * a - m * b * b)
            for x, y in {(a, b), (a, -b), (-a, b), (-a, -b)}:
                if (x, y) != (0, 0):
                    r = canonical_rep(QuadInt(x, y, m), eps)
                    by_n[n].add((r.a, r.b))
        for n in range(1, 101):
            got = {(r.a, r.b) for r in solve_norm(m, n, eps=eps).reps}
            assert got == by_n[n], (m, n)
    print("criterion 3: PASS - solver matches exhaustive oracle, m <= 400, n <= 100")


def test_criterion_04_rule_23_sweep():
    """CLI sweep of the m = t**2 + 1 small-norm exclusion, t in [2, 40]."""
    assert main(["verify", "2.3", "--t-min", "2", "--t-max", "40"]) == 0
    print("criterion 4: PASS - verify 2.3 --t-min 2 --t-max 40 exits 0")


def test_criterion_05_near_root_norm_table():
    """|a**2 - m| at a in {t-1, t, t+1} equals {2t, 1, 2t} for m = t**2 + 1."""
    for t in range(2, 101):
        m = t * t + 1
        assert [abs(a * a - m) for a in (t - 1, t, t + 1)] == [2 * t, 1, 2 * t]
    print("criterion 5: PASS - near-root norm table, t in [2, 100]")


def test_criterion_06_rule_25_sweep():
    """CLI sweep of the m = t**2 + 2 exclusion, t in [12, 30]."""
    assert main(["verify", "2.5", "--t-min", "12", "--t-max", "30"]) == 0
    print("criterion 6: PASS - verify 2.5 --t-min 12 --t-max 30 exits 0")


@pytest.mark.xfail(
    strict=True,
    reason="as stated the claim is false: for every t the primitive orbit of "
    "t - sqrt(m) has norm -2 with 2 < 4t+6 but is not associate to any listed "
    "generator, and t = 12 adds a sporadic escape at n = 53",
)
def test_criterion_07_generator_coverage_as_stated():
    """t in [12, 30], m = t**2 - 2: every primitive orbit with n < 4t+6 is a
    unit multiple or associate to a listed generator, whose norms match
    {2t+-3, 4t-9, 4t+-6}.  Checked exactly as stated."""
    for t in range(12, 31):
        m = t * t - 2
        eps = fundamental_unit(m)
        gens = prop26_generators(t)
        primitive_norms = {abs(g.norm()) for g in gens if gcd(g.a, g.b) == 1}
        assert primitive_norms == {
            2 * t - 3, 2 * t + 3, 4 * t - 9, 4 * t - 6, 4 * t + 6
        }
        gen_reps = {
            (r.a, r.b) for r in (canonical_rep(g, eps) for g in gens)
        }
        for n in range(1, 4 * t + 6):
            for rep in solve_norm(m, n, primitive_only=True, eps=eps).reps:
                assert _is_integer_times_unit(rep) or (rep.a, rep.b) in gen_reps, \
                    (t, n, rep.a, rep.b)
    print("criterion 7: PASS")


def test_criterion_07_companion_actual_escapes():
    """Companion to the strict criterion: the only primitive orbits below the
    threshold not covered by the generator list are the norm-2 orbits through
    t - sqrt(m) (and its conjugate), plus the sporadic pair at t = 12, n = 53."""
    failures = []
    for t in range(12, 31):
        m = t * t - 2
        eps = fundamental_unit(m)
        gen_reps = {
            (r.a, r.b) for r in (canonical_rep(g, eps) for g in prop26_generators(t))
        }
        for n in range(1, 4 * t + 6):
            for rep in solve_norm(m, n, primitive_only=True, eps=eps).reps:
                if _is_integer_times_unit(rep) or (rep.a, rep.b) in gen_reps:
                    continue
                failures.append((t, n, rep.a, rep.b))
    norm2 = [(t, 2) for t in range(12, 31)]
    assert [(t, n) for t, n, _, _ in failures] == norm2[:1] + [(12, 53), (12, 53)] + norm2[1:]
    for t, n, x, y in failures:
        assert abs(x * x - (t * t - 2) * y * y) == n
        if n == 2:
            assert (abs(x), abs(y)) == (t, 1)
    print("criterion 7: FAIL as stated (norm-2 orbits and t=12 n=53 escape); "
          "documented by this companion test")


@pytest.mark.xfail(
    strict=True,
    reason="as stated the clean range is wrong: at t = 5 (m = 26) the value "
    "n = 22 = |2**2 - 26| is below the threshold 4t+3 = 23 yet is neither a "
    "square nor 2t nor 4t-3; the honest sweep reports it",
)
def test_criterion_08_rule_24_edge_honesty_as_stated():
    """m = t**2 + 1 exclusion: clean for t in [5, 40], and the t in {3, 4}
    sweep exits 1 reporting exactly the n = t**2 + 1 exceptions.  Checked
    exactly as stated."""
    assert main(["verify", "2.4", "--t-min", "5", "--t-max", "40"]) == 0
    print("criterion 8: PASS")


def test_criterion_08_companion_actual_edge_behavior():
    """Companion to the strict criterion: the sweep is clean on [6, 40], t = 5
    contributes the single escape n = 22 via 2 + sqrt(26), and t in {3, 4}
    exits 1 with exactly the n = t**2 + 1 exceptions."""
    from rdnorm import verify_prop

    assert main(["verify", "2.4", "--t-min", "6", "--t-max", "40"]) == 0
    assert main(["verify", "2.4", "--t-min", "5", "--t-max", "5"]) == 1
    assert main(["verify", "2.4", "--t-min", "3", "--t-max", "4"]) == 1

    report = verify_prop("2.4", 5, 5)
    assert [(e.t, e.n) for e in report.exceptions] == [(5, 22)]
    e = report.exceptions[0]
    assert abs(e.x**2 - 26 * e.y**2) == 22

    report = verify_prop("2.4", 3, 4)
    assert {(e.t, e.n) for e in report.exceptions} == {(3, 10), (4, 17)}
    for e in report.exceptions:
        assert e.n == e.t**2 + 1
        assert abs(e.x**2 - (e.t**2 + 1) * e.y**2) == e.n
    print("criterion 8: FAIL as stated (t=5 n=22 escapes); clean on [6, 40] "
          "and honest on {3, 4, 5}; documented by this companion test")


def test_criterion_09_class_number_witnesses():
    """witness 2 2 (m=65) and witness 2 3 (m=145) are valid; the embedded
    unsolvability claims re-validate against the double-loop oracle."""
    assert main(["witness", "2", "2"]) == 0
    assert main(["witness", "2", "3"]) == 0
    for l, q in ((2, 2), (2, 3)):
        w = class_number_witness(l, q)
        assert w.valid
        eps = fundamental_unit(w.m)
        for n in (4 * q, q):
            a_box, b_box = coeff_bounds(w.m, n, eps)
            assert brute_oracle(w.m, n, a_box, b_box) == []
    print("criterion 9: PASS - witnesses (2,2) m=65 and (2,3) m=145 valid")


def test_criterion_10_delta_squared_identity():
    """(t + sqrt(t**2+2))**2 = 2 * ((t**2+1) + t*sqrt(t**2+2)) with the right
    factor a norm-one unit, for t in [1, 100]."""
    for t in range(1, 101):
        m = t * t + 2
        delta = QuadInt(t, 1, m)
        u = QuadInt(t * t + 1, t, m)
        assert delta * delta == u * 2
        assert is_unit(u) and u.norm() == 1
        assert u == fundamental_unit(m)
    print("criterion 10: PASS - delta**2 = 2*eps identity, t in [1, 100]")
