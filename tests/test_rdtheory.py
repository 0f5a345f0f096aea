import random

import pytest

import rdnorm.reduction
import rdnorm.solve
from rdnorm import (
    Counterexample,
    DomainError,
    QuadInt,
    VerificationReport,
    allowed_set,
    canonical_rep,
    class_number_witness,
    fundamental_unit,
    is_prime,
    prop26_generators,
    prop_radicand,
    rd_classify,
    solve_norm,
    unit_inverse,
    verify_prop,
)
from rdnorm import rdtheory
from rdnorm.rdtheory import PROP_IDS, _associate
from rdnorm.solve import _norm_table
from rdnorm.qint import is_square


class TestRDClassify:
    def test_examples(self):
        assert rd_classify(10) == rd_classify(10).__class__(t=3, r=1, m=10)
        f = rd_classify(146)
        assert (f.t, f.r) == (12, 2)
        f = rd_classify(79)   # 79 = 9**2 - 2, nearest integer to sqrt is 9
        assert (f.t, f.r) == (9, -2)
        f = rd_classify(2)
        assert (f.t, f.r) == (1, 1)

    def test_non_rd_radicand(self):
        assert rd_classify(69) is None   # r = 5 does not divide 4*8
        assert rd_classify(1141) is None

    def test_rejects_square(self):
        with pytest.raises(ValueError):
            rd_classify(49)

    def test_divisibility_always_holds(self):
        for m in range(2, 3000):
            if is_square(m):
                continue
            f = rd_classify(m)
            if f is None:
                continue
            assert f.m == m == f.t * f.t + f.r
            assert 0 < abs(f.r) <= f.t
            assert (4 * f.t) % f.r == 0


class TestAllowedSet:
    def test_rule_23(self):
        cls = allowed_set("2.3", 3)
        assert {n for n in range(1, 6) if cls.allows(n)} == {1, 4}
        assert cls.allows(6) and cls.allows(100)

    def test_rule_24(self):
        cls = allowed_set("2.4", 5)
        small = {n for n in range(1, 23) if cls.allows(n)}
        assert small == {1, 4, 9, 16, 10, 17}

    def test_rule_25(self):
        cls = allowed_set("2.5", 12)
        small = {n for n in range(1, 50) if cls.allows(n)}
        squares = {1, 4, 9, 16, 25, 36, 49}
        double_squares = {2, 8, 18, 32}
        listed = {23, 25, 41, 46}
        assert small == squares | double_squares | listed

    def test_rule_26(self):
        cls = allowed_set("2.6", 12)
        assert cls.orbit_clause
        small = {n for n in range(1, 54) if cls.allows(n)}
        assert small == {1, 4, 9, 16, 25, 36, 49} | {21, 27, 39, 42}

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            allowed_set("2.7", 12)

    def test_warns_below_stated_validity(self):
        assert allowed_set("2.5", 5).below_stated_range
        assert allowed_set("2.6", 3).below_stated_range
        assert not allowed_set("2.5", 12).below_stated_range
        assert not allowed_set("2.3", 2).below_stated_range


class TestPropRadicand:
    def test_families(self):
        assert prop_radicand("2.3", 7) == 50
        assert prop_radicand("2.4", 7) == 50
        assert prop_radicand("2.5", 12) == 146
        assert prop_radicand("2.6", 12) == 142


class TestProp26Generators:
    def test_count_and_norms(self):
        t = 12
        gens = prop26_generators(t)
        assert len(gens) == 14
        norms = sorted(abs(g.norm()) for g in gens)
        primitive = sorted(
            [2 * t - 3, 2 * t + 3, 4 * t - 9, 4 * t - 6, 4 * t + 6] * 2
        )
        doubled = sorted([4 * (2 * t - 3), 4 * (2 * t + 3)] * 2)
        assert norms == sorted(primitive + doubled)

    def test_doubled_generators_have_content_two(self):
        from math import gcd

        gens = prop26_generators(9)
        assert sum(1 for g in gens if gcd(g.a, g.b) == 2) == 4


class TestVerifyProp:
    def test_rule_23_clean_for_small_t(self):
        report = verify_prop("2.3", 2, 12)
        assert report.clean
        assert report.checked_count == sum(2 * t - 1 for t in range(2, 13))

    def test_rule_24_small_t_exceptions(self):
        report = verify_prop("2.4", 3, 4)
        got = {(e.t, e.n) for e in report.exceptions}
        assert got == {(3, 10), (4, 17)}
        for e in report.exceptions:
            m = prop_radicand("2.4", e.t)
            assert abs(e.x * e.x - m * e.y * e.y) == e.n

    def test_rule_25_clean(self):
        report = verify_prop("2.5", 12, 14)
        assert report.clean

    def test_rule_26_escape_orbits(self):
        # The orbit clause leaves uncovered: the n = 2*k**2 orbits through
        # k*(t - sqrt(m)) for every t, and at t = 12 only, the sporadic
        # n = 53 pair of conjugate orbits +-35 + 3*sqrt(142).
        report = verify_prop("2.6", 12, 13)
        assert not report.clean
        sporadic = []
        for e in report.exceptions:
            m = prop_radicand("2.6", e.t)
            assert abs(e.x * e.x - m * e.y * e.y) == e.n
            eps = fundamental_unit(m)
            assert canonical_rep(QuadInt(e.x, e.y, m), eps).b != 0
            if is_square(2 * e.n):
                from math import gcd

                g = gcd(e.x, e.y)
                assert abs((e.x // g) ** 2 - m * (e.y // g) ** 2) == 2
            else:
                sporadic.append((e.t, e.n, e.x, e.y))
        assert sporadic == [(12, 53, 35, 3), (12, 53, -35, 3)]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_prop("2.9", 2, 5)
        with pytest.raises(ValueError):
            verify_prop("2.3", 5, 2)
        with pytest.raises(ValueError):
            verify_prop("2.3", -5, -1)
        # m = t**2 - 2 < 2 at t = 1
        with pytest.raises(DomainError, match=r"2\.6 .*t >= 12"):
            verify_prop("2.6", 1, 3)
        # below the rule's first t the sweep runs, and the report says so
        report = verify_prop("2.5", 1, 11)
        assert report.below_stated_range and report.stated_from == 12
        assert not report.clean
        assert not verify_prop("2.5", 12, 12).below_stated_range

    @staticmethod
    def per_n_reference(prop_id, t_min, t_max):
        """The sweep by one solve_norm per n < threshold, checked on its own."""
        from math import gcd

        checked, exceptions = 0, []
        for t in range(t_min, t_max + 1):
            cls = allowed_set(prop_id, t)
            m = prop_radicand(prop_id, t)
            eps = fundamental_unit(m)
            gens = ({canonical_rep(g, eps) for g in prop26_generators(t)}
                    if cls.orbit_clause else set())
            for n in range(1, cls.threshold):
                checked += 1
                reps = solve_norm(m, n, eps=eps).reps
                if not cls.orbit_clause:
                    if reps and not cls.allows(n):
                        exceptions.append(
                            Counterexample(t, n, reps[0].a, reps[0].b))
                    continue
                for r in reps:
                    g = gcd(r.a, r.b)
                    unit_times = abs((r.a // g) ** 2 - m * (r.b // g) ** 2) == 1
                    if not unit_times and r not in gens:
                        exceptions.append(Counterexample(t, n, r.a, r.b))
        return VerificationReport(prop_id, t_min, t_max, checked,
                                  tuple(exceptions))

    @pytest.mark.parametrize("prop_id", PROP_IDS)
    def test_matches_per_n_solves(self, prop_id):
        first = 2 if prop_id in ("2.3", "2.4") else 12
        ranges = [(first, first + 57)] + [(t, t) for t in (137, 500, 1000)]
        if prop_id == "2.4":
            ranges.append((10**4, 10**4))
        for t_min, t_max in ranges:
            assert verify_prop(prop_id, t_min, t_max) == \
                self.per_n_reference(prop_id, t_min, t_max)

    @staticmethod
    def rule_26_canonical_rep_reference(t):
        """Rule 2.6 at one t from the sweep's own table, the generators
        reduced into the window by canonical_rep."""
        m = prop_radicand("2.6", t)
        eps = fundamental_unit(m)
        table = _norm_table(m, allowed_set("2.6", t).threshold, eps)
        gen_reps = {canonical_rep(g, eps) for g in prop26_generators(t)}
        return [Counterexample(t, n, r.a, r.b)
                for n, reps in table.items() for r in reps
                if r.b != 0 and r not in gen_reps]

    @pytest.mark.parametrize("t", [10**4, 10**5])
    def test_rule_26_large_t_matches_canonical_reps(self, t):
        want = self.rule_26_canonical_rep_reference(t)
        assert list(verify_prop("2.6", t, t).exceptions) == want

    @pytest.mark.parametrize("t", [1000, 10**4])
    def test_rule_26_work_counts(self, monkeypatch, t):
        """_orbits builds a QuadInt only for a rep it returns, and
        _associate meets only rep-generator pairs of equal |norm|."""
        built = 0
        init = QuadInt.__init__

        def counting_init(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        in_orbits = returned = 0
        orbits = rdnorm.solve._orbits

        def counting_orbits(*args):
            nonlocal in_orbits, returned
            before = built
            reps = orbits(*args)
            in_orbits += built - before
            returned += len(reps)
            return reps

        pairs = 0
        associate = rdtheory._associate

        def checked_associate(x, y):
            nonlocal pairs
            pairs += 1
            assert abs(x.norm()) == abs(y.norm()), (x, y)
            return associate(x, y)

        want = verify_prop("2.6", t, t)
        monkeypatch.setattr(QuadInt, "__init__", counting_init)
        monkeypatch.setattr(rdnorm.solve, "_orbits", counting_orbits)
        monkeypatch.setattr(rdtheory, "_associate", checked_associate)
        assert verify_prop("2.6", t, t) == want
        assert returned > 0 and pairs > 0
        assert in_orbits <= returned

    def test_sweep_and_certificate_never_reduce(self, monkeypatch):
        want = self.per_n_reference("2.6", 12, 40)

        def refuse(*args):
            raise AssertionError("reduce_window called")

        # solve holds its own name for reduce_window (canonical_rep's)
        monkeypatch.setattr(rdnorm.reduction, "reduce_window", refuse)
        monkeypatch.setattr(rdnorm.solve, "reduce_window", refuse)
        assert verify_prop("2.6", 12, 40) == want
        assert class_number_witness(2, 3).valid

    def test_report_json_shape(self):
        doc = verify_prop("2.4", 3, 3).to_json()
        assert doc["prop"] == "2.4"
        assert doc["t_range"] == [3, 3]
        assert doc["stated_from"] == 2 and doc["below_stated_range"] is False
        assert doc["exceptions"] == [
            {"t": 3, "n": "10", "x": "0", "y": "1"}
        ]


class TestAssociate:
    """_associate, rule 2.6's orbit test, against equality of canonical
    reps: x*eps**j (random j, random sign) against every rep of the same n,
    the reps' conjugates, and two non-associates of other norms."""

    # eps has norm -1 for m = 10, 13, 145 and +1 for m = 8, 142, 146; at
    # m = 8 some non-associates of norm 4 have n dividing x*conj(y) in a only
    @pytest.mark.parametrize("m", [10, 13, 145, 8, 142, 146])
    def test_matches_canonical_rep(self, m):
        rng = random.Random(m)
        eps = fundamental_unit(m)
        inv = unit_inverse(eps)
        seen = set()
        for n in range(1, 100):
            reps = solve_norm(m, n, eps=eps).reps
            elems = list(reps) + [r.conj() for r in reps]
            for xi in elems:
                j = rng.randrange(-4, 5)
                x = rng.choice((1, -1)) * xi * (eps**j if j >= 0 else inv**-j)
                for y in elems + [2 * xi, xi * QuadInt(1, 1, m)]:
                    want = canonical_rep(x, eps) == canonical_rep(y, eps)
                    assert _associate(x, y) == _associate(y, x) == want
                    seen.add(want)
        assert seen == {True, False}

    def test_rule_26_pairs(self):
        m = prop_radicand("2.6", 12)
        # the sporadic n = 53 reps are conjugates but not associates
        assert not _associate(QuadInt(35, 3, m), QuadInt(-35, 3, m))
        # t + sqrt(m) = eps * (t - sqrt(m))
        delta = QuadInt(12, 1, m)
        assert _associate(delta, delta.conj())
        assert _associate(delta, -delta * fundamental_unit(m) ** 3)
        assert not _associate(delta, 3 * delta)


class TestIntegerTimesUnitRep:
    """x is an integer times a unit iff its canonical rep under the
    fundamental unit has b == 0 (the test rule 2.6 sweeps rely on)."""

    def test_examples(self):
        eps = fundamental_unit(10)
        assert canonical_rep(QuadInt(3, 1, 10), eps).b == 0
        assert canonical_rep(QuadInt(6, 2, 10), eps).b == 0
        assert canonical_rep(QuadInt(3, 1, 10) * eps * 7, eps).b == 0
        assert canonical_rep(QuadInt(4, 1, 10), eps).b != 0

    def test_orbit_invariant(self):
        eps = fundamental_unit(142)
        delta = QuadInt(12, 1, 142)
        for j in range(4):
            assert canonical_rep(delta * eps**j, eps).b != 0
            assert canonical_rep(QuadInt(5, 0, 142) * eps**j, eps) == \
                QuadInt(5, 0, 142)


class TestIsPrime:
    def test_small(self):
        primes = {n for n in range(2, 200) if is_prime(n)}
        sieve = set()
        for n in range(2, 200):
            if all(n % p for p in range(2, n)):
                sieve.add(n)
        assert primes == sieve
        assert not is_prime(0) and not is_prime(1) and not is_prime(-7)

    def test_carmichael_and_large(self):
        assert not is_prime(561)
        assert not is_prime(341550071728321)
        assert is_prime(2**89 - 1)
        assert not is_prime(2**89 - 3)


class TestClassNumberWitness:
    def test_valid_witnesses(self):
        w = class_number_witness(2, 2)
        assert (w.t, w.m) == (8, 65)
        assert w.valid
        w = class_number_witness(2, 3)
        assert (w.t, w.m) == (12, 145)
        assert w.valid

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            class_number_witness(1, 5)
        with pytest.raises(ValueError):
            class_number_witness(2, 4)
        # composite, but a strong pseudoprime to every base is_prime uses
        with pytest.raises(ValueError, match="proven"):
            class_number_witness(2, 399165290221 * 798330580441)

    @staticmethod
    def spy_on_solves(monkeypatch, solvable=()):
        """Record the n of every is_representable call; report each n in
        solvable as representable."""
        calls = []
        real = rdtheory.is_representable

        def spy(m, n, eps=None):
            calls.append(n)
            return n in solvable or real(m, n, eps)

        monkeypatch.setattr(rdtheory, "is_representable", spy)
        return calls

    def test_valid_witness_solves_once(self, monkeypatch):
        calls = self.spy_on_solves(monkeypatch)
        assert class_number_witness(2, 3).valid
        assert calls == [12]

    def test_solvable_4q_still_solves_q(self, monkeypatch):
        calls = self.spy_on_solves(monkeypatch, solvable={12})
        w = class_number_witness(2, 3)
        assert calls == [12, 3]
        assert not w.checks["norm_4q_unsolvable"]
        assert w.checks["norm_q_unsolvable"]

    def test_json_shape(self):
        doc = class_number_witness(3, 5).to_json()
        assert doc["l"] == 3
        assert doc["q"] == "5"
        assert doc["m"] == str(30 * 30 + 1)
        assert doc["valid"] is True
        assert set(doc["checks"]) == {
            "q_prime", "l_greater_1", "q_splits", "4q_below_2t",
            "4q_nonsquare", "norm_4q_unsolvable", "norm_q_unsolvable",
        }


def test_prop_ids_frozen():
    assert PROP_IDS == ("2.3", "2.4", "2.5", "2.6")
