import random
from math import isqrt, log10, sqrt

import pytest

from rdnorm import (
    DomainError,
    QuadInt,
    fundamental_unit,
    reduce_half,
    reduce_window,
    reduction,
    solve_norm,
    unit_inverse,
)
from rdnorm.qint import is_square
from rdnorm.reduction import _window_reps

from oracles import in_window as in_window_reference, stepwise_reduce

EPS10 = QuadInt(3, 1, 10)


def in_window(alpha, eps, n):
    """The package's one window test, _window_reps on the int pair of the
    positive alpha, for a QuadInt whose |norm| is n."""
    assert abs(alpha.norm()) == n
    a, b = alpha.a, alpha.b
    return (a, b) in _window_reps(eps.m, eps, n, [(abs(a), abs(b))])


def unit_power(eps, k):
    return eps**k if k >= 0 else unit_inverse(eps) ** -k


def differential_grid():
    """(xi, eps) pairs: random xi * eps**k with |k| <= 60 for units of norm
    +1 and -1, eps**2 as the reducer, xi on the axes and with mixed-sign
    coefficients, and the orbit of the window-edge representative
    -12 + sqrt(146) of norm 2."""
    rng = random.Random(12)
    cases = []
    seen = {1: 0, -1: 0}
    while min(seen.values()) < 8:
        m = rng.randrange(2, 3000)
        if is_square(m):
            continue
        eps = fundamental_unit(m)
        if eps.a > 10**30 or seen[eps.norm()] >= 8:
            continue
        seen[eps.norm()] += 1
        for _ in range(12):
            a, b = rng.randrange(-10**4, 10**4), rng.randrange(-300, 300)
            shape = rng.randrange(4)
            if shape == 0:
                b = 0  # rational xi
            elif shape == 1:
                a = 0  # xi = b*sqrt(m)
            elif shape == 2:
                a, b = abs(a) + 1, -abs(b) - 1  # mixed signs
            if a == b == 0:
                continue
            xi = QuadInt(a, b, m) * unit_power(eps, rng.randrange(-60, 61))
            cases.append((xi, eps))
            cases.append((xi, eps * eps))
    edge, eps146 = QuadInt(-12, 1, 146), QuadInt(145, 12, 146)
    for k in range(-60, 61, 3):
        x = edge * unit_power(eps146, k)
        cases += [(x, eps146), (-x, eps146), (x.conj(), eps146),
                  (x, eps146 * eps146)]
    return cases


class TestReduceWindowDifferential:
    """reduce_window must equal the one-step-at-a-time reference exactly."""

    def test_matches_stepwise_reference(self):
        for xi, eps in differential_grid():
            res = reduce_window(xi, eps)
            assert (res.j, res.alpha, res.n) == stepwise_reduce(xi, eps), \
                (xi, eps)

    @pytest.mark.parametrize("offset", [-3, -1, 1, 3])
    def test_exact_steps_decide_a_wrong_guess(self, monkeypatch, offset):
        guess = reduction._guess_exponent
        monkeypatch.setattr(reduction, "_guess_exponent",
                            lambda *args: guess(*args) + offset)
        for xi, eps in differential_grid()[::5]:
            res = reduce_window(xi, eps)
            assert (res.j, res.alpha, res.n) == stepwise_reduce(xi, eps), \
                (xi, eps)

    @staticmethod
    def counted_reduce(monkeypatch, xi, eps):
        """reduce_window(xi, eps), the number of QuadInts it built and the
        number of window tests it ran.  A reduction that moves by one unit
        step at a time runs one window test per step."""
        counts = {"quadints": 0, "tests": 0}

        def counting(key, fn):
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(QuadInt, "__init__",
                            counting("quadints", QuadInt.__init__))
        monkeypatch.setattr(reduction, "_window_reps",
                            counting("tests", reduction._window_reps))
        return reduce_window(xi, eps), counts

    @pytest.mark.parametrize("k, j", [(16000, -16001), (-16000, 15999)])
    def test_multiplications_grow_like_log_exponent(self, monkeypatch, k, j):
        # k < 0 gives coefficients of mixed sign, the guess's other branch
        eps = QuadInt(1, 1, 2)
        xi = QuadInt(3, 1, 2) * unit_power(eps, k)
        res, counts = self.counted_reduce(monkeypatch, xi, eps)
        assert res.j == j
        assert counts["tests"] < 20  # one step at a time counts about 32 000
        assert counts["quadints"] <= 2

    def test_step_count_sees_every_step(self, monkeypatch):
        # a guess 300 steps too high leaves 300 exact steps down, each of
        # which runs a window test; the steps stay on int pairs
        guess = reduction._guess_exponent
        monkeypatch.setattr(reduction, "_guess_exponent",
                            lambda *args: guess(*args) + 300)
        eps = QuadInt(1, 1, 2)
        xi = QuadInt(3, 1, 2) * unit_power(eps, 1000)
        res, counts = self.counted_reduce(monkeypatch, xi, eps)
        assert res.j == -1001
        assert counts["tests"] >= 300
        assert counts["quadints"] <= 2


def large_cases():
    """(xi, reducer, j, alpha): xi = xi0 * reducer**-k with coefficients of
    1000 to 4000 digits and k of both signs, for units of norm -1 (m = 2,
    13, 61) and +1 (m = 3, 7, 46) and their squares as reducers.  The
    expected j and alpha follow from the reduction of the small xi0."""
    rng = random.Random(28)
    cases = []
    for m in (2, 13, 61, 3, 7, 46):
        for reducer in (fundamental_unit(m), fundamental_unit(m) ** 2):
            digits_per_step = log10(reducer.a + reducer.b * sqrt(m))
            for sign in (1, -1):
                xi0 = QuadInt(rng.randrange(1, 50), rng.randrange(-50, 50), m)
                res0 = reduce_window(xi0, reducer)
                k = sign * round(rng.uniform(1000, 4000) / digits_per_step)
                xi = xi0 * unit_power(reducer, -k)
                if rng.random() < 0.5:
                    xi = -xi
                cases.append((xi, reducer, res0.j + k, res0.alpha))
    return cases


class TestSmallProduct:
    """The low-bits product of reduce_window at large sizes and at its edges."""

    def test_large_inputs_match_the_full_product(self):
        for xi, eps, j, alpha in large_cases():
            assert len(str(abs(xi.a))) >= 900
            res = reduce_window(xi, eps)
            assert (res.j, res.alpha) == (j, alpha), (xi, eps)
            assert res.alpha == abs(xi) * unit_power(eps, j)

    def test_doubling_from_one_bit(self, monkeypatch):
        small = reduction._small_product
        starts = []

        def from_one_bit(*args):
            starts.append(args[-1])
            return small(*args[:-1], 1)

        monkeypatch.setattr(reduction, "_small_product", from_one_bit)
        for xi, eps, j, alpha in large_cases()[::3]:
            res = reduce_window(xi, eps)
            assert (res.j, res.alpha) == (j, alpha), (xi, eps)
        for xi, eps in differential_grid()[::7]:
            res = reduce_window(xi, eps)
            assert (res.j, res.alpha, res.n) == stepwise_reduce(xi, eps), \
                (xi, eps)
        assert max(starts) > 1

    @pytest.mark.parametrize("eps, j", [(QuadInt(1, 1, 2), 7), (QuadInt(1, 1, 2), -6),
                                        (QuadInt(8, 3, 7), 5), (QuadInt(8, 3, 7), -4)],
                             ids=["m2-j7", "m2-j-6", "m7-j5", "m7-j-4"])
    def test_sign_is_checked(self, eps, j):
        # The product P = 2**(k-1) * (1 + sqrt(m)) has both coefficients
        # equal to 2**(k-1), whose low k bits lift to -2**(k-1): the first
        # candidate is -P, and -P / E = -alpha.  A check that accepted
        # either sign would return it.
        k = 10
        m, s = eps.m, eps.norm() ** (j & 1)
        big = unit_power(eps, j)
        product = QuadInt(2 ** (k - 1), 2 ** (k - 1), m)
        alpha = product * unit_power(eps, -j)
        assert alpha * big == product and big.norm() == s
        mask, half = 2**k - 1, 2 ** (k - 1)
        low = ((product.a & mask) + half) % 2**k - half
        assert low == -product.a
        got = reduction._small_product(alpha.a, alpha.b, big.a, big.b, m, s, k)
        assert got == (product.a, product.b)


class TestInWindowDifferential:
    """The one window test, decided on plain ints, against the QuadInt
    reference."""

    @staticmethod
    def check(alpha, eps, n):
        got = in_window(alpha, eps, n)
        assert got == in_window_reference(alpha, eps, n), (alpha, eps, n)
        return got

    # eps has norm -1 for m = 10, 13, 29 and +1 for m = 3, 7, 146
    @pytest.mark.parametrize("m", [10, 13, 29, 3, 7, 146])
    def test_canonical_reps_and_their_neighbours(self, m):
        eps = fundamental_unit(m)
        inv = unit_inverse(eps)
        inside = outside = 0
        for n in range(1, 80):
            for rep in solve_norm(m, n, eps=eps).reps:
                for reducer in (eps, eps * eps):
                    for x in (rep, rep * eps, rep * inv):
                        if self.check(x, reducer, n):
                            inside += 1
                        else:
                            outside += 1
                assert in_window(rep, eps, n)
                assert not in_window(rep * eps, eps, n)
                assert not in_window(rep * inv, eps, n)
        assert inside and outside

    def test_window_edge_rep(self):
        # -12 + sqrt(146) of norm -2 sits exactly on the lower edge:
        # alpha**2 * eps == 2, and alpha * eps exactly on the upper edge
        eps = QuadInt(145, 12, 146)
        edge = QuadInt(-12, 1, 146)
        assert edge * edge * eps == QuadInt(2, 0, 146)
        assert self.check(edge, eps, 2)
        assert not self.check(edge * eps, eps, 2)
        assert not self.check(edge * unit_inverse(eps), eps, 2)
        assert self.check(edge * eps, eps * eps, 2)

    def test_random_elements(self):
        rng = random.Random(19)
        seen = set()
        for _ in range(3000):
            m = rng.randrange(2, 500)
            if is_square(m):
                continue
            eps = fundamental_unit(m)
            if rng.random() < 0.5:
                eps = eps * eps
            a, b = rng.randrange(-400, 401), rng.randrange(-40, 41)
            if a == b == 0:
                continue
            alpha = abs(QuadInt(a, b, m)) * unit_power(eps, rng.choice((-1, 0, 1)))
            seen.add(self.check(alpha, eps, abs(alpha.norm())))
        assert seen == {True, False}


class TestUnitInverse:
    def test_both_norm_signs(self):
        assert unit_inverse(QuadInt(3, 1, 10)) == QuadInt(-3, 1, 10)
        assert unit_inverse(QuadInt(8, 3, 7)) == QuadInt(8, -3, 7)
        for eps in (QuadInt(3, 1, 10), QuadInt(8, 3, 7)):
            assert eps * unit_inverse(eps) == QuadInt(1, 0, eps.m)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            unit_inverse(QuadInt(4, 1, 10))


class TestReduceWindow:
    def test_frozen_example_m10(self):
        # 4 + sqrt(10) has norm 6 and lies above the window
        # [sqrt(6/eps), sqrt(6*eps)); one division by eps lands on
        # -2 + sqrt(10).  (Checked by the exact sign tests: with
        # alpha = 4 + sqrt(10), n*eps - alpha**2 = -8 - 2*sqrt(10) < 0.)
        res = reduce_window(QuadInt(4, 1, 10), EPS10)
        assert res.j == -1
        assert res.alpha == QuadInt(-2, 1, 10)
        assert res.n == 6

    def test_unit_input_stays_put(self):
        res = reduce_window(QuadInt(1, 0, 10), EPS10)
        assert res.j == 0
        assert res.alpha == QuadInt(1, 0, 10)
        assert res.n == 1

    def test_compose_then_reduce_roundtrip(self):
        xi = QuadInt(4, 1, 10) * EPS10**3
        res = reduce_window(xi, EPS10)
        assert res.j == -4
        assert res.alpha == QuadInt(-2, 1, 10)

    def test_sign_normalization(self):
        xi = QuadInt(4, 1, 10)
        assert reduce_window(-xi, EPS10).alpha == reduce_window(xi, EPS10).alpha
        assert reduce_window(xi, EPS10).alpha.sign_real() == 1

    def test_window_membership_and_uniqueness(self):
        inv = unit_inverse(EPS10)
        for a, b in [(4, 1), (1, 0), (7, 2), (-13, 4), (0, 3)]:
            xi = QuadInt(a, b, 10)
            res = reduce_window(xi, EPS10)
            assert in_window(res.alpha, EPS10, res.n)
            assert not in_window(abs(res.alpha * EPS10), EPS10, res.n)
            assert not in_window(abs(res.alpha * inv), EPS10, res.n)

    def test_result_is_associate(self):
        xi = QuadInt(7, 2, 10)
        res = reduce_window(xi, EPS10)
        # undo the exponent: what remains is +-xi
        undo = unit_inverse(EPS10) ** res.j if res.j >= 0 else EPS10 ** (-res.j)
        assert res.alpha * undo in (xi, -xi)

    def test_idempotent(self):
        res = reduce_window(QuadInt(38, 11, 10), EPS10)
        again = reduce_window(res.alpha, EPS10)
        assert again.j == 0 and again.alpha == res.alpha

    def test_bound_equality_at_window_edge(self):
        # m = 11 = 3**2 + 2: the representative of 3 - sqrt(11) sits exactly
        # on the lower window edge and attains the b-coefficient bound:
        # 4*b**2*m*eps = n*(eps+1)**2 with b = 1, n = 2.
        eps = fundamental_unit(11)
        res = reduce_window(QuadInt(3, -1, 11), eps)
        assert res.alpha == QuadInt(-3, 1, 11)
        assert res.j == 0
        assert 4 * 11 * eps == 2 * (eps + 1) ** 2

    def test_errors(self):
        with pytest.raises(ValueError):
            reduce_window(QuadInt(0, 0, 10), EPS10)
        with pytest.raises(ValueError):
            reduce_window(QuadInt(1, 1, 10), QuadInt(4, 1, 10))  # not a unit
        with pytest.raises(ValueError):
            reduce_window(QuadInt(1, 1, 10), QuadInt(-3, 1, 10))  # < 1
        # a unit of Z[sqrt(10)] for an element of Z[sqrt(11)]: the float
        # guess of the exponent is 0, so no multiplication would catch it
        with pytest.raises(DomainError, match="sqrt\\(11\\)"):
            reduce_window(QuadInt(1, 1, 11), fundamental_unit(10))


class TestReduceHalf:
    # m = 146 = 12**2 + 2, delta = 12 + sqrt(146), eps = 145 + 12*sqrt(146)
    delta = QuadInt(12, 1, 146)
    eps = QuadInt(145, 12, 146)

    def test_delta_case_norm_doubles(self):
        # xi = delta itself (norm -2): lands in the lower half-window at
        # -12 + sqrt(146), then gets multiplied by delta, giving the
        # rational 2 with |norm| 4 = 2n and |b| <= 1.
        res, case = reduce_half(self.delta, self.delta, self.eps)
        assert case == "delta-multiplied"
        assert res.alpha == QuadInt(2, 0, 146)
        assert res.n == 4
        assert abs(res.alpha.norm()) == 4
        assert abs(res.alpha.b) <= 1

    def test_direct_case_unit_input(self):
        res, case = reduce_half(self.eps, self.delta, self.eps)
        assert case == "direct"
        assert res.alpha == QuadInt(1, 0, 146)
        assert res.j == -1
        assert abs(res.alpha.b) <= 1

    def test_small_norm_outputs_have_small_b(self):
        for a, b in [(12, 1), (145, 12), (13, 1), (25, 2), (160, 13)]:
            xi = QuadInt(a, b, 146)
            res, case = reduce_half(xi, self.delta, self.eps)
            if case == "delta-multiplied":
                assert res.n == 2 * abs(xi.norm())
            else:
                assert res.n == abs(xi.norm())

    def test_random_orbit_members(self):
        # xi * eps**k for random xi, some close to +-b*sqrt(m) so that both
        # halves of the window are reached
        rng = random.Random(3)
        seen = set()
        for t in (1, 2, 3, 12, 100):
            m = t * t + 2
            delta = QuadInt(t, 1, m)
            eps = QuadInt(t * t + 1, t, m)
            inv = unit_inverse(eps)
            for _ in range(60):
                b = rng.randrange(-50, 51)
                if rng.random() < 0.5:
                    a = rng.choice((1, -1)) * isqrt(m * b * b)
                    a += rng.randrange(-2, 3)
                else:
                    a = rng.randrange(-50, 51)
                if a == b == 0:
                    continue
                xi = QuadInt(a, b, m)
                k = rng.randrange(-12, 13)
                xi = xi * (eps**k if k >= 0 else inv ** (-k))
                res, case = reduce_half(xi, delta, eps)
                seen.add(case)
                # half window [sqrt(n/sqrt(eps)), sqrt(n*sqrt(eps))) in
                # the output norm, by exact fourth-power tests
                a4 = (res.alpha * res.alpha) ** 2
                nn = res.n * res.n
                assert res.alpha.sign_real() > 0
                assert (a4 * eps - nn).sign_real() >= 0
                assert (nn * eps - a4).sign_real() > 0
                moved = xi * (eps**res.j if res.j >= 0 else inv ** (-res.j))
                if case == "direct":
                    assert res.n == abs(xi.norm())
                    assert moved in (res.alpha, -res.alpha)
                else:
                    assert res.n == 2 * abs(xi.norm())
                    assert moved * delta in (res.alpha, -res.alpha)
        assert seen == {"direct", "delta-multiplied"}

    def test_rejects_mismatched_delta(self):
        with pytest.raises(ValueError):
            reduce_half(self.delta, QuadInt(11, 1, 146), self.eps)
        with pytest.raises(ValueError):
            reduce_half(self.delta, self.delta, QuadInt(145, -12, 146))
        with pytest.raises(ValueError):
            reduce_half(QuadInt(0, 0, 146), self.delta, self.eps)
