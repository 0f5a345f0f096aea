import inspect
import random
import sys
from math import isqrt

import pytest

from rdnorm import (
    CFExpansion,
    DomainError,
    QuadInt,
    cf_sqrt,
    fundamental_unit,
    is_square,
    is_unit,
    rd_unit,
)
from rdnorm import pell
from rdnorm.pell import _cf_matrix, period_end_convergent

# the shapes a0**2 + r, r in {1, -1, 2, -2}: periods of length 1, 2 and 4
FAMILIES = sorted({a0 * a0 + r for a0 in range(2, 301) for r in (1, -1, 2, -2)} | {2, 3})


def full_period_cf(m):
    """Reference: walk the (P, Q) recurrence over the whole period, until
    its state returns, with no use of the palindrome."""
    a0 = isqrt(m)
    P, Q = a0, m - a0 * a0
    Q0 = Q
    period = []
    while True:
        a = (a0 + P) // Q
        period.append(a)
        P = a * Q - P
        Q = (m - P * P) // Q
        if P == a0 and Q == Q0:
            return CFExpansion(a0, tuple(period))


def plain_convergents(a0, rest):
    """Reference: one step of the convergent recurrence per quotient.

    Returns (p, p_prev, q, q_prev) for [a0; rest...] and the convergent
    before it.
    """
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    for a in rest:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, p_prev, q, q_prev


def full_period_unit(cf):
    """Reference: the convergent before the period repeats, by one
    recurrence step per quotient of the whole period."""
    p, _, q, _ = plain_convergents(cf.a0, cf.period[:-1])
    return p, q


def random_palindrome(rng, length):
    half = tuple(rng.randint(1, 10**6) for _ in range(length // 2))
    centre = (rng.randint(1, 10**6),) if length % 2 else ()
    return half + centre + half[::-1]


def walk_steps(m):
    """cf_sqrt(m) and the number of quotients its walk computed, counted as
    the executions of the one line that divides by Q."""
    code = pell.cf_sqrt.__code__
    lines = inspect.getsourcelines(pell.cf_sqrt)
    step_line = lines[1] + next(i for i, line in enumerate(lines[0]) if "// Q" in line)
    steps = 0

    def local(frame, event, arg):
        nonlocal steps
        if event == "line" and frame.f_lineno == step_line:
            steps += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        cf = pell.cf_sqrt(m)
    finally:
        sys.settrace(previous)
    return cf, steps


def smallest_unit_by_scan(m, b_cap=None):
    """Independent oracle: smallest b >= 1 with m*b**2 +- 1 a square.

    Returns None if no unit is found with b <= b_cap.
    """
    b = 1
    while b_cap is None or b <= b_cap:
        for s in (-1, 1):
            w = m * b * b + s
            a = isqrt(w)
            if a * a == w:
                return QuadInt(a, b, m)
        b += 1
    return None


def smallest_unit_by_pell(m):
    """Independent oracle via sympy's Pell equation solver."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    for rhs in (-1, 1):
        sols = diop_DN(m, rhs)
        if sols:
            a, b = sols[0]
            return QuadInt(int(abs(a)), int(abs(b)), m)
    raise AssertionError(f"no Pell solution for m={m}")


class TestCFExpansion:
    def test_hand_examples(self):
        assert cf_sqrt(2).a0 == 1 and cf_sqrt(2).period == (2,)
        assert cf_sqrt(10).a0 == 3 and cf_sqrt(10).period == (6,)
        assert cf_sqrt(7).a0 == 2 and cf_sqrt(7).period == (1, 1, 1, 4)
        assert cf_sqrt(23).period == (1, 3, 1, 8)

    def test_rejects_bad_radicand(self):
        with pytest.raises(ValueError):
            cf_sqrt(16)
        with pytest.raises(ValueError):
            cf_sqrt(1)

    def test_period_ends_with_doubled_floor(self):
        for m in range(2, 500):
            if is_square(m):
                continue
            cf = cf_sqrt(m)
            assert cf.a0 == isqrt(m)
            assert cf.period
            assert cf.period[-1] == 2 * cf.a0

    @pytest.mark.parametrize("ms", [range(2, 20000), FAMILIES],
                             ids=["below_2e4", "a0_squared_pm_1_2"])
    def test_half_walk_matches_full_walk(self, ms):
        for m in ms:
            if is_square(m):
                continue
            cf = cf_sqrt(m)
            assert cf == full_period_cf(m), m
            assert period_end_convergent(cf) == full_period_unit(cf), m
            assert fundamental_unit(m) == QuadInt(*full_period_unit(cf), m), m

    def test_walk_stops_at_the_centre(self):
        for m in [2, 3, 7, 13, 94, 10**9 + 9]:
            cf, steps = walk_steps(m)
            assert cf == full_period_cf(m)
            assert steps <= cf.period_length // 2 + 1

    def test_product_covers_half_the_period(self, monkeypatch):
        multiplied = 0
        matrix = pell._cf_matrix

        def counted(quotients, lo, hi):
            nonlocal multiplied
            if hi - lo <= pell._LEAF:
                multiplied += hi - lo
            return matrix(quotients, lo, hi)

        cf = cf_sqrt(10**9 + 9)
        monkeypatch.setattr(pell, "_cf_matrix", counted)
        assert period_end_convergent(cf) == full_period_unit(cf)
        assert 0 < multiplied <= cf.period_length // 2 + 1

    def test_period_end_convergent_is_unit(self):
        for m in range(2, 300):
            if is_square(m):
                continue
            p, q = period_end_convergent(cf_sqrt(m))
            assert abs(p * p - m * q * q) == 1


class TestProductTree:
    @staticmethod
    def check(quotients):
        a0, rest = quotients[0], quotients[1:]
        p, p_prev, q, q_prev = plain_convergents(a0, rest)
        assert _cf_matrix(quotients, 0, len(quotients)) == (p, p_prev, q, q_prev)
        # period_end_convergent drops the period's last quotient, and takes
        # only the expansion of a square root, whose rest is a palindrome
        cf = CFExpansion(a0, rest + (2 * a0,))
        if rest == rest[::-1]:
            assert period_end_convergent(cf) == (p, q)
        else:
            # the message names a0 and L, never the (maybe 5000) quotients
            with pytest.raises(DomainError, match=f"a0 = {a0}, period length "
                               f"{len(rest) + 1}$"):
                period_end_convergent(cf)

    def test_random_quotients_cross_leaf_boundaries(self):
        rng = random.Random(20131024)
        for length in range(1, 301):
            self.check(tuple(rng.randint(1, 10**6) for _ in range(length)))

    def test_palindromic_quotients(self):
        # period_end_convergent multiplies half of a palindromic period only
        rng = random.Random(1729)
        for length in [*range(0, 4), *range(60, 70), 257, 258, 4001, 4002]:
            for _ in range(3):
                self.check((rng.randint(1, 10**6),) + random_palindrome(rng, length))

    def test_long_random_quotient_list(self):
        rng = random.Random(6608)
        self.check(tuple(rng.randint(1, 10**6) for _ in range(5000)))

    @pytest.mark.parametrize("cf", [
        CFExpansion(3, ()),
        CFExpansion(3, (5,)),
        CFExpansion(3, (1, 2, 6)),
        CFExpansion(3, (6, 1, 2, 2, 1, 6)),
    ], ids=["empty-period", "last-not-2a0", "rest-not-palindrome",
            "even-rest-not-palindrome"])
    def test_rejects_expansions_not_of_a_square_root(self, cf):
        with pytest.raises(DomainError, match="a0 = 3, period length"):
            period_end_convergent(cf)

    @pytest.mark.parametrize("m", [10**9 + 9, 10**10 + 19])
    def test_large_unit_matches_plain_recurrence(self, m):
        cf = cf_sqrt(m)
        assert cf == full_period_cf(m)
        p, q = full_period_unit(cf)
        eps = fundamental_unit(m)
        assert eps == QuadInt(p, q, m)
        assert eps.norm() == (-1) ** cf.period_length


class TestFundamentalUnit:
    def test_examples(self):
        assert fundamental_unit(10) == QuadInt(3, 1, 10)
        assert fundamental_unit(10).norm() == -1
        assert fundamental_unit(146) == QuadInt(145, 12, 146)
        assert fundamental_unit(146).norm() == 1
        assert fundamental_unit(7) == QuadInt(8, 3, 7)

    def test_order_unit_not_maximal_order_unit(self):
        # Z[sqrt(5)] excludes the golden ratio; smallest unit > 1 is 2+sqrt(5)
        assert fundamental_unit(5) == QuadInt(2, 1, 5)

    def test_cache_is_bounded(self):
        # a fixed number of units, however many m one process sees
        assert fundamental_unit.cache_info().maxsize is not None

    def test_norm_sign_matches_period_parity(self):
        for m in range(2, 200):
            if is_square(m):
                continue
            eps = fundamental_unit(m)
            assert eps.norm() == (-1) ** cf_sqrt(m).period_length

    def test_minimality_against_scan_oracle(self):
        # The literal scan is only affordable when b(eps) is modest; the
        # Pell-solver oracle covers every m regardless.
        for m in range(2, 300):
            if is_square(m):
                continue
            eps = fundamental_unit(m)
            assert is_unit(eps)
            assert eps > 1
            assert eps.a > 0 and eps.b > 0
            assert eps == smallest_unit_by_pell(m)
            if eps.b <= 20000:
                assert eps == smallest_unit_by_scan(m, b_cap=eps.b)


class TestRDUnit:
    def test_closed_forms(self):
        assert rd_unit(3, 1) == QuadInt(3, 1, 10)
        assert rd_unit(12, 2) == QuadInt(145, 12, 146)
        assert rd_unit(12, -2) == QuadInt(143, 12, 142)
        assert rd_unit(4, -1) == QuadInt(4, 1, 15)

    def test_other_r_returns_none(self):
        assert rd_unit(4, 4) is None  # m=20, r=4 divides 16
        assert rd_unit(6, 3) is None  # m=39, r=3 divides 24

    def test_invalid_forms_raise(self):
        with pytest.raises(ValueError):
            rd_unit(5, 3)  # 3 does not divide 20
        with pytest.raises(ValueError):
            rd_unit(2, 3)  # |r| > t
        with pytest.raises(ValueError):
            rd_unit(3, 0)
        with pytest.raises(ValueError):
            rd_unit(1, -1)  # m = 0

    def test_agrees_with_fundamental_unit(self):
        # the only valid (t, r), r in {+-1, +-2}, where a smaller unit
        # exists is (2, -2): m = 2 and 3 + 2*sqrt(2) = (1 + sqrt(2))**2
        disagreements = []
        for t in range(1, 41):
            for r in (1, -1, 2, -2):
                m = t * t + r
                if m < 2 or is_square(m) or abs(r) > t:
                    continue
                u = rd_unit(t, r)
                if u != fundamental_unit(m):
                    disagreements.append((t, r, u))
        assert disagreements == [(2, -2, QuadInt(3, 2, 2))]
        assert QuadInt(3, 2, 2) == fundamental_unit(2) ** 2


class TestIsUnit:
    def test_examples(self):
        assert is_unit(QuadInt(3, 1, 10))
        assert not is_unit(QuadInt(4, 1, 10))
        assert is_unit(QuadInt(-1, 0, 10))
        assert not is_unit(QuadInt(0, 0, 10))
