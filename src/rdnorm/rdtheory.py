"""Radicand classification m = t**2 + r, exclusion rules for which n the
equation |x**2 - m*y**2| = n can represent, exhaustive verification sweeps,
and class-number-nontriviality certificates.

The exclusion rules are treated as hypotheses: sweeps report every
representable n (or solution orbit) the rule fails to cover, with a
re-checkable witness, instead of asserting the rule is true.  Clauses are
decided by exact integer tests, not searches: rule 2.6's associate clause
by one divisibility test, with no generator reduced into the window.
"""

from __future__ import annotations

from math import isqrt

from .pell import fundamental_unit
from .qint import DomainError, QuadInt, Record, check_radicand, is_square
from .solve import _norm_table, is_representable


class RDForm(Record):
    """Decomposition m = t**2 + r with |r| <= t and r | 4t."""

    __slots__ = ("t", "r", "m")


def rd_classify(m: int) -> RDForm | None:
    """Canonical (t, r) decomposition of m, or None if m is not of that shape.

    t is the integer nearest sqrt(m), which fixes the decomposition when
    several could work.
    """
    check_radicand(m)
    t = isqrt(m)
    if m - t * t > (t + 1) ** 2 - m:
        t += 1
    r = m - t * t
    if r == 0 or abs(r) > t or (4 * t) % r != 0:
        return None
    return RDForm(t=t, r=r, m=m)


class NormClassifier(Record):
    """Which n < threshold an exclusion rule allows to be representable.

    Perfect squares (n = x**2 - m*0**2) are always allowed; listed is the
    rule's explicit finite set, a tuple; double_square_escape admits n
    with 2n square.  Rule 2.6 additionally constrains individual solution
    orbits (handled by verify_prop, not expressible as a predicate on n
    alone); orbit_clause marks it.
    """

    __slots__ = ("prop_id", "t", "threshold", "listed", "double_square_escape",
                 "orbit_clause")

    def __init__(self, prop_id: str, t: int, threshold: int, listed: tuple[int, ...],
                 double_square_escape: bool = False, orbit_clause: bool = False) -> None:
        super().__init__(prop_id, t, threshold, listed, double_square_escape, orbit_clause)

    @property
    def below_stated_range(self) -> bool:
        """True when t lies below the first t the rule is stated for."""
        return self.t < _RULES[self.prop_id].first_t

    def allows(self, n: int) -> bool:
        if n >= self.threshold or n in self.listed or is_square(n):
            return True
        if self.double_square_escape and is_square(2 * n):
            return True
        return False


class _Rule(Record):
    __slots__ = (
        "first_t",  # smallest t the rule is stated for
        "r",  # the rule speaks about radicands m = t**2 + r
        "classifier",  # maps t to the rule's NormClassifier
    )


_RULES = {
    "2.3": _Rule(2, 1, lambda t: NormClassifier(
        "2.3", t, 2 * t, ())),
    "2.4": _Rule(2, 1, lambda t: NormClassifier(
        "2.4", t, 4 * t + 3, (4 * t - 3, 2 * t))),
    "2.5": _Rule(12, 2, lambda t: NormClassifier(
        "2.5", t, 4 * t + 2, (2 * t - 1, 2 * t + 1, 4 * t - 7, 4 * t - 2),
        double_square_escape=True)),
    "2.6": _Rule(12, -2, lambda t: NormClassifier(
        "2.6", t, 4 * t + 6,
        (2 * t - 3, 2 * t + 3, 4 * t - 9, 4 * t - 6, 4 * t + 6),
        orbit_clause=True)),
}

PROP_IDS = tuple(_RULES)


def _rule(prop_id: str) -> _Rule:
    if prop_id not in _RULES:
        raise DomainError(f"unknown rule id {prop_id!r}")
    return _RULES[prop_id]


def allowed_set(prop_id: str, t: int) -> NormClassifier:
    """Classifier for one exclusion rule at parameter t.

    t below the rule's first t is answered too; the classifier's
    below_stated_range says so.
    """
    return _rule(prop_id).classifier(t)


def prop_radicand(prop_id: str, t: int) -> int:
    """Radicand family a rule speaks about: t**2+1, t**2+2 or t**2-2."""
    return t * t + _rule(prop_id).r


def prop26_generators(t: int) -> list[QuadInt]:
    """The generator list of rule 2.6 for m = t**2 - 2.

    t+-1+-sqrt(m), t+-2+-sqrt(m), 2t-1+-2*sqrt(m), 2t+-2+-2*sqrt(m).
    The first ten are primitive with |norm| in {2t+-3, 4t-9, 4t+-6}; the
    last four equal 2*(t+-1+-sqrt(m)) and have |norm| 4*(2t+-3), at or
    above the rule's threshold 4t + 6 for t >= 5.
    """
    if t < 2:
        raise DomainError("t must be >= 2")
    m = t * t - 2
    gens = [QuadInt(t + e, s, m) for e in (1, -1, 2, -2) for s in (1, -1)]
    gens += [QuadInt(2 * t - 1, s, m) for s in (2, -2)]
    gens += [QuadInt(2 * t + e, s, m) for e in (2, -2) for s in (2, -2)]
    return gens


class Counterexample(Record):
    """A solution the rule's classifier fails to cover; always re-checkable:
    |x**2 - m*y**2| = n with m = prop_radicand(prop, t)."""

    __slots__ = ("t", "n", "x", "y")


class VerificationReport(Record):
    """A sweep of rule prop_id over t in [t_min, t_max]: checked_count
    cases, and the tuple of Counterexamples it found."""

    __slots__ = ("prop_id", "t_min", "t_max", "checked_count", "exceptions")

    @property
    def clean(self) -> bool:
        return not self.exceptions

    @property
    def stated_from(self) -> int:
        """First t the rule is stated for."""
        return _RULES[self.prop_id].first_t

    @property
    def below_stated_range(self) -> bool:
        """True when the sweep starts below the rule's first t."""
        return self.t_min < self.stated_from

    def to_json(self) -> dict:
        return {
            "prop": self.prop_id,
            "t_range": [self.t_min, self.t_max],
            "stated_from": self.stated_from,
            "below_stated_range": self.below_stated_range,
            "checked": self.checked_count,
            "exceptions": [
                {"t": e.t, "n": str(e.n), "x": str(e.x), "y": str(e.y)}
                for e in self.exceptions
            ],
        }


def _associate(x: QuadInt, y: QuadInt) -> bool:
    """True iff the nonzero x and y are associates: x = u*y, u a unit.

    With n = |norm(y)|, x/y = x*conj(y)/norm(y).  If x has |norm| n too,
    x/y has norm +-1, so it is a unit exactly when it lies in Z[sqrt(m)],
    that is when n divides both coefficients of x*conj(y).  Associates
    have equal |norm|, so the norms are compared first, which settles
    most pairs without a multiplication.
    """
    n = abs(y.norm())
    if abs(x.norm()) != n:
        return False
    p = x * y.conj()
    return p.a % n == 0 and p.b % n == 0


def _verify_single_t(prop_id: str, t: int) -> list[Counterexample]:
    cls = _rule(prop_id).classifier(t)
    m = prop_radicand(prop_id, t)
    eps = fundamental_unit(m)
    if not cls.orbit_clause:
        table = _norm_table(m, cls.threshold, eps, lambda n: not cls.allows(n))
        return [Counterexample(t, n, reps[0].a, reps[0].b)
                for n, reps in table.items()]

    # 2.6: every orbit must be an integer times a unit or associate to a
    # listed generator (norms force n into the listed set for the latter).
    # eps is fundamental, so k*eta (k > 0) lies in the orbit of k, whose
    # window [k/sqrt(eps), k*sqrt(eps)) holds k: its canonical rep is k.  A
    # rep with b = 0 is an integer, so b == 0 tests the first clause; the
    # second is tested on the rep as it stands, so no generator is reduced.
    # Associates have equal |norm|, so a rep of norm n meets only the
    # generators of norm n.
    table = _norm_table(m, cls.threshold, eps)
    gens: dict[int, list[QuadInt]] = {}
    for g in prop26_generators(t):
        gens.setdefault(abs(g.norm()), []).append(g)
    return [Counterexample(t, n, rep.a, rep.b)
            for n, reps in table.items() for rep in reps
            if rep.b != 0 and not any(_associate(rep, g) for g in gens.get(n, ()))]


def verify_prop(prop_id: str, t_min: int, t_max: int) -> VerificationReport:
    """Exhaustively test one exclusion rule for every t in [t_min, t_max].

    The t values run in order in this process.  For each t the solutions of
    every n < threshold are enumerated once, in one table, and every
    solution not covered by the rule is reported with a witness.  t below
    the rule's first t is swept too, and the report's below_stated_range
    says so.
    """
    rule = _rule(prop_id)
    if t_min < 1 or prop_radicand(prop_id, t_min) < 2:
        raise DomainError(f"rule {prop_id} is stated for t >= {rule.first_t} "
                          f"and needs m = t**2{rule.r:+d} >= 2, got t_min={t_min}")
    if t_min > t_max:
        raise DomainError("t_min must not exceed t_max")
    ts = range(t_min, t_max + 1)
    checked = sum(rule.classifier(t).threshold - 1 for t in ts)
    exceptions = tuple(e for t in ts for e in _verify_single_t(prop_id, t))
    return VerificationReport(prop_id, t_min, t_max, checked, exceptions)


# -- class-number witness -----------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Smallest strong pseudoprime to all of _MR_BASES (Jiang & Deng 2014).
_MR_PROVEN_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..37.

    The answer is proven for n < _MR_PROVEN_BELOW (about 3.2e23); at and
    above that bound a True is only a strong probable prime, and the bound
    itself, 399165290221 * 798330580441, passes.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Witness(Record):
    """Certificate that the class number of the order
    O = Z[(1+sqrt(m))/2] exceeds 1 (that of Q(sqrt(m)) when m is
    squarefree).

    m = (2*l*q)**2 + 1 with q prime and l > 1: q splits, and the named
    checks rule out |x**2 - m*y**2| = 4q and = q, so no element of O has
    norm +-q and no prime of O above q is principal.  O is the ring of
    integers of Q(sqrt(m)) only when m is squarefree; no check here says
    whether it is.  checks maps each check's name to its outcome, and all
    checks true <=> the certificate is valid.  Equality and hashing leave
    checks out.
    """

    __slots__ = ("l", "q", "t", "m", "checks")
    _uncompared = ("checks",)

    @property
    def valid(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "q": str(self.q),
            "t": str(self.t),
            "m": str(self.m),
            "checks": dict(self.checks),
            "valid": self.valid,
        }


def class_number_witness(l: int, q: int) -> Witness:
    """Assemble the nontriviality certificate for t = 2*l*q, m = t**2 + 1.

    The solver confirms both n = 4q and n = q unrepresentable; the n = q
    branch closes the descent case where x and y are both even.  An
    element of norm +-q doubles to one of norm +-4q, so the first check
    implies the second, and n = q is solved only when n = 4q has
    solutions.  q must lie below the bound up to which is_prime is proven.
    """
    if l <= 1:
        raise DomainError("l must exceed 1")
    if q >= _MR_PROVEN_BELOW:
        raise DomainError(
            f"q = {q} is too large: primality is proven only below "
            f"{_MR_PROVEN_BELOW}")
    if not is_prime(q):
        raise DomainError(f"q = {q} is not prime")
    t = 2 * l * q
    m = t * t + 1
    split = m % q == 1 if q != 2 else m % 8 == 1
    norm_4q_unsolvable = not is_representable(m, 4 * q)
    checks = {
        "q_prime": True,
        "l_greater_1": True,
        "q_splits": split,
        "4q_below_2t": 4 * q < 2 * t,
        "4q_nonsquare": not is_square(4 * q),
        "norm_4q_unsolvable": norm_4q_unsolvable,
        "norm_q_unsolvable": norm_4q_unsolvable or not is_representable(m, q),
    }
    return Witness(l=l, q=q, t=t, m=m, checks=checks)
