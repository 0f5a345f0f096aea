"""Continued fractions of sqrt(m) and fundamental units of Z[sqrt(m)].

The fundamental unit is always the unit of the order Z[sqrt(m)] itself,
never of the maximal order; units of norm -1 are accepted (and returned,
being the smaller generator, whenever the period length is odd).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .qint import DomainError, QuadInt, check_radicand


@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction of sqrt(m): [a0; period repeating]."""

    a0: int
    period: tuple[int, ...]

    @property
    def period_length(self) -> int:
        return len(self.period)


def cf_sqrt(m: int) -> CFExpansion:
    """Expand sqrt(m) by the (P, Q) recurrence.

    The period is closed at the first return of the (P, Q) state, not by
    any palindrome shortcut.
    """
    check_radicand(m)
    a0 = isqrt(m)
    P, Q = a0, m - a0 * a0
    start = (P, Q)
    period = []
    while True:
        a = (a0 + P) // Q
        period.append(a)
        P = a * Q - P
        Q = (m - P * P) // Q
        if (P, Q) == start:
            break
    return CFExpansion(a0, tuple(period))


def period_end_convergent(cf: CFExpansion) -> tuple[int, int]:
    """Convergent p/q of the expansion cf just before the period repeats.

    p + q*sqrt(m) is the fundamental unit of Z[sqrt(m)]; its norm is
    (-1) ** period_length.
    """
    p_prev, p = 1, cf.a0
    q_prev, q = 0, 1
    for a in cf.period[:-1]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


@lru_cache(maxsize=1024)
def fundamental_unit(m: int) -> QuadInt:
    """Smallest unit eps = a + b*sqrt(m) of Z[sqrt(m)] with eps > 1.

    Both coefficients are positive and |norm| = 1; the norm is -1 exactly
    when the continued-fraction period of sqrt(m) has odd length.
    """
    p, q = period_end_convergent(cf_sqrt(m))
    return QuadInt(p, q, m)


def is_unit(x: QuadInt) -> bool:
    """True iff |a**2 - m*b**2| = 1."""
    return x.norm() in (1, -1)


def rd_unit(t: int, r: int) -> QuadInt | None:
    """Closed-form unit for radicands m = t**2 + r with r in {1, -1, 2, -2}.

    Returns None for other r (callers fall back to fundamental_unit).  The
    result is a unit > 1 but not always the fundamental one: for (t, r) =
    (2, -2) it is the square of the fundamental unit of Z[sqrt(2)].
    """
    m = t * t + r
    if t < 1 or r == 0 or abs(r) > t or (4 * t) % r != 0:
        raise DomainError(f"(t={t}, r={r}) is not a valid t**2+r decomposition")
    if r in (1, -1):
        return QuadInt(t, 1, m)
    if r == 2:
        return QuadInt(t * t + 1, t, m)
    if r == -2:
        return QuadInt(t * t - 1, t, m)
    return None
