"""Continued fractions of sqrt(m) and fundamental units of Z[sqrt(m)].

The fundamental unit is always the unit of the order Z[sqrt(m)] itself,
never of the maximal order; units of norm -1 are accepted (and returned,
being the smaller generator, whenever the period length is odd).

The unit is the convergent at the end of the first period, i.e. the
product of the matrices [[a, 1], [1, 0]] of the partial quotients.  That
product is formed by binary splitting, pairwise in a balanced tree, so
its cost is O(M(d) log L) for a d-digit unit and period length L rather
than the O(L*d) of one recurrence step per quotient.
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
    Q0 = Q
    period = []
    while True:
        a = (a0 + P) // Q
        period.append(a)
        P = a * Q - P
        Q = (m - P * P) // Q
        if P == a0 and Q == Q0:
            break
    return CFExpansion(a0, tuple(period))


# Below this many quotients a range is multiplied out by the plain
# recurrence; its numbers are still too small for the tree to pay.
_LEAF = 32


def _cf_matrix(quotients: tuple[int, ...], lo: int, hi: int
               ) -> tuple[int, int, int, int]:
    """Product of [[a, 1], [1, 0]] over quotients[lo:hi], by binary splitting.

    Returned row by row as (p, p_prev, q, q_prev): for the quotients
    a0, ..., ak of a continued fraction, p/q is the convergent
    [a0; a1, ..., ak] and p_prev/q_prev the one before it.
    """
    if hi - lo <= _LEAF:
        p, p_prev, q, q_prev = 1, 0, 0, 1
        for a in quotients[lo:hi]:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
        return p, p_prev, q, q_prev
    mid = (lo + hi) // 2
    A, B, C, D = _cf_matrix(quotients, lo, mid)
    E, F, G, H = _cf_matrix(quotients, mid, hi)
    return A * E + B * G, A * F + B * H, C * E + D * G, C * F + D * H


def period_end_convergent(cf: CFExpansion) -> tuple[int, int]:
    """Convergent p/q of the expansion cf just before the period repeats.

    p + q*sqrt(m) is the fundamental unit of Z[sqrt(m)]; its norm is
    (-1) ** period_length.
    """
    quotients = (cf.a0,) + cf.period[:-1]
    # only the first column of the product is needed: the top level is
    # split here so that the four largest multiplications, which would
    # form the second column, are skipped
    mid = len(quotients) // 2
    A, B, C, D = _cf_matrix(quotients, 0, mid)
    E, _, G, _ = _cf_matrix(quotients, mid, len(quotients))
    return A * E + B * G, C * E + D * G


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
