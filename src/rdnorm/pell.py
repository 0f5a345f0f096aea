"""Continued fractions of sqrt(m) and fundamental units of Z[sqrt(m)].

The fundamental unit is always the unit of the order Z[sqrt(m)] itself,
never of the maximal order; units of norm -1 are accepted (and returned,
being the smaller generator, whenever the period length is odd).

The unit is the convergent at the end of the first period, i.e. the
product of the matrices [[a, 1], [1, 0]] of the partial quotients.  The
period a1, ..., aL of sqrt(m) ends in 2*a0 and a1, ..., a(L-1) is a
palindrome, so only its first half is computed: the (P, Q) walk stops at
the centre, and with S the product over the first half, the one over
a1, ..., a(L-1) is S*S^T (L odd) or S*M*S^T with the centre's matrix M
(L even).  S is formed
by binary splitting, pairwise in a balanced tree, so its cost is
O(M(d) log L) for a d-digit unit and period length L rather than the
O(L*d) of one recurrence step per quotient.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .qint import DomainError, QuadInt, Record, check_radicand


class CFExpansion(Record):
    """Periodic continued fraction of sqrt(m): [a0; period repeating],
    with the int a0 and the period a tuple of ints."""

    __slots__ = ("a0", "period")

    @property
    def period_length(self) -> int:
        return len(self.period)


def cf_sqrt(m: int) -> CFExpansion:
    """Expand sqrt(m) by the (P, Q) recurrence, walking half the period.

    The states are palindromic too: Q_k = Q_(L-k) and P_k = P_(L+1-k), and
    within the first period Q_k = Q_(k-1) holds only for L = 2k - 1 and
    P_(k+1) = P_k only for L = 2k.  The walk stops at the first of the two
    and the period is the quotients read forth and back, then 2*a0.
    """
    check_radicand(m)
    a0 = isqrt(m)
    # (P, Q) is (P_k, Q_k) and Q_prev is Q_(k-1), from k = 1 on, Q_0 = 1;
    # Q_1 = 1 is the period of length 1, m = a0**2 + 1
    P, Q, Q_prev = a0, m - a0 * a0, 1
    half = []
    while Q != Q_prev:
        a = (a0 + P) // Q
        half.append(a)
        P_next = a * Q - P
        if P_next == P:  # L = 2k and a = a_k is the centre, read once
            return CFExpansion(a0, (*half, *half[-2::-1], 2 * a0))
        # Q_(k+1) = (m - P_(k+1)**2) / Q_k, by an identity free of division
        P, Q, Q_prev = P_next, Q_prev + a * (P - P_next), Q
    return CFExpansion(a0, (*half, *half[::-1], 2 * a0))


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
    (-1) ** period_length.  Raises DomainError unless cf is the expansion
    of a square root: a period ending in 2*a0, the rest a palindrome.
    """
    rest = cf.period[:-1]
    if not cf.period or cf.period[-1] != 2 * cf.a0 or rest != rest[::-1]:
        raise DomainError(f"not the expansion of a square root: a0 = {cf.a0}, "
                          f"period length {cf.period_length}")
    # The quotients a0, a1, ..., ah before the centre multiply to
    # T = M(a0)*S = [[p, p_prev], [q, q_prev]], so S's first row is
    # (q, q_prev).  The unit, the first column of T*S^T (L odd) or of
    # T*M(c)*S^T (L even, centre c), is T or T*M(c) times (q, q_prev).
    h = len(rest) // 2
    p, p_prev, q, q_prev = _cf_matrix((cf.a0,) + rest[:h], 0, h + 1)
    if len(rest) % 2 == 0:
        return p * q + p_prev * q_prev, q * q + q_prev * q_prev
    c = rest[h]
    return (c * p + p_prev) * q + p * q_prev, q * (c * q + 2 * q_prev)


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
