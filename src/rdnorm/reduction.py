"""Placing an element of Z[sqrt(m)] into a multiplicative window.

Every nonzero xi has a unique associate +-xi*eps**j that is positive and
lies in [c, c*eps) with c = sqrt(n/eps), n = |norm(xi)|.  The exponent j
is guessed from floating-point logarithms and applied by binary powering;
exact steps by eps then fix it up.  The window tests are carried out on
squared (or fourth-power) quantities so that they stay inside Z[sqrt(m)]
and are decided exactly by integer signs: sign_ab on the coefficients of
alpha**2*eps - n and n*eps - alpha**2 for the window, sign_real for
reduce_half's fourth powers.  The float guess only sets where the steps
start, never where they stop.
"""

from __future__ import annotations

from math import exp, log, log1p

from .pell import is_unit
from .qint import DomainError, QuadInt, Record, sign_ab


class ReductionResult(Record):
    """Outcome of a window reduction.

    j is the exponent applied to the unit, alpha the positive reduced
    associate (a QuadInt), and n the absolute norm of alpha.
    """

    __slots__ = ("j", "alpha", "n")


def unit_inverse(eps: QuadInt) -> QuadInt:
    """eps**-1 as +-conj(eps), staying inside Z[sqrt(m)]."""
    nrm = eps.norm()
    if nrm == 1:
        return eps.conj()
    if nrm == -1:
        return -eps.conj()
    raise DomainError(f"{eps} is not a unit (norm {nrm})")


def _check_reducer(eps: QuadInt) -> None:
    if not is_unit(eps):
        raise DomainError(f"{eps} is not a unit")
    # A unit eps > 1 has |conj(eps)| = 1/eps < 1, so a = (eps + conj)/2 and
    # b*sqrt(m) = (eps - conj)/2 are both positive; conversely a, b >= 1
    # give eps >= 1 + sqrt(m) > 1.
    if eps.a < 1 or eps.b < 1:
        raise DomainError(f"unit {eps} must exceed 1")


def _square(a: int, b: int, m: int) -> tuple[int, int]:
    """Coefficients of (a + b*sqrt(m))**2."""
    return a * a + m * b * b, 2 * a * b


def _above_lower(sa: int, sb: int, m: int, e: int, f: int, n: int) -> bool:
    """alpha**2 * eps >= n, for alpha**2 = sa + sb*sqrt(m), eps = e + f*sqrt(m)."""
    return sign_ab(sa * e + m * sb * f - n, sa * f + sb * e, m) >= 0


def _below_upper(sa: int, sb: int, m: int, e: int, f: int, n: int) -> bool:
    """alpha**2 < n * eps, for alpha**2 = sa + sb*sqrt(m), eps = e + f*sqrt(m)."""
    return sign_ab(n * e - sa, n * f - sb, m) > 0


def _in_window(a: int, b: int, m: int, e: int, f: int, n: int) -> bool:
    """in_window for alpha = a + b*sqrt(m) > 0 and eps = e + f*sqrt(m), on
    plain ints: the two half-tests on alpha**2."""
    sa, sb = _square(a, b, m)
    return _above_lower(sa, sb, m, e, f, n) and _below_upper(sa, sb, m, e, f, n)


def in_window(alpha: QuadInt, eps: QuadInt, n: int) -> bool:
    """Exact test for sqrt(n/eps) <= alpha < sqrt(n*eps), alpha > 0 assumed.

    Decided on squares, alpha**2*eps >= n and alpha**2 < n*eps, by the
    integer sign of each difference; no QuadInt is built.
    """
    if alpha.m != eps.m:
        raise DomainError(f"mismatched radicands: {alpha.m} vs {eps.m}")
    return _in_window(alpha.a, alpha.b, eps.m, eps.a, eps.b, n)


def _log_abs_sum(x: QuadInt) -> float:
    """log(|a| + |b|*sqrt(m)) of a nonzero x = a + b*sqrt(m), free of
    cancellation whatever the signs of a and b."""
    if x.b == 0:
        return log(abs(x.a))
    lb = log(abs(x.b)) + log(x.m) / 2
    if x.a == 0:
        return lb
    la = log(abs(x.a))
    return max(la, lb) + log1p(exp(-abs(la - lb)))


def _guess_exponent(alpha: QuadInt, eps: QuadInt, n: int) -> int:
    """Float estimate of the j that puts alpha*eps**j into the window.

    The window is centred on sqrt(n) in log scale, so j is the nearest
    integer to (log(n)/2 - log(alpha)) / log(eps).  alpha > 0, so a negative
    coefficient means mixed signs; then alpha is small against its
    coefficients, and log(alpha) is taken as log(n) minus the log of the
    conjugate's absolute value, |a| + |b|*sqrt(m).
    """
    log_alpha = _log_abs_sum(alpha)
    if alpha.a < 0 or alpha.b < 0:
        log_alpha = log(n) - log_alpha
    return round((log(n) / 2 - log_alpha) / _log_abs_sum(eps))


def reduce_window(xi: QuadInt, eps: QuadInt) -> ReductionResult:
    """Reduce xi to its canonical positive associate in [c, c*eps).

    A float guess of the exponent is applied by binary powering, and exact
    steps then finish the job: eps > 1 guarantees that multiplying or
    dividing by eps terminates, and the half-open window makes the exponent
    unique, so the result does not depend on the guess.
    """
    if xi.is_zero():
        raise DomainError("cannot reduce zero")
    _check_reducer(eps)
    n = abs(xi.norm())
    alpha = abs(xi)
    inv = unit_inverse(eps)
    j = _guess_exponent(alpha, eps, n)
    if j:
        alpha = alpha * (eps**j if j >= 0 else inv**-j)
    m, e, f = eps.m, eps.a, eps.b
    # too large: alpha**2 >= n*eps
    while not _below_upper(*_square(alpha.a, alpha.b, m), m, e, f, n):
        alpha = alpha * inv
        j -= 1
    # too small: alpha**2 < n/eps
    while not _above_lower(*_square(alpha.a, alpha.b, m), m, e, f, n):
        alpha = alpha * eps
        j += 1
    return ReductionResult(j, alpha, n)


def reduce_half(
    xi: QuadInt, delta: QuadInt, eps: QuadInt
) -> tuple[ReductionResult, str]:
    """Half-window reduction for radicands m = t**2 + 2, where delta = t + sqrt(m)
    satisfies delta**2 = 2*eps.

    xi is first moved into [sqrt(n*sqrt(eps))/eps, sqrt(n*sqrt(eps))).  The
    window [sqrt(n/eps), sqrt(n*eps)) of reduce_window is also one eps wide
    and starts inside that one, so at most one division by eps remains.
    If the result already sits in the upper half
    [sqrt(n/sqrt(eps)), sqrt(n*sqrt(eps))), the case is "direct"; otherwise
    it is multiplied once by delta, doubling the absolute norm and landing
    in [sqrt(2n/sqrt(eps)), sqrt(2n*sqrt(eps))).  All comparisons use exact
    fourth-power forms.
    """
    t = delta.a
    if delta.b != 1 or t < 1 or delta.m != t * t + 2:
        raise DomainError(f"delta must be t + sqrt(t**2+2), got {delta}")
    if delta * delta != 2 * eps:
        raise DomainError("delta**2 != 2*eps")

    res = reduce_window(xi, eps)
    j, alpha, n = res.j, res.alpha, res.n
    nn = n * n

    def fourth(x: QuadInt) -> QuadInt:
        sq = x * x
        return sq * sq

    # upper edge: alpha < sqrt(n*sqrt(eps))  <=>  alpha**4 < n**2 * eps
    if (nn * eps - fourth(alpha)).sign_real() <= 0:
        alpha = alpha * unit_inverse(eps)
        j -= 1

    # upper half-window: alpha >= sqrt(n/sqrt(eps))  <=>  alpha**4 * eps >= n**2
    if (fourth(alpha) * eps - nn).sign_real() >= 0:
        return ReductionResult(j, alpha, n), "direct"
    alpha = alpha * delta
    return ReductionResult(j, alpha, abs(alpha.norm())), "delta-multiplied"
