"""Placing an element of Z[sqrt(m)] into a multiplicative window.

Every nonzero xi has a unique associate +-xi*eps**j that is positive and
lies in [c, c*eps) with c = sqrt(n/eps), n = |norm(xi)|.  One routine,
_window_reps, decides that window for the whole package, on int pairs:
for a, b >= 0 the elements a + b*sqrt(m) and |a - b*sqrt(m)| multiply to
n, so one exact sign says which of them lie in it.  It takes the norm n
its caller holds and the hits of that norm: the solver hands it one norm's
hits at a time, reduce_window and reduce_half one element.
The exponent j is guessed from floating-point logarithms.  eps**j is
computed exactly, but the product alpha*eps**j with alpha = |xi|, which
is small once j is right, is read from the low bits of the coefficients
and accepted only if dividing it by eps**j gives back alpha exactly, sign
included; so the reduction costs one power of the unit plus work linear
in the size of xi, not a product at that size.  Exact unit steps on int
pairs then fix it up, and the window test says which way to step: a
positive element whose coefficients are both positive is the larger of
its pair, so outside the window it lies above it; one with mixed signs
is the smaller, so it lies below.  reduce_half's half window of alpha at
norm n is the window of alpha**2 at norm n**2, so it runs the same test.
The float guess only sets where the steps start, never where they stop.
"""

from __future__ import annotations

from math import exp, log, log1p

from .pell import is_unit
from .qint import DomainError, QuadInt, Record, pow_ab, sign_ab, square_ab


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


def _check_reducer(eps: QuadInt, m: int) -> None:
    if eps.m != m:
        raise DomainError(f"unit {eps} does not lie in Z[sqrt({m})]")
    if not is_unit(eps):
        raise DomainError(f"{eps} is not a unit")
    # A unit eps > 1 has |conj(eps)| = 1/eps < 1, so a = (eps + conj)/2 and
    # b*sqrt(m) = (eps - conj)/2 are both positive; conversely a, b >= 1
    # give eps >= 1 + sqrt(m) > 1.
    if eps.a < 1 or eps.b < 1:
        raise DomainError(f"unit {eps} must exceed 1")


def _window_reps(
    m: int, eps: QuadInt, n: int, hits: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The canonical reps of the hits of norm n, as int pairs (x, y) for
    x + y*sqrt(m): the elements |+-a + b*sqrt(m)| over the hits (a, b) that
    lie in the window of norm n, or [] when none does.  The hits must have
    a, b >= 0 and come in ascending (b, a) order; the reps then come in the
    order of the key (|y|, |x|, -sgn(y), -sgn(x)), with no sort.

    For a, b > 0 the two elements are alpha = a + b*sqrt(m) and
    |beta| = s*(a - b*sqrt(m)), s the sign of a**2 - m*b**2, with
    alpha > |beta| and alpha*|beta| = n.  A gamma > 0 of |norm| n lies in
    [sqrt(n/eps), sqrt(n*eps)) iff (n/gamma)/eps <= gamma < (n/gamma)*eps,
    so alpha is in iff alpha < |beta|*eps and |beta| iff alpha <=
    |beta|*eps: one exact sign, of |beta|*eps - alpha, decides both.  For
    a = 0 or b = 0 both signs give the same element, which always lies in
    the window.
    """
    e, f = eps.a, eps.b
    mf = m * f
    reps = []
    for a, b in hits:
        if not a or not b:
            reps.append((a, b))
            continue
        s = 1 if a * a > m * b * b else -1
        c = sign_ab(s * (a * e - b * mf) - a, s * (a * f - b * e) - b, m)
        if c > 0:
            reps.append((a, b))
        if c >= 0:
            reps.append((a, -b) if s > 0 else (-a, b))
    return reps


def _log_abs_sum(a: int, b: int, m: int) -> float:
    """log(|a| + |b|*sqrt(m)) of a nonzero a + b*sqrt(m), free of
    cancellation whatever the signs of a and b."""
    if b == 0:
        return log(abs(a))
    lb = log(abs(b)) + log(m) / 2
    if a == 0:
        return lb
    la = log(abs(a))
    return max(la, lb) + log1p(exp(-abs(la - lb)))


def _guess_exponent(a: int, b: int, eps: QuadInt, n: int) -> int:
    """Float estimate of the j that puts alpha*eps**j into the window, for
    alpha = a + b*sqrt(m) > 0 of absolute norm n.

    The window is centred on sqrt(n) in log scale, so j is the nearest
    integer to (log(n)/2 - log(alpha)) / log(eps).  alpha > 0, so a negative
    coefficient means mixed signs; then alpha is small against its
    coefficients, and log(alpha) is taken as log(n) minus the log of the
    conjugate's absolute value, |a| + |b|*sqrt(m).
    """
    log_alpha = _log_abs_sum(a, b, eps.m)
    if a < 0 or b < 0:
        log_alpha = log(n) - log_alpha
    return round((log(n) / 2 - log_alpha) / _log_abs_sum(eps.a, eps.b, eps.m))


def _small_product(a: int, b: int, e: int, f: int, m: int, s: int,
                   k: int) -> tuple[int, int]:
    """Coefficients (x, y) of (a + b*sqrt(m)) * E for a unit E = e + f*sqrt(m)
    of norm s, found in time linear in the size of the factors when the
    product is small.

    x and y are taken from the low k bits of the four coefficients and
    lifted to the symmetric range [-2**(k-1), 2**(k-1)).  They are accepted
    only if s*(x + y*sqrt(m))*conj(E) equals a + b*sqrt(m) exactly, sign
    included; as E*conj(E) = s = +-1, that is (x + y*sqrt(m)) / E.
    Otherwise k doubles.  Once
    2**(k-1) exceeds both true coefficients the lift is exact, so the loop
    ends.
    """
    sa, sb = s * a, s * b
    while True:
        size, half = 1 << k, 1 << (k - 1)
        mask = size - 1
        ak, bk, ek, fk = a & mask, b & mask, e & mask, f & mask
        x = (ak * ek + m * (bk * fk)) & mask
        y = (ak * fk + bk * ek) & mask
        if x >= half:
            x -= size
        if y >= half:
            y -= size
        if x * e - (m * y) * f == sa and y * e - x * f == sb:
            return x, y
        k *= 2


def reduce_window(xi: QuadInt, eps: QuadInt) -> ReductionResult:
    """Reduce xi to its canonical positive associate in [c, c*eps).

    A float guess j of the exponent is applied in one step: eps**j is
    computed exactly, and the product alpha*eps**j, which the guess makes
    small, is read from its low bits and checked exactly (_small_product).
    Exact unit steps on int pairs then finish the job, each after one
    _window_reps test: eps > 1 guarantees that multiplying or dividing by
    eps terminates, and the half-open window makes the exponent unique, so
    the result does not depend on the guess.
    """
    if xi.is_zero():
        raise DomainError("cannot reduce zero")
    _check_reducer(eps, xi.m)
    m, e, f, s = eps.m, eps.a, eps.b, eps.norm()
    a, b = xi.a, xi.b
    nrm = a * a - m * (b * b)
    n = abs(nrm)
    # the sign of xi: with mixed signs, a outweighs b*sqrt(m) exactly when
    # the norm is positive; otherwise any negative coefficient makes xi < 0
    if a and b and (a < 0) != (b < 0):
        negative = (a < 0) == (nrm > 0)
    else:
        negative = a < 0 or b < 0
    if negative:
        a, b = -a, -b
    j = _guess_exponent(a, b, eps, n)
    if j:
        step = (e, f) if j > 0 else (s * e, -s * f)  # eps**-1 = s*conj(eps)
        big_e, big_f = pow_ab(*step, m, abs(j))
        # Within two unit steps of the window, alpha and its conjugate are
        # below sqrt(n)*eps**2.5 in absolute value, and so are both
        # coefficients; eps < 2**(e.bit_length() + 1).
        k = (n.bit_length() + 5 * e.bit_length() + 6) // 2 + 1
        # eps**j has norm s**j
        a, b = _small_product(a, b, big_e, big_f, m, s ** (j & 1), k)
    while (a, b) not in _window_reps(m, eps, n, [(abs(a), abs(b))]):
        if a > 0 and b > 0:  # the larger of its pair: above the window
            a, b = s * (a * e - m * b * f), s * (b * e - a * f)
            j -= 1
        else:  # mixed signs, the smaller of its pair: below the window
            a, b = a * e + m * b * f, a * f + b * e
            j += 1
    return ReductionResult(j, QuadInt(a, b, m), n)


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
    in [sqrt(2n/sqrt(eps)), sqrt(2n*sqrt(eps))).  A half window at norm n
    holds alpha iff the window at norm n**2 holds alpha**2, so _window_reps
    decides it, and the signs of the coefficients of alpha**2 say, as in
    reduce_window, whether an alpha outside lies above it, where the
    division by eps is due, or below.
    """
    t = delta.a
    if delta.b != 1 or t < 1 or delta.m != t * t + 2:
        raise DomainError(f"delta must be t + sqrt(t**2+2), got {delta}")
    if delta * delta != 2 * eps:
        raise DomainError("delta**2 != 2*eps")

    res = reduce_window(xi, eps)
    j, alpha = res.j, res.alpha
    sa, sb = square_ab(alpha.a, alpha.b, eps.m)
    if (sa, sb) in _window_reps(eps.m, eps, res.n * res.n, [(sa, abs(sb))]):
        return res, "direct"
    if sb > 0:  # alpha**2 above its window: alpha above the half window
        alpha = alpha * unit_inverse(eps)
        j -= 1
    # norm(delta) = t**2 - m = -2
    return ReductionResult(j, alpha * delta, 2 * res.n), "delta-multiplied"
