"""Test references that no rdnorm command needs, so they live with the tests.

- brute_oracle: the naive double loop the solver is checked against;
- stepwise_reduce and canonical_rep: an element's window associate, and
  with it one representative per orbit, found one exact QuadInt unit step
  at a time, apart from reduce_window and its window test;
- sign_real: QuadInt.sign_real as a plain function;
- in_window and window_reps: the window test and the reps of a list of
  hits, on QuadInts, with an explicit sort.
"""

from rdnorm import DomainError, QuadInt, unit_inverse


def brute_oracle(m: int, n: int, x_max: int, y_max: int) -> list[tuple[int, int]]:
    """All (x, y), |x| <= x_max, 0 <= y <= y_max, with |x**2 - m*y**2| = n.

    Plain double loop with no unit-group logic; the independent reference
    the solver is checked against.
    """
    if x_max < 0 or y_max < 0:
        raise DomainError("bounds must be nonnegative")
    out = []
    for y in range(y_max + 1):
        myy = m * y * y
        for x in range(-x_max, x_max + 1):
            if abs(x * x - myy) == n:
                out.append((x, y))
    return out


def stepwise_reduce(xi: QuadInt, eps: QuadInt) -> tuple[int, QuadInt, int]:
    """reduce_window's (j, alpha, n), with the exponent j found one unit
    step at a time."""
    n = abs(xi.norm())
    alpha = abs(xi)
    inv = unit_inverse(eps)
    j = 0
    while (n * eps - alpha * alpha).sign_real() <= 0:
        alpha = alpha * inv
        j -= 1
    while (alpha * alpha * eps - n).sign_real() < 0:
        alpha = alpha * eps
        j += 1
    return j, alpha, n


def canonical_rep(alpha: QuadInt, eps: QuadInt) -> QuadInt:
    """Deterministic representative of the orbit {+-alpha * eps**j}."""
    return stepwise_reduce(alpha, eps)[1]


sign_real = QuadInt.sign_real


def in_window(alpha: QuadInt, eps: QuadInt, n: int) -> bool:
    """sqrt(n/eps) <= alpha < sqrt(n*eps), by QuadInt arithmetic on
    alpha**2."""
    sq = alpha * alpha
    return (sq * eps - n).sign_real() >= 0 and (n * eps - sq).sign_real() > 0


def rep_key(x: int, y: int) -> tuple:
    """The order of the reps of one n: (|y|, |x|, -sgn(y), -sgn(x))."""
    return abs(y), abs(x), (y < 0) - (y > 0), (x < 0) - (x > 0)


def window_reps(m: int, n: int, eps: QuadInt, hits) -> list[tuple[int, int]]:
    """The pairs (x, y) of the elements |+-a + b*sqrt(m)|, over the hits
    (a, b) of norm n in any order, that lie in the window of norm n,
    sorted by rep_key."""
    reps = set()
    for a, b in hits:
        for x in (a, -a):
            alpha = abs(QuadInt(x, b, m))
            if in_window(alpha, eps, n):
                reps.add((alpha.a, alpha.b))
    return sorted(reps, key=lambda r: rep_key(*r))
