"""Test references that no rdnorm command needs, so they live with the tests.

- brute_oracle: the naive double loop the solver is checked against;
- canonical_rep: one representative per orbit, by reduce_window;
- sign_real: QuadInt.sign_real as a plain function.
"""

from rdnorm import DomainError, QuadInt, reduce_window


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


def canonical_rep(alpha: QuadInt, eps: QuadInt) -> QuadInt:
    """Deterministic representative of the orbit {+-alpha * eps**j}."""
    return reduce_window(alpha, eps).alpha


sign_real = QuadInt.sign_real
