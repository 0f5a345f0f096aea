"""Exact arithmetic in the real quadratic order Z[sqrt(m)].

Elements are stored as integer pairs (a, b) meaning a + b*sqrt(m), with the
nonsquare radicand m >= 2 carried on every value.  All order comparisons of
real embeddings are decided with integer arithmetic only: a high-precision
float may pre-screen elsewhere, but nothing in this module ever rounds.
"""

from __future__ import annotations

from math import isqrt
from operator import attrgetter


class DomainError(ValueError):
    """Input outside the domain rdnorm answers for; any other error is a bug."""


class PerfectSquareError(DomainError):
    """Radicand is a perfect square, so sqrt(m) would be rational."""


def is_square(n: int) -> bool:
    """True iff n is a perfect square (negative n is never one)."""
    return n >= 0 and isqrt(n) ** 2 == n


def check_radicand(m: int) -> None:
    """Reject radicands outside the supported domain (m >= 2, nonsquare)."""
    if m < 2:
        raise DomainError(f"radicand must be >= 2, got {m}")
    if is_square(m):
        raise PerfectSquareError(f"radicand {m} is a perfect square")


def _sgn(n: int) -> int:
    return (n > 0) - (n < 0)


def sign_ab(a: int, b: int, m: int) -> int:
    """Sign of the real number a + b*sqrt(m), in {-1, 0, +1}, for a
    nonsquare m (not checked here).

    Same-sign coefficients decide immediately; mixed signs compare
    a**2 against m*b**2 (never equal for b != 0, m nonsquare).
    """
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: the larger of |a| and |b|*sqrt(m) wins
    return 1 if (a * a > m * b * b) == (a > 0) else -1


class Record:
    """Base of rdnorm's immutable value types.

    A subclass names its fields, in order, in __slots__.  Construction by
    position or keyword, equality and hashing on the fields, the repr and
    pickling all follow from that tuple, as they would for a frozen
    dataclass.  The fields named in _uncompared stay out of equality and
    hashing.  A subclass whose fields have defaults gives itself an
    __init__ with that signature, which passes every field on to
    Record.__init__ by position.
    """

    __slots__ = ()
    _uncompared: tuple = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._key = attrgetter(*(f for f in cls.__slots__ if f not in cls._uncompared))
        # the slots' own setters, which bypass __setattr__
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, from arguments bound as Python binds them
        to parameters."""
        name, fields = cls.__name__, cls.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but "
                            f"{len(args)} were given")
        values = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
        values |= kwargs
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments {missing}")
        return [values[f] for f in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuild through __init__: __setattr__ refuses the default route
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class QuadInt(Record):
    """a + b*sqrt(m) with arbitrary-precision integer coefficients.

    Values are immutable; arithmetic requires equal radicands and raises
    DomainError on a mismatch.  Plain ints coerce to rational elements.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a: int, b: int, m: int) -> None:
        # Runs on every multiply, so the slots are set directly.
        # check_radicand is read from the module globals on each call: the
        # benchmark's counting pass rebinds it there.
        check_radicand(m)
        _set_a(self, a)
        _set_b(self, b)
        _set_m(self, m)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other: "QuadInt | int") -> "QuadInt | None":
        if isinstance(other, QuadInt):
            if other.m != self.m:
                raise DomainError(
                    f"mismatched radicands: {self.m} vs {other.m}")
            return other
        if isinstance(other, int):
            return QuadInt(other, 0, self.m)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.a + o.a, self.b + o.b, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.a - o.a, self.b - o.b, self.m)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(
            self.a * o.a + self.m * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.m,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QuadInt(-self.a, -self.b, self.m)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = QuadInt(1, 0, self.m)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- field-theoretic maps ---------------------------------------------

    def conj(self) -> "QuadInt":
        """Image under sqrt(m) -> -sqrt(m)."""
        return QuadInt(self.a, -self.b, self.m)

    def norm(self) -> int:
        """a**2 - m * b**2, the product with the conjugate."""
        return self.a * self.a - self.m * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- exact real-embedding order ----------------------------------------

    def sign_real(self) -> int:
        """Sign of the real number a + b*sqrt(m), in {-1, 0, +1}."""
        return sign_ab(self.a, self.b, self.m)

    def __abs__(self) -> "QuadInt":
        return -self if self.sign_real() < 0 else self

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot order QuadInt against {type(other)!r}")
        return (self - o).sign_real()

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """JSON object with decimal-string coefficients."""
        return {"a": str(self.a), "b": str(self.b), "m": str(self.m)}

    @classmethod
    def from_json(cls, obj: dict) -> "QuadInt":
        return cls(int(obj["a"]), int(obj["b"]), int(obj["m"]))

    def __str__(self) -> str:
        return f"{self.a} {'+' if self.b >= 0 else '-'} {abs(self.b)}*sqrt({self.m})"


_set_a, _set_b, _set_m = QuadInt._setters


def cmp_real(x: QuadInt, y: QuadInt | int) -> int:
    """-1, 0 or +1 according to the real-embedding order of x and y."""
    return x._cmp(y)


def sign_real(x: QuadInt) -> int:
    return x.sign_real()
