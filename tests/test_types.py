"""The public value types behave as frozen records.

Each of the nine types is built from its fields by position or keyword,
compares and hashes by its fields (Witness leaves its checks out), refuses
assignment and deletion, prints the repr a frozen dataclass prints, and
survives copy, deepcopy and pickle.
"""

import copy
import pickle

import pytest

from rdnorm import (
    CFExpansion,
    Counterexample,
    NormClassifier,
    QuadInt,
    RDForm,
    ReductionResult,
    SolutionSet,
    VerificationReport,
    Witness,
)

EPS = QuadInt(3, 1, 10)
REPS = (QuadInt(2, 1, 10), QuadInt(-2, 1, 10))
CHECKS = {"q_prime": True, "q_splits": False}

# type, field names, a value, another value of the same type, its repr
CASES = [
    (QuadInt, ("a", "b", "m"), (3, 1, 10), (3, -1, 10),
     "QuadInt(a=3, b=1, m=10)"),
    (CFExpansion, ("a0", "period"), (3, (6,)), (3, (1, 2)),
     "CFExpansion(a0=3, period=(6,))"),
    (ReductionResult, ("j", "alpha", "n"), (-1, QuadInt(-2, 1, 10), 6),
     (0, QuadInt(-2, 1, 10), 6),
     "ReductionResult(j=-1, alpha=QuadInt(a=-2, b=1, m=10), n=6)"),
    (SolutionSet, ("m", "n", "eps", "reps"), (10, 6, EPS, REPS), (10, 6, EPS, REPS[:1]),
     "SolutionSet(m=10, n=6, eps=QuadInt(a=3, b=1, m=10), "
     "reps=(QuadInt(a=2, b=1, m=10), QuadInt(a=-2, b=1, m=10)))"),
    (RDForm, ("t", "r", "m"), (3, 1, 10), (3, -1, 8),
     "RDForm(t=3, r=1, m=10)"),
    (NormClassifier,
     ("prop_id", "t", "threshold", "listed", "double_square_escape", "orbit_clause"),
     ("2.5", 12, 50, (23, 25), True, False), ("2.5", 12, 50, (23, 25), False, False),
     "NormClassifier(prop_id='2.5', t=12, threshold=50, listed=(23, 25), "
     "double_square_escape=True, orbit_clause=False)"),
    (Counterexample, ("t", "n", "x", "y"), (3, 10, 7, 2), (3, 10, -7, 2),
     "Counterexample(t=3, n=10, x=7, y=2)"),
    (VerificationReport, ("prop_id", "t_min", "t_max", "checked_count", "exceptions"),
     ("2.4", 3, 4, 36, (Counterexample(3, 10, 7, 2),)), ("2.4", 3, 4, 36, ()),
     "VerificationReport(prop_id='2.4', t_min=3, t_max=4, checked_count=36, "
     "exceptions=(Counterexample(t=3, n=10, x=7, y=2),))"),
    (Witness, ("l", "q", "t", "m", "checks"), (2, 2, 8, 65, CHECKS), (2, 3, 12, 145, CHECKS),
     "Witness(l=2, q=2, t=8, m=65, checks={'q_prime': True, 'q_splits': False})"),
]

ids = [case[0].__name__ for case in CASES]
cases = pytest.mark.parametrize("cls, fields, values, other, text", CASES, ids=ids)


def fields_of(value, fields):
    return tuple(getattr(value, name) for name in fields)


@cases
def test_positional_and_keyword_construction(cls, fields, values, other, text):
    x = cls(*values)
    assert fields_of(x, fields) == values
    assert cls(**dict(zip(fields, values))) == x
    half = len(fields) // 2
    assert cls(*values[:half], **dict(zip(fields[half:], values[half:]))) == x


@cases
def test_wrong_arguments_raise_type_error(cls, fields, values, other, text):
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], values[1:])))  # first field missing
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one positional too many
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})  # given twice
    with pytest.raises(TypeError):
        cls()


def test_norm_classifier_defaults():
    c = NormClassifier("2.3", 5, 10, ())
    assert (c.double_square_escape, c.orbit_clause) == (False, False)
    assert c == NormClassifier("2.3", 5, 10, (), False, False)
    with pytest.raises(TypeError):
        NormClassifier("2.3", 5, 10)


@cases
def test_equality_and_hash_agree(cls, fields, values, other, text):
    x, y, z = cls(*values), cls(*values), cls(*other)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert x != z and not x == z
    assert {x, y, z} == {x, z}


@cases
def test_unequal_to_plain_values(cls, fields, values, other, text):
    x = cls(*values)
    for plain in (values, list(values), values[0], None):
        assert (x == plain) is False
        assert (plain == x) is False
        assert x != plain


def test_quadint_unequal_to_int():
    assert QuadInt(3, 0, 10) != 3
    assert (QuadInt(0, 0, 10) == 0) is False


def test_witness_equality_ignores_checks():
    w = Witness(2, 2, 8, 65, CHECKS)
    v = Witness(2, 2, 8, 65, {"q_prime": False})
    assert w == v and hash(w) == hash(v)
    assert w.checks != v.checks


@cases
def test_fields_are_frozen(cls, fields, values, other, text):
    x = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert fields_of(x, fields) == values


@cases
def test_repr_is_the_dataclass_repr(cls, fields, values, other, text):
    assert repr(cls(*values)) == text


@cases
def test_copy_deepcopy_and_pickle_round_trip(cls, fields, values, other, text):
    x = cls(*values)
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol)) for protocol in
               range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is cls
        assert y == x
        assert fields_of(y, fields) == values
