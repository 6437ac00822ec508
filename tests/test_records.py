"""The package's value classes: immutable, comparable, hashable, picklable.

One instance of each of the 21 value classes is checked for what a frozen
dataclass gave it: fields that cannot be assigned or deleted, equality by
class and compared fields (a syntax node's ``span`` is not compared), a
hash of the compared-field tuple, ``pickle`` and ``copy.deepcopy`` round
trips, the ``Name(field=value, ...)`` repr, and the constructors'
validation messages.  Every record builds alike by position, by name and
by a mix of the two, and a missing, extra, repeated or unknown field is a
``TypeError``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from mixedpoly.dsl import (
    Add,
    Const,
    Div,
    Exp,
    Log,
    Mul,
    Neg,
    PowInt,
    PowX,
    Sub,
    Token,
    TokenKind,
    VarT,
    parse_text,
)
from mixedpoly.families import FamilyKind, FamilySpec, PolyTable
from mixedpoly.mixed import IdentityInstance, IdentityReport, MixedKind, MixedSpec, Variant
from mixedpoly.padic import (
    DEFAULT_BUDGET,
    BinomialBasis,
    BudgetExceededError,
    PAdicContext,
    TraceRow,
    ValuationTrace,
)
from mixedpoly.series import XPoly

_T = VarT((2, 3))
_ONE = Const(Fraction(1), (0, 1))
_SUM = Add(_ONE, _T, (0, 3))
_INSTANCE = IdentityInstance("E17", 3, 1, 2)
_ROW = TraceRow(1, Fraction(1, 3), Fraction(-2, 3), 0)

RECORDS = [
    Token(TokenKind.INT, "12", 0, 2),
    _ONE,
    _T,
    _SUM,
    Sub(_ONE, _T, (0, 3)),
    Mul(_ONE, _T, (0, 3)),
    Div(_T, Const(Fraction(0), (4, 5)), (2, 5)),
    Neg(_T, (1, 3)),
    PowInt(_T, -3, (2, 8)),
    PowX(_SUM, (0, 7)),
    Log(_SUM, (0, 8)),
    Exp(_T, (0, 6)),
    FamilySpec(FamilyKind.EULER, 2),
    PolyTable(((0, XPoly((1,))), (1, XPoly((Fraction(-1, 2), 1))))),
    MixedSpec(MixedKind.BE, 1, 2),
    _INSTANCE,
    IdentityReport(_INSTANCE, True, XPoly((1,)), XPoly((1,)), XPoly(()), Variant.AS_PRINTED),
    PAdicContext(3, 2),
    BinomialBasis(4),
    _ROW,
    ValuationTrace(Fraction(1, 2), (_ROW,)),
]

# Syntax nodes compare without their span.
_SPANNED = (Const, VarT, Add, Sub, Mul, Div, Neg, PowInt, PowX, Log, Exp)


def _fields(record) -> tuple[str, ...]:
    """Field names in constructor order."""
    return type(record)._fields


def _compared(record) -> tuple:
    return tuple(
        getattr(record, name)
        for name in _fields(record)
        if not (isinstance(record, _SPANNED) and name == "span")
    )


def _rebuilt(record):
    """An equal record built afresh from its fields, positionally."""
    return type(record)(*(getattr(record, name) for name in _fields(record)))


def test_every_value_class_is_sampled():
    assert len({type(record) for record in RECORDS}) == len(RECORDS) == 21


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    for name in _fields(record):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _rebuilt(record) == record


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_pickle_and_deepcopy_give_an_equal_record(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_records_hash_as_their_compared_fields(record):
    twin = _rebuilt(record)
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(_compared(record))
    assert record.__eq__(_compared(record)) is NotImplemented
    assert record != _compared(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_build_by_position_by_name_and_by_both(record):
    values = {name: getattr(record, name) for name in _fields(record)}
    by_name = type(record)(**values)
    first, *rest = _fields(record)
    mixed = type(record)(values[first], **{name: values[name] for name in rest})
    for twin in (by_name, mixed):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_missing_extra_repeated_or_unknown_field_is_a_type_error(record):
    cls, fields = type(record), _fields(record)
    values = [getattr(record, name) for name in fields]
    first, *rest = fields
    for build in (
        lambda: cls(**{name: getattr(record, name) for name in rest}),  # the first field missing
        lambda: cls(*values, None),  # one value too many
        lambda: cls(*values, **{first: values[0]}),  # the first field twice
        lambda: cls(*values, bogus=None),  # no such field
    ):
        with pytest.raises(TypeError, match=cls.__qualname__):
            build()


def test_syntax_nodes_compare_and_hash_without_their_span():
    a, b = parse_text("1+t"), parse_text(" 1 + t")
    assert a.span != b.span
    assert a == b and hash(a) == hash(b)
    assert parse_text("1+t") != parse_text("1-t")
    # Equal fields in another class are another value.
    assert Add(_ONE, _T, (0, 3)) != Sub(_ONE, _T, (0, 3))


def test_padic_context_keeps_its_keyword_constructor_and_default_budget():
    assert PAdicContext(p=3, N=2) == PAdicContext(3, 2, DEFAULT_BUDGET)
    assert PAdicContext(3, 2).budget == DEFAULT_BUDGET
    assert PAdicContext(3, 2).modulus == 9


INVALID = [
    (lambda: FamilySpec(FamilyKind.EULER, -1), ValueError, "family order must be >= 0"),
    (lambda: MixedSpec(MixedKind.BE, 0, 1), ValueError, "mixed-type orders r, s must be >= 1"),
    (lambda: MixedSpec(MixedKind.CD, 1, 0), ValueError, "mixed-type orders r, s must be >= 1"),
    (lambda: PAdicContext(4, 1), ValueError, "p must be an odd prime"),
    (lambda: PAdicContext(3, 0), ValueError, "level N must be >= 1"),
    (lambda: PAdicContext(3, 50), BudgetExceededError, "p^N = 3^50 exceeds budget 10000000"),
    (lambda: PAdicContext(3, 1, budget=2), BudgetExceededError, "p^N = 3^1 exceeds budget 2"),
    (lambda: BinomialBasis(-1), ValueError, "binomial index must be >= 0"),
]


@pytest.mark.parametrize("build,error,message", INVALID)
def test_constructors_keep_their_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


REPRS = [
    (
        parse_text("1+t"),
        "Add(left=Const(value=Fraction(1, 1), span=(0, 1)), right=VarT(span=(2, 3)), span=(0, 3))",
    ),
    (
        parse_text("-log(1+t)^2/exp(t)^x"),
        "Div(left=Neg(operand=PowInt(base=Log(arg=Add(left=Const(value=Fraction(1, 1),"
        " span=(5, 6)), right=VarT(span=(7, 8)), span=(5, 8)), span=(1, 9)), exponent=2,"
        " span=(1, 11)), span=(0, 11)), right=PowX(base=Exp(arg=VarT(span=(16, 17)),"
        " span=(12, 18)), span=(12, 20)), span=(0, 20))",
    ),
    (RECORDS[0], "Token(kind=<TokenKind.INT: 'int'>, text='12', start=0, end=2)"),
    (RECORDS[12], "FamilySpec(kind=<FamilyKind.EULER: 'E'>, order=2)"),
    (RECORDS[17], "PAdicContext(p=3, N=2, budget=10000000)"),
    (
        RECORDS[16],
        "IdentityReport(instance=IdentityInstance(identity_id='E17', n=3, r=1, s=2),"
        " passed=True, lhs=XPoly(1), rhs=XPoly(1), diff=XPoly(0),"
        " variant=<Variant.AS_PRINTED: 'as-printed'>)",
    ),
    (_ROW, "TraceRow(N=1, approximant=Fraction(1, 3), residual=Fraction(-2, 3), vp=0)"),
    (PolyTable(((0, XPoly((1,))),)), "PolyTable(rows=((0, XPoly(1)),))"),
]


@pytest.mark.parametrize("record,text", REPRS)
def test_repr_names_every_field(record, text):
    assert repr(record) == text
