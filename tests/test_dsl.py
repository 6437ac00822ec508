"""Lexer, parser, evaluator, round trips, and total-safety fuzzing."""

import random
import string
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedpoly import dsl
from mixedpoly.dsl import (
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_EXPONENT,
    Add,
    Const,
    Div,
    DslError,
    Exp,
    LexError,
    Log,
    Mul,
    Neg,
    ParseError,
    PowInt,
    PowX,
    SemanticError,
    SemanticReason,
    Sub,
    TokenKind,
    VarT,
    eval_series,
    eval_text,
    line_col,
    parse_text,
    render,
    tokenize,
)
from mixedpoly.families import FamilyKind, FamilySpec, family_gf
from mixedpoly.mixed import MixedKind, MixedSpec, mixed_gf
from mixedpoly.series import DivisionError, TSeries, XPoly

from collector import left_for_the_collector
from series_reference import binomial_x, exp_xt, expm1, log1p, poly_one, series_t


# -- lexer ----------------------------------------------------------------------


def test_tokenize_binomial_power():
    kinds = [tok.kind for tok in tokenize("(1+t)^x")]
    assert kinds == [
        TokenKind.LPAREN,
        TokenKind.INT,
        TokenKind.PLUS,
        TokenKind.IDENT,
        TokenKind.RPAREN,
        TokenKind.CARET,
        TokenKind.IDENT,
    ]


def test_tokenize_log_quotient():
    toks = tokenize("log(1+t)/t")
    assert toks[0].text == "log"
    assert toks[-2].kind == TokenKind.SLASH
    assert toks[-1].text == "t"


def test_tokenize_changhee_kernel():
    kinds = [tok.kind for tok in tokenize("2/(t+2)")]
    assert kinds == [
        TokenKind.INT,
        TokenKind.SLASH,
        TokenKind.LPAREN,
        TokenKind.IDENT,
        TokenKind.PLUS,
        TokenKind.INT,
        TokenKind.RPAREN,
    ]


def test_tokenize_spans_cover_non_whitespace():
    src = " (1 + t)^x  * log(1+t) "
    toks = tokenize(src)
    covered = set()
    for tok in toks:
        span = range(tok.start, tok.end)
        assert not covered.intersection(span)
        covered.update(span)
    non_ws = {i for i, c in enumerate(src) if not c.isspace()}
    assert covered == non_ws


def test_lex_error_position_and_payload():
    with pytest.raises(LexError) as info:
        tokenize("log(1+y)")
    assert info.value.position == 6
    assert info.value.found == "y"
    with pytest.raises(LexError):
        tokenize("1 @ 2")


# Digit characters other than ASCII 0-9: int() raised ValueError on the
# first two, and "\u0663+t" (Arabic-Indic three) evaluated as 3 + t.
NON_ASCII_DIGITS = [("t^\u00b2", 2), ("(0\u24607", 2), ("\u0663+t", 0), ("12\u0663", 2)]


@pytest.mark.parametrize("src,position", NON_ASCII_DIGITS)
def test_only_ascii_digits_lex_as_integers(src, position):
    with pytest.raises(LexError) as info:
        eval_text(src, 3)
    assert info.value.position == position
    assert info.value.found == src[position]


# -- parser ---------------------------------------------------------------------


def test_parse_precedence():
    ast = parse_text("1+t*t")
    assert isinstance(ast, Add)
    assert isinstance(ast.left, Const)
    assert isinstance(ast.right, Mul)


def test_parse_daehee_squared_structure():
    ast = parse_text("(log(1+t)/t)^2*(1+t)^x")
    assert isinstance(ast, Mul)
    assert isinstance(ast.left, PowInt) and ast.left.exponent == 2
    assert isinstance(ast.left.base, Div)
    assert isinstance(ast.left.base.left, Log)
    assert isinstance(ast.right, PowX)


def test_negative_exponent_needs_parentheses():
    with pytest.raises(ParseError):
        parse_text("t^-1")
    ast = parse_text("t^(-1)")
    assert isinstance(ast, PowInt) and ast.exponent == -1


def test_unary_minus_precedence():
    ast = parse_text("-t^2")
    assert isinstance(ast, Neg) and isinstance(ast.operand, PowInt)
    ast = parse_text("-t*t")
    assert isinstance(ast, Mul) and isinstance(ast.left, Neg)


def test_bare_x_rejected_outside_exponent():
    with pytest.raises(ParseError):
        parse_text("x+1")


def test_rationals_fold_at_parse_time():
    ast = parse_text("3/4")
    assert ast == Const(F(3, 4), (0, 0))
    ast = parse_text("1/2*t")
    assert isinstance(ast, Mul) and ast.left == Const(F(1, 2), (0, 0))


def test_huge_exponent_rejected():
    with pytest.raises(ParseError):
        parse_text("9^99999999")


def test_power_chain_exponent_product_is_inclusive():
    # A chain multiplies its exponents: 2^1000^1000 is 2^(10^6).
    assert eval_text("2^1000^1000", 1).coeff(0) == XPoly((2**MAX_EXPONENT,))
    for src in ("2^1000^1001", "(t^1000)^1001", "t^1000^(-1001)", "t" + "^10" * 7):
        with pytest.raises(ParseError) as info:
            parse_text(src)
        assert info.value.position == src.rindex("10")


# Powers of constants nested in other nodes; each once evaluated to a
# 10^7- or 10^8-bit integer, or would have needed far more.
NESTED_POWERS = [
    "(-(2^1000))^100000",
    "(1*2^1000)^10000",
    "(2^1000+1)^100000",
    "(2^1000-1)^1001",
    "(2^1000/3)^1001",
    "exp(t*2^1000)^1001",
    "(log(1+t^1000))^1001",
    "(t^2+t^3)^600000",
    "(t^0)^2000000",
]


@pytest.mark.parametrize("src", NESTED_POWERS)
def test_exponent_product_bound_reaches_through_nesting(src):
    with pytest.raises(ParseError) as info:
        eval_text(src, 2)
    assert info.value.position == src.rindex("^") + 1


def test_repeated_eval_text_returns_an_equal_series():
    src = "(t/(exp(t)-1))^2*exp(t)^x"
    eval_text.cache_clear()
    first = eval_text(src, 6)
    again = eval_text(src, 6)
    assert eval_text.cache_info().hits == 1
    assert again == first == eval_series(parse_text(src), 6)
    assert eval_text(src, 5) == eval_series(parse_text(src), 5)
    assert 0 < eval_text.cache_info().maxsize < float("inf")


@pytest.mark.parametrize("src", ["2$t", "(1+t", "log(t)"])
def test_failing_text_raises_the_same_positioned_error_every_time(src):
    # A DslError is never memoized: every call evaluates and raises anew.
    eval_text.cache_clear()
    seen = []
    for _ in range(3):
        with pytest.raises(DslError) as info:
            eval_text(src, 4)
        seen.append((type(info.value), info.value.position, info.value.message))
    assert seen[0] == seen[1] == seen[2]
    assert eval_text.cache_info().misses == 3
    assert eval_text.cache_info().currsize == 0


# Each of these once escaped as RecursionError or ValueError instead of a
# positioned DslError, in the parser or in eval_series.
OVERSIZED = {
    "parentheses": ("(" * 3000 + "t" + ")" * 3000, MAX_DEPTH),
    "unary-minus": ("0+" + "-" * 5000 + "t", 2 + MAX_DEPTH),
    "log": ("log(" * 3000 + "1+t" + ")" * 3000, 4 * MAX_DEPTH),
    "sum": ("+".join(["t"] * 3000), None),
    "power-chain": ("t" + "^2" * 3000, None),
    "literal": ("1" * 5000, 0),
    "exponent-literal": ("t^" + "1" * 5000, 2),
}


@pytest.mark.parametrize("src,position", OVERSIZED.values(), ids=OVERSIZED)
def test_oversized_input_is_positioned_parse_error(src, position):
    with pytest.raises(ParseError) as info:
        eval_text(src, 2)
    assert 0 <= info.value.position <= len(src)
    if position is not None:
        assert info.value.position == position


def test_depth_limit_is_inclusive():
    assert eval_text("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH, 2) == series_t(2)
    assert eval_text("+".join(["t"] * MAX_DEPTH), 1).coeff(1) == XPoly((MAX_DEPTH,))
    deeper = MAX_DEPTH + 1
    for src in ("(" * deeper + "t" + ")" * deeper, "+".join(["t"] * deeper)):
        with pytest.raises(ParseError):
            parse_text(src)


def test_literal_length_limit_is_inclusive():
    assert parse_text("9" * MAX_DIGITS) == Const(F(10**MAX_DIGITS - 1), (0, 0))
    with pytest.raises(ParseError) as info:
        parse_text("1+" + "9" * (MAX_DIGITS + 1))
    assert info.value.position == 2


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_text("(1+t")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_text("1+*2")
    assert info.value.position == 2


# -- evaluation -------------------------------------------------------------------


def test_eval_binomial_x():
    got = eval_text("(1+t)^x", 2)
    assert got == binomial_x(2)
    assert got.poly(2) == XPoly((0, -1, 1))


def test_eval_matches_builtin_daehee():
    got = eval_text("(log(1+t)/t)^2*(1+t)^x", 12)
    assert got == family_gf(FamilySpec(FamilyKind.DAEHEE, 2), 12)


def test_eval_log_of_t_is_semantic_error():
    with pytest.raises(SemanticError) as info:
        eval_text("log(t)", 4)
    assert info.value.reason is SemanticReason.LOG_ARG_NOT_ONE
    assert info.value.position == 0


def test_eval_semantic_error_reasons():
    with pytest.raises(SemanticError) as info:
        eval_text("exp(1+t)", 4)
    assert info.value.reason is SemanticReason.EXP_ARG_NOT_ZERO
    with pytest.raises(SemanticError) as info:
        eval_text("(2+t)^x", 4)
    assert info.value.reason is SemanticReason.POWX_BASE_NOT_ONE
    with pytest.raises(SemanticError) as info:
        eval_text("1/(t+t)", 4)
    assert info.value.reason is SemanticReason.T_DIVISION_IMPOSSIBLE
    with pytest.raises(SemanticError) as info:
        eval_text("1/((1+t)^x-1)", 4)
    assert info.value.reason is SemanticReason.NON_UNIT_DIVISOR
    with pytest.raises(SemanticError) as info:
        eval_text("1/0", 4)
    assert info.value.reason is SemanticReason.NON_UNIT_DIVISOR
    with pytest.raises(SemanticError) as info:
        eval_text("t^(-1)", 4)
    assert info.value.reason is SemanticReason.NON_UNIT_DIVISOR


def test_eval_division_by_t_power():
    got = eval_text("(t*t+t*t*t)/t^2", 4)
    assert got == TSeries(4, (1, 1))
    # numerator valuation below denominator valuation is impossible
    with pytest.raises(SemanticError) as info:
        eval_text("(1+t)/t", 4)
    assert info.value.reason is SemanticReason.T_DIVISION_IMPOSSIBLE


def test_eval_constant_quotient():
    got = eval_text("2/4 + 1/4", 3)
    assert got == TSeries.constant(F(3, 4), 3)


def test_eval_literal_t_division_at_truncation_zero():
    # A monomial divisor carries its valuation in its facts, so the quotient
    # is exact even when T is too low to see the leading term of an
    # evaluated divisor.  Any other divisor is searched up to T only: log(1+t)
    # starts at t^1 by its bound, exp(t)-1 by a cancellation, and both fail.
    assert eval_text("log(1+t)/t", 0) == TSeries.constant(1, 0)
    assert eval_text("t^2/t^2", 1) == TSeries.constant(1, 1)
    for src in ("t/log(1+t)", "t/(exp(t)-1)"):
        with pytest.raises(SemanticError) as info:
            eval_text(src, 0)
        assert info.value.reason is SemanticReason.NON_UNIT_DIVISOR


NINE_GF_STRINGS = [
    ("(t/(exp(t)-1))^2*exp(t)^x", ("family", FamilyKind.BERNOULLI, 2)),
    ("(2/(exp(t)+1))^2*exp(t)^x", ("family", FamilyKind.EULER, 2)),
    ("(log(1+t)/t)^2*(1+t)^x", ("family", FamilyKind.DAEHEE, 2)),
    ("(2/(t+2))^2*(1+t)^x", ("family", FamilyKind.CHANGHEE, 2)),
    ("(t/log(1+t))^2*(1+t)^x", ("family", FamilyKind.CAUCHY, 2)),
    ("(2/(exp(t)+1))^3*(t/(exp(t)-1))^2*exp(t)^x", ("mixed", MixedKind.BE, 2, 3)),
    ("(log(1+t)/t)^2*(2/(t+2))^3*(1+t)^x", ("mixed", MixedKind.DC, 2, 3)),
    ("(t/log(1+t))^2*(log(1+t)/t)^3*(1+t)^x", ("mixed", MixedKind.CD, 2, 3)),
    ("(t/log(1+t))^2*(2/(t+2))^3*(1+t)^x", ("mixed", MixedKind.CC, 2, 3)),
]


def _builtin_gf(descr, trunc):
    if descr[0] == "family":
        return family_gf(FamilySpec(descr[1], descr[2]), trunc)
    return mixed_gf(MixedSpec(descr[1], descr[2], descr[3]), trunc)


@pytest.mark.parametrize("src,descr", NINE_GF_STRINGS)
def test_dsl_builtin_equivalence(src, descr):
    assert eval_text(src, 16) == _builtin_gf(descr, 16)


@pytest.mark.parametrize("src,descr", NINE_GF_STRINGS)
def test_dsl_builtin_equivalence_at_top_truncation(src, descr):
    # T = 28 is the top of the benchmark's T ladder.
    assert eval_text(src, 28) == _builtin_gf(descr, 28)


# Negative powers of the Changhee kernel 2/(t+2), alone and as the second
# factor of the DC and CC texts: the divisor of the reciprocal is itself a
# quotient.  The builtins take no negative order, so the reference is _eager.
NEGATIVE_CHANGHEE = [
    *(f"(2/(t+2))^(-{s})*(1+t)^x" for s in range(1, 5)),
    *(f"(log(1+t)/t)^{r}*(2/(t+2))^(-{s})*(1+t)^x" for r, s in ((1, 1), (2, 3), (4, 4))),
    *(f"(t/log(1+t))^{r}*(2/(t+2))^(-{s})*(1+t)^x" for r, s in ((1, 2), (3, 1), (4, 4))),
]


@pytest.mark.parametrize("trunc", [0, 3, 8])
@pytest.mark.parametrize("src", NEGATIVE_CHANGHEE)
def test_negative_changhee_texts_match_eager_reference(src, trunc):
    # At T = 0 the Cauchy divisor log(1+t) vanishes to the searched order, on both sides.
    node = parse_text(src)
    assert _outcome(eval_series, node, trunc) == _outcome(_eager, node, trunc)


# -- single-pass streams against the eager reference --------------------------------


def _eager(node, trunc):
    """The recursive evaluator the streams replaced, kept as a reference.

    Each node is a whole series at its truncation; a quotient whose divisor
    has t-valuation v > 0 evaluates both operands again at T + v, so nested
    quotients cost 2^depth.  Use it for T <= 10 and small trees only.
    """
    if isinstance(node, Const):
        return TSeries.constant(node.value, trunc)
    if isinstance(node, VarT):
        return series_t(trunc)
    if isinstance(node, Add):
        return _eager(node.left, trunc) + _eager(node.right, trunc)
    if isinstance(node, Sub):
        return _eager(node.left, trunc) - _eager(node.right, trunc)
    if isinstance(node, Mul):
        return _eager(node.left, trunc) * _eager(node.right, trunc)
    if isinstance(node, Neg):
        return -_eager(node.operand, trunc)
    if isinstance(node, Div):
        return _eager_div(node, trunc)
    if isinstance(node, PowInt):
        base = _eager(node.base, trunc)
        try:
            return base**node.exponent
        except DivisionError as exc:
            raise SemanticError(node.span[0], SemanticReason.NON_UNIT_DIVISOR, str(exc)) from exc
    arg = _eager(node.base if isinstance(node, PowX) else node.arg, trunc)
    if isinstance(node, PowX):
        if arg.coeff(0) != poly_one():
            raise SemanticError(
                node.span[0],
                SemanticReason.POWX_BASE_NOT_ONE,
                "base of ^x must have constant term 1",
            )
        return exp_xt(trunc).compose(log1p(trunc).compose(arg - 1))
    if isinstance(node, Log):
        if arg.coeff(0) != poly_one():
            raise SemanticError(
                node.span[0],
                SemanticReason.LOG_ARG_NOT_ONE,
                "log argument must have constant term 1",
            )
        return log1p(trunc).compose(arg - 1)
    if not arg.coeff(0).is_zero:
        raise SemanticError(
            node.span[0], SemanticReason.EXP_ARG_NOT_ZERO, "exp argument must have constant term 0"
        )
    return expm1(trunc).compose(arg) + 1


def _eager_shift_quotient(node, v, trunc):
    num_hi = _eager(node.left, trunc + v)
    for i in range(v):
        if not num_hi.coeff(i).is_zero:
            raise SemanticError(
                node.span[0],
                SemanticReason.T_DIVISION_IMPOSSIBLE,
                f"numerator coefficient of t^{i} is nonzero",
            )
    den_hi = _eager(node.right, trunc + v)
    return num_hi.shift_down(v) / den_hi.shift_down(v)


def _valuation_bound(node):
    """(v, c) from the syntax alone, for a tree that evaluates.

    v bounds the t-valuation of the node's series from below, and c is its
    coefficient when the series is exactly c t^v (None otherwise): the rule
    the evaluator's divisor search starts from, restated apart from ``dsl``.
    """
    if isinstance(node, Const):
        return 0, node.value
    if isinstance(node, VarT):
        return 1, F(1)
    if isinstance(node, Neg):
        v, c = _valuation_bound(node.operand)
        return v, None if c is None else -c
    if isinstance(node, PowInt):
        (v, c), k = _valuation_bound(node.base), node.exponent
        if c is not None or k == 0:
            return v * k, F(1) if c is None else c**k
        return max(v * k, 0), None
    if not isinstance(node, (Add, Sub, Mul, Div)):
        return int(isinstance(node, Log)), None  # log g = 0 + O(t); exp g, g^x = 1 + O(t)
    (va, ca), (vb, cb) = _valuation_bound(node.left), _valuation_bound(node.right)
    known = ca is not None and cb is not None
    if isinstance(node, Mul):
        return va + vb, ca * cb if known else None
    if isinstance(node, Div):
        # Only a monomial divisor's valuation is read from the syntax.
        return (0, None) if cb is None else (max(va - vb, 0), ca / cb if known else None)
    sign = 1 if isinstance(node, Add) else -1
    if known and (va == vb or not ca or not cb):
        return va if ca else vb, ca + sign * cb
    return min(va, vb), None


def _eager_div(node, trunc):
    # The divisor's series at T decides its own checks.  A nonzero monomial
    # divisor's valuation is its syntactic bound v0, for v0 up to
    # max(T, MAX_EXPONENT); any other divisor's is searched from v0 up to T.
    den = _eager(node.right, trunc)
    v0, c = _valuation_bound(node.right)
    if c is not None:
        v = v0 if c and v0 <= max(trunc, MAX_EXPONENT) else None
    else:
        v = next((i for i in range(v0, trunc + 1) if not den.coeff(i).is_zero), None)
    if v is None:
        raise SemanticError(
            node.span[0], SemanticReason.NON_UNIT_DIVISOR, f"divisor vanishes to order {trunc}"
        )
    if c is None and not den.coeff(v).is_scalar:
        raise SemanticError(
            node.span[0],
            SemanticReason.NON_UNIT_DIVISOR,
            "leading divisor coefficient depends on x",
        )
    return _eager_shift_quotient(node, v, trunc)


def _outcome(evaluate, node, trunc):
    """The series, or the reason, position and message of the SemanticError."""
    try:
        return evaluate(node, trunc)
    except SemanticError as exc:
        return exc.reason, exc.position, exc.message


_NOWHERE = (0, 0)  # spans are ignored: trees are rendered and parsed again
_ONE_NODE, _T_NODE = Const(F(1), _NOWHERE), VarT(_NOWHERE)


def _grow(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        *(pairs.map(lambda ab, kind=kind: kind(*ab, _NOWHERE)) for kind in (Add, Sub, Mul, Div)),
        *(children.map(lambda a, kind=kind: kind(a, _NOWHERE)) for kind in (Neg, PowX, Log, Exp)),
        st.tuples(children, st.integers(-2, 3)).map(lambda ak: PowInt(*ak, _NOWHERE)),
        # Shapes that pass the constant-term checks, so the nodes below them run.
        children.map(lambda a: Add(_ONE_NODE, Mul(_T_NODE, a, _NOWHERE), _NOWHERE)),
        children.map(lambda a: Exp(Mul(_T_NODE, a, _NOWHERE), _NOWHERE)),
        children.map(lambda a: Div(a, Sub(Exp(_T_NODE, _NOWHERE), _ONE_NODE, _NOWHERE), _NOWHERE)),
        st.tuples(children, st.integers(1, 3)).map(
            lambda ak: Div(ak[0], PowInt(_T_NODE, ak[1], _NOWHERE), _NOWHERE)
        ),
        # A divisor under a power ^1: the power keeps its facts.
        pairs.map(lambda ab: Div(ab[0], PowInt(ab[1], 1, _NOWHERE), _NOWHERE)),
    )


_LEAVES = st.one_of(
    st.sampled_from([F(0), F(1), F(2), F(1, 2)]).map(lambda v: Const(v, _NOWHERE)),
    st.just(_T_NODE),
    st.integers(1, 3).map(lambda k: PowInt(_T_NODE, k, _NOWHERE)),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(tree=st.recursive(_LEAVES, _grow, max_leaves=8), trunc=st.integers(0, 6))
def test_streams_match_eager_reference(tree, trunc):
    node = parse_text(render(tree))
    assert _outcome(eval_series, node, trunc) == _outcome(_eager, node, trunc)


# x enters at these leaves, so sums, products, quotients, log and exp draw one
# operand from each lane: x-free pairs against XPoly terms.
_X_LEAVES = st.one_of(
    _LEAVES,
    st.just(PowX(Add(_ONE_NODE, _T_NODE, _NOWHERE), _NOWHERE)),
    st.just(PowX(Exp(_T_NODE, _NOWHERE), _NOWHERE)),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tree=st.recursive(_X_LEAVES, _grow, max_leaves=6), trunc=st.integers(0, 5))
def test_streams_match_eager_reference_across_lanes(tree, trunc):
    node = parse_text(render(tree))
    assert _outcome(eval_series, node, trunc) == _outcome(_eager, node, trunc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tree=st.recursive(_X_LEAVES, _grow, max_leaves=6))
@example(tree=parse_text("((1+t)*(t-t^2))^2/(2*t)"))
@example(tree=parse_text("-(3*t^2+t)*(1-t)^3*t^2-2*t*(1+t^4)"))
def test_stream_facts_bound_the_series(tree):
    # Each node's facts against its eager series at T = 8: nothing below
    # the valuation bound v or above the degree bound d, and a monomial
    # c t^v is exactly that series.  The drawn trees seldom multiply two
    # polynomials that are not monomials, so two examples do.
    node = parse_text(render(tree))
    try:
        _, _, v, d, c = dsl._stream(node, 8)
        got = _eager(node, 8)
    except SemanticError:
        return
    assert all(got.coeff(n).is_zero for n in range(min(v, 9)))
    assert all(got.coeff(n).is_zero for n in range(9) if n > d)
    if c is not None:
        assert got == TSeries(8, [c if n == v else 0 for n in range(9)])


# Inputs whose outcome hangs on where a divisor's valuation search starts
# and stops: a monomial divisor's valuation comes from its facts, however
# it is spelled; any other's is searched from its syntactic bound v up to
# cap, T plus the valuations shifted out by the enclosing quotients, and a
# bound above cap fails at once.  A monomial numerator is checked against the divisor from its
# facts, so (t^5/(t^3*t^2))/t^3 at T = 0 fails the numerator check.
SEARCH_CAP_CASES = [
    ("((2^0/(t^3*t^2))/t^3)*t^3", 0),
    ("(1/(t^3*t^2))/t^3", 2),
    ("(t^5/(t^3*t^2))/t^3", 0),
    ("t^6/(t^2)^3", 5),
    ("t^6/(t^2)^3", 6),
    ("(t^2/(t*t))/(exp(t)-1)", 0),
    ("1/(((1+t)^x-1)/t)", 3),
    ("(((1+t)^x-1)/t)^(-1)", 3),
    ("t/((1+t)^x-1)", 3),
    ("(t^2^0)^(-1)", 2),
    ("t/(t)^1^1", 0),
    ("t^2/(t^2)^1", 1),
    ("t^3/(t)^3", 0),
    # Equal monomial divisors get equal verdicts.  Any other divisor is
    # searched up to T only: exp(t)-1 is bounded by t^0, since a
    # cancellation hides its t^1 from the syntax, and log(1+t) by t^1.
    ("t^3/t^3", 1),
    ("t^3/(t^3+0)", 1),
    ("log(1+t)/t", 0),
    ("t/(exp(t)-1)", 0),
    ("t/log(1+t)", 0),
    ("t/log(1+t)", 1),
]


@pytest.mark.parametrize("src,trunc", SEARCH_CAP_CASES)
def test_streams_match_eager_reference_on_quotient_edges(src, trunc):
    node = parse_text(src)
    assert _outcome(eval_series, node, trunc) == _outcome(_eager, node, trunc)


# Spellings of the one monomial t^6.
T6_SPELLINGS = ["t^6", "(t^2)^3", "t*t^5", "t^3*t^3", "t^6+0", "2*t^6/2", "(t)^6^1", "-(-t^6)"]


@pytest.mark.parametrize("other", ["t^6*exp(t)", "log(1+t)^6"])
@pytest.mark.parametrize("op", ["/", "*"])
def test_monomial_spellings_get_equal_outcomes(other, op):
    # The verdict, and the series, of a quotient or product by t^6 follow
    # from the monomial, not from how it is written, below T = 6 too.
    for trunc in range(7):
        outcomes = {
            spelling: _outcome(eval_series, parse_text(f"({other}){op}({spelling})"), trunc)
            for spelling in T6_SPELLINGS
        }
        assert len(set(outcomes.values())) == 1, (trunc, outcomes)


@pytest.mark.parametrize("src", ["1/(((1+t)^x-1)/t)", "t/((1+t)^x-1)"])
def test_x_dependent_leading_divisor_coefficient_is_one_error(src):
    # A quotient by a literal t can leave an x-dependent constant term, so
    # the divisor's leading coefficient may depend on x at any valuation.
    with pytest.raises(SemanticError) as info:
        eval_text(src, 3)
    assert info.value.reason is SemanticReason.NON_UNIT_DIVISOR
    assert info.value.position == 0
    assert info.value.message == "NonUnitDivisor: leading divisor coefficient depends on x"


def _quotient_chain(k):
    """E_0 = exp(t)-1 and E_(j+1) = (exp(t)-1)^2/E_j; each E_j is exp(t)-1."""
    src = "(exp(t)-1)"
    for _ in range(k):
        src = f"((exp(t)-1)^2/{src})"
    return src


def test_nested_quotient_chain_is_linear():
    # Re-evaluating each quotient's operands once cost 2^k: k = 12 took
    # seconds and k = 40 never finished.
    src = _quotient_chain(40)
    assert len(src) == 610
    proc = subprocess.run(
        [sys.executable, "-m", "mixedpoly", "eval", src, "--T", "4"],
        capture_output=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert eval_text(src, 6) == eval_text("exp(t)-1", 6)


# One text per node whose stream reads its own lower terms: exp and log on
# the pair lane, a quotient by a non-monomial and a negative power, the
# three forms of base^x, and a quotient on the x lane.
_SELF_READING = {
    "exp": "exp(t+t^2)",
    "log": "log(1+t+t^3)",
    "quotient": "(1+t)/(1-t-t^2)",
    "negative-power": "(1+t)^(-2)",
    "powx-polynomial": "(1+t+t^2)^x",
    "powx-exp": "exp(t)^x",
    "powx-other": "(exp(t)-t)^x",
    "x-lane-quotient": "(1+t)^x/(2-exp(t))",
}


@pytest.mark.parametrize("src", _SELF_READING.values(), ids=_SELF_READING)
def test_self_reading_streams_leave_no_reference_cycle(src):
    # A recurrence is handed its stream, so a dropped evaluation is freed
    # by reference counting.
    ast = parse_text(src)
    assert not left_for_the_collector(lambda: eval_series(ast, 8))


def test_series_division_leaves_no_reference_cycle():
    a = TSeries(6, [XPoly((1, 2)), 3, 1])
    b = TSeries(6, [1, XPoly((0, 1)), 2])
    assert not left_for_the_collector(lambda: (a / b, b**-2, 3 / b))


# Each reaches MAX_DEPTH, and every node of it adds frames to a
# coefficient read.
DEEP_INPUTS = {
    "sum": "+".join(["t"] * MAX_DEPTH),
    "power-one": "(1+t)" + "^1" * (MAX_DEPTH - 2),
    "exp-minus-one": "exp(" * (MAX_DEPTH // 2 - 1) + "t*t" + ")-1" * (MAX_DEPTH // 2 - 1),
    "powx-one": "(1+t)" + "^x^1" * ((MAX_DEPTH - 2) // 2),
}


@pytest.mark.parametrize("src", DEEP_INPUTS.values(), ids=DEEP_INPUTS)
def test_deepest_trees_evaluate(src):
    node = parse_text(src)
    assert eval_series(node, 8) == _eager(node, 8)


# -- base^x and literal t^k against the slow oracle ----------------------------------


# Each base^x route against _eager's exp_xt o log1p: the d-term step of a
# polynomial base (degrees 0-3 and 6, rational and negative coefficients,
# unary minus, powers, products, quotients by a constant), exp(x g) for an
# exp(g) base, and exp(x log base) for any other base, x-free or on the x
# lane.
POWX_ORACLE_CASES = [
    ("(1+t)^x", 30),
    ("(1-t)^x", 30),
    ("(2-1)^x", 30),
    ("(-(-1-t))^x", 30),
    ("(1+2*t-t^2)^x", 30),
    ("(1-1/2*t+3/4*t^2-2*t^3)^x", 30),
    ("(1+t/2-t^2/3)^x", 30),
    ("(1+t*t^2)^x", 30),
    ("(1+t^2)^3^x", 30),
    ("((1+t)*(1-3*t))^x", 30),
    ("(1+t)^x*(1-t^2)^x", 30),
    ("exp(t)^x", 30),
    ("exp(2*t-t^2)^x", 30),
    ("exp(log(1+t))^x", 30),
    ("(t/(exp(t)-1))^x", 30),
    ("(2/(t+2))^x", 30),
    ("((1+t)^x)^x", 30),
    ("exp((1+t)^x-1)^x", 20),
    ("(1+t*(1+t)^x)^x", 20),
]


@pytest.mark.parametrize("src,trunc", POWX_ORACLE_CASES)
def test_powx_matches_eager_reference(src, trunc):
    node = parse_text(src)
    assert eval_series(node, trunc) == _eager(node, trunc)


# A monomial c t^k factor shifts the other operand by k, times c, and a
# monomial divisor reads its numerator k ahead, times 1/c; both keep the
# other operand's lane.
LITERAL_SHIFT_CASES = [
    "t^3*(1+t)^x",
    "(1+t)^x*t",
    "t*t^2/t^3",
    "(t^2*exp(t)-t^2)/t^3",
    "((1+t)^x-1)/t",
    "t*(2/(t+2))^x/t^2",
    "(t*log(1+t))/t^2",
    "-2/3*t^2*(1+t)^x",
    "(exp(t)^x-1)/(3*t)",
    "(t^2*log(1+t))/(-t*t^2/2)",
]


@pytest.mark.parametrize("trunc", [0, 1, 8])
@pytest.mark.parametrize("src", LITERAL_SHIFT_CASES)
def test_literal_t_power_shifts_match_eager_reference(src, trunc):
    node = parse_text(src)
    assert _outcome(eval_series, node, trunc) == _outcome(_eager, node, trunc)


def _summed_terms(monkeypatch, limit=float("inf"), names=("_pair_sum", "_sum_of_products")):
    """The number of terms of every call to either lane's term sum, as it runs.

    The terms may come as any iterable (a window of two slices is a
    ``zip``): each call's terms are materialized and counted, then summed
    by the real function.  Only the sums in ``names`` are counted; the pair
    lane's is ``_pair_sum``.  The evaluation stops once they come to more
    than ``limit`` terms.
    """
    calls, summed = [], [0]
    for name in names:

        def counted(terms, scale=1, real=getattr(dsl, name)):
            terms = list(terms)
            calls.append(len(terms))
            summed[0] += len(terms)
            assert summed[0] <= limit, "too many terms summed"
            return real(terms, scale)

        monkeypatch.setattr(dsl, name, counted)
    return calls


def test_binomial_carrier_sums_two_terms_per_coefficient(monkeypatch):
    # exp(x log(1+t)) summed n terms twice for coefficient n.
    calls = _summed_terms(monkeypatch)
    got = eval_series(parse_text("(1+t)^x"), 200)
    assert got == binomial_x(200)
    assert max(calls) == 2
    assert len(calls) == 2 + 200  # b_0 and b_1 of 1+t, then F_1 .. F_200


# Texts whose rule reads an operand of degree at most d = 1, with their
# series: each coefficient's sum reads only the window the degree leaves.
DEGREE_WINDOWS = {
    "log(1+t)": lambda T: log1p(T),
    "2/(t+2)": lambda T: TSeries(T, [F(-1, 2) ** n for n in range(T + 1)]),
    "exp(t)": lambda T: expm1(T) + 1,
    "exp(t)^x": lambda T: exp_xt(T),
}


@pytest.mark.parametrize("src", DEGREE_WINDOWS)
def test_degree_bound_windows_sum_linear_work(monkeypatch, src):
    # log, exp and a quotient by a divisor of degree d summed every term
    # below n for coefficient n: T^2/2 terms at T = 200, over 20000.  From
    # the operand's degree facts, each sum reads at most d + 1 terms: one
    # sum for each of the T + 1 coefficients and of the operand's d + 1.
    trunc, d = 200, 1
    calls = _summed_terms(monkeypatch)
    assert eval_series(parse_text(src), trunc) == DEGREE_WINDOWS[src](trunc)
    assert max(calls) <= d + 1
    assert sum(calls) <= (d + 1) * (trunc + d + 2)


def test_degree_bound_windows_cut_the_pair_lane(monkeypatch):
    # A Daehee-Changhee kernel over its carrier at T = 21: the pair lane
    # summed 1139 terms when every sum ran over k = 0..n; the windows of
    # log(1+t) and 2/(t+2) leave 616.
    calls = _summed_terms(monkeypatch, names=("_pair_sum",))
    src = "(log(1+t)/t)^2*(2/(t+2))^2*(1+t)^x"
    assert eval_series(parse_text(src), 21) == mixed_gf(MixedSpec(MixedKind.DC, 2, 2), 21)
    assert sum(calls) <= 616 < 1139


@pytest.mark.parametrize(
    "quotient,product,degree",
    [("(1+t/2)^x", "(1+1/2*t)^x", 1), ("(1+t/2-t^2/3)^x", "(1+1/2*t-1/3*t^2)^x", 2)],
)
def test_quotient_by_a_constant_takes_the_polynomial_step(monkeypatch, quotient, product, degree):
    # 1/2*t folds to one constant at parse time, t/2 stays a quotient; both
    # bases are polynomials of one degree, so both take the d-term step.
    steps = []

    def counted(b, d, real=dsl._power_x):
        steps.append(d)
        return real(b, d)

    monkeypatch.setattr(dsl, "_power_x", counted)
    for trunc in range(31):
        assert eval_series(parse_text(quotient), trunc) == eval_series(parse_text(product), trunc)
    assert steps == [degree, degree] * 31


LITERAL_QUOTIENTS = [
    ("(t*t^9999)/t^10000", 10000, TSeries(1, (1, 0))),
    ("t^9999*(1+t)/t^9999", 9999, TSeries(1, (1, 1))),
    ("(t*t^999999)/t^1000000", 10**6, TSeries(1, (1, 0))),
    ("1/(t^1000000*t^1000000)", 10**6, SemanticReason.NON_UNIT_DIVISOR),
    ("1/(t+t^2)^500000", 5 * 10**5, SemanticReason.NON_UNIT_DIVISOR),
    ("1/(t^1000000*t^1000000*(1+t))", 10**6, SemanticReason.NON_UNIT_DIVISOR),
    ("(t^600000*t^600000*(1+t))/(t^600000*t^600000)", 10**6, SemanticReason.NON_UNIT_DIVISOR),
]


@pytest.mark.parametrize(
    "src,k,expected", LITERAL_QUOTIENTS, ids=[f"{src}-{k}" for src, k, _ in LITERAL_QUOTIENTS]
)
def test_literal_t_power_quotient_sums_fewer_terms_than_k(monkeypatch, src, k, expected):
    # A product and a quotient summed O(n) terms for coefficient n, so the
    # k coefficients read below t^k cost O(k^2): 20 s for the first text.
    # The numerator check read k terms: 1.2 s for the third.  A monomial's
    # quotient, product and power read no term at all.  A divisor whose
    # valuation bound passes T (any other) or MAX_EXPONENT and T (a
    # monomial) fails before any read: read there, it takes O(k^2) sums
    # or stores k terms.
    calls = _summed_terms(monkeypatch, limit=k)
    lifted = []
    monkeypatch.setattr(dsl, "_lift", lambda c, real=dsl._lift: lifted.append(c) or real(c))
    try:
        got = eval_series(parse_text(src), 1)
    except SemanticError as exc:
        got = exc.reason
    assert got == expected
    assert sum(calls) + len(lifted) < k


def test_million_term_monomial_shift_holds_one_pointer_per_term():
    # The divisor t^1000000 reads its numerator 10^6 terms ahead, and the
    # shifted numerator stores the 10^6 zero terms below.  As dict entries
    # they peaked at 85.3 MB; a list holds one pointer each, and the peak
    # measured 8.5 MB (tracemalloc, Python 3.11).  The bound is that plus
    # 50%.  Storing none of them waits for streams that start at their
    # valuation (ROADMAP item 4, stage B).
    node = parse_text("((1+t)^x*t^1000000)/t^1000000")
    tracemalloc.start()
    try:
        got = eval_series(node, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == binomial_x(1)
    assert peak < 13 * 10**6, peak


# The errors of base^x inputs: each node on every route keeps its check,
# position and message.
POWX_ERRORS = [
    ("exp(1+t)^x", 0, "ExpArgNotZero: exp argument must have constant term 0"),
    ("exp(exp(t))^x", 0, "ExpArgNotZero: exp argument must have constant term 0"),
    ("exp(1)^x", 0, "ExpArgNotZero: exp argument must have constant term 0"),
    ("exp(log(2+t))^x", 4, "LogArgNotOne: log argument must have constant term 1"),
    ("exp(t^x)^x", 4, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("log(2+t)^x", 0, "LogArgNotOne: log argument must have constant term 1"),
    ("(2+t)^x", 1, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("t^x", 0, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("0^x", 0, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("(-1+t)^x", 1, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("(-(1+t))^x", 1, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("(t*t+2)^x", 1, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("(exp(t)+1)^x", 1, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("((2+t)^x)^x", 2, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("(1+(2+t)^x)^x", 4, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("(1+t)^x^x*(3+t)^x", 11, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("(log(1+t)/t)^x*(2+t)^x", 16, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("(1+t/0)^x", 3, "NonUnitDivisor: divisor vanishes to order 6"),
    ("(2+t/3)^x", 1, "PowXBaseNotOne: base of ^x must have constant term 1"),
    ("(1+t)^x/t", 1, "TByTDivisionImpossible: numerator coefficient of t^0 is nonzero"),
]


@pytest.mark.parametrize("src,position,message", POWX_ERRORS)
def test_powx_errors_keep_their_positions_and_messages(src, position, message):
    with pytest.raises(SemanticError) as info:
        eval_series(parse_text(src), 6)
    assert (info.value.position, info.value.message) == (position, message)


# -- round trips ------------------------------------------------------------------


ROUND_TRIP_CORPUS = [
    "(1+t)^x",
    "(log(1+t)/t)^2*(1+t)^x",
    "(2/(t+2))^3*(1+t)^x",
    "(t/log(1+t))^4*(1+t)^x",
    "(t/(exp(t)-1))^2*exp(t)^x",
    "(2/(exp(t)+1))^2*exp(t)^x",
    "log(1+t)/t",
    "2/(t+2)",
    "t^(-3)",
    "-t^2",
    "-(1+t)",
    "1/2*t",
    "3/4",
    "exp(t)^x",
    "log(1+t)*log(1+t)",
    "t*t*t",
    "1+2+t",
    "1-2-t",
    "exp(t*t)",
    "((1+t)^x)^2",
    "(1/2)^2",
    "t*(1/2)",
    "(1/2)^x",
    "2*(3/4)",
    "(1/2)^(-1)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_render_round_trip(src):
    ast = parse_text(src)
    rendered = render(ast)
    assert parse_text(rendered) == ast


# A quotient of two constants parses as one fractional constant.
_QUOTIENTS = st.tuples(st.integers(0, 3), st.integers(1, 4)).map(
    lambda ab: Div(Const(F(ab[0]), _NOWHERE), Const(F(ab[1]), _NOWHERE), _NOWHERE)
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(tree=st.recursive(st.one_of(_X_LEAVES, _QUOTIENTS), _grow, max_leaves=8))
def test_render_round_trips_every_parsed_tree(tree):
    # A drawn tree may hold what parsing folds, so the round trip is
    # checked from its parsed form.
    node = parse_text(render(tree))
    assert parse_text(render(node)) == node


# -- total safety -----------------------------------------------------------------


def _random_inputs(count, seed):
    rng = random.Random(seed)
    # Non-ASCII digits, letters and a no-break space, in both pools: each
    # must lex as an error or as space.  Beside the structured alphabet they
    # reach int(), which rejected "\u00b2" with a traceback.
    foreign = "\u00b2\u2460\u0663\u00e9\u00a0\uff54"
    alphabet = "tx+-*/^()logexp0123456789 " + foreign
    wild = string.printable + foreign
    out = []
    for i in range(count):
        n = rng.randint(0, 64)
        pool = alphabet if i % 2 == 0 else wild
        out.append("".join(rng.choice(pool) for _ in range(n)))
    return out


def test_fuzz_no_crashes_small():
    evaluated = 0
    for src in _random_inputs(2000, seed=20240817):
        try:
            series = eval_text(src, 4)
        except DslError as exc:
            assert 0 <= exc.position <= len(src)
            continue
        evaluated += 1
        assert series.trunc == 4
    # the structured alphabet should produce at least a few valid hits
    assert evaluated >= 1


def test_empty_input_is_positioned_error():
    with pytest.raises(ParseError) as info:
        parse_text("")
    assert info.value.position == 0


def test_line_col_mapping():
    src = "1 +\nlog(t)"
    assert line_col(src, 0) == (1, 1)
    assert line_col(src, 4) == (2, 1)
    assert line_col(src, 8) == (2, 5)
