"""Lexer, parser, evaluator, round trips, and total-safety fuzzing."""

import random
import string
from fractions import Fraction as F

import pytest

from mixedpoly.dsl import (
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_EXPONENT,
    Add,
    Const,
    Div,
    DslError,
    LexError,
    Log,
    Mul,
    Neg,
    ParseError,
    PowInt,
    PowX,
    SemanticError,
    SemanticReason,
    TokenKind,
    eval_text,
    line_col,
    parse_text,
    render,
    tokenize,
)
from mixedpoly.families import FamilyKind, FamilySpec, family_gf
from mixedpoly.mixed import MixedKind, MixedSpec, mixed_gf
from mixedpoly.series import TSeries, XPoly, binomial_x


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
    assert eval_text("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH, 2) == TSeries.var(2)
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
    # A literal t (or t^k) denominator carries its valuation in the syntax,
    # so the quotient is exact even when T is too low to see the leading
    # term of an evaluated denominator.
    assert eval_text("log(1+t)/t", 0) == TSeries.constant(1, 0)
    assert eval_text("t^2/t^2", 1) == TSeries.constant(1, 1)
    with pytest.raises(SemanticError) as info:
        eval_text("t/log(1+t)", 0)
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
]


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_render_round_trip(src):
    ast = parse_text(src)
    rendered = render(ast)
    assert parse_text(rendered) == ast


# -- total safety -----------------------------------------------------------------


def _random_inputs(count, seed):
    rng = random.Random(seed)
    alphabet = "tx+-*/^()logexp0123456789 "
    wild = string.printable
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
