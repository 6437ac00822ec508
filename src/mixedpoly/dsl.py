"""A small expression language for generating functions over t and x.

The language covers exactly the textual shapes the generating functions in
this package are written in: rational constants, the indeterminate ``t``,
``+ - * /``, integer powers, ``log(...)``, ``exp(...)``, and ``base^x``
(``x`` may appear only as an exponent).  ``eval_series`` turns an
expression into an exact :class:`~mixedpoly.series.TSeries` at a requested
truncation.  Each syntax node is a stream of t-coefficients on one of two
lanes, fixed by the syntax: a node with no ``^x`` under it holds reduced
integer pairs (p, q), and x enters only at ``base^x``, from which up the
coefficients are ``XPoly`` values.  Both lanes run the same recurrences.
The same pass bounds each node's t-valuation and t-degree and spots a
monomial c t^v, however spelled: it only shifts as a factor or divisor,
and any other divisor's valuation is searched from its bound up to T.
The degree bounds cut the window of terms each product, quotient, ``exp``
and ``log`` sums.
``base^x`` steps by base F' = x base' F: d terms for a base of degree at
most d, exp(x g) for ``exp(g)``, and exp(x log base) for any other base.

Grammar (see docs/grammar.ebnf):

    expr    = term (("+" | "-") term)* ;
    term    = unary (("*" | "/") unary)* ;
    unary   = "-" unary | power ;
    power   = atom ("^" exponent)* ;
    exponent= INT | "x" | "(" ["-"] INT ")" ;
    atom    = INT | "t" | ("log" | "exp") "(" expr ")" | "(" expr ")" ;

Every failure is a positioned ``LexError``, ``ParseError``, or
``SemanticError``; no input text raises anything else.  Syntax trees deeper
than ``MAX_DEPTH`` and literals longer than ``MAX_DIGITS`` are parse errors.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .series import (
    _NO_DEGREE,
    TSeries,
    XPoly,
    _lift,
    _pair_sum,
    _power,
    _product,
    _quotient,
    _Record,
    _Recurrence,
    _Stream,
    _sum_of_products,
    _times_x,
    _window,
)

__all__ = [
    "Add",
    "Ast",
    "Const",
    "DslError",
    "Div",
    "Exp",
    "LexError",
    "Log",
    "Mul",
    "Neg",
    "ParseError",
    "PowInt",
    "PowX",
    "SemanticError",
    "SemanticReason",
    "Sub",
    "Token",
    "TokenKind",
    "VarT",
    "eval_series",
    "eval_text",
    "line_col",
    "parse",
    "parse_text",
    "render",
    "tokenize",
]

# Exponents are literal integers; anything this large, alone or multiplied
# by the exponents inside its base, is a typo or abuse, and evaluating it
# would exhaust memory on constant bases.
MAX_EXPONENT = 10**6
# Deepest syntax tree, and deepest nesting of parentheses, unary minus, log
# and exp, that parses; it keeps parsing and evaluation far from the
# interpreter's recursion limit.
MAX_DEPTH = 100
# Longest integer literal; the interpreter may refuse to convert digit
# strings longer than 640.
MAX_DIGITS = 600

Span = tuple[int, int]


class DslError(Exception):
    """Base class for positioned DSL errors."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position
        self.message = message


class LexError(DslError):
    def __init__(self, position: int, found: str):
        super().__init__(position, f"unexpected character {found!r}")
        self.found = found


class ParseError(DslError):
    def __init__(self, position: int, expected: str, found: str):
        super().__init__(position, f"expected {expected}, found {found}")
        self.expected = expected
        self.found = found


class SemanticReason(Enum):
    NON_UNIT_DIVISOR = "NonUnitDivisor"
    LOG_ARG_NOT_ONE = "LogArgNotOne"
    EXP_ARG_NOT_ZERO = "ExpArgNotZero"
    POWX_BASE_NOT_ONE = "PowXBaseNotOne"
    T_DIVISION_IMPOSSIBLE = "TByTDivisionImpossible"


class SemanticError(DslError):
    def __init__(self, position: int, reason: SemanticReason, detail: str = ""):
        message = reason.value + (f": {detail}" if detail else "")
        super().__init__(position, message)
        self.reason = reason


def line_col(src: str, position: int) -> tuple[int, int]:
    """1-based line and column of a byte offset."""
    prefix = src[:position]
    line = prefix.count("\n") + 1
    col = position - (prefix.rfind("\n") + 1) + 1
    return line, col


class TokenKind(Enum):
    IDENT = "ident"
    INT = "int"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    CARET = "^"
    LPAREN = "("
    RPAREN = ")"


class Token(_Record):
    __slots__ = ("kind", "text", "start", "end")
    kind: TokenKind
    text: str
    start: int
    end: int


_IDENTS = ("t", "x", "log", "exp")
_SINGLE = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "^": TokenKind.CARET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
}


def tokenize(src: str) -> list[Token]:
    """Longest-match lexing; spans cover all non-whitespace input.

    An integer is a run of the ASCII digits 0-9; any other digit character
    is a lexical error.  Only ``t``, ``x``, ``log``, ``exp`` are valid
    identifiers; rationals are not lexed as single tokens -- ``a/b`` arrives
    as INT SLASH INT and is folded at parse time.
    """
    tokens: list[Token] = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":  # ASCII digits only: str.isdigit admits "²" and "٣"
            j = i + 1
            while j < n and "0" <= src[j] <= "9":
                j += 1
            tokens.append(Token(TokenKind.INT, src[i:j], i, j))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and src[j].isalpha():
                j += 1
            word = src[i:j]
            if word not in _IDENTS:
                raise LexError(i, word)
            tokens.append(Token(TokenKind.IDENT, word, i, j))
            i = j
            continue
        kind = _SINGLE.get(c)
        if kind is None:
            raise LexError(i, c)
        tokens.append(Token(kind, c, i, i + 1))
        i += 1
    return tokens


# --------------------------------------------------------------------------
# AST: every node compares and hashes without its span
# --------------------------------------------------------------------------


class Const(_Record, compared=("value",)):
    __slots__ = ("value", "span")
    value: Fraction
    span: Span


class VarT(_Record, compared=()):
    __slots__ = ("span",)
    span: Span


class _Binary(_Record, compared=("left", "right")):
    __slots__ = ("left", "right", "span")
    left: "Ast"
    right: "Ast"
    span: Span


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Neg(_Record, compared=("operand",)):
    __slots__ = ("operand", "span")
    operand: "Ast"
    span: Span


class PowInt(_Record, compared=("base", "exponent")):
    __slots__ = ("base", "exponent", "span")
    base: "Ast"
    exponent: int
    span: Span


class PowX(_Record, compared=("base",)):
    __slots__ = ("base", "span")
    base: "Ast"
    span: Span


class _Call(_Record, compared=("arg",)):
    __slots__ = ("arg", "span")
    arg: "Ast"
    span: Span


class Log(_Call):
    __slots__ = ()


class Exp(_Call):
    __slots__ = ()


Ast = Union[Const, VarT, Add, Sub, Mul, Div, Neg, PowInt, PowX, Log, Exp]


class _Parser:
    def __init__(self, tokens: list[Token], src_len: int):
        self.tokens = tokens
        self.pos = 0
        self.src_len = src_len
        self.depth = 0
        # Largest product of integer exponents along any path down from a
        # power node finished since the innermost open ``parse_power``.
        self.peak = 1

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _advance(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError(self.src_len, "a token", "end of input")
        self.pos += 1
        return tok

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError(self.src_len, what, "end of input")
        if tok.kind is not kind:
            raise ParseError(tok.start, what, repr(tok.text))
        return self._advance()

    def _nest(self, tok: Token, parse):
        """Run ``parse`` one nesting level below ``tok``, within MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise ParseError(tok.start, f"nesting at most {MAX_DEPTH} deep", repr(tok.text))
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse_expr(self) -> Ast:
        return self._chain(self.parse_term, {TokenKind.PLUS: Add, TokenKind.MINUS: Sub})

    def parse_term(self) -> Ast:
        return self._chain(self.parse_unary, {TokenKind.STAR: Mul, TokenKind.SLASH: _make_div})

    def _chain(self, operand, builders) -> Ast:
        """Operands joined left to right by the operators that key ``builders``."""
        node = operand()
        while (tok := self._peek()) is not None and tok.kind in builders:
            self._advance()
            rhs = operand()
            node = builders[tok.kind](node, rhs, (node.span[0], rhs.span[1]))
        return node

    def parse_unary(self) -> Ast:
        tok = self._peek()
        if tok is not None and tok.kind is TokenKind.MINUS:
            self._advance()
            operand = self._nest(tok, self.parse_unary)
            return Neg(operand, (tok.start, operand.span[1]))
        return self.parse_power()

    def parse_power(self) -> Ast:
        # Every node of the atom is parsed here, so ``peak`` then holds the
        # largest exponent product inside it, through any nesting; each
        # exponent attached to the atom multiplies it.
        outer, self.peak = self.peak, 1
        base = self.parse_atom()
        weight = self.peak
        while (tok := self._peek()) is not None and tok.kind is TokenKind.CARET:
            self._advance()
            base, weight = self._attach_exponent(base, weight)
        self.peak = max(outer, weight)
        return base

    def _attach_exponent(self, base: Ast, weight: int) -> tuple[Ast, int]:
        """The power of ``base`` by the next exponent, and its exponent product."""
        tok = self._peek()
        if tok is None:
            raise ParseError(self.src_len, "an exponent", "end of input")
        start = base.span[0]
        if tok.kind is TokenKind.INT:
            self._advance()
            return self._pow_int(base, weight, self._literal(tok), tok, (start, tok.end))
        if tok.kind is TokenKind.IDENT and tok.text == "x":
            self._advance()
            return PowX(base, (start, tok.end)), weight
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            sign = 1
            nxt = self._peek()
            if nxt is not None and nxt.kind is TokenKind.MINUS:
                self._advance()
                sign = -1
            num = self._expect(TokenKind.INT, "an integer exponent")
            close = self._expect(TokenKind.RPAREN, "')'")
            return self._pow_int(base, weight, sign * self._literal(num), num, (start, close.end))
        raise ParseError(
            tok.start,
            "an integer literal, x, or a parenthesized integer (negative exponents require parentheses)",
            repr(tok.text),
        )

    def _pow_int(
        self, base: Ast, weight: int, exponent: int, tok: Token, span: Span
    ) -> tuple[PowInt, int]:
        # 2^1000^1000, (t^1000)^1001 and (-(2^1000))^1001 all raise a power
        # to a power, so the bound applies to the product of the exponents.
        # A zero counts as 1, so that (t^0)^(10^600) cannot pass the bound.
        product = weight * max(abs(exponent), 1)
        if product > MAX_EXPONENT:
            expected = f"an exponent of magnitude <= {MAX_EXPONENT}, times those inside its base"
            raise ParseError(tok.start, expected, tok.text)
        return PowInt(base, exponent, span), product

    def _literal(self, tok: Token) -> int:
        if len(tok.text) > MAX_DIGITS:
            expected = f"an integer of at most {MAX_DIGITS} digits"
            raise ParseError(tok.start, expected, f"{len(tok.text)} digits")
        return int(tok.text)

    def parse_atom(self) -> Ast:
        tok = self._peek()
        if tok is None:
            raise ParseError(self.src_len, "an expression", "end of input")
        if tok.kind is TokenKind.INT:
            self._advance()
            return Const(Fraction(self._literal(tok)), (tok.start, tok.end))
        if tok.kind is TokenKind.IDENT:
            if tok.text == "t":
                self._advance()
                return VarT((tok.start, tok.end))
            if tok.text == "x":
                raise ParseError(tok.start, "x only as an exponent (write base^x)", "x")
            self._advance()  # log or exp
            self._expect(TokenKind.LPAREN, "'('")
            arg = self._nest(tok, self.parse_expr)
            close = self._expect(TokenKind.RPAREN, "')'")
            span = (tok.start, close.end)
            return Log(arg, span) if tok.text == "log" else Exp(arg, span)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            inner = self._nest(tok, self.parse_expr)
            self._expect(TokenKind.RPAREN, "')'")
            return inner
        raise ParseError(tok.start, "an expression", repr(tok.text))


def _make_div(left: Ast, right: Ast, span: Span) -> Ast:
    # Rationals form at parse time: a quotient of constants with a nonzero
    # denominator folds into a single Const node.
    if isinstance(left, Const) and isinstance(right, Const) and right.value != 0:
        return Const(left.value / right.value, span)
    return Div(left, right, span)


def parse(tokens: list[Token], src_len: int = 0) -> Ast:
    """Parse a token list produced by :func:`tokenize`."""
    if tokens:
        src_len = max(src_len, tokens[-1].end)
    parser = _Parser(tokens, src_len)
    node = parser.parse_expr()
    leftover = parser._peek()
    if leftover is not None:
        raise ParseError(leftover.start, "end of input", repr(leftover.text))
    # Chains such as t+t+...+t nest without recursing in the parser.
    stack = [(node, 1)]
    while stack:
        sub, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(sub.span[0], f"an expression at most {MAX_DEPTH} deep", "a deeper one")
        for attr in ("left", "right", "operand", "base", "arg"):
            if (child := getattr(sub, attr, None)) is not None:
                stack.append((child, depth + 1))
    return node


def parse_text(src: str) -> Ast:
    return parse(tokenize(src), len(src))


# --------------------------------------------------------------------------
# Rendering (for round-trip testing and diagnostics)
# --------------------------------------------------------------------------


_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def render(node: Ast) -> str:
    """Unparse to text that reparses to a structurally identical tree."""
    if isinstance(node, Const):
        v = node.value
        return str(v.numerator) if v.denominator == 1 else f"({v.numerator}/{v.denominator})"
    if isinstance(node, VarT):
        return "t"
    if type(node) in _INFIX:
        return f"({render(node.left)} {_INFIX[type(node)]} {render(node.right)})"
    if isinstance(node, Neg):
        return f"(-{render(node.operand)})"
    if isinstance(node, PowInt):
        k = node.exponent
        suffix = f"^{k}" if k >= 0 else f"^({k})"
        return render(node.base) + suffix
    if isinstance(node, PowX):
        return render(node.base) + "^x"
    if isinstance(node, (Log, Exp)):
        return f"{type(node).__name__.lower()}({render(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


# The two lanes' terms: x-free nodes hold reduced pairs (p, q) for p/q and
# sum them with ``_pair_sum``; a node with ``^x`` under it sums ``XPoly``
# terms, and pairs read from x-free operands, with ``_sum_of_products``.
_ZERO, _ONE = (0, 1), (1, 1)
_X = XPoly((0, 1))


def _monomial(c: Fraction, v: int) -> tuple:
    """The stream, lane and facts of c t^v (see ``_stream``); its terms need no sum."""
    pair = (c.numerator, c.denominator)
    return _Stream(lambda n: pair if n == v else _ZERO), _pair_sum, v, v, c


def _shifted(a: _Stream, k: int, c: Fraction, total) -> _Stream:
    """c t^k a, on a's lane: term n is c a_(n-k), so a negative k reads a ahead."""
    p, q = c.numerator, c.denominator
    return _Stream(lambda n: total([(p, a.fill(n - k)[n - k], _ONE)], q) if n >= k else _ZERO)


def _exp(g: _Stream, total, times_x: bool = False, d=_NO_DEGREE) -> _Recurrence:
    """exp(g) for g_0 = 0 and g of degree at most d, online.

    n e_n = sum_(k=1..min(n,d)) k g_k e_(n-k).  With ``times_x`` it is
    exp(x g): each sum is multiplied by x, a one-degree shift.
    """

    def rule(e, n):
        hi = min(n, d)
        term = total(_window(g.fill(hi), e, n, 1, hi, 1, 1), n)
        return _times_x(term) if times_x else term

    return _Recurrence(rule, (_ONE,))


def _log(g: _Stream, total, d=_NO_DEGREE) -> _Recurrence:
    """log g for g_0 = 1 and g of degree at most d, online.

    n l_n = n g_n - sum_(k=max(1,n-d)..n-1) k l_k g_(n-k): at most d terms,
    since g_n and g_(n-k) vanish beyond d.
    """

    def rule(lg, n):
        lo = max(1, n - d)
        terms = list(_window(lg, g.fill(n - lo), n, lo, n - 1, -lo, -1))
        if n <= d:
            terms.append((n, g.fill(n)[n], _ONE))
        return total(terms, n)

    return _Recurrence(rule, (_ZERO,))


def _power_x(b: _Stream, d: int) -> _Recurrence:
    """b^x for b_0 = 1 and b_k = 0 beyond k = d, online, from b F' = x b' F.

    n F_n = sum_(k=1..min(n,d)) (x k - (n-k)) b_k F_(n-k): one sum of 2
    min(n, d) terms, so (1+t)^x steps F_n = F_(n-1) (x - n + 1)/n.
    """

    def rule(f, n):
        hi = min(n, d)
        window = list(_window(b.fill(hi), f, n, 1, hi, 1, 1))  # (k, b_k, F_(n-k))
        terms = [(k - n, bk, fk) for k, bk, fk in window] + [(*term, _X) for term in window]
        return _sum_of_products(terms, n)

    return _Recurrence(rule, (_ONE,))


# Per function node: the constant term its argument needs, and the error otherwise.
_FUNCTIONS = {
    Log: (1, SemanticReason.LOG_ARG_NOT_ONE, "log argument"),
    Exp: (0, SemanticReason.EXP_ARG_NOT_ZERO, "exp argument"),
    PowX: (1, SemanticReason.POWX_BASE_NOT_ONE, "base of ^x"),
}


def _argument(node: Union[Log, Exp, PowX], cap: int) -> tuple:
    """``_stream`` of a function node's argument, after its constant-term check."""
    want, reason, what = _FUNCTIONS[type(node)]
    arg = _stream(node.base if isinstance(node, PowX) else node.arg, cap)
    if _lift(arg[0].fill(0)[0]) != want:
        raise SemanticError(node.span[0], reason, f"{what} must have constant term {want}")
    return arg


def _stream(node: Ast, cap: int) -> tuple:
    """The stream of ``node``, its lane's term sum and its facts, after its semantic checks.

    One pass, children first, returns (stream, total, v, d, c): v and d
    bound the t-valuation from below and the t-degree from above
    (``_NO_DEGREE`` if unknown), and c is set when the node is exactly
    c t^v.  The lane follows from the syntax: ``_sum_of_products`` from a
    ``^x`` up, ``_pair_sum`` below any.  Monomials combine with no term
    read, and a monomial factor or divisor shifts the other operand.  A
    divisor is checked before its numerator; any other divisor's valuation
    is searched from its v up to ``cap``: T plus the valuations shifted
    out by enclosing quotients.  No divisor is read past ``cap``, and a
    monomial one reads its numerator at most max(``cap``, ``MAX_EXPONENT``)
    ahead.  Nothing is read unless asked: every term read fills the
    operand's stream up to it, lowest first, and the facts bound the window
    each rule sums (see ``eval_series``).
    """
    if isinstance(node, Const):
        return _monomial(node.value, 0)
    if isinstance(node, VarT):
        return _monomial(Fraction(1), 1)
    if isinstance(node, Neg):
        a, total, v, d, c = _stream(node.operand, cap)
        if c is not None:
            return _monomial(-c, v)
        return _Stream(lambda n: total([(-1, a.fill(n)[n], _ONE)])), total, v, d, None
    if isinstance(node, (Add, Sub, Mul)):
        a, left, va, da, ca = _stream(node.left, cap)
        b, right, vb, db, cb = _stream(node.right, cap)
        total = left if left is right else _sum_of_products
        if isinstance(node, Mul):
            if ca is not None and cb is not None:
                return _monomial(ca * cb, va + vb)
            if cb is not None:
                return _shifted(a, vb, cb, left), left, va + vb, da + vb, None
            if ca is not None:
                return _shifted(b, va, ca, right), right, va + vb, db + va, None
            return _product(a, b, total, da, db), total, va + vb, da + db, None
        sign = 1 if isinstance(node, Add) else -1
        # Monomials of one degree sum to one, and a zero monomial adds nothing.
        if ca is not None and cb is not None and (va == vb or not ca or not cb):
            return _monomial(ca + sign * cb, va if ca else vb)
        stream = _Stream(lambda n: total([(1, a.fill(n)[n], _ONE), (sign, b.fill(n)[n], _ONE)]))
        return stream, total, min(va, vb), max(da, db), None
    if isinstance(node, Div):
        den, right, v, dd, cd = _stream(node.right, cap)
        if cd is None:
            v = next((i for i in range(v, cap + 1) if _lift(den.fill(i)[i])), None)
        elif not cd or v > max(cap, MAX_EXPONENT):
            # A monomial's numerator is read v ahead: no further than one
            # literal power reaches, or than the search reads any other divisor.
            v = None
        if v is None:
            detail = f"divisor vanishes to order {cap}"
            raise SemanticError(node.span[0], SemanticReason.NON_UNIT_DIVISOR, detail)
        if cd is None and not _lift(den[v]).is_scalar:
            detail = "leading divisor coefficient depends on x"
            raise SemanticError(node.span[0], SemanticReason.NON_UNIT_DIVISOR, detail)
        num, left, vn, dn, cn = _stream(node.left, cap + v)
        if cn is None:
            low = next((i for i in range(min(vn, v), v) if _lift(num.fill(i)[i])), None)
        else:
            low = vn if cn and vn < v else None
        if low is not None:
            detail = f"numerator coefficient of t^{low} is nonzero"
            raise SemanticError(node.span[0], SemanticReason.T_DIVISION_IMPOSSIBLE, detail)
        if cd is None:
            total = left if left is right else _sum_of_products
            return _quotient(num, den, v, total, dd), total, 0, _NO_DEGREE, None
        if cn is not None:
            return _monomial(cn / cd, max(vn - v, 0))
        return _shifted(num, -v, 1 / cd, left), left, max(vn - v, 0), dn - v, None
    if isinstance(node, PowInt):
        (base, total, v, d, c), k = _stream(node.base, cap), node.exponent
        if k < 0:
            b0 = _lift(base.fill(0)[0])
            if b0.is_zero or not b0.is_scalar:
                detail = f"divisor has {'zero' if b0.is_zero else 'x-dependent'} constant term"
                raise SemanticError(node.span[0], SemanticReason.NON_UNIT_DIVISOR, detail)
        if c is not None or k == 0:
            return _monomial(Fraction(1) if c is None else c**k, v * k)
        if k < 0:
            one = _monomial(Fraction(1), 0)[0]
            base, k, v, d = _quotient(one, base, 0, total, d), -k, 0, _NO_DEGREE
        return _power(base, k, total, d), total, v * k, d * k, None
    if type(node) in _FUNCTIONS:
        # The x lane starts at base^x: exp(g)^x = exp(x g), a base of degree
        # at most d takes a d-term step, any other is exp(x log base).
        if isinstance(node, PowX) and isinstance(node.base, Exp):
            g, _, _, d, _ = _argument(node.base, cap)
            stream = _exp(g, _sum_of_products, times_x=True, d=d)
            return stream, _sum_of_products, 0, _NO_DEGREE, None
        arg, total, _, d, _ = _argument(node, cap)
        if isinstance(node, Log):  # log g = 0 + O(t)
            return _log(arg, total, d), total, 1, _NO_DEGREE, None
        if isinstance(node, Exp):
            return _exp(arg, total, d=d), total, 0, _NO_DEGREE, None
        if d < _NO_DEGREE:
            return _power_x(arg, d), _sum_of_products, 0, _NO_DEGREE, None
        stream = _exp(_log(arg, total), _sum_of_products, times_x=True)
        return stream, _sum_of_products, 0, _NO_DEGREE, None
    raise TypeError(f"not an AST node: {node!r}")


def eval_series(node: Ast, trunc: int) -> TSeries:
    """Evaluate an AST to an exact truncated series in one pass.

    Every node is one stream of t-coefficients, a list filled explicitly
    and lowest term first from its children's streams, so no subtree is
    evaluated twice; the top node is filled to ``trunc``, and each rule
    fills an operand only up to the last index it reads, then reads that
    window as slices.  The facts of ``_stream``'s one pass bound the
    windows: a product sums a_k b_(n-k) only for k in
    [max(0, n - d_b), min(n, d_a)], a quotient by a divisor of degree at
    most d and valuation v only k <= d - v of its divisor's terms, and
    ``exp`` and ``log`` of a polynomial of degree at most d only d terms,
    so ``log(1+t)``, ``2/(t+2)`` and ``exp(t)^x`` cost O(T) terms.  A node
    with no ``^x`` under it holds its coefficients as reduced integer pairs
    and sums them over one common denominator with integer weights; from
    ``base^x`` up they are ``XPoly`` values, and an x-free operand's pairs
    enter those sums as scalars.  Product, quotient, power, ``exp`` and
    ``log`` are each one recurrence, given the lane's term sum.  A quotient
    by a divisor of t-valuation v > 0 (``t`` in ``log(1+t)/t``,
    ``exp(t)-1`` in ``t/(exp(t)-1)``) reads its numerator v coefficients
    further, so the result stays exact.  A monomial c t^v divisor, however
    spelled (``t^6``, ``(t^2)^3``, ``t^6+0``), is read v ahead, times 1/c,
    as a monomial factor only shifts; any other divisor's valuation is
    searched from its bound up to T.
    ``exp``, ``log`` and ``base^x`` are first-order recurrences.  F =
    ``base^x`` solves base F' = x base' F: a base of degree at most d,
    known from its facts, steps F_n from d earlier terms; ``exp(g)^x`` is
    exp(x g); any other base is exp(x log base), whose step multiplies by x
    as a one-degree shift.  ``log`` and ``base^x`` need a constant term of
    exactly 1 and ``exp`` of exactly 0, and violations raise positioned
    :class:`SemanticError` values.
    """
    if trunc < 0:
        raise ValueError("truncation order must be >= 0")
    stream = _stream(node, trunc)[0].fill(trunc)
    return TSeries(trunc, map(_lift, stream[: trunc + 1]))


@lru_cache(maxsize=128)
def eval_text(src: str, trunc: int) -> TSeries:
    """Tokenize, parse, and evaluate in one step.

    The series of the 128 texts and truncations evaluated most recently are
    memoized and shared (a ``TSeries`` is an immutable value); a failing
    text is never memoized, so it raises its positioned error every time.
    """
    return eval_series(parse_text(src), trunc)
