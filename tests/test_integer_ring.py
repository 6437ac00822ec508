"""The integer-numerator series ring against a Fraction-coefficient oracle.

``FracPoly`` is the dense ``Fraction`` polynomial that ``XPoly`` used to be,
and the ``ref_*`` functions are the term-by-term series products, quotients
and powers over it.  Every operation of ``XPoly`` and ``TSeries`` is
compared with them on the same inputs: the coefficients must agree, and the
result must be structurally equal to (and hash like) the ``XPoly`` built
afresh from those coefficients, which holds only if the content is
normalized.
"""

import json
import pickle
import sys
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedpoly import cli
from mixedpoly.series import DivisionError, TSeries, XPoly

from series_reference import degree, poly_const, poly_zero


class FracPoly:
    """Dense polynomial over Fraction, ascending, trailing zeros stripped."""

    def __init__(self, coeffs=()):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FracPoly(out)

    def __neg__(self):
        return FracPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FracPoly):
            return FracPoly(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return FracPoly()
        out = [F(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FracPoly(out)

    def __call__(self, v):
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def render(self, rat, power, times):
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = rat(mag)
            else:
                xs = "x" if k == 1 else f"x^{power(k)}"
                term = xs if mag == 1 else f"{rat(mag)}{times}{xs}"
            sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
            parts.append(sign + term)
        return " ".join(parts) if parts else "0"

    def __str__(self):
        return self.render(str, str, "*")

    def latex(self):
        def rat(q):
            return str(q.numerator) if q.denominator == 1 else rf"\frac{{{q.numerator}}}{{{q.denominator}}}"

        return self.render(rat, lambda k: f"{{{k}}}", " ")


def ref_mul(f, g):
    out = []
    for n in range(len(f)):
        acc = FracPoly()
        for k in range(n + 1):
            acc = acc + f[k] * g[n - k]
        out.append(acc)
    return out


def ref_div(f, g):
    inv = 1 / g[0].coeffs[0]
    out = []
    for n in range(len(f)):
        acc = f[n]
        for k in range(1, n + 1):
            acc = acc - g[k] * out[n - k]
        out.append(acc * inv)
    return out


def ref_pow(f, e):
    if e < 0:
        one = [FracPoly((1,))] + [FracPoly()] * (len(f) - 1)
        f, e = ref_div(one, f), -e
    acc = [FracPoly((1,))] + [FracPoly()] * (len(f) - 1)
    for _ in range(e):
        acc = ref_mul(acc, f)
    return acc


def same(got: XPoly, want: FracPoly):
    assert got.coeffs == want.coeffs
    assert all(type(c) is F for c in got.coeffs)
    fresh = XPoly(want.coeffs)
    assert got == fresh
    assert hash(got) == hash(fresh)


# Rationals written with negative and non-reduced denominators.
_rats = st.builds(
    lambda n, d, k: F(n * k, d * k),
    st.integers(-40, 40),
    st.integers(-12, 12).filter(bool),
    st.sampled_from([1, -1, 2, -3, 6]),
)


@st.composite
def _pairs(draw, max_degree=4):
    cs = draw(st.lists(_rats, max_size=max_degree + 1))
    return XPoly(cs), FracPoly(cs)


@given(_pairs(), _pairs(), _rats, st.integers(-5, 5))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_xpoly_matches_fraction_oracle(pa, pb, q, k):
    (a, fa), (b, fb) = pa, pb
    same(a, fa)
    same(a + b, fa + fb)
    same(a - b, fa - fb)
    same(-a, -fa)
    same(a * b, fa * fb)
    same(a * q, fa * q)
    same(q * a, fa * q)
    same(a * k, fa * k)
    same(a + q, fa + FracPoly((q,)))
    same(q - a, FracPoly((q,)) - fa)
    assert (a == b) == (fa.coeffs == fb.coeffs)
    assert a(q) == fa(q) and a(k) == fa(F(k))
    assert type(a(q)) is F
    assert [a.coeff(i) for i in range(-1, 7)] == [
        fa.coeffs[i] if 0 <= i < len(fa.coeffs) else 0 for i in range(-1, 7)
    ]
    assert str(a) == str(fa) and a.latex() == fa.latex()
    assert degree(a) == len(fa.coeffs) - 1
    assert a.is_scalar == (len(fa.coeffs) <= 1)


@given(_rats, st.integers(-30, 30))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_degree_zero_hashes_like_a_bare_rational(q, k):
    for value in (q, F(k), k):
        p = poly_const(value)
        assert p == value and value == p
        assert hash(p) == hash(value)
    assert {poly_const(q): 1}[q] == 1
    assert poly_zero() == 0 and hash(poly_zero()) == hash(0)


@st.composite
def _series_pairs(draw):
    trunc = draw(st.integers(0, 8))
    mk = lambda: [draw(_pairs(max_degree=3)) for _ in range(trunc + 1)]
    f, g = mk(), mk()
    # A unit divisor: nonzero scalar constant term.
    g[0] = (lambda c: (XPoly((c,)), FracPoly((c,))))(draw(_rats.filter(bool)))
    return trunc, f, g


@given(_series_pairs(), st.integers(-3, 3))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_tseries_matches_fraction_oracle(case, e):
    trunc, f, g = case
    sf, rf = TSeries(trunc, [p for p, _ in f]), [r for _, r in f]
    sg, rg = TSeries(trunc, [p for p, _ in g]), [r for _, r in g]
    for got, want in (
        (sf * sg, ref_mul(rf, rg)),
        (sf / sg, ref_div(rf, rg)),
        (sg**e, ref_pow(rg, e)),
        (sf ** abs(e), ref_pow(rf, abs(e))),
    ):
        for c, w in zip(got.coeffs, want):
            same(c, w)
    assert all(type(c) is XPoly for c in (sf * sg).coeffs)
    for n in range(trunc + 1):
        same(sf.poly(n), rf[n] * factorial(n))
    c0 = sf.coeffs[0]
    if c0.is_zero or not c0.is_scalar:
        with pytest.raises(DivisionError):
            sg / sf


# Numerators over one denominator, each coefficient on its own often not in
# lowest terms: zero, +-1 (the numerator equal to +-den), small multiples of
# den and its divisors, and numbers far larger than den.
@st.composite
def _integer_polys(draw):
    den = draw(st.sampled_from([1, 2, 6, 12, 35, 2**70]) | st.integers(1, 10**6))
    nums = st.one_of(
        st.sampled_from([0, den, -den, 2 * den, -3 * den]),
        st.integers(-12, 12).map(lambda k: k * (den // 2 or 1)),
        st.integers(-4 * den, 4 * den),
        st.integers(-(10**30), 10**30),
    )
    return XPoly._normalized(draw(st.lists(nums, max_size=7)), den)


@given(_integer_polys())
@example(XPoly())
@example(XPoly._normalized([0, 0, 0], 5))
@example(XPoly._normalized([-6, 3, 0, -3], 3))
@example(XPoly._normalized([4, -2, 6], 8))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_printers_match_the_fraction_printers(p):
    # ``FracPoly.render`` is the ``Fraction`` walk ``XPoly._render`` used to
    # be, and ``[str(c) for c in p.coeffs]`` the csv/json coefficients the
    # CLI used to print; the integer printers must give the same text.  The
    # first print fills the stored text and the second reads it; a pickle holds
    # no text and its copy prints afresh, and printing leaves ``==`` and ``hash`` as they were.
    old = FracPoly(p.coeffs)
    texts = [str(c) for c in p.coeffs] or ["0"]
    fresh = XPoly._normalized(list(p._num), p._den)
    before = hash(p)
    for _ in range(2):
        assert str(p) == str(old)
        assert p.latex() == old.latex()
        assert p.coeff_text().split(",") == texts
        assert [",".join(row).split(",") for row in cli._coeff_rows([(0, p)])] == [["0", *texts]]
    assert pickle.dumps(p) == pickle.dumps(fresh)
    twin = pickle.loads(pickle.dumps(p))
    assert str(twin) == str(old)
    assert twin.latex() == old.latex()
    assert twin.coeff_text().split(",") == texts
    assert p == fresh == twin
    assert hash(p) == before == hash(fresh) == hash(twin)


def test_text_printed_under_a_raised_limit_is_reused():
    # A polynomial keeps the text of its first print, so one printed while
    # ``sys.set_int_max_str_digits`` was raised prints again after it is
    # lowered; an unprinted equal polynomial still meets the limit.
    # The csv and json printers read the coefficient text the same way.
    big = XPoly._normalized([10**5000, 0, 1], 3)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text, tex, coeffs = str(big), big.latex(), big.coeff_text()
        csv = [",".join(row) for row in cli._coeff_rows([(2, big)])]
        payload = cli._json({"coeffs": big})
    finally:
        sys.set_int_max_str_digits(limit)
    assert text.startswith("1/3*x^2 + 1" + "0" * 4999)
    assert coeffs == "1" + "0" * 5000 + "/3,0,1/3"
    assert str(big) == text and big.latex() == tex and big.coeff_text() == coeffs
    assert [",".join(row) for row in cli._coeff_rows([(2, big)])] == csv == ["2," + coeffs]
    assert cli._json({"coeffs": big}) == payload == json.dumps({"coeffs": coeffs.split(",")}, indent=2)
    unprinted = XPoly._normalized([10**5000, 0, 1], 3)
    assert unprinted == big
    for write in (str, XPoly.latex, XPoly.coeff_text, lambda p: cli._json([p])):
        with pytest.raises(ValueError):
            write(unprinted)
