"""Series-engine unit tests: worked examples plus ring-law property tests."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedpoly.series import (
    CompositionError,
    DivisionError,
    TSeries,
    TruncationError,
    XPoly,
    _lift,
    _pair_sum,
    _power,
    _product,
    _quotient,
    _Stream,
    _sum_of_products,
    falling_factorial,
)

from series_reference import (
    binomial_x,
    degree,
    dense,
    dense_power,
    dense_product,
    dense_quotient,
    exp_xt,
    expm1,
    is_reduced_pair,
    geom2,
    log1p,
    poly_const,
    poly_one,
    poly_x,
    poly_zero,
    series_t,
    series_zero,
)


def series(trunc, *coeffs):
    return TSeries(trunc, coeffs)


def scalar_coeffs(f):
    assert all(c.is_scalar for c in f.coeffs)
    return [c.coeff(0) for c in f.coeffs]


# -- linear combinations ----------------------------------------------------


def test_linear_cancellation():
    f = series(1, 1, 1)  # 1 + t
    assert (1 * f + (-1) * f) == series_zero(1)


def test_linear_scaling_identity():
    f = TSeries.constant(1, 3)
    g = series(3, 5, -2, F(1, 3))
    assert 2 * f + 0 * g == TSeries.constant(2, 3)


def test_linear_hand_sum():
    g = series(3, 0, F(1, 2))  # t/2
    got = 1 * log1p(3) + 1 * g
    assert scalar_coeffs(got) == [0, F(3, 2), F(-1, 2), F(1, 3)]


def test_linear_truncation_mismatch():
    with pytest.raises(TruncationError):
        series(2, 1) + series(3, 1)


# -- multiplication ---------------------------------------------------------


def test_mul_difference_of_squares():
    f = series(2, 1, 1)
    g = series(2, 1, -1)
    assert scalar_coeffs(f * g) == [1, 0, -1]


def test_mul_hand_convolution():
    f = series(2, 1, F(-1, 2), F(1, 3))
    g = series(2, poly_one(), poly_x(), falling_factorial(2) * F(1, 2))
    prod = f * g
    want = falling_factorial(2) * F(1, 2) - poly_x() * F(1, 2) + poly_const(F(1, 3))
    assert prod.coeff(2) == want


def test_mul_identity_element():
    f = series(3, F(2, 7), poly_x(), 0, falling_factorial(3))
    assert f * TSeries.constant(1, 3) == f


def test_mul_truncation_mismatch():
    with pytest.raises(TruncationError):
        series(2, 1) * series(4, 1)


# -- division ---------------------------------------------------------------


def test_div_two_over_two_plus_t():
    got = TSeries.constant(2, 2) / series(2, 2, 1)
    assert scalar_coeffs(got) == [1, F(-1, 2), F(1, 4)]


def test_div_self_is_one():
    f = series(3, 1, poly_x(), F(5, 3), poly_x())
    assert f / f == TSeries.constant(1, 3)


def test_div_geometric():
    got = TSeries.constant(1, 3) / series(3, 1, -1)
    assert scalar_coeffs(got) == [1, 1, 1, 1]


def test_div_rejects_zero_constant_term():
    with pytest.raises(DivisionError):
        TSeries.constant(1, 2) / series_t(2)


def test_div_rejects_x_dependent_unit():
    g = series(2, XPoly((1, 1)), 0, 0)  # constant term 1 + x
    with pytest.raises(DivisionError):
        TSeries.constant(1, 2) / g


# -- powers -----------------------------------------------------------------


def test_pow_square_of_daehee_kernel():
    k = log1p(3).shift_down()  # log(1+t)/t at T=2
    sq = k**2
    assert sq.coeff(1) == poly_const(-1)


def test_pow_zero_is_one():
    f = series(4, 7, poly_x(), 1)
    assert f**0 == TSeries.constant(1, 4)


def test_pow_group_law():
    f = series(3, F(2, 3), poly_x(), F(-1, 5), 4)
    assert (f**2) * (f**-2) == TSeries.constant(1, 3)


def test_pow_matches_naive_products():
    f = series(4, F(1, 2), poly_x(), -3, F(2, 7), XPoly((0, 0, 1)))
    acc = TSeries.constant(1, 4)
    for r in range(6):
        assert f**r == acc
        acc = acc * f


def test_negative_pow_requires_unit():
    with pytest.raises(DivisionError):
        series_t(3) ** -1


# -- composition ------------------------------------------------------------


def test_compose_exp_xt_with_log1p_is_binomial():
    assert exp_xt(2).compose(log1p(2)) == binomial_x(2)
    assert exp_xt(16).compose(log1p(16)) == binomial_x(16)


def test_compose_identity_substitution():
    f = series(3, 1, poly_x(), F(1, 2), falling_factorial(2))
    assert f.compose(series_t(3)) == f


def test_compose_log_exp_roundtrip():
    assert log1p(4).compose(expm1(4)) == series_t(4)
    assert expm1(16).compose(log1p(16)) == series_t(16)


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(CompositionError):
        log1p(3).compose(TSeries.constant(1, 3))


def test_compose_truncation_mismatch():
    with pytest.raises(TruncationError):
        log1p(3).compose(series_t(4))


# -- reference primitives -------------------------------------------------------------


def test_log1p_coefficients():
    assert scalar_coeffs(log1p(3)) == [0, 1, F(-1, 2), F(1, 3)]


def test_exp_xt_coefficients():
    f = exp_xt(2)
    assert f.coeff(0) == poly_one()
    assert f.coeff(1) == poly_x()
    assert f.coeff(2) == XPoly((0, 0, F(1, 2)))


def test_binomial_x_coefficients():
    f = binomial_x(2)
    assert f.coeff(1) == poly_x()
    assert f.poly(2) == falling_factorial(2)


def test_geom2_is_two_over_two_plus_t():
    assert geom2(5) == TSeries.constant(2, 5) / series(5, 2, 1)


# -- extraction and polynomial helpers ---------------------------------------


def test_poly_extraction_daehee():
    f = log1p(3).shift_down() * binomial_x(2)
    assert f.poly(2) == XPoly((F(2, 3), -2, 1))


def test_poly_constant_term():
    f = geom2(4) * binomial_x(4)
    assert f.poly(0) == poly_one()
    assert f.poly(1) == XPoly((F(-1, 2), 1))


def test_poly_out_of_range():
    f = binomial_x(2)
    with pytest.raises(ValueError):
        f.poly(3)
    with pytest.raises(ValueError):
        f.poly(-1)


def test_eval_examples():
    p = XPoly((F(2, 3), -2, 1))
    assert p(0) == F(2, 3)
    assert poly_x()(1) == 1
    assert XPoly((F(-1, 2), 1))(0) == F(-1, 2)


def test_xpoly_normalization():
    assert XPoly((1, 0, 0)) == XPoly((1,))
    assert XPoly((0, 0)).is_zero
    assert degree(XPoly((0, 0))) == -1


def test_shift_down_requires_zero_low_coeffs():
    with pytest.raises(DivisionError):
        TSeries.constant(1, 3).shift_down()
    assert log1p(3).shift_down().trunc == 2


# -- property tests ----------------------------------------------------------

_rats = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _xpolys(draw, max_degree=2):
    return XPoly(draw(st.lists(_rats, min_size=0, max_size=max_degree + 1)))


@st.composite
def _series_triples(draw):
    trunc = draw(st.integers(min_value=1, max_value=6))
    mk = lambda: TSeries(
        trunc, [draw(_xpolys()) for _ in range(trunc + 1)]
    )
    return mk(), mk(), mk()


@given(_series_triples())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(triple):
    f, g, h = triple
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    a, b = F(2, 3), F(-5, 7)
    assert (a * f + b * g) * h == a * (f * h) + b * (g * h)


@given(_series_triples())
@settings(max_examples=40, deadline=None)
def test_extraction_satisfies_binomial_convolution(triple):
    from math import comb

    f, g, _ = triple
    prod = f * g
    for n in range(f.trunc + 1):
        want = poly_zero()
        for k in range(n + 1):
            want = want + f.poly(k) * g.poly(n - k) * comb(n, k)
        assert prod.poly(n) == want


@st.composite
def _dense_operands(draw):
    """f and u of one truncation, u with a nonzero rational constant term, and an exponent."""
    trunc = draw(st.integers(min_value=0, max_value=6))
    f = TSeries(trunc, [draw(_xpolys()) for _ in range(trunc + 1)])
    u = TSeries(trunc, [draw(_rats.filter(bool)), *(draw(_xpolys()) for _ in range(trunc))])
    return f, u, draw(st.integers(min_value=-3, max_value=5))


@given(_dense_operands())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_arithmetic_matches_dense_reference(operands):
    # The operators run the stream rules; the dense reference shares no code with them.
    f, u, k = operands
    assert dense(f * u) == dense_product(dense(f), dense(u))
    assert dense(f / u) == dense_quotient(dense(f), dense(u))
    assert dense(u**k) == dense_power(dense(u), k)
    if k >= 0:
        assert dense(f**k) == dense_power(dense(f), k)


def _lane_operands():
    """1 + t/2 + ... + t^5/6 twice: as pairs on the pair lane, and as XPoly values, no lane given."""
    pairs = _Stream(None, [(1, n + 1) for n in range(6)], _pair_sum)
    polys = _Stream(None, [XPoly((F(1, n + 1), n)) for n in range(6)])
    return pairs, polys


def _dense_terms(stream):
    """Terms 0..5 of a stream of either lane as a dense series."""
    return [list(_lift(c).coeffs) for c in stream.fill(5)[:6]]


@pytest.mark.parametrize("left,right", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_rules_sum_pairs_only_when_both_operands_do(left, right):
    # A result's lane comes from its operands': it holds reduced pairs only
    # when both do.  A stream built with no lane given sums XPoly terms.
    # Either lane's terms match the dense reference.
    a, b = _lane_operands()[left], _lane_operands()[right]
    assert _lane_operands()[1].total is _sum_of_products
    fa, fb = _dense_terms(a), _dense_terms(b)
    both = a.total is b.total is _pair_sum
    cases = [
        (_product(a, b), both, dense_product(fa, fb)),
        (_quotient(a, b, 0), both, dense_quotient(fa, fb)),
        (_power(a, 3), a.total is _pair_sum, dense_power(fa, 3)),
    ]
    for result, pairs, want in cases:
        assert result.total is (_pair_sum if pairs else _sum_of_products)
        held = result.fill(5)
        assert all(is_reduced_pair(c) if pairs else type(c) is XPoly for c in held)
        assert _dense_terms(result) == want


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=16))
def test_binomial_identity_all_truncations(trunc):
    assert exp_xt(trunc).compose(log1p(trunc)) == binomial_x(trunc)
    assert log1p(trunc).compose(expm1(trunc)) == series_t(trunc)
    assert expm1(trunc).compose(log1p(trunc)) == series_t(trunc)
