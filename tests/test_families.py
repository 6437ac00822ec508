"""Family generators, Stirling tables, and oracle equivalence."""

from fractions import Fraction as F
from functools import lru_cache, reduce
from math import comb, factorial, gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedpoly import families, series
from mixedpoly.families import (
    FamilyKind,
    FamilySpec,
    falling_factorial,
    family_gf,
    family_numbers,
    family_oracle,
    family_poly,
    gf_rows,
    poly_table,
    stirling1,
    stirling2,
)
from mixedpoly.mixed import MixedKind, MixedSpec
from mixedpoly.series import TSeries, XPoly

from collector import left_for_the_collector
from series_reference import (
    binomial_x,
    degree,
    dense_rows,
    exp_xt,
    poly_one,
    poly_zero,
    quotient_kernel,
)

ALL_KINDS = list(FamilyKind)


# -- Stirling numbers ---------------------------------------------------------


def test_stirling1_examples():
    assert stirling1(3, 2) == -3
    assert stirling1(4, 1) == -6
    for n in range(10):
        assert stirling1(n, n) == 1
    assert stirling1(2, 5) == 0
    assert stirling1(5, 0) == 0
    assert stirling1(0, 0) == 1


def test_stirling2_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    for n in range(1, 10):
        assert stirling2(n, 1) == 1
    assert stirling2(2, 5) == 0


def test_stirling_inversion():
    for n in range(16):
        for k in range(16):
            forward = sum(stirling1(n, m) * stirling2(m, k) for m in range(16))
            backward = sum(stirling2(n, m) * stirling1(m, k) for m in range(16))
            want = 1 if n == k else 0
            assert forward == want
            assert backward == want


@lru_cache(maxsize=None)
def _stirling1_recursive(n, m):
    # Reference: the recurrence S1(n, m) = S1(n-1, m-1) - (n-1) S1(n-1, m).
    if n == 0 and m == 0:
        return 1
    if n <= 0 or m <= 0 or m > n:
        return 0
    return _stirling1_recursive(n - 1, m - 1) - (n - 1) * _stirling1_recursive(n - 1, m)


@lru_cache(maxsize=None)
def _stirling2_recursive(n, m):
    # Reference: the recurrence S2(n, m) = m S2(n-1, m) + S2(n-1, m-1).
    if n == 0 and m == 0:
        return 1
    if n <= 0 or m <= 0 or m > n:
        return 0
    return m * _stirling2_recursive(n - 1, m) + _stirling2_recursive(n - 1, m - 1)


def test_stirling_rows_match_recursive_reference():
    for n in range(-2, 41):
        for m in range(-2, 43):
            assert stirling1(n, m) == _stirling1_recursive(n, m), (n, m)
            assert stirling2(n, m) == _stirling2_recursive(n, m), (n, m)


@pytest.mark.parametrize("order", [range(61), [60, *range(61)]], ids=["ascending", "cold-at-60"])
def test_stirling_rows_stepped_from_the_row_below_match_reference(monkeypatch, order):
    for kind in (True, False):
        monkeypatch.setitem(series._STIRLING_ROWS, kind, {0: (1,)})
    for n in order:
        assert [stirling1(n, m) for m in range(n + 1)] == [
            _stirling1_recursive(n, m) for m in range(n + 1)
        ]
        assert [stirling2(n, m) for m in range(n + 1)] == [
            _stirling2_recursive(n, m) for m in range(n + 1)
        ]


def test_stirling_deep_rows_need_no_recursion():
    # The recursive triangle overflowed the interpreter stack here.
    assert stirling1(1500, 700) != 0
    assert stirling2(1500, 700) > 0
    assert stirling1(1500, 1500) == stirling2(1500, 1500) == 1


def test_falling_factorial_examples():
    assert falling_factorial(0) == poly_one()
    assert falling_factorial(2) == XPoly((0, -1, 1))
    assert falling_factorial(3) == XPoly((0, 2, -3, 1))


def _linear_factor_product(n):
    # (x)_n built as x (x-1) ... (x-n+1), independent of the Stirling rows
    # that falling_factorial reads.
    acc = poly_one()
    for i in range(n):
        acc = acc * XPoly((-i, 1))
    return acc


def test_falling_factorial_matches_stirling_expansion():
    for n in range(16):
        want = _linear_factor_product(n)
        assert falling_factorial(n) == want
        assert XPoly([stirling1(n, m) for m in range(n + 1)]) == want


# -- generating functions ------------------------------------------------------


def test_daehee_gf_low_orders():
    gf = family_gf(FamilySpec(FamilyKind.DAEHEE, 1), 2)
    assert gf.poly(0) == poly_one()
    assert gf.poly(1) == XPoly((F(-1, 2), 1))
    assert gf.poly(2) == XPoly((F(2, 3), -2, 1))


def test_order_zero_gives_bare_carrier():
    for kind in ALL_KINDS:
        gf = family_gf(FamilySpec(kind, 0), 5)
        if kind in (FamilyKind.BERNOULLI, FamilyKind.EULER):
            assert gf == exp_xt(5)
        else:
            assert gf == binomial_x(5)


def test_cauchy_second_polynomial():
    assert family_poly(FamilySpec(FamilyKind.CAUCHY, 1), 2) == XPoly((F(-1, 6), 0, 1))


def test_family_poly_examples():
    assert family_poly(FamilySpec(FamilyKind.EULER, 1), 2) == XPoly((0, -1, 1))
    assert family_poly(FamilySpec(FamilyKind.CHANGHEE, 1), 2) == XPoly((F(1, 2), -2, 1))
    assert family_poly(FamilySpec(FamilyKind.BERNOULLI, 1), 2)(0) == F(1, 6)


def test_family_poly_range_check():
    with pytest.raises(ValueError):
        family_poly(FamilySpec(FamilyKind.DAEHEE, 1), -1)


# -- oracles -------------------------------------------------------------------


def test_oracle_number_examples():
    assert family_numbers(FamilySpec(FamilyKind.DAEHEE, 1), 3)[3] == F(-3, 2)
    assert family_numbers(FamilySpec(FamilyKind.CHANGHEE, 2), 1)[1] == F(-1)
    assert family_numbers(FamilySpec(FamilyKind.CAUCHY, 1), 2)[2] == F(-1, 6)


def test_classical_number_values():
    bernoulli = [1, F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)]
    for n, want in enumerate(bernoulli):
        assert family_numbers(FamilySpec(FamilyKind.BERNOULLI, 1), n)[n] == want
    euler_at_zero = [1, F(-1, 2), 0, F(1, 4), 0, F(-1, 2)]
    for n, want in enumerate(euler_at_zero):
        assert family_numbers(FamilySpec(FamilyKind.EULER, 1), n)[n] == want
    cauchy = [1, F(1, 2), F(-1, 6), F(1, 4), F(-19, 30)]
    for n, want in enumerate(cauchy):
        assert family_numbers(FamilySpec(FamilyKind.CAUCHY, 1), n)[n] == want


def _clear_family_memos():
    for value in vars(families).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@lru_cache(maxsize=None)
def _numbers_from_scratch(kind, order, n_max):
    # Reference: the whole sequence rebuilt from n = 0 in plain Fractions,
    # the order-1 numbers from their recurrences and closed forms (Cauchy
    # from the recursive Stirling reference), then folded by order binomial
    # convolutions starting from 1, 0, 0, ...
    base = []
    for n in range(n_max + 1):
        if kind is FamilyKind.BERNOULLI:
            value = -sum(comb(n + 1, k) * base[k] for k in range(n)) / F(n + 1) if n else F(1)
        elif kind is FamilyKind.EULER:
            value = -sum(comb(n, k) * base[k] for k in range(n)) / F(2) if n else F(1)
        elif kind is FamilyKind.DAEHEE:
            value = F((-1) ** n * factorial(n), n + 1)
        elif kind is FamilyKind.CHANGHEE:
            value = F((-1) ** n * factorial(n), 2**n)
        else:
            value = sum(F(_stirling1_recursive(n, m), m + 1) for m in range(n + 1))
        base.append(value)
    acc = [F(int(n == 0)) for n in range(n_max + 1)]
    for _ in range(order):
        acc = [sum(comb(n, m) * acc[m] * base[n - m] for m in range(n + 1)) for n in range(n_max + 1)]
    return tuple(acc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(ALL_KINDS),
    calls=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 30)), min_size=1, max_size=8),
    arrangement=st.sampled_from(["ascending", "descending", "random"]),
)
def test_numbers_match_from_scratch_reference_in_any_call_order(kind, calls, arrangement):
    # Cold memos, then reads of several orders in the drawn order of n: each
    # result is the reference's prefix, and a shorter result of an order is a
    # prefix of every longer one.
    if arrangement != "random":
        calls = sorted(calls, key=lambda call: call[1], reverse=arrangement == "descending")
    _clear_family_memos()
    results = [(order, family_numbers(FamilySpec(kind, order), n)) for order, n in calls]
    for (order, n), (_, got) in zip(calls, results):
        assert got == _numbers_from_scratch(kind, order, 30)[: n + 1], (kind, order, n)
        assert all(type(value) is F for value in got)  # pairs convert at the boundary
    for order, short in results:
        for other, long in results:
            if other == order and len(short) <= len(long):
                assert long[: len(short)] == short


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_numbers_reject_negative_n_max(kind):
    for order in range(3):
        with pytest.raises(ValueError):
            family_numbers(FamilySpec(kind, order), -1)


def test_deep_order_numbers_need_no_recursion():
    # Order 3000 is filled one order at a time from cold memos; a read that
    # recursed through the orders below would overflow the interpreter stack.
    _clear_family_memos()
    spec = FamilySpec(FamilyKind.DAEHEE, 3000)
    assert family_numbers(spec, 3) == _numbers_from_scratch(FamilyKind.DAEHEE, 3000, 3)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_number_streams_hold_reduced_pairs(kind):
    # Every oracle number is an integer pair (p, q) in lowest terms with
    # q > 0, so pairs compare and combine without a Fraction; zero is (0, 1).
    _clear_family_memos()
    for order in range(5):
        nums = families._numbers(FamilySpec(kind, order), 30)
        for n in range(31):
            p, q = nums[n]
            assert type(p) is int and type(q) is int, (kind, order, n)
            assert q > 0 and gcd(p, q) == 1, (kind, order, n, p, q)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_oracle_equivalence(kind, order):
    spec = FamilySpec(kind, order)
    gf = family_gf(spec, 20)
    for n in range(21):
        assert gf.poly(n) == family_oracle(spec, n), (kind, order, n)


def _per_term_oracle(spec, n):
    # Reference: the oracle sum with each basis polynomial built afresh,
    # (x)_(n-k) as a product of linear factors and x^(n-k) from its
    # coefficients.
    nums = family_numbers(spec, n)
    acc = poly_zero()
    for k in range(n + 1):
        if nums[k] == 0:
            continue
        if spec.kind in (FamilyKind.BERNOULLI, FamilyKind.EULER):
            basis = XPoly([0] * (n - k) + [1])
        else:
            basis = _linear_factor_product(n - k)
        acc = acc + basis * (comb(n, k) * nums[k])
    return acc


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_matches_per_term_reference(kind):
    for order in range(4):
        spec = FamilySpec(kind, order)
        for n in range(31):
            assert family_oracle(spec, n) == _per_term_oracle(spec, n), (kind, order, n)


def test_oracle_reads_one_memo_per_spec():
    # family_oracle reads the spec's oracle memo, the only memo of the oracle
    # polynomials: every reader shares one polynomial per (spec, n), and a
    # read computes its own term only.
    _clear_family_memos()
    spec = FamilySpec(FamilyKind.EULER, 2)
    first = family_oracle(spec, 5)
    memo = families._oracle_memo(spec)
    assert first is memo(5) and family_oracle(FamilySpec(FamilyKind.EULER, 2), 5) is first
    assert memo.cache_info().currsize == 1
    with pytest.raises(ValueError):
        family_oracle(spec, -1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_degree_and_leading_coefficient(kind):
    for order in (1, 2, 3):
        spec = FamilySpec(kind, order)
        for n in range(21):
            p = family_oracle(spec, n)
            assert degree(p) == n
            assert p.coeff(n) == 1


def _kernel_series(kind, trunc):
    # The order-1 kernel of the GF route, as a truncated series: its kernel
    # stream, or for Daehee and Changhee, whose rows read none, the order-1
    # generating function at x = 0.
    if kind in families._KERNELS:
        kernel = families._kernel_power(kind, 1).fill(trunc)
        return TSeries(trunc, [F(*kernel[n]) for n in range(trunc + 1)])
    gf = family_gf(FamilySpec(kind, 1), trunc)
    return TSeries(trunc, [gf.coeff(n)(0) for n in range(trunc + 1)])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kernel_powers_are_x_free(kind):
    # The number-level generating function (carrier evaluated at x = 0)
    # must have purely rational coefficients.  Daehee and Changhee have no
    # kernel stream, so theirs is the test-side quotient kernel.
    for order in (1, 2, 3):
        kernel = _kernel_series if kind in families._KERNELS else quotient_kernel
        k = kernel(kind, 10) ** order
        assert all(c.is_scalar for c in k.coeffs)
        gf = family_gf(FamilySpec(kind, order), 10)
        for n in range(11):
            assert gf.poly(n)(0) == k.poly(n).coeff(0)


def test_gf_rows_are_the_extracted_gf_polynomials():
    spec = FamilySpec(FamilyKind.CAUCHY, 2)
    gf = family_gf(spec, 6)
    assert gf_rows(spec.factors, 6) == tuple(gf.poly(n) for n in range(7))
    assert family_poly(spec, 4) == gf.poly(4)


@pytest.mark.parametrize(
    "factors",
    [
        ((FamilyKind.DAEHEE, 1), (FamilyKind.BERNOULLI, 1)),
        ((FamilyKind.BERNOULLI, 1), (FamilyKind.DAEHEE, 1)),
        ((FamilyKind.CHANGHEE, -1),),
    ],
)
def test_gf_rows_reject_factors_no_rule_reads(factors):
    # Kernels of the other carrier, and a negative Changhee power, fit
    # neither row form; no spec has them, and they are refused, not misread.
    with pytest.raises(ValueError):
        gf_rows(factors, 3)


def test_gf_rows_read_a_negative_log_power_as_the_other_kind():
    minus = ((FamilyKind.DAEHEE, -2),)
    assert gf_rows(minus, 12) == gf_rows(FamilySpec(FamilyKind.CAUCHY, 2).factors, 12)
    assert gf_rows(minus, 12) == dense_rows(minus, 12)


def test_poly_table_rows():
    table = poly_table(FamilySpec(FamilyKind.DAEHEE, 1), 3)
    assert [n for n, _ in table.rows] == [0, 1, 2, 3]
    assert table.rows[2][1] == XPoly((F(2, 3), -2, 1))


@lru_cache(maxsize=None)
def _gf_from_truncated_series(factors, trunc):
    # Reference: the quotient kernels raised by TSeries powering, multiplied
    # in order, then the first kernel's carrier once; with its rows.
    kernels = reduce(mul, (quotient_kernel(kind, trunc) ** power for kind, power in factors))
    exp_carrier = factors[0][0] in (FamilyKind.BERNOULLI, FamilyKind.EULER)
    gf = kernels * (exp_xt if exp_carrier else binomial_x)(trunc)
    return gf, tuple(gf.poly(n) for n in range(trunc + 1))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kernel_matches_quotient_reference(kind):
    for trunc in (0, 1, 7, 30):
        assert _kernel_series(kind, trunc) == quotient_kernel(kind, trunc), (kind, trunc)


_GF_SPECS = [FamilySpec(kind, order) for kind in ALL_KINDS for order in range(5)] + [
    MixedSpec(kind, r, s) for kind in MixedKind for r in range(1, 4) for s in range(1, 4)
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    calls=st.lists(
        st.tuples(st.sampled_from(_GF_SPECS), st.integers(0, 30)), min_size=1, max_size=6
    ),
    arrangement=st.sampled_from(["ascending", "descending", "random"]),
)
def test_gf_streams_match_truncated_series_reference_in_any_call_order(calls, arrangement):
    # Cold memos, then rows and series of base and mixed specs read at
    # truncations in the drawn order: each equals the reference at T = 30,
    # cut to the truncation read.
    if arrangement != "random":
        calls = sorted(calls, key=lambda call: call[1], reverse=arrangement == "descending")
    _clear_family_memos()
    for spec, trunc in calls:
        gf, rows = _gf_from_truncated_series(spec.factors, 30)
        assert gf_rows(spec.factors, trunc) == rows[: trunc + 1], (spec, trunc)
        assert family_gf(spec, trunc) == TSeries(trunc, gf.coeffs[: trunc + 1]), (spec, trunc)


def test_dropped_family_memos_leave_no_reference_cycle():
    # Rows of every family and mixed kind, and the oracle's numbers, fill
    # every stream memo; a recurrence is handed its stream, so clearing the
    # memos frees the streams by reference counting.
    def fill_and_clear():
        for kind in ALL_KINDS:
            gf_rows(FamilySpec(kind, 2).factors, 8)
            family_oracle(FamilySpec(kind, 2), 8)
        for kind in MixedKind:
            gf_rows(MixedSpec(kind, 2, 1).factors, 8)
        _clear_family_memos()

    _clear_family_memos()
    assert not left_for_the_collector(fill_and_clear)


# The (1+t)^x specs: D, C and Ch at orders 0..4, DC, CD and CC at r, s = 1..4.
_LOG_CARRIER_SPECS = [
    FamilySpec(kind, order)
    for kind in (FamilyKind.DAEHEE, FamilyKind.CAUCHY, FamilyKind.CHANGHEE)
    for order in range(5)
] + [
    MixedSpec(kind, r, s)
    for kind in (MixedKind.DC, MixedKind.CD, MixedKind.CC)
    for r in range(1, 5)
    for s in range(1, 5)
]


@pytest.mark.parametrize("kind", sorted({spec.kind for spec in _LOG_CARRIER_SPECS}, key=str))
def test_log_carrier_rules_match_the_dense_row_sum(kind):
    # Every row n <= 60 of the Stirling, Cauchy-kernel and (1+t/2)^s rules
    # equals the dense sum n! sum_m K_(n-m) (x)_m / m! over test-side
    # kernels and falling factorials.
    _clear_family_memos()
    specs = [spec for spec in _LOG_CARRIER_SPECS if spec.kind is kind]
    assert specs
    for spec in specs:
        assert gf_rows(spec.factors, 60) == dense_rows(spec.factors, 60), spec


def test_log_carrier_rows_read_linear_work(monkeypatch):
    # Cold memos, then rows 0..60 of each spec, counting what each row reads:
    # each coefficient it takes from a Stirling tuple, each coefficient of a
    # polynomial term it sums, and each term of a kernel-power step.  A row n
    # of order weight w reads at most (w + 3)(n + 1); the dense row sum read
    # (n + 1)(n + 2)/2, 2.8 times that bound at n = 60 and w = 8.
    work = [0]
    falling, total, pair_total = (
        families._falling_stream, families._sum_of_products, families._pair_sum
    )

    class Counted(tuple):
        def __iter__(self):
            work[0] += len(self)
            return super().__iter__()

        def __getitem__(self, index):
            part = super().__getitem__(index)
            work[0] += len(part) if isinstance(index, slice) else 1
            return part

    def counted_falling(shift=0):
        steps = falling(shift)
        return series._Stream(lambda m: Counted(steps.fill(m)[m]))

    def counted_total(terms, scale=1):
        terms = list(terms)
        work[0] += sum(len(f._num) for term in terms for f in term if type(f) is XPoly)
        return total(terms, scale)

    def counted_pair_total(terms, scale=1):
        terms = list(terms)
        work[0] += len(terms)
        return pair_total(terms, scale)

    monkeypatch.setattr(families, "_falling_stream", counted_falling)
    monkeypatch.setattr(families, "_sum_of_products", counted_total)
    monkeypatch.setattr(families, "_pair_sum", counted_pair_total)
    specs = [
        FamilySpec(FamilyKind.DAEHEE, 4),
        FamilySpec(FamilyKind.CAUCHY, 4),
        FamilySpec(FamilyKind.CHANGHEE, 4),
        MixedSpec(MixedKind.DC, 4, 4),
        MixedSpec(MixedKind.CC, 4, 4),
        MixedSpec(MixedKind.CD, 4, 1),
    ]
    try:
        for spec in specs:
            _clear_family_memos()
            weight = sum(power for _, power in spec.factors)
            rows, start = families._row_stream(spec.factors), work[0]
            for n in range(61):
                before = work[0]
                rows.fill(n)
                assert work[0] - before <= (weight + 3) * (n + 1), (spec, n, work[0] - before)
            assert work[0] - start >= 61 * 62 // 2, spec  # every row reads its own n + 1
    finally:
        _clear_family_memos()


def test_deep_order_rows_need_no_recursion():
    # Miller's recurrence takes the order as an exponent: order 3000 costs
    # no more than order 1 and recurses through no order below it.
    _clear_family_memos()
    spec = FamilySpec(FamilyKind.DAEHEE, 3000)
    assert gf_rows(spec.factors, 3) == tuple(family_oracle(spec, n) for n in range(4))
