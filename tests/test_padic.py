"""Finite p-adic integral approximants, valuation growth, and oracles.

All numeric thresholds asserted here were frozen from oracle runs of these
same routines; none are taken on faith.
"""

import itertools
import math
import time
from fractions import Fraction as F
from math import comb, factorial, floor, log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedpoly import padic
from mixedpoly.families import FamilyKind, FamilySpec, family_oracle
from mixedpoly.padic import (
    BinomialBasis,
    BudgetExceededError,
    IntegralKind,
    PAdicContext,
    convergence_trace,
    finite_integral,
    integral,
    is_odd_prime,
    multifold_integral,
    shift_residual,
    vp,
)
from mixedpoly.series import XPoly

from series_reference import is_reduced_pair, poly_const, poly_one, poly_x

BOS = IntegralKind.BOSONIC
FER = IntegralKind.FERMIONIC

X = poly_x()
X2 = XPoly((0, 0, 1))


# -- valuation ----------------------------------------------------------------


def test_vp_examples():
    assert vp(F(9, 2), 3) == 2
    assert vp(1, 5) == 0
    assert vp(0, 3) == math.inf
    assert vp(F(1, 27), 3) == -3
    assert vp(18, 3) == 2


def test_vp_requires_prime():
    with pytest.raises(ValueError):
        vp(F(1, 2), 6)


def test_vp_rejects_p_above_the_primality_bound_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="p must be below 3317044064679887385961981"):
        vp(5, 4000000000000000000000027)
    assert time.perf_counter() - start < 0.5


# -- context validation ----------------------------------------------------------


def test_context_rejects_p_two_and_composites():
    with pytest.raises(ValueError):
        PAdicContext(2, 1)
    with pytest.raises(ValueError):
        PAdicContext(9, 1)
    with pytest.raises(ValueError):
        PAdicContext(3, 0)


def test_context_budget():
    with pytest.raises(BudgetExceededError):
        PAdicContext(3, 15)
    PAdicContext(3, 14)  # 3^14 < 10^7 is fine


# -- finite integrals ---------------------------------------------------------


def test_bosonic_binomial_example():
    assert finite_integral(BOS, BinomialBasis(1), PAdicContext(3, 2)) == 4


def test_bosonic_constant_is_identity():
    for N in (1, 2, 3):
        ctx = PAdicContext(5, N)
        assert finite_integral(BOS, poly_const(F(7, 3)), ctx) == F(7, 3)


def test_fermionic_alternating_example():
    assert finite_integral(FER, X, PAdicContext(3, 2)) == 4


@pytest.mark.parametrize("p", [3, 5])
def test_volkenborn_closed_form(p):
    # Hockey-stick identity: the level-N mean of C(x, n) is
    # C(p^N, n+1)/p^N = C(p^N - 1, n)/(n + 1), exactly.
    for N in range(1, 7):
        ctx = PAdicContext(p, N)
        M = p**N
        for n in range(7):
            got = finite_integral(BOS, BinomialBasis(n), ctx)
            assert got == F(comb(M, n + 1), M)
            assert got == F(comb(M - 1, n), n + 1)


# -- multifold ----------------------------------------------------------------


def test_multifold_constant_is_one():
    for kind in (BOS, FER):
        assert multifold_integral(kind, BinomialBasis(0), 2, 0, PAdicContext(3, 1)) == 1


def test_multifold_fermionic_example():
    assert multifold_integral(FER, BinomialBasis(1), 2, 0, PAdicContext(3, 1)) == 2


def test_multifold_k1_matches_finite_integral():
    ctx = PAdicContext(3, 2)
    assert multifold_integral(BOS, BinomialBasis(1), 1, 0, ctx) == 4
    for n in range(4):
        assert multifold_integral(FER, BinomialBasis(n), 1, 0, ctx) == finite_integral(
            FER, BinomialBasis(n), ctx
        )


def test_multifold_matches_nested_bruteforce():
    ctx = PAdicContext(3, 1)
    M = 3
    for kind in (BOS, FER):
        for n in (0, 1, 2):
            for x0 in (0, 2):
                total = F(0)
                for y1 in range(M):
                    for y2 in range(M):
                        val = F(comb(y1 + y2 + x0, n))
                        if kind is BOS:
                            total += val
                        else:
                            total += val if (y1 + y2) % 2 == 0 else -val
                want = total / (M * M) if kind is BOS else total
                got = multifold_integral(kind, BinomialBasis(n), 2, x0, ctx)
                assert got == want


def test_folds_hold_reduced_pairs(monkeypatch):
    # The level values declare the pair lane, so every power of them the
    # folds take sums with ``_pair_sum`` and holds reduced integer pairs.
    folds = []

    def recorded(base, k, real=padic._power):
        folds.append(real(base, k))
        return folds[-1]

    monkeypatch.setattr(padic, "_power", recorded)
    for kind in (BOS, FER):
        for k in (1, 2, 3):
            integral(kind, BinomialBasis(6), k, F(1, 2))
            multifold_integral(kind, XPoly((1, 2, 3)), k, 1, PAdicContext(5, 2))
    assert len(folds) == 12
    for fold in folds:
        assert fold.total is padic._pair_sum
        assert all(is_reduced_pair(c) for c in fold)


def test_multifold_fold_count_and_budget():
    ctx = PAdicContext(3, 1)
    for k in (0, -1):
        with pytest.raises(ValueError, match="fold count k must be >= 1"):
            multifold_integral(BOS, BinomialBasis(0), k, 0, ctx)
    for kind in (BOS, FER):
        for f in (BinomialBasis(0), BinomialBasis(3), X2):
            got = multifold_integral(kind, f, 3, 1, ctx)
            assert got == brute_integral(kind, f, 3, 1, ctx), (kind, f)
    with pytest.raises(BudgetExceededError):
        multifold_integral(BOS, BinomialBasis(0), 2, 0, PAdicContext(3, 8))
    # p^(kN) = 3^(10^9) is rejected by its exponent, never built.
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        multifold_integral(BOS, BinomialBasis(0), 10**9, 0, ctx)
    assert time.perf_counter() - start < 0.5


def test_binomial_integrand_sums_one_folded_term(monkeypatch):
    # C(x, n) has one nonzero binomial coordinate, so at k = 1 its value is
    # one sum of n + 1 products.  Filling every folded term below n to read
    # term n would sum about n^2/2 of them.
    n = 200
    sizes = []

    def counted(terms, scale=1):
        terms = list(terms)
        sizes.append(len(terms))
        return pair_sum(terms, scale)

    pair_sum = padic._pair_sum
    monkeypatch.setattr(padic, "_pair_sum", counted)
    ctx = PAdicContext(3, 2)
    for kind in (BOS, FER):
        for x0 in (0, 5, F(1, 2)):
            sizes.clear()
            got = multifold_integral(kind, BinomialBasis(n), 1, x0, ctx)
            assert 0 < len(sizes) <= 2 and sum(sizes) <= 2 * (n + 1), (kind, x0, sizes)
            assert got == brute_integral(kind, BinomialBasis(n), 1, x0, ctx)


@pytest.mark.parametrize(
    "p,N",
    [(3, 10**7), (3, 10**8), (10000000000000061, 1), (1000000000000000003, 1), (4, 10**8)],
)
def test_context_checks_level_before_power_and_primality(p, N):
    # Neither 3^N nor a trial division of a large p runs before the budget
    # rejects the level, whether or not p is prime.
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        PAdicContext(p, N)
    assert time.perf_counter() - start < 0.5


def test_is_odd_prime_matches_divisor_count():
    for p in range(-3, 500):
        divisors = sum(p % d == 0 for d in range(1, p + 1))
        assert is_odd_prime(p) == (divisors == 2 and p != 2), p


def _trial_division(p):
    # The test-side oracle: odd divisors up to sqrt(p).
    return p >= 3 and p % 2 == 1 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))


def test_is_odd_prime_matches_trial_division():
    # The memo is bypassed, so the sweep leaves no 2*10^5 entries behind.
    test = is_odd_prime.__wrapped__
    assert [p for p in range(-3, 200_000) if test(p)] == [
        p for p in range(-3, 200_000) if _trial_division(p)
    ]


def test_is_odd_prime_rejects_strong_pseudoprimes():
    # Strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine
    # primes: Miller-Rabin over fewer bases would call them prime.
    assert 151 * 751 * 28351 == 3215031751
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not is_odd_prime.__wrapped__(3215031751)
    assert not is_odd_prime.__wrapped__(3825123056546413051)


def test_is_odd_prime_large_and_at_the_bound():
    test = is_odd_prime.__wrapped__
    assert test(1000000000000000003) and test(10**12 + 39)
    assert not test(1000000000000000003 * 1000003)
    # At and above the bound the bases no longer decide, so an odd p there
    # is rejected rather than tested by unbounded trial division.
    for p in (padic._MR_BOUND, padic._MR_BOUND + 6):
        with pytest.raises(ValueError, match="p must be below"):
            test(p)
    assert not test(padic._MR_BOUND + 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_fermionic_level_values_are_the_alternating_sums(p):
    # A_j = sum_(y<M) (-1)^y C(y, j) is an integer: each level value is (A_j, 1).
    for N in (1, 2, 3):
        M = p**N
        want = [(sum((-1) ** y * comb(y, j) for y in range(M)), 1) for j in range(40)]
        assert padic._level_values(FER, M, 39) == want, (p, N)


def test_each_p_is_tested_for_primality_once():
    # A trace builds a context for every level and takes a valuation for
    # every row, all for the same p: one primality test serves them all.
    is_odd_prime.cache_clear()
    trace = convergence_trace(BOS, BinomialBasis(2), F(-1, 6), 5, range(1, 4))
    assert len(trace.rows) == 3
    assert is_odd_prime.cache_info().misses == 1


# -- shift identities -----------------------------------------------------------


@pytest.mark.parametrize("N", range(1, 7))
def test_shift_residuals_frozen_values(N):
    ctx = PAdicContext(3, N)
    assert shift_residual(BOS, X, ctx) == 0
    assert shift_residual(BOS, X2, ctx) == 3**N
    assert shift_residual(FER, X, ctx) == 3**N


@pytest.mark.parametrize("N", range(1, 7))
def test_shift_residual_valuations_low_degree(N):
    # vp(residual) >= N for degree <= 2 polynomials with 3-integral
    # coefficients, both kinds, at p = 3.  (A coefficient with vp < 0
    # shifts the residual valuation down by the same amount, so the
    # p-integrality restriction is essential; frozen from an oracle run.)
    ctx = PAdicContext(3, N)
    for f in (poly_one(), X, X2, XPoly((2, -3, 1)), XPoly((F(1, 2), F(5, 7), F(-2, 5)))):
        for kind in (BOS, FER):
            assert vp(shift_residual(kind, f, ctx), 3) >= N


# -- convergence traces ----------------------------------------------------------


def test_bosonic_daehee_trace_rows():
    trace = convergence_trace(BOS, BinomialBasis(1), F(-1, 2), 3, range(1, 4))
    rows = [(row.N, row.approximant, row.residual, row.vp) for row in trace.rows]
    assert rows == [
        (1, F(1), F(3, 2), 1),
        (2, F(4), F(9, 2), 2),
        (3, F(13), F(27, 2), 3),
    ]


def test_fermionic_changhee_trace_rows():
    trace = convergence_trace(FER, BinomialBasis(1), F(-1, 2), 3, (1, 2))
    rows = [(row.N, row.residual, row.vp) for row in trace.rows]
    assert rows == [(1, F(3, 2), 1), (2, F(9, 2), 2)]


@pytest.mark.parametrize("p", [3, 5])
def test_bosonic_daehee_valuation_bound(p):
    # vp(I_0^N(C(.,n)) - D_n/n!) >= N - floor(log_p n) - vp(n+1)
    for n in range(5):
        target = F((-1) ** n, n + 1)
        flog = 0 if n <= 1 else floor(log(n) / log(p))
        for N in range(1, 7):
            approx = finite_integral(BOS, BinomialBasis(n), PAdicContext(p, N))
            bound = N - flog - vp(F(n + 1), p)
            assert vp(approx - target, p) >= bound, (p, n, N)


def test_fermionic_changhee_valuations_strictly_increase():
    # Frozen from an oracle run: residual valuations at p = 3, N = 1..6.
    frozen = {
        0: [math.inf] * 6,  # approximant is exactly Ch_0 at every level
        1: [1, 2, 3, 4, 5, 6],
        2: [1, 2, 3, 4, 5, 6],
        3: [0, 1, 2, 3, 4, 5],
    }
    for n, want in frozen.items():
        target = F(family_oracle(FamilySpec(FamilyKind.CHANGHEE, 1), n)(0), factorial(n))
        got = [
            vp(finite_integral(FER, BinomialBasis(n), PAdicContext(3, N)) - target, 3)
            for N in range(1, 7)
        ]
        assert got == want
        finite = [v for v in got if v != math.inf]
        assert all(a < b for a, b in zip(finite, finite[1:]))


def test_fermionic_changhee_frozen_residuals():
    # Exact residual fractions at n = 1, frozen as regression data.
    want = [F(3, 2), F(9, 2), F(27, 2), F(81, 2), F(243, 2), F(729, 2)]
    got = [
        finite_integral(FER, BinomialBasis(1), PAdicContext(3, N)) + F(1, 2)
        for N in range(1, 7)
    ]
    assert got == want


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("x0", [0, 1, 2])
def test_multifold_consistency_with_family_targets(k, x0):
    # The k-fold approximants approach D_n^(k)(x0)/n! (bosonic) and
    # Ch_n^(k)(x0)/n! (fermionic) with valuation at least N - 1 for
    # n <= 3 at p = 3, N <= 4 (frozen oracle bound).
    for n in range(4):
        d_target = F(
            family_oracle(FamilySpec(FamilyKind.DAEHEE, k), n)(x0), factorial(n)
        )
        ch_target = F(
            family_oracle(FamilySpec(FamilyKind.CHANGHEE, k), n)(x0), factorial(n)
        )
        for N in range(1, 5):
            ctx = PAdicContext(3, N)
            bos = multifold_integral(BOS, BinomialBasis(n), k, x0, ctx)
            fer = multifold_integral(FER, BinomialBasis(n), k, x0, ctx)
            assert vp(bos - d_target, 3) >= N - 1, ("bosonic", k, x0, n, N)
            assert vp(fer - ch_target, 3) >= N - 1, ("fermionic", k, x0, n, N)


# -- exact integrals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "family, kind",
    [
        (FamilyKind.BERNOULLI, BOS),
        (FamilyKind.EULER, FER),
        (FamilyKind.DAEHEE, BOS),
        (FamilyKind.CHANGHEE, FER),
    ],
)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("x0", [0, 1, 5, -2, F(1, 2), F(-2, 3)])
def test_integral_is_the_witt_type_representation(family, kind, k, x0):
    # B_n^(k)(x0) and E_n^(k)(x0) are the k-fold bosonic and fermionic
    # integrals of (x0 + y_1 + ... + y_k)^n, and D_n^(k)(x0)/n! and
    # Ch_n^(k)(x0)/n! those of C(x0 + y_1 + ... + y_k, n).  The oracle
    # builds them from number recurrences, with no integral.
    binomial = family in (FamilyKind.DAEHEE, FamilyKind.CHANGHEE)
    spec = FamilySpec(family, k)
    for n in range(21):
        f, scale = (BinomialBasis(n), factorial(n)) if binomial else (XPoly([0] * n + [1]), 1)
        want = family_oracle(spec, n)(x0) / scale
        assert integral(kind, f, k, x0) == want, n


@pytest.mark.parametrize("k", [0, -1])
def test_integral_rejects_fold_count_below_one(k):
    # ``series._power`` returns its base for k = 0, which would pass the
    # 1-fold integral off as the 0-fold one.
    with pytest.raises(ValueError, match="fold count k must be >= 1"):
        integral(BOS, BinomialBasis(2), k)


# -- brute-force oracle ------------------------------------------------------------
#
# The module evaluates every sum in closed form; this oracle sums the
# definition term by term, nested once per fold, so no test compares a
# closed form with itself.


def _value_at(f, z):
    if isinstance(f, BinomialBasis):
        acc = F(1)
        for i in range(f.n):
            acc = acc * (z - i) / (i + 1)
        return acc
    return f(z)


def brute_integral(kind, f, k, x0, ctx):
    M = ctx.modulus
    total = F(0)
    for ys in itertools.product(range(M), repeat=k):
        s = sum(ys)
        value = _value_at(f, x0 + s)
        total += value if kind is BOS or s % 2 == 0 else -value
    return total / M**k if kind is BOS else total


def brute_shift_residual(kind, f, ctx):
    shifted, plain = (brute_integral(kind, f, 1, x0, ctx) for x0 in (1, 0))
    if kind is BOS:
        return shifted - plain - f.coeff(1)  # f'(0)
    return shifted + plain - 2 * f(0)


ORACLE_POLYS = (
    XPoly(()),
    XPoly((F(7, 3),)),
    XPoly((F(1, 2), F(-5, 7), F(2, 5))),
    XPoly((0, F(3, 4), 0, F(-1, 6))),
    XPoly((F(-2, 9), 1, F(1, 3), 0, F(5, 2), F(-1, 8))),
)
ORACLE_INTEGRANDS = tuple(BinomialBasis(n) for n in range(8)) + ORACLE_POLYS


@pytest.mark.parametrize("p,N", [(3, 1), (3, 2), (5, 1), (7, 1)])
@pytest.mark.parametrize("kind", [BOS, FER])
def test_closed_form_matches_nested_summation(p, N, kind):
    ctx = PAdicContext(p, N)
    for f in ORACLE_INTEGRANDS:
        assert finite_integral(kind, f, ctx) == brute_integral(kind, f, 1, 0, ctx), f
        for k in (1, 2, 3):
            for x0 in (0, 2, -1, F(1, 2)):
                want = brute_integral(kind, f, k, x0, ctx)
                assert multifold_integral(kind, f, k, x0, ctx) == want, (f, k, x0)
    for f in ORACLE_POLYS:
        assert shift_residual(kind, f, ctx) == brute_shift_residual(kind, f, ctx), f


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from([BOS, FER]),
    p=st.sampled_from([3, 5, 7]),
    k=st.sampled_from([1, 2, 3]),
    x0=_fractions,
    coeffs=st.lists(_fractions, max_size=6),
)
def test_closed_form_matches_nested_summation_property(kind, p, k, x0, coeffs):
    ctx = PAdicContext(p, 1)
    f = XPoly(coeffs)
    assert multifold_integral(kind, f, k, x0, ctx) == brute_integral(kind, f, k, x0, ctx)
    assert shift_residual(kind, f, ctx) == brute_shift_residual(kind, f, ctx)


# -- integral kinds ------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["bosonic", "fermionic", None, FamilyKind.DAEHEE])
def test_unknown_kind_rejected_on_every_entry_point(kind):
    # multifold_integral once returned the fermionic value for any kind
    # that was not IntegralKind.BOSONIC, and convergence_trace with it.
    ctx = PAdicContext(3, 1)
    calls = [
        lambda: finite_integral(kind, BinomialBasis(2), ctx),
        lambda: finite_integral(kind, XPoly(()), ctx),
        lambda: shift_residual(kind, X2, ctx),
        lambda: convergence_trace(kind, BinomialBasis(2), 0, 3, (1, 2)),
        lambda: integral(kind, BinomialBasis(2)),
    ]
    calls += [
        lambda k=k: multifold_integral(kind, BinomialBasis(2), k, 0, ctx) for k in (1, 2)
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown integral kind"):
            call()


def test_non_integrand_rejected():
    with pytest.raises(TypeError):
        multifold_integral(BOS, 3, 1, 0, PAdicContext(3, 1))
    with pytest.raises(TypeError):
        integral(BOS, 3)
    with pytest.raises(TypeError):
        shift_residual(BOS, BinomialBasis(1), PAdicContext(3, 1))
