"""Mixed-type families and the identity catalog."""

from fractions import Fraction as F
from math import comb

import pytest

from mixedpoly import families, mixed, series
from mixedpoly.families import (
    FamilyKind,
    FamilySpec,
    falling_factorial,
    family_gf,
    family_numbers,
    family_oracle,
    poly_table,
    stirling1,
    stirling2,
)
from mixedpoly.mixed import (
    IDENTITY_IDS,
    SINGLE_ORDER_IDS,
    MixedKind,
    MixedSpec,
    Variant,
    adjudicate_variant,
    mixed_gf,
    mixed_poly,
    verify_identity,
)
from mixedpoly.series import XPoly

from series_reference import binomial_x, expm1, log1p, poly_x, poly_zero, quotient_kernel


# -- generating functions ------------------------------------------------------


def test_be_first_polynomial():
    gf = mixed_gf(MixedSpec(MixedKind.BE, 1, 1), 1)
    assert gf.poly(1) == XPoly((-1, 1))


def test_cd_equal_orders_collapses_to_binomial_series():
    for r in (1, 2, 3):
        assert mixed_gf(MixedSpec(MixedKind.CD, r, r), 8) == binomial_x(8)


def test_cc_first_polynomial():
    gf = mixed_gf(MixedSpec(MixedKind.CC, 1, 1), 1)
    assert gf.poly(1) == poly_x()


def test_poly_table_takes_a_mixed_spec():
    # Base and mixed families share one generating-function route.
    assert mixed_gf is family_gf
    spec = MixedSpec(MixedKind.DC, 2, 1)
    gf = mixed_gf(spec, 5)
    assert poly_table(spec, 5).rows == tuple((n, gf.poly(n)) for n in range(6))


def test_cd_unequal_orders_collapse_before_extraction():
    # The Cauchy and Daehee kernels are exact inverses, so the product
    # collapses to a pure power of whichever kernel survives.
    T = 8
    ck = quotient_kernel(FamilyKind.CAUCHY, T)
    dk = quotient_kernel(FamilyKind.DAEHEE, T)
    carrier = binomial_x(T)
    assert mixed_gf(MixedSpec(MixedKind.CD, 3, 1), T) == ck**2 * carrier
    assert mixed_gf(MixedSpec(MixedKind.CD, 1, 3), T) == dk**2 * carrier


def test_mixed_poly_examples():
    assert mixed_poly(MixedSpec(MixedKind.DC, 1, 1), 1) == XPoly((-1, 1))
    assert mixed_poly(MixedSpec(MixedKind.BE, 1, 1), 1) == XPoly((-1, 1))
    for n in range(8):
        assert mixed_poly(MixedSpec(MixedKind.CD, 3, 3), n) == falling_factorial(n)


def test_mixed_spec_requires_positive_orders():
    with pytest.raises(ValueError):
        MixedSpec(MixedKind.BE, 0, 1)


@pytest.mark.parametrize("kind", list(MixedKind))
def test_gf_convolution_agreement(kind):
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            spec = MixedSpec(kind, r, s)
            gf = mixed_gf(spec, 12)
            for n in range(13):
                assert gf.poly(n) == mixed_poly(spec, n), (kind, r, s, n)


# -- identity catalog -----------------------------------------------------------


def test_identity_e11_worked_example():
    reports = verify_identity("E11", 2, orders=(1,))
    by_n = {rep.instance.n: rep for rep in reports}
    rep = by_n[2]
    want = XPoly((F(2, 3), -2, 1))
    assert rep.passed
    assert rep.lhs == want
    assert rep.rhs == want
    # hand recomputation: B1(x) S1(2,1) + B2(x) S1(2,2)
    b1 = family_oracle(FamilySpec(FamilyKind.BERNOULLI, 1), 1)
    b2 = family_oracle(FamilySpec(FamilyKind.BERNOULLI, 1), 2)
    assert b1 * stirling1(2, 1) + b2 * stirling1(2, 2) == want


def test_identity_e17_worked_example():
    reports = verify_identity("E17", 1, orders=(1,))
    rep = [r for r in reports if r.instance.n == 1][0]
    assert rep.passed
    assert rep.lhs == poly_x()


def test_identity_e31_equal_orders():
    for rep in verify_identity("E31", 6, orders=(2,)):
        assert rep.passed
        assert rep.lhs == falling_factorial(rep.instance.n)


@pytest.mark.parametrize("ident", IDENTITY_IDS)
def test_catalog_corrected_passes(ident):
    reports = verify_identity(ident, 8, orders=(1, 2), variant=Variant.CORRECTED)
    assert reports
    assert all(rep.passed for rep in reports)


def test_e34_variant_adjudication():
    # Computed adjudication: exactly one reading survives.
    as_printed = verify_identity("E34", 8, orders=(1, 2), variant=Variant.AS_PRINTED)
    corrected = verify_identity("E34", 8, orders=(1, 2), variant=Variant.CORRECTED)
    assert all(rep.passed for rep in corrected)
    assert any(not rep.passed for rep in as_printed)
    assert adjudicate_variant("E34") is Variant.CORRECTED


def test_e28_variant_adjudication():
    as_printed = verify_identity("E28", 8, orders=(1, 2), variant=Variant.AS_PRINTED)
    # as-printed and corrected coincide when r == s, so restrict to r != s
    mixed_orders = [rep for rep in as_printed if rep.instance.r != rep.instance.s]
    assert any(not rep.passed for rep in mixed_orders)
    assert adjudicate_variant("E28") is Variant.CORRECTED


def test_e40_variant_adjudication():
    as_printed = verify_identity("E40", 8, orders=(1, 2), variant=Variant.AS_PRINTED)
    assert any(not rep.passed for rep in as_printed)
    assert adjudicate_variant("E40") is Variant.CORRECTED


def test_e40_stirling_factor_expansion():
    # [t^l] l! of ((e^t - 1)/t)^r equals S2(l+r, r) / C(l+r, r); the
    # printed reading S2(l+r, l) disagrees already at r=1, l=2.
    for r in (1, 2, 3):
        f = expm1(11 + r).shift_down() ** r
        for l in range(11):
            want = F(stirling2(l + r, r), comb(l + r, r))
            assert f.poly(l).coeff(0) == want
    assert F(stirling2(3, 2), comb(3, 1)) != F(stirling2(3, 1), comb(3, 1))


def test_e24_lhs_matches_e28_rhs_and_e21_route():
    # The D/Ch convolution appearing as E24's left side is the same sum as
    # E28's corrected right side; independently, E24 follows from E21 by an
    # S1 transform of BE values computed through the oracle convolution.
    for r in (1, 2):
        for s in (1, 2):
            for n in range(9):
                ch = family_numbers(FamilySpec(FamilyKind.CHANGHEE, s), n)
                conv = poly_zero()
                for m in range(n + 1):
                    conv = conv + family_oracle(FamilySpec(FamilyKind.DAEHEE, r), m) * (
                        comb(n, m) * ch[n - m]
                    )
                be_oracle = [
                    mixed_poly(MixedSpec(MixedKind.BE, r, s), m) for m in range(n + 1)
                ]
                s1_sum = poly_zero()
                for m in range(n + 1):
                    s1_sum = s1_sum + be_oracle[m] * stirling1(n, m)
                assert conv == s1_sum


def test_substitution_coherence():
    # Substituting t -> log(1+t) into the BE series yields the DC series,
    # and t -> e^t - 1 into the DC series yields the BE series, exactly.
    T = 10
    for r in (1, 2):
        for s in (1, 2):
            be = mixed_gf(MixedSpec(MixedKind.BE, r, s), T)
            dc = mixed_gf(MixedSpec(MixedKind.DC, r, s), T)
            assert be.compose(log1p(T)) == dc
            assert dc.compose(expm1(T)) == be


def test_substitution_double_sums():
    # Extracting the substituted BE series through the S1 double sum
    # reproduces the D/Ch convolution (E24's two sides).
    T = 8
    r = s = 2
    be = mixed_gf(MixedSpec(MixedKind.BE, r, s), T)
    substituted = be.compose(log1p(T))
    for n in range(T + 1):
        s1_sum = poly_zero()
        for m in range(n + 1):
            s1_sum = s1_sum + be.poly(m) * stirling1(n, m)
        assert substituted.poly(n) == s1_sum
    dc = mixed_gf(MixedSpec(MixedKind.DC, r, s), T)
    substituted_back = dc.compose(expm1(T))
    for n in range(T + 1):
        s2_sum = poly_zero()
        for m in range(n + 1):
            s2_sum = s2_sum + dc.poly(m) * stirling2(n, m)
        assert substituted_back.poly(n) == s2_sum


def test_single_order_ids_report_zero_s():
    for ident in SINGLE_ORDER_IDS:
        reports = verify_identity(ident, 2, orders=(1, 2))
        assert {rep.instance.s for rep in reports} == {0}


@pytest.mark.parametrize(
    "ident, orders, variant",
    [
        ("E34", (1, 2), Variant.AS_PRINTED),
        ("E28", (1, 2), Variant.AS_PRINTED),  # fails where r != s
        ("E40", (1, 2), Variant.CORRECTED),
    ],
)
def test_report_diff_is_rhs_minus_lhs(ident, orders, variant):
    # A passing instance carries the zero polynomial, a failing one the
    # difference of its first failing claim's sides.
    reports = verify_identity(ident, 6, orders, variant)
    assert any(rep.passed for rep in reports)
    if variant is Variant.AS_PRINTED:
        assert not all(rep.passed for rep in reports)
    for rep in reports:
        assert rep.diff == rep.rhs - rep.lhs
        assert rep.passed == rep.diff.is_zero
    if ident == "E28":
        failed = {(rep.instance.r, rep.instance.s) for rep in reports if not rep.passed}
        assert failed and all(r != s for r, s in failed)


@pytest.mark.parametrize("first_fails", [False, True], ids=["second-fails", "both-fail"])
def test_failing_instance_reports_its_first_failing_claim(monkeypatch, first_fails):
    # E17 has two claims; a failing instance reports the sides and the
    # difference of the first claim that fails, whichever others fail too.
    one, two, three_x = XPoly((1,)), XPoly((2,)), XPoly((0, 3))
    first = (one, two) if first_fails else (one, one)
    second = (two, three_x)
    monkeypatch.setitem(mixed._CATALOG, "E17", lambda n, r, s, corrected: [first, second])
    (rep,) = verify_identity("E17", 0, (1,))
    lhs, rhs = first if first_fails else second
    assert not rep.passed
    assert (rep.lhs, rep.rhs, rep.diff) == (lhs, rhs, rhs - lhs)


def test_repeated_verification_calls_no_claim(monkeypatch):
    # A repeated verification is answered from the report memo: equal
    # reports, and no claim called again.  A shorter grid shares its
    # instances, and a longer one computes only its new n.
    calls = []
    claims_of = mixed._CATALOG["E24"]

    def counted(*args):
        calls.append(args)
        return claims_of(*args)

    monkeypatch.setitem(mixed._CATALOG, "E24", counted)
    first = verify_identity("E24", 4, (1, 2))
    assert len(calls) == len(first) == 20
    assert verify_identity("E24", 4, (1, 2)) == first
    assert len(calls) == 20
    assert verify_identity("E24", 2, (1, 2)) == [rep for rep in first if rep.instance.n <= 2]
    assert len(calls) == 20
    verify_identity("E24", 5, (1, 2))
    assert sorted(calls[20:]) == [(5, r, s, True) for r in (1, 2) for s in (1, 2)]
    assert 0 < mixed._report.cache_info().maxsize < float("inf")


def test_passing_report_keeps_one_side():
    # A passing report's rhs equals its lhs, so it holds lhs for both.
    reports = verify_identity("E24", 3, (1, 2))
    assert all(rep.passed and rep.rhs is rep.lhs for rep in reports)


def test_unknown_identity_id():
    with pytest.raises(KeyError):
        verify_identity("E99", 2)


@pytest.mark.parametrize("n_max,orders", [(-1, (1, 2)), (4, ())])
def test_empty_instance_grid_is_rejected(n_max, orders):
    with pytest.raises(ValueError):
        verify_identity("E11", n_max, orders)
    with pytest.raises(ValueError):
        adjudicate_variant("E34", n_max, orders)


def _clear_memos():
    for module in (families, mixed):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _catalog_sides(n_max, corrected):
    """Every claim of every identity over a small grid, keyed by instance."""
    sides = {}
    for ident in IDENTITY_IDS:
        pairs = ((1, 0), (2, 0)) if ident in SINGLE_ORDER_IDS else ((1, 2), (2, 1))
        for r, s in pairs:
            for n in range(n_max + 1):
                claims = mixed._CATALOG[ident](n, r, s, corrected)
                for k, claim in enumerate(claims):
                    sides[ident, n, r, s, k] = claim
    return sides


@pytest.mark.parametrize("corrected", [True, False])
def test_catalog_sides_take_independent_routes(monkeypatch, corrected):
    # Scaling the kernel powers and the GF route's Stirling numbers (the
    # coefficients of ``_falling_stream``) moves every GF row; scaling the
    # order-1 numbers moves every oracle value.  Each must move exactly one
    # side of each claim: a claim with the same route on both sides would
    # move twice.
    # Scaling the falling factorial moves the oracle basis of the (1+t)^x
    # families and E17's left side, but must not move the GF carrier, so it
    # moves exactly one side of the claims that read either, and never two.
    n_max = 5
    _clear_memos()
    base = _catalog_sides(n_max, corrected)
    kernel, stirling, numbers = (
        families._kernel_power, families._falling_stream, families._order1_stream
    )
    falling = series.falling_factorial

    def doubled_kernel(kind, order):
        power = kernel(kind, order)  # terms are integer pairs (p, q) for p/q
        return series._Stream(lambda n: (2 * power.fill(n)[n][0], power[n][1]))

    def doubled_stirling(shift=0):
        steps = stirling(shift)  # terms are tuples of integer coefficients
        return series._Stream(lambda m: tuple(2 * c for c in steps.fill(m)[m]))

    def tripled_numbers(kind):
        nums = numbers(kind)  # terms are integer pairs (p, q) for p/q
        return series._Stream(lambda n: (3 * nums.fill(n)[n][0], nums[n][1]))

    def quintupled_falling(n):
        return falling(n) * 5

    # route -> (patches, ids each of whose claims must move; None for all)
    perturbations = {
        "gf": (
            [
                (families, "_kernel_power", doubled_kernel),
                (families, "_falling_stream", doubled_stirling),
            ],
            None,
        ),
        "oracle": ([(families, "_order1_stream", tripled_numbers)], None),
        "falling": (
            [(module, "falling_factorial", quintupled_falling) for module in (series, families, mixed)],
            {"E17", "E24", "E28", "E31", "E37"},
        ),
    }
    try:
        for route, (patches, must_move) in perturbations.items():
            with monkeypatch.context() as patch:
                for module, name, value in patches:
                    patch.setattr(module, name, value)
                _clear_memos()
                moved = _catalog_sides(n_max, corrected)
            for key, (lhs, rhs) in base.items():
                changed = (moved[key][0] != lhs, moved[key][1] != rhs)
                assert changed != (True, True), (route, key)
                if must_move is not None and key[0] not in must_move:
                    continue
                if not (lhs and rhs):
                    # A zero side (E40 as printed, n = 0) cannot move under scaling.
                    continue
                assert sum(changed) == 1, (route, key, changed)
    finally:
        _clear_memos()
