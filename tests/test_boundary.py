"""The series ring's boundary, as read from outside the package.

The CLI prints ``XPoly.coeffs`` as rationals, and the perfbench tracer wraps
``XPoly.__mul__`` through the class dict and reads the bit sizes of the
coefficients it returns.
"""

from fractions import Fraction

from mixedpoly.families import FamilyKind, FamilySpec, family_gf
from mixedpoly.series import TSeries, XPoly


def test_xpoly_mul_is_defined_on_the_class():
    assert "__mul__" in XPoly.__dict__
    assert XPoly.__dict__["__mul__"](XPoly.x(), XPoly.x()) == XPoly((0, 0, 1))


def test_coeffs_are_fractions_and_xpolys():
    gf = family_gf(FamilySpec(FamilyKind.CAUCHY, 2), 5)
    assert isinstance(gf, TSeries)
    assert type(gf.coeffs) is tuple and len(gf.coeffs) == 6
    assert all(type(c) is XPoly for c in gf.coeffs)
    for p in gf.coeffs:
        assert type(p.coeffs) is tuple
        assert all(type(c) is Fraction for c in p.coeffs)
    assert gf.poly(2).coeffs == (Fraction(1, 6), Fraction(1), Fraction(1))
    assert XPoly.zero().coeffs == ()
