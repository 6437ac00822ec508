"""Truncated series that the tests compare the package's streams against.

Each is built from its closed-form coefficients as a ``TSeries``, and the
order-1 kernels as truncated series quotients of them, so they share no
code with the kernel-power and row streams of ``families`` or with the
expression language's stream rules.  The small ``XPoly`` and ``TSeries``
constructors that only the tests use live here too.
"""

from fractions import Fraction
from math import factorial

from mixedpoly.families import FamilyKind
from mixedpoly.series import TSeries, XPoly


def poly_const(value) -> XPoly:
    return XPoly((value,))


def poly_zero() -> XPoly:
    return XPoly()


def poly_one() -> XPoly:
    return XPoly((1,))


def poly_x() -> XPoly:
    return XPoly((0, 1))


def degree(p: XPoly) -> int:
    """Degree of a polynomial; -1 for the zero polynomial."""
    return len(p.coeffs) - 1


def series_zero(trunc: int) -> TSeries:
    return TSeries(trunc, ())


def series_t(trunc: int) -> TSeries:
    """The series t itself (zero at truncation 0)."""
    return TSeries(trunc, (0, 1) if trunc else ())


def log1p(trunc: int) -> TSeries:
    """log(1+t) = sum_{n>=1} (-1)^(n+1) t^n / n."""
    return TSeries(trunc, [0] + [Fraction((-1) ** (n + 1), n) for n in range(1, trunc + 1)])


def expm1(trunc: int) -> TSeries:
    """e^t - 1 = sum_{n>=1} t^n / n!."""
    return TSeries(trunc, [0] + [Fraction(1, factorial(n)) for n in range(1, trunc + 1)])


def exp_xt(trunc: int) -> TSeries:
    """e^(x t): the coefficient of t^n is x^n / n!."""
    return TSeries(trunc, [XPoly([0] * n + [Fraction(1, factorial(n))]) for n in range(trunc + 1)])


def binomial_x(trunc: int) -> TSeries:
    """(1+t)^x: the coefficient of t^n is C(x, n), stepped as C(x, n-1) (x - n + 1) / n.

    The step reads no Stirling row and no falling-factorial stream.
    """
    coeffs = [poly_one()]
    for n in range(1, trunc + 1):
        coeffs.append(coeffs[-1] * XPoly((Fraction(1 - n, n), Fraction(1, n))))
    return TSeries(trunc, coeffs)


def geom2(trunc: int) -> TSeries:
    """2/(2+t) = sum_n (-1/2)^n t^n."""
    return TSeries(trunc, [Fraction(-1, 2) ** n for n in range(trunc + 1)])


def quotient_kernel(kind: FamilyKind, trunc: int) -> TSeries:
    """The order-1 kernel of ``kind`` as a truncated series quotient.

    The kernels with a bare t are built one order higher and shifted down,
    never divided by t, which is not a unit of the ring.
    """
    if kind is FamilyKind.DAEHEE:
        return log1p(trunc + 1).shift_down()
    if kind is FamilyKind.CAUCHY:
        return TSeries.constant(1, trunc) / log1p(trunc + 1).shift_down()
    if kind is FamilyKind.CHANGHEE:
        return geom2(trunc)
    if kind is FamilyKind.BERNOULLI:
        return TSeries.constant(1, trunc) / expm1(trunc + 1).shift_down()
    return TSeries.constant(2, trunc) / (expm1(trunc) + 2)
