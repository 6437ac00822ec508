"""Truncated series that the tests compare the package's streams against.

Each is built from its closed-form coefficients as a ``TSeries``, and the
order-1 kernels as truncated series quotients of them, so they share no
code with the kernel-power and row streams of ``families``.  ``TSeries``
``*``, ``/`` and ``**`` run the stream rules of ``series`` (``_product``,
``_quotient``, ``_power``), as the expression language does, so those
operators are checked against the dense kernels here: a schoolbook
convolution, forward substitution and repeated products over plain lists
of ``Fraction`` values (``dense_product``, ``dense_quotient``,
``dense_power``), which share no code with the rules.  The small ``XPoly``
and ``TSeries`` constructors that only the tests use live here too, and so
does the dense row sum of the (1+t)^x families (``dense_rows``), the slow
oracle of their short row rules.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from mixedpoly.families import FamilyKind
from mixedpoly.series import TSeries, XPoly


def is_reduced_pair(c) -> bool:
    """True for a pair lane term: integers (p, q) with q > 0 and gcd(p, q) = 1."""
    return type(c) is tuple and all(type(i) is int for i in c) and c[1] > 0 and gcd(*c) == 1


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


@lru_cache(maxsize=None)
def falling_coefficients(m: int) -> tuple[int, ...]:
    """Integer coefficients of (x)_m, ascending, multiplied out one factor (x - i) at a time."""
    coeffs = [1]
    for i in range(m):
        coeffs = [a - i * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def dense_rows(factors, n_max: int) -> tuple[XPoly, ...]:
    """P_0(x)..P_(n_max)(x) of a (1+t)^x family by the dense row sum.

    P_n = n! sum_m K_(n-m) (x)_m / m! for K the product of the quotient
    kernels: n + 1 terms of up to n + 1 coefficients a row, ~n^2/2
    multiply-adds, summed over one common denominator before the single
    factor n!.
    """
    product = TSeries.constant(1, n_max)
    for kind, power in factors:
        product = product * quotient_kernel(kind, n_max) ** power
    kernel = [product.coeff(n).coeff(0) for n in range(n_max + 1)]
    rows = []
    for n in range(n_max + 1):
        terms = [
            (k.numerator, k.denominator * factorial(m), falling_coefficients(m))
            for m, k in enumerate(reversed(kernel[: n + 1]))
            if k
        ]
        den = lcm(*(q for _, q, _ in terms))
        num = [0] * (n + 1)
        for p, q, coeffs in terms:
            for i, c in enumerate(coeffs):
                num[i] += p * (den // q) * c
        rows.append(XPoly([Fraction(c * factorial(n), den) for c in num]))
    return tuple(rows)


# A dense series is a list of T + 1 polynomials in x, one per power of t,
# each a list of its Fraction coefficients, ascending, with no trailing zero.


def dense(series: TSeries) -> list[list[Fraction]]:
    """A ``TSeries`` as a dense series."""
    return [list(c.coeffs) for c in series.coeffs]


def _add_product(acc: list, p: list, q: list, weight=1) -> None:
    """acc += weight p q for polynomials as coefficient lists, in place."""
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            acc.extend([Fraction(0)] * (i + j + 1 - len(acc)))
            acc[i + j] += weight * a * b


def _trimmed(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def dense_product(f: list, g: list) -> list:
    """h_n = sum_(k=0..n) f_k g_(n-k) for two dense series of one length."""
    out = []
    for n in range(len(f)):
        acc = []
        for k in range(n + 1):
            _add_product(acc, f[k], g[n - k])
        out.append(_trimmed(acc))
    return out


def dense_quotient(f: list, g: list) -> list:
    """q = f / g by forward substitution, for g_0 a nonzero rational.

    q_n = (f_n - sum_(k=1..n) g_k q_(n-k)) / g_0.
    """
    (g0,) = g[0]
    out = []
    for n in range(len(f)):
        acc = list(f[n])
        for k in range(1, n + 1):
            _add_product(acc, g[k], out[n - k], -1)
        out.append(_trimmed([c / g0 for c in acc]))
    return out


def dense_power(f: list, k: int) -> list:
    """f^k by |k| repeated products from 1; a negative k takes 1/f first."""
    one = [[Fraction(1)]] + [[] for _ in f[1:]]
    base = f if k >= 0 else dense_quotient(one, f)
    out = one
    for _ in range(abs(k)):
        out = dense_product(out, base)
    return out
