"""The five base polynomial families, one generating-function route for
base and mixed families, and the GF-free oracles.

Each family is defined by a generating function of the form

    kernel_1(t)^r_1 * ... * kernel_k(t)^r_k * carrier(t, x)

where the carrier is that of the first kernel: e^(x t) for Bernoulli and
Euler and (1+t)^x for Daehee, Changhee, and Cauchy.  A base family has one
kernel and a mixed family two; a spec lists them as its ``factors``, pairs
(kind, power).  The order-1 kernels are

    Bernoulli   t / (e^t - 1)   = ((e^t - 1)/t)^-1
    Euler       2 / (e^t + 1)   = ((e^t + 1)/2)^-1
    Daehee      log(1+t) / t
    Changhee    2 / (t + 2)     = (1 + t/2)^-1
    Cauchy      t / log(1+t)    = (log(1+t)/t)^-1

so each kernel power is a base series with constant term 1, read from its
closed form, raised to an integer power by J.C.P. Miller's recurrence: no
series quotient and no division by t.  The rows P_n(x) are read from the
kernel powers and the carrier's coefficients, one growing stream per
``factors`` (``_row_stream``, the only memo of the rows), so a longer table
extends the rows already computed.  ``gf_rows``, ``family_poly``,
``family_gf`` and the identity catalog read those streams;
``family_oracle`` recomputes the base polynomials through a completely
different route (number recurrences, their terms reduced integer pairs, plus
binomial convolution), one memo per spec (``_oracle_memo``, the only memo
of the oracle polynomials), so agreement between the two is a genuine
cross-check rather than a tautology.  The p-adic target
P_n(x0)/n! is summed from the numbers, with no polynomial in x.

Stirling numbers of both kinds are exported here too (their rows, and the
falling factorial read from them, live in ``series``); they are the
change-of-basis data used throughout the identity catalog.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import add, sub
from .series import (
    _ONE_PAIR,
    TSeries,
    XPoly,
    _pair_sum,
    _product,
    _Record,
    _set,
    _Stream,
    _stirling_row,
    _sum_of_products,
    falling_factorial,
)

__all__ = [
    "FamilyKind",
    "FamilySpec",
    "PolyTable",
    "falling_factorial",
    "family_gf",
    "family_numbers",
    "family_oracle",
    "family_poly",
    "gf_rows",
    "poly_table",
    "stirling1",
    "stirling2",
]


class FamilyKind(Enum):
    BERNOULLI = "B"
    EULER = "E"
    DAEHEE = "D"
    CHANGHEE = "Ch"
    CAUCHY = "C"


# Families whose carrier is e^(x t); the rest use (1+t)^x.
_EXP_CARRIER = frozenset({FamilyKind.BERNOULLI, FamilyKind.EULER})


class FamilySpec(_Record):
    """A family selector: which kind, at which order.

    Order 0 is admitted and yields the bare carrier (empty kernel product);
    it is useful as a trivial test anchor even though the classical
    definitions start at order 1.
    """

    __slots__ = ("kind", "order")
    kind: FamilyKind
    order: int

    def __init__(self, kind, order):
        _set(self, "kind", kind)
        _set(self, "order", order)
        if order < 0:
            raise ValueError("family order must be >= 0")

    @property
    def factors(self) -> tuple[tuple[FamilyKind, int], ...]:
        """(kernel, power) pairs of the generating function."""
        return ((self.kind, self.order),)


class PolyTable(_Record):
    """Rows (n, P_n(x)) for n = 0..n_max, in order."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, XPoly], ...]

    def __init__(self, rows):
        _set(self, "rows", rows)


def stirling1(n: int, m: int) -> int:
    """Signed Stirling number of the first kind.

    Defined by (x)_n = sum_m S1(n, m) x^m, computed by the recurrence
    S1(n+1, m) = S1(n, m-1) - n * S1(n, m) with S1(0, 0) = 1.
    Out-of-triangle arguments return 0.
    """
    if n < 0 or not 0 <= m <= n:
        return 0
    return _stirling_row(True, n)[m]


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind.

    Defined by (e^t - 1)^m / m! = sum_{n>=m} S2(n, m) t^n / n!, computed by
    S2(n+1, m) = m * S2(n, m) + S2(n, m-1).  Out-of-triangle arguments
    return 0.
    """
    if n < 0 or not 0 <= m <= n:
        return 0
    return _stirling_row(False, n)[m]


# Each order-1 kernel is a base series with constant term 1 raised to +1 or
# -1: (base, sign) by kind.  The bases' coefficients are closed forms, and
# every coefficient on this side is a reduced integer pair (p, q) for p/q.
_KERNELS = {
    FamilyKind.DAEHEE: ("log(1+t)/t", 1),
    FamilyKind.CAUCHY: ("log(1+t)/t", -1),
    FamilyKind.BERNOULLI: ("(e^t-1)/t", -1),
    FamilyKind.CHANGHEE: ("1+t/2", -1),
    FamilyKind.EULER: ("(e^t+1)/2", -1),
}
_BASES = {
    "log(1+t)/t": lambda n: ((-1) ** n, n + 1),
    "(e^t-1)/t": lambda n: (1, factorial(n + 1)),
    "1+t/2": lambda n: (1, 2**n) if n < 2 else (0, 1),
    "(e^t+1)/2": lambda n: (1, 2 * factorial(n)) if n else (1, 1),
}


@lru_cache(maxsize=None)
def _base_stream(base: str) -> _Stream:
    """Coefficients of a kernel base, from its closed form, each computed once."""
    return _Stream(_BASES[base])


@lru_cache(maxsize=None)
def _kernel_power(kind: FamilyKind, order: int) -> _Stream:
    """Coefficients of kernel^order: base^k for k = +-order, by J.C.P. Miller's recurrence.

    With a_0 = 1, b = a^k has b_0 = 1 and
    b_n = (1/n) sum_{j=1..n} ((k+1) j - n) a_j b_(n-j)   (Knuth, TAOCP 2, 4.7),
    O(n) terms each for any integer k, negative and zero included, so no
    series quotient and no division by t is needed.
    """
    base, sign = _KERNELS[kind]
    a, k = _base_stream(base), sign * order
    b = _Stream(
        lambda n: _pair_sum([((k + 1) * j - n, a[j], b[n - j]) for j in range(1, n + 1)], n)
    )
    b[0] = (1, 1)
    return b


@lru_cache(maxsize=None)
def _row_stream(factors) -> _Stream:
    """P_0(x), P_1(x), ... of the generating function of ``factors``, each computed once.

    With K the product of the kernel powers, P_n = n! sum_m K_(n-m) c_m(x)
    for the carrier's coefficients c_m: x^m / m! for e^(x t), read directly
    as [x^m] P_n = (n!/m!) K_(n-m), and (x)_m / m! for (1+t)^x, summed over
    one common denominator before the single factor n!.
    """
    (kind, power), *mixed = factors
    kernel = _kernel_power(kind, power)
    if mixed:  # the product of the two kernel powers
        kernel = _product(kernel, _kernel_power(*mixed[0]), _pair_sum)
    if kind in _EXP_CARRIER:
        def rule(n):
            ks = [kernel[n - m] for m in range(n + 1)]
            den = lcm(*(q for _, q in ks))
            num, weight = [], factorial(n)  # weight = n!/m!
            for m, (p, q) in enumerate(ks):
                num.append(weight * p * (den // q))
                weight //= m + 1
            return XPoly._normalized(num, den)
    else:
        falling = _falling_stream()

        def rule(n):
            terms = []
            for m in range(n + 1):
                p, q = kernel[n - m]
                if p:
                    fact, coeffs = falling[m]
                    terms.append((p, q * fact, coeffs))
            den = lcm(*(q for _, q, _ in terms))
            num = [0] * (n + 1)
            for p, q, coeffs in terms:
                num[: len(coeffs)] = map(add, num, map((p * (den // q)).__mul__, coeffs))
            scale = factorial(n)
            return XPoly._normalized([c * scale for c in num], den)
    return _Stream(rule)


@lru_cache(maxsize=None)
def _falling_stream() -> _Stream:
    """(m!, integer coefficients of (x)_m), stepped as (x)_m = (x)_(m-1) (x - m + 1)."""
    def rule(m):
        fact, prev = steps[m - 1]
        return fact * m, tuple(map(sub, (0,) + prev, map((m - 1).__mul__, prev + (0,))))

    steps = _Stream(rule)
    steps[0] = (1, (1,))
    return steps


def family_gf(spec, trunc: int) -> TSeries:
    """Exact truncated generating function of a ``FamilySpec`` or ``MixedSpec``."""
    rows = _row_stream(spec.factors)
    return TSeries(trunc, [rows[n] * Fraction(1, factorial(n)) for n in range(trunc + 1)])


def gf_rows(factors, n_max: int) -> tuple[XPoly, ...]:
    """P_0(x)..P_{n_max}(x) of the generating function of ``factors``, read from its row stream."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = _row_stream(factors)
    return tuple(map(rows.__getitem__, range(n_max + 1)))


def family_poly(spec, n: int) -> XPoly:
    """P_n(x) of the generating function (n! times [t^n]), read from its row stream."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _row_stream(spec.factors)[n]


@lru_cache(maxsize=None)
def _order1_stream(kind: FamilyKind) -> _Stream:
    """Order-1 numbers P_0, P_1, ... at x = 0, GF-free, as reduced pairs (p, q), each computed once.

    Bernoulli and Euler come from their classical linear recurrences over
    the terms so far (``nums.items()`` is P_0..P_(n-1) while term n is
    computed), Daehee and Changhee from closed forms, Cauchy from exact
    term-wise integration of the falling factorial over [0, 1]:
    C_n = sum_m S1(n, m) / (m + 1).
    """
    if kind is FamilyKind.BERNOULLI:
        def rule(n):  # sum_{k<=n} C(n+1, k) B_k = 0 for n >= 1
            return _pair_sum([(-comb(n + 1, k), b, _ONE_PAIR) for k, b in nums.items()], n + 1)
    elif kind is FamilyKind.EULER:
        def rule(n):  # E_n + sum_{k<=n} C(n, k) E_k = 0 for n >= 1
            return _pair_sum([(-comb(n, k), e, _ONE_PAIR) for k, e in nums.items()], 2)
    elif kind in (FamilyKind.DAEHEE, FamilyKind.CHANGHEE):
        signed = 1  # (-1)^n n!, carried up from the term below

        def rule(n):  # (-1)^n n! / (n + 1) and (-1)^n n! / 2^n, reduced
            nonlocal signed
            if n:
                signed *= -n
            den = n + 1 if kind is FamilyKind.DAEHEE else 2**n
            g = gcd(signed, den)
            return signed // g, den // g
    elif kind is FamilyKind.CAUCHY:
        def rule(n):
            row = enumerate(_stirling_row(True, n))
            return _pair_sum([(s, (1, m + 1), _ONE_PAIR) for m, s in row])
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    nums = _Stream(rule)
    if kind in _EXP_CARRIER:
        nums[0] = _ONE_PAIR
    return nums


def _binomial_pairs(n: int, a, b, scale: int = 1) -> tuple[int, int]:
    """(1/scale) sum_m C(n,m) a_m b_(n-m) over m = 0..n, for pair sequences, as a reduced pair.

    C(n, m) is stepped along the row, one multiply and one exact division a term.
    """
    terms, c = [], 1
    for m in range(n + 1):
        terms.append((c, a[m], b[n - m]))
        c = c * (n - m) // (m + 1)
    return _pair_sum(terms, scale)


def _conv(n: int, poly_at, nums) -> XPoly:
    """Binomial convolution sum_m C(n,m) poly_at(m) nums[n-m] over m = 0..n, for pairs nums."""
    terms = ((poly_at(m), comb(n, m), c) for m in range(n + 1) if (c := nums[n - m])[0])
    return _sum_of_products(terms)


@lru_cache(maxsize=None)
def _numbers_stream(spec: FamilySpec) -> _Stream:
    """Order-r numbers: 1, 0, 0, ... at order 0, then order r-1 convolved with order 1."""
    if spec.order == 0:
        return _Stream(lambda n: (int(n == 0), 1))
    base = _order1_stream(spec.kind)
    if spec.order == 1:
        return base
    # Order r-1 is looked up per term, so building a stream never recurses.
    lower = FamilySpec(spec.kind, spec.order - 1)
    return _Stream(lambda n: _binomial_pairs(n, _numbers_stream(lower), base))


def _numbers(spec: FamilySpec, n: int) -> _Stream:
    """The pair stream of ``spec``'s numbers, filled to n: orders 1..r in turn, lowest first."""
    nums = _numbers_stream(spec)
    if n not in nums:
        for order in range(1, spec.order + 1):
            _numbers_stream(FamilySpec(spec.kind, order))[n]
    return nums


def family_numbers(spec: FamilySpec, n_max: int) -> tuple[Fraction, ...]:
    """Order-r numbers P_0^(r)..P_{n_max}^(r), by (r-1)-fold binomial convolution."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    nums = _numbers(spec, n_max)
    return tuple(Fraction(*nums[n]) for n in range(n_max + 1))


@lru_cache(maxsize=None)
def _monomial(m: int) -> XPoly:
    return XPoly._normalized([0] * m + [1], 1)


@lru_cache(maxsize=None)
def _oracle_memo(spec: FamilySpec):
    """n -> P_n^(r)(x) through the GF-free route, each computed once; the only oracle memo.

    The numbers are read as pairs from their streams; each polynomial is
    rebuilt from them in the basis matching the carrier:

        e^(x t) carrier:   P_n(x) = sum_m C(n, m) x^m P_(n-m)
        (1+t)^x carrier:   P_n(x) = sum_m C(n, m) (x)_m P_(n-m)

    x^m and (x)_m are memoized.  A polynomial reads no polynomial below it,
    so a read computes its own term only, and a caller that binds the memo
    once reads each term by n, with no spec hashed per term.
    """
    basis = _monomial if spec.kind in _EXP_CARRIER else falling_factorial
    return lru_cache(maxsize=None)(lambda n: _conv(n, basis, _numbers(spec, n)))


def family_oracle(spec: FamilySpec, n: int) -> XPoly:
    """P_n^(r)(x) through the GF-free route, read from the oracle memo of ``spec``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _oracle_memo(spec)(n)


def _oracle_value(spec: FamilySpec, n: int, x0) -> tuple[int, int]:
    """P_n^(r)(x0) / n! as a pair, from the numbers alone: no polynomial in x is built.

    The sum is that of ``family_oracle`` at x0 = a/b (an integer or a
    ``Fraction``), over n!: x0^m is the pair (a^m, b^m) and the falling
    factorial (x0)_m is (a (a - b) ... (a - (m-1) b), b^m).  C(n, m) is
    stepped along the row, and the sum stops at the first zero factor,
    which every later one holds too: at x0 = 0 only m = 0 is read.
    """
    a, b = x0.numerator, x0.denominator
    step = 0 if spec.kind in _EXP_CARRIER else b
    nums = _numbers(spec, n)
    terms, c, top, den = [], 1, 1, 1  # c = C(n, m); top/den is x0^m or (x0)_m
    for m in range(n + 1):
        terms.append((c, (top, den), nums[n - m]))
        top *= a - m * step
        if not top:
            break
        den *= b
        c = c * (n - m) // (m + 1)
    return _pair_sum(terms, factorial(n))


def poly_table(spec, n_max: int) -> PolyTable:
    """Rows n = 0..n_max of a ``FamilySpec`` or ``MixedSpec``, from ``gf_rows``."""
    return PolyTable(rows=tuple(enumerate(gf_rows(spec.factors, n_max))))
