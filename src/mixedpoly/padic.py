"""Finite approximants of the bosonic and fermionic p-adic integrals.

The bosonic (Volkenborn) integral of f over the p-adic integers is the
p-adic limit of p^(-N) * sum_{x=0}^{p^N - 1} f(x); the fermionic integral
is the limit of the alternating sum sum_x (-1)^x f(x).  This module
evaluates the finite level-N sums and their limits (``integral``) as exact
rationals, and measures how fast the sums approach a target in the p-adic
valuation.  All quantitative convergence thresholds asserted in the test
suite were frozen from oracle runs of these routines, not derived
analytically.

Integrands are either ``XPoly`` values or first-class binomial-basis
integrands C(x, n).  Every sum, of any fold count, is evaluated in closed
form in the binomial basis (``multifold_integral``), so its cost grows with
the degree of the integrand, not with p^N.

Inside, every quantity on that path -- the binomial coordinates of the
integrand, the C(x0, j) row, the level values, their fold power and the
final dot product -- is a reduced integer pair (p, q) summed by
``series._pair_sum``.  ``Fraction`` is built only at the public boundary:
the inputs and the return values of ``integral``, ``multifold_integral``,
``finite_integral``, ``shift_residual``, ``convergence_trace`` and ``vp``.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Union

from .series import _ONE_PAIR, XPoly, _pair_sum, _power, _Record, _set, _Stream, _window

__all__ = [
    "BinomialBasis",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "IntegralKind",
    "PAdicContext",
    "PAdicError",
    "TraceRow",
    "ValuationTrace",
    "check_level",
    "convergence_trace",
    "finite_integral",
    "integral",
    "is_odd_prime",
    "multifold_integral",
    "shift_residual",
    "vp",
]

DEFAULT_BUDGET = 10**7


class PAdicError(Exception):
    """Base class for p-adic approximant errors."""


class BudgetExceededError(PAdicError):
    """A requested summation exceeds the configured evaluation budget."""


class IntegralKind(Enum):
    BOSONIC = "bosonic"
    FERMIONIC = "fermionic"


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# for every p below _MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache
def is_odd_prime(p: int) -> bool:
    """Memoized, since a trace asks about its one p at every level and row.

    Deterministic Miller-Rabin over ``_MR_BASES``; an odd p at or above
    ``_MR_BOUND``, where those bases no longer decide, is a ``ValueError``.
    """
    if p < 3 or p % 2 == 0:
        return False
    if p <= _MR_BASES[-1]:  # a base equal to p would count as a witness against it
        return p in _MR_BASES
    if p >= _MR_BOUND:
        raise ValueError(f"p must be below {_MR_BOUND}, where the primality test is exact")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # a witnesses that p is composite
    return True


def check_level(p: int, N: int, budget: int, k: int = 1) -> None:
    """Reject k < 1, N < 1, and a k-fold level N whose p^(kN) exceeds ``budget``.

    Exponents are compared before a power is built: p^e >= 2^(e (bits(p) - 1)),
    so p^(kN) is built only when it has at most about twice the bits of
    ``budget``, and a huge k or N is rejected at once.
    """
    if k < 1:
        raise ValueError("fold count k must be >= 1")
    if N < 1:
        raise ValueError("level N must be >= 1")
    e = k * N
    if e * (p.bit_length() - 1) >= budget.bit_length() or p**e > budget:
        label = "p^N" if k == 1 else "p^(kN)"
        raise BudgetExceededError(f"{label} = {p}^{e} exceeds budget {budget}")


class PAdicContext(_Record):
    """Summation level: p odd prime, sums run over 0 .. p^N - 1.

    The level is checked against the budget before p is tested for
    primality, so no primality test runs on a p above the budget.
    """

    __slots__ = ("p", "N", "budget")
    p: int
    N: int
    budget: int

    def __init__(self, p, N, budget=DEFAULT_BUDGET):
        _set(self, "p", p)
        _set(self, "N", N)
        _set(self, "budget", budget)
        check_level(p, N, budget)
        if not is_odd_prime(p):
            raise ValueError("p must be an odd prime")

    @property
    def modulus(self) -> int:
        return self.p**self.N


class BinomialBasis(_Record):
    """The integrand C(x, n) kept in the binomial basis."""

    __slots__ = ("n",)
    n: int

    def __init__(self, n):
        _set(self, "n", n)
        if n < 0:
            raise ValueError("binomial index must be >= 0")


Integrand = Union[XPoly, BinomialBasis]


def vp(q: Union[Fraction, int], p: int) -> Union[int, float]:
    """Normalized p-adic valuation of a rational; +infinity for 0."""
    if not is_odd_prime(p) and p != 2:
        raise ValueError("p must be prime")
    return _vp_pair(_pair(Fraction(q)), p)


def _pair(q) -> tuple[int, int]:
    """An int or a ``Fraction`` as its reduced pair (numerator, denominator)."""
    return q.numerator, q.denominator


def _vp_pair(q: tuple[int, int], p: int) -> Union[int, float]:
    """The valuation of the reduced pair q; +infinity for 0."""
    return _vp_int(q[0], p) - _vp_int(q[1], p) if q[0] else math.inf


def _vp_int(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _reduced(p: int, q: int) -> tuple[int, int]:
    """The pair p/q for q > 0, with the gcd removed."""
    g = math.gcd(p, q)
    return p // g, q // g


def finite_integral(kind: IntegralKind, f: Integrand, ctx: PAdicContext) -> Fraction:
    """Level-N approximant of the bosonic or fermionic integral, exact.

    Bosonic:   p^(-N) * sum_{x=0}^{p^N-1} f(x)
    Fermionic: sum_{x=0}^{p^N-1} (-1)^x f(x)
    """
    return multifold_integral(kind, f, 1, 0, ctx)


def multifold_integral(
    kind: IntegralKind,
    f: Integrand,
    k: int,
    x0: Union[int, Fraction],
    ctx: PAdicContext,
) -> Fraction:
    """k-fold nested approximant of f evaluated at y_1 + ... + y_k + x0.

    Each y_i runs over 0 .. p^N - 1 with the per-variable weight of
    ``kind``.  The value is computed in closed form for every k >= 1: write
    f as sum_j a_j C(x, j), expand C(x0 + y_1 + ... + y_k, n) by Vandermonde
    into products of C(x0, j_0) and the 1-fold level values of C(y, j_i),
    so term n of the folds is term n of the k-th power of the level-value
    series times the series of C(x0, j), and take the dot product with the
    a_j.  Only the terms with a_j != 0 are summed, so C(x, n) at k = 1
    costs one sum of n + 1 products.  Every quantity is a reduced integer
    pair; the result is an exact rational.  p^(kN) must stay within the
    context budget.
    """
    check_level(ctx.p, ctx.N, ctx.budget, k)
    return Fraction(*_folds(kind, f, _pair(Fraction(x0)))(ctx.modulus, k))


def integral(
    kind: IntegralKind, f: Integrand, k: int = 1, x0: Union[int, Fraction] = 0
) -> Fraction:
    """The k-fold bosonic or fermionic integral of f at y_1 + ... + y_k + x0, exact.

    The p-adic limit of ``multifold_integral`` as N grows: its 1-fold level
    values are polynomials in M = p^N, which tends to 0 p-adically, so the
    limit is the same fold at M = 0, where they are (-1)^j/(j+1) (bosonic)
    and (-1/2)^j (fermionic).  At x0 = 0 and k = 1 these are the
    coefficients of log(1+t)/t and 2/(2+t).
    """
    if k < 1:  # ``series._power`` would return its base for k = 0
        raise ValueError("fold count k must be >= 1")
    return Fraction(*_folds(kind, f, _pair(Fraction(x0)))(0, k))


def _folds(kind: IntegralKind, f: Integrand, x0: tuple[int, int]) -> partial:
    """(M, k) -> the fold of f at the pair x0 over the level values at M, as a pair."""
    coords, den = _binomial_coords(f)
    return partial(_fold, kind, coords, den, _binomials(x0, len(coords) - 1))


def _fold(
    kind: IntegralKind, coords: list[int], den: int, row: list[tuple[int, int]], M: int, k: int
) -> tuple[int, int]:
    """sum_n coords[n] sum_j row[j] L^k_(n-j) / den for the level values L at M, as a pair.

    Only the n with coords[n] != 0 are read, each as one window of the
    folds filled to n: one sum of their products.
    """
    folds = _power(_Stream(None, _level_values(kind, M, len(coords) - 1), _pair_sum), k)
    terms = []
    for n, a in enumerate(coords):
        if a:
            terms += _window(row, folds.fill(n), n, 0, n, a)
    return _pair_sum(terms, den)


def _binomial_coords(f: Integrand) -> tuple[list[int], int]:
    """Integers a_j and den > 0 with f(x) = sum_j a_j C(x, j) / den, j = 0 .. degree of f."""
    if isinstance(f, BinomialBasis):
        return [0] * f.n + [1], 1
    if not isinstance(f, XPoly):
        raise TypeError(f"integrand must be XPoly or BinomialBasis, got {type(f).__name__}")
    # Newton forward differences of den f, whose coefficients are the
    # integer numerators, at 0 .. deg.
    num = f._num
    values = [sum(c * x**i for i, c in enumerate(num)) for x in range(len(num))]
    coords = []
    while values:
        coords.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return coords, f._den


def _binomials(z: tuple[int, int], d: int) -> list[tuple[int, int]]:
    """C(z, j) for j = 0 .. d as reduced pairs, for any rational z given as its pair."""
    p, q = z
    out = [_ONE_PAIR]
    for j in range(d):
        num, den = out[-1]
        out.append(_reduced(num * (p - j * q), den * (j + 1) * q))
    return out


def _level_values(kind: IntegralKind, M: int, d: int) -> list[tuple[int, int]]:
    """The 1-fold level-N values of C(y, j), j = 0 .. d, over y in 0 .. M - 1, as pairs.

    Bosonic: C(M, j + 1)/M = C(M - 1, j)/(j + 1), by the hockey-stick
    identity.  Fermionic: A_j = sum_y (-1)^y C(y, j): A_0 = 1 and
    A_{j+1} = (C(M, j + 1) - A_j)/2, by C(y + 1, j + 1) = C(y, j + 1) + C(y, j),
    as M = p^N is odd (``PAdicContext`` admits only odd primes).  Both are
    polynomials in M, and at M = 0 they are (-1)^j/(j+1) and (-1/2)^j.
    """
    if kind is IntegralKind.BOSONIC:
        return [_reduced(c, j + 1) for j, (c, _) in enumerate(_binomials((M - 1, 1), d))]
    if kind is IntegralKind.FERMIONIC:
        values = [_ONE_PAIR]
        for c, _ in _binomials((M, 1), d)[1:]:
            a, b = values[-1]
            values.append(_reduced(c * b - a, 2 * b))
        return values
    raise ValueError(f"unknown integral kind {kind!r}")


def _difference(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a - b for two pairs, as a pair."""
    return _pair_sum([(1, a, _ONE_PAIR), (-1, b, _ONE_PAIR)])


def shift_residual(kind: IntegralKind, f: XPoly, ctx: PAdicContext) -> Fraction:
    """Exact defect of the shift identity at level N.

    With f1(x) = f(x+1), the p-adic limits satisfy
    I_0(f1) - I_0(f) = f'(0) and I_{-1}(f1) = -I_{-1}(f) + 2 f(0); at a
    finite level the corresponding combination leaves a rational residual
    whose valuation grows with N.  With f = sum_j a_j C(x, j), f1 - f has
    the coordinates a_(j+1) and f1 + f the coordinates 2 a_j + a_(j+1), so
    no shifted polynomial is built.
    """
    if not isinstance(f, XPoly):
        raise TypeError("shift_residual expects an XPoly integrand")
    coords, den = _binomial_coords(f)
    num = f._num
    if kind is IntegralKind.BOSONIC:
        coords, limit = coords[1:], num[1] if len(num) > 1 else 0  # den f'(0)
    else:
        coords = [2 * a + b for a, b in zip(coords, coords[1:] + [0])]
        limit = 2 * num[0] if num else 0  # den 2 f(0)
    value = _fold(kind, coords, den, _binomials((0, 1), len(coords) - 1), ctx.modulus, 1)
    return Fraction(*_difference(value, _reduced(limit, den)))


class TraceRow(_Record):
    __slots__ = ("N", "approximant", "residual", "vp")
    N: int
    approximant: Fraction
    residual: Fraction
    vp: Union[int, float]


class ValuationTrace(_Record):
    """Residual valuations of level-N approximants against a fixed target."""

    __slots__ = ("target", "rows")
    target: Fraction
    rows: tuple[TraceRow, ...]


def convergence_trace(
    kind: IntegralKind,
    f: Integrand,
    target: Union[int, Fraction],
    p: int,
    N_range: Iterable[int],
    budget: int = DEFAULT_BUDGET,
    k: int = 1,
    x0: Union[int, Fraction] = 0,
) -> ValuationTrace:
    """Tabulate approximants and residual valuations over a range of levels.

    The target value is supplied by the caller (typically a family number
    or polynomial value divided by n!); monotonicity or growth of the
    valuations is asserted by the caller, not here.
    """
    target = Fraction(target)
    goal = _pair(target)
    fold = _folds(kind, f, _pair(Fraction(x0)))
    rows = []
    for N in sorted(set(N_range)):
        ctx = PAdicContext(p, N, budget)
        check_level(p, N, budget, k)
        approx = fold(ctx.modulus, k)
        residual = _difference(approx, goal)
        rows.append(TraceRow(N, Fraction(*approx), Fraction(*residual), _vp_pair(residual, p)))
    return ValuationTrace(target, tuple(rows))
