"""Finite approximants of the bosonic and fermionic p-adic integrals.

The bosonic (Volkenborn) integral of f over the p-adic integers is the
p-adic limit of p^(-N) * sum_{x=0}^{p^N - 1} f(x); the fermionic integral
is the limit of the alternating sum sum_x (-1)^x f(x).  This module never
claims to compute those limits: it evaluates the finite level-N sums as
exact rationals and measures how fast they approach a supplied target in
the p-adic valuation.  All quantitative convergence thresholds asserted in
the test suite were frozen from oracle runs of these routines, not derived
analytically.

Integrands are either ``XPoly`` values or first-class binomial-basis
integrands C(x, n).  Every sum, of any fold count, is evaluated in closed
form in the binomial basis (``multifold_integral``), so its cost grows with
the degree of the integrand, not with p^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .series import XPoly, _power, _product, _sum_of_products

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

    Deterministic Miller-Rabin over ``_MR_BASES`` below ``_MR_BOUND``;
    trial division at and above it.
    """
    if p < 3 or p % 2 == 0:
        return False
    if p <= _MR_BASES[-1]:  # a base equal to p would count as a witness against it
        return p in _MR_BASES
    if p >= _MR_BOUND:
        return all(p % d for d in range(3, math.isqrt(p) + 1, 2))
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


@dataclass(frozen=True)
class PAdicContext:
    """Summation level: p odd prime, sums run over 0 .. p^N - 1.

    The level is checked against the budget before p is tested for
    primality, so no primality test runs on a p above the budget.
    """

    p: int
    N: int
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        check_level(self.p, self.N, self.budget)
        if not is_odd_prime(self.p):
            raise ValueError("p must be an odd prime")

    @property
    def modulus(self) -> int:
        return self.p**self.N


@dataclass(frozen=True)
class BinomialBasis:
    """The integrand C(x, n) kept in the binomial basis."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("binomial index must be >= 0")


Integrand = Union[XPoly, BinomialBasis]


def vp(q: Union[Fraction, int], p: int) -> Union[int, float]:
    """Normalized p-adic valuation of a rational; +infinity for 0."""
    if not is_odd_prime(p) and p != 2:
        raise ValueError("p must be prime")
    q = Fraction(q)
    if q == 0:
        return math.inf
    return _vp_int(q.numerator, p) - _vp_int(q.denominator, p)


def _vp_int(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


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
    so the k folds are the k-th power of the level-value series times the
    series of C(x0, j), and take the dot product with the a_j.  The result
    is an exact rational.  p^(kN) must stay within the context budget.
    """
    check_level(ctx.p, ctx.N, ctx.budget, k)
    coords = _binomial_coords(f)
    d = len(coords) - 1
    level = _level_values(kind, ctx.modulus, d)
    folded = _product(_binomials(Fraction(x0), d), _power(level, k))
    return _sum_of_products((a, folded[n]) for n, a in enumerate(coords)).coeff(0)


def _binomial_coords(f: Integrand) -> list[Fraction]:
    """The a_j with f(x) = sum_j a_j C(x, j), for j = 0 .. degree of f."""
    if isinstance(f, BinomialBasis):
        return [Fraction(0)] * f.n + [Fraction(1)]
    if not isinstance(f, XPoly):
        raise TypeError(f"integrand must be XPoly or BinomialBasis, got {type(f).__name__}")
    # Newton forward differences of f at 0 .. deg.
    values = [f(x) for x in range(f.degree + 1)]
    coords = []
    while values:
        coords.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return coords


def _binomials(z: Fraction, d: int) -> list[Fraction]:
    """C(z, j) for j = 0 .. d, for any rational z."""
    out = [Fraction(1)]
    for j in range(d):
        out.append(out[-1] * (z - j) / (j + 1))
    return out


def _level_values(kind: IntegralKind, M: int, d: int) -> list[Fraction]:
    """The 1-fold level-N values of C(y, j), j = 0 .. d, over y in 0 .. M - 1.

    Bosonic: C(M, j + 1)/M, by the hockey-stick identity.  Fermionic:
    A_0 = 1 and A_{j+1} = (C(M, j + 1) - A_j)/2, which follows from
    C(y + 1, j + 1) = C(y, j + 1) + C(y, j) because M = p^N is odd
    (``PAdicContext`` admits only odd primes).
    """
    if kind is IntegralKind.BOSONIC:
        return [c / M for c in _binomials(Fraction(M), d + 1)[1:]]
    if kind is IntegralKind.FERMIONIC:
        values = [Fraction(1)]
        for c in _binomials(Fraction(M), d)[1:]:
            values.append((c - values[-1]) / 2)
        return values
    raise ValueError(f"unknown integral kind {kind!r}")


def shift_residual(kind: IntegralKind, f: XPoly, ctx: PAdicContext) -> Fraction:
    """Exact defect of the shift identity at level N.

    With f1(x) = f(x+1), the p-adic limits satisfy
    I_0(f1) - I_0(f) = f'(0) and I_{-1}(f1) = -I_{-1}(f) + 2 f(0); at a
    finite level the corresponding combination leaves a rational residual
    whose valuation grows with N.
    """
    if not isinstance(f, XPoly):
        raise TypeError("shift_residual expects an XPoly integrand")
    f1 = f.shifted(1)
    if kind is IntegralKind.BOSONIC:
        return finite_integral(kind, f1 - f, ctx) - f.derivative()(0)
    return finite_integral(kind, f1 + f, ctx) - 2 * f(0)


@dataclass(frozen=True)
class TraceRow:
    N: int
    approximant: Fraction
    residual: Fraction
    vp: Union[int, float]


@dataclass(frozen=True)
class ValuationTrace:
    """Residual valuations of level-N approximants against a fixed target."""

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
    rows = []
    for N in sorted(set(N_range)):
        ctx = PAdicContext(p, N, budget)
        approx = multifold_integral(kind, f, k, x0, ctx)
        residual = approx - target
        rows.append(TraceRow(N, approx, residual, vp(residual, p)))
    return ValuationTrace(target=target, rows=tuple(rows))
