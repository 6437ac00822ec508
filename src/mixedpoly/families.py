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

and a kernel power is a base series with constant term 1, read from its
closed form, raised to an integer power by J.C.P. Miller's recurrence: no
series quotient and no division by t.  The e^(x t) rows (B, E, BE) are read
from the kernel powers.  The (1+t)^x rows are read from the signed Stirling
numbers s(m, k), the coefficients of the falling factorial stepped one
factor at a time (``_falling_stream``), by short rules of O(r n) terms a
row: Daehee from L^k/k! = sum_m s(m, k) t^m/m! for L = log(1+t), Cauchy
from the same and, below x^r, from Cauchy kernel powers, and Changhee and
the DC and CC types from the equation (1+t/2)^s F = G of their generating
function.  The rows are one growing stream per ``factors`` (``_row_stream``,
the only memo of the rows), so a longer table extends the rows already
computed.  ``gf_rows``, ``family_poly``, ``family_gf`` and the identity
catalog read those streams; ``family_oracle`` recomputes the base
polynomials through a completely different route (number recurrences, their
terms reduced integer pairs, plus binomial convolution, in the basis of
``series.falling_factorial`` for (1+t)^x), one memo per spec
(``_oracle_memo``, the only memo of the oracle polynomials), so agreement
between the two is a genuine cross-check rather than a tautology.

Stirling numbers of both kinds are exported here too (their rows, and the
falling factorial read from them, live in ``series``); they are the
change-of-basis data used throughout the identity catalog.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, perm
from operator import add, sub
from .series import (
    _ONE_PAIR,
    TSeries,
    XPoly,
    _pair_sum,
    _product,
    _Record,
    _Recurrence,
    _set,
    _Stream,
    _stirling_row,
    _sum_of_products,
    _window,
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
# Daehee and Changhee have none: their rows read the Stirling numbers and the
# (1+t/2)^h equation (``_daehee_rows``, ``_changhee_rows``).
_KERNELS = {
    FamilyKind.CAUCHY: ("log(1+t)/t", -1),
    FamilyKind.BERNOULLI: ("(e^t-1)/t", -1),
    FamilyKind.EULER: ("(e^t+1)/2", -1),
}
_BASES = {
    "log(1+t)/t": lambda n: ((-1) ** n, n + 1),
    "(e^t-1)/t": lambda n: (1, factorial(n + 1)),
    "(e^t+1)/2": lambda n: (1, 2 * factorial(n)) if n else (1, 1),
}


@lru_cache(maxsize=None)
def _base_stream(base: str) -> _Stream:
    """Coefficients of a kernel base, from its closed form, each computed once."""
    return _Stream(_BASES[base])


@lru_cache(maxsize=None)
def _kernel_power(kind: FamilyKind, order: int) -> _Recurrence:
    """Coefficients of kernel^order: base^k for k = +-order, by J.C.P. Miller's recurrence.

    With a_0 = 1, b = a^k has b_0 = 1 and
    b_n = (1/n) sum_{j=1..n} ((k+1) j - n) a_j b_(n-j)   (Knuth, TAOCP 2, 4.7),
    O(n) terms each for any integer k, negative and zero included, so no
    series quotient and no division by t is needed.
    """
    base, sign = _KERNELS[kind]
    a, k = _base_stream(base), sign * order
    return _Recurrence(
        lambda b, n: _pair_sum(_window(a.fill(n), b, n, 1, n, k + 1 - n, k + 1), n), (_ONE_PAIR,)
    )


@lru_cache(maxsize=None)
def _row_stream(factors) -> _Stream:
    """P_0(x), P_1(x), ... of the generating function of ``factors``, each computed once.

    With the carrier e^(x t) (B, E, BE) and K the product of the kernel
    powers, [x^m] P_n = (n!/m!) K_(n-m).  The (1+t)^x families are
    (log(1+t)/t)^e (1+t/2)^(-h) (1+t)^x, e the Daehee less the Cauchy
    powers and h the Changhee power: the Daehee rows of order e, or the
    Cauchy rows of order -e, then h steps of (1+t/2).  So CD collapses to
    C^(r-s), D^(s-r) or (x)_n, and reads that stream.  A factor that fits
    neither form, which no spec has, is a ``ValueError``.
    """
    (kind, power), *mixed = factors
    if kind not in _EXP_CARRIER:
        e = h = 0
        for k, p in factors:
            if k is FamilyKind.CHANGHEE and p >= 0:
                h += p
            elif k in (FamilyKind.DAEHEE, FamilyKind.CAUCHY):
                e += p if k is FamilyKind.DAEHEE else -p
            else:
                raise ValueError(f"no (1+t)^x rows for the factor ({k.value}, {p})")
        log = ((FamilyKind.DAEHEE, e),) if e >= 0 else ((FamilyKind.CAUCHY, -e),)
        if h:
            return _changhee_rows(_row_stream(log), h)
        if factors != log:
            return _row_stream(log)
        return _daehee_rows(e) if e >= 0 else _cauchy_rows(-e)
    if any(k not in _EXP_CARRIER for k, _ in mixed):
        raise ValueError("the e^(xt) carrier takes Bernoulli and Euler factors only")
    kernel = _kernel_power(kind, power)
    if mixed:  # BE: the product of the two kernel powers
        kernel = _product(kernel, _kernel_power(*mixed[0]), _pair_sum)

    def rule(n):
        ks = kernel.fill(n)[n::-1]  # K_n .. K_0
        den = lcm(*(q for _, q in ks))
        num, weight = [], factorial(n)  # weight = n!/m!
        for m, (p, q) in enumerate(ks):
            num.append(weight * p * (den // q))
            weight //= m + 1
        return XPoly._normalized(num, den)

    return _Stream(rule)


def _daehee_rows(r: int) -> _Stream:
    """D_n^(r)(x): [x^j] = C(j+r, r) s(n+r, j+r) / C(n+r, r), n + 1 terms a row.

    L^k/k! = sum_m s(m, k) t^m/m! for L = log(1+t) (Comtet, ch. 5), and the
    generating function is t^-r sum_j x^j L^(j+r)/j!.  The Stirling numbers
    are the top of (x)_(n+r), ``_falling_stream(r)``.
    """
    tops = _falling_stream(r)

    def rule(n):
        num, c = [], 1  # c = C(j+r, r)
        for j, s in enumerate(tops.fill(n)[n]):
            num.append(c * s)
            c = c * (j + r + 1) // (j + 1)
        return XPoly._normalized(num, comb(n + r, r))

    return _Stream(rule)


def _cauchy_rows(r: int) -> _Stream:
    """C_n^(r)(x): the generating function is t^r sum_j x^j L^(j-r)/j!, L = log(1+t).

    For j >= r, [x^j] = (n)_r s(n-r, j-r) / (j)_r, read from (x)_(n-r).  The
    x^j with j < r have no such form: they are n! sum_m K_(n-m) s(m, j) / m!
    for K the kernel power, the dense sum cut to those columns, summed as
    sum_m C(n, m) N_(n-m) s(m, j) over the numbers N_k = k! K_k, whose
    denominators are small: O(r n) terms a row.
    """
    falling, kernel = _falling_stream(), _kernel_power(FamilyKind.CAUCHY, r)
    nums, fact, den = [], 1, 1  # N_0..N_n; n!; the lcm of the denominators of N

    def rule(n):
        nonlocal fact, den
        fact *= n or 1
        p, q = kernel.fill(n)[n]
        g = gcd(fact, q)
        nums.append((fact // g * p, q // g))
        den = lcm(den, q // g)
        cols, c = [0] * min(r, n + 1), 1  # x^0..x^(r-1) over den; c = C(n, m)
        falling.fill(n)
        for m in range(n + 1):
            p, q = nums[n - m]
            if p:
                coeffs = falling[m][:r]
                cols[: len(coeffs)] = map(add, cols, map((c * p * (den // q)).__mul__, coeffs))
            c = c * (n - m) // (m + 1)
        terms = [(p, den) for p in cols]
        if n >= r:
            top, bottom = perm(n, r), factorial(r)  # (n)_r, and (j)_r from j = r
            for j, s in enumerate(falling[n - r], r):
                terms.append((top * s, bottom))
                bottom = bottom * (j + 1) // (j + 1 - r)
        common = lcm(*{q for _, q in terms})
        return XPoly._normalized([p * (common // q) for p, q in terms], common)

    return _Stream(rule)


def _changhee_rows(base: _Stream, h: int) -> _Recurrence:
    """Rows of (2/(t+2))^h G from the rows G_n of G, h + 1 terms a row.

    The generating function's own equation (1+t/2)^h F = G gives
    P_n = G_n - sum_(i=1..min(h, n)) C(h, i) 2^-i (n)_i P_(n-i).
    """
    def rule(rows, n):
        terms, weight = [(base.fill(n)[n],)], 1  # weight = C(h, i) (n)_i
        for i in range(1, min(h, n) + 1):
            weight = weight * (h - i + 1) * (n - i + 1) // i
            terms.append(((-weight, 2**i), rows[n - i]))
        return _sum_of_products(terms)

    return _Recurrence(rule)


@lru_cache(maxsize=None)
def _falling_stream(shift: int = 0) -> _Recurrence:
    """s(m+shift, shift..m+shift): the top m + 1 coefficients of (x)_(m+shift), as ints.

    Stepped as (x)_(m+shift) = (x)_(m+shift-1) (x - m - shift + 1), that is
    s(N, k) = s(N-1, k-1) - (N-1) s(N-1, k); at shift 0 these are all of
    (x)_m.  The lowest, s(m+shift, shift), reads s(m+shift-1, shift-1)
    below the window, so the rule carries the diagonal s(m+i, i),
    i = 0..shift, along by the same recurrence: O(m + shift) steps a term.
    """
    def rule(steps, m):
        prev, step = steps[m - 1], m + shift - 1
        left[0] = 0
        for i in range(1, shift + 1):
            left[i] = left[i - 1] - (m + i - 1) * left[i]
        return (left[shift], *map(sub, prev, map(step.__mul__, prev[1:] + (0,))))

    left = [1] * (shift + 1)  # s(m+i, i) at m = 0
    return _Recurrence(rule, ((1,),))


def family_gf(spec, trunc: int) -> TSeries:
    """Exact truncated generating function of a ``FamilySpec`` or ``MixedSpec``."""
    rows = _row_stream(spec.factors).fill(trunc)
    return TSeries(trunc, [rows[n] * Fraction(1, factorial(n)) for n in range(trunc + 1)])


def gf_rows(factors, n_max: int) -> tuple[XPoly, ...]:
    """P_0(x)..P_{n_max}(x) of the generating function of ``factors``, read from its row stream."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return tuple(_row_stream(factors).fill(n_max)[: n_max + 1])


def family_poly(spec, n: int) -> XPoly:
    """P_n(x) of the generating function (n! times [t^n]), read from its row stream."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _row_stream(spec.factors).fill(n)[n]


@lru_cache(maxsize=None)
def _order1_stream(kind: FamilyKind) -> _Recurrence:
    """Order-1 numbers P_0, P_1, ... at x = 0, GF-free, as reduced pairs (p, q), each computed once.

    Bernoulli and Euler come from their classical linear recurrences over
    the terms so far (``nums`` holds P_0..P_(n-1) while term n is
    computed), Daehee and Changhee from closed forms, Cauchy from exact
    term-wise integration of the falling factorial over [0, 1]:
    C_n = sum_m S1(n, m) / (m + 1).
    """
    if kind is FamilyKind.BERNOULLI:
        def rule(nums, n):  # sum_{k<=n} C(n+1, k) B_k = 0 for n >= 1
            return _pair_sum([(-comb(n + 1, k), b, _ONE_PAIR) for k, b in enumerate(nums)], n + 1)
    elif kind is FamilyKind.EULER:
        def rule(nums, n):  # E_n + sum_{k<=n} C(n, k) E_k = 0 for n >= 1
            return _pair_sum([(-comb(n, k), e, _ONE_PAIR) for k, e in enumerate(nums)], 2)
    elif kind in (FamilyKind.DAEHEE, FamilyKind.CHANGHEE):
        signed = 1  # (-1)^n n!, carried up from the term below

        def rule(nums, n):  # (-1)^n n! / (n + 1) and (-1)^n n! / 2^n, reduced
            nonlocal signed
            if n:
                signed *= -n
            den = n + 1 if kind is FamilyKind.DAEHEE else 2**n
            g = gcd(signed, den)
            return signed // g, den // g
    elif kind is FamilyKind.CAUCHY:
        def rule(nums, n):
            row = enumerate(_stirling_row(True, n))
            return _pair_sum([(s, (1, m + 1), _ONE_PAIR) for m, s in row])
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return _Recurrence(rule, (_ONE_PAIR,) if kind in _EXP_CARRIER else ())


def _binomial_pairs(n: int, a, b, scale: int = 1) -> tuple[int, int]:
    """(1/scale) sum_m C(n,m) a_m b_(n-m) over m = 0..n, for pair sequences, as a reduced pair.

    C(n, m) is stepped along the row, one multiply and one exact division a
    term; both streams are filled to n and read as slices.
    """
    row, c = [], 1
    for m in range(n + 1):
        row.append(c)
        c = c * (n - m) // (m + 1)
    return _pair_sum(zip(row, a.fill(n)[: n + 1], reversed(b.fill(n)[: n + 1])), scale)


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
    if len(nums) <= n:
        for order in range(1, spec.order):
            _numbers_stream(FamilySpec(spec.kind, order)).fill(n)
    return nums.fill(n)


def family_numbers(spec: FamilySpec, n_max: int) -> tuple[Fraction, ...]:
    """Order-r numbers P_0^(r)..P_{n_max}^(r), by (r-1)-fold binomial convolution."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    nums = _numbers(spec, n_max)
    return tuple(Fraction(*pair) for pair in nums[: n_max + 1])


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


def poly_table(spec, n_max: int) -> PolyTable:
    """Rows n = 0..n_max of a ``FamilySpec`` or ``MixedSpec``, from ``gf_rows``."""
    return PolyTable(tuple(enumerate(gf_rows(spec.factors, n_max))))
