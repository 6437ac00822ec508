"""Mixed-type polynomial families and the identity catalog.

The four mixed families multiply two different order-1 kernels onto a
single carrier:

    BE  (2/(e^t+1))^s (t/(e^t-1))^r e^(x t)
    DC  (log(1+t)/t)^r (2/(t+2))^s (1+t)^x
    CD  (t/log(1+t))^r (log(1+t)/t)^s (1+t)^x
    CC  (t/log(1+t))^r (2/(t+2))^s (1+t)^x

``verify_identity`` checks each cataloged identity as an exact polynomial
equality in x, one instance per (n, r, s).  The two sides of every identity
are computed through different code paths -- generating-function extraction
on one side, convolution/Stirling sums over oracle values on the other --
so a pass is a genuine cross-check and a failure pinpoints the exact
polynomial discrepancy.

Three identities (E28, E34, E40) carry an as-printed/corrected variant
switch where the printed source statement is suspected of a typo; the
verifier records which variant holds instead of silently fixing anything.

Each instance's report is memoized, the 1024 most recent (``_report``),
so a long-lived process checks an instance once however many requests
repeat it.  The oracle side reads one memo of oracle polynomials per
family spec (``families._oracle_memo``), bound once per claim.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, partial
from math import comb

from .families import (
    FamilyKind,
    FamilySpec,
    _conv,
    _numbers,
    _oracle_memo,
    _row_stream,
    falling_factorial,
    family_gf,
    family_oracle,
    stirling1,
    stirling2,
)
from .series import _ZERO_POLY, XPoly, _Record, _set, _sum_of_products

__all__ = [
    "IDENTITY_IDS",
    "SINGLE_ORDER_IDS",
    "IdentityInstance",
    "IdentityReport",
    "MixedKind",
    "MixedSpec",
    "Variant",
    "adjudicate_variant",
    "mixed_gf",
    "mixed_poly",
    "verify_identity",
]


class MixedKind(Enum):
    BE = "BE"
    DC = "DC"
    CD = "CD"
    CC = "CC"


# (kernel raised to r, kernel raised to s) for each mixed kind.
_FACTORS = {
    MixedKind.BE: (FamilyKind.BERNOULLI, FamilyKind.EULER),
    MixedKind.DC: (FamilyKind.DAEHEE, FamilyKind.CHANGHEE),
    MixedKind.CD: (FamilyKind.CAUCHY, FamilyKind.DAEHEE),
    MixedKind.CC: (FamilyKind.CAUCHY, FamilyKind.CHANGHEE),
}


class MixedSpec(_Record):
    __slots__ = ("kind", "r", "s")
    kind: MixedKind
    r: int
    s: int

    def __init__(self, kind, r, s):
        _set(self, "kind", kind)
        _set(self, "r", r)
        _set(self, "s", s)
        if r < 1 or s < 1:
            raise ValueError("mixed-type orders r, s must be >= 1")

    @property
    def factors(self) -> tuple[tuple[FamilyKind, int], ...]:
        """(kernel, power) pairs of the generating function; the first picks the carrier."""
        kr, ks = _FACTORS[self.kind]
        return ((kr, self.r), (ks, self.s))


class Variant(Enum):
    """Reading used for identities whose printed statement is suspect."""

    AS_PRINTED = "as-printed"
    CORRECTED = "corrected"


# ``_report``'s memo holds reports and their instances by the hundred, as slotted
# records with no per-object ``__dict__``; it builds them positionally, the quickest path.
class IdentityInstance(_Record):
    __slots__ = ("identity_id", "n", "r", "s")
    identity_id: str
    n: int
    r: int
    s: int


class IdentityReport(_Record):
    """Verdict for one identity instance; exact pass iff diff is zero."""

    __slots__ = ("instance", "passed", "lhs", "rhs", "diff", "variant")
    instance: IdentityInstance
    passed: bool
    lhs: XPoly
    rhs: XPoly
    diff: XPoly
    variant: Variant


# A mixed family's generating function is built exactly as a base family's,
# from the factors of its spec.
mixed_gf = family_gf


def _weighted(n: int, poly_at, weight) -> XPoly:
    """Weighted sum sum_m weight(m) poly_at(m) over m = 0..n; a weight is an integer or a pair."""
    return _sum_of_products((poly_at(m), w) for m in range(n + 1) if (w := weight(m)))


def _oracle(kind: FamilyKind, order: int):
    """m -> P_m^(order)(x) through the GF-free route: its oracle memo, bound once per claim."""
    return _oracle_memo(FamilySpec(kind, order))


def mixed_poly(spec: MixedSpec, n: int) -> XPoly:
    """Closed convolution form, built from oracle values only.

    BE: sum_m C(n,m) B_m^(r)(x) E_{n-m}^(s)
    DC: sum_m C(n,m) D_m^(r)(x) Ch_{n-m}^(s)
    CD: collapses to C_n^(r-s)(x), D_n^(s-r)(x), or (x)_n by order comparison
    CC: sum_m C(n,m) C_m^(r)(x) Ch_{n-m}^(s)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    (kr, r), (ks, s) = spec.factors
    if spec.kind is MixedKind.CD:
        if r > s:
            return family_oracle(FamilySpec(FamilyKind.CAUCHY, r - s), n)
        if r < s:
            return family_oracle(FamilySpec(FamilyKind.DAEHEE, s - r), n)
        return falling_factorial(n)
    return _conv(n, _oracle(kr, r), _numbers(FamilySpec(ks, s), n))


# --------------------------------------------------------------------------
# Identity catalog
# --------------------------------------------------------------------------

# Identities parameterized by a single order r; their reports carry s = 0.
SINGLE_ORDER_IDS = frozenset({"E11", "E14", "E17"})


def _mixed_row(kind: MixedKind):
    # E21, E31, E37: the mixed GF row equals the closed form of mixed_poly.
    return lambda n, r, s, corrected: [(
        _row_stream(MixedSpec(kind, r, s).factors).fill(n)[n],
        mixed_poly(MixedSpec(kind, r, s), n),
    )]


# Each identity maps one instance (n, r, s, corrected) to its claims:
# (lhs, rhs) pairs that must agree exactly.  One side of every claim reads
# generating-function rows (``_row_stream`` of a spec's factors, memoized
# once per factors and read to row n), the other oracle values
# (family_oracle, the number streams) or the falling factorial, so no claim
# compares a code path with itself.  ``corrected`` selects the reading
# of the typo-suspect identities E28, E34 and E40.
_CATALOG = {
    # D_n^(r)(x) = sum_m B_m^(r)(x) S1(n, m)
    "E11": lambda n, r, s, corrected: [(
        _row_stream(FamilySpec(FamilyKind.DAEHEE, r).factors).fill(n)[n],
        _weighted(n, _oracle(FamilyKind.BERNOULLI, r), partial(stirling1, n)),
    )],
    # Ch_n^(r)(x) = sum_m E_m^(r)(x) S1(n, m)
    "E14": lambda n, r, s, corrected: [(
        _row_stream(FamilySpec(FamilyKind.CHANGHEE, r).factors).fill(n)[n],
        _weighted(n, _oracle(FamilyKind.EULER, r), partial(stirling1, n)),
    )],
    # (x)_n = sum_m C(n,m) C_m^(r)(x) D_{n-m}^(r)
    #       = sum_m C(n,m) D_m^(r)(x) C_{n-m}^(r)
    "E17": lambda n, r, s, corrected: [
        (falling_factorial(n), _conv(
            n,
            _row_stream(FamilySpec(FamilyKind.CAUCHY, r).factors).fill(n).__getitem__,
            _numbers(FamilySpec(FamilyKind.DAEHEE, r), n),
        )),
        (falling_factorial(n), _conv(
            n,
            _row_stream(FamilySpec(FamilyKind.DAEHEE, r).factors).fill(n).__getitem__,
            _numbers(FamilySpec(FamilyKind.CAUCHY, r), n),
        )),
    ],
    # BE_n^(r,s)(x) = sum_m C(n,m) B_m^(r)(x) E_{n-m}^(s)
    "E21": _mixed_row(MixedKind.BE),
    # sum_m C(n,m) D_m^(r)(x) Ch_{n-m}^(s) = sum_m BE_m^(r,s)(x) S1(n, m)
    "E24": lambda n, r, s, corrected: [(
        mixed_poly(MixedSpec(MixedKind.DC, r, s), n),
        _weighted(
            n,
            _row_stream(MixedSpec(MixedKind.BE, r, s).factors).fill(n).__getitem__,
            partial(stirling1, n),
        ),
    )],
    # DC_n^(r,s)(x) = sum_m C(n,m) D_m^(r)(x) Ch_{n-m}^(order)
    # where order is s in the corrected reading, r as printed.
    "E28": lambda n, r, s, corrected: [(
        _row_stream(MixedSpec(MixedKind.DC, r, s).factors).fill(n)[n],
        _conv(
            n,
            _oracle(FamilyKind.DAEHEE, r),
            _numbers(FamilySpec(FamilyKind.CHANGHEE, s if corrected else r), n),
        ),
    )],
    # CD_n^(r,s)(x) collapses by order comparison.
    "E31": _mixed_row(MixedKind.CD),
    # corrected:  sum_m DC_m^(r,s)(x) S2(n, m) = sum_m C(n,m) B_m^(r)(x) E_{n-m}^(s)
    # as printed: sum_m DC_m^(r,s)(x) S2(m, n) = sum_m C(n,m) B_m^(r)(x) E_{n-m}
    "E34": lambda n, r, s, corrected: [(
        _weighted(
            n,
            _row_stream(MixedSpec(MixedKind.DC, r, s).factors).fill(n).__getitem__,
            partial(stirling2, n) if corrected else lambda m: stirling2(m, n),
        ),
        _conv(
            n,
            _oracle(FamilyKind.BERNOULLI, r),
            _numbers(FamilySpec(FamilyKind.EULER, s if corrected else 1), n),
        ),
    )],
    # CC_n^(r,s)(x) = sum_m C(n,m) C_m^(r)(x) Ch_{n-m}^(s)
    "E37": _mixed_row(MixedKind.CC),
    # sum_l CC_l^(r,s)(x) S2(n, l)
    #   = sum_l [C(n,l) / C(l+r,l)] S2(l+r, r) E_{n-l}^(s)(x)   (corrected)
    # The printed form has S2(l+r, l) in the numerator, which does not match
    # the exact expansion of ((e^t - 1)/t)^r; both readings are kept.  The
    # right side is summed over m = n - l, the index of E_m^(s)(x).
    "E40": lambda n, r, s, corrected: [(
        _weighted(
            n,
            _row_stream(MixedSpec(MixedKind.CC, r, s).factors).fill(n).__getitem__,
            partial(stirling2, n),
        ),
        _weighted(
            n,
            _oracle(FamilyKind.EULER, s),
            lambda m: (
                comb(n, m) * stirling2(n - m + r, r if corrected else n - m),
                comb(n - m + r, r),
            ),
        ),
    )],
}

IDENTITY_IDS = tuple(_CATALOG)


@lru_cache(maxsize=1024)
def _report(
    claims_of, identity_id: str, n: int, r: int, s: int, variant: Variant
) -> IdentityReport:
    """The report of one instance, built from the claims of ``claims_of``, each computed once.

    Keyed on the claim function itself, so a replaced ``_CATALOG`` entry is
    never answered from the reports of the one it replaced, and requests
    with different ``n_max`` share their instances.  The bound holds the
    648 instances of ``verify --id all`` at the default grid.  A failing
    instance reports its first failing claim; a passing one keeps only
    ``lhs``, which its ``rhs`` equals.
    """
    claims = claims_of(n, r, s, variant is Variant.CORRECTED)
    failed = [claim for claim in claims if claim[0] != claim[1]]
    lhs, rhs = (failed or claims)[0]
    instance = IdentityInstance(identity_id, n, r, s)
    diff = rhs - lhs if failed else _ZERO_POLY
    return IdentityReport(instance, not failed, lhs, rhs if failed else lhs, diff, variant)


def verify_identity(
    identity_id: str,
    n_max: int,
    orders=(1, 2, 3),
    variant: Variant = Variant.CORRECTED,
) -> list[IdentityReport]:
    """Check one identity exactly over n <= n_max and orders in ``orders``.

    Returns one report per (n, r, s) instance in deterministic sorted
    order; failures are recorded as data, never raised.  Identities
    parameterized by a single order enumerate r only and report s = 0.
    An empty instance grid (n_max < 0 or no orders) raises ``ValueError``:
    checking nothing is not a pass.  Each instance's report is memoized
    (``_report``), so a warm process verifies it once.
    """
    if identity_id not in IDENTITY_IDS:
        raise KeyError(f"unknown identity id {identity_id!r}")
    orders = tuple(orders)
    if n_max < 0 or not orders:
        raise ValueError("a verification needs n_max >= 0 and at least one order")
    claims_of = _CATALOG[identity_id]
    s_values = (0,) if identity_id in SINGLE_ORDER_IDS else orders
    return [
        _report(claims_of, identity_id, n, r, s, variant)
        for r in orders
        for s in s_values
        for n in range(n_max + 1)
    ]


def adjudicate_variant(identity_id: str, n_max: int = 8, orders=(1, 2)) -> Variant | None:
    """Decide computationally which reading of a suspect identity holds.

    Runs both variants over a small grid and returns the one whose
    instances all pass exactly; ``None`` when neither survives.  For
    identities without a suspected typo the two variants coincide and the
    corrected label is returned.
    """
    for variant in (Variant.CORRECTED, Variant.AS_PRINTED):
        if all(rep.passed for rep in verify_identity(identity_id, n_max, orders, variant)):
            return variant
    return None

