"""Acceptance suite: one test per criterion, each printing a verdict line.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every tolerance here is zero: all equalities are exact polynomial or
rational identities.
"""

import json
import math
import random
import string
import subprocess
import sys
import time
from fractions import Fraction as F
from math import comb, factorial, floor, log

from mixedpoly.dsl import DslError, eval_text
from mixedpoly.families import (
    FamilyKind,
    FamilySpec,
    family_gf,
    family_oracle,
)
from mixedpoly.mixed import (
    IDENTITY_IDS,
    MixedKind,
    MixedSpec,
    Variant,
    adjudicate_variant,
    mixed_gf,
    mixed_poly,
    verify_identity,
)
from mixedpoly.padic import (
    BinomialBasis,
    IntegralKind,
    PAdicContext,
    finite_integral,
    multifold_integral,
    shift_residual,
    vp,
)
from mixedpoly.series import TSeries, XPoly

from series_reference import binomial_x, exp_xt, expm1, log1p, poly_const, poly_x, series_t

BOS = IntegralKind.BOSONIC
FER = IntegralKind.FERMIONIC


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c1_identity_suite():
    """Every catalog identity passes exactly for n <= 12, r,s in 1..3."""
    started = time.monotonic()
    failures = []
    for ident in IDENTITY_IDS:
        if ident in ("E34", "E40"):
            variant = adjudicate_variant(ident)
            assert variant is not None, f"{ident}: neither reading survives"
        else:
            variant = Variant.CORRECTED
        reports = verify_identity(ident, 12, orders=(1, 2, 3), variant=variant)
        failures.extend(rep for rep in reports if not rep.passed)
    elapsed = time.monotonic() - started
    _verdict(
        "C1 identity-suite",
        not failures and elapsed < 30.0,
        f"{elapsed:.1f}s, {len(failures)} failing instances",
    )


def test_c2_oracle_equivalence():
    """GF extraction agrees with the GF-free oracle for all families."""
    bad = 0
    for kind in FamilyKind:
        for order in (1, 2, 3, 4):
            spec = FamilySpec(kind, order)
            gf = family_gf(spec, 20)
            for n in range(21):
                if gf.poly(n) != family_oracle(spec, n):
                    bad += 1
    for kind in MixedKind:
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                spec = MixedSpec(kind, r, s)
                gf = mixed_gf(spec, 12)
                for n in range(13):
                    if gf.poly(n) != mixed_poly(spec, n):
                        bad += 1
    _verdict("C2 oracle-equivalence", bad == 0, f"{bad} mismatches")


def test_c3_series_round_trips():
    """Composition identities at T=16; power group law on random units."""
    ok = exp_xt(16).compose(log1p(16)) == binomial_x(16)
    ok = ok and log1p(16).compose(expm1(16)) == series_t(16)
    rng = random.Random(1699)

    def random_unit_series():
        coeffs = [poly_const(F(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 5)))]
        for _ in range(8):
            poly = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
            coeffs.append(XPoly(poly))
        return TSeries(8, coeffs)

    one = TSeries.constant(1, 8)
    group_ok = all(
        (f**2) * (f**-2) == one for f in (random_unit_series() for _ in range(50))
    )
    _verdict("C3 series-round-trips", ok and group_ok)


def test_c4_volkenborn_oracle():
    """Level-N means of C(x, n) match the hockey-stick closed form."""
    ok = True
    for p in (3, 5):
        for N in range(1, 7):
            ctx = PAdicContext(p, N)
            for n in range(7):
                got = finite_integral(BOS, BinomialBasis(n), ctx)
                ok = ok and got == F(comb(p**N - 1, n), n + 1)
    spot = finite_integral(BOS, BinomialBasis(1), PAdicContext(3, 2))
    residual = spot - F(-1, 2)
    ok = ok and spot == 4 and residual == F(9, 2) and vp(residual, 3) == 2
    _verdict("C4 volkenborn-oracle", ok)


def test_c5_valuation_growth():
    """Bosonic residual bound and strictly growing fermionic valuations."""
    ok = True
    for p in (3, 5):
        for n in range(5):
            target = F((-1) ** n, n + 1)
            flog = 0 if n <= 1 else floor(log(n) / log(p))
            bound_base = -flog - vp(F(n + 1), p)
            for N in range(1, 7):
                approx = finite_integral(BOS, BinomialBasis(n), PAdicContext(p, N))
                ok = ok and vp(approx - target, p) >= N + bound_base
    residuals_n1 = []
    for n in range(4):
        target = F(family_oracle(FamilySpec(FamilyKind.CHANGHEE, 1), n)(0), factorial(n))
        vals = []
        for N in range(1, 7):
            res = finite_integral(FER, BinomialBasis(n), PAdicContext(3, N)) - target
            if n == 1:
                residuals_n1.append(res)
            vals.append(vp(res, 3))
        finite_vals = [v for v in vals if v != math.inf]
        ok = ok and all(a < b for a, b in zip(finite_vals, finite_vals[1:]))
    ok = ok and residuals_n1[0] == F(3, 2) and residuals_n1[1] == F(9, 2)
    _verdict("C5 valuation-growth", ok)


def test_c6_shift_identities():
    """Exact shift residuals 0, 3^N, 3^N for N = 1..6."""
    x = poly_x()
    x2 = XPoly((0, 0, 1))
    ok = True
    for N in range(1, 7):
        ctx = PAdicContext(3, N)
        ok = ok and shift_residual(BOS, x, ctx) == 0
        ok = ok and shift_residual(BOS, x2, ctx) == 3**N
        ok = ok and shift_residual(FER, x, ctx) == 3**N
    _verdict("C6 shift-identities", ok)


def test_c7_multifold_integrals():
    """Fermionic 2-fold approximants reach their order-2 targets."""
    ok = True
    for n in range(4):
        for x0 in (0, 1, 2):
            target = F(
                family_oracle(FamilySpec(FamilyKind.CHANGHEE, 2), n)(x0), factorial(n)
            )
            approx = multifold_integral(FER, BinomialBasis(n), 2, x0, PAdicContext(3, 4))
            ok = ok and vp(approx - target, 3) >= 2
    spot = multifold_integral(FER, BinomialBasis(1), 2, 0, PAdicContext(3, 1))
    target = F(family_oracle(FamilySpec(FamilyKind.CHANGHEE, 2), 1)(0))
    ok = ok and spot == 2 and target == -1 and spot - target == 3 and vp(spot - target, 3) == 1
    _verdict("C7 multifold-integrals", ok)


NINE_GF_STRINGS = [
    ("(t/(exp(t)-1))^2*exp(t)^x", lambda T: family_gf(FamilySpec(FamilyKind.BERNOULLI, 2), T)),
    ("(2/(exp(t)+1))^2*exp(t)^x", lambda T: family_gf(FamilySpec(FamilyKind.EULER, 2), T)),
    ("(log(1+t)/t)^2*(1+t)^x", lambda T: family_gf(FamilySpec(FamilyKind.DAEHEE, 2), T)),
    ("(2/(t+2))^2*(1+t)^x", lambda T: family_gf(FamilySpec(FamilyKind.CHANGHEE, 2), T)),
    ("(t/log(1+t))^2*(1+t)^x", lambda T: family_gf(FamilySpec(FamilyKind.CAUCHY, 2), T)),
    (
        "(2/(exp(t)+1))^3*(t/(exp(t)-1))^2*exp(t)^x",
        lambda T: mixed_gf(MixedSpec(MixedKind.BE, 2, 3), T),
    ),
    (
        "(log(1+t)/t)^2*(2/(t+2))^3*(1+t)^x",
        lambda T: mixed_gf(MixedSpec(MixedKind.DC, 2, 3), T),
    ),
    (
        "(t/log(1+t))^2*(log(1+t)/t)^3*(1+t)^x",
        lambda T: mixed_gf(MixedSpec(MixedKind.CD, 2, 3), T),
    ),
    (
        "(t/log(1+t))^2*(2/(t+2))^3*(1+t)^x",
        lambda T: mixed_gf(MixedSpec(MixedKind.CC, 2, 3), T),
    ),
]


def test_c8_dsl_equivalence_and_fuzz():
    """Nine GF strings match builtins at T=16; 10^4 fuzz inputs never crash."""
    ok = all(eval_text(src, 16) == builtin(16) for src, builtin in NINE_GF_STRINGS)

    rng = random.Random(271828)
    # Non-ASCII digits, letters and a no-break space, in both pools: each
    # must lex as an error or as space.  Beside the structured alphabet they
    # reach int(), which rejected "\u00b2" with a traceback.
    foreign = "\u00b2\u2460\u0663\u00e9\u00a0\uff54"
    alphabet = "tx+-*/^()logexp0123456789 " + foreign
    wild = string.printable + foreign
    crashes = 0
    for i in range(10_000):
        size = rng.randint(0, 64)
        pool = alphabet if i % 2 == 0 else wild
        src = "".join(rng.choice(pool) for _ in range(size))
        try:
            eval_text(src, 3)
        except DslError as exc:
            if not 0 <= exc.position <= len(src):
                crashes += 1
        except Exception:
            crashes += 1
    _verdict("C8 dsl-equivalence-fuzz", ok and crashes == 0, f"{crashes} crashes")


def test_c9_cli_contract():
    """Exit codes 0/1/2 across the scripted matrix; byte-identical reruns."""

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "mixedpoly", *argv], capture_output=True, timeout=300
        )

    matrix = [
        (["table", "--family", "D", "--order", "1", "--n", "3"], 0),
        (["table", "--mixed", "CD", "--r", "2", "--s", "2", "--n", "3", "--format", "csv"], 0),
        (["verify", "--id", "E11", "--n-max", "6", "--orders", "1..2"], 0),
        (["verify", "--id", "all", "--n-max", "3", "--orders", "1..2"], 0),
        (["verify", "--id", "E34", "--variant", "as-printed", "--n-max", "4",
          "--orders", "1..2"], 1),
        (["eval", "log(t)", "--T", "2"], 1),
        (["eval", "1+", "--T", "2"], 1),
        (["verify", "--id", "NOPE"], 2),
        (["padic", "--kind", "bosonic", "--binom", "1", "--p", "2", "--N", "1"], 2),
        (["padic", "--kind", "bosonic", "--binom", "1", "--p", "3", "--N", "15"], 2),
        (["table", "--family", "D", "--mixed", "BE", "--n", "1"], 2),
        (["bogus-command"], 2),
    ]
    ok = True
    for argv, want in matrix:
        proc = run(*argv)
        if proc.returncode != want:
            ok = False
    rerun_argv = ["verify", "--id", "E37", "--n-max", "5", "--orders", "1..2",
                  "--format", "json"]
    first, second = run(*rerun_argv), run(*rerun_argv)
    ok = ok and first.stdout == second.stdout and first.returncode == 0
    payload = json.loads(first.stdout)
    ok = ok and all(row["verdict"] == "pass" for row in payload)
    _verdict("C9 cli-contract", ok)
