"""Regenerate perfbench/data/reference.json with sympy.

The reference is built by sympy alone, never by mixedpoly, so that the
benchmark's output checks do not trust the code being timed.  sympy is only
needed to regenerate the file; the benchmark itself reads the JSON.

    python3 perfbench/gen_reference.py

Contents:

* ``series``: for every generating-function text in ``gf_texts()``, one
  digest per power of t (t^0 .. t^T_MAX) of the exact coefficient, a
  polynomial in x written as its ascending coefficient list (see
  ``reference.coeff_key``).
* ``family_polys``: the order-1 family polynomials P_n(x) = n! [t^n] GF for
  n <= SHIFT_DEGREE_MAX, as exact coefficient strings; the ``padic``
  workload integrates them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import sympy as sp

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import (  # noqa: E402
    REFERENCE_PATH,
    SHIFT_DEGREE_MAX,
    T_MAX,
    coeff_digest,
    family_texts,
    gf_texts,
)

t, x = sp.symbols("t x")

# Order-1 scalar kernels (no x); raised to an integer power below.
KERNELS = {
    "B": t / (sp.exp(t) - 1),
    "E": 2 / (sp.exp(t) + 1),
    "D": sp.log(1 + t) / t,
    "Ch": 2 / (t + 2),
    "C": t / sp.log(1 + t),
}
EXP_CARRIER = {"B", "E", "BE"}


def _kernel_coeffs(code: str, exponent: int) -> list[sp.Rational]:
    expr = KERNELS[code] ** exponent
    ser = sp.series(expr, t, 0, T_MAX + 1).removeO()
    poly = sp.Poly(sp.expand(ser), t)
    return [sp.Rational(poly.coeff_monomial(t**n)) for n in range(T_MAX + 1)]


def _carrier_coeffs(exp_carrier: bool) -> list[sp.Poly]:
    out = []
    for n in range(T_MAX + 1):
        if exp_carrier:
            expr = x**n / sp.factorial(n)
        else:
            expr = sp.expand_func(sp.ff(x, n)) / sp.factorial(n)
        out.append(sp.Poly(sp.expand(expr), x, domain="QQ"))
    return out


def _mul_scalar(a: list, b: list) -> list:
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(T_MAX + 1)]


def _poly_strings(poly: sp.Poly) -> list[str]:
    coeffs = [sp.Rational(c) for c in reversed(poly.all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return [str(c) for c in coeffs]


def main() -> None:
    kernel_cache: dict[tuple[str, int], list] = {}
    carriers = {True: _carrier_coeffs(True), False: _carrier_coeffs(False)}

    def kernel(code: str, exponent: int) -> list:
        key = (code, exponent)
        if key not in kernel_cache:
            kernel_cache[key] = _kernel_coeffs(code, exponent)
        return kernel_cache[key]

    def series_polys(factors, carrier_exp: bool) -> list[sp.Poly]:
        scalar = [sp.Integer(1)] + [sp.Integer(0)] * T_MAX
        for code, exponent in factors:
            scalar = _mul_scalar(scalar, kernel(code, exponent))
        carrier = carriers[carrier_exp]
        return [
            sum((carrier[n - k] * scalar[k] for k in range(n + 1)), sp.Poly(0, x, domain="QQ"))
            for n in range(T_MAX + 1)
        ]

    series = {}
    for text, (factors, carrier_exp) in gf_texts().items():
        polys = series_polys(factors, carrier_exp)
        series[text] = [coeff_digest(_poly_strings(p)) for p in polys]
        print(f"{len(series):4d} {text}", file=sys.stderr)

    family_polys = {}
    for code, (factors, carrier_exp) in family_texts(1).items():
        polys = series_polys(factors, carrier_exp)
        family_polys[code] = [
            _poly_strings(polys[n] * sp.factorial(n)) for n in range(SHIFT_DEGREE_MAX + 1)
        ]

    payload = {
        "generator": f"sympy {sp.__version__}",
        "t_max": T_MAX,
        "series": series,
        "family_polys": family_polys,
    }
    REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
