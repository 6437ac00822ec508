"""Reference values the benchmark checks outputs against.

Nothing here imports mixedpoly.  Series and table coefficients come from
``data/reference.json``, generated once by sympy (``gen_reference.py``);
p-adic approximants come from closed forms computed here with plain
integers and ``fractions.Fraction``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "reference.json"

T_MAX = 28  # highest power of t in the series reference
ORDER_MAX = 4  # kernel exponents 1..ORDER_MAX (and their negatives for 2/(t+2))
SHIFT_DEGREE_MAX = 8  # degree bound of shift_residual integrands

FAMILY_CODES = ("B", "E", "D", "Ch", "C")
MIXED_CODES = ("BE", "DC", "CD", "CC")

# Kernel texts as PAPER.md writes them, and whether the carrier is e^(xt).
_KERNEL_TEXT = {
    "B": "(t/(exp(t)-1))",
    "E": "(2/(exp(t)+1))",
    "D": "(log(1+t)/t)",
    "Ch": "(2/(t+2))",
    "C": "(t/log(1+t))",
}
_EXP_CARRIER = frozenset({"B", "E", "BE"})
# (kernel raised to r, kernel raised to s); the first named factor is
# written first in the text, matching PAPER.md.
_MIXED_FACTORS = {
    "BE": (("E", "s"), ("B", "r")),
    "DC": (("D", "r"), ("Ch", "s")),
    "CD": (("C", "r"), ("D", "s")),
    "CC": (("C", "r"), ("Ch", "s")),
}


def _power(code: str, exponent: int) -> str:
    exp_text = str(exponent) if exponent > 0 else f"({exponent})"
    return f"{_KERNEL_TEXT[code]}^{exp_text}"


def _carrier(code: str) -> str:
    return "exp(t)^x" if code in _EXP_CARRIER else "(1+t)^x"


def family_text(code: str, r: int) -> tuple[str, tuple, bool]:
    """GF text of a base family at exponent r, its factors, and carrier kind."""
    return f"{_power(code, r)}*{_carrier(code)}", ((code, r),), code in _EXP_CARRIER


def mixed_text(code: str, r: int, s: int) -> tuple[str, tuple, bool]:
    """GF text of a mixed family at exponents (r, s)."""
    factors = tuple((k, r if which == "r" else s) for k, which in _MIXED_FACTORS[code])
    body = "*".join(_power(k, e) for k, e in factors)
    return f"{body}*{_carrier(code)}", factors, code in _EXP_CARRIER


def _exponents(kernel_code: str) -> list[int]:
    # Only 2/(t+2) is a unit whose negative powers the workloads use.
    orders = list(range(1, ORDER_MAX + 1))
    return orders + [-k for k in orders] if kernel_code == "Ch" else orders


def gf_texts() -> dict[str, tuple[tuple, bool]]:
    """Every GF text the workloads may send, with its factors and carrier."""
    out = {}
    for code in FAMILY_CODES:
        for r in _exponents(code):
            text, factors, exp_carrier = family_text(code, r)
            out[text] = (factors, exp_carrier)
    for code in MIXED_CODES:
        s_kernel = next(k for k, which in _MIXED_FACTORS[code] if which == "s")
        for r in range(1, ORDER_MAX + 1):
            for s in _exponents(s_kernel):
                text, factors, exp_carrier = mixed_text(code, r, s)
                out[text] = (factors, exp_carrier)
    return out


def family_texts(order: int) -> dict[str, tuple[tuple, bool]]:
    out = {}
    for code in FAMILY_CODES:
        _, factors, exp_carrier = family_text(code, order)
        out[code] = (factors, exp_carrier)
    return out


def coeff_digest(coeff_strings: list[str]) -> str:
    """Digest of one polynomial given as ascending exact coefficient strings."""
    canon = ",".join(coeff_strings) if coeff_strings else "0"
    return hashlib.sha256(canon.encode()).hexdigest()[:20]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# --------------------------------------------------------------------------
# p-adic closed forms
# --------------------------------------------------------------------------


def level_values(kind: str, p: int, N: int, n: int) -> list[Fraction]:
    """Level-N approximants of C(x, j), j = 0..n, in closed form.

    bosonic:   p^-N sum_{y<M} C(y, j) = C(M, j+1)/M   (hockey stick), M = p^N
    fermionic: A_0 = 1, A_{j+1} = -(A_j + (-1)^M C(M, j+1)) / 2
    """
    M = p**N
    if kind == "bosonic":
        return [Fraction(comb(M, j + 1), M) for j in range(n + 1)]
    sign = -1 if M % 2 else 1
    out = [Fraction(1)]
    for j in range(n):
        out.append(-(out[j] + sign * comb(M, j + 1)) / 2)
    return out


def limit_values(kind: str, n: int) -> list[Fraction]:
    """p-adic limits of the approximants of C(x, j), j = 0..n."""
    if kind == "bosonic":
        return [Fraction((-1) ** j, j + 1) for j in range(n + 1)]
    return [Fraction(-1, 2) ** j for j in range(n + 1)]


def fold_shift(one_fold: list[Fraction], n: int, k: int, x0: int) -> Fraction:
    """k-fold integral of C(x0 + y_1 + .. + y_k, n) from 1-fold values.

    Vandermonde: C(x0 + sum y_i, n) = sum C(x0, j_0) prod C(y_i, j_i).
    """
    folded = one_fold
    for _ in range(k - 1):
        folded = [sum(folded[a] * one_fold[m - a] for a in range(m + 1)) for m in range(n + 1)]
    return sum((comb(x0, j) * folded[n - j] for j in range(n + 1)), Fraction(0))


def newton_coeffs(values: list[Fraction]) -> list[Fraction]:
    """Forward differences Delta^j f(0) from f(0), f(1), ..."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def eval_poly(coeffs: list[Fraction], z: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def shift_residual_ref(kind: str, coeffs: list[Fraction], p: int, N: int) -> Fraction:
    """Exact level-N shift defect of the polynomial with these coefficients."""
    deg = max(len(coeffs) - 1, 0)
    vals = [eval_poly(coeffs, z) for z in range(deg + 2)]
    level = level_values(kind, p, N, deg)
    integral_f = sum(d * v for d, v in zip(newton_coeffs(vals[: deg + 1]), level))
    integral_f1 = sum(d * v for d, v in zip(newton_coeffs(vals[1:]), level))
    f0 = vals[0]
    if kind == "bosonic":
        f_prime_0 = coeffs[1] if len(coeffs) > 1 else Fraction(0)
        return integral_f1 - integral_f - f_prime_0
    return integral_f1 + integral_f - 2 * f0


def valuation(q: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational; None for zero."""
    if q == 0:
        return None

    def v(n: int) -> int:
        n, out = abs(n), 0
        while n % p == 0:
            n //= p
            out += 1
        return out

    return v(q.numerator) - v(q.denominator)
