"""Command-line surface: polynomial tables, identity verification, p-adic
traces, and generating-function evaluation.

Exit codes: 0 on success (verification: all instances pass), 1 on a
verification or evaluation failure, 2 on usage errors (bad flags, unknown
identity id, an order, level, fold count or index out of range, p not an
odd prime, budget breach, malformed budget) and on a result too large to
print.
Results go to stdout, each in one write through ``_emit``; diagnostics go
to stderr as one line.  Identical invocations produce byte-identical output.

The budget is ``--budget`` when given, else MIXEDPOLY_BUDGET, else the
default; whichever is in force must be an integer >= 1, or the command
exits 2 with a one-line diagnostic.  MIXEDPOLY_WIDTH, the label column
width of plain tables, must be an integer in 0..MAX_WIDTH when set, or the
command exits 2 the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import factorial, inf

from . import __version__
from .dsl import DslError, eval_text, line_col
from .families import FamilyKind, FamilySpec, family_oracle, poly_table
from .mixed import IDENTITY_IDS, MixedKind, MixedSpec, Variant, verify_identity
from .padic import (
    DEFAULT_BUDGET,
    BinomialBasis,
    BudgetExceededError,
    IntegralKind,
    PAdicContext,
    check_level,
    convergence_trace,
)
from .series import XPoly

FORMATS = ("json", "csv", "latex", "plain")
MAX_WIDTH = 1000

_FAMILY_CODES = {kind.value: kind for kind in FamilyKind}
_MIXED_CODES = {kind.value: kind for kind in MixedKind}


def _setting(source: str, raw: str, lo: int, hi: int | None = None) -> int:
    """``raw`` as an integer in ``lo``..``hi`` (unbounded above without ``hi``).

    Raises ValueError with a one-line message naming ``source`` otherwise.
    """
    try:
        value = int(raw)
    except ValueError:
        value = lo - 1
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{source} must be an integer {bounds}, got {raw!r}")
    return value


def _common_flags(sub: argparse.ArgumentParser, run) -> None:
    """The flags every command takes, and ``run``, the function that runs it."""
    sub.set_defaults(run=run)
    sub.add_argument("--format", choices=FORMATS, default="plain", help="output format")
    sub.add_argument(
        "--budget",
        default=None,
        help=f"evaluation budget for p-adic sums (default {DEFAULT_BUDGET}, "
        "or MIXEDPOLY_BUDGET)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedpoly",
        description="Exact tables, identity verification, p-adic traces, and "
        "generating-function evaluation for special polynomial families.",
    )
    parser.add_argument("--version", action="version", version=f"mixedpoly {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_table = subs.add_parser("table", help="emit polynomial tables")
    p_table.add_argument("--family", choices=sorted(_FAMILY_CODES), help="base family code")
    p_table.add_argument("--order", type=int, help="order r of the base family")
    p_table.add_argument("--mixed", choices=sorted(_MIXED_CODES), help="mixed family code")
    p_table.add_argument("--r", type=int, help="first order of the mixed family")
    p_table.add_argument("--s", type=int, help="second order of the mixed family")
    p_table.add_argument("--n", type=int, required=True, help="largest index n")
    _common_flags(p_table, cmd_table)

    p_verify = subs.add_parser("verify", help="verify identities exactly")
    p_verify.add_argument(
        "--id",
        required=True,
        help="identity id (comma-separated list, or 'all'); one of "
        + ",".join(IDENTITY_IDS),
    )
    p_verify.add_argument("--n-max", type=int, default=8, help="largest index n (default 8)")
    p_verify.add_argument(
        "--orders", default="1..3", help="order range 'a..b' for r and s (default 1..3)"
    )
    p_verify.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.CORRECTED.value,
        help="reading used for typo-suspect identities (default corrected)",
    )
    _common_flags(p_verify, cmd_verify)

    p_padic = subs.add_parser("padic", help="p-adic integral convergence traces")
    p_padic.add_argument(
        "--kind", choices=[k.value for k in IntegralKind], required=True
    )
    p_padic.add_argument(
        "--binom", type=int, required=True, help="integrand C(x, n): the index n"
    )
    p_padic.add_argument("--p", type=int, required=True, help="odd prime")
    p_padic.add_argument("--N", required=True, help="level or level range 'a..b'")
    p_padic.add_argument(
        "--target",
        choices=("daehee", "changhee"),
        default=None,
        help="target family (default: daehee for bosonic, changhee for fermionic)",
    )
    p_padic.add_argument(
        "--k", type=int, default=1, help="fold count k >= 1; p^(kN) must stay within the budget"
    )
    p_padic.add_argument("--x0", type=int, default=0, help="shift of the integrand argument")
    _common_flags(p_padic, cmd_padic)

    p_eval = subs.add_parser("eval", help="evaluate a generating-function expression")
    p_eval.add_argument("expr", help="expression over t and x")
    p_eval.add_argument("--T", type=int, default=8, help="truncation order (default 8)")
    p_eval.add_argument(
        "--n", type=int, default=None, help="print only the n-th extracted polynomial"
    )
    _common_flags(p_eval, cmd_eval)

    return parser


def _parse_range(text: str) -> range:
    """'a..b' or 'a' as a range, which the caller can check by its ends unexpanded."""
    lo_s, dots, hi_s = text.partition("..")
    lo = int(lo_s)
    hi = int(hi_s) if dots else lo
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _fail(message: str, code: int = 2) -> int:
    """Write a one-line ``error:`` diagnostic to stderr; return ``code``."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(fmt: str, *, value, rows, latex, plain, header=None, code: int = 0) -> int:
    """Write a command's result to stdout in ``fmt`` with one write; return ``code``.

    Each format is a zero-argument callable, so only the one asked for is
    built: ``value`` gives the JSON value, ``rows`` the csv rows (lists of
    cells, after ``header`` when given), ``latex`` and ``plain`` the lines.
    A result holding an integer too long to convert to text exits 2 instead,
    with stdout left empty.
    """
    try:
        if fmt == "json":
            lines = [json.dumps(value(), indent=2)]
        elif fmt == "csv":
            lines = map(",".join, [header, *rows()] if header else rows())
        else:
            lines = latex() if fmt == "latex" else plain()
        text = "".join(line + "\n" for line in lines)
    except ValueError as exc:  # the interpreter's limit on int-to-text conversion
        return _fail(f"result too large to print: {exc}")
    sys.stdout.write(text)
    return code


def _tabular(spec: str, header: list[str], rows) -> list[str]:
    """Lines of a LaTeX tabular: the header row, a rule, then ``rows`` of cells."""
    head, *body = (" & ".join(row) + r" \\" for row in [header, *rows])
    return [rf"\begin{{tabular}}{{{spec}}}", head, r"\hline", *body, r"\end{tabular}"]


def _poly_coeff_strings(p: XPoly) -> list[str]:
    if p.is_zero:
        return ["0"]
    return [str(c) for c in p.coeffs]


def _coeff_rows(pairs):
    """csv rows ``n, c_0, c_1, ...`` for (n, polynomial) pairs."""
    return ([str(n), *_poly_coeff_strings(p)] for n, p in pairs)


_REPORT_FIELDS = ["identity", "variant", "n", "r", "s", "verdict", "diff"]
_REPORT_PLAIN = "{:<9}{:<12}{:>4}{:>4}{:>4}  {:<8}{}"


def cmd_table(args, parser: argparse.ArgumentParser) -> int:
    use_family = args.family is not None
    if use_family == (args.mixed is not None):
        parser.error("exactly one of --family/--mixed is required")
    if args.n < 0:
        parser.error("--n must be >= 0")
    if use_family and args.order is None:
        parser.error("--family requires --order")
    if not use_family and (args.r is None or args.s is None):
        parser.error("--mixed requires --r and --s")
    try:
        if use_family:
            spec = FamilySpec(_FAMILY_CODES[args.family], args.order)
        else:
            spec = MixedSpec(_MIXED_CODES[args.mixed], args.r, args.s)
    except ValueError as exc:
        return _fail(str(exc))
    table = poly_table(spec, args.n)
    if use_family:
        head = {"family": args.family, "order": args.order, "n_max": args.n}
        sym, orders = args.family, str(args.order)
    else:
        head = {"mixed": args.mixed, "r": args.r, "s": args.s, "n_max": args.n}
        sym, orders = args.mixed, f"{args.r},{args.s}"

    def plain():
        for n, p in table.rows:
            label = f"n={n}:"
            yield f"{label:<{max(args.width, len(label) + 1)}}{p}"

    return _emit(
        args.format,
        value=lambda: {
            **head,
            "rows": [{"n": n, "coeffs": _poly_coeff_strings(p)} for n, p in table.rows],
        },
        rows=lambda: _coeff_rows(table.rows),
        latex=lambda: (
            rf"{sym}_{{{n}}}^{{({orders})}}(x) = {p.latex()} \\" for n, p in table.rows
        ),
        plain=plain,
    )


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.id.strip().lower() == "all":
        ids = list(IDENTITY_IDS)
    else:
        ids = [part.strip() for part in args.id.split(",") if part.strip()]
    if not ids:
        return _fail("--id names no identity")
    for ident in ids:
        if ident not in IDENTITY_IDS:
            return _fail(f"unknown identity id {ident!r}; known ids: " + ",".join(IDENTITY_IDS))
    if args.n_max < 0:
        parser.error("--n-max must be >= 0")
    try:
        orders = _parse_range(args.orders)
    except ValueError as exc:
        parser.error(str(exc))
    if not orders or orders[0] < 1:
        parser.error("--orders must start at 1")
    variant = Variant(args.variant)
    reports = []
    for ident in ids:
        reports.extend(verify_identity(ident, args.n_max, orders, variant))

    def cells(rep, diff) -> list:
        inst = rep.instance
        verdict = "pass" if rep.passed else "fail"
        return [inst.identity_id, rep.variant.value, inst.n, inst.r, inst.s, verdict, diff]

    return _emit(
        args.format,
        value=lambda: [dict(zip(_REPORT_FIELDS, cells(rep, str(rep.diff)))) for rep in reports],
        header=_REPORT_FIELDS,
        rows=lambda: (map(str, cells(rep, rep.diff)) for rep in reports),
        latex=lambda: _tabular(
            "llrrrll",
            ["identity", "variant", "$n$", "$r$", "$s$", "verdict", "diff"],
            (map(str, cells(rep, f"${rep.diff.latex()}$")) for rep in reports),
        ),
        plain=lambda: [
            _REPORT_PLAIN.format(*_REPORT_FIELDS),
            *(_REPORT_PLAIN.format(*cells(rep, rep.diff)) for rep in reports),
        ],
        code=0 if all(rep.passed for rep in reports) else 1,
    )


def cmd_padic(args, parser: argparse.ArgumentParser) -> int:
    if args.binom < 0:
        parser.error("--binom must be >= 0")
    try:
        levels = _parse_range(args.N)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        # The top level and the fold count against the budget first, then the
        # lowest level and p, all before the target or any level is built.
        check_level(args.p, levels[-1], args.budget, args.k)
        PAdicContext(args.p, levels[0], args.budget)
    except (BudgetExceededError, ValueError) as exc:
        return _fail(str(exc))
    kind = IntegralKind(args.kind)
    target_name = args.target
    if target_name is None:
        target_name = "daehee" if kind is IntegralKind.BOSONIC else "changhee"
    family = FamilyKind.DAEHEE if target_name == "daehee" else FamilyKind.CHANGHEE
    target_poly = family_oracle(FamilySpec(family, args.k), args.binom)
    target = target_poly(args.x0) / factorial(args.binom)
    trace = convergence_trace(
        kind,
        BinomialBasis(args.binom),
        target,
        args.p,
        levels,
        budget=args.budget,
        k=args.k,
        x0=args.x0,
    )

    def cells(inf_text: str):
        """N, approximant, residual and valuation per level; +infinity prints as ``inf_text``."""
        for row in trace.rows:
            vp = inf_text if row.vp == inf else str(row.vp)
            yield str(row.N), str(row.approximant), str(row.residual), vp

    return _emit(
        args.format,
        value=lambda: {
            "p": args.p,
            "kind": kind.value,
            "n": args.binom,
            "k": args.k,
            "x0": str(args.x0),
            "target": str(trace.target),
            "rows": [
                {
                    "N": row.N,
                    "approx": str(row.approximant),
                    "residual": str(row.residual),
                    "vp": None if row.vp == inf else row.vp,
                }
                for row in trace.rows
            ],
            "target_family": target_name,
        },
        header=["N", "approx", "residual", "vp"],
        rows=lambda: cells(""),
        latex=lambda: _tabular(
            "rlll",
            ["$N$", "approximant", "residual", r"$\nu_p$"],
            ([N, *(f"${cell}$" for cell in rest)] for N, *rest in cells(r"\infty")),
        ),
        plain=lambda: [
            f"kind={kind.value} p={args.p} n={args.binom} k={args.k} "
            f"x0={args.x0} target={trace.target} ({target_name})",
            *("N={}: approx={} residual={} vp={}".format(*row) for row in cells("inf")),
        ],
    )


def cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    if args.T < 0:
        parser.error("--T must be >= 0")
    if args.n is not None and not 0 <= args.n <= args.T:
        parser.error(f"--n must lie in 0..{args.T}")
    try:
        series = eval_text(args.expr, args.T)
    except DslError as exc:
        line, col = line_col(args.expr, exc.position)
        return _fail(f"{type(exc).__name__} at line {line}, column {col}: {exc.message}", 1)
    result = series if args.n is None else series.poly(args.n)
    pairs = list(enumerate(series.coeffs)) if args.n is None else [(args.n, result)]

    def value():
        head = {"expr": args.expr, "trunc": args.T}
        if args.n is None:
            return {**head, "coeffs": [_poly_coeff_strings(c) for c in series.coeffs]}
        return {**head, "n": args.n, "coeffs": _poly_coeff_strings(result), "poly": str(result)}

    return _emit(
        args.format,
        value=value,
        rows=lambda: _coeff_rows(pairs),
        latex=lambda: [result.latex()],
        plain=lambda: [str(result)],
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.budget is not None:
            args.budget = _setting("--budget", args.budget, 1)
        else:
            raw = os.environ.get("MIXEDPOLY_BUDGET", str(DEFAULT_BUDGET))
            args.budget = _setting("MIXEDPOLY_BUDGET", raw, 1)
        raw = os.environ.get("MIXEDPOLY_WIDTH", "0")
        args.width = _setting("MIXEDPOLY_WIDTH", raw, 0, MAX_WIDTH)
    except ValueError as exc:
        return _fail(str(exc))
    return args.run(args, parser)


if __name__ == "__main__":
    sys.exit(main())
