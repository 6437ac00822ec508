"""Command-line surface: polynomial tables, identity verification, p-adic
traces, and generating-function evaluation.

Exit codes: 0 on success (verification: all instances pass), 1 on a
verification or evaluation failure, 2 on usage errors (bad flags, unknown
identity id, p not an odd prime, budget breach, malformed budget).
Results go to stdout, diagnostics to stderr.  Identical invocations
produce byte-identical output.

The budget is ``--budget`` when given, else MIXEDPOLY_BUDGET, else the
default; whichever is in force must be an integer >= 1, or the command
exits 2 with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import factorial

from . import __version__
from .dsl import DslError, eval_text, line_col
from .families import FamilyKind, FamilySpec, family_oracle, poly_table
from .mixed import (
    IDENTITY_IDS,
    MixedKind,
    MixedSpec,
    Variant,
    mixed_poly_table,
    render_report,
    verify_identity,
)
from .padic import (
    DEFAULT_BUDGET,
    BinomialBasis,
    BudgetExceededError,
    IntegralKind,
    convergence_trace,
    is_odd_prime,
)
from .series import XPoly

FORMATS = ("json", "csv", "latex", "plain")

_FAMILY_CODES = {kind.value: kind for kind in FamilyKind}
_MIXED_CODES = {kind.value: kind for kind in MixedKind}


def _budget(flag: int | None) -> int:
    """The evaluation budget: ``--budget``, else MIXEDPOLY_BUDGET, else the default.

    Raises ValueError with a one-line message unless it is an integer >= 1.
    """
    if flag is not None:
        source, raw = "--budget", str(flag)
    else:
        source, raw = "MIXEDPOLY_BUDGET", os.environ.get("MIXEDPOLY_BUDGET")
        if raw is None:
            return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {raw!r}")
    return budget


def _env_width() -> int:
    raw = os.environ.get("MIXEDPOLY_WIDTH")
    try:
        return int(raw) if raw is not None else 0
    except ValueError:
        return 0


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="plain", help="output format")
    sub.add_argument(
        "--budget",
        type=int,
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
    _common_flags(p_table)

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
    _common_flags(p_verify)

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
    p_padic.add_argument("--k", type=int, choices=(1, 2), default=1, help="folds (1 or 2)")
    p_padic.add_argument("--x0", type=int, default=0, help="shift of the integrand argument")
    _common_flags(p_padic)

    p_eval = subs.add_parser("eval", help="evaluate a generating-function expression")
    p_eval.add_argument("expr", help="expression over t and x")
    p_eval.add_argument("--T", type=int, default=8, help="truncation order (default 8)")
    p_eval.add_argument(
        "--n", type=int, default=None, help="print only the n-th extracted polynomial"
    )
    _common_flags(p_eval)

    return parser


def _parse_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _poly_coeff_strings(p: XPoly) -> list[str]:
    if p.is_zero:
        return ["0"]
    return [str(c) for c in p.coeffs]


def cmd_table(args, parser: argparse.ArgumentParser) -> int:
    use_family = args.family is not None
    use_mixed = args.mixed is not None
    if use_family == use_mixed:
        parser.error("exactly one of --family/--mixed is required")
    if args.n < 0:
        parser.error("--n must be >= 0")
    if use_family:
        if args.order is None:
            parser.error("--family requires --order")
        spec = FamilySpec(_FAMILY_CODES[args.family], args.order)
        table = poly_table(spec, args.n)
        head = {"family": args.family, "order": args.order, "n_max": args.n}
        latex_sym = f"{args.family}_{{{{n}}}}^{{({args.order})}}"
    else:
        if args.r is None or args.s is None:
            parser.error("--mixed requires --r and --s")
        spec = MixedSpec(_MIXED_CODES[args.mixed], args.r, args.s)
        table = mixed_poly_table(spec, args.n)
        head = {"mixed": args.mixed, "r": args.r, "s": args.s, "n_max": args.n}
        latex_sym = f"{args.mixed}_{{{{n}}}}^{{({args.r},{args.s})}}"

    fmt = args.format
    out = sys.stdout
    if fmt == "json":
        payload = dict(head)
        payload["rows"] = [
            {"n": n, "coeffs": _poly_coeff_strings(p)} for n, p in table.rows
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        for n, p in table.rows:
            out.write(",".join([str(n)] + _poly_coeff_strings(p)) + "\n")
    elif fmt == "latex":
        for n, p in table.rows:
            sym = latex_sym.replace("{n}", str(n))
            out.write(f"{sym}(x) = {p.latex()} \\\\\n")
    else:
        width = _env_width()
        for n, p in table.rows:
            label = f"n={n}:"
            out.write(f"{label:<{max(width, len(label) + 1)}}{p}\n")
    return 0


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.id.strip().lower() == "all":
        ids = list(IDENTITY_IDS)
    else:
        ids = [part.strip() for part in args.id.split(",") if part.strip()]
    for ident in ids:
        if ident not in IDENTITY_IDS:
            print(
                f"error: unknown identity id {ident!r}; known ids: "
                + ",".join(IDENTITY_IDS),
                file=sys.stderr,
            )
            return 2
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
    sys.stdout.write(render_report(reports, args.format))
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_padic(args, parser: argparse.ArgumentParser) -> int:
    if not is_odd_prime(args.p):
        print("error: p must be an odd prime", file=sys.stderr)
        return 2
    if args.binom < 0:
        parser.error("--binom must be >= 0")
    try:
        levels = _parse_range(args.N)
    except ValueError as exc:
        parser.error(str(exc))
    kind = IntegralKind(args.kind)
    target_name = args.target
    if target_name is None:
        target_name = "daehee" if kind is IntegralKind.BOSONIC else "changhee"
    family = FamilyKind.DAEHEE if target_name == "daehee" else FamilyKind.CHANGHEE
    target_poly = family_oracle(FamilySpec(family, args.k), args.binom)
    target = target_poly(args.x0) / factorial(args.binom)
    try:
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
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    fmt = args.format
    payload = trace.to_dict()
    payload["target_family"] = target_name
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        sys.stdout.write("N,approx,residual,vp\n")
        for row in payload["rows"]:
            vp_s = "" if row["vp"] is None else str(row["vp"])
            sys.stdout.write(f"{row['N']},{row['approx']},{row['residual']},{vp_s}\n")
    elif fmt == "latex":
        lines = [
            r"\begin{tabular}{rlll}",
            r"$N$ & approximant & residual & $\nu_p$ \\",
            r"\hline",
        ]
        for row in payload["rows"]:
            vp_s = r"\infty" if row["vp"] is None else str(row["vp"])
            lines.append(
                f"{row['N']} & ${row['approx']}$ & ${row['residual']}$ & ${vp_s}$ \\\\"
            )
        lines.append(r"\end{tabular}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(
            f"kind={payload['kind']} p={payload['p']} n={args.binom} k={args.k} "
            f"x0={args.x0} target={payload['target']} ({target_name})\n"
        )
        for row in payload["rows"]:
            vp_s = "inf" if row["vp"] is None else str(row["vp"])
            sys.stdout.write(
                f"N={row['N']}: approx={row['approx']} residual={row['residual']} "
                f"vp={vp_s}\n"
            )
    return 0


def cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    if args.T < 0:
        parser.error("--T must be >= 0")
    try:
        series = eval_text(args.expr, args.T)
    except DslError as exc:
        line, col = line_col(args.expr, exc.position)
        kind = type(exc).__name__
        print(
            f"error: {kind} at line {line}, column {col}: {exc.message}",
            file=sys.stderr,
        )
        return 1
    if args.n is not None:
        if not 0 <= args.n <= args.T:
            parser.error(f"--n must lie in 0..{args.T}")
        poly = series.poly(args.n)
        if args.format == "json":
            payload = {
                "expr": args.expr,
                "trunc": args.T,
                "n": args.n,
                "coeffs": _poly_coeff_strings(poly),
                "poly": str(poly),
            }
            sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        elif args.format == "csv":
            sys.stdout.write(",".join([str(args.n)] + _poly_coeff_strings(poly)) + "\n")
        elif args.format == "latex":
            sys.stdout.write(poly.latex() + "\n")
        else:
            sys.stdout.write(str(poly) + "\n")
        return 0
    if args.format == "json":
        payload = {
            "expr": args.expr,
            "trunc": args.T,
            "coeffs": [_poly_coeff_strings(c) for c in series.coeffs],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        for n, c in enumerate(series.coeffs):
            sys.stdout.write(",".join([str(n)] + _poly_coeff_strings(c)) + "\n")
    elif args.format == "latex":
        terms = []
        for n, c in enumerate(series.coeffs):
            if c.is_zero:
                continue
            tpart = "" if n == 0 else (" t" if n == 1 else f" t^{{{n}}}")
            terms.append(f"\\left({c.latex()}\\right){tpart}" if tpart else c.latex())
        sys.stdout.write((" + ".join(terms) if terms else "0") + "\n")
    else:
        sys.stdout.write(str(series) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.budget = _budget(args.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "table":
        return cmd_table(args, parser)
    if args.command == "verify":
        return cmd_verify(args, parser)
    if args.command == "padic":
        return cmd_padic(args, parser)
    if args.command == "eval":
        return cmd_eval(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
