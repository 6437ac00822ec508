"""Command-line surface: polynomial tables, identity verification, p-adic
traces, and generating-function evaluation.

Exit codes: 0 on success (verification: all instances pass), 1 on a
verification or evaluation failure, 2 on usage errors (bad flags, unknown
identity id, an order, level, fold count or index out of range, malformed
range text, p not an odd prime, budget breach, malformed budget) and on a
result too large to print.
Results go to stdout, each in one write through ``_emit``; diagnostics go
to stderr as one ``error:`` line.  Argparse's errors, the bounds declared on
the flags and the library's rejections all raise ``_UsageError``, which
``main`` writes before it returns 2; only --help and --version exit through
SystemExit.  Identical invocations produce byte-identical output.

``main`` builds its parser on its first call and reuses it, so a process
that serves many calls pays for its commands.  A request frees its own
objects by reference counting: no stream refers to itself (see
``series._Stream``) and help is formatted by ``_Formatter``, so a request
leaves no reference cycle, and this module runs no garbage collection.  A
well-formed argv that starts with a command name is parsed without
argparse, from that command's own subparser actions (``_fast_parse``); any
other argv goes to the top-level parser.  No argv is memoized, and each
call gets a fresh namespace.
JSON is written by ``_json``, with the bytes ``json.dumps(value,
indent=2)`` gives but without its pure-Python encoder.  The library
memoizes what ``verify`` and ``eval`` compute, in bounded memos: the
report of each identity instance (``mixed._report``, the 1024 most recent)
and the series of each expression text and truncation (``dsl.eval_text``,
the 128 most recent).  This module memoizes the rest of a request's
result, also bounded: the p-adic trace of each ``padic`` request
(``_trace``, the 128 most recent), checked against the budget before the
memo is read, and the polynomial ``eval --n`` extracts (``_extracted``, the
1024 most recent).  A repeated request then only prints, and prints the
same bytes.  Each polynomial builds its plain, its LaTeX and its csv/json
coefficient text on its first print in that form and reuses it
(``series.XPoly``), so a repeated ``table``, ``verify`` or ``eval`` request
does not render its rows, diffs or series again; the json and csv writers
take the polynomial itself (``_json``, ``_coeff_rows``).  A text printed
while ``sys.set_int_max_str_digits`` was raised is reused after the limit
is lowered; a print that failed on the limit stored nothing.

The budget is ``--budget`` when given, else MIXEDPOLY_BUDGET, else the
default; whichever is in force must be an integer >= 1, or the command
exits 2 with a one-line diagnostic.  MIXEDPOLY_WIDTH, the label column
width of plain tables, must be an integer in 0..MAX_WIDTH when set, or the
command exits 2 the same way.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote
from math import inf

from . import __version__
from .dsl import DslError, eval_text, line_col
from .families import FamilyKind, FamilySpec, poly_table
from .mixed import IDENTITY_IDS, MixedKind, MixedSpec, Variant, verify_identity
from .padic import (
    DEFAULT_BUDGET,
    BinomialBasis,
    BudgetExceededError,
    IntegralKind,
    PAdicContext,
    check_level,
    convergence_trace,
    integral,
)
from .series import XPoly

FORMATS = ("json", "csv", "latex", "plain")
MAX_WIDTH = 1000

_FAMILY_CODES = {kind.value: kind for kind in FamilyKind}
_MIXED_CODES = {kind.value: kind for kind in MixedKind}


class _UsageError(Exception):
    """Exit 2 with this one-line message; argparse passes it out of a ``type`` unchanged."""


class _Formatter(argparse.HelpFormatter):
    """A help formatter that drops its sections, which refer back to it, once formatted."""

    def format_help(self):
        text = super().format_help()
        self._root_section.items.clear()
        self._root_section = self._current_section = None
        return text


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``_UsageError`` instead of exiting."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs, formatter_class=_Formatter)

    def error(self, message):
        raise _UsageError(message)


def _setting(source: str, lo: int, hi: int | None = None):
    """A parser of text as an integer in ``lo``..``hi`` (unbounded above without ``hi``).

    Other text raises ``_UsageError`` naming ``source``: the flag, for a flag's ``type``.
    """
    bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = lo - 1
        if value < lo or (hi is not None and value > hi):
            raise _UsageError(f"{source} must be an integer {bounds}, got {raw!r}")
        return value

    return parse


def _parse_range(source: str, text: str, lo: int | None = None) -> range:
    """'a..b' or 'a' as a range, which the caller can check by its ends unexpanded.

    Raises ``_UsageError`` naming ``source`` unless lo <= a <= b (a <= b without ``lo``).
    """
    a, dots, b = text.partition("..")
    try:
        out = range(int(a), int(b if dots else a) + 1)
    except ValueError:
        out = range(0)
    if not out or (lo is not None and out[0] < lo):
        bounds = "a <= b" if lo is None else f"{lo} <= a <= b"
        raise _UsageError(f"{source} must be 'a..b' or 'a' with integers {bounds}, got {text!r}")
    return out


def _checked(build, *args):
    """``build(*args)``, a library check run before any work; its rejection is a usage error."""
    try:
        return build(*args)
    except (BudgetExceededError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def _common_flags(sub: argparse.ArgumentParser, run) -> None:
    """The flags every command takes, and ``run``, the function that runs it."""
    sub.set_defaults(run=run)
    sub.add_argument("--format", choices=FORMATS, default="plain", help="output format")
    sub.add_argument(
        "--budget",
        type=_setting("--budget", 1),
        help=f"evaluation budget for p-adic sums (default {DEFAULT_BUDGET}, or MIXEDPOLY_BUDGET)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixedpoly",
        description="Exact tables, identity verification, p-adic traces, and "
        "generating-function evaluation for special polynomial families.",
    )
    parser.add_argument("--version", action="version", version=f"mixedpoly {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices  # command name -> its subparser

    p_table = subs.add_parser("table", help="emit polynomial tables")
    p_table.add_argument("--family", choices=sorted(_FAMILY_CODES), help="base family code")
    p_table.add_argument("--order", type=int, help="order r of the base family")
    p_table.add_argument("--mixed", choices=sorted(_MIXED_CODES), help="mixed family code")
    p_table.add_argument("--r", type=int, help="first order of the mixed family")
    p_table.add_argument("--s", type=int, help="second order of the mixed family")
    p_table.add_argument("--n", type=_setting("--n", 0), required=True, help="largest index n")
    _common_flags(p_table, cmd_table)

    p_verify = subs.add_parser("verify", help="verify identities exactly")
    p_verify.add_argument(
        "--id",
        required=True,
        help="identity id (comma-separated list, or 'all'); one of " + ",".join(IDENTITY_IDS),
    )
    p_verify.add_argument(
        "--n-max", type=_setting("--n-max", 0), default=8, help="largest index n (default 8)"
    )
    p_verify.add_argument(
        "--orders",
        type=partial(_parse_range, "--orders", lo=1),
        default=range(1, 4),
        help="order range 'a..b' for r and s (default 1..3)",
    )
    p_verify.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.CORRECTED.value,
        help="reading used for typo-suspect identities (default corrected)",
    )
    _common_flags(p_verify, cmd_verify)

    p_padic = subs.add_parser("padic", help="p-adic integral convergence traces")
    p_padic.add_argument("--kind", choices=[k.value for k in IntegralKind], required=True)
    p_padic.add_argument(
        "--binom", type=_setting("--binom", 0), required=True, help="integrand C(x, n): the index n"
    )
    p_padic.add_argument("--p", type=int, required=True, help="odd prime")
    p_padic.add_argument(
        "--N", type=partial(_parse_range, "--N"), required=True, help="level or level range 'a..b'"
    )
    p_padic.add_argument(
        "--target",
        choices=("daehee", "changhee"),
        help="target family (default: daehee for bosonic, changhee for fermionic)",
    )
    p_padic.add_argument(
        "--k", type=int, default=1, help="fold count k >= 1; p^(kN) must stay within the budget"
    )
    p_padic.add_argument("--x0", type=int, default=0, help="shift of the integrand argument")
    _common_flags(p_padic, cmd_padic)

    p_eval = subs.add_parser("eval", help="evaluate a generating-function expression")
    p_eval.add_argument("expr", help="expression over t and x")
    p_eval.add_argument(
        "--T", type=_setting("--T", 0), default=8, help="truncation order (default 8)"
    )
    p_eval.add_argument("--n", type=int, help="print only the n-th extracted polynomial")
    _common_flags(p_eval, cmd_eval)

    return parser


def _fail(message: str, code: int = 2) -> int:
    """Write a one-line ``error:`` diagnostic to stderr, line breaks escaped; return ``code``."""
    print("error: " + message.replace("\n", "\\n"), file=sys.stderr)
    return code


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, for the values the commands build.

    Those hold only dicts with string keys, lists, strings, ints, None and
    polynomials; a polynomial is written as the list of its coefficient
    texts, ``[str(c) for c in p.coeffs] or ["0"]``.  The standard encoder
    serves ``indent`` only from its pure-Python path; this writer quotes
    strings with the function that path calls, and joins each container's
    items once.  A polynomial's stored text (``XPoly.coeff_text``) holds
    only digits, ``-`` and ``/``, so one replace of its commas quotes it.
    """
    if type(value) is str:
        return _quote(value)
    if value is None:
        return "null"
    if type(value) is int:
        return str(value)
    inner = indent + "  "
    if type(value) is XPoly:
        texts = value.coeff_text().replace(",", '",' + inner + '"')
        return "[" + inner + '"' + texts + '"' + indent + "]"
    if isinstance(value, dict):
        items = [_quote(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    items = [_quote(item) if type(item) is str else _json(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


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
            lines = [_json(value())]
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


def _coeff_rows(pairs):
    """csv rows ``n, c_0, c_1, ...`` for (n, polynomial) pairs: the index and the stored text."""
    return ([str(n), p.coeff_text()] for n, p in pairs)


_REPORT_FIELDS = ["identity", "variant", "n", "r", "s", "verdict", "diff"]
_REPORT_PLAIN = "{:<9}{:<12}{:>4}{:>4}{:>4}  {:<8}{}"


def cmd_table(args) -> int:
    use_family = args.family is not None
    if use_family == (args.mixed is not None):
        return _fail("exactly one of --family/--mixed is required")
    if use_family and args.order is None:
        return _fail("--family requires --order")
    if not use_family and (args.r is None or args.s is None):
        return _fail("--mixed requires --r and --s")
    if use_family:
        spec = _checked(FamilySpec, _FAMILY_CODES[args.family], args.order)
        head = {"family": args.family, "order": args.order, "n_max": args.n}
        sym, orders = args.family, str(args.order)
    else:
        spec = _checked(MixedSpec, _MIXED_CODES[args.mixed], args.r, args.s)
        head = {"mixed": args.mixed, "r": args.r, "s": args.s, "n_max": args.n}
        sym, orders = args.mixed, f"{args.r},{args.s}"
    table = poly_table(spec, args.n)

    def plain():
        for n, p in table.rows:
            label = f"n={n}:"
            yield f"{label:<{max(args.width, len(label) + 1)}}{p}"

    return _emit(
        args.format,
        value=lambda: {
            **head,
            "rows": [{"n": n, "coeffs": p} for n, p in table.rows],
        },
        rows=lambda: _coeff_rows(table.rows),
        latex=lambda: (rf"{sym}_{{{n}}}^{{({orders})}}(x) = {p.latex()} \\" for n, p in table.rows),
        plain=plain,
    )


def cmd_verify(args) -> int:
    if args.id.strip().lower() == "all":
        ids = list(IDENTITY_IDS)
    else:
        ids = [part.strip() for part in args.id.split(",") if part.strip()]
    if not ids:
        return _fail("--id names no identity")
    for ident in ids:
        if ident not in IDENTITY_IDS:
            return _fail(f"unknown identity id {ident!r}; known ids: " + ",".join(IDENTITY_IDS))
    variant = Variant(args.variant)
    reports = [r for ident in ids for r in verify_identity(ident, args.n_max, args.orders, variant)]

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


# The perfbench ``session`` pool has 96 distinct traces, which held 96 KB
# (tracemalloc); 128 entries keep them all.
@lru_cache(maxsize=128)
def _trace(kind: IntegralKind, target_name: str, binom, p, levels, budget, k, x0):
    """The trace of C(x, binom) against the target family's value, for ``cmd_padic``.

    The target, D or Ch of order k at x0 over binom!, is the k-fold integral
    whose level sums the trace prints.  Memoized: a warm process answers a
    repeated request from here.  The caller checks the levels, p and the
    fold count against the budget first, so a breach is a usage error
    whether or not the memo holds the trace; a raise is never memoized.
    """
    f = BinomialBasis(binom)
    daehee = target_name == "daehee"
    target = integral(IntegralKind.BOSONIC if daehee else IntegralKind.FERMIONIC, f, k, x0)
    return convergence_trace(kind, f, target, p, levels, budget=budget, k=k, x0=x0)


def cmd_padic(args) -> int:
    # The top level and the fold count against the budget first, then the
    # lowest level and p, all before the target or any level is built.
    _checked(check_level, args.p, args.N[-1], args.budget, args.k)
    _checked(PAdicContext, args.p, args.N[0], args.budget)
    kind = IntegralKind(args.kind)
    target_name = args.target or ("daehee" if kind is IntegralKind.BOSONIC else "changhee")
    trace = _trace(kind, target_name, args.binom, args.p, args.N, args.budget, args.k, args.x0)

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


# The perfbench ``session`` pool has 761 distinct (expr, T, n), which held
# 572 KB with their texts (tracemalloc); 1024 entries keep them all.
@lru_cache(maxsize=1024)
def _extracted(expr: str, T: int, n: int) -> XPoly:
    """The n-th extracted polynomial of ``expr`` truncated at ``T``, for ``eval --n``.

    ``TSeries.poly`` builds a new polynomial on every call; memoized here, a
    repeated request prints the text the first one stored.  A ``DslError``
    is raised afresh on every call.
    """
    return eval_text(expr, T).poly(n)


def cmd_eval(args) -> int:
    if args.n is not None and not 0 <= args.n <= args.T:
        return _fail(f"--n must lie in 0..{args.T}")
    try:
        if args.n is None:
            result = eval_text(args.expr, args.T)
        else:
            result = _extracted(args.expr, args.T, args.n)
    except DslError as exc:
        line, col = line_col(args.expr, exc.position)
        return _fail(f"{type(exc).__name__} at line {line}, column {col}: {exc.message}", 1)
    pairs = list(enumerate(result.coeffs)) if args.n is None else [(args.n, result)]

    def value():
        head = {"expr": args.expr, "trunc": args.T}
        if args.n is None:
            return {**head, "coeffs": result.coeffs}
        return {**head, "n": args.n, "coeffs": result, "poly": str(result)}

    return _emit(
        args.format,
        value=value,
        rows=lambda: _coeff_rows(pairs),
        latex=lambda: [result.latex()],
        plain=lambda: [str(result)],
    )


def _fast_parse(command: str, sub: argparse.ArgumentParser):
    """A parse of a well-formed ``command`` argv without argparse, read once from ``sub``.

    It returns the values ``sub.parse_args(argv[1:])`` gives, with
    ``command`` set, when every token after the command is an exact option
    string of a store action followed by its value, or the one positional;
    no value starts with ``-``, no flag comes twice, every required argument
    is there, and every value passes its ``type`` and its ``choices``.  For
    any other argv (``--flag=value``, a prefix such as ``--fam``, ``--``,
    ``-h``, a value such as ``-1``, a ``type`` that raises) it returns None,
    and argparse parses it.  An unset flag takes its default as it is (no
    typed flag has a text default to convert), then ``sub``'s ``set_defaults``.
    """
    defaults, flags, positional = {"command": command}, {}, None
    for action in sub._actions:
        if action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if type(action) is argparse._StoreAction and action.nargs is None:
            entry = (action.dest, action.type or str, action.choices)
            if action.option_strings:
                flags.update(dict.fromkeys(action.option_strings, entry))
            else:
                positional = entry
    defaults.update(sub._defaults)
    required = [action.dest for action in sub._actions if action.required]

    def parse(argv) -> dict | None:
        values = {}
        tokens = iter(argv)
        next(tokens)  # the command
        for token in tokens:
            entry = flags.get(token)
            if entry is None:
                entry = positional
            else:
                token = next(tokens, "-")  # a flag with no value falls back
            if entry is None or token[:1] == "-" or entry[0] in values:
                return None
            dest, convert, choices = entry
            try:
                value = convert(token)
            except Exception:  # argparse runs the ``type`` again and reports it
                return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
        for dest in required:
            if dest not in values:
                return None
        return {**defaults, **values}

    return parse


@lru_cache(maxsize=None)
def _parser():
    """The parse of an argv into its values, built on the first ``main`` call.

    A well-formed argv of a command is parsed by that command's
    ``_fast_parse``; any other argv, --help, --version, no command and an
    unknown one included, by the top-level parser.  Both give the values
    and the errors of ``build_parser().parse_args``.  Parsing keeps no argv
    and leaves the parser unchanged; the environment is read in ``main``
    itself.
    """
    parser = build_parser()
    fast = {name: _fast_parse(name, sub) for name, sub in parser.commands.items()}

    def parse(argv) -> dict:
        fast_parse = fast.get(argv[0]) if argv else None
        values = fast_parse(argv) if fast_parse else None
        return vars(parser.parse_args(argv)) if values is None else values

    return parse


def _parse(argv) -> argparse.Namespace:
    """``argv`` parsed as ``build_parser().parse_args`` parses it, into a fresh namespace.

    ``main`` sets the budget and the width on the namespace, so no two calls share one.
    """
    return argparse.Namespace(**_parser()(argv))


_BUDGET_ENV = _setting("MIXEDPOLY_BUDGET", 1)
_WIDTH_ENV = _setting("MIXEDPOLY_WIDTH", 0, MAX_WIDTH)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.budget is None:
            args.budget = _BUDGET_ENV(os.environ.get("MIXEDPOLY_BUDGET", str(DEFAULT_BUDGET)))
        args.width = _WIDTH_ENV(os.environ.get("MIXEDPOLY_WIDTH", "0"))
        return args.run(args)
    except _UsageError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
