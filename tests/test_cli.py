"""CLI contract: exit codes, formats, determinism, schema validity."""

import argparse
import hashlib
import io
import json
import resource
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedpoly import cli, dsl, families, mixed, series
from mixedpoly.cli import FORMATS, main
from collector import left_for_the_collector
from test_cli_golden import GOLDEN

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "mixedpoly", *argv],
        capture_output=True,
        timeout=300,
    )


# -- table -----------------------------------------------------------------------


def test_table_family_json(capsys):
    code, out, _ = run_main(
        capsys, "table", "--family", "D", "--order", "1", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("table.schema.json"))
    assert payload["rows"][2] == {"n": 2, "coeffs": ["2/3", "-2", "1"]}


def test_table_mixed_csv(capsys):
    code, out, _ = run_main(
        capsys,
        "table", "--mixed", "CD", "--r", "2", "--s", "2", "--n", "3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[3] == "3,0,2,-3,1"


def test_table_single_row(capsys):
    code, out, _ = run_main(capsys, "table", "--family", "Ch", "--order", "1", "--n", "0")
    assert code == 0
    assert out == "n=0: 1\n"


def test_table_latex_notation(capsys):
    code, out, _ = run_main(
        capsys, "table", "--family", "D", "--order", "2", "--n", "1", "--format", "latex"
    )
    assert code == 0
    assert out.splitlines()[1] == r"D_{1}^{(2)}(x) = x - 1 \\"


def test_table_requires_exactly_one_spec(capsys):
    for spec in (("--family", "D", "--mixed", "BE"), ()):
        code, out, err = run_main(capsys, "table", *spec, "--n", "2")
        assert_one_line_usage_error(code, out, err)
        assert err == "error: exactly one of --family/--mixed is required\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "B", "--order", "-1"),
        ("--mixed", "BE", "--r", "0", "--s", "1"),
    ],
)
def test_table_order_out_of_range_is_usage_error(capsys, argv):
    assert_one_line_usage_error(*run_main(capsys, "table", *argv, "--n", "3"))


# -- verify ----------------------------------------------------------------------


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_main(
        capsys,
        "verify", "--id", "E11", "--n-max", "6", "--orders", "1..2", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    jsonschema.validate(rows, load_schema("report.schema.json"))
    assert all(row["verdict"] == "pass" for row in rows)


def test_verify_as_printed_fails_exit_one(capsys):
    code, out, _ = run_main(
        capsys,
        "verify", "--id", "E34", "--variant", "as-printed", "--n-max", "8",
        "--orders", "1..2", "--format", "json",
    )
    assert code == 1
    rows = json.loads(out)
    jsonschema.validate(rows, load_schema("report.schema.json"))
    verdicts = {row["verdict"] for row in rows}
    assert verdicts == {"pass", "fail"}


def test_verify_unknown_id_exit_two(capsys):
    code, _, err = run_main(capsys, "verify", "--id", "NOPE", "--n-max", "3")
    assert code == 2
    assert "unknown identity id" in err


def test_verify_multiple_ids(capsys):
    code, out, _ = run_main(
        capsys,
        "verify", "--id", "E11,E14", "--n-max", "4", "--orders", "1..1",
        "--format", "csv",
    )
    assert code == 0
    idents = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert idents == {"E11", "E14"}


def test_verify_negative_n_max_is_usage_error(capsys):
    # A verification over zero instances would be a vacuous pass.
    code, out, err = run_main(capsys, "verify", "--id", "E11", "--n-max", "-1")
    assert_one_line_usage_error(code, out, err)
    assert "--n-max" in err


@pytest.mark.parametrize("ids", [",", " ", ", ,"])
def test_verify_empty_id_list_is_usage_error(capsys, ids):
    # Naming no identity would verify zero instances: a vacuous pass.
    code, out, err = run_main(capsys, "verify", "--id", ids, "--n-max", "2")
    assert_one_line_usage_error(code, out, err)
    assert "--id" in err


def test_verify_json_single_pass_row(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--id", "E11", "--n-max", "1", "--orders", "1..1", "--format", "json"
    )
    assert code == 0
    assert out.endswith("]\n")
    rows = json.loads(out)
    assert rows[1:] == [
        {
            "identity": "E11",
            "variant": "corrected",
            "n": 1,
            "r": 1,
            "s": 0,
            "verdict": "pass",
            "diff": "0",
        }
    ]


def test_verify_failure_carries_diff(capsys):
    code, out, _ = run_main(
        capsys,
        "verify", "--id", "E40", "--variant", "as-printed", "--n-max", "3",
        "--orders", "1..2", "--format", "plain",
    )
    assert code == 1
    assert "fail" in out
    assert "1/2*x" in out


def test_verify_csv_and_latex_forms(capsys):
    argv = ("verify", "--id", "E11", "--n-max", "1", "--orders", "1..1", "--format")
    _, csv_text, _ = run_main(capsys, *argv, "csv")
    assert csv_text.splitlines()[0] == "identity,variant,n,r,s,verdict,diff"
    _, latex_text, _ = run_main(capsys, *argv, "latex")
    assert latex_text.startswith(r"\begin{tabular}")


# -- padic -----------------------------------------------------------------------


def test_padic_bosonic_trace(capsys):
    code, out, _ = run_main(
        capsys,
        "padic", "--kind", "bosonic", "--binom", "1", "--p", "3", "--N", "1..3",
        "--target", "daehee", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("trace.schema.json"))
    row = payload["rows"][1]
    assert row == {"N": 2, "approx": "4", "residual": "9/2", "vp": 2}


def test_padic_fermionic_single_level(capsys):
    code, out, _ = run_main(
        capsys,
        "padic", "--kind", "fermionic", "--binom", "1", "--p", "3", "--N", "1",
        "--target", "changhee", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["residual"] == "3/2"
    assert payload["rows"][0]["vp"] == 1


def test_trace_serialization(capsys):
    # The daehee target of C(x, 1) is D_1 = -1/2.
    code, out, _ = run_main(
        capsys,
        "padic", "--kind", "bosonic", "--binom", "1", "--p", "3", "--N", "2", "--format", "json",
    )
    assert code == 0
    d = json.loads(out)
    assert d["p"] == 3
    assert d["kind"] == "bosonic"
    assert d["n"] == 1
    assert d["rows"] == [{"N": 2, "approx": "4", "residual": "9/2", "vp": 2}]


def test_padic_rejects_p_two(capsys):
    code, _, err = run_main(capsys, "padic", "--kind", "bosonic", "--binom", "1", "--p", "2", "--N", "1")
    assert code == 2
    assert "odd prime" in err


def test_padic_budget_breach(capsys):
    code, _, err = run_main(
        capsys,
        "padic", "--kind", "bosonic", "--binom", "1", "--p", "3", "--N", "15",
    )
    assert code == 2
    assert "budget" in err


def test_padic_budget_flag_override(capsys):
    code, _, err = run_main(
        capsys,
        "padic", "--kind", "bosonic", "--binom", "0", "--p", "3", "--N", "5",
        "--budget", "100",
    )
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("levels", ["0", "0..2", "-1"])
def test_padic_level_out_of_range_is_usage_error(capsys, levels):
    code, out, err = run_main(
        capsys, "padic", "--kind", "bosonic", "--binom", "1", "--p", "3", "--N", levels
    )
    assert_one_line_usage_error(code, out, err)
    assert "level N must be >= 1" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("padic", "--kind", "bosonic", "--binom", "1", "--p", "3", "--N", text), "--N")
        for text in ("1..", "..2", "3..1")
    ]
    + [
        (("verify", "--id", "E11", "--n-max", "2", "--orders", text), "--orders")
        for text in ("1..2..3", "a..b")
    ],
)
def test_malformed_range_text_is_one_line_naming_the_flag(capsys, argv, flag):
    code, out, err = run_main(capsys, *argv)
    assert_one_line_usage_error(code, out, err)
    assert err.startswith(f"error: {flag} must be 'a..b' or 'a' with integers ")
    assert err.endswith(f"got {argv[-1]!r}\n")


def test_padic_three_folds_json(capsys):
    code, out, _ = run_main(
        capsys,
        "padic", "--kind", "bosonic", "--binom", "2", "--p", "3", "--N", "1..2", "--k", "3",
        "--x0", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("trace.schema.json"))
    assert payload["k"] == 3
    # Nested summation of C(1 + y1 + y2 + y3, 2) over 0..3^N - 1, divided by 3^(3N).
    for row in payload["rows"]:
        M = 3 ** row["N"]
        total = sum(
            comb(1 + y1 + y2 + y3, 2) for y1 in range(M) for y2 in range(M) for y3 in range(M)
        )
        assert Fraction(row["approx"]) == Fraction(total, M**3)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_padic_fold_count_below_one_is_usage_error(capsys, k):
    code, out, err = run_main(
        capsys, "padic", "--kind", "bosonic", "--binom", "1", "--p", "3", "--N", "1", "--k", k
    )
    assert_one_line_usage_error(code, out, err)
    assert "fold count k must be >= 1" in err


def test_padic_deep_fold_count_needs_no_recursion(capsys):
    # The order-3000 Daehee target is the 3000th power of the limit series
    # of the level values, by binary powering, so nothing recurses per
    # order.  The digest is the stdout of the earlier from-scratch number
    # loop.  ``family_numbers(FamilySpec(DAEHEE, 3000), 3)`` in
    # test_families guards the order-by-order fill of the oracle numbers.
    for value in vars(families).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    code, out, err = run_main(
        capsys,
        "padic", "--kind", "bosonic", "--binom", "3", "--p", "3", "--N", "1", "--k", "3000",
        "--budget", str(3**3001),
    )
    assert (code, err) == (0, "")
    assert "target=-563437875 (daehee)" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cbdf38b0e9703c34f32e9da9c729f5e82a492a6aafe8764f71d493563e9c759d"
    )


def test_padic_request_reads_no_family_memo(capsys):
    # The target is the exact integral the approximants tend to, folded by
    # ``padic`` like them, so no request reads the family numbers.
    memos = {name: value for name, value in vars(families).items() if hasattr(value, "cache_info")}
    assert "_numbers_stream" in memos and "_oracle_memo" in memos
    for memo in [*memos.values(), cli._trace]:
        memo.cache_clear()
    for argv in (
        ["--kind", "bosonic", "--binom", "3", "--p", "3", "--N", "1..3", "--k", "2"],
        ["--kind", "fermionic", "--binom", "3", "--p", "3", "--N", "1..3", "--target", "daehee"],
    ):
        code, _, err = run_main(capsys, "padic", *argv)
        assert (code, err) == (0, ""), argv
    filled = {name: memo.cache_info().currsize for name, memo in memos.items()}
    assert not any(filled.values()), filled


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["bosonic", "fermionic"]),
    target=st.sampled_from([None, "daehee", "changhee"]),
    binom=st.integers(0, 12),
    k=st.integers(1, 4),
    x0=st.integers(-3, 3),
)
def test_padic_target_is_the_oracle_value(kind, target, binom, k, x0):
    # The printed target is checked against the family oracle, a route that
    # shares no fold with the approximants.
    argv = ["padic", "--kind", kind, "--binom", str(binom), "--p", "3", "--N", "1",
            "--k", str(k), f"--x0={x0}"]
    argv += ["--target", target] if target else []
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    family = target or ("daehee" if kind == "bosonic" else "changhee")
    kind_of = {"daehee": families.FamilyKind.DAEHEE, "changhee": families.FamilyKind.CHANGHEE}
    spec = families.FamilySpec(kind_of[family], k)
    want = families.family_oracle(spec, binom)(x0) / factorial(binom)
    assert f" target={want} ({family})\n" in out.getvalue().splitlines(keepends=True)[0], argv


def test_padic_nineteen_digit_prime_under_raised_budget(capsys):
    # p = 10^18 + 3 is prime; trial division up to sqrt(p) ran past 30 s.
    start = time.perf_counter()
    code, out, err = run_main(
        capsys,
        "padic", "--kind", "bosonic", "--binom", "1", "--p", "1000000000000000003", "--N", "1",
        "--budget", "10000000000000000000",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (
        "N=1: approx=500000000000000001 residual=1000000000000000003/2 vp=1"
    )
    assert time.perf_counter() - start < 5


def test_padic_prime_at_or_above_the_primality_bound_is_usage_error(capsys):
    # p = 4*10^24 + 27 is within the raised budget but above the bound of
    # the deterministic primality test; trial division ran past 30 s.
    start = time.perf_counter()
    code, out, err = run_main(
        capsys,
        "padic", "--kind", "bosonic", "--binom", "1", "--p", "4000000000000000000000027",
        "--N", "1", "--budget", "100000000000000000000000000000000",
    )
    assert time.perf_counter() - start < 0.5
    assert_one_line_usage_error(code, out, err)
    assert "p must be below 3317044064679887385961981" in err


# Requests whose validation once ran for seconds or without bound: a trial
# division of a large p, 3^N for a huge N, a 10^8-level range expanded before
# any level was checked, and an order-k target folded before the budget check.
UNBOUNDED_PADIC = [
    ("--p", "10000000000000061", "--N", "1"),
    ("--p", "1000000000000000003", "--N", "1"),
    ("--p", "3", "--N", "10000000"),
    ("--p", "3", "--N", "100000000"),
    ("--p", "3", "--N", "1..100000000"),
    ("--p", "3", "--N", "1", "--k", "10000000"),
]


@pytest.mark.parametrize("tail", UNBOUNDED_PADIC)
def test_padic_over_budget_rejected_at_once(capsys, monkeypatch, tail):
    monkeypatch.delenv("MIXEDPOLY_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run_main(capsys, "padic", "--kind", "bosonic", "--binom", "1", *tail)
    assert time.perf_counter() - start < 0.5
    assert_one_line_usage_error(code, out, err)
    assert "exceeds budget 10000000" in err


def _limit_memory():
    # A regression that expands the level range fails with MemoryError
    # instead of taking the machine's memory.
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_padic_over_budget_rejected_at_once_subprocess():
    for tail in UNBOUNDED_PADIC:
        proc = subprocess.run(
            [sys.executable, "-m", "mixedpoly", "padic", "--kind", "bosonic", "--binom", "1", *tail],
            capture_output=True,
            timeout=20,
            preexec_fn=_limit_memory,
        )
        assert proc.returncode == 2, (tail, proc.stderr)
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1, tail


PADIC_SMALL = ("padic", "--kind", "bosonic", "--binom", "0", "--p", "3", "--N", "5")


@pytest.mark.parametrize("value", ["abc", "", "1.5", "0", "-5"])
def test_malformed_budget_env_exit_two(capsys, monkeypatch, value):
    monkeypatch.setenv("MIXEDPOLY_BUDGET", value)
    for argv in (PADIC_SMALL, ("table", "--family", "B", "--order", "1", "--n", "2")):
        code, out, err = run_main(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: MIXEDPOLY_BUDGET must be an integer >= 1")


@pytest.mark.parametrize("value", ["abc", "", "1.5", "0", "-5"])
def test_malformed_budget_flag_exit_two(capsys, monkeypatch, value):
    monkeypatch.delenv("MIXEDPOLY_BUDGET", raising=False)
    code, out, err = run_main(capsys, *PADIC_SMALL, "--budget", value)
    assert code == 2
    assert out == ""
    assert err == f"error: --budget must be an integer >= 1, got '{value}'\n"


def test_budget_env_read_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("MIXEDPOLY_BUDGET", "100")
    code, _, err = run_main(capsys, *PADIC_SMALL)
    assert code == 2
    assert "budget 100" in err
    monkeypatch.setenv("MIXEDPOLY_BUDGET", "abc")
    code, out, _ = run_main(capsys, *PADIC_SMALL, "--budget", "1000")
    assert code == 0
    assert out


@pytest.mark.parametrize("value", ["abc", "", "1.5", "-1", "1001", "10000000", "10^20"])
def test_malformed_width_env_exit_two(capsys, monkeypatch, value):
    monkeypatch.setenv("MIXEDPOLY_WIDTH", value)
    for argv in (PADIC_SMALL, ("table", "--family", "B", "--order", "1", "--n", "2")):
        code, out, err = run_main(capsys, *argv)
        assert_one_line_usage_error(code, out, err)
        assert err == f"error: MIXEDPOLY_WIDTH must be an integer in 0..1000, got {value!r}\n"


@pytest.mark.parametrize("value", ["0", "7", str(cli.MAX_WIDTH)])
def test_width_env_pads_plain_labels(capsys, monkeypatch, value):
    monkeypatch.setenv("MIXEDPOLY_WIDTH", value)
    code, out, _ = run_main(capsys, "table", "--family", "B", "--order", "1", "--n", "1")
    assert code == 0
    width = max(int(value), len("n=0:") + 1)
    assert out == "n=0:".ljust(width) + "1\n" + "n=1:".ljust(width) + "x - 1/2\n"


# -- eval ------------------------------------------------------------------------


def test_eval_changhee_polynomial(capsys):
    code, out, _ = run_main(
        capsys, "eval", "(2/(2+t))*(1+t)^x", "--T", "4", "--n", "1"
    )
    assert code == 0
    assert out == "x - 1/2\n"


def test_eval_trivial_truncation(capsys):
    code, out, _ = run_main(capsys, "eval", "(1+t)^x", "--T", "0")
    assert code == 0
    assert out == "1\n"


def test_eval_expression_with_a_leading_minus_follows_double_dash(capsys):
    # Before "--" argparse reads "-t" as a flag, so the expression is missing.
    assert run_main(capsys, "eval", "--T", "3", "--", "-t") == (0, "(-1)*t\n", "")
    code, out, err = run_main(capsys, "eval", "-t", "--T", "3")
    assert_one_line_usage_error(code, out, err)
    assert err == "error: the following arguments are required: expr\n"


def test_eval_semantic_error_exit_one(capsys):
    code, _, err = run_main(capsys, "eval", "log(t)", "--T", "4")
    assert code == 1
    assert "LogArgNotOne" in err
    assert "line 1, column 1" in err


@pytest.mark.parametrize(
    "src,column,found",
    [("t^\u00b2", 3, "\u00b2"), ("(0\u24607", 3, "\u2460"), ("\u0663+t", 1, "\u0663")],
    ids=["superscript-two", "circled-one", "arabic-indic-three"],
)
def test_eval_non_ascii_digit_is_one_line_lex_error(capsys, src, column, found):
    # str.isdigit admits these; int() rejected the first two with a
    # traceback, and the third evaluated as 3 + t.
    code, out, err = run_main(capsys, "eval", src, "--T", "3")
    assert (code, out) == (1, "")
    assert err == f"error: LexError at line 1, column {column}: unexpected character {found!r}\n"


def test_eval_parse_error_exit_one(capsys):
    code, _, err = run_main(capsys, "eval", "1+", "--T", "4")
    assert code == 1
    assert "ParseError" in err


def test_eval_n_out_of_range_rejected_before_evaluation(capsys, monkeypatch):
    def unreachable(*_):
        raise AssertionError("the series was evaluated")

    monkeypatch.setattr(cli, "eval_text", unreachable)
    code, out, err = run_main(capsys, "eval", "log(t)", "--T", "2", "--n", "9")
    assert_one_line_usage_error(code, out, err)
    assert "--n must lie in 0..2" in err


@pytest.mark.parametrize("fmt", FORMATS)
def test_eval_result_too_large_to_print(capsys, fmt):
    # 2^1000000 has more digits than the interpreter converts to text.  The
    # extracted polynomial is memoized, so the second call prints it again.
    for _ in range(2):
        code, out, err = run_main(
            capsys, "eval", "2^1000000*t", "--T", "2", "--n", "1", "--format", fmt
        )
        assert_one_line_usage_error(code, out, err)
        assert err.startswith("error: result too large to print")


@pytest.mark.parametrize("fmt", FORMATS)
def test_eval_series_too_large_to_print_stores_no_text(capsys, fmt):
    # Without --n every format prints the memoized series' own coefficients,
    # so a render that failed must leave nothing for the second call to read.
    for _ in range(2):
        code, out, err = run_main(capsys, "eval", "2^1000000*t", "--T", "2", "--format", fmt)
        assert_one_line_usage_error(code, out, err)
        assert err.startswith("error: result too large to print")
    big = dsl.eval_text("2^1000000*t", 2).coeffs[1]
    for write in (str, series.XPoly.latex, series.XPoly.coeff_text):
        with pytest.raises(ValueError):
            write(big)


def test_eval_deep_nesting_is_positioned_error(capsys):
    code, out, err = run_main(capsys, "eval", "(" * 3000 + "t" + ")" * 3000, "--T", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError at line 1, column 101:")
    assert err.count("\n") == 1


def test_eval_json_schema(capsys):
    code, out, _ = run_main(
        capsys, "eval", "(1+t)^x", "--T", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("eval.schema.json"))
    code, out, _ = run_main(
        capsys, "eval", "(1+t)^x", "--T", "3", "--n", "2", "--format", "json"
    )
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("eval.schema.json"))
    assert payload["coeffs"] == ["0", "-1", "1"]


# -- JSON writer -------------------------------------------------------------------

# Strings with quotes, backslashes, control characters and non-ASCII text.
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'), st.characters()), max_size=8
)
_JSON_VALUES = st.recursive(
    st.none() | st.integers() | st.sampled_from([-1, -(10**40), 10**400]) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


# Polynomials: the zero one, negative and 10^30-sized numerators, proper
# fractions and integers.
_JSON_POLYS = st.builds(
    lambda num, den: series.XPoly._normalized(num, den),
    st.lists(st.integers() | st.sampled_from([-(10**30), 10**30 + 7]), max_size=5),
    st.sampled_from([1, 2, 6, 10**30]),
)
_JSON_TREES = st.recursive(
    st.none() | st.integers() | _JSON_TEXT | _JSON_POLYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


def _as_standard(value):
    """``value`` with each polynomial replaced by its list of coefficient strings."""
    if isinstance(value, series.XPoly):
        return [str(c) for c in value.coeffs] or ["0"]
    if isinstance(value, dict):
        return {key: _as_standard(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_standard(item) for item in value]
    return value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(value=_JSON_VALUES | _JSON_TREES)
@example(value=series.XPoly())
@example(value=[series.XPoly._normalized([-(10**30), 0, 3], 2)])
@example(value={"rows": [{"n": 0, "coeffs": series.XPoly()}, {"n": 1, "coeffs": [[series.XPoly((1,))]]}]})
def test_json_writer_matches_the_standard_encoder(value):
    # A polynomial leaf is written as its coefficient strings, the list the
    # CLI printed before polynomials were put in the value itself.
    assert cli._json(value) == json.dumps(_as_standard(value), indent=2)


def test_json_writer_raises_on_an_int_too_long_for_text():
    # _emit turns this ValueError into its "result too large to print" exit.
    value = {"rows": [{"n": 10**5000}]}
    for write in (cli._json, lambda value: json.dumps(value, indent=2)):
        with pytest.raises(ValueError, match="integer string conversion"):
            write(value)


# -- process-level contract --------------------------------------------------------


def test_help_and_version_exit_zero_on_stdout(capsys):
    for argv, head in [
        (["--help"], "usage: mixedpoly "),
        (["table", "--help"], "usage: mixedpoly table "),
        (["--version"], f"mixedpoly {cli.__version__}\n"),
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(head), argv
        assert captured.err == ""


def test_line_break_in_an_echoed_argument_stays_on_one_line(capsys):
    # argparse echoes unrecognized arguments as given, line breaks included.
    code, out, err = run_main(capsys, "eval", "t", "a\nb")
    assert_one_line_usage_error(code, out, err)
    assert err == "error: unrecognized arguments: a\\nb\n"


def test_exit_code_matrix_subprocess():
    cases = [
        (["table", "--family", "D", "--order", "1", "--n", "2"], 0),
        (["verify", "--id", "E17", "--n-max", "4", "--orders", "1..2"], 0),
        (["verify", "--id", "E40", "--variant", "as-printed", "--n-max", "3",
          "--orders", "1..1"], 1),
        (["eval", "log(t)", "--T", "2"], 1),
        (["verify", "--id", "BOGUS"], 2),
        (["padic", "--kind", "bosonic", "--binom", "1", "--p", "2", "--N", "1"], 2),
        (["table", "--family", "Z", "--order", "1", "--n", "1"], 2),
        (["nonsense"], 2),
    ]
    for argv, want in cases:
        proc = run_proc(*argv)
        assert proc.returncode == want, (argv, proc.stderr)


def test_byte_identical_reruns():
    argv = [
        "verify", "--id", "E11,E31", "--n-max", "5", "--orders", "1..2",
        "--format", "json",
    ]
    first = run_proc(*argv)
    second = run_proc(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    argv = ["table", "--mixed", "CC", "--r", "2", "--s", "1", "--n", "6", "--format", "csv"]
    assert run_proc(*argv).stdout == run_proc(*argv).stdout


def test_results_to_stdout_diagnostics_to_stderr():
    proc = run_proc("eval", "log(t)", "--T", "2")
    assert proc.stdout == b""
    assert b"LogArgNotOne" in proc.stderr
    proc = run_proc("table", "--family", "D", "--order", "1", "--n", "1")
    assert proc.stderr == b""
    assert proc.stdout.startswith(b"n=0")


# -- one parser per process --------------------------------------------------------

_PADIC_L3 = ["padic", "--kind", "bosonic", "--binom", "2", "--p", "3", "--N", "1..3"]
_TABLE_D2 = ["table", "--family", "D", "--order", "2", "--n", "3"]

# (environment, argv) in the order one process serves them.  The
# environment is read on every call: the same argv must answer differently.
_REUSE_STEPS = [
    ({}, ["table", "--family", "Z", "--order", "1", "--n", "1"]),
    ({}, ["--help"]),
    ({}, ["--version"]),
    ({}, ["padic", "--kind", "bosonic", "--binom", "1", "--p", "3", "--N", "3..1"]),
    ({"MIXEDPOLY_WIDTH": "12"}, _TABLE_D2),
    ({}, _TABLE_D2),
    ({"MIXEDPOLY_WIDTH": "x"}, _TABLE_D2),
    ({}, ["table", "--help"]),
    ({}, ["verify", "--id", "E17", "--n-max", "4", "--orders", "1..2", "--format", "csv"]),
    ({"MIXEDPOLY_BUDGET": "20"}, _PADIC_L3),
    ({"MIXEDPOLY_BUDGET": "27"}, _PADIC_L3 + ["--format", "json"]),
    ({}, ["eval", "(t/(exp(t)-1))^2*exp(t)^x", "--T", "4", "--format", "latex"]),
    ({}, ["eval", "log(t)", "--T", "2"]),
    ({}, ["eval"]),
]


def _served(monkeypatch, env, argv):
    """Exit code (or SystemExit code), stdout and stderr of one in-process call."""
    for name in ("MIXEDPOLY_BUDGET", "MIXEDPOLY_WIDTH"):
        if name in env:
            monkeypatch.setenv(name, env[name])
        else:
            monkeypatch.delenv(name, raising=False)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_reused_parser_answers_as_a_fresh_one(monkeypatch, fresh_parser):
    fresh = []
    for env, argv in _REUSE_STEPS:
        cli._parser.cache_clear()
        fresh.append(_served(monkeypatch, env, argv))
    cli._parser.cache_clear()
    reused = [_served(monkeypatch, env, argv) for env, argv in _REUSE_STEPS]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [2, ("SystemExit", 0), ("SystemExit", 0), 2, 0, 0, 2,
                     ("SystemExit", 0), 0, 2, 0, 0, 1, 2]
    # The environment is read per call: width pads the labels, and the
    # budget admits level 3 (p^N = 27) only when raised to 27.
    assert reused[4][1].startswith("n=0:        ") and reused[5][1].startswith("n=0: ")
    assert reused[4][1] != reused[5][1]
    assert "MIXEDPOLY_WIDTH" in reused[6][2]
    assert "budget" in reused[9][2] and reused[10][2] == ""


def test_parser_is_built_once_over_many_calls(monkeypatch, capsys, fresh_parser):
    builds = []

    def counting_build():
        builds.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build)
    for i in range(50):
        argv = ["eval", "exp(t)^x", "--T", str(i % 3)] if i % 2 else ["verify", "--id", "NONE"]
        assert main(argv) == (0 if i % 2 else 2)
    capsys.readouterr()
    assert len(builds) == 1


def _parsed(parse, argv):
    """How ``parse(argv)`` ends: its values, its usage error, or its SystemExit and stdout."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            args = parse(argv)
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    values = dict(vars(args))
    args.budget, args.width = 1, 0  # as main sets them
    return "values", values


def _assert_parse_matches_a_fresh_parser(argv):
    want = _parsed(cli.build_parser().parse_args, argv)
    for _ in range(2):  # parsing leaves the reused parser unchanged
        assert _parsed(cli._parse, argv) == want, argv


def test_parse_of_golden_argv_matches_a_fresh_parser():
    for argv, _, _ in GOLDEN:
        _assert_parse_matches_a_fresh_parser(shlex.split(argv))


# Values for each flag, valid ones and ones argparse or a flag's bound rejects.
_FLAG_VALUES = {
    "--family": ["B", "Ch", "Z"], "--fam": ["D"], "--order": ["2", "-1", "x"],
    "--mixed": ["CC", "BE"], "--r": ["1", "1.5"], "--s": ["2", "-3"], "--n": ["3", "0", "-1", "x"],
    "--id": ["all", "E11", ""], "--n-max": ["4", "-1"], "--n-m": ["2"],
    "--orders": ["1..3", "3..1", "2", "x"], "--variant": ["corrected", "as-printed", "typo"],
    "--kind": ["bosonic", "fermionic"], "--binom": ["2", "-2"], "--p": ["3", "2", "x"],
    "--N": ["1..3", "-2..2", "4"], "--target": ["daehee", "changhee"], "--k": ["2", "0"],
    "--x0": ["-1", "1"], "--T": ["6", "-1", "1.5"], "--format": [*FORMATS, "xml"],
    "--budget": ["125", "0", "99999999999999999999"],
}
# Per command: the arguments it requires, then the flags it may take.
_COMMAND_ARGS = {
    "table": (["--n"], ["--family", "--fam", "--order", "--mixed", "--r", "--s", "--n"]),
    "verify": (["--id"], ["--id", "--n-max", "--n-m", "--orders", "--variant"]),
    "padic": (["--kind", "--binom", "--p", "--N"], ["--kind", "--target", "--k", "--x0", "--N"]),
    "eval": (["(1+t)^x"], ["--T", "--n"]),
}
_PARSE_NOISE = [
    "--", "-h", "--help", "--version", "--ver", "--bogus", "-", "-3", "1.5", "t", "table", "--n",
]


def _argument(name):
    """``name`` as drawn: a positional as is, a flag with a value, as two tokens or as one."""
    if not name.startswith("-"):
        return st.just([name])
    return st.tuples(st.sampled_from(_FLAG_VALUES[name]), st.sampled_from([0, 0, 0, 1])).map(
        lambda drawn: [f"{name}={drawn[0]}"] if drawn[1] else [name, drawn[0]]
    )


def _command_argv(command):
    required, optional = _COMMAND_ARGS[command]
    return st.tuples(
        st.just([[command]]),
        st.tuples(*map(_argument, required)),
        st.lists(
            st.sampled_from([*optional, "--format", "--budget"]).flatmap(_argument), max_size=3
        ),
        st.lists(st.sampled_from(_PARSE_NOISE).map(lambda token: [token]), max_size=2),
    ).map(lambda parts: sum((token for part in parts for token in part), []))


_PARSE_ARGV = st.one_of(
    *map(_command_argv, _COMMAND_ARGS),
    st.lists(st.sampled_from([*_COMMAND_ARGS, *_PARSE_NOISE, "--format", "json"]), max_size=3),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=_PARSE_ARGV)
def test_parse_of_drawn_argv_matches_a_fresh_parser(argv):
    _assert_parse_matches_a_fresh_parser(argv)


def _argparse_calls_of_parse(argv):
    """How many ``parse_known_args`` calls, by any parser, ``cli._parse(argv)`` makes.

    The parse is first checked against a fresh parser's.
    """
    _assert_parse_matches_a_fresh_parser(argv)
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(1)
        return parse_known_args(self, *args, **kwargs)

    argparse.ArgumentParser.parse_known_args = counted
    try:
        _parsed(cli._parse, argv)
    finally:
        argparse.ArgumentParser.parse_known_args = parse_known_args
    return len(calls)


def test_golden_argv_skip_argparse():
    for argv, _, _ in GOLDEN:
        assert _argparse_calls_of_parse(shlex.split(argv)) == 0, argv


# Values each flag's ``type`` and ``choices`` accept, none starting with "-";
# they may still fail the command's own checks, as --p 2 does.
_WELL_FORMED_VALUES = {
    "--family": ["B", "Ch"], "--order": ["2", "0"], "--mixed": ["CC", "BE"], "--r": ["1"],
    "--s": ["2"], "--n": ["3", "0"], "--id": ["all", "E11", ""], "--n-max": ["4"],
    "--orders": ["1..3", "2"], "--variant": ["corrected", "as-printed"],
    "--kind": ["bosonic", "fermionic"], "--binom": ["2"], "--p": ["3", "2"], "--N": ["1..3", "4"],
    "--target": ["daehee", "changhee"], "--k": ["2", "0"], "--x0": ["1"], "--T": ["6", "0"],
    "--format": list(FORMATS), "--budget": ["125", "99999999999999999999"],
    "expr": ["(1+t)^x", "t", "", "exp(t)^x --T 3"],
}


def _well_formed_argv(command):
    """``command``'s required arguments and up to three more flags, each once, in any order."""
    required, optional = _COMMAND_ARGS[command]
    required = ["expr" if name == "(1+t)^x" else name for name in required]
    optional = sorted({*optional, "--format", "--budget"} - {"--fam", "--n-m", *required})

    def argument(name):
        value = st.sampled_from(_WELL_FORMED_VALUES[name])
        return value.map(lambda v: [v] if name == "expr" else [name, v])

    return (
        st.lists(st.sampled_from(optional), unique=True, max_size=3)
        .flatmap(lambda names: st.tuples(*map(argument, required + names)))
        .flatmap(st.permutations)
        .map(lambda parts: [command, *(token for part in parts for token in part)])
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=st.one_of(*map(_well_formed_argv, _COMMAND_ARGS)))
def test_well_formed_argv_skip_argparse(argv):
    assert _argparse_calls_of_parse(argv) == 0, argv


@pytest.mark.parametrize(
    "argv",
    [
        "table --family B --order 2 --n=3",  # --flag=value
        "table --fam D --order 2 --n 3",  # a prefix of --family
        "eval --T 3 -- -t",  # --
        "verify -h",
        "padic --kind bosonic --binom 2 --p 3 --N 1..2 --x0 -1",  # a value starting with -
        "table --family B --order 2 --n 2 --n 3",  # a flag twice
        "padic --kind bosonic --binom 2 --p x --N 1..2",  # type=int raises ValueError
        "table --family B --order 2",  # no --n
        "eval -t --T 3",  # no expr: -t reads as a flag
    ],
)
def test_other_argv_go_to_argparse(argv):
    assert _argparse_calls_of_parse(shlex.split(argv)) >= 1, argv


def test_no_typed_flag_has_a_text_default():
    # ``_fast_parse`` takes every default as it is, where argparse would
    # convert a text default through the flag's ``type``.
    for name, sub in cli.build_parser().commands.items():
        for action in sub._actions:
            assert not (action.type and isinstance(action.default, str)), (name, action.dest)


# One request of each command in each format, texts whose streams read
# their own terms (exp, log, a quotient by a non-monomial, ^x), and the
# error paths, each with its exit code.
_CYCLE_FREE_ARGV = [
    *(
        (code, [*argv, "--format", fmt])
        for fmt in FORMATS
        for code, argv in [
            (0, ["table", "--family", "Ch", "--order", "2", "--n", "5"]),
            (0, ["table", "--mixed", "BE", "--r", "2", "--s", "1", "--n", "4"]),
            (0, ["verify", "--id", "E11,E34", "--n-max", "4", "--orders", "1..2"]),
            (0, ["eval", "(t/(exp(t)-1))^2*exp(t)^x", "--T", "5"]),
            (0, ["eval", "(log(1+t)/t)^2*(1+t+t^2)^x", "--T", "5", "--n", "3"]),
            (0, ["padic", "--kind", "fermionic", "--binom", "2", "--p", "3", "--N", "1..2",
                 "--target", "daehee"]),
        ]
    ),
    (0, ["eval", "exp(t)*log(1+t)", "--T", "6"]),
    (0, ["eval", "1/(1-t-t^2)", "--T", "6"]),
    (0, ["eval", "(2/(2+t))*(exp(t)-t)^x", "--T", "6"]),
    (0, ["eval", "(1+t)^x/(1-t)^2", "--T", "6", "--n", "4"]),
    (1, ["eval", "(exp(t)^x-1)/(exp(t)^x-1)", "--T", "4"]),  # DslError after streams
    (1, ["eval", "log(1+", "--T", "4"]),  # DslError while parsing
    (2, ["table", "--family", "B", "--order", "2", "--n", "x"]),  # argparse error
    (2, ["padic", "--kind", "bosonic", "--binom", "2", "--p", "3", "--N", "1..40"]),  # budget
    (2, ["padic", "--kind", "bosonic", "--binom", "2", "--p", "4", "--N", "1..2"]),  # _checked
]


# Requests that exit through SystemExit after printing help or the version.
_HELP_ARGV = [["--help"], ["-h"], ["table", "-h"], ["verify", "-h"], ["padic", "-h"],
              ["eval", "--help"], ["--version"]]


def test_requests_leave_no_reference_cycles(monkeypatch):
    # Every request frees its own objects by reference counting, cold and
    # warm, help and version included.  The parser's build is the one cycle
    # allowed; it is collected before the requests run.
    def serve():
        for _ in ("cold", "warm"):
            for code, argv in _CYCLE_FREE_ARGV:
                assert _served(monkeypatch, {}, argv)[0] == code, argv
            for argv in _HELP_ARGV:
                assert _served(monkeypatch, {}, argv)[0] == ("SystemExit", 0), argv

    _clear_library_memos()
    cli._parser()
    assert not left_for_the_collector(serve)


# Requests whose results the library or the CLI memoizes: passing and
# failing instances, a whole series, one extracted row, a failing text with
# and without --n, p-adic traces and tables, each with the memo that
# answers it warm.  A table's rows are the families' streams, which keep no
# hit count.
_MEMOIZED_ARGV = [
    (["verify", "--id", "E34,E40", "--n-max", "5", "--orders", "1..2", "--variant", "as-printed"],
     mixed._report),
    (["verify", "--id", "all", "--n-max", "3", "--orders", "1..2"], mixed._report),
    (["eval", "(log(1+t)/t)^2*(1+t)^x", "--T", "6"], dsl.eval_text),
    (["eval", "(t/(exp(t)-1))^2*exp(t)^x", "--T", "6", "--n", "4"], cli._extracted),
    (["eval", "log(t)", "--T", "4"], dsl.eval_text),
    (["eval", "log(t)", "--T", "4", "--n", "2"], cli._extracted),
    (["padic", "--kind", "bosonic", "--binom", "3", "--p", "3", "--N", "1..3", "--k", "2",
      "--x0", "1"], cli._trace),
    (["padic", "--kind", "fermionic", "--binom", "2", "--p", "5", "--N", "1..2", "--target",
      "daehee"], cli._trace),
    (["table", "--family", "C", "--order", "2", "--n", "6"], None),
    (["table", "--mixed", "CD", "--r", "1", "--s", "2", "--n", "5"], None),
]


def _clear_library_memos():
    for module in (series, families, mixed, dsl, cli):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.mark.parametrize("fmt", FORMATS)
def test_memoized_results_print_the_same_bytes_cold_and_warm(monkeypatch, fmt):
    for argv, memo in _MEMOIZED_ARGV:
        argv = [*argv, "--format", fmt]
        _clear_library_memos()
        cold = _served(monkeypatch, {}, argv)
        warm = [_served(monkeypatch, {}, argv) for _ in range(2)]
        assert warm == [cold, cold], argv
        if memo is None:
            continue
        info = memo.cache_info()
        # The warm calls are answered from the memo, except a failing text's,
        # which no memo holds.
        assert bool(info.hits) == (argv[0] == "verify" or cold[0] == 0), argv
        assert bool(info.currsize) == bool(info.hits), argv


_PADIC_TRACE = ["padic", "--kind", "fermionic", "--binom", "3", "--p", "3", "--N", "1..2",
                "--k", "2", "--x0", "2"]


def test_repeated_padic_request_traces_once(capsys, monkeypatch):
    traced = cli.convergence_trace
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return traced(*args, **kwargs)

    monkeypatch.setattr(cli, "convergence_trace", counted)
    cli._trace.cache_clear()
    for fmt in FORMATS:
        outs = {run_main(capsys, *_PADIC_TRACE, "--format", fmt) for _ in range(3)}
        assert len(outs) == 1 and outs.pop()[0] == 0, fmt
    assert len(calls) == 1


# p^N = 27 at the top level of _PADIC_L3: a budget of 26 rejects it.
_LOWER_BUDGETS = [({}, ["--budget", "26"]), ({"MIXEDPOLY_BUDGET": "26"}, [])]


@pytest.mark.parametrize("env, flags", _LOWER_BUDGETS)
def test_lower_budget_after_a_warm_trace_is_still_a_usage_error(monkeypatch, env, flags):
    cli._trace.cache_clear()
    cold = _served(monkeypatch, env, [*_PADIC_L3, *flags])
    assert cold[0] == 2 and cold[1] == "" and "exceeds budget 26" in cold[2], cold
    for warm_env, warm_flags in [({}, []), ({}, ["--budget", "27"]), ({"MIXEDPOLY_BUDGET": "27"}, [])]:
        assert _served(monkeypatch, warm_env, [*_PADIC_L3, *warm_flags])[0] == 0
        for lower_env, lower_flags in _LOWER_BUDGETS:
            assert _served(monkeypatch, lower_env, [*_PADIC_L3, *lower_flags]) == cold
    # The default budget's trace and the one at 27; no rejection is memoized.
    assert cli._trace.cache_info().currsize == 2


# -- argv fuzz ---------------------------------------------------------------------
#
# Mostly well-formed argv with small sizes (n, T <= 6, p^N <= 125), so that
# most draws reach the library rather than stop in argparse.

_SMALL = st.integers(-1, 6)


def _flag(name, values):
    """``[name, value]`` with ``value`` drawn from ``values``."""
    return values.map(lambda v: [name, str(v)])


def _maybe(name, values):
    """An optional flag: nothing, or ``[name, value]``."""
    return st.one_of(st.just([]), _flag(name, values))


def _range(top):
    return st.one_of(
        st.integers(-1, top).map(str),
        st.tuples(st.integers(-1, top), st.integers(-1, top)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    )


_SPEC = st.one_of(
    st.tuples(
        _flag("--family", st.sampled_from(["B", "E", "D", "Ch", "C"])), _flag("--order", _SMALL)
    ),
    st.tuples(
        _flag("--mixed", st.sampled_from(["BE", "DC", "CD", "CC"])),
        _flag("--r", st.integers(-1, 3)),
        _flag("--s", st.integers(-1, 3)),
    ),
    st.sampled_from([(["--family", "B"],), (["--family", "B", "--mixed", "BE"],), ([],)]),
)
_TABLE = st.tuples(
    st.just(["table"]), _SPEC.map(lambda parts: sum(parts, [])), _flag("--n", _SMALL)
)
_VERIFY = st.tuples(
    st.just(["verify"]),
    _flag("--id", st.sampled_from(["all", "E11", "E17,E40", "E11,,E14", ",", "nope", " E24 "])),
    _maybe("--n-max", st.integers(-1, 4)),
    _maybe("--orders", st.one_of(_range(3), st.sampled_from(["", "x", "1..", "..2"]))),
    _maybe("--variant", st.sampled_from(["corrected", "as-printed"])),
)
_PADIC = st.sampled_from([(2, 6), (3, 4), (4, 3), (5, 3), (7, 2), (9, 2), (11, 2)]).flatmap(
    lambda p_top: st.tuples(
        st.just(["padic", "--p", str(p_top[0])]),
        _flag("--kind", st.sampled_from(["bosonic", "fermionic"])),
        _flag("--binom", _SMALL),
        _flag("--N", _range(p_top[1])),
        _maybe("--target", st.sampled_from(["daehee", "changhee"])),
        _maybe("--k", st.integers(0, 3)),
        _maybe("--x0", st.integers(-3, 3)),
        _maybe("--budget", st.sampled_from(["125", "0", "x"])),
    )
)
_EXPR = st.one_of(
    st.sampled_from([
        "(2/(2+t))*(1+t)^x", "(t/(exp(t)-1))^2*exp(t)^x", "log(1+t)/t", "log(t)", "1/0",
        "0^(-1)", "x", "", "2^1000000*t", "(" * 200 + "t" + ")" * 200, "9" * 700,
    ]),
    st.lists(
        st.sampled_from(["t", "x", "(", ")", "+", "-", "*", "/", "^", "1", "2", "log(", "exp("]),
        max_size=8,
    ).map("".join),
)
_EVAL = st.tuples(
    _EXPR.map(lambda expr: ["eval", expr]), _maybe("--T", _SMALL), _maybe("--n", st.integers(-1, 7))
)
_ARGV = st.tuples(
    st.one_of(_TABLE, _VERIFY, _PADIC, _EVAL).map(lambda parts: sum(parts, [])),
    _maybe("--format", st.sampled_from(FORMATS + FORMATS + ("xml",))),
    st.sampled_from([[]] * 6 + [["--bogus"], ["--n", "x"], ["3"]]),
).map(lambda parts: sum(parts, []))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_ARGV)
def test_argv_fuzz_exit_codes(argv):
    # Every draw returns from main: only --help and --version raise SystemExit.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
