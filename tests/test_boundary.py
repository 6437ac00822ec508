"""The package's boundary, as read from outside it.

The CLI prints ``XPoly.coeffs`` as rationals, and the perfbench tracer wraps
``XPoly.__mul__`` and the ``TSeries`` methods named in its
``_TSERIES_METHODS`` through the class dicts, and reads the bit sizes of the
coefficients ``XPoly.__mul__`` returns.  The perfbench ``session`` workload
sends the malformed argv of its ``_MALFORMED`` through ``cli.main`` and
checks each documented exit code and diagnostic.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from mixedpoly.cli import main
from mixedpoly.families import FamilyKind, FamilySpec, family_gf
from mixedpoly.series import TSeries, XPoly

from series_reference import poly_x, poly_zero


def test_xpoly_mul_is_defined_on_the_class():
    assert "__mul__" in XPoly.__dict__
    assert XPoly.__dict__["__mul__"](poly_x(), poly_x()) == XPoly((0, 0, 1))


def _perfbench_literal(module: str, name: str):
    """The literal bound to ``name`` in perfbench/<module>.py, read from its source without
    importing it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{module}.py"
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"perfbench/{module}.py binds no {name}")


def test_traced_tseries_methods_are_defined_on_the_class():
    # The tracer reads each name from TSeries.__dict__; a method deleted or
    # inherited instead would break a traced benchmark run.
    methods = _perfbench_literal("tracing", "_TSERIES_METHODS")
    assert {"compose", "shift_down", "__mul__"} <= set(methods)
    missing = [name for name in methods if name not in TSeries.__dict__]
    assert not missing, missing


def test_coeffs_are_fractions_and_xpolys():
    gf = family_gf(FamilySpec(FamilyKind.CAUCHY, 2), 5)
    assert isinstance(gf, TSeries)
    assert type(gf.coeffs) is tuple and len(gf.coeffs) == 6
    assert all(type(c) is XPoly for c in gf.coeffs)
    for p in gf.coeffs:
        assert type(p.coeffs) is tuple
        assert all(type(c) is Fraction for c in p.coeffs)
    assert gf.poly(2).coeffs == (Fraction(1, 6), Fraction(1), Fraction(1))
    assert poly_zero().coeffs == ()


@pytest.mark.parametrize("argv, code", _perfbench_literal("workloads", "_MALFORMED"))
def test_session_malformed_requests_return_their_documented_code(capsys, monkeypatch, argv, code):
    # The session checker wants the code, empty stdout and a diagnostic on stderr;
    # main returns the code (no SystemExit) and the diagnostic is one line.
    monkeypatch.delenv("MIXEDPOLY_BUDGET", raising=False)
    monkeypatch.delenv("MIXEDPOLY_WIDTH", raising=False)
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
