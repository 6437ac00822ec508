"""Seeded workloads: request generation, execution and output checks.

Every workload is a closed loop with one client: the next request is sent
only after the previous verdict is back.  ``catalog``, ``gf-eval`` and
``padic`` requests run cold, each in a child forked from a parent that has
only imported mixedpoly; ``session`` sends argv lists through ``cli.main``
inside one long-lived child.

Requests are drawn in rounds (see "Request generation" below) from
``random.Random`` seeded by the workload name and seed, as plain data; the
parent never calls into mixedpoly.  Each request is checked against
references that do not come from the code being timed (reference.py).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial
from pathlib import Path

import reference as ref

IDENTITY_IDS = ("E11", "E14", "E17", "E21", "E24", "E28", "E31", "E34", "E37", "E40")
SINGLE_ORDER_IDS = frozenset({"E11", "E14", "E17"})  # s = 0 in reports
VARIANTS = ("corrected", "as-printed")

DEFAULT_BUDGET = 10**7  # MIXEDPOLY_BUDGET default documented in README

# Size ranges, recorded in design.json and printed with each result.
CATALOG_N_MAX = (8, 18)
CATALOG_ORDER_MAX = 3
GF_T = (12, 28)
PADIC_N_BINOM = (1, 8)
PADIC_PRIMES = (3, 5, 7)
PADIC_X0 = (0, 3)
# Per-request work caps for padic, about 0.3 s on a 2-vCPU Xeon: summands
# over all levels of one convergence trace, and 2 M (deg + 1) integrand
# term evaluations for one shift residual.
TRACE_SUMMAND_CAP = 36_000
SHIFT_TERM_CAP = 48_000

SIZE_RANGES = {
    "catalog": f"n_max {CATALOG_N_MAX[0]}..{CATALOG_N_MAX[1]}, orders 1..k with k in 1..{CATALOG_ORDER_MAX}",
    "gf-eval": f"T {GF_T[0]}..{GF_T[1]} ((1+t)^x forms up to 21), exponents 1..{ref.ORDER_MAX}",
    "padic": f"p in {PADIC_PRIMES}, n {PADIC_N_BINOM[0]}..{PADIC_N_BINOM[1]}, x0 {PADIC_X0[0]}..{PADIC_X0[1]}, "
    f"top level at or one below the {TRACE_SUMMAND_CAP}-summand cap",
    "session": "table n <= 24, verify n_max <= 10, eval T <= 12, padic p^N <= 125",
}


# --------------------------------------------------------------------------
# Request generation (parent side, plain data only)
#
# Each workload is an endless sequence of rounds.  A round sends every
# input class at every size on a fixed ladder once, in a seeded order, so
# every round does the same work whatever the seed; the seed draws the
# free parameters (variants, exponents, n, x0, ...) and the order.  This
# keeps medians and the p90 tail comparable across seeds.
# --------------------------------------------------------------------------

# (n_max, orders 1..k) slots spanning n_max 8..18 and k 1..3.
_CATALOG_SLOTS = ((CATALOG_N_MAX[0], 3), (11, 1), (14, 2), (CATALOG_N_MAX[1], CATALOG_ORDER_MAX))


def catalog_rounds(rng: random.Random):
    """Each round: every identity at every slot, two slots of each
    identity read as printed and two corrected (40 requests)."""
    while True:
        round_ = []
        for ident in IDENTITY_IDS:
            variants = list(VARIANTS) * (len(_CATALOG_SLOTS) // len(VARIANTS))
            rng.shuffle(variants)
            round_ += [
                {"kind": "verify", "id": ident, "variant": variant, "n_max": n_max, "k": k}
                for (n_max, k), variant in zip(_CATALOG_SLOTS, variants)
            ]
        rng.shuffle(round_)
        yield round_


def _signed(rng: random.Random, kernel_is_unit: bool) -> int:
    e = rng.randint(1, ref.ORDER_MAX)
    return -e if kernel_is_unit and rng.random() < 0.5 else e


def _gf_text(rng: random.Random, code: str) -> str:
    if code in ref.FAMILY_CODES:
        return ref.family_text(code, _signed(rng, code == "Ch"))[0]
    r = rng.randint(1, ref.ORDER_MAX)
    return ref.mixed_text(code, r, _signed(rng, code in ("DC", "CC")))[0]


# T ladders.  The (1+t)^x forms cost about 6x the exp(t)^x forms at equal
# T and grow like T^3.5, so they stop at 21: a 30 s run then holds >= 100
# requests.  Their top rung appears twice, so the heaviest group is about a
# quarter of a round and the p90 falls inside it rather than at its edge.
_GF_LADDERS = (
    (("B", "E", "BE"), (GF_T[0], 20, GF_T[1])),
    (("D", "Ch", "C", "DC", "CD", "CC"), (GF_T[0], 13, 14, 16, 21, 21)),
)


def gf_rounds(rng: random.Random):
    """Each round: every GF text at every T of its ladder (45 requests)."""
    while True:
        round_ = [(code, T) for codes, ladder in _GF_LADDERS for code in codes for T in ladder]
        rng.shuffle(round_)
        yield [{"kind": "eval", "text": _gf_text(rng, code), "T": T} for code, T in round_]


def _trace_level_cap(p: int, k: int) -> int:
    """Largest N with p^(kN) within the default budget and the summand cap."""
    total, N = 0, 0
    while True:
        M = p ** (N + 1)
        step = M if k == 1 else 2 * M - 1
        if M**k > DEFAULT_BUDGET or total + step > TRACE_SUMMAND_CAP:
            return N
        total += step
        N += 1


def _shift_level_cap(p: int, degree: int) -> int:
    N = 1
    while 2 * p ** (N + 1) * (degree + 1) <= SHIFT_TERM_CAP:
        N += 1
    return N


def padic_rounds(rng: random.Random):
    """Each round: every (kind, prime, top level, fold) trace and every
    (kind, prime, level) shift residual (36 requests).  The top level sits
    at the cap or one below it, so the O(p^N) sums carry the cost."""
    while True:
        jobs = []
        for kind in ("bosonic", "fermionic"):
            for p in PADIC_PRIMES:
                for below in (0, 1):
                    for k in (1, 2):
                        top = _trace_level_cap(p, k) - below
                        jobs.append({
                            "kind": "trace", "integral": kind, "k": k, "p": p,
                            "n": rng.randint(*PADIC_N_BINOM), "x0": rng.randint(*PADIC_X0),
                            "levels": list(range(1, top + 1)),
                        })
                    degree = rng.randint(1, ref.SHIFT_DEGREE_MAX)
                    jobs.append({
                        "kind": "shift", "integral": kind, "p": p, "degree": degree,
                        "family": rng.choice(ref.FAMILY_CODES),
                        "N": _shift_level_cap(p, degree) - below,
                    })
        rng.shuffle(jobs)
        yield jobs


# Session pools: small on purpose, so the memo tables are hit.
_FORMATS = ("json", "csv", "latex", "plain")
_TABLE_N = (8, 16, 24)
_MIXED_RS = ((1, 1), (1, 2), (2, 1))
_VERIFY_N = (6, 8, 10)
_EVAL_T = (6, 9, 12)
_MALFORMED = (
    # (argv, exit code the README documents for it)
    (["verify", "--id", "E99", "--n-max", "4"], 2),  # unknown identity id
    (["padic", "--kind", "bosonic", "--binom", "2", "--p", "9", "--N", "1..2"], 2),  # p not an odd prime
    (["eval", "2$t", "--T", "4"], 1),  # DSL lex error
    (["eval", "(1+t", "--T", "4"], 1),  # DSL parse error
    (["eval", "log(t)", "--T", "4"], 1),  # DSL semantic error
    (["padic", "--kind", "fermionic", "--binom", "1", "--p", "5", "--N", "1..4", "--budget", "100"], 2),  # budget
    (["table", "--family", "B", "--n", "3"], 2),  # bad flags: --family without --order
)
# Per round: 9 table, 3 verify, 4 eval, 3 padic, 1 malformed (5 %).
_SESSION_MIX = ("table",) * 9 + ("verify",) * 3 + ("eval",) * 4 + ("padic",) * 3 + ("malformed",)


def _session_request(rng: random.Random, what: str) -> dict:
    fmt = rng.choice(_FORMATS)
    if what == "table":
        n = rng.choice(_TABLE_N)
        if rng.random() < 0.5:
            code, order = rng.choice(ref.FAMILY_CODES), rng.randint(1, 2)
            argv = ["table", "--family", code, "--order", str(order)]
            text = ref.family_text(code, order)[0]
        else:
            code, (r, s) = rng.choice(ref.MIXED_CODES), rng.choice(_MIXED_RS)
            argv = ["table", "--mixed", code, "--r", str(r), "--s", str(s)]
            text = ref.mixed_text(code, r, s)[0]
        return {"what": what, "argv": argv + ["--n", str(n), "--format", fmt], "text": text,
                "n": n, "exit": 0}
    if what == "verify":
        ident = rng.choice(IDENTITY_IDS)
        variant = "as-printed" if ident in ("E34", "E40") and rng.random() < 0.5 else "corrected"
        n_max = rng.choice(_VERIFY_N)
        argv = ["verify", "--id", ident, "--n-max", str(n_max), "--orders", "1..2",
                "--variant", variant, "--format", fmt]
        # As printed, E34 and E40 fail some instance at n_max >= 6, orders 1..2.
        return {"what": what, "argv": argv, "id": ident, "n_max": n_max, "k": 2,
                "exit": 1 if variant == "as-printed" else 0}
    if what == "eval":
        code = rng.choice(ref.FAMILY_CODES + ref.MIXED_CODES)
        r, s = rng.randint(1, 2), rng.randint(1, 2)
        text = ref.family_text(code, r)[0] if code in ref.FAMILY_CODES else ref.mixed_text(code, r, s)[0]
        T = rng.choice(_EVAL_T)
        argv = ["eval", text, "--T", str(T), "--format", fmt]
        n = rng.randint(0, T) if rng.random() < 0.5 else None
        if n is not None:
            argv += ["--n", str(n)]
        return {"what": what, "argv": argv, "text": text, "T": T, "n": n, "exit": 0}
    if what == "padic":
        kind = rng.choice(("bosonic", "fermionic"))
        binom, p, k, x0 = rng.randint(1, 4), rng.choice((3, 5)), rng.randint(1, 2), rng.randint(0, 2)
        argv = ["padic", "--kind", kind, "--binom", str(binom), "--p", str(p), "--N", "1..3",
                "--k", str(k), "--x0", str(x0), "--format", fmt]
        return {"what": what, "argv": argv, "integral": kind, "n": binom, "p": p, "k": k,
                "x0": x0, "levels": [1, 2, 3], "exit": 0}
    argv, code = rng.choice(_MALFORMED)
    return {"what": what, "argv": list(argv), "exit": code}


def session_rounds(rng: random.Random):
    while True:
        mix = list(_SESSION_MIX)
        rng.shuffle(mix)
        yield [_session_request(rng, what) for what in mix]


ROUNDS = {
    "catalog": catalog_rounds,
    "gf-eval": gf_rounds,
    "padic": padic_rounds,
    "session": session_rounds,
}


def requests(workload: str, seed: int):
    """Endless request stream of a workload; the same seed gives the same stream."""
    for round_ in ROUNDS[workload](random.Random(f"{workload}:{seed}")):
        yield from round_


# --------------------------------------------------------------------------
# Cold requests (child side): build inputs, call, check
# --------------------------------------------------------------------------


class Checks:
    """Reference data and validators shared by every request of a run."""

    def __init__(self, root: Path):
        self.reference = ref.load_reference()
        import jsonschema

        schemas = root / "docs" / "schemas"
        self.validators = {
            name: jsonschema.Draft202012Validator(json.loads((schemas / f"{name}.schema.json").read_text()))
            for name in ("table", "report", "trace", "eval")
        }

    def series_digests(self, text: str) -> list[str]:
        return self.reference["series"][text]

    def family_poly(self, code: str, degree: int) -> list[Fraction]:
        return [Fraction(c) for c in self.reference["family_polys"][code][degree]]


def prepare(job: dict, checks: Checks):
    """(call, check) for one cold request; call() is the timed part.

    check(result) returns None when the output is right, else a reason.
    Must run in the request child after any tracing is installed, so the
    calls resolve through the traced names.
    """
    import mixedpoly as mp

    kind = job["kind"]
    if kind == "verify":
        orders = tuple(range(1, job["k"] + 1))
        variant = mp.Variant(job["variant"])
        return (
            lambda: mp.verify_identity(job["id"], job["n_max"], orders, variant),
            lambda reports: check_verify(job, reports),
        )
    if kind == "eval":
        return (
            lambda: mp.eval_text(job["text"], job["T"]),
            lambda series: check_series(series, job["T"], checks.series_digests(job["text"])),
        )
    integral = mp.IntegralKind(job["integral"])
    if kind == "trace":
        target = ref.fold_shift(ref.limit_values(job["integral"], job["n"]), job["n"], job["k"], job["x0"])
        basis = mp.BinomialBasis(job["n"])
        return (
            lambda: mp.convergence_trace(
                integral, basis, target, job["p"], job["levels"], k=job["k"], x0=job["x0"]
            ),
            lambda trace: check_trace(job, target, trace),
        )
    coeffs = checks.family_poly(job["family"], job["degree"])
    f = mp.XPoly(coeffs)
    ctx = mp.PAdicContext(job["p"], job["N"])
    expected = ref.shift_residual_ref(job["integral"], coeffs, job["p"], job["N"])
    return (
        lambda: mp.shift_residual(integral, f, ctx),
        lambda value: None if value == expected else f"shift residual {value} != {expected}",
    )


def _poly_strings(poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def check_series(series, T: int, digests: list[str]) -> str | None:
    if series.trunc != T or len(series.coeffs) != T + 1:
        return f"series truncated at {series.trunc}, asked {T}"
    for n, poly in enumerate(series.coeffs):
        if ref.coeff_digest(_poly_strings(poly)) != digests[n]:
            return f"coefficient of t^{n} differs from the sympy reference"
    return None


def check_verify(job: dict, reports) -> str | None:
    ident, variant, k = job["id"], job["variant"], job["k"]
    orders = range(1, k + 1)
    s_values = (0,) if ident in SINGLE_ORDER_IDS else orders
    grid = {(n, r, s) for n in range(job["n_max"] + 1) for r in orders for s in s_values}
    got = [(rep.instance.n, rep.instance.r, rep.instance.s) for rep in reports]
    # A vacuous or duplicated verify must not count as a pass.
    if len(got) != len(grid) or set(got) != grid:
        return f"{len(got)} instances reported, expected the {len(grid)}-instance grid"
    if any(rep.instance.identity_id != ident or rep.variant.value != variant for rep in reports):
        return "report labelled with the wrong identity or variant"
    if any(rep.passed == bool(rep.diff.coeffs) for rep in reports):
        return "verdict disagrees with the reported difference"
    failed = [rep.instance for rep in reports if not rep.passed]
    if variant == "corrected" or ident not in ("E28", "E34", "E40"):
        return f"{len(failed)} instances failed; every instance must pass" if failed else None
    if ident == "E28":
        # As printed, E28 uses Ch^(r) for Ch^(s): it coincides with the
        # corrected reading when r == s and fails for some r != s.
        if any(inst.r == inst.s for inst in failed):
            return "as-printed E28 failed an r == s instance"
        if k >= 2 and not failed:
            return "as-printed E28 passed every r != s instance"
        return None
    return None if failed else f"as-printed {ident} passed every instance"


def check_trace(job: dict, target: Fraction, trace) -> str | None:
    rows = trace.rows
    if [row.N for row in rows] != job["levels"]:
        return "trace levels differ from the levels asked"
    for row in rows:
        one_fold = ref.level_values(job["integral"], job["p"], row.N, job["n"])
        expected = ref.fold_shift(one_fold, job["n"], job["k"], job["x0"])
        if row.approximant != expected:
            return f"level {row.N} approximant differs from the closed form"
        if row.residual != expected - target:
            return f"level {row.N} residual is not approximant - target"
        v = ref.valuation(row.residual, job["p"])
        if (v is None and row.vp != float("inf")) or (v is not None and row.vp != v):
            return f"level {row.N} valuation {row.vp} != {v}"
    return None


# --------------------------------------------------------------------------
# Session requests (inside the long-lived child)
# --------------------------------------------------------------------------


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Call cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class SessionChecker:
    """Checks one session's outputs, including byte-identical repeats."""

    _SCHEMA = {"table": "table", "verify": "report", "padic": "trace", "eval": "eval"}

    def __init__(self, checks: Checks):
        self.checks = checks
        self.seen: dict[tuple, str] = {}

    def check(self, req: dict, code: int, out: str, err: str) -> str | None:
        if code != req["exit"]:
            return f"exit code {code}, expected {req['exit']}"
        if "Traceback" in err:
            return "traceback on stderr"
        if code == 2 or (code == 1 and req["what"] != "verify"):
            if not err.strip() or out:
                return "error without a diagnostic, or with output on stdout"
        elif err:
            return "unexpected stderr output"
        key = tuple(req["argv"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.seen.setdefault(key, digest) != digest:
            return "stdout differs from an identical earlier request"
        if req["what"] == "malformed":
            return None
        fmt = req["argv"][req["argv"].index("--format") + 1]
        if fmt == "json":
            payload = json.loads(out)
            errors = list(self.checks.validators[self._SCHEMA[req["what"]]].iter_errors(payload))
            if errors:
                return f"JSON output fails its schema: {errors[0].message}"
            return self._check_json(req, payload)
        if fmt == "csv" and req["what"] in ("table", "eval"):
            rows = [line.split(",") for line in out.splitlines()]
            return self._check_rows(req, [(int(r[0]), r[1:]) for r in rows])
        if req["what"] == "table" and len(out.splitlines()) != req["n"] + 1:
            return "table has the wrong number of rows"
        if not out.strip():
            return "empty output"
        return None

    def _check_rows(self, req: dict, rows: list[tuple[int, list[str]]]) -> str | None:
        digests = self.checks.series_digests(req["text"])
        if req["what"] == "table":
            expected_n = list(range(req["n"] + 1))
        elif req["n"] is None:
            expected_n = list(range(req["T"] + 1))
        else:
            expected_n = [req["n"]]
        if [n for n, _ in rows] != expected_n:
            return "rows differ from the indices asked"
        # Tables and --n print P_n = n! [t^n]; series rows print [t^n].
        scaled = req["what"] == "table" or req["n"] is not None
        for n, coeffs in rows:
            values = [Fraction(c) / (factorial(n) if scaled else 1) for c in coeffs]
            while values and values[-1] == 0:
                values.pop()
            if ref.coeff_digest([str(v) for v in values]) != digests[n]:
                return f"row {n} differs from the sympy reference"
        return None

    def _check_json(self, req: dict, payload) -> str | None:
        what = req["what"]
        if what == "table":
            return self._check_rows(req, [(row["n"], row["coeffs"]) for row in payload["rows"]])
        if what == "eval":
            if req["n"] is None:
                return self._check_rows(req, list(enumerate(payload["coeffs"])))
            return self._check_rows(req, [(req["n"], payload["coeffs"])])
        if what == "verify":
            s_values = (0,) if req["id"] in SINGLE_ORDER_IDS else (1, 2)
            if len(payload) != (req["n_max"] + 1) * 2 * len(s_values):
                return "verify reported the wrong number of instances"
            verdicts = {row["verdict"] for row in payload}
            if req["exit"] == 0 and verdicts != {"pass"}:
                return "corrected reading failed an instance"
            if req["exit"] == 1 and "fail" not in verdicts:
                return "as-printed reading passed every instance"
            return None
        target = ref.fold_shift(ref.limit_values(req["integral"], req["n"]), req["n"], req["k"], req["x0"])
        for row in payload["rows"]:
            one_fold = ref.level_values(req["integral"], req["p"], row["N"], req["n"])
            approx = ref.fold_shift(one_fold, req["n"], req["k"], req["x0"])
            if Fraction(row["approx"]) != approx:
                return f"level {row['N']} approximant differs from the closed form"
            if Fraction(row["residual"]) != approx - target:
                return f"level {row['N']} residual differs from approximant - target"
        return None
