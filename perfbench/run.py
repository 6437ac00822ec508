"""mixedpoly benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program under test is the
checkout's own ``src/mixedpoly``.  Workloads (see workloads.py and
design.json): ``catalog``, ``gf-eval``, ``padic`` (cold requests, one
forked child each) and ``session`` (argv lists through ``cli.main`` in one
long-lived child).  Each is a closed loop with one client.

``--trace 0`` measures for ``--seconds`` seconds and reports the end-to-end
metrics, with request times scaled to a reference machine speed (see
SpeedProbe);
``--trace 1`` runs a fixed request list (``--seconds`` is not used) once
untraced and once traced, and reports per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 1`` the spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 9  # fresh interpreters per run; setup_s is their median
# Length of a traced run's fixed request list: one round of each cold
# workload's generator, ten rounds of the session's.
TRACE_REQUESTS = {"catalog": 40, "gf-eval": 45, "padic": 36, "session": 200}

# Median time of speed_kernel() on the reference machine (2-vCPU Intel Xeon,
# Python 3.11).  Reported times are scaled by CAL_REFERENCE_S / (median
# kernel time in this run); see SpeedProbe.
CAL_REFERENCE_S = 0.005
CAL_INTERVAL_S = 0.25

END_TO_END = (
    ("setup_s", "s"),
    ("req_p50_s", "s"),
    ("req_p90_s", "s"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# Machine speed
# --------------------------------------------------------------------------


def speed_kernel() -> float:
    """Seconds for a fixed pure-Python load of rational and big-integer
    arithmetic, the operations mixedpoly spends its time in."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
    x = 7**3000
    for i in range(1000):
        x = x * (i + 3) // (i + 2)
    return perf_counter() - t0


class SpeedProbe:
    """Samples of speed_kernel() taken during a run.

    The CPU this benchmark shares runs the same code up to twice as fast
    at one time as at another, for minutes at a stretch.  Run-level times
    are therefore scaled to the reference speed by ``factor()``; the raw
    figures are printed beside them.  Samples come from every cold request
    child just before its request, and from the session child at most every
    CAL_INTERVAL_S between requests (``tick``).
    """

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self) -> None:
        now = perf_counter()
        if now >= self._next:
            self.samples.append(speed_kernel())
            self._next = now + CAL_INTERVAL_S

    def factor(self) -> float:
        # No sample means no request child came back; leave times raw.
        return CAL_REFERENCE_S / statistics.median(self.samples) if self.samples else 1.0


# --------------------------------------------------------------------------
# Set-up time: a fresh interpreter importing the package
# --------------------------------------------------------------------------

# CPU time, not wall time: a fresh interpreter's import sometimes waits
# as long again for the shared machine, which is no work of the package.
_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.process_time()\n"
    "import mixedpoly, mixedpoly.cli\n"
    "elapsed = time.process_time() - t0\n"
    "print(elapsed, mixedpoly.__file__)\n"
)


def measure_setup(root: Path) -> float:
    """Median CPU seconds for fresh interpreters to import the package.

    Not scaled by SpeedProbe: over ten runs the raw CPU time spread less
    than the scaled one."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    # The first import may compile bytecode in a fresh checkout; not timed.
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            _fail(f"importing mixedpoly failed:\n{proc.stderr}")
        elapsed, location = proc.stdout.split()
        if not Path(location).resolve().is_relative_to(root / "src"):
            _fail(f"imported mixedpoly from {location}, not from this checkout")
        if attempt:
            times.append(float(elapsed))
    return statistics.median(times)


# --------------------------------------------------------------------------
# Children
# --------------------------------------------------------------------------


def in_child(fn, *args) -> dict:
    """Run fn(*args) in a forked child and return its (picklable) result.

    The child exits with os._exit, so nothing it did survives; the parent
    waits for it before returning.  A child that crashes yields
    {"crash": reason}.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(fn(*args), protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        except BaseException:  # report anything, then leave the child
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"crash": f"request child exited with status {status}"}
    return pickle.loads(data)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _memo_tables() -> list:
    """Every functools.lru_cache table bound in a mixedpoly module."""
    tables = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "mixedpoly" or name.startswith("mixedpoly.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                tables[id(value)] = value
    return list(tables.values())


def _memo_stats(tables) -> dict:
    out = {}
    for layer in ("families", "mixed"):
        infos = [t.cache_info() for t in tables if t.__module__ == f"mixedpoly.{layer}"]
        out[layer] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
    return out


def _checked(check, *args) -> str | None:
    """Run an output check; output it cannot even parse is wrong output."""
    try:
        return check(*args)
    except Exception as exc:
        return f"output check raised {type(exc).__name__}: {exc}"


def cold_request(job: dict, checks, tables, traced: bool) -> dict:
    """Body of a cold request child: isolation check, call, output check."""
    stale = [t.__name__ for t in tables if t.cache_info().currsize]
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    call, check = workloads.prepare(job, checks)
    gc.collect()
    # The machine's speed as this child sees it, just before the request.
    speed = speed_kernel()
    t0 = perf_counter()
    try:
        result = call()
    except Exception as exc:  # an unexpected raise is a failed request
        return {"why": f"raised {type(exc).__name__}: {exc}", "seconds": perf_counter() - t0, "speed": speed}
    seconds = perf_counter() - t0
    why = _checked(check, result)
    if stale:  # the request was not cold: its timing and counts do not count
        why = f"memo tables not empty at request start: {stale}"
    out = {"why": why, "seconds": seconds, "rss_mb": _rss_mb(), "speed": speed}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["memo"] = _memo_stats(tables)
        out["spans"] = tracer.spans
    return out


def session_child(stream, deadline: float | None, count: int | None, checks, tables, traced: bool) -> dict:
    """Body of the session child: send argv lists until the deadline or count."""
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import mixedpoly.cli as cli
    import workloads

    checker = workloads.SessionChecker(checks)
    probe = SpeedProbe()
    seconds, failures, stdout_bytes, nonzero = [], [], 0, 0
    while (count is None or len(seconds) < count) and (deadline is None or perf_counter() < deadline):
        if not traced:
            probe.tick()
        req = next(stream)
        if tracer is not None:
            tracer.request_id = len(seconds)
        t0 = perf_counter()
        try:
            code, out, err = workloads.run_cli(cli.main, req["argv"])
        except Exception as exc:  # an unexpected raise is a failed request
            seconds.append(perf_counter() - t0)
            failures.append(f"{req['argv']}: raised {type(exc).__name__}: {exc}")
            continue
        seconds.append(perf_counter() - t0)
        stdout_bytes += len(out.encode())
        nonzero += code != 0
        why = _checked(checker.check, req, code, out, err)
        if why:
            failures.append(f"{req['argv']}: {why}")
    result = {"seconds": seconds, "failures": failures, "rss_mb": _rss_mb(), "speed": probe.samples}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["trace"]["counts"]["cli.stdout_bytes"] = stdout_bytes
        result["trace"]["counts"]["cli.exit_nonzero"] = nonzero
        result["memo"] = _memo_stats(tables)
        result["spans"] = tracer.spans
    return result


# --------------------------------------------------------------------------
# End-to-end run
# --------------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def end_to_end(workload: str, seed: int, seconds: float, checks, tables, probe: SpeedProbe) -> tuple[dict, int, list]:
    """Raw metrics of a time-bounded run; ``probe`` collects speed samples."""
    import workloads

    stream = workloads.requests(workload, seed)
    latencies, failures, rss = [], [], []
    start = perf_counter()
    if workload == "session":
        res = in_child(session_child, stream, start + seconds, None, checks, tables, False)
        if "crash" in res:
            _fail(res["crash"])
        latencies, failures, rss = res["seconds"], res["failures"], [res["rss_mb"]]
        probe.samples += res["speed"]
    else:
        while perf_counter() - start < seconds:
            job = next(stream)
            sent = perf_counter()
            res = in_child(cold_request, job, checks, tables, False)
            # A child that died has no timing of its own; charge the round trip.
            latencies.append(res.get("seconds", perf_counter() - sent))
            why = res.get("crash") or res.get("why")
            if why:
                failures.append(f"{job}: {why}")
            if "rss_mb" in res:
                rss.append(res["rss_mb"])
            if "speed" in res:
                probe.samples.append(res["speed"])
    if len(latencies) < 2:
        _fail(f"only {len(latencies)} requests completed in {seconds} s")
    metrics = {
        "req_p50_s": statistics.median(latencies),
        "req_p90_s": _percentile(latencies, 0.90),
        "req_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": max(rss) if rss else 0.0,
        "fail_ratio": len(failures) / len(latencies),
    }
    return metrics, len(latencies), failures


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------

PER_LAYER = (
    ("series.mul.calls", "count"), ("series.mul.self_s", "s"),
    ("series.div.calls", "count"), ("series.div.self_s", "s"),
    ("series.pow.calls", "count"), ("series.pow.self_s", "s"),
    ("series.compose.calls", "count"), ("series.compose.self_s", "s"),
    ("series.xpoly_mul.calls", "count"), ("series.coeff_bits_max", "bits"),
    ("series.self_s", "s"),
    ("families.family_gf.calls", "count"), ("families.family_gf.self_s", "s"),
    ("families.family_kernel.self_s", "s"),
    ("families.family_oracle.calls", "count"), ("families.family_oracle.self_s", "s"),
    ("families.family_numbers.self_s", "s"), ("families.stirling.calls", "count"),
    ("families.memo_hits", "count"), ("families.memo_misses", "count"),
    ("families.memo_hit_ratio", "ratio"), ("families.self_s", "s"),
    ("mixed.verify_identity.calls", "count"), ("mixed.verify_identity.self_s", "s"),
    ("mixed.mixed_gf.self_s", "s"), ("mixed.mixed_poly.self_s", "s"),
    ("mixed.render_report.self_s", "s"), ("mixed.instances", "count"),
    ("mixed.instances_failed", "count"), ("mixed.memo_hit_ratio", "ratio"),
    ("mixed.self_s", "s"),
    ("padic.convergence_trace.calls", "count"), ("padic.multifold_integral.self_s", "s"),
    ("padic.finite_integral.self_s", "s"), ("padic.shift_residual.self_s", "s"),
    ("padic.vp.self_s", "s"), ("padic.summands", "count"), ("padic.self_s", "s"),
    ("dsl.tokenize.self_s", "s"), ("dsl.parse.self_s", "s"),
    ("dsl.eval_series.calls", "count"), ("dsl.eval_series.self_s", "s"),
    ("dsl.nodes", "count"), ("dsl.eval_per_node", "ratio"), ("dsl.errors", "count"),
    ("dsl.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"), ("cli.exit_nonzero", "count"), ("cli.self_s", "s"),
    ("trace.requests", "count"), ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_share", "ratio"),
)


class LayerTotals:
    """Sums the per-request snapshots of a traced run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.bits_max = 0
        self.memo = {"families": [0, 0], "mixed": [0, 0]}
        self.traced_s = 0.0
        self.covered_s = 0.0

    def add(self, snap: dict, memo: dict, request_s: float) -> None:
        for name, value in snap["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + value
        for name, value in snap["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        for name, value in snap["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.bits_max = max(self.bits_max, snap["bits_max"])
        for layer, (hits, misses) in memo.items():
            self.memo[layer][0] += hits
            self.memo[layer][1] += misses
        self.traced_s += request_s
        self.covered_s += snap["top_level_s"]

    def metrics(self, requests: int, untraced_s: float) -> dict:
        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name, _unit in PER_LAYER:
            head, _, tail = name.rpartition(".")
            if tail == "calls":
                out[name] = self.calls.get(head, self.counts.get(name, 0))
            elif tail == "self_s" and "." in head:
                out[name] = self.self_s.get(head, 0.0)
            elif tail == "self_s":  # a whole layer
                out[name] = sum(v for k, v in self.self_s.items() if k.startswith(head + "."))
            else:
                out[name] = self.counts.get(name, 0)
        out["families.stirling.calls"] = (
            self.calls.get("families.stirling1", 0) + self.calls.get("families.stirling2", 0)
        )
        hits, misses = self.memo["families"]
        out["families.memo_hits"], out["families.memo_misses"] = hits, misses
        out["families.memo_hit_ratio"] = ratio(hits, hits + misses)
        out["mixed.memo_hit_ratio"] = ratio(self.memo["mixed"][0], sum(self.memo["mixed"]))
        out["series.coeff_bits_max"] = self.bits_max
        out["dsl.eval_per_node"] = ratio(out["dsl.eval_series.calls"], out["dsl.nodes"])
        out["trace.requests"] = requests
        out["trace.overhead_ratio"] = ratio(self.traced_s, untraced_s)
        out["trace.uncovered_share"] = ratio(self.traced_s - self.covered_s, self.traced_s)
        return out


def traced_run(workload: str, seed: int, checks, tables) -> tuple[dict, int, list, list]:
    """Fixed request list, each request untraced then traced; layer totals."""
    import workloads

    count = TRACE_REQUESTS[workload]
    totals = LayerTotals()
    failures, spans = [], []
    untraced_s = 0.0
    if workload == "session":
        plain, *runs = [
            in_child(session_child, workloads.requests(workload, seed), None, count, checks, tables, traced)
            for traced in (False, True, True)
        ]
        for res in [plain] + runs:
            if "crash" in res:
                _fail(res["crash"])
        failures += plain["failures"] + runs[0]["failures"]
        if runs[0]["trace"]["calls"] != runs[1]["trace"]["calls"]:
            failures.append("two identical traced sessions gave different call counts")
        untraced_s = sum(plain["seconds"])
        totals.add(runs[0]["trace"], runs[0]["memo"], sum(runs[0]["seconds"]))
        return totals.metrics(count, untraced_s), count, failures, runs[0]["spans"]

    jobs = list(itertools.islice(workloads.requests(workload, seed), count))
    for index, job in enumerate(jobs):
        plain = in_child(cold_request, job, checks, tables, False)
        traced = in_child(cold_request, job, checks, tables, True)
        for res in (plain, traced):
            why = res.get("crash") or res.get("why")
            if why:
                failures.append(f"{job}: {why}")
        if "trace" not in traced:
            continue
        if index == 0:
            again = in_child(cold_request, job, checks, tables, True)
            if again.get("trace", {}).get("calls") != traced["trace"]["calls"]:
                failures.append("two identical cold requests gave different call counts")
        untraced_s += plain.get("seconds", 0.0)
        totals.add(traced["trace"], traced["memo"], traced["seconds"])
        spans += [(name, start, end, parent, index) for name, start, end, parent, _ in traced["spans"]]
    return totals.metrics(len(jobs), untraced_s), len(jobs), failures, spans


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for name, start, end, parent, request in spans:
            fh.write(json.dumps([request, name, start, end, parent]) + "\n")


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "gf-eval", "padic", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "mixedpoly" / "__init__.py").is_file():
        _fail(f"no mixedpoly source under {root / 'src'}; run from the root of a checkout")
    # The documented defaults, whatever the caller's environment says.
    for var in ("MIXEDPOLY_BUDGET", "MIXEDPOLY_WIDTH"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(root / "src"))

    import workloads

    checks = workloads.Checks(root)
    # The import-only parent: every request child is forked from here.
    import mixedpoly  # noqa: F401
    import mixedpoly.cli  # noqa: F401

    tables = _memo_tables()
    if threading.active_count() != 1:
        _fail("importing mixedpoly started a thread; requests would not be isolated")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}")
    print(f"workload {args.workload}: closed loop, 1 client; seed {args.seed}; "
          f"sizes {workloads.SIZE_RANGES[args.workload]}")

    if args.trace:
        metrics, attempted, failures, spans = traced_run(args.workload, args.seed, checks, tables)
        out_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(out_path, spans)
        print(f"{len(spans)} spans written to {out_path.relative_to(root)}")
        units = dict(PER_LAYER)
    else:
        probe = SpeedProbe()
        setup_s = measure_setup(root)
        raw, attempted, failures = end_to_end(args.workload, args.seed, args.seconds, checks, tables, probe)
        raw["setup_s"] = setup_s
        factor = probe.factor()
        print(f"{attempted} requests, {len(failures)} failed; fail_ratio {raw['fail_ratio']:.4g} ratio")
        print(f"speed factor {factor:.4f} from {len(probe.samples)} samples; raw: "
              + ", ".join(f"{name} {raw[name]:.6g}" for name, _ in END_TO_END))
        metrics = {
            "setup_s": raw["setup_s"],
            "req_p50_s": raw["req_p50_s"] * factor,
            "req_p90_s": raw["req_p90_s"] * factor,
            "req_per_s": raw["req_per_s"] / factor,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = dict(END_TO_END)

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
