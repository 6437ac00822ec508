"""Time the ROADMAP "Baseline to beat" rows, each cold, and record them.

    python3 perfbench/baseline.py --out perfbench/results/baseline.json

Each row runs in a child forked from a parent that has only imported
mixedpoly (the CLI row runs a fresh interpreter), REPEATS times; the median
is recorded with the machine facts.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import in_child  # noqa: E402

REPEATS = 3


def _machine() -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def _timed(fn) -> dict:
    t0 = perf_counter()
    fn()
    return {"seconds": perf_counter() - t0}


def rows() -> list[tuple[str, object]]:
    import mixedpoly as mp

    def verify_all(n_max):
        return lambda: [mp.verify_identity(i, n_max, (1, 2, 3)) for i in mp.IDENTITY_IDS]

    def cc33(T):
        return lambda: mp.mixed_gf(mp.MixedSpec(mp.MixedKind.CC, 3, 3), T)

    def bernoulli2(T):
        return lambda: mp.eval_text("(t/(exp(t)-1))^2*exp(t)^x", T)

    def volkenborn(N):
        return lambda: mp.finite_integral(mp.IntegralKind.BOSONIC, mp.BinomialBasis(5), mp.PAdicContext(3, N))

    out = [
        ("verify all 10 ids, n_max=12, orders 1..3", verify_all(12)),
        ("verify all 10 ids, n_max=20, orders 1..3", verify_all(20)),
    ]
    out += [(f"mixed_gf CC(3,3) at T={T}", cc33(T)) for T in (16, 32, 48)]
    out += [(f"eval_text B^(2) GF at T={T}", bernoulli2(T)) for T in (16, 32, 48)]
    out += [(f"bosonic finite_integral C(x,5), p=3, N={N}", volkenborn(N)) for N in (6, 8, 10)]
    return out


def cli_verify(root: Path) -> float:
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-m", "mixedpoly", "verify", "--id", "all", "--n-max", "8"],
        cwd=root, env={"PYTHONPATH": str(root / "src")}, capture_output=True, check=True,
    )
    return perf_counter() - t0


def commit(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    import mixedpoly  # noqa: F401  -- the import-only parent

    results = {}
    for name, fn in rows():
        times = [in_child(_timed, fn)["seconds"] for _ in range(REPEATS)]
        results[name] = statistics.median(times)
        print(f"{name:45s} {results[name]:.3f} s", flush=True)
    name = "mixedpoly verify --id all --n-max 8 (CLI, fresh interpreter)"
    results[name] = statistics.median(cli_verify(root) for _ in range(REPEATS))
    print(f"{name:45s} {results[name]:.3f} s")
    payload = {"machine": _machine(), "commit": commit(root), "repeats": REPEATS, "statistic": "median", "seconds": results}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
