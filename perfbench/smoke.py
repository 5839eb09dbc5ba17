"""Smoke test of the benchmark with tiny runs.

    python3 perfbench/smoke.py

For every workload: two untraced runs with one seed must exit 0, report
correct outputs and no failed op, print exactly the end-to-end metric names of
BENCHMARK.json and repeat their input and output digests; one traced run
must print exactly the per-layer metric names. Last, a copy of only
BENCHMARK.json and perfbench/ (no program to measure) must exit nonzero
without a result. Takes about three minutes; exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seed", "7", "--seconds", "0.5", "--min-ops", "20"]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, *TINY,
                           "--trace", str(trace)], capture_output=True, text=True, cwd=cwd,
                          timeout=180)


def result(proc, what: str) -> tuple[dict, str]:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    data = json.loads(lines[-1])
    if (sorted(data) != ["attempted", "correct", "failed", "metrics"] or not data["correct"]
            or data["failed"]):
        sys.exit(f"FAIL {what}: {lines[-1][:500]}")
    digests = next(line for line in lines if line.startswith("# sha256"))
    return data, digests


def same_names(data: dict, spec: dict, kind: str, what: str) -> None:
    want = [m["name"] for m in spec[kind]]
    got = list(data["metrics"])
    if sorted(got) != sorted(want):
        sys.exit(f"FAIL {what}: metric names differ from BENCHMARK.json {kind}: "
                 f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        first, first_digests = result(bench(w, 0), f"{w} untraced")
        same_names(first, spec, "end_to_end", w)
        _, second_digests = result(bench(w, 0), f"{w} untraced again")
        if first_digests != second_digests:
            sys.exit(f"FAIL {w}: digests differ between identical runs\n"
                     f"{first_digests}\n{second_digests}")
        traced, _ = result(bench(w, 1), f"{w} traced")
        same_names(traced, spec, "per_layer", f"{w} traced")
        print(f"ok {w}: {first_digests[2:]}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL: a checkout without the program did not fail cleanly")
    print(f"ok without the program: exit {proc.returncode}, {proc.stderr.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
