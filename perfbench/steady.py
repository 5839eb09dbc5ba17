"""Steadiness and parent-versus-change runs of the benchmark.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --base ../parent-checkout

Runs every workload of BENCHMARK.json `--runs` times for its
`run_seconds`, in fresh processes, seed `--seed0 + r` in round r,
alternating the workload order from round to round. Prints, per workload
and end-to-end metric, the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json. `ops_failed_ratio` and
`known_defect_ratio` (ops that hit a known defect of the program) are
taken from each run's "# workload=" line.

With --base, each round runs the same workload in the other checkout too,
alternating which side goes first, and the table adds the base's median
and the change of the median as a share of the base's, "+" meaning worse.
Exits 1 when a run fails or reports wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RATIOS = ("ops_failed_ratio", "known_defect_ratio")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=checkout, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} reported wrong outputs:\n"
                 + "\n".join(line for line in lines if line.startswith("# WRONG")))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    summary = next(line for line in lines if line.startswith("# workload="))
    for field in summary[2:].split():
        key, value = field.split("=")
        if key in RATIOS:
            values[key] = float(value)
    print(f"  {checkout.name}/{workload} seed={seed}: {time.monotonic() - started:.0f}s "
          + " ".join(f"{k}={v:.4g}" for k, v in values.items()), file=sys.stderr)
    return values


def spread(values) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--base", type=Path, help="another checkout to compare against")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    sides = [ROOT] + ([args.base.resolve()] if args.base else [])
    values = {(side, w): [] for side in sides for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            for side in (sides if r % 2 == 0 else sides[::-1]):
                values[side, w].append(run_once(side, w, args.seed0 + r, spec["run_seconds"]))

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    header = f"{'workload':10} {'metric':17} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}"
    print(header + ("  verdict" if not args.base else f" {'base':>10} {'change':>7}  verdict"))
    for w in workloads:
        for metric in [*bounds, *RATIOS]:
            runs = [v[metric] for v in values[ROOT, w]]
            med, q1, q3, rel = spread(runs)
            bound = bounds.get(metric)
            row = f"{w:10} {metric:17} {med:10.4g} {q1:10.4g} {q3:10.4g} {rel:7.3f}"
            if bound is None:
                print(row + f" {'-':>6}  (no bound: counts)")
                continue
            limit = bound["bound"]
            if len(runs) < 2:
                verdict = "one run"
            else:
                verdict = ("steady" if rel < limit / 3 else "within bound" if rel <= limit
                           else "UNSTEADY")
            row += f" {limit:6.2f}"
            if args.base:
                base_med = statistics.median(v[metric] for v in values[sides[1], w])
                worse = (med - base_med) / base_med * (1 if bound["better"] == "lower" else -1)
                verdict = "REGRESSION" if worse > limit else verdict
                row += f" {base_med:10.4g} {worse:+7.3f}"
            print(row + "  " + verdict)
    return 0


if __name__ == "__main__":
    sys.exit(main())
