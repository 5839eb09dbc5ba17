"""Seeded benchmark of opcalc: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload normalize --seed 1 --seconds 50 --trace 0

Before timing, the run replays a fixed reference corpus and compares the
sha256 of its inputs and outputs with `digests.json`: changed inputs mean
`opcalc.sampling` changed the workload (exit 3), changed outputs mean the
program's results changed (exit 4). The last stdout line is
`{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Lines before it start with
"#" and are for people. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("normalize", "wide", "evaluate", "cli")
GOLDEN_SEED = 1811
GOLDEN_OPS = {"normalize": 30, "wide": 8, "evaluate": 30, "cli": 11}
COVERAGE_OPS = {"normalize": 5, "wide": 2, "evaluate": 5, "cli": 11}
DIGEST_OPS = 20           # seeded digests cover the first ops of every run
MIN_OPS = 100             # so that ten samples lie beyond op_p90_ms
SETUP_REPEATS = 21        # spread over the run, like the ops
IMPORT_REPEATS = 3
WALL_CAP_S = 120          # stop early rather than overrun the 180 s limit

LAYER_FUNCTIONS = (
    "operads.compose", "operads.restrict", "operads.format_element",
    "wconstruction.wpoint", "wconstruction.normalize_random_order",
    "wconstruction.w_compose", "wconstruction.w_lambda", "wconstruction.mu",
    "wconstruction.w_corolla", "wconstruction.w_text",
    "bconstruction.bpoint", "bconstruction.b_normalize_random_order",
    "bconstruction.b_left_act", "bconstruction.b_right_act", "bconstruction.b_lambda",
    "bconstruction.mu_prime", "bconstruction.b_prime_decompose",
    "bconstruction.b_corolla", "bconstruction.b_text",
    "mapping.xi_eval", "mapping.psi_prime_eval", "mapping.lift_path",
    "mapping.psi_double_prime",
    "swisscheese.alpha_eval", "swisscheese.d1_action_eval",
    "serialize.parse_w_text", "serialize.parse_b_text",
    "serialize.w_from_jsonable", "serialize.b_from_jsonable",
)
CLI_SPANS = ("normalize", "compose", "mu", "decompose", "dot", "eval-xi", "eval-psi",
             "lift", "alpha", "check", "malformed")
SWEEP = ("wconstruction.w_corolla", "wconstruction.w_lambda", "bconstruction.b_lambda")
SWEEP_ARITIES = range(2, 9)
COUNTS = (("wconstruction.out_vertices", "count"), ("bconstruction.out_vertices", "count"),
          ("serialize.text_bytes", "bytes"))


def fail(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_program() -> None:
    """Put this checkout's src/ first on the path and prove opcalc comes from it."""
    if not (SRC / "opcalc" / "__init__.py").is_file():
        fail(f"no opcalc package under {SRC.relative_to(ROOT)}/ to benchmark", 2)
    sys.path.insert(0, str(SRC))
    import opcalc
    if Path(opcalc.__file__).resolve().parent != SRC / "opcalc":
        fail(f"opcalc was imported from {opcalc.__file__}, not this checkout", 2)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def python_seconds(argv) -> float:
    """Run a helper in a fresh interpreter; it prints a number of seconds."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        fail(f"{' '.join(argv)} failed: {proc.stderr.strip()[-300:]}", 1)
    return float(proc.stdout.split()[-1])


# ------------------------------------------------------------ reference corpus

def golden(wl, name: str):
    """Digests of the reference corpus's inputs and outputs, and any wrong outputs."""
    from spans import Untraced
    items = list(itertools.islice(wl.items(GOLDEN_SEED), GOLDEN_OPS[name]))
    outputs, wrong = [], []
    for item in items:
        out, problem = wl.verify(item, wl.run(item, Untraced()))
        if out is not None:
            outputs.append(out)
        if problem and not item.malformed:
            wrong.append(problem)
    return digest(i.text for i in items), digest(outputs), wrong


def check_golden(wl, name: str) -> None:
    inputs, outputs, wrong = golden(wl, name)
    if wrong:
        fail(f"reference corpus: {wrong[0]}", 4)
    recorded = json.loads(DIGESTS.read_text())[name]
    if inputs != recorded["inputs"]:
        fail(f"{name}: generated inputs changed (sha256 {inputs}, recorded "
             f"{recorded['inputs']}); opcalc.sampling changed the workload, "
             "so its numbers are not comparable", 3)
    if outputs != recorded["outputs"]:
        fail(f"{name}: output digest {outputs} differs from the recorded "
             f"{recorded['outputs']}", 4)


def record_digests() -> None:
    from spans import Untraced
    from workloads import make
    table = {}
    for name in WORKLOADS:
        inputs, outputs, wrong = golden(make(name, Untraced()), name)
        if wrong:
            fail(f"{name}: reference corpus has wrong outputs: {wrong[0]}", 4)
        table[name] = {"inputs": inputs, "outputs": outputs}
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


# ------------------------------------------------------------------ timed loop

class Loop:
    """Runs ops until `seconds` have passed and `min_ops` ops are done.

    `seconds` is wall time of this loop: the ops, their checks and the
    set-up probes between them. Counting op time alone would make a
    workload with costly checks, like `evaluate`, run far longer than the
    others for the same setting.

    An untraced run ends on a whole window of `wl.window` consecutive ops
    (whole cycles of the workload's input schedule), so every run times the
    same mix of op kinds and sizes; otherwise a quantile can flip between
    two kinds of op from run to run. The end-to-end figures are medians
    over these windows (see `end_to_end`).

    Only the ops are timed: drawing the next input and `verify` happen
    outside the clock (workloads.py says which checks run inside an op).
    With a tracer, every input runs twice, once traced and once not,
    alternating which goes first, so the two halves see the same inputs
    and their ratio is the tracing overhead.

    Without a tracer, `probe` (the set-up timing) runs SETUP_REPEATS times,
    spread evenly over the run between ops, so that `setup_s` sees the
    same stretch of machine speed as the ops do."""

    def __init__(self, wl, seed: int, tracer, probe=None) -> None:
        from spans import Untraced
        self.wl, self.seed, self.tracer, self.probe = wl, seed, tracer, probe
        self.setup_s: list[float] = []
        self.untraced = Untraced()
        self.latencies: list[int] = []      # untraced ops, ns
        self.traced: list[tuple[int, int]] = []   # (op id, ns)
        self.timed_ns = 0
        self.ops = self.attempted = self.failed = self.defects = 0
        self.wrong: list[str] = []
        self.inputs: list[str] = []
        self.outputs: list[str] = []

    def run(self, seconds: float, min_ops: int) -> None:
        from spans import clock
        from workloads import KnownDefect
        items = self.wl.items(self.seed)
        window = self.wl.window
        if self.tracer is not None:   # per-layer numbers need no tail percentile or fixed mix
            min_ops, window = min(min_ops, DIGEST_OPS), 1
        wall_start = time.monotonic()
        while True:
            elapsed_s = time.monotonic() - wall_start
            if (elapsed_s >= seconds and self.ops >= min_ops and self.ops % window == 0
                    or elapsed_s >= WALL_CAP_S):
                break
            item = next(items)
            modes = (None,) if self.tracer is None else (
                (False, True) if self.ops % 2 == 0 else (True, False))
            for traced in modes:
                tr = self.tracer if traced else self.untraced
                if traced:
                    self.tracer.op = self.ops
                start = clock()
                try:
                    result, error = self.wl.run(item, tr), None
                except Exception as exc:  # a raising op is a failed op, not the end of the run
                    result, error = None, f"raised {type(exc).__name__}: {exc}"
                elapsed = clock() - start
                self.timed_ns += elapsed
                if traced:
                    self.traced.append((self.ops, elapsed))
                else:
                    self.latencies.append(elapsed)
                out, problem = (None, error) if error else self.wl.verify(item, result)
                self.attempted += 1
                if isinstance(problem, KnownDefect):
                    self.defects += 1
                elif problem:
                    self.failed += 1
                    if not item.malformed:
                        self.wrong.append(f"op {self.ops}: {problem}")
            if self.ops < DIGEST_OPS:
                self.inputs.append(item.text)
                self.outputs.append(out or "")
            self.ops += 1
            n = len(self.setup_s)
            if (self.probe and n < SETUP_REPEATS
                    and n * seconds <= (time.monotonic() - wall_start) * SETUP_REPEATS):
                self.setup_s.append(self.probe())
        while self.probe and len(self.setup_s) < SETUP_REPEATS:
            self.setup_s.append(self.probe())


# --------------------------------------------------------------------- metrics

def end_to_end(name: str, loop: Loop) -> dict:
    """Each timing is a median over the run's windows of `wl.window`
    consecutive ops. On a shared 2-vCPU VM the same ops ran up to 1.5x
    slower for a few seconds at a time; a median over windows of a few
    seconds passes over such a burst, where a figure over the whole run
    does not. A run cut short by WALL_CAP_S drops its partial window."""
    lat = loop.latencies
    size = loop.wl.window
    whole = len(lat) // size * size or len(lat)
    windows = [lat[i:i + size] for i in range(0, whole, size)]
    # For cli the children include the set-up probes, which do only the
    # start every CLI command does (import opcalc.cli, build its Workspace).
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(loop.setup_s), "s"),
        "ops_per_s": (statistics.median(len(w) / (sum(w) / 1e9) for w in windows), "1/s"),
        "op_p50_ms": (statistics.median(statistics.median(w) for w in windows) / 1e6, "ms"),
        "op_p90_ms": (statistics.median(statistics.quantiles(w, n=10)[-1] for w in windows)
                      / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def coverage(name: str, tracer) -> int:
    """Run a few reference ops of every other workload under the tracer, so
    each per-layer metric is measured in every traced run. Returns the
    number of CLI invocations that broke the exit-code contract."""
    from workloads import make
    broken = 0
    for other in WORKLOADS:
        if other == name:
            continue
        wl = make(other, tracer)
        tracer.op = -1
        for item in itertools.islice(wl.items(GOLDEN_SEED), COVERAGE_OPS[other]):
            _, problem = wl.verify(item, wl.run(item, tracer))
            broken += bool(problem) and other == "cli"
    return broken


def per_layer(name: str, seed: int, loop: Loop, tracer, fixture_tracer) -> dict:
    from spans import median_us
    from workloads import arity_sweep
    tracer.spans.extend(fixture_tracer.spans)
    broken_cli = coverage(name, tracer)
    if name == "cli":
        broken_cli += loop.failed + loop.defects
    spans = tracer.by_name()
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        ns = spans.get(fn, [])
        metrics[f"{fn}.calls"] = (len(ns), "count")
        metrics[f"{fn}.busy_s"] = (sum(ns) / 1e9, "s")
        metrics[f"{fn}.p50_us"] = (median_us(ns), "us")
    for command in CLI_SPANS:
        metrics[f"cli.{command}.p50_ms"] = (median_us(spans.get(f"cli.{command}", [])) / 1e3, "ms")
    metrics["cli.import_ms"] = (1e3 * statistics.median(
        python_seconds(["-c", "import time; t = time.perf_counter(); import opcalc.cli; "
                              "print(time.perf_counter() - t)"])
        for _ in range(IMPORT_REPEATS)), "ms")
    metrics["cli.errors"] = (broken_cli, "count")
    metrics["bench.layer_errors"] = (tracer.errors(), "count")
    sweep = arity_sweep(seed, SWEEP_ARITIES)
    for fn in SWEEP:
        for k in SWEEP_ARITIES:
            metrics[f"{fn}.k{k}_ms"] = (sweep[fn, k], "ms")
        steps = " ".join(f"{sweep[fn, k + 1] / sweep[fn, k]:.1f}" for k in SWEEP_ARITIES[:-1])
        print(f"# sweep {fn} k=2..8 ms: "
              + " ".join(f"{sweep[fn, k]:.3g}" for k in SWEEP_ARITIES) + f"  growth: {steps}")
    for counter, unit in COUNTS:
        metrics[counter] = (tracer.counts[counter], unit)
    op_ns = sum(ns for _, ns in loop.traced)
    covered = tracer.covered_ns({op for op, _ in loop.traced})
    metrics["bench.op_self_s"] = ((op_ns - covered) / 1e9, "s")
    metrics["bench.trace_overhead_ratio"] = (op_ns / sum(loop.latencies), "ratio")
    tracer.write(ROOT / ".bench_out" / f"spans-{name}-{seed}.jsonl")
    return metrics


# ------------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS,
                        help="ops a run completes even past --seconds (the smoke test lowers it)")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the reference corpus and exit")
    args = parser.parse_args(argv)
    load_program()
    from spans import Tracer, Untraced
    from workloads import make
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    name = args.workload

    fixture_tracer = Tracer() if args.trace else Untraced()
    wl = make(name, fixture_tracer)
    check_golden(wl, name)
    if args.trace:
        loop = Loop(wl, args.seed, Tracer())
    else:
        loop = Loop(wl, args.seed, None,
                    lambda: python_seconds([str(HERE / "setup_probe.py"), name]))
    loop.run(args.seconds, args.min_ops)
    if args.trace:
        metrics = per_layer(name, args.seed, loop, loop.tracer, fixture_tracer)
    else:
        metrics = end_to_end(name, loop)

    print(f"# workload={name} seed={args.seed} ops={loop.ops} attempted={loop.attempted} "
          f"failed={loop.failed} ops_failed_ratio={loop.failed / loop.attempted:.4f} "
          f"known_defects={loop.defects} known_defect_ratio={loop.defects / loop.attempted:.4f} "
          f"op_time_s={loop.timed_ns / 1e9:.2f}")
    print(f"# sha256 first {DIGEST_OPS} ops: inputs={digest(loop.inputs)} "
          f"outputs={digest(loop.outputs)}")
    for problem in loop.wrong[:5]:
        print(f"# WRONG {problem}")
    if not args.trace:
        for metric, (value, unit) in metrics.items():
            print(f"# {metric} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
