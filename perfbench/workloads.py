"""The four workloads: seeded input streams, the timed op, and its checks.

Each workload yields an endless stream of items from a seed; item k is the
same for a given seed however long a run lasts, and its `text` is what the
input digest covers. `run(item, tr)` is the timed op and returns what
`verify(item, result)` turns into the op's output text (what the output
digest covers) and a problem string or None; `verify` runs outside the
clock. Oracles that belong to the traffic itself (random-order
normalization, twist invariance, round trips) run inside `run`, as they do
in the acceptance suites. So do `wide`'s two corolla laws: they repeat the
op's k! canonicalization, and checking them outside the clock would double
a `wide` run's wall time for the same number of timed ops.

Every call into a layer goes through `tr.call("<module>.<function>", ...)`
so that a traced run can attribute the op's time; nothing in `src/` is
instrumented.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from opcalc.bconstruction import (
    b_corolla,
    b_lambda,
    b_left_act,
    b_normalize_random_order,
    b_prime_decompose,
    b_right_act,
    b_text,
    b_unit,
    bpoint,
    mu_prime,
)
from opcalc.mapping import (
    XPath,
    lift_path,
    psi_prime_eval,
    sample_hofiber,
    sample_loop,
    sample_xpath,
    xi_eval,
)
from opcalc.operads import LittleIntervals, parse_fraction
from opcalc.sampling import (
    random_b_twists,
    random_fraction,
    random_injection,
    random_permutation,
    random_raw_bnode,
    random_raw_wnode,
    random_vertex_twists,
)
from opcalc.serialize import (
    b_dot,
    b_from_jsonable,
    b_to_jsonable,
    parse_b_text,
    parse_w_text,
    w_dot,
    w_from_jsonable,
    w_to_jsonable,
)
from opcalc.swisscheese import alpha_eval, d1_action_eval, format_sc, parse_sc, sample_sc1
from opcalc.wconstruction import (
    WEdge,
    mu,
    normalize_random_order,
    w_compose,
    w_corolla,
    w_lambda,
    w_prime_decompose,
    w_text,
    wpoint,
)

from fixtures import Evaluation, program_setup
from spans import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class KnownDefect(str):
    """The problem of an op that hit a known defect of the program: counted
    and reported on its own, not as a failed op."""


class Item:
    __slots__ = ("text", "args", "malformed")

    def __init__(self, text: str, args, malformed: bool = False) -> None:
        self.text = text
        self.args = args
        self.malformed = malformed


def frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def raw_w_text(op, entry) -> str:
    """A raw, unnormalized W presentation in the parser's text grammar."""
    if isinstance(entry, int):
        return f"l{entry}"
    if isinstance(entry, WEdge):
        return f"(e {frac(entry.length)} {raw_w_text(op, entry.node)})"
    head = f"(v {quoted(op.format_element(entry.label))}"
    return " ".join([head, *(raw_w_text(op, c) for c in entry.children)]) + ")"


def raw_b_text(op, entry) -> str:
    if isinstance(entry, int):
        return f"l{entry}"
    head = f"(v :h={frac(entry.height)} {quoted(raw_w_text(op, entry.label.root))}"
    return " ".join([head, *(raw_b_text(op, c) for c in entry.children)]) + ")"


def vertices(entry) -> int:
    if isinstance(entry, int):
        return 0
    if isinstance(entry, WEdge):
        return vertices(entry.node)
    return 1 + sum(vertices(c) for c in entry.children)


def count_outputs(tr, ws=(), bs=(), texts=()) -> None:
    if tr.enabled:
        tr.count("wconstruction.out_vertices", sum(vertices(p.root) for p in ws))
        tr.count("bconstruction.out_vertices", sum(vertices(p.root) for p in bs))
        tr.count("serialize.text_bytes", sum(len(t.encode()) for t in texts))


class InProcess:
    def verify(self, item, result):
        out, bad = result
        return out, "; ".join(bad) or None


# --------------------------------------------------------------- normalize

# (operad, W leaves, B leaves) in turn: op cost grows steeply with the leaf
# counts, and drawing them at random made the first 200 ops of one seed
# 35% slower than those of another; a fixed cycle gives every run the same mix.
# Each operad takes all 25 leaf-count pairs, in an order where each block
# of ten ops sees every leaf count twice, so the reference corpus does too.
NORMALIZE_SCHEDULE = tuple((name, 1 + j % 5, 1 + (j + j // 5) % 5)
                           for j in range(25) for name in ("d1", "d2"))


class Normalize(InProcess):
    """Raw W and B presentations, 1-5 leaves, depth <= 2, over d1 and d2."""

    window = len(NORMALIZE_SCHEDULE)

    def __init__(self, ops) -> None:
        self.ops = ops

    def items(self, seed: int):
        rng = random.Random(seed)
        for name, n, m in itertools.cycle(NORMALIZE_SCHEDULE):
            op = self.ops[name]
            raw_w = random_raw_wnode(rng, op, n)
            twisted_w = random_vertex_twists(rng, op, raw_w)
            i = rng.randint(1, n)
            u = random_injection(rng, rng.randint(1, n), n)
            raw_b = random_raw_bnode(rng, op, m)
            twisted_b = random_b_twists(rng, op, raw_b)
            j = rng.randint(1, m)
            v = random_injection(rng, rng.randint(1, m), m)
            seeds = tuple(rng.randrange(10 ** 9) for _ in range(4))
            text = " | ".join(map(str, (
                name, raw_w_text(op, raw_w), raw_w_text(op, twisted_w), i, u.values,
                raw_b_text(op, raw_b), raw_b_text(op, twisted_b), j, v.values, seeds)))
            yield Item(text, (op, raw_w, twisted_w, i, u, raw_b, twisted_b, j, v, seeds))

    def run(self, item, tr):
        op, raw_w, twisted_w, i, u, raw_b, twisted_b, j, v, seeds = item.args
        bad = []
        a = tr.call("wconstruction.wpoint", wpoint, op, raw_w)
        for s in seeds[:3]:
            root = tr.call("wconstruction.normalize_random_order", normalize_random_order,
                           random.Random(s), op, raw_w)
            if root != a.root:
                bad.append("w-confluence")
        if tr.call("wconstruction.wpoint", wpoint, op, twisted_w) != a:
            bad.append("w-twist-invariance")
        c = tr.call("wconstruction.w_compose", w_compose, a, i, a)
        mu_a = tr.call("wconstruction.mu", mu, a)
        if not op.eq(tr.call("wconstruction.mu", mu, c),
                     tr.call("operads.compose", op.compose, mu_a, i, mu_a)):
            bad.append("mu-compose")
        lam = tr.call("wconstruction.w_lambda", w_lambda, u, a)

        b = tr.call("bconstruction.bpoint", bpoint, op, raw_b)
        if tr.call("bconstruction.b_normalize_random_order", b_normalize_random_order,
                   random.Random(seeds[3]), op, raw_b) != b:
            bad.append("b-confluence")
        if tr.call("bconstruction.bpoint", bpoint, op, twisted_b) != b:
            bad.append("b-twist-invariance")
        left = tr.call("bconstruction.b_left_act", b_left_act,
                       a, (b,) + (b_unit(op),) * (a.arity - 1))
        right = tr.call("bconstruction.b_right_act", b_right_act, b, j, a)
        b_lam = tr.call("bconstruction.b_lambda", b_lambda, v, b)
        mu_b = tr.call("bconstruction.mu_prime", mu_prime, b)
        dec = tr.call("bconstruction.b_prime_decompose", b_prime_decompose, b)

        ws = (a, c, lam, mu_b)
        bs = (b, left, right, b_lam)
        texts = [tr.call("wconstruction.w_text", w_text, p) for p in ws]
        texts += [tr.call("bconstruction.b_text", b_text, p) for p in bs]
        texts.append(tr.call("operads.format_element", op.format_element, mu_a))
        if tr.call("serialize.parse_w_text", parse_w_text, op, texts[0]) != a:
            bad.append("w-text-round-trip")
        if tr.call("serialize.parse_b_text", parse_b_text, op, texts[4]) != b:
            bad.append("b-text-round-trip")
        w_json = json.dumps(tr.call("serialize.w_to_jsonable", w_to_jsonable, a), sort_keys=True)
        b_json = json.dumps(tr.call("serialize.b_to_jsonable", b_to_jsonable, b), sort_keys=True)
        if tr.call("serialize.w_from_jsonable", w_from_jsonable, op, json.loads(w_json)) != a:
            bad.append("w-json-round-trip")
        if tr.call("serialize.b_from_jsonable", b_from_jsonable, op, json.loads(b_json)) != b:
            bad.append("b-json-round-trip")
        texts += [w_json, b_json, f"filtration {dec.filtration}"]
        count_outputs(tr, ws, bs, texts)
        return "\n".join(texts), bad


# -------------------------------------------------------------------- wide

# Ops per 20 of each (base operad, arity), one window of the run. Op cost
# jumps by 1.3-4x from one group to the next, so the shares put a window's
# median inside the d2 arity-5 group and its 90th percentile inside the
# assoc arity-7 group; otherwise the quantiles flip between groups from
# run to run. d2 at arity 7 (about 3.5 s an op) is left out: one such op
# per window would take half of the run. A wide run of 100-120 ops takes
# some 20 s of op time.
WIDE_MIX = {("assoc", 5): 2, ("d1", 5): 3, ("d1_z2", 5): 3, ("d2", 5): 5,
            ("assoc", 6): 2, ("d1", 6): 1, ("d2", 6): 1, ("assoc", 7): 3}
# each group spread evenly over the cycle, so any stretch keeps the shares
WIDE_SCHEDULE = tuple(group for _, group in sorted(
    ((j + 0.5) / n, group) for group, n in WIDE_MIX.items() for j in range(n)))


class Wide(InProcess):
    """Corollas of arity 5-7: the k! canonical-form search dominates."""

    window = len(WIDE_SCHEDULE)

    def __init__(self, ops) -> None:
        self.ops = ops

    def items(self, seed: int):
        rng = random.Random(seed)
        for name, k in itertools.cycle(WIDE_SCHEDULE):
            op = self.ops[name]
            x = op.sample(rng, k)
            sigma = random_permutation(rng, k)
            h = random_fraction(rng)
            text = f"{name} {op.format_element(x)} {sigma.values} {frac(h)}"
            yield Item(text, (op, x, sigma, h))

    def run(self, item, tr):
        """The four calls and, timed with them, the restriction laws."""
        op, x, sigma, h = item.args
        bad = []
        a = tr.call("wconstruction.w_corolla", w_corolla, op, x)
        a_sigma = tr.call("wconstruction.w_lambda", w_lambda, sigma, a)
        x_sigma = tr.call("operads.restrict", op.restrict, sigma, x)
        if tr.call("wconstruction.w_corolla", w_corolla, op, x_sigma) != a_sigma:
            bad.append("w-lambda-corolla")
        b = tr.call("bconstruction.b_corolla", b_corolla, op, a, h)
        b_sigma = tr.call("bconstruction.b_lambda", b_lambda, sigma, b)
        if tr.call("bconstruction.b_corolla", b_corolla, op, a_sigma, h) != b_sigma:
            bad.append("b-lambda-corolla")
        texts = [tr.call("operads.format_element", op.format_element, x_sigma),
                 tr.call("wconstruction.w_text", w_text, a_sigma),
                 tr.call("bconstruction.b_text", b_text, b_sigma)]
        count_outputs(tr, (a, a_sigma), (b, b_sigma), texts)
        return "\n".join(texts), bad


# ---------------------------------------------------------------- evaluate

def qx_text(d2, value) -> str:
    return f"{d2.format_element(value.q)} ; tags=({','.join(map(str, value.tags))})"


class Evaluate:
    """Read-only evaluation of normalized B points over d1."""

    window = 50    # ten cycles of the leaf counts 1-5

    def __init__(self, ev: Evaluation) -> None:
        self.ev = ev
        self.ws = ev.ws

    def items(self, seed: int):
        ws = self.ws
        rng = random.Random(seed)
        for leaves in itertools.cycle(range(1, 6)):   # a fixed mix, as for normalize
            raw = random_raw_bnode(rng, ws.d1, leaves)
            b = bpoint(ws.d1, raw)
            loop_seed, hofiber_seed = rng.randrange(10 ** 9), rng.randrange(10 ** 9)
            x = rng.choice(self.ev.tags)
            g = sample_xpath(rng, ws.space, x)
            t = random_fraction(rng, include_ends=True)
            open_c = sample_sc1(rng, rng.randint(0, 2), "o")
            closed_c = sample_sc1(rng, rng.randint(1, 2), "c")
            disc_seeds = tuple(rng.randrange(10 ** 9) for _ in range(open_c.n + closed_c.n))
            loops = [sample_loop(random.Random(s), ws.family) for s in disc_seeds]
            text = " | ".join(map(str, (
                raw_b_text(ws.d1, raw), loop_seed, hofiber_seed, x,
                [(frac(s), y) for s, y in g.segments], frac(t),
                format_sc(open_c), format_sc(closed_c), disc_seeds)))
            yield Item(text, (
                b, sample_loop(random.Random(loop_seed), ws.family),
                sample_hofiber(random.Random(hofiber_seed), ws.family),
                x, g, t, open_c, loops[:open_c.n], closed_c, loops[open_c.n:]))

    def run(self, item, tr):
        ws = self.ws
        b, loop, h, x, g, t, open_c, open_loops, closed_c, closed_loops = item.args
        xi = tr.call("mapping.xi_eval", xi_eval, loop, b)
        tag, psi = tr.call("mapping.psi_prime_eval", psi_prime_eval, h, b)
        f0 = self.ev.sections[x]
        lifted = tr.call("mapping.lift_path", lift_path, f0, g, x, t, b, ws.qxprod)
        fs = [lambda y, p=p: xi_eval(p, y) for p in open_loops] + [f0]
        alpha = tr.call("swisscheese.alpha_eval", alpha_eval, open_c, fs, b, ws.family.base_map)
        fs = [lambda y, p=p: xi_eval(p, y) for p in closed_loops]
        action = tr.call("swisscheese.d1_action_eval", d1_action_eval, closed_c, fs, b,
                         ws.family.base_map)
        # D2 composition of two evaluator outputs: the D1 action into input 1 of xi
        both = tr.call("operads.compose", ws.d2.compose, xi, 1, action)
        texts = [tr.call("operads.format_element", ws.d2.format_element, value)
                 for value in (xi, psi, action, both)]
        texts += [tag, qx_text(ws.d2, lifted), qx_text(ws.d2, alpha)]
        count_outputs(tr, texts=texts)
        return "\n".join(texts), tag

    def verify(self, item, result):
        """The psi tag is the hofiber's, and the lift at t=0 is the section map."""
        b, _, h, x, g = item.args[:5]
        out, tag = result
        bad = []
        if tag != h.x:
            bad.append("psi-tag")
        f0 = self.ev.sections[x]
        if not self.ws.qxprod.eq(lift_path(f0, g, x, Fraction(0), b, self.ws.qxprod), f0(b)):
            bad.append("lift-at-zero")
        return out, "; ".join(bad) or None


# --------------------------------------------------------------------- cli

CLI_SCHEDULE = ("normalize", "compose", "mu", "decompose", "dot", "eval-xi",
                "eval-psi", "lift", "alpha", "check", "malformed")
# (suite, operad, samples): small law suites, each well under a second
CHECKS = (("operad-axioms", "assoc", 10), ("operad-axioms", "d1", 10),
          ("w-confluence", "d1", 4), ("b-confluence", "d1", 2), ("mu", "d1", 10),
          ("mu-prime", "d1", 3), ("path", "d1", 5), ("psi-prime", "d1", 2))
HALVES = "<[0/1,1/2] [1/2,1/1]>"
# Inputs whose documented outcome is exit code 2. The two JSON records with
# a missing or mistyped field end in a traceback and exit 1 today: a known
# defect, counted on its own (`known_defects`, `cli.errors`) until the CLI
# validates its input. Any other exit code is a failed op.
MALFORMED = (
    ["normalize", "--kind", "w", '(v "<[0/1'],
    ["normalize", "--kind", "w", '{"kind":"w","operad":"intervals","root":{"label":"<[0/1,1/1]>"}}'],
    ["normalize", "--kind", "w",
     '{"kind":"w","operad":"intervals","root":{"label":"' + HALVES + '","children":5}}'],
    ["normalize", "--operad", "d3", "l1"],
    ["lift", "--t", "1/0", "l1"],
    ["alpha", "--config", "c<[1/8,3/8]>", "l1"],
    ["normalize", "--kind", "b", '{"kind": "b"'],
    ["normalize", "--kind", "w", f'(v "{HALVES}" l1 l3)'],
    ["normalize", "--kind", "w", '{"kind":"w","operad":"d1","root":{"leaf":1}}'],
)


class Cli:
    """Sequential `python -m opcalc.cli` invocations, one process at a time."""

    window = len(CLI_SCHEDULE)

    def __init__(self, ws) -> None:
        self.ws = ws
        self.tags = ws.space.elements
        self.sections = {x: ws.section_map(x) for x in self.tags}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def items(self, seed: int):
        rng = random.Random(seed)
        for command in itertools.cycle(CLI_SCHEDULE):
            yield self._item(rng, command)

    def _point(self, rng, name, kind):
        op = self.ws.operad(name)
        n = rng.randint(1, 4)
        if kind == "w":
            return raw_w_text(op, random_raw_wnode(rng, op, n)), n
        return raw_b_text(op, random_raw_bnode(rng, op, n)), n

    def _item(self, rng, command):
        if command == "malformed":
            argv = list(rng.choice(MALFORMED))
            return Item(" ".join(argv), (command, argv, None), malformed=True)
        fmt = rng.choice(("text", "json"))
        args: list = [command, "--format", fmt]
        if command in ("normalize", "mu", "decompose", "dot"):
            name, kind = rng.choice(("d1", "d2")), rng.choice(("w", "b"))
            args += ["--operad", name, "--kind", kind, self._point(rng, name, kind)[0]]
        elif command == "compose":
            name = rng.choice(("d1", "d2"))
            (left, n), (right, _) = self._point(rng, name, "w"), self._point(rng, name, "w")
            args += ["--operad", name, "--kind", "w", "-i", str(rng.randint(1, n)), left, right]
        elif command == "eval-xi":
            args += ["--path", rng.choice(("const", "loop-a", "loop-b")),
                     self._point(rng, "d1", "b")[0]]
        elif command == "eval-psi":
            args += ["--x", rng.choice(self.tags), self._point(rng, "d1", "b")[0]]
        elif command == "lift":
            args += ["--x", rng.choice(self.tags), "--to", rng.choice(self.tags),
                     "--switch", frac(random_fraction(rng)),
                     "--t", frac(random_fraction(rng, include_ends=True)),
                     self._point(rng, "d1", "b")[0]]
        elif command == "alpha":
            c = sample_sc1(rng, rng.randint(0, 2), "o")
            args += ["--config", format_sc(c), "--x", rng.choice(self.tags)]
            if c.n:
                args += ["--loops", ",".join(rng.choice(("loop-a", "loop-b")) for _ in range(c.n))]
            args.append(self._point(rng, "d1", "b")[0])
        else:
            suite, name, samples = rng.choice(CHECKS)
            args += [suite, "--operad", name, "--samples", str(samples),
                     "--seed", str(rng.randrange(1000))]
        return Item(" ".join(args), (command, args, fmt))

    def _spawn(self, args):
        return subprocess.run([sys.executable, "-m", "opcalc.cli", *args], capture_output=True,
                              text=True, env=self.env, cwd=ROOT, timeout=60)

    def run(self, item, tr):
        command, args, _ = item.args
        return tr.call("cli.malformed" if item.malformed else f"cli.{command}", self._spawn, args)

    def verify(self, item, proc):
        command, args, fmt = item.args
        if item.malformed:
            if proc.returncode == 2:
                return None, None
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            problem = f"exit {proc.returncode}, expected 2 ({last})"
            if proc.returncode == 1 and "Traceback" in proc.stderr and not proc.stdout:
                return None, KnownDefect(problem)
            return None, problem
        if proc.returncode != 0:
            return proc.stdout, f"{command} exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        text, payload = self.expected(command, args)
        if fmt == "text" or payload is None:
            got = proc.stdout.rstrip("\n")
            ok = got == text if command not in ("check", "decompose") else got.startswith(text)
        else:
            try:
                data = json.loads(proc.stdout)
            except json.JSONDecodeError:
                data = None
            if command == "decompose":
                ok = isinstance(data, dict) and data.get("filtration") == payload
            else:
                ok = data == json.loads(json.dumps(payload))
        return proc.stdout, None if ok else f"{command}: output differs from the library"

    def expected(self, command, args):
        """The library's (text, JSON payload) for the same request; for
        `check` and `decompose` the text is the first line's prefix."""
        opts, pos = split_options(args[1:])
        ws = self.ws
        if command == "check":
            from opcalc.cli import run_suite
            report = run_suite(ws, argparse.Namespace(
                suite=pos[0], operad=opts["--operad"], samples=int(opts["--samples"]),
                seed=int(opts["--seed"]), x="a", path="loop-a"))
            return f"{'ok' if report.ok else 'FAIL'} {report.name} ", report.to_jsonable()
        op = ws.operad(opts.get("--operad", "d1"))
        kind = opts.get("--kind", "b")
        point = (parse_b_text if kind == "b" else parse_w_text)(op, pos[-1])
        if command == "normalize":
            return (b_text(point), b_to_jsonable(point)) if kind == "b" else \
                (w_text(point), w_to_jsonable(point))
        if command == "compose":
            value = w_compose(parse_w_text(op, pos[0]), int(opts["-i"]), point)
            return w_text(value), w_to_jsonable(value)
        if command == "mu":
            if kind == "w":
                value = mu(point)
                return op.format_element(value), op.to_jsonable(value)
            value = mu_prime(point)
            return w_text(value), w_to_jsonable(value)
        if command == "dot":
            return (b_dot(point) if kind == "b" else w_dot(point)), None
        if command == "decompose":
            if kind == "b":
                level = list(b_prime_decompose(point).filtration)
                return f"filtration {level[0]},{level[1]}\n", level
            level = w_prime_decompose(point).filtration_level
            return f"filtration {level}\n", level
        d2 = ws.d2
        if command == "eval-xi":
            value = xi_eval(ws.path(opts["--path"]), point)
            return d2.format_element(value), d2.to_jsonable(value)
        x = opts["--x"]
        if command == "eval-psi":
            _, value = psi_prime_eval(ws.hofiber(x), point)
            return f"{x} ; {d2.format_element(value)}", {"x": x, "value": d2.to_jsonable(value)}
        if command == "lift":
            g = XPath(ws.space, ((Fraction(0), x), (parse_fraction(opts["--switch"]), opts["--to"])))
            value = lift_path(self.sections[x], g, x, parse_fraction(opts["--t"]), point, ws.qxprod)
        else:
            loops = opts["--loops"].split(",") if "--loops" in opts else []
            fs = [lambda y, p=ws.path(name): xi_eval(p, y) for name in loops] + [self.sections[x]]
            value = alpha_eval(parse_sc(opts["--config"]), fs, point, ws.family.base_map)
        return qx_text(d2, value), {"q": d2.to_jsonable(value.q), "tags": list(value.tags)}


def split_options(tokens):
    opts, pos = {}, []
    it = iter(tokens)
    for tok in it:
        if tok.startswith("-"):
            opts[tok] = next(it)
        else:
            pos.append(tok)
    return opts, pos


def make(name: str, tr):
    fx = program_setup(name, tr)
    return {"normalize": Normalize, "wide": Wide, "evaluate": Evaluate, "cli": Cli}[name](fx)


def arity_sweep(seed: int, arities):
    """Milliseconds per call of the three canonicalizing calls on d1
    corollas of each arity: {(name, k): ms}, a median over a few repeats
    where a call is cheap."""
    d1 = LittleIntervals()
    rng = random.Random(seed)
    out = {}
    for k in arities:
        x = d1.sample(rng, k)
        sigma = random_permutation(rng, k)
        times = {"wconstruction.w_corolla": [], "wconstruction.w_lambda": [],
                 "bconstruction.b_lambda": []}
        for _ in range(5 if k <= 5 else 3 if k == 6 else 1):
            t0 = clock()
            a = w_corolla(d1, x)
            t1 = clock()
            w_lambda(sigma, a)
            t2 = clock()
            b = b_corolla(d1, a, Fraction(1, 2))
            t3 = clock()
            b_lambda(sigma, b)
            t4 = clock()
            times["wconstruction.w_corolla"].append(t1 - t0)
            times["wconstruction.w_lambda"].append(t2 - t1)
            times["bconstruction.b_lambda"].append(t4 - t3)
        for name, ns in times.items():
            out[name, k] = statistics.median(ns) / 1e6
    return out
