"""Command line front end.

Every command resolves names against a small built-in workspace: the
interval, disc, associative and framed-interval operads, a pointed tag
set {*, a, b} whose tags name exact rotation twists of the standard
inclusion, and loops and sweeps assembled from those. All sampling is
seeded, so identical invocations print identical bytes.

Exit codes: 0 on success, 1 when a check suite reports a failure, 2 on
usage or parse errors, 130 when interrupted and 141 when the reader closed
stdout early, both without a traceback.

A process loads only the modules its command runs. This module imports the
core (`operads`, `trees`, `wconstruction`, `bconstruction`, `serialize`),
which is all that `normalize`, `compose`, `mu`, `decompose` and `dot` use,
and imports `json` only where a command reads or writes JSON. The other
commands import the rest inside their handlers: `mu --truncate` loads
`bimodules`; `eval-xi`, `eval-psi` and `lift` load the maps and evaluators
of `mapping` (and through it `bimodules`), and `alpha` those and
`swisscheese`, none of them a law check; `check` loads `suites`, which
holds every law check and its report, and through it `mapping`,
`bimodules`, `oracles` and `sampling`. `Workspace` builds its tag family
and the product bimodule over it on first use.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .bconstruction import b_prime_decompose, b_text, mu_prime
from .operads import (
    Associative,
    LittleDiscs,
    LittleIntervals,
    PointedSet,
    framed_intervals,
    parse_fraction,
    parse_int,
)
from .serialize import (
    b_dot,
    b_from_jsonable,
    b_to_jsonable,
    parse_b_text,
    parse_w_text,
    w_dot,
    w_from_jsonable,
    w_to_jsonable,
)
from .trees import DomainError, shown
from .wconstruction import WOperad, mu, w_prime_decompose, w_text

if TYPE_CHECKING:
    from .mapping import BimoduleMap, HofiberPoint, PointedMapFamily, QXElem, QXProductBimodule

PATH_NAMES = ("const", "loop-a", "loop-b")
MAX_SAMPLES = 10_000   # the most samples `check` runs, far above the default 200
# Each suite's report builder, build(ws, a, b, m, s): the workspace, the
# parsed arguments (`a.samples`, `a.seed` and the suite's own options) and the
# modules `bimodules`, `mapping` and `suites`, which `run_suite` imports only
# when a suite runs, so that the parser and its help stay inside the core.
SUITES = {
    "operad-axioms": lambda ws, a, b, m, s: s.suite_operad_axioms(
        ws.operad(a.operad), a.samples, a.seed),
    "w-operad-axioms": lambda ws, a, b, m, s: s.suite_operad_axioms(
        WOperad(ws.operad(a.operad)), a.samples, a.seed),
    "w-confluence": lambda ws, a, b, m, s: s.suite_w_confluence(
        ws.operad(a.operad), a.samples, a.seed),
    "b-confluence": lambda ws, a, b, m, s: s.suite_b_confluence(
        ws.operad(a.operad), a.samples, a.seed),
    "b-bimodule-axioms": lambda ws, a, b, m, s: s.suite_bimodule_axioms(
        b.BBimodule(ws.operad(a.operad)), a.samples, a.seed),
    "wself-bimodule-axioms": lambda ws, a, b, m, s: s.suite_bimodule_axioms(
        b.WSelfBimodule(ws.operad(a.operad)), a.samples, a.seed),
    "qx-bimodule-axioms": lambda ws, a, b, m, s: s.suite_bimodule_axioms(
        m.QxBimodule(ws.family, ws.tag(a.x)), a.samples, a.seed),
    "qx-product-bimodule-axioms": lambda ws, a, b, m, s: s.suite_bimodule_axioms(
        ws.qxprod, a.samples, a.seed),
    "mu": lambda ws, a, b, m, s: s.check_operad_map(
        m.mu_map(ws.operad(a.operad)), a.samples, a.seed),
    "mu-prime": lambda ws, a, b, m, s: s.check_bimodule_map(
        m.BimoduleMap("mu'", b.BBimodule(ws.operad(a.operad)),
                      b.WSelfBimodule(ws.operad(a.operad)), mu_prime), a.samples, a.seed),
    "eta": lambda ws, a, b, m, s: s.check_operad_map(
        m.eta_map(ws.d1, ws.d2), a.samples, a.seed),
    "eta-mu": lambda ws, a, b, m, s: s.check_operad_map(
        m.eta_mu_map(ws.d1, ws.d2), a.samples, a.seed),
    "path": lambda ws, a, b, m, s: s.check_path(ws.path(a.path), a.samples, a.seed),
    "xi": lambda ws, a, b, m, s: s.check_bimodule_map(
        m.xi_as_map(ws.path(a.path), b.BBimodule(ws.d1),
                    m.QxBimodule(ws.family, ws.space.basepoint)), a.samples, a.seed),
    "psi-prime": lambda ws, a, b, m, s: s.check_bimodule_map(
        m.psi_prime_as_map(ws.hofiber(a.x), b.BBimodule(ws.d1), ws.family),
        a.samples, a.seed),
    "psi-double-prime": lambda ws, a, b, m, s: s.check_bimodule_map(
        ws.section_map(a.x), a.samples, a.seed),
    "matching": lambda ws, a, b, m, s: s.suite_matching(ws.space, max_n=4),
}
SUITE_NAMES = tuple(SUITES)


class Workspace:
    """The named instances commands resolve against.

    The tag family and the product bimodule over it are built on first use,
    so that commands on W and B points never load the evaluator layer."""

    def __init__(self) -> None:
        self.d1 = LittleIntervals()
        self.d2 = LittleDiscs(2)
        self.operads = {
            "d1": self.d1,
            "d2": self.d2,
            "assoc": Associative(),
            "d1_z2": framed_intervals(),
        }
        self.space = PointedSet("X", ("*", "a", "b"), "*")

    @cached_property
    def family(self) -> PointedMapFamily:
        from .mapping import delta_family
        return delta_family(
            self.d1, self.d2, self.space,
            {"*": Fraction(0), "a": Fraction(1, 2), "b": Fraction(-1, 3)})

    @cached_property
    def qxprod(self) -> QXProductBimodule:
        from .mapping import QXProductBimodule
        return QXProductBimodule(self.family)

    def operad(self, name: str):
        try:
            return self.operads[name]
        except KeyError:
            raise DomainError(
                f"unknown operad {shown(name)}; have {', '.join(sorted(self.operads))}")

    def tag(self, x: str):
        if x not in self.space.elements:
            raise DomainError(
                f"unknown tag {shown(x)}; have {', '.join(map(str, self.space.elements))}")
        return x

    def path(self, name: str):
        from .mapping import concat_paths, constant_path, reverse_path
        if name == "const":
            return constant_path(self.family.base_map)
        if name.startswith("loop-"):
            sweep = self.family.path_to(self.tag(name[len("loop-"):]))
            return concat_paths(sweep, reverse_path(sweep))
        raise DomainError(f"unknown path {shown(name)}; have {', '.join(PATH_NAMES)}")

    def hofiber(self, x: str) -> HofiberPoint:
        from .mapping import HofiberPoint
        return HofiberPoint(self.tag(x), self.family.path_to(self.tag(x)))

    def section_map(self, x: str) -> BimoduleMap:
        """The tagged bimodule map the lift and alpha commands start from.

        It is trusted, not checked: psi' of the workspace's own hofiber
        point is a bimodule map by construction, so the guard
        `suites.psi_double_prime` passes it in every process, as
        `tests/test_mapping.py::test_workspace_section_maps_pass_the_guard` pins."""
        from .bimodules import BBimodule
        from .mapping import psi_prime_as_map, tagged_map
        f = psi_prime_as_map(self.hofiber(x), BBimodule(self.d1), self.family)
        return tagged_map(f, self.qxprod)


# ------------------------------------------------------------------ io helpers

def read_point(op, kind: str, text: str):
    text = text.strip()
    if text == "-":
        text = sys.stdin.read().strip()
    if text.startswith("{"):
        import json
        try:
            data = json.loads(text, parse_int=parse_int)
        except RecursionError:
            raise DomainError("JSON input nested too deeply") from None
        return b_from_jsonable(op, data) if kind == "b" else w_from_jsonable(op, data)
    return parse_b_text(op, text) if kind == "b" else parse_w_text(op, text)


def point_payload(point, kind: str):
    if kind == "b":
        return b_text(point), b_to_jsonable(point)
    return w_text(point), w_to_jsonable(point)


def qx_payload(ws: Workspace, elem: QXElem):
    text = f"{ws.d2.format_element(elem.q)} ; tags=({','.join(map(str, elem.tags))})"
    return text, {"q": ws.d2.to_jsonable(elem.q), "tags": list(elem.tags)}


def emit(args, text: str, payload) -> None:
    if args.format == "json":
        import json
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ------------------------------------------------------------------- commands

def cmd_normalize(ws: Workspace, args) -> int:
    op = ws.operad(args.operad)
    point = read_point(op, args.kind, args.point)
    emit(args, *point_payload(point, args.kind))
    return 0


def cmd_compose(ws: Workspace, args) -> int:
    op = ws.operad(args.operad)
    if args.kind == "base":
        value = op.compose(op.parse_element(args.left), args.slot,
                           op.parse_element(args.right))
        emit(args, op.format_element(value), op.to_jsonable(value))
        return 0
    wop = WOperad(op)
    value = wop.compose(read_point(op, "w", args.left), args.slot,
                        read_point(op, "w", args.right))
    emit(args, *point_payload(value, "w"))
    return 0


def cmd_mu(ws: Workspace, args) -> int:
    op = ws.operad(args.operad)
    point = read_point(op, args.kind, args.point)
    if args.kind == "w":
        if args.truncate is not None:
            from .bimodules import eval_truncated_operad_map
            value = eval_truncated_operad_map(mu, args.truncate, point, op)
        else:
            value = mu(point)
        emit(args, op.format_element(value), op.to_jsonable(value))
        return 0
    if args.truncate is not None:
        from .bimodules import WSelfBimodule, eval_truncated_bimodule_map
        value = eval_truncated_bimodule_map(mu_prime, args.truncate, point,
                                            WSelfBimodule(op))
    else:
        value = mu_prime(point)
    emit(args, *point_payload(value, "w"))
    return 0


def skeleton_text(entry) -> str:
    """A W decomposition's skeleton in one line: a leaf as its number, a
    vertex as its children's texts in parentheses."""
    if isinstance(entry, int):
        return str(entry)
    return "(" + " ".join(skeleton_text(child) for child in entry.children) + ")"


def cmd_decompose(ws: Workspace, args) -> int:
    op = ws.operad(args.operad)
    point = read_point(op, args.kind, args.point)
    if args.kind == "w":
        dec = w_prime_decompose(point)
        data = {
            "filtration": dec.filtration_level,
            "skeleton": skeleton_text(dec.skeleton),
            "components": [w_to_jsonable(c) for c in dec.components],
        }
        lines = [f"filtration {dec.filtration_level}",
                 f"skeleton {skeleton_text(dec.skeleton)}"]
        lines += [f"component {k}: {w_text(c)}"
                  for k, c in enumerate(dec.components, start=1)]
        emit(args, "\n".join(lines), data)
        return 0
    dec = b_prime_decompose(point)

    def exit_json(up):
        if up.point.is_trivial:
            return {"kind": "ext", "leaf": up.exits[0]}
        return {"kind": "cap", "label": w_text(up.point.root.label), "leaves": list(up.exits)}

    def exit_text(up):
        if up.point.is_trivial:
            return f"l{up.exits[0]}"
        return f"cap({w_text(up.point.root.label)}; {','.join(map(str, up.exits))})"

    data = {
        "filtration": list(dec.filtration),
        "root": None if dec.root_label is None else w_text(dec.root_label),
        "pieces": [{"point": b_to_jsonable(piece.point),
                    "exits": [exit_json(up) for up in piece.exits]}
                   for piece in dec.pieces],
    }
    lines = [f"filtration {dec.filtration[0]},{dec.filtration[1]}",
             "root " + ("-" if dec.root_label is None else w_text(dec.root_label))]
    for k, piece in enumerate(dec.pieces, start=1):
        lines.append(f"piece {k}: {b_text(piece.point)}")
        lines.append(f"  exits: {' '.join(exit_text(up) for up in piece.exits)}")
    emit(args, "\n".join(lines), data)
    return 0


def cmd_eval_xi(ws: Workspace, args) -> int:
    from .mapping import xi_eval
    loop = ws.path(args.path)
    point = read_point(ws.d1, "b", args.point)
    value = xi_eval(loop, point)
    emit(args, ws.d2.format_element(value), ws.d2.to_jsonable(value))
    return 0


def cmd_eval_psi(ws: Workspace, args) -> int:
    from .bimodules import eval_truncated_bimodule_map
    from .mapping import QxBimodule, psi_prime_eval
    h = ws.hofiber(args.x)
    point = read_point(ws.d1, "b", args.point)
    if args.truncate is not None:
        value = eval_truncated_bimodule_map(lambda piece: psi_prime_eval(h, piece)[1],
                                            args.truncate, point, QxBimodule(ws.family, h.x))
    else:
        value = psi_prime_eval(h, point)[1]
    emit(args, f"{h.x} ; {ws.d2.format_element(value)}",
         {"x": h.x, "value": ws.d2.to_jsonable(value)})
    return 0


def cmd_lift(ws: Workspace, args) -> int:
    from .mapping import XPath, constant_xpath, lift_path
    x = ws.tag(args.x)
    switch = parse_fraction(args.switch)
    if not 0 < switch <= 1:
        raise DomainError(f"--switch must lie in (0,1], got {shown(args.switch)}")
    f0 = ws.section_map(x)
    if args.to is None:
        g = constant_xpath(ws.space, x)
    else:
        g = XPath(ws.space, ((Fraction(0), x), (switch, ws.tag(args.to))))
    point = read_point(ws.d1, "b", args.point)
    value = lift_path(f0, g, x, parse_fraction(args.t), point, ws.qxprod)
    emit(args, *qx_payload(ws, value))
    return 0


def cmd_alpha(ws: Workspace, args) -> int:
    from .mapping import xi_eval
    from .swisscheese import alpha_eval, parse_sc
    c = parse_sc(args.config)
    if c.color != "o":
        raise DomainError("alpha acts through open configurations; "
                          "closed ones only concatenate loops")
    loop_names = args.loops.split(",") if args.loops else []
    if len(loop_names) > c.n:
        raise DomainError(f"too many loops: this configuration takes at most {c.n}, "
                          f"got {len(loop_names)}")
    fs: list = []
    for k in range(c.n):
        name = loop_names[k] if k < len(loop_names) else "loop-a"
        loop = ws.path(name)
        fs.append(lambda b, g=loop: xi_eval(g, b))
    fs.append(ws.section_map(args.x))
    point = read_point(ws.d1, "b", args.point)
    value = alpha_eval(c, fs, point, ws.family.base_map)
    emit(args, *qx_payload(ws, value))
    return 0


def run_suite(ws: Workspace, args):
    from . import bimodules, mapping, suites
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise DomainError(f"--samples must be between 0 and {MAX_SAMPLES}, got {args.samples}")
    if args.suite not in SUITES:
        raise DomainError(f"unknown suite {shown(args.suite)}; have {', '.join(SUITE_NAMES)}")
    return SUITES[args.suite](ws, args, bimodules, mapping, suites)


def cmd_check(ws: Workspace, args) -> int:
    report = run_suite(ws, args)
    emit(args, report.to_text(), report.to_jsonable())
    return 0 if report.ok else 1


def cmd_dot(ws: Workspace, args) -> int:
    op = ws.operad(args.operad)
    point = read_point(op, args.kind, args.point)
    print(b_dot(point) if args.kind == "b" else w_dot(point))
    return 0


# -------------------------------------------------------------------- parsing

def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone. Its texts are the
    full parser's wherever it can print them: the usage line lists every
    command, and a command's own help and errors read the same."""
    parser = argparse.ArgumentParser(
        prog="opcalc",
        description="Exact calculus on decorated-tree resolutions of operads.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(HANDLERS) + "}")

    def add(name, summary, point=True, kind=None, operad=True):
        """The subparser of name with the common options, or None. Only the
        commands that read an option declare it: the evaluators work over d1
        alone, and only `check` samples."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=summary)
        if operad:
            p.add_argument("--operad", default="d1",
                           help="workspace operad name (default d1)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if kind is not None:
            p.add_argument("--kind", choices=kind, default=kind[0])
        if point:
            p.add_argument("point", help="point text, JSON, or - for stdin")
        return p

    add("normalize", "parse and print the canonical form", kind=("w", "b"))

    if p := add("compose", "operadic composition at a slot", point=False, kind=("w", "base")):
        p.add_argument("-i", "--slot", type=int, required=True)
        p.add_argument("left")
        p.add_argument("right")

    if p := add("mu", "compose a resolution point down a level", kind=("w", "b")):
        p.add_argument("--truncate", type=int, default=None,
                       help="evaluate through the level-k truncation")

    add("decompose", "split into prime components", kind=("w", "b"))

    if p := add("eval-xi", "evaluate a height tree through a loop", operad=False):
        p.add_argument("--path", default="loop-a", help=f"one of {', '.join(PATH_NAMES)}")

    if p := add("eval-psi", "evaluate a height tree at a tag's sweep", operad=False):
        p.add_argument("--x", default="a", help="tag (default a)")
        p.add_argument("--truncate", type=int, default=None)

    if p := add("lift", "evaluate the lifted path at a time", operad=False):
        p.add_argument("--x", default="a", help="starting tag (default a)")
        p.add_argument("--to", default=None, help="tag switched to along the way")
        p.add_argument("--switch", default="1/2", help="switch time (default 1/2)")
        p.add_argument("--t", required=True, help="evaluation time, a fraction")

    if p := add("alpha", "act by an open interval configuration", operad=False):
        p.add_argument("--config", required=True, help='e.g. "o<[1/8,3/8] [5/8,1/1]>"')
        p.add_argument("--x", default="a", help="tag for the open disc (default a)")
        p.add_argument("--loops", default=None,
                       help="comma-separated loop names for the closed discs, "
                            "in order; a closed disc left unnamed runs loop-a")

    if p := add("check", "run a named randomized law suite", point=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("suite", help=f"one of {', '.join(SUITE_NAMES)}")
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--x", default="a")
        p.add_argument("--path", default="loop-a")

    add("dot", "render a point as DOT", kind=("w", "b"))

    return parser


HANDLERS = {
    "normalize": cmd_normalize,
    "compose": cmd_compose,
    "mu": cmd_mu,
    "decompose": cmd_decompose,
    "eval-xi": cmd_eval_xi,
    "eval-psi": cmd_eval_psi,
    "lift": cmd_lift,
    "alpha": cmd_alpha,
    "check": cmd_check,
    "dot": cmd_dot,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full parser only for help, a missing command or an unknown one
    command = argv[0] if argv and argv[0] in HANDLERS else None
    args = build_parser(command).parse_args(argv)
    ws = Workspace()
    try:
        code = HANDLERS[args.command](ws, args)
        sys.stdout.flush()
        return code
    except ValueError as exc:   # DomainError and json.JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout, as `| head -1` does. What is still
        # buffered goes to devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
