"""One sha256 per behaviour surface of the CLI and the law guard.

    PYTHONPATH=src python3 tools/behaviour_digest.py --seed 0 --n 4

Drives `opcalc.cli.main` in process and hashes, case by case in a fixed
order, each case's argv, exit code, stdout and stderr. The surfaces:

  * `check`: the text and the JSON of every suite at `--samples 3`, on
    each workspace operad for the suites that read `--operad`, on each tag
    for those that read `--x` and on each path for those that read `--path`;
  * `eval-xi`, `eval-psi`, `eval-psi --truncate`, `lift` and `alpha`, text
    and JSON, on n seeded B points each;
  * `psi_double_prime`: the guarded map of each of the three section maps,
    its name and its values on n seeded B points, and the `DomainError`
    texts of a map that fails a law and of a map into another target;
  * `malformed`: n seeded edits of valid W and B texts and of valid B JSON
    payloads, and a fixed list of bad options, each through `main`.

Prints a JSON object, one surface a line. The same seed and n give the
same bytes at any `PYTHONHASHSEED`, so two checkouts that print the same
digests behave the same on every case above. `tests/behaviour_digest.json`
holds the digests at `--seed 0 --n 4`.

Standard library only; the malformed inputs avoid argparse's and the JSON
decoder's own messages, which differ across Python versions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random

from opcalc import cli
from opcalc.bconstruction import b_text
from opcalc.bimodules import BBimodule
from opcalc.mapping import BimoduleMap, QxBimodule, psi_prime_as_map
from opcalc.operads import format_fraction
from opcalc.sampling import random_bpoint, random_fraction, random_wpoint
from opcalc.serialize import b_to_jsonable
from opcalc.suites import psi_double_prime
from opcalc.swisscheese import format_sc, sample_sc1
from opcalc.trees import DomainError
from opcalc.wconstruction import w_text

SAMPLES = "3"
OPERAD_SUITES = ("operad-axioms", "w-operad-axioms", "w-confluence", "b-confluence",
                 "b-bimodule-axioms", "wself-bimodule-axioms", "mu", "mu-prime")
TAG_SUITES = ("qx-bimodule-axioms", "psi-prime", "psi-double-prime")
PATH_SUITES = ("path", "xi")
EDIT_ALPHABET = '()"\\:=/,;<>[] 0123456789-lvhe'
BAD_OPTIONS = (
    ["check", "operad-axioms", "--samples", "-1"],
    ["check", "operad-axioms", "--samples", "10001"],
    ["check", "no-such-suite"],
    ["check", "operad-axioms", "--operad", "d3"],
    ["check", "qx-bimodule-axioms", "--x", "z"],
    ["check", "path", "--path", "loop-z"],
    ["check", "path", "--path", "nope"],
    ["eval-xi", "--path", "nope", "l1"],
    ["eval-psi", "--x", "z", "l1"],
    ["lift", "--t", "3/2", "l1"],
    ["lift", "--t", "1/0", "l1"],
    ["lift", "--switch", "0/1", "--t", "1/2", "l1"],
    ["lift", "--to", "z", "--t", "1/2", "l1"],
    ["alpha", "--config", "c<[0/1,1/2]>", "l1"],
    ["alpha", "--config", "o<[1/2,1/1]>", "--loops", "loop-a,loop-b", "l1"],
    ["alpha", "--config", "o<[0/1,1/2]>", "l1"],
    ["alpha", "--config", "x<[0/1,1/1]>", "l1"],
    ["alpha", "--config", "o<[1/2,1/1]>", "--loops", "loop-z", "l1"],
    ["normalize", "--operad", "d9", "l1"],
    ["mu", "--kind", "b", "--truncate", "-1", "l1"],
)


def run(argv: list) -> list:
    """argv through `main`: [argv, exit code, stdout, stderr]; an exception
    that escapes `main` counts by its type alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is behaviour too
            code = f"raised {type(exc).__name__}"
    return [argv, code, out.getvalue(), err.getvalue()]


def digest(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(json.dumps(case).encode() + b"\n")
    return h.hexdigest()


def check_cases(ws: cli.Workspace, seed: int):
    for suite in cli.SUITE_NAMES:
        if suite in OPERAD_SUITES:
            variants = [["--operad", name] for name in ws.operads]
        elif suite in TAG_SUITES:
            variants = [["--x", x] for x in ws.space.elements]
        elif suite in PATH_SUITES:
            variants = [["--path", name] for name in cli.PATH_NAMES]
        else:
            variants = [[]]
        for variant in variants:
            for fmt in ("text", "json"):
                yield run(["check", suite, "--samples", SAMPLES, "--seed", str(seed),
                           "--format", fmt, *variant])


def b_points(ws: cli.Workspace, rng, n: int) -> list:
    return [random_bpoint(rng, ws.d1, rng.randint(1, 4)) for _ in range(n)]


def evaluator_cases(ws: cli.Workspace, seed: int, n: int) -> dict:
    rng = random.Random(seed)
    tags = ws.space.elements
    surfaces: dict = {"eval-xi": [], "eval-psi": [], "eval-psi --truncate": [],
                      "lift": [], "alpha": []}
    for b in b_points(ws, rng, n):
        text = b_text(b)
        for fmt in ("text", "json"):
            for path in cli.PATH_NAMES:
                surfaces["eval-xi"].append(
                    run(["eval-xi", "--path", path, "--format", fmt, text]))
            for x in tags:
                surfaces["eval-psi"].append(
                    run(["eval-psi", "--x", x, "--format", fmt, text]))
                surfaces["eval-psi --truncate"].append(
                    run(["eval-psi", "--x", x, "--truncate", str(rng.randint(0, 3)),
                         "--format", fmt, text]))
                to = rng.choice((None, *tags))
                surfaces["lift"].append(run(
                    ["lift", "--x", x, "--t", format_fraction(random_fraction(rng, True)),
                     "--switch", format_fraction(random_fraction(rng)), "--format", fmt,
                     *(["--to", to] if to is not None else []), text]))
                config = sample_sc1(rng, rng.randint(0, 2), "o")
                loops = [rng.choice(cli.PATH_NAMES) for _ in range(rng.randint(0, config.n))]
                surfaces["alpha"].append(run(
                    ["alpha", "--config", format_sc(config), "--x", x, "--format", fmt,
                     *(["--loops", ",".join(loops)] if loops else []), text]))
    return {name: digest(cases) for name, cases in surfaces.items()}


def guard_cases(ws: cli.Workspace, seed: int, n: int):
    rng = random.Random(seed)
    points = b_points(ws, rng, n)
    bb = BBimodule(ws.d1)
    for x in ws.space.elements:
        f = psi_prime_as_map(ws.hofiber(x), bb, ws.family)
        guarded = psi_double_prime(f, ws.qxprod, samples=20, seed=seed)
        yield [x, guarded.name, [[ws.d2.format_element(v.q), list(v.tags)]
                                 for v in map(guarded, points)]]
    fake = BimoduleMap("fake", bb, QxBimodule(ws.family, "a"),
                       lambda b: ws.d2.sample(random.Random(seed), bb.arity_of(b)))
    identity = BimoduleMap("identity", bb, bb, lambda b: b)
    for f in (fake, identity):
        try:
            psi_double_prime(f, ws.qxprod, samples=10, seed=seed)
            yield [f.name, "accepted"]
        except DomainError as exc:
            yield [f.name, str(exc)]


def edit(rng, text: str) -> str:
    """text with one seeded edit: a character deleted, inserted or
    replaced, or the text cut short."""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(4)
    if kind == 0:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + rng.choice(EDIT_ALPHABET) + text[i:]
    if kind == 2:
        return text[:i] + rng.choice(EDIT_ALPHABET) + text[i + 1:]
    return text[:i]


def spoil(rng, data):
    """The JSON payload data with one seeded value swapped for a wrong one."""
    if isinstance(data, dict) and data and rng.random() < 0.8:
        key = rng.choice(sorted(data))
        return {**data, key: spoil(rng, data[key])}
    if isinstance(data, list) and data and rng.random() < 0.8:
        i = rng.randrange(len(data))
        return data[:i] + [spoil(rng, data[i])] + data[i + 1:]
    return rng.choice((None, -1, 7, "1/0", "x", [], {}, [1, 2], "2/1", True))


def malformed_cases(ws: cli.Workspace, seed: int, n: int):
    rng = random.Random(seed)
    for argv in BAD_OPTIONS:
        yield run(argv)
    for _ in range(n):
        for name in ("d1", "d2"):
            w = random_wpoint(rng, ws.operad(name), rng.randint(1, 4))
            yield run(["normalize", "--operad", name, edit(rng, w_text(w))])
        b = random_bpoint(rng, ws.d1, rng.randint(1, 4))
        yield run(["normalize", "--kind", "b", edit(rng, b_text(b))])
        yield run(["eval-xi", edit(rng, b_text(b))])
        yield run(["normalize", "--kind", "b",
                   json.dumps(spoil(rng, b_to_jsonable(b)), sort_keys=True)])


def digests(seed: int, n: int) -> dict:
    ws = cli.Workspace()
    return {
        "check": digest(check_cases(ws, seed)),
        **evaluator_cases(ws, seed, n),
        "psi_double_prime": digest(guard_cases(ws, seed, n)),
        "malformed": digest(malformed_cases(ws, seed, n)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=4, help="seeded inputs per case family")
    args = parser.parse_args()
    print(json.dumps({"seed": args.seed, "n": args.n, "surfaces": digests(args.seed, args.n)},
                     indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
