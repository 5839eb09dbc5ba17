"""The CLI loads only the modules its command runs.

`opcalc.cli` imports the core (operads, trees, W, B, serialize); the
evaluator handlers import `mapping` and `swisscheese` inside their bodies,
`check` imports `suites`, `mu --truncate` imports `bimodules`, and
`Workspace` builds its tag family on first use. A fresh interpreter shows
what a command leaves out of `sys.modules`:

  * no W/B command, on text or JSON input, loads the oracles, the bimodule
    classes, the law checks or the evaluators;
  * `json` loads only for a command that reads or writes JSON;
  * `eval-xi`, `eval-psi`, `lift` and `alpha` load the maps and evaluators
    of `mapping` but none of the law checks (`suites`), the slow oracles
    or the samplers, while `check` loads all three.

The in-process tests run every suite and every evaluator command, so that
a handler missing one of its local imports fails here with a NameError.
`wconstruction` and `bconstruction` still answer for the random-order
oracles, which live in `oracles`.

No command loads `dataclasses` or `inspect`: the records derive from
`trees.Record`, and together the two modules cost a W/B process about 10 ms.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opcalc.bconstruction as bc
import opcalc.wconstruction as wc
from opcalc import oracles
from opcalc.cli import SUITE_NAMES, Workspace, main
from opcalc.operads import LittleIntervals
from opcalc.serialize import b_to_jsonable, parse_b_text, parse_w_text, w_to_jsonable

SRC = str(Path(__file__).resolve().parent.parent / "src")
EVALUATOR_MODULES = ("opcalc.mapping", "opcalc.suites", "opcalc.swisscheese", "opcalc.sampling")
HEAVY_STDLIB = ("dataclasses", "inspect")
OUTSIDE_THE_CORE = ("opcalc.oracles", "opcalc.bimodules", "opcalc.suites", "opcalc.mapping",
                    "opcalc.sampling")
B_CUP = '(v :h=1/2 "(v \\"<[0/1,1/2] [1/2,1/1]>\\" l1 l2)" l1 l2)'
W_NESTED = '(v "<[0/1,1/2] [1/2,1/1]>" (e 1/2 (v "<[0/1,1/3] [1/3,1/1]>" l1 l2)) l3)'
D1 = LittleIntervals()
POINTS = {
    ("w", "text"): W_NESTED,
    ("w", "json"): json.dumps(w_to_jsonable(parse_w_text(D1, W_NESTED))),
    ("b", "text"): B_CUP,
    ("b", "json"): json.dumps(b_to_jsonable(parse_b_text(D1, B_CUP))),
}


def loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after running code, listed
    before `json` loads to print them."""
    script = code + ("\nimport sys\nloaded = sorted(sys.modules)"
                     "\nimport json\nprint(json.dumps(loaded))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_workspace_does_not_load_the_evaluators():
    loaded = loaded_after("import opcalc.cli\nopcalc.cli.Workspace()")
    assert "opcalc.cli" in loaded
    assert loaded.isdisjoint(EVALUATOR_MODULES)


def test_normalize_does_not_load_the_evaluators():
    loaded = loaded_after(
        "from opcalc.cli import main\n"
        "assert main(['normalize', '--operad', 'd1', 'l1']) == 0")
    assert "opcalc.serialize" in loaded
    assert loaded.isdisjoint(EVALUATOR_MODULES)


@pytest.mark.parametrize("code", [
    "import opcalc.cli\nopcalc.cli.Workspace()",
    "from opcalc.cli import main\nassert main(['normalize', '--operad', 'd1', 'l1']) == 0",
    f"from opcalc.cli import main\nassert main(['mu', '--kind', 'b', {B_CUP!r}]) == 0",
    "from opcalc.cli import main\nassert main(['lift', '--t', '1/2', 'l1']) == 0",
], ids=["workspace", "normalize", "mu-b", "lift"])
def test_no_command_loads_dataclasses_or_inspect(code):
    assert loaded_after(code).isdisjoint(HEAVY_STDLIB)


def _w_b_command(command: str, kind: str, fmt: str) -> list:
    """The argv of command on a point given as text or as JSON (fmt)."""
    point = POINTS[kind, fmt]
    if command == "compose":
        return ["compose", "--kind", "w", "-i", "1", point, point]
    return [command, "--kind", kind, point]


W_B_COMMANDS = [(command, kind, fmt)
                for command in ("normalize", "compose", "mu", "decompose", "dot")
                for kind in (("w",) if command == "compose" else ("w", "b"))
                for fmt in ("text", "json")]


@pytest.mark.parametrize("command,kind,fmt", W_B_COMMANDS,
                         ids=["-".join(case) for case in W_B_COMMANDS])
def test_w_b_commands_load_only_the_core(command, kind, fmt):
    argv = _w_b_command(command, kind, fmt)
    loaded = loaded_after(f"from opcalc.cli import main\nassert main({argv!r}) == 0")
    assert "opcalc.serialize" in loaded
    assert loaded.isdisjoint(OUTSIDE_THE_CORE), sorted(loaded & set(OUTSIDE_THE_CORE))


@pytest.mark.parametrize("command,kind,fmt", W_B_COMMANDS,
                         ids=["-".join(case) for case in W_B_COMMANDS])
def test_w_b_commands_load_json_only_for_json(command, kind, fmt):
    argv = _w_b_command(command, kind, fmt) + ["--format", fmt]
    loaded = loaded_after(f"from opcalc.cli import main\nassert main({argv!r}) == 0")
    assert ("json" in loaded) == (fmt == "json")


@pytest.mark.parametrize("argv", [
    ["mu", "--kind", "b", "--truncate", "2", B_CUP],
    ["check", "b-bimodule-axioms", "--samples", "1"],
], ids=["mu-truncate", "check-bimodule"])
def test_truncation_and_bimodule_suites_load_bimodules(argv):
    loaded = loaded_after(f"from opcalc.cli import main\nassert main({argv!r}) == 0")
    assert "opcalc.bimodules" in loaded


def test_mu_truncate_leaves_out_mapping():
    argv = ["mu", "--kind", "b", "--truncate", "2", B_CUP]
    loaded = loaded_after(f"from opcalc.cli import main\nassert main({argv!r}) == 0")
    assert "opcalc.mapping" not in loaded


def test_constructions_still_name_the_random_order_oracles():
    from opcalc.bconstruction import b_normalize_random_order
    from opcalc.wconstruction import normalize_random_order
    assert normalize_random_order is oracles.normalize_random_order
    assert b_normalize_random_order is oracles.b_normalize_random_order
    for module in (wc, bc):
        with pytest.raises(AttributeError):
            module.no_such_name


def test_the_oracles_load_on_first_access():
    assert "opcalc.oracles" not in loaded_after("import opcalc.wconstruction, opcalc.bconstruction")
    assert "opcalc.oracles" in loaded_after(
        "from opcalc.wconstruction import normalize_random_order")
    assert "opcalc.oracles" in loaded_after(
        "from opcalc.bconstruction import b_normalize_random_order")


def test_workspace_builds_its_family_once():
    ws = Workspace()
    assert ws.family is ws.family
    assert ws.qxprod.family is ws.family


def test_lift_loads_mapping():
    loaded = loaded_after(
        "from opcalc.cli import main\n"
        "assert main(['lift', '--t', '1/2', 'l1']) == 0")
    assert "opcalc.mapping" in loaded


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_runs(capsys, suite):
    code = main(["check", suite, "--samples", "1"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.startswith("ok ")


EVALUATOR_COMMANDS = {
    "eval-xi-const": ["eval-xi", "--path", "const", B_CUP],
    "eval-xi-loop": ["eval-xi", "--path", "loop-b", "--format", "json", B_CUP],
    "eval-psi": ["eval-psi", "--x", "b", B_CUP],
    "eval-psi-truncated": ["eval-psi", "--truncate", "2", B_CUP],
    "lift": ["lift", "--t", "1/3", B_CUP],
    "lift-switching": ["lift", "--x", "a", "--to", "b", "--t", "1/1", "--format", "json", B_CUP],
    "alpha": ["alpha", "--config", "o<[1/8,3/8] [5/8,1/1]>", "--loops", "loop-b", B_CUP],
}


@pytest.mark.parametrize("case", sorted(EVALUATOR_COMMANDS))
def test_every_evaluator_command_runs(capsys, case):
    code = main(EVALUATOR_COMMANDS[case])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.strip()


LAW_CHECK_MODULES = ("opcalc.suites", "opcalc.oracles", "opcalc.sampling")


@pytest.mark.parametrize("case", sorted(EVALUATOR_COMMANDS))
def test_evaluator_commands_leave_out_the_law_checks(case):
    loaded = loaded_after(
        f"from opcalc.cli import main\nassert main({EVALUATOR_COMMANDS[case]!r}) == 0")
    assert "opcalc.mapping" in loaded
    assert loaded.isdisjoint(LAW_CHECK_MODULES), sorted(loaded & set(LAW_CHECK_MODULES))


def test_check_loads_the_law_checks():
    loaded = loaded_after("from opcalc.cli import main\n"
                          "assert main(['check', 'mu', '--samples', '1']) == 0")
    assert loaded.issuperset(LAW_CHECK_MODULES)
