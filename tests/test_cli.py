import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from opcalc.bconstruction import mu_prime
import opcalc.cli as cli
from opcalc.cli import HANDLERS, MAX_SAMPLES, Workspace, build_parser, cmd_check, main
from opcalc.mapping import lift_path, xi_eval
from opcalc.operads import LittleIntervals
from opcalc.serialize import parse_b_text, parse_w_text
from opcalc.swisscheese import alpha_eval, parse_sc
from opcalc.wconstruction import w_compose

from golden_cli import read_cases

D1 = LittleIntervals()

HALVES = '<[0/1,1/2] [1/2,1/1]>'
THIRDS = '<[0/1,1/3] [2/3,1/1]>'
W_CUP = f'(v "{HALVES}" l1 l2)'
W_NESTED = f'(v "{HALVES}" (e 1/2 (v "{THIRDS}" l1 l2)) l3)'
B_CUP = f'(v :h=1/2 "(v \\"{HALVES}\\" l1 l2)" l1 l2)'
B_TWO = (f'(v :h=1/4 "(v \\"{HALVES}\\" l1 l2)" l1 '
         f'(v :h=11/16 "(v \\"{THIRDS}\\" l1 l2)" l2 l3))')


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# -------------------------------------------------------------------- points

def test_normalize_sorts_a_messy_presentation(capsys):
    messy = f'(v "{HALVES}" l2 l1)'
    code, out = run(capsys, "normalize", "--kind", "w", messy)
    assert code == 0
    assert parse_w_text(D1, out.strip()) == parse_w_text(D1, messy)


def test_normalize_json_round_trip(capsys):
    code, out = run(capsys, "normalize", "--kind", "w", "--format", "json", W_NESTED)
    assert code == 0
    code, out2 = run(capsys, "normalize", "--kind", "w", out.strip())
    assert code == 0
    assert parse_w_text(D1, out2.strip()) == parse_w_text(D1, W_NESTED)


def test_normalize_rejects_bad_heights(capsys):
    drop = f'(v :h=1/2 "(v \\"{HALVES}\\" l1 l2)" (v :h=1/4 "l1" l1) l2)'
    code, _ = run(capsys, "normalize", "--kind", "b", drop)
    assert code == 2


def test_compose_base_fixture(capsys):
    code, out = run(capsys, "compose", "--kind", "base", "-i", "1", HALVES, THIRDS)
    assert code == 0
    assert out.strip() == "<[0/1,1/6] [1/3,1/2] [1/2,1/1]>"


def test_compose_w_matches_library(capsys):
    code, out = run(capsys, "compose", "--kind", "w", "-i", "2", W_CUP, W_CUP)
    assert code == 0
    expected = w_compose(parse_w_text(D1, W_CUP), 2, parse_w_text(D1, W_CUP))
    assert parse_w_text(D1, out.strip()) == expected


def test_mu_agrees_with_its_truncation(capsys):
    length_one = f'(v "{HALVES}" (e 1/1 (v "{THIRDS}" l1 l2)) l3)'
    _, plain = run(capsys, "mu", "--kind", "w", length_one)
    _, truncated = run(capsys, "mu", "--kind", "w", "--truncate", "2", length_one)
    assert plain == truncated
    code, _ = run(capsys, "mu", "--kind", "w", "--truncate", "1", length_one)
    assert code == 2
    code, out = run(capsys, "mu", "--kind", "b", B_CUP)
    assert code == 0
    assert parse_w_text(D1, out.strip()) == mu_prime(parse_b_text(D1, B_CUP))


def test_decompose_reports_the_filtration(capsys):
    code, out = run(capsys, "decompose", "--kind", "w", "--format", "json", W_NESTED)
    assert code == 0
    data = json.loads(out)
    assert data["filtration"] == 3
    assert len(data["components"]) == 1
    code, out = run(capsys, "decompose", "--kind", "b", "--format", "json", B_TWO)
    assert code == 0
    data = json.loads(out)
    assert data["filtration"] == [3, 2]
    assert data["root"] is None


# Points with several components: leaves directly at the root, and leaves
# out of planar order below a chain of pieces.
W_FAN = ('(v "<[1/6,1/2] [13/18,7/9] [5/9,2/3]>" l2 (e 1/1 (v "<[1/2,5/8]>" l1)) '
         '(e 1/1 (v "<[2/5,7/10]>" l3)))')
W_CHAIN = ('(v "<[10/19,16/19] [2/19,8/19]>" l3 (e 1/1 (v "<[0/1,3/4]>" '
           '(e 1/1 (v "<[2/13,4/13] [8/13,1/1]>" l1 l2)))))')


def _w_json(label, arity):
    return {"kind": "w", "operad": "intervals",
            "root": {"children": [{"leaf": k} for k in range(1, arity + 1)], "label": label}}


@pytest.mark.parametrize("point, text, data", [
    (W_FAN, [
        "filtration 3",
        "skeleton (2 (1) (3))",
        'component 1: (v "<[1/6,1/2] [13/18,7/9] [5/9,2/3]>" l1 l2 l3)',
        'component 2: (v "<[1/2,5/8]>" l1)',
        'component 3: (v "<[2/5,7/10]>" l1)',
    ], {"components": [_w_json("<[1/6,1/2] [13/18,7/9] [5/9,2/3]>", 3),
                       _w_json("<[1/2,5/8]>", 1), _w_json("<[2/5,7/10]>", 1)],
        "filtration": 3, "skeleton": "(2 (1) (3))"}),
    (W_CHAIN, [
        "filtration 2",
        "skeleton (3 ((1 2)))",
        'component 1: (v "<[10/19,16/19] [2/19,8/19]>" l1 l2)',
        'component 2: (v "<[0/1,3/4]>" l1)',
        'component 3: (v "<[2/13,4/13] [8/13,1/1]>" l1 l2)',
    ], {"components": [_w_json("<[10/19,16/19] [2/19,8/19]>", 2), _w_json("<[0/1,3/4]>", 1),
                       _w_json("<[2/13,4/13] [8/13,1/1]>", 2)],
        "filtration": 2, "skeleton": "(3 ((1 2)))"}),
    ("l1", ["filtration 0", "skeleton 1"],
     {"components": [], "filtration": 0, "skeleton": "1"}),
], ids=["fan", "chain", "trivial"])
def test_decompose_w_golden(capsys, point, text, data):
    code, out = run(capsys, "decompose", "--kind", "w", point)
    assert code == 0
    assert out == "\n".join(text) + "\n"
    code, out = run(capsys, "decompose", "--kind", "w", "--format", "json", point)
    assert code == 0
    assert json.loads(out) == data
    assert out == json.dumps(data, sort_keys=True) + "\n"


# A root of height 0, a middle piece with a cap before a bare strand, and a
# trivial middle piece.
CUP_LABEL = W_CUP.replace('"', '\\"')
B_ROOT_CAP = (f'(v :h=0/1 "{CUP_LABEL}" (v :h=1/2 "{CUP_LABEL}" l1 '
              f'(v :h=1/1 "{CUP_LABEL}" l2 l3)) l4)')


def _b_json(root):
    return {"kind": "b", "operad": "intervals", "root": root}


@pytest.mark.parametrize("point, text, data", [
    (B_ROOT_CAP, [
        "filtration 2,1",
        f"root {W_CUP}",
        f'piece 1: (v :h=1/2 "(v \\"{HALVES}\\" l2 l1)" l1 l2)',
        f"  exits: cap({W_CUP}; 2,3) l1",
        "piece 2: l1",
        "  exits: l4",
    ], {"filtration": [2, 1], "root": W_CUP, "pieces": [
        {"point": _b_json({"height": "1/2", "children": [{"leaf": 1}, {"leaf": 2}], "label": {
            "kind": "w", "operad": "intervals",
            "root": {"children": [{"leaf": 2}, {"leaf": 1}], "label": HALVES}}}),
         "exits": [{"kind": "cap", "label": W_CUP, "leaves": [2, 3]},
                   {"kind": "ext", "leaf": 1}]},
        {"point": _b_json({"leaf": 1}), "exits": [{"kind": "ext", "leaf": 4}]}]}),
    ("l1", ["filtration 1,0", "root -", "piece 1: l1", "  exits: l1"],
     {"filtration": [1, 0], "root": None,
      "pieces": [{"point": _b_json({"leaf": 1}), "exits": [{"kind": "ext", "leaf": 1}]}]}),
], ids=["root-cap", "trivial"])
def test_decompose_b_golden(capsys, point, text, data):
    code, out = run(capsys, "decompose", "--kind", "b", point)
    assert code == 0
    assert out == "\n".join(text) + "\n"
    code, out = run(capsys, "decompose", "--kind", "b", "--format", "json", point)
    assert code == 0
    assert json.loads(out) == data
    assert out == json.dumps(data, sort_keys=True) + "\n"


# --------------------------------------------------------------- evaluation

def test_eval_xi_constant_loop_is_the_inclusion(capsys):
    code, out = run(capsys, "eval-xi", "--path", "const", B_CUP)
    assert code == 0
    ws = Workspace()
    expected = ws.family.base_map(mu_prime(parse_b_text(D1, B_CUP)))
    assert ws.d2.parse_element(out.strip()) == expected


def test_eval_psi_carries_the_tag(capsys):
    code, out = run(capsys, "eval-psi", "--x", "b", "--format", "json", B_CUP)
    assert code == 0
    data = json.loads(out)
    assert data["x"] == "b"
    _, truncated = run(capsys, "eval-psi", "--x", "b", "--format", "json",
                       "--truncate", "2", B_CUP)
    assert json.loads(truncated) == data


def test_lift_command_matches_the_library(capsys):
    code, out = run(capsys, "lift", "--x", "a", "--to", "b", "--t", "1/1",
                    "--format", "json", B_TWO)
    assert code == 0
    ws = Workspace()
    from opcalc.mapping import XPath
    g = XPath(ws.space, ((F(0), "a"), (F(1, 2), "b")))
    expected = lift_path(ws.section_map("a"), g, "a", F(1),
                         parse_b_text(D1, B_TWO), ws.qxprod)
    data = json.loads(out)
    assert data["tags"] == list(expected.tags)
    assert ws.d2.parse_element(data["q"]) == expected.q


def test_alpha_command_matches_the_library(capsys):
    code, out = run(capsys, "alpha", "--config", "o<[1/8,3/8] [5/8,1/1]>",
                    "--x", "a", "--loops", "loop-b", "--format", "json", B_TWO)
    assert code == 0
    ws = Workspace()
    loop = ws.path("loop-b")
    fs = [lambda b: xi_eval(loop, b), ws.section_map("a")]
    expected = alpha_eval(parse_sc("o<[1/8,3/8] [5/8,1/1]>"), fs,
                          parse_b_text(D1, B_TWO), ws.family.base_map)
    data = json.loads(out)
    assert data["tags"] == list(expected.tags)
    assert ws.d2.parse_element(data["q"]) == expected.q


# lift and alpha stdout as recorded while every process still checked the
# laws of its section map: trusting the map must not move a byte
@pytest.mark.parametrize("argv, q, tags", [
    (("lift", "--t", "1/2", "l1"),
     "<ball((0/1,0/1);1/1)>", "a"),
    (("lift", "--x", "a", "--to", "b", "--t", "1/1", B_TWO),
     "<ball((-15/34,-4/17);1/2) ball((41/170,-8/255);1/6) ball((109/170,128/255);1/6)>", "aaa"),
    (("lift", "--x", "b", "--t", "0/1", B_CUP),
     "<ball((-35/74,6/37);1/2) ball((35/74,-6/37);1/2)>", "bb"),
    (("lift", "--x", "*", "--to", "a", "--switch", "1/3", "--t", "2/3", B_TWO),
     "<ball((-1/2,0/1);1/2) ball((1/6,0/1);1/6) ball((5/6,0/1);1/6)>", "***"),
    (("lift", "--x", "a", "--to", "*", "--switch", "3/4", "--t", "1/4", B_CUP),
     "<ball((-45/106,-14/53);1/2) ball((45/106,14/53);1/2)>", "aa"),
    (("alpha", "--config", "o<[1/8,3/8] [5/8,1/1]>", "--x", "a", "--loops", "loop-b", B_TWO),
     "<ball((-2/5,3/10);1/2) ball((31/435,-103/290);1/6) ball((317/435,-71/290);1/6)>", "aaa"),
    (("alpha", "--config", "o<[1/4,1/1]>", "--x", "b", B_CUP),
     "<ball((-20/41,9/82);1/2) ball((20/41,-9/82);1/2)>", "bb"),
    (("alpha", "--config", "o<[1/8,3/8] [5/8,1/1]>", "--x", "*", B_CUP),
     "<ball((-1/2,0/1);1/2) ball((1/2,0/1);1/2)>", "**"),
    (("alpha", "--config", "o<[0/1,1/4] [3/8,1/2] [3/4,1/1]>", "--x", "b",
      "--loops", "loop-b,const", B_TWO),
     "<ball((-1/2,0/1);1/2) ball((1/6,0/1);1/6) ball((5/6,0/1);1/6)>", "bbb"),
], ids=["lift-default", "lift-a-to-b", "lift-b", "lift-star-to-a", "lift-a-to-star",
        "alpha-a-loop-b", "alpha-b", "alpha-star", "alpha-b-two-loops"])
def test_lift_and_alpha_golden(capsys, argv, q, tags):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == f"{q} ; tags=({','.join(tags)})\n"
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps({"q": q, "tags": list(tags)}, sort_keys=True) + "\n"


def test_alpha_rejects_closed_configurations(capsys):
    code, _ = run(capsys, "alpha", "--config", "c<[1/8,3/8]>", B_CUP)
    assert code == 2


# -------------------------------------------------------------------- checks

def test_check_passes_and_reports_each_law(capsys):
    code, out = run(capsys, "check", "operad-axioms", "--operad", "assoc",
                    "--samples", "60", "--seed", "5")
    assert code == 0
    assert out.startswith("ok operad-axioms:assoc")
    assert "pass assoc-nested" in out
    assert "pass restrict-dropped" in out


def test_check_json_is_deterministic(capsys):
    args = ("check", "b-confluence", "--operad", "assoc", "--samples", "15",
            "--seed", "11", "--format", "json")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert json.loads(first)["ok"] is True


@pytest.mark.parametrize("argv, stdout, code", [
    pytest.param(argv, stdout, code, id=f"{index}-{argv[0]}")
    for index, (argv, stdout, code) in enumerate(read_cases(), start=1)])
def test_golden_cli_table(capsys, argv, stdout, code):
    assert run(capsys, *argv) == (code, stdout)


@pytest.mark.parametrize("x", ["a", "b"])
def test_check_psi_double_prime_golden(capsys, x):
    name = f"bimodule-map:psi''(psi'({x}))"
    code, out = run(capsys, "check", "psi-double-prime", "--samples", "5", "--x", x)
    assert code == 0
    assert out == (f"ok {name} (samples=5 seed=0)\n"
                   "  pass left-action\n  pass right-action\n  pass restriction\n")
    code, out = run(capsys, "check", "psi-double-prime", "--samples", "5", "--x", x,
                    "--format", "json")
    assert code == 0
    assert out == json.dumps({
        "checks": [{"check": "left-action", "pass": True},
                   {"check": "right-action", "pass": True},
                   {"check": "restriction", "pass": True}],
        "name": name, "ok": True, "samples": 5, "seed": 0}, sort_keys=True) + "\n"


def test_check_zero_samples_is_flagged(capsys):
    code, out = run(capsys, "check", "w-confluence", "--samples", "0",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["flag"] == "no-samples"
    assert [(c["check"], c.get("vacuous")) for c in json.loads(out)["checks"]] == [
        ("confluence", True), ("twist-invariance", True)]


def test_check_of_a_fixed_table_is_not_flagged_at_zero_samples(capsys):
    # the matching suite evaluates its whole table whatever --samples says
    code, out = run(capsys, "check", "matching", "--samples", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["samples"] == 4 and "flag" not in data
    code, out = run(capsys, "check", "matching", "--samples", "0")
    assert code == 0
    assert out.splitlines()[0] == "ok matching:X (samples=4 seed=0)"


def test_check_lists_laws_no_sample_reached_as_vacuous(capsys):
    # one arity-1 sample reaches neither law that needs two inputs
    args = ("check", "operad-axioms", "--samples", "1", "--seed", "2")
    code, out = run(capsys, *args, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and "flag" not in data
    assert [c["check"] for c in data["checks"]] == [
        "unit-left", "unit-right", "assoc-nested", "assoc-disjoint", "restrict-identity",
        "restrict-functorial", "restrict-compose", "restrict-dropped"]
    assert [c["check"] for c in data["checks"] if c.get("vacuous")] == [
        "assoc-disjoint", "restrict-dropped"]
    code, out = run(capsys, *args)
    assert code == 0
    assert out.splitlines() == [
        "ok operad-axioms:intervals (samples=1 seed=2)", "  pass unit-left", "  pass unit-right",
        "  pass assoc-nested", "  vacuous assoc-disjoint", "  pass restrict-identity",
        "  pass restrict-functorial", "  pass restrict-compose", "  vacuous restrict-dropped"]


class SlotOneIntervals(LittleIntervals):
    # every composition lands in the first slot; the law suite must notice
    def compose(self, x, i, y):
        return super().compose(x, 1, y)


def test_check_negative_samples_is_a_usage_error(capsys):
    code = main(["check", "w-confluence", "--samples", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "samples" in captured.err and "Traceback" not in captured.err


def test_check_samples_above_the_cap_are_a_usage_error(capsys):
    assert MAX_SAMPLES >= 200
    code = main(["check", "w-confluence", "--samples", str(MAX_SAMPLES + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(MAX_SAMPLES) in captured.err and "Traceback" not in captured.err


def test_check_failure_exits_one_with_a_witness(capsys):
    ws = Workspace()
    ws.operads["broken"] = SlotOneIntervals()
    args = argparse.Namespace(suite="operad-axioms", operad="broken",
                              samples=80, seed=0, x="a", path="loop-a",
                              format="text")
    code = cmd_check(ws, args)
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "x=" in out


def test_check_unknown_names_are_usage_errors(capsys):
    assert main(["check", "no-such-suite"]) == 2
    assert main(["check", "operad-axioms", "--operad", "nope"]) == 2
    capsys.readouterr()


# --------------------------------------------------------------------- misc

def test_dot_emits_height_annotations(capsys):
    code, out = run(capsys, "dot", "--kind", "b", B_CUP)
    assert code == 0
    assert out.startswith("digraph")
    assert "1/2" in out


def test_malformed_point_is_a_parse_error(capsys):
    assert main(["normalize", "--kind", "w", '(v "<[0/1' ]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["normalize", "--kind", "w", '(v "<[0/1,+1/2] [1/2,1/1]>" l1 l2)'],
    ["normalize", "--kind", "w", '(v "<[0/1,1/2] [1/2,1/1]>" l1 l_2)'],
    ["normalize", "--operad", "assoc", "--kind", "w", '(v "word(2 ١)" l1 l2)'],
    ["compose", "--kind", "base", "-i", "1", "<[0/1,1/-2]>", HALVES],
    ["lift", "--t", "1_0/20", "l1"],
])
def test_other_number_spellings_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


LONG = "3" * 5000


@pytest.mark.parametrize("argv", [
    ["normalize", "--kind", "w", f'(v "<[0/1,1/{LONG}] [1/2,1/1]>" l1 l2)'],
    ["normalize", "--kind", "w", f'(v "{HALVES}" l1 (e 1/{LONG} (v "{THIRDS}" l2 l3)))'],
    ["normalize", "--kind", "w", f'(v "{HALVES}" l1 l{LONG})'],
    ["normalize", "--kind", "w", f'(v "{HALVES}" l1 x{LONG})'],
    ["normalize", "--kind", "w", f'(v "<[0/1,{LONG}/1]>" l1)'],
    ["normalize", "--kind", "b", f'(v :h=1/{LONG} "l1" l1)'],
    ["normalize", "--operad", "assoc", "--kind", "w", f'(v "word(1 {LONG})" l1 l2)'],
    ["compose", "--kind", "base", "-i", "1", f"<[0/1,1/{LONG}]>", HALVES],
    ["lift", "--t", f"1/{LONG}x", "l1"],
])
def test_errors_do_not_echo_long_input(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert len(captured.err) < 300


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts integers of any length")
def test_json_integer_past_the_digit_limit_gets_its_own_message(capsys):
    digits = DIGIT_LIMIT + 1
    record = '{"kind": "w", "operad": "intervals", "root": {"leaf": ' + "1" * digits + "}}"
    assert main(["normalize", "--kind", "w", record]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: integer of {digits} digits, more than int() converts\n"


@pytest.mark.parametrize("argv", [
    ["lift", "--t", " 1/2 ", "l1"],
    ["lift", "--t", "1/2\t", "l1"],
    ["lift", "--to", "b", "--switch", " 1/2", "--t", "1/2", "l1"],
    ["normalize", "--kind", "w", json.dumps(
        {"kind": "w", "operad": "intervals", "root": {"label": HALVES, "children": [
            {"leaf": 1}, {"length": "1/2 ", "node": {"label": "<[0/1,1/1]>",
                                                    "children": [{"leaf": 2}]}}]}})],
    ["normalize", "--kind", "b", json.dumps(
        {"kind": "b", "operad": "intervals", "root": {"height": " 1/2", "children": [{"leaf": 1}],
         "label": {"kind": "w", "operad": "intervals", "root": {"leaf": 1}}}})],
])
def test_fractions_with_whitespace_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: bad fraction")


@pytest.mark.parametrize("argv,err", [
    (["lift", "--to", "b", "--switch", "0/1", "--t", "1/2", "l1"],
     "--switch must lie in (0,1], got '0/1'"),
    (["lift", "--to", "b", "--switch", "3/2", "--t", "1/2", "l1"],
     "--switch must lie in (0,1], got '3/2'"),
    (["lift", "--switch", "3/2", "--t", "1/2", "l1"], "--switch must lie in (0,1], got '3/2'"),
    (["lift", "--switch=-1/4", "--t", "1/2", "l1"], "--switch must lie in (0,1], got '-1/4'"),
    (["normalize", "--operad", "d1", '(v "<[1/2,1/2] [0/1,1/4]>" l1 l2)'],
     "interval '[1/2,1/2]' is empty"),
    (["normalize", "--operad", "d2",
      '(v "<ball((0/1,0/1);1/2) ball((1/4,0/1);1/4)>" l1 l2)'],
     "balls 'ball((0/1,0/1);1/2)' and 'ball((1/4,0/1);1/4)' overlap"),
    (["lift", "--x", "z", "--t", "1/2", "l1"], "unknown tag 'z'; have *, a, b"),
    (["eval-xi", "--path", "foo", "l1"], "unknown path 'foo'; have const, loop-a, loop-b"),
    (["alpha", "--config", "o<[0/1,1/4] [1/2,1/1]>", "--loops", "loop-a,loop-b", "l1"],
     "too many loops: this configuration takes at most 1, got 2"),
])
def test_argument_errors_name_what_is_wrong(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}\n"


def test_a_switch_at_one_is_accepted(capsys):
    code, out = run(capsys, "lift", "--to", "b", "--switch", "1/1", "--t", "1/2", "l1")
    assert code == 0 and out.endswith(" ; tags=(a)\n")


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["lift", B_CUP])
    assert err.value.code == 2


W_LEAF = {"kind": "w", "operad": "intervals", "root": {"leaf": 1}}
MALFORMED_W_ROOTS = {
    "missing-children": {"label": "<[0/1,1/1]>"},
    "children-not-a-list": {"label": HALVES, "children": 5},
    "node-not-an-object": [1, 2],
    "child-not-an-object": {"label": HALVES, "children": [1, {"leaf": 2}]},
    "leaf-is-a-string": {"label": HALVES, "children": [{"leaf": "1"}, {"leaf": 2}]},
    "leaf-is-a-bool": {"label": HALVES, "children": [{"leaf": True}, {"leaf": 2}]},
    "missing-label": {"children": [{"leaf": 1}]},
    "edge-without-node": {"label": HALVES, "children": [{"leaf": 1}, {"length": "1/2"}]},
    "length-not-a-string": {"label": HALVES, "children": [
        {"leaf": 1}, {"length": 1, "node": {"label": "<[0/1,1/1]>", "children": [{"leaf": 2}]}}]},
    "edge-onto-a-leaf": {"label": HALVES, "children": [
        {"leaf": 1}, {"length": "1/2", "node": {"leaf": 2}}]},
    "edge-at-the-root": {"length": "1/2", "node": {"label": "<[0/1,1/1]>",
                                                  "children": [{"leaf": 1}]}},
}
MALFORMED_B_ROOTS = {
    "missing-children": {"height": "1/2", "label": W_LEAF},
    "children-not-a-list": {"height": "1/2", "label": W_LEAF, "children": 5},
    "missing-height": {"label": W_LEAF, "children": [{"leaf": 1}]},
    "height-not-a-string": {"height": 1, "label": W_LEAF, "children": [{"leaf": 1}]},
    "missing-label": {"height": "1/2", "children": [{"leaf": 1}]},
    "label-not-a-record": {"height": "1/2", "label": "l1", "children": [{"leaf": 1}]},
    "node-not-an-object": "l1",
    "leaf-is-a-float": {"height": "1/2", "label": W_LEAF, "children": [{"leaf": 1.0}]},
}


def _normalize_json(capsys, kind, root):
    record = {"kind": kind, "operad": "intervals", "root": root}
    code = main(["normalize", "--kind", kind, json.dumps(record)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("case", sorted(MALFORMED_W_ROOTS))
def test_malformed_w_json_is_a_parse_error(capsys, case):
    code, captured = _normalize_json(capsys, "w", MALFORMED_W_ROOTS[case])
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("case", sorted(MALFORMED_B_ROOTS))
def test_malformed_b_json_is_a_parse_error(capsys, case):
    code, captured = _normalize_json(capsys, "b", MALFORMED_B_ROOTS[case])
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_json_record_without_root_is_a_parse_error(capsys):
    code = main(["normalize", "--kind", "w", '{"kind":"w","operad":"intervals"}'])
    assert code == 2
    assert "root" in capsys.readouterr().err


def test_malformed_json_records_exit_two_without_a_traceback():
    # the same records in a fresh process, as a shell user would send them
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for root in ({"label": "<[0/1,1/1]>"}, {"label": HALVES, "children": 5}):
        record = json.dumps({"kind": "w", "operad": "intervals", "root": root})
        proc = subprocess.run(
            [sys.executable, "-m", "opcalc.cli", "normalize", "--kind", "w", record],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr


def test_a_closed_stdout_exits_141_without_a_traceback():
    # the read end is closed before the process writes, so its first write
    # fails: what `| head -1` does when the reader wins the race
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "opcalc.cli", "check", "operad-axioms", "--samples", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 141
    assert "Traceback" not in err


def test_an_interrupted_handler_exits_130_without_a_traceback(capsys, monkeypatch):
    def interrupted(ws, args):
        raise KeyboardInterrupt

    monkeypatch.setitem(HANDLERS, "normalize", interrupted)
    try:
        code = main(["normalize", "l1"])
    except KeyboardInterrupt:   # not re-raised: it would end the whole test run
        pytest.fail("main let the interrupt through")
    assert code == 130
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "interrupted\n"


# ------------------------------------------------- one subparser per process

def _parse(parser, argv, capsys):
    """The exit code or namespace of parsing argv, with what it printed."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


# a valid argv of each command but `check`, after its name
VALID = {"normalize": ["l1"], "compose": ["-i", "1", "l1", "l1"], "mu": ["l1"],
         "decompose": ["l1"], "eval-xi": [B_CUP], "eval-psi": [B_CUP], "lift": ["--t", "1/2", "l1"],
         "alpha": ["--config", "o<[0/1,1/1]>", B_CUP], "dot": ["l1"]}
# options a command would accept and ignore: only `check` samples, and the
# evaluators work over d1 alone
UNREAD_OPTIONS = [
    ["lift", "--operad", "d2", "--seed", "9", "--t", "1/2", "l1"],
    *([name, "--operad", "d2", *VALID[name]] for name in ("eval-xi", "eval-psi", "lift", "alpha")),
    *([name, "--seed", "3", *VALID[name]] for name in VALID),
]
PARSER_EXITS = [
    [], ["--help"], ["-h"], ["bogus"], ["bogus", "l1"], ["--bogus", "normalize", "l1"],
    ["-h", "normalize"], ["normalize"], ["normalize", "--bogus", "l1"],
    ["normalize", "l1", "l2"], ["compose", "-i", "x", "l1", "l1"], ["lift", B_CUP],
    ["check", "mu", "--format", "xml"], ["mu", "--kind", "base", "l1"],
    *([name, "--help"] for name in HANDLERS), *UNREAD_OPTIONS,
]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda argv: " ".join(argv) or "nothing")
def test_main_prints_what_the_full_parser_prints(capsys, argv):
    full = _parse(build_parser(), argv, capsys)
    assert isinstance(full[0], int)
    with pytest.raises(SystemExit) as chosen:
        main(argv)
    captured = capsys.readouterr()
    assert (chosen.value.code, captured.out, captured.err) == full


def test_the_valid_argvs_run(capsys):
    assert sorted(VALID) == sorted(set(HANDLERS) - {"check"})
    for name, rest in VALID.items():
        assert main([name, *rest]) == 0, name
    capsys.readouterr()


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=" ".join)
def test_options_no_handler_reads_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["normalize", "--kind", "b", "--format", "json", B_CUP],
    ["compose", "-i", "2", "--kind", "base", HALVES, THIRDS],
    ["mu", "--truncate", "2", W_CUP], ["decompose", W_CUP], ["eval-xi", B_CUP],
    ["eval-psi", "--x", "b", B_CUP], ["lift", "--to", "b", "--t", "1/3", B_CUP],
    ["alpha", "--config", "o<[0/1,1/1]>", B_CUP], ["check", "mu", "--samples", "3"],
    ["dot", "--kind", "b", B_CUP],
])
def test_the_chosen_subparser_reads_what_the_full_parser_reads(capsys, argv):
    assert _parse(build_parser(argv[0]), argv, capsys) == _parse(build_parser(), argv, capsys)


def test_main_builds_the_full_parser_only_when_it_must(capsys, monkeypatch):
    built = []
    full_builder = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or full_builder(command))
    assert main(["normalize", "l1"]) == 0
    for argv in ([], ["--help"], ["bogus"], ["normalize", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert built == ["normalize", None, None, None, "normalize"]
