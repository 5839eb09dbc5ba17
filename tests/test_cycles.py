"""Public entry points leave no reference cycles behind.

A recursive inner closure refers to itself through its cell, so every call
that defines one leaves a cycle of function, cell and frame objects that
only the cycle collector frees. The recursions are module-level functions
that take their context as arguments; with the collector off, one seeded
call of each entry point must leave nothing for `gc.collect()` to find.
"""

import gc
import random
from fractions import Fraction as F

import pytest

from opcalc.bconstruction import (
    b_corolla,
    b_lambda,
    b_left_act,
    b_map_heights,
    b_prime_decompose,
    b_right_act,
    b_text,
    bpoint,
    mu_prime,
    slice_point,
)
from opcalc.bimodules import WSelfBimodule, eval_truncated_bimodule_map, eval_truncated_operad_map
from opcalc.cli import Workspace, skeleton_text
from opcalc.mapping import XPath, lift_path, psi_prime_eval, xi_eval
from opcalc.operads import Associative, LittleDiscs, LittleIntervals, PointedSet, framed_intervals
from opcalc.oracles import b_normalize_random_order, normalize_random_order
from opcalc.sampling import random_bpoint, random_raw_bnode, random_raw_wnode, random_wpoint
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
from opcalc.suites import suite_matching
from opcalc.swisscheese import alpha_eval, d1_action_eval, parse_sc
from opcalc.trees import InjectiveMap
from opcalc.wconstruction import (
    mu,
    w_compose,
    w_corolla,
    w_lambda,
    w_prime_decompose,
    w_text,
    wpoint,
)

from formal import FormalOperad, eval_formal

OPERADS = {"d1": LittleIntervals(), "d2": LittleDiscs(2)}


def cyclic_garbage(call) -> int:
    """Objects the cycle collector finds after one call, once warmed up."""
    call()   # first calls may fill caches or import lazily
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def core_calls(op):
    rng = random.Random(1811)
    raw_w = random_raw_wnode(rng, op, 4)
    raw_b = random_raw_bnode(rng, op, 4)
    a = wpoint(op, raw_w)
    b = bpoint(op, raw_b)
    p = random_wpoint(rng, op, 2)
    u = InjectiveMap(2, 4, (3, 1))
    return {
        "wpoint": lambda: wpoint(op, raw_w),
        "w_corolla": lambda: w_corolla(op, mu(a)),
        "normalize_random_order": lambda: normalize_random_order(random.Random(0), op, raw_w),
        "w_compose": lambda: w_compose(a, 2, a),
        "w_lambda": lambda: w_lambda(u, a),
        "mu": lambda: mu(a),
        "w_prime_decompose": lambda: w_prime_decompose(a),
        "eval_truncated_operad_map": lambda: eval_truncated_operad_map(mu, 4, a, op),
        "tree_text": lambda: skeleton_text(w_prime_decompose(a).skeleton),
        "bpoint": lambda: bpoint(op, raw_b),
        "b_corolla": lambda: b_corolla(op, p, F(1, 2)),
        "b_normalize_random_order": lambda: b_normalize_random_order(random.Random(0), op, raw_b),
        "b_left_act": lambda: b_left_act(p, (b, b)),
        "b_right_act": lambda: b_right_act(b, 2, p),
        "b_lambda": lambda: b_lambda(u, b),
        "mu_prime": lambda: mu_prime(b),
        "b_map_heights": lambda: b_map_heights(b, lambda h: h / 2),
        "slice_point": lambda: slice_point(b, ((F(1, 3), True), (F(2, 3), False))),
        "b_prime_decompose": lambda: b_prime_decompose(b),
        "eval_truncated_bimodule_map": lambda: eval_truncated_bimodule_map(
            mu_prime, 4, b, WSelfBimodule(op)),
        "text": lambda: (parse_w_text(op, w_text(a)), parse_b_text(op, b_text(b))),
        "json": lambda: (w_from_jsonable(op, w_to_jsonable(a)),
                         b_from_jsonable(op, b_to_jsonable(b))),
        "dot": lambda: (w_dot(a), b_dot(b)),
    }


CORE = sorted(core_calls(OPERADS["d1"]))


@pytest.mark.parametrize("name", sorted(OPERADS))
@pytest.mark.parametrize("entry", CORE)
def test_core_entry_points_leave_no_cycles(name, entry):
    assert cyclic_garbage(core_calls(OPERADS[name])[entry]) == 0


def evaluator_calls():
    ws = Workspace()
    b = random_bpoint(random.Random(1811), ws.d1, 4)
    loop = ws.path("loop-a")
    f0 = ws.section_map("a")
    g = XPath(ws.space, ((F(0), "a"), (F(1, 2), "b")))
    open_c = parse_sc("o<[1/8,3/8] [5/8,1/1]>")
    closed_c = parse_sc("c<[1/8,3/8] [5/8,7/8]>")
    fs = [lambda y: xi_eval(loop, y)]
    return {
        "xi_eval": lambda: xi_eval(loop, b),
        "psi_prime_eval": lambda: psi_prime_eval(ws.hofiber("b"), b),
        "lift_path": lambda: lift_path(f0, g, "a", F(1, 3), b, ws.qxprod),
        "alpha_eval": lambda: alpha_eval(open_c, fs + [f0], b, ws.family.base_map),
        "d1_action_eval": lambda: d1_action_eval(closed_c, fs * 2, b, ws.family.base_map),
    }


@pytest.mark.parametrize("entry", ["alpha_eval", "d1_action_eval", "lift_path",
                                   "psi_prime_eval", "xi_eval"])
def test_evaluators_leave_no_cycles(entry):
    assert cyclic_garbage(evaluator_calls()[entry]) == 0


def test_base_operads_leave_no_cycles():
    rng = random.Random(1811)
    formal = FormalOperad()
    expr = formal.compose(formal.atom("f", 2), 1, formal.atom("g", 2))
    d1 = LittleIntervals()

    def calls():
        for op in (LittleIntervals(), LittleDiscs(2), Associative(), framed_intervals()):
            x, y = op.sample(rng, 3), op.sample(rng, 2)
            op.parse_element(op.format_element(op.compose(x, 2, y)))
            op.restrict(InjectiveMap(2, 3, (3, 1)), x)
        formal.parse_element(formal.format_element(expr))
        formal.restrict(InjectiveMap(2, 3, (1, 3)), expr)
        eval_formal(expr, d1, lambda name, payload, k: d1.sample(rng, k))

    assert cyclic_garbage(calls) == 0


def test_matching_suite_leaves_no_cycles():
    space = PointedSet("X", ("*", "a", "b"), "*")
    assert cyclic_garbage(lambda: suite_matching(space, max_n=3)) == 0

