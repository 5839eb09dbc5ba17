"""Each `DomainError` an argument out of range raises, with its message.

These raises guard the structure maps, the injections, the slicer, the
raw-tree validators, the base operads' checks, the text and JSON readers
and the truncated evaluators against arguments the callers inside the
package never pass, so no law suite reaches them.

An echoed number (an edge length, a height, a time, a radius) is written
p/q and cut as `shown` cuts; a path law's witness writes its time p/q.

The same holds for the guards of the maps and paths in `mapping`: a
bimodule map between bimodules over different operads, the inclusion into
discs of a dimension other than 2, concatenating paths between different
operads, a reparametrization with no pairs or with times that do not
increase, a family missing a tag, a sweep to an unknown tag, a tag path
starting past 1, an untagged element, a vertex value of the wrong arity
and `psi_double_prime` of a map into another target. And for those of
`swisscheese`: a degenerate disc in `rescale`, the wrong number of loops
or a tail away from the base map in `path_act_sc`, and `sample_sc1`
asked for no interval.
"""

import random
from fractions import Fraction as F

import pytest

from opcalc.bconstruction import BNode, b_lambda, b_left_act, b_right_act, bpoint, slice_point
from opcalc.bimodules import (BBimodule, WSelfBimodule, eval_truncated_bimodule_map,
                              eval_truncated_operad_map)
from opcalc.mapping import (BimoduleMap, PathOfMaps, PathSegment, PointedMapFamily,
                            QXProductBimodule, XPath, check_path, concat_paths, constant_path,
                            delta_family, eta_map, eta_mu_map, fold_point_through, pl_reparam,
                            psi_double_prime)
from opcalc.operads import LittleDiscs, LittleIntervals, PointedSet
from opcalc.serialize import parse_b_text, parse_w_text, w_from_jsonable
from opcalc.swisscheese import parse_sc, path_act_sc, rescale, sample_sc1
from opcalc.trees import DomainError, InjectiveMap, block_injection, drop_block
from opcalc.wconstruction import WEdge, WNode, WOperad, mu, w_compose, w_lambda, wpoint

D1 = LittleIntervals()
D2 = LittleDiscs(2)
HALVES = ((F(0), F(1, 2)), (F(1, 2), F(1)))
CUP_TEXT = '(v "<[0/1,1/2] [1/2,1/1]>" l1 l2)'
EM = eta_mu_map(D1, D2)
X = PointedSet("X", ("*", "a", "b"), "*")
FAM = delta_family(D1, D2, X, {"*": 0, "a": F(1, 2), "b": F(-1, 3)})
OPEN_UNIT = parse_sc("o<[0/1,1/1]>")


def _cup():
    return wpoint(D1, WNode(HALVES, (1, 2)))


def _b_cup():
    return bpoint(D1, BNode(_cup(), F(1, 2), (1, 2)))


def _two_pieces():
    """A cup with a second cup on an edge of length 1: two components."""
    return wpoint(D1, WNode(HALVES, (WEdge(F(1), WNode(HALVES, (1, 2))), 3)))


def _capped():
    """A cup with a cup at height 1 above it: one piece with one cap."""
    return bpoint(D1, BNode(_cup(), F(1, 2), (1, BNode(_cup(), F(1), (2, 3)))))


def _w_point_over_d2():
    return wpoint(D2, WNode(D2.sample(random.Random(0), 2), (1, 2)))


def _identity(name):
    return BimoduleMap(name, BBimodule(D1), BBimodule(D1), lambda b: b)


def _pieces_as_they_are(order):
    """The capped point through the truncated evaluator, its caps applied in `order`."""
    return eval_truncated_bimodule_map(lambda piece: piece, 3, _capped(), BBimodule(D1), order=order)


CASES = {
    "w_compose slot 0": (lambda: w_compose(_cup(), 0, _cup()), r"slot 0 out of range 1\.\.2"),
    "w_compose slot 3": (lambda: w_compose(_cup(), 3, _cup()), r"slot 3 out of range 1\.\.2"),
    "b_right_act slot 0": (lambda: b_right_act(_b_cup(), 0, _cup()),
                           r"slot 0 out of range 1\.\.2"),
    "b_right_act slot 3": (lambda: b_right_act(_b_cup(), 3, _cup()),
                           r"slot 3 out of range 1\.\.2"),
    "block_injection slot 0": (
        lambda: block_injection(InjectiveMap.identity(2), 0, InjectiveMap.identity(1)),
        r"slot 0 out of range 1\.\.2"),
    "block_injection slot 3": (
        lambda: block_injection(InjectiveMap.identity(2), 3, InjectiveMap.identity(1)),
        r"slot 3 out of range 1\.\.2"),
    "injection at 0": (lambda: InjectiveMap(2, 3, (1, 3))(0), r"argument 0 outside 1\.\.2"),
    "injection at 3": (lambda: InjectiveMap(2, 3, (1, 3))(3), r"argument 3 outside 1\.\.2"),
    "b_left_act too few": (lambda: b_left_act(_cup(), (_b_cup(),)), "need 2 points, got 1"),
    "b_left_act too many": (lambda: b_left_act(_cup(), (_b_cup(),) * 3),
                            "need 2 points, got 3"),
    "wself left_act too few": (lambda: WSelfBimodule(D1).left_act(_cup(), (_cup(),)),
                               "need 2 points, got 1"),
    "slice_point unsorted cuts": (
        lambda: slice_point(_b_cup(), ((F(2, 3), True), (F(1, 3), False))),
        "cuts must be listed in increasing order"),
    "w text after point": (lambda: parse_w_text(D1, CUP_TEXT + " l1"),
                           "^trailing input after point$"),
    "w text after trivial point": (lambda: parse_w_text(D1, "l1 l2"),
                                   "^trailing input after trivial point$"),
    "b text after point": (lambda: parse_b_text(D1, _b_cup().text + " l1"),
                           "^trailing input after point$"),
    "b text after trivial point": (lambda: parse_b_text(D1, "l1 l1"),
                                   "^trailing input after trivial point$"),
    "assigned value of the wrong arity": (
        lambda: eval_truncated_operad_map(lambda piece: D1.unit(), 2, _cup(), D1),
        "assigned value has the wrong arity"),
    "order too short": (lambda: eval_truncated_operad_map(mu, 2, _two_pieces(), D1, order=[]),
                        "order must be a permutation"),
    "order out of range": (
        lambda: eval_truncated_operad_map(mu, 2, _two_pieces(), D1, order=[1]),
        "order must be a permutation"),
    "order repeating an edge": (
        lambda: eval_truncated_operad_map(mu, 2, _two_pieces(), D1, order=[0, 0]),
        "order must be a permutation"),
    "order one step too long": (
        lambda: eval_truncated_operad_map(mu, 2, _two_pieces(), D1, order=[0, 1]),
        "^order must be a permutation of the contraction steps$"),
    "assigned piece of the wrong arity": (
        lambda: eval_truncated_bimodule_map(lambda piece: bpoint(D1, 1), 2, _b_cup(), BBimodule(D1)),
        "^assigned value has the wrong arity$"),
    "cap order too short": (lambda: _pieces_as_they_are([]),
                            "^order must be a permutation of the contraction steps$"),
    "cap order out of range": (lambda: _pieces_as_they_are([1]),
                               "^order must be a permutation of the contraction steps$"),
    "cap order repeating a cap": (lambda: _pieces_as_they_are([0, 0]),
                                  "^order must be a permutation of the contraction steps$"),
    "w_lambda into the wrong arity": (lambda: w_lambda(InjectiveMap(1, 3, (1,)), _cup()),
                                      r"^injection into \[3\] against arity 2$"),
    "w_lambda keeping no input": (lambda: w_lambda(InjectiveMap(0, 2, ()), _cup()),
                                  "^a restriction must keep at least one input$"),
    "b_lambda into the wrong arity": (lambda: b_lambda(InjectiveMap(1, 3, (1,)), _b_cup()),
                                      r"^injection into \[3\] against arity 2$"),
    "b_lambda keeping no input": (lambda: b_lambda(InjectiveMap(0, 2, ()), _b_cup()),
                                  "^a restriction must keep at least one input$"),
    "injections that do not compose": (
        lambda: InjectiveMap(2, 3, (1, 3)).after(InjectiveMap(1, 3, (2,))),
        r"^cannot compose \[1\]->\[3\] with \[2\]->\[3\]$"),
    "drop_block past the end": (lambda: drop_block(InjectiveMap(1, 3, (1,)), 3, 2),
                                r"^block 3\.\.4 does not fit inside \[3\]$"),
    "drop_block of an empty block": (lambda: drop_block(InjectiveMap(1, 3, (1,)), 1, 0),
                                     r"^block 1\.\.0 does not fit inside \[3\]$"),
    "raw W leaf 0": (lambda: wpoint(D1, 0), "^bad leaf number 0$"),
    "raw W leaf True": (lambda: wpoint(D1, WNode(HALVES, (True, 2))), "^bad leaf number True$"),
    "raw W leaf text": (lambda: wpoint(D1, WNode(HALVES, (1, "l1"))), "^bad tree entry 'l1'$"),
    "raw W root an edge": (lambda: wpoint(D1, WEdge(F(1), WNode(HALVES, (1, 2)))),
                           "^a point's root must be a vertex or a leaf, not an edge$"),
    "raw W edge onto a bare leaf": (lambda: wpoint(D1, WNode(HALVES, (1, WEdge(F(1, 2), 2)))),
                                    "^an inner edge must end in a vertex, got 2$"),
    "raw W vertex in a slot": (
        lambda: wpoint(D1, WNode(HALVES, (1, WNode(((F(0), F(1)),), (2,))))),
        "^a vertex's child must be a leaf number or an inner edge, not a vertex$"),
    "W point over d2 as a W(d1) point": (lambda: WOperad(D1).validate(_w_point_over_d2()),
                                         "^expected a point over intervals$"),
    "W point text as a W(d1) point": (lambda: WOperad(D1).validate(CUP_TEXT),
                                      "^expected a point over intervals$"),
    "raw B leaf 0": (lambda: bpoint(D1, BNode(_cup(), F(1, 2), (0, 2))),
                     "^bad leaf number 0$"),
    "raw B leaf text": (lambda: bpoint(D1, BNode(_cup(), F(1, 2), (1, "l1"))),
                        "^bad tree entry 'l1'$"),
    "B point over d2 as a B(d1) point": (
        lambda: BBimodule(D1).validate(bpoint(D2, BNode(_w_point_over_d2(), F(1, 2), (1, 2)))),
        "^expected a point over intervals$"),
    "element from a number": (lambda: D1.from_jsonable(5),
                              "^expected a formatted element string, got 5$"),
    "base compose slot 3": (lambda: D1.compose(HALVES, 3, HALVES), r"^slot 3 out of range 1\.\.2$"),
    "base restrict into the wrong arity": (
        lambda: D1.restrict(InjectiveMap(1, 3, (1,)), HALVES),
        r"^injection into \[3\] against arity 2$"),
    "base restrict keeping no input": (lambda: D1.restrict(InjectiveMap(0, 2, ()), HALVES),
                                       "^a restriction must keep at least one input$"),
    "w text leaf l0": (lambda: parse_w_text(D1, CUP_TEXT.replace("l1", "l0")),
                       "^bad leaf number 0$"),
    "w json leaf 0": (lambda: w_from_jsonable(D1, {"kind": "w", "operad": "intervals",
                                                   "root": {"leaf": 0}}),
                      "^bad leaf number 0$"),
    "w json over discs2 read over intervals": (
        lambda: w_from_jsonable(D1, {"kind": "w", "operad": "discs2", "root": {"leaf": 1}}),
        "^point is over 'discs2', not 'intervals'$"),
    "bimodule map across operads": (
        lambda: BimoduleMap("f", BBimodule(D1), BBimodule(D2), lambda b: b),
        "^bimodules live over different operads$"),
    "inclusion into three dimensions": (lambda: eta_map(D1, LittleDiscs(3)),
                                        "^the inclusion lands in the two-dimensional instance$"),
    "paths between different operads": (
        lambda: concat_paths(constant_path(EM), constant_path(eta_map(D1, D2))),
        "^paths live between different operads$"),
    "reparametrization with no pairs": (lambda: pl_reparam(constant_path(EM), []),
                                        "^a reparametrization must fix the endpoints$"),
    "reparametrization back in time": (
        lambda: pl_reparam(constant_path(EM), [(0, 0), (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)),
                                               (1, 1)]),
        "^reparametrization times must increase$"),
    "family missing a tag": (lambda: PointedMapFamily(X, {"*": EM}, {"*": 0}),
                             "^the family must assign a map to every tag$"),
    "sweep to an unknown tag": (lambda: FAM.path_to("c"), "^unknown tag 'c'$"),
    "tag path starting past 1": (lambda: XPath(X, ((0, "*"), (2, "a"))),
                                 r"^segments must start within \[0,1\]$"),
    "untagged element": (lambda: QXProductBimodule(FAM).validate(D2.unit()),
                         "^expected a tagged element$"),
    "vertex value of the wrong arity": (
        lambda: fold_point_through(_b_cup(), D2, lambda label, h: D2.unit()),
        "^vertex value has the wrong arity$"),
    "psi'' of a map into another target": (lambda: psi_double_prime(_identity("f"),
                                                                   QXProductBimodule(FAM)),
                                           "^expected a map into a fixed-tag target$"),
    "rescale through a degenerate disc": (lambda: rescale((F(1, 2), F(1, 2)), _b_cup()),
                                          "^degenerate interval$"),
    "path action with a loop too many": (
        lambda: path_act_sc(OPEN_UNIT, [constant_path(EM)], constant_path(EM), EM),
        "^need 0 loops, got 1$"),
    "path action with a tail away from the base map": (
        lambda: path_act_sc(OPEN_UNIT, [], constant_path(FAM["a"]), EM),
        "^the tail path must start at the base map$"),
    "closed configuration with no interval": (lambda: sample_sc1(random.Random(0), 0, "c"),
                                              "^need at least one interval$"),
    # echoed numbers are written p/q and cut as `shown` cuts
    "raw W edge length past 1": (
        lambda: wpoint(D1, WNode(HALVES, (1, WEdge(F(2), WNode(((F(0), F(1)),), (2,)))))),
        r"^edge length '2/1' outside \[0,1\]$"),
    "w text edge length past 1": (
        lambda: parse_w_text(D1, '(v "<[0/1,1/2] [1/2,1/1]>" l1 (e 2/1 (v "<[0/1,1/1]>" l2)))'),
        r"^edge length '2/1' outside \[0,1\]$"),
    "raw B height past 1": (lambda: bpoint(D1, BNode(_cup(), F(2), (1, 2))),
                            r"^height '2/1' outside \[0,1\]$"),
    "raw B height below its parent": (
        lambda: bpoint(D1, BNode(_cup(), F(1, 2), (1, BNode(_cup(), F(0), (2, 3))))),
        "^height '0/1' below the parent height '1/2'$"),
    "path time past 1": (lambda: constant_path(EM).at(_cup(), F(2)),
                         r"^time '2/1' outside \[0,1\]$"),
    "radius of a 300-digit denominator": (
        lambda: D2.validate((((F(0), F(0)), F(-1, 10 ** 300)),)),
        r"^radius '-1/10{55}\.\.\. \(306 characters\) is not positive$"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_out_of_range_arguments_raise_domain_error(case):
    call, message = CASES[case]
    with pytest.raises(DomainError, match=message):
        call()


def test_path_witnesses_write_times_as_fractions():
    # a path that halves the first disc fails its unit law at every time;
    # seed 1 draws t = 0 first, once written "t=0"
    half = (((F(0), F(0)), F(1, 2)),)
    shrunk = PathOfMaps("shrunk", EM.source, D2, EM, EM,
                        [PathSegment(F(0), F(1), lambda y, s: D2.compose(half, 1, EM(y)))])
    failed = {r.check: r.witness for r in check_path(shrunk, samples=1, seed=1).results
              if not r.passed}
    assert failed["unit"] == "t=0/1"
    assert failed["composition"].startswith("t=0/1 x=l1 i=1 ")


def test_a_valid_order_of_the_two_piece_point_evaluates():
    # the order the guard cases get wrong, given right
    assert eval_truncated_operad_map(mu, 2, _two_pieces(), D1, order=[0]) == mu(_two_pieces())


def test_a_valid_cap_order_rebuilds_the_capped_point():
    assert _pieces_as_they_are([0]) == _capped()
