import json
import random
import re
from fractions import Fraction as F

import pytest

from opcalc.bconstruction import BNode, BPoint, b_corolla, bpoint, mu_prime
from opcalc.bimodules import BBimodule
from opcalc.cli import Workspace
from opcalc.mapping import (
    BimoduleMap,
    OperadMap,
    PathOfMaps,
    PathSegment,
    QXElem,
    QXProductBimodule,
    QxBimodule,
    XPath,
    check_bimodule_map,
    check_operad_map,
    check_path,
    compose_operad_maps,
    concat_paths,
    constant_path,
    constant_xpath,
    delta_family,
    eta_map,
    eta_mu_map,
    fold_point_through,
    lift_path,
    pl_reparam,
    psi_double_prime,
    psi_prime_as_map,
    psi_prime_eval,
    reverse_path,
    rotation_map,
    sample_hofiber,
    sample_loop,
    sample_xpath,
    xi_eval,
)
from opcalc.operads import LittleDiscs, LittleIntervals, PointedSet
from opcalc.sampling import random_bpoint, random_raw_bnode, random_wpoint
from opcalc.trees import DomainError, InjectiveMap
from opcalc.wconstruction import WOperad, w_corolla, w_unit

D1 = LittleIntervals()
D2 = LittleDiscs(2)
WD1 = WOperad(D1)
ETA = eta_map(D1, D2)
EM = eta_mu_map(D1, D2)
X = PointedSet("X", ("*", "a", "b"), "*")
FAM = delta_family(D1, D2, X, {"*": 0, "a": F(1, 2), "b": F(-1, 3)})
QXP = QXProductBimodule(FAM)
BB = BBimodule(D1)

HALVES = ((F(0), F(1, 2)), (F(1, 2), F(1)))
THIRDS = ((F(0), F(1, 3)), (F(2, 3), F(1)))
LA2 = w_corolla(D1, HALVES)
LB2 = w_corolla(D1, THIRDS)


# -- concrete maps -----------------------------------------------------------

def test_eta_fixture():
    assert ETA(HALVES) == (((F(-1, 2), F(0)), F(1, 2)), ((F(1, 2), F(0)), F(1, 2)))
    assert ETA(D1.unit()) == D2.unit()


def test_eta_is_an_operad_map():
    assert check_operad_map(ETA, samples=150, seed=11).ok


def test_rotation_fixture():
    rot = rotation_map(D2, F(1, 2))
    # cos = 3/5, sin = 4/5
    assert rot((((F(1, 2), F(0)), F(1, 2)),)) == (((F(3, 10), F(2, 5)), F(1, 2)),)
    assert rotation_map(D2, F(0))(D2.sample(random.Random(0), 3)) == D2.sample(random.Random(0), 3)


def test_rotation_is_an_operad_map():
    assert check_operad_map(rotation_map(D2, F(1, 2)), samples=100, seed=12).ok
    assert check_operad_map(rotation_map(D2, F(-1, 3)), samples=100, seed=13).ok


def test_rotations_compose_by_tangent_addition():
    # (1/2 + 1/3) / (1 - 1/6) = 1, a quarter turn
    rng = random.Random(14)
    x = D2.sample(rng, 3)
    lhs = rotation_map(D2, F(1, 2))(rotation_map(D2, F(1, 3))(x))
    assert D2.eq(lhs, rotation_map(D2, F(1))(x))


def test_eta_mu_on_a_corolla():
    assert D2.eq(EM(LA2), ETA(HALVES))
    assert check_operad_map(EM, samples=60, seed=15).ok


def test_broken_map_reports_witnesses():
    flip = OperadMap("flip", D1, D2, lambda x: ETA(x)[::-1])
    report = check_operad_map(flip, samples=40, seed=16)
    assert not report.ok
    failed = {r.check for r in report.results if not r.passed}
    assert "composition" in failed
    witness = next(r.witness for r in report.results if not r.passed)
    assert witness


def test_broken_map_report_is_pinned():
    # the seeded draws (n, m, x, y, i, u) and the witness texts, byte for byte
    flip = OperadMap("flip", D1, D2, lambda x: ETA(x)[::-1])
    assert check_operad_map(flip, samples=3, seed=16).to_jsonable() == {
        "name": "operad-map:flip", "seed": 16, "samples": 3, "ok": False,
        "checks": [
            {"check": "unit", "pass": True},
            {"check": "composition", "pass": False,
             "witness": "x=<[4/7,11/14] [3/14,1/2]> i=2 y=<[1/2,13/14] [1/7,3/7]>"},
            {"check": "restriction", "pass": False,
             "witness": "u=(2, 3) x=<[9/13,10/13] [4/13,7/13] [10/13,12/13]>"},
        ]}


def test_path_laws_share_the_map_laws():
    flip = PathOfMaps("flip", WD1, D2, EM, EM,
                      [PathSegment(F(0), F(1), lambda y, s: EM(y)[::-1])])
    report = check_path(flip, samples=20, seed=3)
    failed = {r.check: r.witness for r in report.results if not r.passed}
    assert set(failed) >= {"composition", "restriction", "start", "end"}
    assert re.fullmatch(r"t=\S+ x=.+ i=\d y=.+", failed["composition"])
    assert re.fullmatch(r"t=\S+ u=\(.*\) x=.+", failed["restriction"])
    empty = check_path(flip, samples=0)
    assert empty.ok and empty.vacuous == ("unit", "composition", "start", "end", "restriction")


def test_compose_operad_maps_rejects_mismatched_ends():
    with pytest.raises(DomainError):
        compose_operad_maps(ETA, ETA, "eta.eta")


# -- the tag family ----------------------------------------------------------

def test_family_requires_zero_rotation_at_basepoint():
    with pytest.raises(DomainError):
        delta_family(D1, D2, X, {"*": F(1, 5), "a": F(1, 2), "b": F(1, 3)})
    with pytest.raises(DomainError):
        delta_family(D1, D2, X, {"*": 0, "a": F(1, 2)})


def test_family_maps_are_twisted_inclusions():
    rng = random.Random(17)
    rot = rotation_map(D2, F(1, 2))
    for n in (1, 2, 3):
        y = WD1.sample(rng, n)
        assert D2.eq(FAM["a"](y), rot(EM(y)))
    assert FAM["*"] is FAM.base_map


def test_a_zero_rotation_off_the_basepoint_is_the_inclusion():
    fam = delta_family(D1, D2, X, {"*": 0, "a": 0, "b": F(1, 2)})
    rng = random.Random(25)
    for n in (1, 2, 3):
        y = WD1.sample(rng, n)
        assert fam["a"](y) == EM(y)
    assert fam["a"].name == "delta[a]" and fam["*"] is fam.base_map
    assert check_operad_map(fam["a"], samples=30, seed=26).ok


def test_family_lookup_rejects_unknown_tag():
    with pytest.raises(DomainError):
        FAM["c"]


def test_sweep_paths_satisfy_all_path_laws():
    for tag, seed in (("a", 18), ("b", 19)):
        report = check_path(FAM.path_to(tag), samples=50, seed=seed)
        assert report.ok, report.to_jsonable()


def test_sweep_to_basepoint_is_constant():
    path = FAM.path_to("*")
    y = WD1.sample(random.Random(20), 2)
    for t in (F(0), F(1, 3), F(1)):
        assert D2.eq(path.at(y, t), EM(y))


# -- path machinery ----------------------------------------------------------

def test_constant_path_evaluates_to_the_map():
    path = constant_path(EM)
    y = WD1.sample(random.Random(21), 2)
    assert D2.eq(path.at(y, F(2, 7)), EM(y))
    assert path.start == path.end


def test_concat_and_reverse_reparametrize():
    path = FAM.path_to("a")
    y = WD1.sample(random.Random(22), 2)
    loop = concat_paths(path, reverse_path(path))
    assert D2.eq(loop.at(y, F(1, 4)), path.at(y, F(1, 2)))
    assert D2.eq(loop.at(y, F(3, 4)), path.at(y, F(1, 2)))
    assert D2.eq(loop.at(y, F(1, 2)), path.at(y, F(1)))
    rev = reverse_path(path)
    assert D2.eq(rev.at(y, F(1, 5)), path.at(y, F(4, 5)))
    assert rev.start == path.end and rev.end == path.start


def test_pl_reparam_moves_time():
    path = FAM.path_to("a")
    y = WD1.sample(random.Random(23), 3)
    warped = pl_reparam(path, [(F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1))])
    # the ends, inside each piece, and at the inner breakpoint
    for t, s in ((F(0), F(0)), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 4)), (F(3, 4), F(5, 8)),
                 (F(1), F(1))):
        assert D2.eq(warped.at(y, t), path.at(y, s))
    assert check_path(warped, samples=40, seed=24).ok


def test_pl_reparam_must_fix_endpoints():
    path = FAM.path_to("a")
    with pytest.raises(DomainError):
        pl_reparam(path, [(F(0), F(1, 8)), (F(1), F(1))])
    with pytest.raises(DomainError):
        pl_reparam(path, [(F(0), F(0)), (F(1, 2), F(3, 2)), (F(1), F(1))])


def test_path_segments_must_tile_the_interval():
    fn = lambda y, s: EM(y)
    with pytest.raises(DomainError):
        PathOfMaps("bad", WD1, D2, EM, EM, [PathSegment(F(0), F(1, 2), fn)])
    with pytest.raises(DomainError):
        PathOfMaps("bad", WD1, D2, EM, EM,
                   [PathSegment(F(0), F(1, 2), fn), PathSegment(F(2, 3), F(1), fn)])
    with pytest.raises(DomainError):
        PathOfMaps("bad", WD1, D2, EM, EM,
                   [PathSegment(F(0), F(0), fn), PathSegment(F(0), F(1), fn)])


def test_breakpoint_belongs_to_the_later_segment():
    left = OperadMap("left", WD1, D2, lambda y: EM(y))
    right = rotation_map(D2, F(1, 2))
    path = PathOfMaps(
        "split", WD1, D2, left, left,
        [PathSegment(F(0), F(1, 2), lambda y, s: EM(y)),
         PathSegment(F(1, 2), F(1), lambda y, s: right(EM(y)))])
    y = WD1.sample(random.Random(25), 2)
    assert D2.eq(path.at(y, F(1, 2)), right(EM(y)))
    with pytest.raises(DomainError):
        path.at(y, F(3, 2))


def test_check_path_flags_wrong_declared_endpoint():
    path = PathOfMaps("liar", WD1, D2, FAM["a"], EM,
                      [PathSegment(F(0), F(1), lambda y, s: EM(y))])
    report = check_path(path, samples=30, seed=26)
    failed = {r.check for r in report.results if not r.passed}
    assert failed == {"start"}


def test_check_path_flags_a_non_operadic_slice():
    def fn(y, s):
        base = EM(y)
        if WD1.arity_of(y) % 2 == 0:
            return rotation_map(D2, s / 2)(base)
        return base

    path = PathOfMaps("skew", WD1, D2, EM, EM, [PathSegment(F(0), F(1), fn)])
    report = check_path(path, samples=60, seed=27)
    failed = {r.check for r in report.results if not r.passed}
    assert "composition" in failed
    assert "unit" not in failed and "start" not in failed


# -- tagged-target bimodules -------------------------------------------------

def test_qx_right_action_twists_and_repeats_the_tag():
    elem = QXElem(D2.unit(), ("a",))
    out = QXP.right_act(elem, 1, LA2)
    assert out.tags == ("a", "a")
    assert D2.eq(out.q, FAM["a"](LA2))
    # exact twisted centers for u = 1/2
    assert out.q == (((F(-3, 10), F(-2, 5)), F(1, 2)), ((F(3, 10), F(2, 5)), F(1, 2)))


def test_qx_left_action_concatenates_tags():
    e1 = QXElem(D2.unit(), ("a",))
    e2 = QXElem(ETA(HALVES), ("*", "b"))
    out = QXP.left_act(LA2, (e1, e2))
    assert out.tags == ("a", "*", "b")
    assert out.q == (((F(-1, 2), F(0)), F(1, 2)),
                     ((F(1, 4), F(0)), F(1, 4)),
                     ((F(3, 4), F(0)), F(1, 4)))


def test_qx_restriction_is_diagonal():
    elem = QXElem(ETA(((F(0), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(1)))),
                  ("a", "*", "b"))
    u = InjectiveMap(2, 3, (3, 1))
    out = QXP.restrict(u, elem)
    assert out.tags == ("b", "a")
    assert out.q == D2.restrict(u, elem.q)


def test_disjoint_right_actions_commute():
    rng = random.Random(28)
    for _ in range(30):
        n = rng.randint(2, 4)
        elem = QXP.sample(rng, n)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        p = random_wpoint(rng, D1, rng.randint(1, 3))
        q = random_wpoint(rng, D1, rng.randint(1, 3))
        one = QXP.right_act(QXP.right_act(elem, j, q), i, p)
        other = QXP.right_act(QXP.right_act(elem, i, p),
                              j + p.arity - 1, q)
        assert QXP.eq(one, other)


def test_qx_validate_rejects_bad_tags():
    with pytest.raises(DomainError):
        QXP.validate(QXElem(D2.unit(), ("c",)))
    with pytest.raises(DomainError):
        QXP.validate(QXElem(D2.unit(), ("a", "b")))


def test_fixed_tag_bimodule_actions():
    qa = QxBimodule(FAM, "a")
    q = ETA(HALVES)
    assert D2.eq(qa.right_act(q, 2, LB2), D2.compose(q, 2, FAM["a"](LB2)))
    assert D2.eq(qa.left_act(w_unit(D1), (q,)), q)
    assert D2.eq(qa.left_act(LA2, (q, D2.unit())),
                 D2.compose(EM(LA2), 1, q))
    with pytest.raises(DomainError):
        QxBimodule(FAM, "c")


# -- evaluation along loops and hofiber points -------------------------------

def small_bpoint():
    return bpoint(D1, BNode(LA2, F(1, 3), (BNode(LB2, F(2, 3), (1, 2)), 3)))


def test_xi_requires_a_loop():
    with pytest.raises(DomainError):
        xi_eval(FAM.path_to("a"), small_bpoint())


def test_xi_on_the_constant_loop_collapses_the_tree():
    rng = random.Random(29)
    loop = constant_path(EM)
    for _ in range(25):
        b = random_bpoint(rng, D1, rng.randint(1, 4))
        assert D2.eq(xi_eval(loop, b), EM(mu_prime(b)))


def test_mu_prime_is_the_fold_of_the_labels_in_the_resolution():
    rng = random.Random(60)
    for _ in range(40):
        b = random_bpoint(rng, D1, rng.randint(1, 5))
        assert mu_prime(b) == fold_point_through(b, WD1, lambda label, h: label)


def test_xi_is_independent_of_the_presentation():
    rng = random.Random(30)
    for _ in range(25):
        loop = sample_loop(rng, FAM)
        raw = random_raw_bnode(rng, D1, rng.randint(1, 4))
        direct = fold_point_through(BPoint(D1, raw), D2,
                                    lambda label, h: loop.at(label, h))
        assert D2.eq(direct, xi_eval(loop, bpoint(D1, raw)))


def test_xi_of_the_trivial_point_is_the_unit():
    loop = sample_loop(random.Random(31), FAM)
    assert D2.eq(xi_eval(loop, bpoint(D1, 1)), D2.unit())


def test_xi_vertex_heights_enter_through_the_path():
    # one vertex at height 1/2 along the sweep-out-and-back loop at tag a:
    # the loop at 1/2 is the full twist
    path = FAM.path_to("a")
    loop = concat_paths(path, reverse_path(path))
    b = b_corolla(D1, LA2, F(1, 2))
    assert D2.eq(xi_eval(loop, b), FAM["a"](LA2))


def test_sampled_loops_pass_the_path_laws():
    rng = random.Random(32)
    for _ in range(4):
        loop = sample_loop(rng, FAM)
        assert loop.start == loop.end
        report = check_path(loop, samples=25, seed=rng.randint(0, 10**6))
        assert report.ok, report.to_jsonable()


def test_psi_prime_carries_the_tag_and_folds_the_tree():
    rng = random.Random(33)
    h = sample_hofiber(rng, FAM)
    b = small_bpoint()
    tag, value = psi_prime_eval(h, b)
    assert tag == h.x
    assert D2.arity_of(value) == 3
    assert psi_prime_eval(h, bpoint(D1, 1)) == (h.x, D2.unit())


def test_psi_prime_is_a_bimodule_map():
    rng = random.Random(34)
    for _ in range(3):
        h = sample_hofiber(rng, FAM)
        report = check_bimodule_map(psi_prime_as_map(h, BB, FAM),
                                    samples=30, seed=rng.randint(0, 10**6))
        assert report.ok, report.to_jsonable()


def test_hofiber_paths_end_at_their_tag():
    rng = random.Random(35)
    for _ in range(5):
        h = sample_hofiber(rng, FAM)
        y = WD1.sample(rng, rng.randint(1, 3))
        assert D2.eq(h.g.at(y, F(0)), EM(y))
        assert D2.eq(h.g.at(y, F(1)), FAM[h.x](y))


def test_psi_double_prime_tags_every_input():
    rng = random.Random(36)
    h = sample_hofiber(rng, FAM)
    f = psi_prime_as_map(h, BB, FAM)
    ff = psi_double_prime(f, QXP, samples=15, seed=37)
    b = small_bpoint()
    out = ff(b)
    QXP.validate(out)
    assert out.tags == (h.x,) * 3
    assert D2.eq(out.q, psi_prime_eval(h, b)[1])


def test_psi_double_prime_images_are_bimodule_maps():
    rng = random.Random(38)
    h = sample_hofiber(rng, FAM)
    ff = psi_double_prime(psi_prime_as_map(h, BB, FAM), QXP, samples=10, seed=39)
    report = check_bimodule_map(ff, samples=30, seed=40)
    assert report.ok, report.to_jsonable()


def test_psi_double_prime_rejects_a_non_map():
    qa = QxBimodule(FAM, "a")
    fake = BimoduleMap("fake", BB, qa,
                       lambda b: D2.sample(random.Random(0), BB.arity_of(b)))
    with pytest.raises(DomainError) as err:
        psi_double_prime(fake, QXP, samples=10, seed=41)
    assert "fails at" in str(err.value)


@pytest.mark.parametrize("x", Workspace().space.elements)
def test_workspace_section_maps_pass_the_guard(x):
    # the check `Workspace.section_map` once ran in every process: its
    # inputs are all fixed, so its result is pinned here instead
    ws = Workspace()
    f = psi_prime_as_map(ws.hofiber(x), BBimodule(ws.d1), ws.family)
    report = check_bimodule_map(f, samples=20, seed=0)
    assert report.ok, report.to_jsonable()


def test_the_trusted_section_map_is_the_checked_one():
    ws = Workspace()
    rng = random.Random(44)
    points = [random_bpoint(rng, D1, rng.randint(1, 5)) for _ in range(25)]
    for x in ws.space.elements:
        trusted = ws.section_map(x)
        checked = psi_double_prime(
            psi_prime_as_map(ws.hofiber(x), BBimodule(ws.d1), ws.family),
            ws.qxprod, samples=20, seed=0)
        assert trusted.name == checked.name == f"psi''(psi'({x}))"
        assert trusted.target is checked.target is ws.qxprod
        for b in points:
            got, want = trusted(b), checked(b)
            assert got.tags == want.tags == (x,) * BB.arity_of(b)
            assert got.q == want.q


# -- path lifting -------------------------------------------------------------

def lifted_map(seed: int):
    rng = random.Random(seed)
    h = sample_hofiber(rng, FAM)
    f = psi_prime_as_map(h, BB, FAM)
    return h, psi_double_prime(f, QXP, samples=10, seed=seed)


def test_lift_at_time_zero_is_the_given_map():
    h, f0 = lifted_map(42)
    rng = random.Random(43)
    for _ in range(15):
        b = random_bpoint(rng, D1, rng.randint(1, 4))
        g = sample_xpath(rng, X, h.x)
        assert QXP.eq(lift_path(f0, g, h.x, F(0), b, QXP), f0(b))


def test_lift_at_time_one_rescales_a_low_vertex():
    h, f0 = lifted_map(44)
    g = constant_xpath(X, h.x)
    b = b_corolla(D1, LA2, F(1, 2))
    lifted = lift_path(f0, g, h.x, F(1), b, QXP)
    assert QXP.eq(lifted, f0(b_corolla(D1, LA2, F(1))))


def test_lift_straddles_the_cut():
    h, f0 = lifted_map(45)
    g = XPath(X, ((F(0), h.x), (F(1, 2), "b")))
    b = bpoint(D1, BNode(LA2, F(1, 4), (BNode(LB2, F(3, 4), (1, 2)), 3)))
    lifted = lift_path(f0, g, h.x, F(1), b, QXP)
    # lower part: the root alone, rescaled 1/4 -> 1/2; upper vertex at
    # height 3/4 reads the tag path at 2(3/4)+1-2 = 1/2, which is b
    lower = bpoint(D1, BNode(LA2, F(1, 2), (1, 2)))
    expected = QXP.compose_plain(f0(lower), 1, FAM["b"](LB2))
    assert QXP.eq(lifted, expected)


def test_lift_requires_matching_start_tag():
    h, f0 = lifted_map(46)
    other = "a" if h.x != "a" else "b"
    with pytest.raises(DomainError):
        lift_path(f0, constant_xpath(X, other), h.x, F(1, 2), small_bpoint(), QXP)
    with pytest.raises(DomainError):
        lift_path(f0, constant_xpath(X, h.x), h.x, F(3, 2), small_bpoint(), QXP)


def test_lift_varies_exactly_in_time():
    h, f0 = lifted_map(47)
    g = constant_xpath(X, h.x)
    b = bpoint(D1, BNode(LA2, F(1, 4), (BNode(LB2, F(3, 4), (1, 2)), 3)))
    for t in (F(1, 3), F(2, 3), F(9, 10)):
        out = lift_path(f0, g, h.x, t, b, QXP)
        QXP.validate(out)
        assert out.tags == (h.x,) * 3


def test_lift_of_the_trivial_point():
    h, f0 = lifted_map(48)
    g = constant_xpath(X, h.x)
    out = lift_path(f0, g, h.x, F(1), bpoint(D1, 1), QXP)
    assert QXP.eq(out, f0(bpoint(D1, 1)))


# -- tag paths ----------------------------------------------------------------

def test_xpath_is_left_closed():
    g = XPath(X, ((F(0), "*"), (F(1, 2), "a")))
    assert g.value(F(0)) == "*"
    assert g.value(F(499, 1000)) == "*"
    assert g.value(F(1, 2)) == "a"
    assert g.value(F(1)) == "a"


def test_xpath_validation():
    with pytest.raises(DomainError):
        XPath(X, ((F(1, 4), "*"),))
    with pytest.raises(DomainError):
        XPath(X, ((F(0), "*"), (F(1, 2), "a"), (F(1, 2), "b")))
    with pytest.raises(DomainError):
        XPath(X, ((F(0), "c"),))
    with pytest.raises(DomainError):
        XPath(X, ((F(0), "*"),)).value(F(2))


# -- reports -------------------------------------------------------------------

def test_reports_serialize_to_json():
    report = check_operad_map(ETA, samples=10, seed=49)
    blob = json.loads(json.dumps(report.to_jsonable()))
    assert blob["ok"] is True
    assert {c["check"] for c in blob["checks"]} == {"unit", "composition", "restriction"}
    assert all("witness" not in c for c in blob["checks"])
    # without samples only the unit law runs; the other two are listed as vacuous
    empty = check_operad_map(ETA, samples=0, seed=49)
    assert empty.ok and empty.vacuous == ("composition", "restriction")
    assert [c.get("vacuous", False) for c in empty.to_jsonable()["checks"]] == [False, True, True]
    bad = check_operad_map(OperadMap("flip", D1, D2, lambda x: ETA(x)[::-1]),
                           samples=20, seed=50)
    blob = json.loads(json.dumps(bad.to_jsonable()))
    assert blob["ok"] is False
    assert any("witness" in c for c in blob["checks"])
