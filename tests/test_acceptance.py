"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single summary line; the
sample counts and time budgets are part of the contract, so they are
asserted, not merely aspired to.
"""

import random
import time
from fractions import Fraction as F

from opcalc.bconstruction import BNode, b_prime_decompose, bpoint, mu_prime
from opcalc.bimodules import (
    BBimodule,
    WSelfBimodule,
    eval_truncated_bimodule_map,
    eval_truncated_operad_map,
)
from opcalc.mapping import (
    BimoduleMap,
    OperadMap,
    PathOfMaps,
    PathSegment,
    QXElem,
    QXProductBimodule,
    QxBimodule,
    delta_family,
    fold_point_through,
    lift_path,
    mu_map,
    psi_prime_as_map,
    psi_prime_eval,
    sample_hofiber,
    sample_loop,
    sample_xpath,
    xi_as_map,
    xi_eval,
)
from opcalc.operads import (
    Associative,
    LittleDiscs,
    LittleIntervals,
    PointedSet,
    format_fraction,
    framed_intervals,
)
from opcalc.sampling import random_bpoint, random_wpoint
from opcalc.suites import (
    check_bimodule_map,
    check_operad_map,
    psi_double_prime,
    suite_b_confluence,
    suite_matching,
    suite_operad_axioms,
    suite_w_confluence,
)
from opcalc.swisscheese import alpha_eval, compose_sc, d1_action_eval, sample_sc1
from opcalc.wconstruction import WOperad, mu, w_corolla, w_prime_decompose

from formal import FormalOperad, eval_formal

D1 = LittleIntervals()
D2 = LittleDiscs(2)
BASES = (D1, D2, Associative(), framed_intervals())

X = PointedSet("X", ("*", "a", "b"), "*")
FAM = delta_family(D1, D2, X, {"*": F(0), "a": F(1, 2), "b": F(-1, 3)})
EM = FAM.base_map
BB = BBimodule(D1)
QXP = QXProductBimodule(FAM)


def announce(tag: str, detail: str, started: float) -> None:
    print(f"PASS {tag}: {detail} ({time.monotonic() - started:.1f}s)")


# 1 ---------------------------------------------------------------------------

def test_01_operad_axiom_suites():
    started = time.monotonic()
    for op in BASES:
        for instance in (op, WOperad(op)):
            report = suite_operad_axioms(instance, samples=500, seed=101)
            assert report.ok, report.to_jsonable()
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"axiom suites took {elapsed:.1f}s"
    announce("axiom suites", "8 instances x 500 samples, all laws exact", started)


# 2 ---------------------------------------------------------------------------

def test_02_normal_form_confluence():
    started = time.monotonic()
    wr = suite_w_confluence(D1, samples=500, seed=102)
    assert wr.ok, wr.to_jsonable()
    br = suite_b_confluence(D1, samples=500, seed=103)
    assert br.ok, br.to_jsonable()
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"confluence took {elapsed:.1f}s"
    announce("confluence", "500 raw points per level, 10 orders each", started)


# 3 ---------------------------------------------------------------------------

def test_03_morphism_suites():
    started = time.monotonic()
    report = check_operad_map(mu_map(D1), samples=200, seed=104)
    assert report.ok, report.to_jsonable()
    report = check_bimodule_map(
        BimoduleMap("mu'", BB, WSelfBimodule(D1), mu_prime),
        samples=200, seed=105)
    assert report.ok, report.to_jsonable()
    rng = random.Random(106)
    for k in range(5):
        loop = sample_loop(rng, FAM)
        report = check_bimodule_map(
            xi_as_map(loop, BB, QxBimodule(FAM, "*")), samples=40, seed=k)
        assert report.ok, report.to_jsonable()
    for k in range(5):
        h = sample_hofiber(rng, FAM)
        f = psi_prime_as_map(h, BB, FAM)
        report = check_bimodule_map(f, samples=40, seed=10 + k)
        assert report.ok, report.to_jsonable()
        ff = psi_double_prime(f, QXP, samples=10, seed=20 + k)
        report = check_bimodule_map(ff, samples=40, seed=30 + k)
        assert report.ok, report.to_jsonable()
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"morphism suites took {elapsed:.1f}s"
    announce("morphism suites",
             "composition-forgetting, height-forgetting, loop, fiber and "
             "tagged evaluators; 200 samples each", started)


# 4 ---------------------------------------------------------------------------

def test_04_loop_evaluation_reproduction():
    started = time.monotonic()
    P = FormalOperad("src")
    Q = FormalOperad("tgt")
    wop = WOperad(P)
    x1 = w_corolla(P, P.atom("x1", 2))
    a3 = w_corolla(P, P.atom("a", 3))
    x2 = w_corolla(P, P.atom("x2", 3))

    def g_value(label, t):
        return Q.atom("g", label.arity,
                      (P.format_element(mu(label)), format_fraction(t)))

    ends = OperadMap("g-ends", wop, Q, lambda y: g_value(y, F(1)))
    loop = PathOfMaps("g", wop, Q, ends, ends,
                      [PathSegment(F(0), F(1), g_value)])

    b = bpoint(P, BNode(x1, F(1, 3), (
        BNode(a3, F(1), (1, 2, 3)),
        BNode(x2, F(2, 3), (4, 5, 6)))))
    got = xi_eval(loop, b)

    expected = Q.compose(
        Q.compose(g_value(x1, F(1, 3)), 2, g_value(x2, F(2, 3))),
        1, g_value(a3, F(1)))
    assert Q.format_element(got) == Q.format_element(expected)
    assert got == expected
    announce("loop evaluation", "three-vertex display rebuilt byte for byte",
             started)


# 5 ---------------------------------------------------------------------------

def test_05_interval_action_reproduction():
    started = time.monotonic()
    P = FormalOperad("src")
    Q = FormalOperad("tgt")
    atoms = {name: w_corolla(P, P.atom(name, arity))
             for name, arity in (("x1", 2), ("x2", 2), ("x3", 2),
                                 ("x4", 1), ("x5", 1))}

    inclusion = OperadMap(
        "em", WOperad(P), Q,
        lambda w: eval_formal(
            mu(w), Q,
            lambda name, payload, arity: Q.atom(f"em({name})", arity, payload)))

    def vertex_atom(symbol, label, h):
        return Q.atom(symbol, label.arity,
                      (P.format_element(mu(label)), format_fraction(h)))

    def f1(piece):
        return fold_point_through(
            piece, Q, lambda label, h: vertex_atom("f1", label, h))

    def f2(piece):
        q = fold_point_through(
            piece, Q, lambda label, h: vertex_atom("f2", label, h))
        return QXElem(q, ("x",) * piece.arity)

    c = sample_sc1(random.Random(0), 0, "o")  # placeholder, replaced below
    from opcalc.swisscheese import sc1
    c = sc1("o", ((F(1, 8), F(3, 8)), (F(5, 8), F(1))))
    y = bpoint(P, BNode(atoms["x1"], F(1, 4), (
        BNode(atoms["x2"], F(1, 2), (
            BNode(atoms["x3"], F(3, 4), (
                BNode(atoms["x4"], F(7, 8), (1,)), 2)), 3)),
        BNode(atoms["x5"], F(11, 16), (4,)))))
    got = alpha_eval(c, [f1, f2], y, inclusion)

    # lower assembly: the first-disc vertex, rescaled to height 1/2, takes
    # the gap image of the middle vertex in slot 1 and the unit in slot 2;
    # the open disc then contributes its three pieces at heights 1/3, 2/3
    # and 1/6, the crossing strand entering as the tagged unit
    inner = Q.compose(
        Q.compose(vertex_atom("f1", atoms["x1"], F(1, 2)), 2, Q.unit()),
        1, inclusion(atoms["x2"]))
    chain = Q.compose(vertex_atom("f2", atoms["x3"], F(1, 3)), 1,
                      vertex_atom("f2", atoms["x4"], F(2, 3)))
    expected_q = Q.compose(
        Q.compose(
            Q.compose(inner, 3, vertex_atom("f2", atoms["x5"], F(1, 6))),
            2, Q.unit()),
        1, chain)
    assert Q.format_element(got.q) == Q.format_element(expected_q)
    assert got.q == expected_q
    assert got.tags == ("x",) * 4
    announce("interval action", "five-vertex display rebuilt byte for byte",
             started)


# 6 ---------------------------------------------------------------------------

def test_06_fibration_square():
    started = time.monotonic()
    rng = random.Random(107)
    for _ in range(200):
        h = sample_hofiber(rng, FAM)
        b = random_bpoint(rng, D1, rng.randint(1, 4))
        tag, _ = psi_prime_eval(h, b)
        assert tag == h.x
    h = sample_hofiber(random.Random(108), FAM)
    f0 = psi_double_prime(psi_prime_as_map(h, BB, FAM), QXP,
                          samples=10, seed=108)
    rng = random.Random(109)
    for _ in range(200):
        b = random_bpoint(rng, D1, rng.randint(1, 4))
        g = sample_xpath(rng, X, h.x)
        assert QXP.eq(lift_path(f0, g, h.x, F(0), b, QXP), f0(b))
    announce("fibration square",
             "projection and time-zero lifts agree on 200 samples each",
             started)


# 7 ---------------------------------------------------------------------------

def xi_fn(rng):
    loop = sample_loop(random.Random(rng.randrange(10 ** 6)), FAM)
    return lambda b, g=loop: xi_eval(g, b)


def tagged_fn(rng):
    seed = rng.randrange(10 ** 6)
    h = sample_hofiber(random.Random(seed), FAM)
    f = psi_prime_as_map(h, BB, FAM)
    return psi_double_prime(f, QXP, samples=8, seed=seed)


def test_07_configuration_compatibility():
    started = time.monotonic()
    rng = random.Random(110)
    for trial in range(70):
        outer = sample_sc1(rng, 2, "c")
        inner = sample_sc1(rng, rng.randint(1, 2), "c")
        outs = [xi_fn(rng), xi_fn(rng)]
        gs = [xi_fn(rng) for _ in range(inner.n)]
        i = rng.randint(1, 2)
        fs_flat = outs[: i - 1] + gs + outs[i:]
        fs_nested = outs[: i - 1] + [
            lambda b: d1_action_eval(inner, gs, b, EM)] + outs[i:]
        y = random_bpoint(rng, D1, rng.randint(1, 3))
        assert D2.eq(d1_action_eval(compose_sc(outer, i, inner), fs_flat, y, EM),
                     d1_action_eval(outer, fs_nested, y, EM))
    for trial in range(65):
        outer = sample_sc1(rng, 2, "o")
        inner = sample_sc1(rng, rng.randint(1, 2), "c")
        outs = [xi_fn(rng), xi_fn(rng)]
        gs = [xi_fn(rng) for _ in range(inner.n)]
        ff = tagged_fn(rng)
        i = rng.randint(1, 2)
        fs_flat = outs[: i - 1] + gs + outs[i:] + [ff]
        fs_nested = outs[: i - 1] + [
            lambda b: d1_action_eval(inner, gs, b, EM)] + outs[i:] + [ff]
        y = random_bpoint(rng, D1, rng.randint(1, 3))
        assert QXP.eq(alpha_eval(compose_sc(outer, i, inner), fs_flat, y, EM),
                      alpha_eval(outer, fs_nested, y, EM))
    for trial in range(65):
        outer = sample_sc1(rng, 1, "o")
        inner = sample_sc1(rng, rng.randint(0, 1), "o")
        f1 = xi_fn(rng)
        gs = [xi_fn(rng) for _ in range(inner.n)]
        ff = tagged_fn(rng)
        composed = compose_sc(outer, outer.slots, inner)
        inner_map = lambda b: alpha_eval(inner, gs + [ff], b, EM)
        y = random_bpoint(rng, D1, rng.randint(1, 3))
        assert QXP.eq(alpha_eval(composed, [f1] + gs + [ff], y, EM),
                      alpha_eval(outer, [f1, inner_map], y, EM))
    elapsed = time.monotonic() - started
    assert elapsed < 180, f"compatibility took {elapsed:.1f}s"
    announce("configuration compatibility",
             "nested vs composed agree on 200 tuples across all slot shapes",
             started)


# 8 ---------------------------------------------------------------------------

def test_08_truncation_bracketing():
    started = time.monotonic()
    rng = random.Random(111)
    w_op = WOperad(D1)
    for _ in range(100):
        a = random_wpoint(rng, D1, rng.randint(1, 4))
        dec = w_prime_decompose(a)
        assert dec.filtration_level <= 4
        base = eval_truncated_operad_map(lambda p: p, 4, a, w_op)
        assert base == a
        edge_count = max(len(dec.components) - 1, 0)
        for _ in range(3):
            order = list(range(edge_count))
            rng.shuffle(order)
            assert eval_truncated_operad_map(mu, 4, a, D1, order=order) == mu(a)
    bimod = BBimodule(D1)
    for _ in range(100):
        b = random_bpoint(rng, D1, rng.randint(1, 4))
        dec = b_prime_decompose(b)
        assert dec.filtration[0] <= 4
        assert eval_truncated_bimodule_map(lambda p: p, 4, b, bimod) == b
        cap_count = sum(1 for piece in dec.pieces
                        for up in piece.exits if not up.point.is_trivial)
        for _ in range(3):
            order = list(range(cap_count))
            rng.shuffle(order)
            assert eval_truncated_bimodule_map(
                mu_prime, 4, b, WSelfBimodule(D1), order=order) == mu_prime(b)
    announce("truncation bracketing",
             "level-4 evaluations independent of assembly order, 200 points",
             started)


# 9 ---------------------------------------------------------------------------

def test_09_matching_objects():
    started = time.monotonic()
    for size in (1, 2, 3):
        space = PointedSet(f"x{size}", tuple("*ab"[:size]), "*")
        report = suite_matching(space, max_n=4)
        assert report.ok, report.to_jsonable()
    announce("matching objects",
             "level 1 a point, level n the n-th power, exhaustively to n=4",
             started)
