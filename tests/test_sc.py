import random
from fractions import Fraction as F

import pytest

from opcalc.bconstruction import BNode, b_corolla, b_prime_decompose, bpoint, slice_point
from opcalc.bimodules import BBimodule
from opcalc.mapping import (
    BimoduleMap,
    HofiberPoint,
    QXElem,
    QXProductBimodule,
    check_bimodule_map,
    check_path,
    delta_family,
    eta_mu_map,
    psi_double_prime,
    psi_prime_as_map,
    psi_prime_eval,
    sample_hofiber,
    sample_loop,
    xi_eval,
)
from opcalc.operads import LittleDiscs, LittleIntervals, PointedSet
from opcalc.sampling import random_bpoint
from opcalc.swisscheese import (
    _assemble,
    _cuts,
    alpha_eval,
    compose_sc,
    d1_action_eval,
    format_sc,
    loop_act_sc,
    parse_sc,
    path_act_sc,
    regions_of,
    rescale,
    sample_sc1,
    sc1,
)
from opcalc.trees import DomainError
from opcalc.wconstruction import w_corolla, w_text

D1 = LittleIntervals()
D2 = LittleDiscs(2)
EM = eta_mu_map(D1, D2)
X = PointedSet("X", ("*", "a", "b"), "*")
FAM = delta_family(D1, D2, X, {"*": 0, "a": F(1, 2), "b": F(-1, 3)})
QXP = QXProductBimodule(FAM)
BB = BBimodule(D1)

LA2 = w_corolla(D1, ((F(0), F(1, 2)), (F(1, 2), F(1))))
LB2 = w_corolla(D1, ((F(0), F(1, 3)), (F(2, 3), F(1))))

OPEN_C = sc1("o", ((F(1, 4), F(1, 2)), (F(3, 4), F(1))))
CLOSED_UNIT = parse_sc("c<[0/1,1/1]>")
OPEN_UNIT = parse_sc("o<[0/1,1/1]>")


def xi_map(seed: int):
    loop = sample_loop(random.Random(seed), FAM)
    return lambda b, g=loop: xi_eval(g, b), loop


def tagged_map(seed: int):
    h = sample_hofiber(random.Random(seed), FAM)
    f = psi_prime_as_map(h, BB, FAM)
    return psi_double_prime(f, QXP, samples=8, seed=seed), h


# -- configurations -----------------------------------------------------------

def test_sc1_validation():
    with pytest.raises(DomainError):
        sc1("x", ((F(0), F(1)),))
    with pytest.raises(DomainError):
        sc1("c", ())
    with pytest.raises(DomainError):
        sc1("c", ((F(1, 2), F(1, 4)),))
    with pytest.raises(DomainError):
        sc1("c", ((F(1, 4), F(3, 4)), (F(1, 2), F(1))))
    # disjoint intervals are a little-intervals element in any order, a
    # configuration only left to right
    with pytest.raises(DomainError, match="^intervals must be sorted left to right$"):
        sc1("c", ((F(1, 2), F(1)), (F(0), F(1, 2))))
    with pytest.raises(DomainError):
        sc1("c", ((F(1, 2), F(5, 4)),))
    with pytest.raises(DomainError):
        sc1("o", ((F(1, 4), F(1, 2)),))
    assert sc1("c", ((F(0), F(1, 2)), (F(1, 2), F(1)))).n == 2


def gaps(c):
    return tuple((lo, hi) for kind, _, lo, hi in regions_of(c) if kind == "gap")


def test_gap_fixtures():
    assert gaps(OPEN_C) == ((F(0), F(1, 4)), (F(1, 2), F(3, 4)))
    assert gaps(sc1("o", ((F(2, 7), F(1)),))) == ((F(0), F(2, 7)),)
    touching = sc1("c", ((F(0), F(1, 2)), (F(1, 2), F(1))))
    assert gaps(touching) == ((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1)))
    assert gaps(sc1("c", ((F(1, 4), F(1, 2)),))) == ((F(0), F(1, 4)), (F(1, 2), F(1)))


def test_counts():
    assert OPEN_C.n == 1 and OPEN_C.slots == 2
    closed = sc1("c", ((F(1, 4), F(1, 2)),))
    assert closed.n == 1 and closed.slots == 1


def test_regions_alternate():
    regs = regions_of(OPEN_C)
    assert [r[:2] for r in regs] == [("gap", 0), ("disc", 1), ("gap", 1), ("disc", 2)]
    closed = sc1("c", ((F(1, 4), F(1, 2)),))
    assert [r[:2] for r in regions_of(closed)] == [("gap", 0), ("disc", 1), ("gap", 1)]


def test_cuts_are_the_region_boundaries():
    # a boundary's vertex goes to the gap: the gap below a disc keeps its
    # top edge, the gap above a disc its bottom edge
    assert _cuts(regions_of(OPEN_C)) == ((F(1, 4), True), (F(1, 2), False), (F(3, 4), True))
    touching = sc1("c", ((F(0), F(1, 2)), (F(1, 2), F(1))))
    assert _cuts(regions_of(touching)) == ((F(0), True), (F(1, 2), False), (F(1, 2), True),
                                          (F(1), False))
    assert _cuts(regions_of(OPEN_UNIT)) == ((F(0), True),)


def test_compose_closed_in_closed():
    outer = sc1("c", ((F(1, 4), F(1, 2)), (F(3, 4), F(1))))
    inner = sc1("c", ((F(0), F(1, 2)),))
    out = compose_sc(outer, 1, inner)
    assert out.intervals == ((F(1, 4), F(3, 8)), (F(3, 4), F(1)))
    assert out.color == "c"
    # substitution keeps the configuration valid
    assert sc1(out.color, out.intervals) == out


def test_compose_open_slot():
    inner = sc1("o", ((F(0), F(1, 4)), (F(1, 2), F(1))))
    out = compose_sc(OPEN_C, 2, inner)
    assert out.intervals == ((F(1, 4), F(1, 2)), (F(3, 4), F(13, 16)), (F(7, 8), F(1)))
    assert out.color == "o" and out.n == 2


def test_compose_colour_mismatches():
    closed = sc1("c", ((F(1, 4), F(1, 2)),))
    with pytest.raises(DomainError):
        compose_sc(OPEN_C, 1, OPEN_C)
    with pytest.raises(DomainError):
        compose_sc(OPEN_C, 2, closed)
    with pytest.raises(DomainError):
        compose_sc(closed, 2, closed)
    with pytest.raises(DomainError):
        compose_sc(closed, 1, OPEN_C)


def test_compose_identities():
    rng = random.Random(3)
    for _ in range(10):
        c = sample_sc1(rng, rng.randint(1, 3), rng.choice("co"))
        for i in range(1, c.n + 1):
            assert compose_sc(c, i, CLOSED_UNIT) == c
        if c.color == "o":
            assert compose_sc(c, c.slots, OPEN_UNIT) == c
    assert compose_sc(OPEN_UNIT, 1, OPEN_C) == OPEN_C


def test_compose_is_associative_on_samples():
    rng = random.Random(4)
    for _ in range(20):
        a = sample_sc1(rng, rng.randint(1, 3), "c")
        b = sample_sc1(rng, rng.randint(1, 2), "c")
        c = sample_sc1(rng, rng.randint(1, 2), "c")
        i = rng.randint(1, a.n)
        j = rng.randint(1, b.n)
        nested = compose_sc(a, i, compose_sc(b, j, c))
        flat = compose_sc(compose_sc(a, i, b), i + j - 1, c)
        assert nested == flat


# -- the slice pieces the action folds -----------------------------------------

def region_pieces(y, c):
    """The points of the slice pieces `_assemble` folds, listed per region
    in preorder: {(kind, index): [point, ...]}, the regions bottom to top."""
    regs = regions_of(c)
    found = {reg[:2]: [] for reg in regs}

    def walk(piece):
        found[regs[piece.layer][:2]].append(piece.point)
        for entry in piece.exits:
            if not isinstance(entry, int):
                walk(entry)

    walk(slice_point(y, _cuts(regs)))
    return found


def mini_point():
    # root inside disc 1, child inside gap 1, strands crossing disc 2
    return bpoint(D1, BNode(LA2, F(1, 3), (BNode(LB2, F(5, 8), (1, 2)), 3)))


def signature(seq):
    return [(body.is_trivial, body.arity) for body in seq]


def test_extraction_shapes_on_the_mini_point():
    pieces = region_pieces(mini_point(), OPEN_C)
    assert signature(pieces["gap", 0]) == [(True, 1)]
    assert signature(pieces["disc", 1]) == [(False, 2)]
    assert signature(pieces["gap", 1]) == [(False, 2), (True, 1)]
    assert signature(pieces["disc", 2]) == [(True, 1), (True, 1), (True, 1)]
    # the disc-1 body keeps original heights with local leaf numbers
    assert pieces["disc", 1][0] == bpoint(D1, BNode(LA2, F(1, 3), (1, 2)))
    assert list(pieces) == [("gap", 0), ("disc", 1), ("gap", 1), ("disc", 2)]
    assert len(pieces["disc", 2]) == 3


def test_single_gap_vertex_leaves_only_trivial_trees_elsewhere():
    y = b_corolla(D1, LA2, F(1, 8))
    pieces = region_pieces(y, OPEN_C)
    assert signature(pieces["gap", 0]) == [(False, 2)]
    assert signature(pieces["disc", 1]) == [(True, 1), (True, 1)]
    assert signature(pieces["gap", 1]) == [(True, 1), (True, 1)]
    assert signature(pieces["disc", 2]) == [(True, 1), (True, 1)]


def test_boundary_heights_belong_to_gaps():
    y = bpoint(D1, BNode(LA2, F(1, 4), (BNode(LB2, F(1, 2), (1, 2)), 3)))
    pieces = region_pieces(y, OPEN_C)
    # 1/4 is the bottom edge of disc 1, 1/2 its top edge: both are gap heights
    assert signature(pieces["gap", 0]) == [(False, 2)]
    assert signature(pieces["gap", 1]) == [(False, 2), (True, 1)]
    assert all(body.is_trivial for body in pieces["disc", 1])


def test_nontrivial_subpoints_partition_the_vertices():
    rng = random.Random(5)

    def multiset(b):
        if b.is_trivial:
            return []
        acc = []

        def walk(node):
            acc.append((node.height, w_text(node.label)))
            for child in node.children:
                if not isinstance(child, int):
                    walk(child)

        walk(b.root)
        return acc

    for _ in range(30):
        y = random_bpoint(rng, D1, rng.randint(1, 4))
        c = sample_sc1(rng, rng.randint(1, 2), rng.choice("co"))
        collected = sorted(v for seq in region_pieces(y, c).values()
                           for body in seq for v in multiset(body))
        assert collected == sorted(multiset(y))


def test_rescale_fixtures():
    body = b_corolla(D1, LA2, F(3, 4))
    out = rescale((F(1, 2), F(1)), body)
    assert out == b_corolla(D1, LA2, F(1, 2))
    assert rescale((F(0), F(1)), body) == body
    assert rescale((F(1, 2), F(1)), b_corolla(D1, LA2, F(1))) == b_corolla(D1, LA2, F(1))
    triv = bpoint(D1, 1)
    assert rescale((F(1, 2), F(1)), triv) == triv
    with pytest.raises(DomainError):
        rescale((F(1, 2), F(1)), b_corolla(D1, LA2, F(1, 4)))
    with pytest.raises(DomainError):
        rescale((F(1, 2), F(1)), b_corolla(D1, LA2, F(1, 2)))


# -- the action ---------------------------------------------------------------

def test_identity_configurations_act_trivially():
    rng = random.Random(6)
    f, _ = xi_map(7)
    ff, _ = tagged_map(8)
    for _ in range(8):
        y = random_bpoint(rng, D1, rng.randint(1, 4))
        assert D2.eq(d1_action_eval(CLOSED_UNIT, [f], y, EM), f(y))
        assert QXP.eq(alpha_eval(OPEN_UNIT, [ff], y, EM), ff(y))


def test_point_entirely_inside_the_open_disc():
    ff, _ = tagged_map(9)
    c = sc1("o", ((F(1, 8), F(1)),))
    y = bpoint(D1, BNode(LA2, F(1, 2), (BNode(LB2, F(7, 8), (1, 2)), 3)))
    out = alpha_eval(c, [ff], y, EM)
    assert QXP.eq(out, ff(rescale((F(1, 8), F(1)), y)))


def test_wrong_colour_is_rejected():
    f, _ = xi_map(10)
    ff, _ = tagged_map(11)
    y = mini_point()
    with pytest.raises(DomainError):
        alpha_eval(CLOSED_UNIT, [ff], y, EM)
    with pytest.raises(DomainError):
        d1_action_eval(OPEN_C, [f, f], y, EM)
    with pytest.raises(DomainError):
        d1_action_eval(CLOSED_UNIT, [f, f], y, EM)


def test_alpha_against_a_hand_assembled_value():
    f, loop = xi_map(12)
    ff, h = tagged_map(13)
    y = mini_point()
    out = alpha_eval(OPEN_C, [f, ff], y, EM)
    # bottom-up: trivial gap-0 wrapper is the unit; disc 1 holds the root
    # at rescaled height (1/3-1/4)/(1/4) = 1/3; gap 1 holds the child and a
    # trivial strand; disc 2 holds three trivial strands through ff
    disc1 = f(bpoint(D1, BNode(LA2, F(1, 3), (1, 2))))
    gap1 = EM(LB2)
    top = ff(bpoint(D1, 1))
    value = disc1
    value = D2.compose(value, 2, D2.unit())        # trivial gap piece
    value = D2.compose(value, 1, gap1)
    expected_q = value
    for slot in (3, 2, 1):
        expected_q = D2.compose(expected_q, slot, top.q)
    assert out.q == expected_q
    assert out.tags == top.tags * 3


def test_loop_action_matches_the_sliced_action():
    rng = random.Random(14)
    for trial in range(6):
        n = rng.randint(1, 2)
        c = sample_sc1(rng, n, "c")
        loops = [sample_loop(rng, FAM) for _ in range(n)]
        big = loop_act_sc(c, loops, EM)
        fs = [lambda b, g=g: xi_eval(g, b) for g in loops]
        y = random_bpoint(rng, D1, rng.randint(1, 4))
        assert D2.eq(xi_eval(big, y), d1_action_eval(c, fs, y, EM))


def test_loop_action_with_touching_discs_and_boundary_vertex():
    c = sc1("c", ((F(0), F(1, 2)), (F(1, 2), F(1))))
    rng = random.Random(15)
    loops = [sample_loop(rng, FAM) for _ in range(2)]
    big = loop_act_sc(c, loops, EM)
    y = bpoint(D1, BNode(LA2, F(1, 2), (BNode(LB2, F(3, 4), (1, 2)), 3)))
    fs = [lambda b, g=g: xi_eval(g, b) for g in loops]
    assert D2.eq(xi_eval(big, y), d1_action_eval(c, fs, y, EM))


def test_path_action_matches_the_open_action():
    rng = random.Random(16)
    for trial in range(5):
        n = rng.randint(0, 2)
        c = sample_sc1(rng, n, "o")
        loops = [sample_loop(rng, FAM) for _ in range(n)]
        h = sample_hofiber(rng, FAM)
        ff = psi_double_prime(psi_prime_as_map(h, BB, FAM), QXP, samples=6,
                              seed=rng.randint(0, 10**6))
        assembled = HofiberPoint(h.x, path_act_sc(c, loops, h.g, EM))
        fs = [lambda b, g=g: xi_eval(g, b) for g in loops] + [ff]
        y = random_bpoint(rng, D1, rng.randint(1, 4))
        lhs = QXElem(psi_prime_eval(assembled, y)[1], (h.x,) * BB.arity_of(y))
        assert QXP.eq(lhs, alpha_eval(c, fs, y, EM))


def test_concatenated_paths_pass_the_path_laws():
    rng = random.Random(17)
    c = sample_sc1(rng, 2, "c")
    loops = [sample_loop(rng, FAM) for _ in range(2)]
    big = loop_act_sc(c, loops, EM)
    assert check_path(big, samples=25, seed=18).ok
    co = sample_sc1(rng, 1, "o")
    h = sample_hofiber(rng, FAM)
    tail = path_act_sc(co, [loops[0]], h.g, EM)
    assert check_path(tail, samples=25, seed=19).ok
    assert tail.end == FAM[h.x]


def test_path_action_validation():
    rng = random.Random(20)
    loop = sample_loop(rng, FAM)
    sweep = FAM.path_to("a")     # ends away from the base map
    with pytest.raises(DomainError):
        loop_act_sc(OPEN_C, [loop], EM)
    with pytest.raises(DomainError):
        loop_act_sc(CLOSED_UNIT, [loop, loop], EM)
    with pytest.raises(DomainError, match="^need 2 loops, got 1$"):
        loop_act_sc(sc1("c", ((F(0), F(1, 2)), (F(1, 2), F(1)))), [loop], EM)
    with pytest.raises(DomainError):
        loop_act_sc(CLOSED_UNIT, [sweep], EM)
    with pytest.raises(DomainError):
        path_act_sc(CLOSED_UNIT, [], sweep, EM)
    with pytest.raises(DomainError):
        path_act_sc(OPEN_C, [sweep], sweep, EM)


def test_compatibility_with_composition():
    rng = random.Random(21)
    for trial in range(6):
        outer = sample_sc1(rng, 2, "c")
        inner = sample_sc1(rng, rng.randint(1, 2), "c")
        f1, _ = xi_map(rng.randint(0, 10**6))
        f2, _ = xi_map(rng.randint(0, 10**6))
        gs = [xi_map(rng.randint(0, 10**6))[0] for _ in range(inner.n)]
        i = rng.randint(1, 2)
        composed = compose_sc(outer, i, inner)
        fs_flat = ([f1, f2][: i - 1] + gs + [f1, f2][i:])
        inner_map = lambda b: d1_action_eval(inner, gs, b, EM)
        fs_nested = [f1, f2][: i - 1] + [inner_map] + [f1, f2][i:]
        y = random_bpoint(rng, D1, rng.randint(1, 4))
        assert D2.eq(d1_action_eval(composed, fs_flat, y, EM),
                     d1_action_eval(outer, fs_nested, y, EM))


def test_compatibility_at_the_open_slot():
    rng = random.Random(22)
    for trial in range(5):
        outer = sample_sc1(rng, 1, "o")
        inner = sample_sc1(rng, rng.randint(0, 1), "o")
        f1, _ = xi_map(rng.randint(0, 10**6))
        gs = [xi_map(rng.randint(0, 10**6))[0] for _ in range(inner.n)]
        ff, _ = tagged_map(rng.randint(0, 10**6))
        composed = compose_sc(outer, outer.slots, inner)
        inner_map = lambda b: alpha_eval(inner, gs + [ff], b, EM)
        y = random_bpoint(rng, D1, rng.randint(1, 4))
        assert QXP.eq(alpha_eval(composed, [f1] + gs + [ff], y, EM),
                      alpha_eval(outer, [f1, inner_map], y, EM))


def test_compatibility_open_in_closed_slot():
    rng = random.Random(23)
    for trial in range(5):
        outer = sample_sc1(rng, 2, "o")
        inner = sample_sc1(rng, rng.randint(1, 2), "c")
        f1, _ = xi_map(rng.randint(0, 10**6))
        f2, _ = xi_map(rng.randint(0, 10**6))
        gs = [xi_map(rng.randint(0, 10**6))[0] for _ in range(inner.n)]
        ff, _ = tagged_map(rng.randint(0, 10**6))
        i = rng.randint(1, 2)
        composed = compose_sc(outer, i, inner)
        fs_flat = [f1, f2][: i - 1] + gs + [f1, f2][i:] + [ff]
        inner_map = lambda b: d1_action_eval(inner, gs, b, EM)
        fs_nested = [f1, f2][: i - 1] + [inner_map] + [f1, f2][i:] + [ff]
        y = random_bpoint(rng, D1, rng.randint(1, 4))
        assert QXP.eq(alpha_eval(composed, fs_flat, y, EM),
                      alpha_eval(outer, fs_nested, y, EM))


def test_alpha_is_a_bimodule_map_in_its_argument():
    f, _ = xi_map(24)
    ff, _ = tagged_map(25)
    wrapped = BimoduleMap("alpha-section", BB, QXP,
                          lambda y: alpha_eval(OPEN_C, [f, ff], y, EM))
    report = check_bimodule_map(wrapped, samples=25, seed=26)
    assert report.ok, report.to_jsonable()


def test_subpoints_respect_the_filtration():
    rng = random.Random(27)
    for _ in range(20):
        y = random_bpoint(rng, D1, rng.randint(1, 4))
        level = b_prime_decompose(y).filtration[0]
        c = sample_sc1(rng, rng.randint(1, 2), rng.choice("co"))
        for seq in region_pieces(y, c).values():
            for body in seq:
                assert b_prime_decompose(body).filtration[0] <= level


def test_singleton_tag_set_matches_the_plain_action():
    rng = random.Random(28)
    single = PointedSet("pt", ("*",), "*")
    fam1 = delta_family(D1, D2, single, {"*": 0})
    qxp1 = QXProductBimodule(fam1)
    for _ in range(5):
        c = sample_sc1(rng, 1, "o")
        loop = sample_loop(rng, fam1)
        f = lambda b, g=loop: xi_eval(g, b)
        h = sample_hofiber(rng, fam1)
        ff = psi_double_prime(psi_prime_as_map(h, BBimodule(D1), fam1), qxp1,
                              samples=6, seed=rng.randint(0, 10**6))
        y = random_bpoint(rng, D1, rng.randint(1, 3))
        tagged = alpha_eval(c, [f, ff], y, EM)
        plain = _assemble(c, [f, lambda b: ff(b).q], y, EM, tagged=False)
        assert D2.eq(tagged.q, plain)
        assert set(tagged.tags) == {"*"}


# -- io -----------------------------------------------------------------------

def test_text_round_trip():
    for c in (OPEN_C, CLOSED_UNIT, sc1("c", ((F(1, 3), F(2, 3)),))):
        assert parse_sc(format_sc(c)) == c
    assert format_sc(OPEN_C) == "o<[1/4,1/2] [3/4,1/1]>"
    with pytest.raises(DomainError):
        parse_sc("q<[0,1]>")
    with pytest.raises(DomainError):
        parse_sc("c<0,1>")


def test_samples_are_valid():
    rng = random.Random(29)
    for _ in range(40):
        color = rng.choice("co")
        n = rng.randint(1 if color == "c" else 0, 3)
        c = sample_sc1(rng, n, color)
        assert sc1(c.color, c.intervals) == c
        assert c.n == n
        if color == "o":
            assert c.intervals[-1][1] == 1
