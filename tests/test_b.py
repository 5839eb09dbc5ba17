import random
from fractions import Fraction as F

import pytest

from opcalc.bconstruction import (
    BNode,
    SlicePiece,
    b_corolla,
    b_lambda,
    b_left_act,
    b_map_heights,
    b_prime_decompose,
    b_right_act,
    b_text,
    b_unit,
    bpoint,
    layer_of,
    mu_prime,
    slice_point,
)
from opcalc.bimodules import BBimodule, WSelfBimodule, eval_truncated_bimodule_map
from opcalc.operads import Associative, LittleDiscs, LittleIntervals, framed_intervals
from opcalc.oracles import b_normalize_random_order
from opcalc.sampling import (
    random_b_twists,
    random_bpoint,
    random_injection,
    random_raw_bnode,
    random_wpoint,
)
from opcalc.serialize import b_from_jsonable, b_dot, b_to_jsonable, parse_b_text, w_dot
from opcalc.trees import DomainError, InjectiveMap, block_injection
from opcalc.wconstruction import WEdge, WNode, w_compose, w_corolla, w_lambda, w_unit, wpoint

D1 = LittleIntervals()
ASSOC = Associative()
BASES = [D1, ASSOC, LittleDiscs(2)]

LA2 = w_corolla(D1, ((F(0), F(1, 2)), (F(1, 2), F(1))))
LB2 = w_corolla(D1, ((F(0), F(1, 3)), (F(2, 3), F(1))))
LU1 = w_corolla(D1, ((F(0), F(1, 2)),))
LV1 = w_corolla(D1, ((F(1, 4), F(1)),))


def vertices(entry):
    if isinstance(entry, int):
        return []
    out = [entry]
    for child in entry.children:
        out.extend(vertices(child))
    return out


# ---------------------------------------------------------------- normal form

def test_equal_height_contraction():
    raw = BNode(LA2, F(1, 3), (1, BNode(LB2, F(1, 3), (2, 3))))
    assert bpoint(D1, raw) == b_corolla(D1, w_compose(LA2, 2, LB2), F(1, 3))


def test_trivial_label_splice():
    raw = BNode(w_unit(D1), F(1, 4), (BNode(LA2, F(3, 4), (1, 2)),))
    assert bpoint(D1, raw) == b_corolla(D1, LA2, F(3, 4))


def test_trivial_chain_collapses_to_strand():
    raw = BNode(w_unit(D1), F(0), (BNode(w_unit(D1), F(1, 2), (1,)),))
    assert bpoint(D1, raw) == b_unit(D1)


def test_contraction_then_splice():
    # composing two trivial labels at the same height leaves a trivial label
    raw = BNode(w_unit(D1), F(1, 2), (BNode(w_unit(D1), F(1, 2), (1,)),))
    assert bpoint(D1, raw) == b_unit(D1)


def test_raw_rejections():
    with pytest.raises(DomainError):
        bpoint(D1, 2)
    with pytest.raises(DomainError):
        bpoint(D1, BNode(LA2, F(3, 2), (1, 2)))
    with pytest.raises(DomainError):
        bpoint(D1, BNode(LA2, F(1, 2), (1,)))
    with pytest.raises(DomainError):
        bpoint(D1, BNode(LA2, F(1, 2), (1, BNode(LU1, F(1, 4), (2,)))))
    with pytest.raises(DomainError):
        bpoint(D1, BNode(LA2, F(1, 2), (1, 3)))


def test_label_over_wrong_operad_rejected():
    with pytest.raises(DomainError):
        bpoint(ASSOC, BNode(LA2, F(1, 2), (1, 2)))


def test_normal_form_shape_invariants():
    rng = random.Random(40)
    for _ in range(120):
        op = rng.choice(BASES)
        b = random_bpoint(rng, op, rng.randint(1, 5))
        if b.is_trivial:
            continue
        zero = [v for v in vertices(b.root) if v.height == 0]
        assert len(zero) <= 1
        if zero:
            assert b.root.height == 0

        def walk(node):
            for child in node.children:
                if isinstance(child, BNode):
                    assert child.height > node.height
                    walk(child)
                elif node.height == 1:
                    pass
            if node.height == 1:
                assert all(isinstance(c, int) for c in node.children)
            assert not (len(node.children) == 1 and node.label.is_trivial)

        walk(b.root)


def test_twist_invariance():
    rng = random.Random(41)
    for _ in range(60):
        op = rng.choice(BASES)
        raw = random_raw_bnode(rng, op, rng.randint(1, 5))
        assert bpoint(op, raw) == bpoint(op, random_b_twists(rng, op, raw))


def test_confluence_against_random_order_reduction():
    rng = random.Random(42)
    for _ in range(40):
        op = rng.choice(BASES)
        raw = random_raw_bnode(rng, op, rng.randint(1, 5))
        expected = bpoint(op, raw)
        for trial in range(4):
            order_rng = random.Random(rng.randrange(10**9))
            assert b_normalize_random_order(order_rng, op, raw) == expected


# -------------------------------------------------------------------- actions

def test_left_act_fixture():
    b = b_left_act(LA2, (b_corolla(D1, LU1, F(1, 2)), b_unit(D1)))
    expected = bpoint(D1, BNode(LA2, F(0), (BNode(LU1, F(1, 2), (1,)), 2)))
    assert b == expected


def test_left_act_unit_law():
    rng = random.Random(43)
    for _ in range(30):
        op = rng.choice(BASES)
        b = random_bpoint(rng, op, rng.randint(1, 4))
        assert b_left_act(w_unit(op), (b,)) == b


def test_left_act_contracts_height_zero_roots():
    inner = b_corolla(D1, LA2, F(0))
    b = b_left_act(LU1, (inner,))
    assert b == b_corolla(D1, w_compose(LU1, 1, LA2), F(0))


def test_left_act_associativity():
    rng = random.Random(44)
    for _ in range(40):
        op = rng.choice(BASES)
        k = rng.randint(1, 3)
        p = random_wpoint(rng, op, k)
        i = rng.randint(1, k)
        m = rng.randint(1, 3)
        q = random_wpoint(rng, op, m)
        xs = tuple(random_bpoint(rng, op, rng.randint(1, 3)) for _ in range(k + m - 1))
        left = b_left_act(w_compose(p, i, q), xs)
        inner = b_left_act(q, xs[i - 1: i + m - 1])
        right = b_left_act(p, xs[: i - 1] + (inner,) + xs[i + m - 1:])
        assert left == right


def test_right_act_fixture():
    b = b_right_act(b_corolla(D1, LA2, F(1, 2)), 1, LU1)
    expected = bpoint(D1, BNode(LA2, F(1, 2), (BNode(LU1, F(1), (1,)), 2)))
    assert b == expected


def test_right_act_trivial_cases():
    b = b_corolla(D1, LA2, F(1, 2))
    assert b_right_act(b, 2, w_unit(D1)) == b
    assert b_right_act(b_unit(D1), 1, LA2) == b_corolla(D1, LA2, F(1))


def test_right_act_contracts_at_height_one():
    b = b_corolla(D1, LA2, F(1))
    assert b_right_act(b, 2, LU1) == b_corolla(D1, w_compose(LA2, 2, LU1), F(1))


def test_right_act_operad_laws():
    rng = random.Random(45)
    for _ in range(40):
        op = rng.choice(BASES)
        b = random_bpoint(rng, op, rng.randint(2, 4))
        n = b.arity
        i = rng.randint(1, n)
        p = random_wpoint(rng, op, rng.randint(1, 3))
        m = p.arity
        j = rng.randint(1, m)
        q = random_wpoint(rng, op, rng.randint(1, 3))
        nested = b_right_act(b_right_act(b, i, p), i + j - 1, q)
        assert nested == b_right_act(b, i, w_compose(p, j, q))
        i2 = rng.randint(1, n)
        if i2 == i:
            continue
        lo, hi = sorted((i, i2))
        plo = p if lo == i else q
        phi = p if hi == i else q
        one = b_right_act(b_right_act(b, lo, plo), hi + plo.arity - 1, phi)
        two = b_right_act(b_right_act(b, hi, phi), lo, plo)
        assert one == two


def test_left_right_interchange():
    rng = random.Random(46)
    for _ in range(40):
        op = rng.choice(BASES)
        k = rng.randint(1, 3)
        p = random_wpoint(rng, op, k)
        xs = [random_bpoint(rng, op, rng.randint(1, 3)) for _ in range(k)]
        j = rng.randint(1, k)
        local = rng.randint(1, xs[j - 1].arity)
        q = random_wpoint(rng, op, rng.randint(1, 3))
        offset = sum(x.arity for x in xs[: j - 1])
        one = b_right_act(b_left_act(p, tuple(xs)), offset + local, q)
        xs2 = list(xs)
        xs2[j - 1] = b_right_act(xs2[j - 1], local, q)
        assert one == b_left_act(p, tuple(xs2))


def test_lambda_identity_and_functoriality():
    rng = random.Random(47)
    for _ in range(40):
        op = rng.choice(BASES)
        b = random_bpoint(rng, op, rng.randint(1, 5))
        n = b.arity
        assert b_lambda(InjectiveMap.identity(n), b) == b
        m = rng.randint(1, n)
        u = random_injection(rng, m, n)
        k = rng.randint(1, m)
        v = random_injection(rng, k, m)
        assert b_lambda(v, b_lambda(u, b)) == b_lambda(u.after(v), b)


def test_lambda_cascade_fixture():
    # deleting the whole left branch restricts the root label to its slot 2
    b = bpoint(D1, BNode(LA2, F(1, 4), (BNode(LB2, F(1, 2), (1, 2)), 3)))
    u = InjectiveMap(1, 3, (3,))
    kept = w_lambda(InjectiveMap(1, 2, (2,)), LA2)
    assert b_lambda(u, b) == b_corolla(D1, kept, F(1, 4))


def test_lambda_against_right_action():
    rng = random.Random(48)
    for _ in range(40):
        op = rng.choice(BASES)
        b = random_bpoint(rng, op, rng.randint(1, 4))
        n = b.arity
        u = random_injection(rng, rng.randint(1, n), n)
        p = random_wpoint(rng, op, rng.randint(1, 3))
        mp = p.arity
        v = random_injection(rng, rng.randint(1, mp), mp)
        i = rng.randint(1, u.m)
        w = block_injection(u, i, v)
        left = b_right_act(b_lambda(u, b), i, w_lambda(v, p))
        right = b_lambda(w, b_right_act(b, u(i), p))
        assert left == right


# ------------------------------------------------------------------- mu prime

def test_mu_prime_fixture():
    b = bpoint(D1, BNode(LA2, F(1, 4), (1, BNode(LB2, F(3, 4), (2, 3)))))
    assert mu_prime(b) == w_compose(LA2, 2, LB2)


def test_mu_prime_trivial():
    assert mu_prime(b_unit(D1)) == w_unit(D1)


def test_mu_prime_is_a_bimodule_map():
    rng = random.Random(49)
    for _ in range(40):
        op = rng.choice(BASES)
        wself = WSelfBimodule(op)
        k = rng.randint(1, 3)
        p = random_wpoint(rng, op, k)
        xs = tuple(random_bpoint(rng, op, rng.randint(1, 3)) for _ in range(k))
        assert mu_prime(b_left_act(p, xs)) == wself.left_act(p, tuple(map(mu_prime, xs)))
        b = random_bpoint(rng, op, rng.randint(1, 4))
        i = rng.randint(1, b.arity)
        q = random_wpoint(rng, op, rng.randint(1, 3))
        assert mu_prime(b_right_act(b, i, q)) == w_compose(mu_prime(b), i, q)
        u = random_injection(rng, rng.randint(1, b.arity), b.arity)
        assert mu_prime(b_lambda(u, b)) == w_lambda(u, mu_prime(b))


# -------------------------------------------------------------------- slicing

def test_layer_of_tie_breaking():
    cuts = ((F(1, 2), True), (F(3, 4), False))
    assert layer_of(F(1, 4), cuts) == 0
    assert layer_of(F(1, 2), cuts) == 0
    assert layer_of(F(2, 3), cuts) == 1
    assert layer_of(F(3, 4), cuts) == 2
    assert layer_of(F(1), cuts) == 2


def test_slice_fixture_with_chains():
    b = bpoint(D1, BNode(LA2, F(0), (BNode(LU1, F(1, 2), (1,)), 2)))
    bottom = slice_point(b, ((F(0), True), (F(1), False)))
    assert bottom.layer == 0 and not bottom.point.is_trivial
    assert bottom.point.root.height == 0
    middle = bottom.exits[0]
    assert isinstance(middle, SlicePiece) and middle.layer == 1
    assert middle.point == b_corolla(D1, LU1, F(1, 2))
    top = middle.exits[0]
    assert isinstance(top, SlicePiece) and top.layer == 2
    assert top.point.is_trivial and top.exits == (1,)
    fill = bottom.exits[1]
    assert isinstance(fill, SlicePiece) and fill.layer == 1 and fill.point.is_trivial
    fill_top = fill.exits[0]
    assert isinstance(fill_top, SlicePiece) and fill_top.exits == (2,)


def test_slice_single_cut_tie_sides():
    b = bpoint(D1, BNode(LA2, F(0), (BNode(LU1, F(1, 2), (1,)), 2)))
    low = slice_point(b, ((F(1, 2), True),), trivial_chains=False)
    assert low.point == b and low.exits == (1, 2)
    split = slice_point(b, ((F(1, 2), False),), trivial_chains=False)
    assert split.point == b_corolla(D1, LA2, F(0))
    upper = split.exits[0]
    assert isinstance(upper, SlicePiece) and upper.layer == 1
    assert upper.point == b_corolla(D1, LU1, F(1, 2))
    assert upper.exits == (1,) and split.exits[1] == 2


def test_slice_trivial_point():
    bottom = slice_point(b_unit(D1), ((F(1, 2), True), (F(3, 4), True)))
    assert bottom.point.is_trivial and bottom.layer == 0
    mid = bottom.exits[0]
    assert isinstance(mid, SlicePiece) and mid.layer == 1 and mid.point.is_trivial
    top = mid.exits[0]
    assert isinstance(top, SlicePiece) and top.layer == 2 and top.exits == (1,)


def _rebuild_slice(op, piece):
    def from_exit(entry):
        return entry if isinstance(entry, int) else _rebuild_slice(op, entry)

    if piece.point.is_trivial:
        return from_exit(piece.exits[0])

    def walk(entry):
        if isinstance(entry, int):
            return from_exit(piece.exits[entry - 1])
        return BNode(entry.label, entry.height, tuple(walk(c) for c in entry.children))

    return walk(piece.point.root)


def test_slice_rebuilds_to_the_same_point():
    rng = random.Random(50)
    for _ in range(80):
        op = rng.choice(BASES)
        b = random_bpoint(rng, op, rng.randint(1, 5))
        cut_count = rng.randint(0, 3)
        heights = sorted(F(rng.randint(0, 8), 8) for _ in range(cut_count))
        cuts = tuple((h, rng.random() < 0.5) for h in heights)
        chains = rng.random() < 0.5
        bottom = slice_point(b, cuts, trivial_chains=chains)
        rebuilt = _rebuild_slice(op, bottom)
        if isinstance(rebuilt, int):
            assert b.is_trivial
        else:
            assert bpoint(op, rebuilt) == b


def test_slice_layers_are_homogeneous():
    rng = random.Random(51)
    for _ in range(50):
        op = rng.choice(BASES)
        b = random_bpoint(rng, op, rng.randint(1, 5))
        heights = sorted(F(rng.randint(1, 7), 8) for _ in range(rng.randint(1, 2)))
        cuts = tuple((h, rng.random() < 0.5) for h in heights)
        layers = len(cuts) + 1
        seen = []

        def walk(piece, expect_layer):
            assert piece.layer == expect_layer or expect_layer is None
            seen.append(piece)
            for v in vertices(piece.point.root) if not piece.point.is_trivial else []:
                assert layer_of(v.height, cuts) == piece.layer
            for entry in piece.exits:
                if isinstance(entry, int):
                    assert piece.layer == layers - 1
                else:
                    walk(entry, piece.layer + 1)

        walk(slice_point(b, cuts, trivial_chains=True), 0)


def test_map_heights_rescale():
    b = bpoint(D1, BNode(LA2, F(1, 4), (1, BNode(LB2, F(3, 4), (2, 3)))))
    doubled = b_map_heights(b, lambda h: h * F(2, 3))
    hs = sorted(v.height for v in vertices(doubled.root))
    assert hs == [F(1, 6), F(1, 2)]
    with pytest.raises(DomainError):
        b_map_heights(b, lambda h: h * 2)


# -------------------------------------------------------------- decomposition

def test_decompose_trivial():
    dec = b_prime_decompose(b_unit(D1))
    assert dec.root_label is None
    assert dec.pieces == (SlicePiece(b_unit(D1), 1, (SlicePiece(b_unit(D1), 2, (1,)),)),)
    assert dec.filtration == (1, 0)


def test_decompose_fixture_with_root_and_cap():
    b = b_right_act(b_corolla(D1, LA2, F(1, 2)), 1, LB2)
    dec = b_prime_decompose(b)
    assert dec.root_label is None
    assert dec.filtration == (2, 1)
    (piece,) = dec.pieces
    assert piece.layer == 1 and piece.point.arity == 2
    kinds = sorted("ext" if up.point.is_trivial else "cap" for up in piece.exits)
    assert kinds == ["cap", "ext"]
    cap = next(up for up in piece.exits if not up.point.is_trivial)
    ext = next(up for up in piece.exits if up.point.is_trivial)
    assert cap.layer == 2 and cap.point == b_corolla(D1, LB2, 1)
    assert cap.point.root.label == LB2 and cap.exits == (1, 2)
    assert ext.layer == 2 and ext.exits == (3,)


def test_decompose_left_act_fixture():
    b = b_left_act(LA2, (b_corolla(D1, LU1, F(1, 2)), b_unit(D1)))
    dec = b_prime_decompose(b)
    assert dec.root_label is not None
    assert len(dec.pieces) == 2
    points = sorted((piece.point.arity, piece.point.is_trivial) for piece in dec.pieces)
    assert points == [(1, False), (1, True)]
    assert dec.filtration == (1, 1)


def test_decompose_is_the_slice_at_heights_zero_and_one():
    rng = random.Random(55)
    for op in (D1, LittleDiscs(2), ASSOC, framed_intervals()):
        for _ in range(25):
            b = random_bpoint(rng, op, rng.randint(1, 5))
            dec = b_prime_decompose(b)
            bottom = slice_point(b, ((F(0), True), (F(1), False)))
            pieces = bottom.exits
            if not any(v.height == 0 for v in vertices(b.root)):
                assert dec.root_label is None and len(pieces) == 1
            else:
                assert dec.root_label == bottom.point.root.label
                assert dec.root_label.arity == len(pieces)
            assert len(dec.pieces) == len(pieces)
            numbers = []
            for piece in pieces:
                assert piece.layer == 1
                for up in piece.exits:
                    assert up.layer == 2
                    assert all(isinstance(k, int) for k in up.exits)
                    if up.point.is_trivial:
                        assert len(up.exits) == 1
                    else:
                        cap = up.point.root
                        assert cap.height == 1 and len(up.exits) == cap.label.arity
                        assert all(isinstance(c, int) for c in cap.children)
                    numbers += up.exits
            assert sorted(numbers) == list(range(1, b.arity + 1))
            level = max(piece.point.arity for piece in pieces)
            aux = max(len(vertices(piece.point.root)) for piece in pieces
                      if piece.point.arity == level)
            assert dec.filtration == (level, aux)


def test_truncated_identity_recovers_the_point():
    rng = random.Random(52)
    for _ in range(60):
        op = rng.choice(BASES)
        bimod = BBimodule(op)
        b = random_bpoint(rng, op, rng.randint(1, 5))
        level = b_prime_decompose(b).filtration[0]
        assert eval_truncated_bimodule_map(lambda piece: piece, level, b, bimod) == b


def test_truncated_mu_prime_assignment_recovers_mu_prime():
    rng = random.Random(53)
    for _ in range(60):
        op = rng.choice(BASES)
        wself = WSelfBimodule(op)
        b = random_bpoint(rng, op, rng.randint(1, 5))
        value = eval_truncated_bimodule_map(mu_prime, 6, b, wself)
        assert value == mu_prime(b)


def test_truncated_cap_order_independence():
    rng = random.Random(54)
    for _ in range(40):
        op = rng.choice(BASES)
        bimod = BBimodule(op)
        b = random_bpoint(rng, op, rng.randint(2, 5))
        cap_count = sum(
            1 for piece in b_prime_decompose(b).pieces
            for up in piece.exits if not up.point.is_trivial)
        base = eval_truncated_bimodule_map(lambda piece: piece, 6, b, bimod)
        for _ in range(3):
            order = list(range(cap_count))
            rng.shuffle(order)
            assert eval_truncated_bimodule_map(
                lambda piece: piece, 6, b, bimod, order=order) == base


def test_truncated_level_guard():
    b = b_corolla(D1, LA2, F(1, 2))
    with pytest.raises(DomainError):
        eval_truncated_bimodule_map(lambda piece: piece, 1, b, BBimodule(D1))


# ------------------------------------------------------------------ bimodules

def test_bimodule_interfaces():
    rng = random.Random(55)
    for op in BASES:
        bimod = BBimodule(op)
        wself = WSelfBimodule(op)
        for n in (1, 2, 3):
            b = bimod.sample(rng, n)
            bimod.validate(b)
            assert bimod.arity_of(b) == n
            x = wself.sample(rng, n)
            wself.validate(x)
            assert wself.arity_of(x) == n


def test_wself_left_action_matches_iterated_composition():
    rng = random.Random(56)
    wself = WSelfBimodule(D1)
    for _ in range(20):
        k = rng.randint(1, 3)
        p = random_wpoint(rng, D1, k)
        xs = tuple(random_wpoint(rng, D1, rng.randint(1, 3)) for _ in range(k))
        value = p
        for position in range(k, 0, -1):
            value = w_compose(value, position, xs[position - 1])
        assert wself.left_act(p, xs) == value


# --------------------------------------------------------------- serialization

def test_text_round_trip():
    rng = random.Random(57)
    for _ in range(50):
        op = rng.choice(BASES)
        b = random_bpoint(rng, op, rng.randint(1, 5))
        assert parse_b_text(op, b_text(b)) == b


def test_text_fixture():
    b = b_corolla(D1, LA2, F(1, 2))
    text = b_text(b)
    assert text.startswith("(v :h=1/2 ")
    assert parse_b_text(D1, text) == b
    assert parse_b_text(D1, "l1") == b_unit(D1)


def test_json_round_trip():
    rng = random.Random(58)
    for _ in range(40):
        op = rng.choice(BASES)
        b = random_bpoint(rng, op, rng.randint(1, 4))
        blob = b_to_jsonable(b)
        assert b_from_jsonable(op, blob) == b


def test_dot_smoke():
    b = bpoint(D1, BNode(LA2, F(0), (BNode(LU1, F(1, 2), (1,)), 2)))
    text = b_dot(b)
    assert text.startswith("digraph") and "h=1/2" in text


_DOT_HEAD = ["digraph point {", "  rankdir=BT;", "  node [fontsize=10];"]


def test_dot_texts_are_pinned():
    trivial = "\n".join([*_DOT_HEAD, '  leaf1 [shape=box label="1"];', "}"])
    assert w_dot(w_unit(D1)) == trivial and b_dot(b_unit(D1)) == trivial
    halves = ((F(0), F(1, 2)), (F(1, 2), F(1)))
    a = wpoint(D1, WNode(halves, (WEdge(F(1, 3), WNode(halves, (2, 3))), 1)))
    assert w_dot(a) == "\n".join([
        *_DOT_HEAD,
        '  v1 [shape=ellipse label="<[0/1,1/2] [1/2,1/1]>"];',
        '  v2 [shape=ellipse label="<[0/1,1/2] [1/2,1/1]>"];',
        '  v2 -> v1 [label="1/3"];',
        '  leaf3 [shape=box label="2"];',
        "  leaf3 -> v2;",
        '  leaf4 [shape=box label="3"];',
        "  leaf4 -> v2;",
        '  leaf5 [shape=box label="1"];',
        "  leaf5 -> v1;",
        "}"])
    b = bpoint(D1, BNode(LA2, F(0), (BNode(LU1, F(1, 2), (1,)), 2)))
    assert b_dot(b) == "\n".join([
        *_DOT_HEAD,
        '  v1 [shape=ellipse label="h=0/1\\n(v \\"<[0/1,1/2] [1/2,1/1]>\\" l1 l2)"];',
        '  v2 [shape=ellipse label="h=1/2\\n(v \\"<[0/1,1/2]>\\" l1)"];',
        "  v2 -> v1;",
        '  leaf3 [shape=box label="1"];',
        "  leaf3 -> v2;",
        '  leaf4 [shape=box label="2"];',
        "  leaf4 -> v1;",
        "}"])
