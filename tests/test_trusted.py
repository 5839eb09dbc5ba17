"""The structure maps rebuild normal forms without validating them again.

`wpoint` and `bpoint` validate raw trees once, at the boundary; the
structure maps take their arguments for normal and normalize their results
through the private, unchecked path. These tests keep that path honest:
every result must pass the validating oracle (`WOperad.validate`,
`BBimodule.validate`, which renormalize through `wpoint`/`bpoint`), and the
boundary must still refuse what it refused before. The label texts the
normalizer puts on W vertices, and that the structure maps carry, must
equal the texts formatted afresh.
"""

import io
import json
import random
from fractions import Fraction as F

import pytest

import opcalc.wconstruction as wc
from opcalc.bconstruction import (
    BNode,
    BPoint,
    SlicePiece,
    b_corolla,
    b_entry_text,
    b_lambda,
    b_left_act,
    b_right_act,
    b_unit,
    bpoint,
    mu_prime,
    slice_point,
)
from opcalc.bimodules import BBimodule, eval_truncated_operad_map
from opcalc.cli import main
from opcalc.operads import (
    Associative,
    escaped,
    FramedElement,
    FramedOperad,
    LittleDiscs,
    LittleIntervals,
    framed_intervals,
    z2,
)
from opcalc.sampling import random_bpoint, random_injection, random_permutation, random_wpoint
from opcalc.serialize import (
    b_from_jsonable,
    b_to_jsonable,
    parse_b_text,
    parse_w_text,
    w_from_jsonable,
    w_to_jsonable,
)
from opcalc.trees import MAX_DEPTH, DomainError, InjectiveMap, keep_leaves, leaf_word
from opcalc.wconstruction import (
    WEdge,
    WNode,
    WOperad,
    WPoint,
    _normal_w,
    entry_text,
    w_compose,
    w_lambda,
    w_prime_decompose,
    w_unit,
    wpoint,
)

from formal import FormalOperad

D1 = LittleIntervals()
D2 = LittleDiscs(2)
OPERADS = {
    "d1": D1,
    "d2": D2,
    "assoc": Associative(),
    "d1_z2": framed_intervals(),
}
HALF = ((F(0), F(1, 2)),)
HALVES = "<[0/1,1/2] [1/2,1/1]>"


def _corpus(op, seed: int, count: int, max_arity: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_wpoint(rng, op, rng.randint(1, max_arity))


# ------------------------------------------------------ differential: W maps

@pytest.mark.parametrize("name", sorted(OPERADS))
def test_w_structure_maps_return_valid_points(name):
    op = OPERADS[name]
    wop = WOperad(op)
    for rng, a in _corpus(op, 31, 25, 4):
        b = random_wpoint(rng, op, rng.randint(1, 3))
        i = rng.randint(1, a.arity)
        wop.validate(w_compose(a, i, b))
        u = random_injection(rng, rng.randint(1, a.arity), a.arity)
        wop.validate(w_lambda(u, a))
        dec = w_prime_decompose(a)
        for piece in dec.components:
            wop.validate(piece)
        back = eval_truncated_operad_map(lambda piece: piece, dec.filtration_level, a, wop)
        wop.validate(back)
        assert back == a


def test_w_maps_over_the_resolution_itself_return_valid_points():
    # vertices over WOperad twist by sorting their labels' leaf words, so
    # the structure maps trust their points; the validating oracle checks
    op = WOperad(D1)
    wop = WOperad(op)
    for rng, a in _corpus(op, 32, 8, 3):
        b = random_wpoint(rng, op, rng.randint(1, 2))
        wop.validate(w_compose(a, rng.randint(1, a.arity), b))
        u = random_injection(rng, rng.randint(1, a.arity), a.arity)
        wop.validate(w_lambda(u, a))
        for piece in w_prime_decompose(a).components:
            wop.validate(piece)


# ------------------------------------------------------ differential: B maps

def _slice_points(piece):
    yield piece.point
    for exit_entry in piece.exits:
        if isinstance(exit_entry, SlicePiece):
            yield from _slice_points(exit_entry)


@pytest.mark.parametrize("name", sorted(OPERADS))
def test_b_structure_maps_return_valid_points(name):
    op = OPERADS[name]
    bop = BBimodule(op)
    rng = random.Random(41)
    for _ in range(20):
        b = random_bpoint(rng, op, rng.randint(1, 4))
        p = random_wpoint(rng, op, rng.randint(1, 3))
        others = tuple(random_bpoint(rng, op, rng.randint(1, 2)) for _ in range(p.arity))
        bop.validate(b_left_act(p, others))
        bop.validate(b_right_act(b, rng.randint(1, b.arity), p))
        u = random_injection(rng, rng.randint(1, b.arity), b.arity)
        bop.validate(b_lambda(u, b))
        cuts = tuple(sorted((rng.choice((F(0), F(1, 3), F(1, 2), F(1))), rng.random() < 0.5)
                            for _ in range(rng.randint(1, 3))))
        for trivial_chains in (True, False):
            for point in _slice_points(slice_point(b, cuts, trivial_chains)):
                bop.validate(point)


# ------------------------------------------- normal points skip _normal_w

def _labels(entry):
    if not isinstance(entry, int):
        yield entry.label
        for child in entry.children:
            yield from _labels(child)


def _fresh(entry):
    """The tree with new copies of its labels, which hold no cached text."""
    if isinstance(entry, int):
        return entry
    return BNode(WPoint._trusted(entry.label.operad, entry.label.root), entry.height,
                 tuple(_fresh(child) for child in entry.children))


def _check_trusted(op, point):
    """point is what _normal_w makes of its own tree, passes the validating
    oracle, and its cached text is the text computed afresh."""
    if not point.is_trivial:
        assert _normal_w(op, point.root) == point
    WOperad(op).validate(point)
    assert point.text == entry_text(op, point.root)


@pytest.mark.parametrize("name", sorted(OPERADS))
def test_fast_paths_equal_the_normalizer(name, monkeypatch):
    op = OPERADS[name]
    calls = _spy_normalizer(monkeypatch)
    for rng, a in _corpus(op, 51, 30, 5):
        b = random_wpoint(rng, op, rng.randint(1, 3))
        del calls[:]
        c = w_compose(a, rng.randint(1, a.arity), b)
        twisted = w_lambda(random_permutation(rng, a.arity), a)
        pieces = w_prime_decompose(a).components
        assert calls == []
        for point in (c, twisted, *pieces):
            _check_trusted(op, point)


@pytest.mark.parametrize("name", sorted(OPERADS))
def test_height_tree_labels_and_texts_equal_the_normalizer(name):
    # _reduce_b relabels each vertex label along the sorting
    # permutation of its children, through bijective w_lambda
    op = OPERADS[name]
    rng = random.Random(52)
    for _ in range(30):
        b = random_bpoint(rng, op, rng.randint(1, 5))
        for point in (b, b_right_act(b, 1, random_wpoint(rng, op, rng.randint(1, 3)))):
            BBimodule(op).validate(point)
            for label in _labels(point.root):
                _check_trusted(op, label)
            assert point.text == b_entry_text(_fresh(point.root))


@pytest.mark.parametrize("name", sorted(OPERADS))
def test_cached_leaf_words_equal_a_fresh_walk(name):
    op = OPERADS[name]
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 5)
        a, b = random_wpoint(rng, op, n), random_bpoint(rng, op, n)
        other = random_wpoint(rng, op, rng.randint(1, 3))
        w_points = (a, w_compose(a, rng.randint(1, n), other),
                    w_lambda(random_permutation(rng, n), a), *_labels(b.root))
        for point in w_points:
            fresh = leaf_word(point.root)
            assert point.leaf_word == tuple(fresh) and point.leaf_word is point.leaf_word
            assert point.arity == len(fresh)
        for point in (b, b_right_act(b, 1, other), b_lambda(random_permutation(rng, n), b)):
            fresh = leaf_word(point.root)
            assert point.leaf_word == tuple(fresh) and point.leaf_word is point.leaf_word
            assert point.arity == len(fresh)


def _spy_normalizer(monkeypatch):
    calls = []
    normal_w = wc._normal_w

    def spy(op, root):
        calls.append(op)
        return normal_w(op, root)

    monkeypatch.setattr(wc, "_normal_w", spy)
    return calls


def _framed_formal():
    base = FormalOperad()
    op = FramedOperad(base, z2(), lambda g, x: x)

    def vertex(name, *children):
        atom = FramedElement(base.atom(name, len(children)), ("e",) * len(children))
        return WNode(atom, children)

    a = wpoint(op, vertex("p", WEdge(F(1, 2), vertex("q", 1, 2)), WEdge(F(1), vertex("r", 3, 4))))
    return op, a, wpoint(op, vertex("s", 2, 1))


def _resolution_points():
    op = WOperad(D1)
    rng = random.Random(53)
    return op, random_wpoint(rng, op, 3), random_wpoint(rng, op, 2)


@pytest.mark.parametrize("make", [_framed_formal, _resolution_points])
def test_points_over_leaf_word_hooks_skip_the_normalizer(make, monkeypatch):
    # the recording operad (under a frame) and the resolution twist their
    # labels by sorting leaf words, so the structure maps take their
    # points as they take any other
    op, a, b = make()
    assert any(len(v.children) > 1 for v in _wnodes(a.root))
    calls = _spy_normalizer(monkeypatch)
    reverse = InjectiveMap(a.arity, a.arity, tuple(range(a.arity, 0, -1)))
    c = w_compose(a, 1, b)
    twisted = w_lambda(reverse, a)
    pieces = w_prime_decompose(a).components
    assert calls == []
    for point in (c, twisted, *pieces):
        _check_trusted(op, point)


def test_only_a_restriction_that_drops_leaves_renormalizes(monkeypatch):
    rng = random.Random(54)
    a, b = random_wpoint(rng, D1, 4), random_wpoint(rng, D1, 3)
    calls = _spy_normalizer(monkeypatch)
    w_compose(a, 2, b)
    w_lambda(random_permutation(rng, 4), a)
    w_prime_decompose(a)
    assert calls == []
    w_lambda(InjectiveMap(2, 4, (1, 3)), a)
    assert calls == [D1]


def _wnodes(node):
    yield node
    for child in node.children:
        if isinstance(child, WEdge):
            yield from _wnodes(child.node)


# ------------------------------------------------------- carried label texts

TEXTED = {**OPERADS, "w(d1)": WOperad(D1), "formal": FormalOperad()}


def _check_carried(op, point):
    """Every vertex of the W point carries its label's escaped text, equal
    to the text formatted afresh."""
    if point.is_trivial:
        return
    for node in _wnodes(point.root):
        assert node._text is not None
        assert node._text == escaped(op.format_element(node.label))


@pytest.mark.parametrize("name", sorted(TEXTED))
def test_carried_label_texts_equal_fresh_texts(name):
    op = TEXTED[name]
    for rng, a in _corpus(op, 57, 12, 4):
        b = random_wpoint(rng, op, rng.randint(1, 3))
        bp = random_bpoint(rng, op, rng.randint(1, 4))
        u = random_injection(rng, rng.randint(1, a.arity), a.arity)
        results = [a, w_compose(a, rng.randint(1, a.arity), b), w_lambda(u, a),
                   w_lambda(random_permutation(rng, a.arity), a),
                   *w_prime_decompose(a).components, mu_prime(bp)]
        acted = (b_right_act(bp, 1, b), b_left_act(b, (bp,) + (b_unit(op),) * (b.arity - 1)),
                 b_lambda(random_injection(rng, 1, bp.arity), bp))
        for point in (bp, *acted):
            results.extend(_labels(point.root))
        for point in results:
            _check_carried(op, point)


def test_a_vertex_without_a_text_is_formatted_afresh():
    halves = ((F(0), F(1, 2)), (F(1, 2), F(1)))
    node = WNode(halves[::-1], (2, 1))
    assert node._text is None
    assert entry_text(D1, node) == '(v "<[1/2,1/1] [0/1,1/2]>" l2 l1)'
    assert WPoint._trusted(D1, node).text == '(v "<[1/2,1/1] [0/1,1/2]>" l2 l1)'
    normal = wpoint(D1, node)
    assert normal.root._text == "<[0/1,1/2] [1/2,1/1]>"
    # the same label object keeps its text, another label drops it
    assert normal.root.rebuilt(normal.root.label, (2, 1))._text == normal.root._text
    assert normal.root.rebuilt(halves[::-1], (1, 2))._text is None
    cut = keep_leaves(normal.root, {2: 1}, D1.restrict)
    assert cut._text is None and entry_text(D1, cut) == '(v "<[1/2,1/1]>" l1)'
    # the text is the parsed element's, never the text read
    assert parse_w_text(D1, '(v "<[0/1,2/4]>" l1)').text == '(v "<[0/1,1/2]>" l1)'


# --------------------------------------------------- the boundary still checks

def test_wpoint_rejects_overlapping_discs():
    overlapping = (((F(0), F(0)), F(1, 2)), ((F(1, 4), F(0)), F(1, 2)))
    with pytest.raises(DomainError, match="overlap"):
        wpoint(D2, WNode(overlapping, (1, 2)))


class CountingIntervals(LittleIntervals):
    """Little intervals that count their `validate` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.validated = 0

    def validate(self, x) -> None:
        self.validated += 1
        super().validate(x)


def _label_count(point) -> int:
    if isinstance(point, WPoint):
        return 0 if point.is_trivial else sum(1 for _ in _wnodes(point.root))
    return sum(_label_count(node.label) for node in _bnodes(point.root))


def _bnodes(entry):
    if isinstance(entry, BNode):
        yield entry
        for child in entry.children:
            yield from _bnodes(child)


READERS = {
    "w-text": (random_wpoint, lambda op, a: parse_w_text(op, a.text)),
    "w-json": (random_wpoint, lambda op, a: w_from_jsonable(op, w_to_jsonable(a))),
    "b-text": (random_bpoint, lambda op, b: parse_b_text(op, b.text)),
    "b-json": (random_bpoint, lambda op, b: b_from_jsonable(op, b_to_jsonable(b))),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_validate_each_label_once(name):
    sample, read = READERS[name]
    rng = random.Random(56)
    for n in (1, 2, 3, 4, 5):
        point = sample(rng, D1, n)
        op = CountingIntervals()
        assert read(op, point).text == point.text
        assert op.validated == _label_count(point)


@pytest.mark.parametrize("text", [
    f'(v "{HALVES}" (v "<[0/1,1/1]>" l1) l2)',
    '{"kind":"w","operad":"intervals","root":{"label":"' + HALVES + '","children":'
    '[{"label":"<[0/1,1/1]>","children":[{"leaf":1}]},{"leaf":2}]}}',
], ids=["text", "json"])
def test_a_vertex_in_a_slot_exits_two(capsys, text):
    # a child vertex needs an inner edge above it; without one the
    # normalizer used to fail with an AttributeError
    assert main(["normalize", "--kind", "w", text]) == 2
    assert capsys.readouterr().err.startswith("error: a vertex's child")
    with pytest.raises(DomainError, match="inner edge"):
        wpoint(D1, WNode(((F(0), F(1, 2)), (F(1, 2), F(1))), (WNode(D1.unit(), (1,)), 2)))


def _b_cup(label) -> BNode:
    return BNode(label, F(1, 2), (1, 2))


def test_bpoint_rejects_a_label_that_is_not_a_point():
    with pytest.raises(DomainError, match="resolution point"):
        bpoint(D1, _b_cup(WNode(((F(0), F(1, 2)), (F(1, 2), F(1))), (1, 2))))


def test_bpoint_rejects_a_label_over_another_operad():
    with pytest.raises(DomainError, match="resolution point"):
        bpoint(D1, _b_cup(_cup_d2()))


def test_bpoint_rejects_a_label_of_the_wrong_arity():
    label = wpoint(D1, WNode(HALF, (1,)))
    with pytest.raises(DomainError, match="arity"):
        bpoint(D1, _b_cup(label))


def test_b_validate_rejects_a_unary_label_that_is_not_normal():
    # a unit vertex over one edge: the label wpoint would splice
    label = WPoint._trusted(D1, WNode(D1.unit(), (WEdge(F(1, 2), WNode(HALF, (1,))),)))
    with pytest.raises(DomainError, match="not in normal form"):
        BBimodule(D1).validate(BPoint(D1, BNode(label, F(1, 2), (1,))))


def test_w_validate_rejects_a_point_built_by_hand():
    raw = WPoint._trusted(D1, WNode(D1.unit(), (WEdge(F(1, 2), WNode(HALF, (1,))),)))
    with pytest.raises(DomainError, match="not in normal form"):
        WOperad(D1).validate(raw)


# ------------------------------------------------------- typed arguments

def _cup() -> WPoint:
    return wpoint(D1, WNode(((F(0), F(1, 2)), (F(1, 2), F(1))), (1, 2)))


def _cup_d2() -> WPoint:
    return wpoint(D2, WNode((((F(-1, 2), F(0)), F(1, 2)), ((F(1, 2), F(0)), F(1, 2))), (1, 2)))


def test_w_compose_rejects_non_points():
    with pytest.raises(DomainError, match="point"):
        w_compose("x", 1, "y")
    with pytest.raises(DomainError, match="point"):
        w_compose(_cup(), 1, "y")
    with pytest.raises(DomainError, match="slot"):
        w_compose(_cup(), "1", _cup())


def test_w_compose_rejects_an_operad_mismatch():
    with pytest.raises(DomainError, match="different operads"):
        w_compose(_cup(), 1, w_unit(D2))


def test_w_lambda_rejects_non_points_and_non_injections():
    with pytest.raises(DomainError, match="restriction"):
        w_lambda(None, _cup())
    with pytest.raises(DomainError, match="point"):
        w_lambda(InjectiveMap(1, 2, (1,)), "x")


def test_b_left_act_rejects_non_points():
    with pytest.raises(DomainError, match="acting point"):
        b_left_act("x", ())
    with pytest.raises(DomainError, match="acted on"):
        b_left_act(_cup(), ("x", b_unit(D1)))


def test_b_left_act_rejects_an_operad_mismatch():
    with pytest.raises(DomainError, match="different operads"):
        b_left_act(_cup(), (b_unit(D1), b_unit(D2)))


def test_b_right_act_rejects_non_points():
    b = b_corolla(D1, _cup(), F(1, 2))
    with pytest.raises(DomainError, match="acting point"):
        b_right_act(b, 1, "x")
    with pytest.raises(DomainError, match="acted on"):
        b_right_act("x", 1, _cup())
    with pytest.raises(DomainError, match="slot"):
        b_right_act(b, None, _cup())


def test_b_right_act_rejects_an_operad_mismatch():
    b = b_corolla(D1, _cup(), F(1, 2))
    with pytest.raises(DomainError, match="different operads"):
        b_right_act(b, 1, _cup_d2())


def test_b_lambda_rejects_non_points_and_non_injections():
    b = b_corolla(D1, _cup(), F(1, 2))
    with pytest.raises(DomainError, match="restriction"):
        b_lambda("u", b)
    with pytest.raises(DomainError, match="point"):
        b_lambda(InjectiveMap(1, 2, (1,)), _cup())


def test_b_corolla_rejects_a_label_that_is_not_a_point():
    with pytest.raises(DomainError, match="label"):
        b_corolla(D1, "x", F(1, 2))


# --------------------------------------------------------- bounded depth

def _chain(label, depth: int) -> WNode:
    """`depth` unary vertices labelled `label` over leaf 1, joined by edges of length 1/2."""
    node = WNode(label, (1,))
    for _ in range(depth - 1):
        node = WNode(label, (WEdge(F(1, 2), node),))
    return node


def _unit_chain_text(depth: int) -> str:
    unit = '(v "<[0/1,1/1]>" '
    return (unit + "(e 1/2 ") * (depth - 1) + unit + "l1)" + "))" * (depth - 1)


def _unit_chain_json(depth: int) -> str:
    root = '{"label":"<[0/1,1/1]>","children":[{"leaf":1}]}'
    for _ in range(depth - 1):
        root = '{"label":"<[0/1,1/1]>","children":[{"length":"1/2","node":' + root + "}]}"
    return '{"kind":"w","operad":"intervals","root":' + root + "}"


def test_wpoint_accepts_the_depth_limit_and_refuses_a_deeper_tree():
    assert wpoint(D1, _chain(D1.unit(), MAX_DEPTH)) == w_unit(D1)
    with pytest.raises(DomainError, match="deeper"):
        wpoint(D1, _chain(D1.unit(), MAX_DEPTH + 1))
    with pytest.raises(DomainError, match="deeper"):
        wpoint(D1, _chain(D1.unit(), 3000))


def test_parse_w_text_refuses_a_deep_unit_chain():
    assert parse_w_text(D1, _unit_chain_text(MAX_DEPTH)) == w_unit(D1)
    with pytest.raises(DomainError, match="deeper"):
        parse_w_text(D1, _unit_chain_text(3000))


def test_json_and_b_readers_refuse_deep_trees():
    assert w_from_jsonable(D1, json.loads(_unit_chain_json(MAX_DEPTH))) == w_unit(D1)
    with pytest.raises(DomainError, match="deeper"):
        w_from_jsonable(D1, json.loads(_unit_chain_json(MAX_DEPTH + 1)))
    text = "l1"
    for _ in range(MAX_DEPTH + 1):
        text = f'(v :h=1/2 "l1" {text})'
    with pytest.raises(DomainError, match="deeper"):
        parse_b_text(D1, text)


def test_bpoint_bounds_the_labels_nested_along_a_path():
    # ten vertices whose labels are ten deep: mu_prime would build a
    # hundred-deep composite, so one more vertex is refused
    label = wpoint(D1, _chain(HALF, 10))
    assert label.depth == 10

    def chain(length: int):
        node = BNode(label, F(1), (1,))
        for _ in range(length - 1):
            node = BNode(label, F(0), (node,))
        return node

    assert bpoint(D1, chain(MAX_DEPTH // 10)).arity == 1
    with pytest.raises(DomainError, match="deeper"):
        bpoint(D1, chain(MAX_DEPTH // 10 + 1))


def test_a_label_is_walked_for_its_depth_once(monkeypatch):
    label = wpoint(D1, _chain(HALF, 10))
    walks = []
    depth = wc._depth

    def spy(entry):
        walks.append(entry is label.root)
        return depth(entry)

    monkeypatch.setattr(wc, "_depth", spy)
    node = BNode(label, F(1), (1,))
    for _ in range(5):
        node = BNode(label, F(1, 2), (node,))
    for _ in range(3):
        assert bpoint(D1, node).arity == 1
    assert walks.count(True) == 1 and label.depth == 10


def test_cli_exits_two_on_a_deep_unit_chain(capsys, monkeypatch):
    # text past the limit; JSON past the limit, and past what the json
    # module itself can nest
    for text in (_unit_chain_text(3000), _unit_chain_json(MAX_DEPTH + 1),
                 _unit_chain_json(3000)):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["normalize", "--kind", "w", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
