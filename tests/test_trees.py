import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc.bconstruction import BNode
from opcalc.trees import (
    DomainError,
    InjectiveMap,
    block_injection,
    drop_block,
    keep_leaves,
    leaf_word,
    map_leaves,
)
from opcalc.wconstruction import WEdge, WNode, WPoint, w_compose, w_lambda, wpoint

from formal import FormalOperad


def _injections(m, n):
    """Every injection [m] -> [n], in lexicographic order of the values."""
    return [InjectiveMap(m, n, values) for values in itertools.permutations(range(1, n + 1), m)]


def _is_order_preserving(u):
    return list(u.values) == sorted(u.values)


# ---------------------------------------------------------------- strategies

@st.composite
def shapes(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return "leaf"
    width = draw(st.integers(1, 3))
    return tuple(draw(shapes(depth=depth - 1)) for _ in range(width))


# A numbered tree is a leaf number or a tuple of the vertex's children.

def _build(shape, counter):
    if shape == "leaf":
        counter[0] += 1
        return counter[0]
    return tuple(_build(s, counter) for s in shape)


def _renumbered(node, perm):
    if isinstance(node, int):
        return perm[node - 1]
    return tuple(_renumbered(c, perm) for c in node)


def _vertex_count(node):
    return 0 if isinstance(node, int) else 1 + sum(_vertex_count(c) for c in node)


@st.composite
def numbered_trees(draw, depth=3):
    counter = [0]
    root = _build(draw(shapes(depth=depth)), counter)
    perm = draw(st.permutations(list(range(1, counter[0] + 1))))
    return _renumbered(root, perm)


@st.composite
def injections(draw, n):
    m = draw(st.integers(1, n))
    values = draw(st.permutations(sorted(draw(
        st.sets(st.integers(1, n), min_size=m, max_size=m)))))
    return InjectiveMap(m, n, tuple(values))


# Trees are grafted and pruned as the shapes of W points. Over the free
# operad, with every vertex a distinct generator and every inner edge of
# length 1/2, normalization contracts nothing, so the shape is the tree's.
# Its restriction tags the atoms it cuts (it is not a lawful Lambda-
# structure), so leaf deletion is compared on shapes.
FREE = FormalOperad()


def _w_of(t) -> WPoint:
    names = itertools.count()

    def entry(node):
        if isinstance(node, int):
            return node
        label = FREE.atom(f"v{next(names)}", len(node))
        return WNode(label, tuple(
            c if isinstance(c, int) else WEdge(Fraction(1, 2), entry(c)) for c in node))

    return wpoint(FREE, entry(t))


def _shape(entry):
    """The numbered tree of a W point or entry, forgetting labels and edge
    lengths (an edge's children are the vertex's above it)."""
    if isinstance(entry, WPoint):
        return _shape(entry.root)
    if isinstance(entry, int):
        return entry
    return tuple(_shape(c) for c in entry.children)


# -------------------------------------------------------------------- graft

def _oracle_graft_word(host_word, i, guest_word):
    """Independent model: block substitution on leaf words."""
    m = len(guest_word)
    out = []
    for entry in host_word:
        if entry == i:
            out.extend(i + g - 1 for g in guest_word)
        elif entry < i:
            out.append(entry)
        else:
            out.append(entry + m - 1)
    return tuple(out)


@settings(max_examples=150)
@given(numbered_trees(), numbered_trees(), st.data())
def test_graft_matches_leafword_oracle(tx, ty, data):
    x, y = _w_of(tx), _w_of(ty)
    assert _shape(x) == tx
    i = data.draw(st.integers(1, x.arity))
    out = w_compose(x, i, y)
    assert out.leaf_word == _oracle_graft_word(x.leaf_word, i, y.leaf_word)
    assert _vertex_count(_shape(out)) == _vertex_count(tx) + _vertex_count(ty)


@settings(max_examples=100)
@given(numbered_trees(depth=2), numbered_trees(depth=2), numbered_trees(depth=2), st.data())
def test_graft_associativity(tx, ty, tz, data):
    x, y, z = _w_of(tx), _w_of(ty), _w_of(tz)
    i = data.draw(st.integers(1, x.arity))
    j = data.draw(st.integers(1, y.arity))
    nested_a = w_compose(w_compose(x, i, y), i + j - 1, z)
    nested_b = w_compose(x, i, w_compose(y, j, z))
    assert nested_a == nested_b


@settings(max_examples=100)
@given(numbered_trees(depth=2), numbered_trees(depth=2), numbered_trees(depth=2), st.data())
def test_graft_disjoint_slots_commute(tx, ty, tz, data):
    x, y, z = _w_of(tx), _w_of(ty), _w_of(tz)
    if x.arity < 2:
        return
    i = data.draw(st.integers(1, x.arity - 1))
    k = data.draw(st.integers(i + 1, x.arity))
    m = y.arity
    left = w_compose(w_compose(x, k, z), i, y)
    right = w_compose(w_compose(x, i, y), k + m - 1, z)
    assert left == right


# ------------------------------------------------------------ leaf deletion

def test_delete_leaves_identity():
    t = (2, (3, 1))
    a = _w_of(t)
    out = w_lambda(InjectiveMap.identity(3), a)
    assert out == a
    assert _shape(out) == t


@settings(max_examples=80)
@given(numbered_trees(), st.data())
def test_delete_leaves_functorial(t, data):
    a = _w_of(t)
    u = data.draw(injections(a.arity))
    v = data.draw(injections(u.m))
    restricted = w_lambda(u.after(v), a)
    assert _shape(restricted) == _shape(w_lambda(v, w_lambda(u, a)))
    assert restricted.arity == v.m


# --------------------------------------------------------------- injections

def test_injection_validation():
    with pytest.raises(DomainError):
        InjectiveMap(2, 3, (1, 1))
    with pytest.raises(DomainError):
        InjectiveMap(2, 3, (0, 2))
    with pytest.raises(DomainError):
        InjectiveMap(2, 3, (1, 4))
    with pytest.raises(DomainError):
        InjectiveMap(2, 3, (1,))


def test_trusted_maps_equal_checked_ones():
    # the permutations fold, keep_leaves and the twist hooks build skip the
    # checks; each must equal what the public constructor accepts
    sigma = InjectiveMap(4, 4, (3, 1, 4, 2))
    assert InjectiveMap._trusted(4, 4, (3, 1, 4, 2)) == sigma
    assert sigma.inverse() == InjectiveMap(4, 4, (2, 4, 1, 3))
    assert sigma.inverse().after(sigma) == InjectiveMap.identity(4)
    with pytest.raises(DomainError, match="not an injection"):
        InjectiveMap(3, 3, (1, 2, 2))
    with pytest.raises(DomainError, match="not an injection"):
        InjectiveMap(2, 3, (3, 4))


def test_injection_rejects_booleans():
    with pytest.raises(DomainError):
        InjectiveMap(1, 1, (True,))
    with pytest.raises(DomainError):
        InjectiveMap(2, 2, (2, True))


def test_enumerations_are_frozen():
    assert [u.values for u in InjectiveMap.all_order_preserving(2, 3)] == [
        (1, 2), (1, 3), (2, 3)]


def test_composition_associative_exhaustive():
    maps_a = _injections(1, 2)
    maps_b = _injections(2, 3)
    maps_c = _injections(3, 4)
    for a, b, c in itertools.product(maps_a, maps_b, maps_c):
        assert c.after(b.after(a)) == c.after(b).after(a)


def test_inverse_and_identity():
    sigma = InjectiveMap(3, 3, (2, 3, 1))
    assert sigma.after(sigma.inverse()) == InjectiveMap.identity(3)
    assert sigma.inverse().after(sigma) == InjectiveMap.identity(3)
    with pytest.raises(DomainError):
        InjectiveMap(1, 2, (2,)).inverse()


def test_block_injection_identity_case():
    for n in range(1, 4):
        for m in range(1, 4):
            for i in range(1, n + 1):
                out = block_injection(InjectiveMap.identity(n), i, InjectiveMap.identity(m))
                assert out == InjectiveMap.identity(n + m - 1)


def test_block_injection_fixture():
    u = InjectiveMap(2, 3, (3, 1))
    v = InjectiveMap(1, 2, (2,))
    out = block_injection(u, 1, v)
    assert out == InjectiveMap(2, 4, (4, 1))


def test_block_injection_preserves_order_preserving():
    for u in InjectiveMap.all_order_preserving(2, 4):
        for v in InjectiveMap.all_order_preserving(2, 3):
            for i in (1, 2):
                assert _is_order_preserving(block_injection(u, i, v))


def test_drop_block():
    w = InjectiveMap(2, 5, (1, 5))
    assert drop_block(w, 2, 3) == InjectiveMap(2, 3, (1, 3))
    with pytest.raises(DomainError):
        drop_block(InjectiveMap(2, 5, (1, 3)), 2, 3)


# ------------------------------------------------ the shared W and B walks
#
# The same tree, x(l3, y(l1, l4), l2), as a W tree, as the inner edge onto
# it, and as a B tree; the walks see only labels and children.

HALF = Fraction(1, 2)


def _w_tree(y=("y", (1, 4)), leaves=(3, 2)):
    return WNode("x", (leaves[0], WEdge(HALF, WNode(*y)), leaves[1]))


def _b_tree(y=("y", (1, 4)), leaves=(3, 2)):
    return BNode("x", Fraction(0), (leaves[0], BNode(y[0], HALF, y[1]), leaves[1]))


def _edge_tree(y=("y", (1, 4)), leaves=(3, 2)):
    return WEdge(Fraction(1, 3), _w_tree(y, leaves))


WALKED = [_w_tree, _edge_tree, _b_tree]


def _slots_kept(u, label):
    """A restriction that records the slots it keeps."""
    return (label, u.values)


@pytest.mark.parametrize("tree", WALKED, ids=lambda f: f.__name__)
def test_leaf_word_is_the_planar_order(tree):
    assert leaf_word(tree()) == (3, 1, 4, 2)
    assert leaf_word(5) == (5,)


@pytest.mark.parametrize("tree", WALKED, ids=lambda f: f.__name__)
def test_map_leaves_renumbers(tree):
    renumber = {3: 1, 1: 2, 4: 3, 2: 4}
    assert map_leaves(tree(), renumber.__getitem__) == tree(("y", (2, 3)), (1, 4))


@pytest.mark.parametrize("tree, guest", [
    (_w_tree, WEdge(Fraction(1), WNode("z", (4, 5)))),
    (_edge_tree, WEdge(Fraction(1), WNode("z", (4, 5)))),
    (_b_tree, BNode("z", Fraction(1), (4, 5))),
], ids=["w", "edge", "b"])
def test_map_leaves_grafts_a_subtree(tree, guest):
    grafted = map_leaves(tree(), lambda k: guest if k == 4 else k)
    assert grafted == tree(("y", (1, guest)))
    assert leaf_word(grafted) == (3, 1, 4, 5, 2)


@pytest.mark.parametrize("tree", WALKED, ids=lambda f: f.__name__)
def test_keep_leaves_is_none_when_no_leaf_is_kept(tree):
    assert keep_leaves(tree(), {}, _slots_kept) is None
    assert keep_leaves(tree(), {7: 1}, _slots_kept) is None


def test_keep_leaves_restricts_along_the_kept_slots_and_keeps_decorations():
    renumber = {1: 1, 2: 2}   # leaf 1 under y, leaf 2 in x's third slot
    x = ("x", (2, 3))         # x keeps its slots 2 and 3
    y = ("y", (1,))           # y keeps its slot 1, over leaf 1
    assert keep_leaves(_w_tree(), renumber, _slots_kept) == WNode(
        x, (WEdge(HALF, WNode(y, (1,))), 2))
    assert keep_leaves(_edge_tree(), renumber, _slots_kept) == WEdge(
        Fraction(1, 3), WNode(x, (WEdge(HALF, WNode(y, (1,))), 2)))
    assert keep_leaves(_b_tree(), renumber, _slots_kept) == BNode(
        x, Fraction(0), (BNode(y, HALF, (1,)), 2))
    # a vertex that keeps every slot keeps its label object
    tree = _w_tree()
    assert keep_leaves(tree, {3: 1, 1: 2, 4: 3, 2: 4}, _slots_kept).label is tree.label


@pytest.mark.parametrize("tree", WALKED, ids=lambda f: f.__name__)
def test_keep_leaves_restricts_only_the_vertices_that_lose_a_slot(tree):
    restricted = []

    def counting(u, label):
        restricted.append(label)
        return _slots_kept(u, label)

    keep_leaves(tree(), {3: 1, 1: 2, 4: 3, 2: 4}, counting)
    assert restricted == []
    keep_leaves(tree(), {3: 1, 2: 2, 4: 3}, counting)   # y loses its slot 1
    assert restricted == ["y"]
    keep_leaves(tree(), {1: 1, 4: 2}, counting)   # x loses its slots 1 and 3
    assert restricted == ["y", "x"]


def test_an_edge_reads_label_and_children_through_its_node():
    edge = _edge_tree()
    assert edge.label == edge.node.label == "x"
    assert edge.children is edge.node.children
    assert WEdge._fields == ("length", "node")


def test_rebuilt_keeps_the_length_or_the_height():
    assert WNode("y", (1,)).rebuilt("z", (2,)) == WNode("z", (2,))
    assert WEdge(HALF, WNode("y", (1,))).rebuilt("z", (2,)) == WEdge(HALF, WNode("z", (2,)))
    assert BNode("y", HALF, (1,)).rebuilt("z", (2,)) == BNode("z", HALF, (2,))
