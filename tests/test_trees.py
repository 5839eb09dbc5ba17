import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc.trees import (
    DeletionEntry,
    DomainError,
    InjectiveMap,
    Leaf,
    Tree,
    Vertex,
    block_injection,
    corolla,
    delete_leaves,
    drop_block,
    graft,
    renumber_leaves,
    tree_text,
    trivial_tree,
)


# ---------------------------------------------------------------- strategies

@st.composite
def shapes(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return "leaf"
    width = draw(st.integers(1, 3))
    return tuple(draw(shapes(depth=depth - 1)) for _ in range(width))


def _build(shape, counter):
    if shape == "leaf":
        counter[0] += 1
        return Leaf(counter[0])
    return Vertex(tuple(_build(s, counter) for s in shape))


@st.composite
def numbered_trees(draw, depth=3):
    counter = [0]
    root = _build(draw(shapes(depth=depth)), counter)
    n = counter[0]
    perm = draw(st.permutations(list(range(1, n + 1))))
    return renumber_leaves(Tree(root), {k: perm[k - 1] for k in range(1, n + 1)})


# ------------------------------------------------------------- construction

def test_tree_rejects_bad_numbering():
    with pytest.raises(DomainError):
        Tree(Vertex((Leaf(1), Leaf(3))))
    with pytest.raises(DomainError):
        Tree(Vertex((Leaf(1), Leaf(1))))
    with pytest.raises(DomainError):
        Leaf(0)
    with pytest.raises(DomainError):
        Vertex(())


def test_corolla_and_trivial():
    assert trivial_tree().is_trivial
    assert trivial_tree().arity == 1
    c = corolla(3)
    assert c.arity == 3
    assert c.leaf_word == (1, 2, 3)
    assert c.vertex_ids() == ((),)
    assert tree_text(c) == "(1 2 3)"
    with pytest.raises(DomainError):
        corolla(0)


def test_node_at_and_vertex_ids():
    t = Tree(Vertex((Vertex((Leaf(2), Leaf(1))), Leaf(3))))
    assert t.vertex_ids() == ((), (0,))
    assert t.node_at((0, 1)) == Leaf(1)
    with pytest.raises(DomainError):
        t.node_at((1, 0))


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


def test_graft_small_fixture():
    host = Tree(Vertex((Leaf(2), Leaf(1), Leaf(3))))
    guest = Tree(Vertex((Leaf(1), Leaf(2))))
    out = graft(host, 2, guest)
    assert out == Tree(Vertex((Vertex((Leaf(2), Leaf(3))), Leaf(1), Leaf(4))))
    assert out.leaf_word == (2, 3, 1, 4)


def test_graft_units():
    t = Tree(Vertex((Leaf(2), Vertex((Leaf(1), Leaf(3))))))
    assert graft(trivial_tree(), 1, t) == t
    for i in range(1, t.arity + 1):
        assert graft(t, i, trivial_tree()) == t


@settings(max_examples=150)
@given(numbered_trees(), numbered_trees(), st.data())
def test_graft_matches_leafword_oracle(x, y, data):
    i = data.draw(st.integers(1, x.arity))
    out = graft(x, i, y)
    assert out.leaf_word == _oracle_graft_word(x.leaf_word, i, y.leaf_word)
    assert len(out.vertex_ids()) == len(x.vertex_ids()) + len(y.vertex_ids())


@settings(max_examples=100)
@given(numbered_trees(depth=2), numbered_trees(depth=2), numbered_trees(depth=2), st.data())
def test_graft_associativity(x, y, z, data):
    i = data.draw(st.integers(1, x.arity))
    j = data.draw(st.integers(1, y.arity))
    nested_a = graft(graft(x, i, y), i + j - 1, z)
    nested_b = graft(x, i, graft(y, j, z))
    assert nested_a == nested_b


@settings(max_examples=100)
@given(numbered_trees(depth=2), numbered_trees(depth=2), numbered_trees(depth=2), st.data())
def test_graft_disjoint_slots_commute(x, y, z, data):
    if x.arity < 2:
        return
    i = data.draw(st.integers(1, x.arity - 1))
    k = data.draw(st.integers(i + 1, x.arity))
    m = y.arity
    left = graft(graft(x, k, z), i, y)
    right = graft(graft(x, i, y), k + m - 1, z)
    assert left == right


# ------------------------------------------------------------ leaf deletion

def test_delete_leaves_cascade_fixture():
    # root
    #  |- A
    #  |   |- leaf 1
    #  |   |- B
    #  |       |- leaf 2
    #  |- leaf 3
    b = Vertex((Leaf(2),))
    a = Vertex((Leaf(1), b))
    t = Tree(Vertex((a, Leaf(3))))
    u = InjectiveMap(2, 3, (1, 3))
    out, ledger = delete_leaves(t, u)
    assert out == Tree(Vertex((Vertex((Leaf(1),)), Leaf(2))))
    assert dict(ledger.kept) == {
        (): DeletionEntry((1, 2), 2),
        (0,): DeletionEntry((1,), 2),
    }
    assert ledger.removed == frozenset({(0, 1)})


def test_delete_leaves_identity():
    t = Tree(Vertex((Leaf(2), Vertex((Leaf(3), Leaf(1))))))
    out, ledger = delete_leaves(t, InjectiveMap.identity(3))
    assert out == t
    assert ledger.removed == frozenset()


def test_delete_leaves_rejects_empty_image():
    with pytest.raises(DomainError):
        delete_leaves(corolla(2), InjectiveMap(0, 2, ()))


@settings(max_examples=120)
@given(numbered_trees(), st.data())
def test_delete_leaves_invariants(t, data):
    n = t.arity
    m = data.draw(st.integers(1, n))
    values = tuple(data.draw(st.permutations(sorted(data.draw(
        st.sets(st.integers(1, n), min_size=m, max_size=m))))))
    u = InjectiveMap(m, n, values)
    out, ledger = delete_leaves(t, u)
    assert out.arity == m
    # surviving and removed vertices partition the original vertex set
    assert set(ledger.kept) | set(ledger.removed) == set(t.vertex_ids())
    assert not set(ledger.kept) & set(ledger.removed)
    for path, entry in ledger.kept.items():
        node = t.node_at(path)
        assert isinstance(node, Vertex)
        assert entry.original_arity == node.arity
        assert all(1 <= s <= node.arity for s in entry.kept_slots)
        assert list(entry.kept_slots) == sorted(entry.kept_slots)


@settings(max_examples=80)
@given(numbered_trees(), st.data())
def test_delete_leaves_functorial(t, data):
    n = t.arity
    m = data.draw(st.integers(1, n))
    u_values = tuple(data.draw(st.permutations(sorted(data.draw(
        st.sets(st.integers(1, n), min_size=m, max_size=m))))))
    u = InjectiveMap(m, n, u_values)
    k = data.draw(st.integers(1, m))
    v_values = tuple(data.draw(st.permutations(sorted(data.draw(
        st.sets(st.integers(1, m), min_size=k, max_size=k))))))
    v = InjectiveMap(k, m, v_values)
    one_step, _ = delete_leaves(t, u.after(v))
    first, _ = delete_leaves(t, u)
    two_step, _ = delete_leaves(first, v)
    assert one_step == two_step


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


def test_injection_rejects_booleans():
    with pytest.raises(DomainError):
        InjectiveMap(1, 1, (True,))
    with pytest.raises(DomainError):
        InjectiveMap(2, 2, (2, True))


def test_enumerations_are_frozen():
    assert [u.values for u in InjectiveMap.all_maps(1, 2)] == [(1,), (2,)]
    assert [u.values for u in InjectiveMap.all_maps(2, 3)] == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    assert [u.values for u in InjectiveMap.all_order_preserving(2, 3)] == [
        (1, 2), (1, 3), (2, 3)]
    assert InjectiveMap.count_order_preserving(2, 3) == 3


@pytest.mark.parametrize("m,n", [(0, 0), (0, 2), (1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_factorizations_exhaustive(m, n):
    for u in InjectiveMap.all_maps(m, n):
        w, sigma = u.factor()
        assert w.is_order_preserving
        assert sigma.is_permutation
        assert w.after(sigma) == u
        tau = u.padded_permutation()
        assert tau.is_permutation
        assert tau.after(InjectiveMap.inclusion(m, n)) == u


def test_composition_associative_exhaustive():
    maps_a = list(InjectiveMap.all_maps(1, 2))
    maps_b = list(InjectiveMap.all_maps(2, 3))
    maps_c = list(InjectiveMap.all_maps(3, 4))
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
                assert block_injection(u, i, v).is_order_preserving


def test_drop_block():
    w = InjectiveMap(2, 5, (1, 5))
    assert drop_block(w, 2, 3) == InjectiveMap(2, 3, (1, 3))
    with pytest.raises(DomainError):
        drop_block(InjectiveMap(2, 5, (1, 3)), 2, 3)
