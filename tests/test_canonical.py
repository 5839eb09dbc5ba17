"""The sorting shortcut for least vertex twists against the k! search.

Every operad with a `canonical_twist` hook must give, vertex by vertex,
the normal form that trying all twists gives, byte for byte. Operads
without the hook must still take the search. Height-tree vertices sort
their children by text, checked against trying all twists there too.
"""

import itertools
import random

import pytest

import opcalc.wconstruction as wc
from opcalc.bconstruction import BNode, _canonical_b, _reduce_b, b_entry_text
from opcalc.operads import (
    Associative,
    LittleDiscs,
    LittleIntervals,
    _sorting_twist,
    framed_intervals,
)
from opcalc.oracles import _canonical_node_search
from opcalc.sampling import random_permutation, random_raw_bnode, random_raw_wnode
from opcalc.trees import InjectiveMap
from opcalc.wconstruction import (
    WNode,
    WOperad,
    _canonical_node,
    _validate_raw,
    entry_text,
    w_corolla,
    w_lambda,
    wpoint,
)

from formal import FormalOperad

HOOKED = {
    "d1": LittleIntervals(),
    "d2": LittleDiscs(2),
    "d1_z2": framed_intervals(),
    "assoc": Associative(),
}
# seeded samples per arity; the search costs k! label formats per vertex
SAMPLES = {1: 4, 2: 8, 3: 8, 4: 8, 5: 6, 6: 3, 7: 1}


def _texts_of_twists(op, x):
    k = op.arity_of(x)
    return {values: op.format_element(op.restrict(InjectiveMap(k, k, values), x))
            for values in itertools.permutations(range(1, k + 1))}


@pytest.mark.parametrize("name", sorted(HOOKED))
@pytest.mark.parametrize("k", sorted(SAMPLES))
def test_hook_names_the_strictly_least_twist(name, k):
    op = HOOKED[name]
    rng = random.Random(f"least-{name}-{k}")
    for _ in range(SAMPLES[k]):
        x = op.sample(rng, k)
        sigma = op.canonical_twist(x)
        assert sigma is not None and sigma.m == sigma.n == k
        texts = _texts_of_twists(op, x)
        least = texts[sigma.values]
        assert all(text > least for values, text in texts.items() if values != sigma.values)


@pytest.mark.parametrize("name", sorted(HOOKED))
@pytest.mark.parametrize("k", sorted(SAMPLES))
def test_hooked_canonical_node_matches_the_search(name, k):
    op = HOOKED[name]
    rng = random.Random(f"node-{name}-{k}")
    for sample in range(SAMPLES[k]):
        # corollas reach arity k at the root; deeper trees mix smaller vertices
        depth = 0 if sample % 2 == 0 else rng.randint(1, 2)
        node = _validate_raw(op, random_raw_wnode(rng, op, k, depth))
        fast, hooked = _canonical_node(op, node)
        slow = _canonical_node_search(op, node)
        assert entry_text(op, fast) == entry_text(op, slow)
        assert fast == slow
        assert hooked


@pytest.mark.parametrize("k", [10, 11, 12, 13])
def test_associative_hook_orders_letters_as_text(k):
    # "word(1 10 11 ... 2 3 ...)": letters past 9 make string order differ
    # from numeric order, and k! is out of reach, so the least twist is
    # checked against every transposition of it and against random twists
    op = Associative()
    rng = random.Random(f"assoc-{k}")
    for _ in range(3):
        x = op.sample(rng, k)
        sigma = op.canonical_twist(x)
        least = op.format_element(op.restrict(sigma, x))
        assert least == "word(" + " ".join(sorted(map(str, range(1, k + 1)))) + ")"
        others = [InjectiveMap(k, k, tuple(values)) for values in _transposed(sigma.values)]
        others += [random_permutation(rng, k) for _ in range(200)]
        for tau in others:
            if tau.values != sigma.values:
                assert op.format_element(op.restrict(tau, x)) > least


def _transposed(values):
    for i, j in itertools.combinations(range(len(values)), 2):
        swapped = list(values)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield swapped


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_wide_corollas_are_twist_invariant(name):
    # arity 12 is far past what the search could do
    op = HOOKED[name]
    rng = random.Random(f"wide-{name}")
    x = op.sample(rng, 12)
    sigma = random_permutation(rng, 12)
    twisted = WNode(op.restrict(sigma, x), sigma.values)
    assert wpoint(op, twisted) == w_corolla(op, x)


def test_sorting_twist_refuses_equal_tokens():
    assert _sorting_twist(["[0/1,1/2]", "[0/1,1/2]"]) is None
    assert _sorting_twist(["b", "a", "c"]).values == (2, 1, 3)


def test_unhooked_operads_keep_the_search():
    assert FormalOperad().canonical_twist(FormalOperad().atom("p", 2)) is None
    w = WOperad(LittleIntervals())
    assert w.canonical_twist(w.sample(random.Random(0), 2)) is None


def test_resolution_labels_fall_back_to_the_search(monkeypatch):
    # vertices labelled by points of W(d1): the hook says None, so every
    # vertex of arity at least 2 goes through the search
    op = WOperad(LittleIntervals())
    searched = []
    search = wc._least_twist

    def counting(op_, label, entries):
        searched.append(len(entries))
        return search(op_, label, entries)

    monkeypatch.setattr(wc, "_least_twist", counting)
    rng = random.Random(1811)
    for n in (2, 3, 3, 4, 4):
        node = _validate_raw(op, random_raw_wnode(rng, op, n, depth=rng.randint(0, 1)))
        searched.clear()
        fast, hooked = _canonical_node(op, node)
        wide = sum(1 for v in _vertices(node) if len(v.children) > 1)
        assert len(searched) == wide
        assert hooked == (wide == 0)
        assert entry_text(op, fast) == entry_text(op, _canonical_node_search(op, node))


def _vertices(node: WNode):
    yield node
    for child in node.children:
        if not isinstance(child, int):
            yield from _vertices(child.node)


@pytest.mark.parametrize("name", ["d1", "assoc"])
def test_height_tree_texts_are_built_once_and_agree(name):
    op = HOOKED[name]
    rng = random.Random(f"b-{name}")
    for n in (1, 2, 3, 4, 4):
        node = random_raw_bnode(rng, op, n, depth=rng.randint(0, 2))
        if isinstance(node, int):
            continue
        canonical, text = _canonical_b(op, node)
        assert text == b_entry_text(op, canonical)


def _canonical_b_search(op, node):
    """Every vertex at its least twist by (children's texts, label text),
    trying all k! twists: the oracle for the sort in `_canonical_b`."""
    if isinstance(node, int):
        return node, f"l{node}"
    subs = [_canonical_b_search(op, child) for child in node.children]
    k = len(subs)
    best = None
    for values in itertools.permutations(range(1, k + 1)):
        label = w_lambda(InjectiveMap(k, k, values), node.label)
        key = (tuple(subs[v - 1][1] for v in values), label.text)
        if best is None or key < best[0]:
            best = key, BNode(label, node.height, tuple(subs[v - 1][0] for v in values))
    return best[1], b_entry_text(op, best[1])


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_height_tree_sort_matches_the_search(name):
    # children own disjoint leaves, so their texts never tie and sorting
    # them leaves nothing for the label text to decide
    op = HOOKED[name]
    rng = random.Random(f"b-search-{name}")
    for n in (1, 2, 3, 3, 4, 4, 5, 5):
        node = _reduce_b(op, random_raw_bnode(rng, op, n, depth=rng.randint(0, 2)))
        if isinstance(node, int):
            continue
        canonical, text = _canonical_b(op, node)
        slow, slow_text = _canonical_b_search(op, node)
        assert text == slow_text and canonical == slow
        for vertex in _b_vertices(canonical):
            texts = [b_entry_text(op, child) for child in vertex.children]
            assert texts == sorted(set(texts))


def _b_vertices(node):
    yield node
    for child in node.children:
        if not isinstance(child, int):
            yield from _b_vertices(child)
