"""Every operad's `canonical_twist` against the k! search.

The hook must name the strictly least twist and return its text, and give,
vertex by vertex, the normal form that trying all twists gives, byte for
byte: for the base operads, for the resolution over them and over itself,
and for the tests' recording operad. The normalizer's one pass, which
twists each vertex before contracting it into its parent, must give the
normal form of the two-pass reference, reduce first and twist after.
Height-tree vertices sort their children by text, checked against trying
all twists there too.
"""

import itertools
import random

import pytest

import opcalc.oracles as oracles
import opcalc.bconstruction as bconstruction
from opcalc.bconstruction import BNode, _normal_b, _reduce_b, _vertex_count, b_entry_text
from opcalc.operads import (
    Associative,
    LittleDiscs,
    LittleIntervals,
    _sorting_twist,
    framed_intervals,
)
from opcalc.oracles import _canonical_node, _canonical_node_search, _least_twist
from opcalc.sampling import random_permutation, random_raw_bnode, random_raw_wnode
from opcalc.trees import DomainError, InjectiveMap
from opcalc.wconstruction import (
    WNode,
    WOperad,
    _validate_raw,
    entry_text,
    w_compose,
    w_corolla,
    w_lambda,
    wpoint,
)

from formal import FormalOperad

BASES = {
    "d1": LittleIntervals(),
    "d2": LittleDiscs(2),
    "d1_z2": framed_intervals(),
    "assoc": Associative(),
}
# labels whose twists only renumber leaves
WORDS = {
    "w(d1)": WOperad(LittleIntervals()),
    "w(w(d1))": WOperad(WOperad(LittleIntervals())),
    "formal": FormalOperad(),
}
EVERY = {**BASES, **WORDS}
# seeded samples per arity; the search costs k! label formats per vertex
SAMPLES = {1: 4, 2: 8, 3: 8, 4: 8, 5: 6, 6: 3, 7: 1}


def _texts_of_twists(op, x):
    k = op.arity_of(x)
    return {values: op.format_element(op.restrict(InjectiveMap(k, k, values), x))
            for values in itertools.permutations(range(1, k + 1))}


@pytest.mark.parametrize("name", sorted(EVERY))
@pytest.mark.parametrize("k", sorted(SAMPLES))
def test_hook_names_the_strictly_least_twist(name, k):
    op = EVERY[name]
    rng = random.Random(f"least-{name}-{k}")
    for _ in range(SAMPLES[k]):
        x = op.sample(rng, k)
        sigma, text = op.canonical_twist(x)
        assert sigma.m == sigma.n == k
        texts = _texts_of_twists(op, x)
        least = texts[sigma.values]
        assert text == least
        assert all(text > least for values, text in texts.items() if values != sigma.values)


@pytest.mark.parametrize("name", sorted(EVERY))
@pytest.mark.parametrize("k", sorted(SAMPLES))
def test_hooked_canonical_node_matches_the_search(name, k):
    op = EVERY[name]
    rng = random.Random(f"node-{name}-{k}")
    for sample in range(SAMPLES[k]):
        # corollas reach arity k at the root; deeper trees mix smaller vertices
        depth = 0 if sample % 2 == 0 else rng.randint(1, 2)
        node = _validate_raw(op, random_raw_wnode(rng, op, k, depth))
        fast = _canonical_node(op, node)
        slow = _canonical_node_search(op, node)
        assert entry_text(op, fast) == entry_text(op, slow)
        assert fast == slow


def _reduced_in_order(op, root):
    """root reduced by the random-order oracle's steps, always the first
    that applies, with no vertex twisted; and the number of steps taken."""
    taken = 0
    while not isinstance(root, int):
        steps = oracles._applicable_steps(op, root)
        if not steps:
            break
        root = oracles._apply_step(op, root, steps[0])
        taken += 1
    return root, taken


@pytest.mark.parametrize("name", sorted(EVERY))
def test_one_pass_equals_reduce_then_canonicalize(name):
    op = EVERY[name]
    rng = random.Random(f"one-pass-{name}")
    reduced_any = 0
    for _ in range(40):
        raw = _validate_raw(op, random_raw_wnode(rng, op, rng.randint(1, 5)))
        reduced, taken = _reduced_in_order(op, raw)
        two_pass = reduced if isinstance(reduced, int) else _canonical_node(op, reduced)
        assert wpoint(op, raw).root == two_pass
        reduced_any += taken > 0
    assert reduced_any >= 10


@pytest.mark.parametrize("k", [10, 11, 12, 13])
def test_associative_hook_orders_letters_as_text(k):
    # "word(1 10 11 ... 2 3 ...)": letters past 9 make string order differ
    # from numeric order, and k! is out of reach, so the least twist is
    # checked against every transposition of it and against random twists
    op = Associative()
    rng = random.Random(f"assoc-{k}")
    for _ in range(3):
        x = op.sample(rng, k)
        sigma, least = op.canonical_twist(x)
        assert least == op.format_element(op.restrict(sigma, x))
        assert least == "word(" + " ".join(sorted(map(str, range(1, k + 1)))) + ")"
        others = [InjectiveMap(k, k, tuple(values)) for values in _transposed(sigma.values)]
        others += [random_permutation(rng, k) for _ in range(200)]
        for tau in others:
            if tau.values != sigma.values:
                assert op.format_element(op.restrict(tau, x)) > least


@pytest.mark.parametrize("name", sorted(WORDS))
def test_leaf_word_hooks_order_leaves_as_text(name):
    # "l1 l10 l11 ... l2 ...": past 9 leaves string order differs from
    # numeric order, and k! is out of reach, so the least twist is checked
    # against every transposition of it and against random twists
    op, k = WORDS[name], 11
    rng = random.Random(f"words-{name}")
    x = op.sample(rng, k)
    sigma, least = op.canonical_twist(x)
    assert least == op.format_element(op.restrict(sigma, x))
    others = [InjectiveMap(k, k, tuple(values)) for values in _transposed(sigma.values)]
    others += [random_permutation(rng, k) for _ in range(100)]
    for tau in others:
        if tau.values != sigma.values:
            assert op.format_element(op.restrict(tau, x)) > least


def _transposed(values):
    for i, j in itertools.combinations(range(len(values)), 2):
        swapped = list(values)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield swapped


@pytest.mark.parametrize("name", sorted(EVERY))
def test_wide_corollas_are_twist_invariant(name):
    # arity 12 is far past what the search could do
    op = EVERY[name]
    rng = random.Random(f"wide-{name}")
    x = op.sample(rng, 12)
    sigma = random_permutation(rng, 12)
    twisted = WNode(op.restrict(sigma, x), sigma.values)
    assert wpoint(op, twisted) == w_corolla(op, x)


def test_sorting_twist_refuses_equal_tokens():
    # two equal tokens are two equal entries, which overlap
    half = LittleIntervals().parse_element("<[0/1,1/2]>")
    with pytest.raises(DomainError, match="overlap"):
        LittleIntervals().validate(half + half)
    ball = LittleDiscs(2).parse_element("<ball((0/1,0/1);1/2)>")
    with pytest.raises(DomainError, match="overlap"):
        LittleDiscs(2).validate(ball + ball)
    sigma, body = _sorting_twist(["b", "a", "c"])
    assert sigma.values == (2, 1, 3) and body == "a b c"


def test_unhooked_operads_keep_the_search():
    # the recording operad and the resolution once left every vertex to
    # the search; their hooks now name the twist the search finds
    for name in ("formal", "w(d1)"):
        op = WORDS[name]
        rng = random.Random(f"unhooked-{name}")
        for k in (2, 2, 3, 3, 4):
            x = op.sample(rng, k)
            sigma, _ = op.canonical_twist(x)
            leaves = tuple(range(1, k + 1))
            hooked = WNode(op.restrict(sigma, x), sigma.values)
            assert hooked == _least_twist(op, x, leaves)


def test_resolution_labels_fall_back_to_the_search(monkeypatch):
    # vertices labelled by points of W(d1): the normal form takes no
    # search, and the search, run vertex by vertex, finds the same form
    op = WOperad(LittleIntervals())
    searched = []
    search = oracles._least_twist

    def counting(op_, label, entries):
        searched.append(len(entries))
        return search(op_, label, entries)

    monkeypatch.setattr(oracles, "_least_twist", counting)
    rng = random.Random(1811)
    for n in (2, 3, 3, 4, 4):
        node = _validate_raw(op, random_raw_wnode(rng, op, n, depth=rng.randint(0, 1)))
        searched.clear()
        fast = _canonical_node(op, node)
        assert searched == []
        slow = _canonical_node_search(op, node)
        wide = sum(1 for v in _vertices(node) if len(v.children) > 1)
        assert len(searched) == wide
        assert entry_text(op, fast) == entry_text(op, slow)
        assert fast == slow


def _vertices(node: WNode):
    yield node
    for child in node.children:
        if not isinstance(child, int):
            yield from _vertices(child.node)


def _reduced_and_searched(op, rng, n):
    """A seeded raw tree with n leaves, and its normal form and text by the
    reference: the oracle's random-order steps, then the k! search."""
    raw = random_raw_bnode(rng, op, n, depth=rng.randint(0, 2))
    return raw, _canonical_b_search(oracles._b_random_steps(rng, raw))


@pytest.mark.parametrize("name", sorted(BASES))
def test_height_tree_texts_are_built_once_and_agree(name):
    op = BASES[name]
    rng = random.Random(f"b-{name}")
    for n in (1, 2, 3, 4, 4):
        raw, (slow, slow_text) = _reduced_and_searched(op, rng, n)
        node, text = _reduce_b(raw)
        assert text == b_entry_text(node) == slow_text
        point = _normal_b(op, raw)
        assert point.text == slow_text and point.root == slow


def _canonical_b_search(node):
    """Every vertex at its least twist by (children's texts, label text),
    trying all k! twists: the oracle for the sort in `_reduce_b`."""
    if isinstance(node, int):
        return node, f"l{node}"
    subs = [_canonical_b_search(child) for child in node.children]
    k = len(subs)
    best = None
    for values in itertools.permutations(range(1, k + 1)):
        label = w_lambda(InjectiveMap(k, k, values), node.label)
        key = (tuple(subs[v - 1][1] for v in values), label.text)
        if best is None or key < best[0]:
            best = key, BNode(label, node.height, tuple(subs[v - 1][0] for v in values))
    return best[1], b_entry_text(best[1])


@pytest.mark.parametrize("name", sorted(BASES))
def test_height_tree_sort_matches_the_search(name):
    # children own disjoint leaves, so their texts never tie and sorting
    # them leaves nothing for the label text to decide
    op = BASES[name]
    rng = random.Random(f"b-search-{name}")
    for n in (1, 2, 3, 3, 4, 4, 5, 5):
        raw, (slow, slow_text) = _reduced_and_searched(op, rng, n)
        node, text = _reduce_b(raw)
        assert text == slow_text and node == slow
        if isinstance(node, int):
            continue
        for vertex in _b_vertices(node):
            texts = [b_entry_text(child) for child in vertex.children]
            assert texts == sorted(set(texts))


@pytest.mark.parametrize("name", sorted(BASES))
def test_height_tree_reducer_only_sorts_what_the_random_steps_leave(name, monkeypatch):
    # the confluence oracle shares `_normal_b` with the normalizer; on a tree
    # no step applies to, that is the sort and nothing else
    op = BASES[name]
    rng = random.Random(f"b-steps-{name}")
    composed = []
    monkeypatch.setattr(bconstruction, "w_compose",
                        lambda *args: composed.append(args) or w_compose(*args))
    for n in (1, 2, 3, 4, 4, 5, 5):
        raw = random_raw_bnode(rng, op, n, depth=rng.randint(1, 3))
        left = oracles._b_random_steps(rng, raw)
        node, _ = _reduce_b(left)
        assert _vertex_count(node) == _vertex_count(left)
    assert composed == []


def _b_vertices(node):
    yield node
    for child in node.children:
        if not isinstance(child, int):
            yield from _b_vertices(child)
