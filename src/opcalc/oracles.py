"""Slow references the fast paths are tested against.

None of this runs in a W or B command; the check suites, the perfbench
harness and the tests load it.

  * `normalize_random_order` reduces a W tree by applying a uniformly
    chosen contraction or unit splice until none applies, then turns every
    vertex to its least twist in a second pass, `_canonical_node`;
    agreement with `wpoint`, which does both in one pass, across many
    draws is the confluence check.
    `b_normalize_random_order` is its height-tree twin, against `bpoint`.
    It shares with the normalizer only the sort that ends `_normal_b`: on
    a tree no random step applies to, `_reduce_b` contracts and splices
    nothing. That is enough, because the sort has its own reference, the
    k! search in the tests, while the contractions and splices, whose
    order is what confluence is about, are the oracle's own.
  * `_canonical_node_search` tries all k! twists at every vertex, through
    `_least_twist`; every operad's `canonical_twist` is tested against it.

`opcalc.wconstruction` and `opcalc.bconstruction` still answer for the two
random-order reducers by name, loading this module on first access.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Hashable, Optional, Union

from .bconstruction import BEntry, BNode, BPoint, _normal_b, _validate_b_raw
from .operads import EffectiveOperad
from .trees import InjectiveMap
from .wconstruction import WEdge, WEntry, WNode, _validate_root, entry_text, w_compose


# ---------------------------------------------------------------------------
# addresses in a W or B tree: the sequence of 0-based child indices from the
# root; in W the entry at a nonempty address is an inner edge
# ---------------------------------------------------------------------------

def _entry_at(root, path: tuple[int, ...]):
    entry = root
    for index in path:
        entry = entry.children[index]
    return entry


def _with_entry(root, path: tuple[int, ...], new):
    """root with the entry at path replaced by new."""
    if not path:
        return new
    index, children = path[0], root.children
    replaced = _with_entry(children[index], path[1:], new)
    return root.rebuilt(root.label, children[:index] + (replaced,) + children[index + 1:])


# ---------------------------------------------------------------------------
# an independent W reducer, used to check that normal forms do not depend on
# the order reductions are applied in
# ---------------------------------------------------------------------------


def _applicable_steps(op: EffectiveOperad, root: WNode) -> list[tuple]:
    steps: list[tuple] = []
    _collect_steps(op, root, (), steps)
    return steps


def _collect_steps(op: EffectiveOperad, node: WNode, path: tuple[int, ...],
                   steps: list[tuple]) -> None:
    if len(node.children) == 1 and op.is_unit(node.label):
        steps.append(("splice", path))
    for position, child in enumerate(node.children):
        if isinstance(child, WEdge):
            if child.length == 0:
                steps.append(("contract", path, position))
            _collect_steps(op, child.node, path + (position,), steps)


def _apply_step(op: EffectiveOperad, root: WNode, step: tuple) -> Union[int, WNode]:
    if step[0] == "contract":
        _, path, position = step
        node = _entry_at(root, path)
        edge = node.children[position]
        assert isinstance(edge, WEdge)
        merged = node.rebuilt(
            op.compose(node.label, position + 1, edge.label),
            node.children[:position] + edge.children + node.children[position + 1:])
        return _with_entry(root, path, merged)
    _, path = step
    edge = _entry_at(root, path)   # the root vertex when path is empty
    only = edge.children[0]
    if not path:
        if isinstance(only, int):
            return 1
        return only.node
    if not isinstance(only, int):
        only = WEdge(max(edge.length, only.length), only.node)
    return _with_entry(root, path, only)


def normalize_random_order(rng, op: EffectiveOperad, root: Union[int, WNode]) -> Union[int, WNode]:
    """Reduce by repeatedly applying a uniformly chosen applicable step.

    Same contract as the deterministic pass inside wpoint; agreement across
    many draws is what the confluence suite checks.
    """
    root = _validate_root(op, root)
    if isinstance(root, int):
        return 1
    while True:
        steps = _applicable_steps(op, root)
        if not steps:
            break
        root = _apply_step(op, root, rng.choice(steps))
        if isinstance(root, int):
            return 1
    return _canonical_node(op, root)


def _canonical_node(op: EffectiveOperad, node: WNode) -> WNode:
    """Every vertex of a reduced tree at the twist its operad's
    `canonical_twist` names: the two-pass reference for `wpoint`'s one pass.
    The label text alone is strictly least, so the children's texts never
    break a tie."""
    entries = [WEdge(child.length, _canonical_node(op, child.node))
               if isinstance(child, WEdge) else child for child in node.children]
    if len(entries) == 1:
        return WNode(node.label, tuple(entries))
    sigma, _ = op.canonical_twist(node.label)
    return WNode(op.restrict(sigma, node.label), tuple(entries[v - 1] for v in sigma.values))


def _canonical_node_search(op: EffectiveOperad, node: WNode) -> WNode:
    """The same normal form by trying all k! twists at every vertex; the
    oracle `canonical_twist` is tested against."""
    entries = tuple(
        child if isinstance(child, int)
        else WEdge(child.length, _canonical_node_search(op, child.node))
        for child in node.children)
    if len(entries) == 1:
        return WNode(node.label, entries)
    return _least_twist(op, node.label, entries)


def _least_twist(op: EffectiveOperad, label: Hashable, entries: tuple[WEntry, ...]) -> WNode:
    """The twist with the least (label text, children's texts) key."""
    k = len(entries)
    texts = [entry_text(op, e) for e in entries]
    best: Optional[WNode] = None
    best_key = None
    for values in itertools.permutations(range(1, k + 1)):
        sigma = InjectiveMap(k, k, values)
        twisted = op.restrict(sigma, label)
        key = (op.format_element(twisted), tuple(texts[values[j] - 1] for j in range(k)))
        if best_key is None or key < best_key:
            best = WNode(twisted, tuple(entries[values[j] - 1] for j in range(k)))
            best_key = key
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# random-order reduction of height trees, the oracle for B confluence
# ---------------------------------------------------------------------------

def _b_applicable_steps(root: BNode) -> list[tuple]:
    steps: list[tuple] = []
    _collect_b_steps(root, (), steps)
    return steps


def _collect_b_steps(node: BNode, path: tuple[int, ...], steps: list[tuple]) -> None:
    if len(node.children) == 1 and node.label.is_trivial:
        steps.append(("splice", path))
    for index, child in enumerate(node.children):
        if isinstance(child, BNode):
            if child.height == node.height:
                steps.append(("contract", path, index))
            _collect_b_steps(child, path + (index,), steps)


def _b_apply_step(root: BNode, step: tuple) -> BEntry:
    if step[0] == "splice":
        _, path = step
        return _with_entry(root, path, _entry_at(root, path).children[0])
    _, path, index = step
    node = _entry_at(root, path)
    child = node.children[index]
    assert isinstance(child, BNode)
    label = w_compose(node.label, index + 1, child.label)
    children = node.children[:index] + child.children + node.children[index + 1:]
    return _with_entry(root, path, node.rebuilt(label, children))


def b_normalize_random_order(rng, op: EffectiveOperad, root: Union[int, BNode]) -> BPoint:
    """Reduce by applying steps in a random order, then sort; agreement with
    bpoint across many draws is the confluence check."""
    return _normal_b(op, _b_random_steps(rng, _validate_b_raw(op, root, Fraction(0))))


def _b_random_steps(rng, root: BEntry) -> BEntry:
    """A valid tree after uniformly chosen contractions and splices, until
    none applies."""
    while isinstance(root, BNode):
        steps = _b_applicable_steps(root)
        if not steps:
            break
        root = _b_apply_step(root, steps[rng.randrange(len(steps))])
    return root
