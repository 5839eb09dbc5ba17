"""Seeded generators of random exact elements, trees and paths.

Everything here is driven by a caller-supplied random.Random, so suites are
reproducible from a seed. Raw tree generators deliberately emit unreduced
presentations (zero lengths, unit labels on unary vertices, twisted
vertices) so normalization actually has work to do.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .bconstruction import BNode, BPoint, b_unit, bpoint
from .operads import EffectiveOperad
from .trees import InjectiveMap
from .wconstruction import WEdge, WNode, WPoint, w_lambda, w_unit, wpoint


def random_fraction(rng, include_ends: bool = False) -> Fraction:
    """A random rational in (0,1), or [0,1] when include_ends is set."""
    if include_ends:
        roll = rng.random()
        if roll < 0.25:
            return Fraction(0)
        if roll < 0.5:
            return Fraction(1)
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def random_injection(rng, m: int, n: int) -> InjectiveMap:
    return InjectiveMap(m, n, tuple(rng.sample(range(1, n + 1), m)))


def random_permutation(rng, n: int) -> InjectiveMap:
    return random_injection(rng, n, n)


# ---------------------------------------------------------------- raw trees

def _partition(rng, items: list, blocks: int) -> list[list]:
    cuts = sorted(rng.sample(range(1, len(items)), blocks - 1)) if blocks > 1 else []
    out = []
    start = 0
    for cut in itertools.chain(cuts, [len(items)]):
        out.append(items[start:cut])
        start = cut
    return out


def _raw_wnode(rng, op: EffectiveOperad, numbers: list[int], depth: int) -> WNode:
    if depth <= 0:
        shuffled = list(numbers)
        rng.shuffle(shuffled)
        return WNode(op.sample(rng, len(shuffled)), tuple(shuffled))
    k = rng.randint(1, len(numbers))
    shuffled = list(numbers)
    rng.shuffle(shuffled)
    blocks = _partition(rng, shuffled, k)
    children: list = []
    for block in blocks:
        if len(block) == 1 and rng.random() < 0.5:
            children.append(block[0])
        else:
            children.append(WEdge(random_fraction(rng, include_ends=True),
                                  _raw_wnode(rng, op, block, depth - 1)))
    if k == 1 and rng.random() < 0.2:
        label = op.unit()
    else:
        label = op.sample(rng, k)
    return WNode(label, tuple(children))


def random_raw_wnode(rng, op: EffectiveOperad, n: int, depth: int | None = None) -> WNode:
    """An unnormalized presentation with n leaves."""
    if depth is None:
        depth = rng.randint(0, 2)
    return _raw_wnode(rng, op, list(range(1, n + 1)), depth)


def random_wpoint(rng, op: EffectiveOperad, n: int) -> WPoint:
    if n == 1 and rng.random() < 0.15:
        return w_unit(op)
    return wpoint(op, random_raw_wnode(rng, op, n))


def random_vertex_twists(rng, op: EffectiveOperad, node: WNode) -> WNode:
    """Rewrite along the vertexwise symmetry relation; the point is unchanged."""
    return _random_twists(rng, node, op.restrict)


def _random_twists(rng, entry, restrict):
    """entry with its vertices twisted at random, the ones above first; a
    twist permutes the children and restricts the label by `restrict`."""
    children = tuple(child if isinstance(child, int) else _random_twists(rng, child, restrict)
                     for child in entry.children)
    k = len(children)
    if k > 1 and rng.random() < 0.6:
        sigma = random_permutation(rng, k)
        return entry.rebuilt(restrict(sigma, entry.label),
                             tuple(children[sigma(j) - 1] for j in range(1, k + 1)))
    return entry.rebuilt(entry.label, children)


# ------------------------------------------------------------- height trees

def _random_height(rng, floor: Fraction) -> Fraction:
    if rng.random() < 0.3:
        return floor
    return floor + (1 - floor) * random_fraction(rng, include_ends=True)


def _raw_bnode(rng, op: EffectiveOperad, numbers: list[int], depth: int,
               floor: Fraction) -> BNode:
    height = _random_height(rng, floor)
    if depth <= 0:
        shuffled = list(numbers)
        rng.shuffle(shuffled)
        return BNode(random_wpoint(rng, op, len(shuffled)), height, tuple(shuffled))
    k = rng.randint(1, len(numbers))
    shuffled = list(numbers)
    rng.shuffle(shuffled)
    blocks = _partition(rng, shuffled, k)
    children: list = []
    for block in blocks:
        if len(block) == 1 and rng.random() < 0.5:
            children.append(block[0])
        else:
            children.append(_raw_bnode(rng, op, block, depth - 1, height))
    if k == 1 and rng.random() < 0.2:
        label = w_unit(op)
    else:
        label = random_wpoint(rng, op, k)
    return BNode(label, height, tuple(children))


def random_raw_bnode(rng, op: EffectiveOperad, n: int, depth: int | None = None) -> BNode:
    """An unnormalized height-tree presentation with n leaves."""
    if depth is None:
        depth = rng.randint(0, 2)
    return _raw_bnode(rng, op, list(range(1, n + 1)), depth, Fraction(0))


def random_bpoint(rng, op: EffectiveOperad, n: int) -> BPoint:
    if n == 1 and rng.random() < 0.15:
        return b_unit(op)
    return bpoint(op, random_raw_bnode(rng, op, n))


def random_b_twists(rng, op: EffectiveOperad, node: BNode) -> BNode:
    """Rewrite along the vertexwise symmetry relation; the point is unchanged."""
    return _random_twists(rng, node, w_lambda)
