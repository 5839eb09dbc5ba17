"""Trees of resolution points with heights: the bimodule resolution.

A point here is a planar rooted tree whose vertices carry a resolution
point (a WPoint over the base operad) and an exact height in [0,1], with
heights weakly increasing away from the root on raw input. Children sit in
the slots of the vertex label: a label of arity k has leaf numbers 1..k and
leaf j of the label corresponds to child position j. A vertex is an entry
of `trees`' protocol, for its shared walks; rebuilt, it keeps its height.

Normal form, computed by `_normal_b` in one pass, `_reduce_b`:

  * a vertex's children of its own height are contracted into it, composing
    the labels in the resolution (which inserts the usual inner edge of
    length one between them), before its other children are reduced;
  * a unary vertex labelled by the trivial resolution point is spliced out;
  * as the pass returns from a vertex, its children are sorted by their
    texts and its label is relabelled once along that permutation. The
    children own disjoint sets of leaves, so their texts never tie and the
    label's text never breaks a tie.

Consequently heights strictly increase along edges, at most one vertex has
height 0 (the root), and every vertex of height 1 has only leaves below it.

A `BPoint` is normal by construction, and the structure maps rely on it.
Raw trees are validated once, where they enter: `bpoint`, `b_corolla`,
`b_map_heights` (the caller picks the heights), the text and JSON readers
in `serialize`, and the random-order oracle in `oracles`. A label is a
`WPoint`, and only the normalizer makes one (see `wconstruction`), so
their check walk takes every label as normal and checks only its operad,
arity and depth. It keeps a vertex with a Fraction height and children it
kept, so a tree read from a point's text or JSON passes as it is. The
structure maps (`b_left_act`, `b_right_act`, `b_lambda`, the pieces of
`slice_point`) only rebuild normal forms from normal forms, so they go
straight to `_normal_b` and check only that their arguments are points.
`bimodules.BBimodule.validate` is the check for a point of unknown origin.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import is_
from typing import Callable, Optional, Union

from .operads import EffectiveOperad, escaped, format_fraction
from .trees import (MAX_DEPTH, DomainError, InjectiveMap, Record, TreePoint, check_leaf_word, fold,
                    keep_leaves, map_leaves, open_entry, require, set_field, shown)
from .wconstruction import WPoint, w_compose, w_lambda, w_unit


class BNode(Record):
    label: WPoint
    height: Fraction
    children: tuple["BEntry", ...]

    def __init__(self, label: WPoint, height: Fraction, children: tuple["BEntry", ...]) -> None:
        set_field(self, "label", label)
        set_field(self, "height", height)
        set_field(self, "children", children)

    def rebuilt(self, label: WPoint, children: tuple["BEntry", ...]) -> BNode:
        """The vertex, its height kept, with this label and these children."""
        return BNode(label, self.height, children)


BEntry = Union[int, BNode]


class BPoint(TreePoint):
    """A normal-form point. Build these with bpoint / b_unit / b_corolla.

    Normal by construction, labels included: every function here that
    returns one has reduced and canonicalized it, and takes it for normal
    in turn. A point assembled by hand is checked with
    `bimodules.BBimodule(op).validate`."""

    @cached_property
    def text(self) -> str:
        return b_entry_text(self.root)


def b_entry_text(entry: BEntry) -> str:
    if isinstance(entry, int):
        return f"l{entry}"
    return _b_vertex_text(entry.label.text, entry.height,
                          [b_entry_text(child) for child in entry.children])


def _b_vertex_text(label_text: str, height: Fraction, child_texts: list[str]) -> str:
    head = f'(v :h={format_fraction(height)} "{escaped(label_text)}"'
    return " ".join([head, *child_texts]) + ")"


def b_text(b: BPoint) -> str:
    return b.text


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _validate_b_raw(op: EffectiveOperad, entry: BEntry, floor: Fraction,
                    depth: int = 0) -> BEntry:
    """Check shapes, heights and the labels' operad and arity; `depth`
    counts the label vertices above entry, so that no composite of the labels
    along a path, as `mu_prime` builds it, is deeper than MAX_DEPTH."""
    if isinstance(entry, bool) or (isinstance(entry, int) and entry < 1):
        raise DomainError(f"bad leaf number {shown(entry)}")
    if isinstance(entry, int):
        return entry
    if not isinstance(entry, BNode):
        raise DomainError(f"bad tree entry {shown(entry)}")
    height = entry.height if type(entry.height) is Fraction else Fraction(entry.height)
    if not 0 <= height.numerator <= height.denominator:   # in [0,1], in ints
        raise DomainError(f"height {shown(format_fraction(height))} outside [0,1]")
    if height < floor:
        raise DomainError(f"height {shown(format_fraction(height))} below the parent height "
                          f"{shown(format_fraction(floor))}")
    label = entry.label
    if not isinstance(label, WPoint) or label.operad != op:
        raise DomainError(f"label must be a resolution point over {op.name}")
    if label.arity != len(entry.children):
        raise DomainError(
            f"label arity {label.arity} against {len(entry.children)} children")
    depth += max(1, label.depth)
    if depth > MAX_DEPTH:
        raise DomainError(f"labels nested deeper than {MAX_DEPTH} vertices")
    children = tuple(_validate_b_raw(op, c, height, depth) for c in entry.children)
    if (type(entry) is BNode and height is entry.height and type(entry.children) is tuple
            and all(map(is_, children, entry.children))):
        return entry
    return BNode(label, height, children)


def _reduce_b(entry: BEntry) -> tuple[BEntry, str]:
    """The normal form of a valid tree, in one pass, with its b_entry_text.

    At a vertex, the children of its own height are contracted into its
    label first, top-down, so that their children become its own; then the
    other children are reduced, and a unary vertex with the trivial label is
    spliced out. A reduced child sits higher than its parent, so nothing is
    left to contract. Last, the children are sorted by their texts and the
    label is relabelled once along that order.
    """
    if isinstance(entry, int):
        return entry, f"l{entry}"
    label, height = entry.label, entry.height
    children = list(entry.children)
    position = 0
    while position < len(children):
        child = children[position]
        if isinstance(child, BNode) and child.height == height:
            label = w_compose(label, position + 1, child.label)
            children[position: position + 1] = child.children
        else:
            position += 1
    if len(children) == 1 and label.is_trivial:
        return _reduce_b(children[0])
    reduced = [_reduce_b(child) for child in children]
    k = len(reduced)
    order = sorted(range(k), key=lambda index: reduced[index][1])
    if order != list(range(k)):
        label = w_lambda(InjectiveMap._trusted(k, k, tuple(index + 1 for index in order)), label)
        reduced = [reduced[index] for index in order]
    return (BNode(label, height, tuple(child for child, _ in reduced)),
            _b_vertex_text(label.text, height, [text for _, text in reduced]))


def _normal_b(op: EffectiveOperad, root: BEntry) -> BPoint:
    """The normal-form point of a tree that is valid already: its labels
    are normal points of the right arity, its heights Fractions in [0,1]
    that weakly increase away from the root, its leaves numbered 1..n.
    Validation is the callers' part: `bpoint` checks raw trees, and the
    structure maps only rebuild normal forms."""
    return BPoint(op, _reduce_b(root)[0])


def bpoint(op: EffectiveOperad, root: Union[int, BNode]) -> BPoint:
    """Validate a raw tree, labels included, then reduce and canonicalize it."""
    root = _validate_b_raw(op, root, Fraction(0))
    if isinstance(root, int):
        if root != 1:
            raise DomainError("a bare strand must be numbered 1")
        return BPoint(op, 1)
    check_leaf_word(root)
    return _normal_b(op, root)


def b_unit(op: EffectiveOperad) -> BPoint:
    return BPoint(op, 1)


def b_corolla(op: EffectiveOperad, label: WPoint, height) -> BPoint:
    require(label, WPoint, "the label")
    return bpoint(op, BNode(label, Fraction(height), tuple(range(1, label.arity + 1))))


# ---------------------------------------------------------------------------
# structure maps
# ---------------------------------------------------------------------------

def b_left_act(p: WPoint, bs: tuple[BPoint, ...]) -> BPoint:
    """Put a resolution point at a fresh root of height 0, feeding each of
    its slots one of the given points; leaves are numbered through in
    order."""
    require(p, WPoint, "the acting point")
    op = p.operad
    if len(bs) != p.arity:
        raise DomainError(f"need {p.arity} points, got {len(bs)}")
    children: list[BEntry] = []
    offset = 0
    for b in bs:
        require(b, BPoint, "each point acted on")
        if b.operad != op:
            raise DomainError("points live over different operads")
        children.append(map_leaves(b.root, lambda k: k + offset))
        offset += b.arity
    return _normal_b(op, BNode(p, Fraction(0), tuple(children)))


def b_right_act(b: BPoint, i: int, p: WPoint) -> BPoint:
    """Graft a resolution point as a new vertex of height 1 at leaf i."""
    require(b, BPoint, "the point acted on")
    require(i, int, "the slot")
    require(p, WPoint, "the acting point")
    op = b.operad
    if p.operad != op:
        raise DomainError("points live over different operads")
    n, m = b.arity, p.arity
    if not 1 <= i <= n:
        raise DomainError(f"slot {i} out of range 1..{n}")
    if p.is_trivial:
        return b
    # the new vertex at leaf i; later leaves move up by m - 1
    new_vertex = BNode(p, Fraction(1), tuple(range(i, i + m)))
    root = map_leaves(b.root, lambda k: new_vertex if k == i else k if k < i else k + m - 1)
    return _normal_b(op, root)


def b_lambda(u: InjectiveMap, b: BPoint) -> BPoint:
    """Restriction along an injection; mirrors the resolution's own rule."""
    require(u, InjectiveMap, "the restriction")
    require(b, BPoint, "the point")
    if u.n != b.arity:
        raise DomainError(f"injection into [{u.n}] against arity {b.arity}")
    if u.m == 0:
        raise DomainError("a restriction must keep at least one input")
    if b.is_trivial:
        return b
    op = b.operad
    renumber = {u(j): j for j in range(1, u.m + 1)}
    return _normal_b(op, keep_leaves(b.root, renumber, w_lambda))


def mu_prime(b: BPoint) -> WPoint:
    """Forget heights and compose every label in the resolution."""
    op = b.operad
    if b.is_trivial:
        return w_unit(op)
    return fold(b.root.label, b.root.children, open_entry, w_compose, w_lambda)


def b_map_heights(b: BPoint, fn: Callable[[Fraction], Fraction]) -> BPoint:
    """Apply a monotone height transformation and renormalize."""
    if b.is_trivial:
        return b
    return bpoint(b.operad, _map_heights(b.root, fn))


def _map_heights(entry: BEntry, fn: Callable[[Fraction], Fraction]) -> BEntry:
    if isinstance(entry, int):
        return entry
    return BNode(entry.label, fn(entry.height),
                 tuple(_map_heights(c, fn) for c in entry.children))


# ---------------------------------------------------------------------------
# slicing by horizontal cuts
# ---------------------------------------------------------------------------

Cut = tuple[Fraction, bool]   # (height, lower side wins ties)


def layer_of(height: Fraction, cuts: tuple[Cut, ...]) -> int:
    layer = 0
    for cut_height, lower_gets_equal in cuts:
        if height > cut_height or (height == cut_height and not lower_gets_equal):
            layer += 1
    return layer


class SlicePiece(Record):
    """One layer-homogeneous piece of a sliced point.

    exits has one entry per input of the piece: the original external leaf
    number, or the piece sitting one (or more) layers up."""

    point: BPoint
    layer: int
    exits: tuple


def slice_point(b: BPoint, cuts: tuple[Cut, ...], trivial_chains: bool = True) -> SlicePiece:
    """Slice a point into layers between the given cuts.

    With trivial_chains, every strand crossing a layer without a vertex
    contributes a trivial piece there, so exits always step exactly one
    layer up and external numbers appear only past the top layer. Without
    it, exits jump straight to the next actual piece or external number.
    """
    op = b.operad
    layers = len(cuts) + 1
    for (a, _), (c, _) in zip(cuts, cuts[1:]):
        if a > c:
            raise DomainError("cuts must be listed in increasing order")
    if b.is_trivial:
        return SlicePiece(b_unit(op), 0, (_chain(op, 1, 1, layers, trivial_chains),))
    top = _slice(op, b.root, cuts, trivial_chains)
    if top.layer == 0:
        return top
    return SlicePiece(b_unit(op), 0, (_chain(op, top, 1, top.layer, trivial_chains),))


def _chain(op: EffectiveOperad, entry, from_layer: int, to_layer: int, trivial_chains: bool):
    """Wrap entry in trivial pieces filling layers from_layer..to_layer-1,
    from the top down; only with trivial_chains."""
    if not trivial_chains:
        return entry
    for layer in range(to_layer - 1, from_layer - 1, -1):
        entry = SlicePiece(b_unit(op), layer, (entry,))
    return entry


def _slice(op: EffectiveOperad, node: BNode, cuts: tuple[Cut, ...],
           trivial_chains: bool) -> SlicePiece:
    """The piece holding node, with the pieces above it as its exits."""
    layer = layer_of(node.height, cuts)
    exits: list = []
    piece_root = node.rebuilt(node.label, tuple(
        _slice_entry(op, c, layer, cuts, trivial_chains, exits) for c in node.children))
    return SlicePiece(_normal_b(op, piece_root), layer, tuple(exits))


def _slice_entry(op: EffectiveOperad, entry: BEntry, layer: int, cuts: tuple[Cut, ...],
                 trivial_chains: bool, exits: list) -> BEntry:
    """Keep entry in the piece of this layer, or make it exit len(exits)."""
    if isinstance(entry, int):
        exits.append(_chain(op, entry, layer + 1, len(cuts) + 1, trivial_chains))
        return len(exits)
    child_layer = layer_of(entry.height, cuts)
    if child_layer == layer:
        return entry.rebuilt(entry.label, tuple(
            _slice_entry(op, c, layer, cuts, trivial_chains, exits) for c in entry.children))
    exits.append(_chain(op, _slice(op, entry, cuts, trivial_chains), layer + 1, child_layer,
                        trivial_chains))
    return len(exits)


# ---------------------------------------------------------------------------
# two-sided prime decomposition
# ---------------------------------------------------------------------------

class BDecomposition(Record):
    """The canonical two-sided splitting of a point: its slice at the cuts
    ((0, True), (1, False)), with crossing strands as trivial pieces.

    root_label is the label of the height-0 vertex when there is one.
    pieces lists the layer-1 slice pieces in planar order, one per input of
    that vertex, or the one piece when there is none. The exits of a piece
    are layer-2 pieces, one per input: a trivial piece whose one exit is the
    number of a bare strand, or a cap, one height-1 vertex whose exits are
    the numbers of its leaves. filtration is (max piece arity, max vertex
    count among pieces of that arity)."""

    root_label: Optional[WPoint]
    pieces: tuple[SlicePiece, ...]
    filtration: tuple[int, int]


def _vertex_count(entry: BEntry) -> int:
    if isinstance(entry, int):
        return 0
    return 1 + sum(_vertex_count(c) for c in entry.children)


def b_prime_decompose(b: BPoint) -> BDecomposition:
    bottom = slice_point(b, ((Fraction(0), True), (Fraction(1), False)))
    points = [piece.point for piece in bottom.exits]
    level = max(point.arity for point in points)
    aux = max(_vertex_count(point.root) for point in points if point.arity == level)
    root_label = None if bottom.point.is_trivial else bottom.point.root.label
    return BDecomposition(root_label, bottom.exits, (level, aux))


def __getattr__(name: str):
    """`b_normalize_random_order`, which lives in `oracles`, loaded on first access."""
    if name == "b_normalize_random_order":
        from .oracles import b_normalize_random_order
        return b_normalize_random_order
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
