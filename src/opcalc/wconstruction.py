"""Decorated trees with edge lengths: the cofibrant resolution of an operad.

A point is a planar rooted tree whose vertices are labelled by operad
elements (one input per child), whose inner edges carry exact lengths in
[0,1], and whose leaves carry the input labels 1..n of the point. Children
of a vertex are stored as either a bare leaf number or an inner edge; leaf
numbers therefore live directly at the slots they decorate and composition
of labels during edge contraction never renumbers anything. An edge and the
vertex above it are one entry of `trees`' protocol, for its shared walks.

Normal form, computed by `_normal_w` in one pass from the leaves down:

  * an inner edge of length 0 is contracted, composing the two vertex
    labels at the slot given by the child's position;
  * a unary vertex labelled by the operad unit is spliced out; the two
    adjacent edges merge into one whose length is the maximum of the two,
    and an adjacent external edge (root side or a bare leaf) absorbs the
    inner length entirely;
  * each vertex is rotated to its least presentation among its
    symmetric-group twists: the twist whose label text is least, ties
    broken by the texts of the children in their new order. Equality of
    points is therefore structural equality of normal forms.

Each operad's `canonical_twist` names the twist with the strictly least
label text, so no tie is left for the children to break: for the interval,
disc and framed operads one sort of the inputs' tokens finds it, and for
the associative operad and the resolution itself, whose twists only
renumber letters or leaves, one sort of the word. The k! search,
`oracles._canonical_node_search`, is the oracle this is tested against.
Each vertex is turned to that twist as the reduction returns from it, so
a child is at its least twist before it is contracted into its parent;
the least twist depends on the orbit of a label alone, so this gives the
normal form the two-pass reference `oracles._canonical_node` gives after
reducing.

The hook also returns the text of the twisted label, and the normalizer
puts it, escaped, on the vertex (`WNode._text`, not a field). `rebuilt`
keeps it while the label object stays, so renumbering leaves, grafting and
cutting carry it, `entry_text` formats only a vertex that has none, and
the normalizer twists no vertex that keeps it and takes in no child. The
text comes from the element: `<[0/1,2/4]>` reads as `<[0/1,1/2]>` prints.

Only the normalizer makes a `WPoint`: `WPoint(...)` raises, and every
function here that returns a point builds it through `_normal_w`, or
through `WPoint._trusted` on a tree it knows to be normal. A point keeps
its text once built. Raw trees are validated once, where they enter:
`wpoint`, `w_corolla` (a label), the random-order oracle in `oracles`, and
the readers in `serialize`, which validate each label once, as they parse
it. The structure maps check that their arguments are points, and no label
again.

A vertex's twist depends on its label alone, so renumbering the leaves of
a point, grafting two points along an edge of length 1 or cutting one at
such edges leaves a normal tree: `w_compose`, bijective `w_lambda` and the
`w_prime_decompose` components take it as it is. `WOperad.validate`, which
renormalizes and compares, is the oracle these paths are tested against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import is_
from typing import Hashable, Union

from .operads import EffectiveOperad, escaped, format_fraction, least_word_twist
from .trees import (DomainError, InjectiveMap, Record, TreePoint, check_depth, check_leaf_word,
                    fold, keep_leaves, map_leaves, open_entry, require, set_field, shown)


class WNode(Record):
    label: Hashable
    children: tuple["WEntry", ...]
    # the label's escaped text, which the normalizer puts on each vertex it
    # builds; not a field: outside __init__, equality, hash and repr
    _text = None

    def __init__(self, label: Hashable, children: tuple["WEntry", ...]) -> None:
        set_field(self, "label", label)
        set_field(self, "children", children)

    def rebuilt(self, label: Hashable, children: tuple["WEntry", ...]) -> WNode:
        """The vertex with this label and these children; the label's text
        is kept when the label is the same object."""
        node = WNode(label, children)
        if label is self.label:
            set_field(node, "_text", self._text)
        return node


class WEdge(Record):
    """An inner edge and the vertex above it, one entry of the tree
    protocol (see `trees`): its label and children are the vertex's."""

    length: Fraction
    node: WNode

    def __init__(self, length: Fraction, node: WNode) -> None:
        set_field(self, "length", length)
        set_field(self, "node", node)

    @property
    def label(self) -> Hashable:
        return self.node.label

    @property
    def children(self) -> tuple["WEntry", ...]:
        return self.node.children

    def rebuilt(self, label: Hashable, children: tuple["WEntry", ...]) -> WEdge:
        """The edge, its length kept, onto its vertex rebuilt with this label
        and these children."""
        return WEdge(self.length, self.node.rebuilt(label, children))


WEntry = Union[int, WEdge]   # a bare leaf number, or an inner edge


class WPoint(TreePoint):
    """A normal-form point. Build these with wpoint / w_unit / w_corolla.

    Only the normalizer makes one (see the module docstring), so a point is
    normal by its type, and immutable: its text, leaf word and depth are
    computed once."""

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("a WPoint is built by wpoint, w_unit or w_corolla")

    @classmethod
    def _trusted(cls, operad: EffectiveOperad, root: Union[int, WNode]) -> WPoint:
        """The point on root, unchecked: for the normalizer, and for a map
        that rebuilds a normal tree as normal (renumbering, grafting or
        cutting normal points)."""
        point = object.__new__(cls)
        set_field(point, "operad", operad)
        set_field(point, "root", root)
        return point

    @cached_property
    def text(self) -> str:
        return entry_text(self.operad, self.root)

    @cached_property
    def depth(self) -> int:
        """Vertices on the longest path from the root to a leaf."""
        return _depth(self.root)


def _depth(entry: Union[WEntry, WNode]) -> int:
    if isinstance(entry, int):
        return 0
    return 1 + max(_depth(child) for child in entry.children)


def entry_text(op: EffectiveOperad, entry: Union[WEntry, WNode]) -> str:
    """Deterministic one-line rendering; doubles as the canonical sort key."""
    if isinstance(entry, int):
        return f"l{entry}"
    if isinstance(entry, WEdge):
        return f"(e {format_fraction(entry.length)} {entry_text(op, entry.node)})"
    parts = [f'(v "{label_text(op, entry)}"']
    parts.extend(entry_text(op, child) for child in entry.children)
    return " ".join(parts) + ")"


def label_text(op: EffectiveOperad, node: WNode) -> str:
    """The escaped text of node's label: the one the normalizer put on it,
    or formatted afresh for a vertex that has none (built by hand, or by
    `keep_leaves` where the vertex lost a slot)."""
    text = node._text
    return escaped(op.format_element(node.label)) if text is None else text


def w_text(a: WPoint) -> str:
    return a.text


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _validate_raw(op: EffectiveOperad, entry: Union[WEntry, WNode],
                  depth: int = 0) -> Union[WEntry, WNode]:
    """Check shapes, coerce lengths to Fraction, validate labels; `depth`
    counts the vertices above entry. An entry with nothing to coerce is kept."""
    if isinstance(entry, bool) or (isinstance(entry, int) and entry < 1):
        raise DomainError(f"bad leaf number {shown(entry)}")
    if isinstance(entry, int):
        return entry
    if isinstance(entry, WEdge):
        length = entry.length if type(entry.length) is Fraction else Fraction(entry.length)
        return _edge(length, _validate_raw(op, entry.node, depth), entry)
    if isinstance(entry, WNode):
        check_depth(depth)
        op.validate(entry.label)
        return _vertex(op, entry.label,
                       tuple(_validate_raw(op, c, depth + 1) for c in entry.children), entry)
    raise DomainError(f"bad tree entry {shown(entry)}")


def _edge(length: Fraction, node, raw=None) -> WEdge:
    """An inner edge on a checked node, once its length is in [0,1] and the
    node is a vertex: `raw`, the edge checked, if it is exactly that edge;
    `_validate_raw` and the readers in `serialize` build edges here."""
    if not 0 <= length.numerator <= length.denominator:   # in [0,1], in ints
        raise DomainError(f"edge length {shown(format_fraction(length))} outside [0,1]")
    if not isinstance(node, WNode):
        raise DomainError(f"an inner edge must end in a vertex, got {shown(node)}")
    if type(raw) is WEdge and raw.length is length and raw.node is node:
        return raw
    return WEdge(length, node)


def _vertex(op: EffectiveOperad, label, children: tuple, raw=None) -> WNode:
    """A vertex on checked children (`raw` itself if they are its own, in a tuple), once
    its label, a valid element, has one input per child, each a leaf number or an inner edge."""
    if op.arity_of(label) != len(children):
        raise DomainError(f"label arity {op.arity_of(label)} against {len(children)} children")
    if any(isinstance(child, WNode) for child in children):
        raise DomainError("a vertex's child must be a leaf number or an inner edge, not a vertex")
    if type(raw) is WNode and type(raw.children) is tuple and all(map(is_, children, raw.children)):
        return raw
    return WNode(label, children)


def _validate_root(op: EffectiveOperad, root) -> Union[int, WNode]:
    root = _validate_raw(op, root)
    if isinstance(root, WEdge):
        raise DomainError("a point's root must be a vertex or a leaf, not an edge")
    return root


def _reduce_vertex(op: EffectiveOperad, node: WNode) -> Union[int, WNode]:
    """Apply contractions and unit splices below and at this vertex, then
    turn it to the twist its operad's `canonical_twist` names, its label's
    text on it.

    Returns a bare leaf number when the whole subtree collapses to one
    (a chain of unit vertices over a leaf). A child is at its least twist
    before it is contracted in, which gives the same normal form: the
    least twist depends on the orbit of the label alone.
    """
    entries: list[WEntry] = []
    for child in node.children:
        if isinstance(child, int):
            entries.append(child)
            continue
        reduced = _reduce_vertex(op, child.node)
        if isinstance(reduced, int):
            # the subtree collapsed onto a leaf; leaf side is external, so
            # the inner length is absorbed
            entries.append(reduced)
            continue
        length = child.length
        # reduced, so a unary unit here sits on an edge to a vertex that is not one
        if len(reduced.children) == 1 and op.is_unit(reduced.label):
            only = reduced.children[0]
            length, reduced = max(length, only.length), only.node
        entries.append(WEdge(length, reduced))

    label = node.label
    # contract length-0 edges; positions shift as blocks are spliced in
    p = 0
    while p < len(entries):
        entry = entries[p]
        if isinstance(entry, WEdge) and entry.length == 0:
            label = op.compose(label, p + 1, entry.node.label)
            entries[p: p + 1] = list(entry.node.children)
        else:
            p += 1

    if len(entries) == 1 and isinstance(entries[0], int) and op.is_unit(label):
        return entries[0]
    if label is node.label and node._text is not None:   # left at its least twist, text on
        return node.rebuilt(label, tuple(entries))
    if len(entries) == 1:
        text = op.format_element(label)   # one input has one twist
    else:
        sigma, text = op.canonical_twist(label)
        label, entries = op.restrict(sigma, label), [entries[v - 1] for v in sigma.values]
    node = WNode(label, tuple(entries))
    set_field(node, "_text", escaped(text))
    return node


def _normal_w(op: EffectiveOperad, root: WNode) -> WPoint:
    """Reduce and canonicalize, in one pass, a tree that is valid already:
    its labels are elements of the right arity, its lengths Fractions in
    [0,1], its leaves numbered 1..n. Validation is the callers' part:
    `wpoint` checks raw trees, and the structure maps only rebuild normal
    forms."""
    reduced = _reduce_vertex(op, root)
    if isinstance(reduced, int):
        return WPoint._trusted(op, 1)
    # root side is external: a unit vertex at the root absorbs its edge; it
    # sits on an edge to a vertex that is not one, as in `_reduce_vertex`
    if len(reduced.children) == 1 and op.is_unit(reduced.label):
        reduced = reduced.children[0].node
    return WPoint._trusted(op, reduced)


def wpoint(op: EffectiveOperad, root: Union[int, WNode]) -> WPoint:
    """Validate a raw tree, then reduce and canonicalize it."""
    return _checked_point(op, _validate_root(op, root))


def _checked_point(op: EffectiveOperad, root: Union[int, WNode]) -> WPoint:
    """The point on a tree whose shapes, lengths and labels are checked:
    the leaf numbers must be 1..n, then `_normal_w`. `wpoint` ends here, and
    so do the readers in `serialize`, which check a tree as they read it."""
    if isinstance(root, int):
        if root != 1:
            raise DomainError("a bare leaf point must be numbered 1")
        return WPoint._trusted(op, 1)
    check_leaf_word(root)
    return _normal_w(op, root)


def w_unit(op: EffectiveOperad) -> WPoint:
    return WPoint._trusted(op, 1)


def w_corolla(op: EffectiveOperad, label) -> WPoint:
    op.validate(label)
    return _normal_w(op, WNode(label, tuple(range(1, op.arity_of(label) + 1))))


# ---------------------------------------------------------------------------
# structure maps
# ---------------------------------------------------------------------------

def w_compose(a: WPoint, i: int, b: WPoint) -> WPoint:
    """Graft b onto leaf i of a along a fresh inner edge of length 1."""
    require(a, WPoint, "the outer point")
    require(i, int, "the slot")
    require(b, WPoint, "the inner point")
    if a.operad != b.operad:
        raise DomainError("points live over different operads")
    n, m = a.arity, b.arity
    if not 1 <= i <= n:
        raise DomainError(f"slot {i} out of range 1..{n}")
    if a.is_trivial:
        return b
    if b.is_trivial:
        return a
    # b on an edge of length 1 at leaf i; later leaves move up by m - 1
    edge = WEdge(Fraction(1), map_leaves(b.root, lambda k: i + k - 1))
    root = map_leaves(a.root, lambda k: edge if k == i else k if k < i else k + m - 1)
    return WPoint._trusted(a.operad, root)   # a length-1 edge between normal trees


def w_lambda(u: InjectiveMap, a: WPoint) -> WPoint:
    """Restriction along an injection u: [m] -> [n], m >= 1.

    Leaves outside the image vanish, leaf u(j) becomes j, a vertex losing
    all children vanishes with its slot, and a label that lost a slot is
    restricted along its kept slots.
    """
    require(u, InjectiveMap, "the restriction")
    require(a, WPoint, "the point")
    if u.n != a.arity:
        raise DomainError(f"injection into [{u.n}] against arity {a.arity}")
    if u.m == 0:
        raise DomainError("a restriction must keep at least one input")
    if a.is_trivial:
        return a
    op = a.operad
    renumber = {u(j): j for j in range(1, u.m + 1)}
    if u.m == u.n:   # renumbering the leaves changes no twist
        return WPoint._trusted(op, map_leaves(a.root, renumber.__getitem__))
    return _normal_w(op, keep_leaves(a.root, renumber, op.restrict))


def mu(a: WPoint):
    """Collapse every inner edge to length 0 and compose down to the operad."""
    op = a.operad
    if a.is_trivial:
        return op.unit()
    return fold(a.root.label, a.root.children, open_entry, op.compose, op.restrict)


# ---------------------------------------------------------------------------
# prime decomposition along length-1 edges
# ---------------------------------------------------------------------------

class WDecomposition(Record):
    """Components obtained by cutting every inner edge of length 1.

    The skeleton is a tree of `trees`' protocol. Each of its vertices is a
    `WNode` labelled by its component; its children are, in slot order, the
    original leaf numbers and the skeleton vertices of the components above
    it, so slot j of a component is child j of its vertex. components lists
    the components in depth-first preorder of the skeleton's vertices. The
    trivial point's skeleton is the bare leaf 1; it has no components and
    sits at filtration level 0.
    """

    components: tuple[WPoint, ...]
    skeleton: Union[int, WNode]
    filtration_level: int


def w_prime_decompose(a: WPoint) -> WDecomposition:
    op = a.operad
    if a.is_trivial:
        return WDecomposition((), 1, 0)
    components: list[WPoint] = []
    skeleton = _carve(op, a.root, components)
    level = max(piece.arity for piece in components)
    return WDecomposition(tuple(components), skeleton, level)


def _carve(op: EffectiveOperad, node: WNode, components: list) -> WNode:
    """The skeleton vertex of the piece at node, whose component is
    components[index], reserved before the pieces above it are appended;
    a piece cut from a normal point is normal as it is."""
    index = len(components)
    components.append(None)
    exits: list = []
    children = tuple(_carve_entry(op, c, exits, components) for c in node.children)
    piece_root = node.rebuilt(node.label, children)
    components[index] = component = WPoint._trusted(op, piece_root)
    return WNode(component, tuple(exits))


def _carve_entry(op: EffectiveOperad, entry: WEntry, exits: list, components: list) -> WEntry:
    """Keep entry in the current piece, or cut it off as exit len(exits)."""
    if isinstance(entry, int):
        exits.append(entry)
        return len(exits)
    if entry.length == 1:
        exits.append(_carve(op, entry.node, components))
        return len(exits)
    return entry.rebuilt(entry.label,
                         tuple(_carve_entry(op, c, exits, components) for c in entry.children))


# ---------------------------------------------------------------------------
# the resolution as an operad in its own right
# ---------------------------------------------------------------------------

class WOperad(EffectiveOperad):
    """Points of the resolution over a base operad, as an operad."""

    def __init__(self, base: EffectiveOperad) -> None:
        self.base = base
        self.name = f"w({base.name})"

    def arity_of(self, x: WPoint) -> int:
        return x.arity

    def validate(self, x) -> None:
        if not isinstance(x, WPoint) or x.operad != self.base:
            raise DomainError(f"expected a point over {self.base.name}")
        renormalized = wpoint(self.base, x.root)
        if renormalized.root != x.root:
            raise DomainError("point is not in normal form")

    def unit(self) -> WPoint:
        return w_unit(self.base)

    def compose(self, x: WPoint, i: int, y: WPoint) -> WPoint:
        return w_compose(x, i, y)

    def restrict(self, u: InjectiveMap, x: WPoint) -> WPoint:
        return w_lambda(u, x)

    def canonical_twist(self, x: WPoint) -> tuple[InjectiveMap, str]:
        # twisting a normal point only renumbers its leaves
        sigma = least_word_twist(x.leaf_word)
        return sigma, w_lambda(sigma, x).text

    def format_element(self, x: WPoint) -> str:
        return x.text

    def parse_element(self, text: str) -> WPoint:
        from .serialize import parse_w_text
        return parse_w_text(self.base, text)

    def sample(self, rng, n: int) -> WPoint:
        from .sampling import random_wpoint
        return random_wpoint(rng, self.base, n)


def __getattr__(name: str):
    """`normalize_random_order`, which lives in `oracles`, loaded on first access."""
    if name == "normalize_random_order":
        from .oracles import normalize_random_order
        return normalize_random_order
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
