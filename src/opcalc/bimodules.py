"""Bimodules over the resolution, and evaluation through truncations.

`Bimodule` is the interface of a two-sided module over a resolution
operad; `BBimodule` is the height-tree resolution B as one, and
`WSelfBimodule` the resolution W as a bimodule over itself. Their
`validate` is the check for a point of unknown origin: it renormalizes
through `bpoint` or `wpoint` and compares.

`eval_truncated_operad_map` and `eval_truncated_bimodule_map` evaluate a
map that is given only on the prime pieces of at most `level` inputs, by
contracting the decomposition's edges or caps in a chosen order. A W
decomposition's skeleton is a tree of `trees`' protocol whose vertices are
labelled by the pieces; its vertices are numbered in preorder, the order
of `components`, and its edges listed as their upper vertices are numbered.
A B decomposition's pieces are slice pieces, whose exits are trivial
pieces over one strand or caps; the caps are numbered in planar order.
Each piece or vertex keeps a row with one slot per input: a leaf number,
or the skeleton vertex or cap above it, found by identity, until it is
contracted into the row.

The check suites, the evaluators (`mapping`) and `mu --truncate` load this
module; the W and B commands do not.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Hashable, Optional

from .bconstruction import (
    BPoint,
    b_left_act,
    b_lambda,
    b_prime_decompose,
    b_right_act,
    b_unit,
    bpoint,
)
from .operads import EffectiveOperad
from .trees import DomainError, InjectiveMap, fold
from .wconstruction import WNode, WOperad, WPoint, w_compose, w_lambda, w_prime_decompose, w_unit


class Bimodule(ABC):
    """A two-sided module over a resolution operad, with restrictions."""

    name: str
    over: EffectiveOperad

    @abstractmethod
    def arity_of(self, x) -> int: ...

    @abstractmethod
    def validate(self, x) -> None: ...

    @abstractmethod
    def unit(self):
        """The distinguished arity-1 element (image of the bare strand)."""

    @abstractmethod
    def left_act(self, p, xs: tuple): ...

    @abstractmethod
    def right_act(self, x, i: int, p): ...

    @abstractmethod
    def restrict(self, u: InjectiveMap, x): ...

    @abstractmethod
    def key(self, x) -> Hashable: ...

    @abstractmethod
    def sample(self, rng, n: int): ...

    def eq(self, x, y) -> bool:
        return self.key(x) == self.key(y)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.name == getattr(other, "name", None)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))

    def __repr__(self) -> str:
        return f"<bimodule {self.name}>"


class BBimodule(Bimodule):
    """The height-tree resolution as a bimodule over the resolution operad."""

    def __init__(self, base: EffectiveOperad) -> None:
        self.base = base
        self.over = WOperad(base)
        self.name = f"b({base.name})"

    def arity_of(self, x: BPoint) -> int:
        return x.arity

    def validate(self, x) -> None:
        if not isinstance(x, BPoint) or x.operad != self.base:
            raise DomainError(f"expected a point over {self.base.name}")
        if bpoint(self.base, x.root).root != x.root:
            raise DomainError("point is not in normal form")

    def unit(self) -> BPoint:
        return b_unit(self.base)

    def left_act(self, p: WPoint, xs: tuple) -> BPoint:
        return b_left_act(p, tuple(xs))

    def right_act(self, x: BPoint, i: int, p: WPoint) -> BPoint:
        return b_right_act(x, i, p)

    def restrict(self, u: InjectiveMap, x: BPoint) -> BPoint:
        return b_lambda(u, x)

    def key(self, x: BPoint) -> Hashable:
        return (self.name, x.root)

    def sample(self, rng, n: int) -> BPoint:
        from .sampling import random_bpoint
        return random_bpoint(rng, self.base, n)


class WSelfBimodule(Bimodule):
    """The resolution operad seen as a bimodule over itself."""

    def __init__(self, base: EffectiveOperad) -> None:
        self.base = base
        self.over = WOperad(base)
        self.name = f"wself({base.name})"

    def arity_of(self, x: WPoint) -> int:
        return x.arity

    def validate(self, x) -> None:
        self.over.validate(x)

    def unit(self) -> WPoint:
        return w_unit(self.base)

    def left_act(self, p: WPoint, xs: tuple) -> WPoint:
        if len(xs) != p.arity:
            raise DomainError(f"need {p.arity} points, got {len(xs)}")
        value = p
        for position in range(p.arity, 0, -1):
            value = w_compose(value, position, xs[position - 1])
        return value

    def right_act(self, x: WPoint, i: int, p: WPoint) -> WPoint:
        return w_compose(x, i, p)

    def restrict(self, u: InjectiveMap, x: WPoint) -> WPoint:
        return w_lambda(u, x)

    def key(self, x: WPoint) -> Hashable:
        return (self.name, x.root)

    def sample(self, rng, n: int) -> WPoint:
        from .sampling import random_wpoint
        return random_wpoint(rng, self.base, n)


def eval_truncated_operad_map(
    assign: Callable[[WPoint], Hashable],
    level: int,
    a: WPoint,
    target: EffectiveOperad,
    order: Optional[list[int]] = None,
):
    """Evaluate a map defined on pieces of at most `level` inputs.

    assign sends each prime component to a target element of the same
    arity. The composite is assembled by contracting the skeleton's inner
    edges one at a time; `order` (a permutation of range(#edges)) picks the
    contraction order, and the result must not depend on it.
    """
    dec = w_prime_decompose(a)
    if dec.filtration_level > level:
        raise DomainError(
            f"point at filtration level {dec.filtration_level} exceeds {level}")
    if not dec.components:
        return target.unit()

    vertices: list[WNode] = []
    edges: list[tuple[int, int]] = []
    _preorder(dec.skeleton, vertices, edges)
    values: list = []
    for vertex in vertices:
        value = assign(vertex.label)
        if target.arity_of(value) != vertex.label.arity:
            raise DomainError("assigned value has the wrong arity")
        values.append(value)
    if order is None:
        order = list(range(len(edges)))
    if sorted(order) != list(range(len(edges))):
        raise DomainError("order must be a permutation of the edge indices")

    rows = [list(vertex.children) for vertex in vertices]
    owner = list(range(len(vertices)))

    def find(k: int) -> int:
        while owner[k] != k:
            owner[k] = owner[owner[k]]
            k = owner[k]
        return k

    for edge_index in order:
        parent, child = edges[edge_index]
        parent = find(parent)
        row = rows[parent]
        at = next(j for j, slot in enumerate(row) if slot is vertices[child])
        values[parent] = target.compose(values[parent], at + 1, values[child])
        row[at: at + 1] = rows[child]
        owner[child] = parent

    root = find(0)
    # every slot holds a leaf number now, so the fold only relabels
    return fold(values[root], tuple(rows[root]), None, None, target.restrict)


def _preorder(vertex: WNode, vertices: list[WNode], edges: list[tuple[int, int]]) -> None:
    """Append vertex and the skeleton vertices above it to `vertices` in
    preorder, and each edge as the numbers (lower, upper) of its vertices
    when its upper vertex is appended."""
    k = len(vertices)
    vertices.append(vertex)
    for child in vertex.children:
        if isinstance(child, WNode):
            edges.append((k, len(vertices)))
            _preorder(child, vertices, edges)


def eval_truncated_bimodule_map(
    assign: Callable[[BPoint], Hashable],
    level: int,
    b: BPoint,
    target: Bimodule,
    order: Optional[list[int]] = None,
):
    """Evaluate a bimodule map defined on pieces of at most `level` inputs.

    assign sends each middle piece of the two-sided decomposition to a
    target element of the same arity; boundary labels act through the
    target's own actions. `order` permutes the sequence in which the
    height-1 caps are applied, and the result must not depend on it.
    """
    dec = b_prime_decompose(b)
    if dec.filtration[0] > level:
        raise DomainError(
            f"point at filtration level {dec.filtration[0]} exceeds {level}")

    values = []
    rows = []
    caps = []   # (piece index, cap)
    for k, piece in enumerate(dec.pieces):
        value = assign(piece.point)
        if target.arity_of(value) != piece.point.arity:
            raise DomainError("assigned value has the wrong arity")
        values.append(value)
        rows.append([up.exits[0] if up.point.is_trivial else up for up in piece.exits])
        caps += [(k, up) for up in piece.exits if not up.point.is_trivial]

    if order is None:
        order = list(range(len(caps)))
    if sorted(order) != list(range(len(caps))):
        raise DomainError("order must be a permutation of the cap indices")

    for cap_id in order:
        k, cap = caps[cap_id]
        at = next(j for j, slot in enumerate(rows[k]) if slot is cap)
        values[k] = target.right_act(values[k], at + 1, cap.point.root.label)
        rows[k][at: at + 1] = cap.exits

    if dec.root_label is not None:
        value = target.left_act(dec.root_label, tuple(values))
    else:
        assert len(values) == 1
        value = values[0]
    # every slot holds a leaf number now, so the fold only relabels
    return fold(value, tuple(number for row in rows for number in row), None, None,
                target.restrict)
