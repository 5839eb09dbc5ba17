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

    values: list = []
    exits: list[list] = []
    edges: list[tuple[int, int]] = []
    _number_pieces(dec.skeleton, assign, target, values, exits, edges)
    if order is None:
        order = list(range(len(edges)))
    if sorted(order) != list(range(len(edges))):
        raise DomainError("order must be a permutation of the edge indices")

    owner = list(range(len(values)))

    def find(k: int) -> int:
        while owner[k] != k:
            owner[k] = owner[owner[k]]
            k = owner[k]
        return k

    for edge_index in order:
        parent, child = edges[edge_index]
        parent = find(parent)
        position = exits[parent].index(("piece", child)) + 1
        values[parent] = target.compose(values[parent], position, values[child])
        exits[parent][position - 1: position] = exits[child]
        owner[child] = parent

    root = find(0)
    assert all(kind == "leaf" for kind, _ in exits[root])
    # every slot holds a leaf number now, so the fold only relabels
    return fold(values[root], tuple(number for _, number in exits[root]), None, None,
                target.restrict)


def _number_pieces(vertex: WNode, assign: Callable[[WPoint], Hashable], target: EffectiveOperad,
                   values: list, exits: list, edges: list) -> int:
    """Number vertex and the skeleton vertices above it in preorder from
    len(values) on, appending each one's assigned value and its row of
    exits (a leaf number, or the number of the piece above), and each edge
    (parent, child) as its child is numbered; vertex's number."""
    k = len(values)
    piece = vertex.label
    value = assign(piece)
    if target.arity_of(value) != piece.arity:
        raise DomainError("assigned value has the wrong arity")
    values.append(value)
    row: list = []
    exits.append(row)
    for child in vertex.children:
        if isinstance(child, int):
            row.append(("leaf", child))
        else:
            edges.append((k, len(values)))
            row.append(("piece", _number_pieces(child, assign, target, values, exits, edges)))
    return k


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
    caps = []
    for piece_index, (piece, records) in enumerate(dec.pieces):
        value = assign(piece)
        if target.arity_of(value) != piece.arity:
            raise DomainError("assigned value has the wrong arity")
        values.append(value)
        row: list = []
        for record in records:
            if record[0] == "ext":
                row.append(("ext", record[1]))
            else:
                caps.append((piece_index, len(row)))
                row.append(("cap", record[1], record[2], len(caps) - 1))
        rows.append(row)

    if order is None:
        order = list(range(len(caps)))
    if sorted(order) != list(range(len(caps))):
        raise DomainError("order must be a permutation of the cap indices")

    for cap_id in order:
        piece_index, _ = caps[cap_id]
        row = rows[piece_index]
        at = next(k for k, entry in enumerate(row) if entry[0] == "cap" and entry[3] == cap_id)
        _, label, numbers, _ = row[at]
        values[piece_index] = target.right_act(values[piece_index], at + 1, label)
        row[at: at + 1] = [("ext", number) for number in numbers]

    if dec.root_label is not None:
        value = target.left_act(dec.root_label, tuple(values))
    else:
        assert len(values) == 1
        value = values[0]
    # every slot holds a leaf number now, so the fold only relabels
    return fold(value, tuple(number for row in rows for _, number in row), None, None,
                target.restrict)
