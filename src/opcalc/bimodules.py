"""Bimodules over the resolution, and evaluation through truncations.

`Bimodule` is the interface of a two-sided module over a resolution
operad; `BBimodule` is the height-tree resolution B as one, and
`WSelfBimodule` the resolution W as a bimodule over itself. Their
`validate` is the check for a point of unknown origin: it renormalizes
through `bpoint` or `wpoint` and compares.

`eval_truncated_operad_map` and `eval_truncated_bimodule_map` evaluate a
map that is given only on the prime pieces of at most `level` inputs. Both
run one contraction loop over nodes, each with a value and a row that has
one slot per input: a leaf number, or the node above it. A step finds by
identity the row that holds its node, acts on that row's value at the
slot with the node's value, and splices the node's row in; `order` picks
the sequence of steps.
- W: the nodes are the skeleton's vertices in preorder, the order of
  `components`, valued by `assign` on their components. Step e contracts
  the edge below vertex e + 1, acting by `target.compose`.
- B: the nodes are the slice pieces, valued by `assign`, then the caps in
  planar order, valued by their labels with their exits as rows. Step c
  applies cap c by `target.right_act`; the root label then acts on the
  pieces' values from the left.

`check` (through `suites`), `eval-xi`, `eval-psi`, `lift` and `alpha`
(through `mapping`) and `mu --truncate` load this module; the other W and
B commands do not.
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
    bpoint,
)
from .operads import EffectiveOperad
from .trees import DomainError, InjectiveMap, fold
from .wconstruction import WNode, WOperad, WPoint, w_compose, w_lambda, w_prime_decompose


class Bimodule(ABC):
    """A two-sided module over a resolution operad, with restrictions."""

    name: str
    over: EffectiveOperad

    @abstractmethod
    def arity_of(self, x) -> int: ...

    @abstractmethod
    def validate(self, x) -> None: ...

    @abstractmethod
    def left_act(self, p, xs: tuple): ...

    @abstractmethod
    def right_act(self, x, i: int, p): ...

    @abstractmethod
    def restrict(self, u: InjectiveMap, x): ...

    @abstractmethod
    def sample(self, rng, n: int): ...

    def eq(self, x, y) -> bool:
        return x == y   # elements are canonical values, as in EffectiveOperad

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
        entries = [x.root]   # bpoint takes every label for normal; check each one
        while entries:
            entry = entries.pop()
            if not isinstance(entry, int):
                self.over.validate(entry.label)
                entries.extend(entry.children)

    def left_act(self, p: WPoint, xs: tuple) -> BPoint:
        return b_left_act(p, tuple(xs))

    def right_act(self, x: BPoint, i: int, p: WPoint) -> BPoint:
        return b_right_act(x, i, p)

    def restrict(self, u: InjectiveMap, x: BPoint) -> BPoint:
        return b_lambda(u, x)

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

    def sample(self, rng, n: int) -> WPoint:
        from .sampling import random_wpoint
        return random_wpoint(rng, self.base, n)


def eval_truncated_operad_map(assign: Callable[[WPoint], Hashable], level: int, a: WPoint,
                              target: EffectiveOperad, order: Optional[list[int]] = None):
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
    _preorder(dec.skeleton, vertices)
    values = _assigned(assign, target, [vertex.label for vertex in vertices])
    rows = [list(vertex.children) for vertex in vertices]
    # edge e is the edge below vertex e + 1
    word = _contract(vertices, values, rows, 1, order, target.compose)
    return fold(values[0], word, None, None, target.restrict)


def _preorder(vertex: WNode, vertices: list[WNode]) -> None:
    """Append vertex and the skeleton vertices above it to `vertices` in preorder."""
    vertices.append(vertex)
    for child in vertex.children:
        if isinstance(child, WNode):
            _preorder(child, vertices)


def eval_truncated_bimodule_map(assign: Callable[[BPoint], Hashable], level: int, b: BPoint,
                                target: Bimodule, order: Optional[list[int]] = None):
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

    pieces = list(dec.pieces)
    values = _assigned(assign, target, [piece.point for piece in pieces])
    rows = [[up.exits[0] if up.point.is_trivial else up for up in piece.exits]
            for piece in pieces]
    caps = [up for piece in pieces for up in piece.exits if not up.point.is_trivial]
    values += [cap.point.root.label for cap in caps]
    rows += [list(cap.exits) for cap in caps]
    # cap c is node len(pieces) + c
    word = _contract(pieces + caps, values, rows, len(pieces), order, target.right_act)

    # without a root label there is one piece
    value = (values[0] if dec.root_label is None
             else target.left_act(dec.root_label, tuple(values[:len(pieces)])))
    return fold(value, word, None, None, target.restrict)


def _assigned(assign: Callable, target, points: list) -> list:
    """assign's value at each point, checked to have the point's arity."""
    values = []
    for point in points:
        value = assign(point)
        if target.arity_of(value) != point.arity:
            raise DomainError("assigned value has the wrong arity")
        values.append(value)
    return values


def _contract(nodes: list, values: list, rows: list, first: int,
              order: Optional[list[int]], act: Callable) -> tuple:
    """Contract node first + k at step k, in `order` (the loop of the module
    docstring), emptying each contracted row, and return the leaf word the
    rows hold at the end, when every slot is a leaf number."""
    steps = range(first, len(nodes))
    if order is None:
        order = range(len(steps))
    elif sorted(order) != list(range(len(steps))):
        raise DomainError("order must be a permutation of the contraction steps")
    for step in order:
        k = steps[step]
        node = nodes[k]
        holder, at = next((h, j) for h, row in enumerate(rows)
                          for j, slot in enumerate(row) if slot is node)
        values[holder] = act(values[holder], at + 1, values[k])
        rows[holder][at: at + 1] = rows[k]
        rows[k] = []
    return tuple(number for row in rows for number in row)
