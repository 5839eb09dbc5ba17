"""Planar rooted trees with numbered leaves, and injections of finite sets.

A tree with n leaves numbers them bijectively by 1..n; the numbering need
not agree with the planar left-to-right order. Every vertex has at least one
child. The tree that is a single bare leaf is the leaf number 1. Trees are
immutable, and written with the one protocol below.

Injections between the sets {1..m} and {1..n} are first-class values here
because every symmetric or cosimplicial structure downstream is phrased in
terms of them: restriction of labels and block substitution of slots.

W and B points, and the skeleton of a W point's prime decomposition, are
decorated trees written with one protocol. A child is a bare leaf number
(an int) or an entry, and an entry has a `label`, a tuple of `children` and
`rebuilt(label, children)`, which returns the entry with the same
decoration (an edge length, a height) over a new label and new children.
Three walks serve both resolutions:

  * `leaf_word(entry)`: the leaf numbers in planar order;
  * `map_leaves(entry, move)`: each leaf k replaced by `move(k)`, a number
    or a subtree, which renumbers, shifts and grafts;
  * `keep_leaves(entry, renumber, restrict)`: the leaves `renumber` maps,
    renumbered, each label that lost a slot restricted along its kept
    slots, and None when no leaf is kept.

Every evaluation of a decorated tree is one `fold`: compose the vertex values
down the tree, then relabel the inputs by the leaf word.

Every immutable value is a `Record`: a frozen dataclass in behaviour, without
the `dataclasses` and `inspect` imports and the `exec` per class it would cost.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator, Union

if TYPE_CHECKING:
    from .operads import EffectiveOperad


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


# The deepest tree the validating entry points (the point constructors and
# the text and JSON readers) accept, counted in vertices on one path from
# the root. Deeper input raises DomainError long before Python's recursion
# limit; points built by the structure maps are not checked.
MAX_DEPTH = 100


def check_depth(depth: int) -> None:
    """DomainError when a vertex sits below `depth` others and that is too deep."""
    if depth >= MAX_DEPTH:
        raise DomainError(f"tree deeper than {MAX_DEPTH} vertices")


def shown(value, limit: int = 60) -> str:
    """repr(value) for an error message, cut to `limit` characters."""
    try:
        text = repr(value)
    except ValueError:   # an int with more digits than str() converts
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def fold(value, children, open_child: Callable, compose: Callable, restrict: Callable):
    """value with each child's result composed in at the child's slot, the
    last slot first so that earlier slots stay put, then restricted once along
    the inverse of the leaf word, so that input j is the leaf numbered j. A
    child is a leaf number or what `open_child` turns into a (value, children)
    pair, folded the same way."""
    word: list[int] = []
    value = _fold_slots(value, children, open_child, compose, word)
    word.reverse()
    n = len(word)
    # the leaves of a point are numbered 1..n, so the word is a permutation
    return restrict(InjectiveMap._trusted(n, n, tuple(word)).inverse(), value)


open_entry = attrgetter("label", "children")   # fold's `open_child` on an entry


def _fold_slots(value, children, open_child: Callable, compose: Callable, word: list[int]):
    """The composite below one vertex; appends its leaf numbers to `word`
    from the last slot back."""
    for position in range(len(children), 0, -1):
        child = children[position - 1]
        if isinstance(child, int):
            word.append(child)
        else:
            sub_value, sub_children = open_child(child)
            value = compose(value, position,
                            _fold_slots(sub_value, sub_children, open_child, compose, word))
    return value


set_field = object.__setattr__   # how a record's own __init__ sets its fields


class Record:
    """A frozen dataclass in behaviour. The fields are the bases' fields, then
    the class's own annotated names, with class attributes as defaults; the
    hash is the field tuple's, equality needs the same class, and a `__dict__`
    holds `cached_property` values. Classes built in bulk write `__init__`."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a class's own annotations, never its bases' (Python 3.10 on)
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields = fields = cls._fields + own
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        get = attrgetter(*fields)   # a tuple for two fields or more
        cls._key = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        given = dict(zip(self._fields, args), **kwargs)
        values = {**self._defaults, **given}
        if len(given) < len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(self._fields)}")
        for field in self._fields:
            set_field(self, field, values[field])
        self.__post_init__()

    def __post_init__(self) -> None:
        """The checks a subclass runs once its fields are set."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign or delete the field {name!r}")

    __delattr__ = __setattr__


def leaf_word(entry) -> tuple[int, ...]:
    """The leaf numbers below entry (entry itself if it is one) in planar order."""
    if isinstance(entry, int):
        return (entry,)
    word: list[int] = []
    _append_leaf_word(entry, word)
    return tuple(word)


def _append_leaf_word(entry, word: list[int]) -> None:
    for child in entry.children:
        if isinstance(child, int):
            word.append(child)
        else:
            _append_leaf_word(child, word)


def check_leaf_word(entry) -> None:
    """DomainError unless the leaves below entry are numbered 1..n."""
    word = list(leaf_word(entry))
    if sorted(word) != list(range(1, len(word) + 1)):
        raise DomainError(f"leaf numbers {shown(word)} are not a bijection onto 1..{len(word)}")


def map_leaves(entry, move: Callable):
    """entry with each leaf k replaced by move(k), a leaf number or a subtree."""
    if isinstance(entry, int):
        return move(entry)
    return entry.rebuilt(entry.label, tuple([map_leaves(child, move) for child in entry.children]))


def keep_leaves(entry, renumber: dict[int, int], restrict: Callable):
    """entry keeping the leaves `renumber` maps, renumbered by it, with each
    label that lost a slot restricted along its kept slots by
    `restrict(kept, label)`; None when no leaf is kept. A label that keeps
    every slot stays the same object, and so keeps its carried text."""
    children: list = []
    slots: list[int] = []
    for position, child in enumerate(entry.children, start=1):
        kept = (renumber.get(child) if isinstance(child, int)
                else keep_leaves(child, renumber, restrict))
        if kept is not None:
            children.append(kept)
            slots.append(position)
    if not children:
        return None
    if len(children) == len(entry.children):   # the identity restricts to the label itself
        return entry.rebuilt(entry.label, tuple(children))
    kept_slots = InjectiveMap._trusted(len(slots), len(entry.children), tuple(slots))
    return entry.rebuilt(restrict(kept_slots, entry.label), tuple(children))


class TreePoint(Record):
    """A point of a resolution: a root entry, or the leaf 1 for the trivial
    point, over a base operad. A subclass supplies `text`."""

    operad: EffectiveOperad
    root: Union[int, Record]

    def __init__(self, operad: EffectiveOperad, root: Union[int, Record]) -> None:
        set_field(self, "operad", operad)
        set_field(self, "root", root)

    @property
    def is_trivial(self) -> bool:
        return isinstance(self.root, int)

    @property
    def arity(self) -> int:
        return len(self.leaf_word)

    @cached_property
    def leaf_word(self) -> tuple[int, ...]:
        return leaf_word(self.root)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({self.operad.name}: {self.text})"


def require(value, kind: type, what: str) -> None:
    """DomainError unless value is an instance of kind."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DomainError(f"{what} must be a {kind.__name__}, got a {type(value).__name__}")


class InjectiveMap(Record):
    """An injection u: {1..m} -> {1..n}, stored by its tuple of values."""

    m: int
    n: int
    values: tuple[int, ...]

    def __init__(self, m: int, n: int, values: tuple[int, ...]) -> None:
        set_field(self, "m", m)
        set_field(self, "n", n)
        set_field(self, "values", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0 or len(self.values) != self.m:
            raise DomainError(f"expected {self.m} values, got {self.values!r}")
        seen: set[int] = set()
        for v in self.values:
            if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= self.n or v in seen:
                raise DomainError(f"values {self.values!r} are not an injection into 1..{self.n}")
            seen.add(v)

    @classmethod
    def _trusted(cls, m: int, n: int, values: tuple[int, ...]) -> "InjectiveMap":
        """The injection with these values, unchecked: for a caller that
        built them as one, such as a permutation it sorted or inverted.
        Every other value goes through the checking constructor."""
        u = object.__new__(cls)
        set_field(u, "m", m)
        set_field(u, "n", n)
        set_field(u, "values", values)
        return u

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.m:
            raise DomainError(f"argument {j} outside 1..{self.m}")
        return self.values[j - 1]

    def __repr__(self) -> str:
        return f"InjectiveMap({self.m}->{self.n}: {list(self.values)})"

    @property
    def is_permutation(self) -> bool:
        return self.m == self.n

    @classmethod
    def identity(cls, n: int) -> "InjectiveMap":
        return cls(n, n, tuple(range(1, n + 1)))

    def after(self, other: "InjectiveMap") -> "InjectiveMap":
        """Composite self . other, i.e. j -> self(other(j))."""
        if other.n != self.m:
            raise DomainError(f"cannot compose [{other.m}]->[{other.n}] with [{self.m}]->[{self.n}]")
        return InjectiveMap(other.m, self.n, tuple(self(other(j)) for j in range(1, other.m + 1)))

    def inverse(self) -> "InjectiveMap":
        if not self.is_permutation:
            raise DomainError("only permutations invert")
        inv = [0] * self.m
        for j, v in enumerate(self.values, start=1):
            inv[v - 1] = j
        return InjectiveMap._trusted(self.m, self.n, tuple(inv))

    @staticmethod
    def all_order_preserving(m: int, n: int) -> Iterator["InjectiveMap"]:
        for combo in itertools.combinations(range(1, n + 1), m):
            yield InjectiveMap(m, n, combo)


def block_injection(u: InjectiveMap, i: int, v: InjectiveMap) -> InjectiveMap:
    """The injection induced on composites when slot i of the outer factor
    is filled.

    For u: [n'] -> [n], v: [m'] -> [m] and 1 <= i <= n', this is the map
    [n' + m' - 1] -> [n + m - 1] that sends the block i..i+m'-1 into the
    block u(i)..u(i)+m-1 via v, and follows u off the block with values
    shifted past the inserted block.
    """
    if not 1 <= i <= u.m:
        raise DomainError(f"slot {i} out of range 1..{u.m}")
    ui = u(i)

    def off_block(x: int) -> int:
        return x if x < ui else x + v.n - 1

    out: list[int] = []
    for j in range(1, u.m + v.m):
        if j < i:
            out.append(off_block(u(j)))
        elif j <= i + v.m - 1:
            out.append(ui + v(j - i + 1) - 1)
        else:
            out.append(off_block(u(j - v.m + 1)))
    return InjectiveMap(u.m + v.m - 1, u.n + v.n - 1, tuple(out))


def drop_block(w: InjectiveMap, i: int, m: int) -> InjectiveMap:
    """Collapse an untouched block i..i+m-1 of the codomain to the single
    value i.

    w must be an injection into [n + m - 1] whose image avoids the block
    entirely; the result lands in [n] where n = w.n - m + 1.
    """
    if m < 1 or not 1 <= i <= w.n - m + 1:
        raise DomainError(f"block {i}..{i + m - 1} does not fit inside [{w.n}]")
    for x in w.values:
        if i <= x <= i + m - 1:
            raise DomainError(f"image value {x} lies in the block {i}..{i + m - 1}")
    return InjectiveMap(w.m, w.n - m + 1, tuple(x if x < i else x - m + 1 for x in w.values))
