"""`trees.Record` keeps the behaviour of a frozen dataclass.

Every immutable value of the package derives from it, so these tests pin
what a frozen dataclass promised: fields in order with keywords and
defaults, `__post_init__` checks, equality only within one class, the hash
of the field tuple (set and dict orders, and so every output byte, depend
on it), the `Name(field=value, ...)` repr, no assignment, and a `__dict__`
for `cached_property`. A dataclass built with the same name and fields is
the oracle for the repr and the hash.
"""

import dataclasses
from fractions import Fraction as F

import pytest

from opcalc.bconstruction import BNode, BPoint, bpoint
from opcalc.mapping import CheckResult
from opcalc.operads import LittleIntervals, PointedSet
from opcalc.trees import DomainError, InjectiveMap, Record
from opcalc.wconstruction import WEdge, WNode, WPoint, wpoint

from formal import FNode

D1 = LittleIntervals()
HALVES = ((F(0), F(1, 2)), (F(1, 2), F(1)))


# A planar tree as records of every shape the samples need: one int field
# with a repr of its own, a tuple of records, a record of records. Each
# checks its fields in `__post_init__`, through the generic __init__.

class Leaf(Record):
    number: int

    def __post_init__(self) -> None:
        if not isinstance(self.number, int) or self.number < 1:
            raise DomainError(f"leaf number must be a positive integer, got {self.number!r}")

    def __repr__(self) -> str:
        return f"Leaf({self.number})"


class Numbered(Record):
    """A second record of one int field: equal to no `Leaf`, whatever its number."""

    number: int

    def __repr__(self) -> str:
        return f"Numbered({self.number})"


class Vertex(Record):
    children: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.children, tuple) or not self.children:
            raise DomainError("a vertex needs a nonempty tuple of children")


def _leaf_numbers(node) -> list:
    if isinstance(node, Leaf):
        return [node.number]
    return [number for child in node.children for number in _leaf_numbers(child)]


class Tree(Record):
    root: Record

    def __post_init__(self) -> None:
        word = _leaf_numbers(self.root)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise DomainError(f"leaf numbers {word} are not a bijection onto 1..{len(word)}")


def _cup() -> WPoint:
    return wpoint(D1, WNode(HALVES, (1, 2)))


def _samples():
    cup = _cup()
    node = BNode(cup, F(1, 2), (1, 2))
    return [Leaf(3), Vertex((Leaf(1), Leaf(2))), Tree(Vertex((Leaf(2), Leaf(1)))),
            InjectiveMap(2, 3, (1, 3)), FNode("f", None, (2, 1)), Numbered(1),
            PointedSet("X", ("*", "a"), "*"), WNode(HALVES, (1, 2)),
            WEdge(F(1, 2), WNode(HALVES, (1, 2))), cup, node, bpoint(D1, node),
            CheckResult("unit", True), CheckResult("unit", False, "w")]


def _twin(record):
    """A frozen dataclass with the record's class name and fields, holding its values."""
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    return twin(*(getattr(record, field) for field in cls._fields))


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_hash_is_the_hash_of_the_field_tuple(record):
    values = tuple(getattr(record, field) for field in type(record)._fields)
    assert hash(record) == hash(values) == hash(_twin(record))


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_default_repr_is_the_dataclass_repr(record):
    if type(record).__repr__ is Record.__repr__:
        assert repr(record) == repr(_twin(record))


def test_repr_texts():
    assert repr(Vertex((Leaf(1), Leaf(2)))) == "Vertex(children=(Leaf(1), Leaf(2)))"
    assert repr(WEdge(F(1, 2), WNode("x", (1,)))) == (
        "WEdge(length=Fraction(1, 2), node=WNode(label='x', children=(1,)))")
    assert repr(CheckResult("unit", True)) == "CheckResult(check='unit', passed=True, witness=None)"
    assert repr(PointedSet("X", ("*",), "*")) == "PointedSet(name='X', elements=('*',), basepoint='*')"
    assert repr(_cup()) == 'WPoint(intervals: (v "<[0/1,1/2] [1/2,1/1]>" l1 l2))'
    assert repr(bpoint(D1, BNode(_cup(), F(1, 2), (1, 2)))) == (
        'BPoint(intervals: (v :h=1/2 "(v \\"<[0/1,1/2] [1/2,1/1]>\\" l1 l2)" l1 l2))')


def test_equality_needs_the_same_class():
    node = WNode(HALVES, (1, 2))
    assert node == WNode(HALVES, (1, 2)) and node != WNode(HALVES, (2, 1))
    assert node != (HALVES, (1, 2)) and (HALVES, (1, 2)) != node
    assert node != BNode(HALVES, F(0), (1, 2))
    assert WNode.__eq__(node, (HALVES, (1, 2))) is NotImplemented
    assert Leaf(1) != Numbered(1) and Numbered(1) == Numbered(1)
    assert not isinstance(node, tuple)
    assert len({Leaf(1), Leaf(1), Numbered(1)}) == 2


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_fields_can_be_neither_assigned_nor_deleted(record):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_only_the_normalizer_builds_a_wpoint():
    a = _cup()
    assert WPoint._fields == ("operad", "root")
    with pytest.raises(TypeError, match="wpoint, w_unit or w_corolla"):
        WPoint(a.operad, a.root)
    twin = WPoint._trusted(a.operad, a.root)
    assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)


def test_cached_properties_live_in_the_instance_dict():
    a = _cup()
    assert "text" not in vars(a) and "leaf_word" not in vars(a)
    assert a.text == vars(a)["text"] and a.leaf_word == vars(a)["leaf_word"] == (1, 2)
    b = BPoint(D1, 1)
    assert b.leaf_word == (1,) and vars(b)["leaf_word"] == (1,)


def test_fields_take_keywords_and_defaults():
    assert CheckResult("unit", True).witness is None
    assert CheckResult(check="unit", passed=False, witness="w") == CheckResult("unit", False, "w")
    assert CheckResult("unit", passed=True) == CheckResult("unit", True, None)
    assert InjectiveMap(m=2, n=3, values=(1, 3)) == InjectiveMap(2, 3, (1, 3))
    assert WNode(children=(1,), label="x") == WNode("x", (1,))
    assert CheckResult._fields == ("check", "passed", "witness")


@pytest.mark.parametrize("args, kwargs", [
    (("unit",), {}),
    (("unit", True, None, 1), {}),
    (("unit", True), {"check": "unit"}),
    (("unit", True), {"extra": 1}),
])
def test_generic_init_rejects_bad_fields(args, kwargs):
    with pytest.raises(TypeError):
        CheckResult(*args, **kwargs)


@pytest.mark.parametrize("args", [
    (2, 3, (1, 1)), (2, 3, (1, 4)), (2, 3, (1,)), (1, 1, (True,)), (1, 1, (1.0,)),
    (-1, 0, ()),
])
def test_injections_still_check_their_values(args):
    with pytest.raises(DomainError):
        InjectiveMap(*args)


def test_post_init_runs_through_the_generic_init():
    with pytest.raises(DomainError):
        Leaf(0)
    with pytest.raises(DomainError):
        Vertex(())
    with pytest.raises(DomainError):
        Tree(Vertex((Leaf(1), Leaf(3))))
    with pytest.raises(DomainError):
        PointedSet("X", ("a",), "*")
    with pytest.raises(DomainError):
        PointedSet("X", ("*", "*"), "*")


def test_subclass_fields_follow_the_base_fields():
    class Base(Record):
        a: int

    class Derived(Base):
        b: int = 2

    assert Derived._fields == ("a", "b")
    assert Derived(1) == Derived(1, 2) and Derived(1) != Base(1)
    assert repr(Derived(1)) == f"{Derived.__qualname__}(a=1, b=2)"
