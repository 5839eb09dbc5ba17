"""Slow references the fast paths are tested against, and the recording operad.

None of this runs in a W or B command; the check suites, the perfbench
harness and the tests load it.

  * `normalize_random_order` reduces a W tree by applying a uniformly
    chosen contraction or unit splice until none applies; agreement with
    `wpoint` across many draws is the confluence check.
    `b_normalize_random_order` is its height-tree twin, against `bpoint`.
  * `_canonical_node_search` tries all k! twists at every vertex; the
    sorting shortcut `canonical_twist` is tested against it.
  * `FormalOperad` is the free operad on named atoms, a recording target,
    and `eval_formal` evaluates its expressions in another operad.

`opcalc.wconstruction` and `opcalc.bconstruction` still answer for the two
random-order reducers by name, loading this module on first access.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Union

from .bconstruction import BEntry, BNode, BPoint, _canonical_point, _validate_b_raw
from .operads import EffectiveOperad, escaped, parse_int
from .trees import DomainError, InjectiveMap, Record, fold, shown
from .wconstruction import WEdge, WNode, _canonical_node, _least_twist, _validate_root, w_compose


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
    return _canonical_node(op, root)[0]


def _canonical_node_search(op: EffectiveOperad, node: WNode) -> WNode:
    """The same normal form by trying all k! twists at every vertex; the
    oracle the sorting shortcut is tested against."""
    entries = tuple(
        child if isinstance(child, int)
        else WEdge(child.length, _canonical_node_search(op, child.node))
        for child in node.children)
    if len(entries) == 1:
        return WNode(node.label, entries)
    return _least_twist(op, node.label, entries)


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
    """Reduce by applying steps in a random order; agreement with bpoint
    across many draws is the confluence check."""
    root = _validate_b_raw(op, root, Fraction(0))
    while isinstance(root, BNode):
        steps = _b_applicable_steps(root)
        if not steps:
            break
        root = _b_apply_step(root, steps[rng.randrange(len(steps))])
    return _canonical_point(op, root)


# ---------------------------------------------------------------------------
# A free recording operad on named atoms
# ---------------------------------------------------------------------------

class FLeaf(Record):
    number: int

    def __repr__(self) -> str:
        return f"FLeaf({self.number})"


class FNode(Record):
    name: str
    payload: Hashable
    children: tuple


FExpr = Union[FLeaf, FNode]


def _fexpr_leaves(e: FExpr, out: list[int]) -> None:
    if isinstance(e, FLeaf):
        out.append(e.number)
    else:
        for c in e.children:
            _fexpr_leaves(c, out)


def _fexpr_map_leaves(e: FExpr, f: Callable[[int], FExpr]) -> FExpr:
    if isinstance(e, FLeaf):
        return f(e.number)
    return FNode(e.name, e.payload, tuple(_fexpr_map_leaves(c, f) for c in e.children))


def _check_fexpr_nodes(e: FExpr) -> None:
    if isinstance(e, FNode):
        if not e.children:
            raise DomainError("expression nodes need children")
        for c in e.children:
            _check_fexpr_nodes(c)


def _fexpr_restrict(e: FExpr, renumber: dict[int, int]) -> FExpr | None:
    """The expression keeping the leaves `renumber` maps, or None if none is kept."""
    if isinstance(e, FLeaf):
        j = renumber.get(e.number)
        return None if j is None else FLeaf(j)
    survivors = []
    slots = []
    for idx, c in enumerate(e.children):
        kept = _fexpr_restrict(c, renumber)
        if kept is not None:
            survivors.append(kept)
            slots.append(idx + 1)
    if not survivors:
        return None
    if len(slots) == len(e.children):
        return FNode(e.name, e.payload, tuple(survivors))
    return FNode(e.name, ("restricted", tuple(slots), e.payload), tuple(survivors))


def _fexpr_text(e: FExpr) -> str:
    if isinstance(e, FLeaf):
        return f"L{e.number}"
    head = e.name
    if e.payload is not None:
        text = e.payload if isinstance(e.payload, str) else repr(e.payload)
        head = f'{e.name}#"{escaped(text)}"'
    return "(" + " ".join([head] + [_fexpr_text(c) for c in e.children]) + ")"


class FormalOperad(EffectiveOperad):
    """The free operad on named atoms, used as a recording target.

    Elements are expression trees whose leaves are numbered bijectively;
    composition grafts, the bare leaf is the unit, and bijections act by
    renumbering leaves. Restriction along a non-bijective injection deletes
    leaves and tags the surviving atoms with the slots they kept. The
    tagging makes deletions land in fresh atoms, so this instance is a
    recording device rather than a lawful symmetric sequence: it is kept
    out of the randomized law suites on purpose.
    """

    def __init__(self, name: str = "formal") -> None:
        self.name = name

    def atom(self, name: str, arity: int, payload: Hashable = None) -> FExpr:
        if arity < 1:
            raise DomainError("atoms need arity at least 1")
        return FNode(name, payload, tuple(FLeaf(k) for k in range(1, arity + 1)))

    def arity_of(self, x) -> int:
        out: list[int] = []
        _fexpr_leaves(x, out)
        return len(out)

    def validate(self, x) -> None:
        if not isinstance(x, (FLeaf, FNode)):
            raise DomainError(f"expected an expression, got {shown(x)}")
        out: list[int] = []
        _fexpr_leaves(x, out)
        if sorted(out) != list(range(1, len(out) + 1)):
            raise DomainError(f"leaf numbers {out} are not a bijection onto 1..{len(out)}")
        _check_fexpr_nodes(x)

    def unit(self):
        return FLeaf(1)

    def compose(self, x, i: int, y):
        self._check_slot(x, i)
        m = self.arity_of(y)
        shifted = _fexpr_map_leaves(y, lambda k: FLeaf(i + k - 1))

        def place(number: int) -> FExpr:
            if number == i:
                return shifted
            return FLeaf(number if number < i else number + m - 1)

        return _fexpr_map_leaves(x, place)

    def restrict(self, u: InjectiveMap, x):
        self._check_restrict(u, x)
        if u.is_permutation:
            inv = u.inverse()
            return _fexpr_map_leaves(x, lambda k: FLeaf(inv(k)))
        if u.m == 0:
            raise DomainError("cannot delete every leaf")
        renumber = {u(j): j for j in range(1, u.m + 1)}
        out = _fexpr_restrict(x, renumber)
        assert out is not None
        return out

    def key(self, x) -> Hashable:
        return x

    def format_element(self, x) -> str:
        return _fexpr_text(x)

    def parse_element(self, text: str):
        tokens = self._tokenize(text)
        expr, rest = self._parse_expr(tokens)
        if rest:
            raise DomainError(f"trailing tokens {shown(rest)}")
        self.validate(expr)
        return expr

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        out: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "()":
                out.append(ch)
                i += 1
            else:
                j = i
                buf = []
                in_quote = False
                while j < len(text):
                    c = text[j]
                    if in_quote:
                        if c == "\\":
                            if j + 1 == len(text):
                                raise DomainError(f"dangling escape at the end of {shown(text)}")
                            buf.append(text[j + 1])
                            j += 2
                            continue
                        buf.append(c)
                        if c == '"':
                            in_quote = False
                        j += 1
                    elif c == '"':
                        in_quote = True
                        buf.append(c)
                        j += 1
                    elif c.isspace() or c in "()":
                        break
                    else:
                        buf.append(c)
                        j += 1
                out.append("".join(buf))
                i = j
        return out

    def _parse_expr(self, tokens: list[str]):
        if not tokens:
            raise DomainError("unexpected end of expression")
        tok, rest = tokens[0], tokens[1:]
        if tok == "(":
            if not rest:
                raise DomainError("unexpected end of expression")
            head, rest = rest[0], rest[1:]
            if "#" in head:
                name, _, quoted = head.partition("#")
                if not (quoted.startswith('"') and quoted.endswith('"')):
                    raise DomainError(f"bad payload in {shown(head)}")
                payload: Hashable = quoted[1:-1]
            else:
                name, payload = head, None
            children = []
            while rest and rest[0] != ")":
                child, rest = self._parse_expr(rest)
                children.append(child)
            if not rest:
                raise DomainError("missing )")
            return FNode(name, payload, tuple(children)), rest[1:]
        if tok.startswith("L"):
            try:
                return FLeaf(parse_int(tok[1:], signed=False)), rest
            except DomainError as exc:
                raise DomainError(f"bad leaf token {shown(tok)}") from exc
        raise DomainError(f"bad token {shown(tok)}")

    def sample(self, rng, n: int):
        raise DomainError("the recording operad has no sampler")


def eval_formal(expr: FExpr, target: EffectiveOperad, atom_eval: Callable) -> Hashable:
    """Evaluate an expression in a target operad.

    atom_eval(name, payload, arity) supplies the value of each atom. The
    composite is assembled positionally and relabelled once at the end so
    that leaf numbers become input labels (`trees.fold`).
    """

    def open_expr(e: FExpr) -> tuple:
        """An atom's value and its slots: a leaf number or a subexpression."""
        if isinstance(e, FLeaf):
            return target.unit(), (e.number,)
        k = len(e.children)
        value = atom_eval(e.name, e.payload, k)
        if target.arity_of(value) != k:
            raise DomainError(f"atom {shown(e.name)} evaluated to the wrong arity")
        return value, tuple(c.number if isinstance(c, FLeaf) else c for c in e.children)

    return fold(*open_expr(expr), open_expr, target.compose, target.restrict)
