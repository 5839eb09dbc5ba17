"""The free operad on named atoms: a recording target for the tests.

An element is a tree of `trees`' entry protocol. A vertex is an `FNode`,
an atom with a name, an optional payload and its children; a child is a
bare leaf number or an `FNode`, and the element that is a bare leaf is the
leaf 1, the unit. Leaves are numbered bijectively; composition grafts and
bijections act by renumbering leaves. Restriction along a non-bijective
injection deletes leaves and tags each atom that lost a slot with the
slots it kept. The tagging makes deletions land in fresh atoms, so this
operad is a recording device rather than a lawful symmetric sequence: it
is kept out of the randomized law suites on purpose.

An element's text is `(p L1 (q#"tag" L2 L3))`: an atom in parentheses with
its payload quoted after `#`, a leaf k as `Lk`. It is read with the tokens
of the W and B texts.
"""

from __future__ import annotations

from typing import Callable, Hashable

from opcalc.operads import EffectiveOperad, escaped, least_word_twist
from opcalc.serialize import _leaf_token, _Reader, _tokenize
from opcalc.trees import (DomainError, InjectiveMap, Record, check_leaf_word, fold, keep_leaves,
                          leaf_word, map_leaves, shown)


class FNode(Record):
    """An atom over its children; its entry label is the pair (name, payload)."""

    name: str
    payload: Hashable
    children: tuple

    @property
    def label(self) -> tuple:
        return self.name, self.payload

    def rebuilt(self, label: tuple, children: tuple) -> FNode:
        return FNode(*label, children)


def _check_nodes(e) -> None:
    """DomainError unless e is a leaf number or an FNode whose children all are."""
    if isinstance(e, bool) or not isinstance(e, (int, FNode)):
        raise DomainError(f"expected a leaf number or an expression, got {shown(e)}")
    if isinstance(e, FNode):
        if not e.children:
            raise DomainError("expression nodes need children")
        for child in e.children:
            _check_nodes(child)


def _tag_cut(kept: InjectiveMap, label: tuple) -> tuple:
    """An atom's label after restriction: tagged with its kept slots when it lost one."""
    if kept.is_permutation:
        return label
    name, payload = label
    return name, ("restricted", kept.values, payload)


def _read_expr(r: _Reader):
    """One expression: a leaf token `Lk`, or an atom's head and children in parentheses."""
    kind, text = r.take()
    if kind == "atom" and text.startswith("L"):
        return _leaf_token(text)
    if kind != "lp":
        raise DomainError(f"bad token {shown(text)}")
    name, payload = r.take("atom")[1], None
    if name.endswith("#"):
        name, payload = name[:-1], r.take("quote")[1]
    children = []
    while r.peek()[0] != "rp":
        children.append(_read_expr(r))
    r.take("rp")
    return FNode(name, payload, tuple(children))


class FormalOperad(EffectiveOperad):
    """The free operad on named atoms; its sampler draws trees of atoms
    named p, q, r over a shuffled leaf word."""

    def __init__(self, name: str = "formal") -> None:
        self.name = name

    def atom(self, name: str, arity: int, payload: Hashable = None) -> FNode:
        if arity < 1:
            raise DomainError("atoms need arity at least 1")
        return FNode(name, payload, tuple(range(1, arity + 1)))

    def arity_of(self, x) -> int:
        return len(leaf_word(x))

    def validate(self, x) -> None:
        _check_nodes(x)
        check_leaf_word(x)

    def unit(self):
        return 1

    def compose(self, x, i: int, y):
        self._check_slot(x, i)
        m = self.arity_of(y)
        shifted = map_leaves(y, lambda k: i + k - 1)
        return map_leaves(x, lambda k: shifted if k == i else k if k < i else k + m - 1)

    def restrict(self, u: InjectiveMap, x):
        self._check_restrict(u, x)
        if u.is_permutation:
            return map_leaves(x, u.inverse())
        return keep_leaves(x, {u(j): j for j in range(1, u.m + 1)}, _tag_cut)

    def canonical_twist(self, x) -> tuple[InjectiveMap, str]:
        # a twist only renumbers leaves, each written `Lk` before " " or ")"
        sigma = least_word_twist(leaf_word(x))
        return sigma, self.format_element(self.restrict(sigma, x))

    def format_element(self, x) -> str:
        if isinstance(x, int):
            return f"L{x}"
        head = x.name
        if x.payload is not None:
            text = x.payload if isinstance(x.payload, str) else repr(x.payload)
            head = f'{x.name}#"{escaped(text)}"'
        return "(" + " ".join([head] + [self.format_element(c) for c in x.children]) + ")"

    def parse_element(self, text: str):
        r = _Reader(_tokenize(text))
        expr = _read_expr(r)
        if not r.done():
            raise DomainError(f"trailing tokens {shown(r.tokens[r.pos:])}")
        self.validate(expr)
        return expr

    def sample(self, rng, n: int):
        if n < 1:
            raise DomainError("arity must be at least 1")
        word = list(range(1, n + 1))
        rng.shuffle(word)
        return _random_expr(rng, word)


def _random_expr(rng, word: list):
    """A random element whose leaves read `word`: one leaf is bare or under
    a unary atom, more leaves are cut into two or more blocks under an atom."""
    if len(word) == 1 and rng.random() < 0.5:
        return word[0]
    k = rng.randint(2, len(word)) if len(word) > 1 else 1
    cuts = sorted(rng.sample(range(1, len(word)), k - 1))
    blocks = [word[a:b] for a, b in zip([0] + cuts, cuts + [len(word)])]
    return FNode(rng.choice("pqr"), None, tuple(_random_expr(rng, block) for block in blocks))


def eval_formal(expr, target: EffectiveOperad, atom_eval: Callable) -> Hashable:
    """Evaluate an expression in a target operad: the target's unit with
    expr in its one slot, folded (`trees.fold`). atom_eval(name, payload,
    arity) supplies the value of each atom."""

    def open_atom(node: FNode) -> tuple:
        k = len(node.children)
        value = atom_eval(node.name, node.payload, k)
        if target.arity_of(value) != k:
            raise DomainError(f"atom {shown(node.name)} evaluated to the wrong arity")
        return value, node.children

    return fold(target.unit(), (expr,), open_atom, target.compose, target.restrict)
