"""Text, JSON and DOT renderings of resolution points.

The text grammar mirrors what entry_text produces:

    point  := "l1" | node
    node   := "(v" QUOTED-LABEL child* ")"
    child  := "l" INT | "(e" FRACTION node ")"

Labels are the base operad's own element format, quoted with backslash
escapes. The W readers validate each label once, through the operad's
`parse_element` or `from_jsonable`, and check the tree's shape as they
read: label arity, edge lengths in [0,1], an edge onto a vertex, leaf
numbers at least 1. They end where `wpoint` ends, in the leaf-number check
and the normalizer, so a parsed point compares equal to the point that
produced the text; only that normalizer makes a `WPoint`. The B readers
read each label through the W reader and end in `bpoint`, whose check walk
keeps each vertex they built as it is. Every reader stops at
MAX_DEPTH nested vertices with a DomainError. W and B texts share the root
reader and the child loop; one DOT writer walks both kinds of tree.
"""

from __future__ import annotations

from typing import Callable, Union

from .bconstruction import BNode, BPoint, bpoint
from .operads import EffectiveOperad, escaped, format_fraction, parse_fraction, parse_int
from .trees import DomainError, check_depth, shown
from .wconstruction import WEdge, WNode, WPoint, _checked_point, _edge, _vertex, label_text

Token = tuple[str, str]
_PARENS = {"(": ("lp", "("), ")": ("rp", ")")}


def _tokenize(text: str) -> list[Token]:
    """The tokens of text: parentheses, atoms and unescaped quoted texts."""
    out: list[Token] = []
    start = 0
    while True:
        quote = text.find('"', start)
        plain = text[start:] if quote < 0 else text[start:quote]
        out += [_PARENS.get(word) or ("atom", word)
                for word in plain.replace("(", " ( ").replace(")", " ) ").split()]
        if quote < 0:
            return out
        start = quote + 1
        # the next quote closes this one unless an odd run of backslashes escapes it
        close = text.find('"', start)
        while close > 0 and text[close - 1] == "\\":
            back = close - 1
            while text[back - 1] == "\\":
                back -= 1
            if (close - back) % 2 == 0:
                break
            close = text.find('"', close + 1)
        if close < 0:
            raise DomainError("unterminated quote")
        body = text[start:close]
        if "\\" in body:   # a backslash stands for the character after it
            body = "\\".join([part.replace("\\", "") for part in body.split("\\\\")])
        out.append(("quote", body))
        start = close + 1


class _Reader:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        if self.pos >= len(self.tokens):
            raise DomainError("unexpected end of input")
        return self.tokens[self.pos]

    def take(self, kind: Union[str, None] = None) -> Token:
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise DomainError(f"expected {kind}, got {shown(tok)}")
        self.pos += 1
        return tok

    def done(self) -> bool:
        return self.pos == len(self.tokens)


def _leaf_token(text: str) -> int:
    """The number of a leaf token l<k>, k matching [0-9]+ and at least 1."""
    try:
        number = parse_int(text[1:], signed=False)
    except DomainError as exc:
        raise DomainError(f"bad leaf token {shown(text)}") from exc
    return _leaf_number(number)


def _leaf_number(number: int) -> int:
    if number < 1:
        raise DomainError(f"bad leaf number {shown(number)}")
    return number


def _read_root(text: str, read_node: Callable[[_Reader], object]):
    """The root a point's text spells: the leaf 1 for the trivial point, or
    what `read_node` reads, with nothing after it."""
    r = _Reader(_tokenize(text))
    first = r.peek()
    if first[0] == "atom" and first[1] == "l1":
        r.take()
        if not r.done():
            raise DomainError("trailing input after trivial point")
        return 1
    root = read_node(r)
    if not r.done():
        raise DomainError("trailing input after point")
    return root


def _open_vertex(r: _Reader, depth: int) -> None:
    """Read the "(v" that opens a vertex below `depth` others."""
    check_depth(depth)
    r.take("lp")
    head = r.take("atom")
    if head[1] != "v":
        raise DomainError(f"expected a vertex, got {shown(head[1])}")


def _read_children(r: _Reader, read_inner: Callable[[], object]) -> tuple:
    """A vertex's children up to its ")": leaf tokens, and what `read_inner`
    reads at any other token."""
    children: list = []
    while (tok := r.peek())[0] != "rp":
        if tok[0] == "atom" and tok[1].startswith("l"):
            r.take()
            children.append(_leaf_token(tok[1]))
        else:
            children.append(read_inner())
    r.take("rp")
    return tuple(children)


def _read_w_node(op: EffectiveOperad, r: _Reader, depth: int = 0) -> WNode:
    _open_vertex(r, depth)
    label = op.parse_element(r.take("quote")[1])
    return _vertex(op, label, _read_children(r, lambda: _read_w_edge(op, r, depth + 1)))


def _read_w_edge(op: EffectiveOperad, r: _Reader, depth: int):
    """An inner edge; a vertex standing directly in a slot is read for
    `_vertex` to refuse."""
    tok = r.peek()
    if tok[0] != "lp":
        raise DomainError(f"unexpected token {shown(tok)}")
    mark = r.pos
    r.take("lp")
    if r.take("atom")[1] != "e":
        r.pos = mark
        return _read_w_node(op, r, depth)
    length = parse_fraction(r.take("atom")[1])
    node = _read_w_node(op, r, depth)
    r.take("rp")
    return _edge(length, node)


def parse_w_text(op: EffectiveOperad, text: str) -> WPoint:
    return _checked_point(op, _read_root(text, lambda r: _read_w_node(op, r)))


# ----------------------------------------------------------------- JSON

def w_to_jsonable(a: WPoint) -> dict:
    return {"kind": "w", "operad": a.operad.name, "root": _w_enc(a.operad, a.root)}


def _w_enc(op: EffectiveOperad, entry) -> dict:
    if isinstance(entry, int):
        return {"leaf": entry}
    if isinstance(entry, WEdge):
        return {"length": format_fraction(entry.length), "node": _w_enc(op, entry.node)}
    return {"label": op.to_jsonable(entry.label),
            "children": [_w_enc(op, c) for c in entry.children]}


def _entry(blob) -> dict:
    if not isinstance(blob, dict):
        raise DomainError(f"expected a JSON object for a tree entry, got {shown(blob)}")
    return blob


def _fields(blob: dict, *names: str) -> list:
    """The named fields of a JSON record, or DomainError naming those missing."""
    missing = [name for name in names if name not in blob]
    if missing:
        raise DomainError(f"record {shown(blob)} lacks {', '.join(missing)}")
    return [blob[name] for name in names]


def _leaf(blob: dict) -> int:
    number = blob["leaf"]
    if isinstance(number, bool) or not isinstance(number, int):
        raise DomainError(f"leaf must be an integer, got {shown(number)}")
    return _leaf_number(number)


def _children(blob: dict) -> list:
    (children,) = _fields(blob, "children")
    if not isinstance(children, list):
        raise DomainError(f"children must be a list, got {shown(children)}")
    return children


def _record_root(data, kind: str, what: str, op: EffectiveOperad):
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise DomainError(f"expected a {what} record")
    if data.get("operad") != op.name:
        raise DomainError(f"point is over {shown(data.get('operad'))}, not {shown(op.name)}")
    (root,) = _fields(data, "root")
    return root


def w_from_jsonable(op: EffectiveOperad, data: dict) -> WPoint:
    root = _w_dec(op, _record_root(data, "w", "w point", op), 0)
    if isinstance(root, WEdge):
        raise DomainError("a point's root must be a vertex or a leaf, not an edge")
    return _checked_point(op, root)


def _w_dec(op: EffectiveOperad, blob, depth: int):
    blob = _entry(blob)
    if "leaf" in blob:
        return _leaf(blob)
    if "length" in blob:
        length, node = _fields(blob, "length", "node")
        return _edge(parse_fraction(length), _w_dec(op, node, depth))
    check_depth(depth)
    (label,) = _fields(blob, "label")
    return _vertex(op, op.from_jsonable(label),
                   tuple(_w_dec(op, c, depth + 1) for c in _children(blob)))


# ------------------------------------------------------------------ DOT

def w_dot(a: WPoint) -> str:
    """A graphviz rendering; vertices show their labels, edges their lengths."""
    op = a.operad
    return _dot(a.root, lambda entry: (
        label_text(op, entry.node) if isinstance(entry, WEdge) else label_text(op, entry),
        f' [label="{format_fraction(entry.length)}"]' if isinstance(entry, WEdge) else ""))


def _dot(root, describe: Callable) -> str:
    """The DOT text of a tree; `describe(entry)` gives an entry's vertex
    label, escaped, and the attributes of the edge down from it."""
    lines = ["digraph point {", '  rankdir=BT;', '  node [fontsize=10];']
    _dot_entry(root, None, describe, lines, [0])
    lines.append("}")
    return "\n".join(lines)


def _dot_entry(entry, parent, describe: Callable, lines: list[str], counter: list[int]) -> None:
    """The lines of entry and what sits above it: its node, numbered from
    `counter`, then its edge down to `parent`, then its children."""
    counter[0] += 1
    leaf = isinstance(entry, int)
    name, shape = (f"leaf{counter[0]}", "box") if leaf else (f"v{counter[0]}", "ellipse")
    label, edge = (entry, "") if leaf else describe(entry)
    lines.append(f'  {name} [shape={shape} label="{label}"];')
    if parent is not None:
        lines.append(f'  {name} -> {parent}{edge};')
    for child in () if leaf else entry.children:
        _dot_entry(child, name, describe, lines, counter)


# ---------------------------------------------------- height trees (text)
#
#     point  := "l1" | node
#     node   := "(v" ":h=" FRACTION QUOTED-RESOLUTION-POINT child* ")"
#     child  := "l" INT | node
#
# The quoted payload is the resolution point's own text form.

def _read_b_node(op: EffectiveOperad, r: _Reader, depth: int = 0) -> BNode:
    _open_vertex(r, depth)
    height_tok = r.take("atom")[1]
    if not height_tok.startswith(":h="):
        raise DomainError(f"expected a height, got {shown(height_tok)}")
    height = parse_fraction(height_tok[3:])
    label = parse_w_text(op, r.take("quote")[1])
    return BNode(label, height, _read_children(r, lambda: _read_b_node(op, r, depth + 1)))


def parse_b_text(op: EffectiveOperad, text: str) -> BPoint:
    return bpoint(op, _read_root(text, lambda r: _read_b_node(op, r)))


def b_to_jsonable(b: BPoint) -> dict:
    return {"kind": "b", "operad": b.operad.name, "root": _b_enc(b.root)}


def _b_enc(entry) -> dict:
    if isinstance(entry, int):
        return {"leaf": entry}
    return {"height": format_fraction(entry.height),
            "label": w_to_jsonable(entry.label),
            "children": [_b_enc(c) for c in entry.children]}


def b_from_jsonable(op: EffectiveOperad, data: dict) -> BPoint:
    return bpoint(op, _b_dec(op, _record_root(data, "b", "height-tree point", op), 0))


def _b_dec(op: EffectiveOperad, blob, depth: int):
    blob = _entry(blob)
    if "leaf" in blob:
        return _leaf(blob)
    check_depth(depth)
    label, height = _fields(blob, "label", "height")
    return BNode(w_from_jsonable(op, label), parse_fraction(height),
                 tuple(_b_dec(op, c, depth + 1) for c in _children(blob)))


def b_dot(b: BPoint) -> str:
    """A graphviz rendering; vertices show height over label text."""
    return _dot(b.root, lambda entry: (
        f"h={format_fraction(entry.height)}\\n{escaped(entry.label.text)}", ""))
