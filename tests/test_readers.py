"""The readers and raw-tree checks do their work once, and agree with the
code they replace.

`serialize._tokenize` finds each quote with `str.find` and splits the text
between quotes once; `oracle_tokenize` below is the character loop it
replaces, kept as the reference. `parse_fraction` checks both digit strings
in place; `oracle_parse_fraction` is the version that went through
`parse_int` twice. Both pairs must give the same tokens or value, or the
same DomainError text, on seeded normal, raw and mutated W and B texts and
on a table of edge cases.

The raw-tree checks `_validate_raw` and `_validate_b_raw` return a tree in
which nothing needed coercing as it is, the same object, and rebuild only
the path from what they coerced down to the root. The W normalizer leaves a vertex that
carries its label's text and took in no child untwisted, so `w_lambda`
along a non-bijection twists only the vertices that lost a slot.
"""

import random
from fractions import Fraction as F

import pytest

import opcalc.bconstruction as bc
from opcalc.bconstruction import BNode, _validate_b_raw, b_entry_text
from opcalc.operads import (Associative, LittleDiscs, LittleIntervals, escaped,
                            framed_intervals, parse_fraction, parse_int)
from opcalc.sampling import random_bpoint, random_raw_bnode, random_raw_wnode, random_wpoint
from opcalc.serialize import _tokenize, b_from_jsonable, b_to_jsonable, parse_b_text
from opcalc.trees import DomainError, InjectiveMap, shown
from opcalc.wconstruction import WEdge, WNode, _validate_raw, entry_text, w_lambda, wpoint

D1 = LittleIntervals()
OPERADS = {"d1": D1, "d2": LittleDiscs(2), "assoc": Associative(), "d1_z2": framed_intervals()}
HALVES = ((F(0), F(1, 2)), (F(1, 2), F(1)))
THIRDS = ((F(0), F(1, 3)), (F(1, 3), F(2, 3)), (F(2, 3), F(1)))
# every code point below U+3001 that str.isspace() takes, U+3000 the last
WHITESPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]


# ------------------------------------------------------------------ oracles

def oracle_tokenize(text: str) -> list:
    """The tokenizer as a loop over characters, as it was."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            out.append(("lp" if ch == "(" else "rp", ch))
            i += 1
        elif ch == '"':
            buf = []
            i += 1
            while i < len(text) and text[i] != '"':
                if text[i] == "\\" and i + 1 < len(text):
                    buf.append(text[i + 1])
                    i += 2
                else:
                    buf.append(text[i])
                    i += 1
            if i >= len(text):
                raise DomainError("unterminated quote")
            out.append(("quote", "".join(buf)))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in '()"':
                j += 1
            out.append(("atom", text[i:j]))
            i = j
    return out


def oracle_parse_fraction(text: str) -> F:
    """parse_fraction through `parse_int` twice, as it was."""
    if not isinstance(text, str):
        raise DomainError(f"expected a p/q string, got {shown(text)}")
    if "/" not in text:
        raise DomainError(f"expected p/q, got {shown(text)}")
    num, _, den = text.partition("/")
    try:
        return F(parse_int(num), parse_int(den, signed=False))
    except (DomainError, ZeroDivisionError) as exc:
        raise DomainError(f"bad fraction {shown(text)}") from exc


def outcome(read, text):
    """What read(text) gives: ("ok", value), or ("error", its DomainError text)."""
    try:
        return "ok", read(text)
    except DomainError as exc:
        return "error", str(exc)


# ---------------------------------------------------------------- tokenizer

def _texts(seed: int, count: int):
    """Normal and raw W and B texts over every base operad, seeded."""
    rng = random.Random(seed)
    for _ in range(count):
        op = OPERADS[rng.choice(sorted(OPERADS))]
        n = rng.randint(1, 4)
        yield random_wpoint(rng, op, n).text
        yield random_bpoint(rng, op, n).text
        yield entry_text(op, random_raw_wnode(rng, op, n))
        yield b_entry_text(random_raw_bnode(rng, op, n))


MUTATION_PIECES = ('"', "\\", "\\\\", '\\"', "(", ")", "l1", "e", ":h=", " ", *WHITESPACE)


def _mutated(rng, text: str) -> str:
    """text with one to three random insertions, deletions or cuts."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:at] + rng.choice(MUTATION_PIECES) + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    return text


EDGE_TEXTS = [
    "", "\\", '"', '""', "l1\\", '(v "<[0/1,1/1]>" l1)\\',
    '(v "<[0/1,1/1]>\\',                        # a backslash as the last character
    '(v "<[0/1,1/1]> l1)',                       # an unterminated quote
    '(v "<[0/1,1/1]>\\" l1)',                    # the closing quote escaped
    '(v "a\\\\" l1)', '"\\\\\\\\"', '"\\\\\\""',  # `\\` before a closing quote
    '(v "" l1)', '""""', 'a""b',                 # empty quotes
    '(v "\\a\\(\\)" l1)', 'x"y"z', '(v"q"l1)',
    *(f'(v{ch}"<[0/1,1/1]>{ch}"{ch}l1{ch}){ch}' for ch in WHITESPACE),
    "".join(WHITESPACE), "l1" + "".join(WHITESPACE) + "(",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_tokenizer_agrees_with_the_character_loop_on_edge_cases(text):
    assert outcome(_tokenize, text) == outcome(oracle_tokenize, text)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_tokenizer_agrees_with_the_character_loop(seed):
    rng = random.Random(seed)
    kinds = set()
    for text in _texts(seed, 40):
        for candidate in (text, _mutated(rng, text), _mutated(rng, text)):
            expected = outcome(oracle_tokenize, candidate)
            assert outcome(_tokenize, candidate) == expected, candidate
            kinds.add(expected[0])
    assert kinds == {"ok", "error"}


# -------------------------------------------------------------- fractions

FRACTION_TABLE = ["-0/1", "+1/2", "1/-2", "1/0", "0/0", "01/02", " 1/2", "1/2 ", "1//2",
                  "١/٢", "1_0/3", "/", "", "1/2/3", "-/1", "--1/2", "2/4", "-13/18",
                  "1" * 5000 + "/3", "3/" + "1" * 5000, 5, None, F(1, 2), b"1/2"]


@pytest.mark.parametrize("text", FRACTION_TABLE, ids=repr)
def test_parse_fraction_agrees_with_two_parse_int_calls(text):
    got, expected = outcome(parse_fraction, text), outcome(oracle_parse_fraction, text)
    assert got == expected
    if got[0] == "ok":
        assert type(got[1]) is F


# -------------------------------------------------- the raw checks build nothing

def _has_a_unit_label(entry) -> bool:
    return not isinstance(entry, int) and (entry.label.is_trivial or any(
        _has_a_unit_label(child) for child in entry.children))


@pytest.mark.parametrize("seed", (1, 2))
def test_clean_raw_trees_come_back_as_they_are(seed):
    rng = random.Random(seed)
    with_unit = 0
    for _ in range(40):
        op = OPERADS[rng.choice(sorted(OPERADS))]
        raw_w = random_raw_wnode(rng, op, rng.randint(1, 4))
        assert _validate_raw(op, raw_w) is raw_w
        b = random_bpoint(rng, op, rng.randint(2, 4))
        assert _validate_b_raw(op, b.root, F(0)) is b.root
        # every label is a point, so normal: a unit label is kept too
        raw_b = random_raw_bnode(rng, op, rng.randint(1, 4))
        assert _validate_b_raw(op, raw_b, F(0)) is raw_b
        with_unit += _has_a_unit_label(raw_b)
    assert with_unit


def test_an_int_length_rebuilds_only_its_path_to_the_root():
    kept = WEdge(F(1, 2), WNode(HALVES, (3, 4)))
    raw = WNode(HALVES, (WEdge(1, WNode(HALVES, (1, 2))), kept))
    checked = _validate_raw(D1, raw)
    assert checked is not raw and checked.children[0] is not raw.children[0]
    assert checked.children[1] is kept
    assert type(checked.children[0].length) is F and checked == raw


def test_children_in_a_list_are_rebuilt_as_a_tuple():
    raw = WNode(HALVES, [1, 2])
    checked = _validate_raw(D1, raw)
    assert checked is not raw and checked.children == (1, 2)


def test_an_int_height_rebuilds_and_a_label_stays():
    label = wpoint(D1, WNode(HALVES, (1, 2)))
    assert _validate_b_raw(D1, BNode(label, F(1, 2), (1, 2)), F(0)).label is label
    by_int = BNode(label, 1, (1, 2))
    checked = _validate_b_raw(D1, by_int, F(0))
    assert checked is not by_int and type(checked.height) is F and checked == by_int
    assert checked.label is label


def test_the_b_readers_check_walk_rebuilds_nothing(monkeypatch):
    checked = bc._validate_b_raw
    same = []

    def spy(op, entry, floor, depth=0):
        out = checked(op, entry, floor, depth)
        same.append(out is entry)
        return out

    rng = random.Random(7)
    points = [random_bpoint(rng, D1, rng.randint(2, 4)) for _ in range(20)]
    monkeypatch.setattr(bc, "_validate_b_raw", spy)
    for point in points:
        assert parse_b_text(D1, point.text) == point
        assert b_from_jsonable(D1, b_to_jsonable(point)) == point
    assert len(same) > 40 and all(same)


# ------------------------------------------------------- twists left untouched

class CountingTwists(LittleIntervals):
    """Little intervals that count their `canonical_twist` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.twisted = 0

    def canonical_twist(self, x):
        self.twisted += 1
        return super().canonical_twist(x)


def test_w_lambda_twists_only_the_vertices_that_lost_a_slot():
    # a three-interval root with a cup on an edge at slot 1; keeping leaves
    # 1-3 drops the root's slot 3, and the cup keeps both of its slots
    op = CountingTwists()
    a = wpoint(op, WNode(THIRDS, (WEdge(F(1, 2), WNode(HALVES, (1, 2))), 3, 4)))
    op.twisted = 0
    cut = w_lambda(InjectiveMap(3, 4, (1, 2, 3)), a)
    assert op.twisted == 1
    expected = wpoint(D1, WNode(THIRDS[:2], (WEdge(F(1, 2), WNode(HALVES, (1, 2))), 3)))
    assert cut.text == expected.text
    # the cup vertex kept its carried text, and every text is the fresh one
    node = cut.root
    while True:
        assert node._text == escaped(D1.format_element(node.label))
        edges = [c for c in node.children if isinstance(c, WEdge)]
        if not edges:
            break
        node = edges[0].node


def test_w_lambda_on_the_cup_over_a_cup_twists_nothing():
    # the case that used to re-twist the untouched upper cup
    op = CountingTwists()
    a = wpoint(op, WNode(HALVES, (WEdge(F(1, 2), WNode(HALVES, (1, 2))), 3)))
    op.twisted = 0
    cut = w_lambda(InjectiveMap(2, 3, (1, 2)), a)
    assert op.twisted == 0
    assert cut.text == '(v "<[0/1,1/2]>" (e 1/2 (v "<[0/1,1/2] [1/2,1/1]>" l1 l2)))'
