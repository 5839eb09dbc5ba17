"""Fuzz tests for the base operads' boundaries, the W and B text readers,
the JSON decoders and the CLI's exit codes: whatever text, value or JSON
comes in, the only error is DomainError (exit 2 from the CLI), and
formatted elements and encoded points read back.

Every test is derandomized with a small example budget, so each run checks
the same inputs and the suite stays deterministic.
"""

import contextlib
import io
import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opcalc.bconstruction import b_text
from opcalc.cli import main
from opcalc.operads import (
    Associative,
    DomainError,
    FramedElement,
    LittleDiscs,
    LittleIntervals,
    framed_intervals,
    parse_fraction,
)
from opcalc.sampling import random_bpoint, random_wpoint
from opcalc.serialize import (
    b_from_jsonable,
    b_to_jsonable,
    parse_b_text,
    parse_w_text,
    w_from_jsonable,
    w_to_jsonable,
)
from opcalc.wconstruction import w_text

from formal import FormalOperad

OPERADS = {"d1": LittleIntervals(), "d2": LittleDiscs(2), "assoc": Associative(),
           "d1_z2": framed_intervals()}

FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)

# pieces of every element grammar, so that generated texts reach past the
# first syntax check, mixed with arbitrary characters
PIECES = ("<", ">", "[", "]", ",", "/", " ", "ball((", ");", "(", ")", ";", "word(",
          "0", "1", "2", "10", "-", "+", "e", "r", "a", "_", "\\", "٣", "0/1", "1/1",
          "1/2", "1/0", "-1/2", "3/4")
bodies = st.lists(st.one_of(st.sampled_from(PIECES), st.text(max_size=2)),
                  max_size=24).map("".join)
# each operad's own delimiters, so that a third of its texts reach the body
WRAPPERS = {"d1": ("<", ">"), "d2": ("<ball((", ")>"), "assoc": ("word(", ")"),
            "d1_z2": ("(<", "> ; e)")}


def texts(name):
    head, tail = WRAPPERS[name]
    return st.one_of(st.text(max_size=40), bodies, bodies.map(lambda b: head + b + tail))

atoms = st.one_of(st.integers(-3, 3), st.booleans(), st.fractions(max_denominator=8),
                  st.text(max_size=3), st.sampled_from(("e", "r")))
nested = st.recursive(atoms, lambda inner: st.lists(inner, max_size=4).map(tuple),
                      max_leaves=12)
values = st.one_of(nested, st.builds(FramedElement, nested, nested))


@pytest.mark.parametrize("name", sorted(OPERADS))
@FUZZ
@given(data=st.data())
def test_parse_element_raises_only_domain_error(name, data):
    op = OPERADS[name]
    try:
        x = op.parse_element(data.draw(texts(name)))
    except DomainError:
        return
    op.validate(x)


@pytest.mark.parametrize("name", sorted(OPERADS))
@FUZZ
@given(x=values)
def test_validate_raises_only_domain_error(name, x):
    try:
        OPERADS[name].validate(x)
    except DomainError:
        pass


@pytest.mark.parametrize("name", sorted(OPERADS))
@settings(FUZZ, max_examples=40)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 6))
def test_parse_inverts_format(name, seed, n):
    op = OPERADS[name]
    x = op.sample(random.Random(seed), n)
    assert op.parse_element(op.format_element(x)) == x


@pytest.mark.parametrize("x", [(True,), (1.0,), (1, "a"), (1, 2.0), (2, True), [1], ()])
def test_assoc_letters_are_ints(x):
    with pytest.raises(DomainError, match="expected a word listing 1..n"):
        Associative().validate(x)


def test_assoc_parse_rejects_non_integer_letters():
    with pytest.raises(DomainError, match="bad letter"):
        Associative().parse_element("word(1 a)")
    assert Associative().parse_element("word(2 1)") == (2, 1)


@pytest.mark.parametrize("frames", [["e"], "e", 5, None])
def test_framed_frames_must_be_a_tuple(frames):
    op = framed_intervals()
    point = LittleIntervals().unit()
    with pytest.raises(DomainError, match="frames must be a tuple"):
        op.validate(FramedElement(point, frames))
    op.validate(FramedElement(point, ("e",)))


# ------------------------------------------------------- number spellings
#
# Every number in a text is spelled one way: numerators and letters match
# -?[0-9]+, denominators and leaf numbers [0-9]+. int() would also take a
# sign "+", "_" between digits, surrounding spaces and non-ASCII digits, and
# a fraction takes no whitespace around it either.

@pytest.mark.parametrize("text", ["+1/2", "1/+2", "1_0/20", "1/2_0", "١/2", "1/٢",
                                  "1/-2", "-1/-2", "1 /2", "1/ 2", "0x1/2", "1/"])
def test_fraction_spellings_are_canonical(text):
    with pytest.raises(DomainError, match="bad fraction"):
        parse_fraction(text)


def test_fractions_need_not_be_reduced():
    assert parse_fraction("2/4") == parse_fraction("1/2")
    assert parse_fraction("-0/3") == 0


@pytest.mark.parametrize("text", [" 1/2 ", " 1/2", "1/2 ", "\t1/2", "1/2\n", "\xa01/2"])
def test_fractions_take_no_surrounding_whitespace(text):
    with pytest.raises(DomainError, match="bad fraction"):
        parse_fraction(text)


def _padded(data, key):
    """A JSON value with every string under `key` wrapped in spaces."""
    if isinstance(data, dict):
        return {k: f" {v} " if k == key else _padded(v, key) for k, v in data.items()}
    if isinstance(data, list):
        return [_padded(v, key) for v in data]
    return data


def test_json_lengths_and_heights_take_no_whitespace():
    d1 = OPERADS["d1"]
    a = parse_w_text(d1, '(v "<[0/1,1/2] [1/2,1/1]>" l1 (e 1/2 (v "<[0/1,1/3] [2/3,1/1]>" l2 l3)))')
    b = parse_b_text(d1, '(v :h=1/2 "(v \\"<[0/1,1/2] [1/2,1/1]>\\" l1 l2)" l1 l2)')
    with pytest.raises(DomainError, match="bad fraction"):
        w_from_jsonable(d1, _padded(w_to_jsonable(a), "length"))
    with pytest.raises(DomainError, match="bad fraction"):
        b_from_jsonable(d1, _padded(b_to_jsonable(b), "height"))
    assert w_from_jsonable(d1, w_to_jsonable(a)) == a
    assert b_from_jsonable(d1, b_to_jsonable(b)) == b


@pytest.mark.parametrize("text", ["<[0/2,+1_0/2_0]>", "<[0/1,+1/2]>", "<[0/1,1/-2]>",
                                  "<[0/1,1/٢]>", "<[0/1,1_0/20]>"])
def test_interval_texts_reject_other_spellings(text):
    with pytest.raises(DomainError, match="bad fraction"):
        LittleIntervals().parse_element(text)
    assert LittleIntervals().parse_element("<[0/2,10/20]>") == ((0, F(1, 2)),)


@pytest.mark.parametrize("text", ["word(+2 ١)", "word(+2 1)", "word(2 ١)", "word(1_0 1)",
                                  "word(0x2 1)"])
def test_assoc_letters_are_ascii_integers(text):
    with pytest.raises(DomainError, match="bad letter"):
        Associative().parse_element(text)


@pytest.mark.parametrize("token", ["l+2", "l_2", "l٢", "l-2", "l 2"])
def test_leaf_tokens_are_ascii_numbers(token):
    d1 = LittleIntervals()
    with pytest.raises(DomainError):
        parse_w_text(d1, f'(v "<[0/1,1/2] [1/2,1/1]>" l1 {token})')
    with pytest.raises(DomainError):
        parse_b_text(d1, f'(v :h=1/2 "(v \\"<[0/1,1/2] [1/2,1/1]>\\" l1 l2)" l1 {token})')


@pytest.mark.parametrize("token", ["L+2", "L_2", "L٢", "L-2"])
def test_formal_leaves_are_ascii_numbers(token):
    with pytest.raises(DomainError, match="bad leaf token"):
        FormalOperad().parse_element(f"(f L1 {token})")


DIGIT_RUN = re.compile("[0-9]+")
RESPELL = {
    "plus": lambda run: "+" + run,
    "underscore": lambda run: run[:1] + "_" + run[1:] if len(run) > 1 else run + "_",
    "arabic-indic": lambda run: chr(0x660 + int(run[0])) + run[1:],
}


def element_and_point_texts(seed, n):
    rng = random.Random(seed)
    out = [(op.parse_element, op.format_element(op.sample(rng, n)))
           for op in OPERADS.values()]
    d1 = OPERADS["d1"]
    out.append((lambda t: parse_w_text(d1, t), w_text(random_wpoint(rng, d1, n))))
    out.append((lambda t: parse_b_text(d1, t), b_text(random_bpoint(rng, d1, n))))
    return out


@settings(FUZZ, max_examples=60)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 4), pick=st.integers(0, 10 ** 6),
       how=st.sampled_from(sorted(RESPELL)))
def test_respelled_numbers_are_rejected(seed, n, pick, how):
    for parse, text in element_and_point_texts(seed, n):
        parse(text)
        runs = list(DIGIT_RUN.finditer(text))
        run = runs[pick % len(runs)]
        respelled = text[:run.start()] + RESPELL[how](run.group()) + text[run.end():]
        with pytest.raises(DomainError):
            parse(respelled)


# ------------------------------------------------------ W and B text readers

# the readers' own tokens, so that generated texts reach past the tokenizer,
# mixed with arbitrary characters
TREE_PIECES = ("(", ")", "(v ", "(e ", ":h=", '"', '\\"', "\\", " ", "l", "l1", "l2", "l0",
               "0/1", "1/2", "1/1", "3/2", "<[0/1,1/2] [1/2,1/1]>", "<[0/1,1/1]>", "e", "v")
tree_texts = st.one_of(
    st.text(max_size=40),
    st.lists(st.one_of(st.sampled_from(TREE_PIECES), st.text(max_size=2)), max_size=30).map("".join))
TEXT_READERS = {"w": parse_w_text, "b": parse_b_text}
# one character inserted, deleted or replaced at a position taken modulo the length
edits = st.tuples(st.sampled_from(("insert", "delete", "replace")), st.integers(0, 10 ** 6),
                  st.one_of(st.characters(), st.sampled_from('()"\\ lev:h=/0123456789<>[],;-')))


def edited(text, edit):
    how, at, char = edit
    if how == "insert":
        at %= len(text) + 1
        return text[:at] + char + text[at:]
    at %= len(text)
    return text[:at] + ("" if how == "delete" else char) + text[at + 1:]


def sampled_text(kind, op, seed, n):
    rng = random.Random(seed)
    return w_text(random_wpoint(rng, op, n)) if kind == "w" else b_text(random_bpoint(rng, op, n))


def reads(kind, op, text):
    try:
        TEXT_READERS[kind](op, text)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(TEXT_READERS))
@FUZZ
@given(text=tree_texts)
def test_text_readers_raise_only_domain_error(kind, text):
    reads(kind, OPERADS["d1"], text)


@pytest.mark.parametrize("kind", sorted(TEXT_READERS))
@pytest.mark.parametrize("name", sorted(OPERADS))
@settings(FUZZ, max_examples=40)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 4), edit=edits)
def test_edited_point_texts_raise_only_domain_error(kind, name, seed, n, edit):
    op = OPERADS[name]
    text = sampled_text(kind, op, seed, n)
    assert reads(kind, op, text)
    reads(kind, op, edited(text, edit))


@settings(FUZZ, max_examples=12)
@given(kind=st.sampled_from(sorted(TEXT_READERS)), name=st.sampled_from(sorted(OPERADS)),
       seed=st.integers(0, 2 ** 32), n=st.integers(1, 3), edit=edits)
def test_edited_point_texts_exit_two_from_the_cli(kind, name, seed, n, edit):
    op = OPERADS[name]
    text = edited(sampled_text(kind, op, seed, n), edit)
    assume(not text.strip().startswith("{"))   # the CLI reads that as JSON
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["normalize", "--operad", name, "--kind", kind, text])
    if reads(kind, op, text.strip()):
        assert code == 0 and err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == "" and err.getvalue().startswith("error: ")


# ------------------------------------------------------------ JSON records

# the decoders' own field names and values, so that generated records get
# past the first schema check, mixed with arbitrary JSON
FIELDS = ("kind", "operad", "root", "leaf", "label", "children", "length", "node",
          "height")
json_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10 ** 6), st.floats(allow_nan=False),
    st.text(max_size=4),
    st.sampled_from(("w", "b", "intervals", "0/1", "1/2", "1/1", "3/2",
                     "1/0", "l1", "<[0/1,1/2]>", "<[0/1,1/2] [1/2,1/1]>")))
json_values = st.recursive(
    json_atoms,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.one_of(st.sampled_from(FIELDS), st.text(max_size=2)),
                                            inner, max_size=4)),
    max_leaves=24)
records = st.one_of(
    json_values,
    st.fixed_dictionaries({"kind": st.sampled_from(("w", "b")),
                           "operad": st.just("intervals"), "root": json_values}))
DECODERS = {"w": lambda data: w_from_jsonable(OPERADS["d1"], data),
            "b": lambda data: b_from_jsonable(OPERADS["d1"], data)}


@pytest.mark.parametrize("kind", sorted(DECODERS))
@FUZZ
@given(data=records)
def test_json_decoders_raise_only_domain_error(kind, data):
    try:
        DECODERS[kind](data)
    except DomainError:
        pass


@pytest.mark.parametrize("name", sorted(OPERADS))
@settings(FUZZ, max_examples=40)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 5))
def test_json_round_trips(name, seed, n):
    op = OPERADS[name]
    rng = random.Random(seed)
    a, b = random_wpoint(rng, op, n), random_bpoint(rng, op, n)
    assert w_from_jsonable(op, json.loads(json.dumps(w_to_jsonable(a)))) == a
    assert b_from_jsonable(op, json.loads(json.dumps(b_to_jsonable(b)))) == b
