"""Fuzz tests for the base operads' boundaries: whatever text or value comes
in, the only error is DomainError, and formatted elements parse back.

Every test is derandomized with a small example budget, so each run checks
the same inputs and the suite stays deterministic.
"""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc.bconstruction import b_text
from opcalc.operads import (
    Associative,
    DomainError,
    FormalOperad,
    FramedElement,
    LittleDiscs,
    LittleIntervals,
    framed_intervals,
    parse_fraction,
)
from opcalc.sampling import random_bpoint, random_wpoint
from opcalc.serialize import parse_b_text, parse_w_text
from opcalc.wconstruction import w_text

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
# sign "+", "_" between digits, surrounding spaces and non-ASCII digits.

@pytest.mark.parametrize("text", ["+1/2", "1/+2", "1_0/20", "1/2_0", "١/2", "1/٢",
                                  "1/-2", "-1/-2", "1 /2", "1/ 2", "0x1/2", "1/"])
def test_fraction_spellings_are_canonical(text):
    with pytest.raises(DomainError, match="bad fraction"):
        parse_fraction(text)


def test_fractions_need_not_be_reduced():
    assert parse_fraction("2/4") == parse_fraction("1/2") == parse_fraction(" 1/2 ")
    assert parse_fraction("-0/3") == 0


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
