"""Fuzz tests for the base operads' boundaries: whatever text or value comes
in, the only error is DomainError, and formatted elements parse back.

Every test is derandomized with a small example budget, so each run checks
the same inputs and the suite stays deterministic.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc.operads import (
    Associative,
    DomainError,
    FramedElement,
    LittleDiscs,
    LittleIntervals,
    framed_intervals,
)

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
