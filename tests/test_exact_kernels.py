"""Differential tests: the integer kernels of LittleIntervals and
LittleDiscs, `validate` and `compose`, against the Fraction-arithmetic
code they replace.

The oracles below are that code as it was, kept here as the slow
reference; the validators' messages write intervals and balls in element
text and cut echoed values with `shown`, as the library's do. Over seeded
corpora (exact tangencies, shared endpoints, misses by one grid step,
large coprime denominators, malformed entries in any position) both must
accept the same elements and reject the others with the same
DomainError text, so the order in which the checks fire is compared too.
Both compositions must give the same element at every slot, over seeded
elements whose denominators reach 2^61 - 1.
"""

import itertools
import random
from fractions import Fraction as Fr
from functools import partial

import pytest

from opcalc.operads import (
    Associative,
    DomainError,
    FramedElement,
    LittleDiscs,
    LittleIntervals,
    format_fraction,
    framed_intervals,
)
from opcalc.trees import shown

# ------------------------------------------------------------------ oracles


def _vsub(c, d):
    return tuple(a - b for a, b in zip(c, d))


def _norm2(c):
    return sum((t * t for t in c), Fr(0))


def _interval_text(pair) -> str:
    return f"[{format_fraction(pair[0])},{format_fraction(pair[1])}]"


def _ball_text(ball) -> str:
    c, r = ball
    return f"ball(({','.join(map(format_fraction, c))});{format_fraction(r)})"


def oracle_intervals_validate(x) -> None:
    if not isinstance(x, tuple) or not x:
        raise DomainError(f"expected a nonempty tuple of intervals, got {shown(x)}")
    for pair in x:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise DomainError(f"bad interval {shown(pair)}")
        a, b = pair
        if not (isinstance(a, Fr) and isinstance(b, Fr)):
            raise DomainError(f"interval endpoints must be Fractions, got {shown(pair)}")
        if not (0 <= a < b <= 1):
            where = "is empty" if 0 <= b <= a <= 1 else "not inside [0,1]"
            raise DomainError(f"interval {shown(_interval_text(pair))} {where}")
    by_left = sorted(x)
    for (a0, b0), (a1, b1) in zip(by_left, by_left[1:]):
        if b0 > a1:
            raise DomainError(f"intervals {shown(_interval_text((a0, b0)))} and "
                              f"{shown(_interval_text((a1, b1)))} overlap")


def oracle_discs_validate(dim: int, x) -> None:
    if not isinstance(x, tuple) or not x:
        raise DomainError(f"expected a nonempty tuple of balls, got {shown(x)}")
    for ball in x:
        if not (isinstance(ball, tuple) and len(ball) == 2):
            raise DomainError(f"bad ball {shown(ball)}")
        c, r = ball
        if not (isinstance(c, tuple) and len(c) == dim
                and all(isinstance(t, Fr) for t in c)
                and isinstance(r, Fr)):
            raise DomainError(f"bad ball {shown(ball)}")
        if r <= 0:
            raise DomainError(f"radius {shown(format_fraction(r))} is not positive")
        if _norm2(c) > (1 - r) * (1 - r):
            raise DomainError(f"ball {shown(_ball_text(ball))} leaves the unit ball")
    for (c0, r0), (c1, r1) in itertools.combinations(x, 2):
        if _norm2(_vsub(c0, c1)) < (r0 + r1) * (r0 + r1):
            raise DomainError(f"balls {shown(_ball_text((c0, r0)))} and "
                              f"{shown(_ball_text((c1, r1)))} overlap")


def oracle_intervals_compose(x, i, y):
    a, b = x[i - 1]
    w = b - a
    return x[: i - 1] + tuple((a + w * c, a + w * d) for (c, d) in y) + x[i:]


def oracle_discs_compose(x, i, y):
    c, r = x[i - 1]
    block = tuple((tuple(ck + r * dk for ck, dk in zip(c, d)), r * s) for (d, s) in y)
    return x[: i - 1] + block + x[i:]


def outcome(check, x):
    """None when check accepts x, else the DomainError text."""
    try:
        check(x)
    except DomainError as exc:
        return str(exc)
    return None


# ------------------------------------------------------------------ corpora

D1 = LittleIntervals()
D2 = LittleDiscs(2)
D3 = LittleDiscs(3)

# small grids, then large and pairwise coprime denominators
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 12, 100, 128, 997,
                10 ** 9 + 7, 998244353, 2 ** 61 - 1)

MALFORMED = ((), (Fr(0),), (Fr(0), Fr(1), Fr(1)), [Fr(0), Fr(1)], (0, 1),
             (True, Fr(1)), (0.0, Fr(1, 2)), ("0/1", "1/1"), None, "ball")


def _step(rng):
    return Fr(1, rng.choice(DENOMINATORS))


def _interval_entry(rng):
    q = rng.choice(DENOMINATORS)
    a = Fr(rng.randint(-1, q), q)
    return a, a + Fr(rng.randint(-1, q), q)


def interval_corpus(seed: int, count: int):
    """Seeded d1 configurations, valid and not, with the edge cases mixed in."""
    rng = random.Random(seed)
    out = [((Fr(0), Fr(1, 2)), (Fr(1, 2), Fr(1))),          # shared endpoint
           ((Fr(0), Fr(1, 2)), (Fr(1, 2) - Fr(1, 997), Fr(1))),
           ((Fr(0), Fr(1, 3)), (Fr(1, 3) + Fr(1, 2 ** 61 - 1), Fr(1)))]
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            # a chain of intervals cut from one line, some sharing endpoints,
            # some nudged by one grid step to overlap or leave a gap
            cuts = sorted(Fr(rng.randint(0, q), q) for q in
                          (rng.choice(DENOMINATORS) for _ in range(rng.randint(2, 7))))
            x = []
            for a, b in zip(cuts, cuts[1:]):
                nudge = rng.choice((0, 0, 0, -1, 1))
                x.append((a + nudge * _step(rng) if x else a, b))
            x = tuple(p for p in x if rng.random() < 0.9) or ((Fr(0), Fr(1)),)
        elif kind == 1:
            x = tuple(_interval_entry(rng) for _ in range(rng.randint(1, 4)))
        elif kind == 2:
            # one step outside [0,1], or exactly at its ends
            q = rng.choice(DENOMINATORS)
            x = ((Fr(rng.choice((-1, 0)), q), Fr(rng.randint(1, q), q)),
                 (Fr(q - 1, q) if q > 1 else Fr(1, 2), Fr(rng.choice((q, q + 1)), q)))
        else:
            x = list(D1.sample(rng, rng.randint(1, 6)))
            if kind == 4:
                # a malformed entry anywhere, possibly after a bad position
                x.insert(rng.randint(0, len(x)), rng.choice(MALFORMED))
                if rng.random() < 0.5:
                    x.insert(0, _interval_entry(rng))
        x = list(x)
        rng.shuffle(x)
        out.append(tuple(x))
    out += [(), [(Fr(0), Fr(1))], "<[0/1,1/1]>"]
    return out


def _tangent_pair(rng, dim):
    """Two balls touching exactly, along a direction with rational length
    (a Pythagorean or axis direction), possibly shrunk or grown by one step."""
    ux, uy, norm = rng.choice(((3, 4, 5), (5, 12, 13), (8, 15, 17), (1, 0, 1), (0, 1, 1)))
    unit = (Fr(ux, norm), Fr(uy, norm)) + (Fr(0),) * (dim - 2)
    q = rng.choice(DENOMINATORS[:12])
    r0, r1 = Fr(rng.randint(1, q), 4 * q), Fr(rng.randint(1, q), 4 * q)
    c0 = tuple(Fr(rng.randint(-q, q), 8 * q) for _ in range(dim))
    c1 = tuple(a + (r0 + r1) * u for a, u in zip(c0, unit))
    r1 += rng.choice((0, 0, 0, -1, 1)) * _step(rng)
    return (c0, r0), (c1, r1)


def _boundary_ball(rng, dim):
    """A ball touching the unit sphere from inside, or missing by one step."""
    ux, uy, norm = rng.choice(((3, 4, 5), (5, 12, 13), (1, 0, 1), (0, 1, 1)))
    q = rng.choice(DENOMINATORS)
    t = Fr(rng.randint(1, q), q) if q > 1 else Fr(1, 2)
    sign = rng.choice((1, -1))
    c = (sign * t * Fr(ux, norm), t * Fr(uy, norm)) + (Fr(0),) * (dim - 2)
    return c, 1 - t + rng.choice((0, 0, -1, 1)) * _step(rng)


def _grid_ball(rng, dim):
    q = rng.choice(DENOMINATORS)
    c = tuple(Fr(rng.randint(-q, q), q) for _ in range(dim))
    return c, Fr(rng.randint(-1, q), 2 * q)


BAD_BALLS = ((), ((Fr(0),) * 3,), [(Fr(0), Fr(0)), Fr(1, 2)], ((Fr(0), 0), Fr(1, 2)),
             ((Fr(0), Fr(0)), 1), ([Fr(0), Fr(0)], Fr(1, 2)), ((Fr(0),), Fr(1, 2)),
             ((Fr(0), Fr(0), Fr(0)), Fr(1, 2)), ((True, Fr(0)), Fr(1, 4)), None)


def disc_corpus(dim: int, seed: int, count: int):
    """Seeded configurations of balls in dimension dim >= 2."""
    rng = random.Random(seed)
    zeros = (Fr(0),) * (dim - 1)
    out = [(((Fr(-1, 2),) + zeros, Fr(1, 2)), ((Fr(1, 2),) + zeros, Fr(1, 2))),
           (((Fr(-1, 2),) + zeros, Fr(1, 2)), ((Fr(1, 2),) + zeros, Fr(1, 2) + Fr(1, 997))),
           (((Fr(1, 2),) + zeros, Fr(1, 2) + Fr(1, 2 ** 61 - 1)),)]
    op = LittleDiscs(dim)
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            x = list(_tangent_pair(rng, dim))
        elif kind == 1:
            x = [_boundary_ball(rng, dim) for _ in range(rng.randint(1, 3))]
        elif kind == 2:
            x = [_grid_ball(rng, dim) for _ in range(rng.randint(1, 4))]
        elif kind == 3:
            x = list(op.sample(rng, rng.randint(1, 6)))
        elif kind == 4:
            x = list(op.sample(rng, rng.randint(1, 4)))
            x.insert(rng.randint(0, len(x)), rng.choice(BAD_BALLS))
            if rng.random() < 0.5:
                x.insert(0, rng.choice((_grid_ball, _boundary_ball))(rng, dim))
        else:
            x = list(_tangent_pair(rng, dim)) + [_boundary_ball(rng, dim)]
        rng.shuffle(x)
        out.append(tuple(x))
    out += [(), [((Fr(0),) * dim, Fr(1))]]
    return out


# -------------------------------------------------------------------- tests


def _agree(corpus, check, oracle):
    results = [(outcome(check, x), outcome(oracle, x)) for x in corpus]
    for x, (new, old) in zip(corpus, results):
        assert new == old, x
    return [new for new, _ in results]


def _kinds(results):
    """The first word of each error text ("bad", "ball", "radius", ...),
    with "-overlap" added for overlaps; None for accepted elements."""
    return {None if r is None else r.split(" ")[0] + ("-overlap" if "overlap" in r else "")
            for r in results}


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_intervals_agree_with_fraction_oracle(seed):
    results = _agree(interval_corpus(seed, 1500), D1.validate, oracle_intervals_validate)
    assert sum(r is None for r in results) > 100
    assert {"bad", "interval", "intervals-overlap", "expected"} <= _kinds(results)
    assert any("endpoints must be Fractions" in r for r in results if r)


@pytest.mark.parametrize("op", (D2, D3), ids=("d2", "discs3"))
@pytest.mark.parametrize("seed", (1, 2))
def test_discs_agree_with_fraction_oracle(op, seed):
    corpus = disc_corpus(op.dim, seed, 1500)
    results = _agree(corpus, op.validate, lambda x: oracle_discs_validate(op.dim, x))
    assert sum(r is None for r in results) > 100
    assert {None, "bad", "radius", "ball", "balls-overlap", "expected"} <= _kinds(results)


def test_one_dimensional_discs_agree_with_fraction_oracle():
    op = LittleDiscs(1)
    rng = random.Random(5)
    corpus = [tuple((tuple(Fr(rng.randint(-q, q), q) for _ in range(1)),
                     Fr(rng.randint(0, q), 2 * q))
                    for q in (rng.choice(DENOMINATORS) for _ in range(rng.randint(1, 3))))
              for _ in range(1000)]
    corpus += [op.sample(rng, rng.randint(1, 5)) for _ in range(100)]
    results = _agree(corpus, op.validate, lambda x: oracle_discs_validate(1, x))
    assert None in results and any(results)


def test_exact_tangency_is_allowed_and_one_step_is_not():
    touching = (((Fr(-1, 2), Fr(0)), Fr(1, 2)), ((Fr(1, 2), Fr(0)), Fr(1, 2)))
    D2.validate(touching)          # each touches the other and the unit circle
    big = 2 ** 61 - 1
    grown = (touching[0], ((Fr(1, 2), Fr(0)), Fr(1, 2) + Fr(1, big)))
    with pytest.raises(DomainError, match="leaves the unit ball"):
        D2.validate(grown)
    shifted = (touching[0], ((Fr(1, 2) - Fr(1, big), Fr(0)), Fr(1, 2)))
    with pytest.raises(DomainError, match="overlap"):
        D2.validate(shifted)
    D1.validate(((Fr(1, 3), Fr(1)), (Fr(0), Fr(1, 3))))
    with pytest.raises(DomainError, match="overlap"):
        D1.validate(((Fr(1, 3) - Fr(1, big), Fr(1)), (Fr(0), Fr(1, 3))))


def test_shape_errors_fire_after_earlier_position_errors():
    outside = (Fr(-1, 4), Fr(1, 2))
    with pytest.raises(DomainError, match="not inside"):
        D1.validate((outside, (0, 1)))
    with pytest.raises(DomainError, match="must be Fractions"):
        D1.validate(((Fr(0), Fr(1, 2)), (0, 1), outside))
    with pytest.raises(DomainError, match="radius '-1/2' is not positive"):
        D2.validate((((Fr(0), Fr(0)), Fr(-1, 2)), "ball"))


HALF, QUARTER = Fr(1, 2), Fr(1, 4)
ERROR_TEXTS = (
    (D1, ((HALF, HALF), (Fr(0), QUARTER)), "interval '[1/2,1/2]' is empty"),
    (D1, ((Fr(3, 4), QUARTER),), "interval '[3/4,1/4]' is empty"),
    (D1, ((HALF, Fr(3, 2)),), "interval '[1/2,3/2]' not inside [0,1]"),
    (D1, ((-QUARTER, -HALF),), "interval '[-1/4,-1/2]' not inside [0,1]"),
    (D1, ((QUARTER, Fr(1)), (Fr(0), HALF)), "intervals '[0/1,1/2]' and '[1/4,1/1]' overlap"),
    (D1, ((Fr(0), Fr(3 ** 20 + 1, 3 ** 20)),),
     f"interval '[0/1,{3 ** 20 + 1}/{3 ** 20}]' not inside [0,1]"),
    # a long token is cut as `shown` cuts: 87 characters with its quotes
    (D1, ((Fr(0), Fr(3 ** 80 + 1, 3 ** 80)),),
     f"interval '[0/1,{3 ** 80 + 1}/{3 ** 80}]'"[:69] + "... (87 characters) not inside [0,1]"),
    (D2, (((Fr(0), Fr(0)), Fr(0)),), "radius '0/1' is not positive"),
    (D2, (((HALF, HALF), HALF),), "ball 'ball((1/2,1/2);1/2)' leaves the unit ball"),
    (D2, (((Fr(0), Fr(0)), HALF), ((QUARTER, Fr(0)), QUARTER)),
     "balls 'ball((0/1,0/1);1/2)' and 'ball((1/4,0/1);1/4)' overlap"),
)


@pytest.mark.parametrize("op,x,text", ERROR_TEXTS, ids=[t for _, _, t in ERROR_TEXTS])
def test_error_texts_write_elements_as_text(op, x, text):
    oracle = oracle_intervals_validate if op is D1 else partial(oracle_discs_validate, 2)
    assert outcome(op.validate, x) == text
    assert outcome(oracle, x) == text


D1_OK = (Fr(1, 3), Fr(1, 2))
D2_OK = ((Fr(1, 3), Fr(-1, 5)), Fr(1, 7))
ONE_PASS_CASES = (
    # the partial second ball (its first coordinate far outside, its radius
    # negative) must not be checked as if it were a ball of the prefix
    (D2, (D2_OK, ((Fr(5), 0), Fr(-1))), "bad ball ((Fraction(5, 1), 0), Fraction(-1, 1))"),
    (D2, (D2_OK, ((Fr(5), Fr(0), 1), Fr(-1))),
     "bad ball ((Fraction(5, 1), Fraction(0, 1), 1), Fraction(-1, 1))"),
    (D2, (((Fr(5), Fr(0)), Fr(1, 2)), ((Fr(0), 0), Fr(1, 2))),
     "ball 'ball((5/1,0/1);1/2)' leaves the unit ball"),
    (D3, (((Fr(0), Fr(0), Fr(0)), Fr(1, 4)), ((Fr(1, 2), Fr(0), "0"), Fr(1, 4))),
     "bad ball ((Fraction(1, 2), Fraction(0, 1), '0'), Fraction(1, 4))"),
    # an int or bool radius or endpoint is not a Fraction
    (D2, (D2_OK, ((Fr(0), Fr(0)), 1)), "bad ball ((Fraction(0, 1), Fraction(0, 1)), 1)"),
    (D2, (((Fr(0), Fr(0)), True),), "bad ball ((Fraction(0, 1), Fraction(0, 1)), True)"),
    (D1, (D1_OK, (Fr(0), 1)), "interval endpoints must be Fractions, got (Fraction(0, 1), 1)"),
    (D1, ((False, Fr(1, 4)),),
     "interval endpoints must be Fractions, got (False, Fraction(1, 4))"),
    # a centre of the wrong dimension
    (D2, (D2_OK, ((Fr(0),), Fr(1, 4))), "bad ball ((Fraction(0, 1),), Fraction(1, 4))"),
    (D3, (((Fr(0), Fr(0)), Fr(1, 4)),), "bad ball ((Fraction(0, 1), Fraction(0, 1)), Fraction(1, 4))"),
    # one entry of each kind, valid and not
    (D1, (D1_OK,), None),
    (D1, ((Fr(0), Fr(1)),), None),
    (D1, ((Fr(1, 2), Fr(1, 3)),), "interval '[1/2,1/3]' is empty"),
    (D1, ((Fr(1, 2), Fr(4, 3)),), "interval '[1/2,4/3]' not inside [0,1]"),
    (D2, (D2_OK,), None),
    (D2, (((Fr(0), Fr(0)), Fr(1)),), None),
    (D2, (((Fr(3, 5), Fr(-4, 5)), Fr(1, 2 ** 61 - 1)),),
     f"ball 'ball((3/5,-4/5);1/{2 ** 61 - 1})' leaves the unit ball"),
    (D2, (((Fr(0), Fr(0)), Fr(-1, 3)),), "radius '-1/3' is not positive"),
    (D3, (((Fr(0), Fr(1, 2), Fr(-1, 2)), Fr(1, 4)),), None),
    (D3, (((Fr(0), Fr(3, 5), Fr(-4, 5)), Fr(1, 4)),),
     "ball 'ball((0/1,3/5,-4/5);1/4)' leaves the unit ball"),
    # a shape error on the first entry, before a position error after it
    (D1, ([Fr(0), Fr(1)], (Fr(1, 2), Fr(1, 3))), "bad interval [Fraction(0, 1), Fraction(1, 1)]"),
    (D1, ((Fr(0),), D1_OK), "bad interval (Fraction(0, 1),)"),
    (D2, (None, ((Fr(2), Fr(0)), Fr(1, 2))), "bad ball None"),
    (D2, (((Fr(0), Fr(0)), Fr(1, 2), Fr(1)), D2_OK),
     "bad ball ((Fraction(0, 1), Fraction(0, 1)), Fraction(1, 2), Fraction(... (66 characters)"),
)


@pytest.mark.parametrize("op,x,text", ONE_PASS_CASES, ids=[str(t) for _, _, t in ONE_PASS_CASES])
def test_one_pass_validators_agree_with_fraction_oracle(op, x, text):
    oracle = oracle_intervals_validate if op is D1 else partial(oracle_discs_validate, op.dim)
    assert outcome(op.validate, x) == text
    assert outcome(oracle, x) == text


def _coarse_intervals(rng, n):
    """n disjoint intervals with endpoints on grids from DENOMINATORS."""
    ends: set = set()
    while len(ends) < 2 * n:
        q = rng.choice(DENOMINATORS)
        ends.add(Fr(rng.randint(0, q), q))
    ends = sorted(ends)
    x = list(zip(ends[::2], ends[1::2]))
    rng.shuffle(x)
    return tuple(x)


def _coarse_discs(op, rng, n):
    """A sample of n balls composed into one ball whose centre and radius
    have denominators from DENOMINATORS: |centre| + radius stays below 1."""
    q = rng.choice(DENOMINATORS)
    outer = ((tuple(Fr(rng.randint(-q, q), 4 * q) for _ in range(op.dim)),
              Fr(rng.randint(1, q), 2 * q)),)
    return oracle_discs_compose(outer, 1, op.sample(rng, n))


@pytest.mark.parametrize("op", (D1, D2, D3), ids=("d1", "d2", "discs3"))
def test_compose_agrees_with_fraction_oracle(op):
    if op is D1:
        draw, oracle = _coarse_intervals, oracle_intervals_compose
    else:
        draw, oracle = partial(_coarse_discs, op), oracle_discs_compose
    rng = random.Random(f"compose-{op.name}")
    big = 0
    for n in range(1, 7):
        for m in range(1, 7):
            for _ in range(3):
                x, y = draw(rng, n), draw(rng, m)
                op.validate(x)
                op.validate(y)
                for i in range(1, n + 1):
                    composed = op.compose(x, i, y)
                    assert composed == oracle(x, i, y)
                    assert all(type(t) is Fr for t in _coordinates(composed))
                    big += max(t.denominator for t in _coordinates(composed)) >= 2 ** 61 - 1
    assert big > 10


def _coordinates(x):
    for entry in x:
        if isinstance(entry[0], tuple):
            yield from entry[0]
            yield entry[1]
        else:
            yield from entry


def _old_text(tokens) -> str:
    return "<" + " ".join(tokens) + ">"


@pytest.mark.parametrize("op", (D1, D2, D3), ids=("d1", "d2", "discs3"))
def test_token_texts_equal_format_fraction_joins(op):
    """format_element and canonical_twist write p/q inline; their texts
    must equal the element's tokens built with format_fraction, as the
    library built them before, over elements with negative centre
    coordinates and denominators up to 2^61 - 1."""
    token = _interval_text if op is D1 else _ball_text
    draw = _coarse_intervals if op is D1 else partial(_coarse_discs, op)
    rng = random.Random(f"tokens-{op.name}")
    elements = [draw(rng, n) for n in range(1, 7) for _ in range(30)]
    elements += [op.compose(x, rng.randint(1, len(x)), y)
                 for x, y in zip(elements[::2], elements[1::2])]
    big = negative = 0
    for x in elements:
        op.validate(x)
        tokens = [token(entry) for entry in x]
        assert op.format_element(x) == _old_text(tokens)
        sigma, text = op.canonical_twist(x)
        assert text == _old_text(sorted(tokens)) == op.format_element(op.restrict(sigma, x))
        big += any(t.denominator % (2 ** 61 - 1) == 0 for t in _coordinates(x))
        negative += op is not D1 and any(t < 0 for c, _ in x for t in c)
    assert big > 10 and (op is D1 or negative > 10)


def test_format_fraction_on_ints_and_fractions():
    for q in (0, 3, -7, 10 ** 30, Fr(0), Fr(3), Fr(-1, 2), Fr(6, 4), Fr(1, 2 ** 61 - 1)):
        assert format_fraction(q) == f"{Fr(q).numerator}/{Fr(q).denominator}"
    assert format_fraction(-7) == "-7/1"
    assert format_fraction(Fr(6, -4)) == "-3/2"


FRESH_UNITS = (
    (D1, ((Fr(0), Fr(1)),)),
    (LittleDiscs(1), (((Fr(0),), Fr(1)),)),
    (D2, (((Fr(0), Fr(0)), Fr(1)),)),
    (D3, (((Fr(0), Fr(0), Fr(0)), Fr(1)),)),
    (Associative(), (1,)),
    (framed_intervals(), FramedElement(((Fr(0), Fr(1)),), ("e",))),
)


@pytest.mark.parametrize("op,fresh", FRESH_UNITS, ids=lambda v: getattr(v, "name", ""))
def test_cached_unit_equals_a_fresh_unit(op, fresh):
    assert op.unit() == fresh
    assert op.unit() is op.unit()
    op.validate(op.unit())
    assert op.is_unit(fresh)
    rng = random.Random(9)
    near = [op.sample(rng, n) for n in (1, 1, 1, 2, 3)]
    if isinstance(op, LittleIntervals):
        near += [((Fr(0), Fr(1, 2)),), ((Fr(1, 2), Fr(1)),)]
    elif isinstance(op, LittleDiscs):
        near += [(((Fr(0),) * op.dim, Fr(1, 2)),)]
    for x in near:
        assert op.is_unit(x) == (op.arity_of(x) == 1 and op.eq(x, fresh))
