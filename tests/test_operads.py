import random
from fractions import Fraction as Fr

import pytest

from opcalc.operads import (
    Associative,
    DomainError,
    FiniteGroup,
    FramedElement,
    LittleDiscs,
    LittleIntervals,
    PointedSet,
    format_fraction,
    framed_intervals,
    parse_fraction,
    reflect_intervals,
    z2,
)
from opcalc.suites import (
    PowerSequence,
    enumerate_matching_families,
    induced_matching_family,
    is_matching_compatible,
)
from opcalc.trees import InjectiveMap, block_injection, drop_block

from formal import FNode, FormalOperad, eval_formal


def random_injection(rng, m, n):
    return InjectiveMap(m, n, tuple(rng.sample(range(1, n + 1), m)))


def random_order_preserving(rng, m, n):
    return InjectiveMap(m, n, tuple(sorted(rng.sample(range(1, n + 1), m))))


# ----------------------------------------------------------------- fractions

def test_fraction_io():
    assert format_fraction(Fr(0)) == "0/1"
    assert format_fraction(Fr(3)) == "3/1"
    assert format_fraction(Fr(-1, 2)) == "-1/2"
    assert parse_fraction("9/12") == Fr(3, 4)
    with pytest.raises(DomainError):
        parse_fraction("0.5")
    with pytest.raises(DomainError):
        parse_fraction("1/0")


# ----------------------------------------------------------------- intervals

def test_intervals_validation():
    op = LittleIntervals()
    op.validate(((Fr(0), Fr(1, 2)), (Fr(1, 2), Fr(1))))  # touching is fine
    with pytest.raises(DomainError):
        op.validate(((Fr(0), Fr(2, 3)), (Fr(1, 2), Fr(1))))
    with pytest.raises(DomainError):
        op.validate(((Fr(1, 2), Fr(1, 2)),))
    with pytest.raises(DomainError):
        op.validate(((Fr(-1, 4), Fr(1, 2)),))


def test_intervals_compose_fixture():
    op = LittleIntervals()
    x = ((Fr(0), Fr(1, 3)), (Fr(2, 3), Fr(1)))
    y = ((Fr(0), Fr(1, 2)), (Fr(1, 2), Fr(1)))
    out = op.compose(x, 1, y)
    assert out == ((Fr(0), Fr(1, 6)), (Fr(1, 6), Fr(1, 3)), (Fr(2, 3), Fr(1)))


def test_intervals_restrict_is_right_action():
    op = LittleIntervals()
    x = ((Fr(0), Fr(1, 4)), (Fr(1, 4), Fr(1, 2)), (Fr(1, 2), Fr(1)))
    sigma = InjectiveMap(3, 3, (2, 3, 1))
    assert op.restrict(sigma, x) == (x[1], x[2], x[0])


def test_intervals_io_roundtrip():
    op = LittleIntervals()
    rng = random.Random(11)
    for n in (1, 2, 3, 5):
        x = op.sample(rng, n)
        op.validate(x)
        assert op.parse_element(op.format_element(x)) == x
        assert op.from_jsonable(op.to_jsonable(x)) == x


# --------------------------------------------------------------------- balls

def test_discs_compose_fixture():
    op = LittleDiscs(2)
    x = (((Fr(1, 2), Fr(0)), Fr(1, 4)),)
    y = (((Fr(0), Fr(0)), Fr(1, 2)),)
    assert op.compose(x, 1, y) == (((Fr(1, 2), Fr(0)), Fr(1, 8)),)


def test_discs_validation():
    op = LittleDiscs(2)
    with pytest.raises(DomainError):
        op.validate((((Fr(9, 10), Fr(0)), Fr(1, 2)),))
    with pytest.raises(DomainError):
        op.validate((((Fr(0), Fr(0)), Fr(1, 4)), ((Fr(1, 4), Fr(0)), Fr(1, 4))))
    # kissing balls are allowed
    op.validate((((Fr(-1, 4), Fr(0)), Fr(1, 4)), ((Fr(1, 4), Fr(0)), Fr(1, 4))))


def test_discs_sampler_and_io():
    for dim in (1, 2, 3):
        op = LittleDiscs(dim)
        rng = random.Random(7)
        for n in (1, 2, 4, 6):
            x = op.sample(rng, n)
            op.validate(x)
            assert op.parse_element(op.format_element(x)) == x


# --------------------------------------------------------------------- words

def test_assoc_compose_and_restrict():
    op = Associative()
    assert op.compose((2, 1, 3), 2, (1, 2)) == (2, 3, 1, 4)
    u = InjectiveMap(2, 3, (1, 3))
    assert op.restrict(u, (3, 1, 2)) == (2, 1)
    assert op.parse_element(op.format_element((3, 1, 2))) == (3, 1, 2)


# -------------------------------------------------------------------- framed

def test_group_validation():
    g = z2()
    assert g.identity == "e"
    with pytest.raises(DomainError):
        FiniteGroup("bad", (0, 1), lambda a, b: 0)
    # a monoid: "z" absorbs, so nothing times it is the identity
    with pytest.raises(DomainError, match="^element 'z' has no unique inverse$"):
        FiniteGroup("monoid", ("e", "z"), lambda a, b: "e" if a == b == "e" else "z")


def test_reflection_action_axioms():
    op = LittleIntervals()
    rng = random.Random(3)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x, y = op.sample(rng, n), op.sample(rng, m)
        i = rng.randint(1, n)
        assert (reflect_intervals(op.compose(x, i, y))
                == op.compose(reflect_intervals(x), i, reflect_intervals(y)))
        assert reflect_intervals(reflect_intervals(x)) == x
        u = random_injection(rng, rng.randint(1, n), n)
        assert reflect_intervals(op.restrict(u, x)) == op.restrict(u, reflect_intervals(x))
    assert reflect_intervals(op.unit()) == op.unit()


def test_framed_compose_fixture():
    op = framed_intervals()
    x = FramedElement(((Fr(0), Fr(1)),), ("r",))
    y = FramedElement(((Fr(0), Fr(1, 2)),), ("e",))
    out = op.compose(x, 1, y)
    assert out == FramedElement(((Fr(1, 2), Fr(1)),), ("r",))


def test_framed_io_roundtrip():
    op = framed_intervals()
    rng = random.Random(5)
    for n in (1, 2, 4):
        x = op.sample(rng, n)
        op.validate(x)
        assert op.parse_element(op.format_element(x)) == x


# ------------------------------------------------------------ formal operad

def test_formal_basics():
    op = FormalOperad()
    p = op.atom("p", 2)
    q = op.atom("q", 2, payload="tag with spaces")
    assert op.arity_of(p) == 2
    assert op.compose(p, 1, op.unit()) == p
    assert op.compose(op.unit(), 1, p) == p
    pq = op.compose(p, 2, q)
    assert pq == FNode("p", None, (1, FNode("q", "tag with spaces", (2, 3))))
    assert op.parse_element(op.format_element(pq)) == pq


@pytest.mark.parametrize("text", ['(f#"a\\', '(f#"a\\"', "(f Lx)", "(f L1"])
def test_formal_parse_errors_are_domain_errors(text):
    with pytest.raises(DomainError):
        FormalOperad().parse_element(text)


@pytest.mark.parametrize("x", [FNode("p", None, (1, "2")), FNode("p", None, (True,)),
                               FNode("p", None, (FNode("q", None, (2, 1.0)), 1)), True, "L1",
                               FNode("p", None, ())], ids=repr)
def test_formal_validate_refuses_what_is_not_an_expression(x):
    with pytest.raises(DomainError):
        FormalOperad().validate(x)


def test_formal_restrict():
    op = FormalOperad()
    pq = op.compose(op.atom("p", 2), 2, op.atom("q", 2))
    sigma = InjectiveMap(3, 3, (3, 1, 2))
    # leaf sigma(j) is renumbered j
    assert op.restrict(sigma, pq) == FNode("p", None, (2, FNode("q", None, (3, 1))))
    u = InjectiveMap(1, 3, (1,))
    out = op.restrict(u, pq)
    assert out == FNode("p", ("restricted", (1,), None), (1,))


def test_eval_formal_against_direct_composition():
    formal = FormalOperad()
    target = LittleIntervals()
    rng = random.Random(9)
    xp, xq = target.sample(rng, 2), target.sample(rng, 2)
    values = {"p": xp, "q": xq}

    def atom_eval(name, payload, arity):
        assert arity == 2
        return values[name]

    expr = formal.compose(formal.atom("p", 2), 2, formal.atom("q", 2))
    assert eval_formal(expr, target, atom_eval) == target.compose(xp, 2, xq)
    for seed in range(8):
        sigma = random_injection(random.Random(seed), 3, 3)
        assert (eval_formal(formal.restrict(sigma, expr), target, atom_eval)
                == target.restrict(sigma, target.compose(xp, 2, xq)))
    assert eval_formal(formal.unit(), target, atom_eval) == target.unit()


# ----------------------------------------------- operad axioms, spot checked

OPERADS = [LittleIntervals(), LittleDiscs(2), Associative(), framed_intervals()]


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_unit_laws(op):
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 5)
        x = op.sample(rng, n)
        assert op.eq(op.compose(op.unit(), 1, x), x)
        for i in range(1, n + 1):
            assert op.eq(op.compose(x, i, op.unit()), x)


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_associativity_laws(op):
    rng = random.Random(22)
    for _ in range(40):
        n, m, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        x, y, zz = op.sample(rng, n), op.sample(rng, m), op.sample(rng, p)
        i, j = rng.randint(1, n), rng.randint(1, m)
        nested_a = op.compose(op.compose(x, i, y), i + j - 1, zz)
        nested_b = op.compose(x, i, op.compose(y, j, zz))
        assert op.eq(nested_a, nested_b)
        if n >= 2:
            i2 = rng.randint(1, n - 1)
            k2 = rng.randint(i2 + 1, n)
            left = op.compose(op.compose(x, k2, zz), i2, y)
            right = op.compose(op.compose(x, i2, y), k2 + m - 1, zz)
            assert op.eq(left, right)


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_restriction_laws(op):
    rng = random.Random(23)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x, y = op.sample(rng, n), op.sample(rng, m)
        u = random_injection(rng, rng.randint(1, n), n)
        v = random_injection(rng, rng.randint(1, m), m)
        i = rng.randint(1, u.m)
        left = op.compose(op.restrict(u, x), i, op.restrict(v, y))
        right = op.restrict(block_injection(u, i, v), op.compose(x, u(i), y))
        assert op.eq(left, right)
        # functoriality
        w = random_injection(rng, rng.randint(1, u.m), u.m)
        assert op.eq(op.restrict(u.after(w), x), op.restrict(w, op.restrict(u, x)))
        assert op.eq(op.restrict(InjectiveMap.identity(n), x), x)


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_dropped_block_law(op):
    rng = random.Random(24)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x, y = op.sample(rng, n), op.sample(rng, m)
        i = rng.randint(1, n)
        composite = op.compose(x, i, y)
        outside = [t for t in range(1, n + m) if not i <= t <= i + m - 1]
        if not outside:
            continue
        k = rng.randint(1, len(outside))
        w = InjectiveMap(k, n + m - 1, tuple(sorted(rng.sample(outside, k))))
        assert op.eq(op.restrict(w, composite), op.restrict(drop_block(w, i, m), x))


# ------------------------------------------------------------------ matching

def test_matching_counts():
    for size in (1, 2, 3):
        space = PointedSet("X", tuple(f"x{k}" for k in range(size)), "x0")
        seq = PowerSequence(space)
        assert len(enumerate_matching_families(seq, 1)) == 1
        for n in (2, 3):
            fams = enumerate_matching_families(seq, n)
            assert len(fams) == size ** n
            for fam in fams:
                assert is_matching_compatible(seq, fam)
            induced = [induced_matching_family(seq, n, z)
                       for z in seq.elements(n)]
            assert all(any(f.assignments == g.assignments for g in induced) for f in fams)
            seen = {tuple(sorted(f.assignments.items())) for f in fams}
            assert len(seen) == size ** n


def test_matching_rejects_incompatible():
    space = PointedSet("X", ("a", "b"), "a")
    seq = PowerSequence(space)
    fam = induced_matching_family(seq, 3, ("a", "b", "a"))
    assert is_matching_compatible(seq, fam)
    broken = dict(fam.assignments)
    broken[(1,)] = ("b",)
    from opcalc.suites import MatchingFamily
    assert not is_matching_compatible(seq, MatchingFamily(3, broken))
