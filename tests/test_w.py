import random
from fractions import Fraction as Fr

import pytest

from opcalc.bimodules import eval_truncated_operad_map
from opcalc.operads import Associative, LittleDiscs, LittleIntervals, framed_intervals
from opcalc.oracles import normalize_random_order
from opcalc.sampling import (
    random_injection,
    random_raw_wnode,
    random_vertex_twists,
    random_wpoint,
)
from opcalc.serialize import w_dot
from opcalc.trees import DomainError, InjectiveMap, block_injection, leaf_word
from opcalc.wconstruction import (
    WEdge,
    WNode,
    WOperad,
    mu,
    w_compose,
    w_corolla,
    w_lambda,
    w_prime_decompose,
    w_unit,
    wpoint,
)

from formal import FormalOperad

D1 = LittleIntervals()
BASES = [LittleIntervals(), Associative(), LittleDiscs(2), framed_intervals()]


def iv(a, b):
    return (Fr(a), Fr(b))


A2 = (iv(0, Fr(1, 2)), iv(Fr(1, 2), 1))
B2 = (iv(0, Fr(1, 3)), iv(Fr(1, 3), 1))
X1 = (iv(0, Fr(1, 2)),)
Y1 = (iv(Fr(1, 2), 1),)


# ------------------------------------------------------------- normal forms

def test_contract_zero_edge():
    raw = WNode(A2, (WEdge(Fr(0), WNode(B2, (1, 2))), 3))
    assert wpoint(D1, raw) == w_corolla(D1, D1.compose(A2, 1, B2))


def test_unit_splice_takes_max_length():
    raw = WNode(X1, (WEdge(Fr(1, 4), WNode(D1.unit(), (WEdge(Fr(1, 2), WNode(Y1, (1,))),))),))
    assert wpoint(D1, raw).root == WNode(X1, (WEdge(Fr(1, 2), WNode(Y1, (1,))),))


def test_unit_absorbed_at_leaf_side():
    raw = WNode(X1, (WEdge(Fr(3, 4), WNode(D1.unit(), (1,))),))
    assert wpoint(D1, raw).root == WNode(X1, (1,))


def test_unit_absorbed_at_root_side():
    raw = WNode(D1.unit(), (WEdge(Fr(3, 4), WNode(X1, (1,))),))
    assert wpoint(D1, raw).root == WNode(X1, (1,))


def test_unit_chain_collapses_to_trivial():
    raw = WNode(D1.unit(), (WEdge(Fr(1, 2), WNode(D1.unit(), (1,))),))
    assert wpoint(D1, raw).is_trivial
    assert wpoint(D1, raw) == w_unit(D1)


def test_validation_rejects_garbage():
    with pytest.raises(DomainError):
        wpoint(D1, WNode(A2, (1, 1)))
    with pytest.raises(DomainError):
        wpoint(D1, WNode(A2, (1,)))
    with pytest.raises(DomainError):
        wpoint(D1, WNode(X1, (WEdge(Fr(3, 2), WNode(X1, (1,))),)))
    with pytest.raises(DomainError):
        wpoint(D1, 2)


@pytest.mark.parametrize("op", BASES, ids=lambda o: o.name)
def test_sigma_relation_invariance(op):
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        raw = random_raw_wnode(rng, op, n)
        twisted = random_vertex_twists(rng, op, raw)
        assert wpoint(op, raw) == wpoint(op, twisted)


@pytest.mark.parametrize("op", BASES, ids=lambda o: o.name)
def test_confluence_against_random_orders(op):
    rng = random.Random(32)
    for trial in range(25):
        n = rng.randint(1, 5)
        raw = random_raw_wnode(rng, op, n)
        base = wpoint(op, raw).root
        for seed in range(4):
            other = normalize_random_order(random.Random((trial, seed).__hash__()), op, raw)
            assert other == base


def test_random_order_splices_a_unit_root_onto_its_leaf():
    # the only step is the root splice, and it leaves the bare leaf
    assert normalize_random_order(random.Random(0), D1, WNode(D1.unit(), (1,))) == 1


# -------------------------------------------------------------- composition

def test_compose_units():
    a = wpoint(D1, WNode(A2, (2, 1)))
    assert w_compose(w_unit(D1), 1, a) == a
    assert w_compose(a, 1, w_unit(D1)) == a
    assert w_compose(a, 2, w_unit(D1)) == a


def test_compose_grafts_with_length_one_edge():
    c1 = w_corolla(D1, A2)
    c2 = w_corolla(D1, B2)
    out = w_compose(c1, 2, c2)
    assert out == wpoint(D1, WNode(A2, (1, WEdge(Fr(1), WNode(B2, (2, 3))))))
    assert out.arity == 3


def _oracle_graft_word(host_word, i, guest_word):
    """Independent model: block substitution on leaf words."""
    m = len(guest_word)
    out = []
    for entry in host_word:
        if entry == i:
            out.extend(i + g - 1 for g in guest_word)
        elif entry < i:
            out.append(entry)
        else:
            out.append(entry + m - 1)
    return tuple(out)


@pytest.mark.parametrize("op", BASES, ids=lambda o: o.name)
def test_compose_associativity(op):
    rng = random.Random(33)
    for _ in range(15):
        n, m, p = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        x = random_wpoint(rng, op, n)
        y = random_wpoint(rng, op, m)
        z = random_wpoint(rng, op, p)
        i, j = rng.randint(1, n), rng.randint(1, m)
        assert w_compose(x, i, y).leaf_word == _oracle_graft_word(x.leaf_word, i, y.leaf_word)
        assert (w_compose(w_compose(x, i, y), i + j - 1, z)
                == w_compose(x, i, w_compose(y, j, z)))
        if n >= 2:
            i2 = rng.randint(1, n - 1)
            k2 = rng.randint(i2 + 1, n)
            assert (w_compose(w_compose(x, k2, z), i2, y)
                    == w_compose(w_compose(x, i2, y), k2 + m - 1, z))


# ----------------------------------------------------------------- lambda

def test_lambda_cascade_fixture():
    c = (iv(0, Fr(1, 4)),)
    raw = WNode(A2, (WEdge(Fr(1, 2), WNode(B2, (1, 2))), WEdge(Fr(1, 3), WNode(c, (3,)))))
    a = wpoint(D1, raw)
    u = InjectiveMap(1, 3, (3,))
    out = w_lambda(u, a)
    expected = wpoint(D1, WNode((A2[1],), (WEdge(Fr(1, 3), WNode(c, (1,))),)))
    assert out == expected


def test_lambda_identity_and_functoriality():
    rng = random.Random(34)
    for op in BASES:
        for _ in range(15):
            n = rng.randint(1, 5)
            a = random_wpoint(rng, op, n)
            assert w_lambda(InjectiveMap.identity(n), a) == a
            m = rng.randint(1, n)
            u = random_injection(rng, m, n)
            k = rng.randint(1, m)
            v = random_injection(rng, k, m)
            assert w_lambda(u.after(v), a) == w_lambda(v, w_lambda(u, a))


def test_lambda_compatible_with_compose():
    rng = random.Random(35)
    for op in (D1, Associative()):
        w_op = WOperad(op)
        for _ in range(20):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            x = random_wpoint(rng, op, n)
            y = random_wpoint(rng, op, m)
            u = random_injection(rng, rng.randint(1, n), n)
            v = random_injection(rng, rng.randint(1, m), m)
            i = rng.randint(1, u.m)
            left = w_compose(w_lambda(u, x), i, w_lambda(v, y))
            right = w_lambda(block_injection(u, i, v), w_compose(x, u(i), y))
            assert w_op.eq(left, right)


# ----------------------------------------------------------------------- mu

def test_mu_two_vertex_fixture():
    raw = WNode(A2, (WEdge(Fr(1, 2), WNode(B2, (2, 1))), 3))
    a = wpoint(D1, raw)
    composite = D1.compose(A2, 1, B2)
    # leaf 2 sits at position 1, leaf 1 at position 2, leaf 3 at position 3
    expected = (composite[1], composite[0], composite[2])
    assert mu(a) == expected
    assert expected == (iv(Fr(1, 6), Fr(1, 2)), iv(0, Fr(1, 6)), iv(Fr(1, 2), 1))


def test_mu_on_generators():
    assert mu(w_unit(D1)) == D1.unit()
    assert mu(w_corolla(D1, A2)) == A2


@pytest.mark.parametrize("op", BASES, ids=lambda o: o.name)
def test_mu_is_a_map_of_operads(op):
    rng = random.Random(36)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_wpoint(rng, op, n)
        b = random_wpoint(rng, op, m)
        i = rng.randint(1, n)
        assert op.eq(mu(w_compose(a, i, b)), op.compose(mu(a), i, mu(b)))
        u = random_injection(rng, rng.randint(1, n), n)
        assert op.eq(mu(w_lambda(u, a)), op.restrict(u, mu(a)))


# -------------------------------------------------------------- decomposition

def rebuilt(op, a):
    """a's decomposition put back together: the truncated evaluator with
    the identity assignment into W(op)."""
    level = w_prime_decompose(a).filtration_level
    return eval_truncated_operad_map(lambda piece: piece, level, a, WOperad(op))


def test_decompose_trivial_and_corolla():
    dec = w_prime_decompose(w_unit(D1))
    assert dec.components == ()
    assert dec.filtration_level == 0
    c = w_corolla(D1, A2)
    dec = w_prime_decompose(c)
    assert len(dec.components) == 1
    assert dec.filtration_level == 2
    assert rebuilt(D1, c) == c


def test_decompose_composite_of_corollas():
    out = w_compose(w_corolla(D1, A2), 2, w_corolla(D1, B2))
    dec = w_prime_decompose(out)
    assert len(dec.components) == 2
    assert dec.filtration_level == 2
    assert len(leaf_word(dec.skeleton)) == 3
    assert rebuilt(D1, out) == out


@pytest.mark.parametrize("op", BASES, ids=lambda o: o.name)
def test_decompose_roundtrip(op):
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = random_wpoint(rng, op, n)
        dec = w_prime_decompose(a)
        assert rebuilt(op, a) == a
        if not a.is_trivial:
            assert dec.filtration_level == max(p.arity for p in dec.components)
            assert len(leaf_word(dec.skeleton)) == n
            for piece in dec.components:
                assert len(w_prime_decompose(piece).components) == 1


# ------------------------------------------------------------ truncated maps

def test_eval_truncated_recovers_mu():
    rng = random.Random(38)
    for op in BASES:
        for _ in range(15):
            n = rng.randint(1, 5)
            a = random_wpoint(rng, op, n)
            level = w_prime_decompose(a).filtration_level
            value = eval_truncated_operad_map(mu, max(level, 1), a, op)
            assert op.eq(value, mu(a))


def test_eval_truncated_identity_assignment():
    rng = random.Random(39)
    w_op = WOperad(D1)
    for _ in range(15):
        n = rng.randint(1, 5)
        a = random_wpoint(rng, D1, n)
        level = w_prime_decompose(a).filtration_level
        value = eval_truncated_operad_map(lambda p: p, max(level, 1), a, w_op)
        assert value == a


def test_eval_truncated_order_independence():
    rng = random.Random(40)
    for _ in range(12):
        n = rng.randint(2, 6)
        a = random_wpoint(rng, D1, n)
        dec = w_prime_decompose(a)
        edge_count = len(dec.components) - 1
        base = eval_truncated_operad_map(mu, max(dec.filtration_level, 1), a, D1)
        for _ in range(5):
            order = list(range(edge_count))
            rng.shuffle(order)
            assert eval_truncated_operad_map(
                mu, max(dec.filtration_level, 1), a, D1, order=order) == base


def test_eval_truncated_level_guard():
    a = w_corolla(D1, (iv(0, Fr(1, 4)), iv(Fr(1, 4), Fr(1, 2)), iv(Fr(1, 2), 1)))
    with pytest.raises(DomainError):
        eval_truncated_operad_map(mu, 2, a, D1)


# -------------------------------------------------- the resolution as operad

def test_w_operad_interface():
    w_op = WOperad(D1)
    rng = random.Random(41)
    x = w_op.sample(rng, 3)
    w_op.validate(x)
    assert w_op.arity_of(x) == 3
    assert w_op.is_unit(w_op.unit())
    text = w_op.format_element(x)
    assert w_op.parse_element(text) == x


def _dot_label(line):
    """The label attribute of one DOT line, read as DOT reads a quoted string
    (a backslash takes the next character literally, and the first other
    quote ends the string), and the rest of the line after it."""
    rest = line[line.index('label="') + len('label="'):]
    out = []
    k = 0
    while rest[k] != '"':
        k += rest[k] == "\\"
        out.append(rest[k])
        k += 1
    return "".join(out), rest[k + 1:]


@pytest.mark.parametrize("payload", ['a\\"b', 'a\\', '"', "plain"])
def test_dot_labels_read_back_as_the_element_text(payload):
    formal = FormalOperad()
    x = formal.atom("f", 2, payload=payload)
    (line,) = [line for line in w_dot(w_corolla(formal, x)).splitlines() if "ellipse" in line]
    assert _dot_label(line) == (formal.format_element(x), "];")
