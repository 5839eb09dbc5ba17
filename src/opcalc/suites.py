"""Randomized law suites packaged as named check reports.

Each suite draws seeded samples, evaluates a fixed list of named checks,
and returns the same CheckReport the map checks in mapping produce: one
entry per law, first failing witness kept. A law that no sample reached,
or every law when there are zero samples, is marked vacuous, and the CLI
flags it so that silence is not mistaken for evidence.

The power sequences and matching families that `suite_matching` counts
are defined here too; no other library code uses them.
"""

from __future__ import annotations

import itertools
import random
from typing import Hashable, Iterator, Mapping

from .bconstruction import b_text, bpoint
from .bimodules import Bimodule
from .mapping import CheckReport, Recorder
from .operads import EffectiveOperad, PointedSet
from .oracles import b_normalize_random_order, normalize_random_order
from .sampling import (
    random_b_twists,
    random_injection,
    random_raw_bnode,
    random_raw_wnode,
    random_vertex_twists,
)
from .trees import DomainError, InjectiveMap, Record, block_injection, drop_block
from .wconstruction import w_text, wpoint

# random reduction orders the confluence suites compare per sample
ORDERS = 10


def suite_operad_axioms(op: EffectiveOperad, samples: int = 500,
                        seed: int = 0) -> CheckReport:
    """Unit, associativity and restriction laws on seeded random elements."""
    rng = random.Random(seed)
    rec = Recorder()
    for _ in range(samples):
        n = rng.randint(1, 4)
        x = op.sample(rng, n)
        wx = op.format_element(x)
        rec("unit-left", op.eq(op.compose(op.unit(), 1, x), x), wx)
        i = rng.randint(1, n)
        rec("unit-right", op.eq(op.compose(x, i, op.unit()), x), f"i={i} x={wx}")
        m = rng.randint(1, 3)
        y = op.sample(rng, m)
        j = rng.randint(1, m)
        z = op.sample(rng, rng.randint(1, 3))
        rec("assoc-nested",
            op.eq(op.compose(op.compose(x, i, y), i + j - 1, z),
                  op.compose(x, i, op.compose(y, j, z))),
            f"i={i} j={j} x={wx} y={op.format_element(y)} z={op.format_element(z)}")
        if n >= 2:
            i2, k2 = sorted(rng.sample(range(1, n + 1), 2))
            rec("assoc-disjoint",
                op.eq(op.compose(op.compose(x, k2, z), i2, y),
                      op.compose(op.compose(x, i2, y), k2 + m - 1, z)),
                f"i={i2} k={k2} x={wx}")
        rec("restrict-identity", op.eq(op.restrict(InjectiveMap.identity(n), x), x), wx)
        u = random_injection(rng, rng.randint(1, n), n)
        v = random_injection(rng, rng.randint(1, u.m), u.m)
        rec("restrict-functorial",
            op.eq(op.restrict(u.after(v), x), op.restrict(v, op.restrict(u, x))),
            f"u={u.values} v={v.values} x={wx}")
        iu = rng.randint(1, u.m)
        vy = random_injection(rng, rng.randint(1, m), m)
        rec("restrict-compose",
            op.eq(op.compose(op.restrict(u, x), iu, op.restrict(vy, y)),
                  op.restrict(block_injection(u, iu, vy), op.compose(x, u(iu), y))),
            f"u={u.values} i={iu} v={vy.values} x={wx}")
        if n >= 2:
            # an injection into the composite that misses block i..i+m-1
            outside = [p for p in range(1, n + m) if not i <= p <= i + m - 1]
            size = rng.randint(1, len(outside))
            w = InjectiveMap(size, n + m - 1, tuple(rng.sample(outside, size)))
            rec("restrict-dropped",
                op.eq(op.restrict(w, op.compose(x, i, y)),
                      op.restrict(drop_block(w, i, m), x)),
                f"w={w.values} i={i} m={m} x={wx}")
    order = ("unit-left", "unit-right", "assoc-nested", "assoc-disjoint",
             "restrict-identity", "restrict-functorial", "restrict-compose",
             "restrict-dropped")
    return rec.report(f"operad-axioms:{op.name}", seed, samples, order)


def suite_w_confluence(op: EffectiveOperad, samples: int = 100,
                       seed: int = 0) -> CheckReport:
    """Random reduction orders and vertex twists reach one normal form."""
    rng = random.Random(seed)
    rec = Recorder()
    for _ in range(samples):
        raw = random_raw_wnode(rng, op, rng.randint(1, 5))
        base = wpoint(op, raw)
        for _ in range(ORDERS):
            other = normalize_random_order(random.Random(rng.randrange(10 ** 9)), op, raw)
            rec("confluence", other == base.root, w_text(base))
        twisted = random_vertex_twists(rng, op, raw)
        rec("twist-invariance", wpoint(op, twisted) == base, w_text(base))
    return rec.report(f"w-confluence:{op.name}", seed, samples,
                      ("confluence", "twist-invariance"))


def suite_b_confluence(op: EffectiveOperad, samples: int = 100,
                       seed: int = 0) -> CheckReport:
    """Same confluence story one level up, for height trees."""
    rng = random.Random(seed)
    rec = Recorder()
    for _ in range(samples):
        raw = random_raw_bnode(rng, op, rng.randint(1, 5))
        base = bpoint(op, raw)
        for _ in range(ORDERS):
            other = b_normalize_random_order(random.Random(rng.randrange(10 ** 9)), op, raw)
            rec("confluence", other == base, b_text(base))
        twisted = random_b_twists(rng, op, raw)
        rec("twist-invariance", bpoint(op, twisted) == base, b_text(base))
    return rec.report(f"b-confluence:{op.name}", seed, samples,
                      ("confluence", "twist-invariance"))


def suite_bimodule_axioms(bim: Bimodule, samples: int = 100,
                          seed: int = 0) -> CheckReport:
    """Two-sided action, interchange and restriction laws for a bimodule."""
    rng = random.Random(seed)
    over = bim.over
    rec = Recorder()
    for _ in range(samples):
        b = bim.sample(rng, rng.randint(1, 4))
        n = bim.arity_of(b)
        rec("left-unit", bim.eq(bim.left_act(over.unit(), (b,)), b), "")
        i = rng.randint(1, n)
        rec("right-unit", bim.eq(bim.right_act(b, i, over.unit()), b), f"i={i}")

        k = rng.randint(1, 3)
        p = over.sample(rng, k)
        wp = over.format_element(p)
        ik = rng.randint(1, k)
        m = rng.randint(1, 3)
        q = over.sample(rng, m)
        ys = tuple(bim.sample(rng, rng.randint(1, 3)) for _ in range(k + m - 1))
        inner = bim.left_act(q, ys[ik - 1: ik + m - 1])
        rec("left-compose",
            bim.eq(bim.left_act(over.compose(p, ik, q), ys),
                   bim.left_act(p, ys[: ik - 1] + (inner,) + ys[ik + m - 1:])),
            f"p={wp} i={ik} q={over.format_element(q)}")

        j = rng.randint(1, m)
        r = over.sample(rng, rng.randint(1, 3))
        rec("right-nested",
            bim.eq(bim.right_act(bim.right_act(b, i, q), i + j - 1, r),
                   bim.right_act(b, i, over.compose(q, j, r))),
            f"i={i} j={j} q={over.format_element(q)}")
        i2 = rng.randint(1, n)
        if i2 != i:
            lo, hi = sorted((i, i2))
            plo = q if lo == i else r
            phi = q if hi == i else r
            rec("right-disjoint",
                bim.eq(bim.right_act(bim.right_act(b, lo, plo),
                                     hi + over.arity_of(plo) - 1, phi),
                       bim.right_act(bim.right_act(b, hi, phi), lo, plo)),
                f"lo={lo} hi={hi}")

        xs = tuple(bim.sample(rng, rng.randint(1, 3)) for _ in range(k))
        jj = rng.randint(1, k)
        local = rng.randint(1, bim.arity_of(xs[jj - 1]))
        offset = sum(bim.arity_of(x) for x in xs[: jj - 1])
        replaced = xs[: jj - 1] + (bim.right_act(xs[jj - 1], local, q),) + xs[jj:]
        rec("interchange",
            bim.eq(bim.right_act(bim.left_act(p, xs), offset + local, q),
                   bim.left_act(p, replaced)),
            f"p={wp} block={jj} slot={local}")

        # blockwise restriction against the left action: keep some blocks
        # (in any order), restrict inside each kept block, and compare with
        # restricting the assembled composite by the matching injection
        kept = random_injection(rng, rng.randint(1, k), k)
        vs = tuple(
            random_injection(rng, rng.randint(1, bim.arity_of(xs[kept(j) - 1])),
                             bim.arity_of(xs[kept(j) - 1]))
            for j in range(1, kept.m + 1))
        offsets = [0]
        for x in xs:
            offsets.append(offsets[-1] + bim.arity_of(x))
        values: list[int] = []
        for j in range(1, kept.m + 1):
            base_off = offsets[kept(j) - 1]
            values.extend(base_off + vs[j - 1](l) for l in range(1, vs[j - 1].m + 1))
        big = InjectiveMap(len(values), offsets[-1], tuple(values))
        rec("restrict-left",
            bim.eq(bim.restrict(big, bim.left_act(p, xs)),
                   bim.left_act(over.restrict(kept, p),
                                tuple(bim.restrict(vs[j - 1], xs[kept(j) - 1])
                                      for j in range(1, kept.m + 1)))),
            f"kept={kept.values} p={wp}")

        u = random_injection(rng, rng.randint(1, n), n)
        vq = random_injection(rng, rng.randint(1, m), m)
        iu = rng.randint(1, u.m)
        rec("restrict-right",
            bim.eq(bim.right_act(bim.restrict(u, b), iu, over.restrict(vq, q)),
                   bim.restrict(block_injection(u, iu, vq),
                                bim.right_act(b, u(iu), q))),
            f"u={u.values} i={iu} v={vq.values}")
        vv = random_injection(rng, rng.randint(1, u.m), u.m)
        rec("restrict-functorial",
            bim.eq(bim.restrict(vv, bim.restrict(u, b)),
                   bim.restrict(u.after(vv), b)),
            f"u={u.values} v={vv.values}")
    order = ("left-unit", "right-unit", "left-compose", "right-nested",
             "right-disjoint", "interchange", "restrict-left",
             "restrict-right", "restrict-functorial")
    return rec.report(f"bimodule-axioms:{bim.name}", seed, samples, order)

# ---------------------------------------------------------------------------
# power sequences and matching families
# ---------------------------------------------------------------------------

class PowerSequence:
    """Levels X^n, restriction along u picking out coordinates u(1)..u(m)."""

    def __init__(self, space: PointedSet) -> None:
        self.space = space
        self.name = f"power({space.name})"

    def elements(self, n: int) -> Iterator[tuple]:
        return itertools.product(self.space.elements, repeat=n)

    def restrict(self, u: InjectiveMap, xs: tuple) -> tuple:
        if u.n != len(xs):
            raise DomainError(f"injection into [{u.n}] against a tuple of length {len(xs)}")
        return tuple(xs[u(j) - 1] for j in range(1, u.m + 1))


def proper_face_maps(n: int) -> list[InjectiveMap]:
    """All order-preserving injections [m] -> [n] with m < n."""
    out = []
    for m in range(n - 1, -1, -1):
        out.extend(InjectiveMap.all_order_preserving(m, n))
    return out


class MatchingFamily(Record):
    """A compatible choice of an element below every proper face of level n.

    Keys are the value tuples of proper order-preserving injections into
    [n]; compatibility means the assignment intertwines restriction."""

    n: int
    assignments: Mapping[tuple[int, ...], Hashable]


def induced_matching_family(seq, n: int, z) -> MatchingFamily:
    return MatchingFamily(
        n, {u.values: seq.restrict(u, z) for u in proper_face_maps(n)})


def _factor_through(u: InjectiveMap, w: InjectiveMap) -> InjectiveMap | None:
    """The order-preserving v with u = w . v, if the image of u sits inside
    the image of w."""
    position = {w(j): j for j in range(1, w.m + 1)}
    values = []
    for j in range(1, u.m + 1):
        p = position.get(u(j))
        if p is None:
            return None
        values.append(p)
    return InjectiveMap(u.m, w.m, tuple(values))


def is_matching_compatible(seq, fam: MatchingFamily) -> bool:
    faces = proper_face_maps(fam.n)
    if set(fam.assignments) != {u.values for u in faces}:
        return False
    for u in faces:
        for v in proper_face_maps(u.m):
            if fam.assignments[u.after(v).values] != seq.restrict(v, fam.assignments[u.values]):
                return False
    return True


def enumerate_matching_families(seq, n: int) -> list[MatchingFamily]:
    """All matching families at level n, by backtracking over the top faces.

    The codimension-one faces determine everything below by factorization,
    so the search assigns those first, pruning on pairwise overlaps, and
    then checks that the forced lower values are consistent.
    """
    if n == 1:
        # only the empty face exists; its level has exactly one element
        only = list(seq.elements(0))
        return [MatchingFamily(1, {(): only[0]})]
    top = list(InjectiveMap.all_order_preserving(n - 1, n))
    lower = [u for u in proper_face_maps(n) if u.m < n - 1]
    families: list[MatchingFamily] = []
    _extend_families(seq, n, top, lower, 0, {}, families)
    return families


def _overlaps_ok(seq, n: int, top: list[InjectiveMap], chosen: dict) -> bool:
    picked = [u for u in top if u.values in chosen]
    for a, b in itertools.combinations(picked, 2):
        common = sorted(set(a.values) & set(b.values))
        u = InjectiveMap(len(common), n, tuple(common))
        va = _factor_through(u, a)
        vb = _factor_through(u, b)
        if seq.restrict(va, chosen[a.values]) != seq.restrict(vb, chosen[b.values]):
            return False
    return True


def _extend_families(seq, n: int, top: list[InjectiveMap], lower: list[InjectiveMap],
                     idx: int, chosen: dict, families: list[MatchingFamily]) -> None:
    """Assign top faces idx.. in turn, appending every consistent family."""
    if idx == len(top):
        assignments = dict(chosen)
        for u in lower:
            forced = None
            for w in top:
                v = _factor_through(u, w)
                if v is None:
                    continue
                value = seq.restrict(v, chosen[w.values])
                if forced is None:
                    forced = value
                elif forced != value:
                    return
            assert forced is not None
            assignments[u.values] = forced
        families.append(MatchingFamily(n, assignments))
        return
    u = top[idx]
    for candidate in seq.elements(u.m):
        chosen[u.values] = candidate
        if _overlaps_ok(seq, n, top, chosen):
            _extend_families(seq, n, top, lower, idx + 1, chosen, families)
        del chosen[u.values]


def suite_matching(space: PointedSet, max_n: int = 4) -> CheckReport:
    """Exhaustive matching-family enumeration against power-level counts.

    Level 1 must be a single family; at level n the families must biject
    with the n-th power of the space through the induced-family map.
    """
    seq = PowerSequence(space)
    size = len(space.elements)
    rec = Recorder()

    def key(fam):
        return tuple(sorted(fam.assignments.items()))

    for n in range(1, max_n + 1):
        families = enumerate_matching_families(seq, n)
        found = {key(fam) for fam in families}
        rec("compatible",
            all(is_matching_compatible(seq, fam) for fam in families), f"n={n}")
        induced = {key(induced_matching_family(seq, n, z)) for z in seq.elements(n)}
        rec("induced-live", induced <= found, f"n={n}")
        if n == 1:
            rec("level-one-single", len(families) == 1, f"got {len(families)}")
        else:
            rec("level-count", len(families) == size ** n,
                f"n={n} got {len(families)} want {size ** n}")
            rec("induced-bijection", induced == found and len(induced) == size ** n,
                f"n={n}")
    order = ("level-one-single", "level-count", "compatible",
             "induced-live", "induced-bijection")
    return rec.report(f"matching:{space.name}", 0, max_n, order)
