"""Evaluable operad maps, exact paths of maps, tagged-target bimodules,
and the explicit evaluation and lifting recipes between them.

Everything is exact: maps are evaluators between effective operads, paths
are piecewise descriptions with rational breakpoints evaluated at rational
times, and the finite pointed set of tags is a plain lookup table. The
maps and evaluators are all this module holds: their sampled laws and the
guard `psi_double_prime` live in `suites`, and its samplers import
`sampling` only when called.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Callable, Mapping, Sequence

from .bconstruction import BPoint, b_map_heights, slice_point
from .bimodules import Bimodule
from .operads import EffectiveOperad, LittleDiscs, LittleIntervals, PointedSet, format_fraction
from .trees import DomainError, InjectiveMap, Record, fold, shown
from .wconstruction import WOperad, WPoint, mu


class OperadMap:
    """An evaluator between two operads, compared by declaration."""

    def __init__(self, name: str, source: EffectiveOperad, target: EffectiveOperad,
                 fn: Callable) -> None:
        self.name = name
        self.source = source
        self.target = target
        self.fn = fn

    def __call__(self, y):
        return self.fn(y)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperadMap)
                and (self.name, self.source, self.target)
                == (other.name, other.source, other.target))

    def __hash__(self) -> int:
        return hash((self.name, self.source.name, self.target.name))

    def __repr__(self) -> str:
        return f"<map {self.name}: {self.source.name} -> {self.target.name}>"


def compose_operad_maps(outer: OperadMap, inner: OperadMap, name: str) -> OperadMap:
    if inner.target != outer.source:
        raise DomainError(f"cannot compose {outer.name} after {inner.name}")
    return OperadMap(name, inner.source, outer.target, lambda y: outer(inner(y)))


class BimoduleMap:
    """An evaluator between two bimodules over the same operad."""

    def __init__(self, name: str, source: Bimodule, target: Bimodule,
                 fn: Callable) -> None:
        if source.over != target.over:
            raise DomainError("bimodules live over different operads")
        self.name = name
        self.source = source
        self.target = target
        self.fn = fn

    def __call__(self, b):
        return self.fn(b)

    def __repr__(self) -> str:
        return f"<bimodule map {self.name}: {self.source.name} -> {self.target.name}>"


# ---------------------------------------------------------------------------
# concrete maps between the interval and disc instances
# ---------------------------------------------------------------------------

def eta_map(d1: LittleIntervals, d2: LittleDiscs) -> OperadMap:
    """Include interval configurations as collinear disc configurations.

    The segment [0,1] sits in the plane disc as the horizontal diameter via
    x -> 2x-1, so [a,b] becomes the ball at (a+b-1, 0) of radius b-a. The
    identification conjugates affine maps, so composition is preserved on
    the nose."""
    if d2.dim != 2:
        raise DomainError("the inclusion lands in the two-dimensional instance")

    def fn(x):
        return tuple(((a + b - 1, Fraction(0)), b - a) for a, b in x)

    return OperadMap("eta", d1, d2, fn)


def rotation_map(d2: LittleDiscs, u: Fraction) -> OperadMap:
    """Rotate every disc center by the exact rotation with half-angle
    parameter u: cos = (1-u^2)/(1+u^2), sin = 2u/(1+u^2)."""
    u = Fraction(u)
    den = 1 + u * u
    cos, sin = (1 - u * u) / den, 2 * u / den

    def fn(x):
        return tuple((((cos * c[0] - sin * c[1]), (sin * c[0] + cos * c[1])), r)
                     for c, r in x)

    return OperadMap(f"rot({format_fraction(u)})", d2, d2, fn)


def mu_map(d1: LittleIntervals) -> OperadMap:
    return OperadMap("mu", WOperad(d1), d1, mu)


def eta_mu_map(d1: LittleIntervals, d2: LittleDiscs) -> OperadMap:
    return compose_operad_maps(eta_map(d1, d2), mu_map(d1), "eta-mu")


# ---------------------------------------------------------------------------
# paths of operad maps
# ---------------------------------------------------------------------------

class PathSegment(Record):
    t0: Fraction
    t1: Fraction
    fn: Callable   # (element, local time in [0,1]) -> target element


def _exact_time(t) -> Fraction:
    """t as a Fraction, which must lie in [0,1]."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise DomainError(f"time {shown(format_fraction(t))} outside [0,1]")
    return t


class PathOfMaps:
    """A piecewise family of maps over exact time in [0,1].

    Segments cover [0,1] with rational breakpoints; evaluation at a
    breakpoint uses the segment starting there (the last segment owns 1).
    The declared endpoint maps are what the checking suite verifies the
    path against."""

    def __init__(self, name: str, source: EffectiveOperad, target: EffectiveOperad,
                 start: OperadMap, end: OperadMap,
                 segments: Sequence[PathSegment]) -> None:
        self.name = name
        self.source = source
        self.target = target
        self.start = start
        self.end = end
        self.segments = tuple(segments)
        if not self.segments or self.segments[0].t0 != 0 or self.segments[-1].t1 != 1:
            raise DomainError("segments must cover [0,1]")
        for left, right in zip(self.segments, self.segments[1:]):
            if left.t1 != right.t0:
                raise DomainError("segments must be contiguous")
        if any(seg.t0 >= seg.t1 for seg in self.segments):
            raise DomainError("zero-length segments are not allowed")

    def at(self, y, t: Fraction):
        t = _exact_time(t)
        seg = self.segments[bisect_right(self.segments, t, key=attrgetter("t0")) - 1]
        return seg.fn(y, (t - seg.t0) / (seg.t1 - seg.t0))

    def __repr__(self) -> str:
        return f"<path {self.name}: {self.source.name} -> {self.target.name}>"


def constant_path(f: OperadMap) -> PathOfMaps:
    return PathOfMaps(f"const({f.name})", f.source, f.target, f, f,
                      [PathSegment(Fraction(0), Fraction(1), lambda y, s: f(y))])


def concat_paths(first: PathOfMaps, second: PathOfMaps) -> PathOfMaps:
    if first.source != second.source or first.target != second.target:
        raise DomainError("paths live between different operads")
    segments = [PathSegment(seg.t0 / 2, seg.t1 / 2, seg.fn) for seg in first.segments]
    segments += [PathSegment(Fraction(1, 2) + seg.t0 / 2, Fraction(1, 2) + seg.t1 / 2, seg.fn)
                 for seg in second.segments]
    return PathOfMaps(f"{first.name}*{second.name}", first.source, first.target,
                      first.start, second.end, segments)


def reverse_path(path: PathOfMaps) -> PathOfMaps:
    segments = [PathSegment(1 - seg.t1, 1 - seg.t0,
                            lambda y, s, fn=seg.fn: fn(y, 1 - s))
                for seg in reversed(path.segments)]
    return PathOfMaps(f"rev({path.name})", path.source, path.target,
                      path.end, path.start, segments)


def pl_reparam(path: PathOfMaps, pairs: Sequence[tuple[Fraction, Fraction]]) -> PathOfMaps:
    """Precompose the time coordinate with the piecewise-linear map through
    the given (t, value) pairs; endpoints must be fixed."""
    pairs = [(Fraction(a), Fraction(b)) for a, b in pairs]
    if not pairs or pairs[0] != (0, 0) or pairs[-1] != (1, 1):
        raise DomainError("a reparametrization must fix the endpoints")
    for (a, _), (c, _) in zip(pairs, pairs[1:]):
        if a >= c:
            raise DomainError("reparametrization times must increase")
    if any(not 0 <= v <= 1 for _, v in pairs):
        raise DomainError("reparametrization values must stay in [0,1]")

    def phi(t: Fraction) -> Fraction:
        # the piece from pairs[k - 1] to the first breakpoint at or after t
        k = bisect_left(pairs, t, lo=1, key=itemgetter(0))
        (a, va), (c, vc) = pairs[k - 1], pairs[k]
        return va + (t - a) * (vc - va) / (c - a)

    return PathOfMaps(f"reparam({path.name})", path.source, path.target,
                      path.start, path.end,
                      [PathSegment(Fraction(0), Fraction(1),
                                   lambda y, s: path.at(y, phi(s)))])


# ---------------------------------------------------------------------------
# the pointed tag set and its family of maps
# ---------------------------------------------------------------------------

class PointedMapFamily:
    """A finite pointed set of tags, each naming an operad map; the
    basepoint names the untwisted inclusion. Its rotation parameters give
    a straight sweep path from the basepoint map to each tag's map."""

    def __init__(self, space: PointedSet, maps: Mapping, rotations: Mapping) -> None:
        self.space = space
        self.maps = dict(maps)
        if set(self.maps) != set(space.elements):
            raise DomainError("the family must assign a map to every tag")
        self.base_map = self.maps[space.basepoint]
        self.rotations = dict(rotations)

    def __getitem__(self, x) -> OperadMap:
        if x not in self.maps:
            raise DomainError(f"unknown tag {shown(x)}")
        return self.maps[x]

    def path_to(self, x) -> PathOfMaps:
        """The straight path from the basepoint map to the tag's map,
        sweeping the rotation parameter linearly."""
        end = self[x]
        u = self.rotations[x]
        base = self.base_map
        d2 = base.target

        def fn(y, s: Fraction):
            return rotation_map(d2, u * s)(base(y))

        return PathOfMaps(f"sweep({x})", base.source, base.target, base, end,
                          [PathSegment(Fraction(0), Fraction(1), fn)])


def delta_family(d1: LittleIntervals, d2: LittleDiscs, space: PointedSet,
                 rotations: Mapping) -> PointedMapFamily:
    """Tag each element of the pointed set with the inclusion twisted by an
    exact rotation; the basepoint's parameter must be zero."""
    rotations = {x: Fraction(u) for x, u in rotations.items()}
    if set(rotations) != set(space.elements):
        raise DomainError("need one rotation parameter per tag")
    if rotations[space.basepoint] != 0:
        raise DomainError("the basepoint rotation must be zero")
    base = eta_mu_map(d1, d2)
    maps = {x: base if x == space.basepoint
            else compose_operad_maps(rotation_map(d2, u), base, f"delta[{x}]")
            for x, u in rotations.items()}
    return PointedMapFamily(space, maps, rotations=rotations)


class HofiberPoint(Record):
    """A tag together with a path from the untwisted inclusion to its map."""
    x: object
    g: PathOfMaps


def _maybe_reparam(rng, path: PathOfMaps) -> PathOfMaps:
    """path, or with probability 1/2 path through a random one-breakpoint
    reparametrization."""
    from .sampling import random_fraction
    if rng.random() < 0.5:
        mid = random_fraction(rng)
        value = random_fraction(rng)
        path = pl_reparam(path, [(Fraction(0), Fraction(0)), (mid, value),
                                 (Fraction(1), Fraction(1))])
    return path


def sample_hofiber(rng, family: PointedMapFamily) -> HofiberPoint:
    x = rng.choice(family.space.elements)
    return HofiberPoint(x, _maybe_reparam(rng, family.path_to(x)))


def sample_loop(rng, family: PointedMapFamily) -> PathOfMaps:
    """A loop at the untwisted inclusion: out along a tag's sweep, back
    along its reverse, optionally reparametrized."""
    out = family.path_to(rng.choice(family.space.elements))
    return _maybe_reparam(rng, concat_paths(out, reverse_path(out)))


# ---------------------------------------------------------------------------
# piecewise-constant paths in the tag set
# ---------------------------------------------------------------------------

class XPath:
    """A left-closed piecewise-constant path in a finite set: the value on
    [t_i, t_{i+1}) is x_i, and the last segment owns 1."""

    def __init__(self, space: PointedSet, segments: Sequence[tuple[Fraction, object]]) -> None:
        self.space = space
        self.segments = tuple((Fraction(t), x) for t, x in segments)
        if not self.segments or self.segments[0][0] != 0:
            raise DomainError("the first segment must start at 0")
        for (a, _), (c, _) in zip(self.segments, self.segments[1:]):
            if a >= c:
                raise DomainError("segment starts must increase")
        if any(x not in space.elements for _, x in self.segments):
            raise DomainError("segment values must lie in the tag set")
        if self.segments[-1][0] > 1:
            raise DomainError("segments must start within [0,1]")

    def value(self, t: Fraction):
        t = _exact_time(t)
        return self.segments[bisect_right(self.segments, t, key=itemgetter(0)) - 1][1]


def constant_xpath(space: PointedSet, x) -> XPath:
    return XPath(space, [(Fraction(0), x)])


def sample_xpath(rng, space: PointedSet, start) -> XPath:
    from .sampling import random_fraction
    segments = [(Fraction(0), start)]
    t = Fraction(0)
    for _ in range(rng.randint(0, 3)):
        t = t + (1 - t) * random_fraction(rng)
        if t >= 1 or t == segments[-1][0]:
            break
        segments.append((t, rng.choice(space.elements)))
    return XPath(space, segments)


# ---------------------------------------------------------------------------
# tagged-target bimodules
# ---------------------------------------------------------------------------

class QXElem(Record):
    """A target element with one tag per input."""
    q: object
    tags: tuple


class QxBimodule(Bimodule):
    """The target operad as a bimodule over the interval resolution: the
    left action goes through the untwisted inclusion, the right action
    through the fixed tag's map."""

    def __init__(self, family: PointedMapFamily, x) -> None:
        if x not in family.space.elements:
            raise DomainError(f"unknown tag {shown(x)}")
        self.family = family
        self.x = x
        self.delta = family[x]
        self.base_map = family.base_map
        self.q_operad = family.base_map.target
        self.over = family.base_map.source
        self.name = f"q[{x}]"

    def arity_of(self, q) -> int:
        return self.q_operad.arity_of(q)

    def validate(self, q) -> None:
        self.q_operad.validate(q)

    def left_act(self, p: WPoint, qs: tuple):
        value = self.base_map(p)
        for position in range(len(qs), 0, -1):
            value = self.q_operad.compose(value, position, qs[position - 1])
        return value

    def right_act(self, q, i: int, p: WPoint):
        return self.q_operad.compose(q, i, self.delta(p))

    def restrict(self, u: InjectiveMap, q):
        return self.q_operad.restrict(u, q)

    def sample(self, rng, n: int):
        return self.q_operad.sample(rng, n)


class QXProductBimodule(Bimodule):
    """Tagged target elements: arity-wise product of the target with powers
    of the tag set; the right action twists through the tag at the slot."""

    def __init__(self, family: PointedMapFamily) -> None:
        self.family = family
        self.space = family.space
        self.q_operad = family.base_map.target
        self.over = family.base_map.source
        self.name = f"q*{family.space.name}"

    def arity_of(self, elem: QXElem) -> int:
        return self.q_operad.arity_of(elem.q)

    def validate(self, elem) -> None:
        if not isinstance(elem, QXElem):
            raise DomainError("expected a tagged element")
        self.q_operad.validate(elem.q)
        if len(elem.tags) != self.q_operad.arity_of(elem.q):
            raise DomainError("need one tag per input")
        if any(x not in self.space.elements for x in elem.tags):
            raise DomainError("tags must lie in the tag set")

    def left_act(self, p: WPoint, elems: tuple) -> QXElem:
        value = self.family.base_map(p)
        for position in range(len(elems), 0, -1):
            value = self.q_operad.compose(value, position, elems[position - 1].q)
        tags = tuple(x for elem in elems for x in elem.tags)
        return QXElem(value, tags)

    def right_act(self, elem: QXElem, i: int, p: WPoint) -> QXElem:
        m = p.arity
        q = self.q_operad.compose(elem.q, i, self.family[elem.tags[i - 1]](p))
        tags = elem.tags[: i - 1] + (elem.tags[i - 1],) * m + elem.tags[i:]
        return QXElem(q, tags)

    def compose_plain(self, elem: QXElem, i: int, q) -> QXElem:
        """Compose a bare target element at a slot; the slot's tag repeats."""
        m = self.q_operad.arity_of(q)
        tags = elem.tags[: i - 1] + (elem.tags[i - 1],) * m + elem.tags[i:]
        return QXElem(self.q_operad.compose(elem.q, i, q), tags)

    def restrict(self, u: InjectiveMap, elem: QXElem) -> QXElem:
        return QXElem(self.q_operad.restrict(u, elem.q),
                      tuple(elem.tags[u(j) - 1] for j in range(1, u.m + 1)))

    def sample(self, rng, n: int) -> QXElem:
        return QXElem(self.q_operad.sample(rng, n),
                      tuple(rng.choice(self.space.elements) for _ in range(n)))


# ---------------------------------------------------------------------------
# evaluation of height trees through a path of maps
# ---------------------------------------------------------------------------

def fold_point_through(b: BPoint, target: EffectiveOperad, vertex_value: Callable) -> object:
    """Replace each vertex label by vertex_value(label, height) and compose
    the values along the tree in the target, inputs renumbered to match the
    point's own leaf numbers."""
    if b.is_trivial:
        return target.unit()

    def open_node(node) -> tuple:
        value = vertex_value(node.label, node.height)
        if target.arity_of(value) != len(node.children):
            raise DomainError("vertex value has the wrong arity")
        return value, node.children

    return fold(*open_node(b.root), open_node, target.compose, target.restrict)


def xi_eval(g: PathOfMaps, b: BPoint):
    """Evaluate a loop of maps on a height tree: each vertex contributes
    the path's value on its label at its height."""
    if g.start != g.end:
        raise DomainError("the path must be a loop (equal declared endpoints)")
    return fold_point_through(b, g.target, g.at)


def xi_as_map(g: PathOfMaps, source: Bimodule, target: Bimodule) -> BimoduleMap:
    return BimoduleMap(f"xi({g.name})", source, target, lambda b: xi_eval(g, b))


def psi_prime_eval(h: HofiberPoint, b: BPoint):
    """Evaluate a hofiber point: the same vertexwise recipe along its path,
    paired with the tag it ends at."""
    return (h.x, fold_point_through(b, h.g.target, h.g.at))


def psi_prime_as_map(h: HofiberPoint, source: Bimodule, family: PointedMapFamily) -> BimoduleMap:
    target = QxBimodule(family, h.x)
    return BimoduleMap(f"psi'({h.x})", source, target,
                       lambda b: psi_prime_eval(h, b)[1])


def tagged_map(f: BimoduleMap, qxprod: QXProductBimodule) -> BimoduleMap:
    """psi'' of a map into a fixed-tag target: every value carries that tag
    on each of its inputs. No law is checked here, so f must already be a
    bimodule map; `suites.psi_double_prime` checks one of unknown origin first."""
    x = f.target.x

    def fn(b: BPoint) -> QXElem:
        q = f(b)
        return QXElem(q, (x,) * qxprod.q_operad.arity_of(q))

    return BimoduleMap(f"psi''({f.name})", f.source, qxprod, fn)


# ---------------------------------------------------------------------------
# path lifting
# ---------------------------------------------------------------------------

def lift_path(f0: BimoduleMap, g: XPath, x, t: Fraction, b: BPoint,
              qxprod: QXProductBimodule) -> QXElem:
    """Evaluate the lifted path at time t on a point b.

    The tree is cut at height 1 - t/2, vertices exactly at the cut going
    to the lower part. The lower part, rescaled by h -> h/(1-t/2), goes
    through f0. Each upper vertex at height s contributes the map of the
    tag g(2s + t - 2) applied to its label; upper subtrees are composed in
    the target and grafted onto the lower value at their cut slots, each
    slot's tag repeating across the graft."""
    t = _exact_time(t)
    if g.value(Fraction(0)) != x:
        raise DomainError("the tag path must start at the map's tag")
    family = qxprod.family
    q_operad = qxprod.q_operad
    cut = 1 - t / 2
    bottom = slice_point(b, ((cut, True),), trivial_chains=False)
    lower = b_map_heights(bottom.point, lambda h: h / cut)

    def vertex_value(label, s):
        tag = g.value(2 * s + t - 2)
        return family[tag](label)

    def open_exit(entry) -> tuple:
        """An upper piece's value, and the leaf numbers of its inputs."""
        return fold_point_through(entry.point, q_operad, vertex_value), entry.exits

    return fold(f0(lower), bottom.exits, open_exit, qxprod.compose_plain, qxprod.restrict)
