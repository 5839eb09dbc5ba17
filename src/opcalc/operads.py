"""Reduced operads with exact elements: the interface and concrete instances.

Elements are immutable values built from integers, strings and
fractions.Fraction, so every operation here is exact; nothing is sampled
from the reals and nothing is compared with a tolerance.

An operad in this module is a symmetric sequence with restrictions along
arbitrary injections of finite sets (relabelling for bijections, forgetting
inputs for the rest), slotwise composition, and a unit of arity one.
Conventions shared by every instance:

  * restrict(u, x) for u: [m] -> [n] satisfies (u* x)_j = x_{u(j)} whenever
    elements are families indexed by labels; permutations therefore act on
    the right.
  * compose(x, i, y) renumbers labels the standard way: labels of x below i
    are kept, labels of y move to the block i..i+m-1, labels of x above i
    shift up by m - 1.

Here are the interval, disc, associative and framed operads and the pointed
sets the CLI's workspace names. Power sequences and matching families live
in `suites`: no W or B command runs them. The free recording operad on named
atoms is a test helper (`tests/formal.py`), outside the package.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Callable, Hashable, Iterable

from .trees import DomainError, InjectiveMap, Record, shown


def format_fraction(q: Fraction | int) -> str:
    """A Fraction or an int as p/q, always with an explicit denominator,
    e.g. 0/1, 3/1, -1/2; both types carry numerator and denominator."""
    return f"{q.numerator}/{q.denominator}"


def escaped(text: str) -> str:
    """text for the inside of a double-quoted string: backslashes first, then quotes."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def parse_int(text: str, signed: bool = True) -> int:
    """An integer in ASCII digits: `-?[0-9]+` when signed, else `[0-9]+`.

    Unlike `int()`, no sign `+`, no `_`, no inner spaces and no non-ASCII
    digits, so that the texts of an element are few; `parse_fraction` checks
    p and q so, and every other number in a text goes through here."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise DomainError(f"bad integer {shown(text)}")
    try:
        return int(text)
    except ValueError as exc:   # more digits than int() converts
        raise DomainError(f"integer of {len(digits)} digits, more than int() converts") from exc


def parse_fraction(text: str) -> Fraction:
    """p/q with p matching `-?[0-9]+` and q matching `[0-9]+`, q nonzero;
    p/q need not be reduced. No whitespace, not even around the whole text."""
    if not isinstance(text, str):
        raise DomainError(f"expected a p/q string, got {shown(text)}")
    num, slash, den = text.partition("/")
    if not slash:
        raise DomainError(f"expected p/q, got {shown(text)}")
    if text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit() and den.isdigit():
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):   # more digits than int() converts, or q = 0
            pass
    raise DomainError(f"bad fraction {shown(text)}")


def _sorting_twist(tokens: list[str]) -> tuple[InjectiveMap, str]:
    """The permutation listing inputs in the string order of their tokens,
    and the tokens joined by spaces in that order.

    Input j's token is the text its entry contributes to a formatted
    element. When the tokens are distinct and none is a proper prefix of
    another, the text of a twist is least exactly when its tokens appear
    sorted, so this permutation is the strictly least twist, and the
    joined tokens are the body of its text. The callers' elements are
    valid, and `validate` refuses two equal entries.
    """
    k = len(tokens)
    order = sorted(range(k), key=tokens.__getitem__)
    return (InjectiveMap._trusted(k, k, tuple(j + 1 for j in order)),
            " ".join([tokens[j] for j in order]))


def least_word_twist(word) -> InjectiveMap:
    """The strictly least twist of an element whose twists only renumber
    the letters of its `word`, which lists 1..k, in a text that writes each
    letter in decimal followed by " " or ")".

    The least text reads 1..k in string order ("1 10 11 ... 2 3 ..."): a
    letter that is a prefix of another ("1" of "10") is followed by a
    character below every digit. sigma sends that word's letter at
    position p to `word`'s letter at p.
    """
    least = sorted(range(1, len(word) + 1), key=str)
    values = [0] * len(word)
    for letter, target in zip(least, word):
        values[letter - 1] = target
    return InjectiveMap._trusted(len(word), len(word), tuple(values))


class EffectiveOperad(ABC):
    """A reduced operad whose elements can be computed with exactly.

    `canonical_twist(x)` gives normal forms their vertex twists. It returns
    the permutation sigma of 1..arity_of(x) whose twist restrict(sigma, x)
    has the least `format_element` text, together with that text, and
    sigma must be strictly least: every other permutation gives a
    different, larger text. The order is the one on texts (Python's string
    order), not on the underlying numbers, so 1/10 comes before 1/2. A W
    point's vertex twists then depend on its labels alone, so the point
    stays normal when its leaves are renumbered, grafted or cut (see
    `wconstruction`); the answer must depend on x alone. The text is the
    one the normalizer puts on the vertex, so an operad whose twist text
    falls out of finding sigma (a sort of tokens) formats nothing twice.
    """

    name: str

    # -- structure ----------------------------------------------------------

    @abstractmethod
    def arity_of(self, x) -> int: ...

    @abstractmethod
    def validate(self, x) -> None:
        """Raise DomainError if x is not an element."""

    @abstractmethod
    def unit(self): ...

    @abstractmethod
    def compose(self, x, i: int, y): ...

    @abstractmethod
    def restrict(self, u: InjectiveMap, x):
        """Pull back along an injection u: [m] -> [n], arity_of(x) == n."""

    # -- identity of elements -----------------------------------------------
    # an element is its own canonical form (a tuple of Fractions, a word, a
    # record of canonical values, a normal-form point), so equal elements
    # are equal values

    def eq(self, x, y) -> bool:
        return x == y

    def is_unit(self, x) -> bool:
        return self.arity_of(x) == 1 and x == self.unit()

    @abstractmethod
    def canonical_twist(self, x) -> tuple[InjectiveMap, str]:
        """The unique permutation with the least twisted text, and that text."""

    # -- io -------------------------------------------------------------------

    @abstractmethod
    def format_element(self, x) -> str: ...

    @abstractmethod
    def parse_element(self, text: str): ...

    def to_jsonable(self, x):
        return self.format_element(x)

    def from_jsonable(self, data):
        if not isinstance(data, str):
            raise DomainError(f"expected a formatted element string, got {shown(data)}")
        return self.parse_element(data)

    # -- sampling -------------------------------------------------------------

    @abstractmethod
    def sample(self, rng, n: int):
        """A pseudorandom element of arity n, exact and deterministic in rng."""

    # -- plumbing ---------------------------------------------------------------

    def _check_slot(self, x, i: int) -> None:
        n = self.arity_of(x)
        if not 1 <= i <= n:
            raise DomainError(f"slot {i} out of range 1..{n}")

    def _check_restrict(self, u: InjectiveMap, x) -> None:
        if u.n != self.arity_of(x):
            raise DomainError(f"injection into [{u.n}] against arity {self.arity_of(x)}")
        if u.m == 0:
            raise DomainError("a restriction must keep at least one input")

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.name == getattr(other, "name", None)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))

    def __repr__(self) -> str:
        return f"<operad {self.name}>"


# ---------------------------------------------------------------------------
# Little intervals
# ---------------------------------------------------------------------------

Interval = tuple[Fraction, Fraction]


def _interval_tokens(x) -> list[str]:
    return [f"[{a.numerator}/{a.denominator},{b.numerator}/{b.denominator}]" for a, b in x]


class LittleIntervals(EffectiveOperad):
    """Configurations of labelled subintervals of [0,1] with disjoint
    interiors; touching endpoints are allowed. Element: tuple of (a, b)
    pairs, entry j being the interval labelled j+1."""

    def __init__(self) -> None:
        self.name = "intervals"
        self._unit = ((Fraction(0), Fraction(1)),)

    def arity_of(self, x) -> int:
        return len(x)

    def validate(self, x) -> None:
        """Raise DomainError unless x is a nonempty tuple of Fraction pairs,
        nonempty intervals inside [0,1] that do not overlap.

        Checks fire in this order: each entry's shape in turn; the position
        of each entry before the first malformed one; that shape error; the
        pairs, swept by left end. Each endpoint's p and q are read once and
        scaled to the lcm D of the denominators read: an inequality in the
        values and 1 holds exactly when it holds in the scaled values and D
        (both sides gain D > 0), so 0 <= A < B <= D and B0 <= A1 compare ints.
        """
        if not isinstance(x, tuple) or not x:
            raise DomainError(f"expected a nonempty tuple of intervals, got {shown(x)}")
        ends, shape_error, d = [], None, 1
        for pair in x:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                shape_error = f"bad interval {shown(pair)}"
                break
            a, b = pair
            if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
                shape_error = f"interval endpoints must be Fractions, got {shown(pair)}"
                break
            qa, qb = a.denominator, b.denominator
            d = math.lcm(d, qa, qb)
            ends.append((a.numerator, qa, b.numerator, qb))
        scaled = []
        for pair, (pa, qa, pb, qb) in zip(x, ends):
            a, b = pa * (d // qa), pb * (d // qb)
            if not 0 <= a < b <= d:
                where = "is empty" if 0 <= b <= a <= d else "not inside [0,1]"
                raise DomainError(f"interval {shown(_interval_tokens((pair,))[0])} {where}")
            scaled.append((a, b, pair))
        if shape_error is not None:
            raise DomainError(shape_error)
        if len(scaled) > 1:
            scaled.sort()
            for (_, b0, pair0), (a1, _, pair1) in zip(scaled, scaled[1:]):
                if b0 > a1:
                    token0, token1 = map(shown, _interval_tokens((pair0, pair1)))
                    raise DomainError(f"intervals {token0} and {token1} overlap")

    def unit(self):
        return self._unit

    def compose(self, x, i: int, y):
        self._check_slot(x, i)
        a, b = x[i - 1]
        # a + (b - a) c over one denominator: with w = b - a = wn/wd unreduced,
        # (an wd cd + wn cn ad) / (ad wd cd), one Fraction per endpoint
        an, ad = a.numerator, a.denominator
        wn, wd = b.numerator * ad - an * b.denominator, ad * b.denominator
        p, q, r = an * wd, wn * ad, ad * wd
        block = tuple((Fraction(p * c.denominator + q * c.numerator, r * c.denominator),
                       Fraction(p * d.denominator + q * d.numerator, r * d.denominator))
                      for c, d in y)
        return x[: i - 1] + block + x[i:]

    def restrict(self, u: InjectiveMap, x):
        self._check_restrict(u, x)
        return tuple([x[v - 1] for v in u.values])

    def format_element(self, x) -> str:
        return "<" + " ".join(_interval_tokens(x)) + ">"

    def canonical_twist(self, x) -> tuple[InjectiveMap, str]:
        # a token ends in its only "]", so none is a prefix of another
        sigma, body = _sorting_twist(_interval_tokens(x))
        return sigma, f"<{body}>"

    def parse_element(self, text: str):
        body = text.strip()
        if not (body.startswith("<") and body.endswith(">")):
            raise DomainError(f"expected <...>, got {shown(text)}")
        out = []
        for chunk in body[1:-1].split():
            if not (chunk.startswith("[") and chunk.endswith("]")):
                raise DomainError(f"bad interval token {shown(chunk)}")
            a, _, b = chunk[1:-1].partition(",")
            out.append((parse_fraction(a), parse_fraction(b)))
        x = tuple(out)
        self.validate(x)
        return x

    def sample(self, rng, n: int):
        if n < 1:
            raise DomainError("arity must be at least 1")
        lengths = [rng.randint(1, 6) for _ in range(n)]
        gaps = [rng.randint(0, 4) for _ in range(n + 1)]
        total = sum(lengths) + sum(gaps)
        pos = Fraction(gaps[0], total)
        placed = []
        for k in range(n):
            a = pos
            b = a + Fraction(lengths[k], total)
            placed.append((a, b))
            pos = b + Fraction(gaps[k + 1], total)
        order = list(range(n))
        rng.shuffle(order)
        return tuple(placed[order[j]] for j in range(n))


# ---------------------------------------------------------------------------
# Little balls in dimension m
# ---------------------------------------------------------------------------

Ball = tuple[tuple[Fraction, ...], Fraction]


def _ball_tokens(x) -> list[str]:
    return [f"ball(({','.join([f'{t.numerator}/{t.denominator}' for t in c])});"
            f"{r.numerator}/{r.denominator})" for c, r in x]


class LittleDiscs(EffectiveOperad):
    """Labelled round balls inside the unit ball of R^m, with disjoint
    interiors (touching allowed). Element: tuple of (center, radius)."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise DomainError("dimension must be at least 1")
        self.dim = dim
        self.name = f"discs{dim}"
        self._unit = ((tuple(Fraction(0) for _ in range(dim)), Fraction(1)),)

    def arity_of(self, x) -> int:
        return len(x)

    def validate(self, x) -> None:
        """Raise DomainError unless x is a nonempty tuple of balls (c, r), c
        a tuple of dim Fractions and r a positive Fraction, inside the unit
        ball and with no two overlapping.

        Checks fire in this order: each entry's shape in turn; the radius,
        then the position, of each ball before the first malformed one;
        that shape error; every pair. Each value's p and q are read once and
        scaled to the lcm D of the denominators read: a quadratic inequality
        in the values and 1 holds exactly when it holds in the scaled values
        and D (both sides gain D^2), so R > 0, |C|^2 <= (D - R)^2 and
        |C0 - C1|^2 >= (R0 + R1)^2 compare ints.
        """
        if not isinstance(x, tuple) or not x:
            raise DomainError(f"expected a nonempty tuple of balls, got {shown(x)}")
        dim, read, shape_error, d = self.dim, [], None, 1
        for ball in x:
            # p, q of the centre coordinates and radius that are Fractions,
            # all dim + 1 of them exactly when the ball is well formed
            parts = ([(t.numerator, t.denominator) for t in (*ball[0], ball[1])
                      if isinstance(t, Fraction)]
                     if isinstance(ball, tuple) and len(ball) == 2
                     and isinstance(ball[0], tuple) and len(ball[0]) == dim else ())
            if len(parts) <= dim:
                shape_error = f"bad ball {shown(ball)}"
                break
            for _, q in parts:
                d = math.lcm(d, q)
            read.append((parts, ball))
        scaled = []
        for parts, ball in read:
            c = [p * (d // q) for p, q in parts]
            r = c.pop()
            if r <= 0:
                raise DomainError(f"radius {shown(format_fraction(ball[1]))} is not positive")
            norm = 0
            for t in c:
                norm += t * t
            if norm > (d - r) * (d - r):
                raise DomainError(f"ball {shown(_ball_tokens((ball,))[0])} leaves the unit ball")
            scaled.append((c, r, ball))
        if shape_error is not None:
            raise DomainError(shape_error)
        if len(scaled) > 1:
            for (c0, r0, ball0), (c1, r1, ball1) in itertools.combinations(scaled, 2):
                gap, reach = 0, r0 + r1
                for s, t in zip(c0, c1):
                    s -= t
                    gap += s * s
                if gap < reach * reach:
                    token0, token1 = map(shown, _ball_tokens((ball0, ball1)))
                    raise DomainError(f"balls {token0} and {token1} overlap")

    def unit(self):
        return self._unit

    def compose(self, x, i: int, y):
        self._check_slot(x, i)
        c, r = x[i - 1]
        # c_k + r d_k over one denominator, (ckn rd dkd + rn dkn ckd) / (ckd rd dkd),
        # and the radius r s, one Fraction per coordinate
        rn, rd = r.numerator, r.denominator
        centre = [(ck.numerator * rd, rn * ck.denominator, ck.denominator * rd) for ck in c]
        block = tuple(
            (tuple([Fraction(p * dk.denominator + q * dk.numerator, s * dk.denominator)
                    for (p, q, s), dk in zip(centre, d)]),
             Fraction(rn * t.numerator, rd * t.denominator))
            for d, t in y)
        return x[: i - 1] + block + x[i:]

    def restrict(self, u: InjectiveMap, x):
        self._check_restrict(u, x)
        return tuple([x[v - 1] for v in u.values])

    def format_element(self, x) -> str:
        return "<" + " ".join(_ball_tokens(x)) + ">"

    def canonical_twist(self, x) -> tuple[InjectiveMap, str]:
        # "ball((c);r)" holds exactly two ")", one of them at its end, so no
        # token is a proper prefix of another
        sigma, body = _sorting_twist(_ball_tokens(x))
        return sigma, f"<{body}>"

    def parse_element(self, text: str):
        body = text.strip()
        if not (body.startswith("<") and body.endswith(">")):
            raise DomainError(f"expected <...>, got {shown(text)}")
        out = []
        for chunk in body[1:-1].split():
            if not (chunk.startswith("ball((") and chunk.endswith(")")):
                raise DomainError(f"bad ball token {shown(chunk)}")
            inner = chunk[len("ball(("):-1]
            center_text, _, radius_text = inner.partition(");")
            center = tuple(parse_fraction(t) for t in center_text.split(","))
            out.append((center, parse_fraction(radius_text)))
        x = tuple(out)
        self.validate(x)
        return x

    def sample(self, rng, n: int):
        if n < 1:
            raise DomainError("arity must be at least 1")
        # distinct grid points scaled to sit well inside the unit ball;
        # separation on the grid then dominates the tiny radii
        scale = Fraction(7, 10) if self.dim <= 2 else Fraction(1, 2)
        grid = rng.randint(3, 6)
        points: set[tuple[int, ...]] = set()
        while len(points) < n:
            points.add(tuple(rng.randint(-grid, grid) for _ in range(self.dim)))
        radius_pool = (Fraction(1, 100), Fraction(1, 128), Fraction(1, 200))
        placed = [
            (tuple(scale * Fraction(t, grid) for t in p), rng.choice(radius_pool))
            for p in sorted(points)
        ]
        rng.shuffle(placed)
        x = tuple(placed)
        self.validate(x)
        return x


# ---------------------------------------------------------------------------
# The associative operad, as labelled words
# ---------------------------------------------------------------------------

class Associative(EffectiveOperad):
    """Arity n is the set of words listing 1..n once each; composition is
    block substitution and restriction deletes letters."""

    def __init__(self) -> None:
        self.name = "assoc"

    def arity_of(self, x) -> int:
        return len(x)

    def validate(self, x) -> None:
        if not (isinstance(x, tuple) and x
                and all(isinstance(t, int) and not isinstance(t, bool) for t in x)
                and sorted(x) == list(range(1, len(x) + 1))):
            raise DomainError(f"expected a word listing 1..n, got {shown(x)}")

    def unit(self):
        return (1,)

    def compose(self, x, i: int, y):
        self._check_slot(x, i)
        m = len(y)
        out: list[int] = []
        for letter in x:
            if letter == i:
                out.extend(i + g - 1 for g in y)
            elif letter < i:
                out.append(letter)
            else:
                out.append(letter + m - 1)
        return tuple(out)

    def restrict(self, u: InjectiveMap, x):
        self._check_restrict(u, x)
        relabel = {u(j): j for j in range(1, u.m + 1)}
        return tuple(relabel[letter] for letter in x if letter in relabel)

    def format_element(self, x) -> str:
        return "word(" + " ".join(str(t) for t in x) + ")"

    def canonical_twist(self, x) -> tuple[InjectiveMap, str]:
        # the action relabels letters and leaves positions alone
        sigma = least_word_twist(x)
        return sigma, self.format_element(self.restrict(sigma, x))

    def parse_element(self, text: str):
        body = text.strip()
        if not (body.startswith("word(") and body.endswith(")")):
            raise DomainError(f"expected word(...), got {shown(text)}")
        try:
            x = tuple(parse_int(t) for t in body[len("word("):-1].split())
        except DomainError as exc:
            raise DomainError(f"bad letter in {shown(text)}") from exc
        self.validate(x)
        return x

    def sample(self, rng, n: int):
        word = list(range(1, n + 1))
        rng.shuffle(word)
        return tuple(word)


# ---------------------------------------------------------------------------
# Framed variants: a finite group twisting each input
# ---------------------------------------------------------------------------

class FiniteGroup:
    """A small group given by its elements and multiplication rule; the
    identity is found by search, unique inverses and associativity checked."""

    def __init__(self, name: str, elements: Iterable[Hashable], mul: Callable) -> None:
        self.name = name
        self.elements = tuple(elements)
        self._mul = mul
        table = {(g, h): mul(g, h) for g in self.elements for h in self.elements}
        if any(v not in self.elements for v in table.values()):
            raise DomainError("multiplication leaves the element set")
        ident = [e for e in self.elements
                 if all(table[(e, g)] == g and table[(g, e)] == g for g in self.elements)]
        if len(ident) != 1:
            raise DomainError("no unique identity")
        self.identity = ident[0]
        for g in self.elements:
            invs = [h for h in self.elements if table[(g, h)] == self.identity]
            if len(invs) != 1 or table[(invs[0], g)] != self.identity:
                raise DomainError(f"element {shown(g)} has no unique inverse")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                        raise DomainError("multiplication is not associative")

    def mul(self, g, h):
        return self._mul(g, h)

    def __repr__(self) -> str:
        return f"<group {self.name}>"


def z2() -> FiniteGroup:
    return FiniteGroup("Z2", ("e", "r"), lambda g, h: "e" if g == h else "r")


def reflect_intervals(x):
    """The ambient reflection t -> 1 - t applied to every interval."""
    return tuple((1 - b, 1 - a) for (a, b) in x)


def z2_interval_action(g, x):
    return x if g == "e" else reflect_intervals(x)


class FramedElement(Record):
    point: Hashable
    frames: tuple


class FramedOperad(EffectiveOperad):
    """Attach a group element to each input of a base operad.

    The group must act on base elements aritywise, compatibly with
    composition, restriction and the unit; composition twists the grafted
    factor by the frame sitting at the slot and multiplies frames through.
    """

    def __init__(self, base: EffectiveOperad, group: FiniteGroup, act: Callable) -> None:
        self.base = base
        self.group = group
        self.act = act
        self.name = f"framed({base.name},{group.name})"
        self._unit = FramedElement(base.unit(), (group.identity,))

    def arity_of(self, x) -> int:
        return self.base.arity_of(x.point)

    def validate(self, x) -> None:
        if not isinstance(x, FramedElement):
            raise DomainError(f"expected a FramedElement, got {shown(x)}")
        self.base.validate(x.point)
        if not isinstance(x.frames, tuple):
            raise DomainError(f"frames must be a tuple, got {shown(x.frames)}")
        if len(x.frames) != self.base.arity_of(x.point):
            raise DomainError("one frame per input is required")
        for g in x.frames:
            if g not in self.group.elements:
                raise DomainError(f"frame {shown(g)} is not in {self.group.name}")

    def unit(self):
        return self._unit

    def compose(self, x, i: int, y):
        self._check_slot(x, i)
        gi = x.frames[i - 1]
        point = self.base.compose(x.point, i, self.act(gi, y.point))
        frames = (x.frames[: i - 1]
                  + tuple(self.group.mul(gi, h) for h in y.frames)
                  + x.frames[i:])
        return FramedElement(point, frames)

    def restrict(self, u: InjectiveMap, x):
        self._check_restrict(u, x)
        return FramedElement(
            self.base.restrict(u, x.point),
            tuple([x.frames[v - 1] for v in u.values]))

    def format_element(self, x) -> str:
        frames = " ".join(str(g) for g in x.frames)
        return f"({self.base.format_element(x.point)} ; {frames})"

    def canonical_twist(self, x) -> tuple[InjectiveMap, str]:
        # The base text comes first, and the twists of one base element
        # only reorder or renumber its entries, so their base texts have
        # one length and none is a proper prefix of another: twists are
        # ordered by their base texts, which the base's sigma makes least.
        sigma, point_text = self.base.canonical_twist(x.point)
        frames = " ".join([str(x.frames[v - 1]) for v in sigma.values])
        return sigma, f"({point_text} ; {frames})"

    def parse_element(self, text: str):
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise DomainError(f"expected (... ; frames), got {shown(text)}")
        point_text, sep, frame_text = body[1:-1].rpartition(";")
        if not sep:
            raise DomainError(f"expected (... ; frames), got {shown(text)}")
        point = self.base.parse_element(point_text.strip())
        frames = tuple(frame_text.split())
        x = FramedElement(point, frames)
        self.validate(x)
        return x

    def sample(self, rng, n: int):
        return FramedElement(
            self.base.sample(rng, n),
            tuple(rng.choice(self.group.elements) for _ in range(n)))


def framed_intervals() -> FramedOperad:
    return FramedOperad(LittleIntervals(), z2(), z2_interval_action)


# ---------------------------------------------------------------------------
# Finite pointed sets
# ---------------------------------------------------------------------------

class PointedSet(Record):
    name: str
    elements: tuple
    basepoint: Hashable

    def __post_init__(self) -> None:
        if self.basepoint not in self.elements:
            raise DomainError("basepoint must be an element")
        if len(set(self.elements)) != len(self.elements):
            raise DomainError("elements must be distinct")
