"""One-dimensional two-colour interval configurations and their action on
pairs of evaluable maps out of the height-tree resolution.

A configuration is a little-intervals element listed left to right, with
a colour: closed, or open when its last interval is the open-input disc
and ends at 1. Its validation, composition, text and parsing are those of
`LittleIntervals`. The intervals cut [0,1] into an alternating stack of
gaps and discs (`regions_of`), and the boundaries between consecutive
regions are the cuts along which a height tree is sliced, a vertex on a
boundary going to the gap side. Each slice piece then lies in one region:
the action evaluates gap pieces through the designated inclusion and disc
pieces through the supplied maps, and composes everything back together
in the target.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bconstruction import BPoint, b_map_heights, mu_prime, slice_point
from .mapping import OperadMap, PathOfMaps, PathSegment, QXElem
from .operads import LittleIntervals
from .trees import DomainError, Record, fold, shown

_INTERVALS = LittleIntervals()


class SC1Element(Record):
    """A configuration: its colour, "c" or "o", and a little-intervals
    element whose intervals are listed left to right.

    Closed colour: the intervals are the n closed-input discs. Open
    colour: the last interval is the open-input disc and ends at 1."""

    color: str
    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def n(self) -> int:
        return len(self.intervals) - (1 if self.color == "o" else 0)

    @property
    def slots(self) -> int:
        return len(self.intervals)


def sc1(color: str, intervals) -> SC1Element:
    if color not in ("c", "o"):
        raise DomainError(f"colour must be 'c' or 'o', got {shown(color)}")
    pairs = tuple((Fraction(a), Fraction(b)) for a, b in intervals)
    _INTERVALS.validate(pairs)
    if any(b > a for (_, b), (a, _) in zip(pairs, pairs[1:])):
        raise DomainError("intervals must be sorted left to right")
    if color == "o" and pairs[-1][1] != 1:
        raise DomainError("the open-input interval must end at 1")
    return SC1Element(color, pairs)


def compose_sc(c: SC1Element, i: int, other: SC1Element) -> SC1Element:
    """Substitute a configuration into slot i. Closed slots take closed
    configurations; the open slot (last, open colour only) takes open."""
    intervals = _INTERVALS.compose(c.intervals, i, other.intervals)
    open_slot = c.color == "o" and i == c.slots
    if open_slot and other.color != "o":
        raise DomainError("the open slot takes an open configuration")
    if not open_slot and other.color != "c":
        raise DomainError(f"closed slot {i} takes a closed configuration")
    return SC1Element(c.color, intervals)


# ---------------------------------------------------------------------------
# regions and the cuts between them
# ---------------------------------------------------------------------------

def regions_of(c: SC1Element) -> tuple[tuple[str, int, Fraction, Fraction], ...]:
    """The alternating stack (kind, index, lo, hi), bottom to top: gap 0,
    disc 1, gap 1, ..., ending with the top gap (closed colour) or the open
    disc (open colour). Gaps may have length zero."""
    out: list = []
    lo = Fraction(0)
    for i, (a, b) in enumerate(c.intervals, start=1):
        out += [("gap", i - 1, lo, a), ("disc", i, a, b)]
        lo = b
    if c.color == "c":
        out.append(("gap", c.n, lo, Fraction(1)))
    return tuple(out)


def _cuts(regs) -> tuple:
    """The boundaries between consecutive regions as slicing cuts; a vertex
    exactly on a boundary lands in the adjacent gap."""
    return tuple((hi, kind == "gap") for kind, _, _, hi in regs[:-1])


def rescale(interval: tuple[Fraction, Fraction], body: BPoint) -> BPoint:
    """Pull a disc piece back through the disc's affine embedding."""
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo >= hi:
        raise DomainError("degenerate interval")

    def back(h: Fraction) -> Fraction:
        if not lo < h <= hi:
            raise DomainError(f"height {h} outside ]{lo},{hi}]")
        return (h - lo) / (hi - lo)

    return b_map_heights(body, back)


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def _assemble(c: SC1Element, fs: Sequence[Callable], y: BPoint,
              inclusion: OperadMap, tagged: bool):
    """Evaluate the region-wise recipe: gap pieces through the inclusion
    of their collapse, disc-i pieces through fs[i-1] on the rescaled body,
    composed bottom-up with inputs renumbered to y's own leaf numbers."""
    if len(fs) != len(c.intervals):
        raise DomainError(f"need {len(c.intervals)} maps, got {len(fs)}")
    target = inclusion.target
    regs = regions_of(c)
    top = len(regs) - 1
    tag_of: dict = {}   # leaf number -> the tag the top pieces give its input

    def open_piece(piece) -> tuple:
        """A slice piece's plain target value, and the pieces or leaf numbers above it."""
        kind, index, lo, hi = regs[piece.layer]
        if kind == "gap":
            return inclusion(mu_prime(piece.point)), piece.exits
        out = fs[index - 1](rescale((lo, hi), piece.point))
        if tagged and piece.layer == top:
            tag_of.update(zip(piece.exits, out.tags))
            return out.q, piece.exits
        return out, piece.exits

    piece_tree = slice_point(y, _cuts(regs))
    value = fold(*open_piece(piece_tree), open_piece, target.compose, target.restrict)
    if not tagged:
        return value
    return QXElem(value, tuple(tag_of[j] for j in range(1, y.arity + 1)))


def alpha_eval(c: SC1Element, fs: Sequence[Callable], y: BPoint,
               inclusion: OperadMap) -> QXElem:
    """The open-colour action: fs holds one map into the plain target per
    closed disc and a map into tagged elements for the open disc."""
    if c.color != "o":
        raise DomainError("the open-colour action needs an open configuration")
    return _assemble(c, fs, y, inclusion, tagged=True)


def d1_action_eval(c: SC1Element, fs: Sequence[Callable], y: BPoint,
                   inclusion: OperadMap):
    """The closed-colour action, entirely in the plain target."""
    if c.color != "c":
        raise DomainError("the closed-colour action needs a closed configuration")
    return _assemble(c, fs, y, inclusion, tagged=False)


# ---------------------------------------------------------------------------
# the corresponding action on paths of maps
# ---------------------------------------------------------------------------

def _disc_segments(c: SC1Element, paths: Sequence[PathOfMaps], base: OperadMap,
                   tail: Optional[PathOfMaps]) -> list[PathSegment]:
    """The loops in the closed discs and the tail, if any, in the open one,
    constant at the base map on the gaps."""
    if len(paths) != c.n:
        raise DomainError(f"need {c.n} loops, got {len(paths)}")
    if any(g.start != base or g.end != base for g in paths):
        raise DomainError("every loop must start and end at the base map")
    segments: list[PathSegment] = []
    cursor = Fraction(0)

    def constant(lo: Fraction, hi: Fraction) -> None:
        if lo < hi:
            segments.append(PathSegment(lo, hi, lambda v, s: base(v)))

    for i, (a, b) in enumerate(c.intervals, start=1):
        constant(cursor, a)
        run = tail if (tail is not None and i == len(c.intervals)) else paths[i - 1]
        segments.append(PathSegment(a, b, lambda v, s, g=run: g.at(v, s)))
        cursor = b
    constant(cursor, Fraction(1))
    return segments


def loop_act_sc(c: SC1Element, paths: Sequence[PathOfMaps],
                base: OperadMap) -> PathOfMaps:
    """Run each loop inside its disc, constant at the base map on gaps."""
    if c.color != "c":
        raise DomainError("loop concatenation needs a closed configuration")
    return PathOfMaps(f"sc-loop({format_sc(c)})", base.source, base.target,
                      base, base, _disc_segments(c, paths, base, None))


def path_act_sc(c: SC1Element, paths: Sequence[PathOfMaps], tail: PathOfMaps,
                base: OperadMap) -> PathOfMaps:
    """Loops in the closed discs, then the tail path in the open disc."""
    if c.color != "o":
        raise DomainError("path concatenation needs an open configuration")
    segments = _disc_segments(c, paths, base, tail)
    if tail.start != base:
        raise DomainError("the tail path must start at the base map")
    return PathOfMaps(f"sc-path({format_sc(c)})", base.source, base.target,
                      base, tail.end, segments)


# ---------------------------------------------------------------------------
# io and sampling
# ---------------------------------------------------------------------------

def format_sc(c: SC1Element) -> str:
    return c.color + _INTERVALS.format_element(c.intervals)


def parse_sc(text: str) -> SC1Element:
    text = text.strip()
    if text[:2] not in ("c<", "o<"):
        raise DomainError(f"bad configuration text {shown(text)}")
    return sc1(text[0], _INTERVALS.parse_element(text[1:]))


def sample_sc1(rng, n: int, color: str) -> SC1Element:
    """A random sorted configuration; open colour gets n closed discs plus
    the open one ending at 1."""
    count = n + (1 if color == "o" else 0)
    if count < 1:
        raise DomainError("need at least one interval")
    weights = []
    for i in range(count):
        weights.append(rng.randint(0, 3))     # gap below disc i+1, may vanish
        weights.append(rng.randint(1, 5))     # the disc itself
    weights.append(0 if color == "o" else rng.randint(0, 3))
    total = sum(weights)
    marks = []
    acc = 0
    for w in weights:
        acc += w
        marks.append(Fraction(acc, total))
    intervals = [(marks[2 * i], marks[2 * i + 1]) for i in range(count)]
    return sc1(color, intervals)
