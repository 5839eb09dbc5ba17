"""One-dimensional two-colour interval configurations and their action on
pairs of evaluable maps out of the height-tree resolution.

A configuration cuts [0,1] into an alternating stack of gaps and discs.
Slicing a height tree along those boundaries assigns every vertex to one
region (ties go to gaps), inserts a trivial tree wherever a strand crosses
a region with no vertex, and the action evaluates gap pieces through the
designated inclusion and disc pieces through the supplied maps, composing
everything back together in the target.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bconstruction import BPoint, b_map_heights, mu_prime, slice_point
from .mapping import OperadMap, PathOfMaps, PathSegment, QXElem
from .operads import format_fraction, parse_fraction
from .trees import DomainError, Record, fold, shown


class SC1Element(Record):
    """A sorted configuration of subintervals of [0,1].

    Closed colour: the intervals are the n closed-input discs. Open
    colour: the last interval is the open-input disc and must end at 1."""

    color: str
    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def n(self) -> int:
        return len(self.intervals) - (1 if self.color == "o" else 0)

    @property
    def m(self) -> int:
        return 1 if self.color == "o" else 0

    @property
    def slots(self) -> int:
        return len(self.intervals)


def sc1(color: str, intervals) -> SC1Element:
    if color not in ("c", "o"):
        raise DomainError(f"colour must be 'c' or 'o', got {shown(color)}")
    pairs = tuple((Fraction(a), Fraction(b)) for a, b in intervals)
    if not pairs:
        raise DomainError("a configuration needs at least one interval")
    previous = Fraction(0)
    for a, b in pairs:
        if a < previous:
            raise DomainError("intervals must be sorted left to right")
        if a >= b:
            raise DomainError(f"empty interval [{a},{b}]")
        previous = b
    if previous > 1:
        raise DomainError("intervals must stay inside [0,1]")
    if color == "o" and pairs[-1][1] != 1:
        raise DomainError("the open-input interval must end at 1")
    return SC1Element(color, pairs)


def gaps(c: SC1Element) -> tuple[tuple[Fraction, Fraction], ...]:
    """The complementary gaps h_0..h_n, zero-length ones included. For the
    open colour the last gap stops at the open interval; for the closed
    colour it runs up to 1."""
    out = [(Fraction(0), c.intervals[0][0])]
    for i in range(1, len(c.intervals)):
        out.append((c.intervals[i - 1][1], c.intervals[i][0]))
    if c.color == "c":
        out.append((c.intervals[-1][1], Fraction(1)))
    return tuple(out)


def sc_identity_closed() -> SC1Element:
    return sc1("c", ((Fraction(0), Fraction(1)),))


def sc_identity_open() -> SC1Element:
    return sc1("o", ((Fraction(0), Fraction(1)),))


def compose_sc(c: SC1Element, i: int, other: SC1Element) -> SC1Element:
    """Substitute a configuration into slot i. Closed slots take closed
    configurations; the open slot (last, open colour only) takes open."""
    if not 1 <= i <= c.slots:
        raise DomainError(f"slot {i} out of range 1..{c.slots}")
    open_slot = c.color == "o" and i == c.slots
    if open_slot and other.color != "o":
        raise DomainError("the open slot takes an open configuration")
    if not open_slot and other.color != "c":
        raise DomainError(f"closed slot {i} takes a closed configuration")
    a, b = c.intervals[i - 1]
    w = b - a
    block = tuple((a + w * x, a + w * y) for x, y in other.intervals)
    return SC1Element(c.color, c.intervals[: i - 1] + block + c.intervals[i:])


# ---------------------------------------------------------------------------
# regions and subpoint extraction
# ---------------------------------------------------------------------------

def regions_of(c: SC1Element) -> tuple[tuple[str, int, Fraction, Fraction], ...]:
    """The alternating stack (kind, index, lo, hi), bottom to top: gap 0,
    disc 1, gap 1, ..., ending with the top gap (closed colour) or the open
    disc (open colour)."""
    hs = gaps(c)
    out: list = []
    for i, (a, b) in enumerate(c.intervals, start=1):
        out.append(("gap", i - 1, *hs[i - 1]))
        out.append(("disc", i, a, b))
    if c.color == "c":
        out.append(("gap", c.n, *hs[c.n]))
    return tuple(out)


def _cuts(c: SC1Element):
    """Region boundaries as slicing cuts; a vertex exactly on a boundary
    always lands in the adjacent gap."""
    cuts = []
    last = len(c.intervals)
    for i, (a, b) in enumerate(c.intervals, start=1):
        cuts.append((a, True))
        if not (c.color == "o" and i == last):
            cuts.append((b, False))
    return tuple(cuts)


class Subpoint(Record):
    region: tuple[str, int]
    body: BPoint
    position: int


class SubpointTable(Record):
    discs: tuple[tuple[Subpoint, ...], ...]
    gaps: tuple[tuple[Subpoint, ...], ...]

    def sequence(self, region: tuple[str, int]) -> tuple[Subpoint, ...]:
        kind, index = region
        return self.discs[index - 1] if kind == "disc" else self.gaps[index]


def extract_subpoints(y: BPoint, c: SC1Element) -> SubpointTable:
    """Carve y into maximal one-region subtrees, in planar order per
    region, with a trivial tree for every strand crossing a region it has
    no vertex in."""
    regs = regions_of(c)
    piece = slice_point(y, _cuts(c), trivial_chains=True)
    buckets: list[list[BPoint]] = [[] for _ in regs]
    _bucket_pieces(piece, buckets)
    gap_seqs: list[tuple[Subpoint, ...]] = []
    disc_seqs: list[tuple[Subpoint, ...]] = []
    for (kind, index, _, _), bodies in zip(regs, buckets):
        seq = tuple(Subpoint((kind, index), body, pos)
                    for pos, body in enumerate(bodies))
        if kind == "gap":
            gap_seqs.append(seq)
        else:
            disc_seqs.append(seq)
    return SubpointTable(tuple(disc_seqs), tuple(gap_seqs))


def _bucket_pieces(piece, buckets: list[list[BPoint]]) -> None:
    """Append each piece's point to its layer's bucket, in preorder."""
    buckets[piece.layer].append(piece.point)
    for entry in piece.exits:
        if not isinstance(entry, int):
            _bucket_pieces(entry, buckets)


def rescale(interval: tuple[Fraction, Fraction], s) -> BPoint:
    """Pull a disc subpoint back through the disc's affine embedding."""
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo >= hi:
        raise DomainError("degenerate interval")
    body = s.body if isinstance(s, Subpoint) else s

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

    piece_tree = slice_point(y, _cuts(c), trivial_chains=True)
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
    if len(paths) != c.n:
        raise DomainError(f"need {c.n} loops, got {len(paths)}")
    for g in paths:
        if g.start != base or g.end != base:
            raise DomainError("every loop must start and end at the base map")
    return PathOfMaps(f"sc-loop({format_sc(c)})", base.source, base.target,
                      base, base, _disc_segments(c, paths, base, None))


def path_act_sc(c: SC1Element, paths: Sequence[PathOfMaps], tail: PathOfMaps,
                base: OperadMap) -> PathOfMaps:
    """Loops in the closed discs, then the tail path in the open disc."""
    if c.color != "o":
        raise DomainError("path concatenation needs an open configuration")
    if len(paths) != c.n:
        raise DomainError(f"need {c.n} loops, got {len(paths)}")
    for g in paths:
        if g.start != base or g.end != base:
            raise DomainError("every loop must start and end at the base map")
    if tail.start != base:
        raise DomainError("the tail path must start at the base map")
    return PathOfMaps(f"sc-path({format_sc(c)})", base.source, base.target,
                      base, tail.end, _disc_segments(c, paths, base, tail))


# ---------------------------------------------------------------------------
# io and sampling
# ---------------------------------------------------------------------------

def format_sc(c: SC1Element) -> str:
    body = " ".join(f"[{format_fraction(a)},{format_fraction(b)}]"
                    for a, b in c.intervals)
    return f"{c.color}<{body}>"


def parse_sc(text: str) -> SC1Element:
    text = text.strip()
    if len(text) < 3 or text[0] not in "co" or text[1] != "<" or text[-1] != ">":
        raise DomainError(f"bad configuration text {shown(text)}")
    pairs = []
    for chunk in text[2:-1].split():
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise DomainError(f"bad interval {shown(chunk)}")
        a, _, b = chunk[1:-1].partition(",")
        pairs.append((parse_fraction(a), parse_fraction(b)))
    return sc1(text[0], pairs)


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
