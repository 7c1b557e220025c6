"""Exact classification of the face sets F(v) = K intersect (K + v).

For a digit set D of order n, a labeled automaton on the 26 offsets
v in {-1,0,1}^3 \\ {0} encodes the faces: an edge u -> w labeled (d, d')
with d, d' in D exists when w = n*u + d' - d lands back in the offset set,
and F(u) is nonempty iff an infinite path starts at u.  Points of F(u) are
read off the first labels d along infinite paths, x = sum d_i / n^i.

Two label paths describe the same point iff every partial difference state
s_m = n*s_{m-1} + (d_m - e_m) stays inside {-1,0,1}^3 (the tail of the
difference series is bounded by 1 in sup norm).  Searching the product of
the live subautomaton with the 27 difference states therefore decides
"singleton or bigger" exactly; no floating point is involved anywhere.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .core import Digit, DigitSet, _cell_digits
from .errors import OutOfRange

Triple = tuple[int, int, int]

# Offsets are indexed by their code (x+1) + 3(y+1) + 9(z+1) in 0..26: 13 is
# the zero vector, and -v has code 26 - offset_enc(v).
ZERO_ENC = 13
_OFFSET_CODES: dict[Triple, int] = {
    (e % 3 - 1, e // 3 % 3 - 1, e // 9 - 1): e for e in range(27) if e != ZERO_ENC
}
OFFSETS: tuple[Triple, ...] = tuple(_OFFSET_CODES)
# Offset codes by decreasing support size.  An edge u -> n*u + d' - d keeps
# u's nonzero coordinates (|d'_k - d_k| < n): it is a self-loop or ends at a larger support.
_BY_SUPPORT = tuple(_OFFSET_CODES[v] for v in sorted(OFFSETS, key=lambda v: v.count(0)))


def offset_enc(v: Triple) -> int:
    try:
        return _OFFSET_CODES[tuple(v)]
    except (KeyError, TypeError):
        raise OutOfRange(f"{v} is not a nonzero offset in {{-1,0,1}}^3") from None


class _Tables:
    """Static per-order tables shared by the automaton and the pipeline.

    Triples are packed as x + b*y + b^2*z; ``packed[a]`` is digit(a) packed.
    Every component of a difference of two digits, or of n*s + d - d' with
    s in {-1,0,1}^3, lies in [1 - 2n, 2n - 1], so with any base above 2n no
    such sum aliases onto {-1,0,1}^3: it is a key of ``state`` (the packed
    {-1,0,1}^3, valued by offset code) exactly when every component is in
    {-1,0,1}.  The base is 4n, which leaves room.

    pair_edges[a * ncells + b] lists the labelled edges by label: one
    (u_enc, 1 << w_enc) per edge u -> w labelled (digit(a), digit(b)), that
    is, per offset u with w = n*u + digit(b) - digit(a) an offset.  For
    n >= 3 a difference of two digits realizes at most one edge.
    """

    def __init__(self, n: int):
        self.n = n
        ncells = n ** 3
        self.ncells = ncells
        self.coords = _cell_digits(n)
        base = 4 * n
        self.packed = packed = [x + base * (y + base * z) for x, y, z in self.coords]
        offsets = {x + base * (y + base * z): e for (x, y, z), e in _OFFSET_CODES.items()}
        self.state = state = {**offsets, 0: ZERO_ENC}

        # the edges of a label depend only on its step digit(b) - digit(a)
        steps = {step: tuple((u, 1 << state[n * p + step]) for p, u in offsets.items()
                             if n * p + step in state)
                 for step in {pb - pa for pa in packed for pb in packed}}
        self.pair_edges = tuple(steps[pb - pa] for pa in packed for pb in packed)

        # pair_off[a * ncells + b] = code of digit(a) - digit(b), 255 = equal or far apart
        self.pair_off = pair_off = bytes(offsets.get(pa - pb, 255) for pa in packed for pb in packed)
        # near[a]: bitmask of the cells b with pair_off[a * ncells + b] != 255
        self.near = [sum(1 << b for b in range(ncells) if pair_off[a * ncells + b] != 255)
                     for a in range(ncells)]


@lru_cache(maxsize=8)
def tables_for_order(n: int) -> _Tables:
    return _Tables(n)


def _successors(cells, tables: _Tables) -> list[int]:
    """succ[u]: bitmask of the offsets w with an edge u -> w, by digit pairs."""
    pair_edges = tables.pair_edges
    ncells = tables.ncells
    succ = [0] * 27
    for a in cells:
        row = a * ncells
        for b in cells:
            for u, bit in pair_edges[row + b]:
                succ[u] |= bit
    return succ


def _scc_live(succ: list[int]) -> int:
    """Bitmask of offsets with an infinite outgoing path.

    u is live iff it has a self-loop or a live successor, and its other
    successors have larger supports, so one pass over ``_BY_SUPPORT``
    decides them before u.
    """
    live = 0
    for u in _BY_SUPPORT:
        if succ[u] & (live | 1 << u):
            live |= 1 << u
    return live


def _live_edges(cells, live: int, tables: _Tables) -> list[list[tuple[int, int]]]:
    """edges[u]: (w_enc, a) for each edge u -> w into a live w, label (digit(a), .).

    Entries are in increasing (a, b) label order, so edges[u][0] carries the
    smallest label.
    """
    pair_edges = tables.pair_edges
    ncells = tables.ncells
    edges: list[list[tuple[int, int]]] = [[] for _ in range(27)]
    for a in cells:
        row = a * ncells
        for b in cells:
            for u, bit in pair_edges[row + b]:
                if bit & live:
                    edges[u].append((bit.bit_length() - 1, a))
    return edges


def _escape_reachable(edges, start: int, tables: _Tables) -> bool:
    """True iff two live label paths from the start offset can diverge.

    Searches the product of the live automaton with itself and the 27
    difference states; ``edges`` is the output of :func:`_live_edges`.  A
    difference is packed as in :class:`_Tables`, so a step is one
    multiply-add and one lookup in ``tables.state``.
    """
    n, packed, state = tables.n, tables.packed, tables.state
    seen = {(start * 27 + start) * 27 + ZERO_ENC}
    todo = [(start, start, 0)]
    while todo:
        u1, u2, s = todo.pop()
        for v1, a1 in edges[u1]:
            step = n * s + packed[a1]
            for v2, a2 in edges[u2]:
                ns = step - packed[a2]
                code = state.get(ns)
                if code is None:
                    return True
                key = (v1 * 27 + v2) * 27 + code
                if key not in seen:
                    seen.add(key)
                    todo.append((v1, v2, ns))
    return False


class FaceKind(enum.Enum):
    EMPTY = "empty"
    POINT = "point"
    MULTI = "multi"


class TriadicPoint:
    """Exact point 0.a(c) per axis in base n: the preperiod a, then one digit c repeated.

    One digit, since the smallest label path reaches an offset again only
    through a self-loop.  ``value`` is computed on first use: a face verdict
    that is never printed or compared needs only the digits.
    """

    __slots__ = ("_n", "_preperiod", "_period", "_value")

    def __init__(self, n: int, preperiod: tuple[Digit, ...], period: Digit) -> None:
        self._n, self._preperiod, self._period, self._value = n, preperiod, period, None

    # read-only: a property without a setter refuses assignment with AttributeError
    n = property(attrgetter("_n"))
    preperiod = property(attrgetter("_preperiod"))
    period = property(attrgetter("_period"))

    @property
    def value(self) -> tuple[Fraction, Fraction, Fraction]:
        if self._value is None:
            n, a = self._n, (0, 0, 0)
            for d in self._preperiod:
                a = (a[0] * n + d[0], a[1] * n + d[1], a[2] * n + d[2])
            den = n ** len(self._preperiod) * (n - 1)
            self._value = tuple(Fraction(a[k] * (n - 1) + self._period[k], den) for k in range(3))
        return self._value

    def __eq__(self, other) -> bool:
        return isinstance(other, TriadicPoint) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"TriadicPoint(n={self._n!r}, preperiod={self._preperiod!r}, period={self._period!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.value) + ")"


class FaceClass(NamedTuple):
    kind: FaceKind
    point: TriadicPoint | None = None

    @property
    def is_empty(self) -> bool:
        return self.kind is FaceKind.EMPTY

    @property
    def is_point(self) -> bool:
        return self.kind is FaceKind.POINT

    @property
    def is_multi(self) -> bool:
        return self.kind is FaceKind.MULTI


# the verdicts without a point, shared by every face that has them
_EMPTY = FaceClass(FaceKind.EMPTY)
_MULTI = FaceClass(FaceKind.MULTI)


@lru_cache(maxsize=4096)
def build_automaton(digitset: DigitSet) -> tuple[int, list[list[tuple[int, int]]]]:
    """The live offsets of a digit set and its edges into them, cached.

    Returns ``(live, edges)``: the bitmask of offsets that start an infinite
    path (have a nonempty face) and :func:`_live_edges` of that mask.
    """
    tables = tables_for_order(digitset.n)
    cells = digitset.cells()
    live = _scc_live(_successors(cells, tables))
    return live, _live_edges(cells, live, tables)


@lru_cache(maxsize=65536)
def classify_face(digitset: DigitSet, alpha: Triple) -> FaceClass:
    """Exact three-way classification of F(alpha): empty, singleton or bigger.

    A point is read off the smallest live labels from alpha.  Supports only
    grow along an edge, so a walk comes back to an offset only through a
    self-loop: the labels before it are the preperiod, its label the period.
    """
    enc = offset_enc(alpha)
    live, edges = build_automaton(digitset)
    if not live >> enc & 1:
        return _EMPTY
    tables = tables_for_order(digitset.n)
    if _escape_reachable(edges, enc, tables):
        return _MULTI
    labels: list[Digit] = []
    u, (w, a) = enc, edges[enc][0]
    while w != u:
        labels.append(tables.coords[a])
        u, (w, a) = w, edges[w][0]
    return FaceClass(FaceKind.POINT, TriadicPoint(digitset.n, tuple(labels), tables.coords[a]))

