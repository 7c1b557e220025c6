"""Digit sets on the n x n x n grid and the 48 symmetries of the cube.

A digit set selects N of the n^3 subcubes kept at each subdivision step of
the unit cube; it is stored both as a sorted tuple of coordinate triples and
as an n^3-bit occupancy code (bit c set iff the cell with index c is kept).
Cell indices run x-fastest: c = x + n*y + n^2*z.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, NamedTuple

from .errors import DuplicateDigit, InternalInconsistency, OutOfRange, ParseError

MIN_ORDER = 2
MAX_ORDER = 5


class Digit(NamedTuple):
    x: int
    y: int
    z: int

    def __repr__(self) -> str:
        return f"({self.x},{self.y},{self.z})"


def cell_index(d: Digit, n: int) -> int:
    """Bijection Digit <-> {0, ..., n^3 - 1}, x-fastest."""
    return d[0] + n * d[1] + n * n * d[2]


def digit_from_cell(c: int, n: int) -> Digit:
    """Inverse of :func:`cell_index`."""
    return Digit(c % n, (c // n) % n, c // (n * n))


@lru_cache(maxsize=8)
def _cell_digits(n: int) -> tuple[Digit, ...]:
    return tuple(digit_from_cell(c, n) for c in range(n ** 3))


def _check_order(n: int) -> None:
    if not MIN_ORDER <= n <= MAX_ORDER:
        raise OutOfRange(f"order must be in [{MIN_ORDER}, {MAX_ORDER}], got {n}")


class DigitSet:
    """Immutable digit set of order ``n`` with occupancy code ``code``."""

    __slots__ = ("_n", "_digits", "_code")

    def __init__(self, n: int, digits: tuple[Digit, ...], code: int) -> None:
        self._n, self._digits, self._code = n, digits, code

    # read-only: a property without a setter refuses assignment with AttributeError
    n = property(attrgetter("_n"))
    digits = property(attrgetter("_digits"))
    code = property(attrgetter("_code"))

    @classmethod
    def from_digits(cls, digits: Iterable[tuple[int, int, int]], n: int = 3) -> "DigitSet":
        _check_order(n)
        code = 0
        for x, y, z in digits:
            if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
                raise OutOfRange(f"digit {Digit(x, y, z)} out of range for order {n}")
            bit = 1 << cell_index((x, y, z), n)
            if code & bit:
                raise DuplicateDigit(f"digit {Digit(x, y, z)} listed twice")
            code |= bit
        if not code:
            raise ParseError("digit set must contain at least one digit")
        return cls.from_code(code, n=n)

    @classmethod
    def from_code(cls, code: int, n: int = 3) -> "DigitSet":
        _check_order(n)
        if code <= 0 or code >> n ** 3:
            raise OutOfRange(f"occupancy code {code:#x} invalid for order {n}")
        table = _cell_digits(n)
        digits = tuple(table[c] for c in range(code.bit_length()) if code >> c & 1)
        return cls(n=n, digits=digits, code=code)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitSet):
            return NotImplemented
        return self._code == other._code and self._n == other._n

    def __hash__(self) -> int:
        # equal sets have equal codes; every lru_cache keyed by a digit set hashes it
        return self._code

    def __repr__(self) -> str:
        return f"DigitSet(n={self._n!r}, digits={self._digits!r}, code={self._code!r})"

    def __len__(self) -> int:
        return len(self._digits)

    def __iter__(self):
        return iter(self._digits)

    def cells(self) -> tuple[int, ...]:
        return tuple(cell_index(d, self._n) for d in self._digits)

    def render_compact(self) -> str:
        """Canonical text form: underscore-joined xyz strings, sorted."""
        return "_".join(f"{d.x}{d.y}{d.z}" for d in self.digits)

    def render_braced(self) -> str:
        """Brace-and-tuple text form, e.g. ``{(0,2,0), (1,0,1)}``."""
        return "{" + ", ".join(f"({d.x},{d.y},{d.z})" for d in self.digits) + "}"

    def __str__(self) -> str:
        return self.render_compact()


_TUPLE_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_digitset(text: str, n: int = 3) -> DigitSet:
    """Parse either compact (``020_101_...``) or braced (``{(0,2,0), ...}``) form.

    Input order is irrelevant; the result is sorted by cell index.
    """
    _check_order(n)
    s = text.strip()
    if not s:
        raise ParseError("empty digit-set literal")
    if "(" in s or "{" in s:
        body = s.strip()
        if body.startswith("{"):
            if not body.endswith("}"):
                raise ParseError("unbalanced braces in digit-set literal")
            body = body[1:-1]
        triples = _TUPLE_RE.findall(body)
        residue = _TUPLE_RE.sub("", body).replace(",", "").strip()
        if not triples or residue:
            raise ParseError(f"malformed tuple list: {text!r}")
        return DigitSet.from_digits([tuple(map(int, t)) for t in triples], n=n)
    tokens = s.split("_")
    for token in tokens:
        if len(token) != 3 or not token.isdecimal():
            raise ParseError(f"malformed digit token {token!r}")
    return DigitSet.from_digits([(v // 100, v // 10 % 10, v % 10) for v in map(int, tokens)], n=n)


class Isometry(NamedTuple):
    """Signed coordinate permutation: d[i] -> flip_i(d[perm[i]]).

    ``flips[i]`` sends coordinate c to (n-1)-c after the permutation; the
    same map acts on offsets in {-1,0,1}^3 by negation instead.
    """

    perm: tuple[int, int, int]
    flips: tuple[bool, bool, bool]

    def apply_digit(self, d: Digit, n: int) -> Digit:
        return Digit(*((n - 1 - d[p]) if f else d[p] for p, f in zip(self.perm, self.flips)))

    def apply_offset(self, v: tuple[int, int, int]) -> tuple[int, int, int]:
        """Action on {-1,0,1}^3, the tests' reference for face equivariance."""
        return tuple((-v[p]) if f else v[p] for p, f in zip(self.perm, self.flips))

    def apply_point(self, point):
        """Affine action on [0,1]^3, the tests' reference for face equivariance."""
        return tuple((1 - point[p]) if f else point[p] for p, f in zip(self.perm, self.flips))


# Fixed, deterministic order: permutations lexicographic, then flip bits.
CUBE_GROUP: tuple[Isometry, ...] = tuple(
    Isometry(perm, flips)
    for perm in itertools.permutations((0, 1, 2))
    for flips in itertools.product((False, True), repeat=3)
)


def apply_isometry(g: Isometry, ds: DigitSet) -> DigitSet:
    """Image of a digit set under one cube symmetry."""
    return DigitSet.from_digits((g.apply_digit(d, ds.n) for d in ds.digits), n=ds.n)


@lru_cache(maxsize=8)
def _cell_permutations(n: int) -> list[list[int]]:
    """For each group element, the induced permutation of cell indices."""
    tables = []
    for g in CUBE_GROUP:
        # coordinate p of a cell becomes coordinate i = perm.index(p) of its image
        axes = [[], [], []]
        for i, (p, flip) in enumerate(zip(g.perm, g.flips)):
            axes[p] = [(n - 1 - v if flip else v) * n ** i for v in range(n)]
        xs, ys, zs = axes
        tables.append([x + y + z for z in zs for y in ys for x in xs])
    return tables


def _image(table: list[int], code: int) -> int:
    """Occupancy code moved by one cell permutation."""
    out = 0
    while code:
        low = code & -code
        out |= 1 << table[low.bit_length() - 1]
        code ^= low
    return out


def transform_code(g_index: int, code: int, n: int) -> int:
    """Apply CUBE_GROUP[g_index] to an occupancy code."""
    return _image(_cell_permutations(n)[g_index], code)


class _CanonicalFields(NamedTuple):
    canonical: DigitSet
    orbit_size: int
    stabilizer_size: int
    witness: Isometry


class CanonicalForm(_CanonicalFields):
    """Orbit minimum of a digit set under the 48 cube symmetries."""

    __slots__ = ()

    # typing.NamedTuple refuses a __new__ of its own, hence the subclass
    def __new__(cls, *args, **kwargs):
        form = super().__new__(cls, *args, **kwargs)
        if form.orbit_size * form.stabilizer_size != len(CUBE_GROUP):
            raise InternalInconsistency(f"orbit {form.orbit_size} x stabilizer {form.stabilizer_size} != 48")
        return form


# Codes are read in slices of this many bits, one lookup table per slice.
_SLICE_BITS = 9
_SLICE_MASK = (1 << _SLICE_BITS) - 1


@lru_cache(maxsize=4)
def _orbit_tables(n: int) -> tuple[list[tuple[int, list[int], int]], list[int],
                                   list[list[tuple[int, int]]], int, int]:
    """Per-slice lookup tables of a code's images under the cube group.

    Packed values have one field of ``n**3 + 1`` bits for each non-identity
    element ``g`` of ``CUBE_GROUP``.  Entry ``v`` of a slice's table is the
    sum over ``g`` of ``g(part) - part`` shifted into field ``g``, where
    ``part`` is the code of the slice's cells in ``v``.  A code's images
    are the OR of its slices' images, so the guard bits (the top bit of
    every field) plus one entry per slice give ``2**n**3 + g(code) - code``
    in field ``g``, which never leaves its field; the same holds for the
    entries of any set of slices, with ``g(part) - part`` of their cells.

    Returns ``(levels, low, lows, ones, guards)``.  ``levels`` holds, from
    the highest slice down to the second lowest, each slice's lowest cell
    ``lo``, its table and its stable mask: the guard bits of the elements
    that map the cells ``0..lo-1`` onto themselves (0 where there are
    none).  ``low`` is the lowest slice's table, and ``lows[r]`` lists its
    values with ``r`` cells in increasing order, each with its entry.
    ``ones`` is the packed value with 1 in every field.
    """
    ncells = n ** 3
    width = ncells + 1
    perms = _cell_permutations(n)[1:]
    ones = sum(1 << width * g for g in range(len(perms)))
    levels = []
    for lo in range(0, ncells, _SLICE_BITS):
        table = [0]
        for c in range(lo, min(lo + _SLICE_BITS, ncells)):
            cell = sum(1 << width * g + perm[c] for g, perm in enumerate(perms)) - (ones << c)
            table += [entry + cell for entry in table]
        # a permutation maps the cells below lo onto themselves iff it maps them below lo
        stable = sum(1 << width * g + ncells for g, perm in enumerate(perms)
                     if max(perm[:lo], default=lo) < lo)
        levels.append((lo, table, stable))
    (_, low, _), *levels = levels
    lows: list[list[tuple[int, int]]] = [[] for _ in range(len(low).bit_length())]
    for v, entry in enumerate(low):
        lows[v.bit_count()].append((v, entry))
    return levels[::-1], low, lows, ones, ones << ncells


def _orbit_images(code: int, n: int) -> list[int]:
    """The images of a code under ``CUBE_GROUP``, in its order, from the slice tables."""
    levels, low, _, _, guards = _orbit_tables(n)
    packed = guards + low[code & _SLICE_MASK]
    for lo, table, _ in levels:
        packed += table[code >> lo & _SLICE_MASK]
    width = n ** 3 + 1
    mask = (1 << width) - 1
    # field g holds 2**n**3 + g(code) - code
    base = code - (1 << width - 1)
    return [code] + [base + (packed >> width * g & mask) for g in range(len(CUBE_GROUP) - 1)]


def canonical_code(code: int, n: int) -> int:
    """Minimum occupancy code over the 48 images."""
    return min(_orbit_images(code, n))


def canonical_form(ds: DigitSet) -> CanonicalForm:
    """Canonical representative, orbit size, stabilizer size and a witness."""
    images = _orbit_images(ds.code, ds.n)
    best = min(images)
    return CanonicalForm(
        canonical=DigitSet.from_code(best, n=ds.n),
        orbit_size=len(set(images)),
        stabilizer_size=images.count(ds.code),
        witness=CUBE_GROUP[images.index(best)],
    )
