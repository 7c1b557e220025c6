"""Independent brute-force checks for the exact face classification.

Two deliberately separate routes re-derive face facts from first principles,
both from one table of the digits on each side of the grid (:func:`_boundary_slabs`):

* voxel iterates of the unit cube certify face *emptiness* (one-sided: the
  iterate contains the attractor, so disjoint closed cell unions prove the
  face empty, while overlap proves nothing).  Iterates are sets of packed
  integers.  The certificate never builds one: it walks the difference of
  a cell on each of the two sides of the iterate that face each other,
  level by level, through at most 9 states in {-1,0,1}^2;
* a search over pairs of label paths re-decides the full empty/one/many
  trichotomy without the main path's successor masks.  The label relation
  is enumerated over pairs of side digits, and one backward pass prunes it
  to the offsets that start an infinite path; a worklist of (offset pair,
  difference) states then looks for two paths whose points differ, one
  pass per digit set, where a search that finds none settles its states
  for the later ones.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from typing import NamedTuple, Sequence

from .core import DigitSet
from .errors import BudgetExceeded, InternalInconsistency, InvalidRequest
from .faces import OFFSETS, offset_enc
from . import faces

Triple = tuple[int, int, int]

DEFAULT_CELL_BUDGET = 2_000_000


def _pack(t: Sequence[int], b: int) -> int:
    """The triple t packed as x + b*y + b^2*z."""
    return t[0] + b * (t[1] + b * t[2])


class VoxelSet(NamedTuple):
    """Cells of the m-th subdivision iterate of the unit cube, packed by
    :func:`_pack` with b = n^m + 1."""

    digitset: DigitSet
    depth: int
    packed: frozenset[int]

    @property
    def cells(self) -> frozenset[Triple]:
        b = self.digitset.n ** self.depth + 1
        return frozenset((p % b, p // b % b, p // (b * b)) for p in self.packed)


def _iterate(packed: Sequence[int], n: int, depth: int) -> list[int]:
    """The sums sum_i n^i p_i over the depth-letter words of the packed digits p.

    Packed in a base b > n^depth - 1, every coordinate of a partial sum is at
    most n^depth - 1 < b, so packing is linear on them and cannot carry: each
    level adds a scaled packed digit.
    """
    cells, scale = [0], 1
    for _ in range(depth):
        steps = [scale * p for p in packed]
        cells = [c + s for c in cells for s in steps]
        scale *= n
    return cells


def voxelize(ds: DigitSet, depth: int) -> VoxelSet:
    """Union of all depth-digit subdivision cells of the digit set."""
    if depth < 1:
        raise InvalidRequest("depth must be >= 1")
    # 2^limit cells exceed the budget: refuse deeper requests, of one digit too, before a huge power
    limit = DEFAULT_CELL_BUDGET.bit_length()
    if depth >= limit or len(ds) ** depth > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(f"depth {depth} with {len(ds)} digits exceeds the budget of "
                             f"{DEFAULT_CELL_BUDGET} cells and depth {limit - 1}")
    n = ds.n
    b = n ** depth + 1
    packed = [_pack(d, b) for d in ds.digits]
    # a word is its first ``half`` letters and the rest, so the iterate is the
    # depth-half iterate plus n^half times the depth-(depth - half) one; every
    # coordinate of a sum stays below n^depth < b, so no packed sum carries
    half = depth // 2
    low = _iterate(packed, n, half)
    scale = n ** half
    high = [scale * c for c in _iterate(packed, n, depth - half)]
    out = frozenset([c + h for h in high for c in low])
    if len(out) != len(ds) ** depth:
        raise InternalInconsistency(f"{len(out)} cells at depth {depth}, not {len(ds)}^{depth}")
    return VoxelSet(digitset=ds, depth=depth, packed=out)


@lru_cache(maxsize=8)
def _packed_inside(n: int) -> tuple[int, frozenset[int]]:
    """The base b = 4n of the oracle's packed walks, and {-1,0,1}^3 packed.

    Both walks step from a state p to n*p + s, where p is in {-1,0,1}^3 and
    s is a difference of two digits, so |s_k| <= n - 1.  Every component of
    such a sum lies in [1 - 2n, 2n - 1], within half the base, so packing is
    linear on these sums and cannot carry, and a packed sum is in the
    returned set exactly when every component is in {-1,0,1}.
    """
    b = 4 * n
    return b, frozenset(_pack(t, b) for t in itertools.product((-1, 0, 1), repeat=3))


@lru_cache(maxsize=1)  # callers finish one digit set before the next
def _boundary_slabs(ds: DigitSet) -> dict[Triple, list[Triple]]:
    """offset alpha -> the digits on the grid side that alpha points away from.

    That side holds the digits d with d_k = 0 where alpha_k > 0 and
    d_k = n - 1 where alpha_k < 0.  Both oracle routes read only pairs of
    the sides of alpha and -alpha, by the support fact of Bandt and Mesing:
    * a label edge u -> n*u + d' - d has n + d'_k - d_k in {-1,0,1} on an
      axis with u_k = 1 only when d'_k = 0 and d_k = n - 1, as
      |d'_k - d_k| <= n - 1 (u_k = -1 mirrors it), so d is on the side of
      -u and d' on the side of u, at every order n >= 2;
    * coordinate k of a depth-m cell, sum_i n^i d_{i,k}, is 0 (n^m - 1)
      exactly when every digit has d_k = 0 (n - 1), so the iterate's cells
      on the side of alpha are the iterate of the side digits.
    """
    n = ds.n
    sides: dict[Triple, list[Triple]] = {alpha: [] for alpha in OFFSETS}
    for d in ds.digits:
        d = tuple(d)
        pins = [(0, 1) if c == 0 else (0, -1) if c == n - 1 else (0,) for c in d]
        for alpha in itertools.product(*pins):
            if alpha != (0, 0, 0):
                sides[alpha].append(d)
    return sides


class EmptinessCheck(enum.Enum):
    CERTIFIED_EMPTY = "certified_empty"
    UNKNOWN = "unknown"


def oracle_face_empty(ds: DigitSet, alpha: Triple, depth: int,
                      vox: VoxelSet | None = None) -> EmptinessCheck:
    """Certify F(alpha) empty when the closed voxel regions do not touch.

    Closed cells c + n^m*alpha and c' of A_m + n^m*alpha and A_m can only
    touch when c is a cell of the side of alpha and c' one of the side of
    -alpha (:func:`_boundary_slabs`), and then they touch iff their free
    coordinates differ by at most 1 each.  With c = sum_i n^i u_i and
    c' = sum_i n^i w_i, their free difference is read from the top level down
    as P <- n*P + s with s = u_i - w_i + (n-1)*alpha, 0 on the pinned axes,
    packed as in :func:`_packed_inside`.  With r levels left the rest is at
    most n^r - 1 in absolute value, so a component of P outside {-1,0,1} keeps
    that component of the difference outside it: the cells touch iff some
    m-step walk from 0 stays inside.  The face is certified empty iff the set
    of reached states runs dry within m levels.  A nonzero component of a
    state can only stay as it is (n + s_k is inside only at 1, as
    |s_k| <= n - 1), so after k + 1 levels (k free axes) the set only grows,
    and a set equal to the previous one stays for good: the walk stops there.
    A set nonempty at level 3 thus never runs dry, the regions touch at every
    depth, and by compactness the face is nonempty: from depth 3 on the check
    decides both ways.  It builds no cells (no cell budget); a ``vox`` must
    match the request.
    """
    offset_enc(alpha)  # validate
    if depth < 1:
        raise InvalidRequest("depth must be >= 1")
    if vox is not None and (vox.digitset != ds or vox.depth != depth):
        raise InvalidRequest("precomputed voxel set does not match the request")
    x, y, z = alpha
    n = ds.n
    b, inside = _packed_inside(n)
    sides = _boundary_slabs(ds)
    pinned = (n - 1) * _pack(alpha, b)
    far = [_pack(w, b) for w in sides[-x, -y, -z]]
    steps = {_pack(u, b) - w + pinned for u in sides[x, y, z] for w in far}
    states, last = steps & inside, None  # level 1: from 0, step s reaches s
    for _ in range(depth - 1):
        if not states or states == last:
            break
        states, last = {t for p in states for s in steps if (t := n * p + s) in inside}, states
    return EmptinessCheck.UNKNOWN if states else EmptinessCheck.CERTIFIED_EMPTY


class FaceCardinality(enum.Enum):
    EMPTY = "empty"
    ONE = "one"
    AT_LEAST_TWO = "at_least_two"


def _label_edges(ds: DigitSet) -> dict[Triple, list[tuple[Triple, Triple]]]:
    """offset -> [(first label d, target offset)] by direct enumeration.

    u -> v = n*u + d' - d for every label pair that gives an offset v, of
    which only d on the side of -u and d' on the side of u can
    (:func:`_boundary_slabs`).
    """
    n = ds.n
    sides = _boundary_slabs(ds)
    out: dict[Triple, list[tuple[Triple, Triple]]] = {u: [] for u in OFFSETS}
    for (ux, uy, uz), edges in out.items():
        x, y, z = n * ux, n * uy, n * uz
        for d in sides[-ux, -uy, -uz]:
            for dp in sides[ux, uy, uz]:
                v = (x + dp[0] - d[0], y + dp[1] - d[1], z + dp[2] - d[2])
                if v in out:
                    edges.append((d, v))
    return out


@lru_cache(maxsize=1)  # callers finish one digit set before the next
def _relation(ds: DigitSet) -> dict[Triple, list[tuple[Triple, Triple]]]:
    """The label relation pruned to the offsets that start an infinite path.

    One backward pass for all starts: S_1 holds the offsets with an edge
    and S_{k+1} those with an edge into S_k, so S_k starts a k-step path.
    The sets shrink, so they are stable by S_26, and every offset of the
    stable S has an edge into S: S holds exactly the offsets that start an
    infinite path.  They are the keys, each with its edges into S, so every listed
    edge continues forever.
    """
    edges = _label_edges(ds)
    alive = {u for u in OFFSETS if edges[u]}
    targets = {u: {v for _, v in edges[u]} for u in alive}
    while dead := {u for u in alive if targets[u].isdisjoint(alive)}:
        alive -= dead
    return {u: [(d, v) for d, v in edges[u] if v in alive] for u in alive}


@lru_cache(maxsize=1)  # callers finish one digit set before the next
def _cardinalities(ds: DigitSet) -> dict[Triple, FaceCardinality]:
    """offset -> #F(offset) in {0, 1, >=2}, by one pass of pair searches.

    The search from alpha follows two paths of the pruned relation together
    with the difference of their partial sums; a difference that escapes
    {-1,0,1}^3 witnesses two distinct points, since both paths continue
    forever.  Digits are packed as in :func:`_packed_inside`, so a step is
    one multiply-add and one test against the packed {-1,0,1}^3.

    The searches run from each key of the relation in turn.  One that runs
    dry without an escape leaves ``seen`` closed under successors (up to the
    states already settled) and free of escapes, so no state of it reaches
    an escape: it joins ``settled``, and later searches never queue a state
    from there.  By induction ``settled`` stays closed and escape-free, so
    the pass decides every start exactly.  A search that escapes may have
    queued states that reach the escape, so it shares nothing.
    """
    n = ds.n
    b, inside = _packed_inside(n)
    relation = _relation(ds)
    index = {u: i for i, u in enumerate(relation)}
    edges = [[(_pack(d, b), index[v]) for d, v in relation[u]] for u in relation]
    out = dict.fromkeys(OFFSETS, FaceCardinality.EMPTY)
    settled: set[tuple[int, int, int]] = set()
    for alpha, i in index.items():
        seen = _pair_search(edges, i, n, inside, settled)
        if seen is None:
            out[alpha] = FaceCardinality.AT_LEAST_TWO
        else:
            out[alpha] = FaceCardinality.ONE
            settled |= seen
    return out


def _pair_search(edges: list[list[tuple[int, int]]], start: int, n: int, inside: frozenset[int],
                 settled: set[tuple[int, int, int]]) -> set[tuple[int, int, int]] | None:
    """The pair states reached from ``start`` outside ``settled``, or None on an escape.

    States are (offset of path 1, offset of path 2, packed difference of the
    partial sums), offsets numbered as in ``edges``.
    """
    seen = {(start, start, 0)}
    todo = [(start, start, 0)]
    while todo:
        i1, i2, s = todo.pop()
        base = n * s
        for p1, v1 in edges[i1]:
            t = base + p1
            for p2, v2 in edges[i2]:
                state = (v1, v2, t - p2)
                if state not in seen and state not in settled:
                    if state[2] not in inside:
                        return None
                    seen.add(state)
                    todo.append(state)
    return seen


def oracle_face_cardinality(ds: DigitSet, alpha: Triple) -> FaceCardinality:
    """Re-decide #F(alpha) in {0, 1, >=2} by a worklist over pairs of paths.

    F(alpha) is nonempty iff an infinite label path leaves alpha, that is
    iff alpha is a key of the pruned relation.  Its cardinality comes from
    :func:`_cardinalities`, which decides all 26 offsets of the digit set in
    one pass: a search that finds no escape settles the pair states it saw,
    and later searches skip them, as none of them reaches an escape.  Each
    search ends, as there are finitely many pair states (26 * 26 * 27) and
    each is queued at most once.
    """
    offset_enc(alpha)  # validate
    return _cardinalities(ds)[tuple(alpha)]


def export_cells(vox: VoxelSet) -> str:
    """Raw cell list, one ``x y z`` triple per line, sorted."""
    return "\n".join(f"{x} {y} {z}" for x, y, z in sorted(vox.cells)) + "\n"


_CUBE_CORNERS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)
# Two triangles per cube face, indices into the corner list above.
_CUBE_TRIANGLES = (
    (0, 2, 1), (0, 3, 2),  # bottom
    (4, 5, 6), (4, 6, 7),  # top
    (0, 1, 5), (0, 5, 4),  # front
    (1, 2, 6), (1, 6, 5),  # right
    (2, 3, 7), (2, 7, 6),  # back
    (3, 0, 4), (3, 4, 7),  # left
)


def export_obj(vox: VoxelSet) -> str:
    """Wavefront-style triangle mesh: one cube (8 vertices, 12 faces) per cell.

    Every exported cell contains a point of the attractor within
    sqrt(3) * n^-depth, so the mesh over-approximates it tightly.
    """
    scale = vox.digitset.n ** vox.depth
    lines = [f"# voxel mesh of {vox.digitset} at depth {vox.depth}: {len(vox.packed)} cells"]
    index = 0
    for cx, cy, cz in sorted(vox.cells):
        for ox, oy, oz in _CUBE_CORNERS:
            lines.append(f"v {(cx + ox) / scale:.9f} {(cy + oy) / scale:.9f} {(cz + oz) / scale:.9f}")
        for a, b, c in _CUBE_TRIANGLES:
            lines.append(f"f {index + a + 1} {index + b + 1} {index + c + 1}")
        index += 8
    return "\n".join(lines) + "\n"


def export_mesh(vox: VoxelSet, fmt: str) -> str:
    if fmt == "cells":
        return export_cells(vox)
    if fmt == "obj":
        return export_obj(vox)
    raise InvalidRequest(f"unknown mesh format {fmt!r}")


def faces_agree(ds: DigitSet, alpha: Triple) -> bool:
    """Cross-validate the exact classifier against the path oracle."""
    exact = faces.classify_face(ds, alpha)
    card = oracle_face_cardinality(ds, alpha)
    if card is FaceCardinality.EMPTY:
        return exact.is_empty
    return exact.is_point if card is FaceCardinality.ONE else exact.is_multi
