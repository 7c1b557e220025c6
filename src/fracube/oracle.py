"""Independent brute-force checks for the exact face classification.

Two deliberately separate routes re-derive face facts from first principles:

* voxel iterates of the unit cube certify face *emptiness* (one-sided: the
  iterate contains the attractor, so disjoint closed cell unions prove the
  face empty, while overlap proves nothing).  Iterates are sets of packed
  integers.  The certificate never builds one: it walks the difference of
  a cell on each of the two sides of the iterate that face each other,
  level by level, through at most 9 states in {-1,0,1}^2;
* a search over pairs of label paths re-decides the full empty/one/many
  trichotomy without the main path's successor masks.  The label relation
  is solved per axis for each label step, and one backward pass prunes it
  to the offsets that start an infinite path; a worklist of (offset pair,
  difference) states then looks for two paths whose points differ.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import DigitSet
from .errors import BudgetExceeded, InvalidRequest
from .faces import OFFSETS, offset_enc
from . import faces

Triple = tuple[int, int, int]

DEFAULT_CELL_BUDGET = 2_000_000


@dataclass(frozen=True)
class VoxelSet:
    """Cells of the m-th subdivision iterate of the unit cube, packed as
    (x*b + y)*b + z with b = n^m + 1."""

    digitset: DigitSet
    depth: int
    packed: frozenset[int]

    @property
    def cells(self) -> frozenset[Triple]:
        b = self.digitset.n ** self.depth + 1
        return frozenset((p // (b * b), p // b % b, p % b) for p in self.packed)


def _check_request(ds: DigitSet, depth: int) -> None:
    if depth < 1:
        raise InvalidRequest("depth must be >= 1")
    if len(ds) ** depth > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(f"{len(ds)}^{depth} cells exceed budget {DEFAULT_CELL_BUDGET}")


def _iterate(packed: Sequence[int], n: int, depth: int) -> list[int]:
    """The sums sum_i n^i p_i over the depth-letter words of the packed digits p.

    Packed in base n^depth + 1, every coordinate of a partial sum is at most
    n^depth - 1 < b, so packing is linear on them and cannot carry: each
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
    _check_request(ds, depth)
    b = ds.n ** depth + 1
    out = frozenset(_iterate([(d[0] * b + d[1]) * b + d[2] for d in ds.digits], ds.n, depth))
    assert len(out) == len(ds) ** depth
    return VoxelSet(digitset=ds, depth=depth, packed=out)


@lru_cache(maxsize=1)  # callers finish one digit set before the next
def _boundary_slabs(ds: DigitSet) -> dict[Triple, tuple[frozenset[int], frozenset[int]]]:
    """offset alpha -> (steps, inside) of the certificate's difference walk.

    Coordinate k of a depth-m cell is sum_i n^i d_{i,k} with every term in
    [0, n-1], so it is 0 exactly when every digit has d_k = 0 and
    n^m - 1 exactly when every digit has d_k = n - 1.  The near side of
    alpha (coordinate 0 where alpha_k > 0, n^m - 1 where alpha_k < 0) is
    therefore the iterate of the digits with d_k = 0, resp. n - 1, on every
    pinned axis, and the far side of alpha is the near side of -alpha.
    Triples are packed as x + b*y + b^2*z with b = 4n.  ``steps`` holds the
    differences u - w of a near digit u and a far digit w, less their
    difference -alpha_k*(n-1) on each pinned axis, so only the free axes
    remain; ``inside`` is {-1,0,1}^3, shared by every offset.  A component
    of n*p + s with p inside lies in [1 - 2n, 2n - 1], within half the
    base, so such a sum is inside exactly when every component is in
    {-1,0,1}.  Nothing here depends on the depth.
    """
    n = ds.n
    b = 4 * n
    near: dict[Triple, list[int]] = {alpha: [] for alpha in OFFSETS}
    for d in ds.digits:
        sides = [(0, 1) if c == 0 else (0, -1) if c == n - 1 else (0,) for c in d]
        for alpha in itertools.product(*sides):
            if alpha != (0, 0, 0):
                near[alpha].append(d[0] + b * (d[1] + b * d[2]))
    inside = frozenset(x + b * (y + b * z) for x, y, z in itertools.product((-1, 0, 1), repeat=3))
    out: dict[Triple, tuple[frozenset[int], frozenset[int]]] = {}
    for (x, y, z), side in near.items():
        pinned = (n - 1) * (x + b * (y + b * z))
        out[x, y, z] = frozenset(u - w + pinned for u in side for w in near[-x, -y, -z]), inside
    return out


class EmptinessCheck(enum.Enum):
    CERTIFIED_EMPTY = "certified_empty"
    UNKNOWN = "unknown"


def oracle_face_empty(ds: DigitSet, alpha: Triple, depth: int,
                      vox: VoxelSet | None = None) -> EmptinessCheck:
    """Certify F(alpha) empty when the closed voxel regions do not touch.

    Closed cells c and c' of A_m and A_m + n^m*alpha can only intersect when
    c sits on the grid side pointed at by alpha and c' on the opposite one
    (the axis difference n^m*alpha_k +/- 1 forces c_k = 0, c'_k = n^m - 1),
    and then they touch iff their free coordinates differ by at most 1 each.
    Those cells are c = sum_i n^i u_i and c' = sum_i n^i w_i over near and
    far digits, and their free difference is read from the top level down
    as P <- n*P + s with s = u_i - w_i from ``_boundary_slabs``.  With r
    levels left the rest is at most n^r - 1 in absolute value, so a
    component of P outside {-1,0,1} keeps that component of the difference
    outside it: the cells touch iff some m-step walk from 0 stays inside.
    The face is certified empty iff the set of reached states runs dry
    within m levels.  A nonzero component of a state can only stay as it
    is (n + s_k is inside only at 1, as |s_k| <= n - 1), so after k + 1
    levels (k free axes) the set only grows, and a set equal to the
    previous one stays for good: the walk stops there.  No iterate is
    built; a ``vox`` passed in must match the request.
    """
    offset_enc(alpha)  # validate
    if vox is None:
        _check_request(ds, depth)
    elif vox.digitset != ds or vox.depth != depth:
        raise ValueError("precomputed voxel set does not match the request")
    x, y, z = alpha
    n = ds.n
    steps, inside = _boundary_slabs(ds)[x, y, z]
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

    u -> n*u + dp - d for every label pair.  The first labels d are grouped
    by the step e = dp - d, and v = n*u + e is solved per axis: the pairs
    (u_k, v_k) in {-1,0,1}^2 with v_k = n*u_k + e_k (one at most for n >= 3,
    up to two at n = 2) multiply into the edges of that step, less those
    with u = 0 or v = 0.
    """
    n = ds.n
    digits = [tuple(d) for d in ds.digits]
    by_step: dict[Triple, list[Triple]] = {}
    for d in digits:
        for dp in digits:
            by_step.setdefault((dp[0] - d[0], dp[1] - d[1], dp[2] - d[2]), []).append(d)
    axis = {e: [(u, n * u + e) for u in (-1, 0, 1) if -1 <= n * u + e <= 1] for e in range(1 - n, n)}
    out: dict[Triple, list[tuple[Triple, Triple]]] = {u: [] for u in OFFSETS}
    for e, firsts in by_step.items():
        for (ux, vx), (uy, vy), (uz, vz) in itertools.product(axis[e[0]], axis[e[1]], axis[e[2]]):
            if (ux or uy or uz) and (vx or vy or vz):
                v = (vx, vy, vz)
                out[ux, uy, uz].extend((d, v) for d in firsts)
    return out


@lru_cache(maxsize=1)  # callers finish one digit set before the next
def _relation(ds: DigitSet) -> dict[Triple, list[tuple[Triple, Triple]]]:
    """The label relation pruned to the offsets that start an infinite path.

    One backward pass for all starts: S_0 is every offset and S_{k+1} the
    offsets with an edge into S_k, so S_k starts a k-step path.  The sets
    shrink, so they are stable by S_26, and every offset of the stable S
    has an edge into S: S holds exactly the offsets that start an infinite
    path.  They are the keys, each with its edges into S, so every listed
    edge continues forever.
    """
    edges = _label_edges(ds)
    alive = set(OFFSETS)
    while dead := {u for u in alive if not any(v in alive for _, v in edges[u])}:
        alive -= dead
    return {u: [(d, v) for d, v in edges[u] if v in alive] for u in alive}


def oracle_face_cardinality(ds: DigitSet, alpha: Triple) -> FaceCardinality:
    """Re-decide #F(alpha) in {0, 1, >=2} by a worklist over pairs of paths.

    F(alpha) is nonempty iff an infinite label path leaves alpha, that is
    iff alpha is a key of the pruned relation.  Two paths from alpha are
    followed together with the difference of their partial sums; a
    difference that escapes {-1,0,1}^3 witnesses two distinct points, since
    both paths continue forever.  The search ends: there are finitely many
    pair states (26 * 26 * 27), and ``seen`` queues each at most once.
    """
    offset_enc(alpha)  # validate
    n = ds.n
    edges = _relation(ds)
    if alpha not in edges:
        return FaceCardinality.EMPTY

    # pair states: (offset of path 1, offset of path 2, difference of partial sums)
    start = (alpha, alpha, (0, 0, 0))
    seen, todo = {start}, [start]
    while todo:
        u1, u2, s = todo.pop()
        for d1, v1 in edges[u1]:
            for d2, v2 in edges[u2]:
                ns = tuple(n * s[k] + d1[k] - d2[k] for k in range(3))
                if any(c < -1 or c > 1 for c in ns):
                    return FaceCardinality.AT_LEAST_TWO
                state = (v1, v2, ns)
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
    return FaceCardinality.ONE


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
    raise ValueError(f"unknown mesh format {fmt!r}")


def faces_agree(ds: DigitSet, alpha: Triple) -> bool:
    """Cross-validate the exact classifier against the path oracle."""
    exact = faces.classify_face(ds, alpha)
    card = oracle_face_cardinality(ds, alpha)
    expected = {
        FaceCardinality.EMPTY: faces.FaceKind.EMPTY,
        FaceCardinality.ONE: faces.FaceKind.POINT,
        FaceCardinality.AT_LEAST_TWO: faces.FaceKind.MULTI,
    }[card]
    return exact.kind is expected
