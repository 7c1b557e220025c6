"""Independent brute-force checks for the exact face classification.

Two deliberately separate routes re-derive face facts from first principles:

* voxel iterates of the unit cube certify face *emptiness* (one-sided: the
  iterate contains the attractor, so disjoint closed cell unions prove the
  face empty, while overlap proves nothing).  Iterates are sets of packed
  integers, and the certificate compares boundary slabs only, each built
  as the iterate of the digits on one face of the grid;
* breadth-first enumeration of label paths, memoized by (offset pair,
  difference state), re-decides the full empty/one/many trichotomy without
  the liveness precomputation or early-exit search used by the main path;
  one backward pass over the label relation finds the offsets that start
  an infinite path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import DigitSet
from .errors import BudgetExceeded, DepthTooSmall, InvalidRequest
from .faces import OFFSETS, offset_enc
from . import faces

Triple = tuple[int, int, int]

DEFAULT_CELL_BUDGET = 2_000_000

# Paths of this length pass through more states than the pair automaton has,
# so the frontier provably stabilizes within the cap.
STABILIZATION_CAP = 26 * 26 * 27 + 1


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


def _iterate(digits: Sequence[Triple], n: int, depth: int) -> list[int]:
    """Cells sum_i n^i d_i of the depth-digit words, packed in base n^depth + 1.

    Every coordinate of a partial sum is at most n^depth - 1 < b, so packing
    is linear on them and cannot carry: each level adds a scaled packed digit.
    """
    b = n ** depth + 1
    packed = [(d[0] * b + d[1]) * b + d[2] for d in digits]
    cells, scale = [0], 1
    for _ in range(depth):
        steps = [scale * p for p in packed]
        cells = [c + s for c in cells for s in steps]
        scale *= n
    return cells


def voxelize(ds: DigitSet, depth: int) -> VoxelSet:
    """Union of all depth-digit subdivision cells of the digit set."""
    _check_request(ds, depth)
    out = frozenset(_iterate(ds.digits, ds.n, depth))
    assert len(out) == len(ds) ** depth
    return VoxelSet(digitset=ds, depth=depth, packed=out)


@lru_cache(maxsize=1)  # callers finish one digit set before the next
def _boundary_slabs(ds: DigitSet, depth: int) -> dict[tuple[int, int], frozenset[int]]:
    """(axis, side) -> the cells of the depth-m iterate, packed as in
    ``VoxelSet``, with that coordinate pinned to the grid boundary.

    Coordinate k of a cell is sum_i n^i d_{i,k} with every term in
    [0, n-1], so it is 0 exactly when every digit has d_k = 0 and
    n^m - 1 exactly when every digit has d_k = n - 1: each slab is the
    depth-m iterate of the digits on that face of the grid.
    """
    n = ds.n
    return {(axis, side): frozenset(_iterate([d for d in ds.digits if d[axis] == digit], n, depth))
            for axis in range(3) for digit, side in ((0, 0), (n - 1, n ** depth - 1))}


class EmptinessCheck(enum.Enum):
    CERTIFIED_EMPTY = "certified_empty"
    UNKNOWN = "unknown"


def oracle_face_empty(ds: DigitSet, alpha: Triple, depth: int,
                      vox: VoxelSet | None = None) -> EmptinessCheck:
    """Certify F(alpha) empty when the closed voxel regions do not touch.

    Closed cells c and c' of A_m and A_m + n^m*alpha can only intersect when
    c sits on the grid face pointed at by alpha and c' on the opposite one
    (the axis difference n^m*alpha_k +/- 1 forces c_k = 0, c'_k = n^m - 1),
    so only boundary slabs are compared, within distance 1 on the free axes:
    near and far cells touch iff far = near + s for one of the 3^k shifts s
    (k free axes), whose step is alpha_k*edge on a pinned axis and -1, 0 or
    +1 on a free one, packed in base b.  Packing cannot carry: a coordinate
    difference minus its step lies in [-(edge+1), edge+1] and edge + 1 < b.
    (Too small a base could merge shifts: UNKNOWN, never a false certificate.)
    The slabs are iterates of the face digits (``_boundary_slabs``), so the
    full iterate is never scanned; a ``vox`` passed in must match the request.
    """
    offset_enc(alpha)  # validate
    if vox is None:
        _check_request(ds, depth)
    elif vox.digitset != ds or vox.depth != depth:
        raise ValueError("precomputed voxel set does not match the request")
    edge = ds.n ** depth - 1
    b = edge + 2
    slabs = _boundary_slabs(ds, depth)
    pinned = [k for k in range(3) if alpha[k]]
    near = frozenset.intersection(*(slabs[k, 0 if alpha[k] > 0 else edge] for k in pinned))
    far = frozenset.intersection(*(slabs[k, edge if alpha[k] > 0 else 0] for k in pinned))
    steps = [(alpha[k] * edge,) if alpha[k] else (-1, 0, 1) for k in range(3)]
    shifts = [(sx * b + sy) * b + sz for sx in steps[0] for sy in steps[1] for sz in steps[2]]
    if near and far and any(not far.isdisjoint(map(s.__add__, near)) for s in shifts):
        return EmptinessCheck.UNKNOWN
    return EmptinessCheck.CERTIFIED_EMPTY


class FaceCardinality(enum.Enum):
    EMPTY = "empty"
    ONE = "one"
    AT_LEAST_TWO = "at_least_two"


def _label_edges(ds: DigitSet) -> dict[Triple, list[tuple[Triple, Triple]]]:
    """offset -> [(first label d, target offset)] by direct enumeration.

    u -> n*u + dp - d for every label pair; the first labels d are grouped by
    the step dp - d, so each offset tests each distinct step once.
    """
    n = ds.n
    by_step: dict[Triple, list[Triple]] = {}
    for d in ds.digits:
        for dp in ds.digits:
            by_step.setdefault((dp[0] - d[0], dp[1] - d[1], dp[2] - d[2]), []).append(tuple(d))
    offset_set = set(OFFSETS)
    return {u: [(d, v) for e, firsts in by_step.items()
                if (v := (n * u[0] + e[0], n * u[1] + e[1], n * u[2] + e[2])) in offset_set
                for d in firsts]
            for u in OFFSETS}


@lru_cache(maxsize=1)  # callers finish one digit set before the next
def _relation(ds: DigitSet) -> tuple[dict[Triple, list[tuple[Triple, Triple]]], frozenset[Triple]]:
    """The label relation and the offsets that start a 26-step path.

    One backward pass for all starts: S_0 is every offset and S_{k+1} the
    offsets with an edge into S_k, so S_k starts a k-step path.  The sets
    shrink, so a stable S equals S_26.
    """
    edges = _label_edges(ds)
    alive = frozenset(OFFSETS)
    for _ in range(26):
        nxt = frozenset(u for u in alive if any(v in alive for _, v in edges[u]))
        if nxt == alive:
            break
        alive = nxt
    return edges, alive


def oracle_face_cardinality(ds: DigitSet, alpha: Triple) -> FaceCardinality:
    """Re-decide #F(alpha) in {0, 1, >=2} by breadth-first path expansion.

    A path of 26 steps must revisit an offset, so faces are nonempty iff a
    26-step path exists.  Pairs of paths are expanded level by level with
    their difference state; a pair that escapes {-1,0,1}^3 and still admits
    26 more steps on both sides witnesses two distinct points.
    """
    offset_enc(alpha)  # validate
    n = ds.n
    edges, extendable = _relation(ds)
    if alpha not in extendable:
        return FaceCardinality.EMPTY

    # pair states: (offset of path 1, offset of path 2, difference of partial sums)
    frontier: set[tuple[Triple, Triple, Triple]] = {(alpha, alpha, (0, 0, 0))}
    visited = set(frontier)
    for _ in range(STABILIZATION_CAP):
        if not frontier:
            return FaceCardinality.ONE
        nxt = set()
        for u1, u2, s in frontier:
            for d1, v1 in edges[u1]:
                if v1 not in extendable:
                    continue
                for d2, v2 in edges[u2]:
                    if v2 not in extendable:
                        continue
                    ns = tuple(n * s[k] + d1[k] - d2[k] for k in range(3))
                    if any(c < -1 or c > 1 for c in ns):
                        return FaceCardinality.AT_LEAST_TWO
                    state = (v1, v2, ns)
                    if state not in visited:
                        visited.add(state)
                        nxt.add(state)
        frontier = nxt
    raise DepthTooSmall(f"pair frontier still growing after {STABILIZATION_CAP} levels")


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
