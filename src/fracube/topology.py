"""Piece-level graphs: connectivity, one-point property, dendrite test.

Pieces K_i = (K + d_i)/n are indexed by the sorted digits.  Two pieces can
meet only when their digit difference is a nonzero offset, and then
K_i cap K_j = (F(d_j - d_i) + d_i)/n, so every question about the attractor
reduces to the face classification plus exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import DigitSet
from .errors import Disconnected, InternalInconsistency, OnePointViolation, TooLarge
from .faces import FaceClass, TriadicPoint, classify_face, face_point

Triple = tuple[int, int, int]

_MAX_CODE_VERTICES = 12
_MAX_ORDERINGS = 2_000_000


def _realized_offsets(ds: DigitSet) -> dict[Triple, list[tuple[int, int]]]:
    """Map each offset d_i - d_j hit by a digit pair to its (i, j) pairs."""
    out: dict[Triple, list[tuple[int, int]]] = {}
    dig = ds.digits
    for i, j in itertools.combinations(range(len(dig)), 2):
        alpha = (dig[i][0] - dig[j][0], dig[i][1] - dig[j][1], dig[i][2] - dig[j][2])
        if alpha != (0, 0, 0) and all(-1 <= c <= 1 for c in alpha):
            out.setdefault(alpha, []).append((i, j))
    return out


def _bfs_connected(n_vertices: int, pairs) -> bool:
    """Whether the graph on vertices 0..n_vertices-1 with these edges is connected."""
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n_vertices


@dataclass(frozen=True)
class PieceGraph:
    """Simple graph on the pieces; edges carry the offset and face class."""

    digitset: DigitSet
    n_vertices: int
    edges: tuple[tuple[int, int, Triple, FaceClass], ...]  # i < j, alpha = d_i - d_j

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j, _, _ in self.edges]

    def is_connected_graph(self) -> bool:
        return _bfs_connected(self.n_vertices, self.edge_pairs())

    def is_tree(self) -> bool:
        return self.is_connected_graph() and len(self.edges) == self.n_vertices - 1


def piece_adjacency(ds: DigitSet) -> PieceGraph:
    """Graph of piece pairs with nonempty intersection, fully annotated.

    Every piece-level question below (connectivity, one-point property,
    both intersection graphs) is read off this one graph.
    """
    edges = []
    for alpha, pairs in sorted(_realized_offsets(ds).items()):
        fc = classify_face(ds, alpha)
        if fc.is_empty:
            continue
        for i, j in pairs:
            edges.append((i, j, alpha, fc))
    edges.sort(key=lambda e: (e[0], e[1]))
    return PieceGraph(digitset=ds, n_vertices=len(ds), edges=tuple(edges))


def is_connected(ds: DigitSet) -> bool:
    """Hata criterion: the attractor is connected iff the piece graph is."""
    return piece_adjacency(ds).is_connected_graph()


def has_one_point_property(ds: DigitSet) -> bool:
    """No two pieces may meet in more than one point."""
    return not any(fc.is_multi for _, _, _, fc in piece_adjacency(ds).edges)


def intersection_graph(ds: DigitSet) -> PieceGraph:
    """The piece graph of a digit set with the one-point property."""
    g = piece_adjacency(ds)
    if any(fc.is_multi for _, _, _, fc in g.edges):
        raise OnePointViolation(f"{ds} has a multi-point piece intersection")
    return g


@dataclass(frozen=True)
class BipartiteGraph:
    """Pieces (white) against the distinct intersection points (black)."""

    digitset: DigitSet
    n_pieces: int
    points: tuple[TriadicPoint, ...]
    edges: frozenset[tuple[int, int]]  # (piece index, point index)

    def point_degrees(self) -> list[int]:
        deg = [0] * len(self.points)
        for _, p in self.edges:
            deg[p] += 1
        return deg

    def is_tree(self) -> bool:
        n_vertices = self.n_pieces + len(self.points)
        return len(self.edges) == n_vertices - 1 and _bfs_connected(
            n_vertices, ((piece, self.n_pieces + point) for piece, point in self.edges))


def _bipartite(graph: PieceGraph) -> BipartiteGraph:
    """Piece-point incidence graph of a one-point intersection graph."""
    ds = graph.digitset
    n = ds.n
    dig = ds.digits
    point_ids: dict[tuple[Fraction, Fraction, Fraction], int] = {}
    points: list[TriadicPoint] = []
    edges: set[tuple[int, int]] = set()
    for i, j, alpha, _ in sorted(graph.edges, key=lambda e: e[2]):
        # K_i cap K_j = (F(d_j - d_i) + d_i)/n
        fp = face_point(ds, (-alpha[0], -alpha[1], -alpha[2]))
        value = tuple((fp.value[k] + dig[i][k]) / n for k in range(3))
        pid = point_ids.get(value)
        if pid is None:
            pid = len(points)
            point_ids[value] = pid
            points.append(TriadicPoint(n=n, preperiod=(dig[i],) + fp.preperiod,
                                       period=fp.period, value=value))
        edges.add((i, pid))
        edges.add((j, pid))
    order = sorted(range(len(points)), key=lambda p: points[p].value)
    renumber = {old: new for new, old in enumerate(order)}
    return BipartiteGraph(
        digitset=ds,
        n_pieces=graph.n_vertices,
        points=tuple(points[p] for p in order),
        edges=frozenset((i, renumber[p]) for i, p in edges),
    )


def bipartite_graph(ds: DigitSet) -> BipartiteGraph:
    """Exact piece-point incidence graph, points deduplicated exactly."""
    return _bipartite(intersection_graph(ds))


def verify_no_triple_points(ds: DigitSet) -> bool:
    """True iff every intersection point lies in exactly two pieces."""
    return all(d == 2 for d in bipartite_graph(ds).point_degrees())


def is_dendrite(ds: DigitSet) -> bool:
    """Dendrite test: the bipartite intersection graph is a tree.

    With no triple points this must agree with the simple-graph test
    (intersection graph connected with N-1 edges); both are computed and
    any disagreement aborts rather than returning a silent guess.
    """
    graph = intersection_graph(ds)
    if not graph.is_connected_graph():
        raise Disconnected(f"{ds} is not connected")
    bg = _bipartite(graph)
    verdict = bg.is_tree()
    if all(d == 2 for d in bg.point_degrees()):
        simple = graph.is_tree()
        if simple != verdict:
            raise InternalInconsistency(
                f"bipartite tree test ({verdict}) and simple tree test ({simple}) disagree for {ds}"
            )
    return verdict


@dataclass(frozen=True, order=True)
class GraphCode:
    """Canonical form of a simple graph: minimal adjacency bits over
    degree-compatible vertex orderings."""

    n_vertices: int
    bits: int

    @property
    def hex(self) -> str:
        return f"{self.n_vertices}:{self.bits:x}"

    def __str__(self) -> str:
        return self.hex


def _code_bits(n: int, adj: list[int], ordering: tuple[int, ...]) -> int:
    bits = 0
    for i in range(n):
        row = adj[ordering[i]]
        for j in range(i + 1, n):
            bits = bits << 1 | (row >> ordering[j] & 1)
    return bits


def graph_code_from_edges(n: int, pairs) -> GraphCode:
    """Canonical code of the simple graph on n vertices with the given edges."""
    if n > _MAX_CODE_VERTICES:
        raise TooLarge(f"graph codes support at most {_MAX_CODE_VERTICES} vertices, got {n}")
    adj = [0] * n
    for i, j in pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    degrees = [a.bit_count() for a in adj]
    if all(d == 0 for d in degrees) or all(d == n - 1 for d in degrees):
        return GraphCode(n_vertices=n, bits=_code_bits(n, adj, tuple(range(n))))
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(degrees[v], []).append(v)
    classes = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    total = 1
    for cls in classes:
        for k in range(2, len(cls) + 1):
            total *= k
        if total > _MAX_ORDERINGS:
            raise TooLarge(f"too many degree-compatible orderings for {n} vertices")
    best = None
    for parts in itertools.product(*(itertools.permutations(cls) for cls in classes)):
        ordering = tuple(v for part in parts for v in part)
        bits = _code_bits(n, adj, ordering)
        if best is None or bits < best:
            best = bits
    return GraphCode(n_vertices=n, bits=best)


def graph_code(graph: PieceGraph) -> GraphCode:
    """Canonical code of a piece graph (isomorphism invariant)."""
    return graph_code_from_edges(graph.n_vertices, graph.edge_pairs())
