"""Piece-level graphs: connectivity, one-point property, dendrite test.

Pieces K_i = (K + d_i)/n are indexed by the sorted digits.  Two pieces can
meet only when their digit difference is a nonzero offset, and then
K_i cap K_j = (F(d_j - d_i) + d_i)/n, so every question about the attractor
reduces to the face classification plus exact rational arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .core import DigitSet
from .errors import Disconnected, InternalInconsistency, OnePointViolation
from .faces import FaceClass, TriadicPoint, build_automaton, classify_face, tables_for_order

Triple = tuple[int, int, int]


def _piece_pairs(cells, tables) -> list[tuple[int, int, int]]:
    """(i, j, code of d_i - d_j) for each pair i < j whose digits differ by an offset."""
    pair_off, ncells = tables.pair_off, tables.ncells
    return [(i, j, off) for i, ci in enumerate(cells) for j in range(i + 1, len(cells))
            if (off := pair_off[ci * ncells + cells[j]]) != 255]


def _component(adj: list[int], start: int, within: int) -> int:
    """Vertices of ``within`` reachable from ``start``; vertex sets and ``adj`` rows are bitmasks."""
    comp = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def _connected(n_vertices: int, edges) -> bool:
    """Whether vertices 0..n_vertices-1 are connected; each edge starts with its ends."""
    adj = [0] * n_vertices
    for e in edges:
        a, b = e[0], e[1]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return _component(adj, 1, (1 << n_vertices) - 1).bit_count() == n_vertices


# one entry per order and offset mask: a whole (3, 11) scan meets 507 masks
@lru_cache(maxsize=1024)
def _offset_rows(n: int, offsets: int) -> tuple[int, ...]:
    """rows[a]: bitmask of the cells b whose offset ``digit(a) - digit(b)`` is in ``offsets``."""
    tables = tables_for_order(n)
    rows = [0] * tables.ncells
    for u, pairs in enumerate(tables.offset_pairs):
        if offsets >> u & 1:
            for a, bit in pairs:
                rows[a] |= bit
    return tuple(rows)


def _spans(code: int, offsets: int, tables) -> bool:
    """Whether the pieces of occupancy ``code`` are connected through the ``offsets`` mask.

    The flood :func:`_component` from the lowest cell of ``code`` over the
    rows of ``offsets``.  Any mask closed under negation makes the rows
    symmetric: a live mask is, because ``F(-v) = F(v) - v``, and so is
    :func:`fracube.faces._edge_bound`.  Tests hold the flood through the
    live mask to ``PieceGraph.is_connected_graph``.
    """
    return _component(_offset_rows(tables.n, offsets), code & -code, code) == code


class PieceGraph(NamedTuple):
    """Simple graph on the pieces; edges carry the offset and face class."""

    digitset: DigitSet
    n_vertices: int
    edges: tuple[tuple[int, int, Triple, FaceClass], ...]  # i < j, alpha = d_i - d_j

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j, _, _ in self.edges]

    def is_connected_graph(self) -> bool:
        return _connected(self.n_vertices, self.edges)

    def is_one_point(self) -> bool:
        """No two pieces meet in more than one point."""
        return not any(fc.is_multi for *_, fc in self.edges)

    def is_tree(self) -> bool:
        return self.is_connected_graph() and len(self.edges) == self.n_vertices - 1


def piece_adjacency(ds: DigitSet) -> PieceGraph:
    """Graph of piece pairs with nonempty intersection, fully annotated.

    Every piece-level question below (connectivity, one-point property,
    both intersection graphs) is read off this one graph.
    """
    dig = ds.digits
    edges = []
    for i, j, _ in _piece_pairs(ds.cells(), tables_for_order(ds.n)):
        alpha = (dig[i][0] - dig[j][0], dig[i][1] - dig[j][1], dig[i][2] - dig[j][2])
        fc = classify_face(ds, alpha)
        if not fc.is_empty:
            edges.append((i, j, alpha, fc))
    return PieceGraph(digitset=ds, n_vertices=len(ds), edges=tuple(edges))


def is_connected(ds: DigitSet) -> bool:
    """Hata criterion: the attractor is connected iff the piece graph is.

    Pieces i and j meet iff d_i - d_j is live (has a nonempty face), so this
    is :func:`_spans`, the flood :func:`_component` over the live mask's rows.
    """
    return _spans(ds.code, build_automaton(ds)[0], tables_for_order(ds.n))


def has_one_point_property(ds: DigitSet) -> bool:
    """No two pieces may meet in more than one point."""
    return piece_adjacency(ds).is_one_point()


def intersection_graph(ds: DigitSet) -> PieceGraph:
    """The piece graph of a digit set with the one-point property."""
    g = piece_adjacency(ds)
    if not g.is_one_point():
        raise OnePointViolation(f"{ds} has a multi-point piece intersection")
    return g


class BipartiteGraph(NamedTuple):
    """Pieces (white) against the distinct intersection points (black)."""

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
        return len(self.edges) == n_vertices - 1 and _connected(
            n_vertices, ((piece, self.n_pieces + point) for piece, point in self.edges))


def _bipartite(graph: PieceGraph) -> BipartiteGraph:
    """Piece-point incidence graph of a one-point intersection graph."""
    ds = graph.digitset
    dig = ds.digits
    point_ids: dict[TriadicPoint, int] = {}  # points compare by value
    edges: set[tuple[int, int]] = set()
    for i, j, _, fc in graph.edges:
        # K_i cap K_j = (F(d_i - d_j) + d_j)/n, and the edge carries F(d_i - d_j)
        point = TriadicPoint(ds.n, (dig[j],) + fc.point.preperiod, fc.point.period)
        pid = point_ids.setdefault(point, len(point_ids))
        edges.add((i, pid))
        edges.add((j, pid))
    points = list(point_ids)
    order = sorted(range(len(points)), key=lambda p: points[p].value)
    renumber = {old: new for new, old in enumerate(order)}
    return BipartiteGraph(
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


def _dendrite(graph: PieceGraph, bg: BipartiteGraph) -> bool:
    """Dendrite test: ``bg``, the piece-point graph of ``graph``, is a tree.

    With no triple points this must agree with the simple-graph test
    (intersection graph connected with N-1 edges); both are computed and
    any disagreement aborts rather than returning a silent guess.
    """
    ds = graph.digitset
    if not graph.is_connected_graph():
        raise Disconnected(f"{ds} is not connected")
    verdict = bg.is_tree()
    if all(d == 2 for d in bg.point_degrees()):
        simple = graph.is_tree()
        if simple != verdict:
            raise InternalInconsistency(
                f"bipartite tree test ({verdict}) and simple tree test ({simple}) disagree for {ds}"
            )
    return verdict


def is_dendrite(ds: DigitSet) -> bool:
    """Dendrite test: the bipartite intersection graph is a tree."""
    graph = intersection_graph(ds)
    return _dendrite(graph, _bipartite(graph))


class GraphCode(NamedTuple):
    """Canonical form of a simple graph: minimal adjacency bits over
    degree-compatible vertex orderings."""

    n_vertices: int
    bits: int

    @property
    def hex(self) -> str:
        return f"{self.n_vertices}:{self.bits:x}"

    def __str__(self) -> str:
        return self.hex


def graph_code_from_edges(n: int, pairs) -> GraphCode:
    """Canonical code of the simple graph on n vertices with the given edges.

    Partition refinement: the unplaced vertices form ordered cells, first the
    degree classes.  The vertex at position i comes from the first cell, and
    splitting every cell into its non-neighbours, then its neighbours, makes
    row i least.  Only branches with the least row go on, and a twin of a
    vertex already tried (same neighbours apart from each other) is skipped.
    """
    adj = [0] * n
    for i, j in pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    degrees = sorted({a.bit_count() for a in adj}, reverse=True)
    states = {tuple(sum(1 << v for v in range(n) if adj[v].bit_count() == d) for d in degrees)}
    bits = 0
    for i in range(n):
        best, survivors = None, set()
        for first, *rest in states:
            tried: list[int] = []
            for v in range(n):
                if not first >> v & 1 or any(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in tried):
                    continue
                tried.append(v)
                row, cells = 0, []
                for cell in (first & ~(1 << v), *rest):
                    near = cell & adj[v]
                    row = row << cell.bit_count() | (1 << near.bit_count()) - 1
                    cells += [part for part in (cell & ~near, near) if part]
                if best is None or row < best:
                    best, survivors = row, set()
                if row == best:
                    survivors.add(tuple(cells))
        bits = bits << n - 1 - i | best
        states = survivors
    return GraphCode(n_vertices=n, bits=bits)


def graph_code(graph: PieceGraph) -> GraphCode:
    """Canonical code of a piece graph (isomorphism invariant)."""
    return graph_code_from_edges(graph.n_vertices, graph.edge_pairs())
