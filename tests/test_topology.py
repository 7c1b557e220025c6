import itertools
import random
from fractions import Fraction

import pytest

from fracube.core import CUBE_GROUP, DigitSet, apply_isometry, parse_digitset
from fracube.errors import Disconnected, InternalInconsistency, OnePointViolation
from fracube.faces import _edge_bound, build_automaton, classify_face, offset_enc, tables_for_order
from fracube.oracle import FaceCardinality, oracle_face_cardinality
from fracube import pipeline, topology
from fracube.pipeline import bundled_labels
from fracube.topology import (
    GraphCode,
    PieceGraph,
    _connected,
    _offset_rows,
    _piece_pairs,
    _spans,
    bipartite_graph,
    graph_code,
    graph_code_from_edges,
    has_one_point_property,
    intersection_graph,
    is_connected,
    is_dendrite,
    piece_adjacency,
    verify_no_triple_points,
)

SEGMENT = DigitSet.from_digits([(0, 0, 0), (0, 0, 1), (0, 0, 2)])
CORNERS = parse_digitset("000_002_020_200_022_202_220")
PLUS = parse_digitset("011_101_110_111_112_121_211")
TABLE2_FIRST = parse_digitset("020_101_110_111_112_121_202")
NONDEN1_FIRST = parse_digitset("012_021_102_111_120_201_210")
TABLE_7_6 = parse_digitset("002_100_101_102_111_121_202")
FULL = DigitSet.from_code((1 << 27) - 1)
# a dendrite with one point in three pieces, and a set of the same graph code without one
TRIPLE_POINT = parse_digitset("200_120_220_101_201_011_211_021_002")
TRIPLE_POINT_TWIN = parse_digitset("000_110_120_220_011_111_021_221_102")
# the mask of all 26 offsets: every pair of cells whose digits differ by an offset
ALL_OFFSETS = (1 << 27) - 1 & ~(1 << 13)


def brute_isomorphic(n, e1, e2):
    e1, e2 = frozenset(e1), frozenset(e2)
    if len(e1) != len(e2):
        return False
    return any(
        frozenset((min(p[i], p[j]), max(p[i], p[j])) for i, j in e1) == e2
        for p in itertools.permutations(range(n))
    )


def test_piece_pairs_match_digit_differences():
    # reference: every pair i < j whose digit difference is a nonzero offset
    rng = random.Random(1207)
    cases = [parse_digitset(text) for _, text in bundled_labels()]
    for n in range(2, 6):
        cases.append(DigitSet.from_code((1 << n ** 3) - 1, n=n))
        for _ in range(20):
            size = rng.randrange(1, min(n ** 3, 30) + 1)
            cases.append(DigitSet.from_code(sum(1 << c for c in rng.sample(range(n ** 3), size)), n=n))
    for ds in cases:
        dig = ds.digits
        expected = []
        for i, j in itertools.combinations(range(len(dig)), 2):
            alpha = tuple(dig[i][k] - dig[j][k] for k in range(3))
            if any(alpha) and all(-1 <= c <= 1 for c in alpha):
                expected.append((i, j, offset_enc(alpha)))
        assert _piece_pairs(ds.cells(), tables_for_order(ds.n)) == expected, ds


def test_spans_matches_the_pair_list_route():
    # the cell floods against the pair-list routes: _spans through all 26
    # offsets against _connected over _piece_pairs, and _spans with the
    # live mask against the classified piece graph; the scan's prefilter,
    # _spans with the edge bound, lies between them
    rng = random.Random(1931)
    seen = set()
    for n in range(2, 6):
        tables = tables_for_order(n)
        near = _offset_rows(n, ALL_OFFSETS)
        ncells = n ** 3
        cases = [1 << rng.randrange(ncells) for _ in range(5)]
        for k in range(150):
            size = rng.randrange(2, min(ncells, 30) + 1)
            if k % 3 == 0:
                code = sum(1 << c for c in rng.sample(range(ncells), size))
            else:
                code = _grown_digitset(rng, n, size).code
            if k % 3 == 2:
                # one cell that no other cell is near
                lone = rng.randrange(ncells)
                code = code & ~near[lone] | 1 << lone
            cases.append(code)
        for code in cases:
            ds = DigitSet.from_code(code, n=n)
            cells = ds.cells()
            potential = _spans(code, ALL_OFFSETS, tables)
            assert potential == _connected(len(cells), _piece_pairs(cells, tables)), ds
            exact = _spans(code, build_automaton(ds)[0], tables)
            assert exact == piece_adjacency(ds).is_connected_graph(), ds
            assert exact <= _spans(code, _edge_bound(code, tables), tables) <= potential, ds
            seen.add((n, potential, exact))
    # at order 2 any two cells are near and every digit set is connected; the
    # other orders have sets apart, sets near but not touching, and connected sets
    assert {(p, e) for m, p, e in seen if m == 2} == {(True, True)}
    assert seen >= {(n, p, e) for n in range(3, 6) for p, e in ((False, False), (True, False), (True, True))}


def _rows_mismatch(n, masks):
    """The first mask whose cached rows differ from a build out of ``pair_off``, else None."""
    tables = tables_for_order(n)
    ncells, pair_off = tables.ncells, tables.pair_off
    for mask in masks:
        expected = tuple(sum(1 << b for b in range(ncells)
                             if pair_off[a * ncells + b] != 255 and mask >> pair_off[a * ncells + b] & 1)
                         for a in range(ncells))
        if _offset_rows(n, mask) != expected:
            return mask
    return None


def test_offset_rows_match_the_pair_offsets(monkeypatch):
    # rows[a] holds the cells b with pair_off[a * ncells + b] in the mask: over
    # every mask the (3, 7) scan's two floods see, and seeded masks closed
    # under negation at orders 2 to 5
    masks = set()
    spans = pipeline._spans
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_spans", lambda code, offsets, tables: masks.add(offsets) or spans(code, offsets, tables))
        pipeline.classify_all(3, 7)
    assert len(masks) > 100
    assert _rows_mismatch(3, sorted(masks)) is None
    rng = random.Random(2213)
    for n in range(2, 6):
        closed = [sum(1 << u | 1 << 26 - u for u in range(13) if half >> u & 1)
                  for half in [0, 8191] + [rng.randrange(8192) for _ in range(30)]]
        assert _rows_mismatch(n, closed) is None, n
    # the check catches a pair table that lost one offset's pairs
    topology._offset_rows.cache_clear()
    try:
        with monkeypatch.context() as m:
            tables = tables_for_order(3)
            dropped = offset_enc((1, 0, 0))
            m.setattr(tables, "offset_pairs", [[] if u == dropped else pairs
                                               for u, pairs in enumerate(tables.offset_pairs)])
            assert _rows_mismatch(3, sorted(masks)) is not None
    finally:
        topology._offset_rows.cache_clear()


def test_is_connected_classifies_no_face():
    # connectivity reads the live mask alone, so no product search runs
    for _, text in bundled_labels()[::10]:
        classify_face.cache_clear()
        assert is_connected(parse_digitset(text))
        assert classify_face.cache_info().misses == 0, text


def test_corner_set_has_no_edges():
    g = piece_adjacency(CORNERS)
    assert g.edges == ()
    assert not is_connected(CORNERS)
    assert has_one_point_property(CORNERS)  # vacuous
    assert intersection_graph(CORNERS).edges == ()


def test_plus_set_is_center_arm_star():
    g = intersection_graph(PLUS)
    center = PLUS.digits.index((1, 1, 1))
    assert sorted(g.edge_pairs()) == sorted(
        (min(i, center), max(i, center)) for i in range(7) if i != center)


def test_segment_graph_is_path():
    g = piece_adjacency(SEGMENT)
    assert g.edge_pairs() == [(0, 1), (1, 2)]
    assert is_connected(SEGMENT)
    assert g.is_tree()


def test_table2_graph_is_spanning_tree():
    assert is_connected(TABLE2_FIRST)
    assert has_one_point_property(TABLE2_FIRST)
    g = intersection_graph(TABLE2_FIRST)
    assert g.n_vertices == 7 and len(g.edges) == 6 and g.is_connected_graph()


def test_nonden1_graph_has_cycle():
    g = intersection_graph(NONDEN1_FIRST)
    assert g.is_connected_graph() and len(g.edges) >= 7


def test_full_cube_connected_but_not_one_point():
    assert is_connected(FULL)
    assert not has_one_point_property(FULL)
    with pytest.raises(OnePointViolation):
        intersection_graph(FULL)
    with pytest.raises(OnePointViolation):
        bipartite_graph(FULL)
    with pytest.raises(OnePointViolation):
        is_dendrite(FULL)


def test_segment_bipartite_points_exact():
    bg = bipartite_graph(SEGMENT)
    assert [p.value for p in bg.points] == [
        (0, 0, Fraction(1, 3)), (0, 0, Fraction(2, 3))]
    assert bg.point_degrees() == [2, 2]
    assert verify_no_triple_points(SEGMENT)
    assert bg.is_tree()


def test_table2_bipartite_black_vertices():
    bg = bipartite_graph(TABLE2_FIRST)
    assert len(bg.points) == 6
    assert bg.point_degrees() == [2] * 6
    assert verify_no_triple_points(TABLE2_FIRST)


def test_bipartite_points_round_trip_to_face_points():
    # n*p - d_i reproduces the face point of the pair's offset exactly
    for ds in (SEGMENT, TABLE2_FIRST, TABLE_7_6):
        bg = bipartite_graph(ds)
        values = {p.value for p in bg.points}
        graph = intersection_graph(ds)
        for i, j, _, _ in graph.edges:
            di, dj = ds.digits[i], ds.digits[j]
            fc = classify_face(ds, (dj[0] - di[0], dj[1] - di[1], dj[2] - di[2]))
            assert fc.is_point
            p = tuple((fc.point.value[k] + di[k]) / ds.n for k in range(3))
            assert p in values
            assert tuple(p[k] * ds.n - di[k] for k in range(3)) == fc.point.value


def test_point_multiplicity_matches_direct_count():
    # whatever verify_no_triple_points says must equal a direct coincidence count
    fixtures = [
        DigitSet.from_digits([(0, 0, 0), (1, 0, 0), (0, 1, 0)], n=2),  # gasket
        DigitSet.from_digits([(0, 0, 0), (1, 1, 0), (1, 0, 0)], n=2),
        SEGMENT,
        TABLE2_FIRST,
        TRIPLE_POINT,
    ]
    exercised = 0
    for ds in fixtures:
        if not has_one_point_property(ds):
            continue
        exercised += 1
        bg = bipartite_graph(ds)
        direct = {}
        graph = intersection_graph(ds)
        for i, j, _, _ in graph.edges:
            di, dj = ds.digits[i], ds.digits[j]
            fc = classify_face(ds, tuple(dj[k] - di[k] for k in range(3)))
            assert fc.is_point
            value = tuple((fc.point.value[k] + di[k]) / ds.n for k in range(3))
            direct.setdefault(value, set()).update((i, j))
        assert verify_no_triple_points(ds) == all(len(v) == 2 for v in direct.values())
        assert sorted(len(v) for v in direct.values()) == sorted(bg.point_degrees())
    assert exercised >= 2


def test_triple_point_separates_graph_code_twins():
    # both piece graphs are the same 9-edge simple graph with a cycle; the
    # triple point turns that cycle into a star in the piece-point graph
    code = graph_code(intersection_graph(TRIPLE_POINT))
    assert code == graph_code(intersection_graph(TRIPLE_POINT_TWIN))
    assert code.hex == "9:53c900200"
    for ds, degrees, dendrite in ((TRIPLE_POINT, [2] * 6 + [3], True), (TRIPLE_POINT_TWIN, [2] * 9, False)):
        graph = intersection_graph(ds)
        assert len({(i, j) for i, j, _, _ in graph.edges}) == len(graph.edges) == 9
        assert not graph.is_tree()
        assert sorted(bipartite_graph(ds).point_degrees()) == degrees
        assert verify_no_triple_points(ds) is (degrees == [2] * 9)
        assert is_dendrite(ds) is dendrite


def test_dendrite_verdicts():
    assert is_dendrite(TABLE2_FIRST)
    assert is_dendrite(TABLE_7_6)
    assert not is_dendrite(NONDEN1_FIRST)
    assert is_dendrite(SEGMENT)
    with pytest.raises(Disconnected):
        is_dendrite(CORNERS)


def test_dendrite_tree_tests_must_agree(monkeypatch):
    # without triple points the simple tree test re-checks the bipartite one
    for ds, simple in ((TABLE2_FIRST, False), (NONDEN1_FIRST, True)):
        assert verify_no_triple_points(ds)
        monkeypatch.setattr(PieceGraph, "is_tree", lambda self: simple)
        with pytest.raises(InternalInconsistency, match="disagree"):
            is_dendrite(ds)


def test_graph_code_separates_path_and_star():
    path = graph_code_from_edges(7, [(i, i + 1) for i in range(6)])
    star = graph_code_from_edges(7, [(0, i) for i in range(1, 7)])
    assert path != star
    assert path.hex.startswith("7:")


def test_graph_code_relabeling_invariance():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(4, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges]
        assert graph_code_from_edges(n, edges) == graph_code_from_edges(n, relabeled)


def test_graph_code_equality_iff_isomorphic():
    rng = random.Random(9)
    graphs = []
    for _ in range(12):
        n = 6
        graphs.append([(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45])
    for e1, e2 in itertools.combinations(graphs, 2):
        same_code = graph_code_from_edges(6, e1) == graph_code_from_edges(6, e2)
        assert same_code == brute_isomorphic(6, e1, e2)


def test_graph_code_orders_and_limits():
    # no size limit: 13 isolated vertices, and a 12-vertex star (11! orderings)
    assert graph_code_from_edges(13, []).bits == 0
    assert graph_code_from_edges(12, []).bits == 0
    star = [(0, i) for i in range(1, 12)]
    assert graph_code_from_edges(12, star) == graph_code_from_edges(
        12, _relabeled(random.Random(12), 12, star))


def brute_graph_code(n, pairs):
    """Minimum adjacency bits over every degree-compatible ordering, one by one."""
    adj = [0] * n
    for i, j in pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    by_degree = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    classes = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    best = None
    for parts in itertools.product(*(itertools.permutations(cls) for cls in classes)):
        ordering = [v for part in parts for v in part]
        bits = 0
        for i in range(n):
            for j in range(i + 1, n):
                bits = bits << 1 | (adj[ordering[i]] >> ordering[j] & 1)
        if best is None or bits < best:
            best = bits
    return GraphCode(n_vertices=n, bits=best)


def _random_graph(rng, n, p):
    return [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]


def _relabeled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges]


def test_graph_code_matches_brute_force():
    rng = random.Random(17)
    graphs = []
    for n in range(1, 9):  # one degree class: brute force tries all n! orderings
        cycle = [(i, (i + 1) % n) for i in range(n)] if n > 2 else []
        graphs += [(n, []), (n, list(itertools.combinations(range(n), 2))), (n, cycle)]
    for _ in range(200):
        n = rng.randint(1, 9)
        graphs.append((n, _random_graph(rng, n, rng.random())))
    for _, text in bundled_labels():
        graph = intersection_graph(parse_digitset(text))
        graphs.append((graph.n_vertices, graph.edge_pairs()))
    for n, edges in graphs:
        assert graph_code_from_edges(n, edges) == brute_graph_code(n, edges), (n, edges)


def test_graph_code_equal_iff_networkx_isomorphic():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for n in range(10, 15):
        graphs = [[(0, i) for i in range(1, n)], [(i, (i + 1) % n) for i in range(n)]]
        graphs += [[(rng.randrange(i), i) for i in range(1, n)] for _ in range(4)]  # trees
        graphs += [_random_graph(rng, n, 2.5 / n) for _ in range(4)]
        graphs += [_relabeled(rng, n, edges) for edges in graphs]
        pairs = list(itertools.combinations(range(n), 2))
        codes, nx_graphs = [], []
        for edges in graphs:
            codes.append(graph_code_from_edges(n, edges))
            nx_graphs.append(nx.empty_graph(n))
            nx_graphs[-1].add_edges_from(edges)
            # the code is the adjacency bits of the graph under some ordering
            decoded = nx.empty_graph(n)
            decoded.add_edges_from(
                pair for k, pair in enumerate(pairs) if codes[-1].bits >> len(pairs) - 1 - k & 1)
            assert nx.is_isomorphic(decoded, nx_graphs[-1]), edges
        for a, b in itertools.combinations(range(len(graphs)), 2):
            assert (codes[a] == codes[b]) == nx.is_isomorphic(nx_graphs[a], nx_graphs[b]), (
                graphs[a], graphs[b])


def test_graph_code_equivariance():
    for g in random.Random(4).sample(CUBE_GROUP, 10):
        img = apply_isometry(g, TABLE2_FIRST)
        assert graph_code(intersection_graph(img)) == graph_code(intersection_graph(TABLE2_FIRST))



def _grown_digitset(rng, n, size):
    """Random digit set grown one neighbouring cell at a time."""
    cells = {tuple(rng.randrange(n) for _ in range(3))}
    while len(cells) < size:
        c = rng.choice(sorted(cells))
        cells.add(tuple(min(n - 1, max(0, c[k] + rng.choice((-1, 0, 1)))) for k in range(3)))
    return DigitSet.from_digits(cells, n=n)


def _lines_digitset(rng, n, lines):
    """Union of random axis-parallel lines of n cells."""
    cells = set()
    for _ in range(lines):
        axis, base = rng.randrange(3), [rng.randrange(n) for _ in range(3)]
        cells.update(tuple(t if k == axis else base[k] for k in range(3)) for t in range(n))
    return DigitSet.from_digits(cells, n=n)


def test_public_filters_match_oracle_piece_graph():
    # the piece graph rebuilt from the independent oracle, pair by pair
    rng = random.Random(404)
    seen = set()
    for n, sizes in ((2, range(2, 7)), (3, range(6, 14)), (4, range(14, 31))):
        for k in range(20):
            size = rng.choice(sizes)
            if k % 3 == 0:
                ds = DigitSet.from_code(sum(1 << c for c in rng.sample(range(n ** 3), size)), n=n)
            elif k % 3 == 1:
                ds = _grown_digitset(rng, n, size)
            else:
                ds = _lines_digitset(rng, n, rng.randrange(1, 4))
            dig = ds.digits
            edges, multi, cards = [], False, {}
            for i, j in itertools.combinations(range(len(dig)), 2):
                alpha = tuple(dig[i][c] - dig[j][c] for c in range(3))
                if not any(alpha) or any(abs(c) > 1 for c in alpha):
                    continue
                if alpha not in cards:
                    cards[alpha] = oracle_face_cardinality(ds, alpha)
                card = cards[alpha]
                if card is not FaceCardinality.EMPTY:
                    edges.append((i, j))
                    multi |= card is FaceCardinality.AT_LEAST_TWO
            reached, todo = {0}, [0]
            while todo:
                v = todo.pop()
                for a, b in edges:
                    w = b if a == v else a if b == v else None
                    if w is not None and w not in reached:
                        reached.add(w)
                        todo.append(w)
            connected = len(reached) == len(dig)
            assert is_connected(ds) == connected, ds
            assert is_connected(ds) == piece_adjacency(ds).is_connected_graph(), ds
            assert has_one_point_property(ds) == (not multi), ds
            if multi:
                with pytest.raises(OnePointViolation):
                    intersection_graph(ds)
            else:
                assert intersection_graph(ds).edge_pairs() == edges, ds
            seen.add((n, connected, not multi))
    # every order has both one-point verdicts and a connected one-point set
    for n in (2, 3, 4):
        assert {one_point for m, _, one_point in seen if m == n} == {True, False}
        assert (n, True, True) in seen
    assert {connected for _, connected, _ in seen} == {True, False}
