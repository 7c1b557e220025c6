import itertools
import random
from fractions import Fraction

import pytest

from fracube.core import CUBE_GROUP, DigitSet, apply_isometry, parse_digitset
from fracube.errors import Disconnected, OnePointViolation, TooLarge
from fracube.faces import face_point
from fracube.topology import (
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


def brute_isomorphic(n, e1, e2):
    e1, e2 = frozenset(e1), frozenset(e2)
    if len(e1) != len(e2):
        return False
    return any(
        frozenset((min(p[i], p[j]), max(p[i], p[j])) for i, j in e1) == e2
        for p in itertools.permutations(range(n))
    )


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
            fp = face_point(ds, (dj[0] - di[0], dj[1] - di[1], dj[2] - di[2]))
            p = tuple((fp.value[k] + di[k]) / ds.n for k in range(3))
            assert p in values
            assert tuple(p[k] * ds.n - di[k] for k in range(3)) == fp.value


def test_point_multiplicity_matches_direct_count():
    # whatever verify_no_triple_points says must equal a direct coincidence count
    fixtures = [
        DigitSet.from_digits([(0, 0, 0), (1, 0, 0), (0, 1, 0)], n=2),  # gasket
        DigitSet.from_digits([(0, 0, 0), (1, 1, 0), (1, 0, 0)], n=2),
        SEGMENT,
        TABLE2_FIRST,
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
            fp = face_point(ds, tuple(dj[k] - di[k] for k in range(3)))
            value = tuple((fp.value[k] + di[k]) / ds.n for k in range(3))
            direct.setdefault(value, set()).update((i, j))
        assert verify_no_triple_points(ds) == all(len(v) == 2 for v in direct.values())
        assert sorted(len(v) for v in direct.values()) == sorted(bg.point_degrees())
    assert exercised >= 2


def test_dendrite_verdicts():
    assert is_dendrite(TABLE2_FIRST)
    assert is_dendrite(TABLE_7_6)
    assert not is_dendrite(NONDEN1_FIRST)
    assert is_dendrite(SEGMENT)
    with pytest.raises(Disconnected):
        is_dendrite(CORNERS)


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
    with pytest.raises(TooLarge):
        graph_code_from_edges(13, [])
    # 12 isolated vertices: one degree class, but identity ordering found first
    assert graph_code_from_edges(12, []).bits == 0


def test_graph_code_equivariance():
    for g in random.Random(4).sample(CUBE_GROUP, 10):
        img = apply_isometry(g, TABLE2_FIRST)
        assert graph_code(intersection_graph(img)) == graph_code(intersection_graph(TABLE2_FIRST))

