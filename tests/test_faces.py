import random
from fractions import Fraction

import pytest

from fracube.core import CUBE_GROUP, Digit, DigitSet, apply_isometry, parse_digitset
from fracube.errors import NotSingleton, OutOfRange
from fracube.faces import (
    OFFSETS,
    FaceKind,
    NeighborAutomaton,
    TriadicPoint,
    _successors,
    build_automaton,
    classify_face,
    face_point,
    offset_enc,
    offset_index,
    tables_for_order,
)
from fracube.pipeline import enumerate_codes

SEGMENT = [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
TABLE2_FIRST = "020_101_110_111_112_121_202"


def random_digitset(rng, n=3, size=7):
    return DigitSet.from_code(sum(1 << c for c in rng.sample(range(n ** 3), size)), n=n)


def test_offset_encoding():
    assert len(OFFSETS) == 26
    assert len(set(OFFSETS)) == 26
    with pytest.raises(OutOfRange):
        offset_enc((0, 0, 0))
    with pytest.raises(OutOfRange):
        offset_enc((2, 0, 0))


def test_edge_targets_never_zero():
    # arithmetic unreachability of the zero offset, checked on the static tables
    for n in (2, 3, 4, 5):
        tables = tables_for_order(n)
        for u_idx, entries in enumerate(tables.compat):
            for v_idx, _, _ in entries:
                assert OFFSETS[v_idx] != (0, 0, 0)


def test_segment_automaton_self_loop():
    auto = build_automaton(DigitSet.from_digits(SEGMENT))
    assert (Digit(0, 0, 2), Digit(0, 0, 0), (0, 0, 1)) in auto.edges[(0, 0, 1)]
    assert auto.is_live((0, 0, 1))


def test_full_cube_all_live():
    auto = build_automaton(DigitSet.from_code((1 << 27) - 1))
    assert len(auto.live) == 26


def test_two_corner_automaton():
    # only delta = (-2,-2,-2) keeps 3*(1,1,1) + delta inside the offset set
    auto = build_automaton(DigitSet.from_digits([(0, 0, 0), (2, 2, 2)]))
    assert auto.edges[(1, 1, 1)] == ((Digit(2, 2, 2), Digit(0, 0, 0), (1, 1, 1)),)
    assert auto.is_live((1, 1, 1))
    fc = classify_face(DigitSet.from_digits([(0, 0, 0), (2, 2, 2)]), (1, 1, 1))
    assert fc.is_point and fc.point.value == (1, 1, 1)


def test_edges_enumerated_exhaustively():
    # independent reconstruction of the edge relation from its definition
    rng = random.Random(41)
    offset_set = set(OFFSETS)
    for _ in range(10):
        ds = random_digitset(rng)
        auto = build_automaton(ds)
        for u in OFFSETS:
            expected = set()
            for d in ds.digits:
                for dp in ds.digits:
                    v = tuple(3 * u[k] + dp[k] - d[k] for k in range(3))
                    if v in offset_set:
                        expected.add((d, dp, v))
            assert set(auto.edges[u]) == expected


def _potentially_connected(ds):
    # digits are joined when they differ by at most 1 in every coordinate
    reached, todo = {ds.digits[0]}, [ds.digits[0]]
    while todo:
        d = todo.pop()
        for e in ds.digits:
            if e not in reached and all(abs(d[k] - e[k]) <= 1 for k in range(3)):
                reached.add(e)
                todo.append(e)
    return len(reached) == len(ds)


def test_pair_table_successors_match_edge_targets():
    # successor masks from the digit-pair table against the targets of the
    # labelled edges, which are built from the per-offset cell masks
    rng = random.Random(67)
    sets = [random_digitset(rng, n, rng.randrange(1, n ** 3 + 1))
            for n in (2, 3, 4) for _ in range(40)]
    passers = [ds for ds in map(DigitSet.from_code, enumerate_codes(3, 4))
               if _potentially_connected(ds)]
    assert passers
    for ds in sets + passers:
        auto = NeighborAutomaton(ds)
        targets = [0] * 26
        for u in OFFSETS:
            for _, _, v in auto.edges[u]:
                targets[offset_index(u)] |= 1 << offset_index(v)
        assert _successors(ds.cells(), tables_for_order(ds.n)) == targets


def test_segment_face_classification():
    seg = DigitSet.from_digits(SEGMENT)
    fc = classify_face(seg, (0, 0, 1))
    assert fc.kind is FaceKind.POINT
    assert fc.point.value == (0, 0, 1)
    assert classify_face(seg, (1, 0, 0)).kind is FaceKind.EMPTY
    assert classify_face(seg, (0, 0, -1)).point.value == (0, 0, 0)


def test_full_cube_faces_multi():
    full = DigitSet.from_code((1 << 27) - 1)
    assert classify_face(full, (1, 0, 0)).kind is FaceKind.MULTI


def test_table2_column_face_is_point():
    ds = parse_digitset(TABLE2_FIRST)
    fc = classify_face(ds, (0, 0, 1))
    assert fc.kind is FaceKind.POINT
    assert fc.point.value == (Fraction(1, 2), Fraction(1, 2), 1)


def test_face_point_requires_singleton():
    seg = DigitSet.from_digits(SEGMENT)
    with pytest.raises(NotSingleton):
        face_point(seg, (1, 0, 0))
    full = DigitSet.from_code((1 << 27) - 1)
    with pytest.raises(NotSingleton):
        face_point(full, (0, 0, 1))


def test_point_lies_on_face_and_negation_symmetry():
    rng = random.Random(7)
    sets = [parse_digitset(TABLE2_FIRST), DigitSet.from_digits(SEGMENT)]
    sets += [random_digitset(rng) for _ in range(15)]
    for ds in sets:
        for alpha in OFFSETS:
            fc = classify_face(ds, alpha)
            neg = (-alpha[0], -alpha[1], -alpha[2])
            assert classify_face(ds, neg).kind is fc.kind
            if fc.is_point:
                for k in range(3):
                    if alpha[k] == 1:
                        assert fc.point.value[k] == 1
                    elif alpha[k] == -1:
                        assert fc.point.value[k] == 0
                shifted = tuple(fc.point.value[k] - alpha[k] for k in range(3))
                assert classify_face(ds, neg).point.value == shifted


def test_point_denominator_divides_period_form():
    ds = parse_digitset(TABLE2_FIRST)
    for alpha in OFFSETS:
        fc = classify_face(ds, alpha)
        if fc.is_point:
            p, q = len(fc.point.preperiod), len(fc.point.period)
            bound = 3 ** p * (3 ** q - 1)
            for c in fc.point.value:
                assert bound % c.denominator == 0


def test_triadic_point_positional_formula():
    # 0.1(2)... in base 3 per axis: 1/3 + 2/(3*2) = 2/3
    pt = TriadicPoint.from_digits(3, [(1, 0, 0)], [(2, 0, 0)])
    assert pt.value[0] == Fraction(2, 3)
    assert pt.value[1] == 0
    # pure period (0.(1)) = 1/2
    pt2 = TriadicPoint.from_digits(3, [], [(1, 1, 1)])
    assert pt2.value == (Fraction(1, 2),) * 3
    with pytest.raises(ValueError):
        TriadicPoint.from_digits(3, [(0, 0, 0)], [])


def test_equivariance_under_cube_group():
    rng = random.Random(13)
    sets = [parse_digitset(TABLE2_FIRST)] + [random_digitset(rng) for _ in range(5)]
    for ds in sets:
        for g in rng.sample(CUBE_GROUP, 8):
            img = apply_isometry(g, ds)
            for alpha in OFFSETS:
                fc = classify_face(ds, alpha)
                fci = classify_face(img, g.apply_offset(alpha))
                assert fci.kind is fc.kind
                if fc.is_point:
                    assert fci.point.value == g.apply_point(fc.point.value)


def test_point_extraction_is_path_independent():
    # re-extract singleton points following the LARGEST live edge instead
    rng = random.Random(47)
    sets = [parse_digitset(TABLE2_FIRST), DigitSet.from_digits(SEGMENT)]
    sets += [random_digitset(rng) for _ in range(10)]
    for ds in sets:
        auto = build_automaton(ds)
        live = {v for v in OFFSETS if auto.is_live(v)}
        for alpha in OFFSETS:
            fc = classify_face(ds, alpha)
            if not fc.is_point:
                continue
            labels = []
            seen = {}
            u = alpha
            while u not in seen:
                seen[u] = len(labels)
                d, _, v = max(
                    (e for e in auto.edges[u] if e[2] in live),
                    key=lambda e: (tuple(e[0]), tuple(e[1])),
                )
                labels.append(d)
                u = v
            t = seen[u]
            other = TriadicPoint.from_digits(ds.n, labels[:t], labels[t:])
            assert other.value == fc.point.value


def test_scc_liveness_matches_path_fixpoint():
    # brute force: a node is live iff a 26-step path leaves it
    from fracube.faces import _scc_live
    rng = random.Random(61)
    for _ in range(200):
        succ = [0] * 26
        for u in range(26):
            for _ in range(rng.randrange(0, 4)):
                succ[u] |= 1 << rng.randrange(26)
        expected = 0
        for u in range(26):
            frontier = {u}
            for _ in range(26):
                frontier = {w for x in frontier for w in range(26) if succ[x] >> w & 1}
                if not frontier:
                    break
            if frontier:
                expected |= 1 << u
        assert _scc_live(succ) == expected


def test_general_order_segment():
    # fractal segment of order 4: same geometry, base-4 expansions
    seg4 = DigitSet.from_digits([(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)], n=4)
    fc = classify_face(seg4, (0, 0, 1))
    assert fc.is_point and fc.point.value == (0, 0, 1)
    assert classify_face(seg4, (0, 1, 0)).kind is FaceKind.EMPTY
