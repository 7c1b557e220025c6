import functools
import random
from fractions import Fraction

import pytest

from fracube.core import CUBE_GROUP, Digit, DigitSet, apply_isometry, cell_index, parse_digitset
from fracube.errors import OutOfRange
from fracube.faces import (
    OFFSETS,
    FaceKind,
    TriadicPoint,
    _edge_bound,
    _scc_live,
    _successors,
    build_automaton,
    classify_face,
    offset_enc,
    tables_for_order,
)
from fracube.oracle import _boundary_slabs, _label_edges
from fracube.pipeline import enumerate_codes

SEGMENT = [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
OFFSET_OF = {offset_enc(v): v for v in OFFSETS}
TABLE2_FIRST = "020_101_110_111_112_121_202"


def random_digitset(rng, n=3, size=7):
    return DigitSet.from_code(sum(1 << c for c in rng.sample(range(n ** 3), size)), n=n)


def boundary_digitset(rng, n):
    # 8 to 20 draws, mostly on the grid's faces: an offset u with u_k != 0 has
    # edges only from labels whose k-th coordinates are 0 and n - 1
    coord = (0, 0, 0, 1, n - 2, n - 1, n - 1, n - 1)
    cells = {cell_index(tuple(rng.choice(coord) for _ in range(3)), n) for _ in range(rng.randrange(8, 21))}
    return DigitSet.from_code(sum(1 << c for c in cells), n=n)


def test_offset_encoding():
    assert len(OFFSETS) == 26
    assert len(set(OFFSETS)) == 26
    assert sorted(OFFSET_OF) == [e for e in range(27) if e != 13]
    assert all(offset_enc(tuple(-c for c in v)) == 26 - e for e, v in OFFSET_OF.items())
    with pytest.raises(OutOfRange):
        offset_enc((0, 0, 0))
    with pytest.raises(OutOfRange):
        offset_enc((2, 0, 0))


def test_offset_enc_accepts_only_nonzero_offsets():
    assert offset_enc((1, 0, 0)) == offset_enc([1, 0, 0]) == 14
    assert offset_enc((-1, -1, -1)) == 0 and offset_enc((1, 1, 1)) == 26
    for bad in [(0, 0, 0), [0, 0, 0], (2, 0, 0), (0, -2, 0), (1, 0, 0.5), (1, 0), (1, 0, 0, 0), (),
                "abc", ((1,), 0, 0), [[1], 0, 0], 5, None]:
        with pytest.raises(OutOfRange):
            offset_enc(bad)


def test_edge_targets_never_zero():
    # arithmetic unreachability of the zero offset, checked on the static tables:
    # every pair-table edge u -> w has w = n*u + digit(b) - digit(a) nonzero
    for n in (2, 3, 4, 5):
        tables = tables_for_order(n)
        for pair, entries in enumerate(tables.pair_edges):
            a, b = divmod(pair, tables.ncells)
            for u_enc, bit in entries:
                assert bit & (bit - 1) == 0 and bit.bit_length() - 1 in OFFSET_OF
                w = tuple(n * OFFSET_OF[u_enc][k] + tables.coords[b][k] - tables.coords[a][k]
                          for k in range(3))
                assert w == OFFSET_OF[bit.bit_length() - 1]
                # supports only grow: u's nonzero coordinates stay, and an edge
                # that adds none is a self-loop
                u = OFFSET_OF[u_enc]
                assert all(w[k] == u[k] for k in range(3) if u[k])
                assert w == u or w.count(0) < u.count(0)


def test_segment_automaton_self_loop():
    ds = DigitSet.from_digits(SEGMENT)
    tables = tables_for_order(3)
    up = offset_enc((0, 0, 1))
    top, bottom = cell_index((0, 0, 2), 3), cell_index((0, 0, 0), 3)
    assert (up, 1 << up) in tables.pair_edges[top * tables.ncells + bottom]
    live, edges = build_automaton(ds)
    assert live >> up & 1
    assert (up, top) in edges[up]


def test_full_cube_all_live():
    live, _ = build_automaton(DigitSet.from_code((1 << 27) - 1))
    assert live == sum(1 << e for e in OFFSET_OF)


def test_two_corner_automaton():
    # only delta = (-2,-2,-2) keeps 3*(1,1,1) + delta inside the offset set
    ds = DigitSet.from_digits([(0, 0, 0), (2, 2, 2)])
    diag = offset_enc((1, 1, 1))
    succ = _successors(ds.cells(), tables_for_order(3))
    assert succ[diag] == 1 << diag
    live, edges = build_automaton(ds)
    assert live >> diag & 1
    assert edges[diag] == [(diag, cell_index((2, 2, 2), 3))]
    fc = classify_face(ds, (1, 1, 1))
    assert fc.is_point and fc.point.value == (1, 1, 1)


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


def _kernel_sets():
    # 40 random digit sets each at n = 2, 3, 4, every (3,4) prefilter passer
    # and 4 order-5 sets near the grid's faces
    rng = random.Random(67)
    sets = [random_digitset(rng, n, rng.randrange(1, n ** 3 + 1))
            for n in (2, 3, 4) for _ in range(40)]
    passers = [ds for ds in map(DigitSet.from_code, enumerate_codes(3, 4))
               if _potentially_connected(ds)]
    assert passers
    rng = random.Random(71)
    return sets + passers + [boundary_digitset(rng, 5) for _ in range(4)]


def _edge_relation(ds):
    # u -> [(w, d)] in label order, straight from the definition w = n*u + d' - d
    n, offset_set = ds.n, set(OFFSETS)
    labels = sorted((cell_index(d, n), cell_index(dp, n), d, dp)
                    for d in ds.digits for dp in ds.digits)
    relation = {u: [] for u in OFFSETS}
    for _, _, d, dp in labels:
        dx, dy, dz = dp[0] - d[0], dp[1] - d[1], dp[2] - d[2]
        for u in OFFSETS:
            w = (n * u[0] + dx, n * u[1] + dy, n * u[2] + dz)
            if w in offset_set:
                relation[u].append((w, d))
    return relation


@functools.cache
def _kernel_references():
    # (digit set, edge relation) for every kernel set, shared by the two tests below
    return [(ds, _edge_relation(ds)) for ds in _kernel_sets()]


def test_pair_table_successors_match_edge_targets():
    # successor masks from the digit-pair table against the targets of the
    # edge relation rebuilt from its definition
    for ds, relation in _kernel_references():
        expected = [0] * 27
        for u in OFFSETS:
            expected[offset_enc(u)] = sum({1 << offset_enc(w) for w, _ in relation[u]})
        assert _successors(ds.cells(), tables_for_order(ds.n)) == expected


def test_edges_enumerated_exhaustively():
    # the kernel's live offsets and live edges (target and first label, in
    # label order) against the edge relation rebuilt from its definition
    for ds, relation in _kernel_references():
        # live: the offsets left after pruning those with no live successor
        alive = {u for u in OFFSETS if relation[u]}
        while pruned := {u for u in alive if not any(w in alive for w, _ in relation[u])}:
            alive -= pruned
        live, edges = build_automaton(ds)
        assert live == sum(1 << offset_enc(u) for u in alive)
        for u in OFFSETS:
            assert edges[offset_enc(u)] == [
                (offset_enc(w), cell_index(d, ds.n)) for w, d in relation[u] if w in alive]


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
    seg = classify_face(DigitSet.from_digits(SEGMENT), (1, 0, 0))
    assert seg.kind is FaceKind.EMPTY and seg.point is None
    full = classify_face(DigitSet.from_code((1 << 27) - 1), (0, 0, 1))
    assert full.kind is FaceKind.MULTI and full.point is None


def test_point_lies_on_face_and_negation_symmetry():
    rng = random.Random(7)
    sets = [parse_digitset(TABLE2_FIRST), DigitSet.from_digits(SEGMENT)]
    sets += [random_digitset(rng) for _ in range(15)]
    sets += [random_digitset(rng, n, rng.randrange(2, n ** 3)) for n in (2, 4, 5) for _ in range(10)]
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
            # a one-digit period: 0.a(c) in base 3 is (2a + c) / (3^p * 2)
            bound = 3 ** len(fc.point.preperiod) * 2
            for c in fc.point.value:
                assert bound % c.denominator == 0


def test_triadic_point_positional_formula():
    # 0.1(2)... in base 3 per axis: 1/3 + 2/(3*2) = 2/3
    pt = TriadicPoint(3, (Digit(1, 0, 0),), Digit(2, 0, 0))
    assert pt.value[0] == Fraction(2, 3)
    assert pt.value[1] == 0
    # pure period (0.(1)) = 1/2
    assert TriadicPoint(3, (), Digit(1, 1, 1)).value == (Fraction(1, 2),) * 3
    # base 5: 0.0(4) = 1/5, 0.2(0) = 2/5, 0.4(1) = 4/5 + 1/20
    pt5 = TriadicPoint(5, (Digit(0, 2, 4),), Digit(4, 0, 1))
    assert pt5.value == (Fraction(1, 5), Fraction(2, 5), Fraction(17, 20))


def _series_value(pt: TriadicPoint) -> tuple[Fraction, Fraction, Fraction]:
    """The point's coordinates summed digit by digit, the period as a geometric series."""
    n, p = pt.n, len(pt.preperiod)
    head = [sum(Fraction(d[k], n ** (i + 1)) for i, d in enumerate(pt.preperiod)) for k in range(3)]
    return tuple(head[k] + Fraction(pt.period[k], n ** p * (n - 1)) for k in range(3))


def test_points_are_computed_on_demand(monkeypatch):
    # the oracle sweep reads verdicts only; a point's coordinates are computed when first read
    import fracube.faces
    from fracube.oracle import faces_agree
    from fracube.pipeline import bundled_labels
    from fracube.topology import _bipartite, intersection_graph

    def refuse(*args):
        raise AssertionError("a point's coordinates were computed")

    rows = [parse_digitset(text) for _, text in bundled_labels()]
    build_automaton.cache_clear()
    classify_face.cache_clear()
    monkeypatch.setattr(fracube.faces, "Fraction", refuse)
    assert all(faces_agree(ds, alpha) for ds in rows for alpha in OFFSETS)
    monkeypatch.undo()

    points = [fc.point for ds in rows for alpha in OFFSETS if (fc := classify_face(ds, alpha)).is_point]
    assert len(points) == 908
    for pt in points:
        assert pt.value == _series_value(pt)
        # the same point with its period unrolled once
        again = TriadicPoint(pt.n, pt.preperiod + (pt.period,), pt.period)
        assert again == pt and hash(again) == hash(pt)
    assert len(set(points)) == len({_series_value(pt) for pt in points})
    for ds in rows:
        values = [_series_value(pt) for pt in _bipartite(intersection_graph(ds)).points]
        assert values == sorted(set(values))


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
    # re-extract singleton points following the LARGEST live label instead,
    # on the oracle's edge relation
    rng = random.Random(47)
    sets = [parse_digitset(TABLE2_FIRST), DigitSet.from_digits(SEGMENT)]
    sets += [random_digitset(rng) for _ in range(10)]
    for ds in sets:
        live_mask, _ = build_automaton(ds)
        live = {v for v in OFFSETS if live_mask >> offset_enc(v) & 1}
        label_edges = _label_edges(ds)
        for alpha in OFFSETS:
            fc = classify_face(ds, alpha)
            if not fc.is_point:
                continue
            labels = []
            seen = {}
            u = alpha
            while u not in seen:
                seen[u] = len(labels)
                d, u = max(e for e in label_edges[u] if e[1] in live)
                labels.append(d)
            t = seen[u]
            assert t == len(labels) - 1  # this walk too comes back only through a self-loop
            other = TriadicPoint(ds.n, tuple(labels[:t]), labels[t])
            assert other.value == fc.point.value


def test_edge_bound_is_sound():
    # the scan's prefilter mask holds every offset with an edge, so every live
    # one; it equals the offsets with side digits on both ends by the oracle's
    # own side table, and at n = 2 every such pair of sides gives an edge
    rng = random.Random(79)
    sets = _kernel_sets() + [random_digitset(rng, n, rng.randrange(1, n ** 3 + 1))
                             for n in (2, 3, 4, 5) for _ in range(60)]
    sets += [boundary_digitset(rng, 5) for _ in range(40)]
    for ds in sets:
        tables = tables_for_order(ds.n)
        bound = _edge_bound(ds.code, tables)
        succ = _successors(ds.cells(), tables)
        moving = sum(1 << u for u in range(27) if succ[u])
        live = _scc_live(succ)
        assert bound & moving == moving and bound & live == live
        if ds.n == 2:
            assert bound == moving
        assert all(bound >> u & 1 == bound >> 26 - u & 1 for u in range(27))
        sides = _boundary_slabs(ds)
        assert bound == sum(1 << offset_enc(v) for v in OFFSETS
                            if sides[v] and sides[tuple(-c for c in v)])


def test_scc_liveness_matches_path_fixpoint():
    # brute force: an offset is live iff a 26-step path leaves it, on the
    # automata of the kernel sets and of random sets of order 5
    rng = random.Random(61)
    sets = _kernel_sets() + [random_digitset(rng, 5, rng.randrange(1, 126)) for _ in range(40)]
    for ds in sets:
        succ = _successors(ds.cells(), tables_for_order(ds.n))
        expected = 0
        for u in range(27):
            frontier = {u}
            for _ in range(26):
                frontier = {w for x in frontier for w in range(27) if succ[x] >> w & 1}
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
