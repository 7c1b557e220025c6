import itertools
import random

import pytest

from fracube import oracle
from fracube.core import DigitSet, cell_index, parse_digitset
from fracube.errors import BudgetExceeded, InternalInconsistency, InvalidRequest
from fracube.faces import OFFSETS, FaceKind, classify_face
from fracube.oracle import (
    EmptinessCheck,
    FaceCardinality,
    export_cells,
    export_obj,
    faces_agree,
    oracle_face_cardinality,
    oracle_face_empty,
    voxelize,
)
from fracube.pipeline import bundled_labels

SEGMENT = DigitSet.from_digits([(0, 0, 0), (0, 0, 1), (0, 0, 2)])
CORNERS = parse_digitset("000_002_020_200_022_202_220")
TABLE2_FIRST = parse_digitset("020_101_110_111_112_121_202")
FULL = DigitSet.from_code((1 << 27) - 1)


def random_digitset(rng, n=3, size=7):
    return DigitSet.from_code(sum(1 << c for c in rng.sample(range(n ** 3), size)), n=n)


def boundary_digitset(rng, n):
    # 8 to 20 draws, mostly on the grid's faces: an offset u with u_k != 0 has
    # edges only from labels whose k-th coordinates are 0 and n - 1
    coord = (0, 0, 0, 1, n - 2, n - 1, n - 1, n - 1)
    cells = {cell_index(tuple(rng.choice(coord) for _ in range(3)), n) for _ in range(rng.randrange(8, 21))}
    return DigitSet.from_code(sum(1 << c for c in cells), n=n)


def test_voxel_cell_counts():
    assert len(voxelize(TABLE2_FIRST, 1).cells) == 7
    assert len(voxelize(TABLE2_FIRST, 2).cells) == 49
    full2 = voxelize(FULL, 2)
    assert len(full2.cells) == 729
    assert full2.cells == frozenset(
        (x, y, z) for x in range(9) for y in range(9) for z in range(9))


def test_voxel_depth_one_is_digit_set():
    vox = voxelize(SEGMENT, 1)
    assert vox.cells == frozenset((d.x, d.y, d.z) for d in SEGMENT.digits)


def test_voxel_refinement():
    rng = random.Random(19)
    for _ in range(5):
        ds = random_digitset(rng)
        coarse = {(x // 3, y // 3, z // 3) for x, y, z in voxelize(ds, 3).cells}
        assert coarse <= voxelize(ds, 2).cells


def test_voxel_budget():
    with pytest.raises(BudgetExceeded):
        voxelize(TABLE2_FIRST, 9)
    # one cell never fills the budget, but its depth is bounded like any other
    with pytest.raises(BudgetExceeded, match="and depth 20"):
        voxelize(DigitSet.from_digits([(0, 2, 1)]), 21)
    with pytest.raises(InvalidRequest):
        voxelize(TABLE2_FIRST, 0)
    # the certificate builds no cells, so the cell budget does not bound its
    # depth: depth 9 gives the depth-3 verdict, which holds at every depth from 3 on
    for alpha in OFFSETS:
        assert oracle_face_empty(TABLE2_FIRST, alpha, 9) is oracle_face_empty(TABLE2_FIRST, alpha, 3), alpha
    with pytest.raises(InvalidRequest):
        oracle_face_empty(TABLE2_FIRST, (1, 0, 0), 0)
    # a precomputed iterate must match the request's depth and digit set
    vox = voxelize(TABLE2_FIRST, 2)
    for ds, depth in ((TABLE2_FIRST, 3), (CORNERS, 2)):
        with pytest.raises(InvalidRequest, match="does not match"):
            oracle_face_empty(ds, (1, 0, 0), depth, vox=vox)


def test_voxelize_checks_its_cell_count(monkeypatch):
    # a repeated cell stands for two words whose packed sums collide
    iterate = oracle._iterate
    monkeypatch.setattr(oracle, "_iterate", lambda *args: (cells := iterate(*args))[:-1] + cells[:1])
    with pytest.raises(InternalInconsistency, match=r"36 cells at depth 2, not 7\^2"):
        voxelize(TABLE2_FIRST, 2)


def _reference_voxel_cells(ds, depth):
    """The coordinate-tuple route: each level adds the scaled digits to every cell."""
    cells, scale = [(0, 0, 0)], 1
    for _ in range(depth):
        cells = [(x + scale * d[0], y + scale * d[1], z + scale * d[2]) for x, y, z in cells for d in ds.digits]
        scale *= ds.n
    return frozenset(cells)


def test_packed_iterate_matches_the_tuple_route():
    # seeded sets of orders 2-4 at depths 1-5, then sets with cells on both
    # opposite faces of every axis, where a packed sum could carry; depths 3
    # and 5 split into unequal halves
    rng = random.Random(67)
    cases = [random_digitset(rng, n=n, size=rng.randrange(1, min(n ** 3, 9) + 1))
             for n in (2, 3, 4) for _ in range(15)]
    for n in (2, 3, 4):
        for _ in range(10):
            extra = rng.sample(range(1, n ** 3 - 1), rng.randrange(1, 6))
            cases.append(DigitSet.from_code(1 | 1 << (n ** 3 - 1) | sum(1 << c for c in extra), n=n))
    checked = dict.fromkeys(range(1, 6), 0)
    for ds in cases:
        for depth in checked:
            if len(ds) ** depth <= 50_000:
                assert voxelize(ds, depth).cells == _reference_voxel_cells(ds, depth), (ds, depth)
                checked[depth] += 1
    assert checked[4] > 50 and checked[5] > 30


def test_certified_empty_on_separated_offsets():
    # corner dust never meets its own diagonal translate
    assert oracle_face_empty(CORNERS, (1, 1, 1), 2) is EmptinessCheck.CERTIFIED_EMPTY
    two = DigitSet.from_digits([(0, 0, 0), (2, 2, 2)])
    assert oracle_face_empty(two, (1, 0, 0), 3) is EmptinessCheck.CERTIFIED_EMPTY


def test_face_of_corner_set_along_axis_is_nonempty():
    # the z=1 slice of the corner dust contains the z=0 slice's translate,
    # so this face is infinite even though no digit pair realizes the offset
    assert oracle_face_empty(CORNERS, (0, 0, 1), 3) is EmptinessCheck.UNKNOWN
    assert oracle_face_cardinality(CORNERS, (0, 0, 1)) is FaceCardinality.AT_LEAST_TWO
    assert classify_face(CORNERS, (0, 0, 1)).kind is FaceKind.MULTI


def test_unknown_on_touching_translate():
    assert oracle_face_empty(SEGMENT, (0, 0, 1), 2) is EmptinessCheck.UNKNOWN


def test_cardinality_fixtures():
    assert oracle_face_cardinality(SEGMENT, (0, 0, 1)) is FaceCardinality.ONE
    assert oracle_face_cardinality(SEGMENT, [0, 0, 1]) is FaceCardinality.ONE  # offsets may be lists
    assert oracle_face_cardinality(SEGMENT, (1, 0, 0)) is FaceCardinality.EMPTY
    assert oracle_face_cardinality(FULL, (1, 0, 0)) is FaceCardinality.AT_LEAST_TWO


def test_oracle_agrees_with_classifier_on_random_sets():
    rng = random.Random(31)
    for _ in range(8):
        ds = random_digitset(rng)
        for alpha in OFFSETS:
            assert faces_agree(ds, alpha)


def test_oracle_agrees_for_other_orders():
    rng = random.Random(43)
    cases = [random_digitset(rng, n=2, size=rng.randrange(2, 6)) for _ in range(6)]
    cases += [random_digitset(rng, n=4, size=rng.randrange(3, 9)) for _ in range(3)]
    order5 = [boundary_digitset(rng, 5) for _ in range(4)]
    for ds in cases + order5:
        for alpha in OFFSETS:
            assert faces_agree(ds, alpha), (ds, alpha)
    # the order-5 sets reach every verdict, so the product search runs there too
    assert {oracle_face_cardinality(ds, alpha) for ds in order5 for alpha in OFFSETS} == set(FaceCardinality)


def _reference_face_empty(vox):
    """alpha -> certified, by the tuple route: per-cell slab loop, then a scan of the 3^k deltas."""
    edge = vox.digitset.n ** vox.depth - 1
    slabs = {(axis, side): set() for axis in range(3) for side in (0, edge)}
    for cell in vox.cells:
        for axis in range(3):
            if cell[axis] == 0:
                slabs[axis, 0].add(cell)
            elif cell[axis] == edge:
                slabs[axis, edge].add(cell)
    verdicts = {}
    for alpha in OFFSETS:
        free = [k for k in range(3) if alpha[k] == 0]
        near = set.intersection(*(slabs[k, 0 if alpha[k] > 0 else edge] for k in range(3) if alpha[k]))
        far = set.intersection(*(slabs[k, edge if alpha[k] > 0 else 0] for k in range(3) if alpha[k]))
        far_proj = {tuple(cell[k] for k in free) for cell in far}
        deltas = list(itertools.product((-1, 0, 1), repeat=len(free)))
        verdicts[alpha] = not any(
            tuple(cell[k] + d[i] for i, k in enumerate(free)) in far_proj for cell in near for d in deltas)
    return verdicts


def _certificate_cases():
    # the table rows at depth 4, then seeded random sets of orders 2-4 at depths 1-4
    rng = random.Random(53)
    cases = [(parse_digitset(text), 4) for _, text in bundled_labels()]
    for _ in range(180):
        n = rng.choice((2, 3, 4))
        ds = random_digitset(rng, n=n, size=rng.randrange(2, min(n ** 3, 12) + 1))
        cases.append((ds, rng.choice([m for m in range(1, 5) if len(ds) ** m <= 200_000])))
    # cells on both opposite boundaries of an axis, where a packed sum could carry
    rng = random.Random(59)
    for n in (2, 3, 4):
        for _ in range(10):
            extra = rng.sample(range(1, n ** 3 - 1), rng.randrange(1, 6))
            ds = DigitSet.from_code(1 | 1 << (n ** 3 - 1) | sum(1 << c for c in extra), n=n)
            cases += [(ds, m) for m in range(1, 5) if len(ds) ** m <= 200_000]
    # order 5, where the packing base n^m + 1 is largest: random sets, then
    # sets holding a line of cells across the grid, whose faces along it touch
    rng = random.Random(73)
    for i in range(24):
        ds = random_digitset(rng, n=5, size=rng.randrange(2, 13))
        if i % 2:
            step = 5 ** rng.randrange(3)
            start = (cell := rng.randrange(125)) - cell // step % 5 * step
            ds = DigitSet.from_code(ds.code | sum(1 << start + t * step for t in range(5)), n=5)
        cases.append((ds, rng.choice([m for m in range(1, 5) if len(ds) ** m <= 200_000])))
    # order 5 with most cells on the grid's faces, so edge and corner sides hold digits
    rng = random.Random(97)
    for _ in range(6):
        ds = boundary_digitset(rng, 5)
        cases.append((ds, rng.choice([m for m in range(1, 4) if len(ds) ** m <= 20_000])))
    return cases


def _certificate_disagreements(cases):
    """(ds, depth, alpha) where the certificate and the tuple reference differ, and the certified count."""
    disagree, certified = [], 0
    for ds, depth in cases:
        vox = voxelize(ds, depth)
        for alpha, empty in _reference_face_empty(vox).items():
            got = oracle_face_empty(ds, alpha, depth, vox=vox) is EmptinessCheck.CERTIFIED_EMPTY
            certified += got
            if got != empty:
                disagree.append((ds, depth, alpha))
    return disagree, certified


def test_certificate_matches_the_tuple_reference():
    cases = _certificate_cases()
    disagree, certified = _certificate_disagreements(cases)
    assert disagree == []
    assert 0 < certified < 26 * len(cases)


def test_certificate_at_deep_levels():
    # depths where the grid is far wider than the iterate: a two-digit set,
    # a segment, and one cell at the budget's depth limit
    one_cell = DigitSet.from_digits([(0, 2, 1)])
    cases = [(parse_digitset("000_022"), 12), (SEGMENT, 8), (one_cell, 20)]
    disagree, certified = _certificate_disagreements(cases)
    assert disagree == []
    assert 0 < certified < 26 * len(cases)


def test_certificate_settles_by_level_three():
    # a nonzero component of a walk state never changes, so past level k + 1
    # the reached set only grows: depth 3 decides every deeper certificate
    rng = random.Random(83)
    cases = [parse_digitset(text) for _, text in bundled_labels()[::7]]
    cases += [random_digitset(rng, n=n, size=rng.randrange(1, 7)) for n in (2, 3, 4, 5) for _ in range(10)]
    cases.append(parse_digitset("000_022"))
    shallow = {(ds, alpha): oracle_face_empty(ds, alpha, 3) for ds in cases for alpha in OFFSETS}
    for depth in (4, 7, 20):
        deep = {(ds, alpha): oracle_face_empty(ds, alpha, depth)
                for ds in cases if len(ds) ** depth <= oracle.DEFAULT_CELL_BUDGET for alpha in OFFSETS}
        assert deep == {key: shallow[key] for key in deep}, depth
        assert len(deep) >= 26 * 8
    assert EmptinessCheck.CERTIFIED_EMPTY in shallow.values() and EmptinessCheck.UNKNOWN in shallow.values()


def _reference_label_edges(ds):
    """The direct triple loop over offsets and label pairs."""
    out = {u: [] for u in OFFSETS}
    for u in OFFSETS:
        for d in ds.digits:
            for dp in ds.digits:
                v = tuple(ds.n * u[k] + dp[k] - d[k] for k in range(3))
                if v in out:
                    out[u].append((tuple(d), v))
    return out


def test_label_edges_match_the_triple_loop():
    # the same (d, v) multiset per offset; callers read it as a set, so order is free
    rng = random.Random(61)
    cases = [parse_digitset(text) for _, text in bundled_labels()]
    cases += [random_digitset(rng, n=n, size=rng.randrange(2, min(n ** 3, 12) + 1))
              for n in (2, 3, 4) for _ in range(50)]
    rng = random.Random(79)
    cases += [random_digitset(rng, n=5, size=rng.randrange(2, 13)) for _ in range(30)]
    cases += [boundary_digitset(rng, 5) for _ in range(10)]
    for ds in cases:
        edges, reference = oracle._label_edges(ds), _reference_label_edges(ds)
        assert {u: sorted(edges[u]) for u in OFFSETS} == {u: sorted(reference[u]) for u in OFFSETS}, ds


def _has_long_path(edges, start, length):
    """True iff some label path of the given length leaves ``start``."""
    frontier = {start}
    for _ in range(length):
        frontier = {v for u in frontier for _, v in edges[u]}
        if not frontier:
            return False
    return True


def test_extendable_offsets_match_the_forward_reference():
    # the backward pass for all starts against one forward pass per start
    rng = random.Random(71)
    cases = [parse_digitset(text) for _, text in bundled_labels()]
    cases += [random_digitset(rng, n=n, size=rng.randrange(2, min(n ** 3, 12) + 1))
              for n in (2, 3, 4) for _ in range(40)]
    sizes = set()
    for ds in cases:
        edges, pruned = oracle._label_edges(ds), oracle._relation(ds)
        extendable = set(pruned)
        assert extendable == {u for u in OFFSETS if _has_long_path(edges, u, 26)}, ds
        assert pruned == {u: [(d, v) for d, v in edges[u] if v in extendable] for u in extendable}, ds
        sizes.add(len(extendable))
    assert 0 in sizes and len(sizes) > 5


def _reference_cardinality(ds, alpha):
    """#F(alpha) by one pair search from alpha alone, over coordinate triples."""
    n = ds.n
    edges = oracle._relation(ds)
    if alpha not in edges:
        return FaceCardinality.EMPTY
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


def test_shared_settled_states_match_the_per_start_search():
    # the one pass over a digit set's offsets against a fresh search per offset;
    # order 2 has up to two edges per axis step
    rng = random.Random(89)
    cases = [parse_digitset(text) for _, text in bundled_labels()]
    cases += [random_digitset(rng, n=n, size=rng.randrange(2, min(n ** 3, 12) + 1))
              for n in (2, 3, 4) for _ in range(60)]
    kinds = set()
    for ds in cases:
        for alpha in OFFSETS:
            got = oracle_face_cardinality(ds, alpha)
            assert got is _reference_cardinality(ds, alpha), (ds, alpha)
            kinds.add((ds.n, got))
    assert kinds == {(n, card) for n in (2, 3, 4) for card in FaceCardinality}


def test_certified_empty_implies_empty_class():
    rng = random.Random(37)
    for _ in range(6):
        ds = random_digitset(rng)
        vox = voxelize(ds, 4)
        for alpha in OFFSETS:
            if oracle_face_empty(ds, alpha, 4, vox=vox) is EmptinessCheck.CERTIFIED_EMPTY:
                assert classify_face(ds, alpha).kind is FaceKind.EMPTY


def _clear_oracle_caches():
    for fn in vars(oracle).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def test_label_relation_built_once_per_digit_set(monkeypatch):
    # both oracle routes share one side table per digit set when called
    # face by face, one digit set after the other, as `fracube verify` does
    rng = random.Random(47)
    cases = [parse_digitset(text) for _, text in bundled_labels()[::15]]
    cases += [random_digitset(rng, n=n, size=rng.randrange(2, 9)) for n in (2, 3, 4) for _ in range(3)]
    cases = list(dict.fromkeys(cases))
    cold = {}
    for ds in cases:
        for alpha in OFFSETS:
            _clear_oracle_caches()
            cold[ds, alpha] = oracle_face_cardinality(ds, alpha), oracle_face_empty(ds, alpha, 4)
    builds = []
    build = oracle._label_edges
    monkeypatch.setattr(oracle, "_label_edges", lambda ds: builds.append(ds) or build(ds))
    _clear_oracle_caches()
    for ds in cases:
        for alpha in OFFSETS:
            warm = oracle_face_cardinality(ds, alpha), oracle_face_empty(ds, alpha, 4)
            assert warm == cold[ds, alpha], (ds, alpha)
        assert builds.count(ds) == 1, ds
    assert oracle._boundary_slabs.cache_info().misses == len(cases)


def test_export_cells_format():
    vox = voxelize(SEGMENT, 1)
    assert export_cells(vox) == "0 0 0\n0 0 1\n0 0 2\n"
    with pytest.raises(InvalidRequest, match="unknown mesh format 'stl'"):
        oracle.export_mesh(vox, "stl")


def test_export_obj_counts():
    vox = voxelize(TABLE2_FIRST, 2)
    obj = export_obj(vox)
    lines = obj.splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 8 * 49
    assert sum(1 for l in lines if l.startswith("f ")) == 12 * 49
    # all face indices reference existing vertices
    max_index = max(int(tok) for l in lines if l.startswith("f ") for tok in l.split()[1:])
    assert max_index == 8 * 49
