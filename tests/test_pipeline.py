import json
from math import comb

import pytest

from fracube import core, faces, oracle, pipeline, topology
from fracube.core import DigitSet, canonical_form, parse_digitset
from fracube.errors import InternalInconsistency, InvalidRequest, LabelConflict, UnknownCode
from fracube.faces import TriadicPoint, classify_face
from fracube.oracle import voxelize
from fracube.pipeline import (
    bundled_labels,
    classify_all,
    enumerate_all,
    enumerate_codes,
    label_representatives,
    match_labels,
    render_csv,
    render_json,
    render_markdown,
    render_report,
    verify_against_tables,
)
from fracube.topology import GraphCode, bipartite_graph, graph_code, intersection_graph


def test_enumeration_counts_small():
    assert sum(1 for _ in enumerate_codes(2, 8)) == 1
    assert sum(1 for _ in enumerate_codes(3, 1)) == 27
    assert sum(1 for _ in enumerate_codes(2, 3)) == comb(8, 3)


def test_enumeration_is_ascending_and_complete():
    codes = list(enumerate_codes(3, 3))
    assert len(codes) == comb(27, 3)
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    assert all(c.bit_count() == 3 for c in codes)


def test_enumerate_all_yields_digitsets_in_order():
    stream = enumerate_all(3, 7)
    first = next(stream)
    assert isinstance(first, DigitSet)
    assert first.code == (1 << 7) - 1
    assert [d for d in first.digits] == [(c % 3, c // 3 % 3, 0) for c in range(7)]
    with pytest.raises(ValueError):
        next(enumerate_all(2, 9))


def test_single_cell_classification():
    report = classify_all(3, 1, translations=False)
    assert report.candidates == 27
    assert report.survivors == 27
    assert len(report.classes) == 4
    assert sorted(r.orbit_size for r in report.classes) == [1, 6, 8, 12]
    assert all(r.dendrite for r in report.classes)
    assert all(r.edges == 0 for r in report.classes)
    assert len(report.graph_types) == 1
    assert report.graph_types[0].multiplicity == 4
    # every single-cell attractor is a point, so all 27 are isometric
    merged = classify_all(3, 1)
    assert [(r.representative, r.orbit_size, len(r.translates)) for r in merged.classes] == \
        [("000", 27, 3)]


def test_worker_determinism_small():
    for n, N in ((3, 2), (3, 3), (2, 4)):
        solo = classify_all(n, N, workers=1)
        duo = classify_all(n, N, workers=2)
        assert render_json(solo) == render_json(duo)
        assert render_csv(solo) == render_csv(duo)
        assert render_markdown(solo) == render_markdown(duo)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace multiprocessing.Pool by an in-process map; returns the requested sizes."""
    import multiprocessing

    requested = []

    class InProcessPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return [fn(chunk) for chunk in chunks]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return requested


def test_worker_count_clamped_to_cores(monkeypatch, in_process_pool):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = classify_all(3, 3, workers=5000)
    assert in_process_pool == [2]
    assert render_json(report) == render_json(classify_all(3, 3, workers=1))


def test_chunk_boundaries_split_representatives(monkeypatch, in_process_pool):
    # orbit minima cluster at low ranks, so most chunks hold few of them
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    solo = render_json(classify_all(3, 5, workers=1))
    for k in range(2, 6):
        assert render_json(classify_all(3, 5, workers=k)) == solo
    assert in_process_pool == [2, 3, 4, 5]


def test_report_invariants_small():
    report = classify_all(2, 4)
    assert sum(r.orbit_size for r in report.classes) == report.survivors
    assert sum(t.multiplicity for t in report.graph_types) == len(report.classes)
    codes = [r.canonical.code for r in report.classes]
    assert codes == sorted(codes)


def test_merge_checks_catch_a_corrupted_scan(monkeypatch):
    import fracube.pipeline as pl
    from fracube.core import CUBE_GROUP, apply_isometry
    report = classify_all(3, 5)
    translate = next(r for r in report.classes if r.translates).translates[0].code
    rep = report.classes[0].canonical
    image = next(c for g in CUBE_GROUP if (c := apply_isometry(g, rep).code) != rep.code)
    cases = [
        (True, lambda part, count: ({k: v for k, v in part.items() if k != translate}, count),
         "is not a survivor"),
        (True, lambda part, count: ({k: v + (k == rep.code) for k, v in part.items()}, count),
         "the slice tables give"),
        (False, lambda part, count: ({**part, image: 1} if rep.code in part else part, count),
         "is not canonical"),
        (True, lambda part, count: (part, count - 1), r"scanned \d+ candidates, expected 80730"),
    ]
    scan = pl._scan_chunk
    for translations, corrupt, message in cases:
        with monkeypatch.context() as m:
            # pass every chunk result of the scan through corrupt(part, count)
            m.setattr(pl, "_scan_chunk", lambda args, corrupt=corrupt: corrupt(*scan(args)))
            with pytest.raises(InternalInconsistency, match=message):
                classify_all(3, 5, translations=translations)


def test_graph_type_check_catches_mixed_verdicts(monkeypatch):
    import fracube.pipeline as pl
    report = classify_all(3, 5)
    shared = next(t.graph_code for t in report.graph_types if t.multiplicity > 1)
    flip = next(r.canonical for r in report.classes if r.graph_code == shared)
    dendrite = pl._dendrite
    # flip the verdict of one class whose graph code other classes share
    monkeypatch.setattr(pl, "_dendrite", lambda graph, bg: dendrite(graph, bg) != (graph.digitset == flip))
    with pytest.raises(InternalInconsistency, match="mixes dendrites and non-dendrites"):
        classify_all(3, 5)


@pytest.fixture
def graph_builds(monkeypatch):
    """Record the argument of every piece-graph and piece-point-graph build."""
    from fracube import pipeline, topology
    builds = {"piece_adjacency": [], "_bipartite": []}
    for name, calls in builds.items():
        def counted(arg, _build=getattr(topology, name), _calls=calls):
            _calls.append(arg)
            return _build(arg)
        for module in (topology, pipeline):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return builds


def test_classify_all_builds_each_graph_once_per_class(graph_builds):
    for translations, classes in ((False, 24), (True, 18)):
        report = classify_all(3, 5, translations=translations)
        assert len(report.classes) == classes
        assert [ds.code for ds in graph_builds["piece_adjacency"]] == \
            [g.digitset.code for g in graph_builds["_bipartite"]] == \
            [r.canonical.code for r in report.classes]
        graph_builds["piece_adjacency"].clear()
        graph_builds["_bipartite"].clear()


def test_inspect_builds_the_piece_point_graph_once(graph_builds, capsys):
    from fracube import cli
    # a row that is not one of the labelled sets, whose piece graphs the label lookup builds
    labelled = set(label_representatives())
    text = next(row[1] for row in bundled_labels() if row not in labelled)
    assert cli.main(["inspect", text]) == 0
    assert "dendrite" in json.loads(capsys.readouterr().out)
    ds = parse_digitset(text)
    assert sum(g == ds for g in graph_builds["piece_adjacency"]) == 1
    assert [g.digitset for g in graph_builds["_bipartite"]] == [ds]


def test_bundled_tables_load():
    rows = bundled_labels()
    assert len(rows) == 105
    assert len({text for _, text in rows}) == 105
    reps = label_representatives()
    assert len(reps) == 12
    assert [label for label, _ in reps] == [
        "7_11", "7_10", "7_9", "7_5", "7_6",
        "nonden1", "nonden2", "nonden3", "nonden4", "nonden5", "nonden6", "nonden7"]


def test_table_checksum_guard(monkeypatch):
    import fracube.pipeline as pl
    from fracube.errors import DataIntegrityError
    monkeypatch.setattr(pl, "TABLE_DATA_SHA256", "0" * 64)
    pl.bundled_labels.cache_clear()
    try:
        with pytest.raises(DataIntegrityError):
            pl.bundled_labels()
    finally:
        pl.bundled_labels.cache_clear()


def test_match_labels_conflict_and_unknown():
    report = classify_all(3, 1)
    # two labels, one shared single-vertex graph code
    with pytest.raises(LabelConflict):
        match_labels(report, (("a", "000"), ("b", "111")))
    # a 7-piece code cannot appear in the single-cell report
    with pytest.raises(UnknownCode):
        match_labels(report, (("x", "020_101_110_111_112_121_202"),))
    labeled = match_labels(report, (("cell", "000"),))
    assert all(r.label == "cell" for r in labeled.classes)
    assert labeled.labels() == {"cell": report.classes[0].graph_code}


def _colex_unrank(rank: int, k: int) -> int:
    """The k-cell code at position ``rank`` in the scan's order."""
    code = 0
    for i in range(k, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= rank:
            c += 1
        code |= 1 << c
        rank -= comb(c, i)
    return code


def _near_run_end(rng, h: int, k: int, most: int) -> int:
    """A random k-cell code with highest cell h and at most ``most`` codes from it to the end of its run."""
    size = comb(h, k - 1)
    return 1 << h | _colex_unrank(rng.randrange(max(size - most, 0), size), k - 1)


def _run_from(code: int, most: int) -> list[int] | None:
    """The codes from ``code`` to the end of its run in the scan's order, or None if more than ``most``."""
    from fracube.core import _next_code
    limit = 1 << code.bit_length()
    codes: list[int] = []
    while code < limit:
        if len(codes) == most:
            return None
        codes.append(code)
        code = _next_code(code)
    return codes


def _orbit_by_images(code: int, n: int) -> tuple[int, int]:
    """(orbit minimum, orbit size) from all 48 images, without the slice tables."""
    from fracube.core import _cell_permutations, _image
    images = {_image(table, code) for table in _cell_permutations(n)}
    return min(images), len(images)


def test_scan_agrees_with_public_filters():
    # the tuned scan must reproduce the classified piece graph's connectivity
    # and one-point property on every orbit minimum from its first code to the
    # end of its run, with the orbit size of the 48 images
    from fracube.pipeline import _scan_chunk
    from fracube.topology import piece_adjacency
    import random
    rng = random.Random(71)
    runs = [(3, 7, _run_from(_near_run_end(rng, h, 7, 400), 400)) for h in rng.sample(range(12, 27), 4)]
    # survivor representatives near the end of their run, so that some expectation is not empty
    canon = sorted({_orbit_by_images(parse_digitset(text).code, 3)[0] for _, text in bundled_labels()})
    runs += [(3, 7, codes) for code in canon if (codes := _run_from(code, 2500))]
    # whole runs at orders 2 and 4, where the scan's tables have other sizes;
    # at order 2, every code with 2 to 5 cells
    runs += [(2, k, _run_from((1 << k - 1) - 1 | 1 << h, 400)) for k in (2, 3, 4, 5) for h in range(k - 1, 8)]
    # at order 4, the three runs of 4-cell codes that hold survivors (two axis
    # lines and a face diagonal) and two runs without any
    runs += [(4, k, _run_from((1 << k - 1) - 1 | 1 << h, 400))
             for k, h in ((3, 21), (4, 3), (4, 7), (4, 12), (5, 11))]
    verdicts: dict[tuple[int, int], bool] = {}

    def verdict(code, n):
        if (code, n) not in verdicts:
            graph = piece_adjacency(DigitSet.from_code(code, n=n))
            verdicts[code, n] = graph.is_connected_graph() and graph.is_one_point()
        return verdicts[code, n]

    nonempty = dict.fromkeys((2, 3, 4), 0)
    for n, k, codes in runs:
        survivors, count = _scan_chunk((n, k, codes[0], len(codes)))
        assert count == len(codes)
        expected: dict[int, int] = {}
        for code in codes:
            canon, size = _orbit_by_images(code, n)
            # the filters are invariant under the cube group
            assert verdict(code, n) == verdict(canon, n)
            if canon == code and verdict(code, n):
                expected[code] = size
        assert survivors == expected, (n, k, codes[0])
        nonempty[n] += bool(expected)
    assert nonempty[3] >= 3 and nonempty[2] >= 3 and nonempty[4] == 3


def test_orbit_representatives_partition_codes():
    # the scan's minimality test against the 48 images of every code
    from fracube.core import _orbit_representatives
    sizes = [(2, N) for N in range(1, 9)] + [(3, N) for N in range(1, 5)] + [(4, 1), (4, 2), (5, 1), (5, 2)]
    for n, N in sizes:
        total = comb(n ** 3, N)
        low = (1 << N - 1) - 1
        reps: dict[int, int] = {}
        for h in range(N - 1, n ** 3):
            reps.update(_orbit_representatives(n, low | 1 << h))
        orbits = dict(_orbit_by_images(c, n) for c in enumerate_codes(n, N))
        assert reps == orbits, (n, N)
        assert sum(reps.values()) == total, (n, N)


def test_scan_flood_funnel_at_3_7():
    # README's (3, 7) funnel: the orbit minima of every run, those whose cells
    # are linked through all 26 offsets, those linked through offsets with
    # digits on both sides (the scan's prefilter) and those linked through
    # live offsets; each stage keeps a subset of the one before
    from fracube.faces import _edge_bound, _scc_live, _successors, tables_for_order
    from fracube.core import _orbit_representatives
    from fracube.topology import _spans
    tables = tables_for_order(3)
    reps: dict[int, int] = {}
    for h in range(6, 27):
        reps.update(_orbit_representatives(3, 0b111111 | 1 << h))
    near = {c for c in reps if _spans(c, (1 << 27) - 1 & ~(1 << 13), tables)}
    bound = {c for c in reps if _spans(c, _edge_bound(c, tables), tables)}
    live = {c for c in reps if _spans(c, _scc_live(_successors(DigitSet.from_code(c).cells(), tables)), tables)}
    assert live <= bound <= near
    assert (len(reps), len(near), len(bound), len(live)) == (19587, 13207, 1912, 132)
    assert sum(reps.values()) == comb(27, 7) == 888030


def test_scan_runs_liveness_on_the_bound_passers(monkeypatch):
    # the scan's work count at (3, 5): liveness runs only on the 64 of 1956
    # orbit minima that pass the side-occupancy flood
    calls = []
    kernel = pipeline._scc_live

    def counted(succ):
        calls.append(succ)
        return kernel(succ)
    monkeypatch.setattr(pipeline, "_scc_live", counted)
    assert classify_all(3, 5).survivors == 378
    assert len(calls) == 64


def _reference_orbit_representatives(n: int, first: int):
    """The per-code walk: one Gosper step and one packed sum for every code of the run."""
    from fracube.core import CUBE_GROUP, _SLICE_MASK, _next_code, _orbit_tables
    levels, _, ones, guards = _orbit_tables(n)
    size = len(CUBE_GROUP)
    code = first
    while code < 1 << first.bit_length():
        diff = guards + sum(table[code >> lo & _SLICE_MASK] for lo, table, _ in levels)
        if diff & guards == guards:
            yield code, size // (size - ((diff - ones) & guards).bit_count())
        code = _next_code(code)


def _rejected_level(n: int, code: int) -> int:
    """The highest slice boundary whose high part the pruned walk rejects, or 0."""
    from fracube.core import _SLICE_MASK, _orbit_tables
    levels, _, _, guards = _orbit_tables(n)
    upper = guards
    for lo, table, stable in levels[:-1]:
        upper += table[code >> lo & _SLICE_MASK]
        if upper & stable != stable:
            return lo
    return 0


def test_pruned_walk_matches_the_per_code_walk():
    # same (code, orbit size) pairs in the same order as the walk that tests every code
    import random
    from fracube.core import _orbit_representatives

    def same(n, first):
        got = list(_orbit_representatives(n, first))
        assert got == list(_reference_orbit_representatives(n, first)), (n, first)
        return got

    # every run that classify_all hands to _scan_chunk
    sizes = [(2, N) for N in range(1, 9)] + [(3, N) for N in (*range(1, 7), *range(22, 28))]
    sizes += [(4, N) for N in range(1, 4)]
    for n, N in sizes:
        low = (1 << N - 1) - 1
        found = [pair for h in range(N - 1, n ** 3) for pair in same(n, low | 1 << h)]
        assert sum(size for _, size in found) == comb(n ** 3, N), (n, N)
    # every start whose highest cell lies in the lowest slice, where the slice's
    # list of values also holds codes before the start and after the run
    for n, bits in ((2, 8), (3, 9)):
        for first in range(1, 1 << bits):
            same(n, first)
    # the 6-cell start that the benchmark's self-test scans as a (3, 5) chunk
    same(3, 1000)

    # starts inside a rejected high part, away from its first code
    def inside(code):
        lo = _rejected_level(3, code)
        low = code & (1 << lo) - 1
        return lo and low != (1 << low.bit_count()) - 1

    rng = random.Random(113)
    starts = 0
    while starts < 200:
        first = _near_run_end(rng, rng.randrange(12, 27), rng.randrange(4, 10), 400)
        if inside(first):
            same(3, first)
            starts += 1


def test_full_report_headline_counts(full_report):
    assert full_report.candidates == comb(27, 7) == 888030
    assert full_report.survivors == 3200
    assert sum(r.orbit_size for r in full_report.classes) == full_report.survivors
    assert sum(t.multiplicity for t in full_report.graph_types) == len(full_report.classes)
    assert len(full_report.graph_types) == 12


def test_orbit_count_against_burnside(full_report):
    # third route to the class count: |orbits| = (1/48) sum_g |Fix(g)|
    # over the survivor set reconstructed from the canonical representatives
    from fracube.core import transform_code
    orbit_reps = [d.code for r in full_report.classes for d in (r.canonical, *r.translates)]
    survivors = set()
    for code in orbit_reps:
        survivors.update(transform_code(g, code, 3) for g in range(48))
    assert len(survivors) == full_report.survivors
    fixed_total = sum(
        1 for g in range(48) for s in survivors if transform_code(g, s, 3) == s)
    assert fixed_total % 48 == 0
    assert fixed_total // 48 == len(orbit_reps) == 106


def test_full_report_against_tables(full_report):
    summary = verify_against_tables(full_report)
    assert summary.total == 105
    # every table set survives and its canonical class is present; the one
    # expected mismatch is the type-6 row whose graph is the type-4 graph
    assert summary.matched == 104
    assert len(summary.mismatches) == 1
    assert "000_001_010_020_111_221_222" in summary.mismatches[0]


def test_corrupted_table_is_reported(full_report):
    bad = (
        ("7_11", "000_002_020_200_022_202_220"),  # disconnected corner dust
        ("7_9", "000_000_111"),                   # duplicate digit
        ("7_5", "000_001_002_010_011_012_020"),   # realized multi-point face
    )
    summary = verify_against_tables(full_report, bad)
    assert summary.matched == 0
    assert len(summary.mismatches) == 3
    assert "not connected" in summary.mismatches[0]
    assert "parse failed" in summary.mismatches[1]


def test_report_disagreements_are_reported(full_report):
    row = bundled_labels()[0]
    name = " ".join(row)
    code = canonical_form(parse_digitset(row[1])).canonical.code
    rec = next(r for r in full_report.classes if code in {d.code for d in (r.canonical, *r.translates)})
    other = next(t.graph_code for t in full_report.graph_types if t.graph_code != rec.graph_code)
    without = full_report._replace(classes=tuple(r for r in full_report.classes if r is not rec))
    swapped = full_report._replace(classes=tuple(
        r._replace(graph_code=other) if r is rec else r for r in full_report.classes))
    assert verify_against_tables(without, (row,)).mismatches == (
        f"{name}: canonical form missing from report",)
    assert verify_against_tables(swapped, (row,)).mismatches == (
        f"{name}: report code {other} differs from {rec.graph_code}",)


def test_verify_builds_one_piece_graph_per_connected_row(full_report, graph_builds):
    bad = (
        ("7_11", "000_002_020_200_022_202_220"),  # disconnected corner dust
        ("7_9", "000_000_111"),                   # duplicate digit
        ("7_5", "000_001_002_010_011_012_020"),   # realized multi-point face
    )
    summary = verify_against_tables(full_report, bundled_labels() + bad)
    assert (summary.total, summary.matched) == (108, 104)
    assert [m.split(":")[0] for m in summary.mismatches] == [
        "nonden6 000_001_010_020_111_221_222", "7_11 000_002_020_200_022_202_220",
        "7_9 000_000_111", "7_5 000_001_002_010_011_012_020"]
    assert summary.mismatches[0].endswith("graph code 7:1be000 differs from its table's 7:1ca900")
    assert summary.mismatches[3].endswith("one-point property fails")
    connected = [parse_digitset(text) for _, text in bundled_labels()]
    connected.append(parse_digitset(bad[2][1]))
    assert graph_builds["piece_adjacency"] == connected


def test_render_formats_on_labeled_report(full_report):
    labeled = match_labels(full_report, label_representatives())
    doc = json.loads(render_json(labeled))
    assert doc["meta"] == {"order": 3, "pieces": 7, "candidates": 888030,
                           "survivors": 3200, "classes": len(full_report.classes)}
    assert {t["label"] for t in doc["graph_types"]} == {l for l, _ in label_representatives()}
    csv_text = render_csv(labeled)
    assert csv_text.splitlines()[0] == "canonical,orbit_size,graph_code,dendrite,edges,label"
    assert len(csv_text.splitlines()) == len(full_report.classes) + 1
    md = render_markdown(labeled)
    assert "## Dendrites" in md and "## Non-dendrites" in md
    assert "| graph | 7_11 | 7_10 | 7_9 | 7_5 | 7_6 |" in md
    assert "| N | 19 | 3 | 12 | 3 | 1 |" in md
    with pytest.raises(InvalidRequest, match="unknown report format 'xml'"):
        render_report(labeled, "xml")


def test_filter_is_isometry_invariant_spot_check(full_report):
    from fracube.core import CUBE_GROUP, apply_isometry
    from fracube.topology import has_one_point_property, is_connected
    import random
    rng = random.Random(53)
    survivor_codes = set()
    for r in full_report.classes[:4]:
        survivor_codes.add(r.canonical.code)
    samples = [DigitSet.from_code(c) for c in survivor_codes]
    samples += [DigitSet.from_code(sum(1 << c for c in rng.sample(range(27), 7)))
                for _ in range(6)]
    for ds in samples:
        verdict = is_connected(ds) and has_one_point_property(ds)
        for g in rng.sample(CUBE_GROUP, 8):
            img = apply_isometry(g, ds)
            assert (is_connected(img) and has_one_point_property(img)) == verdict


def _exported_values() -> list:
    """One value of each exported value type, computed afresh with every cache cleared."""
    for mod in (core, faces, oracle, pipeline, topology):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    ds = parse_digitset("020_101_110_111_112_121_202")
    form = canonical_form(ds)
    face = classify_face(ds, (0, 0, 1))
    graph = intersection_graph(ds)
    report = classify_all(3, 3)
    return [ds, face.point, form, form.witness, face, graph, bipartite_graph(ds), graph_code(graph),
            report, report.classes[0], report.graph_types[0], verify_against_tables(report, ()),
            voxelize(ds, 1)]


def test_exported_values_are_immutable():
    # README: the public operations work on immutable values
    values, again = _exported_values(), _exported_values()
    assert len({type(v) for v in values}) == 13
    fields = {DigitSet: ("n", "digits", "code"), TriadicPoint: ("n", "preperiod", "period", "value")}
    for value, twin in zip(values, again):
        for name in fields.get(type(value)) or value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        assert value == twin and hash(value) == hash(twin)
        assert value != object() and repr(value) and str(value)
    codes = [GraphCode(7, 5), GraphCode(n_vertices=6, bits=9), GraphCode(7, 1), GraphCode(6, 12)]
    assert sorted(codes) == sorted(codes, key=lambda c: (c.n_vertices, c.bits))
    assert [c.hex for c in sorted(codes)] == ["6:9", "6:c", "7:1", "7:5"]
