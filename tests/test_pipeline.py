import json
from math import comb

import pytest

from fracube.core import DigitSet, parse_digitset
from fracube.errors import LabelConflict, UnknownCode
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
    verify_against_tables,
)
from fracube.pipeline import _unrank_combination


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


def test_unranking_matches_stream_order():
    codes = list(enumerate_codes(3, 4))
    for rank in (0, 1, 7, 500, len(codes) - 1):
        assert _unrank_combination(rank, 4) == codes[rank]


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


def test_worker_count_clamped_to_cores(monkeypatch):
    import multiprocessing
    import os

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

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    report = classify_all(3, 3, workers=5000)
    assert requested == [2]
    assert render_json(report) == render_json(classify_all(3, 3, workers=1))


def test_report_invariants_small():
    report = classify_all(2, 4)
    assert sum(r.orbit_size for r in report.classes) == report.survivors
    assert sum(t.multiplicity for t in report.graph_types) == len(report.classes)
    codes = [r.canonical.code for r in report.classes]
    assert codes == sorted(codes)


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
    with pytest.raises(DataIntegrityError):
        pl.load_table_classes()


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


def test_scan_agrees_with_public_filters():
    # the tuned scan must reproduce is_connected + has_one_point_property
    from fracube.pipeline import _scan_chunk, _next_code
    from fracube.topology import has_one_point_property, is_connected
    from fracube.core import canonical_code
    import random
    rng = random.Random(71)
    for _ in range(4):
        start = rng.randrange(0, comb(27, 7) - 600)
        survivors, count = _scan_chunk((3, 7, start, 600))
        assert count == 600
        expected: dict[int, int] = {}
        code = _unrank_combination(start, 7)
        for _ in range(600):
            ds = DigitSet.from_code(code)
            if is_connected(ds) and has_one_point_property(ds):
                canon = canonical_code(code, 3)
                expected[canon] = expected.get(canon, 0) + 1
            code = _next_code(code)
        assert survivors == expected


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
    assert "| N | 19 | 3 | 12 | 3 | 1 |" in md


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
