"""Full enumeration and classification of order-n fractal cubes.

The scan covers the N-subsets of the n^3 cells in increasing occupancy-code
order (Gosper order), in one chunk per highest occupied cell, and filters
only the codes that are minimal in their orbit under the 48 cube symmetries
(isomorph rejection, after Read 1978 and McKay 1998).  The filters are
invariant under the cube group, so each orbit is decided once by its
minimum.  The minima and their orbit sizes come from the walk
:func:`fracube.core._orbit_representatives` over the cube group's slice
tables.  The minimal codes are filtered by connectivity, two floods
:func:`fracube.topology._component` over the code's own cells with the rows
of an offset mask (first the offsets with digits on both of their sides,
then the live offsets), and then by the one-point intersection property.
Orbits whose digit sets are translates of each other inside the grid have
translated attractors, so by default they are merged into one isometry
class.  Workers own disjoint chunks and return mergeable partial results, so
the resulting report is byte-identical for any worker count.
"""

from __future__ import annotations

import io
import json
import os
from functools import lru_cache
from importlib import resources
from itertools import product
from math import comb
from typing import Iterator, NamedTuple

from .core import (
    DigitSet,
    _check_order,
    _next_code,
    _orbit_representatives,
    canonical_code,
    canonical_form,
    parse_digitset,
)
from .errors import (
    BudgetExceeded,
    DataIntegrityError,
    InternalInconsistency,
    InvalidRequest,
    LabelConflict,
    ParseError,
    UnknownCode,
)
from .faces import (
    _edge_bound,
    _escape_reachable,
    _live_edges,
    _scc_live,
    _successors,
    tables_for_order,
)
from .topology import (
    GraphCode,
    _bipartite,
    _dendrite,
    _piece_pairs,
    _spans,
    graph_code,
    intersection_graph,
    is_connected,
    piece_adjacency,
)

# classify_all refuses larger scans up front.  The largest order-3 problem,
# C(27, 13) = 20058300 candidates, fits; (5, 7) with about 8e10 does not.
MAX_CANDIDATES = 10 ** 8

TABLE_DATA_SHA256 = "285531e7b0e1a612b40b72ae86600c3fbd5640f7f8f2806154c2533bd83a6a94"


def enumerate_codes(n: int = 3, N: int = 7) -> Iterator[int]:
    """All occupancy codes with N set bits, ascending."""
    limit = 1 << n ** 3
    code = (1 << N) - 1
    while code < limit:
        yield code
        code = _next_code(code)


def _check_size(n: int, N: int) -> None:
    _check_order(n)
    if not 1 <= N <= n ** 3:
        raise InvalidRequest(f"pieces must be in [1, {n ** 3}] for order {n}, got {N}")


def enumerate_all(n: int = 3, N: int = 7) -> Iterator[DigitSet]:
    """Every N-piece digit set of order n, in increasing occupancy-code order."""
    _check_size(n, N)
    for code in enumerate_codes(n, N):
        yield DigitSet.from_code(code, n)


def _scan_chunk(args: tuple[int, int, int, int]) -> tuple[dict[int, int], int]:
    """Filter the orbit-minimal codes from ``first`` to the end of its run.

    Returns ``({code: orbit size}, count)`` for the surviving orbit
    minima, with the caller's ``count`` of the codes it covers; each code's
    own cells are its pieces.  Potential adjacency first, then automaton
    liveness for exact connectivity, then the product search for the
    one-point property.  Both connectivity tests are :func:`_spans`, the
    flood :func:`fracube.topology._component` over the code's cells with the
    rows of an offset mask: first :func:`fracube.faces._edge_bound`, the
    offsets with digits on both of their sides, a superset of the live mask
    read by one table lookup per 9 cells; then the live offsets, so the
    kernel runs only on the codes that pass the first flood.  The piece-pair
    list is built only for the codes that pass both, to name the realized
    live offsets the product search reads.  Liveness and the product search
    are the kernel behind :func:`fracube.faces.classify_face`.  All three
    tests are invariant under the cube group, so a minimum's verdict holds
    for its whole orbit.
    """
    n, _, first, count = args
    tables = tables_for_order(n)

    survivors: dict[int, int] = {}
    for this, orbit_size in _orbit_representatives(n, first):
        # potential adjacency: step only through offsets with digits on both sides
        if not _spans(this, _edge_bound(this, tables), tables):
            continue

        cells = []
        rest = this
        while rest:
            low = rest & -rest
            cells.append(low.bit_length() - 1)
            rest ^= low

        # exact connectivity: step only through offsets whose face is nonempty
        live = _scc_live(_successors(cells, tables))
        if not _spans(this, live, tables):
            continue

        # one-point property: no live realized offset may carry two points
        edges = _live_edges(cells, live, tables)
        offsets = {off for *_, off in _piece_pairs(cells, tables) if live >> off & 1}
        if any(_escape_reachable(edges, off, tables) for off in offsets):
            continue

        survivors[this] = orbit_size
    return survivors, count


def _translate_codes(code: int, n: int) -> list[int]:
    """Canonical codes of every translate of a digit set that fits in the grid.

    If ``D' = D + t`` then ``K(D') = K(D) + t/(n-1)``, so all of these digit
    sets have isometric attractors.  The list is sorted and holds ``code``'s
    own canonical code.
    """
    cells = [c for c in range(n ** 3) if code >> c & 1]
    ranges = []
    for k in range(3):
        axis = [c // n ** k % n for c in cells]
        ranges.append(range(-min(axis), n - max(axis)))
    shifts = {tx + n * ty + n * n * tz for tx, ty, tz in product(*ranges)}
    return sorted({canonical_code(code << s if s >= 0 else code >> -s, n) for s in shifts})


class ClassRecord(NamedTuple):
    """One isometry class of surviving fractal cubes.

    Its digit sets are the images of ``canonical`` and of each of
    ``translates`` under ``CUBE_GROUP``; ``orbit_size`` counts them all.  A
    report built without translations has one ``CUBE_GROUP`` orbit per
    record and no ``translates``.
    """

    canonical: DigitSet
    orbit_size: int
    graph_code: GraphCode
    dendrite: bool
    edges: int
    label: str | None = None
    translates: tuple[DigitSet, ...] = ()

    @property
    def representative(self) -> str:
        return self.canonical.render_compact()


class GraphType(NamedTuple):
    graph_code: GraphCode
    dendrite: bool
    multiplicity: int
    label: str | None = None


class ClassificationReport(NamedTuple):
    order: int
    pieces: int
    candidates: int
    survivors: int
    classes: tuple[ClassRecord, ...]
    graph_types: tuple[GraphType, ...]
    translations: bool = True

    def labels(self) -> dict[str, GraphCode]:
        return {t.label: t.graph_code for t in self.graph_types if t.label}


def classify_all(n: int = 3, N: int = 7, workers: int = 1,
                 translations: bool = True) -> ClassificationReport:
    """Run the full filter over every candidate and reduce by symmetry.

    With ``translations`` the classes are isometry classes of the fractal
    cubes: ``CUBE_GROUP`` orbits whose digit sets are translates of each
    other are merged.  Without it each class is one ``CUBE_GROUP`` orbit.
    """
    _check_size(n, N)
    if workers < 1:
        raise InvalidRequest(f"workers must be >= 1, got {workers}")
    total = comb(n ** 3, N)
    if total > MAX_CANDIDATES:
        raise BudgetExceeded(f"{total} candidates exceed the scan budget {MAX_CANDIDATES}")
    # the codes whose highest cell is h follow one another in Gosper order
    low = (1 << N - 1) - 1
    chunks = [(n, N, low | 1 << h, comb(h, N - 1)) for h in range(N - 1, n ** 3)]
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers == 1:
        results = [_scan_chunk(chunk) for chunk in chunks]
    else:
        import multiprocessing  # only here: importing it costs every process a few ms

        with multiprocessing.Pool(processes=workers) as pool:
            results = pool.map(_scan_chunk, chunks)

    merged: dict[int, int] = {}
    processed = 0
    for part, count in results:
        processed += count
        for k, v in part.items():
            merged[k] = merged.get(k, 0) + v
    if processed != total:
        raise InternalInconsistency(f"scanned {processed} candidates, expected {total}")

    records = []
    by_code: dict[GraphCode, list[bool]] = {}
    owner: set[int] = set()
    for canon in sorted(merged):
        if canon in owner:
            continue
        rep = DigitSet.from_code(canon, n=n)
        members = _translate_codes(canon, n) if translations else [canon]
        for m in members:
            ds = DigitSet.from_code(m, n=n)
            if m not in merged or m in owner:
                raise InternalInconsistency(
                    f"translate {ds} of {rep} is not a survivor or lies in two classes")
            owner.add(m)
            cf = canonical_form(ds)
            if cf.canonical.code != m:
                raise InternalInconsistency(f"representative {ds} is not canonical")
            if cf.orbit_size != merged[m]:
                raise InternalInconsistency(
                    f"orbit of {ds} has {cf.orbit_size} elements, the slice tables give {merged[m]}"
                )
        graph = intersection_graph(rep)
        rec = ClassRecord(
            canonical=rep,
            orbit_size=sum(merged[m] for m in members),
            graph_code=graph_code(graph),
            dendrite=_dendrite(graph, _bipartite(graph)),
            edges=len(graph.edges),
            translates=tuple(DigitSet.from_code(m, n=n) for m in members[1:]),
        )
        records.append(rec)
        by_code.setdefault(rec.graph_code, []).append(rec.dendrite)

    graph_types = []
    for gc, verdicts in by_code.items():
        if len(set(verdicts)) != 1:
            raise InternalInconsistency(f"graph code {gc} mixes dendrites and non-dendrites")
        graph_types.append(GraphType(graph_code=gc, dendrite=verdicts[0], multiplicity=len(verdicts)))
    graph_types.sort(key=lambda t: (not t.dendrite, t.graph_code))

    return ClassificationReport(
        order=n,
        pieces=N,
        candidates=total,
        survivors=sum(r.orbit_size for r in records),
        classes=tuple(records),
        graph_types=tuple(graph_types),
        translations=translations,
    )


@lru_cache(maxsize=1)
def bundled_labels() -> tuple[tuple[str, str], ...]:
    """The bundled (label, digit string) rows transcribed from the tables."""
    import hashlib  # only here: importing it loads OpenSSL, which only this table check needs

    data = resources.files("fracube.data").joinpath("table_classes.txt").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != TABLE_DATA_SHA256:
        raise DataIntegrityError(f"table_classes.txt checksum {digest} != {TABLE_DATA_SHA256}")
    rows = []
    for line in data.decode().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            label, digits = line.split()
            rows.append((label, digits))
    return tuple(rows)


@lru_cache(maxsize=1)
def label_representatives() -> tuple[tuple[str, str], ...]:
    """First bundled row per label: a minimal 12-row label table."""
    seen: dict[str, str] = {}
    for label, text in bundled_labels():
        seen.setdefault(label, text)
    return tuple(seen.items())


def label_codes(labels: tuple[tuple[str, str], ...], n: int = 3) -> dict[GraphCode, str]:
    """Map the graph code of each labelled digit set to its label."""
    code_label: dict[GraphCode, str] = {}
    for label, text in labels:
        gc = graph_code(intersection_graph(parse_digitset(text, n=n)))
        existing = code_label.get(gc)
        if existing is not None and existing != label:
            raise LabelConflict(f"labels {existing} and {label} both map to code {gc}")
        code_label[gc] = label
    return code_label


def match_labels(report: ClassificationReport,
                 labels: tuple[tuple[str, str], ...]) -> ClassificationReport:
    """Attach graph-type labels to the report via labelled digit sets."""
    code_label = label_codes(labels, n=report.order)
    report_codes = {t.graph_code for t in report.graph_types}
    for gc, label in code_label.items():
        if gc not in report_codes:
            raise UnknownCode(f"label {label} maps to code {gc} absent from the report")
    return report._replace(
        classes=tuple(r._replace(label=code_label.get(r.graph_code)) for r in report.classes),
        graph_types=tuple(t._replace(label=code_label.get(t.graph_code)) for t in report.graph_types),
    )


class VerificationSummary(NamedTuple):
    total: int
    matched: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.matched == self.total and not self.mismatches


def verify_against_tables(report: ClassificationReport,
                          tables: tuple[tuple[str, str], ...] | None = None) -> VerificationSummary:
    """Check every listed digit set against the classification report."""
    if tables is None:
        tables = bundled_labels()
    canon_of = {d.code: r for r in report.classes for d in (r.canonical, *r.translates)}
    label_code: dict[str, GraphCode] = {}
    mismatches = []
    matched = 0
    for label, text in tables:
        name = f"{label} {text}"
        try:
            ds = parse_digitset(text, n=report.order)
        except ParseError as exc:
            mismatches.append(f"{name}: parse failed ({exc})")
            continue
        if not is_connected(ds):
            mismatches.append(f"{name}: not connected")
            continue
        graph = piece_adjacency(ds)  # one build for the one-point test and the code
        if not graph.is_one_point():
            mismatches.append(f"{name}: one-point property fails")
            continue
        rec = canon_of.get(canonical_form(ds).canonical.code)
        if rec is None:
            mismatches.append(f"{name}: canonical form missing from report")
            continue
        gc = graph_code(graph)
        expected = label_code.setdefault(label, gc)
        if gc != expected:
            mismatches.append(f"{name}: graph code {gc} differs from its table's {expected}")
            continue
        if rec.graph_code != gc:
            mismatches.append(f"{name}: report code {rec.graph_code} differs from {gc}")
            continue
        matched += 1
    return VerificationSummary(total=len(tables), matched=matched, mismatches=tuple(mismatches))


def render_json(report: ClassificationReport) -> str:
    doc = {
        "meta": {
            "order": report.order,
            "pieces": report.pieces,
            "candidates": report.candidates,
            "survivors": report.survivors,
            "classes": len(report.classes),
        },
        "classes": [
            {
                "canonical": r.representative,
                "orbit_size": r.orbit_size,
                "graph_code": r.graph_code.hex,
                "dendrite": r.dendrite,
                "edges": r.edges,
                **({"label": r.label} if r.label else {}),
                **({"translates": [d.render_compact() for d in r.translates]}
                   if r.translates else {}),
            }
            for r in report.classes
        ],
        "graph_types": [
            {
                "graph_code": t.graph_code.hex,
                **({"label": t.label} if t.label else {}),
                "dendrite": t.dendrite,
                "multiplicity": t.multiplicity,
            }
            for t in report.graph_types
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_csv(report: ClassificationReport) -> str:
    import csv  # only here: json is the default format, and every process would pay for it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["canonical", "orbit_size", "graph_code", "dendrite", "edges", "label"])
    for r in report.classes:
        writer.writerow([r.representative, r.orbit_size, r.graph_code.hex,
                         str(r.dendrite).lower(), r.edges, r.label or ""])
    return out.getvalue()


def _ordered_types(report: ClassificationReport, dendrite: bool) -> list[GraphType]:
    rows = [t for t in report.graph_types if t.dendrite == dendrite]
    if all(t.label for t in rows):
        # the labels in the order of the bundled table
        order = [label for label, _ in label_representatives()]
        rows.sort(key=lambda t: order.index(t.label) if t.label in order else len(order))
    return rows


def render_markdown(report: ClassificationReport) -> str:
    lines = [
        f"# Fractal cubes of order {report.order} with {report.pieces} pieces",
        "",
        f"- candidates: {report.candidates}",
        f"- survivors (connected, one-point): {report.survivors}",
        (f"- isometry classes: {len(report.classes)}" if report.translations
         else f"- orbits under the 48 cube symmetries: {len(report.classes)}"),
        "",
    ]
    for dendrite, title in ((True, "Dendrites"), (False, "Non-dendrites")):
        rows = _ordered_types(report, dendrite)
        if not rows:
            continue
        lines.append(f"## {title}")
        lines.append("")
        header = [t.label or t.graph_code.hex for t in rows]
        lines.append("| graph | " + " | ".join(header) + " |")
        lines.append("| --- |" + " --- |" * len(rows))
        lines.append("| code | " + " | ".join(t.graph_code.hex for t in rows) + " |")
        lines.append("| N | " + " | ".join(str(t.multiplicity) for t in rows) + " |")
        lines.append("")
    return "\n".join(lines)


def render_report(report: ClassificationReport, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "md":
        return render_markdown(report)
    raise InvalidRequest(f"unknown report format {fmt!r}")
