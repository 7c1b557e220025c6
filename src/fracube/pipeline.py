"""Full enumeration and classification of order-n fractal cubes.

The scan walks every N-subset of the n^3 cells in increasing occupancy-code
order (Gosper iteration; worker ranks are split via colex unranking), filters
by connectivity and then by the one-point intersection property, and groups
the survivors by canonical code under the 48 cube symmetries.  Orbits whose
digit sets are translates of each other inside the grid have translated
attractors, so by default they are merged into one isometry class.  Workers
own disjoint rank ranges and return mergeable partial counts, so the
resulting report is byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import multiprocessing
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from itertools import product
from math import comb
from typing import Iterator

from .core import DigitSet, _check_order, canonical_code, canonical_form, digit_from_cell, parse_digitset
from .errors import (
    BudgetExceeded,
    DataIntegrityError,
    InternalInconsistency,
    InvalidRequest,
    LabelConflict,
    UnknownCode,
)
from .faces import (
    _escape_reachable,
    _live_edges,
    _scc_live,
    _successors,
    negate_index,
    tables_for_order,
)
from .topology import (
    GraphCode,
    graph_code,
    has_one_point_property,
    intersection_graph,
    is_connected,
    is_dendrite,
)

# classify_all refuses larger scans up front.  The largest order-3 problem,
# C(27, 13) = 20058300 candidates, fits; (5, 7) with about 8e10 does not.
MAX_CANDIDATES = 10 ** 8

TABLE_DATA_SHA256 = "285531e7b0e1a612b40b72ae86600c3fbd5640f7f8f2806154c2533bd83a6a94"

# Reference order of the twelve graph types (five trees, seven non-trees).
LABEL_ORDER = (
    "7_11", "7_10", "7_9", "7_5", "7_6",
    "nonden1", "nonden2", "nonden3", "nonden4", "nonden5", "nonden6", "nonden7",
)


def _next_code(v: int) -> int:
    """Next integer with the same popcount (Gosper's hack)."""
    u = v & -v
    w = v + u
    return w | ((v ^ w) // u) >> 2


def _unrank_combination(rank: int, k: int) -> int:
    """Occupancy code of the rank-th k-subset in increasing code order."""
    mask = 0
    r = rank
    for i in range(k, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= r:
            c += 1
        r -= comb(c, i)
        mask |= 1 << c
    return mask


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
    table = [digit_from_cell(c, n) for c in range(n ** 3)]
    for code in enumerate_codes(n, N):
        digits = []
        rest = code
        while rest:
            low = rest & -rest
            digits.append(table[low.bit_length() - 1])
            rest ^= low
        yield DigitSet(n=n, digits=tuple(digits), code=code)


def _component(adj: list[int]) -> int:
    """Bitmask of the vertices reachable from vertex 0 (adjacency bitmasks)."""
    comp = frontier = 1
    while frontier:
        nxt = 0
        for b in range(len(adj)):
            if frontier >> b & 1:
                nxt |= adj[b]
        frontier = nxt & ~comp
        comp |= frontier
    return comp


def _scan_chunk(args: tuple[int, int, int, int]) -> tuple[dict[int, int], int]:
    """Filter candidates in a rank range; return canonical survivor counts.

    Works on raw occupancy codes for speed: potential adjacency first, then
    automaton liveness for exact connectivity, then the product search for
    the one-point property.  The last two are the kernel behind
    :func:`fracube.faces.classify_face`.
    """
    n, N, start, count = args
    tables = tables_for_order(n)
    ncells = tables.ncells
    pair_off = tables.pair_off
    scc_live = _scc_live
    full = (1 << N) - 1
    neg = [negate_index(i) for i in range(26)]

    survivors: dict[int, int] = {}
    processed = 0
    code = _unrank_combination(start, N)
    for _ in range(count):
        processed += 1
        this = code
        code = _next_code(code)

        cells = []
        rest = this
        while rest:
            low = rest & -rest
            cells.append(low.bit_length() - 1)
            rest ^= low

        # potential adjacency: digit differences inside {-1,0,1}^3
        adj = [0] * N
        pairs = []
        for i in range(1, N):
            ci = cells[i] * ncells
            for j in range(i):
                off = pair_off[ci + cells[j]]
                if off != 255:
                    pairs.append((i, j, off))
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        if _component(adj) != full:
            continue

        # exact connectivity: keep only offsets whose face is nonempty
        live = scc_live(_successors(cells, tables))

        adj = [0] * N
        live_offs = set()
        for i, j, off in pairs:
            if live >> off & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                live_offs.add(off if off <= neg[off] else neg[off])
        if _component(adj) != full:
            continue

        # one-point property: no live realized offset may carry two points
        edges = _live_edges(cells, live, tables)
        if any(_escape_reachable(edges, alpha, tables) for alpha in live_offs):
            continue

        canon = canonical_code(this, n)
        survivors[canon] = survivors.get(canon, 0) + 1
    return survivors, processed


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


@dataclass(frozen=True)
class ClassRecord:
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


@dataclass(frozen=True)
class GraphType:
    graph_code: GraphCode
    dendrite: bool
    multiplicity: int
    label: str | None = None


@dataclass(frozen=True)
class ClassificationReport:
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
    workers = min(workers, total, os.cpu_count() or 1)
    bounds = [total * w // workers for w in range(workers + 1)]
    chunks = [(n, N, bounds[w], bounds[w + 1] - bounds[w]) for w in range(workers)]
    if workers == 1:
        results = [_scan_chunk(chunks[0])]
    else:
        tables_for_order(n)  # build shared tables before forking
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

    groups: dict[int, list[int]] = {}
    owner: dict[int, int] = {}
    for canon in sorted(merged):
        if canon in owner:
            continue
        members = _translate_codes(canon, n) if translations else [canon]
        for m in members:
            if m not in merged or m in owner:
                raise InternalInconsistency(
                    f"translate {DigitSet.from_code(m, n=n)} of "
                    f"{DigitSet.from_code(canon, n=n)} is not a survivor or lies in two classes"
                )
            owner[m] = canon
        groups[canon] = members

    records = []
    survivors = 0
    for canon, members in groups.items():
        size = 0
        for m in members:
            ds = DigitSet.from_code(m, n=n)
            cf = canonical_form(ds)
            if cf.canonical.code != m:
                raise InternalInconsistency(f"representative {ds} is not canonical")
            if cf.orbit_size != merged[m]:
                raise InternalInconsistency(
                    f"orbit of {ds} has {cf.orbit_size} elements but {merged[m]} survivors"
                )
            size += cf.orbit_size
        survivors += size
        rep = DigitSet.from_code(canon, n=n)
        graph = intersection_graph(rep)
        records.append(ClassRecord(
            canonical=rep,
            orbit_size=size,
            graph_code=graph_code(graph),
            dendrite=is_dendrite(rep),
            edges=len(graph.edges),
            translates=tuple(DigitSet.from_code(m, n=n) for m in members[1:]),
        ))

    by_code: dict[GraphCode, list[ClassRecord]] = {}
    for rec in records:
        by_code.setdefault(rec.graph_code, []).append(rec)
    graph_types = []
    for gc, members in by_code.items():
        flags = {m.dendrite for m in members}
        if len(flags) != 1:
            raise InternalInconsistency(f"graph code {gc} mixes dendrites and non-dendrites")
        graph_types.append(GraphType(graph_code=gc, dendrite=flags.pop(), multiplicity=len(members)))
    graph_types.sort(key=lambda t: (not t.dendrite, t.graph_code))

    return ClassificationReport(
        order=n,
        pieces=N,
        candidates=total,
        survivors=survivors,
        classes=tuple(records),
        graph_types=tuple(graph_types),
        translations=translations,
    )


def load_table_classes() -> tuple[tuple[str, str], ...]:
    """The bundled (label, digit string) rows transcribed from the tables."""
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
def bundled_labels() -> tuple[tuple[str, str], ...]:
    return load_table_classes()


@lru_cache(maxsize=1)
def label_representatives() -> tuple[tuple[str, str], ...]:
    """First bundled row per label: a minimal 12-row label table."""
    seen: dict[str, str] = {}
    for label, text in bundled_labels():
        seen.setdefault(label, text)
    return tuple(seen.items())


def match_labels(report: ClassificationReport,
                 labels: tuple[tuple[str, str], ...]) -> ClassificationReport:
    """Attach graph-type labels to the report via labelled digit sets."""
    code_label: dict[GraphCode, str] = {}
    for label, text in labels:
        ds = parse_digitset(text, n=report.order)
        gc = graph_code(intersection_graph(ds))
        existing = code_label.get(gc)
        if existing is not None and existing != label:
            raise LabelConflict(f"labels {existing} and {label} both map to code {gc}")
        code_label[gc] = label
    report_codes = {t.graph_code for t in report.graph_types}
    for gc, label in code_label.items():
        if gc not in report_codes:
            raise UnknownCode(f"label {label} maps to code {gc} absent from the report")
    return replace(
        report,
        classes=tuple(replace(r, label=code_label.get(r.graph_code)) for r in report.classes),
        graph_types=tuple(replace(t, label=code_label.get(t.graph_code)) for t in report.graph_types),
    )


@dataclass(frozen=True)
class VerificationSummary:
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
        except Exception as exc:
            mismatches.append(f"{name}: parse failed ({exc})")
            continue
        if not is_connected(ds):
            mismatches.append(f"{name}: not connected")
            continue
        if not has_one_point_property(ds):
            mismatches.append(f"{name}: one-point property fails")
            continue
        rec = canon_of.get(canonical_form(ds).canonical.code)
        if rec is None:
            mismatches.append(f"{name}: canonical form missing from report")
            continue
        gc = graph_code(intersection_graph(ds))
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
        rows.sort(key=lambda t: LABEL_ORDER.index(t.label) if t.label in LABEL_ORDER else 99)
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
    raise ValueError(f"unknown report format {fmt!r}")
