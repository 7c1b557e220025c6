"""Command-line interface: enumerate, inspect, verify, export."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import oracle, pipeline, topology
from .core import canonical_form, parse_digitset
from .errors import BudgetExceeded, FracubeError
from .faces import OFFSETS, classify_face

# Voxel depth of the emptiness certificate in `verify`.  Its walk settles by
# level 3, so every depth from 3 on certifies exactly the empty faces: 1756 of
# the 2730 table faces (depth 2 does too on these rows, depth 1 only 1652).
CERTIFICATE_DEPTH = 4


def _write(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args: argparse.Namespace) -> int:
    report = pipeline.classify_all(n=args.order, N=args.pieces, workers=args.workers,
                                   translations=args.classes == "isometry")
    if (args.order, args.pieces) == (3, 7):
        report = pipeline.match_labels(report, pipeline.label_representatives())
    _write(pipeline.render_report(report, args.format), args.out)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    ds = parse_digitset(args.digits, n=args.order)
    graph = topology.piece_adjacency(ds)
    connected = graph.is_connected_graph()
    one_point = graph.is_one_point()
    cf = canonical_form(ds)
    doc: dict = {
        "digits": ds.render_compact(),
        "braced": ds.render_braced(),
        "connected": connected,
        "one_point": one_point,
        "faces": {},
        "canonical": cf.canonical.render_compact(),
        "orbit_size": cf.orbit_size,
        "stabilizer_size": cf.stabilizer_size,
    }
    for alpha in OFFSETS:
        fc = classify_face(ds, alpha)
        doc["faces"]["{},{},{}".format(*alpha)] = (
            fc.kind.value if not fc.is_point
            else {"point": [str(c) for c in fc.point.value]}
        )
    if one_point:
        doc["edges"] = [[i + 1, j + 1, "{},{},{}".format(*a)] for i, j, a, _ in graph.edges]
        bg = topology._bipartite(graph)
        doc["points"] = [[str(c) for c in p.value] for p in bg.points]
        doc["no_triple_points"] = all(d == 2 for d in bg.point_degrees())
        if connected:
            doc["dendrite"] = topology._dendrite(graph, bg)
            code = topology.graph_code(graph)
            doc["graph_code"] = code.hex
            if (args.order, len(ds)) == (3, 7):
                label = pipeline.label_codes(pipeline.label_representatives()).get(code)
                if label is not None:
                    doc["label"] = label
    if args.format == "md":
        lines = [f"# {doc['digits']}", ""]
        for key, value in doc.items():
            if key in ("faces", "digits"):
                continue
            lines.append(f"- {key}: {json.dumps(value)}")
        lines.append("")
        lines.append("| offset | face |")
        lines.append("| --- | --- |")
        for off, kind in doc["faces"].items():
            shown = kind if isinstance(kind, str) else "point at (" + ", ".join(kind["point"]) + ")"
            lines.append(f"| ({off}) | {shown} |")
        _write("\n".join(lines), args.out)
    else:
        _write(json.dumps(doc, indent=2), args.out)
    if args.strict and not (connected and one_point):
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = pipeline.classify_all(n=3, N=7)
    summary = pipeline.verify_against_tables(report)
    agreed = certified = 0
    failures, contradictions = [], []
    for label, text in pipeline.bundled_labels():
        ds = parse_digitset(text)
        for alpha in OFFSETS:
            if oracle.faces_agree(ds, alpha):
                agreed += 1
            else:
                failures.append(f"{label} {text} at {alpha}")
            certified_empty = (oracle.oracle_face_empty(ds, alpha, CERTIFICATE_DEPTH)
                               is oracle.EmptinessCheck.CERTIFIED_EMPTY)
            certified += certified_empty
            if certified_empty != classify_face(ds, alpha).is_empty:
                contradictions.append(f"{label} {text} at {alpha}")
    lines = [f"{summary.matched}/{summary.total} matched",
             f"{agreed}/{26 * summary.total} face checks agreed",
             f"{certified}/{26 * summary.total} faces certified empty, {len(contradictions)} contradicted"]
    lines.extend("oracle disagreement: " + f for f in failures)
    lines.extend("oracle contradiction: " + f for f in contradictions)
    lines.extend("mismatch: " + m for m in summary.mismatches)
    _write("\n".join(lines), args.out)
    return 0 if summary.ok and not failures and not contradictions else 1


def cmd_export(args: argparse.Namespace) -> int:
    ds = parse_digitset(args.digits, n=args.order)
    budget = oracle.DEFAULT_CELL_BUDGET
    # a mesh writes 20 lines (about 550 bytes) per cell: refuse it before the cells are built;
    # voxelize refuses the depths past the budget's bit length, before any power
    if (args.format == "obj" and args.depth < budget.bit_length()
            and 20 * len(ds) ** args.depth > budget):
        raise BudgetExceeded(f"an obj mesh of {len(ds)} digits at depth {args.depth} takes "
                             f"{20 * len(ds) ** args.depth} lines, over the budget of {budget}")
    vox = oracle.voxelize(ds, args.depth)
    _write(oracle.export_mesh(vox, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracube",
        description="Classify fractal cubes: connectivity, one-point intersections, dendrites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="run the full classification pipeline")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--pieces", type=int, default=7)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p.add_argument("--classes", choices=("cube", "isometry"), default="cube",
                   help="report orbits under the 48 cube symmetries (default, the "
                        "format of earlier reports) or isometry classes of the "
                        "fractal cubes, which also identify translated digit sets")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("inspect", help="classify a single digit set")
    p.add_argument("digits")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when the set fails the filters")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify", help="check the pipeline against the bundled tables")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="write a voxel approximation as mesh or cell list")
    p.add_argument("digits")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--format", choices=("cells", "obj"), default="cells")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    created = False
    try:
        if args.out:
            created = not os.path.exists(args.out)
            open(args.out, "a", encoding="utf-8").close()  # fail before the work, not after
        return args.func(args)
    except (FracubeError, OSError) as exc:
        if created and isinstance(exc, FracubeError):
            os.remove(args.out)  # a refused request leaves no empty file behind
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
