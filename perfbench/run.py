#!/usr/bin/env python3
"""fracube benchmark: time, check and trace one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fracube is imported from ``src/``.
Each workload is a closed loop with a single caller in one process.  An
untraced run (``--trace 0``) prints the end-to-end metrics; a traced run
(``--trace 1``) alternates an untraced and a traced op on the same input
and prints the per-layer metrics.  Every output is checked after timing,
and the last line of standard output is one JSON object: correct,
attempted, failed, metrics.  See README.md beside this file for the
metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REPORT_3_7 = HERE / "data" / "report_3_7.json"

SETUP_PER_SECOND = 1  # set-up samples per second of the loop, spread over the run
# One set-up as a fresh `fracube` process pays it: interpreter start-up, the
# imports, the order-3 tables, the cube's cell permutations and the labels.
SETUP_SCRIPT = """
import sys
sys.path.insert(0, "src")
from fracube import cli, core, faces, pipeline
faces.tables_for_order(3)
core.canonical_code(0b1111111, 3)
pipeline.label_representatives()
"""
# Depth 4 certifies as many faces empty as depth 5 (1756) with a seventh of the
# voxel cells, and its op time varies half as much on a shared machine.
VOXEL_DEPTH = 4

# Per-input caches are cleared before every op; these hold set-up tables only.
SETUP_CACHES = frozenset({"tables_for_order", "_cell_permutations", "bundled_labels",
                          "label_representatives"})


# The enumerate workload solves the (3, 5) problem.  Its report holds 80730
# candidates, 378 survivors, 24 classes and 3 graph types.
PIECES = 5
ENUMERATE_SHA256 = "517ebb1bff694cdc45dc76ee82ff8c3b09a9817e3d8b43cb5ccc7be6f184fea9"
# The paper's (3, 7) report (888030/3200/106/12), which verify rebuilds.
REPORT_3_7_SHA256 = "4a3f59339733c9d4fc406e7a7d9d159b3017cd25b54c123603e1a8d30957ed1b"

# The bundled table files 000_001_010_020_111_221_222 under nonden6; its
# class is nonden4, so exactly that row fails to match.
VERIFY_MATCHED = 104
VERIFY_MISMATCH = "nonden6 000_001_010_020_111_221_222"
VERIFY_FACES = 105 * 26
VERIFY_CERTIFIED = 1756  # faces the voxel iterate certifies empty


class SetupError(Exception):
    """The program could not be imported or set up from this checkout."""


# program set-up ---------------------------------------------------------------

class Program:
    """fracube's modules from this checkout, plus the caches an op may warm."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        try:
            importlib.import_module("fracube")
            self.modules = {key: importlib.import_module(f"fracube.{key}")
                            for key in ("cli", "core", "faces", "oracle", "pipeline", "topology")}
        except ImportError as exc:
            raise SetupError(f"cannot import fracube from {SRC}: {exc}") from exc
        origin = Path(self.modules["cli"].__file__).resolve()
        if SRC not in origin.parents:
            raise SetupError(f"fracube was imported from {origin}, not from {SRC}")
        for key, mod in self.modules.items():
            setattr(self, key, mod)
        self.faces.tables_for_order(3)
        self.core.canonical_code(0b1111111, 3)  # builds the cube's cell permutations
        self.pipeline.label_representatives()
        self.hit_caches = {"faces.build_automaton": self.faces.build_automaton,
                           "faces.classify_face": self.faces.classify_face}
        self.caches = []
        seen = set()
        for mod in self.modules.values():
            for attr, value in vars(mod).items():
                if hasattr(value, "cache_clear") and attr not in SETUP_CACHES and id(value) not in seen:
                    seen.add(id(value))
                    self.caches.append(value)

    def clear_caches(self) -> None:
        for fn in self.caches:
            fn.cache_clear()

    def cli_main(self, argv: list[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fracube {argv[0]} exited with {code}")
        return buf.getvalue()


def time_set_up() -> float:
    """Seconds for one set-up in a fresh interpreter, its start-up included."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"set-up failed in a fresh interpreter:\n{proc.stderr}")
    return dt


# workloads --------------------------------------------------------------------

class Enumerate:
    """`fracube enumerate --pieces PIECES --workers 1`: the fixed input is the whole problem."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.sha256 = ENUMERATE_SHA256
        self.argv = ["enumerate", "--pieces", str(PIECES), "--workers", "1"]

    def op(self) -> str:
        return self.prog.cli_main(self.argv)

    def check(self, out: str) -> bool:
        return hashlib.sha256(out.encode()).hexdigest() == self.sha256


def load_pinned_report() -> dict:
    data = REPORT_3_7.read_bytes()
    if hashlib.sha256(data).hexdigest() != REPORT_3_7_SHA256:
        raise SetupError(f"{REPORT_3_7} does not match its pinned sha256")
    return json.loads(data)


class Verify:
    """Table check against a report rebuilt from the pinned 106 classes, then both oracles."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.report = self._report(load_pinned_report())
        self.rows = prog.pipeline.bundled_labels()

    def _report(self, doc: dict):
        pipeline, topology = self.prog.pipeline, self.prog.topology

        def code(text):
            n, bits = text.split(":")
            return topology.GraphCode(n_vertices=int(n), bits=int(bits, 16))

        meta = doc["meta"]
        return pipeline.ClassificationReport(
            order=meta["order"], pieces=meta["pieces"], candidates=meta["candidates"],
            survivors=meta["survivors"],
            classes=tuple(pipeline.ClassRecord(
                canonical=self.prog.core.parse_digitset(c["canonical"]), orbit_size=c["orbit_size"],
                graph_code=code(c["graph_code"]), dendrite=c["dendrite"], edges=c["edges"],
                label=c.get("label")) for c in doc["classes"]),
            graph_types=tuple(pipeline.GraphType(
                graph_code=code(t["graph_code"]), dendrite=t["dendrite"],
                multiplicity=t["multiplicity"], label=t.get("label")) for t in doc["graph_types"]),
        )

    def op(self) -> str:
        prog = self.prog
        oracle = prog.oracle
        summary = prog.pipeline.verify_against_tables(self.report)
        agreed = certified = contradicted = 0
        for _, text in self.rows:
            ds = prog.core.parse_digitset(text)
            vox = oracle.voxelize(ds, VOXEL_DEPTH)
            for alpha in prog.faces.OFFSETS:
                agreed += oracle.faces_agree(ds, alpha)
                if oracle.oracle_face_empty(ds, alpha, VOXEL_DEPTH, vox=vox).value == "certified_empty":
                    certified += 1
                    contradicted += not prog.faces.classify_face(ds, alpha).is_empty
        return json.dumps([summary.matched, summary.total, list(summary.mismatches),
                           agreed, certified, contradicted])

    def check(self, out: str) -> bool:
        matched, total, mismatches, agreed, certified, contradicted = json.loads(out)
        return (matched == VERIFY_MATCHED and total == len(self.rows) == 105
                and len(mismatches) == 1 and mismatches[0].startswith(VERIFY_MISMATCH + ":")
                and agreed == VERIFY_FACES and certified == VERIFY_CERTIFIED and contradicted == 0)


def make_workload(name: str, prog: Program):
    if name == "enumerate":
        return Enumerate(prog)
    return Verify(prog)


WORKLOADS = ("enumerate", "verify")


# measuring --------------------------------------------------------------------

@dataclass
class Loop:
    times: list          # untraced op times, seconds
    traced_times: list   # traced op times (traced runs only)
    outputs: list        # op output, or None when the op raised
    setup_times: list    # set-up samples (untraced runs only)
    elapsed: float


def run_op(workload, prog: Program, tracer: Tracer | None = None, op_id: int = -1):
    prog.clear_caches()
    gc.collect()
    root = None
    if tracer is not None:
        tracer.current_op = op_id
        root = tracer.begin(tracer.name_id("op"))
    t0 = perf_counter()
    try:
        out = workload.op()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    dt = perf_counter() - t0
    if root is not None:
        tracer.finish(root)
    return out, dt


def measure(workload, prog: Program, seconds: float, tracer: Tracer | None, plan, hits) -> Loop:
    """Run ops until ``seconds`` have passed (at least one op).

    Untraced runs also time a set-up in a fresh interpreter between ops,
    about once per second, so that the samples span the whole run.
    """
    loop = Loop([], [], [], [], 0.0)
    start = perf_counter()
    i = 0
    while True:
        out, dt = run_op(workload, prog)
        loop.outputs.append(out)
        loop.times.append(dt)
        if tracer is not None:
            tracer.install(prog.modules, plan)
            try:
                out, dt = run_op(workload, prog, tracer, op_id=i)
            finally:
                tracer.uninstall()
            tracer.current_op = -1
            for name, fn in prog.hit_caches.items():
                info = fn.cache_info()
                hits[name][0] += info.hits
                hits[name][1] += info.misses
            loop.outputs.append(out)
            loop.traced_times.append(dt)
        i += 1
        elapsed = perf_counter() - start
        while tracer is None and len(loop.setup_times) < max(1, elapsed * SETUP_PER_SECOND):
            loop.setup_times.append(time_set_up())
        if perf_counter() - start >= seconds:
            break
    loop.elapsed = perf_counter() - start
    return loop


def check_outputs(workload, loop: Loop) -> int:
    """Number of failed ops: raised, output differs from the first op's, or wrong."""
    first = next((out for out in loop.outputs if out is not None), None)
    try:
        right = first is not None and workload.check(first)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        right = False
    return sum(1 for out in loop.outputs if not right or out != first)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(loop: Loop) -> tuple[dict, dict]:
    """Gated metrics for the result line, and ungated ones to print beside them."""
    times = loop.times
    gated = {
        "setup_s": (min(loop.setup_times), "s"),
        "wall_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    ungated = {
        "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
        "latency_p99_ms": (percentile(times, 99) * 1000, "ms"),
        "latency_samples": (len(times), "count"),
        "ops_per_s": (len(times) / loop.elapsed, "1/s"),
        "setup_samples": (len(loop.setup_times), "count"),
    }
    return ({k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
            {k: {"value": v, "unit": u} for k, (v, u) in ungated.items()})


# tracing ----------------------------------------------------------------------

TOPOLOGY = ("is_connected", "has_one_point_property", "intersection_graph", "bipartite_graph",
            "is_dendrite", "graph_code")


def trace_plan():
    """(span name, [(module, attribute) the callers look up], on_result) to wrap."""

    def scan_result(tracer, value):
        part, processed = value
        tracer.count("scan.candidates", processed)
        tracer.count("scan.survivors", sum(part.values()))

    def face_empty_result(tracer, value):
        tracer.count("oracle.face_empty.certified", value.value == "certified_empty")

    plan = [
        ("pipeline.classify_all", [("pipeline", "classify_all")], None),
        ("pipeline.scan", [("pipeline", "_scan_chunk")], scan_result),
        ("faces.liveness", [("pipeline", "_scc_live")], None),
        ("core.canonical_code", [("pipeline", "canonical_code")], None),
        ("core.canonical_form", [("core", "canonical_form"), ("pipeline", "canonical_form"),
                                 ("cli", "canonical_form")], None),
        ("faces.build_automaton", [("faces", "build_automaton"), ("topology", "build_automaton")], None),
        ("faces.classify_face", [("faces", "classify_face"), ("topology", "classify_face"),
                                 ("cli", "classify_face")], None),
        ("pipeline.verify_tables", [("pipeline", "verify_against_tables")], None),
        ("oracle.cardinality", [("oracle", "oracle_face_cardinality")], None),
        ("oracle.voxelize", [("oracle", "voxelize")], None),
        ("oracle.face_empty", [("oracle", "oracle_face_empty")], face_empty_result),
    ]
    for fn in TOPOLOGY:
        sites = [("topology", fn)] + ([] if fn == "bipartite_graph" else [("pipeline", fn)])
        plan.append((f"topology.{fn}", sites, None))
    return plan


def layer_metrics(tracer: Tracer, loop: Loop, installed: set[str], hits: dict) -> dict:
    nops = len(loop.traced_times)
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for idx, nid in enumerate(tracer.name):
        by_name.setdefault(tracer.names[nid], []).append(idx)

    def dur(idx):
        return tracer.end[idx] - tracer.start[idx]

    def busy(name):
        return sum(dur(i) for i in by_name.get(name, ())) / nops

    def calls(name):
        return len(by_name.get(name, ())) / nops

    def ratio(num, den):
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}

    def put(metric, needs, value, unit):
        if all(n in installed for n in needs):
            metrics[metric] = (value, unit)

    scan = "pipeline.scan"
    put(f"{scan}.busy_s", [scan], busy(scan), "s")
    put(f"{scan}.self_s", [scan, "faces.liveness", "core.canonical_code"],
        sum(own[i] for i in by_name.get(scan, ())) / nops, "s")
    candidates = tracer.counters.get("scan.candidates", 0)
    put(f"{scan}.candidates", [scan], candidates / nops, "count")
    put(f"{scan}.survivor_ratio", [scan],
        ratio(tracer.counters.get("scan.survivors", 0), candidates), "ratio")
    for name in ("faces.liveness", "core.canonical_code"):
        put(f"{name}.calls", [name], calls(name), "count")
        put(f"{name}.busy_s", [name], busy(name), "s")

    # classify_all after its scan ends
    scan_end = {tracer.op[i]: tracer.end[i] for i in by_name.get(scan, ())}
    post = sum(tracer.end[c] - scan_end[tracer.op[c]]
               for c in by_name.get("pipeline.classify_all", ()) if tracer.op[c] in scan_end)
    put("pipeline.post_scan_s", [scan, "pipeline.classify_all"], post / nops, "s")

    for name in ("faces.build_automaton", "faces.classify_face"):
        put(f"{name}.busy_s", [name], busy(name), "s")
        put(f"{name}.calls", [name], calls(name), "count")
        h, m = hits[name]
        put(f"{name}.hit_ratio", [name], ratio(h, h + m), "ratio")
    for name in [f"topology.{fn}" for fn in TOPOLOGY] + ["core.canonical_form"]:
        put(f"{name}.busy_s", [name], busy(name), "s")
        put(f"{name}.calls", [name], calls(name), "count")

    put("pipeline.verify_tables.busy_s", ["pipeline.verify_tables"], busy("pipeline.verify_tables"), "s")
    put("oracle.cardinality.calls", ["oracle.cardinality"], calls("oracle.cardinality"), "count")
    put("oracle.cardinality.busy_s", ["oracle.cardinality"], busy("oracle.cardinality"), "s")
    put("oracle.voxelize.busy_s", ["oracle.voxelize"], busy("oracle.voxelize"), "s")
    put("oracle.face_empty.busy_s", ["oracle.face_empty"], busy("oracle.face_empty"), "s")
    put("oracle.face_empty.certified_ratio", ["oracle.face_empty"],
        ratio(tracer.counters.get("oracle.face_empty.certified", 0),
              len(by_name.get("oracle.face_empty", ()))), "ratio")
    metrics["trace.overhead_ratio"] = (sum(loop.traced_times) / sum(loop.times[:nops]), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# environment ------------------------------------------------------------------

def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


# main -------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: both workloads have fixed inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prog = Program()
        workload = make_workload(args.workload, prog)
        time_set_up()  # untimed: checks set-up and writes the bytecode later samples load
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))

    tracer = Tracer() if args.trace else None
    hits = {name: [0, 0] for name in prog.hit_caches}
    plan = trace_plan()
    installed = {name for name, sites, _ in plan
                 if any(hasattr(prog.modules[m], attr) for m, attr in sites)}
    loop = measure(workload, prog, args.seconds, tracer, plan, hits)
    failed = check_outputs(workload, loop)
    attempted = len(loop.outputs)

    ungated = {"fail_ratio": {"value": failed / attempted, "unit": "ratio"}}
    if tracer is not None:
        metrics = layer_metrics(tracer, loop, installed, hits)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics, more = end_to_end(loop)
        ungated.update(more)
    print(f"{args.workload}: {attempted} ops")
    for name, m in {**metrics, **ungated}.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
