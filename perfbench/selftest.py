"""Fast checks of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload at a smoke size through ``run.main``; enumerate's
smoke size is the (3, 4) problem, which has no survivors.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = run.WORKLOADS
SEED = 7
SMOKE_PIECES = 4
SMOKE_SHA256 = "b6076055b4889a8a2eb9718263b9c13a5a67222a813b665b600d13454933cf66"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    """(workload, trace) -> parsed result line, one smoke run each."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "PIECES", SMOKE_PIECES)
        mp.setattr(run, "ENUMERATE_SHA256", SMOKE_SHA256)
        for workload in WORKLOADS:
            for trace in (0, 1):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = run.main(["--workload", workload, "--seed", str(SEED),
                                     "--seconds", "0.2", "--trace", str(trace)])
                assert code == 0
                out[workload, trace] = json.loads(buf.getvalue().strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(results, workload, trace):
    res = results[workload, trace]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] >= 0
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_are_nonnegative_and_sum_to_the_op_span(results, workload):
    doc = json.loads((run.OUT / f"spans-{workload}-{SEED}.json").read_text())
    assert doc["columns"] == ["name", "start", "end", "parent", "op"]
    tracer = Tracer()
    tracer.start.extend(doc["spans"][1])
    tracer.end.extend(doc["spans"][2])
    tracer.parent.extend(doc["spans"][3])
    own = tracer.self_times()
    assert min(own) > -1e-9
    root_of = {}
    for idx in range(len(own)):
        top = idx
        while tracer.parent[top] >= 0:
            top = tracer.parent[top]
        root_of[idx] = top
    roots = [i for i, nid in enumerate(doc["spans"][0]) if doc["names"][nid] == "op"]
    assert roots and set(root_of.values()) == set(roots)
    for root in roots:
        total = sum(own[i] for i in range(len(own)) if root_of[i] == root)
        assert total == pytest.approx(tracer.end[root] - tracer.start[root], abs=1e-6)


def test_pinned_counts(results):
    proc = bench("--workload", "enumerate", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert res["correct"]
    assert m["pipeline.scan.candidates"] == 80730
    assert m["faces.liveness.calls"] == 40582
    assert m["core.canonical_code.calls"] == 378
    v = {k: x["value"] for k, x in results["verify", 1]["metrics"].items()}
    assert v["oracle.cardinality.calls"] == 2730
    assert v["oracle.face_empty.certified_ratio"] == pytest.approx(1756 / 2730)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "enumerate", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrappers_return_the_same_value_and_uninstall_completely():
    prog = run.Program()
    before = {key: dict(vars(mod)) for key, mod in prog.modules.items()}
    original = prog.pipeline._scan_chunk
    tracer = Tracer()
    tracer.install(prog.modules, run.trace_plan())
    try:
        wrapper = prog.pipeline._scan_chunk
        assert wrapper is not original
        chunk = (3, 5, 1000, 3000)
        assert wrapper(chunk) == original(chunk)
        assert tracer.counters["scan.candidates"] == 3000
    finally:
        tracer.uninstall()
    assert all(vars(mod) == before[key] for key, mod in prog.modules.items())


def test_only_set_up_tables_survive_between_ops():
    prog = run.Program()
    cached = {fn.__name__ for fn in prog.caches}
    assert {"build_automaton", "classify_face", "_boundary_slabs"} <= cached
    assert not cached & run.SETUP_CACHES
    ds = prog.core.parse_digitset("020_101_110_111_112_121_202")
    prog.faces.classify_face(ds, (0, 0, 1))
    prog.clear_caches()
    assert prog.faces.classify_face.cache_info().currsize == 0
    assert prog.faces.build_automaton.cache_info().currsize == 0
