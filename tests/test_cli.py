import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from fracube import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(*args):
    # the child imports fracube from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "fracube", *args],
        capture_output=True, text=True, timeout=600, env=env)


def test_inspect_dendrite_representative():
    out = run_cli("inspect", "020_101_110_111_112_121_202")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["dendrite"] is True
    assert doc["label"] == "7_11"
    assert doc["connected"] and doc["one_point"]
    assert doc["no_triple_points"] is True
    assert len(doc["faces"]) == 26


def test_inspect_non_dendrite_representative():
    out = run_cli("inspect", "012_021_102_111_120_201_210")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["dendrite"] is False
    assert doc["label"] == "nonden1"


def test_inspect_rejects_duplicate_digit():
    out = run_cli("inspect", "000_000_111")
    assert out.returncode != 0
    assert "twice" in out.stderr


def test_inspect_strict_exit_code():
    relaxed = run_cli("inspect", "000_002_020_200_022_202_220")
    assert relaxed.returncode == 0
    strict = run_cli("inspect", "000_002_020_200_022_202_220", "--strict")
    assert strict.returncode == 1


def test_inspect_markdown():
    out = run_cli("inspect", "020_101_110_111_112_121_202", "--format", "md")
    assert out.returncode == 0
    assert "| offset | face |" in out.stdout
    assert out.stdout.endswith("\n")


def test_enumerate_single_cells():
    out = run_cli("enumerate", "--pieces", "1")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["meta"]["classes"] == 4
    md = run_cli("enumerate", "--pieces", "1", "--format", "md")
    assert "| N |" in md.stdout
    csv_out = run_cli("enumerate", "--pieces", "2", "--format", "csv", "--workers", "2")
    assert csv_out.stdout.splitlines()[0].startswith("canonical,")


def test_enumerate_isometry_classes():
    cube = run_cli("enumerate", "--pieces", "3", "--format", "md")
    assert "- orbits under the 48 cube symmetries: 6\n" in cube.stdout
    iso = run_cli("enumerate", "--pieces", "3", "--classes", "isometry")
    doc = json.loads(iso.stdout)
    assert doc["meta"]["classes"] == 3
    assert doc["classes"][0]["translates"] == ["010_110_210", "011_111_211"]
    md = run_cli("enumerate", "--pieces", "3", "--classes", "isometry", "--format", "md")
    assert "- isometry classes: 3\n" in md.stdout


def test_export_cell_counts(tmp_path):
    out = run_cli("export", "020_101_110_111_112_121_202", "--depth", "1")
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == 7
    target = tmp_path / "cells.txt"
    out4 = run_cli("export", "020_101_110_111_112_121_202", "--depth", "4",
                   "--out", str(target))
    assert out4.returncode == 0
    assert sum(1 for _ in target.open()) == 7 ** 4


def test_export_obj_structure():
    out = run_cli("export", "020_101_110_111_112_121_202", "--depth", "2",
                  "--format", "obj")
    lines = out.stdout.splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 8 * 49
    assert sum(1 for l in lines if l.startswith("f ")) == 12 * 49


def test_export_bytes_are_pinned(capsys):
    # sha256 over depths 1-3 of three table rows, per format, as the tuple route wrote them
    rows = ("020_101_110_111_112_121_202", "020_021_120_121_122_221_222", "000_010_020_021_121_221_222")
    for fmt, digest in (("cells", "c9d4ab10ea3c2ee0985d0f9e18998ee60fc20186e53585d70de8820d062cb4b7"),
                        ("obj", "405ea02e7a041c5ff4c217574cc22a3442f6b82a02478d4dc951b90cdd742fed")):
        h = hashlib.sha256()
        for text in rows:
            for depth in (1, 2, 3):
                assert cli.main(["export", text, "--depth", str(depth), "--format", fmt]) == 0
                h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == digest, fmt


def test_export_budget_error():
    out = run_cli("export", "020_101_110_111_112_121_202", "--depth", "12")
    assert out.returncode == 2
    assert "budget" in out.stderr.lower()


def test_outputs_end_with_newline(tmp_path):
    for args in (("inspect", "000"),
                 ("enumerate", "--pieces", "1", "--format", "csv"),
                 ("export", "000", "--depth", "1")):
        out = run_cli(*args)
        assert out.stdout.endswith("\n")


@pytest.mark.parametrize("args, message", [
    (("enumerate", "--order", "2", "--pieces", "9"), "pieces must be in [1, 8]"),
    (("enumerate", "--pieces", "0"), "pieces must be in [1, 27]"),
    (("enumerate", "--order", "5", "--pieces", "300"), "pieces must be in [1, 125]"),
    (("enumerate", "--workers", "0"), "workers must be >= 1"),
    (("enumerate", "--order", "5", "--pieces", "7"), "exceed the scan budget"),
    (("export", "000", "--depth", "0"), "error: depth must be >= 1"),
    (("inspect", "000", "--out", "/nonexistent/x.json"), "error: [Errno 2] No such file"),
    (("enumerate", "--pieces", "6", "--out", "/nonexistent/r.json"),
     "error: [Errno 2] No such file"),
])
def test_enumerate_rejects_bad_input(args, message):
    out = run_cli(*args)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert message in out.stderr


def test_enumerate_checks_out_before_the_scan(monkeypatch, tmp_path, capsys):
    def refuse(**kw):
        raise AssertionError("classify_all ran although --out cannot be written")
    monkeypatch.setattr(cli.pipeline, "classify_all", refuse)
    assert cli.main(["enumerate", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert "No such file" in capsys.readouterr().err


def test_inspect_large_set_has_graph_code():
    # 13 pieces, connected, one-point, not a dendrite
    out = run_cli("inspect", "010_110_020_120_220_201_111_211_121_221_102_112_212")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["connected"] and doc["one_point"] and doc["dendrite"] is False
    assert doc["graph_code"].startswith("13:")
    assert "label" not in doc


def test_enumerate_worker_count_does_not_change_bytes():
    solo = run_cli("enumerate", "--pieces", "2", "--workers", "1")
    duo = run_cli("enumerate", "--pieces", "2", "--workers", "2")
    assert solo.stdout == duo.stdout


def test_verify_reports_known_reference_mismatch(full_report, monkeypatch, capsys, tmp_path):
    # reuse the session report instead of re-running the enumeration
    monkeypatch.setattr(cli.pipeline, "classify_all", lambda **kw: full_report)
    target = tmp_path / "verify.txt"
    args = argparse.Namespace(workers=1, skip_oracle=True, out=str(target))
    assert cli.cmd_verify(args) == 1
    text = target.read_text()
    assert "104/105 matched" in text
    assert "000_001_010_020_111_221_222" in text


def test_verify_oracle_sweep_counts(full_report, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.pipeline, "classify_all", lambda **kw: full_report)
    target = tmp_path / "verify.txt"
    args = argparse.Namespace(workers=1, skip_oracle=False, out=str(target))
    assert cli.cmd_verify(args) == 1  # the one reference mismatch stays
    text = target.read_text()
    assert "2730/2730 face checks agreed" in text
    assert "1756/2730 faces certified empty, 0 contradicted" in text
    assert "oracle contradiction" not in text


def test_verify_reports_a_contradicted_certificate(full_report, monkeypatch, tmp_path):
    # a classifier that calls every face nonempty contradicts every certificate
    monkeypatch.setattr(cli.pipeline, "classify_all", lambda **kw: full_report)
    monkeypatch.setattr(cli.pipeline, "verify_against_tables",
                        lambda report: cli.pipeline.VerificationSummary(total=105, matched=105, mismatches=()))
    monkeypatch.setattr(cli, "classify_face", lambda ds, alpha: types.SimpleNamespace(is_empty=False))
    target = tmp_path / "verify.txt"
    args = argparse.Namespace(workers=1, skip_oracle=False, out=str(target))
    assert cli.cmd_verify(args) == 1
    lines = target.read_text().splitlines()
    assert "1756/2730 faces certified empty, 1756 contradicted" in lines
    assert sum(line.startswith("oracle contradiction: ") for line in lines) == 1756


def test_verify_reports_an_oracle_disagreement(full_report, monkeypatch, tmp_path):
    # a path oracle that disagrees on one face fails the sweep and names it
    monkeypatch.setattr(cli.pipeline, "classify_all", lambda **kw: full_report)
    label, text = cli.pipeline.bundled_labels()[0]
    first, agree = cli.parse_digitset(text), cli.oracle.faces_agree
    monkeypatch.setattr(cli.oracle, "faces_agree",
                        lambda ds, alpha: (ds, alpha) != (first, (1, 1, 1)) and agree(ds, alpha))
    target = tmp_path / "verify.txt"
    args = argparse.Namespace(workers=1, skip_oracle=False, out=str(target))
    assert cli.cmd_verify(args) == 1
    lines = target.read_text().splitlines()
    assert "2729/2730 face checks agreed" in lines
    assert [line for line in lines if line.startswith("oracle disagreement: ")] == [
        f"oracle disagreement: {label} {text} at (1, 1, 1)"]


def test_readme_synopsis_matches_the_parser():
    # each subcommand's line in README's synopsis block names its positionals,
    # every option string of the parser and, where the parser has them, the choices
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    synopsis, command = {}, None
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["fracube"]:
            command, words = words[1], words[2:]
        if command:
            synopsis[command] = synopsis.get(command, "") + " " + " ".join(words)
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert synopsis.keys() == subcommands.keys()
    for name, sub in subcommands.items():
        text = synopsis[name]
        shown = dict(re.findall(r"\[(--[\w-]+)(?: ([^\]]+))?\]", text))
        options = {a.option_strings[-1]: a for a in sub._actions if a.option_strings and a.dest != "help"}
        assert shown.keys() == options.keys(), name
        positionals = re.sub(r"\[[^\]]*\]", "", text).split()
        assert positionals == [a.dest.upper() for a in sub._actions if not a.option_strings], name
        for option, value in shown.items():
            if options[option].choices:
                assert value.split("|") == list(options[option].choices), (name, option)
