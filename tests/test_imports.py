import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fracube"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, apart from ``__all__`` exports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read - exported)


# each costs every process milliseconds of set-up: only classify_all's worker pool
# needs multiprocessing, only render_csv needs csv, only bundled_labels needs
# hashlib, and the package needs no dataclasses
HEAVY_MODULES = ("multiprocessing", "dataclasses", "csv", "hashlib")


def test_cli_import_leaves_multiprocessing_out():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, fracube.cli; print([m for m in {HEAVY_MODULES} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}


def test_all_names_exist_once():
    # a name left in __all__ after its import is gone breaks only `from fracube import *`
    fracube = importlib.import_module("fracube")
    assert len(set(fracube.__all__)) == len(fracube.__all__)
    assert [name for name in fracube.__all__ if not hasattr(fracube, name)] == []


def _unused_parameters(path: Path) -> list[str]:
    """``function.parameter`` for each parameter a function's body never reads."""
    unused = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unused += [f"{name}.{p.arg}" for p in params
                   if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")]
    return unused


def test_no_unused_parameters():
    unused = {p.name: names for p in sorted(SRC.glob("*.py")) if (names := _unused_parameters(p))}
    assert unused == {}


def _private_top_level(tree: ast.Module) -> set[str]:
    """Top-level ``_name`` functions, classes and assignments, dunders excepted."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_no_dead_private_helpers():
    # a private helper must be read (as a name or an attribute) or imported somewhere in the package
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    defined = set().union(*map(_private_top_level, trees))
    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    assert "_bipartite" in defined
    assert sorted(defined - used) == []


def test_no_dead_order_tables():
    # every table faces._Tables.__init__ sets on self must be read somewhere in the
    # package as tables.<name>, the name every reader gives the per-order tables
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    init = next(f for tree in trees for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "_Tables"
                for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    assigned = {node.attr for node in ast.walk(init) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"}
    read = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and getattr(node.value, "id", None) == "tables"}
    assert {"pair_edges", "pair_off", "offset_pairs"} <= assigned
    assert sorted(assigned - read) == []


# the oracle re-derives faces by its own route; it may take from the kernel module
# only the offset list and its validator, and the verdict it is compared with
ORACLE_MAY_READ = {"OFFSETS", "offset_enc", "classify_face", "FaceKind"}


def _faces_reads(tree: ast.Module) -> tuple[set[str], dict[str, set[str]]]:
    """Names imported from ``faces``, and top-level definition -> ``faces`` names it reads."""
    imported: dict[str, str] = {}
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "faces":
            imported.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom):
            aliases.update(a.asname or a.name for a in node.names if a.name == "faces")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name.endswith(".faces") and a.asname)
    reads: dict[str, set[str]] = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                name = node.attr
            elif isinstance(node, ast.Name) and node.id in imported:
                name = imported[node.id]
            else:
                continue
            reads.setdefault(getattr(top, "name", "<module>"), set()).add(name)
    return set(imported.values()), reads


def test_oracle_reads_no_kernel_tables():
    imported, reads = _faces_reads(ast.parse((SRC / "oracle.py").read_text()))
    assert imported <= ORACLE_MAY_READ
    assert set().union(*reads.values()) <= ORACLE_MAY_READ
    assert {fn for fn, names in reads.items() if names & {"classify_face", "FaceKind"}} == {"faces_agree"}


# the cube group's packed slice tables are core's format: its orbit walk and
# its images read them, and every other module asks core for orbits
PACKED_ORBIT_FORMAT = {"_orbit_tables", "_SLICE_MASK", "_SLICE_BITS"}


def test_only_core_reads_the_packed_orbit_tables():
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if names & PACKED_ORBIT_FORMAT:
            readers[path.name] = names & PACKED_ORBIT_FORMAT
    assert sorted(readers) == ["core.py"]
    assert readers["core.py"] == PACKED_ORBIT_FORMAT


def _raised_names(tree: ast.Module) -> set[str]:
    """Names of the exceptions a module's ``raise`` statements construct or re-raise."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def test_every_error_class_is_raised():
    # an error class no code raises documents a failure that cannot happen
    errors = {"FracubeError"}
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in errors for b in node.bases):
            errors.add(node.name)
    assert len(errors) > 10
    raised = set().union(*(_raised_names(ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))))
    assert sorted(errors - raised - {"FracubeError"}) == []
    # and every error the package raises is one of its own, so callers can catch FracubeError
    assert sorted(raised - errors) == []


def test_no_assert_statements():
    # python -O drops an assert, and one that fires shows the CLI user a traceback
    asserts = [f"{p.name}:{node.lineno}" for p in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_benchmark_trace_sites_exist(monkeypatch):
    # the benchmark skips a traced span whose (module, attribute) sites are all
    # gone and drops its metric without a word, so a rename must fail here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SRC.parents[1] / "perfbench"))
    run = importlib.import_module("run")
    prog = run.Program()
    for name, sites, _ in run.trace_plan():
        assert any(hasattr(prog.modules[m], attr) for m, attr in sites), name
    caches = {attr for mod in prog.modules.values() for attr, value in vars(mod).items()
              if hasattr(value, "cache_clear")}
    assert run.SETUP_CACHES <= caches
