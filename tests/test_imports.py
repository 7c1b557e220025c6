import ast
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


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}
