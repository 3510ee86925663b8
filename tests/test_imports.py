"""Import hygiene of the package: no module imports a name it never uses
(unless its ``__all__`` re-exports it), and none imports another modlab
module's private (underscore) name."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modlab"


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_used_and_public(path):
    tree = ast.parse(path.read_text())
    parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
    unused, private = [], []
    for node in ast.walk(tree):
        module = getattr(node, "module", None) or ""
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or module == "__future__":
            continue
        scope = parent[node]  # a local import must be used in its own function
        while not isinstance(scope, (ast.Module, ast.FunctionDef)):
            scope = parent[scope]
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            used |= _exported(tree)
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(bound)
            if module.startswith("modlab") and alias.name.startswith("_"):
                private.append(f"{alias.name} from {module}")
    assert not unused, f"unused imports: {unused}"
    assert not private, f"private imports: {private}"
