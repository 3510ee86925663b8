"""Import hygiene of the package: no module imports a name it never uses
(unless its ``__all__`` re-exports it), none imports another modlab
module's private (underscore) name, every public name imported from a modlab
module is in that module's ``__all__``, and only ``grid`` and the package's
re-exports touch the frozen ``SpectralField`` view."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "modlab"
IMPORTERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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


def _modlab_imports(path: Path):
    """(module, name) for every ``from modlab.<module> import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("modlab."):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_names_are_exported(path):
    exports = {m.stem: _exported(ast.parse(m.read_text())) for m in SRC.glob("*.py")}
    missing = [
        f"{name} from {module}"
        for module, name in _modlab_imports(path)
        if not name.startswith("_") and name not in exports[module.split(".")[1]]
    ]
    assert not missing, f"imported names missing from __all__: {missing}"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name not in ("grid.py", "__init__.py")],
    ids=lambda p: p.name,
)
def test_spectrum_view_stays_in_grid(path):
    # inside the package, spectra are plain arrays from grid.forward/inverse
    view = [name for _, name in _modlab_imports(path) if name in ("SpectralField", "to_spectrum")]
    assert not view, f"{path.name} imports {view}; use grid.forward/inverse"
