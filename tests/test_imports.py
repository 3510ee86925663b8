"""Import hygiene of the package: no module imports a name it never uses
(unless its ``__all__`` re-exports it), none imports another modlab
module's private (underscore) name, and neither do the test oracles; every
public name imported from a modlab module is in that module's ``__all__``;
a run reaches every ``__all__`` name and every public method; every default
of a public function is both set and left to itself by a run; only
``grid`` touches the frozen ``SpectralField`` view, the package root
included; ``np.power`` appears only in ``grid.abs_power``; no module calls the
builtin ``id``; no module but ``datagen`` draws random data, and none but
``grid`` names ``threading`` or ``contextvars``; and the
split-step oracle reaches none of the Picard path's flows or transforms."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "modlab"
IMPORTERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
# the code a run reaches a public name from; tests other than the acceptance
# gate do not count, so a name only they use belongs in tests/oracles.py
RUNNERS = (
    sorted(SRC.glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
    + sorted((ROOT / "perfbench").glob("*.py"))
)
# reads the .bin files the CLI writes; no run reads them back
UNREACHED_ALLOWED = {"load_field"}


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + [ROOT / "tests" / "oracles.py"], ids=lambda p: p.name
)
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
    [p for p in sorted(SRC.glob("*.py")) if p.name != "grid.py"],
    ids=lambda p: p.name,
)
def test_spectrum_view_stays_in_grid(path):
    # inside the package, spectra are plain arrays from grid.forward/inverse,
    # and the package root re-exports no second path to the view
    view = [name for _, name in _modlab_imports(path) if name in ("SpectralField", "to_spectrum")]
    assert not view, f"{path.name} imports {view}; use grid.forward/inverse"


def test_power_sums_go_through_abs_power():
    # every |z|^p array of a norm kernel is grid.abs_power's, where even p
    # squares; a kernel spelling np.power itself would miss that
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr == "power"
                and getattr(node.value, "id", None) == "np"
            ):
                continue
            scope = parent[node]
            while not isinstance(scope, (ast.Module, ast.FunctionDef)):
                scope = parent[scope]
            where = f"{path.stem}.{getattr(scope, 'name', '<module>')}"
            if where != "grid.abs_power":
                calls.append(f"{where} (line {node.lineno})")
    assert not calls, f"np.power outside grid.abs_power: {calls}"


def test_shared_factors_are_keyed_by_themselves():
    # Field and Trajectory hash by identity, so a table of shared factors
    # keys on the objects; a second table keyed by id(f) is a second rule
    # for the same thing, and an id outlives the object it named
    calls = [
        f"{path.stem} line {node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"
    ]
    assert not calls, f"calls of the builtin id: {calls}"


def test_random_data_is_drawn_in_datagen():
    # every random datum is a family of datagen.scale_family or another
    # datagen builder, so that a seed means the same field in every run
    calls = [
        f"{path.stem} line {node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "datagen.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("standard_normal", "uniform")
    ]
    assert not calls, f"random data drawn outside datagen: {calls}"


def test_threads_are_started_in_grid_only():
    # grid.two_thread_map is the one place that runs work on a second thread,
    # so that every other result is computed where its caller's context holds
    names = [
        f"{path.stem} line {node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "grid.py"
        for node in ast.walk(ast.parse(path.read_text()))
        # an imported alias has a name, a from-import a module, a use an id
        if {getattr(node, key, None) for key in ("name", "module", "id")}
        & {"threading", "contextvars"}
    ]
    assert not names, f"threads outside grid: {names}"


def test_splitstep_oracle_shares_no_flow_with_picard():
    # cross_validate holds the Picard run to the split-step solver; a free
    # flow or transform they shared would move both alike, so the split step
    # spells its own phase and calls numpy's FFT directly
    shared = {
        "_flow_phase", "free_multiplier", "free_evolve", "duhamel_path",
        "forward", "inverse", "inverse_pruned", "fourier_multiply",
    }
    tree = ast.parse((SRC / "solver.py").read_text())
    (split,) = [n for n in tree.body if getattr(n, "name", None) == "splitstep_solve"]
    used = {
        getattr(node, "id", getattr(node, "attr", None))
        for node in ast.walk(split)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert not used & shared, f"splitstep_solve uses {sorted(used & shared)}"


def _references(path: Path, module: str | None = None) -> set:
    """Names a file references, outside the ``def`` or ``class`` that binds
    them: a load of a name ``module`` binds itself or the file imports from
    modlab, and any attribute; an import alone, as in a re-export, is no
    use.  A string constant that is exactly a name counts too, since
    ``cli.SWEEPS`` and the benchmark's tracer look functions up with
    ``getattr``; docstrings and ``__all__`` do not.  With no ``module``,
    only attributes and strings count: the ways a method is reached."""
    tree = ast.parse(path.read_text())
    docs = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    own = path.parent == SRC and path.stem == module
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if module is not None
        and isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("modlab")
        for alias in node.names
    }
    found = set()

    def visit(node, owners):
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = None
        if isinstance(node, ast.Name) and (own or node.id in imported):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = None if id(node) in docs else node.value
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_public_names_are_reached_by_a_run(path):
    # a public name that only tests use is a capability no run has: it
    # moves to tests/oracles.py if a test checks reached code with it, and
    # goes otherwise
    reached = set().union(*(_references(p, path.stem) for p in RUNNERS))
    unreached = _exported(ast.parse(path.read_text())) - reached - UNREACHED_ALLOWED
    assert not unreached, f"{path.name} exports names no run reaches: {sorted(unreached)}"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_public_methods_are_reached_by_a_run(path):
    # the __all__ rule for the methods of public classes: one that only
    # tests call is rebuilt inline by them
    reached = set().union(*(_references(p) for p in RUNNERS))
    unreached = [
        f"{cls.name}.{node.name}"
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in reached
    ]
    assert not unreached, f"{path.name} has methods no run reaches: {unreached}"


def _defaulted(tree: ast.Module) -> dict:
    """name -> (positional parameter names, defaulted parameter names) of
    every public function of a module that has a default."""
    out, exported = {}, _exported(tree)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            a = node.args
            positional = [x.arg for x in a.posonlyargs + a.args]
            keyword = [k.arg for k, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None]
            defaulted = positional[len(positional) - len(a.defaults):] + keyword
            if defaulted:
                out[node.name] = (positional, defaulted)
    return out


def _calls(path: Path):
    """(module, function, call, through partial) for every call in a file of
    a modlab function: by a name the file binds (in ``src/``) or imports
    from modlab, or as an attribute of a modlab module; ``partial(f, ...)``
    is a call of ``f`` with the arguments it binds."""
    tree = ast.parse(path.read_text())
    functions, modules = {}, {}
    if path.parent == SRC:
        functions = {
            node.name: (path.stem, node.name)
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "modlab":
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("modlab."):
            stem = node.module.split(".")[1]
            functions.update({a.asname or a.name: (stem, a.name) for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update(
                {a.asname: a.name.split(".")[1] for a in node.names
                 if a.name.startswith("modlab.") and a.asname}
            )

    def resolve(func):
        if isinstance(func, ast.Name):
            return functions.get(func.id)
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
            return modules[func.value.id], func.attr
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, call, through_partial = node.func, node, False
        if getattr(func, "id", getattr(func, "attr", None)) == "partial" and node.args:
            func, through_partial = node.args[0], True
            call = ast.Call(func=func, args=node.args[1:], keywords=node.keywords)
        target = resolve(func)
        if target is not None:
            yield (*target, call, through_partial)


def test_every_default_is_set_and_left_by_a_run():
    # a default no run overrides is a constant in disguise, and one every run
    # overrides is an argument in disguise: a public function's defaulted
    # parameter must be set by one run call and left to its default by
    # another.  *args or **kwargs set every parameter; partial(f, ...) sets
    # what it binds and leaves nothing, since the partial's own callers may
    # set the rest.  The CLI exports nothing: the defaults of its entry
    # points (argv, --seed) are the shell's to set
    defaults = {m.stem: _defaulted(ast.parse(m.read_text())) for m in SRC.glob("*.py")}
    set_, left = set(), set()
    for path in RUNNERS:
        for module, name, call, through_partial in _calls(path):
            if name not in defaults.get(module, {}):
                continue
            positional, defaulted = defaults[module][name]
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                given = set(defaulted)
            else:
                given = set(positional[: len(call.args)]) | {k.arg for k in call.keywords}
            for param in defaulted:
                if param in given:
                    set_.add((module, name, param))
                elif not through_partial:
                    left.add((module, name, param))
    bad = [
        f"{module}.{name}({param}): "
        + ", ".join(
            why for why, seen in (("no run sets it", set_), ("no run leaves it", left))
            if (module, name, param) not in seen
        )
        for module, functions in sorted(defaults.items())
        for name, (_, defaulted) in sorted(functions.items())
        for param in defaulted
        if (module, name, param) not in set_ & left
    ]
    assert not bad, f"defaults no run varies: {bad}"
