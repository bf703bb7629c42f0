"""Every import in the package, its tests and its demos is used, every name
in `fedsim.__all__` resolves, and every private helper of the package is used.

A name counts as used when the module reads it anywhere or lists it in
`__all__`. `from __future__` imports and lines marked `# noqa` are exempt; in
the package, a `# noqa` import is allowed only as a `bench/tracer.py` target,
and every tracer target resolves to a callable. A module-level `_`-prefixed
function, class or constant counts as used when package code outside its own
definition reads or imports it.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The acceptance criteria are kept exactly as written, imports included.
EXEMPT = {"test_acceptance.py"}


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or "# noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, alias.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    files = sorted(f for d in ("src/fedsim", "tests", "demos") for f in ROOT.glob(f"{d}/*.py"))
    assert len(files) > 10
    unused = [u for f in files if f.name not in EXEMPT for u in _unused_imports(f)]
    assert unused == []


def test_every_exported_name_resolves():
    # A name left in `__all__` after its import is gone breaks only `from fedsim import *`.
    import fedsim

    assert [name for name in fedsim.__all__ if not hasattr(fedsim, name)] == []


def _load_tracer():
    """`bench/tracer.py`, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def test_noqa_imports_in_the_package_are_trace_targets():
    # The tracer wraps a function at the module attribute its caller looks up,
    # so a package module may import a name only the tracer reads.
    targets = {(module, attr) for module, attr, _ in TRACER.TARGETS}
    stray = []
    for path in sorted(ROOT.glob("src/fedsim/*.py")):
        module, source = f"fedsim.{path.stem}", path.read_text()
        lines = source.splitlines()
        nodes = ast.walk(ast.parse(source))
        imports = (n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom)))
        for alias in (a for node in imports for a in node.names):
            name = alias.asname or alias.name
            if "# noqa" in lines[alias.lineno - 1] and (module, name) not in targets:
                stray.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {name}")
    assert stray == []


def test_every_trace_target_resolves_to_a_callable():
    missing = []
    for module, attr, _ in TRACER.TARGETS:
        owner, name = TRACER._resolve(module, attr)
        if not callable(getattr(owner, name, None)):
            missing.append(f"{module}.{attr}")
    assert missing == []


def _private_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level `_`-prefixed (not dunder) definitions, by name."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((n, stmt) for n in names if n.startswith("_") and not n.startswith("__"))
    return defined


def _references(node: ast.AST) -> set[str]:
    """Names a node reads, reads as an attribute, or imports."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def test_every_private_helper_is_used():
    trees = {f: ast.parse(f.read_text()) for f in sorted(ROOT.glob("src/fedsim/*.py"))}
    assert len(trees) > 5
    refs = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for path, tree in trees.items():
        for name, definition in _private_names(tree).items():
            # A recursive call, or a constant naming itself, is not a use.
            if not any(name in names for stmt, names in refs if stmt is not definition):
                unused.append(f"{path.relative_to(ROOT)}:{definition.lineno}: {name}")
    assert unused == []


# Each package module's imports of other package modules. The engine trains
# and aggregates; scoring and byte accounting (`metrics`) are the runner's.
LAYERS = {
    "mlp": set(),
    "data": set(),
    "sampling": {"data", "mlp"},
    "metrics": {"mlp", "sampling"},
    "engine": {"data", "mlp", "sampling"},
    "experiment": {"data", "engine", "metrics", "mlp", "sampling"},
    "cli": {"experiment"},
}


def _package_imports(path: Path) -> set[str]:
    """The package modules a module imports relatively (`from .x import` or `from . import x`)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_package_modules_import_only_their_lower_layers():
    paths = [p for p in sorted(ROOT.glob("src/fedsim/*.py")) if p.stem != "__init__"]
    assert {p.stem: _package_imports(p) for p in paths} == LAYERS
