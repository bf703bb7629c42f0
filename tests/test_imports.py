"""Every import in the package, its tests and its demos is used.

A name counts as used when the module reads it anywhere or lists it in
`__all__`. `from __future__` imports and lines marked `# noqa` are exempt.
"""

import ast
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
