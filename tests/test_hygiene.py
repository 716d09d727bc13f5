"""Static hygiene of the package sources, checked with the standard
library's ``ast``: no unused imports, and no module-level private name
that nothing refers to."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riccati_sl2"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(node, attributes: bool) -> set[str]:
    """Names read in ``node``, including those inside string annotations;
    with ``attributes`` also attribute names and the names imported from
    other modules."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif attributes and isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif attributes and isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
        if isinstance(sub, ast.arg | ast.AnnAssign):
            annotation = sub.annotation
        elif isinstance(sub, ast.FunctionDef):
            annotation = sub.returns
        else:
            continue
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _read_names(ast.parse(annotation.value, mode="eval"), attributes)
    return used


def _defined_name(stmt) -> str | None:
    if isinstance(stmt, ast.FunctionDef | ast.ClassDef):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _read_names(tree, attributes=False)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it does not use: {unused}"


def test_every_private_module_name_is_referenced():
    """A module-level ``_name`` must be read somewhere under src/, other
    than inside its own definition."""
    defined = []
    references: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _tree(path).body:
            name = _defined_name(stmt)
            if name and name.startswith("_") and not name.startswith("__"):
                defined.append((path.name, name))
            for used in _read_names(stmt, attributes=True):
                references.setdefault(used, set()).add(f"{path.name}:{name}")
    unreferenced = sorted(
        f"{module}: {name}" for module, name in defined
        if not references.get(name, set()) - {f"{module}:{name}"})
    assert not unreferenced, f"private names nothing refers to: {unreferenced}"
