"""Static hygiene of the package sources, checked with the standard
library's ``ast``: no unused imports, no module-level private name that
nothing refers to, no exported name that nothing reads, no function
parameter that is never read, and no two dataclasses that declare the
same fields; the package exports each module's public names, and the
README names every count of the debug line."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riccati_sl2"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULE_NAMES = {p.stem for p in MODULES}
# The code outside src/ that reads the package's names.
READERS = sorted(p for directory in ("tests", "perfbench", "tools")
                 for p in (PACKAGE.parent.parent / directory).glob("*.py"))


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


def _command_handlers(tree) -> set[str]:
    """The functions a module-level ``_COMMANDS`` table names; the table
    calls each of them with the same arguments."""
    for stmt in tree.body:
        if _defined_name(stmt) == "_COMMANDS":
            return {value.id for value in stmt.value.values}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    """Every parameter of a function is read in its body; lambdas,
    command handlers and the receivers ``self`` and ``cls`` aside."""
    tree = _tree(path)
    handlers = _command_handlers(tree)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.name in handlers:
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unread += [f"{node.name}({p}) line {node.lineno}" for p in params
                   if p not in read and p not in ("self", "cls")]
    assert not unread, f"{path.name} has parameters it never reads: {unread}"


def _package_aliases(tree) -> set[str]:
    """Names that ``import riccati_sl2[.module] [as name]`` statements in
    ``tree`` bind to the package or to one of its modules."""
    return {alias.asname or PACKAGE.name for sub in ast.walk(tree)
            if isinstance(sub, ast.Import) for alias in sub.names
            if alias.name.split(".")[0] == PACKAGE.name}


def _is_package(node, aliases: set[str]) -> bool:
    """Whether ``node`` names the package or one of its modules."""
    if isinstance(node, ast.Attribute):
        return node.attr in MODULE_NAMES and _is_package(node.value, aliases)
    return isinstance(node, ast.Name) and node.id in aliases


def _loaded(node, aliases: set[str]) -> set[str]:
    """Names read in ``node``, and attributes read from the package or
    one of its modules under the names in ``aliases``; importing a name
    is not reading it."""
    return _read_names(node, attributes=False) | {
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and _is_package(sub.value, aliases)}


def test_every_exported_name_is_read():
    """Each name in a module's ``__all__`` is read somewhere in src/,
    other than inside its own definition and the package ``__init__``,
    or in tests/, perfbench/ or tools/."""
    exported = []
    references: dict[str, set[str]] = {}
    for path in MODULES:
        tree = _tree(path)
        aliases = _package_aliases(tree)
        for stmt in tree.body:
            name = _defined_name(stmt)
            if name == "__all__":
                exported += [(path.name, elt.value) for elt in stmt.value.elts]
            for used in _loaded(stmt, aliases):
                references.setdefault(used, set()).add(f"{path.name}:{name}")
    for path in READERS:
        tree = _tree(path)
        for used in _loaded(tree, _package_aliases(tree)):
            references.setdefault(used, set()).add(path.name)
    unread = sorted(
        f"{module}: {name}" for module, name in exported
        if not references.get(name, set()) - {f"{module}:{name}"})
    assert not unread, f"exported names nothing reads: {unread}"


def _decorator_name(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_no_two_dataclasses_declare_the_same_fields():
    """Two dataclasses whose own fields have the same names and
    annotations are one type written twice.  Classes with no fields of
    their own, which take them from a base, are left out."""
    first: dict[frozenset, str] = {}
    same = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.ClassDef) and any(
                    _decorator_name(d) == "dataclass" for d in node.decorator_list)):
                continue
            fields = frozenset((stmt.target.id, ast.unparse(stmt.annotation))
                               for stmt in node.body if isinstance(stmt, ast.AnnAssign))
            where = f"{path.stem}.{node.name}"
            if fields and fields in first:
                same.append(f"{first[fields]} / {where}")
            first.setdefault(fields, where)
    assert not same, f"dataclasses that declare the same fields: {same}"


def test_the_package_exports_each_module_name():
    """Each name in a module's ``__all__`` is the same object at package
    level, and the package ``__all__`` lists them once; the command line
    and ``python -m`` entry aside."""
    package = importlib.import_module(PACKAGE.name)
    names = []
    for stem in sorted(MODULE_NAMES - {"cli", "__main__"}):
        module = importlib.import_module(f"{PACKAGE.name}.{stem}")
        names += module.__all__
        for name in module.__all__:
            assert getattr(package, name) is getattr(module, name), f"{stem}.{name}"
    assert sorted(package.__all__) == sorted(names)


def test_the_readme_names_every_debug_count():
    from riccati_sl2.expr import _Session
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if "RICCATI_LOG=debug" in p)
    assert [k for k in _Session().counts() if f"`{k}`" not in paragraph] == []
