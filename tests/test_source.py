"""Source hygiene: every module compiles cleanly with warnings as errors,
imports only what it uses, and uses every private name it defines."""

import ast
import warnings
from pathlib import Path

import pytest

import specmeans

MODULES = sorted(Path(specmeans.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _tree(path):
    return ast.parse(path.read_text(), str(path))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_private_names_are_used():
    """Every private top-level name is referenced somewhere in the package
    besides its definition."""
    trees = [_tree(p) for p in MODULES]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(private - used) == []


ROOT = Path(__file__).resolve().parent.parent


def _named(tree):
    """Every name a file refers to in code: names, attributes, imports,
    and the parts of dotted-identifier strings such as the bench's
    "module.function" keys."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.replace(".", "").isidentifier():
                names.update(node.value.split("."))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_public_names_are_reached():
    """Every name in a module's __all__ is loaded by that module, or named
    by another package module (not __init__), by a test file other than
    the module's own tests/test_<module>.py, or by a bench script.  A name
    only its own unit tests call is dead public API."""
    modules = {p.stem: _tree(p) for p in MODULES if p.name != "__init__.py"}
    outside = {p: _named(_tree(p)) for p in [*ROOT.glob("tests/**/*.py"), *ROOT.glob("bench/*.py")]}
    dead = []
    for stem, tree in modules.items():
        loaded = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        named = set().union(
            *(_named(other) for name, other in modules.items() if name != stem),
            *(names for path, names in outside.items() if path.name != f"test_{stem}.py"),
        )
        dead += [f"{stem}.{name}" for name in sorted(_exported(tree) - loaded - named)]
    assert dead == []


def test_json_writers_are_two():
    """`cli.main` encodes every command's payload and `grid._field_to_json`
    a field: no other code in the package writes JSON."""
    writers = []
    for path in MODULES:
        tree = _tree(path)
        owner = {}  # node -> name of the innermost function around it
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                owner.update((child, node.name) for child in ast.walk(node))
        writers += [
            f"{path.stem}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        ]
    assert sorted(writers) == ["cli.main", "grid._field_to_json"]
