"""Every module-level name in ``src/bwx`` is used somewhere in ``src/bwx``
outside its own definition, or is a console script's entry point: a helper
that nothing calls is deleted, not kept alive by its tests, nor by an import
that nothing reads."""

import ast
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bwx"


def _defined(tree: ast.Module):
    """The module-level names that ``tree`` defines, each with the statement
    that defines it: functions, classes and plain or annotated assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _uses(node: ast.AST) -> Counter:
    """The names that ``node`` loads or reads as an attribute; a mention in a
    docstring or a string is neither."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
    return uses


def _module_uses(module: str, tree: ast.Module) -> Counter:
    """`_uses` of the whole module, plus each name it imports by name and
    then loads or, in ``__init__``, lists in ``__all__``."""
    loads = _uses(tree)
    read = set(loads)
    for name, node in _defined(tree):
        if module == "__init__" and name == "__all__":
            read.update(ast.literal_eval(node.value))
    imported = Counter(
        alias.name
        for sub in ast.walk(tree)
        if isinstance(sub, ast.ImportFrom)
        for alias in sub.names
        if (alias.asname or alias.name) in read
    )
    return loads + imported


def _entry_points() -> Counter:
    """The ``module:function`` names of ``pyproject.toml``'s console scripts."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return Counter(target.rpartition(":")[2] for target in scripts.values())


def test_every_module_level_name_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = sum((_module_uses(module, tree) for module, tree in trees.items()), _entry_points())
    unused = [
        f"bwx.{module}.{name}"
        for module, tree in trees.items()
        for name, node in _defined(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and uses[name] - _uses(node)[name] < 1
    ]
    assert unused == []
