"""Every module-level name in ``src/bwx`` is used somewhere in ``src/bwx``
outside its own definition, or is a console script's entry point: a helper
that nothing calls is deleted, not kept alive by its tests."""

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
    """The names that ``node`` loads, reads as an attribute or imports by
    name; a mention in a docstring or a string is none of these."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            uses.update(alias.name for alias in sub.names)
    return uses


def _entry_points() -> Counter:
    """The ``module:function`` names of ``pyproject.toml``'s console scripts."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return Counter(target.rpartition(":")[2] for target in scripts.values())


def test_every_module_level_name_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), _entry_points())
    unused = [
        f"bwx.{module}.{name}"
        for module, tree in trees.items()
        for name, node in _defined(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and uses[name] - _uses(node)[name] < 1
    ]
    assert unused == []
