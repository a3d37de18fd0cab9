"""Every public function and class of ``crul`` is used inside ``crul``.

Names that only tests use belong in the tests (or nowhere): this parses
``src/crul`` and fails on a public top-level function or class that no
module refers to outside its own definition and ``__all__``.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "crul"


def _references(node) -> Counter:
    """How often each name is loaded or read as an attribute under ``node``."""
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    )


def unused_public_names(source: Path = SOURCE) -> list[str]:
    """``module.name`` of each public definition nothing else in ``source`` uses."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and everywhere[node.name] == _references(node)[node.name]
    ]


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() == []
