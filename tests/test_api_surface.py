"""The public surface of ``crul`` is what ``crul`` itself uses.

Names that only tests use belong in the tests (or nowhere): this parses
``src/crul`` and fails on a public top-level function or class that no
module refers to outside its own definition and ``__all__``.  Likewise a
defaulted parameter that no call in the package passes is a setting no
run can change: it fails here until it is deleted or a caller sets it.
The benchmark's tracer reaches the package by name too, so each name it
wraps must keep resolving.
"""

import ast
import importlib
import math
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "crul"


def _trees(source: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))}


def _references(node) -> Counter:
    """How often each name is loaded or read as an attribute under ``node``."""
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    )


def unused_public_names(source: Path = SOURCE) -> list[str]:
    """``module.name`` of each public definition nothing else in ``source`` uses."""
    trees = _trees(source)
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and everywhere[node.name] == _references(node)[node.name]
    ]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _calls(node, caller=None):
    """``(callee name, call)`` of each call under ``node``, by simple name.

    A function calling itself is skipped: forwarding its own parameter
    back to itself does not set it.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name != caller:
                yield name, child
        yield from _calls(child, child.name if isinstance(child, _FUNCTIONS) else caller)


def _defaulted(node, is_method: bool):
    """``(name, call-site position)`` of each defaulted parameter of ``node``;
    the position is None for keyword-only ones and skips a method's receiver."""
    args = node.args
    ordered = args.posonlyargs + args.args
    first = len(ordered) - len(args.defaults)
    for index, arg in enumerate(ordered[first:], start=first):
        yield arg.arg, index - is_method
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def unpassed_defaults(source: Path = SOURCE) -> list[str]:
    """``module.function(parameter)`` of each defaulted parameter that no
    call in ``source`` passes, by keyword or by position.

    Calls are matched to definitions by simple name, so a call to any
    function of that name counts.  A caller that passes on a defaulted
    parameter of its own counts as passing, so only the root of such a
    chain is named.
    """
    trees = _trees(source)
    positional: dict[str, float] = {}  # most positional arguments of any call
    keywords: set[tuple[str, str | None]] = set()  # None: the call spreads **kwargs
    for tree in trees.values():
        for name, call in _calls(tree):
            spread = any(isinstance(arg, ast.Starred) for arg in call.args)
            positional[name] = max(positional.get(name, 0), math.inf if spread else len(call.args))
            keywords.update((name, keyword.arg) for keyword in call.keywords)
    missing = []
    for module, tree in trees.items():
        methods = {
            id(child)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for child in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, _FUNCTIONS):
                continue
            for param, position in _defaulted(node, id(node) in methods):
                passed = {(node.name, param), (node.name, None)} & keywords or (
                    position is not None and positional.get(node.name, 0) > position
                )
                if not passed:
                    missing.append(f"{module}.{node.name}({param})")
    return missing


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() == []


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert unpassed_defaults() == []


def test_the_benchmark_tracer_finds_and_restores_every_name(monkeypatch):
    """``perfbench/spans.py`` wraps each layer's functions at the module
    attributes their callers look up; a deleted or renamed one breaks the
    traced benchmark run, so installing the tracer must succeed here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    modules = (spans.analytic, spans.cli, spans.crosscheck, spans.montecarlo, spans.oracle,
               spans.specfun)
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [
            name
            for module, names in zip(modules, before)
            for name, value in names.items()
            if vars(module)[name] is not value
        ]
    finally:
        tracer.uninstall()
    assert wrapped
    for module, names in zip(modules, before):
        changed = [name for name, value in names.items() if vars(module)[name] is not value]
        assert changed == [], module.__name__
