"""The public surface of ``crul`` is what ``crul`` itself uses.

Names that only tests use belong in the tests (or nowhere): this parses
``src/crul`` and fails on a public top-level function or class that no
module refers to outside its own definition and ``__all__``.  Likewise a
defaulted parameter that no call in the package passes is a setting no
run can change: it fails here until it is deleted or a caller sets it.
A parameter that every call, tests included, passes as the same literal
is a constant and fails here too.
The benchmark's tracer reaches the package by name too, so each name it
wraps must keep resolving, and an import or alias that nothing reads must
be one it wraps.
"""

import ast
import importlib
import math
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "crul"
TESTS = ROOT / "tests"


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


def _method_ids(tree: ast.Module) -> set[int]:
    """``id`` of each function defined directly in a class body."""
    return {
        id(child)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for child in node.body
    }


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
        methods = _method_ids(tree)
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


def _literal(node) -> str | None:
    """The dump of ``node`` if it is a literal, else None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def constant_arguments(source: Path = SOURCE, callers: tuple[Path, ...] = (SOURCE, TESTS)):
    """``module.function(parameter)`` of each parameter of a function in
    ``source`` that every call in ``callers`` passes as one and the same
    literal: a constant dressed as a parameter.

    Calls are matched to definitions by simple name, as in
    :func:`unpassed_defaults`, and a name defined more than once is
    skipped.  A call that spreads ``*args`` or ``**kwargs`` may pass
    anything, so no parameter of its callee is named.
    """
    definitions = []
    for module, tree in _trees(source).items():
        methods = _method_ids(tree)
        definitions += [
            (module, node, id(node) in methods)
            for node in ast.walk(tree)
            if isinstance(node, _FUNCTIONS)
        ]
    defined = Counter(node.name for _, node, _ in definitions)
    calls: dict[str, list[ast.Call]] = {}
    for folder in callers:
        for tree in _trees(folder).values():
            for name, call in _calls(tree):
                calls.setdefault(name, []).append(call)
    constant = []
    for module, node, is_method in definitions:
        found = calls.get(node.name, [])
        if defined[node.name] > 1 or not found:
            continue
        ordered = [arg.arg for arg in node.args.posonlyargs + node.args.args][is_method:]
        for param in ordered + [arg.arg for arg in node.args.kwonlyargs]:
            passed = set()
            for call in found:
                keywords = {keyword.arg: keyword.value for keyword in call.keywords}
                if None in keywords or any(isinstance(arg, ast.Starred) for arg in call.args):
                    passed.add(None)
                    continue
                position = ordered.index(param) if param in ordered else math.inf
                value = call.args[position] if position < len(call.args) else keywords.get(param)
                passed.add(None if value is None else _literal(value))
            if len(passed) == 1 and None not in passed:
                constant.append(f"{module}.{node.name}({param})")
    return constant


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() == []


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert unpassed_defaults() == []


def test_no_parameter_is_always_passed_the_same_literal():
    """A parameter that every call in the package and its tests sets to the
    same literal is a constant; it belongs in the function's body."""
    assert constant_arguments() == []


def test_no_np_vectorize_in_the_package():
    """``np.vectorize`` is a Python loop in an array's clothes; a kernel
    that an integrator calls on arrays takes arrays itself."""
    vectorized = [
        module
        for module, tree in _trees(SOURCE).items()
        if _references(tree)["vectorize"]
    ]
    assert vectorized == []


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


def _unread(source: Path, bound) -> list[str]:
    """``module.name`` of each name that ``bound(node)`` gives for a
    top-level statement, that its module never loads and that no other
    module in ``source`` reads through it, by a from-import of the module or
    as its attribute."""
    trees = _trees(source)
    through = Counter()  # (module, name) read from another module
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                through.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                through[(node.value.id, node.attr)] += 1
    unread = []
    for module, tree in trees.items():
        loaded = Counter(
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        )
        for node in tree.body:
            for name in bound(node):
                if not loaded[name] and not through[(module, name)]:
                    unread.append(f"{module}.{name}")
    return unread


def _imported(node) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return []


def _aliased(node) -> list[str]:
    """The targets of a plain alias, ``name = other``."""
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    return []


def unread_imports(source: Path = SOURCE) -> list[str]:
    """``module.name`` of each top-level import that nothing reads."""
    return _unread(source, _imported)


def unread_aliases(source: Path = SOURCE) -> list[str]:
    """``module.name`` of each top-level alias that nothing reads."""
    return _unread(source, _aliased)


def _patched_by_the_tracer(monkeypatch) -> set[str]:
    """``module.name`` of each package attribute the benchmark tracer replaces."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    modules = {
        module.__name__.rsplit(".", 1)[-1]: module
        for module in (spans.analytic, spans.cli, spans.crosscheck, spans.montecarlo,
                       spans.oracle, spans.specfun)
    }
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = spans.Tracer()
    try:
        tracer.install()
        return {
            f"{name}.{attr}"
            for name, module in modules.items()
            for attr, value in before[name].items()
            if vars(module)[attr] is not value
        }
    finally:
        tracer.uninstall()


def test_every_unread_import_is_a_name_the_benchmark_tracer_patches(monkeypatch):
    """An import kept only for ``perfbench/spans.py`` to replace is pinned
    by the tracer; once the tracer stops patching it, the import is dead
    and must go."""
    patched = _patched_by_the_tracer(monkeypatch)
    assert [name for name in unread_imports() if name not in patched] == []


def test_every_unread_alias_is_a_name_the_benchmark_tracer_patches(monkeypatch):
    """Likewise a second name for a function, kept only so the tracer finds
    the name it wraps, goes once the tracer stops wrapping it."""
    patched = _patched_by_the_tracer(monkeypatch)
    assert [name for name in unread_aliases() if name not in patched] == []
