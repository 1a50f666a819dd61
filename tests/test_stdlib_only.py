import ast
import importlib.util
import sys
import sysconfig
from pathlib import Path

import termassoc

PACKAGE = Path(termassoc.__file__).resolve().parent


def _top_names(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def _is_stdlib(name):
    return name == "termassoc" or name in sys.stdlib_module_names


def _catches_import_error(handler):
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(
        isinstance(n, ast.Name) and n.id in ("ImportError", "ModuleNotFoundError") for n in names
    )


def _guarded_imports(tree):
    """Imports in a `try` whose `except ImportError` imports a stdlib module in their place.

    This is how a module takes an accelerator that only some CPython versions
    ship (as `random` does with `_sha512`), so its name is in
    `sys.stdlib_module_names` on those versions only.
    """
    guarded = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        fallbacks = [
            stmt
            for handler in node.handlers
            if _catches_import_error(handler)
            for stmt in handler.body
            if _top_names(stmt)
        ]
        if fallbacks and all(_is_stdlib(n) for stmt in fallbacks for n in _top_names(stmt)):
            guarded.update(id(stmt) for stmt in node.body if _top_names(stmt))
    return guarded


def _absent_or_in_the_standard_library(name):
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin in ("built-in", "frozen"):
        return True
    paths = sysconfig.get_paths()
    parents = Path(spec.origin).resolve().parents
    # site-packages sits inside the stdlib directory on most layouts.
    if any(Path(paths[key]).resolve() in parents for key in ("purelib", "platlib")):
        return False
    return any(Path(paths[key]).resolve() in parents for key in ("stdlib", "platstdlib"))


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        guarded = _guarded_imports(tree)
        for node in ast.walk(tree):
            for top in _top_names(node):
                if _is_stdlib(top):
                    continue
                # A guarded private module may be missing on this version, but
                # where it exists it must come from the standard library.
                if id(node) in guarded and top.startswith("_"):
                    if _absent_or_in_the_standard_library(top):
                        continue
                foreign.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {top}")
    assert not foreign, foreign


def _unused_imports(tree):
    """(line, name) of each name an import binds that the module never references.

    A name counts as referenced when it appears as a bare name anywhere in the
    module, the left end of an attribute chain such as `os.path.join` included.
    """
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append((node.lineno, name))
    return unused


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        unused += [f"{path.relative_to(PACKAGE)}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert not unused, unused


def test_unused_import_check_sees_bindings_not_modules():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport json as j\nimport sys, logging\n"
        "from typing import Optional\nx: Optional[int] = os.path.join(sys.argv[0])\n"
    )
    assert _unused_imports(tree) == [(3, "j"), (4, "logging")]


def test_a_guarded_import_needs_a_stdlib_fallback():
    good = ast.parse(
        "try:\n    from _nosuchmod import f\nexcept ImportError:\n    from hashlib import f\n"
    )
    foreign_fallback = ast.parse(
        "try:\n    from _nosuchmod import f\nexcept ImportError:\n    from numpy import f\n"
    )
    other_exception = ast.parse(
        "try:\n    from _nosuchmod import f\nexcept ValueError:\n    from hashlib import f\n"
    )
    assert len(_guarded_imports(good)) == 1
    assert not _guarded_imports(foreign_fallback)
    assert not _guarded_imports(other_exception)
    assert _absent_or_in_the_standard_library("_nosuchmod")
    assert _absent_or_in_the_standard_library("json")
    assert not _absent_or_in_the_standard_library("pytest")
