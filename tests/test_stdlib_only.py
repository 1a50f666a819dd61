import ast
import sys
from pathlib import Path

import termassoc

PACKAGE = Path(termassoc.__file__).resolve().parent


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "termassoc" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert not foreign, foreign
