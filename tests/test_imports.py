"""No module of the package imports a name it never uses.

No linter ships with the project, so this is the unused-import gate: each
module under src/qfunc/ except `__init__.py` (whose imports are the
re-exported API) is parsed with the stdlib `ast`, and every name bound by
an import must appear as a name somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qfunc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_gate_sees_an_unused_import():
    source = "import io\nimport math\nfrom typing import List, Tuple\nx: List[int] = [math.pi]\n"
    assert _unused_imports(source) == [(1, "io"), (3, "Tuple")]
