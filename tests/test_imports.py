"""No module of the package imports a name it never uses, and no private
definition is left that nothing reads.

No linter ships with the project, so these are the gates: each module
under src/qfunc/ except `__init__.py` (whose imports are the re-exported
API) is parsed with the stdlib `ast`, and every name bound by an import
must appear as a name somewhere in the module.  Every module-level `_name`
of src/qfunc/ must be read by some other top-level statement of the
package; a helper read only by its own body or by tests is dead.  Every
`functools.lru_cache` must carry an integer maxsize: memos are
process-wide, so an unbounded one grows with every distinct argument.
Only one function of `qcalc` reads `_TERMINATES`, the tolerance at which
a series' upper factor is taken as 0, so no other code re-derives where a
series ends.  The top-level functions that call the summation kernel
`_qseries` are exactly the callers that `qcalc`'s module docstring lists
in its table, so the table cannot go stale.  Every backticked
`qcalc.`, `qexp.`, `qbessel.`, `harness.` or `cli.` name in the package
source and in README.md must still exist, so no document names a routine
that was renamed or deleted.
"""

import ast
import importlib
import re
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



def _dead_private(sources):
    """Module-level `_name`s of the given {module: source} that no other
    top-level statement of any of them reads, as (module, name) pairs."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                own = set()
            defined += [(module, n) for n in sorted(own) if n.startswith("_") and not n.startswith("__")]
            nodes = list(ast.walk(stmt))
            names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            read |= names - own
    return [d for d in defined if d[1] not in read]


def test_no_private_definition_is_dead():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _dead_private(sources) == []


def test_gate_sees_a_dead_private_definition():
    sources = {
        "a.py": "_A, _B = 1, 2\ndef _f(n):\n    return _f(n - 1)\ndef _g():\n    return _A\n",
        "b.py": "from .a import _g\nx = _g()\n",
    }
    assert _dead_private(sources) == [("a.py", "_B"), ("a.py", "_f")]


def _unbounded_memos(source):
    """Lines of every `lru_cache` without an integer maxsize (the bare
    decorator, maxsize=None, no argument) and of every `functools.cache`."""
    tree = ast.parse(source)
    sizes = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            given = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            sizes[id(node.func)] = given[0] if given else None
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                bad.append(node.lineno)
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name == "lru_cache":
            size = sizes.get(id(node))
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                bad.append(node.lineno)
    return sorted(bad)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_memo_is_bounded(path):
    assert _unbounded_memos(path.read_text()) == []


def test_gate_sees_an_unbounded_memo():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(x): return x\n"
        "@functools.lru_cache\ndef b(x): return x\n"
        "@lru_cache()\ndef c(x): return x\n"
        "@functools.cache\ndef d(x): return x\n"
        "@functools.lru_cache(maxsize=32)\ndef e(x): return x\n"
        "@lru_cache(64)\ndef f(x): return x\n"
    )
    assert _unbounded_memos(source) == [3, 5, 7, 9]


def _readers(source, name):
    """Top-level statements of the source that read the name, by function
    or class name, or by line for any other statement."""
    readers = []
    for stmt in ast.parse(source).body:
        loads = (
            n for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        )
        if any(n.id == name for n in loads):
            readers.append(getattr(stmt, "name", stmt.lineno))
    return readers


def test_one_function_decides_where_a_series_ends():
    readers = _readers((SRC / "qcalc.py").read_text(), "_TERMINATES")
    assert len(readers) == 1 and isinstance(readers[0], str), readers


def test_gate_sees_a_second_reader():
    source = (
        "_T = 1e-12\n"
        "def a(f):\n    return f < _T\n"
        "def b(f):\n    return abs(f) < _T\n"
        "class C:\n    t = _T\n"
        "x = [_T]\n"
        "def d(f):\n    return f < 1e-12\n"
    )
    assert _readers(source, "_T") == ["a", "b", "C", 8]


def _kernel_callers(sources):
    """Names of the top-level functions of the given sources that call
    `_qseries` anywhere in their body."""
    callers = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = (n for n in ast.walk(stmt) if isinstance(n, ast.Call))
                if any(isinstance(c.func, ast.Name) and c.func.id == "_qseries" for c in calls):
                    callers.add(stmt.name)
    return callers


def _table_callers(source):
    """The first word of every row of the caller table in the module
    docstring: the rows between the header line that starts with `caller`
    and the next blank line."""
    lines = ast.get_docstring(ast.parse(source)).splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == ["caller"])
    rows = []
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        rows.append(line.split()[0])
    return set(rows)


def test_kernel_callers_match_the_qcalc_table():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert _kernel_callers(sources) == _table_callers((SRC / "qcalc.py").read_text())


def test_gate_sees_a_kernel_caller_missing_from_the_table():
    doc = '"""Kernel.\n\n  caller   upper\n  f (x)    a\n  _g       b\n\nMore text.\n"""\n'
    source = doc + "def f(z):\n    return _qseries((), (), z)\n"
    other = "def _g(z):\n    return [_qseries(z)]\ndef h(z):\n    return qseries(z)\n"
    stray = "def k(z):\n    def inner():\n        return _qseries(z)\n    return inner\n"
    assert _table_callers(source) == {"f", "_g"}
    assert _kernel_callers([source, other]) == {"f", "_g"}
    assert _kernel_callers([source, other, stray]) == {"f", "_g", "k"}


_NAMED = re.compile(r"`(?:qfunc\.)?(qcalc|qexp|qbessel|harness|cli)\.(\w+)")


def _stale_names(texts):
    """(file, "module.name") for every backticked module name of the given
    {file: text} that its module of the package does not define."""
    stale = []
    for where, text in texts.items():
        for module, name in _NAMED.findall(text):
            if not hasattr(importlib.import_module(f"qfunc.{module}"), name):
                stale.append((where, f"{module}.{name}"))
    return stale


def test_every_backticked_name_exists():
    texts = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    texts["README.md"] = (SRC.parents[1] / "README.md").read_text()
    assert _stale_names(texts) == []


def test_gate_sees_a_stale_name():
    text = "`qexp._lambda_coeffs`, `qfunc.cli.main(argv)`, `qexp._gone(u)` and qexp._bare"
    assert _stale_names({"x": text}) == [("x", "qexp._gone")]
