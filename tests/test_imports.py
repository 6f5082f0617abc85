"""Import hygiene: every name a module of the package imports is used in it,
every private module-level name it defines is used somewhere in the package,
importing the package loads no scipy, and every Python file of the project
runs on Python 3.10, the oldest version ``pyproject.toml`` accepts.

No linter ships with the test dependencies, so the first two checks walk the
modules' syntax trees. ``__init__.py`` is skipped by the first: its imports
are re-exports.

The 3.10 check parses with ``ast.parse(source, feature_version=(3, 10))``,
which rejects 3.11 grammar such as ``except*``. It does not reject PEP 646
star annotations (``*args: *Ts``, ``tuple[*Ts]``), so those would pass
unnoticed. It also lists the imports of stdlib names new in 3.11.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdgp"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom math import inf, pi\nimport numpy as np\nprint(np.pi, inf)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:_name`` for each module-level function, class or variable
    with a single-underscore name that no statement of any module refers to,
    by name, attribute or import; its own definition does not count."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                own = set()
            defined += [f"{module}:{name}" for name in sorted(own)
                        if name.startswith("_") and not name.startswith("__")]
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name)
            used |= refs - own
    return [d for d in defined if d.partition(":")[2] not in used]


def test_checker_flags_a_dead_private_name():
    sources = {
        "a.py": "_USED = 1\n_DEAD: int = 2\n__all__ = []\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n"
                "class _Imported:\n    pass\ndef _called():\n    pass\n",
        "b.py": "from .a import _Imported\nimport a\nprint(_USED, a._called())\n",
    }
    assert dead_private_names(sources) == ["a.py:_DEAD", "a.py:_recursive"]


def test_package_has_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; code that needs scipy imports it
    # inside the function that uses it, so `import mdgp` stays fast
    probe = ("import sys, mdgp, mdgp.cli; "
             "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# stdlib modules, and names of stdlib modules, that Python 3.11 added
NEW_IN_311_MODULES = {"tomllib"}
NEW_IN_311_NAMES = {
    "typing": {"Self", "LiteralString", "Never", "assert_never", "reveal_type"},
    "enum": {"StrEnum"},
    "datetime": {"UTC"},
    "asyncio": {"TaskGroup"},
}
PROJECT_SOURCES = sorted(
    str(p.relative_to(ROOT))
    for folder in ("src", "tests", "demos", "bench") for p in (ROOT / folder).rglob("*.py")
)


def needs_python_311(source: str) -> list[str]:
    """What `source` takes from Python 3.11 or later: a syntax error under
    the 3.10 grammar, or each import of a module or name new in 3.11, also
    read as an attribute of its module (``import typing as t; t.Self``)."""
    try:
        tree = ast.parse(source, feature_version=(3, 10))
    except SyntaxError as exc:
        return [f"line {exc.lineno}: {exc.msg}"]
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name] = a.name
                if a.name in NEW_IN_311_MODULES:
                    found.append(a.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module in NEW_IN_311_MODULES:
                found.append(node.module)
            new = NEW_IN_311_NAMES.get(node.module, set())
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in new]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if node.attr in NEW_IN_311_NAMES.get(module, ()):
                found.append(f"{module}.{node.attr}")
    return found


def test_checker_flags_python_311_grammar_and_names():
    # the message and line differ between Python versions
    flagged = needs_python_311("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert len(flagged) == 1 and flagged[0].startswith("line ")
    source = ("import tomllib\nimport datetime as dt\nimport typing\n"
              "from enum import Enum, StrEnum\nfrom asyncio import TaskGroup\n"
              "print(dt.UTC, typing.Self, typing.Optional, dt.timezone)\n")
    assert sorted(needs_python_311(source)) == [
        "asyncio.TaskGroup", "datetime.UTC", "enum.StrEnum", "tomllib", "typing.Self",
    ]
    # 3.10 grammar and names pass
    assert needs_python_311("match x:\n    case 1:\n        pass\n"
                            "from typing import TypeAlias\n") == []


@pytest.mark.parametrize("path", PROJECT_SOURCES)
def test_source_runs_on_python_310(path):
    assert needs_python_311((ROOT / path).read_text()) == []
