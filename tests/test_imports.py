"""Import hygiene: every name a module of the package imports is used in it,
every private module-level name it defines is used somewhere in the package,
and importing the package loads no scipy.

No linter ships with the test dependencies, so the first two checks walk the
modules' syntax trees. ``__init__.py`` is skipped by the first: its imports
are re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdgp"
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
