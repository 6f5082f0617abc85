"""Import hygiene: every name a module of the package imports is used in it,
and importing the package loads no scipy.

No linter ships with the test dependencies, so the first check walks each
module's syntax tree. ``__init__.py`` is skipped: its imports are re-exports.
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
