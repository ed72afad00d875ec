"""The package runs on the standard library alone.

Every import in ``src/posetdual`` is relative or names a standard-library
module, and ``pyproject.toml`` declares no dependencies.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posetdual"


def absolute_imports(path):
    """The top-level names of the modules *path* imports absolutely."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_package_imports_only_relative_and_standard_library_modules():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        (path.name, name)
        for path in sources
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_project_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"^dependencies\s*=.*$", text, re.M) == ["dependencies = []"]
