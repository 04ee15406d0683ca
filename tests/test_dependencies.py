"""The package is pure Python with no runtime dependencies."""

import ast
import sys
from pathlib import Path

import simphom


def test_every_import_is_relative_or_standard_library():
    package = Path(simphom.__file__).parent
    outside = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.extend(f"{path.name}: {name}" for name in names
                           if name.split(".")[0] not in sys.stdlib_module_names)
    assert not outside
