"""The package's only runtime dependency is numpy, beside the standard library."""
import ast
import sys
from pathlib import Path

import rigid_coverage

PACKAGE = Path(rigid_coverage.__file__).parent


def _imported_modules(source: str):
    """The top-level name of every absolute import in a module, with its line."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from ((alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_every_import_is_relative_numpy_or_standard_library():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 5
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in files
        for name, line in _imported_modules(path.read_text())
        if name != "numpy" and name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_scan_sees_a_third_party_import():
    found = dict(_imported_modules("import numpy as np\nfrom scipy.linalg import lu\nfrom . import geometry\n"))
    assert found == {"numpy": 1, "scipy": 2}
