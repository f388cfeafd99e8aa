"""The package promises no runtime dependencies: it imports the standard library and itself only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "sumlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_stdlib_or_relative(path):
    outside = []
    # feature_version: the package promises Python >= 3.10, so newer syntax fails the parse
    for node in ast.walk(ast.parse(path.read_text(), str(path), feature_version=(3, 10))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            # a relative import must stay inside the flat sumlab package
            if node.level != 1:
                outside.append(f"line {node.lineno}: {'.' * node.level}{node.module or ''}")
            continue
        else:
            continue
        outside += [f"line {node.lineno}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_module_is_checked():
    assert {"__init__.py", "search.py", "cli.py"} <= {p.name for p in SOURCES}


def test_import_starts_no_process_machinery():
    # the search runs in one process, so importing the package loads no process pool
    # (threading is left out: site loads it on some interpreters)
    heavy = ("multiprocessing", "concurrent.futures", "subprocess")
    probe = f"import sys, sumlab; print(','.join(m for m in {heavy!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
