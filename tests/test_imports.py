"""qmoon has no runtime dependencies: its modules import only the standard
library and qmoon itself (sympy and mpmath stay test-only).  Its one memo is
``forms.longest_memo``: no module keeps a ``functools`` cache of its own."""

import ast
import sys
from pathlib import Path

import qmoon


def test_modules_import_only_stdlib_and_qmoon():
    modules = sorted(Path(qmoon.__file__).parent.glob("*.py"))
    assert "series.py" in [path.name for path in modules]
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "qmoon" or top in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"


def test_no_module_keeps_a_functools_cache():
    modules = sorted(Path(qmoon.__file__).parent.glob("*.py"))
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "functools":
                names = {node.attr}
            else:
                continue
            assert not names & {"lru_cache", "cache"}, f"{path.name} uses functools.{names}"


def test_kernel_oracle_borrows_no_kernel_arithmetic():
    # the differential tests judge the kernel against tests/kernel_oracle.py,
    # so the oracle may take only containers and number theory from it
    allowed = {"ExponentTable", "QSeries", "_num", "divisors", "moebius"}
    path = Path(__file__).with_name("kernel_oracle.py")
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "qmoon.series"
                for alias in node.names}
    assert imported and imported <= allowed, imported - allowed
