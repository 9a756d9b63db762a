"""qmoon has no runtime dependencies: its modules import only the standard
library and qmoon itself (sympy and mpmath stay test-only), and no module
keeps a ``functools`` cache.  Every module-level function and class is
reached by a subcommand or exported by the package; code that only tests
call lives under ``tests/``.  No module, in the package or its tests,
imports a name it never uses."""

import ast
import importlib
import json
import os
import subprocess
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


def _unused_imports(path):
    """Names a module imports and never reads; a name in its ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_every_import_is_used():
    root = Path(__file__).parent
    paths = sorted(Path(qmoon.__file__).parent.glob("*.py")) + sorted(root.glob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == [], f"imported and never used: {unused}"


def test_kernel_oracle_borrows_no_kernel_arithmetic():
    # the differential tests judge the kernel against tests/kernel_oracle.py,
    # so the oracle may take only containers and number theory from it
    allowed = {"ExponentTable", "QSeries", "_num", "divisors", "moebius"}
    path = Path(__file__).with_name("kernel_oracle.py")
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "qmoon.series"
                for alias in node.names}
    assert imported and imported <= allowed, imported - allowed


# Module-level names that no subcommand reaches, kept on purpose.
UNROUTED = {
    "cli.main": "the console-script entry point; the golden cases call cli.run, which it wraps",
    "borcherds.printed_coefficient_report": "the published f_4 and f_6 coefficients against "
                                            "the catalog formulas; no subcommand prints it yet",
}

# Runs every golden CLI case in one process under a profile hook installed
# before qmoon is imported, so calls made at import count too, and prints the
# (file, first line) of every code object under src/qmoon that was entered.
_ROUTE_TRACE = """
import json, os, sys
from pathlib import Path

src, workdir = sys.argv[1], sys.argv[2]
entered, built = set(), set()


def profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code.co_filename.startswith(src):
        entered.add((code.co_filename, code.co_firstlineno))
    elif code.co_name == "<lambda>" and "_cls" in code.co_varnames:
        # a NamedTuple's __new__ is generated from a string; credit its class
        cls = frame.f_locals["_cls"]
        built.add(f"{cls.__module__}.{cls.__qualname__}")


sys.setprofile(profile)
import test_golden_cli as golden

os.chdir(workdir)
golden._write_inputs(Path(workdir))
for argv in golden.CASES:
    golden._invoke(argv)
for argv in golden.USAGE_CASES:
    golden._invoke_usage(argv)
sys.setprofile(None)
print(json.dumps([sorted(entered), sorted(built)]))
"""


def _module_level_defs(path):
    """(name, first line, last line, is a class) of each top-level def and class."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno, isinstance(node, ast.ClassDef)


def test_every_module_level_def_is_reached_by_a_subcommand(tmp_path):
    src = Path(qmoon.__file__).parent
    env = {k: v for k, v in os.environ.items() if k != "QMOON_DEFAULT_ORDER"}
    env["PYTHONPATH"] = os.pathsep.join([str(src.parent), str(Path(__file__).parent)])
    env["COLUMNS"] = "80"
    done = subprocess.run([sys.executable, "-c", _ROUTE_TRACE, str(src), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    entered, built = json.loads(done.stdout.splitlines()[-1])
    lines = {}
    for filename, line in entered:
        lines.setdefault(Path(filename).name, set()).add(line)
    defined, unreached = set(), []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for name, first, last, is_class in _module_level_defs(path):
            qualified = f"{module}.{name}"
            defined.add(qualified)
            # a class body runs at import; a class is reached when code inside it runs
            low = first + 1 if is_class else first
            if any(low <= line <= last for line in lines.get(path.name, ())) \
                    or f"qmoon.{qualified}" in built:
                continue
            exported = name in qmoon.__all__ and getattr(qmoon, name) is \
                getattr(importlib.import_module(f"qmoon.{module}"), name)
            if not exported and qualified not in UNROUTED:
                unreached.append(qualified)
    assert set(UNROUTED) <= defined, set(UNROUTED) - defined
    assert unreached == [], f"reached by no subcommand, only by tests: {unreached}"
