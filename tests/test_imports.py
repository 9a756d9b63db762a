"""qmoon has no runtime dependencies: its modules import only the standard
library and qmoon itself (sympy and mpmath stay test-only), and no module
keeps a ``functools`` cache.  Every module-level function and class, and
every non-dunder method, is reached by a subcommand or listed with a
reason; code that only tests call lives under ``tests/``, and the package
exports only defs that a subcommand reaches.  No module, in the package or
its tests, imports a name it never uses."""

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
    # so the oracle may take only the containers and _num from it
    allowed = {"ExponentTable", "QSeries", "_num"}
    path = Path(__file__).with_name("kernel_oracle.py")
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "qmoon.series"
                for alias in node.names}
    assert imported and imported <= allowed, imported - allowed


# Module-level names and methods that no subcommand reaches, kept on purpose.
UNROUTED = {
    "cli.main": "the console-script entry point; the golden cases call cli.run, which it wraps",
    "borcherds.printed_coefficient_report": "the published f_4 and f_6 coefficients against "
                                            "the catalog formulas; no subcommand prints it yet",
    "maass._CoeffTable.coeff": "a table's one lookup that refuses past disc_bound; the "
                               "Maass check compares whole coefficient dicts instead",
    "maass._CoeffTable._name": "names an entry in the errors for a coefficient outside the "
                               "support or past disc_bound; no golden input has either",
    "series.NomeMismatch": "the guard against mixing full- and half-nome series; the catalog "
                           "never mixes them, so no valid input raises it",
    "series.exp_series": "named by perfbench/shim.py's series.exp span, its only caller; it "
                         "leaves when the shim reads its counts from the package (ROADMAP item 1)",
    "series.log_series": "named by perfbench/shim.py's series.log span, its only caller; it "
                         "leaves when the shim reads its counts from the package (ROADMAP item 1)",
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
    """(name, first line, last line, is a class) of each top-level def and
    class, and of each non-dunder method, named "Class.method"."""
    def span(node):
        return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node.name, *span(node), isinstance(node, ast.ClassDef)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (item.name.startswith("__") and
                                                        item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", *span(item), False


def test_every_module_level_def_is_reached_by_a_subcommand(tmp_path):
    src = Path(qmoon.__file__).parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src.parent), str(Path(__file__).parent)])
    env["COLUMNS"] = "80"
    done = subprocess.run([sys.executable, "-c", _ROUTE_TRACE, str(src), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    entered, built = json.loads(done.stdout.splitlines()[-1])
    lines = {}
    for filename, line in entered:
        lines.setdefault(Path(filename).name, set()).add(line)
    defined, reached, unreached = set(), set(), []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for name, first, last, is_class in _module_level_defs(path):
            qualified = f"{module}.{name}"
            defined.add(qualified)
            # a class body runs at import; a class is reached when code inside it runs
            low = first + 1 if is_class else first
            if any(low <= line <= last for line in lines.get(path.name, ())) \
                    or f"qmoon.{qualified}" in built:
                reached.add(qualified)
            elif qualified not in UNROUTED:
                unreached.append(qualified)
    assert set(UNROUTED) <= defined, set(UNROUTED) - defined
    assert unreached == [], f"reached by no subcommand, only by tests: {unreached}"
    exported = {f"{getattr(qmoon, name).__module__.removeprefix('qmoon.')}.{name}"
                for name in set(qmoon.__all__) - {"FULL", "HALF", "__version__"}}
    assert exported <= reached, f"exported but reached by no subcommand: {exported - reached}"


# perfbench/shim.py's LAYERS targets that no longer exist, as the ROADMAP's
# first open item lists them: their per-layer metrics read 0 until the shim
# is updated.  No other target may stop resolving.
STALE_LAYER_TARGETS = {
    *(f"series:BiSeries.{op}" for op in ("__add__", "__radd__", "__sub__", "__rsub__",
                                         "__neg__", "__mul__", "__rmul__", "__pow__",
                                         "pow_with_big_exponent")),
    "forms:eta_quotient", "forms:p_g_series", "forms:j_g_series",
    "borcherds:plus_space_check", "borcherds:hurwitz",
    "mults:e10_level2_mult", "mults:fake_monster_mult", "mults:ha1_mult",
}


def _layer_targets():
    """Every "module:attribute.path" in shim.LAYERS, from the file's text: only
    its FORM_BUILDERS and LAYERS assignments run, so nothing under perfbench/
    is imported."""
    source = (Path(__file__).parents[1] / "perfbench" / "shim.py").read_text(encoding="utf-8")
    scope = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and \
                [ast.unparse(t) for t in node.targets] in (["FORM_BUILDERS"], ["LAYERS"]):
            exec(compile(ast.Module([node], []), "shim.py", "exec"), scope)
    return [target for targets in scope["LAYERS"].values() for target in targets]


def _resolves(target):
    """The shim's own lookup: an attribute of the module, or of a class in its MRO."""
    module, path = target.split(":")
    owner = importlib.import_module(f"qmoon.{module}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None:
        return False
    scopes = owner.__mro__ if isinstance(owner, type) else (owner,)
    raw = next((vars(s)[attr] for s in scopes if attr in vars(s)), None)
    return callable(raw) or isinstance(raw, (staticmethod, classmethod))


def test_benchmark_layer_targets_stay_resolvable():
    targets = _layer_targets()
    assert len(STALE_LAYER_TARGETS) == 17
    assert "vsys:elliptic_transform_check" in targets and "moonshine:bi_exp" in targets
    absent = {target for target in targets if not _resolves(target)}
    assert absent <= STALE_LAYER_TARGETS, absent - STALE_LAYER_TARGETS
