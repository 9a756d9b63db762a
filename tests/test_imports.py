"""qmoon has no runtime dependencies: its modules import only the standard
library and qmoon itself (sympy and mpmath stay test-only), and no module
keeps a ``functools`` cache.  Every module-level function and class, and
every non-dunder method, is reached by a subcommand or listed in UNROUTED
with a reason; code that only tests call lives under ``tests/``, and the
package exports only defs that a subcommand reaches.  Every line of a
function body is run by a golden CLI case, lies in a def in UNROUTED, or is
listed in UNROUTED_LINES with a reason.  Both lists are exact: an entry that
a case reaches fails the check too.  One traced run of the golden corpus
serves both checks.  No module, in the package or its tests, imports a name
it never uses."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_module_imports_fractions_when_it_loads():
    # fractions comes with the first true Fraction (series._rat), so a
    # module may import it only inside a function
    for path in sorted(Path(qmoon.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "fractions" not in names, f"{path.name} imports fractions at load"


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
    "cli.main": "the console-script entry point, which ends the process, so no in-process "
                "golden case can run it; tests/test_cli.py's spawns of python -m qmoon.cli "
                "run its lines: test_module_run_reads_sys_argv, the closed and full stdout "
                "cases, the atexit, hook and thread cases and the cProfile case",
    "borcherds.printed_coefficient_report": "the published f_4 and f_6 coefficients against "
                                            "the catalog formulas; no subcommand prints it yet",
    "maass._CoeffTable.coeff": "a table's one lookup that refuses past disc_bound; the "
                               "Maass check compares whole coefficient dicts instead",
    "series.NomeMismatch": "the guard against mixing full- and half-nome series; the catalog "
                           "never mixes them, so no valid input raises it",
    "series.exp_series": "named by perfbench/shim.py's series.exp span, its only caller; it "
                         "leaves when the shim reads its counts from the package (ROADMAP item 1)",
    "series.log_series": "named by perfbench/shim.py's series.log span, its only caller; it "
                         "leaves when the shim reads its counts from the package (ROADMAP item 1)",
    "series.QSeries.invert": "named by perfbench/shim.py's series.invert span; no subcommand "
                             "inverts since the Eisenstein series read B_k from an integer "
                             "recurrence, which ran 480 ms faster on E130 than an inverse",
}

# Lines of function bodies that no golden case runs, kept on purpose: under
# the def they lie in (named as in UNROUTED, dunders included), each line's
# stripped source with the reason.  A line that continues a statement goes by
# the statement's first line; a lambda or comprehension goes with its def.  A
# def in UNROUTED excuses all of its lines.
_SHOW = "a dunder for display; no subcommand prints the object"
_SAME = "a dunder for comparison; no subcommand compares two of these objects"
_ALIEN = "an operand of another type; every route combines a series with a series or a rational"
UNROUTED_LINES = {
    "borcherds.PlusForm.__init__": {
        'raise ValueError("not in the plus space; offending (exponent, coefficient): "':
            "a self-check: the Q every catalog form reads lies in the plus space",
    },
    "borcherds.PlusForm.coeff": {
        'raise ValueError(f"coefficient at {e} unknown (trunc {self.trunc})")':
            "lift refuses a form known short of q^(order^2) first, and zeromult reads "
            "only the principal part",
    },
    "borcherds.catalog": {
        'raise ValueError(f"unknown catalog form {name!r}; have {\', \'.join(CATALOG_NAMES)}")':
            "argparse's choices for --name refuse any other name first",
    },
    "borcherds.hurwitz_range": {
        'raise ArithmeticError(f"H({n}) = {_fmt_rat(t, 12)} breaks the class-number "':
            "a self-check of the walk; every H(n) meets the constraints",
    },
    "borcherds.lift": {
        'raise ValueError("order must be >= 1")':
            "catalog refuses order < 1 first; every caller builds its form with it",
        'raise ValueError(f"lift to order {order} reads c(n^2) up to n = {order}; "':
            "every caller builds its form through q^(order^2)",
    },
    "forms.scaled_bernoulli": {
        'raise ValueError("Bernoulli numbers indexed by nonnegative integers")':
            "eisenstein, its only caller, passes a weight >= 4",
    },
    "forms.delta": {
        'raise ValueError("order must be >= 0")':
            "every caller passes an order >= 0; the CLI refuses a negative --order first",
    },
    "forms.leech_theta": {
        "raise ArithmeticError(": "a self-check of the kernel; the two constructions agree",
    },
    "forms.theta_nullwerte": {
        'raise ValueError(f"theta constant index must be 2, 3, or 4, got {which}")':
            "every caller passes 2, 3 or 4",
    },
    "identities.identity_sides": {
        'raise ValueError(f"unknown identity label {name!r}")':
            "argparse's choices refuse any other label first",
    },
    "maass._CoeffTable.__eq__": dict.fromkeys((
        "if type(other) is not type(self):",
        "return NotImplemented",
        "return (self._head(), self.coeffs) == (other._head(), other.coeffs)",
    ), _SAME),
    "maass._CoeffTable.__repr__": dict.fromkeys((
        'head = "".join(f"{field}={value}, " for field, value in self._head().items())',
        'return (f"{type(self).__name__}({head}support={len(self.coeffs)}, "',
    ), _SHOW),
    "maass.v_operator": {
        'raise ValueError(f"m must be a positive integer, got {m}")':
            "assemble_maass refuses max_m < 1 first, and the check's layers are keys m >= 1",
    },
    "moonshine.bi_exp": {
        'raise ValueError("bivariate exp needs a positive power of the first variable")':
            "replication_exponent, its only caller, builds first-variable powers >= 1",
    },
    "moonshine.moonshine_c": dict.fromkeys((
        'raise ValueError("moonshine coefficients start q^-1 + 0 + 196884q + ...")',
        'raise ValueError(f"c({n}) = {v} must be positive")',
    ), "a shape self-check of the catalog's j - 744, which it passes at every order"),
    "mults.MultReport.__init__": dict.fromkeys((
        'raise ValueError(f"norms must be even, got {norm}")',
        'raise ValueError(f"multiplicity must be >= 0, got {exact}")',
    ), "frenkel_compare, its only caller, builds even norms and nonnegative counts"),
    "mults.MultReport.__repr__": {
        'return (f"MultReport({self.algebra}, rows={len(self.rows)}, "': _SHOW,
    },
    "mults.frenkel_compare": {
        'raise ValueError(f"rows need even norms <= 2, got {norm}")':
            "_cmd_mult_table passes only even norms <= 2",
    },
    "series._num": {
        'raise TypeError(f"exact rational expected, got {type(x).__name__}")':
            "a number that is not rational; every route passes an int or a Fraction",
    },
    "series.VerifyReport.__repr__": dict.fromkeys((
        'tail = "passed" if self.passed else f"mismatch at {self.first_mismatch[0]}"',
        'return f"VerifyReport({self.name}, order={self.order}, {tail})"',
    ), _SHOW),
    "series.QSeries.__init__": {
        'raise ValueError(f"unknown nome convention {nome!r}")':
            "from_json checks a file's nome first, and the catalog passes FULL or HALF",
        'raise ValueError(f"stored exponent {e} above trunc {self.trunc}")':
            "from_json checks a file's exponents first, and every result keeps its terms "
            "at or below trunc",
    },
    "series.QSeries.coeff": {
        'raise ValueError(f"coefficient at {e} unknown (trunc {self.trunc})")':
            "every caller reads within the known range",
    },
    "series.QSeries.__repr__": {
        'return (f"QSeries({self.nome}, prefactor={_fmt_rat(self.pre24, 24)}, "': _SHOW,
    },
    "series.QSeries._check_compat": {
        'raise NomeMismatch(f"cannot combine {self.nome}-nome with {other.nome}-nome series")':
            "the catalog never mixes nomes (series.NomeMismatch in UNROUTED)",
    },
    "series.QSeries.__add__": {
        "return NotImplemented": _ALIEN,
        'raise ValueError(f"prefactor mismatch on add: {_fmt_rat(self.pre24, 24)} vs "':
            "every route adds series of one prefactor",
    },
    "series.QSeries.__sub__": {"return NotImplemented": _ALIEN},
    "series.QSeries.__mul__": {"return NotImplemented": _ALIEN},
    "series.QSeries.__pow__": {
        "return NotImplemented": "a negative or non-int power; the catalog takes powers >= 0",
    },
    "series.QSeries.__truediv__": {
        "return NotImplemented": _ALIEN,
        'raise ValueError("cannot divide by the zero series")':
            "every divisor the catalog forms is nonzero",
    },
    "series.QSeries.scale_var": {
        'raise ValueError("scale factor must be a positive integer")':
            "every caller scales by 2 or 4",
    },
    "series.QSeries.first_mismatch": {
        'raise ValueError(f"prefactor mismatch in comparison: {_fmt_rat(a.pre24, 24)} vs "':
            "the two sides of every check carry one prefactor",
    },
    "series.QSeries.__eq__": dict.fromkeys((
        "if not isinstance(other, QSeries):",
        "return NotImplemented",
        "return self.agrees_with(other)",
    ), _SAME),
    "series.ExponentTable.__init__": {
        'raise ValueError(f"exponent index {n} outside 1..{self.order}")':
            "every caller builds indices 1..order",
    },
    "series.ExponentTable.__getitem__": dict.fromkeys((
        "if not 1 <= n <= self.order:",
        'raise ValueError(f"exponent e_{n} unknown (order {self.order})")',
        "return self.exps.get(n, 0)",
    ), "a dunder for lookup; routes read the table whole, through to_json"),
    "series.ExponentTable.__eq__": dict.fromkeys((
        "if not isinstance(other, ExponentTable):",
        "return NotImplemented",
        "order = min(self.order, other.order)",
        "return self.h24 == other.h24 and \\",
    ), _SAME),
    "series.ExponentTable.__repr__": {
        'return f"ExponentTable(h={_fmt_rat(self.h24, 24)}, order={self.order})"': _SHOW,
    },
    "series._cut_runs": {
        "out.append((lo, hi, v))":
            "a run below the one a y-top cuts; ROADMAP item 10 brings multi-run rows, "
            "and this is their case under a y-top",
    },
    "series.BiSeries.__init__": {
        'raise ValueError(f"stored exponent {ex} above cap {self.cap}")':
            "every builder stores terms up to its cap only",
    },
    "series.BiSeries.__repr__": {
        'return f"BiSeries({len(self.coeffs)} terms, cap={self.cap}, ytop={self.ytop})"': _SHOW,
    },
    # test_binomial_expanders checks that every caller's starts and factors
    # lie in the domain these three refuse to leave
    "series.BiSeries.mul_binomials": dict.fromkeys((
        'raise ValueError("stored coefficients must be integers and "',
        'raise ValueError("factor needs a >= 0, sign +1 or -1 and an integer e >= -1")',
        'raise ValueError("factor constant in the capped variable needs e >= 0 "',
    ), "a guard on the domain its callers build in"),
    "series.BiSeries.__eq__": dict.fromkeys((
        "if not isinstance(other, BiSeries):",
        "return NotImplemented",
        "return self.first_mismatch(other) is None",
    ), _SAME),
    "vsys.VectorSystem.__init__": {
        'raise ValueError(f"vector {v} has wrong dimension")':
            "from_json's table reader refuses a key of the wrong length first",
    },
    "vsys.VectorSystem.__repr__": {
        'return f"VectorSystem(dim={self.dim}, support={len(self.mult)})"': _SHOW,
    },
}

# Runs every golden CLI case in one process under a trace hook installed
# before qmoon is imported, so code run at import counts too.  It prints the
# (file, first line) of every code object under src/qmoon that was entered,
# the NamedTuple classes built, the (file, line) of every line run, and the
# executable lines of every function body in src/qmoon.  A code object is
# traced line by line only until each of its lines has run once.
_ROUTE_TRACE = """
import inspect, json, os, sys
from pathlib import Path

src, workdir = sys.argv[1], sys.argv[2]
entered, built, left = set(), set(), {}


def body_lines(code):
    # a def's own first line runs in the code that defines it, not in its body
    lines = {line for _, _, line in code.co_lines()} - {None}
    if not code.co_name.startswith("<"):
        lines.discard(code.co_firstlineno)
    return lines


def first_call(frame):
    # the lines still to run of a code object called for the first time
    code = frame.f_code
    if code.co_filename.startswith(src):
        entered.add((code.co_filename, code.co_firstlineno))
        return body_lines(code)
    if code.co_name == "<lambda>" and "_cls" in code.co_varnames:
        # a NamedTuple's __new__ is generated from a string, once per class;
        # credit its class
        cls = frame.f_locals["_cls"]
        built.add(f"{cls.__module__}.{cls.__qualname__}")
    return set()


def line(frame, event, arg):
    if event == "line":
        todo = left[frame.f_code]
        todo.discard(frame.f_lineno)
        if not todo:  # every line of this code has run: stop tracing the frame
            return None
    return line


def call(frame, event, arg):
    todo = left.get(frame.f_code)
    if todo is None:
        todo = left[frame.f_code] = first_call(frame)
    return line if todo else None


sys.settrace(call)
import test_golden_cli as golden

os.chdir(workdir)
golden._write_inputs(Path(workdir))
for argv in golden.CASES:
    golden._invoke(argv)
for argv in golden.USAGE_CASES:
    golden._invoke_usage(argv)
sys.settrace(None)

ran = {(code.co_filename, n) for code, todo in left.items()
       if code.co_filename.startswith(src) for n in body_lines(code) - todo}
executable = set()  # the lines of every function, lambda and comprehension
for path in Path(src).glob("*.py"):
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += filter(inspect.iscode, code.co_consts)
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            executable.update((str(path), n) for n in body_lines(code))
print(json.dumps([sorted(entered), sorted(built), sorted(ran), sorted(executable)]))
"""


@pytest.fixture(scope="module")
def route_trace(tmp_path_factory):
    """The golden corpus traced once: the (file name, line) of the first line of
    each code object entered, the NamedTuples built, the (file name, line) of
    each line run, and those of each line of a function body."""
    src = Path(qmoon.__file__).parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src.parent), str(Path(__file__).parent)])
    env["COLUMNS"] = "80"
    workdir = tmp_path_factory.mktemp("route")
    done = subprocess.run([sys.executable, "-c", _ROUTE_TRACE, str(src), str(workdir)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    entered, built, ran, executable = json.loads(done.stdout.splitlines()[-1])

    def by_file(pairs):
        return {(Path(name).name, line) for name, line in pairs}

    return by_file(entered), set(built), by_file(ran), by_file(executable)


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


def test_every_module_level_def_is_reached_by_a_subcommand(route_trace):
    entered, built, _, _ = route_trace
    src = Path(qmoon.__file__).parent
    defined, reached, unreached = set(), set(), []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for name, first, last, is_class in _module_level_defs(path):
            qualified = f"{module}.{name}"
            defined.add(qualified)
            # a class body runs at import; a class is reached when code inside it runs
            low = first + 1 if is_class else first
            if any((path.name, line) in entered for line in range(low, last + 1)) \
                    or f"qmoon.{qualified}" in built:
                reached.add(qualified)
            elif qualified not in UNROUTED:
                unreached.append(qualified)
    assert set(UNROUTED) <= defined, set(UNROUTED) - defined
    assert unreached == [], f"reached by no subcommand, only by tests: {unreached}"
    assert set(UNROUTED) & reached == set(), "listed in UNROUTED, yet a subcommand reaches it"
    exported = {f"{getattr(qmoon, name).__module__.removeprefix('qmoon.')}.{name}"
                for name in set(qmoon.__all__) - {"FULL", "HALF", "__version__"}}
    assert exported <= reached, f"exported but reached by no subcommand: {exported - reached}"


def _statements(path):
    """{line: (def, statement)} over the statement lines of path.  def names the
    module-level def or method the line lies in as UNROUTED does, dunders
    included, or the module outside every def; statement is the stripped
    first line of the innermost statement that holds the line."""
    source = path.read_text(encoding="utf-8")
    tree, text = ast.parse(source), source.splitlines()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []
    for node in tree.body:
        if isinstance(node, functions):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{item.name}", item) for item in node.body
                     if isinstance(item, functions)]
    owner, first = {}, {}
    for name, node in defs:
        owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), f"{path.stem}.{name}"))
    for node in ast.walk(tree):  # each statement after every statement around it
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            first.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.lineno))
    return {line: (owner.get(line, path.stem), text[start - 1].strip())
            for line, start in first.items()}


def test_every_line_is_run_by_a_subcommand_or_listed(route_trace):
    _, _, ran, executable = route_trace
    src = Path(qmoon.__file__).parent
    statements = {path.name: _statements(path) for path in src.glob("*.py")}
    unrun = {statements[name][line] for name, line in executable - ran}
    unrun = {(owner, text) for owner, text in unrun
             if not any(owner == d or owner.startswith(f"{d}.") for d in UNROUTED)}
    listed = {(owner, text) for owner, lines in UNROUTED_LINES.items() for text in lines}
    assert all(reason for lines in UNROUTED_LINES.values() for reason in lines.values())
    assert sorted(unrun - listed) == [], "run by no subcommand, and listed with no reason"
    assert sorted(listed - unrun) == [], "listed, but a subcommand runs them or they are gone"


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
