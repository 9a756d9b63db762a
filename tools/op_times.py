"""Time each op of one perfbench workload in process, import excluded, and as a whole process.

    python3 tools/op_times.py --workload bivariate-verify [--seed 1] [--repeat 7]
                              [--op "verify all 90" ...] [--src DIR ...]

The op list is the one ``perfbench/workloads.py`` builds for the workload
and seed; its input files go to a temporary directory.  Each run of an op
is a fresh Python process that times ``import qmoon.cli`` apart, then one
``cli.run(argv)`` call with stdout and stderr captured.  One untimed run of
each op first writes the .pyc files of the modules it imports lazily (the
children may write bytecode whatever PYTHONDONTWRITEBYTECODE says), and it
must exit with the code the workload expects and pass its stdout check.
So must one untimed ``python -m qmoon.cli ARGV`` spawn, the process the
benchmark runs.  Then the timed runs go round the ops --repeat times, each
run followed by one timed spawn.  The table gives the best and the median
run of each op in milliseconds, the median import, the median spawn's wall
time, and the sums of all four.  The import column shows where a lazily
imported module's cost went: a module that ``import qmoon.cli`` no longer
loads moves into the run of each op that needs it, and out of the others.
The process column holds what the run column leaves out: the interpreter's
start-up, ``cli.main`` and the end of the process, so a change to any of
them shows there alone.  A last column says whether the untimed run had
loaded ``fractions`` once ``cli.run`` returned, and its total counts the
ops that had.
``--src`` times another tree's ``src`` directory (a parent checkout, say)
on the same ops.  Given more than once, each round times every op on each
tree in turn, and the next round takes the trees in the other order, so
that the machine's drift falls on every tree alike; the table then gives
each tree's three columns, tagged [1], [2], ... in the order of the flags.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """\
import io, json, sys, time
from contextlib import redirect_stderr, redirect_stdout
start = time.perf_counter()
from qmoon import cli
imported = time.perf_counter() - start
out = io.StringIO()
with redirect_stdout(out), redirect_stderr(io.StringIO()):
    start = time.perf_counter()
    code = cli.run(sys.argv[1:])
    elapsed = time.perf_counter() - start
print(json.dumps({"exit": code, "s": elapsed, "import_s": imported, "stdout": out.getvalue(),
                  "fractions": "fractions" in sys.modules}))
"""


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _env(src: Path) -> dict:
    drop = ("QMOON_DEFAULT_ORDER", "PYTHONDONTWRITEBYTECODE")
    return {**{k: v for k, v in os.environ.items() if k not in drop}, "PYTHONPATH": str(src)}


def time_once(argv, src: Path) -> dict:
    """One fresh process's {"exit", "s", "import_s", "stdout", "fractions"} for ``qmoon argv``."""
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=_env(src),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def spawn_once(argv, src: Path) -> dict:
    """{"exit", "s", "stdout"} of one ``python -m qmoon.cli argv``, "s" its wall time."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "qmoon.cli", *argv], env=_env(src),
                          capture_output=True, text=True)
    return {"exit": done.returncode, "s": time.perf_counter() - start, "stdout": done.stdout}


def op_times(workload: str, seed: int, repeat: int, names=(), srcs=(ROOT / "src",)):
    """[{op name: (whether it loads fractions, [(run, import, process) seconds of each run])}
    for each tree] for the workload's ops, or those named; each round alternates which tree
    runs an op first."""
    workloads = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.build(workload, seed, Path(tmp))
        if names:
            unknown = set(names) - {op.name for op in ops}
            if unknown:
                raise ValueError(f"no op named {', '.join(sorted(unknown))} in {workload} "
                                 f"seed {seed}")
            ops = [op for op in ops if op.name in names]
        times = [{} for _ in srcs]
        for op in ops:  # untimed: checks each op and writes the .pyc files it needs
            for src, tree in zip(srcs, times):
                run = time_once(op.argv, src)
                for how, done in (("", run), (" as a process", spawn_once(op.argv, src))):
                    problem = (f"exit {done['exit']}, want {op.expect}"
                               if done["exit"] != op.expect else op.check(done["stdout"]))
                    if problem:
                        raise ValueError(f"{op.name}{how}: {problem}")
                tree[op.name] = (run["fractions"], [])
        trees = list(zip(srcs, times))
        for r in range(repeat):
            for op in ops:
                for src, tree in trees[::-1] if r % 2 else trees:
                    run = time_once(op.argv, src)
                    tree[op.name][1].append((run["s"], run["import_s"],
                                             spawn_once(op.argv, src)["s"]))
    return times


def table(*trees) -> str:
    """Each op's best run, median run, median import and median process in ms, whether it
    loads fractions, and the sums (of ms, and of the ops that load fractions), for each
    tree's {op name: (loads fractions, runs)}; with several trees, tree k's columns are
    tagged [k]."""
    tags = [f" [{k}]" if len(trees) > 1 else "" for k in range(1, len(trees) + 1)]
    heads = [f"{head}{tag}" for tag in tags
             for head in ("best ms", "median ms", "import ms", "process ms", "fractions")]
    rows = [(name, *(x for fractions, runs in (times[name] for times in trees)
                     for x in (min(s for s, _, _ in runs) * 1e3,
                               *(statistics.median(col) * 1e3 for col in zip(*runs)),
                               fractions)))
            for name in trees[0]]
    width = max([len("total")] + [len(row[0]) for row in rows])
    col = max(len(head) for head in heads)

    def cell(x):  # ms to 0.01, a bool as yes or no, and a count of bools as it is
        if type(x) is float:
            x = f"{x:.2f}"
        elif type(x) is bool:
            x = "yes" if x else "no"
        return f"  {x:>{col}}"

    lines = [f"{'op':<{width}}" + "".join(f"  {head:>{col}}" for head in heads)]
    lines += [f"{name:<{width}}" + "".join(map(cell, xs)) for name, *xs in rows]
    lines.append(f"{'total':<{width}}" + "".join(cell(sum(r[k] for r in rows))
                                                 for k in range(1, len(heads) + 1)))
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=_workloads().WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=7, help="runs of each op (default 7)")
    p.add_argument("--op", action="append", default=[], help="time only this op; repeatable")
    p.add_argument("--src", type=Path, action="append", default=[],
                   help="source tree to time (default src); repeatable, then alternated")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
    try:
        times = op_times(args.workload, args.seed, args.repeat, args.op, srcs)
    except (ValueError, subprocess.CalledProcessError) as exc:
        print(f"op_times: {exc}", file=sys.stderr)
        return 1
    print(table(*times))
    if len(srcs) > 1:
        print("\n".join(f"[{k}] {src}" for k, src in enumerate(srcs, 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
