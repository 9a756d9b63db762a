"""Time each op of one perfbench workload in process, import excluded.

    python3 tools/op_times.py --workload bivariate-verify [--seed 1] [--repeat 7]
                              [--op "verify all 90" ...] [--src DIR]

The op list is the one ``perfbench/workloads.py`` builds for the workload
and seed; its input files go to a temporary directory.  Each run of an op
is a fresh Python process that imports ``qmoon.cli`` untimed, then times one
``cli.run(argv)`` call with stdout and stderr captured.  One untimed run of
each op first writes the .pyc files of the modules it imports lazily (the
children may write bytecode whatever PYTHONDONTWRITEBYTECODE says), and it
must exit with the code the workload expects and pass its stdout check.
Then the timed runs go round the ops --repeat times.  The table gives the
best and the median run of each op in milliseconds, and the sums of both.
``--src`` times another tree's ``src`` directory (a parent checkout, say)
on the same ops.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """\
import io, json, sys, time
from contextlib import redirect_stderr, redirect_stdout
from qmoon import cli
out = io.StringIO()
with redirect_stdout(out), redirect_stderr(io.StringIO()):
    start = time.perf_counter()
    code = cli.run(sys.argv[1:])
    elapsed = time.perf_counter() - start
print(json.dumps({"exit": code, "s": elapsed, "stdout": out.getvalue()}))
"""


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def time_once(argv, src: Path) -> dict:
    """One fresh process's {"exit", "s", "stdout"} for ``qmoon argv``."""
    drop = ("QMOON_DEFAULT_ORDER", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def op_times(workload: str, seed: int, repeat: int, names=(), src: Path = ROOT / "src"):
    """{op name: [seconds of each run]} for the workload's ops, or those named."""
    workloads = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.build(workload, seed, Path(tmp))
        if names:
            unknown = set(names) - {op.name for op in ops}
            if unknown:
                raise ValueError(f"no op named {', '.join(sorted(unknown))} in {workload} "
                                 f"seed {seed}")
            ops = [op for op in ops if op.name in names]
        for op in ops:  # untimed: checks each op and writes the .pyc files it needs
            run = time_once(op.argv, src)
            problem = (f"exit {run['exit']}, want {op.expect}"
                       if run["exit"] != op.expect else op.check(run["stdout"]))
            if problem:
                raise ValueError(f"{op.name}: {problem}")
        times = {op.name: [] for op in ops}
        for _ in range(repeat):
            for op in ops:
                times[op.name].append(time_once(op.argv, src)["s"])
    return times


def table(times: dict) -> str:
    rows = [(name, min(ts) * 1e3, statistics.median(ts) * 1e3) for name, ts in times.items()]
    width = max([len("total")] + [len(name) for name, _, _ in rows])
    lines = [f"{'op':<{width}}  {'best ms':>9}  {'median ms':>9}"]
    lines += [f"{name:<{width}}  {best:9.2f}  {mid:9.2f}" for name, best, mid in rows]
    lines.append(f"{'total':<{width}}  {sum(r[1] for r in rows):9.2f}  "
                 f"{sum(r[2] for r in rows):9.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=_workloads().WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=7, help="runs of each op (default 7)")
    p.add_argument("--op", action="append", default=[], help="time only this op; repeatable")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to time")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    try:
        times = op_times(args.workload, args.seed, args.repeat, args.op, args.src.resolve())
    except (ValueError, subprocess.CalledProcessError) as exc:
        print(f"op_times: {exc}", file=sys.stderr)
        return 1
    print(table(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
