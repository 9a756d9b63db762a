"""Append perfbench end-to-end results to the committed trajectory.

    python3 tools/bench_record.py perfbench/out/dense-lift-seed1-trace0.json [...]

Each argument is a record that ``perfbench/run.py --trace 0`` wrote.  One
small record per file is appended to ``BENCH_<workload>.json`` at the
repository root (a JSON list, oldest first): the commit and source digest
the run measured, its seed, length and Python, the four end-to-end medians,
the ops attempted and failed, and ``floor_s``, the process floor: the median
wall time of 11 ``python3 -c pass`` spawns, taken when the record is
appended, so that records of slower and faster days can be told apart.
``floor_exit_s`` is the same median for ``python3 -c "import os;
os._exit(0)"``, which skips interpreter teardown as a qmoon process does.
Records written before a floor was kept lack its field.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "op_p50_s", "peak_rss_mb", "setup_s")
FLOORS = {"floor_s": "pass", "floor_exit_s": "import os; os._exit(0)"}  # field: python -c code


def summarize(run: dict) -> dict:
    """The trajectory record of one perfbench run record."""
    if run.get("trace") != 0:
        raise ValueError("only a --trace 0 run carries the end-to-end medians")
    wrong = [name for name, op in run["ops"].items() if op["status"] == "wrong"]
    if wrong:
        raise ValueError(f"ops with wrong output measure nothing: {', '.join(wrong)}")
    return {"commit": run["commit"], "src_sha256": run["src_sha256"], "seed": run["seed"],
            "seconds": run["seconds"], "python": run["python"],
            **{name: run["metrics"][name]["value"] for name in END_TO_END},
            "attempted": run["attempted"], "failed": run["failed"]}


def process_floor(spawns: int = 11, code: str = "pass") -> float:
    """The median wall time in seconds of ``spawns`` runs of ``python3 -c code``."""
    times = []
    for _ in range(spawns):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t)
    return round(statistics.median(times), 6)


def append(run_path: Path, root: Path = ROOT) -> Path:
    """Append the record of one run, with the process floors now, to its workload's
    trajectory file; return that file."""
    run = json.loads(run_path.read_text(encoding="utf-8"))
    target = root / f"BENCH_{run['workload']}.json"
    records = json.loads(target.read_text(encoding="utf-8")) if target.exists() else []
    records.append({**summarize(run),
                    **{field: process_floor(code=code) for field, code in FLOORS.items()}})
    target.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return target


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for name in argv:
        try:
            print(append(Path(name)))
        except (OSError, ValueError, KeyError) as exc:
            print(f"bench_record: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
