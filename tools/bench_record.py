"""Append perfbench end-to-end results to the committed trajectory.

    python3 tools/bench_record.py perfbench/out/dense-lift-seed1-trace0.json [...]

Each argument is a record that ``perfbench/run.py --trace 0`` wrote.  One
small record per file is appended to ``BENCH_<workload>.json`` at the
repository root (a JSON list, oldest first): the commit and source digest
the run measured, its seed, length and Python, the four end-to-end medians,
and the ops attempted and failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "op_p50_s", "peak_rss_mb", "setup_s")


def summarize(run: dict) -> dict:
    """The trajectory record of one perfbench run record."""
    if run.get("trace") != 0:
        raise ValueError("only a --trace 0 run carries the end-to-end medians")
    return {"commit": run["commit"], "src_sha256": run["src_sha256"], "seed": run["seed"],
            "seconds": run["seconds"], "python": run["python"],
            **{name: run["metrics"][name]["value"] for name in END_TO_END},
            "attempted": run["attempted"], "failed": run["failed"]}


def append(run_path: Path, root: Path = ROOT) -> Path:
    """Append the record of one run to its workload's trajectory file; return that file."""
    run = json.loads(run_path.read_text(encoding="utf-8"))
    target = root / f"BENCH_{run['workload']}.json"
    records = json.loads(target.read_text(encoding="utf-8")) if target.exists() else []
    records.append(summarize(run))
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
