"""Pair a parent's and a change's perfbench records by seed and tabulate them.

    python3 tools/bench_pairs.py PARENT CHANGE [--workload W]

PARENT and CHANGE are commits, or unique prefixes of them, as the records in
``BENCH_<workload>.json`` name them (``tools/bench_record.py`` writes them).
A seed recorded for both commits is one pair.  For each workload with records
of either commit (or only W), the table gives, per end-to-end metric, the
parent's median with its quartiles in brackets, the change's median, the
change in percent and in how many pairs the change read lower.  It refuses a
seed recorded for one side only or twice for one side, fewer than two pairs,
and records of different ``seconds`` or Python versions in one workload:
those runs are not alike, so their medians do not compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import END_TO_END, ROOT


def pairs(records: list, parent: str, change: str) -> dict:
    """{seed: (parent record, change record)} of one workload's records."""
    sides = []
    for commit in (parent, change):
        runs = [r for r in records if r["commit"].startswith(commit)]
        if len({r["commit"] for r in runs}) > 1:
            raise ValueError(f"{commit} is the prefix of more than one commit")
        seeds = [r["seed"] for r in runs]
        twice = sorted({seed for seed in seeds if seeds.count(seed) > 1})
        if twice:
            raise ValueError(f"{commit} has seeds recorded twice: {twice}")
        sides.append({r["seed"]: r for r in runs})
    unpaired = sorted(set(sides[0]) ^ set(sides[1]))
    if unpaired:
        raise ValueError(f"seeds recorded for one side only: {unpaired}")
    if len(sides[0]) < 2:
        raise ValueError("quartiles need two pairs at least")
    for field in ("seconds", "python"):
        values = {r[field] for side in sides for r in side.values()}
        if len(values) > 1:
            raise ValueError(f"records of different {field}: {sorted(values)}")
    return {seed: (sides[0][seed], sides[1][seed]) for seed in sorted(sides[0])}


def compare(paired: dict) -> dict:
    """{metric: (parent median, (q1, q3) of the parent, change median, percent
    change, pairs where the change read lower)} over paired records."""
    out = {}
    for metric in END_TO_END:
        before = [p[metric] for p, _ in paired.values()]
        after = [c[metric] for _, c in paired.values()]
        q1, _, q3 = statistics.quantiles(before, n=4)
        old, new = statistics.median(before), statistics.median(after)
        out[metric] = (old, (q1, q3), new, 100 * (new / old - 1),
                       sum(c < p for p, c in zip(before, after)))
    return out


def _seeds(seeds) -> str:
    if seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}–{seeds[-1]}"
    return ", ".join(map(str, seeds))


def table(parent: str, change: str, workloads=(), root: Path = ROOT) -> list:
    """The Markdown lines of the table for the named workloads, or for every
    workload with records of either commit."""
    lines = ["| workload | seeds | metric | parent [quartiles] | change | % | lower in |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    paths = [root / f"BENCH_{name}.json" for name in workloads] or \
        sorted(root.glob("BENCH_*.json"))
    for path in paths:
        records = json.loads(path.read_text(encoding="utf-8"))
        if not workloads and not any(r["commit"].startswith((parent, change)) for r in records):
            continue
        paired = pairs(records, parent, change)
        name = path.stem.removeprefix("BENCH_")
        for metric, (old, (q1, q3), new, pct, lower) in compare(paired).items():
            lines.append(f"| {name} | {_seeds(list(paired))} | `{metric}` | {old:#.4g} "
                         f"[{q1:#.4g}, {q3:#.4g}] | {new:#.4g} | {pct:+.1f}% | "
                         f"{lower} of {len(paired)} |")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", default=[])
    args = parser.parse_args(argv)
    try:
        lines = table(args.parent, args.change, args.workload, ROOT)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_pairs: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
