"""tools/bench_record.py turns perfbench run records into the committed
trajectory, and tools/bench_pairs.py reads it back as a parent-against-change
table."""

import importlib.util
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_SPEC = importlib.util.spec_from_file_location("bench_record", _TOOLS / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)
_PROCESS_FLOOR = bench_record.process_floor


@pytest.fixture(autouse=True)
def _floor(monkeypatch):
    """Fixed process floors, so appending a record spawns no interpreter."""
    monkeypatch.setattr(bench_record, "process_floor",
                        lambda code: 0.04 if code == "pass" else 0.03)


def _run(tmp_path, seed, trace=0, ops=None):
    metrics = {name: {"value": i + seed / 10, "unit": "s", "samples": 5}
               for i, name in enumerate(bench_record.END_TO_END)}
    run = {"workload": "dense-lift", "seed": seed, "seconds": 20, "trace": trace,
           "python": "3.11.7", "commit": "abc", "src_sha256": "f00", "metrics": metrics,
           "attempted": 40, "failed": 0, "ops": ops or {}}
    path = tmp_path / f"dense-lift-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(run))
    return path


def test_records_append_in_order(tmp_path):
    for seed in (1, 2):
        target = bench_record.append(_run(tmp_path, seed), root=tmp_path)
    assert target == tmp_path / "BENCH_dense-lift.json"
    records = json.loads(target.read_text())
    assert [r["seed"] for r in records] == [1, 2]
    assert records[1] == {"commit": "abc", "src_sha256": "f00", "seed": 2, "seconds": 20,
                          "python": "3.11.7", "wall_s": 0.2, "op_p50_s": 1.2,
                          "peak_rss_mb": 2.2, "setup_s": 3.2, "attempted": 40, "failed": 0,
                          "floor_s": 0.04, "floor_exit_s": 0.03}


def test_the_floor_is_the_median_of_timed_spawns(monkeypatch):
    spawned, clock = [], iter([0.0, 0.05, 1.0, 1.02, 2.0, 2.03])  # 50, 20 and 30 ms

    def run(argv, check):
        spawned.append((argv, check))

    monkeypatch.setattr(bench_record, "subprocess", SimpleNamespace(run=run))
    monkeypatch.setattr(bench_record, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    assert _PROCESS_FLOOR(3) == 0.03
    assert spawned == [([sys.executable, "-c", "pass"], True)] * 3


def test_the_exit_floor_spawns_an_interpreter_that_skips_teardown(monkeypatch):
    spawned = []
    monkeypatch.setattr(bench_record, "subprocess",
                        SimpleNamespace(run=lambda argv, check: spawned.append(argv)))
    _PROCESS_FLOOR(2, code=bench_record.FLOORS["floor_exit_s"])
    assert spawned == [[sys.executable, "-c", "import os; os._exit(0)"]] * 2


def test_a_traced_run_is_refused(tmp_path, capsys):
    path = _run(tmp_path, 1, trace=1)
    with pytest.raises(ValueError):
        bench_record.append(path, root=tmp_path)
    assert bench_record.main([str(path)]) == 1
    assert "only a --trace 0 run" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_dense-lift.json").exists()


def test_a_run_with_wrong_output_is_refused(tmp_path, capsys):
    ops = {"lift f_j 50": {"status": "ok"}, "expand j 300": {"status": "failed"},
           "factor j 240": {"status": "wrong"}}
    path = _run(tmp_path, 1, ops=ops)
    with pytest.raises(ValueError, match="factor j 240$"):
        bench_record.append(path, root=tmp_path)
    assert bench_record.main([str(path)]) == 1
    assert "ops with wrong output" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_dense-lift.json").exists()
    del ops["factor j 240"]
    bench_record.append(_run(tmp_path, 2, ops=ops), root=tmp_path)
    assert (tmp_path / "BENCH_dense-lift.json").exists()


sys.path.insert(0, str(_TOOLS))  # bench_pairs imports bench_record, as it does when run as a script
try:
    _SPEC = importlib.util.spec_from_file_location("bench_pairs", _TOOLS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(_SPEC)
    _SPEC.loader.exec_module(bench_pairs)
finally:
    sys.path.pop(0)

# The table CHANGES.md quotes for parent 68b8363 against 6e52695, written by
# hand from the committed records: per workload its seeds, the parent's
# wall_s median [quartiles] and the change's, the pairs where the change read
# lower, and the op_p50_s, peak_rss_mb and setup_s medians.
_QUOTED = """\
| dense-lift | 361–365 | 0.7203 [0.7187, 0.7214] → 0.7194 | 4 of 5 | 0.0716 → 0.0715 | 16.04 → 15.96 | 0.0611 → 0.0611 |
| bivariate-verify | 371–375 | 0.7289 [0.7282, 0.7294] → 0.7285 | 4 of 5 | 0.0748 → 0.0748 | 15.90 → 15.87 | 0.0611 → 0.0610 |
| order-sweep | 381–385 | 0.4657 [0.4652, 0.4680] → 0.4655 | 5 of 5 | 0.0654 → 0.0654 | 15.58 → 15.55 | 0.0609 → 0.0609 |
| cli-burst | 391–395 | 4.172 [4.169, 4.187] → 4.173 | 3 of 5 | 0.0632 → 0.0632 | 14.92 → 14.97 | 0.0611 → 0.0610 |
"""


def _agrees(quoted, value):
    """Whether value rounds to the figure quoted, at the digits quoted."""
    digits = len(quoted.partition(".")[2])
    return abs(value - float(quoted)) <= 0.5 * 10 ** -digits + 1e-12


def test_pairs_reproduce_a_quoted_table():
    root = _TOOLS.parent
    printed = bench_pairs.table("68b8363", "6e52695", root=root)
    for line in _QUOTED.splitlines():
        name, seeds, wall, lower, *others = [cell.strip() for cell in line.strip("|").split("|")]
        records = json.loads((root / f"BENCH_{name}.json").read_text(encoding="utf-8"))
        paired = bench_pairs.pairs(records, "68b8363", "6e52695")
        assert bench_pairs._seeds(list(paired)) == seeds
        got = bench_pairs.compare(paired)
        old, (q1, q3), new, _, lows = got["wall_s"]
        quoted = wall.replace("[", "").replace("]", "").replace(",", "").replace("→", "").split()
        assert all(map(_agrees, quoted, (old, q1, q3, new))), (name, quoted, got["wall_s"])
        assert lower == f"{lows} of 5"
        for metric, cell in zip(("op_p50_s", "peak_rss_mb", "setup_s"), others):
            before, after = cell.split(" → ")
            assert _agrees(before, got[metric][0]) and _agrees(after, got[metric][2]), metric
        assert sum(row.startswith(f"| {name} | {seeds} |") for row in printed) == 4


def _record(seed, commit, **fields):
    return {"commit": commit, "seed": seed, "seconds": 20, "python": "3.11.7",
            "wall_s": 1.0 + seed / 100, "op_p50_s": 0.1, "peak_rss_mb": 15.0, "setup_s": 0.06,
            **fields}


@pytest.mark.parametrize("change, message", [
    ([_record(1, "bbb"), _record(2, "bbb"), _record(3, "bbb")], "one side only: [3]"),
    ([_record(1, "bbb"), _record(1, "bbb")], "recorded twice: [1]"),
    ([_record(1, "bbb"), _record(2, "bbb", seconds=10)], "different seconds: [10, 20]"),
    ([_record(1, "bbb"), _record(2, "bbb", python="3.12.1")], "different python"),
])
def test_pairs_refuse_runs_that_do_not_compare(tmp_path, change, message):
    records = [_record(1, "aaa"), _record(2, "aaa")] + change
    (tmp_path / "BENCH_dense-lift.json").write_text(json.dumps(records))
    with pytest.raises(ValueError, match=re.escape(message)):
        bench_pairs.table("aaa", "bbb", root=tmp_path)


def test_pairs_print_one_row_per_metric(tmp_path, capsys, monkeypatch):
    records = [_record(s, c) for s in (1, 2, 3) for c in ("aaa", "bbb")]
    records[-1]["wall_s"] = 0.5  # seed 3 reads lower on the change
    (tmp_path / "BENCH_cli-burst.json").write_text(json.dumps(records))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(["aaa", "bbb", "--workload", "cli-burst"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows[0] == "| cli-burst | 1–3 | `wall_s` | 1.020 [1.010, 1.030] | 1.010 | -1.0% | 1 of 3 |"
    assert [row.split(" | ")[2] for row in rows] == [f"`{m}`" for m in bench_pairs.END_TO_END]
    assert bench_pairs.main(["aaa", "ccc", "--workload", "cli-burst"]) == 1
    assert "one side only" in capsys.readouterr().err


def test_pairs_give_each_sides_floor_when_every_record_has_one(tmp_path):
    records = [_record(s, c, floor_s=0.03 + s / 1000 + (c == "bbb") / 100)
               for s in (1, 2, 3) for c in ("aaa", "bbb")]
    (tmp_path / "BENCH_dense-lift.json").write_text(json.dumps(records))
    rows = bench_pairs.table("aaa", "bbb", root=tmp_path)[2:]
    assert [row.split(" | ")[2] for row in rows] == [f"`{m}`" for m in bench_pairs.END_TO_END] \
        + ["`floor_s`"]
    assert rows[-1] == ("| dense-lift | 1–3 | `floor_s` | 0.03200 [0.03100, 0.03300] | "
                        "0.04200 | +31.2% | 0 of 3 |")
    del records[0]["floor_s"]  # a record from before the field: no floor row, as before
    (tmp_path / "BENCH_dense-lift.json").write_text(json.dumps(records))
    rows = bench_pairs.table("aaa", "bbb", root=tmp_path)[2:]
    assert [row.split(" | ")[2] for row in rows] == [f"`{m}`" for m in bench_pairs.END_TO_END]


def test_pairs_give_the_exit_floor_when_every_record_has_one(tmp_path):
    records = [_record(s, c, floor_s=0.04, floor_exit_s=0.03 - s / 1000 - (c == "bbb") / 1000)
               for s in (1, 2, 3) for c in ("aaa", "bbb")]
    (tmp_path / "BENCH_dense-lift.json").write_text(json.dumps(records))
    rows = bench_pairs.table("aaa", "bbb", root=tmp_path)[2:]
    assert [row.split(" | ")[2] for row in rows][-2:] == ["`floor_s`", "`floor_exit_s`"]
    assert rows[-1] == ("| dense-lift | 1–3 | `floor_exit_s` | 0.02800 [0.02700, 0.02900] | "
                        "0.02700 | -3.6% | 3 of 3 |")
    del records[-1]["floor_exit_s"]  # one record of a pair lacks it: no exit floor row
    (tmp_path / "BENCH_dense-lift.json").write_text(json.dumps(records))
    rows = bench_pairs.table("aaa", "bbb", root=tmp_path)[2:]
    assert [row.split(" | ")[2] for row in rows][-1] == "`floor_s`"


def test_the_floor_times_a_real_interpreter():
    assert 0 < _PROCESS_FLOOR(1) < 30
    assert 0 < _PROCESS_FLOOR(1, code=bench_record.FLOORS["floor_exit_s"]) < 30
