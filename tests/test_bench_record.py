"""tools/bench_record.py turns perfbench run records into the committed trajectory."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _run(tmp_path, seed, trace=0):
    metrics = {name: {"value": i + seed / 10, "unit": "s", "samples": 5}
               for i, name in enumerate(bench_record.END_TO_END)}
    run = {"workload": "dense-lift", "seed": seed, "seconds": 20, "trace": trace,
           "python": "3.11.7", "commit": "abc", "src_sha256": "f00", "metrics": metrics,
           "attempted": 40, "failed": 0, "ops": {}}
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
                          "peak_rss_mb": 2.2, "setup_s": 3.2, "attempted": 40, "failed": 0}


def test_a_traced_run_is_refused(tmp_path, capsys):
    path = _run(tmp_path, 1, trace=1)
    with pytest.raises(ValueError):
        bench_record.append(path, root=tmp_path)
    assert bench_record.main([str(path)]) == 1
    assert "only a --trace 0 run" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_dense-lift.json").exists()
