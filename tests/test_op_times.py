"""tools/op_times.py times the ops of one perfbench workload in process."""

import importlib.util
import shutil
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "op_times", Path(__file__).resolve().parent.parent / "tools" / "op_times.py")
op_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_times)


def test_one_op_is_timed_and_checked(capsys):
    assert op_times.main(["--workload", "bivariate-verify", "--op", "moonshine replication 8",
                          "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["op", "best", "ms", "median", "ms"]
    name, best, median = lines[1].rsplit(None, 2)
    assert name == "moonshine replication 8" and 0 < float(best) <= float(median)
    assert lines[2].split() == ["total", best, median]


def test_an_op_outside_the_workload_is_refused(capsys):
    assert op_times.main(["--workload", "bivariate-verify", "--op", "expand j 10"]) == 1
    assert "no op named expand j 10" in capsys.readouterr().err


def test_a_run_with_the_wrong_exit_or_output_is_refused(monkeypatch):
    # an unknown form exits 4 with nothing on stdout: timed when that is what
    # the op expects, refused when it expects 0 or a stdout check fails
    workloads = op_times._workloads()
    argv = ("expand", "e5x")
    for expect, check, ok in ((4, lambda out: None, True), (0, lambda out: None, False),
                              (4, lambda out: "a problem", False)):
        ops = [workloads.Op("probe", argv, expect, check)]
        monkeypatch.setattr(workloads, "build", lambda *args: ops)
        monkeypatch.setattr(op_times, "_workloads", lambda: workloads)
        if ok:
            assert len(op_times.op_times("cli-burst", 1, 2)["probe"]) == 2
        else:
            with pytest.raises(ValueError, match="^probe: "):
                op_times.op_times("cli-burst", 1, 2)


def test_children_write_bytecode_and_the_first_run_is_untimed(monkeypatch, tmp_path):
    # with PYTHONDONTWRITEBYTECODE set, a timed run would compile every lazily
    # imported module from source; the children drop it, and one untimed run
    # of each op writes the .pyc files before any run is timed
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    src = tmp_path / "src"
    shutil.copytree(Path(op_times.ROOT) / "src" / "qmoon", src / "qmoon",
                    ignore=shutil.ignore_patterns("__pycache__"))
    runs = []
    real = op_times.time_once

    def counted(argv, tree):
        runs.append(sorted(p.name.split(".")[0] for p in (tree / "qmoon").glob("__pycache__/*")))
        return real(argv, tree)

    monkeypatch.setattr(op_times, "time_once", counted)
    times = op_times.op_times("dense-lift", 1, 2, ["lift f_delta 50"], src)
    assert len(times["lift f_delta 50"]) == 2 and len(runs) == 3
    assert runs[0] == [] and {"borcherds", "cli", "series"} <= set(runs[1]) and runs[1] == runs[2]
