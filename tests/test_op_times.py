"""tools/op_times.py times the ops of one perfbench workload in process."""

import importlib.util
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
