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
    assert lines[0].split() == ["op", "best", "ms", "median", "ms", "import", "ms", "process",
                                "ms", "fractions"]
    name, best, median, imported, process, fractions = lines[1].rsplit(None, 5)
    assert name == "moonshine replication 8" and 0 < float(best) <= float(median)
    assert float(imported) > 0 and fractions == "no"  # its exp argument is integral
    assert float(process) > float(imported)  # a whole interpreter, started and ended
    assert lines[2].split() == ["total", best, median, imported, process, "0"]


def test_the_import_column_is_the_median_untimed_import():
    times = {"a": (True, [(0.004, 0.003, 0.05), (0.002, 0.001, 0.07), (0.003, 0.005, 0.04)]),
             "bb": (False, [(0.001, 0.002, 0.03)])}
    assert op_times.table(times).splitlines() == [
        "op        best ms   median ms   import ms  process ms   fractions",
        "a            2.00        3.00        3.00       50.00         yes",
        "bb           1.00        1.00        2.00       30.00          no",
        "total        3.00        4.00        5.00       80.00           1"]


def test_a_child_times_its_import_apart_from_its_run():
    run = op_times.time_once(["expand", "theta", "--order", "1"], Path(op_times.ROOT) / "src")
    assert run["exit"] == 0 and run["stdout"] == "1 + 2q + O(q^2)\n"
    assert 0 < run["import_s"] < 5 and 0 < run["s"] < 5


def test_a_spawn_runs_the_module_as_the_benchmark_does():
    done = op_times.spawn_once(["expand", "theta", "--order", "1"], Path(op_times.ROOT) / "src")
    assert done["exit"] == 0 and done["stdout"] == "1 + 2q + O(q^2)\n" and 0 < done["s"] < 5
    assert op_times.spawn_once(["expand", "e5x"], Path(op_times.ROOT) / "src")["exit"] == 4


def test_only_the_process_column_sees_what_main_adds(tmp_path):
    # a main that sleeps 0.2 s past cli.run: the run column cannot see it
    src = tmp_path / "src"
    shutil.copytree(Path(op_times.ROOT) / "src" / "qmoon", src / "qmoon",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "qmoon" / "cli.py"
    text = cli.read_text()
    assert text.count("def main() -> None:\n") == 1
    cli.write_text(text.replace("def main() -> None:\n",
                                "def main() -> None:\n    __import__('time').sleep(0.2)\n"))
    times, = op_times.op_times("dense-lift", 1, 1, ["lift f_delta 50"], [src])
    (run, _, process), = times["lift f_delta 50"][1]
    assert run < 0.2 <= process


def test_a_child_says_whether_its_run_loaded_fractions():
    # E12's q-coefficient 65520/691 is a true rational; eta's q^(1/24) is a count of 24ths
    src = Path(op_times.ROOT) / "src"
    assert [op_times.time_once(["expand", form, "--order", "2"], src)["fractions"]
            for form in ("E12", "eta", "theta")] == [True, False, False]


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
            fractions, runs = op_times.op_times("cli-burst", 1, 2)[0]["probe"]
            assert len(runs) == 2 and fractions is False
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
    times, = op_times.op_times("dense-lift", 1, 2, ["lift f_delta 50"], [src])
    assert len(times["lift f_delta 50"][1]) == 2 and len(runs) == 3
    assert runs[0] == [] and {"borcherds", "cli", "series"} <= set(runs[1]) and runs[1] == runs[2]


def test_two_trees_are_timed_in_alternating_order(monkeypatch, tmp_path, capsys):
    # every op runs untimed on each tree, then each round times it on both,
    # the first tree first in even rounds and last in odd ones
    trees = [tmp_path / name for name in ("a", "b")]
    for tree in trees:
        shutil.copytree(Path(op_times.ROOT) / "src" / "qmoon", tree / "qmoon",
                        ignore=shutil.ignore_patterns("__pycache__"))
    runs = []
    real = op_times.time_once

    def logged(argv, tree):
        runs.append(tree.name)
        return real(argv, tree)

    monkeypatch.setattr(op_times, "time_once", logged)
    argv = ["--workload", "dense-lift", "--op", "lift f_delta 50", "--repeat", "3"]
    assert op_times.main(argv + [arg for tree in trees for arg in ("--src", str(tree))]) == 0
    assert runs == ["a", "b", "a", "b", "b", "a", "a", "b"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["op"] + [word for k in ("[1]", "[2]") for word in (
        "best", "ms", k, "median", "ms", k, "import", "ms", k, "process", "ms", k, "fractions", k)]
    name, *columns = lines[1].rsplit(None, 10)
    assert name == "lift f_delta 50" and len(columns) == 10
    assert float(columns[0]) <= float(columns[1]) and float(columns[5]) <= float(columns[6])
    assert columns[4] == columns[9] == "no"
    assert lines[2].split() == ["total", *columns[:4], "0", *columns[5:9], "0"]
    assert lines[3:] == [f"[1] {trees[0]}", f"[2] {trees[1]}"]


def test_the_table_of_two_trees_gives_each_its_columns():
    a = {"x": (True, [(0.004, 0.001, 0.04), (0.002, 0.003, 0.05)])}
    b = {"x": (False, [(0.001, 0.002, 0.03)])}
    assert op_times.table(a, b).splitlines() == [
        "op        best ms [1]   median ms [1]   import ms [1]  process ms [1]   fractions [1]"
        "     best ms [2]   median ms [2]   import ms [2]  process ms [2]   fractions [2]",
        "x                2.00            3.00            2.00           45.00             yes"
        "            1.00            1.00            2.00           30.00              no",
        "total            2.00            3.00            2.00           45.00               1"
        "            1.00            1.00            2.00           30.00               0"]
