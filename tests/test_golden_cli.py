"""Golden CLI corpus: exit code and stdout bytes of small invocations.

Every subcommand runs in text and ``--json`` mode, error paths included,
and each result must match the recorded exit code and SHA-256 of stdout
byte for byte.  Cases run in-process from a directory holding the input
files below, so the file names echoed in JSON output are stable.  After an
intended output change, rewrite the corpus with
``PYTHONPATH=src python tests/test_golden_cli.py``.

The same run rewrites a second corpus, ``golden_usage.json``, for the
parser's own output: every usage error and every ``--help`` page, pinned
as the exit code and the SHA-256 of stdout and of stderr.  argparse wraps
help to the terminal width, so these cases run with ``COLUMNS=80``.  Its
wording also changes between Python versions (3.10 renamed "optional
arguments" to "options"); the usage bytes are recorded under CPython 3.11.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from qmoon import cli

CORPUS = Path(__file__).with_name("golden_cli.json")
USAGE_CORPUS = Path(__file__).with_name("golden_usage.json")

INPUTS = {
    "j.json": {"var": "q", "nome": "full", "prefactor": "0", "trunc": 6,
               "coeffs": {"-1": "1", "0": "744", "1": "196884", "2": "21493760",
                          "3": "864299970", "4": "20245856256",
                          "5": "333202640600", "6": "4252023300096"}},
    "unit.json": {"trunc": 6, "coeffs": {"0": "1", "1": "2", "3": "-1/3"}},
    "eta.json": {"prefactor": "1/24", "trunc": 7,
                 "coeffs": {"0": "1", "1": "-1", "2": "-1", "5": "1", "7": "1"}},
    # 1 + q/3 past one solve block: its exponents' division multiplies rationals
    "third.json": {"trunc": 130, "coeffs": {"0": "1", "1": "1/3"}},
    "pair.json": {"dim": 1, "gram": [[2]], "mult": {"-1": 1, "1": 1}},
    "pair-bad.json": {"dim": 1, "gram": [[2]], "mult": {"-1": 1, "1": 2}},
    "trivial.json": {"dim": 1, "gram": [[2]], "mult": {"0": 2}},
    "orthogonal.json": {"dim": 2, "gram": [[2, 0], [0, 2]],
                        "mult": {"-1,0": 1, "0,-1": 1, "0,1": 1, "1,0": 1}},
    "ortho3.json": {"dim": 3, "gram": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                    "mult": {"-1,0,0": 2, "0,-1,0": 2, "0,0,-1": 2,
                             "0,0,1": 2, "0,1,0": 2, "1,0,0": 2}},
    "a2.json": {"dim": 2, "gram": [[2, -1], [-1, 2]],
                "mult": {"-1,-1": 1, "-1,0": 1, "0,-1": 1, "0,1": 1, "1,0": 1, "1,1": 1}},
    "jacobi.json": {"k": 10, "m": 1, "disc_bound": 12,
                    "coeffs": {"0,0": 2, "1,1": 3, "2,1": 5, "4,2": 7}},
    "siegel.json": {"k": 10, "disc_bound": 12,
                    "coeffs": {"0,0,1": 2, "0,0,2": 1026, "1,1,1": 3, "1,1,2": 5,
                               "2,1,1": 5, "2,2,2": 1543, "4,2,1": 7}},
    "siegel-bad.json": {"k": 10, "disc_bound": 12,
                        "coeffs": {"0,0,1": 2, "0,0,2": 1026, "1,1,1": 3, "1,1,2": 5,
                                   "2,1,1": 5, "2,2,2": 1544, "4,2,1": 7}},
    # the lift of jacobi.json to m = 3 with its m = 2 layer removed: only the
    # layers present in a table are compared
    "siegel-skip.json": {"k": 10, "disc_bound": 12,
                         "coeffs": {"0,0,1": 2, "0,0,3": 39368, "1,1,1": 3,
                                    "2,1,1": 5, "4,2,1": 7}},
    "siegel-skip-bad.json": {"k": 10, "disc_bound": 12,
                             "coeffs": {"0,0,1": 2, "0,0,3": 39369, "1,1,1": 3,
                                        "2,1,1": 5, "4,2,1": 7}},
    "siegel-stray.json": {"k": 10, "disc_bound": 12, "coeffs": {"1,1,2": 5}},
    "siegel-empty.json": {"k": 10, "coeffs": {}},
    # the 24 roots +-e_i +-e_j of D4 and c(0) = 8: rows of many short runs
    "d4.json": {"dim": 4, "gram": [[int(i == j) for j in range(4)] for i in range(4)],
                "mult": {"0,0,0,0": 8, **{",".join(str(s * (k == i) + t * (k == j))
                                                   for k in range(4)): 1
                                          for i, j in combinations(range(4), 2)
                                          for s in (1, -1) for t in (1, -1)}}},
    # only +-e_1 of a rank-2 lattice: a shift along e_2 pairs integrally with
    # both, yet 2 m shift leaves the grid
    "rank.json": {"dim": 2, "gram": [[2, 0], [0, 2]], "mult": {"-1,0": 1, "1,0": 1}},
    # bad input files, each refused with exit 4; a string is written as it stands
    "repeat.json": '{"trunc": 3, "coeffs": {"0": "1"}, "trunc": 5}',
    "deep.json": "[" * 100000 + "]" * 100000,
    "series-list.json": [1, 2, 3],
    "series-trunc.json": {"trunc": "6", "coeffs": {"0": "1"}},
    "series-number.json": {"trunc": 6, "coeffs": {"0": 1}},
    "series-key.json": {"trunc": 3, "coeffs": {"x": "1"}},
    "series-twice.json": {"trunc": 6, "coeffs": {"0": "1", "1": "2", "01": "7"}},
    "series-above.json": {"trunc": 3, "coeffs": {"5": "1"}},
    "series-prefactor.json": {"trunc": 3, "coeffs": {"0": "1"}, "prefactor": 0},
    "series-prefactor-text.json": {"trunc": 3, "coeffs": {"0": "1"}, "prefactor": "x/3"},
    "series-prefactor-fifth.json": {"trunc": 3, "coeffs": {"0": "1"}, "prefactor": "1/5"},
    "series-nome.json": {"trunc": 3, "coeffs": {"0": "1"}, "nome": "x"},
    "series-zero.json": {"trunc": 3, "coeffs": {}},
    "series-nonunit.json": {"trunc": 3, "coeffs": {"0": "2"}},
    "mult-twice.json": {"dim": 1, "gram": [[2]], "mult": {"1": 1, "-1": 1, "01": 5}},
    "mult-key.json": {"dim": 1, "gram": [[2]], "mult": {"1,x": 1}},
    "mult-entry.json": {"dim": 1, "gram": [[2]], "mult": {"1": [1]}},
    "mult-negative.json": {"dim": 1, "gram": [[2]], "mult": {"-1": -1, "1": -1}},
    "gram-kind.json": {"dim": 1, "gram": 2, "mult": {}},
    "gram-dim.json": {"dim": 0, "gram": [], "mult": {}},
    "gram-shape.json": {"dim": 2, "gram": [[2]], "mult": {}},
    "gram-asymmetric.json": {"dim": 2, "gram": [[2, 1], [0, 2]], "mult": {}},
    "gram-indefinite.json": {"dim": 3, "gram": [[2, 1, 1], [1, 2, 1], [1, 1, 0]], "mult": {}},
    "index.json": {"dim": 3, "gram": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                   "mult": {"-1,0,0": 1, "1,0,0": 1}},
    "jacobi-weight.json": {"k": 3, "m": 1, "coeffs": {"0,0": 2}},
    "jacobi-index.json": {"k": 10, "m": 0, "coeffs": {"0,0": 2}},
    "jacobi-index2.json": {"k": 10, "m": 2, "coeffs": {"0,0": 2}},
    "jacobi-negative.json": {"k": 10, "m": 1, "coeffs": {"-1,0": 2}},
    # a zero outside the support r^2 <= 4nm is dropped, a nonzero refused
    "jacobi-support.json": {"k": 10, "m": 1, "coeffs": {"0,2": 0, "0,3": 1}},
    "jacobi-bound.json": {"k": 10, "m": 1, "disc_bound": 2, "coeffs": {"4,2": 7}},
}

_EXPAND = ["j", "delta", "tau", "eta", "E4", "E6", "E10", "jstar", "theta", "theta2",
           "theta3", "theta4", "leech", "F", "p", "p24", "xi"]
_LABELS = ["euler1", "euler2", "euler3", "gauss", "triple", "quintuple_w1",
           "quintuple_w2", "eisen_relations", "jacobi_delta", "theta_products",
           "theta_nullwert_products", "delta_theta", "sigma_convolutions"]
_CATALOG = ["f_delta", "f_4", "f_6", "f_8", "f_10", "f_14", "f_j"]


def _both(*argv):
    return [list(argv), list(argv) + ["--json"]]


CASES = (
    [["expand", name, "--order", "8"] for name in _EXPAND]
    + [["expand", name, "--order", "6", "--json"]
       for name in ("j", "eta", "theta2", "leech", "p24")]
    + [["expand", "j", "--order", "0"], ["expand", "nonsense", "--order", "3"],
       ["expand", "j", "--order", "-3"]]
    + _both("factor", "--input", "j.json", "--order", "5")
    + _both("factor", "--input", "unit.json", "--order", "5")
    + _both("factor", "--input", "eta.json", "--order", "6")
    + [["verify", label, "--order", "12"] for label in _LABELS]
    + [["verify", label, "--order", "9", "--json"] for label in _LABELS]
    + _both("verify", "all", "--order", "30")
    + [["verify", "euler1", "--order", "1"], ["verify", "euler2", "--order", "1", "--json"],
       ["verify", "euler2", "--order", "2"]]
    + [argv for name in _CATALOG for argv in _both("lift", "--name", name, "--order", "3")]
    + _both("lift", "--name", "f_j", "--order", "1")
    + _both("lift", "--name", "f_j", "--order", "8")
    + _both("hurwitz", "--max", "0")
    + _both("hurwitz", "--max", "20")
    + _both("hurwitz", "--max", "300")
    + _both("zeromult", "--name", "f_j", "--disc", "-3")
    + _both("zeromult", "--name", "f_4", "--disc", "-4")
    + [["zeromult", "--name", "f_j", "--disc", "1"]]
    + _both("moonshine", "denom", "--cap", "3")
    + _both("moonshine", "replication", "--cap", "3")
    + _both("moonshine", "replication", "--cap", "9")
    + [["moonshine", "denom", "--cap", "0"]]
    + [argv for name in ("pair", "trivial", "orthogonal")
       for argv in _both("vsys", "psi", "--file", f"{name}.json", "--order", "4")]
    + _both("vsys", "check", "--file", "pair.json", "--shift", "1", "--order", "6")
    + _both("vsys", "check", "--file", "orthogonal.json", "--shift", "1,0", "--order", "4")
    + _both("vsys", "check", "--file", "pair-bad.json", "--shift", "1", "--order", "6")
    + [["vsys", "check", "--file", "pair.json", "--shift", "1/4"]]
    + _both("vsys", "psi", "--file", "ortho3.json", "--chamber", "1,2,3", "--order", "3")
    + _both("vsys", "check", "--file", "ortho3.json", "--chamber", "1,2,3",
            "--shift", "1/2,1,0", "--order", "4")
    + _both("vsys", "psi", "--file", "a2.json", "--chamber", "1,3", "--order", "3")
    + _both("vsys", "check", "--file", "a2.json", "--chamber", "1,3",
            "--shift", "1/3,2/3", "--order", "4")
    + _both("maass", "lift", "--file", "jacobi.json", "--max-m", "3")
    + _both("maass", "check", "--file", "siegel.json")
    + _both("maass", "check", "--file", "siegel-bad.json")
    + _both("maass", "lift", "--file", "jacobi.json", "--max-m", "1")
    + [argv for name in ("skip", "skip-bad", "stray", "empty")
       for argv in _both("maass", "check", "--file", f"siegel-{name}.json")]
    + _both("mult", "table", "--algebra", "e10", "--min-norm", "-12")
    + _both("mult", "table", "--algebra", "fake", "--min-norm", "-6")
    + [["mult", "table", "--algebra", "e8"]]
    + _both("mult", "rademacher", "--n", "2", "--terms", "10")
    + [[], ["bogus"], ["verify", "euler9"], ["lift", "--name", "f_4", "--order", "4.5"]]
    + [["expand", "E130", "--order", "2"]]
    # _integral's rational branch: a rational unit's exponents, past one solve block
    + [["factor", "--input", "third.json", "--order", "130"]]
    + _both("vsys", "psi", "--file", "d4.json", "--chamber", "8,4,2,1", "--order", "2")
    # out-of-range flags and bad input files: exit 4 and no stdout
    + [["expand", "E3"], ["expand", "p0"], ["verify", "euler1", "--order", "0"],
       ["lift", "--name", "f_4", "--order", "0"], ["hurwitz", "--max", "-1"],
       ["moonshine", "replication", "--cap", "0"],
       ["mult", "rademacher", "--n", "0"], ["mult", "rademacher", "--n", "2", "--terms", "0"],
       ["mult", "rademacher", "--n", "3230"],
       ["factor", "--input", "unit.json", "--order", "7"]]
    + [["factor", "--input", name] for name in (
        "repeat.json", "deep.json", "series-list.json", "series-trunc.json",
        "series-number.json", "series-key.json", "series-twice.json", "series-above.json",
        "series-prefactor.json", "series-prefactor-text.json", "series-prefactor-fifth.json",
        "series-nome.json", "series-zero.json", "series-nonunit.json")]
    + [["vsys", "psi", "--file", name] for name in (
        "mult-twice.json", "mult-key.json", "mult-entry.json", "mult-negative.json",
        "gram-kind.json", "gram-dim.json", "gram-shape.json", "gram-asymmetric.json",
        "gram-indefinite.json", "index.json")]
    + [["vsys", "psi", "--file", "pair.json", "--chamber", "1,x/2"],
       ["vsys", "psi", "--file", "pair.json", "--chamber", "1,2"],
       ["vsys", "psi", "--file", "orthogonal.json", "--chamber", "1,0"],
       ["vsys", "psi", "--file", "pair.json", "--order", "-1"],
       ["vsys", "check", "--file", "pair.json", "--shift", "1/0"],
       ["vsys", "check", "--file", "orthogonal.json", "--shift", "1"],
       ["vsys", "check", "--file", "rank.json", "--shift", "0,1/4", "--order", "2"]]
    + [["maass", "lift", "--file", f"jacobi-{name}.json"]
       for name in ("weight", "index", "index2", "negative", "support", "bound")]
    + [["maass", "lift", "--file", "jacobi.json", "--max-m", "0"]]
    # argv the CLI's table read declines, which argparse still reads: an
    # abbreviated option, an attached value and a repeated option (the last
    # value wins); and a negative value in another script's digits
    + [["expand", "j", "--ord", "3"], ["expand", "j", "--order=3"],
       ["expand", "j", "--order", "3", "--order", "4"], ["expand", "j", "--order", "-٣"]]
)

_SUBCOMMANDS = [["expand"], ["factor"], ["verify"], ["lift"], ["hurwitz"], ["zeromult"],
                ["moonshine"], ["vsys"], ["vsys", "psi"], ["vsys", "check"], ["maass"],
                ["maass", "lift"], ["maass", "check"], ["mult"], ["mult", "table"],
                ["mult", "rademacher"]]

USAGE_CASES = (
    [[], ["bogus"], ["verify", "euler9"], ["lift", "--name", "f_4", "--order", "4.5"],
     ["hurwitz"], ["vsys"], ["maass"], ["mult"], ["moonshine", "bogus"], ["--help"]]
    + [sub + ["--help"] for sub in _SUBCOMMANDS]
    # errors a parser built for one command alone could misprint: argparse
    # reports unknown options against the root usage and its full menu
    + [["expand", "theta", "--bogus"], ["vsys", "psi", "--file", "x.json", "--bogus"],
       ["--json", "expand", "j"], ["mult", "bogus"]]
    # a missing option value, an extra positional, and a value that starts
    # with "-" but is no negative number ("²" is no decimal digit)
    + [["expand", "j", "--order"], ["expand", "j", "--order", "--json"], ["expand", "j", "k"],
       ["vsys", "psi", "--file", "pair.json", "--chamber", "-²"]]
)


def _key(argv):
    return " ".join(argv) or "<no arguments>"


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _invoke(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    return code, _digest(out.getvalue())


def _invoke_usage(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, _digest(out.getvalue()), _digest(err.getvalue())


def _write_inputs(root: Path):
    for name, data in INPUTS.items():
        text = data if isinstance(data, str) else json.dumps(data)
        (root / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _write_inputs(root)
    return root


@pytest.fixture(scope="module")
def recorded():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(recorded):
    assert sorted(recorded) == sorted(_key(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_golden_output(argv, corpus_dir, recorded, monkeypatch, capsys):
    monkeypatch.chdir(corpus_dir)
    code, digest = _invoke(argv)
    capsys.readouterr()
    assert [code, digest] == recorded[_key(argv)]


@pytest.fixture(scope="module")
def usage_recorded():
    return json.loads(USAGE_CORPUS.read_text(encoding="utf-8"))


def test_usage_corpus_covers_every_case(usage_recorded):
    assert sorted(usage_recorded) == sorted(_key(argv) for argv in USAGE_CASES)


def test_every_subcommand_has_a_pinned_help_page():
    assert _SUBCOMMANDS == [list(words) for words, *_ in cli.COMMANDS]


@pytest.mark.parametrize("argv", USAGE_CASES, ids=_key)
def test_usage_output(argv, usage_recorded, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(_invoke_usage(argv)) == usage_recorded[_key(argv)]


def _write_corpus(path, table):
    lines = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {path}", file=sys.stderr)


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            table = {_key(argv): list(_invoke(argv)) for argv in CASES}
        finally:
            os.chdir(here)
    _write_corpus(CORPUS, table)
    _write_corpus(USAGE_CORPUS, {_key(argv): list(_invoke_usage(argv)) for argv in USAGE_CASES})
