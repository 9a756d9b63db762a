"""Golden CLI corpus: exit code and stdout bytes of small invocations.

Every subcommand runs in text and ``--json`` mode, error paths included,
and each result must match the recorded exit code and SHA-256 of stdout
byte for byte.  Cases run in-process from a directory holding the input
files below, so the file names echoed in JSON output are stable.  After an
intended output change, rewrite the corpus with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qmoon import cli

CORPUS = Path(__file__).with_name("golden_cli.json")

INPUTS = {
    "j.json": {"var": "q", "nome": "full", "prefactor": "0", "trunc": 6,
               "coeffs": {"-1": "1", "0": "744", "1": "196884", "2": "21493760",
                          "3": "864299970", "4": "20245856256",
                          "5": "333202640600", "6": "4252023300096"}},
    "unit.json": {"trunc": 6, "coeffs": {"0": "1", "1": "2", "3": "-1/3"}},
    "eta.json": {"prefactor": "1/24", "trunc": 7,
                 "coeffs": {"0": "1", "1": "-1", "2": "-1", "5": "1", "7": "1"}},
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
    + _both("mult", "table", "--algebra", "e10", "--min-norm", "-12")
    + _both("mult", "table", "--algebra", "fake", "--min-norm", "-6")
    + [["mult", "table", "--algebra", "e8"]]
    + _both("mult", "rademacher", "--n", "2", "--terms", "10")
    + [[], ["bogus"], ["verify", "euler9"], ["lift", "--name", "f_4", "--order", "4.5"]]
)


def _key(argv):
    return " ".join(argv) or "<no arguments>"


def _invoke(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _write_inputs(root: Path):
    for name, data in INPUTS.items():
        (root / name).write_text(json.dumps(data), encoding="utf-8")


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
    monkeypatch.delenv("QMOON_DEFAULT_ORDER", raising=False)
    code, digest = _invoke(argv)
    capsys.readouterr()
    assert [code, digest] == recorded[_key(argv)]


if __name__ == "__main__":
    import tempfile

    os.environ.pop("QMOON_DEFAULT_ORDER", None)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            table = {_key(argv): list(_invoke(argv)) for argv in CASES}
        finally:
            os.chdir(here)
    lines = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {CORPUS}", file=sys.stderr)
