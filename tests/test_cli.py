import ast
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import test_golden_cli as golden
from paper_refs import sample_system, system_json
from qmoon import cli, forms
from qmoon.maass import JacobiCoeffTable
from qmoon.series import ExponentTable, QSeries


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_json_golden(capsys):
    code, out, err = run(capsys, ["expand", "j", "--order", "2", "--json"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["coeffs"]["1"] == "196884"
    assert data["coeffs"]["2"] == "21493760"
    assert data["coeffs"]["-1"] == "1"


def test_expand_order_zero_text(capsys):
    code, out, _ = run(capsys, ["expand", "j", "--order", "0"])
    assert code == 0
    assert out == "q^-1 + 744 + O(q^1)\n"


def test_expand_prefactor_text(capsys):
    code, out, _ = run(capsys, ["expand", "eta", "--order", "5"])
    assert code == 0
    assert out.startswith("q^(1/24) * (1 - q - q^2")


def test_expand_unknown_form_is_data_error(capsys):
    # a form index is ASCII digits: int() would read "٢٤" as 24 and reject "²"
    for label in ("nonsense", "e²", "p٢٤"):
        code, out, err = run(capsys, ["expand", label, "--order", "3"])
        assert (code, out, err) == (4, "", f"error: unknown form label {label!r}\n")


def test_usage_errors_exit_two(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["bogus"])[0] == 2
    assert run(capsys, ["verify", "not_an_identity"])[0] == 2
    assert run(capsys, ["vsys", "check", "--shift", "1"])[0] == 2  # missing --file


def _unchanged_by_default_order_env(capsys, monkeypatch, value):
    # the variable is no longer read: the defaults are the parser's own, 10 and 30 for verify
    argvs = (["expand", "delta", "--json"], ["verify", "triple"])
    monkeypatch.delenv("QMOON_DEFAULT_ORDER", raising=False)
    unset = [run(capsys, argv)[:2] for argv in argvs]
    assert json.loads(unset[0][1])["trunc"] == 10 and unset[1] == (0, "PASS triple order=30\n")
    monkeypatch.setenv("QMOON_DEFAULT_ORDER", value)
    assert [run(capsys, argv)[:2] for argv in argvs] == unset


def test_default_order_env(capsys, monkeypatch):
    _unchanged_by_default_order_env(capsys, monkeypatch, "3")


def test_non_integer_default_order_env_rejected(capsys, monkeypatch):
    # once exit 4; a value nothing reads is now no error at all
    _unchanged_by_default_order_env(capsys, monkeypatch, "abc")


def test_negative_default_order_env_rejected(capsys, monkeypatch):
    _unchanged_by_default_order_env(capsys, monkeypatch, "-2")


def test_non_positive_definite_gram_exits_four(capsys, tmp_path):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": 3, "gram": [[2, 1, 1], [1, 2, 1], [1, 1, 0]], "mult": {}}))
    code, out, err = run(capsys, ["vsys", "psi", "--file", str(path)])
    assert (code, out, err) == (4, "", "error: gram matrix must be positive definite\n")


def test_negative_order_flag_rejected(capsys):
    for argv in (["expand", "j", "--order", "-3"], ["verify", "triple", "--order", "-1"]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (4, "", "error: order must be >= 0\n")


def test_verify_pass_and_fail_codes(capsys):
    code, out, _ = run(capsys, ["verify", "triple", "--order", "12"])
    assert code == 0 and out.startswith("PASS triple")
    code, out, _ = run(capsys, ["verify", "quintuple_w2", "--order", "8"])
    assert code == 3 and out.startswith("FAIL quintuple_w2")
    code, out, _ = run(capsys, ["verify", "all", "--order", "8", "--json"])
    assert code == 3
    reports = json.loads(out)
    assert len(reports) == 13
    assert sum(not r["passed"] for r in reports) == 1


def test_factor_reads_series_file(capsys, tmp_path):
    path = tmp_path / "j.json"
    path.write_text(json.dumps(forms.j_invariant(30).to_json()))
    code, out, _ = run(capsys, ["factor", "--input", str(path), "--order", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["h"] == "1"
    assert data["exponents"] == {"1": "-744", "2": "80256", "3": "-12288744"}


@pytest.mark.parametrize("data", [forms.j_invariant(30).to_json(),
                                  {"trunc": 0, "coeffs": {"0": "1"}}])
def test_factor_at_order_zero(capsys, tmp_path, data):
    # the unit part is known through q^0 only: its log derivative has no terms
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    h = "1" if "-1" in data["coeffs"] else "0"
    assert run(capsys, ["factor", "--input", str(path), "--order", "0"]) == (0, f"h = {h}\n", "")
    code, out, _ = run(capsys, ["factor", "--input", str(path), "--order", "0", "--json"])
    assert code == 0
    assert json.loads(out) == {"input": str(path), "h": h, "order": 0, "exponents": {}}


_NOT_RATIONAL = ["x/3", "1/2/3", "a", "1/0"]


@pytest.mark.parametrize("data, field", [
    ([1, 2, 3], "must be an object"),
    ({"trunc": 6, "coeffs": {"0": 1, "3": 5}}, "'coeffs' entry '0'"),
    ({"trunc": 6}, "'coeffs'"),
    ({"trunc": "6", "coeffs": {"0": "1"}}, "'trunc'"),
    ({"trunc": 6, "coeffs": {"0": "1"}, "prefactor": 0}, "'prefactor'"),
    ({"trunc": 6, "coeffs": {"0": "1", "1": "2", "01": "7"}}, "keys '1' and '01'"),
    ({"trunc": 3, "coeffs": {"x": "1"}}, "field 'coeffs' key 'x' must be an integer"),
] + [({"trunc": 4, "coeffs": {"0": "1", "1": text}},
       f"field 'coeffs' entry '1' must be an integer or a fraction n/d, got {text!r}")
      for text in _NOT_RATIONAL]
  + [({"trunc": 4, "coeffs": {"0": "1"}, "prefactor": text},
      f"field 'prefactor' must be an integer or a fraction n/d, got {text!r}")
     for text in _NOT_RATIONAL]
  + [({"trunc": 3, "coeffs": {"0": "1"}, "nome": "x"}, "field 'nome' must be 'full' or 'half'"),
     ({"trunc": 3, "coeffs": {"0": "1"}, "prefactor": "1/5"}, "field 'prefactor' 1/5"),
     ({"trunc": 3, "coeffs": {"5": "1"}}, "field 'coeffs' key '5' is above trunc 3"),
     ({"trunc": 3, "coeffs": {"0": "1"}, "prefactor": "0/0"},
      "field 'prefactor' must be an integer or a fraction n/d, got '0/0'"),
     ({"trunc": 3, "coeffs": {"0": "1"}, "prefactor": "5/25"},
      "field 'prefactor' 1/5 has denominator not dividing 24")])
def test_factor_rejects_malformed_series(capsys, tmp_path, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["factor", "--input", str(path)])
    assert code == 4 and out == ""
    assert err.startswith("error: series ") and field in err and err.count("\n") == 1


@pytest.mark.parametrize("text, h", [("-25/24", "25/24"), ("2/48", "-1/24"), ("48/24", "-2"),
                                     ("-1/4", "1/4")])
def test_factor_reads_a_prefactor_in_twenty_fourths(capsys, tmp_path, text, h):
    # a file's prefactor is read in lowest terms: it moves h, which prints as a Fraction did
    path = tmp_path / "pre.json"
    data = {"trunc": 3, "coeffs": {"0": "1"}, "prefactor": text}
    path.write_text(json.dumps(data))
    assert run(capsys, ["factor", "--input", str(path), "--order", "0"]) == (0, f"h = {h}\n", "")
    assert QSeries.from_json(data).to_json()["prefactor"] == str(-Fraction(h))


def test_a_prefactor_prints_the_bytes_its_fraction_printed():
    for p in range(-96, 97):
        text, s = str(Fraction(p, 24)), QSeries({0: 1}, 2, pre24=p)
        assert s.to_json()["prefactor"] == text and QSeries.from_json(s.to_json()).pre24 == p
        assert s.pretty() == (f"q^({text}) * (1 + O(q^3))" if p else "1 + O(q^3)")
        assert repr(s) == f"QSeries(full, prefactor={text}, 1 terms, trunc=2)"
        assert ExponentTable(p, {}, 0).to_json()["h"] == text


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_factor_ignores_the_series_variable(capsys, tmp_path, mode):
    series = forms.j_invariant(8).to_json()
    path = tmp_path / "series.json"
    outputs = []
    for var in ("q", "p", None):
        data = {k: v for k, v in series.items() if k != "var"}
        if var is not None:
            data["var"] = var
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["factor", "--input", str(path), "--order", "5", *mode])
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


_PAIR = {"dim": 1, "gram": [[2]], "mult": {"1": 1, "-1": 1}}
_JACOBI = {"k": 10, "m": 1, "coeffs": {"0,0": 2, "1,1": 3}}
_SIEGEL = {"k": 10, "coeffs": {"0,0,1": 2, "1,1,1": 3}}


@pytest.mark.parametrize("argv, data, field", [
    (["vsys", "psi"], [1, 2], "vector system JSON must be an object"),
    (["vsys", "check", "--shift", "1"], [1, 2], "vector system JSON must be an object"),
    (["vsys", "psi"], {**_PAIR, "mult": [1, -1]}, "vector system field 'mult'"),
    (["vsys", "check", "--shift", "1"], {**_PAIR, "mult": {"1,x": 1}}, "'mult' key '1,x'"),
    (["vsys", "psi"], {**_PAIR, "mult": {"1": [1]}}, "'mult' entry '1'"),
    (["vsys", "psi"], {**_PAIR, "dim": "1"}, "vector system field 'dim'"),
    (["vsys", "psi"], {**_PAIR, "gram": 2}, "vector system field 'gram'"),
    (["maass", "lift"], [1, 2], "Jacobi table JSON must be an object"),
    (["maass", "lift"], {**_JACOBI, "coeffs": [2, 3]}, "Jacobi table field 'coeffs'"),
    (["maass", "lift"], {**_JACOBI, "coeffs": {"1,x": 3}}, "'coeffs' key '1,x'"),
    (["maass", "lift"], {**_JACOBI, "coeffs": {"1,1,1": 3}}, "'coeffs' key '1,1,1'"),
    (["maass", "lift"], {**_JACOBI, "k": "10"}, "Jacobi table field 'k'"),
    (["maass", "lift"], {**_JACOBI, "m": 1.5}, "Jacobi table field 'm'"),
    (["maass", "lift"], {**_JACOBI, "disc_bound": [4]}, "Jacobi table field 'disc_bound'"),
    (["maass", "check"], [1, 2], "Siegel table JSON must be an object"),
    (["maass", "check"], {**_SIEGEL, "coeffs": [2, 3]}, "Siegel table field 'coeffs'"),
    (["maass", "check"], {**_SIEGEL, "coeffs": {"1,x": 3}}, "'coeffs' key '1,x'"),
    (["maass", "check"], {**_SIEGEL, "coeffs": {"1,1,1": "3"}}, "'coeffs' entry '1,1,1'"),
    (["maass", "check"], {**_SIEGEL, "k": None}, "Siegel table field 'k'"),
    (["vsys", "psi"], {**_PAIR, "gram": [[True]]},
     "vector system field 'gram' must be a list of integer rows"),
    # two keys that name one index: neither may silently win
    (["vsys", "psi"], {**_PAIR, "mult": {"1": 1, "-1": 1, "01": 5}}, "keys '1' and '01'"),
    (["maass", "lift"], {**_JACOBI, "coeffs": {"1,1": 3, "01,1": 4}},
     "keys '1,1' and '01,1'"),
    (["maass", "check"], {**_SIEGEL, "coeffs": {"1,1,1": 3, "1, 1,1": 4}},
     "keys '1,1,1' and '1, 1,1'"),
])
def test_table_inputs_reject_malformed_json(capsys, tmp_path, argv, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, argv + ["--file", str(path)])
    assert code == 4 and out == ""
    assert err.startswith("error: ") and field in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, text, key", [
    (["vsys", "psi", "--order", "0", "--file"],
     '{"dim": 1, "gram": [[2]], "mult": {"1": 1, "-1": 1, "1": 5}}', "1"),
    (["factor", "--input"], '{"trunc": 3, "coeffs": {"0": "1"}, "trunc": 5}', "trunc"),
])
def test_repeated_json_key_is_rejected(capsys, tmp_path, argv, text, key):
    # json.load alone lets the last value win; the reader names the key instead
    path = tmp_path / "repeat.json"
    path.write_text(text)
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 4 and out == ""
    assert err == f"error: JSON object repeats the key {key!r}\n"


@pytest.mark.parametrize("argv", [
    ["factor", "--input"], ["vsys", "psi", "--file"], ["vsys", "check", "--shift", "1", "--file"],
    ["maass", "lift", "--file"], ["maass", "check", "--file"],
])
@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"a": ' * 100000 + "1" + "}" * 100000])
def test_deeply_nested_json_is_rejected(capsys, tmp_path, argv, text):
    # the decoder's recursion limit is bad input, not a traceback
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, argv + [str(path)])
    assert (code, out, err) == (4, "", "error: JSON nests too deeply to read\n")


def test_lift_emits_h_exponents_series(capsys):
    code, out, _ = run(capsys, ["lift", "--name", "f_4", "--order", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["h"] == "0"
    assert data["exponents"] == {"1": "-240", "2": "26760", "3": "-4096240"}
    assert data["series"]["coeffs"]["1"] == "240"


def test_lift_fj_records_efactor_resolution(capsys):
    code, out, _ = run(capsys, ["lift", "--name", "f_j", "--order", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["efactor"]["used"] == "E6"
    assert "resolution" in data["efactor"]
    code, out, _ = run(capsys, ["lift", "--name", "f_j", "--order", "2"])
    assert code == 0 and "E-factor:" in out


def test_hurwitz_table(capsys):
    code, out, _ = run(capsys, ["hurwitz", "--max", "4", "--json"])
    assert code == 0
    values = json.loads(out)["values"]
    assert values == {"0": "-1/12", "1": "0", "2": "0", "3": "1/3", "4": "1/2"}
    code, out, _ = run(capsys, ["hurwitz", "--max", "3"])
    assert out.splitlines()[-1] == "H(3) = 1/3"


def test_hurwitz_negative_max_rejected(capsys):
    code, out, err = run(capsys, ["hurwitz", "--max", "-3"])
    assert code == 4 and out == "" and err == "error: max must be >= 0\n"


@pytest.mark.parametrize("argv, message", [
    (["hurwitz", "--max", "-1"], "max must be >= 0"),
    (["mult", "table", "--algebra", "e8"],
     "algebra must be one of ['E10_level2', 'e10', 'fake', 'fake_monster'], got 'e8'"),
    (["vsys", "psi", "--file", "pair.json", "--order", "-1"], "order must be >= 0")])
def test_the_library_refuses_bad_flags_in_the_cli_words(capsys, tmp_path, monkeypatch, argv,
                                                         message):
    # each check runs once, in the library; golden_cli.json pins stdout only
    monkeypatch.chdir(tmp_path)
    Path("pair.json").write_text(json.dumps(system_json(sample_system("pair"))))
    assert run(capsys, argv) == (4, "", f"error: {message}\n")


def test_zeromult(capsys):
    code, out, _ = run(capsys, ["zeromult", "--name", "f_j", "--disc", "-3", "--json"])
    assert code == 0 and json.loads(out)["multiplicity"] == 3
    code, out, _ = run(capsys, ["zeromult", "--name", "f_j", "--disc", "-4", "--json"])
    assert json.loads(out)["multiplicity"] == 0
    assert run(capsys, ["zeromult", "--name", "f_j", "--disc", "1"])[0] == 4


def test_moonshine_checks(capsys):
    code, out, _ = run(capsys, ["moonshine", "denom", "--cap", "3"])
    assert code == 0 and out.startswith("PASS monster_denominator")
    code, out, _ = run(capsys, ["moonshine", "replication", "--cap", "3", "--json"])
    assert code == 0 and json.loads(out)["passed"] is True


def test_vsys_psi_and_check(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(system_json(sample_system("pair"))))
    code, out, _ = run(capsys, ["vsys", "psi", "--file", str(path),
                                "--order", "4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["qpre"] == "1/12"
    assert {"q": 0, "zeta2": [-1], "c": 1} in data["terms"]
    code, out, _ = run(capsys, ["vsys", "check", "--file", str(path),
                                "--shift", "1", "--order", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS elliptic_mu_shift")
    assert lines[1].startswith("PASS elliptic_tau_shift")
    assert run(capsys, ["vsys", "check", "--file", str(path),
                        "--shift", "1/4"])[0] == 4


@pytest.mark.parametrize("mult, shift, order, monomial, sides", [
    ({"-1": 1, "1": 2}, "1", "6", "(-3, (-8,))", "lhs 0 != rhs 1"),
    ({"-1,0": 2, "0,-1": 1, "0,1": 1, "1,0": 2}, "0,1/2", "4", "(5/4, (-6, -4))",
     "lhs 0 != rhs -1"),
])
def test_vsys_check_text_prints_rational_exponents(capsys, tmp_path, mult, shift, order,
                                                   monomial, sides):
    # the tau law's q-exponent is a Fraction; text prints it as --json does
    dim = len(shift.split(","))
    gram = [[2 * (i == j) for j in range(dim)] for i in range(dim)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": dim, "gram": gram, "mult": mult}))
    argv = ["vsys", "check", "--file", str(path), "--shift", shift, "--order", order]
    code, out, _ = run(capsys, argv)
    assert code == 3
    assert out.splitlines()[1] == (f"FAIL elliptic_tau_shift order={order} first mismatch at "
                                   f"{monomial}: {sides}")
    code, out, _ = run(capsys, argv + ["--json"])
    q = json.loads(out)[1]["first_mismatch"]["monomial"][0]
    assert code == 3 and q == monomial[1:].split(",")[0]


@pytest.mark.parametrize("flag, value, token", [
    ("--shift", "1/0", "'1/0'"), ("--shift", "1,", "''"), ("--chamber", "1/0", "'1/0'"),
    ("--chamber", ",1", "''"), ("--chamber", "1,x/2", "'x/2'"),
])
def test_vector_flags_name_the_token_they_cannot_read(capsys, tmp_path, flag, value, token):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_PAIR))
    shift = [] if flag == "--shift" else ["--shift", "1"]
    argv = ["vsys", "check", "--file", str(path), *shift, flag, value]
    want = f"error: {flag} entry {token} is not a rational number\n"
    assert run(capsys, argv) == (4, "", want)
    if flag == "--chamber":
        assert run(capsys, ["vsys", "psi", "--file", str(path), flag, value]) == (4, "", want)


@pytest.mark.parametrize("name, system, shift, message", [
    ("rank.json", {"dim": 2, "gram": [[2, 0], [0, 2]], "mult": {"-1,0": 1, "1,0": 1}}, "0,1/4",
     "zeta^(-m*shift) leaves the doubled grid: (0, 1/2)"),
    ("pair.json", {"dim": 1, "gram": [[2]], "mult": {"-1": 1, "1": 1}}, "1/4",
     "shift vector pairs non-integrally: ((1/4,), (-1,)) = -1/2"),
])
def test_vsys_check_prints_rational_vectors_in_errors(capsys, tmp_path, name, system, shift,
                                                      message):
    path = tmp_path / name
    path.write_text(json.dumps(system))
    argv = ["vsys", "check", "--file", str(path), "--shift", shift]
    assert run(capsys, argv) == (4, "", f"error: {message}\n")


@pytest.mark.parametrize("shift", ["1", "1,0,0"])
def test_vsys_check_rejects_shift_of_wrong_dimension(capsys, tmp_path, shift):
    path = tmp_path / "orthogonal.json"
    path.write_text(json.dumps(system_json(sample_system("orthogonal"))))
    code, out, err = run(capsys, ["vsys", "check", "--file", str(path), "--shift", shift])
    assert (code, out, err) == (4, "", "error: shift vector has wrong dimension\n")


def test_maass_lift_then_check_round_trip(capsys, tmp_path):
    table = JacobiCoeffTable(10, 1, {(0, 0): 2, (1, 1): 3, (2, 1): 5, (4, 2): 7})
    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps(table.to_json()))
    code, out, _ = run(capsys, ["maass", "lift", "--file", str(tpath),
                                "--max-m", "3", "--json"])
    assert code == 0
    spath = tmp_path / "s.json"
    spath.write_text(out)
    code, out, _ = run(capsys, ["maass", "check", "--file", str(spath)])
    assert code == 0 and out.startswith("PASS maass_relation")
    broken = json.loads(spath.read_text())
    key = sorted(k for k in broken["coeffs"] if k.endswith(",2"))[0]
    broken["coeffs"][key] += 1
    spath.write_text(json.dumps(broken))
    code, out, _ = run(capsys, ["maass", "check", "--file", str(spath)])
    assert code == 3 and out.startswith("FAIL maass_relation")


def test_mult_table(capsys):
    code, out, _ = run(capsys, ["mult", "table", "--algebra", "e10",
                                "--min-norm", "-8"])
    assert code == 0
    assert "-6 727 726 VIOLATED" in out
    code, out, _ = run(capsys, ["mult", "table", "--algebra", "fake_monster",
                                "--min-norm", "-4", "--json"])
    assert code == 0
    assert all(not row["violated"] for row in json.loads(out)["rows"])
    assert run(capsys, ["mult", "table", "--algebra", "e8"])[0] == 4


def test_mult_rademacher(capsys):
    code, out, _ = run(capsys, ["mult", "rademacher", "--n", "2", "--terms", "10",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["exact"] == "3200"
    assert data["rel_error"] < 1e-9
    assert run(capsys, ["mult", "rademacher", "--n", "0"])[0] == 4


@pytest.mark.parametrize("n", ["3400", "4000"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_mult_rademacher_past_double_precision(capsys, n, json_flag):
    code, out, err = run(capsys, ["mult", "rademacher", "--n", n, "--terms", "2"] + json_flag)
    assert (code, out) == (4, "")
    assert err == (f"error: Rademacher sum for p24({int(n) + 1}) overflows double precision "
                   "(about 1.8e308); the float path needs n <= 3229\n")


def test_missing_file_is_data_error(capsys):
    code, out, err = run(capsys, ["vsys", "psi", "--file", "/nonexistent.json"])
    assert code == 4 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["expand", "E6", "--order", "8", "--json"],
    ["hurwitz", "--max", "12"],
    ["lift", "--name", "f_6", "--order", "4", "--json"],
    ["mult", "table", "--algebra", "e10", "--min-norm", "-12", "--json"],
])
def test_repeated_invocations_byte_identical(capsys, argv):
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second and first[0] == 0


# A process loads the modules of the subcommand it runs and no others, and a
# plain invocation, which the table read runs, loads no part of argparse.
# This test process has imported every module already, so each case runs in a
# fresh interpreter, which prints its module names once cli.run has returned.
_MODULES_AFTER_RUN = """
import sys
from qmoon import cli
code = cli.run(sys.argv[1:])
print(sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""
_UNUSED_BY_EXPAND = {"qmoon.borcherds", "qmoon.identities", "qmoon.maass", "qmoon.moonshine",
                     "qmoon.mults", "qmoon.vsys"}
_PARSER_MODULES = {"argparse", "gettext", "locale"}


def _spawn(args, stdout=subprocess.PIPE, env=(), **kwargs):
    """(exit code, stdout, stderr) of python ARGS, with env's items set, or unset where None."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), **dict(env))
    env = {k: v for k, v in env.items() if v is not None}
    done = subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120, **kwargs)
    return done.returncode, done.stdout, done.stderr


def _modules_after_run(argv, expect=0):
    code, _, err = _spawn(["-c", _MODULES_AFTER_RUN, *argv])
    assert code == expect, err
    return set(ast.literal_eval(err.decode().splitlines()[-1]))


def test_expand_loads_only_its_modules():
    loaded = _modules_after_run(["expand", "theta", "--order", "1"])
    assert "qmoon.forms" in loaded
    unused = _UNUSED_BY_EXPAND | _PARSER_MODULES | {"json"}
    assert not loaded & unused, loaded & unused


def test_only_a_declined_argv_loads_argparse():
    assert not _modules_after_run(["mult", "table", "--algebra", "e10", "--json"]) & \
        _PARSER_MODULES
    # an abbreviated option goes to argparse
    assert "argparse" in _modules_after_run(["expand", "theta", "--ord", "1"])


@pytest.mark.parametrize("argv, data", [
    (["vsys", "psi", "--order", "4", "--file"], system_json(sample_system("pair"))),
    (["maass", "check", "--file"], _SIEGEL),
])
def test_vsys_and_maass_load_neither_identities_nor_forms(tmp_path, argv, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    loaded = _modules_after_run([*argv, str(path)])
    assert f"qmoon.{argv[0]}" in loaded
    assert not loaded & {"qmoon.identities", "qmoon.forms", *_PARSER_MODULES}, loaded


def test_json_output_loads_json():
    loaded = _modules_after_run(["expand", "theta", "--order", "1", "--json"])
    assert "json" in loaded and not loaded & _UNUSED_BY_EXPAND


_RATIONAL_MODULES = {"fractions", "decimal", "numbers"}


# a q-exponent is an int count of twenty-fourths, or on the doubled grid, so
# eta, theta2, psi, the shift laws and replication meet no true rational
@pytest.mark.parametrize("argv", [
    ["expand", "theta", "--order", "1"], ["hurwitz", "--max", "100", "--json"],
    ["mult", "table", "--algebra", "e10", "--json"], ["lift", "--name", "f_j", "--order", "5"],
    ["verify", "triple", "--order", "21"], ["expand", "leech", "--order", "20"],
    ["expand", "eta", "--order", "18"], ["expand", "theta2", "--order", "10", "--json"],
    ["verify", "euler3", "--order", "23"], ["verify", "theta_nullwert_products", "--order", "9"],
    ["moonshine", "replication", "--cap", "3"], ["vsys", "psi", "--file", "pair.json"],
    ["vsys", "check", "--file", "pair-bad.json", "--shift", "1"]])
def test_an_op_that_meets_no_true_rational_never_imports_fractions(argv, tmp_path):
    (tmp_path / "pair.json").write_text(json.dumps(system_json(sample_system("pair"))))
    (tmp_path / "pair-bad.json").write_text(
        json.dumps({"dim": 1, "gram": [[2]], "mult": {"-1": 1, "1": 2}}))
    expect = 3 if "pair-bad.json" in argv else 0  # the shift law fails, and says so
    loaded = _modules_after_run([str(tmp_path / a) if a.endswith(".json") else a for a in argv],
                                expect)
    assert not loaded & _RATIONAL_MODULES, loaded & _RATIONAL_MODULES


def test_factor_of_an_integer_series_never_imports_fractions(tmp_path):
    path = tmp_path / "j.json"
    path.write_text(json.dumps(forms.j_invariant(6).to_json()))
    loaded = _modules_after_run(["factor", "--input", str(path), "--order", "4"])
    assert not loaded & _RATIONAL_MODULES, loaded & _RATIONAL_MODULES


def test_a_truly_rational_op_imports_fractions_when_it_needs_one():
    # E12's q-coefficient 65520/691 is the first Fraction this run builds
    assert "fractions" in _modules_after_run(["expand", "E12", "--order", "5"])


def test_emit_builds_only_what_its_mode_prints(capsys):
    def unused():
        raise AssertionError("built, yet not printed")

    assert cli._emit(SimpleNamespace(json=True), lambda: {"a": 1}, unused) == 0
    assert cli._emit(SimpleNamespace(json=False), unused, lambda: (x for x in "bc")) == 0
    assert capsys.readouterr().out == '{"a": 1}\nb\nc\n'


# A slice of both golden corpora, spawned as python -m qmoon.cli: each
# subcommand in text and JSON, an exit 3 and an exit 4, and from the usage
# corpus an exit 2 and three help pages.  main ends the process itself, so
# only a spawn shows that its exit keeps every pinned byte.
_GOLDEN_SLICE = [argv + js for js in ([], ["--json"]) for argv in (
    ["expand", "theta", "--order", "8"] if not js else ["expand", "j", "--order", "6"],
    ["factor", "--input", "j.json", "--order", "5"],
    ["verify", "triple", "--order", "9" if js else "12"],
    ["lift", "--name", "f_delta", "--order", "3"],
    ["hurwitz", "--max", "20"],
    ["zeromult", "--name", "f_j", "--disc", "-3"],
    ["moonshine", "denom", "--cap", "3"],
    ["vsys", "psi", "--file", "pair.json", "--order", "4"],
    ["vsys", "check", "--file", "pair.json", "--shift", "1", "--order", "6"],
    ["maass", "lift", "--file", "jacobi.json", "--max-m", "1"],
    ["maass", "check", "--file", "siegel.json"],
    ["mult", "table", "--algebra", "e10", "--min-norm", "-12"],
    ["mult", "rademacher", "--n", "2", "--terms", "10"])] + [
    ["verify", "quintuple_w2", "--order", "12"], ["expand", "nonsense", "--order", "3"]]
_USAGE_SLICE = [["bogus"], ["--help"], ["expand", "--help"], ["vsys", "check", "--help"]]


@pytest.fixture(scope="module")
def golden_spawns(tmp_path_factory):
    """{case key: (exit code, stdout, stderr)} of the slice, spawned two at a time."""
    root = tmp_path_factory.mktemp("golden")
    golden._write_inputs(root)
    env = {"COLUMNS": "80", "PYTHONIOENCODING": "utf-8"}
    cases = _GOLDEN_SLICE + _USAGE_SLICE
    with ThreadPoolExecutor(2) as pool:
        runs = pool.map(lambda argv: _spawn(["-m", "qmoon.cli", *argv], cwd=root, env=env), cases)
        return dict(zip(map(golden._key, cases), runs))


@pytest.mark.parametrize("argv", _GOLDEN_SLICE + _USAGE_SLICE, ids=golden._key)
def test_module_run_reads_sys_argv(argv, golden_spawns):
    # python -m qmoon.cli parses sys.argv (no argv reaches run from main), and
    # its exit keeps the bytes both corpora pin: stdout, and stderr for usage
    code, out, err = golden_spawns[golden._key(argv)]
    out, err = (hashlib.sha256(text).hexdigest() for text in (out, err))
    if argv in _USAGE_SLICE:
        assert [code, out, err] == json.loads(golden.USAGE_CORPUS.read_text())[golden._key(argv)]
    else:
        assert [code, out] == json.loads(golden.CORPUS.read_text())[golden._key(argv)]


def test_the_golden_slice_runs_every_subcommand_in_both_modes_and_every_exit_code():
    leaves = {words for words, _, _, handler in cli.COMMANDS if handler}
    for js in (False, True):
        assert leaves == {words for words in leaves for argv in _GOLDEN_SLICE
                          if tuple(argv[:len(words)]) == words and ("--json" in argv) == js}
    corpus, usage = (json.loads(path.read_text()) for path in (golden.CORPUS, golden.USAGE_CORPUS))
    assert {corpus[golden._key(argv)][0] for argv in _GOLDEN_SLICE} == {0, 3, 4}
    assert [usage[golden._key(argv)][0] for argv in _USAGE_SLICE] == [2, 0, 0, 0]


# main ends a run with os._exit once atexit's callbacks have run and stdout and
# stderr are flushed; every case below must end as the interpreter's own exit,
# which main took before, ends it: same exit code, same stderr.  The one
# exception is output a full device could not take: main drops it and ends as
# an unbuffered run does, where the interpreter's exit fails to flush it.
_NORMAL_EXIT = "import sys; from qmoon import cli; sys.exit(cli.run())"
_ENDS = (["-m", "qmoon.cli"], ["-c", _NORMAL_EXIT])
_EXPAND = ["expand", "theta", "--order", "1"]


def _ends(argv, unbuffered, stdout=subprocess.PIPE, **kwargs):
    """(exit code, stderr) of main and of the normal exit, stdout buffered or not."""
    env = {"PYTHONUNBUFFERED": "1" if unbuffered else None}
    return [_spawn([*end, *argv], stdout, env, **kwargs)[::2] for end in _ENDS]


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv, code", [(_EXPAND, 0),
                                        (["verify", "quintuple_w2", "--order", "8"], 3)])
def test_a_closed_stdout_ends_as_before(argv, code, unbuffered):
    # python sets sys.stdout to None when fd 1 is closed at start (>&-)
    assert _ends(argv, unbuffered, None, preexec_fn=lambda: os.close(1)) == [(code, b"")] * 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [_EXPAND, ["verify", "quintuple_w2", "--order", "20"],
                                  ["expand", "--help"]])
def test_a_full_stdout_ends_as_before(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        main, normal = _ends(argv, unbuffered, full)
    enospc = b"[Errno 28] No space left on device\n"
    # unbuffered, a print fails at once; buffered, cli.run's flush fails: either
    # way cli.run reports it, and argparse's help ignores it
    assert main == ((0, b"") if "--help" in argv else (4, b"error: " + enospc))
    if unbuffered:
        assert normal == main
    else:  # the output stays in stdout's buffer: main drops it, while the
        # interpreter's own exit fails to flush it again
        assert normal[0] == 120 and normal[1].endswith(b"\nOSError: " + enospc)


_ATEXIT = """import atexit, sys
atexit.register(print, "atexit ran", file=sys.stderr)
from qmoon import cli
cli.main()
"""


@pytest.mark.parametrize("sink", [os.devnull, "/dev/full"])
def test_an_atexit_callback_runs_once(sink):
    if not os.path.exists(sink):
        pytest.skip(f"no {sink}")
    with open(sink, "wb") as stdout:
        code, _, err = _spawn(["-c", _ATEXIT, *_EXPAND], stdout, {"PYTHONUNBUFFERED": None})
    assert err.count(b"atexit ran") == 1
    if sink == os.devnull:
        assert (code, err) == (0, b"atexit ran\n")
    else:  # cli.run reports the failed flush, and main drops what stdout still holds
        assert (code, err) == (4, b"error: [Errno 28] No space left on device\natexit ran\n")


# threading's own exit hooks run in the interpreter's exit only, not past os._exit
_HOOKED = """import sys, threading
threading._register_atexit(print, "normal exit", file=sys.stderr)
{hook}
from qmoon import cli
cli.main()
"""


@pytest.mark.parametrize("hook, normal", [
    ("", False),
    ("sys.settrace(lambda *args: None)", True),
    ("sys.setprofile(lambda *args: None)", True),
    ("threading.Thread(target=threading.Event().wait, args=(0.2,)).start()", True)])
def test_a_hook_or_a_live_thread_takes_the_normal_exit(hook, normal):
    code, out, err = _spawn(["-c", _HOOKED.format(hook=hook), *_EXPAND])
    assert (code, out, err) == (0, b"1 + 2q + O(q^2)\n", b"normal exit\n" if normal else b"")


def test_cprofile_still_prints_its_stats():
    code, out, err = _spawn(["-m", "cProfile", "-m", "qmoon.cli", *_EXPAND])
    assert (code, err) == (0, b"") and out.startswith(b"1 + 2q + O(q^2)\n")
    assert b"function calls" in out and b"Ordered by: " in out
