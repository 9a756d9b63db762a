"""Fuzz the CLI contract over small inputs: every argv ends in exit 0, 2, 3 or 4.

Hypothesis draws argv for every subcommand, with known and malformed
labels, small and negative sizes, and ``--json`` on or off, plus small JSON
input files: series, vector systems, Jacobi and Siegel tables, and files of
the wrong shape (wrong types, lists, missing fields, cut-off text).  Each
case runs ``cli.run`` in process; no exception may escape it.  Every size
is kept small (label digits stay at two or fewer, orders at most 6 where
one is given, else the defaults), so no case starts large work.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from qmoon import cli

orders = st.one_of(st.none(), st.integers(-2, 6))


def _flag(name, values):
    """[] or [name, str(value)] for a drawn value; None means the flag is left out."""
    return values.map(lambda v: [] if v is None else [name, str(v)])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


def _word(choices):
    return st.one_of(st.sampled_from(choices), st.from_regex(r"[a-zA-Z_*]{0,3}[0-9]{0,2}",
                                                             fullmatch=True))


FORMS = ["j", "delta", "tau", "eta", "E4", "E6", "E10", "E3", "e0", "jstar", "j*", "theta",
         "theta2", "theta5", "leech", "F", "p", "p24", "p0", "xi", " j ", "nonsense"]
LABELS = ["euler1", "euler2", "euler3", "gauss", "triple", "quintuple_w1", "quintuple_w2",
          "eisen_relations", "jacobi_delta", "theta_products", "theta_nullwert_products",
          "delta_theta", "sigma_convolutions", "all", "euler9"]
CATALOG = ["f_delta", "f_4", "f_6", "f_8", "f_10", "f_14", "f_j", "f_5"]


def _mostly(good, bad):
    """good about four times in five, else bad."""
    return st.sampled_from((good,) * 4 + (bad,)).flatmap(lambda strategy: strategy)


VECTORS = st.lists(_mostly(st.sampled_from(["0", "1", "-1", "2", "1/2"]),
                           st.sampled_from(["2/3", "x", ""])),
                   min_size=1, max_size=3).map(",".join)
ints = st.integers(-3, 12)
BAD_VALUES = st.one_of(ints, st.sampled_from(["x", "", "1/0", "1.5"]), st.none(), st.booleans(),
                       st.floats(-2, 2, allow_nan=False), st.lists(ints, max_size=2))
BAD_KEYS = st.sampled_from(["x", "", "1", "1,2,3,4", "-1,0", "0,5", "-1,0,1", "0,0,0", "1,x"])


@st.composite
def _spoiled(draw, documents):
    """A well-formed document; one time in five one field or one entry of its
    ``coeffs`` or ``mult`` map is removed, replaced by a bad value, or added
    under a bad key."""
    doc = draw(documents)
    if draw(_mostly(st.just(False), st.just(True))):
        where = draw(st.sampled_from([doc, doc.get("coeffs", doc.get("mult"))]))
        how = draw(st.sampled_from(["drop", "value", "key"]))
        if how == "key" or not where:
            where[draw(BAD_KEYS)] = draw(st.sampled_from([1, "1"]))
        elif how == "drop":
            del where[draw(st.sampled_from(sorted(where)))]
        else:
            where[draw(st.sampled_from(sorted(where)))] = draw(BAD_VALUES)
    return doc


def _keyed(keys, values):
    return st.dictionaries(keys.map(lambda v: ",".join(map(str, v))), values, max_size=8)


@st.composite
def series_files(draw):
    """Series with trunc <= 6 led by a coefficient 1, as a product expansion needs."""
    lead = draw(st.integers(-2, 2))
    trunc = draw(st.integers(lead, 6))
    values = st.one_of(st.integers(-9, 9).map(str), st.sampled_from(["-1/3", "5/2"]))
    coeffs = draw(_keyed(st.tuples(st.integers(lead + 1, trunc)), values)) if trunc > lead else {}
    coeffs[str(lead)] = "1"
    optional = {"prefactor": st.sampled_from(["0", "1/24", "1/2"]),
                "var": st.sampled_from(["q", "p"]), "nome": st.sampled_from(["full", "half"])}
    return draw(st.fixed_dictionaries({"trunc": st.just(trunc), "coeffs": st.just(coeffs)},
                                      optional=optional))


@st.composite
def vsys_files(draw):
    """Vector systems of dimension <= 2 with multiplicities <= 3 and a positive gram."""
    dim = draw(st.integers(1, 2))
    gram = [[draw(st.integers(1, 3)) if i == j else 0 for j in range(dim)] for i in range(dim)]
    if dim == 2:
        gram[0][1] = gram[1][0] = draw(st.integers(-1, 1))
    vectors = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    return {"dim": dim, "gram": gram, "mult": draw(_keyed(vectors, st.integers(0, 3)))}


@st.composite
def _cusp_keys(draw, layers):
    """(n, r, m) with n <= 6 and r^2 <= 4nm."""
    n, m = draw(st.integers(0, 6)), draw(layers)
    reach = int((4 * n * m) ** 0.5)
    return n, draw(st.integers(-reach, reach)), m


def _tables(keys, **fields):
    return st.fixed_dictionaries(
        {**fields, "coeffs": _keyed(keys, st.integers(-9, 9))},
        optional={"disc_bound": st.one_of(st.integers(-1, 30), st.none())})


jacobi_files = _tables(_cusp_keys(st.just(1)).map(lambda key: key[:2]),
                       k=st.sampled_from([4, 6, 10]), m=st.just(1))
siegel_files = _tables(_cusp_keys(st.integers(1, 3)), k=st.sampled_from([4, 10]))
junk = st.one_of(st.lists(ints, max_size=3), ints, st.text(max_size=4), st.none(),
                 st.fixed_dictionaries({}, optional={"coeffs": st.lists(ints, max_size=2),
                                                     "dim": st.sampled_from([1, "1"]),
                                                     "k": ints}))


@st.composite
def input_files(draw, documents):
    """A document as JSON text: junk one time in five, else possibly spoiled,
    and now and then cut off part way."""
    text = json.dumps(draw(_mostly(_spoiled(documents), junk)))
    if draw(_mostly(st.just(False), st.just(True))):
        text = text[:draw(st.integers(0, len(text)))]
    return text


FILE = "input.json"
json_flag = st.sampled_from([[], ["--json"]])


def _cases(*parts, documents=None):
    """(argv, input file text) for one subcommand."""
    return st.tuples(_argv(*parts), st.just("") if documents is None else input_files(documents))


CASES = st.one_of(
    _cases(st.just(["expand"]), _word(FORMS).map(lambda w: [w]), _flag("--order", orders),
           json_flag),
    _cases(st.just(["factor", "--input", FILE]), _flag("--order", orders), json_flag,
           documents=series_files()),
    _cases(st.just(["verify"]), _word(LABELS).map(lambda w: [w]), _flag("--order", orders),
           json_flag),
    _cases(st.just(["lift", "--name"]), _word(CATALOG).map(lambda w: [w]),
           _flag("--order", orders), json_flag),
    _cases(st.just(["hurwitz"]), _flag("--max", st.integers(-1, 60)), json_flag),
    _cases(st.just(["zeromult", "--name"]), _word(CATALOG).map(lambda w: [w]),
           _flag("--disc", st.integers(-24, 4)), json_flag),
    _cases(st.just(["moonshine"]), _word(["denom", "replication"]).map(lambda w: [w]),
           _flag("--cap", st.one_of(st.none(), st.integers(-1, 3))), json_flag),
    _cases(st.just(["vsys", "psi", "--file", FILE]), _flag("--order", orders),
           _flag("--chamber", st.one_of(st.none(), VECTORS)), json_flag,
           documents=vsys_files()),
    _cases(st.just(["vsys", "check", "--file", FILE]), _flag("--shift", VECTORS),
           _flag("--order", orders), _flag("--chamber", st.one_of(st.none(), VECTORS)),
           json_flag, documents=vsys_files()),
    _cases(st.just(["maass", "lift", "--file", FILE]),
           _flag("--max-m", st.one_of(st.none(), st.integers(-1, 4))), json_flag,
           documents=jacobi_files),
    _cases(st.just(["maass", "check", "--file", FILE]), json_flag, documents=siegel_files),
    _cases(st.just(["mult", "table", "--algebra"]),
           _word(["e10", "E10_level2", "fake", "fake_monster", "e8"]).map(lambda w: [w]),
           _flag("--min-norm", st.one_of(st.none(), st.integers(-20, 4))), json_flag),
    _cases(st.just(["mult", "rademacher"]), _flag("--n", st.integers(-1, 40)),
           _flag("--terms", st.one_of(st.none(), st.integers(-1, 4))), json_flag),
    _cases(st.lists(_word(["expand", "vsys", "maass", "mult", "--json", "--help", "-h"]),
                    max_size=2)),
)


@settings(max_examples=400, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=CASES)
def test_cli_keeps_its_exit_contract(case, tmp_path, monkeypatch, capsys):
    argv, text = case
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QMOON_DEFAULT_ORDER", raising=False)
    (tmp_path / FILE).write_text(text, encoding="utf-8")
    code = cli.run(argv)
    capsys.readouterr()
    assert code in (0, 2, 3, 4)
