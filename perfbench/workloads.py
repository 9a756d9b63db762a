"""The four seeded workloads: lists of qmoon CLI invocations with expected outcomes.

``build(workload, seed, inputs)`` writes the workload's input files under
``inputs`` and returns its ops.  The seed picks the input file contents and
small order offsets, chosen so every seed asks for the same amount of work;
the runner shuffles the op order with the same seed.  Each op carries the
exit code the CLI contract requires and a check of its stdout against the
independent references in ``oracle``.  Ops that reproduce the baseline rows
of ROADMAP item 1 keep fixed arguments and fixed names.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import oracle as O

WORKLOADS = ("dense-lift", "bivariate-verify", "order-sweep", "cli-burst")

# ``qmoon verify all`` runs these in this order.
IDENTITY_LABELS = ("euler1", "euler2", "euler3", "gauss", "triple", "quintuple_w1",
                   "quintuple_w2", "eisen_relations", "jacobi_delta", "theta_products",
                   "theta_nullwert_products", "delta_theta", "sigma_convolutions")


class Op(NamedTuple):
    name: str          # label in the results file, unique within a workload
    argv: tuple        # arguments after ``python -m qmoon.cli``
    expect: int        # exit code the CLI contract requires
    check: Callable    # (stdout) -> None, or a string naming the problem


# -- checks ---------------------------------------------------------------------


def check_expand(label, order, js):
    def check(out):
        want = O.named_form(label, order)
        if js:
            data = json.loads(out)
            if data["form"] != label:
                return f"form {data['form']!r}"
            got = O.series_from_json(data)
        else:
            got = O.parse_pretty(out.strip())
        return O.series_problem(got, want)
    return check


def _exponent_problem(h, exps, order, target):
    """Re-expand q^(-h) prod (1 - q^n)^e_n and compare it with the target series."""
    unit = O.euler_product(exps, order)
    for i in range(order + 1):
        if unit[i] != target.coeffs.get(i - h, 0):
            return f"re-expanded exponents disagree at q^{i - h}"
    return None


def check_lift(name, order, js):
    def check(out):
        h, want = O.lift_target(name, order)
        if js:
            data = json.loads(out)
            got_h = O.parse_rat(data["h"])
            exps = {int(n): O.parse_rat(e) for n, e in data["exponents"].items()}
            series = O.series_from_json(data["series"])
            efactor = data.get("efactor", {}).get("used")
        else:
            lines = out.splitlines()
            got_h = O.parse_rat(lines[0].removeprefix("h = "))
            pairs = lines[1].removeprefix("exponents: ").split()
            exps = {int(n): O.parse_rat(e) for n, e in (p.split(":") for p in pairs)}
            series = O.parse_pretty(lines[2])
            efactor = "E6" if len(lines) > 3 and "E6 numerator lifts to j" in lines[3] else None
        if got_h != h:
            return f"h = {got_h}, want {h}"
        if name == "f_j" and efactor != "E6":
            return "f_j E-factor resolution differs from the record (E6 lifts to j)"
        return O.series_problem(series, want) or _exponent_problem(h, exps, order, want)
    return check


def check_factor(coeffs, order, js):
    v = min(coeffs)
    target = O.Expected(Fraction(0), "full", coeffs, v + order)

    def check(out):
        if js:
            data = json.loads(out)
            h = O.parse_rat(data["h"])
            exps = {int(n): O.parse_rat(e) for n, e in data["exponents"].items()}
        else:
            lines = out.splitlines()
            h = O.parse_rat(lines[0].removeprefix("h = "))
            exps = {int(n): O.parse_rat(e) for n, e in (ln.split(":") for ln in lines[1:])}
        if h != -v:
            return f"h = {h}, want {-v}"
        return _exponent_problem(h, exps, order, target)
    return check


# quintuple_w2 fails by design: the printed identity has a slip, recorded at (1, -1).
RECORDED_W2 = ([1, -1], "-1", "1")


def check_verify(labels, order, js):
    def check(out):
        if js:
            data = json.loads(out)
            reports = data if isinstance(data, list) else [data]
            got = [(r["name"], r["order"], r["passed"],
                    r["first_mismatch"] and (r["first_mismatch"]["monomial"],
                                             r["first_mismatch"]["lhs"],
                                             r["first_mismatch"]["rhs"]))
                   for r in reports]
        else:
            got = []
            for line in out.splitlines():
                m = re.fullmatch(r"(PASS|FAIL) (\S+) order=(\d+)(?: first mismatch at "
                                 r"\((-?\d+), (-?\d+)\): lhs (\S+) != rhs (\S+))?", line)
                if not m:
                    return f"unparsed line {line!r}"
                mm = m.group(4) and ([int(m.group(4)), int(m.group(5))], m.group(6), m.group(7))
                got.append((m.group(2), int(m.group(3)), m.group(1) == "PASS", mm))
        want = [(lab, order, lab != "quintuple_w2", RECORDED_W2 if lab == "quintuple_w2" else None)
                for lab in labels]
        return None if got == want else f"reports {got[:3]}... differ from {want[:3]}..."
    return check


def check_moonshine(which, cap, js):
    name = {"denom": "monster_denominator", "replication": "monster_replication"}[which]

    def check(out):
        if js:
            data = json.loads(out)
            ok = data == {"name": name, "order": [cap, cap], "passed": True, "first_mismatch": None}
        else:
            ok = out == f"PASS {name} order=({cap}, {cap})\n"
        return None if ok else "moonshine report differs from PASS"
    return check


def check_hurwitz(top, js):
    def check(out):
        if js:
            data = json.loads(out)
            values = {int(n): O.parse_rat(v) for n, v in data["values"].items()}
        else:
            values = {}
            for line in out.splitlines():
                m = re.fullmatch(r"H\((\d+)\) = (-?\d+(?:/\d+)?)", line)
                if not m:
                    return f"unparsed line {line!r}"
                values[int(m.group(1))] = O.parse_rat(m.group(2))
        if sorted(values) != list(range(top + 1)):
            return "table does not cover 0..max"
        problems = O.hurwitz_problems(values)
        return problems[0] if problems else None
    return check


def check_zeromult(name, disc, js):
    def check(out):
        want = O.zero_multiplicity(name, disc)
        if js:
            ok = json.loads(out) == {"name": name, "disc": disc, "multiplicity": want}
        else:
            ok = out == f"multiplicity of the disc {disc} zero: {want}\n"
        return None if ok else f"multiplicity differs from {want}"
    return check


def check_mult_table(algebra, min_norm, js):
    def check(out):
        top = 1 - min_norm // 2
        if algebra == "fake":
            exact, bound = O.colored_partitions(24, top), O.colored_partitions(24, top)
        else:
            exact, bound = O.xi_list(top + 2)[2:], O.colored_partitions(8, top)
        rows = [(norm, exact[1 - norm // 2], bound[1 - norm // 2],
                 exact[1 - norm // 2] > bound[1 - norm // 2])
                for norm in range(2, min_norm - 1, -2)]
        if js:
            data = json.loads(out)
            want_name = "fake_monster" if algebra == "fake" else "E10_level2"
            got = [(r["norm"], r["exact"], r["bound"], r["violated"]) for r in data["rows"]]
            ok = data["algebra"] == want_name and got == rows
        else:
            want = ["norm exact bound flag"] + [
                f"{n} {e} {b} {'VIOLATED' if f else 'ok'}" for n, e, b, f in rows]
            ok = out.splitlines() == want
        return None if ok else "multiplicity table differs from the reference"
    return check


def check_rademacher(n, terms, js):
    def check(out):
        exact = O.colored_partitions(24, n + 1)[n + 1]
        if js:
            data = json.loads(out)
            approx, rel, got_exact = data["approx"], data["rel_error"], int(data["exact"])
        else:
            m = re.fullmatch(r"p24\((\d+)\) ~ (\S+) \(exact (\d+), rel error (\S+)\)\n", out)
            if not m or int(m.group(1)) != n + 1:
                return "unparsed rademacher line"
            approx, rel, got_exact = float(m.group(2)), float(m.group(4)), int(m.group(3))
        if got_exact != exact:
            return f"exact p24({n + 1}) differs"
        true_rel = abs(approx - exact) / exact
        if true_rel > 1e-9 or abs(rel - true_rel) > 1e-3 * true_rel + 1e-300:
            return f"rel error {rel} (true {true_rel})"
        return None
    return check


def check_vsys_psi(system, chamber, order, js):
    def check(out):
        qpre, want = O.psi_terms(system["dim"], system["gram"], _mult(system), chamber, order)
        if js:
            data = json.loads(out)
            got = {(t["q"], tuple(t["zeta2"])): t["c"] for t in data["terms"]}
            head_ok = Fraction(data["qpre"]) == qpre and data["trunc"] == order
        else:
            lines = out.splitlines()
            head_ok = lines[0] == f"prefactor exponent: {O.fmt_rat(qpre)}"
            got = {}
            for line in lines[1:]:
                m = re.fullmatch(r"  q\^(\d+) zeta2=\[([-\d, ]+)\]: (-?\d+)", line)
                if not m:
                    return f"unparsed line {line!r}"
                zeta2 = tuple(int(x) for x in m.group(2).split(","))
                got[(int(m.group(1)), zeta2)] = int(m.group(3))
        return None if head_ok and got == want else "psi expansion differs from the reference"
    return check


def check_shift_laws(valid, order, js):
    def check(out):
        if js:
            got = [(r["name"], r["order"], r["passed"]) for r in json.loads(out)]
        else:
            got = []
            for line in out.splitlines():
                m = re.match(r"(PASS|FAIL) (\S+) order=(\d+)", line)
                if not m:
                    return f"unparsed line {line!r}"
                got.append((m.group(2), int(m.group(3)), m.group(1) == "PASS"))
        names = [(g[0], g[1]) for g in got]
        if names != [("elliptic_mu_shift", order), ("elliptic_tau_shift", order)]:
            return f"reports {names}"
        verdicts = [g[2] for g in got]
        if valid:
            return None if all(verdicts) else "a valid system fails a shift law"
        return None if not verdicts[1] else "the perturbed system passes the tau law"
    return check


def check_maass_lift(k, jacobi, bound, max_m, js):
    def check(out):
        want = O.maass_table(k, jacobi, bound, max_m)
        if js:
            data = json.loads(out)
            got = {tuple(int(x) for x in key.split(",")): a for key, a in data["coeffs"].items()}
            head_ok = data["k"] == k and data["disc_bound"] == bound
        else:
            head_ok, got = True, {}
            for line in out.splitlines():
                m = re.fullmatch(r"a\((-?\d+),(-?\d+),(\d+)\) = (-?\d+)", line)
                if not m:
                    return f"unparsed line {line!r}"
                got[(int(m.group(1)), int(m.group(2)), int(m.group(3)))] = int(m.group(4))
        return None if head_ok and got == want else "assembled table differs from the reference"
    return check


def check_maass_relation(valid, bound, js):
    def check(out):
        if js:
            data = json.loads(out)
            got = (data["name"], data["order"], data["passed"])
        else:
            m = re.match(r"(PASS|FAIL) (\S+) order=(\d+)", out)
            if not m:
                return "unparsed maass report"
            got = (m.group(2), int(m.group(3)), m.group(1) == "PASS")
        return None if got == ("maass_relation", bound, valid) else f"report {got}"
    return check


def check_no_output(out):
    return None if out == "" else "an error path printed a result on stdout"


# -- inputs ---------------------------------------------------------------------


def _series_json(coeffs: dict, trunc: int) -> dict:
    return {"var": "q", "nome": "full", "prefactor": "0", "trunc": trunc,
            "coeffs": {str(e): O.fmt_rat(c) for e, c in sorted(coeffs.items())}}


def _unit_series(rng, order, bits):
    coeffs = {0: 1}
    for n in range(1, order + 1):
        coeffs[n] = rng.randint(-(1 << bits), 1 << bits)
    return {e: c for e, c in coeffs.items() if c}


def _mult(system):
    return {tuple(int(x) for x in key.split(",")): c for key, c in system["mult"].items()}


def _vector_system(rng, family):
    """A valid vector system: symmetric multiplicities on a root-system shell."""
    zero = rng.choice((0, 2))
    if family == "line":
        a, b = rng.randint(1, 3), rng.randint(0, 1)
        mult = {(1,): a, (-1,): a, (2,): b, (-2,): b, (0,): zero}
        return {"dim": 1, "gram": [[2]]}, mult, (1,), (1,), (1,), 1
    if family == "square":
        a, b = rng.randint(1, 2), rng.randint(0, 1)
        mult = {(1, 0): a, (-1, 0): a, (0, 1): a, (0, -1): a,
                (1, 1): b, (-1, -1): b, (1, -1): b, (-1, 1): b, (0, 0): zero}
        return ({"dim": 2, "gram": [[2, 0], [0, 2]]}, mult, (3, 1),
                rng.choice(((1, 0), (0, 1), (1, 1))), rng.choice(((1, 0), (0, 1))), 2)
    a = rng.randint(1, 2)
    mult = {(1, 0): a, (-1, 0): a, (0, 1): a, (0, -1): a, (1, 1): a, (-1, -1): a, (0, 0): zero}
    return ({"dim": 2, "gram": [[2, -1], [-1, 2]]}, mult, (3, 1),
            rng.choice(((1, 0), (0, 1))), rng.choice(((1, 0), (0, 1), (1, 1))), 2)


def _system_json(head, mult):
    return {**head, "mult": {",".join(map(str, v)): c for v, c in sorted(mult.items()) if c}}


def _vec(v) -> str:
    return ",".join(map(str, v))


def _jacobi_table(rng, top):
    """Index-1 coefficients c(n, r) = f(4n - r^2) for n <= top, like a true Jacobi form."""
    f = {d: rng.randint(-9, 9) for d in range(4 * top + 1)}
    f[0] = rng.randint(1, 9)
    table = {}
    for n in range(top + 1):
        r = 0
        while r * r <= 4 * n:
            for s in {r, -r}:
                if f[4 * n - s * s]:
                    table[(n, s)] = f[4 * n - s * s]
            r += 1
    return table


class _Inputs:
    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, data) -> str:
        path = self.root / name
        text = data if isinstance(data, str) else json.dumps(data)
        path.write_text(text, encoding="utf-8")
        return str(path)


# -- the workloads -----------------------------------------------------------------


def _expand(label, order, js):
    argv = ("expand", label, "--order", str(order)) + (("--json",) if js else ())
    return Op(f"expand {label} {order}", argv, 0, check_expand(label, order, js))


def _lift(name, order, js):
    argv = ("lift", "--name", name, "--order", str(order)) + (("--json",) if js else ())
    return Op(f"lift {name} {order}", argv, 0, check_lift(name, order, js))


def _factor(label, path, coeffs, order, js):
    argv = ("factor", "--input", path, "--order", str(order)) + (("--json",) if js else ())
    return Op(f"factor {label} {order}", argv, 0, check_factor(coeffs, order, js))


def _verify(label, order, js):
    labels = IDENTITY_LABELS if label == "all" else (label,)
    expect = 3 if "quintuple_w2" in labels else 0
    argv = ("verify", label, "--order", str(order)) + (("--json",) if js else ())
    return Op(f"verify {label} {order}", argv, expect, check_verify(labels, order, js))


def _moonshine(which, cap, js):
    argv = ("moonshine", which, "--cap", str(cap)) + (("--json",) if js else ())
    return Op(f"moonshine {which} {cap}", argv, 0, check_moonshine(which, cap, js))


def _mult_table(algebra, min_norm, js):
    argv = ("mult", "table", "--algebra", algebra, "--min-norm", str(min_norm)) + (
        ("--json",) if js else ())
    return Op(f"mult table {algebra} {min_norm}", argv, 0,
              check_mult_table(algebra, min_norm, js))


def _hurwitz(top, js):
    argv = ("hurwitz", "--max", str(top)) + (("--json",) if js else ())
    return Op(f"hurwitz {top}", argv, 0, check_hurwitz(top, js))


def _rademacher(n, terms, js):
    argv = ("mult", "rademacher", "--n", str(n), "--terms", str(terms)) + (
        ("--json",) if js else ())
    return Op(f"mult rademacher {n} {terms}", argv, 0,
              check_rademacher(n, terms, js))


def _dense_lift(rng, inputs):
    e4 = O.named_form("e4", 200).coeffs
    j = O.named_form("j", 240).coeffs
    unit = _unit_series(rng, 200, 8)
    return [
        _lift("f_j", 50, False),
        _lift("f_4", 40, False),
        _lift("f_delta", 50, True),
        _factor("E4", inputs.write("e4.json", _series_json(e4, 200)), e4, 200, False),
        _factor("j", inputs.write("j.json", _series_json(j, 240)), j, 240, False),
        _factor("unit", inputs.write("unit.json", _series_json(unit, 200)), unit, 200, True),
        _expand("delta", 800, False),
        _expand("j", 300, True),
        _expand("leech", 400, False),
    ]


def _bivariate_verify(rng, inputs):
    jitter = [rng.randint(0, 4) for _ in range(5)]
    return [
        _verify("all", 90, False),
        _verify("quintuple_w1", 126 + jitter[0], True),
        _verify("theta_products", 126 + jitter[1], False),
        _verify("triple", 146 + jitter[2], False),
        _verify("quintuple_w2", 106 + jitter[3], True),
        _verify("euler1", 146 + jitter[4], True),
        _moonshine("denom", 14, False),
        _moonshine("replication", 8, False),
        _moonshine("replication", 9, True),
    ]


def _order_sweep(rng, inputs):
    # Paired min-norms a = -280 - 2i, b = -280 + 2i keep the summed cubic cost flat.
    # The larger e10 table is the median op, so its offset k stays small: op_p50_s
    # then barely depends on the seed.
    i, k = rng.randint(1, 4), rng.randint(1, 2)
    return [
        _mult_table("fake", -400, False),
        _mult_table("fake", -280 - 2 * i, True),
        _mult_table("fake", -280 + 2 * i, False),
        _mult_table("e10", -220 - 2 * k, False),
        _mult_table("e10", -220 + 2 * k, True),
        _hurwitz(2800 + 4 * rng.randint(0, 50), rng.random() < 0.5),
        _rademacher(280 + rng.randint(0, 40), 20, rng.random() < 0.5),
    ]


EXPAND_LABELS = ("E4", "E6", "E8", "E10", "E12", "E14", "delta", "eta", "jstar", "theta",
                 "theta2", "theta3", "theta4", "leech", "f", "p", "p24", "xi")
LIGHT_IDENTITIES = ("euler1", "euler3", "gauss", "triple", "eisen_relations",
                    "jacobi_delta", "theta_nullwert_products", "delta_theta",
                    "sigma_convolutions")
# The CLI contract says malformed factor input exits 4; these two shapes are known
# to crash with a TypeError traceback instead, and count as failed ops until fixed.
KNOWN_DEFECTS = ("factor top-level list", "factor numeric coefficient")


def _cli_burst(rng, inputs):
    def js():
        return rng.random() < 0.5
    ops = [Op("expand j 10", ("expand", "j", "--order", "10"), 0, check_expand("j", 10, False))]
    ops += [_expand(label, rng.randint(8, 24), js()) for label in EXPAND_LABELS]

    e4 = O.named_form("e4", 30).coeffs
    small = _unit_series(rng, 24, 3)
    ops.append(_factor("E4", inputs.write("e4-small.json", _series_json(e4, 30)), e4, 30, js()))
    ops.append(_factor("unit", inputs.write("unit-small.json", _series_json(small, 24)),
                       small, 24, js()))
    for label in rng.sample(LIGHT_IDENTITIES, 4) + ["quintuple_w2"]:
        ops.append(_verify(label, rng.randint(16, 24), js()))
    for name in ("f_4", "f_6", "f_j", "f_delta"):
        ops.append(_lift(name, rng.randint(4, 7), js()))
    ops.append(_hurwitz(4 * rng.randint(20, 40), js()))
    for name in rng.sample(sorted(O.PRINCIPAL_PARTS), 2):
        disc, flag = rng.choice((-1, -3, -4, -7, -8, -12, -16)), js()
        argv = ("zeromult", "--name", name, "--disc", str(disc)) + (("--json",) if flag else ())
        ops.append(Op(f"zeromult {name} {disc}", argv, 0, check_zeromult(name, disc, flag)))
    ops += [_moonshine("denom", 3, js()), _moonshine("replication", 3, js())]
    ops += [_mult_table("fake", -20, js()), _mult_table("e10", -16, js()),
            _rademacher(rng.randint(20, 60), 10, js())]

    for family in ("line", "square", "hex"):
        head, mult, chamber, shift, bump, step = _vector_system(rng, family)
        path = inputs.write(f"vsys-{family}.json", _system_json(head, mult))
        system = _system_json(head, mult)
        order = rng.randint(6, 9) if family == "line" else rng.randint(4, 5)
        flag = js()
        ops.append(Op(f"vsys psi {family}",
                      ("vsys", "psi", "--file", path, "--order", str(order),
                       "--chamber", _vec(chamber)) + (("--json",) if flag else ()),
                      0, check_vsys_psi(system, chamber, order, flag)))
        flag = js()
        ops.append(Op(f"vsys check {family}",
                      ("vsys", "check", "--file", path, "--shift", _vec(shift),
                       "--order", str(order), "--chamber", _vec(chamber))
                      + (("--json",) if flag else ()), 0, check_shift_laws(True, order, flag)))
        if family != "square":
            # Breaking c(v) = c(-v) by a step that keeps the index integral must
            # break the tau shift law: exit 3.
            broken = dict(mult)
            broken[bump] += step
            bpath = inputs.write(f"vsys-{family}-perturbed.json", _system_json(head, broken))
            flag = js()
            ops.append(Op(f"vsys check {family} perturbed",
                          ("vsys", "check", "--file", bpath, "--shift", _vec(shift),
                           "--order", str(order), "--chamber", _vec(chamber))
                          + (("--json",) if flag else ()), 3, check_shift_laws(False, order, flag)))

    for idx in range(2):
        k, top, max_m = rng.choice((10, 12)), rng.randint(4, 6), rng.randint(3, 5)
        table = _jacobi_table(rng, top)
        bound = max(4 * n - r * r for n, r in table)
        jpath = inputs.write(f"jacobi-{idx}.json", {
            "k": k, "m": 1, "disc_bound": bound,
            "coeffs": {f"{n},{r}": c for (n, r), c in sorted(table.items())}})
        flag = js()
        ops.append(Op(f"maass lift {idx}",
                      ("maass", "lift", "--file", jpath, "--max-m", str(max_m))
                      + (("--json",) if flag else ()), 0,
                      check_maass_lift(k, table, bound, max_m, flag)))
        siegel = O.maass_table(k, table, bound, max_m)
        if idx == 1:
            key = rng.choice(sorted(key for key in siegel if key[2] > 1))
            siegel[key] += 2 if siegel[key] == -1 else 1
        spath = inputs.write(f"siegel-{idx}.json", {
            "k": k, "disc_bound": bound,
            "coeffs": {f"{n},{r},{m}": a for (n, r, m), a in sorted(siegel.items())}})
        flag = js()
        ops.append(Op(f"maass check {idx}{' perturbed' if idx else ''}",
                      ("maass", "check", "--file", spath) + (("--json",) if flag else ()),
                      3 if idx else 0, check_maass_relation(idx == 0, bound, flag)))

    # Error paths: the contract says 2 for usage errors, 4 for bad input data.
    listed = [str(rng.randint(-9, 9)) for _ in range(rng.randint(3, 8))]
    numeric = {"trunc": 6, "coeffs": {"0": 1, str(rng.randint(1, 6)): rng.randint(2, 99)}}
    valid = json.dumps(_series_json(small, 24))
    cut = valid[:rng.randint(1, len(valid) - 2)]
    bad_gram = {"dim": 1, "gram": [[-2 * rng.randint(1, 3)]], "mult": {"1": 1, "-1": 1}}
    odd_weight = {"k": rng.choice((9, 11)), "m": 1, "coeffs": {"0,0": 1}}
    pair = inputs.write("vsys-pair.json", {"dim": 1, "gram": [[2]], "mult": {"1": 1, "-1": 1}})
    errors = [
        (KNOWN_DEFECTS[0], ("factor", "--input", inputs.write("list.json", listed)), 4),
        (KNOWN_DEFECTS[1], ("factor", "--input", inputs.write("numeric.json", numeric)), 4),
        ("factor malformed json", ("factor", "--input", inputs.write("cut.json", cut)), 4),
        ("factor missing file", ("factor", "--input", str(inputs.root / "absent.json")), 4),
        ("expand unknown form", ("expand", "e5x"), 4),
        ("expand negative order", ("expand", "j", "--order", str(-rng.randint(2, 9))), 4),
        ("vsys psi indefinite gram", ("vsys", "psi", "--file",
                                      inputs.write("indefinite.json", bad_gram)), 4),
        ("vsys check fractional shift", ("vsys", "check", "--file", pair, "--shift", "1/4"), 4),
        ("maass lift odd weight", ("maass", "lift", "--file",
                                   inputs.write("odd-weight.json", odd_weight)), 4),
        ("mult table unknown algebra", ("mult", "table", "--algebra", "e8"), 4),
        ("zeromult positive disc", ("zeromult", "--name", "f_j", "--disc",
                                    str(rng.randint(1, 9))), 4),
        ("moonshine zero cap", ("moonshine", "denom", "--cap", "0"), 4),
        ("verify unknown identity", ("verify", "euler9"), 2),
        ("hurwitz missing max", ("hurwitz",), 2),
        ("lift non-integer order", ("lift", "--name", "f_4", "--order", "4.5"), 2),
        ("unknown subcommand", ("expnad", "j"), 2),
    ]
    ops += [Op(name, argv, expect, check_no_output) for name, argv, expect in errors]
    return ops


_BUILDERS = {"dense-lift": _dense_lift, "bivariate-verify": _bivariate_verify,
             "order-sweep": _order_sweep, "cli-burst": _cli_burst}


def build(workload: str, seed: int, inputs: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, _Inputs(inputs))
    if len({op.name for op in ops}) != len(ops):
        raise ValueError(f"duplicate op names in {workload}")
    return ops
