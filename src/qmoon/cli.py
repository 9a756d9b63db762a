"""Command-line front end: one argparse tree over the whole engine.

Exit codes: 0 success, 2 usage error, 3 verification mismatch, 4 bad input
data.  JSON mode emits one line per invocation with maps built in ascending
exponent order; text mode prints expansions the way the displays read,
ascending with explicit signs.  Identical invocations produce identical
bytes.  Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import borcherds, forms, identities, maass, moonshine, mults, vsys
from .series import QSeries, exponents_from_series

_ALGEBRA_NAMES = {"e10": "E10_level2", "E10_level2": "E10_level2",
                  "fake": "fake_monster", "fake_monster": "fake_monster"}


def _default_order(args, fallback=10):
    order = getattr(args, "order", None)
    if order is None:
        env = os.environ.get("QMOON_DEFAULT_ORDER", str(fallback))
        try:
            order = int(env)
        except ValueError:
            raise ValueError(f"QMOON_DEFAULT_ORDER must be an integer, got {env!r}") from None
    if order < 0:
        raise ValueError("order must be >= 0")
    return order


def _emit(args, payload, lines, reports=()) -> int:
    """Print the payload as JSON or the lines as text; exit 3 if a report failed."""
    if args.json:
        print(json.dumps(payload, default=str))
    else:
        for line in lines:
            print(line)
    return 0 if all(r.passed for r in reports) else 3


def _unique_keys(pairs):
    """A JSON object's pairs as a dict; a repeated key is bad input, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle, object_pairs_hook=_unique_keys)


def _parse_vector(text: str, flag: str):
    """A comma-separated rational vector such as "1/2,1,0"; names a token it cannot read."""
    vector = []
    for tok in text.split(","):
        try:
            vector.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{flag} entry {tok.strip()!r} is not a rational number") from None
    return tuple(vector)


def _fmt_monomial(m) -> str:
    """A tuple as its repr reads, with rationals inside as -3 or 23/4."""
    if not isinstance(m, tuple):
        return str(m)
    parts = [_fmt_monomial(x) for x in m]
    return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"


def _report_line(report) -> str:
    if report.passed:
        return f"PASS {report.name} order={report.order}"
    monomial, lhs, rhs = report.first_mismatch
    return (f"FAIL {report.name} order={report.order} "
            f"first mismatch at {_fmt_monomial(monomial)}: lhs {lhs} != rhs {rhs}")


def _cmd_expand(args) -> int:
    order = _default_order(args)
    f = forms.named_form(args.form, order)
    payload = {"form": args.form, **f.to_json()}
    return _emit(args, payload, [f.pretty()])


def _cmd_factor(args) -> int:
    f = QSeries.from_json(_load_json(args.input))
    order = _default_order(args)
    table = exponents_from_series(f, order)
    data = table.to_json()
    lines = [f"h = {data['h']}"]
    lines += [f"  {n}: {e}" for n, e in data["exponents"].items()]
    return _emit(args, {"input": args.input, **data}, lines)


def _cmd_verify(args) -> int:
    order = _default_order(args, 30)
    if args.identity == "all":
        reports = identities.verify_all(order)
        payload = [r.to_json() for r in reports]
    else:
        reports = [identities.verify(args.identity, order)]
        payload = reports[0].to_json()
    return _emit(args, payload, [_report_line(r) for r in reports], reports)


def _cmd_lift(args) -> int:
    order = _default_order(args)
    f = borcherds.catalog(args.name, order * order)
    lifted = borcherds.lift(f, order)
    data = lifted.table.to_json()
    payload = {"name": args.name, "h": data["h"], "order": order,
               "exponents": data["exponents"], "series": lifted.result.to_json()}
    lines = [f"h = {data['h']}",
             "exponents: " + " ".join(f"{n}:{e}" for n, e in data["exponents"].items()),
             lifted.result.pretty()]
    if args.name == "f_j":
        report = borcherds.fj_efactor_report(lifted.result, order)
        payload["efactor"] = report
        lines.append(f"E-factor: {report['resolution']}")
    return _emit(args, payload, lines)


def _cmd_hurwitz(args) -> int:
    if args.max < 0:
        raise ValueError("max must be >= 0")
    values = borcherds.HurwitzTable(args.max).values
    payload = {"max": args.max, "values": {str(n): str(v) for n, v in values.items()}}
    lines = [f"H({n}) = {v}" for n, v in values.items()]
    return _emit(args, payload, lines)


def _cmd_zeromult(args) -> int:
    f = borcherds.catalog(args.name, 4)
    mult = borcherds.zero_multiplicity(f, args.disc)
    payload = {"name": args.name, "disc": args.disc, "multiplicity": mult}
    return _emit(args, payload, [f"multiplicity of the disc {args.disc} zero: {mult}"])


def _cmd_moonshine(args) -> int:
    if args.which == "denom":
        report = moonshine.denominator_check(args.cap, args.cap)
    else:
        report = moonshine.replication_check(args.cap)
    return _emit(args, report.to_json(), [_report_line(report)], [report])


def _cmd_vsys_psi(args) -> int:
    system = vsys.VectorSystem.from_json(_load_json(args.file))
    chamber = _parse_vector(args.chamber, "--chamber") if args.chamber else (1,) * system.dim
    series = vsys.psi(system, chamber, _default_order(args))
    data = series.to_json()
    lines = [f"prefactor exponent: {data['qpre']}"]
    lines += [f"  q^{t['q']} zeta2={t['zeta2']}: {t['c']}" for t in data["terms"]]
    return _emit(args, {"file": args.file, **data}, lines)


def _cmd_vsys_check(args) -> int:
    system = vsys.VectorSystem.from_json(_load_json(args.file))
    chamber = _parse_vector(args.chamber, "--chamber") if args.chamber else (1,) * system.dim
    shift = _parse_vector(args.shift, "--shift")
    order = _default_order(args)
    reports = [vsys.elliptic_transform_check(system, chamber, shift, order, kind=kind)
               for kind in ("mu", "tau")]
    return _emit(args, [r.to_json() for r in reports], [_report_line(r) for r in reports],
                 reports)


def _cmd_maass_lift(args) -> int:
    table = maass.JacobiCoeffTable.from_json(_load_json(args.file))
    siegel = maass.assemble_maass(table, args.max_m)
    data = siegel.to_json()
    lines = [f"a({key}) = {a}" for key, a in data["coeffs"].items()]
    return _emit(args, data, lines)


def _cmd_maass_check(args) -> int:
    siegel = maass.SiegelCoeffTable.from_json(_load_json(args.file))
    report = maass.maass_relation_check(siegel)
    return _emit(args, report.to_json(), [_report_line(report)], [report])


def _cmd_mult_table(args) -> int:
    algebra = _ALGEBRA_NAMES.get(args.algebra)
    if algebra is None:
        raise ValueError(f"algebra must be one of {sorted(_ALGEBRA_NAMES)}, "
                         f"got {args.algebra!r}")
    report = mults.frenkel_compare(algebra, range(2, args.min_norm - 1, -2))
    lines = ["norm exact bound flag"]
    for norm, exact, bound, flag in report.rows:
        lines.append(f"{norm} {exact} {bound} {'VIOLATED' if flag else 'ok'}")
    return _emit(args, report.to_json(), lines)


def _cmd_mult_rademacher(args) -> int:
    approx = mults.p24_rademacher(args.n, args.terms)
    exact = forms.colored_partition_series(24, args.n + 1).coeff(args.n + 1)
    rel = abs(approx - exact) / exact
    payload = {"n": args.n, "terms": args.terms, "approx": approx,
               "exact": str(exact), "rel_error": rel}
    line = f"p24({args.n + 1}) ~ {approx!r} (exact {exact}, rel error {rel:.3e})"
    return _emit(args, payload, [line])


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")

    parser = argparse.ArgumentParser(prog="qmoon")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expand", parents=[common], help="q-expansion of a named form")
    p.add_argument("form")
    p.add_argument("--order", type=int)
    p.set_defaults(fn=_cmd_expand)

    p = subs.add_parser("factor", parents=[common],
                        help="infinite-product exponents of a series file")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int)
    p.set_defaults(fn=_cmd_factor)

    p = subs.add_parser("verify", parents=[common], help="run an identity check")
    p.add_argument("identity", choices=identities.IDENTITY_LABELS + ("all",))
    p.add_argument("--order", type=int)
    p.set_defaults(fn=_cmd_verify)

    p = subs.add_parser("lift", parents=[common],
                        help="infinite-product lift of a catalog form")
    p.add_argument("--name", required=True, choices=borcherds.CATALOG_NAMES)
    p.add_argument("--order", type=int)
    p.set_defaults(fn=_cmd_lift)

    p = subs.add_parser("hurwitz", parents=[common], help="Hurwitz class numbers")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(fn=_cmd_hurwitz)

    p = subs.add_parser("zeromult", parents=[common],
                        help="zero multiplicity of a lifted product")
    p.add_argument("--name", required=True, choices=borcherds.CATALOG_NAMES)
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(fn=_cmd_zeromult)

    p = subs.add_parser("moonshine", parents=[common],
                        help="two-variable monster identity checks")
    p.add_argument("which", choices=("denom", "replication"))
    p.add_argument("--cap", type=int, default=4)
    p.set_defaults(fn=_cmd_moonshine)

    p = subs.add_parser("vsys", help="vector-system products")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    q = vsub.add_parser("psi", parents=[common], help="expand the product")
    q.add_argument("--file", required=True)
    q.add_argument("--order", type=int)
    q.add_argument("--chamber")
    q.set_defaults(fn=_cmd_vsys_psi)
    q = vsub.add_parser("check", parents=[common], help="elliptic shift laws")
    q.add_argument("--file", required=True)
    q.add_argument("--shift", required=True)
    q.add_argument("--order", type=int)
    q.add_argument("--chamber")
    q.set_defaults(fn=_cmd_vsys_check)

    p = subs.add_parser("maass", help="index-raising lift and relation check")
    msub = p.add_subparsers(dest="subcommand", required=True)
    q = msub.add_parser("lift", parents=[common], help="assemble layers")
    q.add_argument("--file", required=True)
    q.add_argument("--max-m", type=int, default=4)
    q.set_defaults(fn=_cmd_maass_lift)
    q = msub.add_parser("check", parents=[common], help="divisor-sum relation")
    q.add_argument("--file", required=True)
    q.set_defaults(fn=_cmd_maass_check)

    p = subs.add_parser("mult", help="root multiplicities")
    usub = p.add_subparsers(dest="subcommand", required=True)
    q = usub.add_parser("table", parents=[common], help="formula vs partition bound")
    q.add_argument("--algebra", required=True)
    q.add_argument("--min-norm", type=int, default=-40)
    q.set_defaults(fn=_cmd_mult_table)
    q = usub.add_parser("rademacher", parents=[common], help="p24 partial sum")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--terms", type=int, default=10)
    q.set_defaults(fn=_cmd_mult_rademacher)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:  # bad JSON raises a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
