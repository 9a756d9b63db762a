"""Command-line front end: one table of subcommands, ``COMMANDS``, over the whole engine.

``run`` reads a plain argv straight from the table: one row's words, then
that row's arguments, each option spelt out in full and followed by its
value, none twice, every required one given, every type and choice met, and
no value starting with "-" but a negative decimal integer.  It calls the
row's handler with the arguments argparse would give, and never imports
argparse.  Any other argv (help, a usage error, an abbreviated, attached or
repeated option) goes to the whole argparse tree that ``build_parser``
builds from the same rows.

Exit codes: 0 success, 2 usage error, 3 verification mismatch, 4 bad input
data.  JSON mode emits one line per invocation with maps built in ascending
exponent order; text mode prints expansions the way the displays read,
ascending with explicit signs.  Identical invocations produce identical
bytes.  Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .series import QSeries, _fmt_rat, _fmt_tuple, _rat, exponents_from_series


def _order(args) -> int:
    if args.order < 0:
        raise ValueError("order must be >= 0")
    return args.order


def _emit(args, payload, lines, reports=()) -> int:
    """Print payload() as JSON or the lines of lines() as text; exit 3 if a report failed.

    Each is a function, and only the one the mode prints is called.
    """
    if args.json:
        import json
        print(json.dumps(payload(), default=str))
    else:
        for line in lines():
            print(line)
    print(end="", flush=True)  # a full device fails here, as it does unbuffered
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
    import json
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:  # the decoder recurses once per level of nesting
            raise ValueError("JSON nests too deeply to read") from None


def _parse_vector(text: str, flag: str):
    """A comma-separated rational vector such as "1/2,1,0"; names a token it cannot read."""
    vector = []
    for tok in text.split(","):
        try:  # an integer stays an int; fractions reads "1/2", "0.5" and the like
            vector.append(_rat(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{flag} entry {tok.strip()!r} is not a rational number") from None
    return tuple(vector)


def _report_line(report) -> str:
    if report.passed:
        return f"PASS {report.name} order={report.order}"
    monomial, lhs, rhs = report.first_mismatch
    return (f"FAIL {report.name} order={report.order} "
            f"first mismatch at {_fmt_tuple(monomial)}: lhs {lhs} != rhs {rhs}")


def _cmd_expand(args) -> int:
    from . import forms
    order = _order(args)
    f = forms.named_form(args.form, order)
    return _emit(args, lambda: {"form": args.form, **f.to_json()}, lambda: [f.pretty()])


def _cmd_factor(args) -> int:
    f = QSeries.from_json(_load_json(args.input))
    order = _order(args)
    data = exponents_from_series(f, order).to_json()
    return _emit(args, lambda: {"input": args.input, **data}, lambda: [
        f"h = {data['h']}", *(f"  {n}: {e}" for n, e in data["exponents"].items())])


def _cmd_verify(args) -> int:
    from . import identities
    order = _order(args)
    one = args.identity != "all"
    reports = [identities.verify(args.identity, order)] if one else identities.verify_all(order)
    return _emit(args, lambda: reports[0].to_json() if one else [r.to_json() for r in reports],
                 lambda: map(_report_line, reports), reports)


def _cmd_lift(args) -> int:
    from . import borcherds
    order = _order(args)
    f = borcherds.catalog(args.name, order * order)
    lifted = borcherds.lift(f, order)
    data = lifted.table.to_json()
    report = borcherds.fj_efactor_report(lifted.result, order) if args.name == "f_j" else None

    def payload():
        out = {"name": args.name, "h": data["h"], "order": order,
               "exponents": data["exponents"], "series": lifted.result.to_json()}
        return out if report is None else {**out, "efactor": report}

    def lines():
        yield f"h = {data['h']}"
        yield "exponents: " + " ".join(f"{n}:{e}" for n, e in data["exponents"].items())
        yield lifted.result.pretty()
        if report is not None:
            yield f"E-factor: {report['resolution']}"

    return _emit(args, payload, lines)


def _cmd_hurwitz(args) -> int:
    from . import borcherds
    twelfths = borcherds.hurwitz_range(args.max)
    return _emit(args, lambda: {"max": args.max, "values": {str(n): _fmt_rat(t, 12)
                                                            for n, t in twelfths.items()}},
                 lambda: (f"H({n}) = {_fmt_rat(t, 12)}" for n, t in twelfths.items()))


def _cmd_zeromult(args) -> int:
    from . import borcherds
    f = borcherds.catalog(args.name, 4)
    mult = borcherds.zero_multiplicity(f, args.disc)
    return _emit(args, lambda: {"name": args.name, "disc": args.disc, "multiplicity": mult},
                 lambda: [f"multiplicity of the disc {args.disc} zero: {mult}"])


def _cmd_moonshine(args) -> int:
    from . import moonshine
    if args.which == "denom":
        report = moonshine.denominator_check(args.cap, args.cap)
    else:
        report = moonshine.replication_check(args.cap)
    return _emit(args, report.to_json, lambda: [_report_line(report)], [report])


def _cmd_vsys_psi(args) -> int:
    from . import vsys
    system = vsys.VectorSystem.from_json(_load_json(args.file))
    chamber = _parse_vector(args.chamber, "--chamber") if args.chamber else (1,) * system.dim
    d, coeffs = vsys.psi(system, chamber, args.order)
    qpre = _fmt_rat(d, 24)
    terms = [{"q": n, "zeta2": list(r), "c": c} for (n, r), c in sorted(coeffs.items())]
    return _emit(args, lambda: {"file": args.file, "dim": system.dim, "qpre": qpre,
                                "trunc": args.order, "terms": terms},
                 lambda: [f"prefactor exponent: {qpre}",
                          *(f"  q^{t['q']} zeta2={t['zeta2']}: {t['c']}" for t in terms)])


def _cmd_vsys_check(args) -> int:
    from . import vsys
    system = vsys.VectorSystem.from_json(_load_json(args.file))
    chamber = _parse_vector(args.chamber, "--chamber") if args.chamber else (1,) * system.dim
    shift = _parse_vector(args.shift, "--shift")
    reports = vsys.elliptic_transform_check(system, chamber, shift, _order(args))
    return _emit(args, lambda: [r.to_json() for r in reports],
                 lambda: map(_report_line, reports), reports)


def _cmd_maass_lift(args) -> int:
    from . import maass
    table = maass.JacobiCoeffTable.from_json(_load_json(args.file))
    data = maass.assemble_maass(table, args.max_m).to_json()
    return _emit(args, lambda: data,
                 lambda: (f"a({key}) = {a}" for key, a in data["coeffs"].items()))


def _cmd_maass_check(args) -> int:
    from . import maass
    siegel = maass.SiegelCoeffTable.from_json(_load_json(args.file))
    report = maass.maass_relation_check(siegel)
    return _emit(args, report.to_json, lambda: [_report_line(report)], [report])


def _cmd_mult_table(args) -> int:
    from . import mults
    report = mults.frenkel_compare(args.algebra, range(2, args.min_norm - 1, -2))
    return _emit(args, report.to_json, lambda: [
        "norm exact bound flag",
        *(f"{norm} {exact} {bound} {'VIOLATED' if flag else 'ok'}"
          for norm, exact, bound, flag in report.rows)])


def _cmd_mult_rademacher(args) -> int:
    from . import forms, mults
    approx = mults.p24_rademacher(args.n, args.terms)
    exact = forms.colored_partition_series(24, args.n + 1).coeff(args.n + 1)
    rel = abs(approx - exact) / exact
    return _emit(args, lambda: {"n": args.n, "terms": args.terms, "approx": approx,
                                "exact": str(exact), "rel_error": rel},
                 lambda: [f"p24({args.n + 1}) ~ {approx!r} (exact {exact}, rel error {rel:.3e})"])


def _arg(flag, **options):
    return flag, options


def _catalog_names():
    from . import borcherds
    return borcherds.CATALOG_NAMES


def _identity_choices():
    from . import identities
    return identities.IDENTITY_LABELS + ("all",)


_ORDER = _arg("--order", type=int, default=10)
_NAME = _arg("--name", required=True, choices=_catalog_names)
_FILE = _arg("--file", required=True)
_CHAMBER = _arg("--chamber")

# One row per subcommand, in help order: (words, help, arguments, handler).
# A row without a handler is a group whose rows follow it.  Choices given as
# a function are read from their module only when their row is read or built.
COMMANDS = (
    (("expand",), "q-expansion of a named form", (_arg("form"), _ORDER), _cmd_expand),
    (("factor",), "infinite-product exponents of a series file",
     (_arg("--input", required=True), _ORDER), _cmd_factor),
    (("verify",), "run an identity check",
     (_arg("identity", choices=_identity_choices),
      _arg("--order", type=int, default=30)), _cmd_verify),
    (("lift",), "infinite-product lift of a catalog form", (_NAME, _ORDER), _cmd_lift),
    (("hurwitz",), "Hurwitz class numbers", (_arg("--max", type=int, required=True),),
     _cmd_hurwitz),
    (("zeromult",), "zero multiplicity of a lifted product",
     (_NAME, _arg("--disc", type=int, required=True)), _cmd_zeromult),
    (("moonshine",), "two-variable monster identity checks",
     (_arg("which", choices=("denom", "replication")), _arg("--cap", type=int, default=4)),
     _cmd_moonshine),
    (("vsys",), "vector-system products", (), None),
    (("vsys", "psi"), "expand the product", (_FILE, _ORDER, _CHAMBER), _cmd_vsys_psi),
    (("vsys", "check"), "elliptic shift laws",
     (_FILE, _arg("--shift", required=True), _ORDER, _CHAMBER), _cmd_vsys_check),
    (("maass",), "index-raising lift and relation check", (), None),
    (("maass", "lift"), "assemble layers", (_FILE, _arg("--max-m", type=int, default=4)),
     _cmd_maass_lift),
    (("maass", "check"), "divisor-sum relation", (_FILE,), _cmd_maass_check),
    (("mult",), "root multiplicities", (), None),
    (("mult", "table"), "formula vs partition bound",
     (_arg("--algebra", required=True), _arg("--min-norm", type=int, default=-40)),
     _cmd_mult_table),
    (("mult", "rademacher"), "p24 partial sum",
     (_arg("--n", type=int, required=True), _arg("--terms", type=int, default=10)),
     _cmd_mult_rademacher),
)


def build_parser():
    """The whole argparse tree: a parser per row of COMMANDS."""
    import argparse
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")
    parser = argparse.ArgumentParser(prog="qmoon")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, help_text, arguments, handler in COMMANDS:
        p = groups[words[:-1]].add_parser(words[-1], parents=[common] if handler else [],
                                          help=help_text)
        for flag, options in arguments:
            if callable(options.get("choices")):
                options = {**options, "choices": options["choices"]()}
            p.add_argument(flag, **options)
        if handler is None:
            groups[words] = p.add_subparsers(dest="subcommand", required=True)
        else:
            p.set_defaults(fn=handler)
    return parser


def _is_value(token) -> bool:
    # argparse reads a token starting with "-" as an option unless it is a negative number
    return not token.startswith("-") or token[1:].isdecimal()


def read_plain(argv):
    """The arguments argparse gives a plain argv (see the module docstring), else None."""
    for words, _, arguments, handler in COMMANDS:
        if handler and tuple(argv[:len(words)]) == words:
            break
    else:
        return None
    options = dict(arguments)
    positionals = [flag for flag in options if flag[0] != "-"]
    given, tokens = {}, iter(argv[len(words):])
    for token in tokens:
        if token == "--json":
            value = ""  # a flag: no value to read
        elif token in options and token[0] == "-":
            value = next(tokens, "-")  # a missing value reads as "-", which is no value
        elif positionals and _is_value(token):
            token, value = positionals.pop(0), token
        else:
            return None
        if token in given or not _is_value(value):
            return None
        given[token] = value
    args = SimpleNamespace(json="--json" in given, fn=handler)
    for flag, spec in arguments:
        if flag not in given and (flag in positionals or spec.get("required")):
            return None  # a missing positional (one left in the list) or required option
        try:
            value = spec.get("type", str)(given[flag]) if flag in given else spec.get("default")
        except ValueError:
            return None
        choices = spec.get("choices", (value,))  # without choices, any value
        if value not in (choices() if callable(choices) else choices):
            return None
        setattr(args, flag.lstrip("-").replace("-", "_"), value)
    return args


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:  # bad JSON raises a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    """Run the CLI on sys.argv and end the process without interpreter teardown.

    Teardown costs a small run about 5 ms.  A trace or profile hook, a live thread or
    a stream that cannot be flushed takes the normal exit, which reports a failed flush.
    """
    import _thread
    import atexit
    import os
    code = run()
    try:
        print(end="", flush=True)
    except OSError:  # run reported what stdout could not take, or help ignored it: drop it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if sys.gettrace() is None and sys.getprofile() is None and not _thread._count():
        atexit._run_exitfuncs()
        try:
            for stream in filter(None, (sys.stdout, sys.stderr)):
                stream.flush()
        except OSError:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    main()
