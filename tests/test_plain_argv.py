"""The CLI's table read against argparse.

``cli.read_plain`` reads a plain argv straight from ``cli.COMMANDS`` and
declines every other one, which ``cli.run`` then hands to the argparse tree.
For every argv checked here the table read either declines it or gives
exactly the namespace argparse gives (less the ``command`` and
``subcommand`` words), handler included.  The argv are every case of both
golden corpora, every op of the four perfbench workloads for seeds 1 to 3,
and argv that Hypothesis draws from the rows: options left out, repeated,
abbreviated, attached with "=" or missing their value, values that argparse
and the table may read differently, and stray tokens.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

import test_golden_cli as golden
from qmoon import cli

PARSER = cli.build_parser()  # parse_args keeps no state between calls


def _argparse(argv):
    """argparse's namespace for argv as a dict, or None for a usage error or help."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            args = PARSER.parse_args(argv)
        except SystemExit:
            return None
    return {k: v for k, v in vars(args).items() if k not in ("command", "subcommand")}


def _read_as_argparse_does(argv):
    """Whether the table read takes argv; when it does, it must agree with argparse."""
    plain = cli.read_plain(argv)
    if plain is not None:
        assert vars(plain) == _argparse(argv), argv
    return plain is not None


def test_golden_argv_read_as_argparse_reads_them():
    taken = [_read_as_argparse_does(argv) for argv in golden.CASES + golden.USAGE_CASES]
    assert any(taken) and not all(taken)


def test_workload_argv_read_as_argparse_reads_them(tmp_path):
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            ops = workloads.build(name, seed, tmp_path / f"{name}-{seed}")
            declined = {op.name for op in ops if not _read_as_argparse_does(list(op.argv))}
            # only cli-burst's usage errors go to argparse
            assert declined == ({"verify unknown identity", "hurwitz missing max",
                                 "lift non-integer order", "unknown subcommand"}
                                if name == "cli-burst" else set()), (name, seed)


# values the two readers could split on: "\d" and str.isdecimal take "٣", only
# isdigit takes "²"; argparse reads "-.5" and "-5\n" as negative numbers
SIGNED = ["-3", "-²", "-٣", "-.5", "-5\n"]
ODD = ["", "--", "-h", "٣", "+3", " 3", "x", "1/2", "-1,0"]
odd = st.sampled_from(ODD)
STRAY = st.sampled_from(["k", "x", "-x", "--bogus", "--", "-h", "--help", "-3", "--json=1"])


def _good(spec):
    """Values an argument takes: its choices, small integers, or file names and vectors."""
    choices = spec.get("choices")
    if callable(choices):
        choices = choices()
    if choices:
        return sorted(choices)
    return [str(n) for n in range(-5, 13)] if spec.get("type") is int else \
        ["pair.json", "1", "1/2,1", "0,1/4"]


def _values(spec):
    good = st.sampled_from(_good(spec))
    return st.sampled_from([good] * 4 + [st.sampled_from(SIGNED), odd]).flatmap(lambda v: v)


def _tail(arguments, values):
    return [token for (flag, _), value in zip(arguments, values)
            for token in [flag] * (flag[0] == "-") + [value]]


def test_each_odd_value_of_each_argument_read_as_argparse_reads_it():
    # each leaf row with one argument given each odd value in turn and the
    # others the first value they take; an option is also given the odd value
    # before its first value, since argparse reads every occurrence
    taken = 0
    for words, _, arguments, handler in cli.COMMANDS:
        first = [_good(spec)[0] for _, spec in arguments]
        for i, (flag, _) in enumerate(arguments if handler else ()):
            for value in SIGNED + ODD:
                taken += _read_as_argparse_does(
                    [*words, *_tail(arguments, first[:i] + [value] + first[i + 1:])])
                if flag[0] == "-":
                    _read_as_argparse_does([*words, flag, value, *_tail(arguments, first)])
    assert taken


@st.composite
def _spelled(draw, flag, values):
    """One occurrence of an argument: a positional's value, or an option spelt
    in full with its value, abbreviated, attached with "=", or without a value."""
    value = draw(values)
    if flag[0] != "-":
        return [value]
    how = draw(st.sampled_from(["full"] * 12 + ["short", "attached", "bare"]))
    if flag == "--json":
        return {"full": [flag], "short": ["--js"], "attached": ["--json=x"], "bare": [flag]}[how]
    if how == "short" and len(flag) > 3:
        return [flag[:draw(st.integers(3, len(flag) - 1))], value]
    return {"attached": [f"{flag}={value}"], "bare": [flag]}.get(how, [flag, value])


@st.composite
def row_argv(draw):
    """The words of one row of COMMANDS, then its arguments in any order, each
    left out, given once or given twice, and now and then a stray token."""
    words, _, arguments, _ = draw(st.sampled_from(cli.COMMANDS))
    chunks = []
    for flag, spec in arguments + (("--json", {}),):
        times = draw(st.sampled_from([0, 1, 1, 1, 1, 2]))
        # the two occurrences of a repeated argument stay in order, and the
        # first is often unreadable: argparse reads each and keeps the last
        if times:
            first = [draw(_spelled(flag, st.one_of(odd, _values(spec)))) for _ in range(times - 1)]
            chunks.append(sum(first, []) + draw(_spelled(flag, _values(spec))))
    if draw(st.integers(0, 5)) == 0:
        chunks.append([draw(STRAY)])
    chunks = draw(st.permutations(chunks))
    head = draw(st.sampled_from([[]] * 9 + [["--json"]]))
    return head + list(words) + [token for chunk in chunks for token in chunk]


@settings(max_examples=500, deadline=2000)
@given(argv=row_argv())
def test_drawn_argv_read_as_argparse_reads_them(argv):
    _read_as_argparse_does(argv)
