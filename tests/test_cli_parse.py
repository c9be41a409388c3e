"""The CLI's own argv parser and JSON writer against the standard library:
argparse (the parser the CLI used to build, kept here as the reference)
must read every valid argv to the same values, and ``json.dumps`` must
give the same bytes for every report."""

import argparse
import contextlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from comppat import cli

ROOT = Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI before it read argv by its table."""
    parser = argparse.ArgumentParser(
        prog="comppat",
        description="Exact tables, sequences and growth constants for "
                    "3-letter patterns in compositions and words.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pattern(p):
        p.add_argument("--pattern", required=True,
                       choices=cli.PATTERN_CHOICES)

    p_expand = sub.add_parser("expand", help="full (n, m, r) table")
    add_pattern(p_expand)
    p_expand.add_argument("--set", required=True,
                          help="'nat' or e.g. '1,3,4'")
    p_expand.add_argument("--order", type=int, required=True)
    p_expand.add_argument("--format", choices=["json", "csv"],
                          default="json")
    p_expand.set_defaults(handler=cli.cmd_expand)

    p_avoid = sub.add_parser("avoiders", help="avoidance sequence")
    add_pattern(p_avoid)
    p_avoid.add_argument("--set", required=True)
    p_avoid.add_argument("--order", type=int, required=True)
    p_avoid.add_argument("--bfile", action="store_true",
                         help="emit 'n a(n)' lines instead of JSON")
    p_avoid.set_defaults(handler=cli.cmd_avoiders)

    p_asym = sub.add_parser("asymptotics", help="growth estimate")
    add_pattern(p_asym)
    p_asym.add_argument("--radius", type=float, default=0.7)
    p_asym.add_argument("--samples", type=int, default=4096)
    p_asym.add_argument("--curve-csv", metavar="PATH",
                        help="also write the sampled image curve here")
    p_asym.set_defaults(handler=cli.cmd_asymptotics)

    p_verify = sub.add_parser("verify", help="formula vs. oracle")
    add_pattern(p_verify)
    p_verify.add_argument("--set")
    p_verify.add_argument("--max-n", type=int)
    p_verify.add_argument("--words", action="store_true",
                          help="verify the word series instead")
    p_verify.add_argument("-k", type=int)
    p_verify.add_argument("--max-m", type=int)
    p_verify.set_defaults(handler=cli.cmd_verify)

    p_words = sub.add_parser("words", help="word (m, r) table")
    add_pattern(p_words)
    p_words.add_argument("-k", type=int, required=True)
    p_words.add_argument("--order", type=int, required=True)
    p_words.add_argument("--format", choices=["json", "csv"],
                         default="json")
    p_words.set_defaults(handler=cli.cmd_words)
    return parser


REFERENCE = build_parser()
# subcommand -> its argparse actions other than -h
REFERENCE_FLAGS = {
    name: [a for a in sub._actions if a.option_strings != ["-h", "--help"]]
    for name, sub in REFERENCE._subparsers._group_actions[0].choices.items()}


def assert_parsed_alike(argv):
    assert vars(cli.parse_args(list(argv))) == vars(REFERENCE.parse_args(argv))


def readme_examples():
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("comppat ")]


def benchmark_jobs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    jobs = {workloads.PROBE.argv}
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            plan = workloads.plan_for(workload, seed)
            jobs.update(job.argv for job in plan.timed + plan.seeded)
    return sorted(tuple("c.csv" if a == workloads.CURVE else a for a in argv)
                  for argv in jobs)


def test_the_table_defines_the_reference_flags():
    # the same subcommands, each with the same flags in the same order
    assert list(cli.COMMANDS) == list(REFERENCE_FLAGS)
    for command, (_, _, flags) in cli.COMMANDS.items():
        assert [f[0] for f in flags] == [
            a.option_strings[-1] for a in REFERENCE_FLAGS[command]]


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_examples_parse_as_argparse_did(argv):
    assert_parsed_alike(argv)


@pytest.mark.parametrize("argv", benchmark_jobs(), ids=" ".join)
def test_benchmark_jobs_parse_as_argparse_did(argv, capsys):
    if "--help" in argv:
        assert cli.parse_args(list(argv)) is None
        assert capsys.readouterr().out.startswith("usage: comppat ")
        with pytest.raises(SystemExit):
            REFERENCE.parse_args(argv)
        return
    assert_parsed_alike(argv)


def _value(command, action):
    """Strategy for a token that both parsers accept for `action`."""
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.type is int:
        name = action.option_strings[-1]
        bounds = next(f[3] for f in cli.COMMANDS[command][2] if f[0] == name)
        return st.integers(bounds[0], bounds[-1]).map(str)
    if action.type is float:
        return st.floats(0, 1).map(repr)
    return st.one_of(st.just("nat"),
                     st.from_regex(r"[a-z0-9][a-z0-9,._]{0,9}", fullmatch=True))


@st.composite
def valid_argv(draw):
    command = draw(st.sampled_from(list(REFERENCE_FLAGS)))
    entries = []
    for action in REFERENCE_FLAGS[command]:
        name = action.option_strings[-1]
        times = draw(st.integers(1 if action.required else 0, 2))
        for _ in range(times):
            if action.nargs == 0:
                entries.append([name])
            elif name.startswith("--") and draw(st.booleans()):
                entries.append([f"{name}={draw(_value(command, action))}"])
            else:
                entries.append([name, draw(_value(command, action))])
    entries = draw(st.permutations(entries))
    return [command] + [token for entry in entries for token in entry]


@settings(max_examples=300, deadline=None)
@given(valid_argv())
def test_valid_argv_parses_as_argparse_did(argv):
    # canonical spellings, any order, repeats: the last occurrence wins
    assert_parsed_alike(argv)


def test_help_lists_every_flag_of_the_table(capsys):
    assert cli.main(["--help"]) == 0
    top = capsys.readouterr().out
    assert top.startswith("usage: comppat {" + ",".join(cli.COMMANDS) + "}")
    for command, (_, about, flags) in cli.COMMANDS.items():
        assert re.search(rf"^  {command} +{re.escape(about)}$", top, re.M)
        # -h works anywhere in the argv
        assert cli.main([command, "--pattern", "-h", "x"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: comppat {command} ")
        for name, _, _, _, help_text in flags:
            assert re.search(rf"^  {re.escape(name)}\b.*{re.escape(help_text)}",
                             text, re.M), name


ERRORS = [
    ([], "command: must be one of expand, avoiders, asymptotics, verify, "
         "words"),
    (["expnd"], "command: must be one of expand, avoiders, asymptotics, "
                "verify, words, not 'expnd'"),
    (["expand", "--pattern", "111", "--set", "nat", "--ord", "4"],
     "expand: unknown argument '--ord'"),
    (["expand", "--pattern", "111", "--set", "nat", "--order"],
     "--order: expected a value"),
    (["expand", "--pattern", "111", "--set", "nat", "--order", "4.5"],
     "--order: invalid int value '4.5'"),
    (["asymptotics", "--pattern", "111", "--radius", "0,7"],
     "--radius: invalid float value '0,7'"),
    (["words", "--pattern", "111", "-k", "3", "--order", "4",
      "--format=xml"], "--format: must be one of json, csv"),
    (["words", "--pattern", "111", "-k", "0", "--order", "4"],
     "-k: must be between 1 and 1000000"),
    (["avoiders", "--pattern", "111", "--order", "4"], "--set: required"),
    (["avoiders", "--pattern", "111", "--set", "nat", "--order", "4",
      "--bfile=yes"], "--bfile: takes no value"),
    (["verify", "--pattern", "111", "--set", "nat", "--max-n", "4", "-k5"],
     "verify: unknown argument '-k5'"),
]


@pytest.mark.parametrize("argv, message", ERRORS)
def test_parse_error_is_one_line_naming_the_flag(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"comppat: error: {message}\n")


# tokens that are not flags or values of the table; no "/" or NUL, which
# an argv path could not hold here, and only the lone surrogates that
# undecodable argv bytes give
JUNK = st.one_of(
    st.sampled_from(["", "-", "--", "-x", "--pattern=", "=", "-inf", "nan",
                     "1,1", "3,2", "\udcff", "a\nb", "\x1b[0m", "-h"]),
    st.text(st.characters(exclude_categories=["Cs"],
                          exclude_characters="/\x00"), max_size=6))


@st.composite
def any_argv(draw):
    """A subcommand (or junk), then mostly its own flags with values drawn
    from the table's choices, small ints, a few part sets and radii, and
    junk; now and then another subcommand's flag or a bare token."""
    table = cli.COMMANDS.get(draw(st.sampled_from([*cli.COMMANDS, ""])))
    head = draw(JUNK) if table is None else draw(st.sampled_from(
        [name for name, spec in cli.COMMANDS.items() if spec is table]))
    names = [f[0] for f in (table or cli.COMMANDS["verify"])[2]]
    every = sorted({f[0] for _, _, fs in cli.COMMANDS.values() for f in fs})
    choices = [*cli.PATTERN_CHOICES, "json", "csv"]
    value = st.one_of(st.sampled_from(choices + ["nat", "1,3", "0.51"]),
                      st.integers(0, 6).map(str), JUNK)
    entry = st.one_of(
        st.tuples(st.sampled_from(names), value).map(list),
        st.tuples(st.sampled_from(names), value).map(lambda t: ["=".join(t)]),
        st.lists(st.sampled_from(names) | st.sampled_from(every) | JUNK,
                 min_size=1, max_size=1))
    entries = draw(st.lists(entry, max_size=8))
    if table is not None and draw(st.booleans()):  # past the common error
        entries.insert(0, ["--pattern", draw(st.sampled_from(choices[:6]))])
    return [head] + [token for e in entries for token in e]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=any_argv())
def test_any_argv_exits_with_a_documented_code(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --curve-csv may name a file
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert re.fullmatch(r"comppat: error: [^\n]*\n", err.getvalue())


report_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**40, 10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(st.characters(exclude_categories=[])),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(st.characters(exclude_categories=[]), max_size=4), inner,
        max_size=4),
    max_leaves=20)


@settings(max_examples=500, deadline=None)
@given(report_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._to_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_refuses_other_types():
    with pytest.raises(TypeError):
        cli._to_json({"x": (1, 2)})
