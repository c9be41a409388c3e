"""Module boundaries: the production path never loads the cross-checks,
each subcommand loads only the modules it runs, and the package's lazy
exports are the objects their modules define."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import comppat

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Runs `python -m comppat ARGS...` in this interpreter, then writes the
# exit code and every loaded module name to stderr, on the last line.  The
# CLI ends the process with os._exit, so the line is written by a wrapper
# of os._exit before it exits.
RUN_MAIN = """
import os, runpy, sys
def hard_exit(code, exit=os._exit):
    print(code, *sorted(sys.modules), file=sys.stderr, flush=True)
    exit(code)
os._exit = hard_exit
runpy.run_module("comppat", run_name="__main__", alter_sys=True)
"""

EXPORTS = {
    "patterns": ["ALL_PATTERNS", "OccurrenceTable", "PartSet", "PatternId",
                 "brute_force_table", "brute_force_word_table",
                 "count_occurrences", "enumerate_compositions"],
    "series": ["GradingMismatchError", "NonInvertibleError",
               "NormalizationError", "OrderRangeError", "SeriesError",
               "TruncatedSeries", "make_monomial", "one", "zero"],
    "genfun": ["avoidance_sequence", "build_gf"],
    "words": ["w111_closed", "w112_closed", "w123_closed", "w_peak_closed",
              "word_gf", "word_table"],
    "asymptotics": ["AsymptoticEstimate", "emit_curve", "estimate", "eval_f",
                    "find_rho", "predict_count", "winding_number"],
}


def test_production_modules_do_not_import_identities():
    code = ("import sys, comppat, comppat.cli; "
            "print('comppat.identities' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=ENV, check=True)
    assert res.stdout.strip() == "False"


def modules_loaded_by(argv, cwd, code="0"):
    res = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv],
                         capture_output=True, text=True, env=ENV, cwd=cwd,
                         timeout=120)
    exit_code, *modules = res.stderr.splitlines()[-1].split()
    assert exit_code == code, res.stderr
    return set(modules)


# The standard library's argv parser and JSON encoder, with the modules
# argparse pulls in: about 7 ms of a launch, which no launch needs.
UNUSED_STDLIB = {"argparse", "gettext", "locale", "json"}


@pytest.mark.parametrize("argv, loaded, absent", [
    (["--help"], {"comppat.cli", "comppat.patterns"},
     {"comppat.series", "comppat.genfun", "comppat.words",
      "comppat.asymptotics"}),
    (["expand", "--pattern", "111", "--set", "nat", "--order", "4"],
     {"comppat.genfun"}, {"comppat.words", "comppat.asymptotics"}),
    (["avoiders", "--pattern", "112", "--set", "nat", "--order", "4"],
     {"comppat.genfun"}, {"comppat.words", "comppat.asymptotics"}),
    (["asymptotics", "--pattern", "valley", "--samples", "1024"],
     {"comppat.asymptotics"},
     {"comppat.series", "comppat.genfun", "comppat.words"}),
    (["verify", "--pattern", "221", "--set", "nat", "--max-n", "6"],
     {"comppat.genfun"}, {"comppat.words", "comppat.asymptotics"}),
    (["verify", "--pattern", "123", "--words", "-k", "3", "--max-m", "4"],
     {"comppat.words"}, {"comppat.asymptotics"}),
    (["words", "--pattern", "111", "-k", "3", "--order", "6"],
     {"comppat.words"}, {"comppat.asymptotics"}),
], ids=["help", "expand", "avoiders", "asymptotics", "verify-set",
        "verify-words", "words"])
def test_subcommand_loads_only_the_modules_it_runs(argv, loaded, absent,
                                                   tmp_path):
    modules = modules_loaded_by(argv, tmp_path)
    assert loaded <= modules
    assert not (absent | UNUSED_STDLIB | {"dataclasses",
                                          "comppat.identities"}) & modules


def test_usage_error_loads_neither_argparse_nor_json(tmp_path):
    modules = modules_loaded_by(["expand", "--pattern", "122", "--set", "nat",
                                 "--order", "4"], tmp_path, code="2")
    assert {"comppat.cli", "comppat.patterns"} <= modules
    assert not (UNUSED_STDLIB | {"comppat.series"}) & modules


def test_sources_import_neither_typing_nor_dataclasses():
    # both are costly to import at start-up; the annotations are strings
    for path in sorted((SRC / "comppat").glob("*.py")):
        text = path.read_text()
        assert not re.search(r"^\s*(from|import) (typing|dataclasses)\b",
                             text, re.M), path.name


def test_every_export_is_the_object_its_module_defines():
    assert sorted(comppat.__all__) == sorted(
        name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        defined = importlib.import_module(f"comppat.{module}")
        for name in names:
            assert getattr(comppat, name) is getattr(defined, name), name
    namespace = {}
    exec("from comppat import *", namespace)
    assert set(comppat.__all__) <= set(namespace)


def test_every_traced_callable_exists():
    # the benchmark's tracer wraps these (owner, attribute) pairs by name,
    # so renaming or removing one must fail here too; the tracer's source
    # is compiled from its text, which writes nothing next to it
    path = SRC.parent / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    traced = tracing.traced_callables()
    assert {name for _, _, name, _ in traced} >= {
        "asymptotics.eval_f", "asymptotics.find_rho",
        "asymptotics.winding_number", "asymptotics.emit_curve",
        "asymptotics.estimate"}
    for owner, attribute, name, _ in traced:
        assert callable(getattr(owner, attribute, None)), name


def test_dir_lists_the_exports_and_unknown_names_raise():
    assert set(comppat.__all__) | {"__version__"} <= set(dir(comppat))
    with pytest.raises(AttributeError, match="no_such_name"):
        comppat.no_such_name
    # a submodule is not an export, so importing it still works
    from comppat import identities
    assert identities is sys.modules["comppat.identities"]
