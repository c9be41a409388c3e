"""CLI surface: formats, determinism, schemas, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from comppat import asymptotics, cli
from comppat.patterns import PatternId
from enumeration import BATTERY
from test_asymptotics import (circle, flat_slope, vanishing_numerator,
                              wrong_slope)

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "schemas"


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "comppat", *argv],
                          capture_output=True, text=True)


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def check(name, payload):
    jsonschema.validate(payload, load_schema(name))


# -- expand ---------------------------------------------------------------

def test_expand_json_schema_and_content():
    res = run_cli("expand", "--pattern", "peak", "--set", "nat",
                  "--order", "6")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    check("expand", report)
    rows = {(c["n"], c["m"], c["r"]): c["count"]
            for c in report["coefficients"]}
    assert rows[(4, 3, 1)] == "1"  # the single composition 121
    assert report["materialized_parts"] == [1, 2, 3, 4, 5, 6]


# SHA-256 of the stdout of every job the benchmark runs, keyed by argv
GOLDEN_DIGESTS = json.loads((ROOT / "perfbench" / "expected.json")
                            .read_text())["digests"]


def stdout_digest(capsys, argv):
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.usefixtures("shared_build_gf")
@pytest.mark.parametrize("pattern", cli.PATTERN_CHOICES)
def test_expand_nat_at_order_cap_matches_golden_digest(pattern, capsys):
    # the full trivariate table at the CLI cap, byte for byte as recorded
    # in the benchmark's expected digests
    argv = ["expand", "--pattern", pattern, "--set", "nat",
            "--order", str(cli.MAX_ORDER)]
    assert stdout_digest(capsys, argv) == GOLDEN_DIGESTS[" ".join(argv)]


@pytest.mark.usefixtures("shared_build_gf")
@pytest.mark.parametrize("job", [
    job for job in GOLDEN_DIGESTS
    if not (job.startswith("expand ") and job.endswith(" --set nat --order "
                                                       f"{cli.MAX_ORDER}"))])
def test_benchmark_job_matches_golden_digest(job, capsys):
    # every other recorded job (avoiders, verify, words and the small
    # tables), byte for byte
    assert stdout_digest(capsys, job.split()) == GOLDEN_DIGESTS[job]


def test_expand_order_zero():
    res = run_cli("expand", "--pattern", "111", "--set", "1,2",
                  "--order", "0")
    report = json.loads(res.stdout)
    check("expand", report)
    assert report["coefficients"] == [
        {"n": 0, "m": 0, "r": 0, "count": "1"}]


def test_expand_123_first_occurrence():
    res = run_cli("expand", "--pattern", "123", "--set", "nat",
                  "--order", "6")
    report = json.loads(res.stdout)
    positive_r = [(c["n"], c["r"]) for c in report["coefficients"]
                  if c["r"] >= 1]
    assert positive_r == [(6, 1)]


def test_expand_csv_header_and_rows():
    res = run_cli("expand", "--pattern", "111", "--set", "1,2",
                  "--order", "3", "--format", "csv")
    lines = res.stdout.splitlines()
    assert lines[0] == "n,m,r,count"
    assert lines[1] == "0,0,0,1"


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.usefixtures("shared_build_gf")
@pytest.mark.parametrize("argv, digest", [
    # 25,297 lines, digest recorded with one write per row
    ("expand --pattern 111 --set nat --order 60 --format csv",
     "13cb80ebbf13584fdb819693b3dca3017bd49a584665a9fcb19d0fcbc91d308c"),
    ("words --pattern 123 -k 1600 --order 40 --format csv",
     "db7918fd11370ad945cb4d2dc3a0a40c16053e2f08bea6ed7ead2f767a7197ae"),
    ("avoiders --pattern valley --set nat --order 60 --bfile",
     GOLDEN_DIGESTS["avoiders --pattern valley --set nat --order 60 --bfile"]),
], ids=["expand", "words", "avoiders"])
def test_row_output_is_written_in_batches(argv, digest, monkeypatch):
    # one write per 4,096 rows, not per row: each is a system call on an
    # unbuffered stdout (PYTHONUNBUFFERED=1)
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv.split()) == 0
    assert out.writes <= 10
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_expand_deterministic():
    argv = ("expand", "--pattern", "valley", "--set", "2,3,5",
            "--order", "9")
    assert run_cli(*argv).stdout == run_cli(*argv).stdout


# -- avoiders ---------------------------------------------------------------

def test_avoiders_json_221():
    res = run_cli("avoiders", "--pattern", "221", "--set", "nat",
                  "--order", "20")
    report = json.loads(res.stdout)
    check("avoiders", report)
    assert report["values"][-1] == "337118"


def test_avoiders_bfile_valley():
    res = run_cli("avoiders", "--pattern", "valley", "--set", "nat",
                  "--order", "20", "--bfile")
    lines = res.stdout.splitlines()
    assert lines[0] == "0 1"
    assert lines[-1] == "20 145528"


def test_avoiders_rejects_bad_set():
    res = run_cli("avoiders", "--pattern", "112", "--set", "1,1",
                  "--order", "5")
    assert res.returncode == 2
    assert "--set" in res.stderr


# -- asymptotics -------------------------------------------------------------

def test_asymptotics_report(tmp_path):
    curve = tmp_path / "curve.csv"
    res = run_cli("asymptotics", "--pattern", "112", "--samples", "1024",
                  "--curve-csv", str(curve))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    check("asymptotics", report)
    assert abs(report["v"] - 1.80688) < 1e-4
    assert abs(report["K"] - 0.692005) < 1e-4
    assert report["winding"] == 1
    assert "warning" not in report
    lines = curve.read_text().splitlines()
    assert lines[0] == "re_x,im_x,re_f,im_f"
    assert len(lines) == 1025


def test_asymptotics_small_radius_warns_but_succeeds():
    res = run_cli("asymptotics", "--pattern", "111", "--radius", "0.51",
                  "--samples", "1024")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    check("asymptotics", report)
    assert report["winding"] == 0
    assert "warning" in report


def test_asymptotics_rejects_bad_radius():
    res = run_cli("asymptotics", "--pattern", "111", "--radius", "0.85")
    assert res.returncode == 2
    assert "--radius" in res.stderr


def test_asymptotics_samples_cap(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("estimate ran on a rejected sample count")
    monkeypatch.setattr(asymptotics, "estimate", never)
    rc = cli.main(["asymptotics", "--pattern", "111",
                   "--samples", str(cli.MAX_SAMPLES + 1)])
    assert rc == 2
    assert "--samples" in capsys.readouterr().err
    assert load_schema("asymptotics")["properties"]["tolerances"][
        "properties"]["winding_samples"]["maximum"] == cli.MAX_SAMPLES


def test_asymptotics_schema_names_the_tolerances():
    tolerances = {"tail_eps": 1e-15, "winding_samples": 4096,
                  "winding_radius": 0.7}
    report = {"tool": "comppat", "command": [], "pattern": "111",
              "rho": 0.52, "v": 1.9, "K": 0.5, "winding": 1,
              "tolerances": tolerances}
    check("asymptotics", report)
    for stale in ({"rho_tol": 1e-11}, {"fd_step": 1e-6}):
        with pytest.raises(jsonschema.ValidationError):
            check("asymptotics", dict(report,
                                      tolerances=tolerances | stale))
    with pytest.raises(jsonschema.ValidationError):
        check("asymptotics", dict(report, tolerances={}))


def test_asymptotics_samples_the_circle_once(monkeypatch, capsys, tmp_path):
    # the report's winding and the curve come from one pass over the upper
    # half of the requested circle's 256-point sub-circle (the least power
    # of two whose aliasing term at |x| = 0.6 is below 1e-15), as one
    # block of 129 complex points; nothing samples the default |x| = 0.7.
    # The complex steps x + ih of find_rho and estimate are one-point
    # blocks, not circle blocks.
    evaluate = asymptotics._PARTS[PatternId.P112]
    blocks = []

    def counting(xs, ax, eps):
        if isinstance(xs[0], complex) and len(xs) > 1:
            blocks.append(list(xs))
        return evaluate(xs, ax, eps)
    monkeypatch.setitem(asymptotics._PARTS, PatternId.P112, counting)
    curve = tmp_path / "curve.csv"
    rc = cli.main(["asymptotics", "--pattern", "112", "--radius", "0.6",
                   "--samples", "2048", "--curve-csv", str(curve)])
    assert rc == 0
    assert len(blocks) == 1
    assert len(blocks[0]) == 256 // 2 + 1
    assert blocks[0] == circle(0.6, 2048)[::8]
    assert all(type(x) is complex and x.imag >= 0 for x in blocks[0])
    assert all(abs(abs(x) - 0.7) > 1e-3 for x in blocks[0])
    assert len(curve.read_text().splitlines()) == 2049
    monkeypatch.undo()
    report = json.loads(capsys.readouterr().out)
    assert report["winding"] == asymptotics.winding_number(
        PatternId.P112, 0.6, 2048)


def test_asymptotics_uncertified_circle_exits_3(monkeypatch, capsys):
    # a truncation bound above min |f| on the circle leaves the winding
    # uncertified: a numeric failure, with nothing on stdout
    evaluate = asymptotics._PARTS[PatternId.P112]

    def loose(xs, ax, eps):
        return evaluate(xs, ax, eps)[0], [1e6]
    monkeypatch.setitem(asymptotics._PARTS, PatternId.P112, loose)
    rc = cli.main(["asymptotics", "--pattern", "112", "--samples", "1024"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "not certified" in captured.err
    assert captured.out == ""


# SHA-256 of the stdout of `asymptotics --pattern P --samples 1024
# --curve-csv c.csv` and of the CSV's data rows 0 .. 512.  stdout was
# recorded when rho and K came from complex-step Newton instead of
# bisection and finite differences; the rows again when the odd ones were
# interpolated by FFT from the 512-point sub-circle, and peak's and
# valley's once more when their N and D were interpolated apart.
ASYMPTOTICS_DIGESTS = {
    "111": ("11a8a4b561ef8dd68146962d8df3fd378e5c50c2fd73579c6c73edd62940c383",
            "62c932cc3e050148e9e339b0e71164b49898ce2d53c0220c8b7bf6f91ea3fa6f"),
    "112": ("2e2b79a2965572a78c06f55dfe6eab7db77da83fcdeacc1532da6390a2177928",
            "6d0e4cebf2971595bc0187e87ebc2d500cb8e9d4d6887a756efb3bed1a5fab59"),
    "221": ("e4deae349cd50b06d34dce2e8bb0ad7088e8b6eef71dc5c11a7d0960dced31c5",
            "ed4cbe5f0a8252bf977a71ad1b3f41e6704a213ff574e1a879df374be6ea0d14"),
    "123": ("92a6747b5f36fb7ad6162d15127f7c4891781fca638d8a0b18554923ef650d81",
            "17cea0b0d43e06ec9df7ca2ce9c86c24012395b0fcf28b81929ab2fcd3ef9d8f"),
    "peak": ("9b4f97f2f1561e132028af4c2319380419ebcfae32800dd28da8159f034e4ae8",
             "37b84d730bae8a0e4440ec5e057121de96c63a68bff1e40a21501dd25006c8ca"),
    "valley": (
        "c30ee42185b1bb7f81d3a8f730e13e58fb4c32e73376074951a029390bc92947",
        "8d4e6211617dd693d6713ce6b22c05d90f49102a0b45ed94f1ba9f50b1d2bba9"),
}


@pytest.mark.parametrize("pattern", cli.PATTERN_CHOICES)
def test_asymptotics_matches_golden_digests(pattern, capsys, monkeypatch,
                                            tmp_path):
    # stdout (rho, v, K, winding) and the evaluated upper half of the
    # curve, byte for byte
    monkeypatch.chdir(tmp_path)
    argv = ["asymptotics", "--pattern", pattern, "--samples", "1024",
            "--curve-csv", "c.csv"]
    stdout, rows = ASYMPTOTICS_DIGESTS[pattern]
    assert stdout_digest(capsys, argv) == stdout
    lines = (tmp_path / "c.csv").read_text().splitlines(keepends=True)
    assert len(lines) == 1025
    assert hashlib.sha256("".join(lines[1:514]).encode()).hexdigest() == rows


# The same digests on the benchmark's circle, the default 4,096 samples
# (rows 0 .. 2048 are the upper half), stdout recorded with complex-step
# Newton and the rows when all but every eighth were interpolated by FFT
# (peak and valley again when their N and D were interpolated apart).
ASYMPTOTICS_DEFAULT_DIGESTS = {
    "111": (
        "4474fc1c30d1eb1024b2feb647571fac21839f030477137941afb99aa461ed57",
        "5187c03da4185acc523bc11bba130ff4212009250ea5568d3848ce8279c136f8"),
    "112": (
        "a4014208490434aa512d354bde027e17000bda444aefa43a48b58c9e3ebb8488",
        "cf568cabc63dd09b6def08cf6b06435f8a2d07e2c1af2c1d5d791b50d5a58db8"),
    "221": (
        "3b0d1a7030419b4d9e4d7635bfe1e63868d39458f0786d6352edb31e5c6e80f7",
        "39980979b68424b5f7c195cb504a3f06eee43df54b1cd1503aeac93ea9a8e87f"),
    "123": (
        "5e9016861a6d8d78f36152073224e8a53d2516b08069f0f632ff72cf40811e10",
        "ae563f77f16dd2a4bddab833c9a3a8688b03df51125092622b4de03ab1e152e5"),
    "peak": (
        "b3c848e89a4739eb25430ee919fcb6206622fadec44a254371761850164f8012",
        "dc10cdd7d8da4d22505ea5580a97979d7f3c5cc9837f7d689971b7a0a25b0e92"),
    "valley": (
        "f3e0c060b7ace64e9191e45c7c9d366b3ac4f86e077dc2d5a11615eb8ad44b24",
        "f452731b5cb9a138f8c72d96d3ccc227a55d6f65cfef1b6513b0b0bc90f10944"),
}


@pytest.mark.parametrize("pattern", cli.PATTERN_CHOICES)
def test_asymptotics_default_circle_matches_golden_digests(
        pattern, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ["asymptotics", "--pattern", pattern, "--curve-csv", "c.csv"]
    stdout, rows = ASYMPTOTICS_DEFAULT_DIGESTS[pattern]
    assert stdout_digest(capsys, argv) == stdout
    lines = (tmp_path / "c.csv").read_text().splitlines(keepends=True)
    assert len(lines) == 4097
    assert hashlib.sha256("".join(lines[1:2050]).encode()).hexdigest() == rows



# SHA-256 of the whole curve CSV of `asymptotics --pattern P --samples N
# --curve-csv c.csv`, header and mirrored rows included, recorded when
# every line was formatted from its own floats.  At the odd N = 1025 the
# mirror starts at row 513, not past the middle row, and every upper row
# is evaluated; N = 1024 and 4096 were recorded again when the rows off
# the 512-point sub-circle were interpolated by FFT, and peak and valley
# at those N once more when their N and D were interpolated apart.
CURVE_FILE_DIGESTS = {
    1024: {
        "111": (
            "e92f4eae5a29371091f47996bb5d98ee75d3c291ac030954301f9af40317276d"),
        "112": (
            "25d154246341cf98a8d4f8d74199505bb1d84cb862e59689fd2e6c627fb2a1ad"),
        "221": (
            "73d498a0817e50098b63694d64037612a6a47691bc697d18e52bc98d6449f001"),
        "123": (
            "4bfb2240db3cc4b77edb5eabd40007b42fc1d2002698c53bc84b9d84c9f02f3a"),
        "peak": (
            "0318f557c0c3c1a1861be2b5f3998701a2e9a087927f53df8ccb0e88e2d62eb7"),
        "valley": (
            "8b6d75c037d1ad2c815751072ff5a75c95a925d669a2d1b48dba3b452b6e3b42"),
    },
    1025: {
        "111": (
            "ef797e68193989c8b53fd87551bcd8bc8dee99d3cbb6ca175a69b13ac5eb0050"),
        "112": (
            "65afd8ed28cd9ceffe536baa21bbe38da6672aefda097b0a5920b4d273ddbce7"),
        "221": (
            "3f9aee3979634ccfbf0fab89fac8b0d4b1bd10d502baba70c7fe055a4a1e7a98"),
        "123": (
            "c04a974a7044bf72d4936512c93097fce29c5bf41f9a841d5ed638b2023ccab5"),
        "peak": (
            "890ccaab6b06b47a2d4710a1e24e3c13590e14711d570adce609df566d5c0292"),
        "valley": (
            "2868583342b19c0dab75a1678a558f369d9b550c18644c66390666c2663b7a35"),
    },
    4096: {
        "111": (
            "9784430ac782bc936645be726b1b8291b6c7f9cae74a2d45895d7958aa8d43ff"),
        "112": (
            "d5f5650be6f17c6eb353e388722cccf2ec6ead1c78f272d2e37b591448b776d5"),
        "221": (
            "be6e27a2281ffb1a91774a30ea9ddfa07ac1fd6772539eb4f44e00b77d008ff7"),
        "123": (
            "b13601aceb0cbce947edebeeab6d5ce93a5467b5cfcb900c91e353bbe85d5dc5"),
        "peak": (
            "7488c7d26d7c61ae757472912442387b6f1fe3be3c0b778273c56f93aa7c4522"),
        "valley": (
            "135b673acc88949eb2452e99dba7bd70ff796398631550e526c534172bb39d28"),
    },
}


@pytest.mark.parametrize("samples", sorted(CURVE_FILE_DIGESTS))
@pytest.mark.parametrize("pattern", cli.PATTERN_CHOICES)
def test_asymptotics_curve_file_matches_golden_digests(
        pattern, samples, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["asymptotics", "--pattern", pattern, "--samples",
                     str(samples), "--curve-csv", "c.csv"]) == 0
    data = (tmp_path / "c.csv").read_bytes()
    assert data.count(b"\n") == samples + 1
    assert hashlib.sha256(data).hexdigest() == \
        CURVE_FILE_DIGESTS[samples][pattern]

def test_asymptotics_unwritable_curve_csv_exits_2(monkeypatch, capsys,
                                                  tmp_path):
    # the path is checked before the estimate runs, not after it
    def never(*args):
        raise AssertionError("estimate ran with an unwritable --curve-csv")
    monkeypatch.setattr(asymptotics, "estimate", never)
    rc = cli.main(["asymptotics", "--pattern", "112", "--curve-csv",
                   str(tmp_path / "missing" / "c.csv")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--curve-csv" in captured.err
    assert captured.out == ""



def test_asymptotics_empty_curve_csv_exits_2(monkeypatch, capsys):
    # an empty path is a path that cannot be written, not "no CSV"
    def never(*args):
        raise AssertionError("estimate ran with an empty --curve-csv")
    monkeypatch.setattr(asymptotics, "estimate", never)
    rc = cli.main(["asymptotics", "--pattern", "112", "--curve-csv", ""])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--curve-csv: cannot write ''" in captured.err
    assert captured.out == ""

def test_asymptotics_numeric_failure_exits_3(monkeypatch):
    def boom(*args):
        raise asymptotics.RootNotFoundError("no bracket")
    monkeypatch.setattr(asymptotics, "estimate", boom)
    rc = cli.main(["asymptotics", "--pattern", "111"])
    assert rc == 3


def test_asymptotics_root_not_found_exits_3(monkeypatch, capsys):
    # raised inside the estimate, below the subcommand's handler
    def no_root(*args):
        raise asymptotics.RootNotFoundError("no sign change of f_111")
    monkeypatch.setattr(asymptotics, "find_rho", no_root)
    rc = cli.main(["asymptotics", "--pattern", "111"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "comppat: numeric failure: no sign change of f_111\n"


@pytest.mark.parametrize("stub", [wrong_slope, flat_slope])
def test_asymptotics_bad_newton_slope_exits_3(stub, monkeypatch, capsys):
    # a complex-step slope of the wrong sign or 0 is a numeric failure,
    # never a ZeroDivisionError
    monkeypatch.setitem(asymptotics._PARTS, PatternId.P111, stub)
    rc = cli.main(["asymptotics", "--pattern", "111", "--samples", "1024"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("comppat: numeric failure: ")
    assert captured.err.count("\n") == 1


def test_asymptotics_vanishing_numerator_exits_3(monkeypatch, capsys):
    # N = 0 at the circle's first point, |x| = 0.7 on the real axis: a
    # numeric failure from the quotient itself, with nothing on stdout
    vanishing_numerator(monkeypatch, 0.7)
    rc = cli.main(["asymptotics", "--pattern", "peak"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "comppat: numeric failure: numerator nearly vanishes at ")
    assert captured.err.count("\n") == 1


def test_asymptotics_base_numeric_failure_exits_3(monkeypatch, capsys):
    def boom(*args):
        raise asymptotics.AsymptoticsError("numerator nearly vanishes")
    monkeypatch.setattr(asymptotics, "estimate", boom)
    rc = cli.main(["asymptotics", "--pattern", "111"])
    assert rc == 3
    assert "numerator nearly vanishes" in capsys.readouterr().err


# -- verify -------------------------------------------------------------------

def test_verify_compositions_clean():
    res = run_cli("verify", "--pattern", "peak", "--set", "1,2",
                  "--max-n", "12")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    check("verify", report)
    assert report["mismatches"] == []
    assert report["checked"] > 0


def test_verify_words_clean():
    res = run_cli("verify", "--pattern", "112", "--words", "-k", "3",
                  "--max-m", "8")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    check("verify", report)
    assert report["mismatches"] == []


def verify_in_process(capsys, *argv):
    rc = cli.main(["verify", *argv])
    report = json.loads(capsys.readouterr().out)
    check("verify", report)
    assert rc == 0
    assert report["mismatches"] == []
    assert report["checked"] > 0
    return report


@pytest.mark.usefixtures("shared_build_gf")
@pytest.mark.parametrize("pattern", cli.PATTERN_CHOICES)
def test_verify_nat_at_order_cap(pattern, capsys):
    verify_in_process(capsys, "--pattern", pattern, "--set", "nat",
                      "--max-n", str(cli.MAX_ORDER))


@pytest.mark.parametrize("part_set", [s for s in BATTERY if not s.is_nat],
                         ids=str)
def test_verify_finite_sets_at_order_cap(part_set, capsys):
    for pattern in cli.PATTERN_CHOICES:
        verify_in_process(capsys, "--pattern", pattern, "--set",
                          str(part_set), "--max-n", str(cli.MAX_ORDER))


def test_verify_words_at_order_cap(capsys):
    for pattern in cli.PATTERN_CHOICES:
        verify_in_process(capsys, "--pattern", pattern, "--words", "-k", "5",
                          "--max-m", str(cli.MAX_ORDER))
        # the largest word check the exhaustive oracle used to accept
        verify_in_process(capsys, "--pattern", pattern, "--words", "-k", "5",
                          "--max-m", "12")


def test_verify_requires_scope_flags():
    res = run_cli("verify", "--pattern", "112")
    assert res.returncode == 2
    assert "--set" in res.stderr
    res = run_cli("verify", "--pattern", "112", "--words", "-k", "3")
    assert res.returncode == 2
    assert "--max-m" in res.stderr


def test_verify_words_refuses_the_composition_flags():
    for flags in (["--set", "1,2"], ["--max-n", "7"],
                  ["--set", "1,2", "--max-n", "7"]):
        res = run_cli("verify", "--pattern", "111", "--words", "-k", "3",
                      "--max-m", "4", *flags)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == \
            f"comppat: error: {flags[0]}: not allowed with --words\n"


def test_verify_compositions_refuse_the_word_flags():
    for flags in (["-k", "3"], ["--max-m", "4"], ["-k", "3", "--max-m", "4"]):
        res = run_cli("verify", "--pattern", "111", "--set", "1,2",
                      "--max-n", "7", *flags)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == \
            f"comppat: error: {flags[0]}: only allowed with --words\n"


def test_verify_mismatch_exits_4(monkeypatch):
    # inject a corrupted oracle to exercise the mismatch path
    from comppat.patterns import OccurrenceTable

    def fake_oracle(p, part_set, max_n):
        return OccurrenceTable({(0, 0, 0): 2})
    monkeypatch.setattr(cli, "brute_force_table", fake_oracle)
    rc = cli.main(["verify", "--pattern", "111", "--set", "1,2",
                   "--max-n", "4"])
    assert rc == 4


def test_verify_caps_enforced():
    above = str(cli.MAX_ORDER + 1)
    res = run_cli("verify", "--pattern", "111", "--set", "1,2",
                  "--max-n", above)
    assert res.returncode == 2
    assert "--max-n" in res.stderr
    res = run_cli("verify", "--pattern", "111", "--words", "-k", "2",
                  "--max-m", above)
    assert res.returncode == 2
    assert "--max-m" in res.stderr
    res = run_cli("verify", "--pattern", "111", "--words",
                  "-k", str(cli.MAX_VERIFY_K + 1), "--max-m", "4")
    assert res.returncode == 2
    assert "-k" in res.stderr


# -- words ----------------------------------------------------------------------

def test_words_one_letter_peak():
    res = run_cli("words", "--pattern", "peak", "-k", "1", "--order", "7")
    report = json.loads(res.stdout)
    check("words", report)
    assert report["coefficients"] == [
        {"m": m, "r": 0, "count": "1"} for m in range(8)]


def test_words_binary_111():
    res = run_cli("words", "--pattern", "111", "-k", "2", "--order", "4")
    report = json.loads(res.stdout)
    rows = {(c["m"], c["r"]): c["count"] for c in report["coefficients"]}
    assert rows[(3, 1)] == "2"


def test_words_peak_equals_valley():
    peak = run_cli("words", "--pattern", "peak", "-k", "4", "--order", "9",
                   "--format", "csv").stdout
    valley = run_cli("words", "--pattern", "valley", "-k", "4",
                     "--order", "9", "--format", "csv").stdout
    assert peak == valley


def test_words_csv_format():
    res = run_cli("words", "--pattern", "123", "-k", "3", "--order", "4",
                  "--format", "csv")
    lines = res.stdout.splitlines()
    assert lines[0] == "m,r,count"
    assert lines[1] == "0,0,1"


@pytest.mark.parametrize("pattern", cli.PATTERN_CHOICES)
def test_words_at_k_cap_rows_sum_to_k_power(pattern):
    # collapsing y := 1 counts all k^m words of length m, an identity the
    # series algebra does not use
    k = cli.MAX_WORDS_K
    res = run_cli("words", "--pattern", pattern, "-k", str(k),
                  "--order", "60", "--format", "csv")
    assert res.returncode == 0, res.stderr
    row_sums = [0] * 61
    for line in res.stdout.splitlines()[1:]:
        m, _r, count = line.split(",")
        row_sums[int(m)] += int(count)
    assert row_sums == [k ** m for m in range(61)]


def test_words_k_cap():
    res = run_cli("words", "--pattern", "111",
                  "-k", str(cli.MAX_WORDS_K + 1), "--order", "4")
    assert res.returncode == 2
    assert "-k" in res.stderr


# -- misc -------------------------------------------------------------------------

def test_usage_error_on_unknown_pattern():
    res = run_cli("expand", "--pattern", "122", "--set", "nat",
                  "--order", "4")
    assert res.returncode == 2


def test_order_cap():
    res = run_cli("avoiders", "--pattern", "111", "--set", "nat",
                  "--order", "61")
    assert res.returncode == 2
    assert "--order" in res.stderr


# -- the launch: `python -m comppat` ends in cli.run's hard exit ------------

EXPAND_111_CAP = ["expand", "--pattern", "111", "--set", "nat",
                  "--order", str(cli.MAX_ORDER)]


def launch(*argv, **kwargs):
    # block-buffered stdout, so output left unflushed at the exit is lost
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, "-m", "comppat", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, **kwargs)


def launched(*argv, text=True):
    """(exit code, stdout, stderr) of one launch."""
    with launch(*argv, text=text) as proc:
        out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def test_launch_pipes_a_table_larger_than_the_pipe_buffer():
    # 2.1 MB on a pipe, byte for byte, are written before os._exit
    code, out, err = launched(*EXPAND_111_CAP, text=False)
    assert code == 0, err
    assert len(out) > 2_000_000
    assert hashlib.sha256(out).hexdigest() == \
        GOLDEN_DIGESTS[" ".join(EXPAND_111_CAP)]


def test_launch_writes_the_whole_curve_file(tmp_path):
    code, out, err = launched("asymptotics", "--pattern", "valley",
                              "--samples", "1024",
                              "--curve-csv", str(tmp_path / "c.csv"))
    assert code == 0, err
    assert json.loads(out)["winding"] == 1
    assert hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest() == \
        CURVE_FILE_DIGESTS[1024]["valley"]


def test_launch_help_exits_0_with_the_full_usage(capsys):
    # the help formatted from cli.COMMANDS, the same in process and launched
    assert cli.main(["--help"]) == 0
    text = capsys.readouterr().out
    assert launched("--help") == (0, text, "")
    assert text.startswith(
        "usage: comppat {expand,avoiders,asymptotics,verify,words} FLAGS\n")
    assert all(f"\n  {command} " in text for command in cli.COMMANDS)


def test_launch_argparse_error_exits_2_with_its_message(capsys):
    # a refused argument is one error line and exit 2, in process and
    # launched; main returns the code and never raises SystemExit
    argv = ["expand", "--pattern", "122", "--set", "nat", "--order", "4"]
    message = ("comppat: error: --pattern: must be one of 111, 112, 221, 123,"
               " peak, valley\n")
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", message)
    assert launched(*argv) == (2, "", message)


def test_launch_usage_error_exits_2_with_its_message():
    assert launched("avoiders", "--pattern", "111", "--set", "nat",
                    "--order", "61") == (
        2, "", "comppat: error: --order: must be between 0 and 60\n")


def test_launch_into_a_pipe_closed_early_exits_1_without_a_traceback():
    # the reader closes the pipe after 100 bytes of the 2.1 MB table
    with launch(*EXPAND_111_CAP) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in err.decode()
    assert err == b"comppat: error: stdout closed by its reader\n"
