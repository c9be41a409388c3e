"""CLI surface: formats, determinism, schemas, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comppat import asymptotics, cli, genfun
from comppat.patterns import PartSet, PatternId
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


def expand_entries(*argv):
    """The ((n, m, r), count) entries that ``expand`` prints for argv,
    read from its JSON and from its CSV."""
    tables = []
    for form in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["expand", *argv, "--format", form]) == 0
        tables.append(out.getvalue())
    report, (head, *lines) = json.loads(tables[0]), tables[1].splitlines()
    assert head == "n,m,r,count"
    return ([((c["n"], c["m"], c["r"]), int(c["count"]))
             for c in report["coefficients"]],
            [((n, m, r), c) for n, m, r, c in
             (map(int, line.split(",")) for line in lines)])


part_specs = st.one_of(st.just("nat"), st.lists(
    st.integers(1, 12), min_size=1, max_size=5, unique=True).map(
        lambda parts: ",".join(map(str, sorted(parts)))))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(cli.PATTERN_CHOICES), part_specs, st.integers(0, 20))
def test_expand_entries_are_build_gf_in_key_order(pattern, spec, order):
    # expand reads the packed rows itself; build_gf reads them through
    # TruncatedSeries._unrows and _check_counts
    json_entries, csv_entries = expand_entries(
        "--pattern", pattern, "--set", spec, "--order", str(order))
    series = genfun.build_gf(PatternId(pattern), cli.parse_set_spec(spec),
                             order)
    assert json_entries == list(series.coeffs.items()) == csv_entries


@pytest.mark.usefixtures("shared_build_gf")
def test_expand_formats_agree_at_order_cap_and_leave_rows_as_built():
    nat = PartSet.naturals()
    for pattern in PatternId:
        # the cached rows that expand and build_gf read
        rows, width = genfun.build_rows(pattern, nat, cli.MAX_ORDER)
        before = {n: (lo, list(row)) for n, (lo, row) in rows.items()}
        json_entries, csv_entries = expand_entries(
            "--pattern", pattern.value, "--set", "nat",
            "--order", str(cli.MAX_ORDER))
        assert json_entries == csv_entries, pattern
        genfun.build_gf(pattern, nat, cli.MAX_ORDER)
        assert rows == before, pattern


def packed(counts, width):
    """The packed y-polynomial of counts, lowest r first."""
    return sum(c << width * r for r, c in enumerate(counts))


@pytest.mark.parametrize("counts, written", [
    # a negative count inside the row: the fields below it are written,
    # and it reads as 2**8 - 2 = 254 >= 2**7
    ([4, -2, 5], ["1,0,0,4"]),
    # a negative top count: the row's int is negative, and it is refused
    # before any of its fields is read (shifting it never reaches 0)
    ([2, 3, -1], []),
    # a count of 2**7 does not fit the width's balanced digits
    ([1, 1 << 7], ["1,0,0,1"]),
], ids=["middle", "top", "sign-bit"])
def test_table_entries_refuse_a_negative_count(counts, written):
    width = 8
    rows = {0: (0, [1]), 1: (0, [packed(counts, width)])}
    entries = cli._table_entries(rows, width, lambda n, m: (f"{n},{m},", ""),
                                 [(f"{r},", "") for r in range(3)])
    seen = []
    with pytest.raises(RuntimeError, match=genfun.NEGATIVE_COUNT):
        seen.extend(entries)
    assert seen == ["0,0,0,1", *written]


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
    # the order rule diverges at |x| = 0.8, so the domain stops at 0.79
    res = run_cli("asymptotics", "--pattern", "111", "--radius", "0.795")
    assert (res.returncode, res.stdout, res.stderr) == (
        2, "", "comppat: error: --radius: must lie in (0, 0.79]\n")


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
    # half of the requested circle, whose 1,025 complex points reach f as
    # one block; nothing samples the default |x| = 0.7.  The complex steps
    # x + ih of find_rho and estimate are one-point blocks, not circle
    # blocks.
    quotient = asymptotics._quotient
    blocks = []

    def counting(xs, parts, bounds):
        if isinstance(xs[0], complex) and len(xs) > 1:
            blocks.append(list(xs))
        return quotient(xs, parts, bounds)
    monkeypatch.setattr(asymptotics, "_quotient", counting)
    curve = tmp_path / "curve.csv"
    rc = cli.main(["asymptotics", "--pattern", "112", "--radius", "0.6",
                   "--samples", "2048", "--curve-csv", str(curve)])
    assert rc == 0
    assert len(blocks) == 1
    assert len(blocks[0]) == 2048 // 2 + 1
    assert blocks[0] == circle(0.6, 2048)
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
    quotient = asymptotics._quotient

    def loose(xs, parts, bounds):
        return quotient(xs, parts, [1e6])
    monkeypatch.setattr(asymptotics, "_quotient", loose)
    rc = cli.main(["asymptotics", "--pattern", "112", "--samples", "1024"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "not certified" in captured.err
    assert captured.out == ""


# SHA-256 of the stdout of `asymptotics --pattern P --samples 1024
# --curve-csv c.csv` and of the CSV's data rows 0 .. 512, recorded when
# f's parts came from their exact Taylor coefficients (Horner's rule for
# rho and K, FFTs for the rows).
ASYMPTOTICS_DIGESTS = {
    "111": (
        "2c7171f29eee94034dfa99d8e8ff2d6c59104738c8ab91229235eaccdb3d14c5",
        "3b4cf00e8a06c343d526b07610e1a5d1b0014b5b542c0480831c4c7d2e6ce7b7"),
    "112": (
        "843f25bfc52bf2a1db8850b6b78cc731bc8acfb5cb69abf9d4dacd67a83d6310",
        "7c0f14614007b76b6e1f835dcb2f87895e4dc87d53b154cca9032d8871fe9c65"),
    "221": (
        "9320f52cc85d41cb15cd11c8226259b666acca3f0a0457687f686380200cd527",
        "8ce4ce16d7f3afa4bcd68a5fa944793f49bd2648b96dbc49a9341aac2b2dee41"),
    "123": (
        "dbaa6d725dd1c1b8886303003220fbc732473a03aa00795da7d01964112e7c26",
        "3fbcfb83141cb212e2d46ac8c389dea009108829ba089db0682db616e27d3d47"),
    "peak": (
        "5fa1cab54f8047e3d70fc76c4686bd574c5ce1529fd83ad001b588d86891dfe2",
        "ca99ab480ceac1df8a6ceac11030b253aa52107e1221e7c44cc75f12c23dc026"),
    "valley": (
        "ca69d99d72e0c932bcd6c98d314ae02e0a97f72b52f37b081b090cdbec9be52d",
        "2808829a77a8625d783da97b44628802e066be26de9dd4893070db994cdcbe25"),
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
# (rows 0 .. 2048 are the upper half), recorded at the same commit.
ASYMPTOTICS_DEFAULT_DIGESTS = {
    "111": (
        "0956e6fe36ede149a9fcbcf716fabab6456dba59213bb6f7b8adf63a2fff1825",
        "ee1e5fd1e4c3203197f407dbdc5826aecd8f966660fe35ce2e4913d82975a9f1"),
    "112": (
        "328c312fe0f6e1a5f318ec1b1fdc85ce0bf28c2fdecce3ada436b99b5acf5279",
        "c990f7974cf52ed797ed629f7fc9b91c27dffdbbeea33874a9954adb23779e77"),
    "221": (
        "76fad5adc3787c4feecbc401916cda91af954950bc8a804763beb60153083169",
        "e28c7488f4a0feaa4cc9893005d13927939c5924633c788fc91b9c6ab3c6b68e"),
    "123": (
        "bfcedee6626f67a19baffd97e7002c7ce82a4ef030efafda353fb7a6c0ef4236",
        "3e26a3d5251f154c4195cda0e025876276c60f26ae51835696f956ceb8039fbd"),
    "peak": (
        "9a250ca2bdc79ba72f2b8b3b833aa35e47f931ee81d35fc3049efa1762a72e66",
        "111f639952afa21e0b2d5bfb19996462b6cc39ae5ca82952f07a3d0eb788c35d"),
    "valley": (
        "f18d71b48cbfbe18e8e26628688da5e950a8590ad9a880f25c93eba8ee8d01d3",
        "b7b6d6f541fea7d71523a951433e0aaafcdad2aa1344aa8f4b8d85f40b97a00e"),
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
# f's parts came from their exact Taylor coefficients.  At the odd N =
# 1025 the mirror starts at row 513, not past the middle row, and Horner's
# rule evaluates every upper row; N = 1024 and 4096 come from FFTs.
CURVE_FILE_DIGESTS = {
    1024: {
        "111": (
            "ac838e313c048a01bae9dda14684e0b454cc729a638975ac1c5aa424b9e051c0"),
        "112": (
            "b02f62a9e4745be32cb4a84298554032bcc35abcc846e61f06aaaeb5f03cbaa2"),
        "221": (
            "2361b363a0a36f86683be73814510b3681ec73fb768fbac83d7baa672a208584"),
        "123": (
            "ec234f0797f25c6577b2c4281867a83a4746870acd2d53c47d67f4da7c6b1a76"),
        "peak": (
            "cca6634282219caaed8625d4389b9f64315fee0d3751fd1453c583180fda7348"),
        "valley": (
            "6e8f1cd4866c7bc0f3477920740151e23b43c1c695779058db556b253a68d3bf"),
    },
    1025: {
        "111": (
            "9c9b7cfa3986be8791df36d9f9b9e71e35c86f2757c36e8964a6e792acb92f79"),
        "112": (
            "a63bd20f2ba4fb56d0afa5e80acfd575d7e40aec205f0e34ea5ad28c3c3c1101"),
        "221": (
            "7e2441a74537c86a34b3719bf89dd07a3b2db08b33b63da36a500459f5f4986b"),
        "123": (
            "0747755c3da888b175d4dbc953bf52e2028afac20d46a4d7f57b0760ac12ec86"),
        "peak": (
            "bc59cb6aac6deddd63c9343575b4838a18b475031893e23fdbc6e871c88eb384"),
        "valley": (
            "4dfb2d601f28baed0ca4529be4ddbe80ac0fb35d67d5cb060e5a076744fa40ac"),
    },
    4096: {
        "111": (
            "13c1c66998e9d22e921d4df186b5ffaf6422d9740187674e851bb7af6c25244e"),
        "112": (
            "145a80d1877a9861669643959901dca49041229b7a86b65d9bb844c452ea90c9"),
        "221": (
            "2006c8f33e7242e11f26ae610663df5901e760a55bccbd1c4fb06119ac3919f7"),
        "123": (
            "5d5b70efa2f9fb452ad3f48af90dc2921dead4c5938d6676f3f7da95b3f06086"),
        "peak": (
            "d24d35d57c8c58191cb9bcf547d9d72eb9e83db7b05eb9645fb75388875e4ffa"),
        "valley": (
            "04c78fb0a6b6e3ba98b0755aec75cdfc09f3ee377d0eb673a4202c05377179d3"),
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
    monkeypatch.setattr(asymptotics, "_quotient", stub)
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
    # the reader closes the pipe after 100 bytes of the 2.1 MB table, in
    # either format; the write fails while the packed rows are being read
    for form in ("json", "csv"):
        with launch(*EXPAND_111_CAP, "--format", form) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1, form
        assert "Traceback" not in err.decode()
        assert err == b"comppat: error: stdout closed by its reader\n"
