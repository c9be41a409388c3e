"""CLI surface: formats, determinism, schemas, exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from comppat import asymptotics, cli
from comppat.patterns import PatternId
from enumeration import BATTERY

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


def test_asymptotics_samples_the_circle_once(monkeypatch, capsys, tmp_path):
    # the report's winding and the curve come from one pass over the upper
    # half of the requested circle, as one block of complex points;
    # nothing samples the default |x| = 0.7
    evaluate = asymptotics._EVALUATORS[PatternId.P112]
    blocks = []

    def counting(xs, ax, eps):
        if isinstance(xs[0], complex):
            blocks.append(list(xs))
        return evaluate(xs, ax, eps)
    monkeypatch.setitem(asymptotics._EVALUATORS, PatternId.P112, counting)
    curve = tmp_path / "curve.csv"
    rc = cli.main(["asymptotics", "--pattern", "112", "--radius", "0.6",
                   "--samples", "2048", "--curve-csv", str(curve)])
    assert rc == 0
    assert len(blocks) == 1
    circle = blocks[0]
    assert len(circle) == 2048 // 2 + 1
    assert all(type(x) is complex and x.imag >= 0 for x in circle)
    assert all(abs(abs(x) - 0.7) > 1e-3 for x in circle)
    assert len(curve.read_text().splitlines()) == 2049
    monkeypatch.undo()
    report = json.loads(capsys.readouterr().out)
    assert report["winding"] == asymptotics.winding_number(
        PatternId.P112, 0.6, 2048)


def test_asymptotics_uncertified_circle_exits_3(monkeypatch, capsys):
    # a truncation bound above min |f| on the circle leaves the winding
    # uncertified: a numeric failure, with nothing on stdout
    evaluate = asymptotics._EVALUATORS[PatternId.P112]

    def loose(xs, ax, eps):
        return evaluate(xs, ax, eps)[0], 1e6
    monkeypatch.setitem(asymptotics._EVALUATORS, PatternId.P112, loose)
    rc = cli.main(["asymptotics", "--pattern", "112", "--samples", "1024"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "not certified" in captured.err
    assert captured.out == ""


# SHA-256 of the stdout of `asymptotics --pattern P --samples 1024
# --curve-csv c.csv` and of the CSV's data rows 0 .. 512, recorded when
# every circle point was evaluated on its own.  The rows past 512 are
# mirrored conjugates now, which differ from those old rows in the last ulp.
ASYMPTOTICS_DIGESTS = {
    "111": ("8a9a2efee3c46e2e316c11a2adc0f82cf0279bc66e5dac88ced0a9e70aa57f8e",
            "1d69b4ce2c54f3b940c9ef945167c6aa6c02d2c1852f00fdb3f2738f45ff5c6d"),
    "112": ("4c806f36faeb0ac0e349d0b63dc89d7b6be328fb8ecb5e9af714bc61b97d3ab0",
            "ad30244a2aee3e33994d0add1296e7e652ea8894908d6ff56306ab6dcc7a69e3"),
    "221": ("8ba637f3680ae59ad0b3c053ac33eaccf94b4462e44af164cb74b530b881783f",
            "ef568327b2d9aaebbb1d9884d9a31f66415b3336c5d573e18133ab9f6881cd6e"),
    "123": ("4e01fa5b5229ac1305fd3e7db792d6ee95f6ae4d5274b39180242caca6bf1656",
            "ef67c7797e727846951546bd5736e7ccadf3bac33870269c53841d80af2e5122"),
    "peak": ("433f3968643cd54804ba7c4f138a6daf99ca9625bf8128555e65c717f437a37e",
             "9725e3cf622ab286c137d5e3bccde307efd737e84260aa44c5c3881a7e0be404"),
    "valley": (
        "657bd34c29a26cdae80d339175852df0ea23e59663413e6048d39636f75c965e",
        "427ce5c1c37d0af2b50b90aadd1b6187576ed440e83dcce3bcaa1906850c2c8a"),
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
# (rows 0 .. 2048 are the evaluated upper half), recorded before the
# evaluators shared their powers of x.
ASYMPTOTICS_DEFAULT_DIGESTS = {
    "111": (
        "e817233bf11171ccfc5d5fbc1efacbd16a9e57d38d8912712043f8a72ecfa20e",
        "621b75cfe761c5c86d4da07c0a11f2145b7cbef7b15674d2b22aaa243d8147c5"),
    "112": (
        "a67d6c50beb9c09fbcc6ff017134de7e9c3d6b6a0c0283d96a433b780c7d9fda",
        "d8480ef3fddbf4414428db28e8c4d9cb66328efd172562ac51fa17f7c8f27de2"),
    "221": (
        "9a1d1d93b360024523070f8abae3b4503e620fd013f3c87afe6955837592a4c2",
        "02128d18350bb43834d42fa562b9a00d7fe8442eaa73eb476eb15b071c201f03"),
    "123": (
        "2018230dbffb88e79769048834258a90a764d348d6e5da435552747244567ac4",
        "a3b997fabd94829faa1c97ee27d27820e0f4e49f7970472b2f1a732b4f3666c7"),
    "peak": (
        "bab2ae852958d423e7f443187c9fbcbea42b02bfcdd77e2769c6bc3352596327",
        "37d365b8e48192d8541e6f77ef4e2f32d256e3f47f8230cd61016fe6dfbe329e"),
    "valley": (
        "90e85a8f408955b0d0be2d8ebf430f769ce21835d5162944de50c52a806060d8",
        "3cd3e9ae89c39f61c549cdf0cd31aab4172553e999cbe84e6be29e7a0dfe4643"),
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
# mirror starts at row 513, not past the middle row.
CURVE_FILE_DIGESTS = {
    1024: {
        "111": (
            "1ec93fe5e114b0076fd54ba8ce364f2123fa602c9c87cd0ccc73ce2734f8649b"),
        "112": (
            "9dd4226618587415d478362da473e87ed4ecea4571d233ffa026def41b9926eb"),
        "221": (
            "c77e49697120a5b48fa55831feb75cd8afcfe98482e9a1139c9d870215ee02bb"),
        "123": (
            "62a10c2c7bba2c598e28fb361f7982260abbde2078d8c896de71e15413939d84"),
        "peak": (
            "ce81c6a10fbccef56206b906eee8b777e5bbcc5f96a99123773632b59b7136da"),
        "valley": (
            "8ddea3abbb105a727f480f3f67105cb3ebd73828f48c97419cea45372addde45"),
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
            "8025d6f09cc34b85c4dccf9923986c648d1fb309f95e964f3bdad175add906ad"),
        "112": (
            "08bb6ac2fec4a2af2a56ded4805eddc0041eefa37b4bacd4c36a8e7123e1ee1c"),
        "221": (
            "90497fb0347bef6bdd2d1f13d9dd81781b7117fc832e497575c2b3124fb30fe2"),
        "123": (
            "dabd8eae30218e053e554f1383d29bf8e0fb1fce002fcea981615ab8f2c83bcf"),
        "peak": (
            "ded621759114cf62f187697df58ac8ca2022059535c0cab1907ccdf523fd4e1a"),
        "valley": (
            "8f43dc25a28443600f174c4a0300a111b4c709e20fa27750d132d8af45e363cb"),
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
