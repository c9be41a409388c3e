"""The four benchmark workloads: seeded job lists and their output checks.

A job is one ``comppat`` command line.  The seed shuffles the job order
of every workload and, for ``verify-oracle``, draws the two seeded
``verify --set S`` jobs; the same seed always gives the same job lists.
The program under test only ever receives the argv built here.

Every job carries the check its output must pass:

* ``digest``: exit 0 and stdout equal, byte for byte, to the SHA-256
  recorded in ``expected.json`` at the seed commit;
* ``verify``: exit 0 and a JSON report with ``mismatches == []``;
* ``asymptotics``: exit 0, winding 1, v and K within 1e-5 / 1e-4
  relative of the printed constants, and a curve CSV with one row per
  sample (no digest: the low digits of K may legitimately change);
* ``help``: exit 0 and a usage text (the bare set-up probe).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

PATTERNS = ("111", "112", "221", "123", "peak", "valley")
WORKLOADS = ("expand-nat", "words-k", "avoidance", "verify-oracle")
CURVE = "{curve}"  # argv placeholder for a run-owned curve CSV path

EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "expected.json").read_text())


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: str

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


PROBE = Job(("--help",), "help")  # bare start-up: the set-up probe


def _digest_job(*argv: str) -> Job:
    return Job(tuple(argv), "digest")


def _fixed_jobs(workload: str) -> list[Job]:
    if workload == "expand-nat":
        return [_digest_job("expand", "--pattern", p, "--set", "nat",
                            "--order", "60") for p in PATTERNS]
    if workload == "words-k":
        return [_digest_job("words", "--pattern", p, "-k", "1600",
                            "--order", "40") for p in PATTERNS]
    if workload == "avoidance":
        jobs = []
        for p in PATTERNS:
            bfile = ("--bfile",) if p == "valley" else ()
            jobs.append(_digest_job("avoiders", "--pattern", p, "--set",
                                    "nat", "--order", "60", *bfile))
            jobs.append(Job(("asymptotics", "--pattern", p,
                             "--curve-csv", CURVE), "asymptotics"))
        return jobs
    if workload == "verify-oracle":
        jobs = [_digest_job("verify", "--pattern", p, "--set", "nat",
                            "--max-n", "17") for p in PATTERNS]
        jobs.append(_digest_job("verify", "--pattern", "123", "--words",
                                "-k", "4", "--max-m", "9"))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# Three-part sets S of {1..6} with 1 in S: the pool the seeded verify
# jobs draw from.  1 keeps every n reachable, so every table is nonempty.
SEEDED_SETS = tuple((1, a, b)
                    for a, b in itertools.combinations(range(2, 7), 2))


@dataclass(frozen=True)
class Plan:
    """A workload resolved for one seed.

    ``timed`` runs in every measured pass, in the seeded order.  ``seeded``
    holds the jobs whose inputs the seed draws; they run once per run,
    untimed, because their cost depends on the draw (the oracle visits
    1,625 compositions for S = {1,5,6} and 266,079 for {1,2,3}).
    """
    timed: tuple[Job, ...]
    seeded: tuple[Job, ...] = ()


def plan_for(workload: str, seed: int) -> Plan:
    """The resolved, seeded job lists of one workload."""
    rng = random.Random(f"{workload}/{seed}")
    timed = _fixed_jobs(workload)
    rng.shuffle(timed)
    seeded = []
    if workload == "verify-oracle":
        for part_set in rng.sample(SEEDED_SETS, 2):
            seeded.append(Job(("verify", "--pattern", rng.choice(PATTERNS),
                               "--set", ",".join(map(str, part_set)),
                               "--max-n", "20"), "verify"))
    return Plan(tuple(timed), tuple(seeded))


def check_output(job: Job, returncode: int, stdout: bytes,
                 curve_path: Path | None) -> str | None:
    """None when the job's output is correct, else why it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    if job.check == "digest":
        want = EXPECTED["digests"].get(job.key)
        if want is None:
            return "no recorded digest"
        got = hashlib.sha256(stdout).hexdigest()
        if got != want:
            return f"stdout sha256 {got[:12]} != {want[:12]}"
        return None
    if job.check == "help":
        if not stdout.startswith(b"usage: comppat"):
            return "no usage text"
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if job.check == "verify":
        return None if report.get("mismatches") == [] else "oracle mismatch"
    if job.check == "asymptotics":
        try:
            return _check_asymptotics(report, curve_path)
        except (KeyError, TypeError, OSError) as exc:
            return f"malformed asymptotics output: {exc!r}"
    raise ValueError(f"unknown check {job.check!r}")


def _check_asymptotics(report: dict, curve_path: Path | None) -> str | None:
    k_ref, v_ref = EXPECTED["constants"][report["pattern"]]
    if report["winding"] != 1:
        return f"winding {report['winding']}"
    if abs(report["v"] - v_ref) / v_ref >= 1e-5:
        return f"v {report['v']} vs {v_ref}"
    if abs(report["K"] - k_ref) / abs(k_ref) >= 1e-4:
        return f"K {report['K']} vs {k_ref}"
    samples = report["tolerances"]["winding_samples"]
    lines = curve_path.read_text().splitlines()
    rows = [line for line in lines[1:] if len(line.split(",")) == 4]
    if lines[:1] != ["re_x,im_x,re_f,im_f"] or len(rows) != samples \
            or len(lines) != samples + 1:
        return f"curve CSV has {len(lines) - 1} rows, want {samples}"
    return None
