"""Self-check of the benchmark harness, on tiny jobs (stdlib only).

    python3 -m unittest discover -s perfbench -t perfbench

Takes about ten seconds.  It does not measure anything; it checks
that the harness reports every metric, counts failures and records
well-nested spans.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
import workloads
from workloads import CURVE, WORKLOADS, Job, Plan, plan_for

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# One small job of each kind per workload; the digests of the fixed ones
# are in expected.json next to the full-size ones.
TINY = {
    "expand-nat": Plan((Job(("expand", "--pattern", "peak", "--set", "nat",
                             "--order", "8"), "digest"),)),
    "words-k": Plan((Job(("words", "--pattern", "111", "-k", "3",
                          "--order", "6"), "digest"),)),
    "avoidance": Plan((
        Job(("avoiders", "--pattern", "valley", "--set", "nat",
             "--order", "10", "--bfile"), "digest"),
        Job(("asymptotics", "--pattern", "112", "--samples", "1024",
             "--curve-csv", CURVE), "asymptotics"),
    )),
    "verify-oracle": Plan(
        (Job(("verify", "--pattern", "peak", "--set", "nat",
              "--max-n", "6"), "digest"),),
        seeded=(Job(("verify", "--pattern", "123", "--set", "1,2",
                     "--max-n", "8"), "verify"),)),
}


def emitted(result: run.Result, trace: bool) -> tuple[list[str], dict]:
    out = io.StringIO()
    run.emit(result, trace, out)
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


class HarnessTest(unittest.TestCase):

    def test_every_metric_printed_with_unit(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            for workload, plan in TINY.items():
                with self.subTest(workload=workload, trace=trace):
                    lines, final = emitted(run.execute(plan, 0, trace), trace)
                    self.assertEqual(
                        set(final), {"correct", "attempted", "failed",
                                     "metrics"})
                    self.assertTrue(final["correct"], lines)
                    self.assertEqual(final["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in final["metrics"].items()},
                        declared)
                    for name, unit in declared.items():
                        self.assertTrue(any(
                            line.split()[:1] == [name]
                            and line.split()[-1] == unit
                            for line in lines), name)

    def test_wrong_digest_fails_one_job(self):
        plan = Plan(TINY["expand-nat"].timed + TINY["words-k"].timed)
        wrong = dict(workloads.EXPECTED["digests"])
        wrong[plan.timed[0].key] = "0" * 64
        with mock.patch.dict(workloads.EXPECTED, digests=wrong):
            result = run.execute(plan, 0, trace=False)
        lines, final = emitted(result, False)
        n = 2 * len(plan.timed)  # each job follows one set-up probe
        self.assertEqual((final["attempted"], final["failed"]), (n, 1))
        self.assertFalse(final["correct"])
        ratio = next(line for line in lines if line.startswith("fail_ratio"))
        self.assertEqual(float(ratio.split()[1]), 1 / n)

    def test_times_scaled_by_reference_loop(self):
        # A reference loop twice as slow as REF_S halves every scaled time.
        with mock.patch.object(run, "reference_time",
                               return_value=2 * run.REF_S):
            result = run.execute(TINY["words-k"], 0, trace=False)
        self.assertEqual(result.passes, 1)
        for name in ("wall_s", "cpu_s", "setup_s"):
            self.assertAlmostEqual(result.metrics[name],
                                   result.raw[name] / 2, msg=name)

    def test_child_spans_within_parent(self):
        jobs = tuple(job for plan in TINY.values()
                     for job in plan.seeded + plan.timed)
        result = run.execute(Plan(jobs), 0, trace=True)
        self.assertEqual(result.failed, [])
        spans = list(result.tracer.spans())
        roots = [s for s in spans if s[3] == -1]
        self.assertEqual(sorted(s[4] for s in roots), list(range(len(jobs))))
        for name, t0, t1, parent, job in spans:
            self.assertLessEqual(t0, t1)
            if parent >= 0:
                _pname, p0, p1, _pp, pjob = spans[parent]
                self.assertLessEqual(p0, t0, name)
                self.assertLessEqual(t1, p1, name)
                self.assertEqual(job, pjob)
        self.assertEqual(result.tracer.nesting_violations(), 0)

    def test_seed_fixes_job_list(self):
        for workload in WORKLOADS:
            plans = [plan_for(workload, seed) for seed in range(6)]
            self.assertEqual(plans[0], plan_for(workload, 0))
            self.assertGreater(len(set(plans)), 1, workload)
        drawn = {plan_for("verify-oracle", seed).seeded for seed in range(6)}
        self.assertGreater(len(drawn), 1)

    def test_refuses_checkout_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "words-k", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
