#!/usr/bin/env python3
"""Layered CLI benchmark for comppat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs the workload's
jobs one at a time, in a closed loop, as ``python -m comppat ...``
subprocesses, repeating passes until ``--seconds`` is spent.  It checks
every output and prints one line per metric, then a JSON result line.

--trace 0   end-to-end metrics: the jobs' wall time and child CPU per
            pass, the largest child max RSS (CPU and RSS from each child's
            own rusage) and the wall time of the bare ``--help`` launch
            made before each job (set-up); times are scaled to a fixed
            machine speed by a reference loop (see measure_end_to_end).
--trace 1   per-layer metrics: a subprocess pass, an untraced in-process
            pass and a traced in-process pass of the same jobs
            (see tracing.py), repeated while time remains; medians.

The seed, resolved job list, git SHA and metrics of each run are written
to ``.perfbench/<workload>-seed<N>-trace<T>.json``, and the spans of the
last traced pass to ``.perfbench/<workload>-spans.csv``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import (CURVE, PROBE, WORKLOADS, Job, Plan, check_output,
                       plan_for)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HARD_LIMIT_S = 150.0  # no job runs past this point of a run
JOB_TIMEOUT_S = 60.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
SUBCOMMANDS = ("expand", "avoiders", "asymptotics", "verify", "words")
PER_LAYER = (
    ("series.reciprocal.calls", "count"), ("series.reciprocal.s", "s"),
    ("series.reciprocal.terms_out", "count"),
    ("series.reciprocal.coeff_bits_max", "bits"),
    ("series.mul.calls", "count"), ("series.mul.s", "s"),
    ("genfun.build_gf.calls", "count"), ("genfun.build_gf.s", "s"),
    ("genfun.build_gf.self_s", "s"), ("genfun.avoidance_sequence.s", "s"),
    ("words.word_gf.s", "s"),
    *((f"cli.{c}.s", "s") for c in SUBCOMMANDS),
    ("cli.self_s", "s"), ("cli.stdout_mb", "MB"), ("cli.launch_s", "s"),
    ("asymptotics.eval_f.calls", "count"), ("asymptotics.eval_f.s", "s"),
    ("asymptotics.find_rho.s", "s"), ("asymptotics.winding_number.s", "s"),
    ("asymptotics.emit_curve.s", "s"), ("asymptotics.estimate.s", "s"),
    ("asymptotics.circle_passes", "count"),
    ("patterns.brute_force.s", "s"),
    ("patterns.brute_force.objects", "count"),
    ("patterns.cells_checked", "count"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Outcome:
    """One launch or in-process call of a job."""
    job: Job
    wall: float
    stdout_bytes: int
    cpu: float = 0.0
    maxrss_mb: float = 0.0
    error: str | None = None


@dataclass
class Result:
    metrics: dict[str, float]
    samples: dict[str, list] = field(default_factory=dict)
    job_walls: list[list[float]] = field(default_factory=list)
    refs: list[list[float]] = field(default_factory=list)
    raw: dict[str, float] = field(default_factory=dict)
    outcomes: list[Outcome] = field(default_factory=list)
    passes: int = 0
    tracer: tracing.Tracer | None = None

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is not None]


class Runner:
    """Launches jobs in one run: shared deadline, environment, temp dir."""

    def __init__(self, tmp: Path, started: float):
        self.tmp = tmp
        self.hard_deadline = started + HARD_LIMIT_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([path] if path else [])))

    def argv(self, job: Job, slot: int) -> tuple[list[str], Path | None]:
        curve = self.tmp / f"curve-{slot}.csv" if CURVE in job.argv else None
        return [str(curve) if a == CURVE else a for a in job.argv], curve

    def launch(self, job: Job, slot: int = 0) -> Outcome:
        """Run one job as a subprocess; CPU and RSS from its own rusage."""
        args, curve = self.argv(job, slot)
        timeout = min(JOB_TIMEOUT_S, self.hard_deadline - time.perf_counter())
        if timeout <= 0:
            return Outcome(job, 0.0, 0, error="run time limit reached")
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "comppat", *args],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        out, err = [], []
        readers = [threading.Thread(target=lambda s, b: b.append(s.read()),
                                    args=pipe)
                   for pipe in ((proc.stdout, out), (proc.stderr, err))]
        for t in readers:
            t.start()
        try:
            # A pidfd turns readable when the child exits, and the child
            # stays unreaped until wait4 takes its rusage.
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], timeout)[0]
            finally:
                os.close(pidfd)
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
        outcome = Outcome(job, wall, len(out[0]),
                          cpu=usage.ru_utime + usage.ru_stime,
                          maxrss_mb=usage.ru_maxrss * 1024 / 1e6)
        if timed_out:
            outcome.error = f"timed out after {timeout:.0f} s"
        else:
            outcome.error = check_output(job, proc.returncode, out[0], curve)
        if outcome.error and err[0]:
            outcome.error += ": " + err[0].decode(errors="replace")[-200:]
        return outcome

    def call(self, job: Job, slot: int,
             tracer: tracing.Tracer | None = None) -> Outcome:
        """Run one job in this process through comppat.cli.main."""
        if time.perf_counter() >= self.hard_deadline:
            return Outcome(job, 0.0, 0, error="run time limit reached")
        args, curve = self.argv(job, slot)
        wall, code, stdout = tracing.run_main(args, tracer,
                                              span=f"cli.{job.command}")
        return Outcome(job, wall, len(stdout),
                       error=check_output(job, code, stdout, curve))


# Every end-to-end time is scaled to a machine on which reference_time()
# takes REF_S seconds.  REF_S only sets the scale: the loop takes 0.1 to
# 0.2 s on the 2-vCPU machine of README.md.  See measure_end_to_end.
REF_S = 0.15
_REF_MOD = 11 ** 1100
_REF_BIG = 7 ** 500


def reference_time() -> float:
    """Wall time of a fixed slice of pure-Python work like comppat's own:
    tuple-keyed dict updates, big-integer multiply/modulo, complex floats.
    """
    t0 = time.perf_counter()
    terms: dict[tuple[int, int], int] = {}
    for i in range(90_000):
        key = (i % 61, i % 7)
        terms[key] = terms.get(key, 0) * 3 + i
    acc = 1
    for i in range(3_000):
        acc = (acc * _REF_BIG + i) % _REF_MOD
    z = 0j
    for i in range(90_000):
        z = z * 0.5 + complex(i % 13, 1) ** 2
    return time.perf_counter() - t0


def measure_end_to_end(jobs: tuple[Job, ...], seconds: float,
                       runner: Runner, result: Result) -> None:
    """Passes of reference loop, then (set-up probe, job, reference loop)
    for every job.

    The machine's speed drifts by up to 1.5x over minutes, and the CPU
    time of the child drifts with it.  The reference loop, run on the
    same CPU, measures that speed: each job's time is scaled by REF_S
    over the mean of the reference times just before and just after it,
    each probe's by REF_S over the one just before it.  Per job the median
    over passes is taken; `wall_s` and `cpu_s` sum those medians over the
    jobs, `setup_s` is the median of all scaled probes.  The unscaled
    medians go to `result.raw`.
    """
    started = time.perf_counter()
    passes = []
    while True:
        t_pass = time.perf_counter()
        slots = []  # (reference before, probe, job, reference after)
        before = reference_time()
        for i, job in enumerate(jobs):
            probed = runner.launch(PROBE)
            done = runner.launch(job, i)
            after = reference_time()
            slots.append((before, probed, done, after))
            before = after
        now = time.perf_counter()
        passes.append(slots)
        result.passes += 1
        result.outcomes += [o for _b, probed, done, _a in slots
                            for o in (probed, done)]
        result.job_walls.append([done.wall for _b, _p, done, _a in slots])
        result.refs.append([slots[0][0]] + [a for *_, a in slots])
        if now - started + (now - t_pass) > seconds:
            break
    per_job = list(zip(*passes))
    result.samples = {
        "wall_s": [[done.wall * 2 * REF_S / (b + a) for b, _p, done, a in col]
                   for col in per_job],
        "cpu_s": [[done.cpu * 2 * REF_S / (b + a) for b, _p, done, a in col]
                  for col in per_job],
        "peak_rss_mb": [max(done.maxrss_mb for _b, _p, done, _a in slots)
                        for slots in passes],
        "setup_s": [probed.wall * REF_S / b
                    for slots in passes for b, probed, _d, _a in slots],
    }
    result.metrics = {
        "wall_s": sum(map(statistics.median, result.samples["wall_s"])),
        "cpu_s": sum(map(statistics.median, result.samples["cpu_s"])),
        "peak_rss_mb": statistics.median(result.samples["peak_rss_mb"]),
        "setup_s": statistics.median(result.samples["setup_s"]),
    }
    result.raw = {
        "wall_s": statistics.median(sum(done.wall for _b, _p, done, _a
                                        in slots) for slots in passes),
        "cpu_s": statistics.median(sum(done.cpu for _b, _p, done, _a
                                       in slots) for slots in passes),
        "setup_s": statistics.median(probed.wall for slots in passes
                                     for _b, probed, _d, _a in slots),
        "reference_s": statistics.median(t for refs in result.refs
                                         for t in refs),
    }


def _layer_metrics(tracer: tracing.Tracer, jobs: tuple[Job, ...],
                   launched: list[Outcome], untraced: list[Outcome],
                   traced: list[Outcome], untraced_s: float,
                   traced_s: float) -> dict[str, float]:
    calls, total, self_s = tracer.layer_times()
    m: Counter = Counter()  # layers and counters never reached read 0
    for layer in ("series.reciprocal", "series.mul", "genfun.build_gf",
                  "asymptotics.eval_f"):
        m[f"{layer}.calls"] = calls[layer]
    for layer in ("series.reciprocal", "series.mul", "genfun.build_gf",
                  "genfun.avoidance_sequence", "words.word_gf",
                  "asymptotics.eval_f", "asymptotics.find_rho",
                  "asymptotics.winding_number", "asymptotics.emit_curve",
                  "asymptotics.estimate", "patterns.brute_force",
                  *(f"cli.{c}" for c in SUBCOMMANDS)):
        m[f"{layer}.s"] = total[layer]
    m["genfun.build_gf.self_s"] = self_s["genfun.build_gf"]
    m["cli.self_s"] = sum(self_s[f"cli.{c}"] for c in SUBCOMMANDS)
    m["cli.stdout_mb"] = sum(o.stdout_bytes for o in traced) / 1e6
    m["cli.launch_s"] = statistics.median(
        s.wall - u.wall for s, u in zip(launched, untraced))
    asym_jobs = sum(1 for j in jobs if j.command == "asymptotics")
    if asym_jobs:
        m["asymptotics.circle_passes"] = (
            calls["asymptotics.winding_number"]
            + calls["asymptotics.emit_curve"]) / asym_jobs
    m.update(tracer.counters)
    m["trace.overhead_ratio"] = traced_s / untraced_s
    return m


def measure_layers(jobs: tuple[Job, ...], seconds: float,
                   runner: Runner, result: Result) -> None:
    started = time.perf_counter()
    rounds = []
    while True:
        t_round = time.perf_counter()
        launched = [runner.launch(job, i) for i, job in enumerate(jobs)]
        t0 = time.perf_counter()
        untraced = [runner.call(job, i) for i, job in enumerate(jobs)]
        t1 = time.perf_counter()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = []
            for i, job in enumerate(jobs):
                tracer.job_id = i
                traced.append(runner.call(job, i, tracer))
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        result.outcomes += launched + untraced + traced
        result.passes += 1
        result.tracer = tracer
        rounds.append(_layer_metrics(tracer, jobs, launched, untraced,
                                     traced, t1 - t0, t2 - t1))
        if tracer.nesting_violations():
            traced[0].error = "a child span exceeds its parent span"
        if t2 - started + (t2 - t_round) > seconds:
            break
    result.samples = {name: [r[name] for r in rounds]
                      for name, _unit in PER_LAYER}
    result.metrics = {name: statistics.median(values)
                      for name, values in result.samples.items()}


def execute(plan: Plan, seconds: float, trace: bool) -> Result:
    """Measure one resolved workload; every output is checked.

    The seeded jobs run first, once and untimed; then the timed jobs run
    in passes until `seconds` is spent.
    """
    # One CPU for this process and every child, so that the reference
    # loop sees the speed the jobs get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    result = Result({})
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        runner = Runner(Path(tmp), started)
        result.outcomes += [runner.launch(job) for job in plan.seeded]
        measure = measure_layers if trace else measure_end_to_end
        measure(plan.timed, seconds - (time.perf_counter() - started),
                runner, result)
    return result


def emit(result: Result, trace: bool, stream=sys.stdout) -> dict:
    """Print one line per metric, then the JSON result as the last line."""
    units = dict(PER_LAYER if trace else END_TO_END)
    attempted = len(result.outcomes)
    failed = len(result.failed)
    for o in result.failed:
        print(f"FAILED {o.job.key}: {o.error}", file=stream)
    for name, unit in units.items():
        print(f"{name:34} {result.metrics[name]!r} {unit}", file=stream)
    print(f"{'fail_ratio':34} {failed / attempted!r} "
          f"({failed} of {attempted} jobs)", file=stream)
    if result.raw:
        print("unscaled: " + ", ".join(
            f"{name} {value:.4g} s" for name, value in result.raw.items()),
            file=stream)
    if trace and result.tracer is not None:
        _calls, _total, self_s = result.tracer.layer_times()
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:4]
        print("largest self times: " + ", ".join(
            f"{name} {sec:.3f} s" for name, sec in top), file=stream)
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(final), file=stream)
    return final


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over src/comppat/*.py, naming the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "comppat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "comppat" / "cli.py").is_file():
        print(f"perfbench: no comppat sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC / "comppat", quiet=2):
        print("perfbench: comppat does not compile", file=sys.stderr)
        return 2
    plan = plan_for(args.workload, args.seed)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plan.timed)} timed and {len(plan.seeded)} seeded jobs, "
          f"record in {stem.relative_to(ROOT)}.json", flush=True)
    result = execute(plan, args.seconds, bool(args.trace))
    final = emit(result, bool(args.trace), sys.stdout)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "seeded_jobs": [job.key for job in plan.seeded],
        "timed_jobs": [job.key for job in plan.timed],
        "passes": result.passes, "samples": result.samples,
        "job_walls": result.job_walls, "reference_s": result.refs,
        "unscaled": result.raw,
        "failures": [f"{o.job.key}: {o.error}" for o in result.failed],
        "result": final,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write(OUT / f"{args.workload}-spans.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
