"""In-process traced pass: spans around comppat's public callables.

Each job runs as ``comppat.cli.main(argv)`` with stdout captured.  While
a :class:`Tracer` is installed, every callable in ``traced_callables()``
is replaced, where its callers look it up, by a wrapper that records a
span (name, start, end, parent span, job id).  Spans stay in memory, in
flat arrays, until the run ends; the wrappers are removed when the tracer
is uninstalled.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from array import array
from collections import Counter
from pathlib import Path


def _count_reciprocal(counters: Counter, result) -> None:
    coeffs = result.coeffs
    counters["series.reciprocal.terms_out"] += len(coeffs)
    bits = max((abs(c).bit_length() for c in coeffs.values()), default=0)
    counters["series.reciprocal.coeff_bits_max"] = max(
        counters["series.reciprocal.coeff_bits_max"], bits)


def _count_oracle(counters: Counter, table) -> None:
    counters["patterns.brute_force.objects"] += sum(table.counts.values())
    counters["patterns.cells_checked"] += len(table.counts)


def traced_callables():
    """(owner, attribute, span name, counter hook) for every traced call.

    ``cli`` imports the oracles by name, so they are wrapped there; every
    other callable is looked up on its module or class at call time.
    """
    from comppat import asymptotics, cli, genfun, series, words
    ts = series.TruncatedSeries
    return [
        (ts, "__mul__", "series.mul", None),
        (ts, "__rmul__", "series.mul", None),
        (ts, "reciprocal", "series.reciprocal", _count_reciprocal),
        (genfun, "build_gf", "genfun.build_gf", None),
        (genfun, "avoidance_sequence", "genfun.avoidance_sequence", None),
        (words, "word_gf", "words.word_gf", None),
        (cli, "brute_force_table", "patterns.brute_force", _count_oracle),
        (cli, "brute_force_word_table", "patterns.brute_force",
         _count_oracle),
        (asymptotics, "eval_f", "asymptotics.eval_f", None),
        (asymptotics, "find_rho", "asymptotics.find_rho", None),
        (asymptotics, "winding_number", "asymptotics.winding_number", None),
        (asymptotics, "emit_curve", "asymptotics.emit_curve", None),
        (asymptotics, "estimate", "asymptotics.estimate", None),
    ]


class Tracer:
    """Records nested spans; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("i")
        self.counters: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        stack, counters = self._stack, self.counters
        names, starts, ends = self.name, self.start, self.end
        parents, jobs = self.parent, self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(counters, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, hook in traced_callables():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self):
        """(name, start, end, parent index, job id) for every span."""
        for i in range(len(self.start)):
            yield (self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.job[i])

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent span."""
        bad = 0
        for i, p in enumerate(self.parent):
            if p >= 0 and (self.start[i] < self.start[p]
                           or self.end[i] > self.end[p]):
                bad += 1
        return bad

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, total seconds, self seconds (duration
        minus the time covered by direct child spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls, total, self_s = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        return calls, total, self_s

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, t0, t1, parent, job in self.spans():
                fh.write(f"{name},{t0!r},{t1!r},{parent},{job}\n")


def run_main(argv: list[str], tracer: Tracer | None,
             span: str) -> tuple[float, int, bytes]:
    """Run ``comppat.cli.main(argv)`` in this process, stdout captured.

    Returns (wall seconds, exit code, stdout bytes).  With a tracer the
    call is the root span of the job, named `span`.
    """
    from comppat import cli
    main = cli.main if tracer is None else tracer.wrap(span, cli.main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
    return wall, code, out.getvalue().encode()
