"""Batch command-line interface.

Subcommands::

    expand       full (n, m, r) coefficient table of a pattern series
    avoiders     the y=0, z=1 avoidance sequence (optionally as a b-file)
    asymptotics  dominant-pole growth estimate and winding certificate
    verify       closed form vs. transfer-matrix oracle, cell by cell
    words        (m, r) table of a pattern series over a k-letter alphabet

JSON reports are deterministic: sorted keys, no timestamps, counts as
decimal strings (values at order 60 overflow 53-bit JSON numbers).  Exit
codes: 0 success, 1 stdout closed early by its reader, 2 usage error
(including a ``--curve-csv`` path that cannot be opened for writing), 3
numeric failure, 4 verification mismatch.  A launch ends in `run` by
``os._exit`` once stdout and stderr are flushed; ``atexit`` handlers do
not run, so cover subprocess runs through `main`, which never exits.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from collections.abc import Iterable

# genfun, words, asymptotics and json are imported by the handlers that
# run them, so a launch loads only what its subcommand needs.
from . import __version__
from .patterns import (PartSet, PatternId, brute_force_table,
                       brute_force_word_table)

MAX_ORDER = 60
# Input bound for `verify --words -k`.  The oracle's cost grows linearly
# in k; at the cap, max-m 60 takes about a second per pattern.
MAX_VERIFY_K = 100
# Input bound for `words -k`.  The closed-form cost grows with k only
# through the coefficient sizes (about m * log2(k) bits for length m); at
# the cap, order 60 takes under a second.
MAX_WORDS_K = 10**6
# Input bound for `asymptotics --samples`: each sample is one evaluation
# of f on the circle.
MAX_SAMPLES = 2**16

PATTERN_CHOICES = [p.value for p in PatternId]


class UsageError(Exception):
    """Bad argument values; reported with the offending flag, exit 2."""


def parse_set_spec(text: str) -> PartSet:
    """Parse 'nat' or a comma-separated strictly increasing part list."""
    if text == "nat":
        return PartSet.naturals()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"--set: {text!r} is not 'nat' or a "
                         "comma-separated integer list") from None
    try:
        return PartSet(parts=parts)
    except ValueError as exc:
        raise UsageError(f"--set: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _envelope(command: list[str], **payload) -> dict:
    report = {"tool": f"comppat {__version__}", "command": command}
    report.update(payload)
    return report


def _emit_json(report: dict, entries: Iterable[str] = ()) -> None:
    import json
    # A table report carries "coefficients": [] and its entries come
    # preformatted, written in batches: under indent, json's encoder is pure
    # Python, about seven times slower on an order-60 expand table.
    text = json.dumps(report, sort_keys=True, indent=2)
    head, table, tail = text.partition('"coefficients": []')
    sys.stdout.write(head)
    if table:
        entries, sep = iter(entries), '"coefficients": ['
        while batch := ",".join(itertools.islice(entries, 1 << 12)):
            sys.stdout.write(sep + batch)
            sep = ","
        sys.stdout.write("\n  ]" if sep == "," else table)
    sys.stdout.write(tail + "\n")


def cmd_expand(args, argv: list[str]) -> int:
    from . import genfun
    part_set = parse_set_spec(args.set)
    _require(0 <= args.order <= MAX_ORDER,
             f"--order: must be between 0 and {MAX_ORDER}")
    series = genfun.build_gf(args.pattern, part_set, args.order)
    rows = sorted(series.coeffs.items())
    if args.format == "csv":
        sys.stdout.write("n,m,r,count\n")
        for (n, m, r), c in rows:
            sys.stdout.write(f"{n},{m},{r},{c}\n")
        return 0
    _emit_json(_envelope(
        argv,
        pattern=args.pattern.value,
        set=str(part_set),
        materialized_parts=list(part_set.materialize(args.order)),
        order=args.order,
        coefficients=[],
    ), (f'\n    {{\n      "count": "{c}",\n      "m": {m},\n      "n": {n},'
         f'\n      "r": {r}\n    }}' for (n, m, r), c in rows))
    return 0


def cmd_avoiders(args, argv: list[str]) -> int:
    from . import genfun
    part_set = parse_set_spec(args.set)
    _require(0 <= args.order <= MAX_ORDER,
             f"--order: must be between 0 and {MAX_ORDER}")
    values = genfun.avoidance_sequence(args.pattern, part_set, args.order)
    if args.bfile:
        for n, value in enumerate(values):
            sys.stdout.write(f"{n} {value}\n")
        return 0
    _emit_json(_envelope(
        argv,
        pattern=args.pattern.value,
        set=str(part_set),
        materialized_parts=list(part_set.materialize(args.order)),
        order=args.order,
        values=[str(v) for v in values],
    ))
    return 0


def cmd_asymptotics(args, argv: list[str]) -> int:
    from . import asymptotics
    _require(0 < args.radius < 0.8, "--radius: must lie in (0, 0.8)")
    _require(1024 <= args.samples <= MAX_SAMPLES,
             f"--samples: must be between 1024 and {MAX_SAMPLES}")
    # Opened before the estimate runs, so a bad path fails at once.
    curve = contextlib.nullcontext()
    if args.curve_csv is not None:
        try:
            curve = open(args.curve_csv, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"--curve-csv: cannot write {args.curve_csv!r}: "
                             f"{exc.strerror}") from None
    with curve as fh:
        try:
            est = asymptotics.estimate(args.pattern, args.radius, args.samples)
        except asymptotics.AsymptoticsError as exc:
            sys.stderr.write(f"comppat: numeric failure: {exc}\n")
            return 3
        if fh is not None:
            # row samples - k is the exact conjugate of row k (emit_curve):
            # its line is row k's reprs with im x and im f negated as text
            half = [(f"{rx!r}", f"{ix!r}", f"{rf!r}", f"{if_!r}")
                    for rx, ix, rf, if_ in est.curve[:args.samples // 2 + 1]]

            def neg(text: str) -> str:
                return text[1:] if text[0] == "-" else "-" + text
            fh.write("re_x,im_x,re_f,im_f\n")
            fh.writelines(f"{rx},{ix},{rf},{if_}\n" for rx, ix, rf, if_ in half)
            fh.writelines(f"{rx},{neg(ix)},{rf},{neg(if_)}\n" for rx, ix, rf, if_
                          in reversed(half[1:(args.samples + 1) // 2]))
    payload = {
        "pattern": args.pattern.value,
        "rho": est.rho,
        "v": est.growth_v,
        "K": est.constant_K,
        "winding": est.winding,
        "tolerances": est.tolerances,
    }
    if est.winding != 1:
        payload["warning"] = (
            f"winding number {est.winding} at radius {args.radius}: the "
            "circle does not enclose exactly one simple zero")
    _emit_json(_envelope(argv, **payload))
    return 0


def cmd_verify(args, argv: list[str]) -> int:
    from . import genfun, words
    if args.words:
        _require(args.k is not None, "-k: required with --words")
        _require(args.max_m is not None, "--max-m: required with --words")
        _require(1 <= args.k <= MAX_VERIFY_K,
                 f"-k: must be between 1 and {MAX_VERIFY_K}")
        _require(0 <= args.max_m <= MAX_ORDER,
                 f"--max-m: must be between 0 and {MAX_ORDER}")
        formula = words.word_table(words.word_gf(args.pattern, args.k,
                                                 args.max_m))
        oracle = brute_force_word_table(args.pattern, args.k,
                                        args.max_m).counts
        scope = {"k": args.k, "max_m": args.max_m}
        fields = ("m", "r")
    else:
        _require(args.set is not None, "--set: required without --words")
        _require(args.max_n is not None, "--max-n: required without --words")
        part_set = parse_set_spec(args.set)
        _require(0 <= args.max_n <= MAX_ORDER,
                 f"--max-n: must be between 0 and {MAX_ORDER}")
        formula = genfun.build_gf(args.pattern, part_set, args.max_n).coeffs
        oracle = brute_force_table(args.pattern, part_set, args.max_n).counts
        scope = {"set": str(part_set), "max_n": args.max_n}
        fields = ("n", "m", "r")

    keys = sorted(set(formula) | set(oracle))
    mismatches = [dict(zip(fields, key), formula=str(formula.get(key, 0)),
                       oracle=str(oracle.get(key, 0)))
                  for key in keys if formula.get(key, 0) != oracle.get(key, 0)]
    _emit_json(_envelope(argv, pattern=args.pattern.value, **scope,
                         checked=len(keys), mismatches=mismatches))
    return 0 if not mismatches else 4


def cmd_words(args, argv: list[str]) -> int:
    from . import words
    _require(1 <= args.k <= MAX_WORDS_K,
             f"-k: alphabet size must be between 1 and {MAX_WORDS_K}")
    _require(0 <= args.order <= MAX_ORDER,
             f"--order: must be between 0 and {MAX_ORDER}")
    table = words.word_table(words.word_gf(args.pattern, args.k, args.order))
    rows = sorted(table.items())
    if args.format == "csv":
        sys.stdout.write("m,r,count\n")
        for (m, r), c in rows:
            sys.stdout.write(f"{m},{r},{c}\n")
        return 0
    _emit_json(_envelope(
        argv,
        pattern=args.pattern.value,
        k=args.k,
        order=args.order,
        coefficients=[],
    ), (f'\n    {{\n      "count": "{c}",\n      "m": {m},\n      "r": {r}'
         f'\n    }}' for (m, r), c in rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comppat",
        description="Exact tables, sequences and growth constants for "
                    "3-letter patterns in compositions and words.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pattern(p):
        p.add_argument("--pattern", required=True, choices=PATTERN_CHOICES)

    p_expand = sub.add_parser("expand", help="full (n, m, r) table")
    add_pattern(p_expand)
    p_expand.add_argument("--set", required=True,
                          help="'nat' or e.g. '1,3,4'")
    p_expand.add_argument("--order", type=int, required=True)
    p_expand.add_argument("--format", choices=["json", "csv"],
                          default="json")
    p_expand.set_defaults(handler=cmd_expand)

    p_avoid = sub.add_parser("avoiders", help="avoidance sequence")
    add_pattern(p_avoid)
    p_avoid.add_argument("--set", required=True)
    p_avoid.add_argument("--order", type=int, required=True)
    p_avoid.add_argument("--bfile", action="store_true",
                         help="emit 'n a(n)' lines instead of JSON")
    p_avoid.set_defaults(handler=cmd_avoiders)

    p_asym = sub.add_parser("asymptotics", help="growth estimate")
    add_pattern(p_asym)
    p_asym.add_argument("--radius", type=float, default=0.7)
    p_asym.add_argument("--samples", type=int, default=4096)
    p_asym.add_argument("--curve-csv", metavar="PATH",
                        help="also write the sampled image curve here")
    p_asym.set_defaults(handler=cmd_asymptotics)

    p_verify = sub.add_parser("verify", help="formula vs. oracle")
    add_pattern(p_verify)
    p_verify.add_argument("--set")
    p_verify.add_argument("--max-n", type=int)
    p_verify.add_argument("--words", action="store_true",
                          help="verify the word series instead")
    p_verify.add_argument("-k", type=int)
    p_verify.add_argument("--max-m", type=int)
    p_verify.set_defaults(handler=cmd_verify)

    p_words = sub.add_parser("words", help="word (m, r) table")
    add_pattern(p_words)
    p_words.add_argument("-k", type=int, required=True)
    p_words.add_argument("--order", type=int, required=True)
    p_words.add_argument("--format", choices=["json", "csv"],
                         default="json")
    p_words.set_defaults(handler=cmd_words)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.pattern = PatternId(args.pattern)  # argparse checked the choice
    try:
        return args.handler(args, argv)
    except UsageError as exc:
        sys.stderr.write(f"comppat: error: {exc}\n")
        return 2


def run() -> None:
    """Run `main` as the process; end it by ``os._exit`` once flushed."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:  # leave the unwritten rest unflushed
        sys.stderr.write("comppat: error: stdout closed by its reader\n")
        code = 1
    sys.stderr.flush()
    os._exit(code)
