"""Batch command-line interface: ``comppat SUBCOMMAND FLAGS``.

One table, `COMMANDS`, defines every subcommand and flag; `parse_args`
reads argv by it and ``--help`` is formatted from it.  Flags come in any
order as ``--flag VALUE``, ``--flag=VALUE`` or ``-k VALUE`` (a switch
alone): a value is the next token whatever it starts with, the last
occurrence of a flag wins, names are never abbreviated, and ``-h`` or
``--help`` anywhere prints help.  A usage error prints one ``comppat:
error: FLAG: REASON`` line.

JSON reports are deterministic: sorted keys, no timestamps, counts as
decimal strings (values at order 60 overflow 53-bit JSON numbers), in the
bytes of ``json.dumps(report, sort_keys=True, indent=2)``.  Exit codes: 0
success, 1 stdout closed early by its reader, 2 usage error (including a
``--curve-csv`` path that cannot be opened for writing), 3 numeric
failure, 4 verification mismatch.  A launch ends in `run` by ``os._exit``
once stdout and stderr are flushed; ``atexit`` handlers do not run, so
cover subprocess runs through `main`, which never exits.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

# A launch loads only what its subcommand runs: genfun, words and
# asymptotics in their handlers, and never argparse or json (~7 ms).
from . import __version__
from .patterns import (PartSet, PatternId, brute_force_table,
                       brute_force_word_table)

MAX_ORDER = 60
# n, m and r of a table entry, all at most the order, as decimal text:
# indexing this is faster than formatting each int in the row f-strings
_DECIMAL = tuple(str(i) for i in range(MAX_ORDER + 1))
# Input bound for `verify --words -k`.  The oracle's cost grows linearly
# in k; at the cap, max-m 60 takes about a second per pattern.
MAX_VERIFY_K = 100
# Input bound for `words -k`.  The closed-form cost grows with k only
# through the coefficient sizes (about m * log2(k) bits for length m); at
# the cap, order 60 takes under a second.
MAX_WORDS_K = 10**6
# Input bound for `asymptotics --samples`: each sample is one row of the
# curve, and f is computed at samples // 2 + 1 of them (by five 512-point
# FFTs per part of f for the default 4,096).
MAX_SAMPLES = 2**16

PATTERN_CHOICES = tuple(p.value for p in PatternId)


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


# json.dumps's escapes of the ASCII characters that need one, and its
# spelling of the values whose repr is not JSON
_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(32), 127)} | {
    8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r", 34: '\\"',
    92: "\\\\"}
_JSON_NAMES = {"None": "null", "True": "true", "False": "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _quote(text: str) -> str:
    text = text.translate(_ESCAPES)
    if not text.isascii():  # one escape per UTF-16 unit, lone surrogates too
        b = text.encode("utf-16-be", "surrogatepass")
        text = "".join(chr(u) if u < 128 else f"\\u{u:04x}" for u in
                       (b[i] << 8 | b[i + 1] for i in range(0, len(b), 2)))
    return f'"{text}"'


def _to_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for the report
    types: dict with str keys, list, str, int, float, bool and None."""
    inner = indent + "  "
    if isinstance(value, dict):
        ends, items = "{}", [f"{_quote(k)}: {_to_json(v, inner)}"
                             for k, v in sorted(value.items())]
    elif isinstance(value, list):
        ends, items = "[]", [_to_json(v, inner) for v in value]
    elif isinstance(value, str):
        return _quote(value)
    elif isinstance(value, (int, float)) or value is None:
        return _JSON_NAMES.get(repr(value), repr(value))
    else:
        raise TypeError(f"{type(value).__name__} is not a report type")
    return ends[0] + inner + f",{inner}".join(items) + indent + ends[1] \
        if items else ends


def _write_joined(items: Iterable[str], sep: str = "") -> bool:
    """Write `items` joined by `sep` to stdout, 4,096 to a write, so an
    unbuffered stdout is not one system call per row; True if any."""
    items, lead = iter(items), ""
    while batch := sep.join(itertools.islice(items, 1 << 12)):
        sys.stdout.write(lead + batch)
        lead = sep
    return bool(lead)


def _emit_json(report: dict, entries: Iterable[str] = ()) -> None:
    # A table's "coefficients": [] is filled with preformatted entries,
    # seven times faster than encoding an order-60 table's row dicts.
    head, table, tail = _to_json(report).partition('"coefficients": []')
    sys.stdout.write(head)
    if table:
        sys.stdout.write('"coefficients": [')
        sys.stdout.write("\n  ]" if _write_joined(entries, ",") else "]")
    sys.stdout.write(tail + "\n")


def _table_entries(rows: dict, width: int, row_text,
                   r_text: list[tuple[str, str]]) -> Iterator[str]:
    """One entry left + lead + count + right + tail per nonzero count of
    packed rows (``series.Rows``), in ascending (n, m, r) order, with
    (left, right) = row_text(n, m) made once per row and (lead, tail) =
    r_text[r]; the rows are only read.  Fields are read as non-negative
    digits, which are the counts below 2**(width-1): a field at or above
    that, or a negative row (before any of its entries), raises
    build_gf's negative-count error, and a row's lowest negative count
    always reads as such a field."""
    from .genfun import NEGATIVE_COUNT
    mask, half = (1 << width) - 1, 1 << (width - 1)
    for n, (lo, row) in sorted(rows.items()):
        for m, p in enumerate(row, lo):
            if p < 0:
                raise RuntimeError(NEGATIVE_COUNT)
            left, right = row_text(n, m)
            r = 0
            while p:
                if c := p & mask:
                    if c >= half:
                        raise RuntimeError(NEGATIVE_COUNT)
                    lead, tail = r_text[r]
                    yield f"{left}{lead}{c}{right}{tail}"
                p >>= width
                r += 1


def cmd_expand(args, argv: list[str]) -> int:
    # written straight from the quotient's packed rows, so no (n, m, r)
    # dict is built or rescanned
    from . import genfun
    part_set = parse_set_spec(args.set)
    rows, width = genfun.build_rows(args.pattern, part_set, args.order)
    d = _DECIMAL
    if args.format == "csv":
        sys.stdout.write("n,m,r,count\n")
        _write_joined(_table_entries(
            rows, width, lambda n, m: (f"{d[n]},{d[m]},", ""),
            [(f"{r},", "\n") for r in d]))
        return 0
    _emit_json(_envelope(
        argv, pattern=args.pattern.value, set=str(part_set),
        materialized_parts=list(part_set.materialize(args.order)),
        order=args.order, coefficients=[],
    ), _table_entries(
        rows, width, lambda n, m: (
            '\n    {\n      "count": "',
            f'",\n      "m": {d[m]},\n      "n": {d[n]},\n      "r": '),
        [("", f"{r}\n    }}") for r in d]))
    return 0


def cmd_avoiders(args, argv: list[str]) -> int:
    from . import genfun
    part_set = parse_set_spec(args.set)
    values = genfun.avoidance_sequence(args.pattern, part_set, args.order)
    if args.bfile:
        _write_joined(f"{n} {value}\n" for n, value in enumerate(values))
        return 0
    _emit_json(_envelope(
        argv, pattern=args.pattern.value, set=str(part_set),
        materialized_parts=list(part_set.materialize(args.order)),
        order=args.order, values=[str(v) for v in values]))
    return 0


def cmd_asymptotics(args, argv: list[str]) -> int:
    from . import asymptotics
    _require(0 < args.radius <= asymptotics._MAX_ABS,
             "--radius: must lie in (0, 0.79]")
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
    if args.words:
        from . import words
        _require(args.k is not None, "-k: required with --words")
        _require(args.max_m is not None, "--max-m: required with --words")
        _require(args.set is None, "--set: not allowed with --words")
        _require(args.max_n is None, "--max-n: not allowed with --words")
        formula = words.word_table(words.word_gf(args.pattern, args.k,
                                                 args.max_m))
        oracle = brute_force_word_table(args.pattern, args.k,
                                        args.max_m).counts
        scope = {"k": args.k, "max_m": args.max_m}
        fields = ("m", "r")
    else:
        from . import genfun
        _require(args.set is not None, "--set: required without --words")
        _require(args.max_n is not None, "--max-n: required without --words")
        _require(args.k is None, "-k: only allowed with --words")
        _require(args.max_m is None, "--max-m: only allowed with --words")
        part_set = parse_set_spec(args.set)
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
    table = words.word_table(words.word_gf(args.pattern, args.k, args.order))
    rows = table.items()  # a quotient's keys are in order
    d = _DECIMAL
    if args.format == "csv":
        sys.stdout.write("m,r,count\n")
        _write_joined(f"{d[m]},{d[r]},{c}\n" for (m, r), c in rows)
        return 0
    _emit_json(_envelope(
        argv, pattern=args.pattern.value, k=args.k, order=args.order,
        coefficients=[],
    ), (f'\n    {{\n      "count": "{c}",\n      "m": {d[m]},\n      "r": '
         f'{d[r]}\n    }}' for (m, r), c in rows))
    return 0


_REQUIRED = ...  # the default of a flag that must be given
_ORDERS = range(MAX_ORDER + 1)

# Per subcommand: handler, help line and flags.  A flag is (name, convert,
# default, choices, help): convert is int, float, str or bool for a switch
# that takes no value; choices (a tuple or a range) or None.
_PATTERN = ("--pattern", str, _REQUIRED, PATTERN_CHOICES, "pattern")
_SET = ("--set", str, _REQUIRED, None, "part set: 'nat' or e.g. '1,3,4'")
_ORDER = ("--order", int, _REQUIRED, _ORDERS, "truncation order")
_FORMAT = ("--format", str, "json", ("json", "csv"), "output format")
COMMANDS = {
    "expand": (cmd_expand, "full (n, m, r) coefficient table",
               [_PATTERN, _SET, _ORDER, _FORMAT]),
    "avoiders": (cmd_avoiders, "the y=0, z=1 avoidance sequence", [
        _PATTERN, _SET, _ORDER,
        ("--bfile", bool, False, None, "'n a(n)' lines instead of JSON")]),
    "asymptotics": (cmd_asymptotics, "growth estimate and winding", [
        _PATTERN,
        ("--radius", float, 0.7, None, "circle radius, in (0, 0.79]"),
        ("--samples", int, 4096, range(1024, MAX_SAMPLES + 1),
         "points on the circle"),
        ("--curve-csv", str, None, None, "also write the image curve here")]),
    "verify": (cmd_verify, "closed form vs. transfer-matrix oracle", [
        _PATTERN, ("--set", str, None, None, "part set, without --words"),
        ("--max-n", int, None, _ORDERS, "largest n, without --words"),
        ("--words", bool, False, None, "verify the word series instead"),
        ("-k", int, None, range(1, MAX_VERIFY_K + 1), "alphabet size"),
        ("--max-m", int, None, _ORDERS, "largest word length")]),
    "words": (cmd_words, "(m, r) table over a k-letter alphabet", [
        _PATTERN, ("-k", int, _REQUIRED, range(1, MAX_WORDS_K + 1),
                   "alphabet size"), _ORDER, _FORMAT]),
}


def _among(choices) -> str:
    if isinstance(choices, range):
        return f"between {choices[0]} and {choices[-1]}"
    return "one of " + ", ".join(choices)


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The handler and flag values of `argv`, read by `COMMANDS`; None
    once the help that `argv` asks for is printed."""
    command = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help(command if command in COMMANDS else None))
        return None
    _require(command in COMMANDS, f"command: must be {_among(COMMANDS)}"
             + ("" if command is None else f", not {command!r}"))
    handler, _, flags = COMMANDS[command]
    table = {flag[0]: flag for flag in flags}
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        _require(name in table, f"{command}: unknown argument {token!r}")
        _, convert, _, choices, _ = table[name]
        if convert is bool:
            _require(not eq, f"{name}: takes no value")
            given[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            _require(value is not None, f"{name}: expected a value")
        try:
            given[name] = value = convert(value)
        except ValueError:
            raise UsageError(f"{name}: invalid {convert.__name__} value "
                             f"{value!r}") from None
        if choices is not None and value not in choices:
            raise UsageError(f"{name}: must be {_among(choices)}")
    args = SimpleNamespace(command=command, handler=handler)
    for name, _, default, _, _ in flags:
        value = given.get(name, default)
        _require(value is not _REQUIRED, f"{name}: required")
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def _help(command: str | None) -> str:
    """The help of `command`, or of comppat itself for None."""
    if command is None:
        usage = "{" + ",".join(COMMANDS) + "} FLAGS"
        about = ("Exact tables, sequences and growth constants for 3-letter "
                 "patterns\nin compositions and words.")
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        (_, about, flags), usage, rows = COMMANDS[command], command, []
        for name, convert, default, choices, text in flags:
            form = name if convert is bool else (
                f"{name} {convert.__name__.upper()}")
            usage += f" {form}" if default is _REQUIRED else f" [{form}]"
            notes = [_among(choices)] if choices else []
            notes += ["required"] if default is _REQUIRED else (
                [f"default {default}"] if default else [])
            rows.append((form, text + f" ({'; '.join(notes)})" * bool(notes)))
    return f"usage: comppat {usage}\n\n{about}\n\n" + "".join(
        f"  {left:<18}{right}\n" for left, right in rows)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        if args is None:
            return 0
        args.pattern = PatternId(args.pattern)  # parse_args checked it
        return args.handler(args, argv)
    except UsageError as exc:
        sys.stderr.write(f"comppat: error: {exc}\n")
        return 2


def run() -> None:
    """Run `main` as the process; end it by ``os._exit`` once flushed."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # leave the unwritten rest unflushed
        sys.stderr.write("comppat: error: stdout closed by its reader\n")
        code = 1
    sys.stderr.flush()
    os._exit(code)
