"""Compositions, k-ary words, and exhaustive pattern-occurrence oracles.

A composition is represented as a plain tuple of positive integers; a word
over the alphabet {1..k} is the same thing with parts bounded by k.  The
six tracked statistics are predicates on adjacent part triples:

=============  ==================  ==========================
statistic      reading             raw order types
=============  ==================  ==========================
111            level + level       111
112            level + rise        112
221            level + drop        221
123            rise + rise         123
peak           rise + drop         121, 132, 231
valley         drop + rise         212, 213, 312
=============  ==================  ==========================

An occurrence is an index i with (s_i, s_{i+1}, s_{i+2}) matching the
statistic; overlapping windows all count.  The empty composition (the sole
composition of 0) carries zero occurrences of everything.

Everything here counts by exhaustive enumeration.  These tables are the
independent oracles the closed-form builders in :mod:`comppat.genfun` and
:mod:`comppat.words` are verified against, so nothing in this module may
depend on those.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class PatternId(Enum):
    """One of the six 3-letter statistics."""

    P111 = "111"
    P112 = "112"
    P221 = "221"
    P123 = "123"
    PEAK = "peak"
    VALLEY = "valley"

    @classmethod
    def parse(cls, text: str) -> "PatternId":
        for p in cls:
            if p.value == text:
                return p
        raise ValueError(f"unknown pattern {text!r}; expected one of "
                         f"{[p.value for p in cls]}")


ALL_PATTERNS = tuple(PatternId)


def check_parts(parts: Iterable[int]) -> tuple[int, ...]:
    """The parts as a tuple, after checking that they are positive
    integers in strictly increasing order.  An empty tuple passes."""
    parts = tuple(parts)
    if any(not isinstance(a, int) or a < 1 for a in parts):
        raise ValueError("parts must be positive integers")
    if any(a >= b for a, b in zip(parts, parts[1:])):
        raise ValueError("parts must be strictly increasing")
    return parts


@dataclass(frozen=True)
class PartSet:
    """An ordered set of allowed parts: an explicit finite set or all of N.

    Explicit sets must be nonempty, strictly increasing, positive.  The
    naturals are a flag; they materialize to {1..N} for a computation
    truncated at order N (parts larger than N cannot occur in any
    composition of n <= N).
    """

    parts: tuple[int, ...] = ()
    is_nat: bool = False

    def __post_init__(self):
        if self.is_nat:
            if self.parts:
                raise ValueError("the naturals take no explicit parts")
            return
        if not self.parts:
            raise ValueError("explicit part set must be nonempty")
        check_parts(self.parts)

    @classmethod
    def of(cls, *parts: int) -> "PartSet":
        return cls(parts=tuple(parts))

    @classmethod
    def naturals(cls) -> "PartSet":
        return cls(is_nat=True)

    def materialize(self, order: int) -> tuple[int, ...]:
        """Parts that can appear in a computation truncated at `order`."""
        if self.is_nat:
            return tuple(range(1, order + 1))
        return tuple(a for a in self.parts if a <= order)

    def __str__(self) -> str:
        return "nat" if self.is_nat else ",".join(map(str, self.parts))


@dataclass
class OccurrenceTable:
    """Exact occurrence counts from an oracle.

    For compositions, ``counts`` maps (n, m, r) -> number of compositions
    of n with m parts and exactly r occurrences.  For words it maps
    (m, r) -> number of words of length m with exactly r occurrences.
    Zero cells are not stored.
    """

    counts: dict = field(default_factory=dict)


@lru_cache(maxsize=None)
def classify_triple(a: int, b: int, c: int):
    """Raw order type of (a, b, c) plus the statistics it realizes.

    Returns ``(raw, stats)`` where ``raw`` is one of the thirteen order
    types of three positive integers ("111", "112", "221", "123", "121",
    "132", "231", "212", "213", "312", "122", "211", "321") and ``stats``
    is the (empty or one-element) frozenset of matching statistics.
    """
    if a == b:
        if b == c:
            return "111", frozenset({PatternId.P111})
        if b < c:
            return "112", frozenset({PatternId.P112})
        return "221", frozenset({PatternId.P221})
    if a < b:
        if b < c:
            return "123", frozenset({PatternId.P123})
        if b == c:
            return "122", frozenset()
        raw = "121" if a == c else ("132" if a < c else "231")
        return raw, frozenset({PatternId.PEAK})
    # a > b
    if b < c:
        raw = "212" if a == c else ("213" if c > a else "312")
        return raw, frozenset({PatternId.VALLEY})
    if b == c:
        return "211", frozenset()
    return "321", frozenset()


def _matches(p: PatternId, a: int, b: int, c: int) -> bool:
    if p is PatternId.P111:
        return a == b == c
    if p is PatternId.P112:
        return a == b < c
    if p is PatternId.P221:
        return a == b > c
    if p is PatternId.P123:
        return a < b < c
    if p is PatternId.PEAK:
        return a < b > c
    return a > b < c


def count_occurrences(parts: Sequence[int], p: PatternId) -> int:
    """Number of adjacent triples of `parts` matching statistic `p`."""
    return sum(1 for i in range(len(parts) - 2)
               if _matches(p, parts[i], parts[i + 1], parts[i + 2]))


def count_all_statistics(parts: Sequence[int]) -> dict[PatternId, int]:
    """Occurrence counts of all six statistics in one pass."""
    c111 = c112 = c221 = c123 = cpk = cvl = 0
    for i in range(len(parts) - 2):
        a, b, c = parts[i], parts[i + 1], parts[i + 2]
        if a < b:
            if b < c:
                c123 += 1
            elif b > c:
                cpk += 1
        elif a == b:
            if b == c:
                c111 += 1
            elif b < c:
                c112 += 1
            else:
                c221 += 1
        elif b < c:
            cvl += 1
    return {PatternId.P111: c111, PatternId.P112: c112,
            PatternId.P221: c221, PatternId.P123: c123,
            PatternId.PEAK: cpk, PatternId.VALLEY: cvl}


def enumerate_compositions(n: int, A: PartSet) -> Iterator[tuple[int, ...]]:
    """All compositions of n with parts in A, in lexicographic order.

    n = 0 yields exactly the empty composition.
    """
    parts = A.materialize(n)

    def rec(remaining: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        for a in parts:
            if a > remaining:
                break
            acc.append(a)
            yield from rec(remaining - a, acc)
            acc.pop()

    yield from rec(n, [])


def compositions_with_parts(n: int, m: int, A: PartSet,
                            ) -> Iterator[tuple[int, ...]]:
    """Compositions of n with exactly m parts in A, lexicographic.

    Prunes on the reachable sum range, so it stays cheap even when n is
    far larger than what unrestricted enumeration could visit.
    """
    parts = A.materialize(n)
    if not parts and (n > 0 or m > 0):
        return
    lo = parts[0] if parts else 0
    hi = parts[-1] if parts else 0

    def rec(remaining: int, slots: int, acc: list[int]):
        if slots == 0:
            if remaining == 0:
                yield tuple(acc)
            return
        for a in parts:
            rest = remaining - a
            if rest < (slots - 1) * lo:
                break
            if rest > (slots - 1) * hi:
                continue
            acc.append(a)
            yield from rec(rest, slots - 1, acc)
            acc.pop()

    yield from rec(n, m, [])


def brute_force_tables(A: PartSet, max_n: int,
                       patterns: Iterable[PatternId] = ALL_PATTERNS,
                       ) -> dict[PatternId, OccurrenceTable]:
    """Exhaustive (n, m, r) tables for several statistics in one pass."""
    pats = tuple(patterns)
    tables = {p: OccurrenceTable() for p in pats}
    for n in range(max_n + 1):
        for comp in enumerate_compositions(n, A):
            m = len(comp)
            occ = count_all_statistics(comp)
            for p in pats:
                key = (n, m, occ[p])
                counts = tables[p].counts
                counts[key] = counts.get(key, 0) + 1
    return tables


def brute_force_table(p: PatternId, A: PartSet, max_n: int,
                      ) -> OccurrenceTable:
    """Exhaustive (n, m, r) occurrence table for one statistic."""
    return brute_force_tables(A, max_n, patterns=(p,))[p]


def enumerate_words(k: int, m: int) -> Iterator[tuple[int, ...]]:
    """All k^m words of length m over the alphabet {1..k}."""
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    return itertools.product(range(1, k + 1), repeat=m)


def brute_force_word_tables(k: int, max_m: int,
                            patterns: Iterable[PatternId] = ALL_PATTERNS,
                            ) -> dict[PatternId, OccurrenceTable]:
    """Exhaustive (m, r) word tables for several statistics in one pass.

    Walks every word of length <= max_m depth first.  Appending a letter c
    to a word ending in a, b adds the statistics of the window (a, b, c)
    to the counts carried from the prefix, so each word is one step and
    one tally of (m, counts).  The six counts travel as one int, the
    count of ``ALL_PATTERNS[i]`` in the digit of weight base**i.
    """
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    pats = tuple(patterns)
    tables = {p: OccurrenceTable() for p in pats}
    if max_m < 0:
        return tables
    base = max_m + 1  # every count is at most max_m - 2
    weight = {p: base ** i for i, p in enumerate(ALL_PATTERNS)}

    def increment(a: int, b: int, c: int) -> int:
        if not a:  # fewer than three letters: no window yet
            return 0
        return sum(weight[p] * n
                   for p, n in count_all_statistics((a, b, c)).items())

    # step[a][b]: (c, increment) for each letter c after the letters a, b,
    # where 0 stands for "no letter"
    letters = range(1, k + 1)
    step = [[[(c, increment(a, b, c)) for c in letters]
             for b in range(k + 1)] for a in range(k + 1)]
    tally: Counter = Counter()

    def walk(m: int, a: int, b: int, code: int) -> None:
        tally[m, code] += 1
        if m < max_m:
            for c, inc in step[a][b]:
                walk(m + 1, b, c, code + inc)

    walk(0, 0, 0, 0)
    for (m, code), count in tally.items():
        for p in pats:
            key = (m, code // weight[p] % base)
            counts = tables[p].counts
            counts[key] = counts.get(key, 0) + count
    return tables


def brute_force_word_table(p: PatternId, k: int, max_m: int,
                           ) -> OccurrenceTable:
    """Exhaustive (m, r) occurrence table over the alphabet {1..k}."""
    return brute_force_word_tables(k, max_m, patterns=(p,))[p]
