"""Compositions, k-ary words, and the transfer-matrix occurrence oracle.

A composition is represented as a plain tuple of positive integers; a word
over the alphabet {1..k} is the same thing with parts bounded by k.  Each
of the six tracked statistics is fixed by the two steps of an adjacent
triple (a, b, c), sign(b - a) and sign(c - b), as :data:`STEPS` records:

=========  =============  =======
statistic  reading        steps
=========  =============  =======
111        level + level  (0, 0)
112        level + rise   (0, +)
221        level + drop   (0, -)
123        rise + rise    (+, +)
peak       rise + drop    (+, -)
valley     drop + rise    (-, +)
=========  =============  =======

An occurrence is an index i with (s_i, s_{i+1}, s_{i+2}) matching the
statistic; overlapping windows all count.  The empty composition (the sole
composition of 0) carries zero occurrences of everything.

The oracle tables come from a transfer-matrix count (Stanley, *EC1*
§4.7): how a prefix extends depends only on its total weight, its last
part and its last step, so the count runs over those states instead of
over every composition.  These tables are the independent check the
closed-form builders in :mod:`comppat.genfun` and :mod:`comppat.words`
are verified against, so nothing in this module may depend on those.
:func:`enumerate_compositions` and :func:`count_occurrences` are the
exhaustive reference the tests check the count against.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum


class PatternId(Enum):
    """One of the six 3-letter statistics."""

    P111 = "111"
    P112 = "112"
    P221 = "221"
    P123 = "123"
    PEAK = "peak"
    VALLEY = "valley"


ALL_PATTERNS = tuple(PatternId)


def check_parts(parts: Iterable[int]) -> tuple[int, ...]:
    """The parts as a tuple, after checking that they are positive
    integers in strictly increasing order.  An empty tuple passes; a bool
    is refused, though it is an int."""
    parts = tuple(parts)
    if any(type(a) is bool or not isinstance(a, int) or a < 1
           for a in parts):
        raise ValueError("parts must be positive integers")
    if any(a >= b for a, b in zip(parts, parts[1:])):
        raise ValueError("parts must be strictly increasing")
    return parts


class PartSet:
    """An ordered set of allowed parts: an explicit finite set or all of N.

    Explicit sets must be nonempty, strictly increasing, positive.  The
    naturals are a flag; they materialize to {1..N} for a computation
    truncated at order N (parts larger than N cannot occur in any
    composition of n <= N).
    """

    __slots__ = ("parts", "is_nat")

    def __init__(self, parts: Iterable[int] = (), is_nat: bool = False):
        parts = check_parts(parts)
        if is_nat and parts:
            raise ValueError("the naturals take no explicit parts")
        if not (is_nat or parts):
            raise ValueError("explicit part set must be nonempty")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "is_nat", is_nat)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not PartSet:
            return NotImplemented
        return (self.parts, self.is_nat) == (other.parts, other.is_nat)

    def __hash__(self):
        return hash((self.parts, self.is_nat))

    def __repr__(self) -> str:
        return f"PartSet(parts={self.parts!r}, is_nat={self.is_nat!r})"

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


# (sign(b - a), sign(c - b)) of the windows (a, b, c) each statistic counts
STEPS = {
    PatternId.P111: (0, 0),
    PatternId.P112: (0, 1),
    PatternId.P221: (0, -1),
    PatternId.P123: (1, 1),
    PatternId.PEAK: (1, -1),
    PatternId.VALLEY: (-1, 1),
}


class OccurrenceTable:
    """Oracle counts: (n, m, r) -> compositions of n with m parts and r
    occurrences, or (m, r) -> words of length m with r occurrences.  Zero
    cells are not stored."""

    def __init__(self, counts: dict):
        self.counts = counts


def count_occurrences(parts: Sequence[int], p: PatternId) -> int:
    """Number of adjacent triples of `parts` matching statistic `p`."""
    steps = [(b > a) - (b < a) for a, b in zip(parts, parts[1:])]
    return sum(pair == STEPS[p] for pair in zip(steps, steps[1:]))


def enumerate_compositions(n: int, A: PartSet) -> Iterator[tuple[int, ...]]:
    """All compositions of n with parts in A, in lexicographic order.

    n = 0 yields exactly the empty composition.
    """
    if n == 0:
        yield ()
    for a in A.materialize(n):
        for rest in enumerate_compositions(n - a, A):
            yield (a,) + rest


def _transfer_counts(p: PatternId, letters: Sequence[int],
                     weights: Sequence[int], max_weight: int) -> Counter:
    """(w, m, r) -> sequences over the increasing `letters`, of
    non-decreasing `weights`, with weight w <= max_weight, m letters and r
    occurrences of p.

    Appending c after b is a step of sign(c - b); it completes an
    occurrence when the previous step was STEPS[p][0] (a hit) and this one
    is STEPS[p][1].  So a state is (weight, last letter), holding a Counter
    of (hit, m, r).  All letters below c rise into c and all above it drop
    into c, so each weight is pushed on as running sums over the letters.
    """
    first, second = STEPS[p]
    counts = Counter({(0, 0, 0): 1} if max_weight >= 0 else {})
    rows = [[Counter() for _ in letters] for _ in range(max_weight + 1)]
    for i, weight in enumerate(weights):
        if weight <= max_weight:
            rows[weight][i][False, 1, 0] = 1

    def push(source: Counter, step: int, target: Counter) -> None:
        hit, inc = step == first, step == second
        get = target.get  # cheaper than Counter's += for a new key
        for (was_hit, m, r), count in source.items():
            key = hit, m + 1, r + (was_hit and inc)
            target[key] = get(key, 0) + count

    for w, row in enumerate(rows):
        # the weights do not decrease, so the letters that fit are a prefix
        targets = [rows[w + weight][i] for i, weight in enumerate(weights)
                   if w + weight <= max_weight]
        above = Counter()  # the row summed over the letters above i
        for i in reversed(range(len(letters))):
            if i < len(targets):
                push(above, -1, targets[i])
            above.update(row[i])
        for (_, m, r), count in above.items():  # now the whole row
            counts[w, m, r] += count
        below = Counter()  # the row summed over the letters below i
        for i, target in enumerate(targets):
            push(below, 1, target)
            push(row[i], 0, target)
            below.update(row[i])
        rows[w] = None
    return counts


def brute_force_table(p: PatternId, A: PartSet, max_n: int,
                      ) -> OccurrenceTable:
    """(n, m, r) table of p over A, n <= max_n; perfbench traces the name."""
    parts = A.materialize(max_n)
    return OccurrenceTable(dict(_transfer_counts(p, parts, parts, max_n)))


def brute_force_word_table(p: PatternId, k: int, max_m: int,
                           ) -> OccurrenceTable:
    """(m, r) table of p over {1..k}, m <= max_m; perfbench traces the name."""
    counts = _transfer_counts(p, range(1, k + 1), [1] * k, max_m)
    return OccurrenceTable({(m, r): c for (_, m, r), c in counts.items()})
