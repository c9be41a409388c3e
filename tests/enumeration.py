"""Exhaustive references: every composition or word, counted one by one.

The transfer-matrix oracle in :mod:`comppat.patterns` is checked against
these tables at small sizes, and the valley <-> peak transfer tests count
compositions with a fixed number of parts directly.
"""

import itertools

from comppat.patterns import (ALL_PATTERNS, PartSet, count_occurrences,
                              enumerate_compositions)

NAT = PartSet.naturals()
# the part sets the acceptance suite and the oracle checks run over
BATTERY = (PartSet.of(1, 2), PartSet.of(1, 3), PartSet.of(1, 3, 4),
           PartSet.of(2, 3, 5), NAT)


def _tally(sequences, key):
    tables = {p: {} for p in ALL_PATTERNS}
    for s in sequences:
        for p in ALL_PATTERNS:
            cell = key(s) + (count_occurrences(s, p),)
            tables[p][cell] = tables[p].get(cell, 0) + 1
    return tables


def enumeration_tables(A: PartSet, max_n: int) -> dict:
    """Pattern -> (n, m, r) table over every composition of n <= max_n."""
    comps = itertools.chain.from_iterable(
        enumerate_compositions(n, A) for n in range(max_n + 1))
    return _tally(comps, lambda c: (sum(c), len(c)))


def word_enumeration_tables(k: int, max_m: int) -> dict:
    """Pattern -> (m, r) table over every word in {1..k}^m, m <= max_m."""
    letters = range(1, k + 1)
    all_words = itertools.chain.from_iterable(
        itertools.product(letters, repeat=m) for m in range(max_m + 1))
    return _tally(all_words, lambda w: (len(w),))


def compositions_with_parts(n, m, A: PartSet):
    """Compositions of n with exactly m parts in A, lexicographic.

    Prunes on the reachable sum range, so it stays cheap even when n is
    far larger than what unrestricted enumeration could visit.
    """
    parts = A.materialize(n)
    if not parts and (n > 0 or m > 0):
        return
    lo = parts[0] if parts else 0
    hi = parts[-1] if parts else 0

    def rec(remaining, slots, acc):
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
