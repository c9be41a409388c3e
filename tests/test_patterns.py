"""Composition/word models and the exhaustive counting oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comppat.patterns import (ALL_PATTERNS, OccurrenceTable, PartSet,
                              PatternId, brute_force_table,
                              brute_force_tables, brute_force_word_table,
                              brute_force_word_tables, classify_triple,
                              compositions_with_parts, count_all_statistics,
                              count_occurrences, enumerate_compositions,
                              enumerate_words)

P = PatternId


def test_pattern_parse():
    assert P.parse("peak") is P.PEAK
    with pytest.raises(ValueError):
        P.parse("122")


def test_part_set_validation():
    assert PartSet.of(1, 3, 4).parts == (1, 3, 4)
    assert str(PartSet.naturals()) == "nat"
    assert PartSet.naturals().materialize(4) == (1, 2, 3, 4)
    assert PartSet.of(2, 9).materialize(5) == (2,)
    with pytest.raises(ValueError):
        PartSet.of(1, 1)
    with pytest.raises(ValueError):
        PartSet.of(3, 2)
    with pytest.raises(ValueError):
        PartSet.of(0, 1)
    with pytest.raises(ValueError):
        PartSet.of()
    with pytest.raises(ValueError, match="positive integers"):
        PartSet.of(1.5, 2)


# -- classify_triple -------------------------------------------------------

@pytest.mark.parametrize("triple,raw,stats", [
    ((1, 4, 1), "121", {P.PEAK}),
    ((4, 1, 3), "312", {P.VALLEY}),
    ((3, 3, 6), "112", {P.P112}),
    ((2, 2, 2), "111", {P.P111}),
    ((5, 5, 1), "221", {P.P221}),
    ((1, 2, 4), "123", {P.P123}),
    ((1, 3, 2), "132", {P.PEAK}),
    ((2, 3, 1), "231", {P.PEAK}),
    ((3, 1, 3), "212", {P.VALLEY}),
    ((2, 1, 3), "213", {P.VALLEY}),
    ((1, 2, 2), "122", set()),
    ((2, 1, 1), "211", set()),
    ((3, 2, 1), "321", set()),
])
def test_classify_triple(triple, raw, stats):
    got_raw, got_stats = classify_triple(*triple)
    assert got_raw == raw
    assert got_stats == frozenset(stats)


# -- count_occurrences -----------------------------------------------------

def test_count_occurrences_walkthrough():
    comp = (1, 4, 1, 3, 3, 6, 4)
    assert count_occurrences(comp, P.PEAK) == 2      # 141 and 364
    assert count_occurrences(comp, P.VALLEY) == 1    # 413
    assert count_occurrences(comp, P.P112) == 1      # 336
    assert count_occurrences(comp, P.P111) == 0
    assert count_occurrences(comp, P.P123) == 0
    assert count_occurrences(comp, P.P221) == 0


def test_count_occurrences_overlap():
    assert count_occurrences((1, 1, 1, 1), P.P111) == 2
    assert count_occurrences((2,) * 7, P.P111) == 5


def test_count_occurrences_short():
    assert all(count_occurrences((), p) == 0 for p in ALL_PATTERNS)
    assert all(count_occurrences((3, 1), p) == 0 for p in ALL_PATTERNS)


@given(st.lists(st.integers(1, 5), max_size=9))
@settings(max_examples=200, deadline=None)
def test_count_all_matches_single_counts(parts):
    fast = count_all_statistics(tuple(parts))
    for p in ALL_PATTERNS:
        assert fast[p] == count_occurrences(tuple(parts), p)


def _raw_counts(comp):
    counts = {}
    for i in range(len(comp) - 2):
        raw, _ = classify_triple(*comp[i:i + 3])
        counts[raw] = counts.get(raw, 0) + 1
    return counts


@given(st.lists(st.integers(1, 6), min_size=3, max_size=10))
@settings(max_examples=200, deadline=None)
def test_statistic_decompositions_and_reversal(parts):
    comp = tuple(parts)
    rev = comp[::-1]
    raw = _raw_counts(comp)
    assert count_occurrences(comp, P.PEAK) == sum(
        raw.get(t, 0) for t in ("121", "132", "231"))
    assert count_occurrences(comp, P.VALLEY) == sum(
        raw.get(t, 0) for t in ("212", "213", "312"))
    # reversal maps 112 <-> 211 and 122 <-> 221 window by window, and
    # fixes 111, peak and valley
    assert count_occurrences(rev, P.P112) == raw.get("211", 0)
    assert count_occurrences(rev, P.P221) == raw.get("122", 0)
    assert count_occurrences(rev, P.P111) == count_occurrences(comp, P.P111)
    assert count_occurrences(rev, P.PEAK) == count_occurrences(comp, P.PEAK)
    assert count_occurrences(rev, P.VALLEY) == count_occurrences(
        comp, P.VALLEY)


def test_aggregate_symmetry_between_paired_statistics():
    # over all compositions of n, reversal is an involution, so the
    # statistic 221 occurs as often in total as its reverse 122 (and 112
    # as often as 211) even though the per-composition tables differ
    for n in range(3, 9):
        totals = {"112": 0, "211": 0, "122": 0, "221": 0}
        for comp in enumerate_compositions(n, PartSet.naturals()):
            for raw, c in _raw_counts(comp).items():
                if raw in totals:
                    totals[raw] += c
        assert totals["221"] == totals["122"]
        assert totals["112"] == totals["211"]


# -- enumeration -----------------------------------------------------------

def test_enumerate_unrestricted():
    comps = list(enumerate_compositions(4, PartSet.naturals()))
    assert len(comps) == 8
    assert len(set(comps)) == 8
    assert all(sum(c) == 4 for c in comps)


def test_enumerate_fibonacci_set():
    comps = list(enumerate_compositions(5, PartSet.of(1, 2)))
    assert comps == [(1, 1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1),
                     (1, 2, 1, 1), (1, 2, 2), (2, 1, 1, 1), (2, 1, 2),
                     (2, 2, 1)]


def test_enumerate_zero():
    assert list(enumerate_compositions(0, PartSet.naturals())) == [()]


def test_enumerate_lexicographic():
    comps = list(enumerate_compositions(6, PartSet.of(1, 2, 3)))
    assert comps == sorted(comps)


def test_compositions_with_parts():
    got = list(compositions_with_parts(9, 3, PartSet.of(1, 2, 3)))
    assert got == [(3, 3, 3)]
    got = list(compositions_with_parts(5, 3, PartSet.naturals()))
    assert sorted(got) == sorted(
        c for c in enumerate_compositions(5, PartSet.naturals())
        if len(c) == 3)
    assert list(compositions_with_parts(0, 0, PartSet.of(1))) == [()]


# -- brute-force composition tables -----------------------------------------

def test_table_111_avoiders():
    tab = brute_force_table(P.P111, PartSet.naturals(), 10)
    row_sums = [sum(v for (n, m, r), v in tab.counts.items()
                    if n == nn and r == 0) for nn in range(11)]
    assert row_sums == [1, 1, 2, 3, 7, 13, 24, 46, 89, 170, 324]


def test_table_peak_small():
    tab = brute_force_table(P.PEAK, PartSet.naturals(), 4)
    assert tab.counts.get((4, 3, 1)) == 1  # the composition 121
    assert sum(v for (n, m, r), v in tab.counts.items()
               if n == 4 and r == 0) == 7


def test_table_valley_small():
    tab = brute_force_table(P.VALLEY, PartSet.naturals(), 5)
    assert tab.counts.get((5, 3, 1)) == 1  # the composition 212
    assert sum(v for (n, m, r), v in tab.counts.items()
               if n == 5 and r == 0) == 15


def test_table_row_sums_power_of_two():
    tables = brute_force_tables(PartSet.naturals(), 9)
    for p, tab in tables.items():
        for n in range(1, 10):
            total = sum(v for (nn, m, r), v in tab.counts.items() if nn == n)
            assert total == 2 ** (n - 1), (p, n)
        assert tab.counts.get((0, 0, 0)) == 1


def test_table_r_bound():
    tables = brute_force_tables(PartSet.naturals(), 9)
    for tab in tables.values():
        assert all(r <= max(0, m - 2) for (n, m, r) in tab.counts)


# -- word enumeration and tables --------------------------------------------

def test_enumerate_words_counts():
    assert len(list(enumerate_words(2, 3))) == 8
    assert list(enumerate_words(1, 5)) == [(1, 1, 1, 1, 1)]
    assert len(list(enumerate_words(3, 2))) == 9


def test_word_table_111_binary():
    tab = brute_force_word_table(P.P111, 2, 4)
    assert tab.counts.get((3, 1)) == 2  # 111 and 222


def test_word_table_partitions_word_set():
    for k in (1, 2, 3):
        tab = brute_force_word_table(P.PEAK, k, 6)
        for m in range(7):
            assert sum(v for (mm, r), v in tab.counts.items()
                       if mm == m) == k ** m


def test_word_tables_equal_per_word_tally():
    # the depth-first walk carries counts from the last two letters; the
    # reference recounts every word from scratch
    for k in (1, 2, 3):
        want = {p: {} for p in ALL_PATTERNS}
        for m in range(8):
            for w in enumerate_words(k, m):
                for p, r in count_all_statistics(w).items():
                    want[p][(m, r)] = want[p].get((m, r), 0) + 1
        got = brute_force_word_tables(k, 7)
        assert {p: t.counts for p, t in got.items()} == want, k
        assert brute_force_word_tables(k, 7, patterns=(P.PEAK,)) == {
            P.PEAK: got[P.PEAK]}
    assert brute_force_word_tables(2, -1) == {
        p: OccurrenceTable() for p in ALL_PATTERNS}
    with pytest.raises(ValueError):
        brute_force_word_tables(0, 3)


def test_word_tables_112_equals_221():
    # same symmetry class: complementation swaps 112 and 221 and is a
    # bijection of the word set
    for k in (2, 3):
        t112 = brute_force_word_table(P.P112, k, 8).counts
        t221 = brute_force_word_table(P.P221, k, 8).counts
        assert t112 == t221


# -- valley <-> peak transfer ------------------------------------------------

def test_valley_peak_transfer_small():
    # valleys among compositions of n with m parts == peaks among
    # compositions of m(n+1)-n with m parts, all parts <= n (the image of
    # the part-complement map s_i -> (n+1) - s_i)
    for n in range(1, 8):
        for m in range(1, n + 1):
            valleys = sum(
                count_occurrences(c, P.VALLEY)
                for c in compositions_with_parts(n, m, PartSet.naturals()))
            target = m * (n + 1) - n
            peaks = sum(
                count_occurrences(c, P.PEAK)
                for c in compositions_with_parts(
                    target, m, PartSet(parts=tuple(range(1, n + 1)))))
            assert valleys == peaks, (n, m)
