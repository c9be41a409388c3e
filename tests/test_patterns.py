"""Composition/word models, the statistics and the transfer oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comppat.genfun import avoidance_sequence
from comppat.patterns import (ALL_PATTERNS, PartSet, PatternId,
                              brute_force_table, brute_force_word_table,
                              count_occurrences, enumerate_compositions)
from enumeration import (BATTERY, compositions_with_parts,
                         enumeration_tables, word_enumeration_tables)

P = PatternId


def test_pattern_parse():
    assert P("peak") is P.PEAK
    with pytest.raises(ValueError):
        P("122")


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
    with pytest.raises(ValueError, match="no explicit parts"):
        PartSet(parts=(1,), is_nat=True)


def test_part_set_stores_its_checked_parts_as_a_tuple():
    # a list would leave the set unhashable, and a generator would be
    # consumed by the check and leave the set empty
    for parts in ([1, 3], (a for a in (1, 3))):
        ps = PartSet(parts=parts)
        assert ps.parts == (1, 3) and ps.materialize(5) == (1, 3)
        assert ps == PartSet.of(1, 3) and hash(ps) == hash(PartSet.of(1, 3))
    gen = PartSet(parts=(a for a in (1, 3)))
    assert avoidance_sequence(P.P111, gen, 5) == \
        avoidance_sequence(P.P111, PartSet.of(1, 3), 5)


def test_part_set_is_an_immutable_value():
    a, b = PartSet.of(1, 3), PartSet(parts=(1, 3))
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != PartSet.of(1, 4) and a != PartSet.naturals()
    assert PartSet.naturals() == PartSet(is_nat=True)
    assert len({a, b, PartSet.naturals(), PartSet.naturals()}) == 2
    assert a != (1, 3)
    assert repr(a) == "PartSet(parts=(1, 3), is_nat=False)"
    assert repr(PartSet.naturals()) == "PartSet(parts=(), is_nat=True)"
    for name, value in (("parts", (2,)), ("is_nat", True), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    assert a.parts == (1, 3) and not a.is_nat


# -- one window ----------------------------------------------------------

def raw_order_type(a, b, c):
    """(a, b, c) with each entry replaced by its rank among the distinct
    values, e.g. (4, 1, 3) -> "312" and (5, 5, 1) -> "221"."""
    rank = {v: str(i + 1) for i, v in enumerate(sorted({a, b, c}))}
    return rank[a] + rank[b] + rank[c]


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
    assert raw_order_type(*triple) == raw
    for p in ALL_PATTERNS:
        assert count_occurrences(triple, p) == (p in stats), p


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


def _raw_counts(comp):
    counts = {}
    for i in range(len(comp) - 2):
        raw = raw_order_type(*comp[i:i + 3])
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


# -- transfer-matrix composition tables ------------------------------------

@pytest.mark.parametrize("part_set", BATTERY, ids=str)
def test_transfer_table_equals_enumeration(part_set):
    want = enumeration_tables(part_set, 14)
    for p in ALL_PATTERNS:
        assert brute_force_table(p, part_set, 14).counts == want[p], p


def test_tables_at_empty_bounds():
    assert brute_force_table(P.P111, PartSet.naturals(), 0).counts == {
        (0, 0, 0): 1}
    assert brute_force_table(P.P111, PartSet.of(2), 1).counts == {
        (0, 0, 0): 1}
    assert brute_force_table(P.PEAK, PartSet.naturals(), -1).counts == {}
    assert brute_force_word_table(P.PEAK, 3, -1).counts == {}


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
    for p in ALL_PATTERNS:
        tab = brute_force_table(p, PartSet.naturals(), 9)
        for n in range(1, 10):
            total = sum(v for (nn, m, r), v in tab.counts.items() if nn == n)
            assert total == 2 ** (n - 1), (p, n)
        assert tab.counts.get((0, 0, 0)) == 1


def test_table_r_bound():
    for p in ALL_PATTERNS:
        tab = brute_force_table(p, PartSet.naturals(), 9)
        assert all(r <= max(0, m - 2) for (n, m, r) in tab.counts)


# -- transfer-matrix word tables --------------------------------------------

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
    # the transfer count carries only the last letter and step of each
    # prefix; the reference recounts every word from scratch
    for k, max_m in ((1, 12), (2, 10), (3, 8), (4, 7)):
        want = word_enumeration_tables(k, max_m)
        for p in ALL_PATTERNS:
            got = brute_force_word_table(p, k, max_m).counts
            assert got == want[p], (p, k)


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
