#!/usr/bin/env python3
"""Words over a finite alphabet as a special case of compositions.

Giving every letter of {1..k} the same weight x z turns the composition
series into the occurrence series for words in {1..k}^m: x and z both
mark the length, so a word of length m sits at x^m z^m.  word_gf
evaluates the composition formulas at closed-form selection counts over
{1..k}, so its cost is flat in k; comppat.identities keeps the
part-by-part builder route as a cross-check.

Symmetries that are unavailable for compositions appear here: the
complement map w_i -> k+1-w_i swaps 112 with 221 and peak with valley, so
those pairs have identical word statistics.
"""

from comppat import PatternId, brute_force_word_table, word_gf, word_table
from comppat.identities import u_poly, word_gf_builders

# Ternary words and their peak counts, exactly.
k = 3
series = word_gf(PatternId.PEAK, k, 8)
table = word_table(series)
print(f"words over [{k}] with r peaks (rows m <= 6):")
for (m, r), count in sorted(table.items()):
    if m <= 6:
        print(f"  m={m} r={r}: {count}")

# The transfer-matrix oracle agrees cell by cell.
oracle = brute_force_word_table(PatternId.PEAK, k, 8)
assert table == oracle.counts
print("series == transfer-matrix oracle: OK")

# Symmetry classes: 112/221 and peak/valley coincide for words, so word_gf
# uses one closed form per pair.  The composition builders run letter by
# letter (the cross-check route) treat each pattern separately and
# confirm the coincidence...
for a, b in ((PatternId.P112, PatternId.P221),
             (PatternId.PEAK, PatternId.VALLEY)):
    built_a, built_b = (word_gf_builders(p, 4, 10) for p in (a, b))
    assert built_a == built_b == word_gf(a, 4, 10)
print("word series: 112 == 221 and peak == valley: OK")

# ...but not for compositions, where no complement map exists.
from comppat import PartSet, avoidance_sequence
nat = PartSet.naturals()
print("composition avoiders differ:",
      avoidance_sequence(PatternId.P112, nat, 10), "(112) vs",
      avoidance_sequence(PatternId.P221, nat, 10), "(221)")

# The helper polynomial family behind one of the 123 closed forms has a
# strikingly periodic value pattern at y = 0.
print("\nU_n(0) for n = 0..17:", [u_poly(n)[0] for n in range(18)])
