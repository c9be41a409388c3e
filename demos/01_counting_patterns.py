#!/usr/bin/env python3
"""A first tour: compositions, the six statistics, and exact tables.

A composition of n is an ordered tuple of positive integers summing to n.
Sliding a window of width three across it and comparing neighbours gives
the six tracked statistics.  This script counts them one composition at
a time, then as an exact table from the transfer-matrix oracle, and then
reproduces the same numbers from the closed-form series.
"""

from comppat import (PartSet, PatternId, brute_force_table, build_gf,
                     count_occurrences, enumerate_compositions)

# The running example: one composition, all six statistics.
composition = (1, 4, 1, 3, 3, 6, 4)
print(f"composition {composition}:")
for p in PatternId:
    print(f"  {p.value:>6}: {count_occurrences(composition, p)} occurrences")

# All compositions of 4 (there are 2^(4-1) = 8), with their peak counts.
print("\ncompositions of 4 and their peaks:")
for comp in enumerate_compositions(4, PartSet.naturals()):
    print(f"  {comp}: {count_occurrences(comp, PatternId.PEAK)}")

# The same information, packed into an exact table: counts[(n, m, r)] is
# the number of compositions of n with m parts and r peak occurrences.  The
# oracle tracks only each prefix's sum, last part and last step, instead of
# listing every composition.
table = brute_force_table(PatternId.PEAK, PartSet.naturals(), 8)
print("\npeak table rows with r >= 1, n <= 8:")
for (n, m, r), count in sorted(table.counts.items()):
    if r >= 1:
        print(f"  n={n} m={m} r={r}: {count}")

# The closed-form generating function reproduces the table exactly.
series = build_gf(PatternId.PEAK, PartSet.naturals(), 8)
assert series.coeffs == table.counts
print("\nclosed-form series == oracle table: OK")

# Restricting the parts works the same way; {1,2} gives Fibonacci-many
# compositions of n.
fib_set = PartSet.of(1, 2)
totals = [len(list(enumerate_compositions(n, fib_set))) for n in range(10)]
print(f"\ncompositions over {{1,2}} for n=0..9: {totals}")
