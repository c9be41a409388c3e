"""Exact enumeration of 3-letter patterns in compositions and k-ary words.

The package computes, exactly, how many integer compositions of n with m
parts from a given part set contain each of the six adjacent 3-letter
statistics (111, 112, 221, 123, peak, valley) a prescribed number of
times; specializes the same series to words over a finite alphabet; and
reproduces the dominant-pole growth constants of the avoidance sequences
numerically.

The paper's alternative forms live in :mod:`comppat.identities`, which is
not imported here: they are cross-checks, not part of the production path.
"""

from .patterns import (ALL_PATTERNS, OccurrenceTable, PartSet, PatternId,
                       brute_force_table, brute_force_word_table,
                       count_occurrences, enumerate_compositions)
from .series import (GradingMismatchError, NonInvertibleError,
                     NormalizationError, OrderRangeError, SeriesError,
                     TruncatedSeries, make_monomial, one, zero)
from .genfun import avoidance_sequence, build_gf
from .words import (w111_closed, w112_closed, w123_closed, w_peak_closed,
                    word_gf, word_table)
from .asymptotics import (AsymptoticEstimate, emit_curve, estimate, eval_f,
                          find_rho, predict_count, winding_number)

__version__ = "0.1.0"
