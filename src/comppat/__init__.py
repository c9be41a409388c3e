"""Exact enumeration of 3-letter patterns in compositions and k-ary words.

The package computes, exactly, how many integer compositions of n with m
parts from a given part set contain each of the six adjacent 3-letter
statistics (111, 112, 221, 123, peak, valley) a prescribed number of
times; specializes the same series to words over a finite alphabet; and
reproduces the dominant-pole growth constants of the avoidance sequences
numerically.
"""

from .patterns import (ALL_PATTERNS, OccurrenceTable, PartSet, PatternId,
                       brute_force_table, brute_force_tables,
                       brute_force_word_table, brute_force_word_tables,
                       classify_triple, count_occurrences,
                       enumerate_compositions, enumerate_words)
from .series import (Grading, GradingMismatchError, NonInvertibleError,
                     NormalizationError, OrderRangeError, SeriesError,
                     TruncatedSeries, make_monomial, one, zero)
from .genfun import (avoidance_sequence, build_gf, d_series, gf_111,
                     gf_112, gf_123, gf_123_recursive, gf_221, gf_peak,
                     gf_peak_recursive, gf_valley, m_poly, m_poly_prefix,
                     n_poly, nat_closed_forms, qpochhammer_inverse, t_poly)
from .words import (u_poly, u_poly_generating_function, w111_closed,
                    w112_closed, w123_avoid_aj, w123_chebyshev,
                    w123_closed, w_peak_closed, word_gf, word_table)
from .asymptotics import (AsymptoticEstimate, emit_curve, estimate, eval_f,
                          find_rho, predict_count, winding_number,
                          winding_of)

__version__ = "0.1.0"
