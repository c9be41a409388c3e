"""Acceptance suite: the exit criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines with timings.  Every tolerance is pinned here; the
table comparisons use only the transfer-matrix oracle and the enumeration
references, never the closed forms under test.
"""

import time
from contextlib import contextmanager

from comppat import identities, words
from comppat.asymptotics import eval_f
from comppat.genfun import avoidance_sequence, build_gf
from comppat.identities import (d_series, gf_123_recursive,
                                gf_peak_recursive, m_poly, m_poly_prefix,
                                n_poly, nat_closed_forms, t_poly)
from comppat.patterns import (ALL_PATTERNS, PartSet, PatternId,
                              brute_force_table, brute_force_word_table,
                              count_occurrences, enumerate_compositions)
from comppat.series import make_monomial
from enumeration import BATTERY, NAT, compositions_with_parts
from series_helpers import substitute_y0, substitute_y1, truncate

P = PatternId

GOLDEN = {
    P.P111: [1, 1, 2, 3, 7, 13, 24, 46, 89, 170, 324, 618, 1183, 2260,
             4318, 8249, 15765, 30123, 57556, 109973, 210137, 401525,
             767216, 1465963, 2801115, 5352275],
    P.P112: [1, 1, 2, 4, 7, 13, 24, 43, 78, 142, 256, 463, 838, 1513,
             2735, 4944, 8931, 16139, 29164, 52693, 95213],
    P.P221: [1, 1, 2, 4, 8, 15, 30, 58, 113, 220, 429, 835, 1627, 3169,
             6172, 12023, 23419, 45616, 88853, 173073, 337118],
    P.P123: [1, 1, 2, 4, 8, 16, 31, 61, 119, 232, 453, 883, 1721, 3354,
             6536, 12735, 24813, 48344, 94189, 183506, 357518],
    P.PEAK: [1, 1, 2, 4, 7, 13, 22, 38, 64, 107, 177, 293, 481, 789,
             1291, 2110, 3445, 5621, 9167, 14947, 24366],
    P.VALLEY: [1, 1, 2, 4, 8, 15, 28, 52, 96, 177, 326, 600, 1104, 2032,
               3740, 6884, 12672, 23327, 42942, 79052, 145528],
}

PRINTED_CONSTANTS = {  # pattern -> (K, v)
    P.P111: (0.499301, 1.91076),
    P.P112: (0.692005, 1.80688),
    P.P221: (0.545362, 1.94785),
    P.P123: (0.576096, 1.94823),
    P.PEAK: (1.394560, 1.62975),
    P.VALLEY: (0.728207, 1.84092),
}


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL "
              f"({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS "
          f"({time.time() - start:.1f}s)")


def test_criterion_1_golden_sequences():
    with criterion(1, "golden avoidance sequences, exact"):
        for p, want in GOLDEN.items():
            got = avoidance_sequence(p, NAT, len(want) - 1)
            assert got == want, p


def test_criterion_2_oracle_equality():
    with criterion(2, "builder tables == transfer oracle, n <= 14"):
        for part_set in BATTERY:
            for p in ALL_PATTERNS:
                built = build_gf(p, part_set, 14)
                oracle = brute_force_table(p, part_set, 14)
                assert built.coeffs == oracle.counts, (p, str(part_set))


def test_criterion_3_cross_form_identities():
    with criterion(3, "cross-form identities, order 20"):
        for part_set in (PartSet.of(1, 2), PartSet.of(1, 3, 4),
                         PartSet.of(2, 3, 5), NAT):
            assert build_gf(P.P123, part_set, 20) == \
                gf_123_recursive(part_set, 20)
            assert build_gf(P.PEAK, part_set, 20) == \
                gf_peak_recursive(part_set, 20)
            for s in range(9):
                assert m_poly(part_set, s, 20) == \
                    m_poly_prefix(part_set, s, 20), (str(part_set), s)
        for p in range(7):
            assert t_poly(NAT, p, 20) == nat_closed_forms("T", p, 20)
        for s in range(4):
            assert m_poly(NAT, 2 * s, 20) == \
                nat_closed_forms("M_even", s, 20)
            assert m_poly(NAT, 2 * s + 1, 20) == \
                nat_closed_forms("M_odd", s, 20)
            assert n_poly(NAT, 2 * s + 1, 20) == \
                nat_closed_forms("N_odd", s, 20)
        sentinel = {}
        for n in range(13):
            for comp in enumerate_compositions(n, PartSet.of(2, 3)):
                r = count_occurrences((1,) + comp, P.P123)
                key = (n, len(comp), r)
                sentinel[key] = sentinel.get(key, 0) + 1
        assert d_series(PartSet.of(2, 3), 12).coeffs == sentinel


def test_criterion_4_asymptotic_constants(default_estimate):
    with criterion(4, "growth constants, v@1e-5 K@1e-4, winding 1"):
        for p, (k_ref, v_ref) in PRINTED_CONSTANTS.items():
            est = default_estimate(p)
            assert abs(est.growth_v - v_ref) / v_ref < 1e-5, p
            assert abs(est.constant_K - k_ref) / abs(k_ref) < 1e-4, p
            # the winding on |x| = 0.7 from 4096 samples, read off the
            # estimate's own circle pass
            assert est.winding == 1, p
            assert abs(eval_f(p, est.rho)[0]) <= 1e-9, p


def test_criterion_5_prediction_consistency(default_estimate):
    with criterion(5, "K*v^n within 1% of exact counts"):
        for p, seq in GOLDEN.items():
            n = len(seq) - 1  # 25 for 111, 20 for the rest
            est = default_estimate(p)
            predicted = est.constant_K * est.growth_v ** n
            assert abs(predicted - seq[n]) / seq[n] < 0.01, p


def test_criterion_6_word_identities():
    with criterion(6, "word series identities and oracle, exact"):
        for k in range(1, 5):
            # the composition builders with x := 1, checked against the
            # closed forms that words.word_gf dispatches to
            direct = {p: identities.word_gf_builders(p, k, 12)
                      for p in ALL_PATTERNS}
            assert direct[P.P111] == words.w111_closed(k, 12)
            assert direct[P.P112] == words.w112_closed(k, 12)
            assert direct[P.P221] == words.w112_closed(k, 12)
            assert direct[P.P123] == words.w123_closed(k, 12)
            assert direct[P.P123] == identities.w123_chebyshev(k, 12)
            assert direct[P.PEAK] == words.w_peak_closed(k, 12)
            assert direct[P.VALLEY] == words.w_peak_closed(k, 12)
            assert direct[P.P112] == direct[P.P221]
            assert direct[P.PEAK] == direct[P.VALLEY]
            for p in ALL_PATTERNS:
                table = words.word_table(words.word_gf(p, k, 10))
                oracle = brute_force_word_table(p, k, 10)
                assert table == oracle.counts, (p, k)
        gf_u = identities.u_poly_generating_function(30)
        for n in range(31):
            coeffs = identities.u_poly(n)
            for r in range(len(coeffs) + 2):
                want = coeffs[r] if r < len(coeffs) else 0
                assert gf_u.coefficient(n, n, r) == want, (n, r)
        for k in range(1, 7):
            assert identities.w123_avoid_aj(k, 12) == \
                substitute_y0(words.word_gf(P.P123, k, 12)), k


def test_criterion_7_structural_properties():
    with criterion(7, "transfer, y=1 collapse, truncation consistency"):
        # valleys among compositions of n with m parts == peaks among
        # compositions of m(n+1)-n with m parts bounded by n
        for n in range(1, 11):
            bounded = PartSet(parts=tuple(range(1, n + 1)))
            for m in range(1, n + 3):
                valleys = sum(
                    count_occurrences(c, P.VALLEY)
                    for c in compositions_with_parts(n, m, NAT))
                peaks = sum(
                    count_occurrences(c, P.PEAK)
                    for c in compositions_with_parts(
                        m * (n + 1) - n, m, bounded))
                assert valleys == peaks, (n, m)
        for part_set in BATTERY:
            order = 12
            parts = part_set.materialize(order)
            total = make_monomial(order, 0, 0, 0, 0)
            for a in parts:
                total = total + make_monomial(order, a, 1, 0, 1)
            plain = (1 - total).reciprocal()
            for p in ALL_PATTERNS:
                assert substitute_y1(build_gf(p, part_set, order)) == \
                    plain, (p, str(part_set))
        for part_set in BATTERY:
            for p in ALL_PATTERNS:
                assert truncate(build_gf(p, part_set, 20), 10) == \
                    build_gf(p, part_set, 10), (p, str(part_set))
        for part_set in (PartSet.of(1, 2), PartSet.of(2, 3, 5), NAT):
            for form in (d_series, gf_123_recursive, gf_peak_recursive):
                assert truncate(form(part_set, 20), 10) == \
                    form(part_set, 10), (form.__name__, str(part_set))
            for form in (t_poly, m_poly, n_poly):
                for s in range(4):
                    assert truncate(form(part_set, s, 20), 10) == \
                        form(part_set, s, 10), (form.__name__, s)
        for p in ALL_PATTERNS:
            for k in (2, 4):
                assert truncate(words.word_gf(p, k, 20), 10) == \
                    words.word_gf(p, k, 10), (p, k)
