"""Word series (every letter weighs x z): primary route, closed forms,
cross-identities."""

import pytest

from comppat.patterns import PatternId, brute_force_word_table
from comppat.series import TruncatedSeries, make_monomial
from comppat.identities import (u_poly, u_poly_generating_function,
                                w123_avoid_aj, w123_chebyshev,
                                word_gf_builders)
from comppat.words import (w111_closed, w112_closed, w123_closed,
                           w_peak_closed, word_gf, word_table)
from series_helpers import substitute_y0, truncate

P = PatternId


def builder_route(p, k, order):
    # the composition builders with x := 1: the cross-check of word_gf
    return word_gf_builders(p, k, order)


def geometric_z(order):
    # 1/(1-xz): one word of every length over a single letter
    z = make_monomial(order, 1, 1, 0, 1)
    return (1 - z).reciprocal()


@pytest.mark.parametrize("k", [1, 5, 1600])
@pytest.mark.parametrize("p", list(P))
def test_word_series_x_exponent_is_length(p, k):
    # a letter weighs x z, so every key is (m, m, r)
    s = word_gf(p, k, 20)
    assert s.coeffs
    assert all(n == m for (n, m, r) in s.coeffs)


# the packing width, in bits, of each word series at k = 1600, order 40 (the
# benchmark's): a looser ||P||_1 than that of each grade's P expanded in
# y, such as sum_e |a_e| 2^e over P = sum_e a_e (y - 1)^e, would widen it
WORD_1600_WIDTHS = {P.P111: 427, P.P112: 427, P.P221: 427, P.P123: 441,
                    P.PEAK: 459, P.VALLEY: 459}


@pytest.mark.parametrize("p", list(P))
def test_word_packing_width_does_not_grow(p, monkeypatch):
    # the quotient's rows are decoded last, at the solver's width
    widths = []
    unrows = TruncatedSeries._unrows

    def spy(self, rows, width):
        widths.append(width)
        return unrows(self, rows, width)
    monkeypatch.setattr(TruncatedSeries, "_unrows", spy)
    word_gf(p, 1600, 40)
    assert widths[-1] <= WORD_1600_WIDTHS[p]


def test_one_letter_alphabet():
    for p in (P.P112, P.P221, P.P123, P.PEAK, P.VALLEY):
        assert word_gf(p, 1, 9) == geometric_z(9), p
    # over one letter, every window is a level+level occurrence
    s = word_gf(P.P111, 1, 9)
    assert s.coeffs == {(0, 0, 0): 1, (1, 1, 0): 1,
                        **{(m, m, m - 2): 1 for m in range(2, 10)}}


@pytest.mark.parametrize("p", list(P))
def test_word_gf_refuses_an_empty_alphabet(p):
    # the CLI's -k range refuses 0 first, so only the library reaches this
    with pytest.raises(ValueError, match="alphabet size must be >= 1"):
        word_gf(p, 0, 5)


def test_word_table_rejects_x_exponent():
    # keys must be (m, m, r): an x-exponent other than the length is not
    # a word, whichever way it differs
    word = make_monomial(4, 2, 2, 1)
    assert word_table(word) == {(2, 1): 1}
    for n, m in ((1, 0), (0, 1), (2, 1), (1, 2)):
        with pytest.raises(ValueError, match="x-exponent"):
            word_table(word + make_monomial(4, n, m, 0))


def test_word_gf_binary_111():
    assert word_gf(P.P111, 2, 5).coefficient(3, 3, 1) == 2  # 111 and 222


@pytest.mark.parametrize("k", [1, 2, 3])
def test_word_gf_matches_oracle_small(k):
    for p in P:
        oracle = brute_force_word_table(p, k, 8)
        assert word_table(word_gf(p, k, 8)) == oracle.counts, (p, k)


# -- closed forms -------------------------------------------------------------

def test_w111_closed_binary_avoiders():
    s = substitute_y0(w111_closed(2, 6))
    assert [s.coefficient(m, m, 0) for m in range(6)] == [1, 2, 4, 6, 10, 16]


def test_w111_closed_one_letter():
    s = substitute_y0(w111_closed(1, 8))
    # all words of length >= 3 over one letter contain a triple repeat
    assert s.coeffs == {(0, 0, 0): 1, (1, 1, 0): 1, (2, 2, 0): 1}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_w111_closed_equals_word_gf(k):
    assert w111_closed(k, 12) == builder_route(P.P111, k, 12)


def test_w112_closed_one_letter():
    assert w112_closed(1, 9) == geometric_z(9)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_w112_closed_equals_both_mirror_series(k):
    closed = w112_closed(k, 12)
    assert closed == builder_route(P.P112, k, 12)
    assert closed == builder_route(P.P221, k, 12)


def test_w112_closed_binary_avoiders_against_oracle():
    s = substitute_y0(w112_closed(2, 6))
    oracle = brute_force_word_table(P.P112, 2, 6)
    zero_rows = {m: c for (m, r), c in oracle.counts.items() if r == 0}
    assert {m: s.coefficient(m, m, 0) for m in zero_rows} == zero_rows


# -- the 123 family ------------------------------------------------------------

def test_u_poly_base_and_recurrence_values():
    assert u_poly(0) == [1]
    assert u_poly(1) == [1]
    assert u_poly(2) == [0, -1]          # -y
    assert u_poly(3) == [-1, -1]         # -1 - y
    assert u_poly(4) == [-1, 1, 1]       # -1 + y + y^2


def test_u_poly_generating_function_through_z30():
    gf = u_poly_generating_function(30)
    for n in range(31):
        coeffs = u_poly(n)
        for r in range(max(len(coeffs), 4)):
            want = coeffs[r] if r < len(coeffs) else 0
            assert gf.coefficient(n, n, r) == want, (n, r)


def test_u_poly_period_six_at_y0():
    values = [u_poly(n)[0] for n in range(24)]
    assert values == [1, 1, 0, -1, -1, 0] * 4


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_w123_forms_agree(k):
    direct = builder_route(P.P123, k, 12)
    assert w123_closed(k, 12) == direct
    assert w123_chebyshev(k, 12) == direct


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_w123_avoid_aj_matches_y0_slice(k):
    assert w123_avoid_aj(k, 12) == \
        substitute_y0(builder_route(P.P123, k, 12))


# -- peak / valley --------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_w_peak_closed_equals_both_word_series(k):
    closed = w_peak_closed(k, 12)
    assert closed == builder_route(P.PEAK, k, 12)
    assert closed == builder_route(P.VALLEY, k, 12)


def test_w_peak_closed_binary_avoiders_against_oracle():
    s = substitute_y0(w_peak_closed(2, 10))
    oracle = brute_force_word_table(P.PEAK, 2, 10)
    zero_rows = {m: c for (m, r), c in oracle.counts.items() if r == 0}
    assert {m: s.coefficient(m, m, 0) for m in zero_rows} == zero_rows


def test_w_peak_closed_one_letter():
    assert w_peak_closed(1, 9) == geometric_z(9)


# k above the order 10 (ids "15", "40"), then (k, order) pairs at the loop
# bounds of the closed forms: order in {k-1, k, k+1} around the 123 bound
# min(k, order), and in {2k-2, 2k-1, 2k} around the peak bound
# min(order, 2k-1)
BOUND_CASES = ([pytest.param(k, 10, id=str(k)) for k in (15, 40)]
               + [pytest.param(k, order, id=f"{k}-{order}")
                  for k in range(1, 7)
                  for order in sorted({k - 1, k, k + 1,
                                       2 * k - 2, 2 * k - 1, 2 * k})])


@pytest.mark.parametrize("p", list(P))
@pytest.mark.parametrize("k, order", BOUND_CASES)
def test_word_gf_equals_builder_route_k_above_order(p, k, order):
    assert word_gf(p, k, order) == builder_route(p, k, order)


def test_truncation_consistency_word_series():
    for p in P:
        assert truncate(word_gf(p, 3, 12), 6) == word_gf(p, 3, 6)


def test_alternating_tuple_counts_are_binomial():
    # collapsing the part-size degrees of M^s over {1..k} counts the
    # alternating index tuples: C(k-1+l, 2l) of even length 2l and
    # C(k+l, 2l+1) of odd length 2l+1
    from math import comb

    from comppat.identities import m_poly

    for k in range(1, 5):
        for ell in range(0, 4):
            even = m_poly(tuple(range(1, k + 1)), 2 * ell,
                          max(2 * ell * k, 1))
            assert sum(even.coeffs.values()) == comb(k - 1 + ell, 2 * ell)
            odd = m_poly(tuple(range(1, k + 1)), 2 * ell + 1,
                         (2 * ell + 1) * k)
            assert sum(odd.coeffs.values()) == comb(k + ell, 2 * ell + 1)
