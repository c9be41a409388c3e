"""Closed-form builders against frozen values, oracles and cross-checks.

The heavyweight oracle comparisons (full battery, order 14/20) live in
test_acceptance.py; these tests keep to small orders so the module suite
stays fast.
"""

from operator import truediv

import pytest

from comppat import genfun
from comppat.genfun import avoidance_sequence, build_gf
from comppat.identities import (d_series, gf_123_recursive,
                                gf_peak_recursive, m_poly, m_poly_prefix,
                                n_poly, nat_closed_forms, num_den_111,
                                qpochhammer_inverse, t_poly)
from comppat.patterns import (PartSet, PatternId, brute_force_table,
                              brute_force_word_table, count_occurrences,
                              enumerate_compositions)
from comppat.graded import _unfold, graded_quotient, image_grade
from comppat.series import TruncatedSeries, make_monomial, one, zero
from comppat.words import word_gf, word_table
from series_helpers import (graded_series, substitute_y0, substitute_y1,
                            substitute_z1, truncate)

P = PatternId
NAT = PartSet.naturals()

# published avoidance sequences over the naturals (n = 0, 1, ...)
SEQ_111 = [1, 1, 2, 3, 7, 13, 24, 46, 89, 170, 324, 618, 1183]
SEQ_112 = [1, 1, 2, 4, 7, 13, 24, 43, 78, 142, 256, 463, 838]
SEQ_221 = [1, 1, 2, 4, 8, 15, 30, 58, 113, 220, 429, 835, 1627]
SEQ_123 = [1, 1, 2, 4, 8, 16, 31, 61, 119, 232, 453, 883, 1721]
SEQ_PEAK = [1, 1, 2, 4, 7, 13, 22, 38, 64, 107, 177, 293, 481]
SEQ_VALLEY = [1, 1, 2, 4, 8, 15, 28, 52, 96, 177, 326, 600, 1104]


def xz(order, a):
    return make_monomial(order, a, 1, 0, 1)


# -- t polynomials -----------------------------------------------------------

def test_t1_two_parts():
    assert t_poly((1, 2), 1, 10) == xz(10, 1) + xz(10, 2)


def test_t2_three_parts():
    # pairs of distinct parts from {1,2,3}: sums 3, 4, 5
    got = t_poly((1, 2, 3), 2, 10)
    assert got.coeffs == {(3, 2, 0): 1, (4, 2, 0): 1, (5, 2, 0): 1}


def test_t0_and_beyond():
    assert t_poly((1, 2), 0, 10) == one(10)
    assert not t_poly((1, 2), 3, 10)


@pytest.mark.parametrize("p", range(6))
def test_t_nat_closed_form(p):
    assert t_poly(NAT, p, 15) == nat_closed_forms("T", p, 15)


# -- 111 ----------------------------------------------------------------------

def test_gf_111_avoiders_prefix():
    assert avoidance_sequence(P.P111, NAT, 12) == SEQ_111


def test_gf_111_unit_coefficients():
    s = build_gf(P.P111, NAT, 6)
    assert s.coefficient(0, 0, 0) == 1
    assert s.coefficient(3, 3, 1) == 1  # the composition 111


@pytest.mark.parametrize("a", [1, 2, 3])
def test_run_term_less_its_part_is_cubic_over_the_factor(a):
    # T(b) - b = (y - 1) b^3 / (1 - (y - 1) (b + b^2)) for b = z x^a: the
    # split behind 111's grades, the parts' level-0 grade and one cubic
    # grade per part over its factor
    for order in range(13):
        b, u = xz(order, a), make_monomial(order, 0, 0, 1) - 1
        run = b * (1 - u * b) / (1 - u * b * (1 + b))
        assert run - b == u * b * b * b / (1 - u * (b + b * b)), order


# the cases every builder is checked on: nat at the CLI cap and below,
# finite sets with runs of consecutive parts and gaps, and an int k for
# k letters, each a part of size 1 (weighing x z, x in the image)
BUILDER_CASES = [
    (NAT, 0), (NAT, 1), (NAT, 17), (NAT, 60),
    (PartSet.of(1, 3, 4), 20), (PartSet.of(2, 3, 7), 20),
    (PartSet.of(1, 2, 5), 20), (PartSet.of(5), 20), (1, 12), (3, 12)]


def sizes_of(parts, order):
    return [1] * parts if isinstance(parts, int) else \
        genfun._parts(parts, order)


def solve(p, sizes, order, image=False):
    """The builder's series for p over the part sizes: build_gf's route,
    or in the y = 0, z = 1 image avoidance_sequence's (grades collapsed)."""
    if image:
        num, t = genfun._GRADES[p](sizes, order)
        num, t = [image_grade(num, order)], [image_grade(t, order)]
    else:
        num, t = genfun._solver_grades(p, sizes, order)
    return graded_quotient(num, t, order)


@pytest.mark.parametrize("image", [False, True], ids=["xzy", "y0z1"])
@pytest.mark.parametrize("parts, order", BUILDER_CASES)
def test_gf_111_run_recurrence_matches_per_part_pair(parts, order, image):
    # the per-part grades, solved over each part's factor, against one
    # division per part, in the trivariate ring and in the y = 0, z = 1
    # image: the same terms in the same order
    z_exp = 0 if image else 1
    y = zero(order) if image else make_monomial(order, 0, 0, 1)
    sizes = sizes_of(parts, order)
    num, den = num_den_111(
        [make_monomial(order, a, z_exp, 0) for a in sizes], y)
    want = num / den
    got = solve(P.P111, sizes, order, image)
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)



@pytest.mark.parametrize("parts, order", BUILDER_CASES)
@pytest.mark.parametrize("p", list(P))
def test_period_grades_solve_as_their_unfolded_grades(p, parts, order):
    # the periods act only inside the solver: each grade of 1 - D unfolded
    # to A / prod (1 - x^p) and solved densely gives the same terms in the
    # same order; 111's factors carry y and z, so its grades are summed as
    # series with each factor divided out by / instead
    num, t = genfun._solver_grades(p, sizes_of(parts, order), order)
    got = graded_quotient(num, t, order)
    if p == P.P111:
        want = graded_series(num, order) / (1 - graded_series(t, order))
    else:
        want = graded_quotient(num, [(s, poly, _unfold(a, periods, order), ())
                                     for s, poly, a, periods in t], order)
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)


# the packing width, in bits, of each order-60 build over nat: a looser
# majorant, such as 1 / (1 - |D_a - 1|) for 111's factors, would widen it
NAT_60_WIDTHS = {P.P111: 81, P.P112: 69, P.P221: 64, P.P123: 64,
                 P.PEAK: 79, P.VALLEY: 81}


@pytest.mark.parametrize("p", list(P))
def test_nat_order_60_packing_width_does_not_grow(p, monkeypatch):
    # the quotient's rows are decoded last, at the solver's width
    widths = []
    unrows = TruncatedSeries._unrows

    def spy(self, rows, width):
        widths.append(width)
        return unrows(self, rows, width)
    monkeypatch.setattr(TruncatedSeries, "_unrows", spy)
    build_gf(p, NAT, 60)
    assert widths[-1] <= NAT_60_WIDTHS[p]


def nat_lead(p, s, order):
    """c in nat's grade s of 1 - D, x^c / prod_p (1 - x^p): the leading
    exponent of its selection sum in identities.nat_closed_forms, and for
    the guard sums of 112 and 221 (grade s = 2g + 1) (g + 1)^2 and
    g^2 + 3g + 1."""
    g = s // 2
    if p in (P.P112, P.P221):
        return (g + 1) ** 2 if p == P.P112 else g * g + 3 * g + 1
    kind, index = (("T", s) if p == P.P123 else ("M_even", g) if s % 2 == 0
                   else ("N_odd" if p == P.VALLEY else "M_odd", g))
    return min(nat_closed_forms(kind, index, order).coeffs)[0]


NAT_PERIODS = {P.P112: lambda s: tuple(range(1, s + 1, 2)),
               P.P221: lambda s: (*range(2, s, 2), s)}


@pytest.mark.parametrize("p", [P.P112, P.P221, P.P123, P.PEAK, P.VALLEY])
def test_nat_grades_are_q_products(p):
    # at the CLI cap each selection sum that keeps its periods is one
    # term, B = x^c: 1..s for t^s, M^s and N^s, odd p <= s for 112, even
    # p < s and s itself for 221; the grades that keep A have too few
    # terms below the order for the periods to pay
    order = 60
    _, t = genfun._solver_grades(p, genfun._parts(NAT, order), order)
    cleared = [s for s, _, _, periods in t if periods]
    assert len(cleared) >= 6 and 1 in cleared
    for s, _, b, periods in t:
        if periods:
            assert periods == NAT_PERIODS.get(
                p, lambda s: tuple(range(1, s + 1)))(s)
            assert [(d, v) for d, v in enumerate(b) if v] == \
                [(nat_lead(p, s, order), 1)], s


@pytest.mark.parametrize("p", [P.P112, P.P221, P.P123, P.PEAK, P.VALLEY])
def test_periods_are_kept_only_where_they_cost_less(p):
    # finite sets with gaps and k letters keep every A as it is; on
    # {1..6} both forms occur
    order = 20
    for sizes in ((1, 3, 4), (2, 3, 7), [1] * 3, [1] * 15):
        _, t = genfun._solver_grades(p, sizes, order)
        assert all(periods == () for *_, periods in t), sizes
    _, t = genfun._solver_grades(p, tuple(range(1, 7)), order)
    assert {bool(periods) for *_, periods in t} == {False, True}

# -- 112 / 221 ---------------------------------------------------------------

def test_gf_112_avoiders_prefix():
    assert avoidance_sequence(P.P112, NAT, 12) == SEQ_112


def test_gf_221_avoiders_prefix():
    assert avoidance_sequence(P.P221, NAT, 12) == SEQ_221


def test_gf_112_221_oracle_134():
    A = PartSet.of(1, 3, 4)
    for p in (P.P112, P.P221):
        assert build_gf(p, A, 10).coeffs == brute_force_table(p, A, 10).counts


# -- 123 ----------------------------------------------------------------------

def test_gf_123_avoiders_prefix():
    assert avoidance_sequence(P.P123, NAT, 12) == SEQ_123


def test_gf_123_first_occurrence_at_6():
    s = build_gf(P.P123, NAT, 7)
    for n in range(6):
        assert all(r == 0 for (nn, m, r) in s.coeffs if nn == n)
    assert s.coefficient(6, 3, 1) == 1  # the composition 123


def test_gf_123_oracle_123set():
    A = PartSet.of(1, 2, 3)
    oracle = brute_force_table(P.P123, A, 10)
    assert build_gf(P.P123, A, 10).coeffs == oracle.counts


def test_gf_123_recursive_agrees():
    assert gf_123_recursive((), 8) == one(8)
    for A in (PartSet.of(1, 2), PartSet.of(2, 3, 5), NAT):
        assert build_gf(P.P123, A, 12) == gf_123_recursive(A, 12)


# -- d_series ----------------------------------------------------------------

def test_d_series_degenerate():
    assert d_series((), 8) == one(8)
    geo = (1 - xz(9, 3)).reciprocal()
    assert d_series((3,), 9) == geo


def test_d_series_sentinel_oracle():
    # prepending any part smaller than min(A) realizes the "extends on the
    # left" weight; 1 works as the sentinel for A = {2,3}
    A = PartSet.of(2, 3)
    table = {}
    for n in range(11):
        for comp in enumerate_compositions(n, A):
            r = count_occurrences((1,) + comp, P.P123)
            key = (n, len(comp), r)
            table[key] = table.get(key, 0) + 1
    assert d_series(A, 10).coeffs == table


# -- M/N polynomials ---------------------------------------------------------

def test_m1_is_part_sum():
    assert m_poly((1, 3, 4), 1, 10) == xz(10, 1) + xz(10, 3) + xz(10, 4)
    assert n_poly((1, 3, 4), 1, 10) == xz(10, 1) + xz(10, 3) + xz(10, 4)


def test_m2_three_parts():
    got = m_poly((1, 2, 3), 2, 10)
    assert got.coeffs == {(3, 2, 0): 1, (4, 2, 0): 1, (5, 2, 0): 1}


def test_n2_allows_repeats():
    got = n_poly((1, 2), 2, 10)
    assert got.coeffs == {(2, 2, 0): 1, (3, 2, 0): 1, (4, 2, 0): 1}


def test_base_cases_empty_set():
    assert m_poly((), 0, 5) == one(5)
    assert not m_poly((), 2, 5)
    assert not n_poly((), 3, 5)


@pytest.mark.parametrize("A", [(1, 2), (1, 3, 4), (2, 3, 5), NAT])
def test_prefix_suffix_agree(A):
    for s in range(6):
        assert m_poly(A, s, 12) == m_poly_prefix(A, s, 12), (A, s)


@pytest.mark.parametrize("s", range(4))
def test_mn_nat_closed_forms(s):
    assert m_poly(NAT, 2 * s, 15) == nat_closed_forms("M_even", s, 15)
    assert m_poly(NAT, 2 * s + 1, 15) == nat_closed_forms("M_odd", s, 15)
    assert n_poly(NAT, 2 * s + 1, 15) == nat_closed_forms("N_odd", s, 15)


def test_nat_closed_forms_rejects_unknown_kind():
    with pytest.raises(ValueError):
        nat_closed_forms("M_all", 1, 10)


# -- peak / valley -----------------------------------------------------------

def test_gf_peak_avoiders_prefix():
    assert avoidance_sequence(P.PEAK, NAT, 12) == SEQ_PEAK


def test_gf_valley_avoiders_prefix():
    assert avoidance_sequence(P.VALLEY, NAT, 12) == SEQ_VALLEY


def test_gf_peak_valley_oracle_12():
    A = PartSet.of(1, 2)
    for p in (P.PEAK, P.VALLEY):
        assert build_gf(p, A, 12).coeffs == brute_force_table(p, A, 12).counts


def test_gf_peak_first_peak():
    # the composition 121
    assert build_gf(P.PEAK, NAT, 6).coefficient(4, 3, 1) == 1


def test_gf_peak_recursive_agrees():
    geo = (1 - xz(10, 2)).reciprocal()
    assert gf_peak_recursive((2,), 10) == geo
    for A in (PartSet.of(1, 2), PartSet.of(1, 2, 3), NAT):
        assert build_gf(P.PEAK, A, 12) == gf_peak_recursive(A, 12)


def test_gf_peak_recursive_y1_collapse():
    plain = (1 - xz(10, 1) - xz(10, 2)).reciprocal()
    assert substitute_y1(gf_peak_recursive((1, 2), 10)) == plain


# -- shared builder properties ------------------------------------------------

@pytest.mark.parametrize("p", list(P))
def test_y1_collapse_forgets_statistic(p):
    # summing over r must leave the plain composition series
    for A in (PartSet.of(1, 2), PartSet.of(2, 3, 5)):
        order = 10
        parts_sum = sum((xz(order, a) for a in A.parts),
                        start=make_monomial(order, 0, 0, 0, 0))
        plain = (1 - parts_sum).reciprocal()
        assert substitute_y1(build_gf(p, A, order)) == plain, (p, A)


@pytest.mark.parametrize("p", list(P))
def test_truncation_consistency_small(p):
    for A in (PartSet.of(1, 3), NAT):
        assert truncate(build_gf(p, A, 12), 6) == build_gf(p, A, 6)


@pytest.mark.parametrize("p", list(P))
def test_builder_support_bounds(p):
    s = build_gf(p, NAT, 10)
    assert all(m <= n and r <= max(0, m - 2) for (n, m, r) in s.coeffs)


@pytest.mark.parametrize("p", list(P))
def test_specialization_chain_matches_collapsed_path(p):
    # every builder on every case, in both images: the trivariate series
    # against the oracle (n <= 20) and the identities route where there is
    # one (n <= 20; 111's pair at every order above), and the series of the
    # grades collapsed at y := 0, z := 1 against that series projected
    routes = {P.P111: lambda A, n: truediv(*num_den_111(
                  [make_monomial(n, a, 1, 0) for a in genfun._parts(A, n)],
                  make_monomial(n, 0, 0, 1))),
              P.P123: gf_123_recursive, P.PEAK: gf_peak_recursive}
    for parts, order in [*BUILDER_CASES, (NAT, 12), (NAT, 30),
                         (PartSet.of(1, 3), 20), (PartSet.of(2, 3, 5), 20),
                         (PartSet.of(1, 2, 3, 4, 5, 6), 20)]:
        full = solve(p, sizes_of(parts, order), order)
        low = truncate(full, min(order, 20))
        if isinstance(parts, int):
            assert word_table(low) == brute_force_word_table(
                p, parts, low.order).counts
            assert full == word_gf(p, parts, order)
        else:
            assert low.coeffs == brute_force_table(p, parts,
                                                   low.order).counts
            if p in routes:
                assert low == routes[p](parts, low.order)
            assert full == build_gf(p, parts, order)
        image = substitute_z1(substitute_y0(full))
        assert solve(p, sizes_of(parts, order), order, True) == image
        if not isinstance(parts, int):
            assert avoidance_sequence(p, parts, order) == \
                [image.coefficient(n, 0, 0) for n in range(order + 1)]


def test_raw_parts_validated_like_part_sets():
    with pytest.raises(ValueError, match="positive integers"):
        build_gf(P.P111, (1.5, 2), 5)
    with pytest.raises(ValueError, match="positive integers"):
        build_gf(P.P111, (0, 1), 5)
    with pytest.raises(ValueError, match="strictly increasing"):
        build_gf(P.P111, (2, 2), 5)
    with pytest.raises(ValueError, match="positive integers"):
        build_gf(P.P111, (True, 3), 5)
    assert build_gf(P.P111, (), 5) == one(5)


def test_nat_materialization_stable_under_enlargement():
    # coefficients with n <= 10 do not change when the part set grows
    small = build_gf(P.PEAK, tuple(range(1, 11)), 10)
    large = build_gf(P.PEAK, tuple(range(1, 30)), 10)
    assert small == large


# -- q-Pochhammer ------------------------------------------------------------

def test_qpochhammer_inverse_round_trip():
    for p in (1, 2, 5):
        inv = qpochhammer_inverse(p, 20)
        prod = one(20)
        for j in range(1, p + 1):
            prod = prod * (1 - make_monomial(20, j, 0, 0, 1))
        assert inv * prod == one(20)
        assert all(c >= 0 for c in inv.coeffs.values())


def test_qpochhammer_inverse_counts_partitions():
    # 1/(x;x)_2 counts partitions into parts <= 2
    inv = qpochhammer_inverse(2, 8)
    assert [inv.coefficient(n, 0, 0) for n in range(9)] == \
        [1, 1, 2, 2, 3, 3, 4, 4, 5]


def test_check_counts_rejects_negative_coefficient():
    from comppat.genfun import _check_counts

    s = one(4) - make_monomial(4, 1, 1, 1, 1)
    with pytest.raises(RuntimeError, match="negative coefficient"):
        _check_counts(s)


@pytest.mark.parametrize("p", list(P))
def test_tables_list_their_keys_in_order(p):
    # expand and words print a table's keys as stored, without sorting
    for s in (build_gf(p, NAT, 20), build_gf(p, PartSet.of(1, 3, 4), 20),
              word_gf(p, 5, 12)):
        assert list(s.coeffs) == sorted(s.coeffs)


RING_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__truediv__")


def test_production_never_uses_the_ring_arithmetic(monkeypatch):
    # the ring's + - * / are the cross-checks' reference: every builder,
    # the word series and the avoiders solve through graded_quotient and
    # read its coefficients, so none of them reaches an operator (nor
    # reciprocal, which divides)
    def refuse(*args):
        raise AssertionError("production used the series ring's arithmetic")
    for name in RING_ARITHMETIC:
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    for p in P:
        for parts, order in ((NAT, 60), (PartSet.of(1, 3, 4), 20),
                             (PartSet.of(2, 3, 7), 20)):
            build_gf(p, parts, order)
        word_gf(p, 1600, 40)
        avoidance_sequence(p, NAT, 60)
