"""Ring arithmetic of the truncated trivariate series."""

import tracemalloc
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comppat.graded import graded_quotient, image_grade
from comppat.series import (GradingMismatchError, NonInvertibleError,
                            NormalizationError, OrderRangeError,
                            TruncatedSeries, make_monomial, one, zero)
from series_helpers import (graded_series, in_ym1, substitute_y0,
                            substitute_y1, substitute_z1, truncate)

ONE = [(0, [1], [1], ())]  # the numerator 1 as a grade


def mono(n, m, r, c=1, order=10):
    return make_monomial(order, n, m, r, c)


# -- make_monomial ------------------------------------------------------

def test_monomial_identity():
    assert make_monomial(10, 0, 0, 0, 1) == one(10)


def test_monomial_beyond_order_is_zero():
    assert make_monomial(5, 7, 1, 0, 1) == zero(5)


def test_monomial_plain():
    s = make_monomial(10, 3, 1, 0, 1)
    assert s.coeffs == {(3, 1, 0): 1}


# -- add -----------------------------------------------------------------

def test_add_cancels():
    assert mono(1, 0, 0) + mono(1, 0, 0, -1) == zero(10)


def test_add_simple():
    s = one(10) + mono(1, 0, 0)
    assert s.coeffs == {(0, 0, 0): 1, (1, 0, 0): 1}


def test_one_minus_y_plus_y():
    y = mono(0, 0, 1)
    assert (one(10) - y) + y == one(10)


def test_add_requires_same_frame():
    with pytest.raises(GradingMismatchError):
        one(10) + one(11)


# -- mul -----------------------------------------------------------------

def test_mul_difference_of_squares():
    x = make_monomial(5, 1, 0, 0, 1)
    prod = (1 + x) * (1 - x)
    assert prod.coeffs == {(0, 0, 0): 1, (2, 0, 0): -1}


def test_mul_monomials():
    xz = mono(1, 1, 0)
    assert (xz * xz).coeffs == {(2, 2, 0): 1}


def test_mul_geometric_times_complement():
    x = make_monomial(3, 1, 0, 0, 1)
    geo = (1 - x).reciprocal()
    assert geo * (1 - x) == one(3)


def test_mul_truncates():
    x = make_monomial(2, 1, 0, 0, 1)
    cube = x * x * x
    assert cube == zero(2)


def test_scalar_arithmetic():
    x = mono(1, 0, 0)
    assert (3 * x).coeffs == {(1, 0, 0): 3}
    assert (x * 0) == zero(10)
    assert (1 - x).coeffs == {(0, 0, 0): 1, (1, 0, 0): -1}
    # an int scales every term; it is never taken for a one-term series
    s = mono(1, 0, 0, 3) + mono(2, 1, 4, -2)
    assert (s * -5).coeffs == (-5 * s).coeffs == {(1, 0, 0): -15,
                                                  (2, 1, 4): 10}


# -- reciprocal ----------------------------------------------------------

def test_reciprocal_of_one():
    assert one(7).reciprocal() == one(7)


def test_reciprocal_geometric():
    x = make_monomial(5, 1, 0, 0, 1)
    inv = (1 - x).reciprocal()
    assert inv.coeffs == {(n, 0, 0): 1 for n in range(6)}


def test_reciprocal_round_trip_trivariate():
    # 1 + x z (1 + x z)(1 - y) at order 3
    xz = make_monomial(3, 1, 1, 0, 1)
    y = make_monomial(3, 0, 0, 1, 1)
    s = 1 + xz * (1 + xz) * (1 - y)
    assert s * s.reciprocal() == one(3)


def test_reciprocal_negative_unit():
    x = make_monomial(4, 1, 0, 0, 1)
    s = x - 1
    assert s * s.reciprocal() == one(4)


def test_reciprocal_rejects_non_unit():
    for bad in (2 * one(4), zero(4), 2 + mono(1, 0, 0, order=4)):
        with pytest.raises(NonInvertibleError):
            bad.reciprocal()
        with pytest.raises(NonInvertibleError):
            one(4) / bad
    with pytest.raises(NonInvertibleError):
        one(4) / 2


def test_reciprocal_rejects_degree_zero_tail():
    y = mono(0, 0, 1)
    with pytest.raises(NormalizationError):
        (1 + y).reciprocal()
    with pytest.raises(NormalizationError):
        mono(2, 1, 0) / (1 + y)
    with pytest.raises(NormalizationError):
        one(4) / (1 + make_monomial(4, 0, 7, 0))


# -- division --------------------------------------------------------------

def test_divide_geometric():
    x = make_monomial(5, 1, 0, 0, 1)
    assert (x / (1 - x)).coeffs == {(n, 0, 0): 1 for n in range(1, 6)}


def test_divide_by_units():
    s = 1 + mono(2, 1, 3, -4)
    assert s / 1 == s
    assert s / -1 == -s
    assert s / one(10) == s
    with pytest.raises(TypeError):
        s / "2"


# -- input validation -----------------------------------------------------

def test_rejects_non_integer_exponents_and_coefficients():
    with pytest.raises(ValueError):
        TruncatedSeries(3, {(1.5, 0, 0): 1, (0, 0, 0): 2.5})
    with pytest.raises(ValueError):
        TruncatedSeries(3, {(1, 0, 0): 2.5})
    with pytest.raises(ValueError):
        TruncatedSeries(3, {(0, 1, 2.0): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(3.0)
    with pytest.raises(ValueError):
        TruncatedSeries(3, {(0, 0, -1): 1})


# -- substitutions -------------------------------------------------------

def test_substitute_y0():
    s = 1 + mono(1, 0, 1)
    assert substitute_y0(s) == one(10)
    t = 1 + mono(2, 1, 0)
    assert substitute_y0(t) == t


def test_substitute_y1_sums_over_r():
    s = mono(2, 1, 0) + mono(2, 1, 3) + mono(2, 1, 5, -1)
    assert substitute_y1(s).coeffs == {(2, 1, 0): 1}


def test_substitute_z1():
    s = mono(1, 1, 0) + mono(1, 2, 0)
    assert substitute_z1(s).coeffs == {(1, 0, 0): 2}
    t = 1 + mono(3, 0, 0)
    assert substitute_z1(t) == t


# -- coefficient access ---------------------------------------------------

def test_coefficient_of_one():
    assert one(10).coefficient(0, 0, 0) == 1
    assert one(10).coefficient(4, 1, 0) == 0


def test_coefficient_beyond_order_raises():
    with pytest.raises(OrderRangeError):
        one(10).coefficient(11, 0, 0)
    with pytest.raises(OrderRangeError):
        one(4).coefficient(5, 5, 0)


def test_truncate():
    x = make_monomial(8, 1, 0, 0, 1)
    geo = (1 - x).reciprocal()
    assert truncate(geo, 3).coeffs == {(n, 0, 0): 1 for n in range(4)}
    with pytest.raises(ValueError):
        truncate(geo, 9)


# -- randomized ring laws --------------------------------------------------

def series_strategy(order=6):
    key = st.tuples(st.integers(0, order), st.integers(0, 3),
                    st.integers(0, 3))
    return st.dictionaries(key, st.integers(-5, 5), max_size=8).map(
        lambda d: TruncatedSeries(order, d))


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series_strategy(order=5), st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_reciprocal_round_trip_random(tail, unit):
    s = with_unit_constant(tail, unit)
    assert s * s.reciprocal() == one(tail.order)


# -- packed keys against a schoolbook reference ----------------------------

WIDE = 500  # widest z- and y-exponent drawn


def schoolbook_mul(a, b):
    """Tuple-keyed product of every pair of terms, truncated."""
    out = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            key = tuple(u + v for u, v in zip(ka, kb))
            if key[0] <= a.order:
                out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def wide_series(order, max_size):
    """Series with x-exponents up to the order, others up to WIDE."""
    deg, wide = st.integers(0, order), st.integers(0, WIDE)
    return st.dictionaries(st.tuples(deg, wide, wide), st.integers(-9, 9),
                           max_size=max_size).map(
        lambda d: TruncatedSeries(order, d))


def wide_pairs(order, max_size):
    return st.tuples(wide_series(order, max_size),
                     wide_series(order, max_size))


def with_unit_constant(s, unit):
    """s with constant term `unit` and no other x-degree-0 term."""
    body = {k: c for k, c in s.coeffs.items() if k[0] >= 1}
    body[(0, 0, 0)] = unit
    return TruncatedSeries(s.order, body)


@given(wide_pairs(order=6, max_size=8))
@settings(max_examples=80, deadline=None)
def test_mul_matches_schoolbook_wide_exponents(pair):
    a, b = pair
    s = a * b
    assert s.coeffs == schoolbook_mul(a, b)
    assert list(s.coeffs) == sorted(s.coeffs)


@given(wide_pairs(order=5, max_size=5), st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_divide_round_trip_wide_exponents(pair, unit):
    n, tail = pair
    d = with_unit_constant(tail, unit)
    q = n / d
    assert q * d == n
    assert schoolbook_mul(q, d) == n.coeffs
    assert list(q.coeffs) == sorted(q.coeffs)


def test_divide_field_width_rounds_slope_up():
    # z^3 per x^2 grows z faster than one per x: 1/(1 - x^2 z^3) reaches
    # z^9 at x^6, and has no term at odd x-degrees
    d = 1 - make_monomial(6, 2, 3, 0)
    assert (one(6) / d).coeffs == {
        (2 * j, 3 * j, 0): 1 for j in range(4)}


def test_divide_keeps_sparse_rows_sparse():
    # 1 / (1 - x z - x z^W) has g + 1 terms at x^g, W apart in z: a row
    # stored as a list over its m-range would hold about g * W entries
    wide = 10**6
    d = 1 - make_monomial(8, 1, 1, 0) - make_monomial(8, 1, wide, 0)
    tracemalloc.start()
    try:
        q = one(8) / d
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.coeffs == {(g, g - j + j * wide, 0): comb(g, j)
                        for g in range(9) for j in range(g + 1)}
    assert len(q.coeffs) == 45
    assert peak < 2**20


def test_divide_dict_row_keeps_its_bounds():
    # q_1 = z + z^7 spans the order 6; q_2 is solved over m = 2..14,
    # wider than the order, and its far terms cancel down to z^2, which
    # the rows q_2 feeds must read as it is.
    d = 1 - make_monomial(6, 1, 1, 0) - make_monomial(6, 1, 7, 0)
    num = (1 - make_monomial(6, 2, 8, 0, 2) - make_monomial(6, 2, 14, 0))
    q = num / d
    assert {k: c for k, c in q.coeffs.items() if k[0] <= 2} == {
        (0, 0, 0): 1, (1, 1, 0): 1, (1, 7, 0): 1, (2, 2, 0): 1}
    assert q.coeffs[(3, 3, 0)] == 1
    assert q * d == num
    assert schoolbook_mul(q, d) == num.coeffs


@pytest.mark.parametrize("w", [7, 8])
def test_divide_rows_either_side_of_the_order(w):
    # at order 6, w = 7 makes the degree-1 row span exactly the order and
    # every later row wider; w = 8 makes every row wider than the order
    d = 1 - make_monomial(6, 1, 1, 0) - make_monomial(6, 1, w, 0)
    q = one(6) / d
    assert q.coeffs == {(g, g - j + w * j, 0): comb(g, j)
                        for g in range(7) for j in range(g + 1)}
    assert list(q.coeffs) == sorted(q.coeffs)


def test_wide_exponent_fixed_cases():
    big = make_monomial(3, 2, 100, 0)
    d = 1 - make_monomial(3, 1, 499, 500) + make_monomial(3, 2, 0, 7)
    assert (big * d).coeffs == schoolbook_mul(big, d)
    assert (big / d) * d == big
    assert (d / d) == one(3)


# -- large coefficients on dense y-rows ------------------------------------

BIG = 2**120  # largest coefficient magnitude drawn


def dense_series(order, max_rows):
    """Series made of (n, m) rows, each filling y^0..y^R densely with
    coefficients up to BIG in magnitude."""
    row = st.tuples(st.integers(0, order), st.integers(0, 6),
                    st.lists(st.integers(-BIG, BIG), min_size=1,
                             max_size=12))
    return st.lists(row, max_size=max_rows).map(
        lambda rows: TruncatedSeries(order, {
            (n, m, r): c for n, m, cs in rows for r, c in enumerate(cs)}))


@given(dense_series(order=6, max_rows=6), dense_series(order=6, max_rows=6))
@settings(max_examples=60, deadline=None)
def test_mul_matches_schoolbook_big_dense(a, b):
    s = a * b
    assert s.coeffs == schoolbook_mul(a, b)
    assert list(s.coeffs) == sorted(s.coeffs)


@given(dense_series(order=5, max_rows=5), dense_series(order=5, max_rows=4),
       st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_divide_round_trip_big_dense(n, tail, unit):
    d = with_unit_constant(tail, unit)
    q = n / d
    assert schoolbook_mul(q, d) == n.coeffs
    assert list(q.coeffs) == sorted(q.coeffs)


@pytest.mark.parametrize("c", [3, 255, 2**64 - 1, 2**120 - 1, 2**120],
                         ids=["3", "255", "2^64-1", "2^120-1", "2^120"])
def test_coefficients_at_their_bound(c):
    # every quotient below reaches the majorant |num| / (1 - |t|) at
    # x = z = y = 1 in some coefficient, and the product reaches the
    # product of the absolute sums; signs alternate where t has a
    # negative term
    order = 6
    xy, xz = make_monomial(order, 1, 0, 1), make_monomial(order, 1, 1, 0)
    degrees = range(order + 1)
    assert (one(order) / (1 + c * xy)).coeffs == {
        (g, 0, g): (-c) ** g for g in degrees}
    assert (c * one(order) / (1 + xy)).coeffs == {
        (g, 0, g): c * (-1) ** g for g in degrees}
    for sign in (1, -1):
        q = one(order) / (1 - sign * c * xy - c * xz)
        assert q.coeffs == {(g, g - j, j): comb(g, j) * (sign * c) ** j
                            * c ** (g - j)
                            for g in degrees for j in range(g + 1)}
    assert (c * xy) * (-c * xy) == make_monomial(order, 2, 0, 2, -c * c)
    assert (c * xy) * (c * xy) == make_monomial(order, 2, 0, 2, c * c)


# -- one-term factors --------------------------------------------------------

def one_term(order):
    """c x^a z^b y^e with |c| up to BIG and x^a within the order."""
    return st.builds(lambda a, b, e, c: make_monomial(order, a, b, e, c),
                     st.integers(0, order), st.integers(0, WIDE),
                     st.integers(0, WIDE),
                     st.integers(-BIG, BIG).filter(bool))


@given(one_term(6), dense_series(order=6, max_rows=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_one_term_factor_matches_schoolbook(t, s, t_first):
    a, b = (t, s) if t_first else (s, t)
    assert (a * b).coeffs == schoolbook_mul(a, b)


def test_one_term_shift_at_and_past_the_order():
    s = one(6) + mono(2, 1, 0, 5, order=6) + mono(4, 0, 3, -7, order=6)
    lands_on = mono(2, 3, 1, -2, order=6)  # takes x^4 onto the order
    assert (lands_on * s).coeffs == schoolbook_mul(lands_on, s) == {
        (2, 3, 1): -2, (4, 4, 1): -10, (6, 3, 4): 14}
    past = mono(3, 0, 0, order=6)  # takes x^4 past it, to x^7
    assert (s * past).coeffs == {(3, 0, 0): 1, (5, 1, 0): 5}
    assert mono(6, 0, 0, order=6) * mono(1, 0, 0, order=6) == zero(6)
    with pytest.raises(GradingMismatchError):
        past * mono(1, 0, 0)


def test_one_term_times_one_term():
    a, b = mono(1, 2, 3, -BIG), mono(4, 5, 6, BIG + 1)
    assert (a * b).coeffs == {(5, 7, 9): -BIG * (BIG + 1)}
    assert (a * b).coeffs == schoolbook_mul(a, b)


@given(dense_series(order=6, max_rows=6))
@settings(max_examples=40, deadline=None)
def test_one_is_the_identity(s):
    assert one(6) * s == s
    assert s * one(6) == s


# -- repr --------------------------------------------------------------------

def test_repr_of_zero_and_constants():
    assert repr(zero(3)) == "TruncatedSeries(order=3, 0)"
    assert repr(one(3)) == "TruncatedSeries(order=3, 1)"
    assert repr(mono(0, 0, 0, -7, order=5)) == "TruncatedSeries(order=5, -7)"


def test_repr_writes_unit_coefficients_and_first_powers_bare():
    # coefficient 1 and -1 drop the digit, others are written with "*";
    # an exponent of 1 drops "^1"; terms come in (n, m, r) order
    s = (mono(3, 2, 0, 5, order=6) + mono(0, 0, 0, 2, order=6)
         + mono(1, 1, 0, -1, order=6) + mono(1, 0, 0, order=6)
         + mono(2, 1, 1, -3, order=6) + mono(4, 0, 2, -1, order=6))
    assert repr(s) == ("TruncatedSeries(order=6, 2 + x - x*z - "
                       "3*x^2*z*y + 5*x^3*z^2 - x^4*y^2)")
    # a leading negative term keeps its sign attached
    assert repr(mono(1, 1, 0, -1, order=6) + mono(2, 0, 0, -4, order=6)) \
        == "TruncatedSeries(order=6, -x*z - 4*x^2)"


def test_repr_shows_eight_terms_then_the_count():
    geometric = [(1 - mono(1, 0, 0, order=n)).reciprocal() for n in (7, 12)]
    powers = " + ".join(["1", "x"] + [f"x^{e}" for e in range(2, 8)])
    assert repr(geometric[0]) == f"TruncatedSeries(order=7, {powers})"
    assert repr(geometric[1]) == \
        f"TruncatedSeries(order=12, {powers} + ... (13 terms))"


# -- graded_quotient ---------------------------------------------------------

# (s, P, A, periods) grades, P in powers of y - 1: signed multi-term P
# with coefficients up to C (in y: c - 3y + y^3, -c + 5y, c y^2, 1,
# -1 + 2^70 y, 1 - c y, -2 + y and c); no period, one period with run
# ends +k and -k (as in 111 over k repeated parts), several periods, a
# repeated one and one past order 9, over signed multi-term A
def graded_t(c, z_exp):
    return [(1 * z_exp, [c - 2, 0, 3, 1], [0, 1, 0, -2], ()),
            (2 * z_exp, [5 - c, 5],
             [0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 7], (2,)),
            (3 * z_exp, [c, 2 * c, c], [0, 0, 0, 4, 0, 0, -4], (3,)),
            (4 * z_exp, [1], [0, 0, 1, 0, -1, 0, 1, 0, 0, 0, 0, -1], (2,)),
            (5 * z_exp, [2**70 - 1, 2**70], [0, 0, 0, 0, 0, 1], ()),
            (2 * z_exp, [1 - c, -c], [0, 1, -1, 0, 2], (1, 2, 3)),
            (1 * z_exp, [-1, 1], [0, 0, 0, 1, -3], (2, 2, 5)),
            (3 * z_exp, [c], [0, 1, 1], (1, 12))]


@pytest.mark.parametrize("z_exp", [0, 1])
@pytest.mark.parametrize("c", [1, 2**70])
@pytest.mark.parametrize("order", [0, 1, 9])
def test_graded_quotient_matches_division(order, c, z_exp):
    # against one / (1 - t) and num / (1 - t) with the grades summed as
    # series and the periods divided out by /: the same terms in the
    # same order; each side's grades collapsed at y = 0, z = 1 give that
    # quotient's image
    t = graded_t(c, z_exp)
    # P in y: 1, c - y and 1 + y
    num = [(0, [1], [1], ()), (2 * z_exp, [c - 1, -1], [0, 2, 0, -c], (3,)),
           (z_exp, [2, 1], [1, 0, -2], (1, 1, 4))]
    den = 1 - graded_series(t, order)
    for top, want in ((ONE, one(order) / den),
                      (num, graded_series(num, order) / den)):
        got = graded_quotient(top, t, order)
        assert got == want
        assert list(got.coeffs) == list(want.coeffs)
        assert graded_quotient([image_grade(top, order)],
                               [image_grade(t, order)], order) \
            == substitute_z1(substitute_y0(want))


def test_graded_quotient_reads_a_grade_up_to_the_order():
    # terms and periods past the order add nothing
    t = graded_t(2**70, 1)
    past = [*t, (1, [1], [0] * 7 + [5], ()), (2, [3], [0] * 7 + [1], (7,))]
    assert graded_quotient(ONE, past, 6) == graded_quotient(ONE, t, 6)
    cut = [(s, poly, (a + [0] * 4)[:5], p) for s, poly, a, p in t]
    longer = [(s, poly, a + [9] * 5, p) for s, poly, a, p in cut]
    assert graded_quotient(ONE, longer, 4) == graded_quotient(ONE, cut, 4)


# P in powers of y - 1 with several levels, signed and up to 2^70; a
# factor 1 - sum C z^e x^p with C drawn the same way, or an int period
levels = st.lists(st.integers(-3, 3) | st.sampled_from([2**70, -2**70]),
                  min_size=1, max_size=4)
factors = st.lists(st.tuples(levels.map(tuple), st.integers(0, 2),
                             st.integers(1, 3)), min_size=1, max_size=2)


def drawn_grades(order, periods, x_free):
    """Lists of (s, P, A, periods) grades at z^0 .. z^3 (so that rows
    hold several slots), A dense and signed, with an x-degree-0 term only
    if x_free is False."""
    a = st.lists(st.integers(-3, 3), min_size=1, max_size=order + 1)
    return st.lists(st.tuples(
        st.integers(0, 3), levels, a.map(lambda a: [0] + a) if x_free else a,
        st.lists(periods, max_size=2).map(tuple)), max_size=4)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_graded_quotient_matches_division_on_drawn_grades(data):
    # against num / (1 - t) with the grades summed as series and every
    # period and factor divided out by /: the same terms in the same order
    order = data.draw(st.integers(0, 6))
    num = data.draw(drawn_grades(order, st.integers(1, 4), False))
    t = data.draw(drawn_grades(
        order, st.integers(1, 4) | factors.map(tuple), True))
    want = graded_series(num, order) / (1 - graded_series(t, order))
    got = graded_quotient(num, t, order)
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)


@given(st.integers(1, 2**70), st.sampled_from([1, -1]), st.integers(0, 3),
       st.integers(1, 3), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_graded_quotient_fills_its_width(c, sign, r, d, order):
    # one grade z (+-c y^r) x^d, P in powers of y - 1: q's terms (+-c)^k
    # reach the majorant itself, so the largest fills the packing width
    # (its bit length is the width less the sign bit) and a looser ||P||_1
    # than that of P in y would widen it
    t = [(1, in_ym1([0] * r + [sign * c]), [0] * d + [1], ())]
    widths, unrows = [], TruncatedSeries._unrows
    with patch.object(TruncatedSeries, "_unrows", lambda self, rows, width:
                      widths.append(width) or unrows(self, rows, width)):
        got = graded_quotient(ONE, t, order)
    assert got == one(order) / (1 - graded_series(t, order))
    assert max(map(abs, got.coeffs.values())).bit_length() == widths[0] - 1


# -- graded_quotient over factors 1 - sum C(y) z^e x^p ------------------------

def part_factor(a, z_exp):
    """111's factor for a part a: 1 - (y-1) (z x^a + z^2 x^{2a})."""
    return ((0, 1), z_exp, a), ((0, 1), 2 * z_exp, 2 * a)


def part_grades(a, z_exp, count=1):
    """111's two grades of a part a taken count times, over its factor:
    count z x^a and count (1 - y) z^2 x^{2a}."""
    factor = part_factor(a, z_exp)
    return [(z_exp, [count], [0] * a + [1], (factor,)),
            (2 * z_exp, [0, -count], [0] * (2 * a) + [1], (factor,))]


# (s, P, A, periods) grades over factors: one factor shared by two grades
# (111's part 1), the same factor repeated (part 1 again, as with two
# letters of size 1) and scaled (parts 2 and 3, whose majorants are read
# from part 1's expansion), factors with signed multi-term C carrying y
# and z (in y: 2 - c y + y^2, -y^2, 5, 1 + y and -3), a term past order
# 9 and factors mixed with int periods on either side; P in y: c + y,
# -1 + 2y and 1 - c y
def factor_t(c, z_exp):
    signed = (((3 - c, 2 - c, 1), z_exp, 2), ((-1, -2, -1), 0, 3),
              ((5,), 2 * z_exp, 12))
    mixed = (((2, 1), 2 * z_exp, 1), ((-3,), z_exp, 4))
    return [*part_grades(1, z_exp), *part_grades(1, z_exp),
            *part_grades(2, z_exp, 3), *part_grades(3, z_exp),
            (2 * z_exp, [c + 1, 1], [0, 1, 0, -2], (signed,)),
            (z_exp, [1, 2], [0, 0, 1, 1], (3, mixed)),
            (3 * z_exp, [1 - c, -c], [0, 0, 0, 1], (mixed, 2, signed))]


@pytest.mark.parametrize("z_exp", [0, 1])
@pytest.mark.parametrize("c", [1, 2**70])
@pytest.mark.parametrize("order", [0, 1, 2, 9])
def test_graded_quotient_over_factors_matches_division(order, c, z_exp):
    # against one / (1 - t) and num / (1 - t) with the grades summed as
    # series and each factor divided out by /: the same terms in the same
    # order, alone and with the plain-period grades; the grades collapsed
    # at y = 0, z = 1 give that quotient's image
    t = factor_t(c, z_exp)
    num = [(0, [1], [1], ()), (z_exp, [2, 1], [1, 0, -2], (1, 1, 4))]
    for grades in (t, t + graded_t(c, z_exp)):
        den = 1 - graded_series(grades, order)
        for top, want in ((ONE, one(order) / den),
                          (num, graded_series(num, order) / den)):
            got = graded_quotient(top, grades, order)
            assert got == want
            assert list(got.coeffs) == list(want.coeffs)
            assert graded_quotient([image_grade(top, order)],
                                   [image_grade(grades, order)], order) \
                == substitute_z1(substitute_y0(want))


def test_graded_quotient_refuses_a_factor_of_x_degree_0():
    # a factor term without x would leave the x-truncated ring, in the
    # solver and in the image; num's grades take int periods only
    for factor in ((((1,), 1, 0),), (((0, 1), 1, 2), ((1,), 0, 0))):
        grade = [(1, [1], [0, 1], (factor,))]
        with pytest.raises(NormalizationError):
            graded_quotient(ONE, grade, 5)
        with pytest.raises(NormalizationError):
            image_grade(grade, 5)
    with pytest.raises(ValueError):
        graded_quotient([(0, [1], [1], (part_factor(1, 1),))], [], 5)


# -- run-term grades: a sum over weights as period grades ---------------------

def substituted(term, exps):
    """sum over (a, e) in exps of term(x^a z^e), term's keys (k, k, r)."""
    out = zero(term.order)
    for a, e in exps:
        out = out + TruncatedSeries(term.order, {
            (a * k, e * k, r): c for (k, _, r), c in term.coeffs.items()})
    return out


def run_grades(term, exps):
    """The same sum as grades: z^{e k} T_k(y) sum_a x^{a k}, the sum over
    the weights given by its run ends (+c at a, -c past a run of c equal
    exponents a) with period k; T_k in powers of y - 1."""
    ends = {}
    for a, _ in exps:
        ends[a] = ends.get(a, 0) + 1
        ends[a + 1] = ends.get(a + 1, 0) - 1
    e = exps[0][1] if exps else 0
    order = term.order
    grades = []
    for k in range(1, order + 1):
        xs = [0] * (order + 1)
        for a, dc in ends.items():
            if a * k <= order:
                xs[a * k] += dc
        grades.append((e * k, in_ym1([term.coefficient(k, k, r)
                                      for r in range(4)]), xs, (k,)))
    return grades


@pytest.mark.parametrize("exps", [
    [], [(1, 1)], [(1, 0), (2, 0), (2, 0), (4, 0)], [(2, 2), (3, 2), (9, 2)],
    [(1, 1), (2, 1), (3, 1), (5, 1), (6, 1)]])
@pytest.mark.parametrize("c", [1, 2**70])
def test_run_reciprocal_matches_division(exps, c):
    # signed, multi-term T_k with large coefficients, as period grades (at
    # z^0 too, where the grades share one m): the solver agrees with
    # dividing by 1 - sum of the substituted terms, keys in order
    order = 9
    term = TruncatedSeries(order, {(1, 1, 0): c, (1, 1, 2): -3,
                                   (2, 2, 1): -c, (3, 3, 0): 5,
                                   (5, 5, 3): c})
    got = graded_quotient(ONE, run_grades(term, exps), order)
    want = one(order) / (1 - substituted(term, exps))
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)


def test_run_reciprocal_rejects_other_inputs():
    # a grade with an x-degree-0 term (directly or through its periods)
    # would leave the integer ring
    for a, p in (([1, 1], ()), ([2], (3,)), ([-1, 0, 1], (1, 2, 2))):
        with pytest.raises(NormalizationError):
            graded_quotient(ONE, [(1, [1], a, p)], 5)
