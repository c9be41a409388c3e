"""Series operations that only the tests need.

The package has no production caller for these, so they live here: the
y := 0, z := 1 and y := 1 substitutions (the avoiders' projection of a
full series, and the y-free composition series the builders must reduce
to), re-truncation to a smaller order, and the series of a list of
grades.
"""

from comppat.series import TruncatedSeries, make_monomial, one


def substitute_y0(s: TruncatedSeries) -> TruncatedSeries:
    """Set y := 0, i.e. keep only the occurrence-free (r = 0) terms."""
    return TruncatedSeries(s.order, {k: c for k, c in s.coeffs.items()
                                     if k[2] == 0})


def substitute_z1(s: TruncatedSeries) -> TruncatedSeries:
    """Set z := 1, i.e. forget the number of parts by summing over m."""
    out = {}
    for (n, _m, r), c in s.coeffs.items():
        out[(n, 0, r)] = out.get((n, 0, r), 0) + c
    return TruncatedSeries(s.order, out)


def substitute_y1(s: TruncatedSeries) -> TruncatedSeries:
    """Set y := 1, i.e. forget the statistic by summing over r."""
    out = {}
    for (n, m, _r), c in s.coeffs.items():
        out[(n, m, 0)] = out.get((n, m, 0), 0) + c
    return TruncatedSeries(s.order, out)


def truncate(s: TruncatedSeries, order: int) -> TruncatedSeries:
    """s re-truncated at a smaller (or equal) order; the constructor drops
    the terms beyond it."""
    if order > s.order:
        raise ValueError(f"cannot extend truncation order {s.order} "
                         f"to {order}")
    return TruncatedSeries(order, s.coeffs)


def graded_series(grades, order: int) -> TruncatedSeries:
    """The sum of z^s P(y) A(x) / prod over the periods of their factors
    over the (s, P, A, periods) grades as one series, each factor divided
    out with ``/``: 1 - x^p for an int period p, and
    1 - sum C(y) z^e x^p for a tuple of terms (C, e, p)."""
    out = TruncatedSeries(order)
    for s, poly, a, periods in grades:
        term = TruncatedSeries(order, {
            (n, s, r): c * v for n, v in enumerate(a)
            for r, c in enumerate(poly)})
        for period in periods:
            if isinstance(period, int):
                term = term / (one(order) - make_monomial(order, period, 0, 0))
                continue
            den = one(order)
            for cs, e, p in period:
                den = den - TruncatedSeries(
                    order, {(p, e, r): c for r, c in enumerate(cs)})
            term = term / den
        out = out + term
    return out
