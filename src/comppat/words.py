"""Occurrence statistics for words over a k-letter alphabet.

A word is a composition whose letters all weigh x z, so a word series is
an ordinary x-truncated :class:`~comppat.series.TruncatedSeries` whose
coefficient of x^m z^m y^r counts words in {1..k}^m with exactly r
occurrences of the statistic: every key is (m, m, r), and the truncation
at order N keeps the words of length <= N.  In the formulas below, z
stands for the weight x z of one letter.

:func:`word_gf` dispatches to the paper's closed forms in k
(:func:`w111_closed`, :func:`w112_closed`, :func:`w123_closed`,
:func:`w_peak_closed`); 112/221 and peak/valley share a form through the
complement i -> k+1-i on {1..k}.  Each form gives the grades of its
numerator and denominator (as in :mod:`comppat.genfun`) to
:func:`graded.graded_quotient`; 123's and peak's are the builders' grades
at closed-form selection counts over {1..k}.  Every loop is bounded by
the truncation order, so the cost is flat in k.
"""

from __future__ import annotations

from math import comb

from .genfun import _ONE, _grades_123, _grades_alternating, _level
from .graded import graded_quotient
from .patterns import PatternId
from .series import TruncatedSeries


def word_gf(p: PatternId, k: int, order: int) -> TruncatedSeries:
    """Occurrence series for statistic p over {1..k}, from its closed form."""
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    return _CLOSED[p](k, order)


def word_table(series: TruncatedSeries) -> dict[tuple[int, int], int]:
    """(m, r) -> count view of a word series, for oracle comparison."""
    table = {}
    for (n, m, r), c in series.coeffs.items():
        if n != m:
            raise ValueError(f"word series key {(n, m, r)} has an "
                             "x-exponent other than its length")
        table[(m, r)] = c
    return table


def _z(m: int, c: int = 1) -> list[int]:
    """c x^m as an x-series: with the z^m of its grade, m letters."""
    return [0] * m + [c]


def w111_closed(k: int, order: int) -> TruncatedSeries:
    """111 over {1..k}: the builder's factor D = 1 + (1-y) z (1 + z) of
    one part of size 1 (b = z), with its k equal parts merged over that
    one denominator: 1 / (1 - k T(z)) = D / (D - k z (1 + (1-y) z)),
    which is

        (1 + z(1+z)(1-y)) / (1 - (k-1+y) z - (k-1)(1-y) z^2).
    """
    num = [*_ONE, (1, _level(1, -1), _z(1), ()),
           (2, _level(1, -1), _z(2), ())]
    # k - 1 + y = k + (y - 1)
    t = [(1, [k, 1], _z(1), ()), (2, _level(1, 1 - k), _z(2), ())]
    return graded_quotient(num, t, order)


def w112_closed(k: int, order: int) -> TruncatedSeries:
    """112 (equivalently 221) over {1..k}: the builder's guard products
    are powers of g = 1 - (1-y)z^2, so its sum is geometric; in closed
    form, (1-y)z / ((1-y)z - 1 + g^k).  The zero constant term of that
    denominator cancels against (1-y)z, which leaves, with g^k expanded
    binomially,

        1 / (1 - sum_{j=1}^{k} C(k, j) (y-1)^{j-1} z^{2j-1}).
    """
    return graded_quotient(_ONE, [
        (2 * j - 1, _level(j - 1, comb(k, j)), _z(2 * j - 1), ())
        for j in range(1, min(k, (order + 1) // 2) + 1)],
        order)


def w123_closed(k: int, order: int) -> TruncatedSeries:
    """123 over {1..k}: the builder's grades at t^p([k]) = C(k, p) z^p
    for p <= min(k, order) (longer selections vanish under truncation):

        1 / (1 - k z - sum_{p=3}^{k} sum_{j=0}^{p-3}
                 C(p-3, j) C(k, p+j) z^{p+j} (y-1)^{p-2}).
    """
    t = [_z(p, comb(k, p)) for p in range(min(k, order) + 1)]
    return graded_quotient(*_grades_123(t), order)


def w_peak_closed(k: int, order: int) -> TruncatedSeries:
    """peak (equivalently valley) over {1..k}: the builder's grades at
    M^s([k]) = N^s([k]) = C(k-1+ceil(s/2), s) z^s for s <= min(order, 2k-1)
    (M^s([k]) = 0 from s = 2k on):

        N / (N - sum_{j>=0} z^{2j+1} (1-y)^j C(k+j, 2j+1)),
        N = sum_{j>=0} z^{2j} (1-y)^j C(k-1+j, 2j).
    """
    m = [_z(s, comb(k - 1 + (s + 1) // 2, s))
         for s in range(min(order, 2 * k - 1) + 1)]
    return graded_quotient(*_grades_alternating(m, m), order)


_CLOSED = {
    PatternId.P111: w111_closed,
    PatternId.P112: w112_closed,
    PatternId.P221: w112_closed,
    PatternId.P123: w123_closed,
    PatternId.PEAK: w_peak_closed,
    PatternId.VALLEY: w_peak_closed,
}
