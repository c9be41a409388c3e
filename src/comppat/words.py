"""Occurrence statistics for words over a k-letter alphabet.

A word series is a z-graded :class:`~comppat.series.TruncatedSeries` whose
coefficient of z^m y^r counts words in {1..k}^m with exactly r occurrences
of the statistic; no x-exponent ever appears.

:func:`word_gf` dispatches to the paper's closed forms in k
(:func:`w111_closed`, :func:`w112_closed`, :func:`w123_closed`,
:func:`w_peak_closed`); 112/221 and peak/valley share a form through the
complement i -> k+1-i on {1..k}.  Every loop in these forms is bounded by
the truncation order, so their cost is flat in k.
"""

from __future__ import annotations

from math import comb

from .patterns import PatternId
from .series import Grading, TruncatedSeries, make_monomial, one, zero


def word_gf(p: PatternId, k: int, order: int) -> TruncatedSeries:
    """Occurrence series for statistic p over {1..k}, from its closed form."""
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    return _CLOSED[p](k, order)


def word_table(series: TruncatedSeries) -> dict[tuple[int, int], int]:
    """(m, r) -> count view of a word series, for oracle comparison."""
    if any(n for (n, _m, _r) in series.coeffs):
        raise ValueError("word series has an x-exponent")
    return {(m, r): c for (n, m, r), c in series.coeffs.items()}


def _z(order: int, m: int = 1, r: int = 0, c: int = 1) -> TruncatedSeries:
    return make_monomial(Grading.Z, order, 0, m, r, c)


def w111_closed(k: int, order: int) -> TruncatedSeries:
    """111 over {1..k} in closed form:

        (1 + z(1+z)(1-y)) / (1 - (k-1+y) z - (k-1)(1-y) z^2).
    """
    unit = one(Grading.Z, order)
    z = _z(order)
    y = _z(order, 0, 1)
    omy = unit - y
    num = unit + z * (unit + z) * omy
    den = unit - (k - 1) * z - y * z - (k - 1) * omy * z * z
    return num / den


def w112_closed(k: int, order: int) -> TruncatedSeries:
    """112 (equivalently 221) over {1..k}.

    The raw closed form (1-y)z / ((1-y)z - 1 + (1 - (1-y)z^2)^k) has a
    zero constant term in the denominator; factoring (1-y)z out of it
    leaves the unit-constant equivalent used here:

        1 / (1 - k z + sum_{j=2}^{k} (-1)^j C(k, j) (1-y)^{j-1} z^{2j-1}).
    """
    unit = one(Grading.Z, order)
    omy = unit - _z(order, 0, 1)
    den = unit - _z(order, 1, 0, k)
    omy_pow = omy  # (1-y)^{j-1}, starting at j = 2
    for j in range(2, k + 1):
        if 2 * j - 1 > order:
            break
        sign = 1 if j % 2 == 0 else -1
        den = den + _z(order, 2 * j - 1, 0, sign * comb(k, j)) * omy_pow
        omy_pow = omy_pow * omy
    return den.reciprocal()


def w123_closed(k: int, order: int) -> TruncatedSeries:
    """123 over {1..k} via the selection-count form (t^p([k]) = C(k,p) z^p):

        1 / (1 - k z - sum_{p=3}^{k} sum_{j=0}^{p-3}
                 C(p-3, j) C(k, p+j) z^{p+j} (y-1)^{p-2}).
    """
    unit = one(Grading.Z, order)
    den = unit - _z(order, 1, 0, k)
    # Terms of z-degree p + j > order vanish under truncation, so only
    # p <= min(k, order) contributes.
    top = min(k, order)
    ym1_pow = [unit]
    ym1 = _z(order, 0, 1) - unit
    for _ in range(max(top - 2, 0)):
        ym1_pow.append(ym1_pow[-1] * ym1)
    for p in range(3, top + 1):
        for j in range(p - 2):
            if p + j > order:
                break
            c = comb(p - 3, j) * comb(k, p + j)
            if c:
                den = den - c * _z(order, p + j) * ym1_pow[p - 2]
    return den.reciprocal()


def w_peak_closed(k: int, order: int) -> TruncatedSeries:
    """peak (equivalently valley) over {1..k}:

        N / (N - sum_{j>=0} z^{2j+1} (1-y)^j C(k+j, 2j+1)),
        N = sum_{j>=0} z^{2j} (1-y)^j C(k-1+j, 2j).
    """
    unit = one(Grading.Z, order)
    omy = unit - _z(order, 0, 1)
    num = zero(Grading.Z, order)
    sub = zero(Grading.Z, order)
    omy_pow = unit
    j = 0
    while 2 * j <= order:
        c_even = comb(k - 1 + j, 2 * j)
        if c_even:
            num = num + _z(order, 2 * j, 0, c_even) * omy_pow
        if 2 * j + 1 <= order:
            c_odd = comb(k + j, 2 * j + 1)
            if c_odd:
                sub = sub + _z(order, 2 * j + 1, 0, c_odd) * omy_pow
        if c_even == 0 and comb(k + j, 2 * j + 1) == 0:
            break
        omy_pow = omy_pow * omy
        j += 1
    return num / (num - sub)


_CLOSED = {
    PatternId.P111: w111_closed,
    PatternId.P112: w112_closed,
    PatternId.P221: w112_closed,
    PatternId.P123: w123_closed,
    PatternId.PEAK: w_peak_closed,
    PatternId.VALLEY: w_peak_closed,
}
