"""Occurrence statistics for words over a k-letter alphabet.

A word series is a z-graded :class:`~comppat.series.TruncatedSeries` whose
coefficient of z^m y^r counts words in {1..k}^m with exactly r occurrences
of the statistic; no x-exponent ever appears.

The primary route, :func:`word_gf`, dispatches to the paper's closed forms
in k (:func:`w111_closed`, :func:`w112_closed`, :func:`w123_closed`,
:func:`w_peak_closed`); 112/221 and peak/valley share a form through the
complement i -> k+1-i on {1..k}.  Every loop in these forms is bounded by
the truncation order, so their cost is flat in k.  Rerunning the
composition builders with x := 1,
``genfun.build_gf(p, range(1, k + 1), order, grading=Grading.Z)``, and the
alternative 123 forms (:func:`w123_chebyshev`, :func:`w123_avoid_aj`) are
cross-checks only.
"""

from __future__ import annotations

from .genfun import choose
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
    return num * den.reciprocal()


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
        den = den + _z(order, 2 * j - 1, 0, sign * choose(k, j)) * omy_pow
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
            c = choose(p - 3, j) * choose(k, p + j)
            if c:
                den = den - c * _z(order, p + j) * ym1_pow[p - 2]
    return den.reciprocal()


def u_poly(n: int) -> list[int]:
    """Coefficients in y of the n-th polynomial of the family

        U_0 = U_1 = 1,
        U_{2n}   = (1-y) U_{2n-1} - U_{2n-2},
        U_{2n+1} = U_{2n} - U_{2n-1}.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    prev, cur = [1], [1]  # U_0, U_1
    if n == 0:
        return prev
    for i in range(2, n + 1):
        if i % 2 == 0:
            # (1-y) * cur - prev
            nxt = cur + [0]
            for j, c in enumerate(cur):
                nxt[j + 1] -= c
            for j, c in enumerate(prev):
                nxt[j] -= c
        else:
            nxt = list(cur) + [0] * (len(prev) - len(cur))
            for j, c in enumerate(prev):
                nxt[j] -= c
        while nxt and nxt[-1] == 0:
            nxt.pop()
        prev, cur = cur, (nxt or [0])
    return cur


def _poly_to_series(coeffs: list[int], order: int) -> TruncatedSeries:
    return TruncatedSeries(Grading.Z, order,
                           {(0, 0, r): c for r, c in enumerate(coeffs)})


def u_poly_generating_function(order: int) -> TruncatedSeries:
    """sum_n U_n(y) z^n = (1 + z + z^2) / (1 + (1+y) z^2 + z^4)."""
    unit = one(Grading.Z, order)
    z = _z(order)
    y = _z(order, 0, 1)
    num = unit + z + z * z
    den = unit + (unit + y) * z * z + (z * z) * (z * z)
    return num * den.reciprocal()


def w123_chebyshev(k: int, order: int) -> TruncatedSeries:
    """123 over {1..k} through the U-polynomial recurrence:

        1 / (1 - k z - sum_{j=3}^{k} (-z)^j C(k, j)
                            (1-y)^{floor(j/2)} U_{j-3}(y)).
    """
    unit = one(Grading.Z, order)
    omy = unit - _z(order, 0, 1)
    den = unit - _z(order, 1, 0, k)
    for j in range(3, k + 1):
        if j > order:
            break
        sign = 1 if j % 2 == 0 else -1
        term = _z(order, j, 0, sign * choose(k, j))
        term = term * omy ** (j // 2)
        term = term * _poly_to_series(u_poly(j - 3), order)
        den = den - term
    return den.reciprocal()


def w123_avoid_aj(k: int, order: int) -> TruncatedSeries:
    """123-avoiding words over {1..k} (the y = 0 slice) via the periodic
    coefficient form 1 / sum_{j=0}^k a_j C(k, j) z^j with a_{3l} = 1,
    a_{3l+1} = -1, a_{3l+2} = 0.
    """
    den = zero(Grading.Z, order)
    for j in range(0, k + 1):
        if j > order:
            break
        a = (1, -1, 0)[j % 3]
        if a:
            den = den + _z(order, j, 0, a * choose(k, j))
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
        c_even = choose(k - 1 + j, 2 * j)
        if c_even:
            num = num + _z(order, 2 * j, 0, c_even) * omy_pow
        if 2 * j + 1 <= order:
            c_odd = choose(k + j, 2 * j + 1)
            if c_odd:
                sub = sub + _z(order, 2 * j + 1, 0, c_odd) * omy_pow
        if c_even == 0 and choose(k + j, 2 * j + 1) == 0:
            break
        omy_pow = omy_pow * omy
        j += 1
    return num * (num - sub).reciprocal()


_CLOSED = {
    PatternId.P111: w111_closed,
    PatternId.P112: w112_closed,
    PatternId.P221: w112_closed,
    PatternId.P123: w123_closed,
    PatternId.PEAK: w_peak_closed,
    PatternId.VALLEY: w_peak_closed,
}
