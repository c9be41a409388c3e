"""Closed-form generating functions for the six 3-letter statistics.

:func:`build_gf` returns the trivariate series whose coefficient of
x^n z^m y^r counts compositions of n with m parts in A and exactly r
occurrences of the statistic, truncated at a given x-order; each
statistic's series is one numerator/denominator pair from ``_NUM_DEN``.
:func:`avoidance_sequence` specializes the pair to y := 0, z := 1 before
the single inversion.

The builders see the parts only through their weights: the ordered list
of monomials b_i, one per part.  A part a weighs x^a z.  Word series
(:mod:`comppat.words`) run the same formulas with every letter weighing
x z, so x and z both mark the length and the keys are (m, m, r).

The naturals are handled by materializing A = {1..order}: parts larger than
the truncation order cannot appear in any composition that survives the
truncation, so this is exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .patterns import PartSet, PatternId, check_parts
from .series import TruncatedSeries, make_monomial, one, zero

Weights = Sequence[TruncatedSeries]  # one monomial per part, in part order


def _weights(A, order: int) -> list[TruncatedSeries]:
    """The weights x^a z of the parts relevant at this x-truncation, in
    increasing order of a.

    Accepts a PartSet or any iterable of parts (possibly empty, for the
    degenerate bases of the recursions).  Parts beyond the order are
    dropped: every appearance of a part a carries weight x^a, so such
    parts contribute nothing below the truncation.
    """
    if isinstance(A, PartSet):
        parts = A.materialize(order)
    else:
        parts = tuple(a for a in check_parts(A) if a <= order)
    return [make_monomial(order, a, 1, 0) for a in parts]


def _one_minus_y(order: int) -> TruncatedSeries:
    return one(order) - make_monomial(order, 0, 0, 1)


def powers(base: TruncatedSeries, top: int) -> list[TruncatedSeries]:
    """[base^0, ..., base^top]."""
    out = [one(base.order)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


# ---------------------------------------------------------------------------
# numerator / denominator pairs
#
# Every statistic's series is num/den with den of constant term 1.  Keeping
# the two halves separate lets the y and z specializations (which are ring
# homomorphisms) happen before the single expensive inversion.
# ---------------------------------------------------------------------------

def _num_den_111(weights: Weights, order: int):
    """111 (level + level):

    1 / (1 - sum over a in A of x^a z (1 + (1-y) x^a z)
                                / (1 + x^a z (1 + x^a z)(1-y))).
    """
    unit = one(order)
    total = zero(order)
    for b in weights:
        numer, denom = _term_111(b)
        total = total + numer / denom
    return unit, unit - total


def _term_111(b: TruncatedSeries):
    """Numerator and denominator of one part's term in the 111 sum,
    b (1 + (1-y) b) / (1 + b (1+b) (1-y)), for the part weight b."""
    unit = one(b.order)
    omy = _one_minus_y(b.order)
    return b * (unit + omy * b), unit + b * (unit + b) * omy


def _num_den_level(weights: Weights, order: int, mirrored: bool):
    """112 (level + rise):

    1 / (1 - sum_j x^{a_j} z * prod_{i<j} (1 - (1-y) x^{2 a_i} z^2)).

    221 (level + drop), ``mirrored``, is its mirror with the guard product
    over the parts larger than a_j.
    """
    unit = one(order)
    omy = _one_minus_y(order)
    prod = unit
    total = zero(order)
    for b in (reversed(weights) if mirrored else weights):
        total = total + b * prod
        prod = prod * (unit - omy * b * b)
    return unit, unit - total


def _t_polys(weights: Weights, order: int) -> list[TruncatedSeries]:
    """t^p for p = 0, 1, ...: sums of z^p x^{a_{i_1}+...+a_{i_p}} over
    strictly increasing index tuples, via the suffix recursion
    t^p(A_k) = t^p(A_{k+1}) + x^{a_{k+1}} z t^{p-1}(A_{k+1}).

    Trailing zero entries are pruned, so len(result) - 1 is the largest p
    with a nonzero selection below the truncation.
    """
    t = [one(order)]
    for b in reversed(weights):
        t.append(zero(order))
        for p in range(len(t) - 1, 0, -1):
            t[p] = t[p] + b * t[p - 1]
        while len(t) > 1 and not t[-1]:
            t.pop()
    return t


def _den_123(t: list[TruncatedSeries], order: int) -> TruncatedSeries:
    top = len(t) - 1
    den = one(order)
    if top >= 1:
        den = den - t[1]
    ym1 = powers(make_monomial(order, 0, 0, 1) - 1, max(top - 2, 0))
    for p in range(3, top + 1):
        # the terms of one p share (y-1)^(p-2): sum them, then multiply once
        group = t[p]
        for j in range(1, min(p - 2, top - p + 1)):
            group = group + comb(p - 3, j) * t[p + j]
        den = den - group * ym1[p - 2]
    return den


def _num_den_123(weights: Weights, order: int):
    """123 (rise + rise):

    1 / (1 - t^1(A) - sum_{p>=3} sum_{j=0}^{p-3} C(p-3, j) t^{p+j}(A)
                         (y-1)^{p-2}).
    """
    return one(order), _den_123(_t_polys(weights, order), order)


def _mn_polys(weights: Weights, order: int,
              ) -> tuple[list[TruncatedSeries], list[TruncatedSeries]]:
    """M^s and N^s for s = 0, 1, ... by the joint suffix recursion.

    M^s sums prod_j x^{a_{i_j}} z over index tuples with the alternating
    constraints i1 < i2 <= i3 < i4 <= ... ; N^s over i1 <= i2 < i3 <= ...
    Growing the set by a new smallest part a (with weight b = x^a z):

        M^s <- b * N^{s-1}_old + M^s_old     (split on whether the tuple
        N^s <- b * M^{s-1}_new + N^s_old      starts at the new part)
    """
    unit = one(order)
    zero_s = zero(order)
    m = [unit]
    n = [unit]
    for b in reversed(weights):
        # indices may repeat across weak constraints, so each new part can
        # lengthen the longest nonzero tuple by two (e.g. N^2({a}) = b^2)
        m.extend((zero_s, zero_s))
        n.extend((zero_s, zero_s))
        new_m = [unit]
        for s in range(1, len(m)):
            new_m.append(b * n[s - 1] + m[s])
        new_n = [unit]
        for s in range(1, len(n)):
            new_n.append(b * new_m[s - 1] + n[s])
        m, n = new_m, new_n
        while len(m) > 1 and not m[-1] and not n[-1]:
            m.pop()
            n.pop()
    return m, n


def _num_den_peak_valley(weights: Weights, order: int, valley: bool):
    """peak (rise + drop):

        (1 + sum_{j>=1} M^{2j} (1-y)^j)
        / (1 + sum_{j>=1} M^{2j} (1-y)^j - sum_{j>=0} M^{2j+1} (1-y)^j).

    valley (drop + rise), ``valley``, has the same numerator with N^{2j+1}
    replacing M^{2j+1} in the denominator.
    """
    m, n = _mn_polys(weights, order)
    return _num_den_alternating(m, n if valley else m, order)


def _num_den_alternating(m: list[TruncatedSeries],
                         odd: list[TruncatedSeries], order: int):
    """The peak/valley pair from the tuple sums: M^{2j} from m for the
    numerator, and the odd-length sums (M for peak, N for valley) from
    odd; len(m) - 1 is the longest tuple length that enters."""
    top = len(m) - 1
    omy_pow = powers(_one_minus_y(order), top // 2)
    num = one(order)
    for j in range(1, top // 2 + 1):
        num = num + m[2 * j] * omy_pow[j]
    sub = zero(order)
    for j in range((top + 1) // 2):
        sub = sub + odd[2 * j + 1] * omy_pow[j]
    return num, num - sub


_NUM_DEN = {
    PatternId.P111: _num_den_111,
    PatternId.P112: lambda weights, order: _num_den_level(weights, order,
                                                          False),
    PatternId.P221: lambda weights, order: _num_den_level(weights, order,
                                                          True),
    PatternId.P123: _num_den_123,
    PatternId.PEAK: lambda weights, order: _num_den_peak_valley(
        weights, order, False),
    PatternId.VALLEY: lambda weights, order: _num_den_peak_valley(
        weights, order, True),
}


def _check_counts(series: TruncatedSeries) -> TruncatedSeries:
    # Builder outputs are counting series: every coefficient must be a
    # nonnegative count even though (y-1)-expansions go negative inside.
    if any(c < 0 for c in series.coeffs.values()):
        raise RuntimeError("builder produced a negative coefficient")
    return series


def build_gf(p: PatternId, A, order: int) -> TruncatedSeries:
    """The closed-form counting series for statistic p over A."""
    num, den = _NUM_DEN[p](_weights(A, order), order)
    return _check_counts(num / den)


def avoidance_sequence(p: PatternId, A, order: int) -> list[int]:
    """Counts of p-avoiding compositions of n = 0..order with parts in A.

    Sets y := 0 and z := 1 in the builder.  Both substitutions are ring
    homomorphisms of the x-truncated ring, so applying them to numerator
    and denominator before the final inversion gives the same values as
    substituting on the full trivariate series (the test suite checks
    this), while keeping the inversion univariate.
    """
    num, den = _NUM_DEN[p](_weights(A, order), order)
    num0 = num.substitute_y0().substitute_z1()
    den0 = den.substitute_y0().substitute_z1()
    series = num0 / den0
    return [series.coefficient(n, 0, 0) for n in range(order + 1)]
