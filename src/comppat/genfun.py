"""Closed-form generating functions for the six 3-letter statistics.

:func:`build_gf` returns the trivariate series whose coefficient of
x^n z^m y^r counts compositions of n with m parts in A and exactly r
occurrences of the statistic, truncated at a given x-order; each
statistic's series is one numerator/denominator pair from ``_NUM_DEN``.
:func:`avoidance_sequence` specializes the pair to y := 0, z := 1 before
the single inversion.

The naturals are handled by materializing A = {1..order}: parts larger than
the truncation order cannot appear in any composition that survives the
truncation, so this is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .patterns import PartSet, PatternId, check_parts
from .series import Grading, TruncatedSeries, make_monomial, one, zero


@dataclass(frozen=True)
class _Ctx:
    """Grading context shared by all builders.

    Under ``Grading.X`` a part a contributes the monomial x^a z; under
    ``Grading.Z`` (word series) it contributes plain z, realizing x := 1
    structurally instead of by substitution on a truncated series.
    """

    grading: Grading
    order: int

    def one(self) -> TruncatedSeries:
        return one(self.grading, self.order)

    def zero(self) -> TruncatedSeries:
        return zero(self.grading, self.order)

    def part(self, a: int) -> TruncatedSeries:
        x_deg = a if self.grading is Grading.X else 0
        return make_monomial(self.grading, self.order, x_deg, 1, 0, 1)

    def y(self) -> TruncatedSeries:
        return make_monomial(self.grading, self.order, 0, 0, 1, 1)

    def one_minus_y(self) -> TruncatedSeries:
        return self.one() - self.y()

    def powers(self, base: TruncatedSeries,
               top: int) -> list[TruncatedSeries]:
        """[base^0, ..., base^top]."""
        powers = [self.one()]
        for _ in range(top):
            powers.append(powers[-1] * base)
        return powers


def _materialize(A, ctx: _Ctx) -> tuple[int, ...]:
    """Parts relevant at this x-truncation, as a strictly increasing tuple.

    Accepts a PartSet or any iterable of parts (possibly empty, for the
    degenerate bases of the recursions).  Parts beyond the order are
    dropped: every appearance of a part a carries weight x^a, so such
    parts contribute nothing below the truncation.
    """
    if isinstance(A, PartSet):
        return A.materialize(ctx.order)
    return tuple(a for a in check_parts(A) if a <= ctx.order)


# ---------------------------------------------------------------------------
# numerator / denominator pairs
#
# Every statistic's series is num/den with den of constant term 1.  Keeping
# the two halves separate lets the y and z specializations (which are ring
# homomorphisms) happen before the single expensive inversion.
# ---------------------------------------------------------------------------

def _num_den_111(parts: Sequence[int], ctx: _Ctx):
    """111 (level + level):

    1 / (1 - sum over a in A of x^a z (1 + (1-y) x^a z)
                                / (1 + x^a z (1 + x^a z)(1-y))).
    """
    unit = ctx.one()
    total = ctx.zero()
    for a in parts:
        numer, denom = _term_111(ctx.part(a), ctx)
        total = total + numer / denom
    return unit, unit - total


def _term_111(b: TruncatedSeries, ctx: _Ctx):
    """Numerator and denominator of one part's term in the 111 sum,
    b (1 + (1-y) b) / (1 + b (1+b) (1-y)), for the part weight b."""
    unit = ctx.one()
    omy = ctx.one_minus_y()
    return b * (unit + omy * b), unit + b * (unit + b) * omy


def _num_den_level(parts: Sequence[int], ctx: _Ctx, mirrored: bool):
    """112 (level + rise):

    1 / (1 - sum_j x^{a_j} z * prod_{i<j} (1 - (1-y) x^{2 a_i} z^2)).

    221 (level + drop), ``mirrored``, is its mirror with the guard product
    over the parts larger than a_j.
    """
    unit = ctx.one()
    omy = ctx.one_minus_y()
    prod = unit
    total = ctx.zero()
    for a in (reversed(parts) if mirrored else parts):
        b = ctx.part(a)
        total = total + b * prod
        prod = prod * (unit - omy * b * b)
    return unit, unit - total


def _t_polys(parts: Sequence[int], ctx: _Ctx) -> list[TruncatedSeries]:
    """t^p for p = 0, 1, ...: sums of z^p x^{a_{i_1}+...+a_{i_p}} over
    strictly increasing index tuples, via the suffix recursion
    t^p(A_k) = t^p(A_{k+1}) + x^{a_{k+1}} z t^{p-1}(A_{k+1}).

    Trailing zero entries are pruned, so len(result) - 1 is the largest p
    with a nonzero selection below the truncation.
    """
    t = [ctx.one()]
    for a in reversed(parts):
        b = ctx.part(a)
        t.append(ctx.zero())
        for p in range(len(t) - 1, 0, -1):
            t[p] = t[p] + b * t[p - 1]
        while len(t) > 1 and not t[-1]:
            t.pop()
    return t


def _den_123(t: list[TruncatedSeries], ctx: _Ctx) -> TruncatedSeries:
    top = len(t) - 1
    den = ctx.one()
    if top >= 1:
        den = den - t[1]
    ym1 = ctx.powers(ctx.y() - ctx.one(), max(top - 2, 0))
    for p in range(3, top + 1):
        for j in range(p - 2):
            if p + j > top:
                break
            den = den - comb(p - 3, j) * t[p + j] * ym1[p - 2]
    return den


def _num_den_123(parts: Sequence[int], ctx: _Ctx):
    """123 (rise + rise):

    1 / (1 - t^1(A) - sum_{p>=3} sum_{j=0}^{p-3} C(p-3, j) t^{p+j}(A)
                         (y-1)^{p-2}).
    """
    return ctx.one(), _den_123(_t_polys(parts, ctx), ctx)


def _mn_polys(parts: Sequence[int], ctx: _Ctx,
              ) -> tuple[list[TruncatedSeries], list[TruncatedSeries]]:
    """M^s and N^s for s = 0, 1, ... by the joint suffix recursion.

    M^s sums prod_j x^{a_{i_j}} z over index tuples with the alternating
    constraints i1 < i2 <= i3 < i4 <= ... ; N^s over i1 <= i2 < i3 <= ...
    Growing the set by a new smallest part a (with weight b = x^a z):

        M^s <- b * N^{s-1}_old + M^s_old     (split on whether the tuple
        N^s <- b * M^{s-1}_new + N^s_old      starts at the new part)
    """
    m = [ctx.one()]
    n = [ctx.one()]
    zero_s = ctx.zero()
    for a in reversed(parts):
        b = ctx.part(a)
        # indices may repeat across weak constraints, so each new part can
        # lengthen the longest nonzero tuple by two (e.g. N^2({a}) = b^2)
        m.extend((zero_s, zero_s))
        n.extend((zero_s, zero_s))
        new_m = [ctx.one()]
        for s in range(1, len(m)):
            new_m.append(b * n[s - 1] + m[s])
        new_n = [ctx.one()]
        for s in range(1, len(n)):
            new_n.append(b * new_m[s - 1] + n[s])
        m, n = new_m, new_n
        while len(m) > 1 and not m[-1] and not n[-1]:
            m.pop()
            n.pop()
    return m, n


def _num_den_peak_valley(parts: Sequence[int], ctx: _Ctx, valley: bool):
    """peak (rise + drop):

        (1 + sum_{j>=1} M^{2j} (1-y)^j)
        / (1 + sum_{j>=1} M^{2j} (1-y)^j - sum_{j>=0} M^{2j+1} (1-y)^j).

    valley (drop + rise), ``valley``, has the same numerator with N^{2j+1}
    replacing M^{2j+1} in the denominator.
    """
    m, n = _mn_polys(parts, ctx)
    return _num_den_alternating(m, n if valley else m, ctx)


def _num_den_alternating(m: list[TruncatedSeries],
                         odd: list[TruncatedSeries], ctx: _Ctx):
    """The peak/valley pair from the tuple sums: M^{2j} from m for the
    numerator, and the odd-length sums (M for peak, N for valley) from
    odd; len(m) - 1 is the longest tuple length that enters."""
    top = len(m) - 1
    omy_pow = ctx.powers(ctx.one_minus_y(), top // 2)
    num = ctx.one()
    for j in range(1, top // 2 + 1):
        num = num + m[2 * j] * omy_pow[j]
    sub = ctx.zero()
    for j in range((top + 1) // 2):
        sub = sub + odd[2 * j + 1] * omy_pow[j]
    return num, num - sub


_NUM_DEN = {
    PatternId.P111: _num_den_111,
    PatternId.P112: lambda parts, ctx: _num_den_level(parts, ctx, False),
    PatternId.P221: lambda parts, ctx: _num_den_level(parts, ctx, True),
    PatternId.P123: _num_den_123,
    PatternId.PEAK: lambda parts, ctx: _num_den_peak_valley(parts, ctx,
                                                            False),
    PatternId.VALLEY: lambda parts, ctx: _num_den_peak_valley(parts, ctx,
                                                              True),
}


def _check_counts(series: TruncatedSeries) -> TruncatedSeries:
    # Builder outputs are counting series: every coefficient must be a
    # nonnegative count even though (y-1)-expansions go negative inside.
    if any(c < 0 for c in series.coeffs.values()):
        raise RuntimeError("builder produced a negative coefficient")
    return series


def build_gf(p: PatternId, A, order: int) -> TruncatedSeries:
    """The closed-form counting series for statistic p over A."""
    ctx = _Ctx(Grading.X, order)
    num, den = _NUM_DEN[p](_materialize(A, ctx), ctx)
    return _check_counts(num / den)


def avoidance_sequence(p: PatternId, A, order: int) -> list[int]:
    """Counts of p-avoiding compositions of n = 0..order with parts in A.

    Sets y := 0 and z := 1 in the builder.  Both substitutions are ring
    homomorphisms of the x-truncated ring, so applying them to numerator
    and denominator before the final inversion gives the same values as
    substituting on the full trivariate series (the test suite checks
    this), while keeping the inversion univariate.
    """
    ctx = _Ctx(Grading.X, order)
    num, den = _NUM_DEN[p](_materialize(A, ctx), ctx)
    num0 = num.substitute_y0().substitute_z1()
    den0 = den.substitute_y0().substitute_z1()
    series = num0 / den0
    return [series.coefficient(n, 0, 0) for n in range(order + 1)]
