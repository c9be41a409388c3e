"""Closed-form generating functions for the six 3-letter statistics.

:func:`build_gf` returns the trivariate series whose coefficient of
x^n z^m y^r counts compositions of n with m parts in A and exactly r
occurrences of the statistic, truncated at a given x-order.  In the paper
each statistic's series is N / D with D = 1 - sum_s z^s P_s(y) A_s(x):
the sums over part selections A_s hold no y, and at each selection size s
the occurrences enter through one fixed y-polynomial P_s.  Every
occurrence is marked by y, so P_s is a power of y - 1 (``_level``) or,
for 123, a short sum of them.  Each builder in ``_GRADES`` returns these
pieces as grades (``graded.Grade``), N's and those of 1 - D, built as
plain int lists with each P_s in powers of y - 1, and
:func:`graded.graded_quotient` solves the quotient.

Over the naturals every selection sum is a q-product x^c / prod_p (1 - x^p)
(Andrews, The Theory of Partitions, Thm 3.3; cross-checked by
``identities.nat_closed_forms``).  So :func:`build_gf` gives each grade of
1 - D the periods of that denominator (``_PERIODS``), and the solver runs
each period as one running sum instead of convolving with the dense A_s;
:func:`_q_product` keeps them only where they cost less.  111 is the
paper's sum of one term per part, T(x^a z): its two grades per part carry
that term's denominator as a factor on every part set, which the solver
runs as a recurrence with steps of y - 1.

The builders see the parts only as a list of sizes in increasing order
(word series may pass one part of size 1 per letter).
:func:`avoidance_sequence` collapses each side's grades into one at
y := 0, z := 1 (:func:`graded.image_grade`) and solves that quotient.

The naturals are handled by materializing A = {1..order}: parts larger than
the truncation order cannot appear in any composition that survives the
truncation, so this is exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb
from operator import sub

from .graded import Grade, graded_quotient, image_grade
from .patterns import PartSet, PatternId, check_parts
from .series import TruncatedSeries

Parts = Sequence[int]
# the numerator 1 as a list of grades
_ONE: list[Grade] = [(0, [1], [1], ())]


def _parts(A, order: int) -> tuple[int, ...]:
    """The parts of A (a PartSet or any iterable of parts, possibly empty)
    up to the order, in increasing order: a part a weighs x^a, so larger
    parts contribute nothing below the truncation."""
    if isinstance(A, PartSet):
        return A.materialize(order)
    return tuple(a for a in check_parts(A) if a <= order)


# ---------------------------------------------------------------------------
# int-list pieces: a y-polynomial or an x-series is the list of its
# coefficients, lowest degree first; an x-series has length order + 1
# ---------------------------------------------------------------------------

def _add_shifted(dst: list[int], src: list[int], a: int) -> None:
    """dst += x^a src, truncated to dst's length."""
    for d, c in enumerate(src[:max(len(dst) - a, 0)], a):
        if c:
            dst[d] += c


def _level(e: int, a: int = 1) -> list[int]:
    """a (y - 1)^e, in powers of y - 1."""
    return [0] * e + [a]


def _t_lists(parts: Parts, order: int) -> list[list[int]]:
    """t^p for p = 0, 1, ...: sums of x^{a_{i_1}+...+a_{i_p}} over
    strictly increasing index tuples, via the suffix recursion
    t^p(A_k) = t^p(A_{k+1}) + x^{a_{k+1}} t^{p-1}(A_{k+1}).

    Trailing zero entries are pruned, so len(result) - 1 is the largest p
    with a nonzero selection below the truncation.
    """
    t = [[1] + [0] * order]
    for a in reversed(parts):
        t.append([0] * (order + 1))
        for p in range(len(t) - 1, 0, -1):
            _add_shifted(t[p], t[p - 1], a)
        while len(t) > 1 and not any(t[-1]):
            t.pop()
    return t


def _mn_lists(parts: Parts, order: int,
             ) -> tuple[list[list[int]], list[list[int]]]:
    """M^s and N^s for s = 0, 1, ... by the joint suffix recursion.

    M^s sums prod_j x^{a_{i_j}} over index tuples with the alternating
    constraints i1 < i2 <= i3 < i4 <= ... ; N^s over i1 <= i2 < i3 <= ...
    Growing the set by a new smallest part a:

        M^s <- x^a N^{s-1}_old + M^s_old     (split on whether the tuple
        N^s <- x^a M^{s-1}_new + N^s_old      starts at the new part)
    """
    m = [[1] + [0] * order]
    n = [[1] + [0] * order]
    for a in reversed(parts):
        # indices may repeat across weak constraints, so each new part can
        # lengthen the longest nonzero tuple by two (e.g. N^2({a}) = x^2a)
        for sums in (m, n):
            sums.extend(([0] * (order + 1), [0] * (order + 1)))
        for s in range(1, len(m)):
            _add_shifted(m[s], n[s - 1], a)
        for s in range(1, len(n)):
            _add_shifted(n[s], m[s - 1], a)
        while len(m) > 1 and not any(m[-1]) and not any(n[-1]):
            m.pop()
            n.pop()
    return m, n


# ---------------------------------------------------------------------------
# builders
#
# Each builder takes the parts and the order and returns the grades of
# N and of 1 - D; a grade z^s P(y) A(x) / prod_p (1 - x^p) is
# (s, P, A, periods).
# ---------------------------------------------------------------------------

def _grades_111(parts: Parts, order: int):
    """111 (level + level): 1 / (1 - sum over the parts a of T(x^a z)),
    with one run term for every part (the run substitution; Flajolet &
    Sedgewick, Analytic Combinatorics, Ex. III.24),

        T(b) = b (1 + (1-y) b) / (1 + (1-y) b (1 + b)).

    A part a, taken c times, gives the grades c z x^a and c (1-y) z^2
    x^{2a} over the one factor D_a = 1 - (y-1) (z x^a + z^2 x^{2a}), so
    the solver multiplies its rows by c and y - 1, never by T's dense
    coefficients.
    """
    counts: dict[int, int] = {}
    for a in parts:
        counts[a] = counts.get(a, 0) + 1
    grades = []
    for a, c in counts.items():
        factor = (((0, 1), 1, a), ((0, 1), 2, 2 * a))  # C = y - 1
        grades += [(1, [c], [0] * a + [1], (factor,)),
                   (2, _level(1, -c), [0] * (2 * a) + [1], (factor,))]
    return _ONE, grades


def _grades_level(parts: Parts, order: int, mirrored: bool):
    """112 (level + rise):

    1 / (1 - sum_j x^{a_j} z * prod_{i<j} (1 - (1-y) x^{2 a_i} z^2)),

    221 (level + drop), ``mirrored``, is its mirror with the guard product
    over the parts larger than a_j.  Expanding the product, grade 1 + 2g
    is (y-1)^g sum_j x^{a_j} e_g, where e_g sums the products of g guard
    terms x^{2 a_i} over the parts passed.
    """
    guards = [[1] + [0] * order]  # e_0, e_1, ... of the parts passed
    sums: list[list[int]] = []
    for a in (reversed(parts) if mirrored else parts):
        for g, e in enumerate(guards):
            if g == len(sums):
                sums.append([0] * (order + 1))
            _add_shifted(sums[g], e, a)
        guards.append([0] * (order + 1))
        for g in range(len(guards) - 1, 0, -1):
            _add_shifted(guards[g], guards[g - 1], 2 * a)
        if not any(guards[-1]):
            guards.pop()
    return _ONE, [(1 + 2 * g, _level(g), xs, ()) for g, xs in enumerate(sums)]


def _grades_123(t: list[list[int]]):
    """123 (rise + rise) from the selection sums t^s:

    1 / (1 - t^1(A) - sum_{p>=3} sum_{j=0}^{p-3} C(p-3, j) t^{p+j}(A)
                         (y-1)^{p-2}),

    so grade s >= 3 is P_s t^s with P_s = sum_p C(p-3, s-p) (y-1)^{p-2}.
    """
    grades = [(1, [1], t[1], ())] if len(t) > 1 else []
    for s in range(3, len(t)):
        poly = [0] * ((s + 4) // 2 - 2)
        poly += [comb(p - 3, s - p) for p in range((s + 4) // 2, s + 1)]
        grades.append((s, poly, t[s], ()))
    return _ONE, grades


def _grades_alternating(m: list[list[int]], n: list[list[int]],
                        valley: bool = False):
    """peak (rise + drop) from the tuple sums M^s (m) and N^s (n):

        (1 + sum_{j>=1} M^{2j} (1-y)^j)
        / (1 + sum_{j>=1} M^{2j} (1-y)^j - sum_{j>=0} M^{2j+1} (1-y)^j);

    valley (drop + rise), ``valley``, has N^{2j+1} replacing M^{2j+1}.
    len(m) - 1 is the longest tuple length that enters.
    """
    top = len(m) - 1
    odd = n if valley else m
    evens = [(2 * j, _level(j, (-1) ** j), m[2 * j], ())
             for j in range(top // 2 + 1)]
    return evens, (
        [(s, [-c for c in poly], xs, ()) for s, poly, xs, _ in evens[1:]]
        + [(2 * j + 1, _level(j, (-1) ** j), odd[2 * j + 1], ())
           for j in range((top + 1) // 2)])


def _q_product(a: list[int], periods: Sequence[int],
               order: int) -> tuple[list[int], tuple[int, ...]]:
    """The x-series A as (B, periods) with A = B / prod_p (1 - x^p), when
    B's terms plus one running sum per period are fewer than A's terms,
    and as (A, ()) otherwise (see graded.graded_quotient).

    Over the naturals B is one term, x^c (identities.nat_closed_forms);
    a sparse A, such as one selection sum of k letters, stays as it is
    without B being formed, since B has at least one term.
    """
    periods = tuple(p for p in periods if p <= order)
    terms = len(a) - a.count(0)
    if terms <= len(periods) + 1:
        return a, ()
    b = a[:order + 1]
    for p in periods:  # b *= 1 - x^p
        b[p:] = map(sub, b[p:], b[:-p])
    if len(b) - b.count(0) + len(periods) < terms:
        return b, periods
    return a, ()


def _up_to(s: int) -> range:
    """1, ..., s: (x;x)_s, the denominator of t^s, M^s and N^s."""
    return range(1, s + 1)


_GRADES = {
    PatternId.P111: _grades_111,
    PatternId.P112: lambda parts, order: _grades_level(parts, order, False),
    PatternId.P221: lambda parts, order: _grades_level(parts, order, True),
    PatternId.P123: lambda parts, order: _grades_123(_t_lists(parts, order)),
    PatternId.PEAK: lambda parts, order: _grades_alternating(
        *_mn_lists(parts, order)),
    PatternId.VALLEY: lambda parts, order: _grades_alternating(
        *_mn_lists(parts, order), valley=True),
}
# The periods of nat's denominator for grade s of 1 - D (111's grades
# carry their factor themselves).  For 112 and 221, s = 1 + 2g:
#   112: x^{(g+1)^2} / prod_{i<=g} (1 - x^{2i+1}),
#   221: x^{g^2+3g+1} / ((1 - x^{2g+1}) prod_{1<=i<=g} (1 - x^{2i})).
_PERIODS = {
    PatternId.P112: lambda s: range(1, s + 1, 2),
    PatternId.P221: lambda s: (*range(2, s, 2), s),
    PatternId.P123: _up_to,
    PatternId.PEAK: _up_to,
    PatternId.VALLEY: _up_to,
}


def _solver_grades(p: PatternId, parts: Parts, order: int):
    """_GRADES[p] with each grade s of 1 - D over _PERIODS[p](s) where that
    is cheaper; N's grades are read one term per degree and stay dense."""
    num, t = _GRADES[p](parts, order)
    if periods := _PERIODS.get(p):
        t = [(s, poly, *_q_product(a, periods(s), order))
             for s, poly, a, _ in t]
    return num, t


def _check_counts(series: TruncatedSeries) -> TruncatedSeries:
    # Builder outputs are counting series: every coefficient must be a
    # nonnegative count even though (y-1)-expansions go negative inside.
    if min(series.coeffs.values(), default=0) < 0:
        raise RuntimeError("builder produced a negative coefficient")
    return series


def build_gf(p: PatternId, A, order: int) -> TruncatedSeries:
    """The closed-form counting series for statistic p over A."""
    return _check_counts(graded_quotient(
        *_solver_grades(p, _parts(A, order), order), order))


def avoidance_sequence(p: PatternId, A, order: int) -> list[int]:
    """Counts of p-avoiding compositions of n = 0..order with parts in A.

    Collapses each side's grades at y := 0, z := 1 into one and solves
    that quotient; one dense grade has no use for the periods of
    ``_PERIODS``, so they are not attached.  Both substitutions are ring homomorphisms of the
    x-truncated ring, so this gives the same values as substituting on
    the full trivariate series (the test suite checks this).
    """
    num, t = _GRADES[p](_parts(A, order), order)
    series = graded_quotient([image_grade(num, order)],
                             [image_grade(t, order)], order)
    return [series.coefficient(n, 0, 0) for n in range(order + 1)]
