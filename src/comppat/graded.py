"""Quotients of z-graded sums: q = sum(num) / (1 - sum(t)).

The builders give num and t as grades, terms z^s P(y) A(x) / prod of
factors with int lists P and A, P listing its coefficients in powers of
y - 1 (every occurrence is marked by y, so a grade's P is a power of
y - 1 or a short sum of them).  A factor is 1 - x^p for a period p,
applied as one running sum over the rows of q, or
1 - sum_j C_j(y) z^e_j x^p_j, C_j in powers of y - 1 too, applied as a
recurrence (111's per-part denominator D_a, with C_j = y - 1, under
the part's one grade (y - 1) z^3 x^{3a}; the parts' level-0 grade
z A(x) takes the period 1 over the naturals); either is shared by the
grades whose factors start alike.  At each x-degree the
grades of t are added level by level in y - 1 by Horner's rule, so a
row is multiplied only by ints and by y - 1, a shift and a subtract.
Over the naturals every selection sum is a q-product with a one-term A.
q is packed, one int per (n, m) row at the width of the exact majorant
(:func:`series._quotient_width`), and read back as balanced digits by
:meth:`series.TruncatedSeries._unrows`, so its keys come out in
ascending (n, m, r) order.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from itertools import compress
from math import gcd
from operator import add

from .series import NormalizationError, TruncatedSeries, _quotient_width

# (s, P, A, periods): the term z^s P(y) A(x) / prod of the periods' factors
# of a graded sum, A a list of int coefficients (of x-degree <= order) and
# P the list of the int a_e of P = sum_e a_e (y - 1)^e.  A period is
# an int p >= 1, the factor 1 - x^p, or a Factor, the factor
# 1 - sum_j C_j(y) z^e_j x^p_j given by its terms (C_j, e_j, p_j), C_j a
# tuple of ints in powers of y - 1 like P and p_j >= 1; the periods are
# () for a dense A
Factor = tuple[tuple[tuple[int, ...], int, int], ...]
Grade = tuple[int, Sequence[int], Sequence[int], tuple["int | Factor", ...]]
# a slice (lo, [values at m = lo, lo + 1, ...]) of packed y-polynomials
Slice = tuple[int, list[int]]


def _pack(poly: Sequence[int], width: int) -> int:
    """P = sum_e poly[e] (y - 1)^e at y = 2**width, by Horner's rule."""
    v = 0
    for a in reversed(poly):
        v = (v << width) - v + a
    return v


def _in_y(poly: Sequence[int]) -> list[int]:
    """P's coefficients in y, lowest first, each at most sum_e |a_e| 2^e:
    P packed at a width that holds them, plus half a field in each field,
    so that every field reads as its coefficient plus that half."""
    width = max(map(abs, poly)).bit_length() + len(poly) + 1
    mask, half = (1 << width) - 1, 1 << (width - 1)
    v = _pack(poly, width) + half * ((1 << width * len(poly)) - 1) // mask
    return [(v >> width * r & mask) - half for r in range(len(poly))]


def _norm(poly: Sequence[int]) -> int:
    """||P||_1, the sum of |coefficient| of P in y: |a| 2^e for one level
    a (y - 1)^e."""
    if len(poly) - list(poly).count(0) > 1:
        return sum(map(abs, _in_y(poly)))
    return sum(abs(a) << e for e, a in enumerate(poly))


def _at_0(poly: Sequence[int]) -> int:
    """P(0) = sum_e a_e (-1)^e."""
    return sum(poly[::2]) - sum(poly[1::2])


def _times(poly: Sequence[int], vec: list[int], width: int) -> list[int]:
    """P x at y = 2**width for each packed x in vec, by Horner's rule:
    v (y - 1) is (v << width) - v."""
    out = vec if poly[-1] == 1 else [poly[-1] * x for x in vec]
    for a in poly[-2::-1]:
        out = ([(v << width) - v + a * x for v, x in zip(out, vec)] if a
               else [(v << width) - v for v in out])
    return out


def _exponents(period: "int | Factor") -> list[int]:
    """The x-exponents of a period's factor, its constant term left out."""
    return [period] if isinstance(period, int) else [p for _, _, p in period]


def _live(periods: tuple, order: int) -> tuple:
    """The periods up to the order, a factor without its terms past the
    order (and left out with none left); a period with an x-degree-0 term
    raises NormalizationError."""
    out = []
    for period in periods:
        if isinstance(period, int):
            low = period
            if period <= order:
                out.append(period)
        else:
            low = min(_exponents(period), default=1)
            if live := tuple(term for term in period
                             if term[2] <= order and any(term[0])):
                out.append(live)
        if low < 1:
            raise NormalizationError(
                f"period {period} has x-degree 0; normalize it before solving")
    return tuple(out)


def _unfold(a: Sequence[int], periods: tuple, order: int) -> list[int]:
    """A(x) / prod over the periods as a list of length order + 1, each
    factor read at y = 0, z = 1."""
    c = list(a[:order + 1]) + [0] * (order + 1 - len(a))
    for period in periods:
        if isinstance(period, int):
            for i in range(period, order + 1):
                c[i] += c[i - period]
        else:
            terms = [(v, p) for cy, _, p in period if (v := _at_0(cy))]
            for i in range(order + 1):
                c[i] += sum([v * c[i - p] for v, p in terms if p <= i])
    return c


def _coarse(exponents, periods: tuple) -> tuple[int, tuple]:
    """(g, the periods over x^g) for g the gcd of the given x-exponents
    and of the periods' ones (1 if there are none)."""
    g = gcd(*exponents, *(p for period in periods
                          for p in _exponents(period))) or 1
    if g == 1:
        return 1, periods
    return g, tuple(p // g if isinstance(p, int) else
                    tuple((c, e, q // g) for c, e, q in p) for p in periods)


def _negated_product(a: Sequence[int], b: Sequence[int]) -> tuple:
    """-(a b) for two polynomials in y - 1, by convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] -= u * v
    return tuple(out)


def _factor_sums(groups: dict, order: int) -> list[int]:
    """The sums of |coefficient| per x-degree of each group's quotient
    sum z^s P(y) A(x) / prod over its periods, added up: each expanded
    exactly by :func:`graded_quotient`, its grades over their int periods
    as num and the product of its factors as t, once for the groups that
    agree over x^g."""
    shared: dict = {}
    for periods, grades in groups.items():
        g, periods = _coarse([d for _, _, a in grades
                              for d in compress(range(len(a)), a)], periods)
        key = tuple((s, tuple(poly), tuple(a[::g]))
                    for s, poly, a in grades), periods
        shared.setdefault(key, []).append(g)
    sums = [0] * (order + 1)
    for (grades, periods), gs in shared.items():
        top = order // min(gs)
        ints = tuple(p for p in periods if isinstance(p, int))
        # -prod of the factors as (C, e, p) terms: 1 - sum(t) is the
        # product, so t is every term past the constant -1
        prod = [((-1,), 0, 0)]
        for factor in periods:
            if not isinstance(factor, int):
                prod += [(_negated_product(c0, c), e0 + e, p0 + p)
                         for c0, e0, p0 in prod for c, e, p in factor
                         if p0 + p <= top]
        expansion = graded_quotient(
            [(s, poly, a, ints) for s, poly, a in grades],
            [(e, c, [0] * p + [1], ()) for c, e, p in prod[1:]],
            top)._abs_sums()
        for g in gs:
            sums[::g] = map(add, sums[::g], expansion)
    return sums


def _slice_sum(a: Slice, b: Slice) -> Slice:
    """a + b as a new slice over the union of their m-ranges."""
    if len(a[1]) < len(b[1]):
        a, b = b, a
    (a_lo, av), (b_lo, bv) = a, b
    lo = min(a_lo, b_lo)
    vec = [0] * (max(a_lo + len(av), b_lo + len(bv)) - lo)
    vec[a_lo - lo:a_lo - lo + len(av)] = av
    i = b_lo - lo
    vec[i:i + len(bv)] = map(add, vec[i:i + len(bv)], bv)
    return lo, vec


def _weighted_sum(rows: list[tuple[int, Slice]]) -> Slice:
    """The sum of v * row over the (v, row) pairs, as a slice over the
    union of their m-ranges; one row with v = 1 as it is."""
    if len(rows) == 1 and rows[0][0] == 1:
        return rows[0][1]
    lo = min([row_lo for _, (row_lo, _) in rows])
    vec = [0] * (max([row_lo + len(r) for _, (row_lo, r) in rows]) - lo)
    for v, (row_lo, r) in rows:
        if v == 1:
            for i, x in enumerate(r, row_lo - lo):
                vec[i] += x
        else:
            for i, x in enumerate(r, row_lo - lo):
                vec[i] += v * x
    return lo, vec


def _factor_step(w: "Slice | None", chain: dict[int, Slice], n: int,
                 step: list, width: int) -> "Slice | None":
    """w + sum_j C_j z^e_j chain[n - p_j] for a factor's terms, given as
    (C, [(e, p), ...]) by C: the shifted rows of one C are summed, then
    multiplied by it once, by Horner's rule."""
    for c, shifts in step:
        if runs := [(r[0] + e, r[1]) for e, p in shifts
                    if (r := chain.get(n - p))]:
            lo, s = reduce(_slice_sum, runs)
            s = lo, _times(c, s, width)
            w = _slice_sum(w, s) if w else s
    return w


def image_grade(grades: Sequence[Grade], order: int) -> Grade:
    """The grades' sum at y = 0, z = 1, as the one grade (0, [1], C, ()),
    a factor reading 1 - sum_j C_j(0) x^p_j there (for 111's part a,
    1 + x^a + x^{2a}).  The grades with the same periods are summed first
    and divided once, over x^g for the largest g that their x-exponents
    allow; a period with an x-degree-0 term raises NormalizationError."""
    sums: dict[tuple, list[int]] = {}
    for _, poly, a, periods in grades:
        if (c := sums.get(periods)) is None:
            c = sums[periods] = [0] * (order + 1)
        v = _at_0(poly)
        for d in compress(range(order + 1), a):
            c[d] += v * a[d]
    out = [0] * (order + 1)
    for periods, c in sums.items():
        g, periods = _coarse(compress(range(order + 1), c),
                             _live(periods, order))
        out[::g] = map(add, out[::g], _unfold(c[::g], periods, order // g))
    return 0, [1], out, ()


def graded_quotient(num: Sequence[Grade], t: Sequence[Grade],
                    order: int) -> TruncatedSeries:
    """q = sum(num) / (1 - sum(t)) for two lists of grades; a factor in a
    grade of num raises ValueError, and a grade of t or a period with an
    x-degree-0 term raises NormalizationError.

    q is solved degree by degree in x, packed at the width of the exact
    majorant |num| / (1 - |t|) at x = z = y = 1, with the sums of
    |coefficient| per x-degree of each side's grades: ||P||_1
    |A / prod (1 - x^p)| for int periods, ||P||_1 that of P expanded in
    y, and for the grades with a factor the exact expansion of their sum
    over the same periods, solved by this function over the product of
    the factors (for 111's part a, that of (y - 1) z^3 x^{3a} / D_a,
    next to |A| of the level-0 grade).  At degree n a grade of t adds
    z^s P(y) V_n, where V = A q / prod over
    its periods sums lower rows of U = q / prod over the periods times
    ints: V_n = sum_d A[d] U_{n-d}.  The grades' V_n are added by
    Horner's rule over the levels e of P = sum_e a_e (y - 1)^e, from the
    top down: acc <- acc (y - 1) + sum_grades a_e V_n, each a_e V_n
    reusing the grade's one V_n, and acc (y - 1) at y = 2**width is
    (x << width) - x for each slot x, so no step multiplies two packed
    polynomials.  U for the periods F is a chain, extended once per
    degree and shared by every grade whose periods start with F:
    U_() = q, and for F = F' + (f,), U_F[m] = U_F'[m] + U_F[m - p] for an
    int f = p, a running sum, or U_F[m] = U_F'[m] + sum_j C_j z^e_j
    U_F[m - p_j] for a factor, each C_j applied by Horner's rule too; a
    row is dropped once neither the step nor a grade reaches back to it.
    Each row of q is allocated before the grades' V_n, over the m-range
    that the rows below, of q and of the chains, bound; the row keeps the
    slots that were reached, so the keys come out in ascending (n, m, r)
    order.
    """
    if not all(isinstance(p, int) for *_, periods in num for p in periods):
        raise ValueError("a grade of num takes int periods only")
    num = [(s, poly, _norm(poly), _unfold(a, periods, order))
           for s, poly, a, periods in num]
    t_sums = [0] * (order + 1)
    groups: dict[tuple, list] = {}  # periods with a factor -> their grades
    live = []
    for s, poly, a, periods in t:
        a, periods = a[:order + 1], _live(periods, order)
        if a and a[0]:
            raise NormalizationError(
                f"grade z^{s} has x-degree 0; normalize it before solving")
        if not any(poly) or not any(a):
            continue
        live.append((s, poly, a, periods))
        if all(isinstance(p, int) for p in periods):
            norm = _norm(poly)
            t_sums = [u + norm * abs(v)
                      for u, v in zip(t_sums, _unfold(a, periods, order))]
        else:
            groups.setdefault(periods, []).append((s, poly, a))
    if groups:
        t_sums = list(map(add, t_sums, _factor_sums(groups, order)))
    width = _quotient_width(
        [sum(norm * abs(c[d]) for _, _, norm, c in num)
         for d in range(order + 1)], t_sums)
    num = [(s, _pack(poly, width), c) for s, poly, _, c in num]
    # t[i] = (s, scale, A's terms (d, A[d]), the live periods), a one-term
    # A's coefficient the scale of V_n or, for a P of one level, in its
    # a_e; by_level[e] lists (i, a_e) for the grades with a level e
    t, by_level = [], []
    for s, poly, a, periods in live:
        terms = [(d, a[d]) for d in compress(range(len(a)), a)]
        levels = [(e, v) for e, v in enumerate(poly) if v]
        scale = terms[0][1] if len(terms) == 1 else 1
        if len(levels) == 1:
            levels, scale = [(levels[0][0], levels[0][1] * scale)], 1
        for e, v in levels:
            by_level += [[] for _ in range(e + 1 - len(by_level))]
            by_level[e].append((len(t), v))
        t.append((s, scale, terms, periods))
    # chains[F][m] = (q / prod over F)_m for each grade's periods F and
    # their prefixes, chains[()] being q: made while some grade reads it
    # (m <= limit[F]); reads[F][r] is the last degree at which F's step
    # or a grade reaches back r to it
    limit, reads = {(): order}, {}
    for _, _, terms, periods in t:
        for i in range(1, len(periods) + 1):
            key = periods[:i]
            limit[key] = max(limit.get(key, 0), order - terms[0][0])
        if periods:
            reads.setdefault(periods, {}).update((d, order) for d, _ in terms)
    for key in limit:
        if key:
            reach = reads.setdefault(key, {})
            for p in _exponents(key[-1]):
                reach[p] = max(reach.get(p, 0), limit[key])

    def drops(key):
        """(r, b) for each reach r of F: at degree n, entry n - r is
        dropped if n - r > b, the last entry that a longer reach reads."""
        out, bound = [], -1
        for r in sorted(reads[key], reverse=True):
            out.append((r, bound))
            bound = max(bound, reads[key][r] - r)
        return out

    def step(period):  # an int period, or a factor's terms by C
        if isinstance(period, int):
            return period
        by_c: dict[tuple, list[tuple[int, int]]] = {}
        for c, e, p in period:
            by_c.setdefault(c, []).append((e, p))
        return list(by_c.items())
    chains: dict[tuple, dict[int, Slice]] = {
        key: {} for key in sorted(limit, key=len)}
    stages = [(chains[key[:-1]], chains[key], step(key[-1]), limit[key],
               drops(key)) for key in chains if key]
    # a one-term A, x^d, reads one row: its terms become d
    t = [(s, scale, terms[0][0] if len(terms) == 1 else terms,
          chains[periods]) for s, scale, terms, periods in t]
    q = chains[()]
    # q_n lies in m = s_lo .. max(num_hi, t_hi + high) - 1, high the end
    # of the rows below, of q and of the chains (a factor's z^e moves its
    # chain's rows past q's): a grade of num adds at m = s, one of t at s
    # plus the m of lower rows
    s_lo = min([s for s, *_ in num] + [s for s, *_ in t], default=0)
    num_hi = max([s + 1 for s, *_ in num], default=0)
    t_hi = max([s for s, *_ in t], default=0)
    high = 0
    for n in range(order + 1):
        row = [0] * (max(num_hi, t_hi + high) - s_lo)
        # Horner's rule over the levels, acc in the slots reached so far;
        # vs[i] is t[i]'s (slot, scale V_n) once made, None without one
        bottom, top = len(row), 0
        vs: list = [0] * len(t)
        for level in reversed(by_level):
            if top - bottom == 1:  # acc (y - 1)
                x = row[bottom]
                row[bottom] = (x << width) - x
            elif top:
                row[bottom:top] = [(x << width) - x for x in row[bottom:top]]
            for i, v in level:
                if (slot := vs[i]) == 0:  # V_n, read at t[i]'s top level
                    s, scale, terms, chain = t[i]
                    if isinstance(terms, int):  # x^d: U_{n-d} as it is
                        w = chain.get(n - terms)
                    elif rows := [(c, r) for d, c in terms
                                  if (r := chain.get(n - d))]:
                        w = _weighted_sum(rows)
                    else:
                        w = None
                    if not w:
                        vs[i] = None
                        continue
                    at, vec = s + w[0] - s_lo, w[1]
                    if scale != 1:
                        vec = [scale * x for x in vec]
                    slot = vs[i] = at, vec
                    if at < bottom:
                        bottom = at
                    if at + len(vec) > top:
                        top = at + len(vec)
                elif not slot:
                    continue
                at, vec = slot
                if v == 1:
                    for j, x in enumerate(vec, at):
                        row[j] += x
                else:
                    for j, x in enumerate(vec, at):
                        if x:
                            row[j] += v * x
        for s, pk, c in num:
            if c[n]:
                row[s - s_lo] += pk * c[n]
                bottom, top = min(bottom, s - s_lo), max(top, s - s_lo + 1)
        if top:
            q[n] = (s_lo + bottom, row[bottom:top])
            high = max(high, s_lo + top)
        for prev, chain, p, last, gone in stages:
            if n <= last:
                w = prev.get(n)
                if isinstance(p, int):
                    run = chain.get(n - p)
                    w = _slice_sum(w, run) if w and run else w or run
                else:
                    w = _factor_step(w, chain, n, p, width)
                if w:
                    chain[n] = w
                    high = max(high, w[0] + len(w[1]))
            for r, bound in gone:
                if n - r > bound:
                    chain.pop(n - r, None)
    return TruncatedSeries(order)._unrows(q, width)
