"""The paper's alternative forms, kept only as cross-checks.

Nothing in the production path imports this module; the tests (and the
words demo) do.  Each form here is an independent route to a quantity the
production code computes, or exposes one of its intermediate series.
Their arithmetic is the series ring's ``+``, ``-``, ``*`` and ``/``,
which are plain and unpacked, so a form shares no row packing, width or
decoding with the production solver ``graded.graded_quotient`` unless
it calls that solver (:func:`d_series` and :func:`word_gf_builders`
do).  The forms:

* :func:`t_poly`, :func:`m_poly`, :func:`n_poly` -- the selection
  sums inside ``genfun.build_gf`` for 123 and peak/valley (int lists
  there), exposed one at a time as z-marked series so they can be
  compared with the closed forms below.
* :func:`m_poly_prefix` -- M^s by the prefix recursion; checks the suffix
  recursion (``genfun._mn_lists``) behind the peak/valley builders.
* :func:`d_series` -- the prefix-extension series for 123, over the same
  denominator as ``build_gf(PatternId.P123, ...)`` (a product with that
  series); checked against a sentinel enumeration.
* :func:`gf_123_recursive`, :func:`gf_peak_recursive` -- the 123 and peak
  series grown one part at a time; check ``build_gf`` for those patterns.
* :func:`num_den_111` -- the 111 pair with one division per part; checks
  the grades that every 111 series runs (``genfun._grades_111``: the
  parts' level-0 grade z A(x), and each part's remainder (y - 1) z^3
  x^{3a} solved over its factor by ``graded.graded_quotient``), and so
  the majorant that the solver reads from them, |A| plus the exact
  expansion of each remainder.
* :func:`qpochhammer_inverse`, :func:`nat_closed_forms` -- q-Pochhammer
  closed forms over the naturals; check t^p, M^s and N^s over nat, and
  the periods with which the builders' grades are solved there.
* :func:`word_gf_builders` -- the composition builders over {1..k} with
  every letter weighing x z (keys (m, m, r)); checks every closed form
  behind ``words.word_gf``.
* :func:`u_poly`, :func:`u_poly_generating_function`,
  :func:`w123_chebyshev` -- the U-polynomial form of 123 over {1..k};
  checks ``words.w123_closed`` (what ``words.word_gf`` runs for 123).
* :func:`w123_avoid_aj` -- the 123-avoiding words; checks the y = 0
  slice of ``words.word_gf(PatternId.P123, ...)``.
"""

from __future__ import annotations

from math import comb

from .genfun import (_GRADES, _check_counts, _mn_lists, _parts, _t_lists,
                     build_gf)
from .graded import graded_quotient
from .patterns import PatternId
from .series import TruncatedSeries, make_monomial, one, zero


def _z(order: int, m: int = 1, r: int = 0, c: int = 1) -> TruncatedSeries:
    """c (x z)^m y^r: m letters, each weighing x z."""
    return make_monomial(order, m, m, r, c)


def _weights(A, order: int) -> list[TruncatedSeries]:
    """The weights x^a z of the parts of A up to the order, in order of a."""
    return [make_monomial(order, a, 1, 0) for a in _parts(A, order)]


def powers(base: TruncatedSeries, top: int) -> list[TruncatedSeries]:
    """[base^0, ..., base^top]."""
    out = [one(base.order)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _selection(sums: list[list[int]], s: int, order: int) -> TruncatedSeries:
    """The x-series sums[s] as a series marked z^s (zero past the list)."""
    xs = sums[s] if s < len(sums) else ()
    return TruncatedSeries(order, {(n, s, 0): c for n, c in enumerate(xs)})


# ---------------------------------------------------------------------------
# selection polynomials and recursive builders
# ---------------------------------------------------------------------------

def t_poly(A, p: int, order: int) -> TruncatedSeries:
    """Generating function of p-element strictly increasing part
    selections from A (partitions with p distinct parts), z-marked."""
    return _selection(_t_lists(_parts(A, order), order), p, order)


def d_series(A, order: int) -> TruncatedSeries:
    """The prefix-extension series for 123: counts compositions s with
    parts in A, weighted by occurrences of 123 in a*s for any sentinel
    part a smaller than min(A).

    (1 + sum_{p>=2} sum_{j=0}^{p-2} C(p-2, j) t^{p+j}(A) (y-1)^{p-1})
    over the same denominator as the 123 builder: times its series.
    """
    sums = _t_lists(_parts(A, order), order)
    top = len(sums) - 1
    t = [_selection(sums, p, order) for p in range(top + 1)]
    num = one(order)
    y = make_monomial(order, 0, 0, 1)
    ym1 = powers(y - 1, max(top - 1, 0))
    for p in range(2, top + 1):
        for j in range(p - 1):
            if p + j > top:
                break
            num = num + comb(p - 2, j) * t[p + j] * ym1[p - 1]
    return num * build_gf(PatternId.P123, A, order)


def gf_123_recursive(A, order: int) -> TruncatedSeries:
    """Cross-check route for the 123 builder: grow the part set from the
    largest part down, updating the pair (C, D) one part at a time:

        C <- C / (1 - x^a z D)
        D <- ((1 - x^a z (1-y)) D + x^a z (1-y)) / (1 - x^a z D)

    starting from C = D = 1 for the empty set.
    """
    unit = one(order)
    omy = 1 - make_monomial(order, 0, 0, 1)
    c = unit
    d = unit
    for b in reversed(_weights(A, order)):
        inv = (unit - b * d).reciprocal()
        c = c * inv
        d = ((unit - b * omy) * d + b * omy) * inv
    return c


def num_den_111(weights, y: TruncatedSeries):
    """Cross-check route for the 111 builder: the pair of one run term per
    part, each its own division, for weights x^a z^e and y (a monomial,
    or zero in the y = 0 image):

    1 / (1 - sum over a in A of x^a z (1 + (1-y) x^a z)
                                / (1 + x^a z (1 + x^a z)(1-y))).
    """
    unit = one(y.order)
    omy = unit - y
    total = zero(y.order)
    for b in weights:
        total = total + b * (unit + omy * b) / (unit + b * (unit + b) * omy)
    return unit, unit - total


def m_poly(A, s: int, order: int) -> TruncatedSeries:
    """M^s(A): weighted count of index tuples i1 < i2 <= i3 < i4 <= ..."""
    return _selection(_mn_lists(_parts(A, order), order)[0], s, order)


def n_poly(A, s: int, order: int) -> TruncatedSeries:
    """N^s(A): weighted count of index tuples i1 <= i2 < i3 <= i4 < ..."""
    return _selection(_mn_lists(_parts(A, order), order)[1], s, order)


def m_poly_prefix(A, s: int, order: int) -> TruncatedSeries:
    """M^s(A) by the independent prefix recursion (largest part added
    last); must agree with m_poly:

        M^{2s}   <- b * M^{2s-1}_old + M^{2s}_old
        M^{2s+1} <- b * M^{2s}_new  + M^{2s+1}_old
    """
    unit = one(order)
    zero_s = zero(order)
    m = [unit]
    for b in _weights(A, order):
        m.extend((zero_s, zero_s))  # longest tuple grows by two per part
        new_m = [unit]
        for s_i in range(1, len(m)):
            if s_i % 2 == 0:
                new_m.append(b * m[s_i - 1] + m[s_i])
            else:
                new_m.append(b * new_m[s_i - 1] + m[s_i])
        m = new_m
        while len(m) > 1 and not m[-1]:
            m.pop()
    return m[s] if s < len(m) else zero_s


def gf_peak_recursive(A, order: int) -> TruncatedSeries:
    """Cross-check route for the peak builder: one rational step per part,
    largest part added last.  With b = x^a z and C the series for the parts
    so far:

        C <- ((1 + b(1-y)) C - b(1-y))
             / (1 - b(1 - b)(1-y) - b(b(1-y) + y) C)

    starting from C = 1/(1 - x^{a_1} z) for the singleton set.
    """
    weights = _weights(A, order)
    unit = one(order)
    if not weights:
        return unit
    yy = make_monomial(order, 0, 0, 1)
    omy = 1 - yy
    c = (unit - weights[0]).reciprocal()
    for b in weights[1:]:
        numer = (unit + b * omy) * c - b * omy
        denom = unit - b * (unit - b) * omy - b * (b * omy + yy) * c
        c = numer / denom
    return c


# ---------------------------------------------------------------------------
# q-Pochhammer closed forms for the naturals
# ---------------------------------------------------------------------------

def qpochhammer_inverse(p: int, order: int) -> TruncatedSeries:
    """1/(x;x)_p = 1 / prod_{j=1..p} (1 - x^j), truncated.

    Its coefficients count partitions into parts <= p, so they are
    nonnegative, and multiplying back by the finite product recovers 1.
    """
    prod = one(order)
    for j in range(1, p + 1):
        prod = prod * (1 - make_monomial(order, j, 0, 0))
    return prod.reciprocal()


NAT_CLOSED_KINDS = ("T", "M_even", "M_odd", "N_odd")


def nat_closed_forms(kind: str, s_or_p: int, order: int) -> TruncatedSeries:
    """Closed forms over the naturals for the selection polynomials:

    * ``T``      : t^p      = x^{p(p+1)/2}  z^p      / (x;x)_p
    * ``M_even`` : M^{2s}   = x^{s(s+2)}    z^{2s}   / (x;x)_{2s}
    * ``M_odd``  : M^{2s+1} = x^{s^2+3s+1}  z^{2s+1} / (x;x)_{2s+1}
    * ``N_odd``  : N^{2s+1} = x^{(s+1)^2}   z^{2s+1} / (x;x)_{2s+1}

    The M_odd exponent is the one the dynamic program realizes (the round
    trip is covered by tests against m_poly over {1..order}).

    These are the cross-check of the production periods: over nat,
    ``genfun.build_gf`` solves the grades of 123, peak and valley as
    x^c / prod_{p<=s} (1 - x^p) (``genfun._PERIODS``), and the tests
    match each c to the exponent here.
    """
    s = s_or_p
    if kind == "T":
        x_deg, z_deg, q = s * (s + 1) // 2, s, s
    elif kind == "M_even":
        x_deg, z_deg, q = s * (s + 2), 2 * s, 2 * s
    elif kind == "M_odd":
        x_deg, z_deg, q = s * s + 3 * s + 1, 2 * s + 1, 2 * s + 1
    elif kind == "N_odd":
        x_deg, z_deg, q = (s + 1) * (s + 1), 2 * s + 1, 2 * s + 1
    else:
        raise ValueError(f"unknown kind {kind!r}; expected one of "
                         f"{NAT_CLOSED_KINDS}")
    lead = make_monomial(order, x_deg, z_deg, 0)
    return lead * qpochhammer_inverse(q, order)


# ---------------------------------------------------------------------------
# word forms
# ---------------------------------------------------------------------------

def word_gf_builders(p: PatternId, k: int, order: int) -> TruncatedSeries:
    """The word series for p over {1..k} from the composition builders run
    part by part, with each of the k letters a part of size 1."""
    return _check_counts(graded_quotient(*_GRADES[p]([1] * k, order), order))


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
    return TruncatedSeries(order, {(0, 0, r): c for r, c in enumerate(coeffs)})


def u_poly_generating_function(order: int) -> TruncatedSeries:
    """sum_n U_n(y) z^n = (1 + z + z^2) / (1 + (1+y) z^2 + z^4), with z
    the weight x z of a letter, so U_n is the coefficient of (x z)^n."""
    unit = one(order)
    z = _z(order)
    y = _z(order, 0, 1)
    num = unit + z + z * z
    den = unit + (unit + y) * z * z + (z * z) * (z * z)
    return num / den


def w123_chebyshev(k: int, order: int) -> TruncatedSeries:
    """123 over {1..k} through the U-polynomial recurrence:

        1 / (1 - k z - sum_{j=3}^{k} (-z)^j C(k, j)
                            (1-y)^{floor(j/2)} U_{j-3}(y)).
    """
    unit = one(order)
    omy_pow = powers(unit - _z(order, 0, 1), min(k, order) // 2)
    den = unit - _z(order, 1, 0, k)
    for j in range(3, k + 1):
        if j > order:
            break
        sign = 1 if j % 2 == 0 else -1
        term = _z(order, j, 0, sign * comb(k, j))
        term = term * omy_pow[j // 2]
        term = term * _poly_to_series(u_poly(j - 3), order)
        den = den - term
    return den.reciprocal()


def w123_avoid_aj(k: int, order: int) -> TruncatedSeries:
    """123-avoiding words over {1..k} (the y = 0 slice) via the periodic
    coefficient form 1 / sum_{j=0}^k a_j C(k, j) z^j with a_{3l} = 1,
    a_{3l+1} = -1, a_{3l+2} = 0.
    """
    den = zero(order)
    for j in range(0, k + 1):
        if j > order:
            break
        a = (1, -1, 0)[j % 3]
        if a:
            den = den + _z(order, j, 0, a * comb(k, j))
    return den.reciprocal()
