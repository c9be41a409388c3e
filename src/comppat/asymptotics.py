"""Growth constants for pattern-avoiding compositions over the naturals.

For each statistic, the avoidance generating function (y = 0, z = 1,
unrestricted parts) is a meromorphic function C(x) = N(x)/D(x) on the unit
disk, built from infinite sums and products that this module evaluates
numerically with certified truncation-tail bounds.  The number of avoiding
compositions of n grows like K * v^n where

    rho = smallest positive zero of f = D/N,   v = 1/rho,
    K   = -1 / (rho * f'(rho)),

and a winding-number computation of f over a circle certifies that rho is
the only (simple) zero inside it.  Four of the six statistics have N = 1,
so f is their denominator evaluator; peak and valley share a nontrivial
numerator N, and f = (N - S)/N with an odd-index sum S.

The evaluators take a block of points xs, its largest modulus ax and a
tolerance eps, and return ``(values, bound)`` where bound is a
guaranteed upper bound on the truncation error at every point of the
block (floating-point rounding aside).  Stopping indices and tail bounds
grow with |x|, so each evaluator fixes them from ax and eps alone, once
per block, and then runs one scalar loop per point: a point's value
depends on ax and eps, not on the other points of its block.  A point's
powers x^e come from one ladder of squarings (:func:`_powers`), with the
bits of ``x ** e``.  The one entry, :func:`_evaluate`, owns the input
bounds: finite points with |x| <= 0.8 and eps >= the smallest normal
double.  So every loop ends: each tail bound decays at least
geometrically in ax <= 0.8 and underflows to 0, below eps, within a few
thousand terms.  :func:`eval_f` is a one-point block.

:func:`find_rho` takes Newton steps from a bracket scan, and
:func:`estimate` reads f'(rho), each from one complex step (Squire &
Trapp, SIAM Review 40, 1998): f(x + ih) = f(x) + ih f'(x) + O(h^2).

:func:`estimate` samples f on the circle once: the rows are the exported
curve and their phase increments give the winding number.  f has real
coefficients, so f(conj x) = conj f(x): only the upper half of the circle,
indices 0 .. samples // 2, is evaluated, as one block, and each row past
samples // 2 is the exact conjugate of its mirror row, which can differ in
the last ulp from a direct evaluation at its own point.  The winding
counts only if every sampled |f| exceeds the truncation bound.
"""

from __future__ import annotations

import cmath
import math
import sys

from .patterns import PatternId

EVAL_EPS = 1e-15
# For real x, Re f(x + ih) and Im f(x + ih) / h are f(x) and f'(x) up to
# O(h^2) with no subtraction to cancel, so unlike a finite difference the
# error only falls as h shrinks: 1e-20 is exact to rounding, untuned.
COMPLEX_STEP = 1e-20
NEWTON_STEPS = 5
WINDING_SAMPLES = 4096
WINDING_RADIUS = 0.7
_MAX_ABS = 0.8


class AsymptoticsError(Exception):
    """Base class for numeric failures in this module."""


class DomainError(AsymptoticsError):
    """Evaluation point too close to the unit circle for the tail bounds."""


class RootNotFoundError(AsymptoticsError):
    """No sign change of f on the bracket scan, or Newton's method failed."""


class UndersamplingError(AsymptoticsError):
    """A winding-number phase step exceeded pi/2; double the samples."""


class AsymptoticEstimate:
    """Dominant-pole data for one statistic: the avoider count of n is
    approximately constant_K * growth_v ** n.  ``curve`` holds the sampled
    image of the winding circle, rows (re x, im x, re f, im f); equality
    and the repr leave it out."""

    __slots__ = ("pattern", "rho", "growth_v", "constant_K", "winding",
                 "tolerances", "curve")

    def __init__(self, pattern: PatternId, rho: float, growth_v: float,
                 constant_K: float, winding: int, tolerances: dict,
                 curve: list[tuple[float, float, float, float]]):
        self.pattern, self.rho, self.growth_v = pattern, rho, growth_v
        self.constant_K, self.winding = constant_K, winding
        self.tolerances, self.curve = tolerances, curve

    def _fields(self) -> list[tuple[str, object]]:
        return [(name, getattr(self, name)) for name in self.__slots__[:-1]]

    def __eq__(self, other):
        if type(other) is not AsymptoticEstimate:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "AsymptoticEstimate(" + ", ".join(
            f"{name}={value!r}" for name, value in self._fields()) + ")"


def _den_111(xs, ax: float, eps: float):
    """1 - sum_{i>=1} x^i (1 + x^i) / (1 + x^i (1 + x^i))."""
    i = 0
    while True:
        i += 1
        t = ax ** (i + 1)
        if t * (1 + t) < 0.5:
            # remaining terms are bounded by c * ax^j with j > i
            c = (1 + t) / (1 - t * (1 + t))
            tail = c * t / (1 - ax)
            if tail < eps:
                break
    values = []
    for x in xs:
        total, xi = 0 * x, 1
        for _ in range(i):
            xi = xi * x
            u = xi * (1 + xi)
            total = total + u / (1 + u)
        values.append(1 - total)
    return values, tail


def _den_112(xs, ax: float, eps: float):
    """1 - sum_{j>=1} x^j prod_{i<j} (1 - x^{2i})."""
    # |prod (1 - x^{2i})| <= prod (1 + ax^{2i}) <= exp(ax^2/(1-ax^2))
    cap = math.exp(ax * ax / (1 - ax * ax))
    j = 1
    while cap * ax ** (j + 1) / (1 - ax) >= eps:
        j += 1
    tail = cap * ax ** (j + 1) / (1 - ax)
    values = []
    for x in xs:
        total, prod, xj = 0 * x, 1, 1
        for _ in range(j):
            xj = xj * x
            total = total + xj * prod
            prod = prod * (1 - xj * xj)
        values.append(1 - total)
    return values, tail


def _den_221(xs, ax: float, eps: float):
    """1 - sum_{i>=1} x^i prod_{j>=i+1} (1 - x^{2j}).

    The infinite guard products are truncated at a common index L once the
    omitted factors differ from 1 by less than eps in sum, then formed as
    suffix products, one point at a time.
    """
    cap = math.exp(ax * ax / (1 - ax * ax))
    L = 1
    while cap * ax ** (L + 1) / (1 - ax) >= eps / 2 \
            or ax ** (2 * (L + 1)) / (1 - ax * ax) >= eps / 4:
        L += 1
    prod_tail_sum = ax ** (2 * (L + 1)) / (1 - ax * ax)
    prod_err = math.expm1(prod_tail_sum)
    # the sum's x^i for i <= L and the guards' x^{2j} for j <= L
    plan = _plan({*range(1, L + 1), *range(4, 2 * L + 1, 2)}, xs)
    values = []
    for x in xs:
        pw = _powers(x, plan)
        # suffix[i] = prod_{j=i+1..L} (1 - x^{2j})
        suffix = [1 + 0 * x] * (L + 2)
        for i in range(L - 1, 0, -1):
            suffix[i] = suffix[i + 1] * (1 - pw[2 * (i + 1)])
        total = 0 * x
        for i in range(1, L + 1):
            total = total + pw[i] * suffix[i]
        values.append(1 - total)
    outer_tail = cap * ax ** (L + 1) / (1 - ax)
    inner_tail = prod_err * cap * ax / (1 - ax)
    return values, outer_tail + inner_tail


def _qpoch_lower(ax: float) -> float:
    """Rigorous positive lower bound for prod_{j>=1} (1 - ax^j)."""
    prod = 1.0
    j = 1
    while ax ** j > 1e-19:
        prod *= 1 - ax ** j
        j += 1
    return prod * (1 - ax ** j / (1 - ax))


def _plan(exps, xs) -> tuple:
    """Plan for :func:`_powers` on the block xs: sorted exps, the ladder
    steps (e, e - 2^h, h) for each e <= 100 of exps and what is left as its
    top bit h drops, if xs holds a complex point, and the exps above 100."""
    exps, steps = sorted(exps), {}
    for e in exps if any(type(x) is complex for x in xs) else ():
        while 0 < e <= 100 and e not in steps:
            h = e.bit_length() - 1
            steps[e] = (e, e - (1 << h), h)
            e -= 1 << h
    return exps, sorted(steps.values()), [e for e in exps if e > 100]


def _powers(x, plan):
    """pw[e] == x ** e bit for bit for the plan's exponents: CPython raises a
    complex x to an integer e <= 100 by this right-to-left binary ladder,
    x^e = x^(e - 2^h) * x^(2^h) from x^0 = 1 + 0j (that product can flip a
    zero's sign).  Float (libm pow) and int x, and e > 100, use ``**``."""
    exps, steps, high = plan
    if type(x) is not complex or not steps:
        return {e: x ** e for e in exps}
    sq = [x]
    for _ in range(steps[-1][2]):
        sq.append(sq[-1] * sq[-1])
    pw = [1 + 0j] + [None] * exps[-1]
    for e, rest, h in steps:
        pw[e] = pw[rest] * sq[h]
    for e in high:
        pw[e] = x ** e
    return pw


def _poch(pw, top: int) -> list:
    """[(x;x)_0, ..., (x;x)_top] from one point's powers pw[i] = x^i."""
    poch = [1]
    for i in range(1, top + 1):
        poch.append(poch[-1] * (1 - pw[i]))
    return poch


def _den_123(xs, ax: float, eps: float):
    """1 - x/(1-x) - sum_{p>=3} (-1)^p sum_{j=0}^{p-3}
    C(p-3, j) x^{T(p+j)} / (x;x)_{p+j}  with T(q) = q(q+1)/2."""
    c_min = _qpoch_lower(ax)
    p = 2
    while True:
        p += 1
        bound_next = (2 ** (p - 2)) * ax ** ((p + 1) * (p + 2) // 2) / c_min
        ratio = 2 * ax ** (p + 2)
        if ratio < 0.5 and bound_next / (1 - ratio) < eps:
            break
    # for k = 3 .. p: (-1)^k and the triples (T(q), q, C(k-3, j)), q = k + j
    rows = [((-1) ** k, [((k + j) * (k + j + 1) // 2, k + j,
                          math.comb(k - 3, j)) for j in range(k - 2)])
            for k in range(3, p + 1)]
    # x^T(q) for the terms and x^i, i <= 2p - 3, for (x;x)_q
    plan = _plan({*(t for _, terms in rows for t, _, _ in terms),
                  *range(1, 2 * p - 2)}, xs)
    values = []
    for x in xs:
        pw = _powers(x, plan)
        poch = _poch(pw, 2 * p - 3)
        total = x / (1 - x)
        for sign, terms in rows:
            inner = 0 * x
            for t, q, c in terms:
                inner = inner + c * pw[t] / poch[q]
            total = total + sign * inner
        values.append(1 - total)
    return values, bound_next / (1 - ratio)


def _f_alternating(xs, ax: float, eps: float, odd_exp):
    """f = (N - S)/N for peak or valley, from the numerator
    N = 1 + sum_{j>=1} x^{j(j+2)} / (x;x)_{2j} and the odd sum
    S = sum_{j>=0} x^{odd_exp(j)} / (x;x)_{2j+1}, each to eps/2.  The
    bound is the largest of the per-point bounds (nb + sb + |f| nb) / |N|.

    Both exponents grow by at least 2 a term and c_min = _qpoch_lower(ax)
    bounds every |(x;x)_q| from below, so the terms after the j-th sum to
    at most ax^{x_exp(j+1)} / c_min / (1 - ax).
    """
    c_min = _qpoch_lower(ax)
    # per sum, N then S: (constant, [(x-exponent, (x;x) index)]).  N's
    # constant 1 is its j = 0 term, so each sum's terms start at j = constant
    plans, tails = [], []
    for start, x_exp, odd in ((1, lambda j: j * (j + 2), 0),
                              (0, odd_exp, 1)):
        j = start
        while (tail := ax ** x_exp(j + 1) / c_min / (1 - ax)) >= eps / 2:
            j += 1
        plans.append((start, [(x_exp(i), 2 * i + odd)
                              for i in range(start, j + 1)]))
        tails.append(tail)
    nb, sb = tails
    top = max(terms[-1][1] for _, terms in plans)
    plan = _plan({*(e for _, terms in plans for e, _ in terms),
                  *range(1, top + 1)}, xs)
    values = []
    bound = 0.0
    for x in xs:
        pw = _powers(x, plan)
        poch = _poch(pw, top)
        sums = []
        for constant, terms in plans:
            total = constant + 0 * x
            for e, q in terms:
                total = total + pw[e] / poch[q]
            sums.append(total)
        nv, sv = sums
        if abs(nv) < 1e-9:
            raise AsymptoticsError(
                f"numerator nearly vanishes at {x}; f undefined there")
        value = (nv - sv) / nv
        values.append(value)
        bound = max(bound, (nb + sb + abs(value) * nb) / abs(nv))
    return values, bound


# f on a block of points, as (values, one bound for the whole block).  The
# numerator of the first four series is identically 1; peak and valley
# differ in the x-exponent of the j-th term of the odd sum S.
_EVALUATORS = {
    PatternId.P111: _den_111,
    PatternId.P112: _den_112,
    PatternId.P221: _den_221,
    PatternId.P123: _den_123,
    PatternId.PEAK: lambda xs, ax, eps: _f_alternating(
        xs, ax, eps, lambda j: j * j + 3 * j + 1),
    PatternId.VALLEY: lambda xs, ax, eps: _f_alternating(
        xs, ax, eps, lambda j: (j + 1) * (j + 1)),
}


def _evaluate(p: PatternId, xs, eps: float):
    """f at every point of the block xs, as (values, bound): the bound
    holds for each point, because every shared bound grows with |x| and
    is taken at the largest |x| in the block.  Raises ValueError unless
    eps >= sys.float_info.min, and DomainError unless every x is finite
    with |x| <= 0.8."""
    if not eps >= sys.float_info.min:  # also rejects NaN
        raise ValueError(f"eps must be at least {sys.float_info.min}")
    mags = [abs(x) for x in xs]
    bad = [x for x, mag in zip(xs, mags) if not mag <= _MAX_ABS]  # NaN too
    if bad:
        raise DomainError(f"x = {bad[0]} is not finite with |x| <= "
                          f"{_MAX_ABS}; tail bounds unavailable")
    return _EVALUATORS[p](xs, max(mags), eps)


def eval_f(p: PatternId, x, eps: float = EVAL_EPS):
    """f(x) = denominator/numerator of the avoidance series, with a bound
    on the truncation error.  Real input stays real."""
    values, bound = _evaluate(p, [x], eps)
    return values[0], bound


def find_rho(p: PatternId, *, eps: float = EVAL_EPS) -> float:
    """Smallest positive root of f: the first sign change from positive
    (lo, hi) on the block 0.50, 0.51, ..., 0.65 (all six statistics root
    in 0.513 .. 0.614), then NEWTON_STEPS complex-step Newton steps from
    its secant point.  Raises RootNotFoundError if the scan finds no sign
    change, a slope is 0, or the last step leaves [lo, hi]."""
    xs = [k / 100 for k in range(50, 66)]
    fs = _evaluate(p, xs, eps)[0]
    brackets = [(lo, hi, f_lo, f_hi) for lo, hi, f_lo, f_hi
                in zip(xs, xs[1:], fs, fs[1:]) if f_lo > 0 >= f_hi]
    if not brackets:
        raise RootNotFoundError(
            f"no sign change of f_{p.value} on [{xs[0]}, {xs[-1]}]")
    lo, hi, f_lo, f_hi = brackets[0]
    x = lo + f_lo * (hi - lo) / (f_lo - f_hi)
    for _ in range(NEWTON_STEPS):
        value = eval_f(p, complex(x, COMPLEX_STEP), eps)[0]
        if value.imag == 0:
            raise RootNotFoundError(f"f_{p.value} has slope 0 at {x}")
        x -= value.real * COMPLEX_STEP / value.imag
    if not lo <= x <= hi:  # also rejects NaN
        raise RootNotFoundError(
            f"Newton's method for f_{p.value} left [{lo}, {hi}] at {x}")
    return x


def _circle(radius: float, samples: int) -> list[complex]:
    """The points radius * exp(2 pi i idx / samples), idx = 0 .. samples-1."""
    if samples < 1024:
        raise ValueError("need at least 1024 samples")
    if not 0 < radius < _MAX_ABS:  # also rejects NaN
        raise ValueError(f"radius must be in (0, {_MAX_ABS})")
    return [radius * cmath.exp(2j * cmath.pi * idx / samples)
            for idx in range(samples)]


def _winding(values: list[complex]) -> int:
    """Winding number around 0 of the closed polygon through values.

    Accumulates principal-branch phase increments between consecutive
    samples and refuses to guess across jumps larger than pi/2, which
    signals under-sampling.  No value may be 0; emit_curve certifies it.
    """
    samples = len(values)
    total = 0.0
    for idx in range(samples):
        step = cmath.phase(values[(idx + 1) % samples] / values[idx])
        if abs(step) > math.pi / 2:
            raise UndersamplingError(
                f"phase step {step:.3f} at sample {idx} exceeds pi/2; "
                "double the sample count")
        total += step
    return round(total / (2 * math.pi))


def winding_number(p: PatternId, radius: float = WINDING_RADIUS,
                   samples: int = WINDING_SAMPLES,
                   eps: float = EVAL_EPS) -> int:
    """Winding number of f over |x| = radius: the count of zeros of f
    inside (zeros of the denominator minus zeros of the numerator)."""
    return _winding([complex(rf, if_)
                     for _, _, rf, if_ in emit_curve(p, radius, samples, eps)])


def estimate(p: PatternId, radius: float = WINDING_RADIUS,
             samples: int = WINDING_SAMPLES) -> AsymptoticEstimate:
    """Dominant-pole estimate: rho, v = 1/rho, K = -1/(rho f'(rho)) with
    f'(rho) from one complex step, and the winding certificate over
    |x| = radius.  The circle is sampled once, by :func:`emit_curve`,
    which also certifies that no sample of f is 0; the winding is read
    off those rows."""
    rho = find_rho(p)
    fprime = eval_f(p, complex(rho, COMPLEX_STEP))[0].imag / COMPLEX_STEP
    k = -1 / (rho * fprime)
    curve = emit_curve(p, radius, samples)
    return AsymptoticEstimate(
        pattern=p,
        rho=rho,
        growth_v=1 / rho,
        constant_K=k,
        winding=_winding([complex(rf, if_) for _, _, rf, if_ in curve]),
        tolerances={"tail_eps": EVAL_EPS, "winding_samples": samples,
                    "winding_radius": radius},
        curve=curve,
    )


def predict_count(p: PatternId, n: int,
                  est: AsymptoticEstimate | None = None) -> float:
    """K * v^n, the dominant-pole approximation of the number of
    p-avoiding compositions of n.  Raises ValueError if `est` is the
    estimate of another pattern."""
    if est is None:
        est = estimate(p)
    if est.pattern is not p:
        raise ValueError(f"estimate of {est.pattern.value}, not of {p.value}")
    return est.constant_K * est.growth_v ** n


def emit_curve(p: PatternId, radius: float = WINDING_RADIUS,
               samples: int = WINDING_SAMPLES, eps: float = EVAL_EPS,
               ) -> list[tuple[float, float, float, float]]:
    """Sampled image of the circle |x| = radius under f, as rows
    (re x, im x, re f, im f) starting at angle 0.

    f has real coefficients, so f(conj x) = conj f(x): only the upper
    half, indices 0 .. samples // 2, is evaluated as one block, and row
    samples - k is the exact conjugate of row k.  Raises AsymptoticsError
    unless every sampled |f| exceeds the block's truncation bound, which
    certifies that f vanishes at no sample.
    """
    points = _circle(radius, samples)[:samples // 2 + 1]
    values, bound = _evaluate(p, points, eps)
    low = min(map(abs, values))
    if not low > bound:
        raise AsymptoticsError(
            f"min |f| = {low:.3g} on |x| = {radius} does not exceed the "
            f"truncation bound {bound:.3g}; the winding is not certified")
    rows = [(x.real, x.imag, value.real, value.imag)
            for x, value in zip(points, values)]
    rows += [(rx, -ix, rf, -if_)
             for rx, ix, rf, if_ in reversed(rows[1:(samples + 1) // 2])]
    return rows
