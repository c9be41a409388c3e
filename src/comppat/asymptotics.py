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
tolerance eps, and return ``(values, bound)`` where bound is a guaranteed
upper bound on the truncation error at every point of the block
(floating-point rounding aside).  Stopping indices and tail bounds grow
with |x|, so they are computed once per block at ax; points of modulus ax
see the same operations they would see alone.  The one entry,
:func:`_evaluate`, owns the input bounds: finite points with |x| <= 0.8
and eps >= the smallest normal double.  So every loop ends: each tail
bound decays at least geometrically in ax <= 0.8 and underflows to 0,
below eps, within a few thousand terms.  :func:`eval_f` is a one-point
block.

:func:`estimate` samples f on the circle once: the rows are the exported
curve and their phase increments give the winding number.  f has real
coefficients, so f(conj x) = conj f(x): only the upper half of the circle,
indices 0 .. samples // 2, is evaluated, and each row past samples // 2 is
the exact conjugate of its mirror row, which can differ in the last ulp
from a direct evaluation at its own point.  The winding counts only if
every sampled |f| exceeds the truncation bound.
"""

from __future__ import annotations

import cmath
import math
import sys

from .patterns import PatternId

EVAL_EPS = 1e-15
RHO_TOL = 1e-11
FD_STEP = 1e-6
WINDING_SAMPLES = 4096
WINDING_RADIUS = 0.7
_MAX_ABS = 0.8
# Circle points per evaluator call.  A block shares its stopping indices
# and tail bounds; 221 keeps L suffix products per point alive at once.
_BLOCK = 64


class AsymptoticsError(Exception):
    """Base class for numeric failures in this module."""


class DomainError(AsymptoticsError):
    """Evaluation point too close to the unit circle for the tail bounds."""


class RootNotFoundError(AsymptoticsError):
    """No sign change of f on the bracket scan."""


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
    totals = [0 * x for x in xs]
    xis = [1] * len(xs)
    i = 0
    while True:
        i += 1
        xis = [xi * x for xi, x in zip(xis, xs)]
        totals = [total + xi * (1 + xi) / (1 + xi * (1 + xi))
                  for total, xi in zip(totals, xis)]
        t = ax ** (i + 1)
        if t * (1 + t) < 0.5:
            # remaining terms are bounded by c * ax^j with j > i
            c = (1 + t) / (1 - t * (1 + t))
            tail = c * t / (1 - ax)
            if tail < eps:
                return [1 - total for total in totals], tail


def _den_112(xs, ax: float, eps: float):
    """1 - sum_{j>=1} x^j prod_{i<j} (1 - x^{2i})."""
    # |prod (1 - x^{2i})| <= prod (1 + ax^{2i}) <= exp(ax^2/(1-ax^2))
    cap = math.exp(ax * ax / (1 - ax * ax))
    totals = [0 * x for x in xs]
    prods = [1] * len(xs)
    xjs = [1] * len(xs)
    j = 0
    while True:
        j += 1
        xjs = [xj * x for xj, x in zip(xjs, xs)]
        totals = [total + xj * prod
                  for total, xj, prod in zip(totals, xjs, prods)]
        tail = cap * ax ** (j + 1) / (1 - ax)
        if tail < eps:
            return [1 - total for total in totals], tail
        prods = [prod * (1 - xj * xj) for prod, xj in zip(prods, xjs)]


def _den_221(xs, ax: float, eps: float):
    """1 - sum_{i>=1} x^i prod_{j>=i+1} (1 - x^{2j}).

    The infinite guard products are truncated at a common index L once the
    omitted factors differ from 1 by less than eps in sum, then formed as
    suffix products; the block holds L of them per point.
    """
    cap = math.exp(ax * ax / (1 - ax * ax))
    L = 1
    while cap * ax ** (L + 1) / (1 - ax) >= eps / 2 \
            or ax ** (2 * (L + 1)) / (1 - ax * ax) >= eps / 4:
        L += 1
    prod_tail_sum = ax ** (2 * (L + 1)) / (1 - ax * ax)
    prod_err = math.expm1(prod_tail_sum)
    # suffix[i][k] = prod_{j=i+1..L} (1 - x_k^{2j})
    suffix = [[1 + 0 * x for x in xs]] * (L + 2)
    for i in range(L - 1, 0, -1):
        e = 2 * (i + 1)
        suffix[i] = [s * (1 - x ** e) for s, x in zip(suffix[i + 1], xs)]
    totals = [0 * x for x in xs]
    for i in range(1, L + 1):
        totals = [total + x ** i * s
                  for total, x, s in zip(totals, xs, suffix[i])]
    outer_tail = cap * ax ** (L + 1) / (1 - ax)
    inner_tail = prod_err * cap * ax / (1 - ax)
    return [1 - total for total in totals], outer_tail + inner_tail


def _qpoch_lower(ax: float) -> float:
    """Rigorous positive lower bound for prod_{j>=1} (1 - ax^j)."""
    prod = 1.0
    j = 1
    while ax ** j > 1e-19:
        prod *= 1 - ax ** j
        j += 1
    return prod * (1 - ax ** j / (1 - ax))


def _ensure_poch(poch: list, xs, q: int) -> None:
    """Extend poch, where poch[i][k] = (x_k;x_k)_i, through index q."""
    while len(poch) <= q:
        i = len(poch)
        poch.append([c * (1 - x ** i) for c, x in zip(poch[-1], xs)])


def _den_123(xs, ax: float, eps: float):
    """1 - x/(1-x) - sum_{p>=3} (-1)^p sum_{j=0}^{p-3}
    C(p-3, j) x^{T(p+j)} / (x;x)_{p+j}  with T(q) = q(q+1)/2."""
    c_min = _qpoch_lower(ax)
    poch = [[1] * len(xs)]
    totals = [x / (1 - x) for x in xs]
    p = 2
    while True:
        p += 1
        inner = [0 * x for x in xs]
        for j in range(p - 2):
            q = p + j
            _ensure_poch(poch, xs, q)
            c, e = math.comb(p - 3, j), q * (q + 1) // 2
            inner = [s + c * x ** e / pq
                     for s, x, pq in zip(inner, xs, poch[q])]
        sign = (-1) ** p
        totals = [total + sign * s for total, s in zip(totals, inner)]
        bound_next = (2 ** (p - 2)) * ax ** ((p + 1) * (p + 2) // 2) / c_min
        ratio = 2 * ax ** (p + 2)
        if ratio < 0.5 and bound_next / (1 - ratio) < eps:
            return [1 - total for total in totals], bound_next / (1 - ratio)


def _super_sum(xs, ax: float, c_min: float, poch: list, eps: float,
               x_exp, poch_idx, start: int, constant: int):
    """constant + sum_{j>=start} x^{x_exp(j)} / (x;x)_{poch_idx(j)} for
    superexponentially growing exponents (x_exp(j+1) - x_exp(j) >= 2).

    c_min = _qpoch_lower(ax) bounds every |(x;x)_q| from below; poch is
    the shared (x;x)_q cache of the block.
    """
    totals = [constant + 0 * x for x in xs]
    j = start
    while True:
        q = poch_idx(j)
        _ensure_poch(poch, xs, q)
        e = x_exp(j)
        totals = [total + x ** e / pq
                  for total, x, pq in zip(totals, xs, poch[q])]
        bound_next = ax ** x_exp(j + 1) / c_min
        if bound_next / (1 - ax) < eps:
            return totals, bound_next / (1 - ax)
        j += 1


def _f_alternating(xs, ax: float, eps: float, odd_exp):
    """f = (N - S)/N for peak or valley, from the numerator
    N = 1 + sum_{j>=1} x^{j(j+2)} / (x;x)_{2j} and the odd sum
    S = sum_{j>=0} x^{odd_exp(j)} / (x;x)_{2j+1}, each to eps/2.  The
    bound is the largest of the per-point bounds (nb + sb + |f| nb) / |N|."""
    c_min = _qpoch_lower(ax)
    poch = [[1] * len(xs)]
    nvs, nb = _super_sum(xs, ax, c_min, poch, eps / 2, lambda j: j * (j + 2),
                         lambda j: 2 * j, start=1, constant=1)
    svs, sb = _super_sum(xs, ax, c_min, poch, eps / 2, odd_exp,
                         lambda j: 2 * j + 1, start=0, constant=0)
    values = []
    bound = 0.0
    for x, nv, sv in zip(xs, nvs, svs):
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


def find_rho(p: PatternId, tol: float = RHO_TOL,
             eps: float = EVAL_EPS) -> float:
    """Smallest positive root of f, by bracket scan then bisection.

    Evaluates f at x = 0.50, 0.51, ..., 0.65 as one block, then, only if
    no sign change from positive (every f starts at f(0) = 1) was found,
    at 0.65, ..., 0.80, and bisects the first such bracket down to width
    `tol`.  The scan stops at 0.8, the evaluators' domain; all six
    statistics root below 0.65.
    """
    if not tol >= 1e-12:  # also rejects NaN
        raise ValueError("tol below 1e-12 exceeds double-precision headroom")
    for ks in (range(50, 66), range(65, 81)):
        xs = [k / 100 for k in ks]
        fs = _evaluate(p, xs, eps)[0]
        brackets = [(lo, hi) for lo, hi, f_lo, f_hi
                    in zip(xs, xs[1:], fs, fs[1:]) if f_lo > 0 >= f_hi]
        if brackets:
            lo, hi = brackets[0]
            break
    else:
        raise RootNotFoundError(
            f"no sign change of f_{p.value} on (0.5, {_MAX_ABS})")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if eval_f(p, mid, eps)[0] > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _circle(radius: float, samples: int) -> list[complex]:
    """The points radius * exp(2 pi i idx / samples), idx = 0 .. samples-1."""
    if samples < 1024:
        raise ValueError("need at least 1024 samples")
    if radius >= _MAX_ABS:
        raise ValueError(f"radius must be below {_MAX_ABS}")
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
    """Dominant-pole estimate: rho, v = 1/rho, K = -1/(rho f'(rho)), and
    the winding certificate over |x| = radius.

    f'(rho) comes from central differences at steps h and h/2 combined by
    one Richardson extrapolation level.  The circle is sampled once, by
    :func:`emit_curve`, which also certifies that no sample of f is 0;
    the winding is read off those rows.
    """
    rho = find_rho(p, RHO_TOL)

    def df(h: float) -> float:
        return (eval_f(p, rho + h)[0] - eval_f(p, rho - h)[0]) / (2 * h)

    d1 = df(FD_STEP)
    d2 = df(FD_STEP / 2)
    fprime = (4 * d2 - d1) / 3
    k = -1 / (rho * fprime)
    curve = emit_curve(p, radius, samples)
    return AsymptoticEstimate(
        pattern=p,
        rho=rho,
        growth_v=1 / rho,
        constant_K=k,
        winding=_winding([complex(rf, if_) for _, _, rf, if_ in curve]),
        tolerances={"rho_tol": RHO_TOL, "tail_eps": EVAL_EPS,
                    "fd_step": FD_STEP, "winding_samples": samples,
                    "winding_radius": radius},
        curve=curve,
    )


def predict_count(p: PatternId, n: int,
                  est: AsymptoticEstimate | None = None) -> float:
    """K * v^n, the dominant-pole approximation of the number of
    p-avoiding compositions of n."""
    if est is None:
        est = estimate(p)
    return est.constant_K * est.growth_v ** n


def emit_curve(p: PatternId, radius: float = WINDING_RADIUS,
               samples: int = WINDING_SAMPLES, eps: float = EVAL_EPS,
               ) -> list[tuple[float, float, float, float]]:
    """Sampled image of the circle |x| = radius under f, as rows
    (re x, im x, re f, im f) starting at angle 0.

    f has real coefficients, so f(conj x) = conj f(x): only the upper
    half, indices 0 .. samples // 2, is evaluated, in blocks of at most
    _BLOCK points, and row samples - k is the exact conjugate of row k.
    Raises AsymptoticsError unless every sampled |f| exceeds the largest
    block's truncation bound, which certifies that f vanishes at no
    sample.
    """
    points = _circle(radius, samples)[:samples // 2 + 1]
    values = []
    bound = 0.0
    for start in range(0, len(points), _BLOCK):
        block, block_bound = _evaluate(p, points[start:start + _BLOCK], eps)
        values += map(complex, block)
        bound = max(bound, block_bound)
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
