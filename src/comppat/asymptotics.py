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

The evaluators, one table ``_PARTS``, take a block of points xs, its
largest modulus ax and a tolerance eps, and return f's parts ``(parts,
bounds)``: parts is [D] where N = 1 and [N, D] for peak and valley, a
list of values per part, and each bound is a guaranteed upper bound on
that part's truncation error at every point of the block (floating-point
rounding aside).  Stopping indices and tail bounds grow with |x|, so each
evaluator fixes them from ax and eps alone, once per block, and then runs
one scalar loop per point: a point's value depends on ax and eps, not on
the other points of its block.  The one entry, :func:`_parts`, owns the
input bounds: finite points with |x| <= 0.8 and eps >= the smallest
normal double.  So every loop ends: each tail bound decays at least
geometrically in ax <= 0.8 and underflows to 0, below eps, within a few
thousand terms.  :func:`_evaluate` forms f from the parts, and
:func:`eval_f` is a one-point block.

:func:`find_rho` takes Newton steps from a bracket scan, and
:func:`estimate` reads f'(rho), each from one complex step (Squire &
Trapp, SIAM Review 40, 1998): f(x + ih) = f(x) + ih f'(x) + O(h^2).

:func:`estimate` samples f on the circle once, by :func:`emit_curve`: the
rows are the exported curve and their phase increments give the winding
number.  f has real coefficients, so f(conj x) = conj f(x): rows
0 .. S // 2 of the S samples are computed, and the rest are their exact
conjugates.  The evaluators run only at every (S/P)-th of those rows.
Each part h has real coefficients: one inverse FFT gives its P aliased
Taylor coefficients, S/(2P) twiddled FFTs of size P give h at the other
points up to half the stride, and the rest are their conjugate mirrors.
P is the least power of two below S that divides S with an aliasing term
2 M (r/R)^P / (1 - r/R) <= EVAL_EPS on |x| = r, where M >= |h| on
|x| = R = 0.8 (Trefethen & Weideman, SIAM Review 56, 2014); if there is
none, P = S and every row is evaluated.  The winding counts only if
every |f| exceeds the certified bound: per part, the aliasing term,
sqrt(P) times the samples' truncation bound (Parseval and
Cauchy-Schwarz), and the rounding of the points and of the transforms
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
section 24.1).
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
    return [values], [tail]


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
    return [values], [tail]


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
    exps = {*range(1, L + 1), *range(4, 2 * L + 1, 2)}
    values = []
    for x in xs:
        pw = {e: x ** e for e in exps}
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
    return [values], [outer_tail + inner_tail]


def _qpoch_lower(ax: float) -> float:
    """Rigorous positive lower bound for prod_{j>=1} (1 - ax^j)."""
    prod = 1.0
    j = 1
    while ax ** j > 1e-19:
        prod *= 1 - ax ** j
        j += 1
    return prod * (1 - ax ** j / (1 - ax))


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
    exps = {*(t for _, terms in rows for t, _, _ in terms),
            *range(1, 2 * p - 2)}
    values = []
    for x in xs:
        pw = {e: x ** e for e in exps}
        poch = _poch(pw, 2 * p - 3)
        total = x / (1 - x)
        for sign, terms in rows:
            inner = 0 * x
            for t, q, c in terms:
                inner = inner + c * pw[t] / poch[q]
            total = total + sign * inner
        values.append(1 - total)
    return [values], [bound_next / (1 - ratio)]


def _num_den_alternating(xs, ax: float, eps: float, odd_exp):
    """N and D = N - S for peak or valley, from the numerator
    N = 1 + sum_{j>=1} x^{j(j+2)} / (x;x)_{2j} and the odd sum
    S = sum_{j>=0} x^{odd_exp(j)} / (x;x)_{2j+1}, each to eps/2, as
    ([N values, D values], [N bound, D bound]).

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
    exps = {*(e for _, terms in plans for e, _ in terms), *range(1, top + 1)}
    nvs, dvs = [], []
    for x in xs:
        pw = {e: x ** e for e in exps}
        poch = _poch(pw, top)
        sums = []
        for constant, terms in plans:
            total = constant + 0 * x
            for e, q in terms:
                total = total + pw[e] / poch[q]
            sums.append(total)
        nv, sv = sums
        nvs.append(nv)
        dvs.append(nv - sv)
    return [nvs, dvs], [nb, nb + sb]


def _quotient(xs, parts, bounds):
    """f on the block xs from its parts, as (values, bound): D itself, or
    D/N from parts = [N values, D values] with error bounds [nb, db], whose
    bound is the largest of the per-point bounds (db + |f| nb) / |N|.
    Raises AsymptoticsError where |N| < 1e-9."""
    if len(parts) == 1:
        return parts[0], bounds[0]
    (nvs, dvs), (nb, db) = parts, bounds
    values, bound = [], 0.0
    for x, nv, dv in zip(xs, nvs, dvs):
        if abs(nv) < 1e-9:
            raise AsymptoticsError(
                f"numerator nearly vanishes at {x}; f undefined there")
        value = dv / nv
        values.append(value)
        bound = max(bound, (db + abs(value) * nb) / abs(nv))
    return values, bound


# f's parts on a block of points, [D] or [N, D], as (parts, one bound per
# part for the whole block); peak and valley differ in the x-exponent of
# the j-th term of the odd sum S
_PARTS = {
    PatternId.P111: _den_111,
    PatternId.P112: _den_112,
    PatternId.P221: _den_221,
    PatternId.P123: _den_123,
    PatternId.PEAK: lambda xs, ax, eps: _num_den_alternating(
        xs, ax, eps, lambda j: j * j + 3 * j + 1),
    PatternId.VALLEY: lambda xs, ax, eps: _num_den_alternating(
        xs, ax, eps, lambda j: (j + 1) * (j + 1)),
}


def _max_abs(xs, eps: float) -> float:
    """The largest |x| of the block xs.  Raises ValueError unless
    eps >= sys.float_info.min, and DomainError unless every x is finite
    with |x| <= 0.8."""
    if not eps >= sys.float_info.min:  # also rejects NaN
        raise ValueError(f"eps must be at least {sys.float_info.min}")
    mags = [abs(x) for x in xs]
    bad = [x for x, mag in zip(xs, mags) if not mag <= _MAX_ABS]  # NaN too
    if bad:
        raise DomainError(f"x = {bad[0]} is not finite with |x| <= "
                          f"{_MAX_ABS}; tail bounds unavailable")
    return max(mags)


def _parts(p: PatternId, xs, eps: float):
    """f's parts at every point of the block xs, as (parts, bounds): each
    bound holds for each point, because every shared bound grows with |x|
    and is taken at the largest |x| in the block.  Raises as _max_abs."""
    return _PARTS[p](xs, _max_abs(xs, eps), eps)


def _evaluate(p: PatternId, xs, eps: float):
    """f at every point of the block xs, as (values, bound).  Raises as
    _parts and _quotient."""
    return _quotient(xs, *_parts(p, xs, eps))


def eval_f(p: PatternId, x, eps: float = EVAL_EPS):
    """f(x) = denominator/numerator of the avoidance series, with a bound
    on the truncation error.  Real input stays real."""
    values, bound = _evaluate(p, [x], eps)
    return values[0], bound


def find_rho(p: PatternId) -> float:
    """Smallest positive root of f: the first sign change from positive
    (lo, hi) on the block 0.50, 0.51, ..., 0.65 (all six statistics root
    in 0.513 .. 0.614), then NEWTON_STEPS complex-step Newton steps from
    its secant point.  Raises RootNotFoundError if the scan finds no sign
    change, a slope is 0, or the last step leaves [lo, hi]."""
    xs = [k / 100 for k in range(50, 66)]
    fs = _evaluate(p, xs, EVAL_EPS)[0]
    brackets = [(lo, hi, f_lo, f_hi) for lo, hi, f_lo, f_hi
                in zip(xs, xs[1:], fs, fs[1:]) if f_lo > 0 >= f_hi]
    if not brackets:
        raise RootNotFoundError(
            f"no sign change of f_{p.value} on [{xs[0]}, {xs[-1]}]")
    lo, hi, f_lo, f_hi = brackets[0]
    x = lo + f_lo * (hi - lo) / (f_lo - f_hi)
    for _ in range(NEWTON_STEPS):
        value = eval_f(p, complex(x, COMPLEX_STEP))[0]
        if value.imag == 0:
            raise RootNotFoundError(f"f_{p.value} has slope 0 at {x}")
        x -= value.real * COMPLEX_STEP / value.imag
    if not lo <= x <= hi:  # also rejects NaN
        raise RootNotFoundError(
            f"Newton's method for f_{p.value} left [{lo}, {hi}] at {x}")
    return x


def _majorant(p: PatternId) -> float:
    """M >= |N| + |D| >= |h| on |x| = R = 0.8 for each part h (N = 1 for
    the four simple patterns; |N| + |D| <= 2|N| + |S| for peak and
    valley), term by term: 111's i-th term is at most t(1 + t)/(1 - t)^2,
    t = R^i, as |1 + y + y^2| >= (1 - |y|)^2; cap bounds the guard
    products of 112 and 221; 1/c_min bounds every 1/|(x;x)_q|; 123's k-th
    group is at most 2^(k-3) R^T(k) / c_min, each at most 2R^4 times the
    last; N's exponents are >= 3 and S's >= 1."""
    r = _MAX_ABS
    if p is PatternId.P111:
        return 1 + r * (1 + r) / (1 - r) ** 3
    if p in (PatternId.P112, PatternId.P221):
        return 1 + math.exp(r * r / (1 - r * r)) * r / (1 - r)
    c_min = _qpoch_lower(r)
    if p is PatternId.P123:
        return 1 + r / (1 - r) + r ** 6 / (1 - 2 * r ** 4) / c_min
    return 2 + (2 * r ** 3 + r) / (1 - r) / c_min


def _alias(majorant: float, radius: float, size: int) -> float:
    """2 M q^size / (1 - q), q = radius / 0.8: how far the interpolant of h
    from size points is from h on |x| = radius."""
    q = radius / _MAX_ABS
    return 2 * majorant * q ** size / (1 - q)


def _transform_size(majorant: float, radius: float, samples: int) -> int:
    """P: the least power of two below samples that divides it and has an
    aliasing term of at most EVAL_EPS, or samples if none does."""
    size = 2
    while samples % size == 0 and size < samples:
        if _alias(majorant, radius, size) <= EVAL_EPS:
            return size
        size *= 2
    return samples


# |computed exp(2 pi i k / n) - exp(2 pi i k / n)| for 0 <= k < n, and per
# unit radius for the circle's points: pi's error and two roundings of an
# angle below 2 pi (1.64e-15), and one ulp in each part of cmath.exp
_ROOT_ERR = 2e-15


def _fft(x: list, roots: list) -> list:
    """sum_k x_k w^(jk) for j = 0 .. n - 1, where n = len(x) is a power of
    two and roots[k] = w^k for k < n / 2: Stockham's radix-2 FFT, by
    decimation in frequency with the output in natural order."""
    n, m = len(x), 1
    while m < n:
        c0, c1 = x[:n // 2], x[n // 2:]
        w = [wj for wj in roots[::m] for _ in range(m)]
        sums = [a + b for a, b in zip(c0, c1)]
        diffs = [wj * (a - b) for wj, a, b in zip(w, c0, c1)]
        x = [0j] * n
        for k in range(m):
            x[k::2 * m], x[k + m::2 * m] = sums[k::m], diffs[k::m]
        m *= 2
    return x


def _sample_circle(p: PatternId, radius: float, samples: int):
    """f on the upper half of the circle, radius * exp(2 pi i idx /
    samples) for idx = 0 .. samples // 2, as (points, values, bound) with
    the bound holding at every point; see the module docstring."""
    if samples < 1024:
        raise ValueError("need at least 1024 samples")
    if not 0 < radius < _MAX_ABS:  # also rejects NaN
        raise ValueError(f"radius must be in (0, {_MAX_ABS})")
    # exp(2 pi i k / samples): the points, the size-P roots and the twiddles
    unit = [cmath.exp(2j * cmath.pi * k / samples)
            for k in range(samples // 2 + 1)]
    points = [radius * w for w in unit]
    majorant = _majorant(p)
    size = _transform_size(majorant, radius, samples)
    if size == samples:
        return (points, *_evaluate(p, points, EVAL_EPS))
    stride, root = samples // size, math.sqrt(size)
    parts, bounds = _parts(p, points[::stride], EVAL_EPS / root)
    roots = unit[:samples // 2:stride]
    # |h'| <= M R / (R - r)^2 on |x| = r (Cauchy), times a point's error;
    # Higham's Theorem 24.2 bounds each transform's relative 2-norm error
    slope = majorant * _MAX_ABS / (_MAX_ABS - radius) ** 2 * radius \
        * _ROOT_ERR
    u = sys.float_info.epsilon / 2
    t_eta = (size.bit_length() - 1) * (
        _ROOT_ERR + 4 * u / (1 - 4 * u) * (math.sqrt(2) + _ROOT_ERR))
    rows, errors = [], []
    for vs, bound in zip(parts, bounds):
        # h on the whole sub-circle, its lower half by conjugate symmetry
        ys = vs + [v.conjugate() for v in vs[-2:0:-1]]
        coeffs = [c.conjugate() / size
                  for c in _fft([y.conjugate() for y in ys], roots)]
        # h at the points idx = s mod stride from the coefficients twiddled
        # by exp(2 pi i s k / samples); h has real coefficients, so the
        # offsets s past stride / 2 mirror those below
        wide = [0j] * samples
        wide[::stride] = ys
        for s in range(1, stride):
            if 2 * s <= stride:
                wide[s::stride] = _fft(
                    [c * unit[s * k] for k, c in enumerate(coeffs)], roots)
            else:
                wide[s::stride] = [v.conjugate() for v in
                                   reversed(wide[stride - s::stride])]
        rows.append(wide[:len(points)])
        # the samples' truncation and point errors, the row's point error,
        # aliasing, and the rounding of the inverse FFT, the twiddles and
        # the FFTs, at most 3 t eta / (1 - t eta) ||ys||
        errors.append(
            root * (bound + slope) + slope + _alias(majorant, radius, size)
            + 3 * t_eta / (1 - t_eta)
            * math.sqrt(sum(abs(y) ** 2 for y in ys)))
    return (points, *_quotient(points, rows, errors))


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
                   samples: int = WINDING_SAMPLES) -> int:
    """Winding number of f over |x| = radius: the count of zeros of f
    inside (zeros of the denominator minus zeros of the numerator)."""
    return _winding([complex(rf, if_)
                     for _, _, rf, if_ in emit_curve(p, radius, samples)])


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
               samples: int = WINDING_SAMPLES,
               ) -> list[tuple[float, float, float, float]]:
    """Sampled image of the circle |x| = radius under f, as rows
    (re x, im x, re f, im f) starting at angle 0.

    f has real coefficients, so f(conj x) = conj f(x): only the upper
    half, indices 0 .. samples // 2, is computed, and row samples - k is
    the exact conjugate of row k.  Rows idx = 0, S/P, 2 S/P, ... are f
    from the evaluators' parts at EVAL_EPS / sqrt(P), and the rest are f
    from parts interpolated from them (P = samples evaluates every row at
    EVAL_EPS); see the module docstring.  Raises AsymptoticsError unless
    every |f| exceeds the bound, aliasing and rounding included, which
    certifies that f vanishes at no sample.
    """
    points, values, bound = _sample_circle(p, radius, samples)
    low = min(map(abs, values))
    if not low > bound:
        raise AsymptoticsError(
            f"min |f| = {low:.3g} on |x| = {radius} does not exceed the "
            f"error bound {bound:.3g}; the winding is not certified")
    rows = [(x.real, x.imag, value.real, value.imag)
            for x, value in zip(points, values)]
    rows += [(rx, -ix, rf, -if_)
             for rx, ix, rf, if_ in reversed(rows[1:(samples + 1) // 2])]
    return rows
