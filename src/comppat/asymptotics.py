"""Growth constants for pattern-avoiding compositions over the naturals.

For each statistic, the avoidance generating function (y = 0, z = 1,
unrestricted parts) is C = N/D, meromorphic on the unit disk, and the
number of avoiding compositions of n grows like K * v^n where

    rho = smallest positive zero of f = D/N,   v = 1/rho,
    K   = -1 / (rho * f'(rho)),

and a winding-number computation of f over a circle certifies that rho is
the only (simple) zero inside it.  f's parts, [D] where N = 1 and [N, D]
for peak and valley, have integer Taylor coefficients, expanded exactly
from q-series by ``_GENERATORS``.  As |h| <= M = :func:`_majorant` on
|x| = R = 0.8 for each part h, its terms past x^n add at most
M q^(n+1) / (1 - q) on |x| <= r, q = r/R (Cauchy's estimate), and
:func:`_order` takes the least n with this tail at most EVAL_EPS.  That
order diverges as r nears R, so points must be finite with |x| <= 0.79.
:func:`_parts` evaluates the parts on a block by Horner's rule, with one
bound per part for the block, and :func:`_quotient` forms f from them.

:func:`find_rho` takes Newton steps from a bracket scan, and
:func:`estimate` reads f'(rho), each from one complex step (Squire &
Trapp, SIAM Review 40, 1998): f(x + ih) = f(x) + ih f'(x) + O(h^2).
:func:`estimate` samples f on the circle once, by FFTs of each part's
c_i r^i (:func:`_sample_circle`): the rows are the exported curve, and
their phase increments give the winding number, which counts only if
every |f| exceeds the certified bound.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, repeat
from operator import add, mul, sub

from .patterns import PatternId

EVAL_EPS = 1e-15
# For real x, Re f(x + ih) and Im f(x + ih) / h are f(x) and f'(x) up to
# O(h^2) with no subtraction to cancel, so unlike a finite difference the
# error only falls as h shrinks: 1e-20 is exact to rounding, untuned.
COMPLEX_STEP = 1e-20
NEWTON_STEPS = 5
WINDING_SAMPLES = 4096
WINDING_RADIUS = 0.7
# _majorant bounds f's parts on |x| = _MAJORANT_RADIUS, and the order that
# keeps their tail below EVAL_EPS diverges as |x| nears it
_MAJORANT_RADIUS = 0.8
_MAX_ABS = 0.79
_U = sys.float_info.epsilon / 2
_TINY = math.ulp(0.0)


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


def _divide(c: list[int], q: int) -> None:
    """c / (1 - x^q) in place: one prefix sum along each residue mod q."""
    for s in range(q):
        c[s::q] = accumulate(c[s::q])


def _gen_111(n: int) -> list[list[int]]:
    """D = 1 - sum_{i>=1} u / (1 + u) with u = x^i (1 + x^i).  For y = x^i,
    u / (1 + u) = (y - y^3) / (1 - y^3) = sum_k g_k y^k, with g_k = 1, 0,
    -1 for k = 1, 2, 0 (mod 3), so d_n = -sum_{k | n} g_k."""
    d = [1] + [0] * n
    for k in range(1, n + 1):
        if g := (-1, 1, 0)[k % 3]:
            d[k::k] = [c - g for c in d[k::k]]
    return [d]


def _gen_112(n: int) -> list[list[int]]:
    """D = 1 - sum_{j>=1} x^j prod_{i<j} (1 - x^{2i}), the sum taken by
    Horner's rule from j = n down: acc <- x^j + (1 - x^{2j}) acc."""
    acc = [0] * (n + 1)
    for j in range(n, 0, -1):
        acc[2 * j:] = map(sub, acc[2 * j:], acc[:n + 1 - 2 * j])
        acc[j] += 1
    d = [-c for c in acc]
    d[0] = 1
    return [d]


def _gen_221(n: int) -> list[list[int]]:
    """D = 1 - sum_{i>=1} x^i prod_{j>i} (1 - x^{2j}) = 1 + E - E Q, with
    E = (x^2; x^2)_inf and Q = 1 / (x; x^2)_inf = E / (x; x)_inf by Euler's
    identity sum_i x^i / (x^2; x^2)_i = Q; Q is solved term by term from
    (x; x)_inf = sum_k (-1)^k x^(k(3k-1)/2) over all integers k (Euler)."""
    pent = sorted((k * (3 * k - 1) // 2, (-1) ** (k % 2))
                  for k in range(-n, n + 1) if k * (3 * k - 1) <= 2 * n)
    e = [0] * (n + 1)
    for g, sign in pent:
        if 2 * g <= n:
            e[2 * g] = sign
    q = e[:]
    for m in range(1, n + 1):
        q[m] -= sum(sign * q[m - g] for g, sign in pent[1:] if g <= m)
    d = e[:]
    d[0] += 1
    for g, sign in pent:
        if 2 * g <= n:
            d[2 * g:] = map(sub if sign > 0 else add, d[2 * g:], q)
    return [d]


def _gen_123(n: int) -> list[list[int]]:
    """D = 1 - x/(1-x) - sum_{p>=3} (-1)^p sum_{j=0}^{p-3} C(p-3, j)
    x^{T(p+j)} / (x;x)_{p+j} with T(q) = q(q+1)/2.  The terms with
    p + j = q sum to g_q x^{T(q)} / (x;x)_q, as sum_p (-1)^p C(p-3, q-p)
    is the coefficient of x^q in -x^3 / (1 + x + x^2): 111's g_q."""
    d = [1] + [-1] * n
    term, q = [1] + [0] * n, 0
    while (q + 1) * (q + 2) // 2 <= n:
        q += 1
        # x^{T(q)} / (x;x)_q from x^{T(q-1)} / (x;x)_{q-1}
        term = [0] * q + term[:n + 1 - q]
        _divide(term, q)
        if q >= 3 and (g := (-1, 1, 0)[q % 3]):
            d = [a - g * b for a, b in zip(d, term)]
    return [d]


def _gen_alternating(n: int, odd_exp) -> list[list[int]]:
    """N = 1 + sum_{j>=1} x^{j(j+2)} / (x;x)_{2j} and D = N - S, with the
    odd sum S = sum_{j>=0} x^{odd_exp(j)} / (x;x)_{2j+1}, for peak or
    valley.  Both exponents grow with the (x;x) index q, so the sums stop at
    the first q whose exponent passes n."""
    num, odd, inv = [1] + [0] * n, [0] * (n + 1), [1] + [0] * n
    q = 1
    while (e := odd_exp(q // 2) if q % 2 else q * (q + 4) // 4) <= n:
        _divide(inv, q)  # 1 / (x;x)_q
        total = odd if q % 2 else num
        total[e:] = map(add, total[e:], inv)
        q += 1
    return [num, list(map(sub, num, odd))]


# f's parts to order n as exact integer coefficient lists, [D] or [N, D];
# peak and valley differ in the x-exponent of the j-th term of S
_GENERATORS = {
    PatternId.P111: _gen_111,
    PatternId.P112: _gen_112,
    PatternId.P221: _gen_221,
    PatternId.P123: _gen_123,
    PatternId.PEAK: lambda n: _gen_alternating(n, lambda j: j * j + 3 * j + 1),
    PatternId.VALLEY: lambda n: _gen_alternating(n, lambda j: (j + 1) ** 2),
}

# The parts as floats, generated at least to the default circle's order and
# again only for a larger one; no value depends on the length cached.
_COEFFICIENTS: dict[PatternId, list[list[float]]] = {}


def _coefficients(p: PatternId, n: int) -> list[list[float]]:
    """f's parts' Taylor coefficients c_0, c_1, ..., at least to x^n."""
    parts = _COEFFICIENTS.get(p)
    if parts is None or len(parts[0]) <= n:
        order = max(n, _order(p, WINDING_RADIUS)[0])
        parts = _COEFFICIENTS[p] = [
            [float(c) for c in h] for h in _GENERATORS[p](order)]
    return parts


def _qpoch_lower(ax: float) -> float:
    """Rigorous positive lower bound for prod_{j>=1} (1 - ax^j)."""
    prod, j = 1.0, 1
    while ax ** j > 1e-19:
        prod *= 1 - ax ** j
        j += 1
    return prod * (1 - ax ** j / (1 - ax))


def _majorant(p: PatternId) -> float:
    """M >= |N| + |D| >= |h| on |x| = R = 0.8 for each part h (N = 1 for
    the four simple patterns; |N| + |D| <= 2|N| + |S| for peak and
    valley), term by term in the q-series of the generators: 111's i-th
    term is at most t(1 + t)/(1 - t)^2, t = R^i, as |1 + y + y^2| >=
    (1 - |y|)^2; cap bounds the guard products of 112 and 221; 1/c_min
    bounds every 1/|(x;x)_q|; 123's k-th group is at most 2^(k-3) R^T(k) /
    c_min, each at most 2R^4 times the last; N's exponents are >= 3 and
    S's >= 1.  So every Taylor coefficient has |c_i| R^i <= M."""
    r = _MAJORANT_RADIUS
    if p is PatternId.P111:
        return 1 + r * (1 + r) / (1 - r) ** 3
    if p in (PatternId.P112, PatternId.P221):
        return 1 + math.exp(r * r / (1 - r * r)) * r / (1 - r)
    c_min = _qpoch_lower(r)
    if p is PatternId.P123:
        return 1 + r / (1 - r) + r ** 6 / (1 - 2 * r ** 4) / c_min
    return 2 + (2 * r ** 3 + r) / (1 - r) / c_min


def _order(p: PatternId, ax: float) -> tuple[int, float]:
    """(n, tail): the least order n whose tail M q^(n+1) / (1 - q) bounds
    every part's terms past x^n by EVAL_EPS on |x| <= ax, q = ax / R."""
    q, majorant = ax / _MAJORANT_RADIUS, _majorant(p)
    n = 0
    while (tail := majorant * q ** (n + 1) / (1 - q)) > EVAL_EPS:
        n += 1
    return n, tail


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), for u the unit roundoff."""
    return k * _U / (1 - k * _U)


def _horner(cs: list[float], x):
    """sum_i cs[i] x^(len(cs) - 1 - i): the coefficients highest first."""
    value = 0 * x
    for c in cs:
        value = value * x + c
    return value


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


def _parts(p: PatternId, xs, ax: float):
    """f's parts on the block xs, all with |x| <= ax < 0.8, as (parts,
    bounds), by Horner's rule to the order of ax.  Each bound is the tail
    at ax plus the rounding: c_i x^i, c_i rounded to a float, meets at most
    i complex products (each within sqrt(2) gamma_2 <= gamma_3; Higham,
    section 3.6) and i + 2 other roundings, within gamma_(6n) for n >= 1;
    gamma_(8n) also covers the rounding of sum |c_i| ax^i, and n * _TINY
    the underflow.  At n = 0 the value is c_0 = 1 exactly."""
    n, tail = _order(p, ax)
    parts, bounds = [], []
    for cs in _coefficients(p, n):
        cs = cs[n::-1]
        parts.append([_horner(cs, x) for x in xs])
        bounds.append(tail + _gamma(8 * n) * _horner(list(map(abs, cs)), ax)
                      + n * _TINY)
    return parts, bounds


def _evaluate(p: PatternId, xs):
    """f at every point of the block xs, as (values, bound).  Raises
    DomainError unless every x is finite with |x| <= 0.79, and as
    _quotient."""
    bad = [x for x in xs if not abs(x) <= _MAX_ABS]  # NaN too
    if bad:
        raise DomainError(f"x = {bad[0]} is not finite with |x| <= "
                          f"{_MAX_ABS}; tail bounds unavailable")
    return _quotient(xs, *_parts(p, xs, max(map(abs, xs))))


def eval_f(p: PatternId, x):
    """f(x) = denominator/numerator of the avoidance series, with a bound
    on its error, for finite x with |x| <= 0.79.  Real input stays real.
    Raises DomainError elsewhere."""
    values, bound = _evaluate(p, [x])
    return values[0], bound


def find_rho(p: PatternId) -> float:
    """Smallest positive root of f: the first sign change from positive
    (lo, hi) on the block 0.50, 0.51, ..., 0.65 (all six statistics root
    in 0.513 .. 0.614), then NEWTON_STEPS complex-step Newton steps from
    its secant point.  Raises RootNotFoundError if the scan finds no sign
    change, a slope is 0, or the last step leaves [lo, hi]."""
    xs = [k / 100 for k in range(50, 66)]
    fs = _evaluate(p, xs)[0]
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


# |computed exp(2 pi i k / n) - exp(2 pi i k / n)| for 0 <= k < n, and per
# unit radius for the circle's points: pi's error and two roundings of an
# angle below 2 pi (1.64e-15), and one ulp in each of its cos and sin
_ROOT_ERR = 2e-15


def _fft(x: list, stages: list) -> list:
    """sum_k x_k w^(jk) for j = 0 .. n - 1, where n = len(x) is a power of
    two and stages[h][j] = w^(m floor(j / m)) for j < n / 2, m = 2^h:
    Stockham's radix-2 FFT, by decimation in frequency with the output in
    natural order, assembled by the m-long blocks when they are fewer."""
    half = len(x) // 2
    for h, w in enumerate(stages):
        m, c0, c1 = 1 << h, x[:half], x[half:]
        sums = list(map(add, c0, c1))
        diffs = list(map(mul, w, map(sub, c0, c1)))
        if m * m > half:
            x = []
            for j in range(0, half, m):
                x += sums[j:j + m] + diffs[j:j + m]
        else:
            x = [0j] * (2 * half)
            for k in range(m):
                x[k::2 * m], x[k + m::2 * m] = sums[k::m], diffs[k::m]
    return x


def _sample_circle(p: PatternId, radius: float, samples: int):
    """f at radius * w^idx, idx = 0 .. samples // 2, w = exp(2 pi i /
    samples), as (points, values, bound), the bound holding at every point.
    A part h is sum_i c_i r^i w^(i idx) to the order n of r.  For P the
    least power of two above n that divides samples, row s + (samples / P)
    j is the P-point DFT at j of c_i r^i w^(i s) folded mod P: one FFT per
    offset s <= samples / (2P), and mirrors past that, as h has real
    coefficients; if samples is odd, _parts evaluates every row.  Per part
    the bound adds to the tail the points' error |h'| r _ROOT_ERR, the
    inputs' error E (powers r^i with underflow, c_i's rounding, twiddles,
    folding), which the DFT keeps at most E, and the FFT's, at most t eta /
    (1 - t eta) sqrt(P) (A + E) with A = sum |c_i| r^i (Higham, Theorem
    24.2)."""
    if samples < 1024:
        raise ValueError("need at least 1024 samples")
    if not 0 < radius <= _MAX_ABS:  # also rejects NaN
        raise ValueError(f"radius must be in (0, {_MAX_ABS}]")
    # exp(2 pi i k / samples): the points, the size-P roots and the twiddles
    unit = [complex(math.cos(a), math.sin(a)) for a in
            (2 * math.pi * k / samples for k in range(samples // 2 + 1))]
    points = [radius * w for w in unit]
    n, tail = _order(p, radius)
    size = min(samples & -samples, 1 << n.bit_length())
    if size == 1:  # |x| may pass radius by an ulp
        return (points, *_quotient(
            points, *_parts(p, points, max(map(abs, points)))))
    stride, fold = samples // size, -(-(n + 1) // size)
    twiddles = unit + [w.conjugate() for w in unit[(samples - 1) // 2:0:-1]]
    roots = unit[:samples // 2:stride]
    stages = [[wj for wj in roots[::m] for _ in range(m)]  # per FFT stage
              for m in (1 << h for h in range(size.bit_length() - 1))]
    # |h'| <= M R / (R - r)^2 on |x| = r (Cauchy), times a point's error
    slope = _majorant(p) * _MAJORANT_RADIUS * radius * _ROOT_ERR \
        / (_MAJORANT_RADIUS - radius) ** 2
    t_eta = (size.bit_length() - 1) * (
        _ROOT_ERR + 4 * _U / (1 - 4 * _U) * (math.sqrt(2) + _ROOT_ERR))
    rows, errors = [], []
    for cs in _coefficients(p, n):
        terms = list(map(mul, cs[:n + 1],
                         accumulate(repeat(radius, n), mul, initial=1.0)))
        wide = [0j] * samples
        for s in range(stride // 2 + 1):
            twiddled = [t * twiddles[i * s % samples]
                        for i, t in enumerate(terms)]
            wide[s::stride] = _fft(  # 0 + t and 0: sum's bits, unfolded
                [0 + t for t in twiddled] + [0] * (size - n - 1) if n < size
                else [sum(twiddled[k::size]) for k in range(size)], stages)
        for s in range(stride // 2 + 1, stride):
            wide[s::stride] = [v.conjugate() for v in
                               reversed(wide[stride - s::stride])]
        rows.append(wide[:len(points)])
        # each underflowing product is off by at most _TINY / 2
        underflow = (n + 1) * (1 + sum(map(abs, cs[:n + 1]))) * _TINY
        a = (sum(map(abs, terms)) + underflow) * (1 + _gamma(2 * n + 3))
        inputs = (_gamma(n + fold + 4) + 2 * _ROOT_ERR) * a + underflow
        errors.append(tail + slope + inputs + t_eta / (1 - t_eta)
                      * math.sqrt(size) * (a + inputs))
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
        ratio = values[(idx + 1) % samples] / values[idx]
        step = math.atan2(ratio.imag, ratio.real)
        if abs(step) > math.pi / 2:
            raise UndersamplingError(
                f"phase step {step:.3f} at sample {idx} exceeds pi/2; "
                "double the sample count")
        total += step
    return round(total / (2 * math.pi))


def _curve(p: PatternId, radius: float, samples: int):
    """(rows, values): emit_curve's rows, and f at every sample, the lower
    half the exact conjugates of the upper.  Raises as emit_curve."""
    points, values, bound = _sample_circle(p, radius, samples)
    low = min(map(abs, values))
    if not low > bound:
        raise AsymptoticsError(
            f"min |f| = {low:.3g} on |x| = {radius} does not exceed the "
            f"error bound {bound:.3g}; the winding is not certified")
    mirror = slice((samples - 1) // 2, 0, -1)
    points += [x.conjugate() for x in points[mirror]]
    values += [v.conjugate() for v in values[mirror]]
    return [(x.real, x.imag, v.real, v.imag)
            for x, v in zip(points, values)], values


def winding_number(p: PatternId, radius: float = WINDING_RADIUS,
                   samples: int = WINDING_SAMPLES) -> int:
    """Winding number of f over |x| = radius: the count of zeros of f
    inside (zeros of the denominator minus zeros of the numerator)."""
    return _winding(_curve(p, radius, samples)[1])


def estimate(p: PatternId, radius: float = WINDING_RADIUS,
             samples: int = WINDING_SAMPLES) -> AsymptoticEstimate:
    """Dominant-pole estimate: rho, v = 1/rho, K = -1/(rho f'(rho)) with
    f'(rho) from one complex step, and the winding certificate over
    |x| = radius, read off the values that :func:`emit_curve` certifies
    nonzero, from one sampling of the circle."""
    rho = find_rho(p)
    fprime = eval_f(p, complex(rho, COMPLEX_STEP))[0].imag / COMPLEX_STEP
    k = -1 / (rho * fprime)
    curve, values = _curve(p, radius, samples)
    return AsymptoticEstimate(
        pattern=p, rho=rho, growth_v=1 / rho, constant_K=k,
        winding=_winding(values), curve=curve,
        tolerances={"tail_eps": EVAL_EPS, "winding_samples": samples,
                    "winding_radius": radius})


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
    (re x, im x, re f, im f) starting at angle 0, for 0 < radius <= 0.79.
    f has real coefficients, so f(conj x) = conj f(x): rows 0 .. samples
    // 2 are computed (see :func:`_sample_circle`), and row samples - k is
    the exact conjugate of row k.  Raises AsymptoticsError unless every |f|
    exceeds the bound, which certifies that f vanishes at no sample."""
    return _curve(p, radius, samples)[0]
