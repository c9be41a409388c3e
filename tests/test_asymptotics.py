"""Dominant-pole machinery: evaluators, roots, windings, predictions.

The printed six-digit growth constants are asserted in full in
test_acceptance.py; here the focus is the numeric plumbing.
"""

import cmath
import hashlib
import math
from fractions import Fraction

import pytest

from comppat import asymptotics, genfun
from comppat.asymptotics import (EVAL_EPS, AsymptoticsError, DomainError,
                                 UndersamplingError, _evaluate, _parts,
                                 _winding, emit_curve, estimate, eval_f,
                                 find_rho, predict_count, winding_number)
from comppat.genfun import avoidance_sequence
from comppat.patterns import PartSet, PatternId
from comppat.series import image_grade

P = PatternId


def circle(radius, samples):
    # the upper half of the circle, as emit_curve samples it
    return [radius * cmath.exp(2j * cmath.pi * idx / samples)
            for idx in range(samples // 2 + 1)]


def test_f_at_zero_is_one():
    for p in P:
        value, bound = eval_f(p, 0.0)
        assert value == 1
        assert bound == 0


def test_f111_vanishes_at_its_root():
    rho = find_rho(P.P111)
    assert abs(eval_f(P.P111, rho)[0]) < 1e-10
    assert abs(rho - 1 / 1.91076) < 1e-5


def test_f_peak_brackets_its_root():
    assert eval_f(P.PEAK, 0.55)[0] > 0
    assert eval_f(P.PEAK, 0.65)[0] < 0


def test_find_rho_examples():
    assert abs(find_rho(P.P221) - 1 / 1.94785) < 1e-5
    assert abs(find_rho(P.VALLEY) - 1 / 1.84092) < 1e-5


@pytest.mark.parametrize("p", list(P))
def test_find_rho_scans_in_one_block(monkeypatch, p):
    # every statistic roots below 0.65, so the bracket scan is the one
    # block 0.50, 0.51, ..., 0.65; only Newton's method evaluates single
    # points
    quotient = asymptotics._quotient
    blocks = []

    def counting(xs, parts, bounds):
        blocks.append((xs[0], len(xs), max(map(abs, xs))))
        return quotient(xs, parts, bounds)
    monkeypatch.setattr(asymptotics, "_quotient", counting)
    find_rho(p)
    assert blocks[0] == (0.5, 16, 0.65)
    assert len(blocks) > 1 and {n for _, n, _ in blocks[1:]} == {1}


@pytest.mark.parametrize("root", [0.6505, 0.655, 0.6599, 0.7777, None])
def test_find_rho_without_a_sign_change_scans_one_block(monkeypatch, root):
    # the scan is the one block 0.50 ... 0.65: a root above 0.65, even one
    # in (0.65, 0.66), or none at all is not searched for further
    sizes = []

    def linear(xs, parts, bounds):
        sizes.append(len(xs))
        return [1.0 if root is None else root - x for x in xs], 0.0
    monkeypatch.setattr(asymptotics, "_quotient", linear)
    with pytest.raises(asymptotics.RootNotFoundError,
                       match=r"no sign change of f_111 on \[0.5, 0.65\]"):
        find_rho(P.P111)
    assert sizes == [16]


def stub_root(x):
    # real on the real axis, with one root 0.555 and enough curvature that
    # the secant point of the bracket (0.55, 0.56) misses it
    return 1 - (x / 0.555) ** 40


def wrong_slope(xs, parts, bounds):
    # f(conj x): right on the real axis, but Im f(x + ih) / h is -f'(x)
    return [stub_root(x.conjugate()) for x in xs], 0.0


def flat_slope(xs, parts, bounds):
    # f(Re x): right on the real axis, but Im f(x + ih) is 0
    return [stub_root(x.real) for x in xs], 0.0


@pytest.mark.parametrize("stub, message", [
    (wrong_slope, r"Newton's method for f_111 left \[0.55, 0.56\]"),
    (flat_slope, "f_111 has slope 0")])
def test_find_rho_refuses_a_bad_complex_step_slope(monkeypatch, stub,
                                                   message):
    monkeypatch.setattr(asymptotics, "_quotient", stub)
    with pytest.raises(asymptotics.RootNotFoundError, match=message):
        find_rho(P.P111)


def vanishing_numerator(monkeypatch, at):
    # peak's parts with N replaced by 0 at the point `at`, on every path
    # from the parts to f
    quotient = asymptotics._quotient

    def stub(xs, parts, bounds):
        nvs, dvs = parts
        return quotient(xs, [[0 * nv if x == at else nv
                              for x, nv in zip(xs, nvs)], dvs], bounds)
    monkeypatch.setattr(asymptotics, "_quotient", stub)


def test_f_is_refused_where_the_numerator_vanishes(monkeypatch):
    # f = D/N is undefined where N = 0, at a point and on the circle
    vanishing_numerator(monkeypatch, 0.5)
    with pytest.raises(AsymptoticsError, match="numerator nearly vanishes"):
        eval_f(P.PEAK, 0.5)
    assert eval_f(P.PEAK, 0.55)[0] > 0
    vanishing_numerator(monkeypatch, 0.7)
    with pytest.raises(AsymptoticsError, match="numerator nearly vanishes"):
        emit_curve(P.PEAK, 0.7, 1024)


def test_estimate_equality_and_repr_leave_out_the_curve(default_estimate):
    est = default_estimate(P.P111)
    fields = {name: getattr(est, name) for name in (
        "pattern", "rho", "growth_v", "constant_K", "winding", "tolerances")}
    same = asymptotics.AsymptoticEstimate(**fields, curve=[])
    assert same == est and same.curve == [] and est.curve
    assert repr(same) == repr(est)
    assert "curve" not in repr(est)
    assert repr(est).startswith("AsymptoticEstimate(pattern=<PatternId.P111")
    assert same != asymptotics.AsymptoticEstimate(
        **dict(fields, winding=2), curve=est.curve)


def test_rho_above_half_for_all_patterns():
    for p in P:
        rho = find_rho(p)
        assert 0.5 < rho < 1


def test_eval_domain_guard():
    nan = float("nan")
    for x in (0.93, 0.795, complex(0.79, 1e-7), nan, complex(nan, 0),
              complex(0.1, nan), float("inf")):
        with pytest.raises(DomainError):
            eval_f(P.P112, x)
        # the bad point need not be the first of its block
        for p in P:
            with pytest.raises(DomainError):
                _evaluate(p, [0.5, x])


@pytest.mark.parametrize("p", list(P))
def test_eval_terminates_at_the_input_bounds(p):
    # at the largest |x| that _evaluate accepts, the order rule still
    # stops, near 3,700, and the bound is finite
    values, bound = _evaluate(p, [0.79, 0.79 * cmath.exp(1j), -0.79, 0.0])
    assert all(cmath.isfinite(v) for v in values)
    assert math.isfinite(bound)


def test_f_is_the_denominator_for_simple_patterns():
    # the numerator of these four series is identically 1, so f is D,
    # their one part
    for p in (P.P111, P.P112, P.P221, P.P123):
        for x in (0.6, 0.7 * cmath.exp(0.73j)):
            (values,), (bound,) = _parts(p, [x], abs(x))
            assert eval_f(p, x) == (values[0], bound), (p, x)


@pytest.mark.parametrize("p", list(P))
def test_a_point_value_does_not_depend_on_its_block(p):
    # the order comes from the block's largest |x| alone, so each point of
    # a block sees the operations it would see alone at that |x|
    xs = [0.0, 0.3, -0.6, 0.5j, 0.7 * cmath.exp(0.73j), 0.75 * cmath.exp(3j)]
    ax = max(map(abs, xs))
    parts, bounds = _parts(p, xs, ax)
    alone = [_parts(p, [x], ax) for x in xs]
    assert parts == [[one[j][0] for one, _ in alone]
                     for j in range(len(parts))]
    assert all(one == bounds for _, one in alone)


def builders_pair(p, order):
    # the genfun builders' (N, D) over nat as int lists: each side's grades
    # collapsed at y = 0, z = 1, with D = 1 - t
    num, t = (image_grade(side, order)[2] for side in genfun._GRADES[p](
        genfun._parts(PartSet.naturals(), order), order))
    return [num, [1 - t[0]] + [-c for c in t[1:]]]


@pytest.mark.parametrize("p", list(P))
def test_generators_equal_the_builders_pair(p):
    # two derivations of f's parts that share no code: the q-series
    # expanded in ints, and the series ring's builders; N = 1 where the
    # generator gives D alone
    num, den = builders_pair(p, 120)
    parts = asymptotics._GENERATORS[p](120)
    assert parts == ([den] if num == [1] + [0] * 120 else [num, den])
    # a shorter expansion is a prefix of a longer one
    assert [h[:41] for h in parts] == asymptotics._GENERATORS[p](40)



# SHA-256 over the repr of every eval_f value and bound at the points
# below and of three blocks, recorded when f's parts came from their exact
# Taylor coefficients by Horner's rule.
EVALUATOR_FINGERPRINT = \
    "70281678439e516bbec4be523f4c576c822688ee8320475d7bc8b6dc57e04ab7"
# SHA-256 over the repr of find_rho, recorded when Newton's method from
# the secant point replaced bisection and again when f's parts came from
# their exact Taylor coefficients.
FIND_RHO_FINGERPRINT = \
    "e857b4b8dab146c95b0fc5947bb80a3709e37d95d69102725aa6726e52f58d5a"


def test_evaluators_match_recorded_fingerprint():
    reals = [k / 20 for k in range(-15, 16)] + [-0.79, 0.79]
    off_axis = [r * cmath.exp(1j * t) for r in (0.3, 0.7, 0.79)
                for t in (0.4, 1.3, 2.2, 3.1)] + [0.79j, -0.79j, 0j]
    blocks = [[k / 100 for k in range(50, 66)], circle(0.75, 1024)[:40],
              [0.2, -0.5j, 0.7 * cmath.exp(2j), 0.79]]
    lines = []
    for p in P:
        lines += [repr((p.value, x, eval_f(p, x))) for x in reals + off_axis]
        lines += [repr((p.value, _evaluate(p, xs))) for xs in blocks]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EVALUATOR_FINGERPRINT


def test_find_rho_matches_recorded_fingerprint():
    lines = [repr((p.value, EVAL_EPS, find_rho(p))) for p in P]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FIND_RHO_FINGERPRINT


def exact_parts(p, x, order=400):
    # each part at the real float x, exactly, from its coefficients to
    # `order`; on |x| <= 0.7 the terms past 400 add below 2e-19 (Cauchy)
    return [exact_at(h, x)[0] for h in asymptotics._GENERATORS[p](order)]


def test_tail_bound_honest(monkeypatch):
    # each part is within its bound of its exact value; at a loose
    # EVAL_EPS the truncation error outgrows the rounding term, so the
    # bound needs its tail
    xs = (0.3, 0.55, -0.62, 0.7)
    for eps in (EVAL_EPS, 0.1):
        monkeypatch.setattr(asymptotics, "EVAL_EPS", eps)
        for p in P:
            parts, bounds = _parts(p, xs, 0.7)
            tail = asymptotics._order(p, 0.7)[1]
            beyond = []
            for k, x in enumerate(xs):
                for vs, bound, exact in zip(parts, bounds, exact_parts(p, x)):
                    error = abs(Fraction(vs[k]) - exact)
                    assert error <= Fraction(bound) + Fraction(2e-19), (p, x)
                    beyond.append(error > bound - tail)
            assert eps == EVAL_EPS or any(beyond), p


def test_conjugate_symmetry_on_circle():
    for p in P:
        x = 0.7 * cmath.exp(0.73j)
        up = eval_f(p, x)[0]
        down = eval_f(p, x.conjugate())[0]
        assert abs(up.conjugate() - down) < 1e-12


# -- winding numbers -----------------------------------------------------------

def winding_of(fn, radius, samples):
    # winding number of fn's image of the circle |x| = radius around 0
    points = circle(radius, samples)
    points += [x.conjugate() for x in reversed(points[1:(samples + 1) // 2])]
    return _winding([complex(fn(x)) for x in points])


def test_winding_constant_stub():
    assert winding_of(lambda x: 3 + 0j, 0.7, 1024) == 0


def test_winding_monomial_stub():
    assert winding_of(lambda x: x, 0.7, 1024) == 1
    assert winding_of(lambda x: x * x, 0.7, 1024) == 2


def test_winding_undersampling_guard():
    with pytest.raises(UndersamplingError):
        winding_of(lambda x: x ** 600, 0.7, 1024)


def test_circle_radius_must_lie_in_the_domain():
    for radius in (0.0, -0.5, 0.8, 0.93, float("nan")):
        with pytest.raises(ValueError, match="radius"):
            estimate(P.P112, radius, 1024)


def test_winding_requires_enough_samples():
    with pytest.raises(ValueError, match="1024 samples"):
        winding_number(P.P112, 0.7, 512)


def test_winding_each_pattern_standard_circle():
    for p in P:
        assert winding_number(p, 0.7, 2048) == 1, p


def test_winding_small_circle_excludes_root():
    # rho_111 ~ 0.5234 lies outside |x| = 0.51
    assert winding_number(P.P111, 0.51, 1024) == 0


def test_winding_stable_under_doubling():
    assert winding_number(P.P123, 0.7, 2048) == \
        winding_number(P.P123, 0.7, 4096)


# -- estimates -----------------------------------------------------------------

def test_estimate_111(default_estimate):
    est = default_estimate(P.P111)
    assert abs(est.growth_v - 1.91076) / 1.91076 < 1e-5
    assert abs(est.constant_K - 0.499301) / 0.499301 < 1e-4
    assert est.winding == 1
    assert est.tolerances == {"tail_eps": 1e-15, "winding_samples": 4096,
                              "winding_radius": 0.7}


def test_estimate_consistent_with_exact_ratio(default_estimate):
    # consecutive exact avoider counts already grow at rate v
    for p in P:
        order = 25 if p is P.P111 else 20
        seq = avoidance_sequence(p, PartSet.naturals(), order)
        ratio = seq[order] / seq[order - 1]
        est = default_estimate(p)
        assert abs(ratio - est.growth_v) / est.growth_v < 5e-3, p


def test_prediction_matches_exact_count_at_order_cap(default_estimate):
    # the float q-series evaluators against the exact series ring, which
    # share no code; the error at n = 60 is below 5e-10 for every pattern
    for p in P:
        exact = avoidance_sequence(p, PartSet.naturals(), 60)[60]
        est = default_estimate(p)
        predicted = est.constant_K * est.growth_v ** 60
        assert abs(predicted - exact) / exact <= 1e-8, p


def test_rho_and_K_match_the_exact_counts(default_estimate):
    # a_n ~ K v^n, so rho_n = a_n / a_{n+1} and K_n = a_n rho_n^n converge
    # to rho and K geometrically; at n = 120 they agree with the n = 250
    # values to 2e-20 and 3e-18 relative (peak is slowest), so the bounds
    # measure the error of the printed rho and K alone
    for p in P:
        a = avoidance_sequence(p, PartSet.naturals(), 121)
        rho = Fraction(a[120], a[121])
        k = a[120] * rho ** 120
        est = default_estimate(p)
        assert abs(Fraction(est.rho) - rho) <= Fraction(2e-15) * rho, p
        assert abs(Fraction(est.constant_K) - k) <= Fraction(1e-13) * k, p


def test_estimate_samples_the_circle_once():
    est = estimate(P.P221, 0.65, 1024)
    assert est.curve == emit_curve(P.P221, 0.65, 1024)
    assert est.winding == winding_number(P.P221, 0.65, 1024) == 1
    assert est.tolerances["winding_radius"] == 0.65
    assert est.tolerances["winding_samples"] == 1024


def test_predict_count_111(default_estimate):
    est = default_estimate(P.P111)
    predicted = predict_count(P.P111, 25, est)
    assert abs(predicted - 5352275) / 5352275 < 0.01


def test_predict_count_refuses_another_pattern_estimate(default_estimate):
    with pytest.raises(ValueError, match="estimate of 111, not of 112"):
        predict_count(P.P112, 30, default_estimate(P.P111))


# -- curve export ----------------------------------------------------------------

def test_curve_starts_on_real_axis():
    rows = emit_curve(P.P112, 0.7, 1024)
    assert len(rows) == 1024
    rx, ix, rf, if_ = rows[0]
    assert rx == pytest.approx(0.7)
    assert ix == 0
    assert if_ == 0


def test_curve_conjugate_symmetry():
    rows = emit_curve(P.PEAK, 0.7, 1024)
    for idx in (1, 100, 399):
        rx, ix, rf, if_ = rows[idx]
        rx2, ix2, rf2, if2 = rows[1024 - idx]
        assert rx2 == pytest.approx(rx)
        assert ix2 == pytest.approx(-ix)
        assert rf2 == pytest.approx(rf)
        assert if2 == pytest.approx(-if_)


@pytest.mark.parametrize("samples", [1024, 1025])
def test_curve_upper_half_is_eval_f_and_lower_half_its_conjugate(samples):
    # 1,024 samples come from FFTs of the parts' coefficients, each row
    # within the curve's bound plus eval_f's own of the single-point value.
    # 1,025 has no power-of-two factor, so every row is the single-point
    # value.  The rest mirror the upper half, since f(conj x) = conj f(x)
    half = samples // 2
    points = circle(0.7, samples)
    for p in P:
        bound = asymptotics._sample_circle(p, 0.7, samples)[2]
        rows = emit_curve(p, 0.7, samples)
        assert len(rows) == samples
        for k in range(half + 1):
            value, direct = eval_f(p, points[k])
            value = complex(value)
            if samples % 2:
                assert rows[k] == (points[k].real, points[k].imag,
                                   value.real, value.imag), (p, k)
            else:
                assert rows[k][:2] == (points[k].real, points[k].imag)
                assert abs(complex(*rows[k][2:]) - value) <= \
                    bound + direct, (p, k)
        for k in range(1, samples - half):
            rx, ix, rf, if_ = rows[k]
            assert rows[samples - k] == (rx, -ix, rf, -if_), (p, k)


def interpolation_is_honest(p, radius, samples):
    # every row of the curve within its bound plus the direct evaluation's
    # own bound of f at that row's point, evaluated as one block (a point
    # may pass |x| = 0.79 by an ulp, so it skips eval_f's domain check)
    points, values, bound = asymptotics._sample_circle(p, radius, samples)
    direct, direct_bound = asymptotics._quotient(
        points, *_parts(p, points, max(map(abs, points))))
    return all(abs(v - d) <= bound + direct_bound
               for v, d in zip(values, direct))


@pytest.mark.parametrize("radius, samples, size", [
    (0.7, 1024, 512), (0.7, 4096, 512), (0.75, 4096, 1024)])
def test_interpolated_curve_is_within_its_bound(radius, samples, size):
    # the FFTs have P = size points, the least power of two above the order
    for p in P:
        assert size // 2 <= asymptotics._order(p, radius)[0] < size
        assert interpolation_is_honest(p, radius, samples), p


def test_folded_transforms_are_within_their_bound():
    # near |x| = 0.79 the order, 3,348 to 3,722, passes the 1,024 samples,
    # so each FFT's inputs fold several coefficients into one slot
    for p in P:
        assert asymptotics._order(p, 0.79)[0] > 1024
        assert interpolation_is_honest(p, 0.79, 1024), p


# the order rule's n at |x| = 0.7, the default circle
ORDERS_AT_DEFAULT_RADIUS = {P.P111: 313, P.P112: 298, P.P221: 298,
                            P.P123: 319, P.PEAK: 333, P.VALLEY: 333}


@pytest.mark.parametrize("p", list(P))
def test_the_order_is_the_least_with_its_tail_below_eps(p):
    # one order fewer leaves a tail above EVAL_EPS; M = _majorant(p), so a
    # smaller M, such as half of it, gives other orders
    majorant = asymptotics._majorant(p)
    for ax in (0.0, 0.3, 0.65, 0.7, 0.78, 0.79):
        n, tail = asymptotics._order(p, ax)
        q = ax / 0.8
        assert tail == majorant * q ** (n + 1) / (1 - q) <= EVAL_EPS
        assert n == 0 or majorant * q ** n / (1 - q) > EVAL_EPS
    assert asymptotics._order(p, 0.7)[0] == ORDERS_AT_DEFAULT_RADIUS[p]


@pytest.mark.parametrize("p", list(P))
def test_majorant_bounds_the_taylor_coefficients(p):
    # Cauchy's estimate |c_n| R^n <= max |h| on |x| = R = 4/5, checked in
    # integers on the generated coefficients to order 400, with h = D, or
    # h = N + iD for peak and valley, whose coefficients bound those of N
    # and of D
    square = Fraction(asymptotics._majorant(p)) ** 2
    parts = asymptotics._GENERATORS[p](400)
    for n, cs in enumerate(zip(*parts)):
        assert sum(c * c for c in cs) * 16 ** n <= square * 25 ** n, (p, n)


def exact_at(cs, x):
    # sum c_i x^i exactly, as (re, im) Fractions: x is a complex of
    # floats, so with d a power of two, d x = a + bi in integers, and
    # Horner's rule runs in Gaussian integers scaled by d^(len(cs) - 1)
    x = complex(x)
    xr, xi = Fraction(x.real), Fraction(x.imag)
    d = max(xr.denominator, xi.denominator)
    a, b = int(xr * d), int(xi * d)
    vr = vi = 0
    scale = 1
    for c in reversed(cs):
        vr, vi = vr * a - vi * b + c * scale, vr * b + vi * a
        scale *= d
    scale //= d
    return Fraction(vr, scale), Fraction(vi, scale)


def test_horner_bound_needs_its_rounding_term(monkeypatch):
    # finite polynomials have no tail, so the bound is the rounding term
    # alone: it holds against the exact complex value, which the computed
    # one misses.  123's D to order 300 has coefficients of 25 bits, and
    # peak's N to order 600 some beyond the 53 bits of a float
    for p, order in ((P.P123, 300), (P.PEAK, 600)):
        exact = asymptotics._GENERATORS[p](order)[0]
        monkeypatch.setattr(asymptotics, "_coefficients", lambda p, n: [
            [float(c) for c in exact]])
        monkeypatch.setattr(asymptotics, "_order",
                            lambda p, ax: (order, 0.0))
        xs = [0.7 * cmath.exp(1j * t) for t in (0.3, 1.9, 2.8)] + [-0.7]
        (values,), (bound,) = _parts(P.P111, xs, 0.7)
        errors = []
        for x, value in zip(xs, values):
            er, ei = exact_at(exact, x)
            value = complex(value)
            errors.append((Fraction(value.real) - er) ** 2
                          + (Fraction(value.imag) - ei) ** 2)
        assert all(e <= Fraction(bound) ** 2 for e in errors), p
        assert any(errors), p


def test_curve_phase_matches_winding():
    rows = emit_curve(P.P221, 0.7, 2048)
    total = 0.0
    for idx in range(2048):
        a = complex(rows[idx][2], rows[idx][3])
        b = complex(rows[(idx + 1) % 2048][2], rows[(idx + 1) % 2048][3])
        total += cmath.phase(b / a)
    assert round(total / (2 * cmath.pi)) == winding_number(P.P221, 0.7, 2048)
