"""Dominant-pole machinery: evaluators, roots, windings, predictions.

The printed six-digit growth constants are asserted in full in
test_acceptance.py; here the focus is the numeric plumbing.
"""

import cmath
import hashlib
import math
import sys
from fractions import Fraction

import pytest

from comppat import asymptotics, genfun
from comppat.asymptotics import (EVAL_EPS, DomainError, UndersamplingError,
                                 _circle, _den_111, _den_112, _den_123,
                                 _den_221, _evaluate, _winding,
                                 emit_curve, estimate,
                                 eval_f, find_rho, predict_count,
                                 winding_number)
from comppat.genfun import avoidance_sequence
from comppat.patterns import PartSet, PatternId
from comppat.series import zero

P = PatternId


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
    evaluate = asymptotics._EVALUATORS[p]
    blocks = []

    def counting(xs, ax, eps):
        blocks.append((xs[0], len(xs), ax))
        return evaluate(xs, ax, eps)
    monkeypatch.setitem(asymptotics._EVALUATORS, p, counting)
    find_rho(p)
    assert blocks[0] == (0.5, 16, 0.65)
    assert len(blocks) > 1 and {n for _, n, _ in blocks[1:]} == {1}


@pytest.mark.parametrize("root", [0.6505, 0.655, 0.6599, 0.7777, None])
def test_find_rho_without_a_sign_change_scans_one_block(monkeypatch, root):
    # the scan is the one block 0.50 ... 0.65: a root above 0.65, even one
    # in (0.65, 0.66), or none at all is not searched for further
    sizes = []

    def linear(xs, ax, eps):
        sizes.append(len(xs))
        return [1.0 if root is None else root - x for x in xs], 0.0
    monkeypatch.setitem(asymptotics._EVALUATORS, P.P111, linear)
    with pytest.raises(asymptotics.RootNotFoundError,
                       match=r"no sign change of f_111 on \[0.5, 0.65\]"):
        find_rho(P.P111)
    assert sizes == [16]


def stub_root(x):
    # real on the real axis, with one root 0.555 and enough curvature that
    # the secant point of the bracket (0.55, 0.56) misses it
    return 1 - (x / 0.555) ** 40


def wrong_slope(xs, ax, eps):
    # f(conj x): right on the real axis, but Im f(x + ih) / h is -f'(x)
    return [stub_root(x.conjugate()) for x in xs], 0.0


def flat_slope(xs, ax, eps):
    # f(Re x): right on the real axis, but Im f(x + ih) is 0
    return [stub_root(x.real) for x in xs], 0.0


@pytest.mark.parametrize("stub, message", [
    (wrong_slope, r"Newton's method for f_111 left \[0.55, 0.56\]"),
    (flat_slope, "f_111 has slope 0")])
def test_find_rho_refuses_a_bad_complex_step_slope(monkeypatch, stub,
                                                   message):
    monkeypatch.setitem(asymptotics._EVALUATORS, P.P111, stub)
    with pytest.raises(asymptotics.RootNotFoundError, match=message):
        find_rho(P.P111)


def test_find_rho_takes_eps_by_keyword_only():
    # a stale positional tol must not be read as eps
    with pytest.raises(TypeError):
        find_rho(P.P111, 1e-11)


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
    for x in (0.93, nan, complex(nan, 0), complex(0.1, nan), float("inf")):
        with pytest.raises(DomainError):
            eval_f(P.P112, x)
        # the bad point need not be the first of its block
        for p in P:
            with pytest.raises(DomainError):
                _evaluate(p, [0.5, x], 1e-12)


@pytest.mark.parametrize("p", list(P))
def test_eval_terminates_at_the_input_bounds(p):
    # the evaluators have no iteration caps: at the largest |x| and the
    # smallest eps that _evaluate accepts, every tail bound still drops
    # below eps after finitely many terms
    values, bound = _evaluate(p, [0.8, 0.8 * cmath.exp(1j), -0.8, 0.0],
                              sys.float_info.min)
    assert all(cmath.isfinite(v) for v in values)
    assert math.isfinite(bound)


@pytest.mark.parametrize("p", list(P))
def test_eval_rejects_nan_and_nonpositive_eps(p):
    for eps in (float("nan"), 0.0, -1e-12, 5e-324, 1e-320):
        with pytest.raises(ValueError, match="eps"):
            eval_f(p, 0.5, eps)


def test_f_is_the_denominator_for_simple_patterns():
    # the numerator of these four series is identically 1
    dens = {P.P111: _den_111, P.P112: _den_112, P.P221: _den_221,
            P.P123: _den_123}
    for p, den in dens.items():
        for x in (0.6, 0.7 * cmath.exp(0.73j)):
            values, bound = den([x], abs(x), 1e-12)
            assert eval_f(p, x, 1e-12) == (values[0], bound), (p, x)


@pytest.mark.parametrize("p", list(P))
def test_a_point_value_does_not_depend_on_its_block(p):
    # stopping indices come from ax and eps alone, so each point of a block
    # sees the operations it would see alone at the same ax
    evaluate = asymptotics._EVALUATORS[p]
    xs = [0.0, 0.3, -0.6, 0.5j, 0.7 * cmath.exp(0.73j), 0.75 * cmath.exp(3j)]
    for eps in (1e-15, 1e-9):
        values, bound = evaluate(xs, 0.75, eps)
        alone = [evaluate([x], 0.75, eps) for x in xs]
        assert values == [value for (value,), _ in alone]
        assert bound == max(b for _, b in alone)



# SHA-256 over the repr of every eval_f value and bound at the points
# below and of three blocks, at three eps values, recorded before 123 and
# peak/valley evaluated each point in its own scalar loop, and digested
# again without the find_rho lines (below) before those changed.
EVALUATOR_FINGERPRINT = \
    "ba282222d95a0b184f5f65621c906e0cc4a6b259c2ad461c450f4aeab4714af5"
# SHA-256 over the repr of find_rho at the same three eps values,
# recorded when Newton's method from the secant point replaced bisection.
FIND_RHO_FINGERPRINT = \
    "774c5bba16002d017d498899e4cb5c9c2a9f37ced68289bb59288099db544996"
FINGERPRINT_EPS = (1e-15, 1e-9, sys.float_info.min)


def test_evaluators_match_recorded_fingerprint():
    reals = [k / 20 for k in range(-16, 17)]
    off_axis = [r * cmath.exp(1j * t) for r in (0.3, 0.7, 0.79)
                for t in (0.4, 1.3, 2.2, 3.1)] + [0.8j, -0.8j, 0j]
    blocks = [[k / 100 for k in range(50, 66)], _circle(0.75, 1024)[:40],
              [0.2, -0.5j, 0.7 * cmath.exp(2j), 0.8]]
    lines = []
    for p in P:
        for eps in FINGERPRINT_EPS:
            lines += [repr((p.value, eps, x, eval_f(p, x, eps)))
                      for x in reals + off_axis]
            lines += [repr((p.value, eps, _evaluate(p, xs, eps)))
                      for xs in blocks]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EVALUATOR_FINGERPRINT


def test_find_rho_matches_recorded_fingerprint():
    lines = [repr((p.value, eps, find_rho(p, eps=eps)))
             for p in P for eps in FINGERPRINT_EPS]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FIND_RHO_FINGERPRINT


def test_tail_bound_honest():
    # the loose-eps value differs from the tight-eps value by no more
    # than the reported tail bound
    for p in P:
        for x in (0.3, 0.55, 0.7):
            loose, bound = eval_f(p, x, eps=1e-6)
            tight, _ = eval_f(p, x, eps=1e-15)
            assert abs(loose - tight) <= bound + 1e-12, (p, x)


def test_rho_stable_under_stricter_tails():
    for p in (P.P111, P.PEAK):
        r1 = find_rho(p, eps=1e-12)
        r2 = find_rho(p, eps=1e-13)
        assert abs(r1 - r2) < 1e-9


def test_conjugate_symmetry_on_circle():
    for p in P:
        x = 0.7 * cmath.exp(0.73j)
        up = eval_f(p, x)[0]
        down = eval_f(p, x.conjugate())[0]
        assert abs(up.conjugate() - down) < 1e-12


# -- winding numbers -----------------------------------------------------------

def winding_of(fn, radius, samples):
    # winding number of fn's image of the circle |x| = radius around 0
    points = _circle(radius, samples)
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
    with pytest.raises(ValueError):
        winding_of(lambda x: x, 0.7, 512)


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
    # 1,024 samples interpolate from the 512-point sub-circle: its rows,
    # the even ones, are exactly the single-point value at the sub-circle's
    # eps, and the odd ones are within the curve's bound of it.  1,025 has
    # no power-of-two factor, so every row is the single-point value.  The
    # rest mirror the upper half, since f(conj x) = conj f(x)
    half = samples // 2
    stride = 2 if samples == 1024 else 1
    eps = EVAL_EPS / math.sqrt(512) if stride == 2 else EVAL_EPS
    points = _circle(0.7, samples)
    for p in P:
        assert asymptotics._transform_size(p, 0.7, samples, EVAL_EPS) == \
            samples // stride
        bound = asymptotics._sample_circle(p, 0.7, samples, EVAL_EPS)[2]
        rows = emit_curve(p, 0.7, samples)
        assert len(rows) == samples
        for k in range(half + 1):
            value, direct = eval_f(p, points[k], eps)
            value = complex(value)
            if k % stride == 0:
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
    # own bound of f at that row's point, evaluated as one block
    points, values, bound = asymptotics._sample_circle(p, radius, samples,
                                                       EVAL_EPS)
    direct, direct_bound = _evaluate(p, points, EVAL_EPS)
    return all(abs(v - d) <= bound + direct_bound
               for v, d in zip(values, direct))


@pytest.mark.parametrize("radius, samples, size", [
    (0.7, 1024, 512), (0.7, 4096, 512), (0.75, 4096, 1024)])
def test_interpolated_curve_is_within_its_bound(radius, samples, size):
    for p in P:
        assert asymptotics._transform_size(p, radius, samples,
                                           EVAL_EPS) == size
        assert interpolation_is_honest(p, radius, samples), p


@pytest.mark.parametrize("alias", [True, False])
def test_a_coarse_sub_circle_needs_the_aliasing_term(monkeypatch, alias):
    # on a forced 64-point sub-circle the aliasing error dwarfs every
    # other term: the bound holds with it, and fails without it
    monkeypatch.setattr(asymptotics, "_transform_size", lambda *args: 64)
    if not alias:
        monkeypatch.setattr(asymptotics, "_alias", lambda *args: 0.0)
    for p in P:
        assert interpolation_is_honest(p, 0.7, 1024) is alias, p


@pytest.mark.parametrize("p", list(P))
def test_majorant_bounds_the_taylor_coefficients(p):
    # Cauchy's estimate |c_n| R^n <= max |h| on |x| = R = 4/5, checked in
    # integers on the coefficients of the builders' (N, D) pair at y = 0,
    # z = 1 over nat, with h = D, or h = N + iD for peak and valley
    order = 250
    num, den = genfun._NUM_DEN[p](
        genfun._weights(PartSet.naturals(), order, z_exp=0), zero(order))
    two = p in asymptotics._NUM_DEN
    assert two or all(num.coefficient(n, 0, 0) == (n == 0)
                      for n in range(order + 1))
    square = Fraction(asymptotics._majorant(p)) ** 2
    for n in range(order + 1):
        c = den.coefficient(n, 0, 0) ** 2 \
            + two * num.coefficient(n, 0, 0) ** 2
        assert c * 16 ** n <= square * 25 ** n, (p, n)


def test_curve_phase_matches_winding():
    rows = emit_curve(P.P221, 0.7, 2048)
    total = 0.0
    for idx in range(2048):
        a = complex(rows[idx][2], rows[idx][3])
        b = complex(rows[(idx + 1) % 2048][2], rows[(idx + 1) % 2048][3])
        total += cmath.phase(b / a)
    assert round(total / (2 * cmath.pi)) == winding_number(P.P221, 0.7, 2048)
