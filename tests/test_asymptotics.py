"""Dominant-pole machinery: evaluators, roots, windings, predictions.

The printed six-digit growth constants are asserted in full in
test_acceptance.py; here the focus is the numeric plumbing.
"""

import cmath
import math
import sys

import pytest

from comppat import asymptotics
from comppat.asymptotics import (DomainError, UndersamplingError, _circle,
                                 _den_111, _den_112, _den_123, _den_221,
                                 _evaluate, _winding, emit_curve, estimate,
                                 eval_f, find_rho, predict_count,
                                 winding_number)
from comppat.genfun import avoidance_sequence
from comppat.patterns import PartSet, PatternId

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


def test_find_rho_rejects_tiny_tolerance():
    for tol in (1e-14, float("nan")):
        with pytest.raises(ValueError):
            find_rho(P.P111, tol=tol)


@pytest.mark.parametrize("p", list(P))
def test_find_rho_scans_in_one_block(monkeypatch, p):
    # the bracket scan 0.50, 0.51, ..., 0.80 is one block; only the
    # bisection evaluates single points
    evaluate = asymptotics._EVALUATORS[p]
    sizes = []

    def counting(xs, ax, eps):
        sizes.append(len(xs))
        return evaluate(xs, ax, eps)
    monkeypatch.setitem(asymptotics._EVALUATORS, p, counting)
    find_rho(p)
    assert sizes[0] == 31
    assert len(sizes) > 1 and set(sizes[1:]) == {1}


def test_rho_above_half_for_all_patterns():
    for p in P:
        rho = find_rho(p, tol=1e-9)
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
    return _winding([complex(fn(x)) for x in _circle(radius, samples)])


def test_winding_constant_stub():
    assert winding_of(lambda x: 3 + 0j, 0.7, 1024) == 0


def test_winding_monomial_stub():
    assert winding_of(lambda x: x, 0.7, 1024) == 1
    assert winding_of(lambda x: x * x, 0.7, 1024) == 2


def test_winding_undersampling_guard():
    with pytest.raises(UndersamplingError):
        winding_of(lambda x: x ** 600, 0.7, 1024)


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
    assert est.tolerances["rho_tol"] == 1e-11


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
    # blocks share their tail bounds, yet each evaluated row is exactly the
    # single-point value; the rest mirror it, since f(conj x) = conj f(x)
    half = samples // 2
    points = _circle(0.7, samples)
    for p in P:
        rows = emit_curve(p, 0.7, samples)
        assert len(rows) == samples
        for k in range(half + 1):
            value = complex(eval_f(p, points[k])[0])
            assert rows[k] == (points[k].real, points[k].imag,
                               value.real, value.imag), (p, k)
        for k in range(1, samples - half):
            rx, ix, rf, if_ = rows[k]
            assert rows[samples - k] == (rx, -ix, rf, -if_), (p, k)


def test_curve_phase_matches_winding():
    rows = emit_curve(P.P221, 0.7, 2048)
    total = 0.0
    for idx in range(2048):
        a = complex(rows[idx][2], rows[idx][3])
        b = complex(rows[(idx + 1) % 2048][2], rows[(idx + 1) % 2048][3])
        total += cmath.phase(b / a)
    assert round(total / (2 * cmath.pi)) == winding_number(P.P221, 0.7, 2048)
