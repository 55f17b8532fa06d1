import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import berkhyb
from berkhyb.hybrid import (
    N_ANGLES,
    RadialSampling,
    RhoSample,
    _line_fit,
    _unit_circle,
    hybrid_path_limit,
    khyb_convexity_check,
    lelong_estimate,
    rho_r_forward,
    rho_r_inverse,
    sample_circle_sups,
)
from berkhyb.valuation import Coefficient, LaurentSeriesData


R = Fraction(1, 2)


# ---------------------------------------------------------------------------
# path limits
# ---------------------------------------------------------------------------

def zt_series(pairs):
    return LaurentSeriesData(
        ["z", "t"], [(e, Coefficient.explicit(c)) for e, c in pairs]
    )


def test_path_limit_pure_monomial():
    f = zt_series([((1, 0), 1)])
    res = hybrid_path_limit(f, 1, Fraction(1, 2), R)
    assert not res.degenerate
    assert res.limit == pytest.approx(0.5, abs=1e-6)


def test_path_limit_two_terms():
    f = zt_series([((1, 0), 1), ((0, 1), -1)])
    for w in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(2)):
        res = hybrid_path_limit(f, 2, w, R)
        assert not res.degenerate
        assert res.prediction == min(w, 1)
        assert abs(res.limit - float(min(w, 1))) <= 1e-3


def test_path_limit_degenerate_cancellation():
    f = zt_series([((1, 0), 1), ((0, 1), -1)])
    res = hybrid_path_limit(f, 1, Fraction(1), R)
    assert res.degenerate
    assert "zero" in res.note or "cancellation" in res.note


# ---------------------------------------------------------------------------
# Lelong estimation
# ---------------------------------------------------------------------------

RADII = [10.0 ** (-k) for k in range(1, 9)]


def _circle_sups_reference(func, radii):
    """sample_circle_sups as a complex(z) call on each numpy scalar."""
    import numpy as np

    angles = np.linspace(0.0, 2.0 * math.pi, N_ANGLES, endpoint=False)
    return tuple((float(rho), float(max(func(complex(z))
                                        for z in rho * np.exp(1j * angles))))
                 for rho in radii)


def test_unit_circle_is_built_once_and_bit_identical():
    step = 2.0 * math.pi / N_ANGLES
    fresh = [cmath.exp(1j * (k * step)) for k in range(N_ANGLES)]
    cached = _unit_circle(N_ANGLES)
    assert _unit_circle(N_ANGLES) is cached
    assert [(u.real.hex(), u.imag.hex()) for u in cached] == \
        [(u.real.hex(), u.imag.hex()) for u in fresh]


def test_unit_circle_is_not_built_at_import():
    probe = ("import berkhyb.harness, berkhyb.hybrid as h\n"
             "print(h._unit_circle.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(berkhyb.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"


def _lelong_functions(scale=50.0, slope=1.5, floor=-5.0):
    """The four functions that the lelong runner samples."""
    def phi_main(z):
        return math.log(abs(z * z + z * z * z))

    return (phi_main,
            lambda z: phi_main(z) + math.log(abs(1 + scale * z)),
            lambda z: slope * math.log(abs(z)),
            lambda z: max(math.log(abs(z)), floor))


@pytest.mark.parametrize("params", [{}, {"scale": 7.0, "slope": 8 / 3,
                                         "floor": -11.0}])
def test_circle_sups_bit_identical_to_complex_reference(params):
    for func in _lelong_functions(**params):
        got = sample_circle_sups(func, RADII).points
        want = _circle_sups_reference(func, RADII)
        assert [(r.hex(), v.hex()) for r, v in got] == \
            [(r.hex(), v.hex()) for r, v in want]


def test_lelong_pure_log_exact():
    samp = sample_circle_sups(lambda z: 1.75 * math.log(abs(z)), RADII)
    est = lelong_estimate(samp)
    assert est.estimate == pytest.approx(1.75, abs=1e-12)


def test_lelong_t2_plus_t3():
    samp = sample_circle_sups(lambda z: math.log(abs(z * z + z ** 3)), RADII)
    est = lelong_estimate(samp)
    assert abs(est.estimate - 2.0) <= 1e-3
    assert est.band[0] <= est.estimate <= est.band[1]


def test_lelong_bounded_function_zero_slope():
    samp = sample_circle_sups(lambda z: max(math.log(abs(z)), -5.0), RADII)
    assert abs(lelong_estimate(samp).estimate) <= 1e-9


def test_lelong_preconditions():
    with pytest.raises(ValueError):
        lelong_estimate(RadialSampling(((1.0, 0.0), (0.5, 0.0), (0.25, 0.0))))
    with pytest.raises(ValueError):
        lelong_estimate(
            RadialSampling(((1.0, 0.0), (0.9, 0.0), (0.8, 0.0), (0.7, 0.0)))
        )


def test_lelong_non_monotone_warning():
    pts = tuple((10.0 ** (-k), 2.0 * math.log(10.0 ** (-k))
                 + (10.0 if k == 4 else 0.0)) for k in range(1, 9))
    est = lelong_estimate(RadialSampling(pts))
    assert est.warnings


def _exact_line_fit(xs, ys):
    """Least-squares slope and intercept in exact rational arithmetic."""
    X, Y = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(X) / len(X), sum(Y) / len(Y)
    slope = (sum((x - mx) * (y - my) for x, y in zip(X, Y))
             / sum((x - mx) ** 2 for x in X))
    return slope, my - slope * mx


@pytest.mark.parametrize("spread,centre", [
    (math.log(10.0), 5.0),   # lelong: one radius per decade
    (math.log(10.0), 18.0),  # lelong at the smallest bundled decades
    (0.007, 0.06),           # path limits: 1/log|t| at |t| = r 10^-k
], ids=["decades-near-0", "decades-far", "path-limit"])
def test_line_fit_matches_polyfit_and_the_exact_fit(spread, centre):
    import numpy as np

    eps = 2.0 ** -52
    rng = random.Random(20261019)
    for _ in range(300):
        n = rng.randint(2, 10)
        x0 = -centre * rng.uniform(0.5, 1.5)
        xs = [x0 + spread * (i + rng.uniform(-0.25, 0.25)) for i in range(n)]
        a = rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)
        b = rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)
        ys = [a * x + b + rng.uniform(-1e-3, 1e-3) for x in xs]
        slope, intercept = _line_fit(xs, ys)
        # eps times these scales bound the change that rounding each x_i
        # and y_i once makes in the slope and the intercept
        mx = math.fsum(xs) / n
        sxx = math.fsum((x - mx) ** 2 for x in xs)
        mags = [abs(y) + abs(slope * x) for x, y in zip(xs, ys)]
        slope_scale = math.fsum(abs(x - mx) * m for x, m in zip(xs, mags)) / sxx
        icpt_scale = math.fsum(abs(1 / n - mx * (x - mx) / sxx) * m
                               for x, m in zip(xs, mags))
        np_slope, np_intercept = np.polyfit(xs, ys, 1)
        assert abs(slope - np_slope) <= 8 * eps * slope_scale
        assert abs(intercept - np_intercept) <= 8 * eps * icpt_scale
        ex_slope, ex_intercept = _exact_line_fit(xs, ys)
        assert abs(slope - float(ex_slope)) <= 4 * eps * abs(slope)
        assert abs(intercept - float(ex_intercept)) <= 4 * eps * icpt_scale


def test_line_fit_returns_an_integer_line_exactly():
    rng = random.Random(4711)
    for _ in range(2000):
        xs = rng.sample(range(-1000, 1001), rng.randint(2, 10))
        a, b = rng.randint(-50, 50), rng.randint(-1000, 1000)
        assert _line_fit([float(x) for x in xs],
                         [float(a * x + b) for x in xs]) == (a, b)


# ---------------------------------------------------------------------------
# rho_r rescaling and hybrid-field convexity
# ---------------------------------------------------------------------------

def test_rho_r_exact_round_trip():
    rfl = float(R)
    samples = [RhoSample(rfl ** k, Fraction(3, k), Fraction(k))
               for k in (1, 2, 3, 4)]
    down = rho_r_inverse(samples, R, r_prime=Fraction(3, 4))
    back = rho_r_forward(down, R)
    assert all(a.value == b.value for a, b in zip(samples, back))


def test_rho_r_constant_maps_to_factor():
    rfl = float(R)
    fwd = rho_r_forward([RhoSample(rfl ** 3, Fraction(1), Fraction(3))], R)
    assert fwd[0].value == Fraction(3)


def test_rho_r_numeric_round_trip():
    pts = [0.3 * complex(math.cos(a), math.sin(a))
           for a in (0.2, 1.0, 2.5, 4.0)]
    samples = [RhoSample(t, math.log(abs(1 + t))) for t in pts]
    rt = rho_r_inverse(rho_r_forward(samples, R), R, r_prime=Fraction(9, 10))
    for a, b in zip(samples, rt):
        assert b.value == pytest.approx(a.value, abs=1e-12)


def test_rho_r_rejects_origin():
    with pytest.raises(ValueError):
        rho_r_forward([RhoSample(0, 1.0)], R)


def test_khyb_convexity_examples():
    lam = [Fraction(i, 6) for i in range(7)]
    assert khyb_convexity_check([(x, x * x) for x in lam]).convex
    bad = khyb_convexity_check([(x, -x * x) for x in lam])
    assert not bad.convex and bad.worst_violation > 0
    affs = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1, 2))]
    pa = [(x, max(a * x + b for a, b in affs)) for x in lam]
    res = khyb_convexity_check(pa)
    assert res.convex and res.worst_violation == 0


def test_khyb_convexity_is_exact_only():
    lam = [Fraction(i, 6) for i in range(7)]
    bad = khyb_convexity_check([(x, -x * x) for x in lam])
    assert bad.worst_violation == Fraction(1, 36)
    assert type(bad.worst_violation) is Fraction
    with pytest.raises(TypeError):
        khyb_convexity_check([(0, 0.0), (1, 1.0), (2, 4.0)])
