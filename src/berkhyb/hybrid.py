"""Hybrid circle evaluation: path limits to non-archimedean points,
Lelong-number estimation, the rho_r rescaling and the convexity check on
the hybrid field spectrum.

The hybrid circle of radius r is the closed disk |t| <= r.  Path limits
log|f(z(t),t)|/log|t| along monomial arcs z = c t^w converge to the
monomial valuation with v(z) = w, v(t) = 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .exactnum import as_fraction
from .valuation import INF, LaurentSeriesData, weighted_min_of_terms


N_ANGLES = 1024          # circle-sup resolution
SCHEDULE_K_MAX = 8       # path samples at |t| = r * 10^{-k}, k = 0..k_max
RICHARDSON_POINTS = 3    # samples in the path-limit extrapolation
DEGENERATE_TOL = 1e-2    # path-limit distance from the monomial prediction
MONOTONE_TOL = 1e-9      # slack on non-increasing circle sups


@dataclass
class PathLimitResult:
    samples: list[tuple[float, float]] = field(default_factory=list)  # (|t|, ratio)
    limit: float = math.nan
    prediction: Fraction | None = None
    degenerate: bool = False
    note: str = ""


def _line_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of the line through (xs[i], ys[i]).

    The slope is Sxy / Sxx, with the centred sums taken by math.fsum over
    pairwise differences, n*Sxy = sum_{i<j} (x_i - x_j)(y_i - y_j), so
    that no rounded mean enters them; the intercept is the fsum mean of
    y - slope * x.  A line with integer x and integer coefficients comes
    back exactly.  The xs must not all be equal.
    """
    pairs = list(combinations(range(len(xs)), 2))
    sxx = math.fsum((xs[i] - xs[j]) ** 2 for i, j in pairs)
    sxy = math.fsum((xs[i] - xs[j]) * (ys[i] - ys[j]) for i, j in pairs)
    slope = sxy / sxx
    return slope, math.fsum([*ys, *(-slope * x for x in xs)]) / len(xs)


def _path_prediction(f: LaurentSeriesData, w: Fraction):
    weights = []
    for label in f.variables:
        if label == "t":
            weights.append(Fraction(1))
        elif label == "z":
            weights.append(as_fraction(w))
        else:
            weights.append(Fraction(0))
    return weighted_min_of_terms(f, weights)


def hybrid_path_limit(
    f: LaurentSeriesData,
    c: complex,
    w: Fraction,
    r: Fraction,
) -> PathLimitResult:
    """Sample log|f(z(t),t)| / log|t| along z(t) = c t^w and extrapolate,
    at |t| = r 10^-k for the base radius 0 < r < 1.

    The limit is the intercept of the closed-form least-squares line
    (``_line_fit``) in 1/log|t| through the last RICHARDSON_POINTS
    samples (the log-linear error model).  Exact zeros of f on the path
    are re-sampled on a rotated t; persistent cancellation or a limit far
    from the monomial prediction is reported as a degenerate-path
    diagnostic, not an error.
    """
    if c == 0:
        raise ValueError("path coefficient c must be nonzero")
    sched = [float(r) * 10.0 ** (-k) for k in range(SCHEDULE_K_MAX + 1)]
    pos_z = f.variables.index("z")
    pos_t = f.variables.index("t")
    w_f = as_fraction(w)
    result = PathLimitResult(prediction=_path_prediction(f, w_f))

    def composite(t: complex) -> tuple[complex, float]:
        z = c * cmath.exp(w_f * cmath.log(t))
        acc = 0j
        scale = 0.0
        for exp, coef in f.terms:
            term = coef.complex_value() * z ** exp[pos_z] * t ** exp[pos_t]
            acc += term
            scale += abs(term)
        return acc, scale

    zero_hits = 0
    for tk in sched:
        t = complex(tk)
        val, scale = composite(t)
        rotations = 0
        # exact zeros and full cancellations down to rounding both count
        while abs(val) <= 1e-12 * scale and rotations < 5:
            t *= cmath.exp(1j * math.pi / 7)
            val, scale = composite(t)
            rotations += 1
        if abs(val) <= 1e-12 * scale:
            zero_hits += 1
            continue
        result.samples.append((abs(t), math.log(abs(val)) / math.log(abs(t))))
    if zero_hits == len(sched) or not result.samples:
        result.degenerate = True
        result.note = "identically zero along the path"
        return result
    pts = result.samples[-RICHARDSON_POINTS:]
    if len(pts) >= 2:
        _, result.limit = _line_fit([1.0 / math.log(a) for a, _ in pts],
                                    [v for _, v in pts])
    else:
        result.limit = result.samples[-1][1]
    if result.prediction == INF:
        result.degenerate = True
        result.note = "monomial support empty on the path"
    elif abs(result.limit - float(result.prediction)) > DEGENERATE_TOL:
        result.degenerate = True
        result.note = (
            f"limit {result.limit:.6f} deviates from monomial prediction "
            f"{float(result.prediction):.6f}; cancellation along the path"
        )
    return result


@dataclass(frozen=True)
class RadialSampling:
    """Circle sup-values over decreasing radii: pairs (rho, sup value)."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        radii = [p[0] for p in self.points]
        if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if any(not math.isfinite(v) or r <= 0 for r, v in self.points):
            raise ValueError("radii positive and values finite required")


@functools.cache
def _unit_circle(n: int) -> tuple[complex, ...]:
    """exp(i k step), k < n, with step = 2 pi / n and each angle k * step
    rounded once; built on first use, so kinds that sample no circle
    never pay for it."""
    step = 2.0 * math.pi / n
    return tuple(cmath.exp(1j * (k * step)) for k in range(n))


def sample_circle_sups(func: Callable[[complex], float],
                       radii: Sequence[float]) -> RadialSampling:
    """sup over N_ANGLES equally spaced angles of func on each circle.

    The points are rho * u, in complex arithmetic, for each u of
    ``_unit_circle(N_ANGLES)``.
    """
    unit = _unit_circle(N_ANGLES)
    return RadialSampling(tuple(
        (float(rho), float(max(map(func, [rho * u for u in unit]))))
        for rho in radii))


@dataclass
class LelongEstimate:
    estimate: float
    band: tuple[float, float]
    decade_slopes: list[float]
    warnings: list[str] = field(default_factory=list)


def lelong_estimate(sampling: RadialSampling) -> LelongEstimate:
    """Slope of circle sups against log rho, measured at the smallest decade.

    Requires at least 4 radii spanning at least 3 decades.  The estimate
    is the slope of the closed-form least-squares line (``_line_fit``)
    over radii within one decade of the smallest; per-decade slopes of
    the same fit act as a drift diagnostic, and the band's half-width is
    the larger of that drift and the estimate line's largest residual.
    Non-monotone sup values beyond tolerance produce a warning.
    """
    pts = list(sampling.points)
    if len(pts) < 4:
        raise ValueError("need at least 4 radii")
    rho_max, rho_min = pts[0][0], pts[-1][0]
    if math.log10(rho_max / rho_min) < 3 - 1e-12:
        raise ValueError("radii must span at least 3 decades")
    warnings = []
    vals = [v for _, v in pts]
    if any(v2 > v1 + MONOTONE_TOL for v1, v2 in zip(vals, vals[1:])):
        warnings.append("sup values not monotone along decreasing radii")

    def fit(sub):
        return _line_fit([math.log(r) for r, _ in sub], [v for _, v in sub])

    smallest = [(r, v) for r, v in pts if r <= rho_min * 10.0 * (1 + 1e-12)]
    if len(smallest) < 2:
        smallest = pts[-2:]
    estimate, intercept = fit(smallest)
    decade_slopes = []
    k = 0
    while True:
        lo, hi = rho_min * 10.0 ** k, rho_min * 10.0 ** (k + 1)
        sub = [(r, v) for r, v in pts if lo * (1 - 1e-12) <= r <= hi * (1 + 1e-12)]
        if len(sub) >= 2:
            decade_slopes.append(fit(sub)[0])
        if hi >= rho_max:
            break
        k += 1
    drift = 0.0
    if len(decade_slopes) >= 2:
        drift = abs(decade_slopes[0] - decade_slopes[1])
    resid = max(abs(estimate * math.log(r) + intercept - v) for r, v in smallest)
    half = max(drift, resid)
    return LelongEstimate(estimate, (estimate - half, estimate + half),
                          decade_slopes, warnings)


@dataclass(frozen=True)
class RhoSample:
    """One sample for the rho_r rescaling; exact radius exponent optional.

    If k is given, |t| = r^k exactly and the rescaling factor
    log_r|t| = k stays rational, so round trips are exact on Fraction
    values.
    """

    t: complex
    value: object  # float or Fraction
    k: Fraction | None = None


def _logr_abs(t: complex, r: Fraction) -> float:
    return math.log(abs(t)) / math.log(float(r))


def rho_r_forward(samples: Sequence[RhoSample], r: Fraction) -> list[RhoSample]:
    """phi on C^hyb(r) minus origin -> log_r|t| * phi(tau(t)) on the disk."""
    out = []
    for s in samples:
        if s.t == 0:
            raise ValueError("rho_r is defined away from the origin")
        if s.k is not None:
            out.append(RhoSample(s.t, as_fraction(s.value) * s.k, s.k))
        else:
            out.append(RhoSample(s.t, float(s.value) * _logr_abs(s.t, r), None))
    return out


def rho_r_inverse(samples: Sequence[RhoSample], r: Fraction,
                  r_prime: Fraction | None = None) -> list[RhoSample]:
    """phi in SH(D_{r'}) + R log|t| -> phi(tau^{-1}(t)) / log_r|t|, r' > r."""
    if r_prime is not None and not (as_fraction(r_prime) > r):
        raise ValueError("inverse transform needs r' > r")
    out = []
    for s in samples:
        if s.t == 0:
            raise ValueError("rho_r is defined away from the origin")
        if abs(s.t) > float(r) * (1 + 1e-12):
            raise ValueError("sample outside the closed disk of radius r")
        if s.k is not None:
            out.append(RhoSample(s.t, as_fraction(s.value) / s.k, s.k))
        else:
            out.append(RhoSample(s.t, float(s.value) / _logr_abs(s.t, r), None))
    return out


@dataclass
class ConvexityVerdict:
    convex: bool
    worst_violation: Fraction  # positive means violation


def khyb_convexity_check(samples: Sequence[tuple]) -> ConvexityVerdict:
    """Discrete midpoint convexity on consecutive triples of rational
    (lambda, value) pairs, in exact arithmetic; the worst violation is
    max over triples of v_mid - chord, positive iff convexity fails.
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    pts = sorted(samples, key=lambda p: p[0])
    worst = Fraction(0)
    for (l1, v1), (l2, v2), (l3, v3) in zip(pts, pts[1:], pts[2:]):
        l1, v1, l2, v2, l3, v3 = map(as_fraction, (l1, v1, l2, v2, l3, v3))
        chord = v1 + (v3 - v1) * (l2 - l1) / (l3 - l1)
        worst = max(worst, v2 - chord)
    return ConvexityVerdict(convex=worst <= 0, worst_violation=worst)
