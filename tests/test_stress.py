"""Brute-force stress checks for the exact envelope / PA / transport cores."""

import random
from fractions import Fraction

import numpy as np
import pytest

from berkhyb.exactnum import LogRVal, logr_max
from berkhyb.mongeampere import wasserstein1_line
from berkhyb.pafunc import AffineLine, upper_envelope


R = Fraction(1, 2)


def random_lines(rng, n, with_kappa=False):
    lines = []
    for _ in range(n):
        slope = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        off = LogRVal(
            const=Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
            invlogr=Fraction(rng.randint(-3, 3)) if with_kappa else 0,
        )
        lines.append(AffineLine(slope, off))
    return lines


def probe_points(rng, k):
    return [Fraction(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(k)]


def test_upper_envelope_matches_pointwise_max():
    rng = random.Random(2024)
    for trial in range(150):
        lines = random_lines(rng, rng.randint(1, 7),
                             with_kappa=(trial % 3 == 0))
        env = upper_envelope(lines, R)
        slopes = [p.slope for p in env.pieces]
        assert slopes == sorted(slopes)
        for x in probe_points(rng, 12):
            direct = logr_max([ln.eval(Fraction(x)) for ln in lines], R)
            assert env.eval(Fraction(x)) == direct


def test_pa_kink_masses_sum_to_slope_variation():
    rng = random.Random(13)
    for _ in range(60):
        f = upper_envelope(random_lines(rng, rng.randint(2, 7)), R)
        jumps = sum((j for _, j in f.kinks()), Fraction(0))
        lo, hi = f.pieces[0].slope, f.pieces[-1].slope
        assert jumps == hi - lo


def brute_w1(u1, m1, u2, m2, grid=4001):
    # CDF-difference integral on a fine grid (normalized measures)
    u1, m1 = np.asarray(u1, float), np.asarray(m1, float)
    u2, m2 = np.asarray(u2, float), np.asarray(m2, float)
    lo = min(u1.min(), u2.min()) - 1.0
    hi = max(u1.max(), u2.max()) + 1.0
    xs = np.linspace(lo, hi, grid)
    c1 = np.array([(m1[u1 <= x]).sum() for x in xs]) / m1.sum()
    c2 = np.array([(m2[u2 <= x]).sum() for x in xs]) / m2.sum()
    scale = 0.5 * (m1.sum() + m2.sum())
    gap = np.abs(c1 - c2)
    area = float(np.sum((gap[:-1] + gap[1:]) * np.diff(xs)) / 2.0)
    return area * scale


def test_wasserstein_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n1, n2 = rng.integers(1, 6), rng.integers(1, 6)
        u1 = rng.uniform(-3, 3, n1)
        u2 = rng.uniform(-3, 3, n2)
        m1 = rng.uniform(0.1, 2.0, n1)
        m2 = rng.uniform(0.1, 2.0, n2)
        fast = wasserstein1_line(u1, m1, u2, m2)
        slow = brute_w1(u1, m1, u2, m2)
        assert fast == pytest.approx(slow, abs=5e-3)
