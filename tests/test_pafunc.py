from fractions import Fraction

import numpy as np
import pytest

from berkhyb.exactnum import LogRVal
from berkhyb.pafunc import AffineLine, ContinuityError, PAFunction1D, upper_envelope


R = Fraction(1, 2)


def line(s, o):
    return AffineLine(Fraction(s), LogRVal.of(Fraction(o)))


def test_envelope_basic():
    # max(0, u + 1): convex, one kink at u = -1
    env = upper_envelope([line(0, 0), line(1, 1)], R)
    assert env.slopes() == [Fraction(0), Fraction(1)]
    assert env.cuts == [LogRVal.of(Fraction(-1))]
    assert env.eval(Fraction(-3)) == LogRVal.of(0)
    assert env.eval(Fraction(2)) == LogRVal.of(3)
    kinks = env.kinks()
    assert kinks == [(LogRVal.of(Fraction(-1)), Fraction(1))]


def test_envelope_drops_dominated_lines():
    env = upper_envelope([line(0, 0), line(0, -5), line(2, -10), line(1, -9)], R)
    # the slope-1 line is everywhere below max(0, 2u - 10)? check it survives
    # only if it beats both at some point: 0 = u - 9 at u = 9, 2u-10 = u-9 at
    # u = 1; since 9 > 1 the middle line is dominated and must vanish
    assert Fraction(1) not in env.slopes()


def test_envelope_with_transcendental_offsets():
    # offsets with 1/log r parts order correctly (log(1/2) < 0)
    env = upper_envelope(
        [AffineLine(Fraction(0), LogRVal.of(0)),
         AffineLine(Fraction(1), LogRVal(const=1, invlogr=Fraction(1, 10)))],
        R,
    )
    cut = env.cuts[0]
    assert cut == LogRVal(const=-1, invlogr=Fraction(-1, 10))


def test_from_breakpoints_and_eval_float():
    f = PAFunction1D.from_breakpoints(
        [Fraction(-1), Fraction(1)], [Fraction(0), Fraction(2)], R,
        left_slope=0, right_slope=0)
    assert f.eval(Fraction(0)) == LogRVal.of(1)
    arr = f.eval_float_array([-5.0, 0.0, 5.0])
    assert list(arr) == [0.0, 1.0, 2.0]


def _searchsorted_reference(f, xs):
    """Each x through the searchsorted of the cuts, as before sorted input."""
    cuts, slopes, offsets = f._float_tables()
    xs = np.asarray(xs, dtype=float)
    idx = np.searchsorted(cuts, xs, side="left")
    return slopes[idx] * xs + offsets[idx]


@pytest.mark.parametrize("xs", [
    [-3.0, -2.0, -2.0, -1.5, -1.0, -1.0, -0.0, 0.0, 0.0, 0.5, 1e-300, 4.0],
    [-0.0, -0.0, 0.0],
    [-2.0],
    [1.0, 2.0, 3.0],
    [],
    sorted(np.random.default_rng(3).uniform(-3.0, 1.0, 500)),
], ids=["on-cuts", "signed-zeros", "left-cut", "one-piece-slice", "empty",
        "random"])
def test_eval_float_array_matches_searchsorted(xs):
    # cuts at -2, -1 and 0, the last one hit by -0.0 and +0.0; the pieces
    # have slopes and offsets whose products round
    f = PAFunction1D.from_breakpoints(
        [Fraction(-2), Fraction(-1), Fraction(0)],
        [Fraction(1, 3), Fraction(7, 5), Fraction(-2, 7)], R,
        left_slope=Fraction(1, 7), right_slope=Fraction(-3, 11))
    got = f.eval_float_array(xs)
    want = _searchsorted_reference(f, xs)
    assert got.shape == want.shape == (len(xs),)
    assert np.array_equal(got, want)
    assert [np.signbit(v) for v in got] == [np.signbit(v) for v in want]


def test_eval_float_array_one_piece():
    f = PAFunction1D([line(Fraction(2, 3), Fraction(1, 3))], [], R)
    xs = np.array([-1.5, -0.0, 0.0, 0.1, 2.0])
    assert np.array_equal(f.eval_float_array(xs), _searchsorted_reference(f, xs))
    assert f.eval_float_array(np.zeros(0)).shape == (0,)


def test_continuity_validation():
    with pytest.raises(ContinuityError):
        PAFunction1D(
            [AffineLine(Fraction(0), LogRVal.of(0)),
             AffineLine(Fraction(0), LogRVal.of(1))],
            [LogRVal.of(Fraction(0))], R,
        )


def test_scale_and_shift():
    f = upper_envelope([line(0, 0), line(1, 1)], R)
    half = f.scale(Fraction(1, 2))
    assert half.kinks()[0][1] == Fraction(1, 2)
    neg = f.scale(-1)
    assert not neg.is_convex()
