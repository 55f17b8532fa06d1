from fractions import Fraction

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
