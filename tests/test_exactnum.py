import math
from fractions import Fraction

import pytest

from berkhyb.exactnum import (
    LogRVal,
    PrimeLogVal,
    as_fraction,
    logr_max,
    logr_min,
    rat_from_str,
    rat_to_str,
)


R = Fraction(1, 2)


def test_structural_equality():
    assert LogRVal(1, 2, 3) == LogRVal(1, 2, 3)
    assert LogRVal(1, 2, 3) != LogRVal(1, 2, 0)
    assert LogRVal.of(Fraction(3, 4)).is_rational()


def test_product_rules():
    # (log r) * (a + c/log r) stays in the span
    out = LogRVal.logr(1) * LogRVal(const=3, invlogr=2)
    assert out == LogRVal(const=2, logr=3)
    with pytest.raises(ArithmeticError):
        LogRVal.logr(1) * LogRVal.logr(1)
    with pytest.raises(ArithmeticError):
        LogRVal.invlogr(1) * LogRVal.invlogr(1)


def test_division_by_logr():
    out = LogRVal(const=4, logr=6) / LogRVal.logr(2)
    assert out == LogRVal(const=3, invlogr=2)


def test_signs_and_order():
    assert LogRVal.logr(1).sign(R) == -1
    assert LogRVal.invlogr(1).sign(R) == -1
    assert LogRVal(const=1, logr=1).sign(R) == 1  # 1 + log(1/2) > 0
    vals = [LogRVal.of(0), LogRVal.logr(1), LogRVal(const=2, logr=1)]
    assert logr_max(vals, R) == vals[2]
    assert logr_min(vals, R) == vals[1]


def test_to_float():
    x = LogRVal(const=1, logr=2, invlogr=3)
    L = math.log(0.5)
    assert x.to_float(R) == pytest.approx(1 + 2 * L + 3 / L)


def test_primelog_factorization():
    twelve = PrimeLogVal.log_of_int(12)
    assert twelve == PrimeLogVal(0, {2: 2, 3: 1})
    assert PrimeLogVal.log_of_int(-7) == PrimeLogVal(0, {7: 1})
    with pytest.raises(ValueError):
        PrimeLogVal.log_of_int(0)


def test_primelog_sign_certified():
    # log 6 vs log 2 + log 3 is structural; order needs certification
    assert (PrimeLogVal.log_of_int(6)
            - PrimeLogVal.log_of_int(2) - PrimeLogVal.log_of_int(3)).is_zero()
    assert (PrimeLogVal.log_of_int(3) - PrimeLogVal.log_of_int(2)).sign() == 1
    # a genuinely tight comparison: log(1024) vs log(1023)
    assert (PrimeLogVal.log_of_int(1024)
            - PrimeLogVal.log_of_int(1023)).sign() == 1


def test_rat_strings():
    assert rat_to_str(Fraction(3, 7)) == "3/7"
    assert rat_to_str(Fraction(4)) == "4"
    assert rat_from_str("3/7") == Fraction(3, 7)
    assert rat_from_str(5) == Fraction(5)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


class _NoGlobalIV:
    """Stands in for mpmath.iv: any use of the global interval context fails."""

    def __getattr__(self, name):
        raise AssertionError(f"global mpmath.iv touched: .{name}")


def test_certified_sign_leaves_global_iv_alone(monkeypatch):
    import mpmath

    monkeypatch.setattr(mpmath, "iv", _NoGlobalIV())
    # log 2 to 40 places: lo < log 2 < lo + 1e-40, a tie that 80 bits cannot split
    lo = Fraction("0.6931471805599453094172321214581765680755")
    hi = lo + Fraction(1, 10**40)
    assert LogRVal.logr(1).sign(R) == -1  # log(1/2) < 0
    assert LogRVal(const=lo, logr=1).sign(R) == -1
    assert LogRVal(const=hi, logr=1).sign(R) == 1
    assert (PrimeLogVal.log_of_int(3) - PrimeLogVal.log_of_int(2)).sign() == 1
    assert PrimeLogVal(-lo, {2: 1}).sign() == 1
    assert PrimeLogVal(-hi, {2: 1}).sign() == -1
