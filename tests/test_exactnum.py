import contextlib
import decimal
import math
import random
from fractions import Fraction
from functools import cache
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import round_nearest, to_float

from berkhyb import exactnum
from berkhyb.exactnum import (
    LogRVal,
    PrimeLogVal,
    _DIGITS,
    _certified_sign,
    _fixed_log,
    _float_log,
    _lattice,
    as_fraction,
    logr_max,
    logr_min,
    primelog_max,
    rat_to_str,
)
from berkhyb.manifest import ExperimentManifest, _rat, run


R = Fraction(1, 2)


def test_structural_equality():
    assert LogRVal(1, 2, 3) == LogRVal(1, 2, 3)
    assert LogRVal(1, 2, 3) != LogRVal(1, 2, 0)
    assert LogRVal.of(Fraction(3, 4)).is_rational()


def test_product_rules():
    # (log r) * (a + c/log r) stays in the span
    out = LogRVal(logr=1) * LogRVal(const=3, invlogr=2)
    assert out == LogRVal(const=2, logr=3)
    with pytest.raises(ArithmeticError):
        LogRVal(logr=1) * LogRVal(logr=1)
    with pytest.raises(ArithmeticError):
        LogRVal(invlogr=1) * LogRVal(invlogr=1)


def test_division_by_logr():
    out = LogRVal(const=4, logr=6) / LogRVal(logr=2)
    assert out == LogRVal(const=3, invlogr=2)


def test_signs_and_order():
    assert LogRVal(logr=1).sign(R) == -1
    assert LogRVal(invlogr=1).sign(R) == -1
    assert LogRVal(const=1, logr=1).sign(R) == 1  # 1 + log(1/2) > 0
    vals = [LogRVal.of(0), LogRVal(logr=1), LogRVal(const=2, logr=1)]
    assert logr_max(vals, R) == vals[2]
    assert logr_min(vals, R) == vals[1]


def _loop_extremum(vals, beats):
    """The loop the extremum functions replaced: the first value that no
    later value beats, one comparison per later value."""
    best = vals[0]
    for v in vals[1:]:
        if beats(v, best):
            best = v
    return best


# fresh objects per draw, so equal draws are structurally equal, distinct
# objects; log 2 is transcendental, so distinct triples differ in value
_LOGR_POOL = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0),
              (Fraction(1, 2), 0, 0), (-1, 0, 1), (1, 1, 1)]
_PRIMELOG_POOL = [(0, {}), (1, {}), (0, {2: 1}), (0, {3: 1}), (-1, {2: 1}),
                  (Fraction(1, 2), {5: -1}), (1, {2: -1, 3: 1})]


def _counted_extremum(cls, got, want):
    """(got(), want()) with the number of cls.cmp calls each makes."""
    with mock.patch.object(cls, "cmp", autospec=True,
                           side_effect=cls.cmp) as cmp:
        a = got()
        calls = cmp.call_count
        cmp.reset_mock()
        b = want()
        return a, calls, b, cmp.call_count


@given(st.lists(st.integers(0, len(_LOGR_POOL) - 1), min_size=1, max_size=8))
def test_logr_extrema_match_the_loop(draws):
    vals = [LogRVal(*_LOGR_POOL[i]) for i in draws]
    for extremum, sign in ((logr_max, 1), (logr_min, -1)):
        got, calls, want, loop_calls = _counted_extremum(
            LogRVal, lambda: extremum(vals, R),
            lambda: _loop_extremum(vals, lambda v, b: v.cmp(b, R) * sign > 0))
        assert got is want
        assert calls == loop_calls == len(vals) - 1


@given(st.lists(st.integers(0, len(_PRIMELOG_POOL) - 1), min_size=1,
                max_size=8))
def test_primelog_max_matches_the_loop(draws):
    vals = [PrimeLogVal(*_PRIMELOG_POOL[i]) for i in draws]
    got, calls, want, loop_calls = _counted_extremum(
        PrimeLogVal, lambda: primelog_max(iter(vals)),
        lambda: _loop_extremum(vals, lambda v, b: v.cmp(b) > 0))
    assert got is want
    assert calls == loop_calls == len(vals) - 1


@given(st.lists(st.one_of(st.integers(-50, 50),
                          st.fractions(-50, 50, max_denominator=30)),
                min_size=1, max_size=6))
def test_lattice_clears_to_the_lcm_of_the_denominators(qs):
    nums, den = _lattice(qs)
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == qs
    assert den == math.lcm(*[Fraction(q).denominator for q in qs])


def test_lattice_examples():
    assert _lattice([Fraction(-1, 2), 3, Fraction(2, 3)]) == ([-3, 18, 4], 6)
    assert _lattice([-4]) == ([-4], 1)


def test_to_float():
    x = LogRVal(const=1, logr=2, invlogr=3)
    L = math.log(0.5)
    assert x.to_float(R) == pytest.approx(1 + 2 * L + 3 / L)


def test_to_float_near_one():
    # a 53-bit quotient rounds this r to 1, and log r to 0
    r = Fraction(10**20 - 1, 10**20)
    assert LogRVal(invlogr=1).to_float(r) == pytest.approx(-1e20, rel=1e-12)


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


@pytest.mark.parametrize("key", [1, 0, -2, 2.0, "3", True])
def test_primelog_rejects_log_keys_below_two(key):
    # log 1 = 0 and log p < 0 or undefined below: the sign needs log p > 0
    with pytest.raises(ValueError, match="log key must be an int >= 2"):
        PrimeLogVal(0, {key: 1})


def test_rat_strings():
    assert rat_to_str(Fraction(3, 7)) == "3/7"
    assert rat_to_str(Fraction(4)) == "4"
    assert _rat()("3/7") == Fraction(3, 7)
    assert _rat()(5) == Fraction(5)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_certified_sign_ignores_the_thread_decimal_context():
    # log 2 to 40 places: lo < log 2 < lo + 1e-40, a tie that 20 digits
    # cannot split; a 5-digit thread context must not shorten any rung
    lo = Fraction("0.6931471805599453094172321214581765680755")
    hi = lo + Fraction(1, 10**40)
    _fixed_log.cache_clear()
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        assert LogRVal(logr=1).sign(R) == -1  # log(1/2) < 0
        assert LogRVal(const=lo, logr=1).sign(R) == -1
        assert LogRVal(const=hi, logr=1).sign(R) == 1
        assert (PrimeLogVal.log_of_int(3) - PrimeLogVal.log_of_int(2)).sign() == 1
        assert PrimeLogVal(-lo, {2: 1}).sign() == 1
        assert PrimeLogVal(-hi, {2: 1}).sign() == -1


# -- the digit ladder against an mpmath interval reference ---------------

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
RATS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
NONZERO = RATS.filter(bool)
# 10^400 overflows a float and 10^-400 underflows one
SCALED = st.builds(lambda q, s: q * s, RATS, st.sampled_from(
    [Fraction(1), Fraction(10**400), Fraction(1, 10**400)]))


def radii(near_one: int):
    """r in (0, 1), also within 10^-400 of 0 and 10^-near_one of 1."""
    return st.one_of(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                     max_denominator=1000),
        st.integers(1, 400).map(lambda k: Fraction(1, 10**k)),
        st.integers(1, near_one).map(lambda k: 1 - Fraction(1, 10**k)),
    )


TIE_GAP = st.integers(-9, 9).filter(bool).map(lambda k: Fraction(k, 10**40))


def _rational(x) -> Fraction:
    """The exact value of an mpf (``man`` is unsigned)."""
    return int(mpmath.sign(x)) * Fraction(x.man) * Fraction(2) ** x.exp


def _mp(q: Fraction, ctx=mpmath):
    return ctx.mpf(q.numerator) / q.denominator


def _interval_sign(make_interval) -> int:
    """Sign of a nonzero value from mpmath intervals of rising precision;
    ``make_interval`` maps an interval context to an enclosure."""
    for prec in (80, 160, 320, 640, 1280, 2560, 5120):
        ctx = MPIntervalContext()  # the global mpmath.iv is left alone
        ctx.prec = prec
        val = make_interval(ctx)
        if val > 0:
            return 1
        if val < 0:
            return -1
    raise AssertionError("the reference cannot separate the value from zero")


def _primelog_reference(v: PrimeLogVal) -> int:
    if v.is_zero():
        return 0

    def interval(ctx):
        return _mp(v.const, ctx) + sum(
            (_mp(q, ctx) * ctx.log(ctx.mpf(p)) for p, q in v.logs.items()),
            ctx.mpf(0))
    return _interval_sign(interval)


def _logr_reference(v: LogRVal, r: Fraction) -> int:
    if v.is_zero():
        return 0

    def interval(ctx):
        L = ctx.log(ctx.mpf(r.numerator) / ctx.mpf(r.denominator))
        return _mp(v.a, ctx) + _mp(v.b, ctx) * L + _mp(v.c, ctx) / L
    return _interval_sign(interval)


@contextlib.contextmanager
def _rungs():
    """The digits each ``_certified_sign`` call tried, one list per call."""
    calls = []

    def recording(enclose):
        tried = []
        calls.append(tried)

        def logged(digits):
            tried.append(digits)
            return enclose(digits)
        return _certified_sign(logged)

    with mock.patch.object(exactnum, "_certified_sign", recording):
        yield calls


@st.composite
def primelogs(draw, coeffs=SCALED, min_primes=1):
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=min_primes,
                           max_size=len(PRIMES), unique=True))
    return PrimeLogVal(draw(coeffs), {p: draw(coeffs) for p in primes})


@settings(max_examples=100, deadline=None)
@given(primelogs())
def test_primelog_filter_matches_intervals(v):
    assert v.sign() == _primelog_reference(v)


@settings(max_examples=25, deadline=None)
@given(primelogs(coeffs=RATS, min_primes=20))
def test_primelog_filter_matches_intervals_on_many_primes(v):
    assert v.sign() == _primelog_reference(v)


@settings(max_examples=50, deadline=None)
@given(primelogs(coeffs=NONZERO), TIE_GAP)
def test_primelog_near_tie_reaches_the_fallback(v, gap):
    with mpmath.workprec(400):
        exact = _rational(sum(_mp(q) * mpmath.log(p) for p, q in v.logs.items()))
    tie = PrimeLogVal(-exact - gap, v.logs)  # -gap, up to 2^-400 of exact
    with _rungs() as calls:
        assert tie.sign() == _primelog_reference(tie) == (1 if gap < 0 else -1)
    # 20 digits cannot see a gap of 10^-40: the later rungs decide it
    assert len(calls) == 1 and len(calls[0]) > 1


# |q| from 2^-60 to 2^10
MAGNITUDES = st.builds(lambda k, e: Fraction(k, 2 ** e), st.integers(1, 2 ** 10),
                       st.integers(0, 60))


@st.composite
def same_signed(draw):
    """A value whose const (possibly 0) and log coefficients share one sign."""
    sign = draw(st.sampled_from((1, -1)))
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=6,
                           unique=True))
    const = draw(st.one_of(st.just(Fraction(0)), MAGNITUDES))
    return PrimeLogVal(sign * const, {p: sign * draw(MAGNITUDES) for p in primes})


@settings(max_examples=100, deadline=None)
@given(same_signed())
def test_same_sign_shortcut_matches_certified_sign(v):
    with _rungs() as calls:
        got = v.sign()
    assert calls == []
    assert got == _primelog_reference(v)


@settings(max_examples=100, deadline=None)
@given(SCALED, SCALED, SCALED, radii(near_one=300))
def test_logr_filter_matches_intervals(a, b, c, r):
    v = LogRVal(a, b, c)
    assert v.sign(r) == _logr_reference(v, r)


@settings(max_examples=50, deadline=None)
@given(NONZERO, NONZERO, radii(near_one=100), TIE_GAP)
def test_logr_near_tie_reaches_the_fallback(b, c, r, gap):
    bits = max(r.numerator.bit_length(), r.denominator.bit_length())
    with mpmath.workprec(2 * bits + 400):
        L = mpmath.log(_mp(r))
        exact = _rational(_mp(b) * L + _mp(c) / L)
    tie = LogRVal(-exact - gap, b, c)  # -gap, up to 2^-400 of exact
    with _rungs() as calls:
        assert tie.sign(r) == _logr_reference(tie, r) == (1 if gap < 0 else -1)
    assert len(calls) == 1 and len(calls[0]) > 1


@settings(max_examples=50, deadline=None)
@given(primelogs(), SCALED, SCALED, SCALED, radii(near_one=300))
def test_exact_zeros_are_structural(v, a, b, c, r):
    with _rungs() as calls:
        assert (v - v).sign() == 0
        assert (LogRVal(a, b, c) - LogRVal(a, b, c)).sign(r) == 0
    assert calls == []


def _primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _log_to_nearest(q) -> float:
    """log q at 300 bits, rounded to the nearest float."""
    with mpmath.workprec(300):
        x = mpmath.log(_mp(Fraction(q)))
    return to_float(x._mpf_, rnd=round_nearest)


def test_float_log_is_rounded_to_nearest():
    rng = random.Random(7)
    qs = _primes_below(10**4)
    qs += [Fraction(10**k + 1, 10**k) for k in range(1, 60)]
    qs += [Fraction(1, 10**k) for k in range(1, 60)]
    qs += [Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30))
           for _ in range(2000)]
    assert [q for q in qs if q != 1 and _float_log(q) != _log_to_nearest(q)] == []


@cache
def _fixed_log_cases() -> list[tuple[int, int]]:
    """(n, digits): every rung for primes below 10^4 and for numerators and
    denominators up to 10^30; at the two top rungs, where one decimal ln
    costs milliseconds, every 25th prime and every 6th large int."""
    rng = random.Random(7)
    big = [10**k + e for k in range(1, 31) for e in (-1, 0, 1)]
    big += [rng.randint(1, 10**30) for _ in range(100)]
    primes = _primes_below(10**4)
    return [(n, k) for k in _DIGITS for n in (
        primes + big if k <= 200 else primes[::25] + big[::6])]


@cache
def _scaled_log(n: int, digits: int):
    """10^digits log n at 300 bits more than the digits need."""
    with mpmath.workprec(int(digits * 3.33) + 300):
        return mpmath.log(n) * mpmath.mpf(10) ** digits


@pytest.mark.parametrize("thread_prec", [None, 5], ids=["default", "prec5"])
def test_fixed_log_is_within_its_bound(thread_prec):
    _fixed_log.cache_clear()
    with decimal.localcontext() as ctx:
        if thread_prec:
            ctx.prec = thread_prec
        got = [_fixed_log(n, k) for n, k in _fixed_log_cases()]
    worst = max(abs(w - _scaled_log(n, k))
                for w, (n, k) in zip(got, _fixed_log_cases()))
    assert worst <= 0.51


@pytest.mark.parametrize("manifest,laddered", [
    ("mz_check", True), ("na_limit", True),
    ("ma_model", False),  # no sign of ma-model needs the ladder
])
def test_bundled_exact_kinds_decide_every_sign_on_the_first_rung(
        data_dir, manifest, laddered):
    man = ExperimentManifest.load(data_dir / "manifests" / f"{manifest}.json")
    with _rungs() as calls:
        assert run(man).passed()
    assert bool(calls) == laddered
    assert all(tried == [_DIGITS[0]] for tried in calls)


# -- trusted constructors against the validating ones --------------------

SMALL_RATS = st.fractions(min_value=-50, max_value=50, max_denominator=12)
SCALARS = st.one_of(SMALL_RATS, st.integers(-5, 5))


@st.composite
def primelog_parts(draw):
    # few primes and small coefficients, so sums often cancel to zero
    primes = draw(st.lists(st.sampled_from(PRIMES[:5]), max_size=5, unique=True))
    return draw(SMALL_RATS), {p: draw(SMALL_RATS) for p in primes}


def _lin(u, s, v=(0, {}), t=0):
    """s*u + t*v on (const, logs) parts, zero coefficients kept."""
    (c1, l1), (c2, l2) = u, v
    return s * c1 + t * c2, {p: s * l1.get(p, 0) + t * l2.get(p, 0)
                             for p in {**l1, **l2}}


def _same_primelog(got, parts):
    want = PrimeLogVal(*parts)
    assert type(got.const) is Fraction and got.const == want.const
    assert all(type(p) is int and type(q) is Fraction and q != 0
               for p, q in got.logs.items())
    assert got.logs == want.logs
    assert got == want and hash(got) == hash(want)


@settings(max_examples=100, deadline=None)
@given(primelog_parts(), primelog_parts(), SCALARS)
def test_trusted_primelog_arithmetic_matches_validating(u, v, q):
    x, y = PrimeLogVal(*u), PrimeLogVal(*v)
    _same_primelog(x + y, _lin(u, 1, v, 1))
    _same_primelog(x - y, _lin(u, 1, v, -1))
    _same_primelog(x - x, (0, {}))
    _same_primelog(-x, _lin(u, -1))
    _same_primelog(x * q, _lin(u, q))
    _same_primelog(q * x, _lin(u, q))
    _same_primelog(x + q, _lin(u, 1, (1, {}), q))
    _same_primelog(q - x, _lin(u, -1, (1, {}), q))
    if q:
        _same_primelog(x / q, _lin(u, Fraction(1) / q))


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**6, 10**6).filter(bool))
def test_trusted_log_of_int_matches_validating(n):
    got = PrimeLogVal.log_of_int(n)
    assert math.prod(p ** int(e) for p, e in got.logs.items()) == abs(n)
    assert all(e.denominator == 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
               for p, e in got.logs.items())
    _same_primelog(got, (0, dict(got.logs)))


def _same_logr(got, a, b, c):
    want = LogRVal(a, b, c)
    assert all(type(f) is Fraction for f in (got.a, got.b, got.c))
    assert (got.a, got.b, got.c) == (want.a, want.b, want.c)
    assert got == want and hash(got) == hash(want)


@settings(max_examples=100, deadline=None)
@given(st.tuples(SMALL_RATS, SMALL_RATS, SMALL_RATS),
       st.tuples(SMALL_RATS, SMALL_RATS, SMALL_RATS), SCALARS)
def test_trusted_logr_arithmetic_matches_validating(u, v, q):
    (a1, b1, c1), (a2, b2, c2) = u, v
    x, y = LogRVal(*u), LogRVal(*v)
    _same_logr(x + y, a1 + a2, b1 + b2, c1 + c2)
    _same_logr(x - y, a1 - a2, b1 - b2, c1 - c2)
    _same_logr(-x, -a1, -b1, -c1)
    _same_logr(x * q, a1 * q, b1 * q, c1 * q)
    _same_logr(q * x, a1 * q, b1 * q, c1 * q)
    _same_logr(x + q, a1 + q, b1, c1)
    _same_logr(q - x, q - a1, -b1, -c1)
    if q:
        _same_logr(x / q, a1 / q, b1 / q, c1 / q)
    # (a1 + b1 L)(a2 + c2 / L) = a1 a2 + b1 c2 + b1 a2 L + a1 c2 / L
    _same_logr(LogRVal(a1, b1) * LogRVal(a2, 0, c2),
               a1 * a2 + b1 * c2, b1 * a2, a1 * c2)
    if b2:
        # (a1 + b1 L) / (b2 L) = b1 / b2 + (a1 / b2) / L
        _same_logr(LogRVal(a1, b1) / LogRVal(logr=b2), b1 / b2, 0, a1 / b2)
