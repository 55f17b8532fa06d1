"""Exact scalar arithmetic for skeleton computations.

Two small exact number types are used throughout the package:

* ``LogRVal`` represents a + b*L + c/L where L = log(r) for the base radius
  r in (0,1) and a, b, c are rationals.  Valuation-side quantities are
  rational multiples of log(r); dividing out log(r) introduces 1/log(r),
  and both must coexist in one value when tropical constants meet
  valuations.  Since log(r) is transcendental for rational r != 1, the
  representation is canonical: equality is structural.
* ``PrimeLogVal`` represents q0 + sum_p q_p*log(p) over finitely many
  primes.  Logarithms of distinct primes are linearly independent over Q
  (unique factorization), so equality is again structural.

Order comparisons cannot be structural.  A sign is first read from a
float evaluation when it exceeds a rigorous forward error bound
(``_filtered_sign``, Shewchuk's adaptive-predicate filter); only values
below that bound are certified with mpmath interval arithmetic at
increasing precision.  A nonzero value is bounded away from zero, so the
refinement terminates.
"""

from __future__ import annotations

import operator
from decimal import Context
from fractions import Fraction
from functools import cache
from typing import Iterable, Union

Rat = Union[int, Fraction]

_PRECISIONS = (80, 160, 320, 640, 1280, 2560)
_ZERO = Fraction(0)


@cache
def _interval_context(prec: int) -> MPIntervalContext:
    """A private interval context at ``prec`` bits, built on first use.

    The global ``mpmath.iv`` is never read or changed.  This is the one
    place that imports mpmath.
    """
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


class PrecisionError(ArithmeticError):
    """Interval refinement failed to separate a value from zero."""


def _certified_sign(make_interval) -> int:
    """Sign of a provably nonzero quantity via interval refinement.

    ``make_interval`` receives an interval context (``mpmath.iv`` API) and
    returns an interval enclosing the quantity.
    """
    for prec in _PRECISIONS:
        val = make_interval(_interval_context(prec))
        if val > 0:
            return 1
        if val < 0:
            return -1
    raise PrecisionError("interval refinement exhausted; value too close to zero")


# Every float factor that multiplies a rounded input in ``_filtered_sign``
# (log p, L, 1/L) lies in [2^-500, 2^500]; _TINY bounds the absolute
# error that underflow adds to a sum of such terms.
_FACTOR_MIN = 2.0 ** -500
_TINY = 2.0 ** -500


@cache
def _float_log(q: Rat) -> float:
    """log q rounded to nearest, for a positive rational (or int) q != 1.

    With b the bit length of q's numerator n and denominator d, the
    decimal context works at more than b log10(2) + 25 digits.  The
    quotient then rounds by less than a relative 10^-24 2^-b, and so moves
    log q by less than that in absolute terms; since
    |log q| >= |n - d| / max(n, d) >= 2^-b, also for q near 1, where a
    53-bit quotient would round to 1, that is a relative 10^-24.  ``ln`` is
    correctly rounded, so the decimal logarithm lies within a relative
    2 10^-24 of log q, and its float (correctly rounded) is log q rounded
    to nearest unless log q lies that close to a midpoint between two
    floats.  Either way the error is below u (1 + 2^-25), u = 2^-53.
    """
    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
    ctx = Context(prec=bits * 30103 // 100000 + 26)
    return float(ctx.ln(ctx.divide(q.numerator, q.denominator)))


def _filtered_sign(make_terms) -> int:
    """Sign of the exact sum that ``make_terms()`` approximates, or 0 if unsure.

    ``make_terms`` returns k floats t_i, each an exact term x_i (a rational
    q, or q times a factor m in {log p, L, 1/L}) evaluated as float(q),
    float(q) * m_f or float(q) / m_f.  With u = 2^-53:

    * ``float(Fraction)`` is correctly rounded: relative error <= u, or an
      absolute error <= 2^-1075 when the result is subnormal;
    * m_f = ``_float_log`` is m rounded to nearest, up to a relative
      2 10^-24, so m_f = m (1 + e) with |e| <= u (1 + 2^-25);
    * the product or quotient rounds once more: relative u, absolute 2^-1075.

    So t_i = x_i (1 + h_i) + a_i with |h_i| <= 3u + O(u^2) and
    |a_i| <= 2^-1075 (1 + (1 + u) 2^500) < 2^-574, since every factor lies in
    [2^-500, 2^500] (log p is in [log 2, 2^63) for any int p; ``LogRVal``
    filters only when |L| >= 2^-500).  Adding the k terms in order costs at
    most (k-1) u (1 + O(ku)) sum |t_i|; additions are exact in the subnormal
    range (and Python 3.12's compensated ``sum`` has a smaller bound).  The
    total error is therefore below (k+2) u (1 + O(ku)) sum |t_i| + k 2^-574,
    which 2 (k+2) u sum |t_i| + _TINY covers, the rounding of the bound
    itself included, for any k < 2^70.  When |sum| exceeds it, the float sign
    is the exact sign.

    Returns 0 when the sum is within the bound, when a conversion raises
    ``OverflowError``, and on inf or nan: an inf term makes the bound inf and
    a nan compares false.
    """
    try:
        terms = make_terms()
    except OverflowError:
        return 0
    total = sum(terms)
    if abs(total) > (len(terms) + 2) * 2.0 ** -52 * sum(map(abs, terms)) + _TINY:
        return 1 if total > 0 else -1
    return 0


def as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


class LogRVal:
    """Exact element a + b*log(r) + c/log(r), with rational a, b, c.

    Products are supported only when the result stays in this span, i.e.
    when no log(r)^2 or 1/log(r)^2 term would appear.  That covers every
    product the package needs (rational slopes times mixed offsets,
    symbolic values times rational masses).
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, const: Rat = 0, logr: Rat = 0, invlogr: Rat = 0):
        self.a = as_fraction(const)
        self.b = as_fraction(logr)
        self.c = as_fraction(invlogr)

    @classmethod
    def _canonical(cls, a: Fraction, b: Fraction, c: Fraction) -> "LogRVal":
        """Trusted constructor: a, b and c are already Fractions."""
        self = cls.__new__(cls)
        self.a, self.b, self.c = a, b, c
        return self

    # -- constructors -------------------------------------------------
    @classmethod
    def of(cls, x) -> "LogRVal":
        if isinstance(x, LogRVal):
            return x
        return cls._canonical(as_fraction(x), _ZERO, _ZERO)

    @classmethod
    def logr(cls, coeff: Rat = 1) -> "LogRVal":
        return cls(logr=coeff)

    @classmethod
    def invlogr(cls, coeff: Rat = 1) -> "LogRVal":
        return cls(invlogr=coeff)

    # -- ring-ish operations ------------------------------------------
    def __add__(self, other) -> "LogRVal":
        o = LogRVal.of(other)
        return LogRVal._canonical(self.a + o.a, self.b + o.b, self.c + o.c)

    __radd__ = __add__

    def __neg__(self) -> "LogRVal":
        return LogRVal._canonical(-self.a, -self.b, -self.c)

    def __sub__(self, other) -> "LogRVal":
        o = LogRVal.of(other)
        return LogRVal._canonical(self.a - o.a, self.b - o.b, self.c - o.c)

    def __rsub__(self, other) -> "LogRVal":
        return LogRVal.of(other) - self

    def __mul__(self, o) -> "LogRVal":
        if not isinstance(o, LogRVal):
            # rational scalar: same canonical value as the general product
            q = as_fraction(o)
            return LogRVal._canonical(self.a * q, self.b * q, self.c * q)
        if self.b * o.b != 0 or self.c * o.c != 0:
            raise ArithmeticError("product leaves the span {1, log r, 1/log r}")
        # (a1 + b1 L + c1/L)(a2 + b2 L + c2/L) with b1*b2 = c1*c2 = 0;
        # the cross terms b*c collapse to constants since L * (1/L) = 1.
        const = self.a * o.a + self.b * o.c + self.c * o.b
        logr = self.a * o.b + self.b * o.a
        inv = self.a * o.c + self.c * o.a
        return LogRVal._canonical(const, logr, inv)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LogRVal":
        if isinstance(other, LogRVal):
            if other.b == 0 and other.c == 0:
                return self * Fraction(1, 1) / other.a
            if other.a == 0 and other.c == 0 and self.c == 0:
                # (a + bL)/ (b2 L) = b/b2 + (a/b2)/L
                return LogRVal._canonical(self.b / other.b, _ZERO,
                                          self.a / other.b)
            raise ArithmeticError("division leaves the span")
        q = as_fraction(other)
        return LogRVal._canonical(self.a / q, self.b / q, self.c / q)

    def __eq__(self, other) -> bool:
        o = LogRVal.of(other)
        return self.a == o.a and self.b == o.b and self.c == o.c

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    def is_rational(self) -> bool:
        return self.b == 0 and self.c == 0

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value has a transcendental part")
        return self.a

    # -- order (needs the radius) --------------------------------------
    def sign(self, r: Fraction) -> int:
        if self.is_zero():
            return 0
        if self.b == 0 and self.c == 0:
            return 1 if self.a > 0 else -1
        a, b, c = self.a, self.b, self.c
        L = _float_log(r)
        if abs(L) >= _FACTOR_MIN:
            s = _filtered_sign(lambda: (float(a), float(b) * L, float(c) / L))
            if s:
                return s

        def interval(ctx):
            L = ctx.log(ctx.mpf(r.numerator) / ctx.mpf(r.denominator))
            return (
                ctx.mpf(a.numerator) / a.denominator
                + (ctx.mpf(b.numerator) / b.denominator) * L
                + (ctx.mpf(c.numerator) / c.denominator) / L
            )

        return _certified_sign(interval)

    def cmp(self, other, r: Fraction) -> int:
        return (self - other).sign(r)

    def to_float(self, r: Fraction) -> float:
        L = _float_log(r)
        return float(self.a) + float(self.b) * L + float(self.c) / L

    def __repr__(self):
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append(f"({self.b})*logr")
        if self.c:
            parts.append(f"({self.c})/logr")
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"const": str(self.a), "logr": str(self.b), "invlogr": str(self.c)}


def logr_max(values: Iterable[LogRVal], r: Fraction) -> LogRVal:
    vals = list(values)
    if not vals:
        raise ValueError("max of empty collection")
    best = vals[0]
    for v in vals[1:]:
        if v.cmp(best, r) > 0:
            best = v
    return best


def logr_min(values: Iterable[LogRVal], r: Fraction) -> LogRVal:
    vals = list(values)
    if not vals:
        raise ValueError("min of empty collection")
    best = vals[0]
    for v in vals[1:]:
        if v.cmp(best, r) < 0:
            best = v
    return best


class PrimeLogVal:
    """Exact element q0 + sum_p q_p * log(p), p prime, q rational."""

    __slots__ = ("const", "logs")

    def __init__(self, const: Rat = 0, logs: dict | None = None):
        self.const = as_fraction(const)
        clean = {}
        if logs:
            for p, q in logs.items():
                # log p > 0 is what the sign's same-sign shortcut relies on
                if type(p) is not int or p < 2:
                    raise ValueError(f"log key must be an int >= 2, got {p!r}")
                qf = as_fraction(q)
                if qf != 0:
                    clean[p] = qf
        self.logs = clean

    @classmethod
    def _canonical(cls, const: Fraction, logs: dict) -> "PrimeLogVal":
        """Trusted constructor: ``const`` is a Fraction and ``logs`` maps
        int primes to nonzero Fractions; ``logs`` is taken, not copied."""
        self = cls.__new__(cls)
        self.const, self.logs = const, logs
        return self

    @classmethod
    def of(cls, x) -> "PrimeLogVal":
        if isinstance(x, PrimeLogVal):
            return x
        return cls._canonical(as_fraction(x), {})

    @classmethod
    def log_of_int(cls, n: int) -> "PrimeLogVal":
        """log|n| of a nonzero integer, in the prime-log basis."""
        if n == 0:
            raise ValueError("log of zero")
        n = abs(n)
        logs: dict[int, int] = {}
        p = 2
        while p * p <= n:
            while n % p == 0:
                logs[p] = logs.get(p, 0) + 1
                n //= p
            p += 1
        if n > 1:
            logs[n] = logs.get(n, 0) + 1
        return cls._canonical(_ZERO, {p: Fraction(e) for p, e in logs.items()})

    def _combine(self, other, op) -> "PrimeLogVal":
        """``self op other`` for op in {add, sub}, zero coefficients dropped."""
        o = PrimeLogVal.of(other)
        logs = dict(self.logs)
        for p, q in o.logs.items():
            s = op(logs.get(p, _ZERO), q)
            if s:
                logs[p] = s
            else:
                del logs[p]
        return PrimeLogVal._canonical(op(self.const, o.const), logs)

    def __add__(self, other) -> "PrimeLogVal":
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "PrimeLogVal":
        return PrimeLogVal._canonical(
            -self.const, {p: -q for p, q in self.logs.items()})

    def __sub__(self, other) -> "PrimeLogVal":
        return self._combine(other, operator.sub)

    def __rsub__(self, other) -> "PrimeLogVal":
        return PrimeLogVal.of(other) - self

    def __mul__(self, scalar) -> "PrimeLogVal":
        q = as_fraction(scalar)
        if not q:
            return PrimeLogVal._canonical(_ZERO, {})
        return PrimeLogVal._canonical(
            self.const * q, {p: c * q for p, c in self.logs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "PrimeLogVal":
        return self * (Fraction(1) / as_fraction(scalar))

    def __eq__(self, other) -> bool:
        o = PrimeLogVal.of(other)
        return self.const == o.const and self.logs == o.logs

    def __hash__(self):
        return hash((self.const, tuple(sorted(self.logs.items()))))

    def is_zero(self) -> bool:
        return self.const == 0 and not self.logs

    def sign(self) -> int:
        return primelog_sign(self.const, self.logs)

    def cmp(self, other) -> int:
        return (self - other).sign()

    def __repr__(self):
        parts = [str(self.const)] if self.const else []
        for p in sorted(self.logs):
            parts.append(f"({self.logs[p]})*log{p}")
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {
            "const": str(self.const),
            "logs": {str(p): str(q) for p, q in sorted(self.logs.items())},
        }


def primelog_sign(const: Rat, logs: dict) -> int:
    """Certified sign of const + sum_p q_p log p.

    ``const`` and the q_p are rationals or ints, the keys p ints >= 2 and
    the q_p nonzero, as in a canonical ``PrimeLogVal``.  Since log p > 0,
    a value whose const and coefficients all share one sign has that sign;
    any other value goes through ``_filtered_sign``, then
    ``_certified_sign``.
    """
    if not logs:
        return (const > 0) - (const < 0)
    # a rational's sign is its numerator's, which skips Fraction comparison
    qs = logs.values()
    if const.numerator >= 0 and all(q.numerator > 0 for q in qs):
        return 1
    if const.numerator <= 0 and all(q.numerator < 0 for q in qs):
        return -1
    s = _filtered_sign(lambda: [float(const)] + [
        float(q) * _float_log(p) for p, q in logs.items()])
    if s:
        return s

    def interval(ctx):
        acc = ctx.mpf(const.numerator) / const.denominator
        for p, q in logs.items():
            acc += (ctx.mpf(q.numerator) / q.denominator) * ctx.log(ctx.mpf(p))
        return acc

    return _certified_sign(interval)


def primelog_max(values: Iterable[PrimeLogVal]) -> PrimeLogVal:
    vals = list(values)
    if not vals:
        raise ValueError("max of empty collection")
    best = vals[0]
    for v in vals[1:]:
        if v.cmp(best) > 0:
            best = v
    return best


def rat_to_str(q: Fraction) -> str:
    q = as_fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def rat_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s)
    raise TypeError(f"cannot parse rational from {type(s).__name__}")
