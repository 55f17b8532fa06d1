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

Order comparisons cannot be structural.  A sign is certified with
integers alone: ``_fixed_log`` gives 10^k log n to within 1, so a value
cleared of denominators and scaled by a power of 10^k is an int w up to
an error below an int bound err, and when |w| > err, w has the value's
sign.  ``_certified_sign`` raises k until that holds.  A nonzero value is
bounded away from zero, so some k separates it; the ladder stops at 800
digits with ``PrecisionError``.
"""

from __future__ import annotations

import math
import operator
from decimal import Context
from fractions import Fraction
from functools import cache, cmp_to_key
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]

_DIGITS = (20, 50, 100, 200, 400, 800)
_ZERO = Fraction(0)


class PrecisionError(ArithmeticError):
    """The digit ladder ran out before a value separated from zero."""


@cache
def _fixed_log(n: int, digits: int) -> int:
    """10^digits log n rounded to an int, for an int n >= 1: within 0.51.

    log n < n.bit_length() has at most m = len(str(n.bit_length())) digits
    before the point, so at m + digits + 2 significant digits the correctly
    rounded ``ln`` errs by at most 10^-(digits+2) / 2.  Scaling is exact and
    rounding to an int adds at most 1/2.  Every operation runs in the local
    context, so the thread's decimal context plays no part.
    """
    ctx = Context(prec=len(str(n.bit_length())) + digits + 2)
    return int(ctx.to_integral_value(ctx.scaleb(ctx.ln(n), digits)))


def _certified_sign(enclose) -> int:
    """Sign of a nonzero value from integer enclosures of ever more digits.

    ``enclose(digits)`` returns ints (w, err) with |w - X| <= err for some
    real X of the value's sign, or (0, 0) when that rung cannot tell.  The
    first rung decides all but near ties; the later rungs are their
    fallback.
    """
    for digits in _DIGITS:
        w, err = enclose(digits)
        if abs(w) > err:
            return 1 if w > 0 else -1
    raise PrecisionError(
        f"sign undecided at {_DIGITS[-1]} digits; value too close to zero")


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


def _lattice(qs: Sequence[Rat]) -> tuple[list[int], int]:
    """Integer numerators of the rationals (or ints) ``qs`` over their
    common denominator den, and den: nums[i] / den == qs[i]."""
    den = math.lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], den


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
        """Certified sign at a positive rational radius r != 1.

        With (A, B, C) = D (a, b, c) cleared of denominators and
        lam = 10^k log r, the value times 10^(2k) D log r is
        f(lam) = (A 10^k + B lam) lam + C 10^(2k).  The enclosure takes
        l = _fixed_log(num r) - _fixed_log(den r), so |l - lam| < 2 and
        |f(l) - f(lam)| = |l - lam| |A 10^k + B (l + lam)|
                        < 2 (|A| 10^k + |B| (2 |l| + 2)).
        Once |l| > 2, l has the sign of log r, so f(l) sign(l) has the
        value's sign up to that error.
        """
        if self.b == 0 and self.c == 0:
            return (self.a > 0) - (self.a < 0)
        (A, B, C), _ = _lattice((self.a, self.b, self.c))
        num, den = r.numerator, r.denominator

        def enclose(k):
            l = _fixed_log(num, k) - _fixed_log(den, k)
            if abs(l) <= 2:  # the sign of log r is not certain yet
                return 0, 0
            s = 10 ** k
            w = (A * s + B * l) * l + C * s * s
            err = 2 * (abs(A) * s + abs(B) * (2 * abs(l) + 2))
            return (w if l > 0 else -w), err

        return _certified_sign(enclose)

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


# max and min compare each value with the best so far by > and < of the
# key, so they make one certified cmp per value and keep the first of ties
def logr_max(values: Iterable[LogRVal], r: Fraction) -> LogRVal:
    return max(values, key=cmp_to_key(lambda u, v: u.cmp(v, r)))


def logr_min(values: Iterable[LogRVal], r: Fraction) -> LogRVal:
    return min(values, key=cmp_to_key(lambda u, v: u.cmp(v, r)))


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


def primelog_sign(const: Rat, logs: dict) -> int:
    """Certified sign of const + sum_p q_p log p.

    ``const`` and the q_p are rationals or ints, the keys p ints >= 2 and
    the q_p nonzero, as in a canonical ``PrimeLogVal``.  Since log p > 0,
    a value whose const and coefficients all share one sign has that sign.
    Otherwise, with (C, N_p) = D (const, q_p) cleared of denominators,
    10^k D times the value is C 10^k + sum_p N_p 10^k log p, and
    w = C 10^k + sum_p N_p _fixed_log(p, k) is within sum_p |N_p| of it.
    """
    if not logs:
        return (const > 0) - (const < 0)
    # a rational's sign is its numerator's, which skips Fraction comparison
    qs = logs.values()
    if const.numerator >= 0 and all(q.numerator > 0 for q in qs):
        return 1
    if const.numerator <= 0 and all(q.numerator < 0 for q in qs):
        return -1
    (C, *nums), _ = _lattice((const, *qs))
    terms = list(zip(logs, nums))
    err = sum([abs(n) for _, n in terms])
    return _certified_sign(lambda k: (
        C * 10 ** k + sum([n * _fixed_log(p, k) for p, n in terms]), err))


def primelog_max(values: Iterable[PrimeLogVal]) -> PrimeLogVal:
    return max(values, key=cmp_to_key(PrimeLogVal.cmp))


def rat_to_str(q: Fraction) -> str:
    q = as_fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)

