"""An exact view of MZFunction lattice data, shared by the M(Z) tests.

``exact_view`` divides every value by the function's scale and turns
each archimedean vector into a ``PrimeLogVal``: p-adic slopes, consts
and cuts become Fractions, archimedean slopes ``PrimeLogVal``s with
Fraction consts, and each archimedean cut num/den a (Fraction,
PrimeLogVal) pair.
"""

from dataclasses import dataclass
from fractions import Fraction

from berkhyb.exactnum import PrimeLogVal


@dataclass(frozen=True)
class ExactBranch:
    slopes: tuple
    consts: tuple
    cuts: tuple = ()


@dataclass(frozen=True)
class ExactMZ:
    origin: Fraction
    branches: dict
    arch: ExactBranch
    default: ExactBranch


def exact_view(f) -> ExactMZ:
    def rat(x: int) -> Fraction:
        return Fraction(x, f.scale)

    def vec(v) -> PrimeLogVal:
        return PrimeLogVal(0, {p: rat(e) for p, e in zip(f.primes, v)})

    def padic(pa) -> ExactBranch:
        return ExactBranch(tuple(map(rat, pa.slopes)), tuple(map(rat, pa.consts)),
                           tuple(Fraction(num, den) for num, den in pa.cuts))

    arch = ExactBranch(tuple(map(vec, f.arch.slopes)), tuple(map(rat, f.arch.consts)),
                       tuple((rat(num), vec(den)) for num, den in f.arch.cuts))
    return ExactMZ(rat(f.origin), {p: padic(pa) for p, pa in f.branches.items()},
                   arch, padic(f.default))


def padic_value(pa: ExactBranch, p: int, eps: Fraction) -> PrimeLogVal:
    """Branch value at eps; sigma = eps*log p passes a rational cut when larger."""
    idx = 0
    while idx < len(pa.cuts) and PrimeLogVal(-pa.cuts[idx], {p: eps}).sign() > 0:
        idx += 1
    return PrimeLogVal(pa.consts[idx], {p: pa.slopes[idx] * eps})
