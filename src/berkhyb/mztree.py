"""Potential theory on the R-tree of absolute values of the integers.

The tree is a wedge of branches: for each prime p a branch [0, +inf]
carrying |.|_p^eps, and an archimedean branch [0, 1] carrying |.|^x,
glued at the trivial absolute value.  Values are kept exact in the
Q-span of {1} and {log p}; p-adic branches are parametrized by
sigma = eps * log p so their piecewise data is purely rational.  A
function's branch data lives on one integer lattice: ints, and int
vectors over a prime basis, all over one positive scale.

A function is subharmonic iff every branch restriction is convex with
the sign constraints on outgoing slopes and the slopes at the origin sum
to a non-negative quantity.  No floating point enters any verdict.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exactnum import PrimeLogVal, _lattice, as_fraction, primelog_max, \
    primelog_sign
from .pafunc import upper_hull

NEG_INF = "-inf"
_ZERO = Fraction(0)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def padic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("v_p(0) undefined here")
    v = 0
    n = abs(n)
    while n % p == 0:
        v += 1
        n //= p
    return v


@dataclass(frozen=True)
class MZPoint:
    """Branch label ('origin', 'inf', or a prime) with branch parameter."""

    branch: str
    parameter: object = None  # Fraction, or "inf" on p-adic branches

    def __post_init__(self):
        if self.branch == "origin":
            if self.parameter is not None:
                raise ValueError("origin carries no parameter")
        elif self.branch == "inf":
            x = as_fraction(self.parameter)
            if not (0 <= x <= 1):
                raise ValueError("archimedean parameter must lie in [0,1]")
        else:
            p = int(self.branch)
            if not _is_prime(p):
                raise ValueError(f"branch label {self.branch!r} is not a prime")
            if self.parameter != "inf":
                eps = as_fraction(self.parameter)
                if eps < 0:
                    raise ValueError("p-adic parameter must be non-negative")


class _LogVec(tuple):
    """Integer coefficients (e_p) of sum_p e_p log p over a fixed prime basis.

    Just the arithmetic ``upper_hull`` does on slopes: a difference of two
    vectors and an integer times a vector.
    """

    __slots__ = ()

    def __sub__(self, other) -> "_LogVec":
        return _LogVec(map(operator.sub, self, other))

    def __rmul__(self, k: int) -> "_LogVec":
        return _LogVec([k * e for e in self])


@dataclass(frozen=True)
class BranchPA:
    """Piecewise-affine data on one branch, on its function's lattice.

    Pieces are (slope, const) with value (slope * s + const) / scale in the
    branch coordinate s; cuts are the interior breakpoints s = num/den,
    den > 0, kept as the (num, den) pairs ``upper_hull`` returns.  On a
    p-adic branch the coordinate is sigma = eps * log p and every slope,
    const, num and den is an int; on the archimedean branch it is x in
    [0,1], slopes and dens are ``_LogVec``s over the function's primes, and
    consts and nums are ints.
    """

    slopes: tuple
    consts: tuple[int, ...]
    cuts: tuple = ()

    def __post_init__(self):
        if len(self.slopes) != len(self.consts) or not self.slopes:
            raise ValueError("pieces malformed")
        if len(self.cuts) != len(self.slopes) - 1:
            raise ValueError("cut count must be piece count - 1")

    def is_convex(self, sign) -> bool:
        return all(sign(b - a) >= 0 for a, b in zip(self.slopes, self.slopes[1:]))


@dataclass
class MZFunction:
    """Exact per-branch data; all but finitely many branches share a default.

    Every branch lives on one lattice: a value is an int, or an int vector
    over ``primes``, divided by ``scale`` > 0; ``origin`` is the value at
    the trivial absolute value, times ``scale``.
    """

    scale: int
    primes: tuple[int, ...]   # the basis of the archimedean vectors
    origin: int
    branches: dict            # prime -> BranchPA (sigma coordinate)
    arch: BranchPA            # x coordinate on [0,1]
    default: BranchPA         # sigma coordinate, for all remaining primes

    def __post_init__(self):
        labelled = [*self.branches.items(), ("inf", self.arch),
                    ("default", self.default)]
        for label, pa in labelled:
            if pa.consts[0] != self.origin:
                raise ValueError(f"branch {label} disagrees with origin value")


def _lattice_sign(primes):
    """Certified sign of an int, or of the vector sum_k e_k log primes[k]."""
    def sign(x) -> int:
        if isinstance(x, int):
            return (x > 0) - (x < 0)
        return primelog_sign(0, {p: e for p, e in zip(primes, x) if e})
    return sign


# ---------------------------------------------------------------------------
# Fubini-Study functions from integer families
# ---------------------------------------------------------------------------

def _family(family: Sequence[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    """The family as (int, Fraction) pairs: non-empty, every member nonzero."""
    fam = [(int(n), as_fraction(c)) for n, c in family]
    if not fam:
        raise ValueError("family must be non-empty")
    if any(n == 0 for n, _ in fam):
        raise ValueError("family members must be nonzero integers")
    return fam


def mz_fs_eval(family: Sequence[tuple[int, Fraction]], m: int, point: MZPoint):
    """Evaluate m^{-1} max_a (log|n_a| + c_a) at a point of the tree.

    Returns a PrimeLogVal, or the NEG_INF marker at the outer end of a
    p-adic branch dividing every n_a.
    """
    fam = _family(family)
    if point.branch == "origin":
        return PrimeLogVal.of(max(c for _, c in fam) / m)
    if point.branch == "inf":
        x = as_fraction(point.parameter)
        return primelog_max(
            (PrimeLogVal.log_of_int(n) * x + c) / m for n, c in fam
        )
    p = int(point.branch)
    if point.parameter == "inf":
        finite = [c for n, c in fam if padic_valuation(n, p) == 0]
        if not finite:
            return NEG_INF
        return PrimeLogVal.of(max(finite) / m)
    eps = as_fraction(point.parameter)
    return primelog_max(
        PrimeLogVal(c / m, {p: Fraction(-padic_valuation(n, p) * eps, m)})
        for n, c in fam
    )


def mz_from_family(family: Sequence[tuple[int, Fraction]], m: int) -> MZFunction:
    """The MZFunction of m^{-1} max_a (log|n_a| + c_a), exact on every branch.

    Each n_a is factored once, and every branch is built on one integer
    lattice: with D the lcm of the denominators of the c_a, the p-adic
    line a is (D m)^{-1} (-v_p(n_a) D x + c_a D) and the archimedean one
    (D m)^{-1} (sum_p v_p(n_a) D log p x + c_a D).  Scaling every line by
    the same positive constant changes neither the hull, nor its ties, nor
    where its lines meet, so the hull is taken of the integer lines and
    the pieces it keeps are stored as they are, with ``scale`` D m.
    """
    fam = _family(family)
    logs = [PrimeLogVal.log_of_int(n) for n, _ in fam]
    offsets, lattice = _lattice([c for _, c in fam])
    primes = tuple(sorted({p for lg in logs for p in lg.logs}))
    # exps[a][k] = v_p(n_a) for p = primes[k]
    exps = [[int(lg.logs.get(p, 0)) for p in primes] for lg in logs]
    sign = _lattice_sign(primes)
    branches = {}
    for k, p in enumerate(primes):
        lines = [(-e[k] * lattice, o) for e, o in zip(exps, offsets)]
        hull, edges = upper_hull(lines, sign)
        # the branch starts at the origin: drop pieces whose right cut
        # num/den (den > 0) is <= 0
        lo = 0
        while lo < len(edges) and edges[lo][0] <= 0:
            lo += 1
        branches[p] = BranchPA(*zip(*hull[lo:]), tuple(edges[lo:]))

    arch_lines = [(_LogVec([v * lattice for v in e]), o)
                  for e, o in zip(exps, offsets)]
    hull, edges = upper_hull(arch_lines, sign)
    # the branch runs over [0, 1]: drop the pieces left of the cut
    # num/den <= 0 (den > 0), then those right of a cut num/den > 1, that
    # is num > sum_p den_p log p
    lo, hi = 0, len(edges)
    while lo < hi and edges[lo][0] <= 0:
        lo += 1
    while lo < hi and primelog_sign(
            edges[hi - 1][0],
            {p: -e for p, e in zip(primes, edges[hi - 1][1]) if e}) > 0:
        hi -= 1
    arch = BranchPA(*zip(*hull[lo:hi + 1]), tuple(edges[lo:hi]))
    origin = max(offsets)
    return MZFunction(lattice * m, primes, origin, branches, arch,
                      BranchPA((0,), (origin,)))


# ---------------------------------------------------------------------------
# slope reports and the subharmonicity verdict
# ---------------------------------------------------------------------------

@dataclass
class MZSlopeReport:
    s_p: dict                 # prime -> PrimeLogVal, outgoing slope at 0 in eps
    s_p_end: dict             # prime -> PrimeLogVal, slope at +inf in eps
    end_values: dict          # prime -> Fraction or NEG_INF marker
    s_inf: PrimeLogVal
    slope_sum: PrimeLogVal
    branch_convex: dict       # branch label -> bool
    inf_increasing: bool
    default_slope_zero: bool
    notes: list[str] = field(default_factory=list)


def _report_log(scale: int, logs) -> PrimeLogVal:
    """sum_p e_p log p / scale from (p, e_p) int pairs, zero e_p dropped."""
    return PrimeLogVal._canonical(
        _ZERO, {p: Fraction(e, scale) for p, e in logs if e})


def mz_slopes(f: MZFunction) -> MZSlopeReport:
    """Exact outgoing slopes and convexity verdicts, decided on the lattice."""
    sign = _lattice_sign(f.primes)
    s_p, s_end, end_vals, convex = {}, {}, {}, {}
    # the outgoing slopes at 0, summed per prime
    total = dict(zip(f.primes, f.arch.slopes[0]))
    for p, pa in f.branches.items():
        first, last = pa.slopes[0], pa.slopes[-1]
        s_p[p] = _report_log(f.scale, [(p, first)])
        s_end[p] = _report_log(f.scale, [(p, last)])
        if last < 0:
            end_vals[p] = NEG_INF
        elif last == 0:
            end_vals[p] = Fraction(pa.consts[-1], f.scale)
        else:
            end_vals[p] = "+inf"
        convex[p] = pa.is_convex(sign)
        total[p] = total.get(p, 0) + first
    convex["inf"] = f.arch.is_convex(sign)
    convex["default"] = f.default.is_convex(sign)
    default_zero = all(s == 0 for s in f.default.slopes)
    notes = []
    if not default_zero:
        notes.append("default branch has nonzero slope: slope sum diverges")
    return MZSlopeReport(
        s_p=s_p,
        s_p_end=s_end,
        end_values=end_vals,
        s_inf=_report_log(f.scale, zip(f.primes, f.arch.slopes[0])),
        slope_sum=_report_log(f.scale, total.items()),
        branch_convex=convex,
        inf_increasing=all(sign(s) >= 0 for s in f.arch.slopes),
        default_slope_zero=default_zero,
        notes=notes,
    )


@dataclass
class MZVerdict:
    passed: bool
    reasons: list[str]
    report: MZSlopeReport


def mz_psh_check(f: MZFunction) -> MZVerdict:
    """Subharmonicity verdict: branchwise convexity, slope signs, slope sum."""
    rep = mz_slopes(f)
    reasons = []
    for label, ok in rep.branch_convex.items():
        if not ok:
            reasons.append(f"branch {label} is not convex")
    for p, s in rep.s_p.items():
        if s.sign() > 0:
            reasons.append(f"outgoing slope at 0 on branch {p} is positive")
        if rep.s_p_end[p].sign() > 0:
            reasons.append(f"slope at infinity on branch {p} is positive")
        if rep.end_values[p] == "+inf":
            reasons.append(f"branch {p} diverges to +inf")
    if not rep.inf_increasing:
        reasons.append("archimedean branch is not increasing")
    if rep.s_inf.sign() < 0:
        reasons.append("archimedean outgoing slope at 0 is negative")
    if not rep.default_slope_zero:
        reasons.append("slope-sum: default branch contributes infinitely often")
    if rep.slope_sum.sign() < 0:
        reasons.append("slope-sum: sum of outgoing slopes at 0 is negative")
    return MZVerdict(passed=not reasons, reasons=reasons, report=rep)


@dataclass
class FamilyIdentityReport:
    """Closed-form cross-checks for an FS-generated function.

    ``n1`` is the gcd over the argmax set A' of the constants; the direct
    archimedean slope is log of the largest |n_a| over A'.  The lcm-based
    closed form for s_inf found in the source characterization disagrees
    with the direct slope whenever lcm != max over A'; the discrepancy is
    surfaced here, never asserted.
    """

    n1: int
    n2_direct: int
    n2_lcm: int
    slope_sum_matches_direct: bool
    lcm_form_differs: bool


def mz_family_identity(family: Sequence[tuple[int, Fraction]], m: int,
                       report: MZSlopeReport) -> FamilyIdentityReport:
    fam = _family(family)
    cmax = max(c for _, c in fam)
    argmax = [abs(n) for n, c in fam if c == cmax]
    n1, n2_direct, n2_lcm = math.gcd(*argmax), max(argmax), math.lcm(*argmax)
    target = (PrimeLogVal.log_of_int(n2_direct) - PrimeLogVal.log_of_int(n1)) / m
    matches = report.slope_sum == target
    # n2_lcm, n2_direct > 0: by unique factorization their logs differ
    # exactly when they do
    differs = n2_lcm != n2_direct
    return FamilyIdentityReport(n1, n2_direct, n2_lcm, matches, differs)


def random_fs_family(rng) -> list[tuple[int, Fraction]]:
    """Seeded random integer family for checker sweeps (stdlib Random)."""
    k = rng.randint(2, 5)
    fam = []
    for _ in range(k):
        n = rng.randint(2, 60) * rng.choice((1, -1))
        c = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        fam.append((n, c))
    return fam
