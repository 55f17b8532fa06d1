import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berkhyb import exactnum
from berkhyb.exactnum import PrimeLogVal
from berkhyb.mztree import (
    NEG_INF,
    BranchPA,
    MZFunction,
    MZPoint,
    MZSlopeReport,
    _LogVec,
    mz_family_identity,
    mz_from_family,
    mz_fs_eval,
    mz_psh_check,
    mz_slopes,
    padic_valuation,
    random_fs_family,
)
from berkhyb.pafunc import upper_hull
from mz_exact import ExactBranch, ExactMZ, exact_view, padic_value


FAM23 = [(2, Fraction(0)), (3, Fraction(0))]


def test_point_validation():
    MZPoint("origin")
    MZPoint("inf", Fraction(1, 2))
    MZPoint("7", Fraction(3))
    MZPoint("7", "inf")
    with pytest.raises(ValueError):
        MZPoint("4", Fraction(1))
    with pytest.raises(ValueError):
        MZPoint("inf", Fraction(3, 2))
    with pytest.raises(ValueError):
        MZPoint("origin", Fraction(1))


def test_fs_eval_worked_examples():
    # {(2,0),(3,0)}: the 3-term dominates on the 2-branch, value 0
    assert mz_fs_eval(FAM23, 1, MZPoint("2", Fraction(9, 2))).is_zero()
    # archimedean: max(x log 2, x log 3) = x log 3
    v = mz_fs_eval(FAM23, 1, MZPoint("inf", Fraction(1, 2)))
    assert v == PrimeLogVal(0, {3: Fraction(1, 2)})
    assert mz_fs_eval(FAM23, 1, MZPoint("origin")).is_zero()
    with pytest.raises(ValueError):
        mz_fs_eval([(0, Fraction(0))], 1, MZPoint("origin"))


def test_slopes_of_single_two_family():
    rep = mz_slopes(mz_from_family([(2, Fraction(0))], 1))
    assert rep.s_p[2] == PrimeLogVal(0, {2: -1})
    assert rep.s_inf == PrimeLogVal(0, {2: 1})
    assert rep.slope_sum.is_zero()
    assert rep.end_values[2] == NEG_INF  # polar end witness


def test_pluripolar_witness_eval():
    assert mz_fs_eval([(2, Fraction(0))], 1, MZPoint("2", "inf")) == NEG_INF


# crafted functions on the unit lattice: scale 1, no archimedean primes
ZERO_ARCH = BranchPA((_LogVec(),), (0,))


def test_constant_function_passes():
    f = MZFunction(1, (), 0, {}, ZERO_ARCH, BranchPA((0,), (0,)))
    rep = mz_slopes(f)
    assert rep.slope_sum.is_zero() and rep.s_inf.is_zero()
    assert mz_psh_check(f).passed


def test_crafted_slope_sum_violator():
    viol = MZFunction(1, (), 0, {2: BranchPA((-1,), (0,))}, ZERO_ARCH,
                      BranchPA((0,), (0,)))
    verdict = mz_psh_check(viol)
    assert not verdict.passed
    assert any("slope-sum" in reason for reason in verdict.reasons)


def test_concave_kink_on_branch_five():
    # archimedean slope 3 log 2 > log 5: the slope sum stays positive
    f = MZFunction(1, (2,), 0, {5: BranchPA((-1, -3), (0, 2), ((1, 1),))},
                   BranchPA((_LogVec((3,)),), (0,)), BranchPA((0,), (0,)))
    verdict = mz_psh_check(f)
    assert not verdict.passed
    assert any("branch 5" in reason for reason in verdict.reasons)
    assert verdict.reasons == ["branch 5 is not convex"]


def test_generated_families_pass_and_identity():
    rng = random.Random(991)
    for _ in range(20):
        fam = random_fs_family(rng)
        m = rng.choice([1, 2, 3])
        F = mz_from_family(fam, m)
        verdict = mz_psh_check(F)
        assert verdict.passed, (fam, verdict.reasons)
        ident = mz_family_identity(fam, m, verdict.report)
        assert ident.slope_sum_matches_direct, fam


def test_lcm_discrepancy_surfaced():
    rep = mz_slopes(mz_from_family(FAM23, 1))
    ident = mz_family_identity(FAM23, 1, rep)
    # direct slope is log 3; the lcm closed form would claim log 6
    assert rep.slope_sum == PrimeLogVal(0, {3: 1})
    assert ident.n2_direct == 3 and ident.n2_lcm == 6
    assert ident.lcm_form_differs
    assert ident.slope_sum_matches_direct


def test_branch_values_agree_with_envelope():
    fam = [(12, Fraction(0)), (5, Fraction(-1)), (9, Fraction(1, 2))]
    m = 2
    F = exact_view(mz_from_family(fam, m))
    for p in (2, 3, 5):
        for eps in (Fraction(0), Fraction(1, 3), Fraction(2), Fraction(10)):
            direct = mz_fs_eval(fam, m, MZPoint(str(p), eps))
            assert padic_value(F.branches[p], p, eps) == direct
    # archimedean endpoint value x=1 equals max(log|n| + c)/m
    direct1 = mz_fs_eval(fam, m, MZPoint("inf", Fraction(1)))
    last = F.arch.slopes[-1] * Fraction(1) + PrimeLogVal.of(F.arch.consts[-1])
    assert direct1 == last


def test_default_branch_slope_must_vanish():
    f = MZFunction(1, (), 0, {}, ZERO_ARCH, BranchPA((-1,), (0,)))
    verdict = mz_psh_check(f)
    assert not verdict.passed
    assert any("default" in reason for reason in verdict.reasons)


def test_origin_agreement_enforced():
    with pytest.raises(ValueError):
        MZFunction(1, (), 1, {}, ZERO_ARCH, BranchPA((0,), (1,)))


# ---------------------------------------------------------------------------
# the integer-lattice build against the Fraction-based construction
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> list[int]:
    n, p, out = abs(n), 2, []
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _cut_le(cut, bound: Fraction) -> bool:
    """Exact: is a cut (rational, or ratio pair with positive den) <= bound?"""
    if isinstance(cut, tuple):
        num, den = cut
        # num/den <= bound  <=>  num - bound*den <= 0, den > 0
        return (PrimeLogVal.of(num) - den * bound).sign() <= 0
    return cut <= bound


def _restrict_branch(hull, cuts, lo: Fraction, hi: Fraction) -> ExactBranch:
    """Drop envelope pieces active only outside [lo, hi] (exact cut tests)."""
    hull, cuts = list(hull), list(cuts)
    while cuts and _cut_le(cuts[0], lo):
        hull.pop(0)
        cuts.pop(0)
    while cuts and not _cut_le(cuts[-1], hi):
        hull.pop()
        cuts.pop()
    return ExactBranch(tuple(s for s, _ in hull), tuple(c for _, c in hull),
                       tuple(cuts))


def reference_mz_from_family(family, m):
    """mz_from_family as a Fraction line per member and prime, built with
    the validating PrimeLogVal constructor."""
    fam = [(int(n), Fraction(c)) for n, c in family]
    primes = sorted({p for n, _ in fam for p in _prime_factors(n)})
    origin = max(c for _, c in fam) / m
    branches = {}
    for p in primes:
        lines = [(Fraction(-padic_valuation(n, p), m), c / m) for n, c in fam]
        hull, edges = upper_hull(lines, lambda q: (q > 0) - (q < 0))
        cuts = [num / den for num, den in edges]
        while cuts and cuts[0] <= 0:
            hull.pop(0)
            cuts.pop(0)
        branches[p] = ExactBranch(tuple(s for s, _ in hull),
                                  tuple(c for _, c in hull), tuple(cuts))
    arch_lines = [
        (PrimeLogVal(0, {p: Fraction(padic_valuation(n, p), m)
                         for p in _prime_factors(n)}), c / m)
        for n, c in fam
    ]
    hull, edges = upper_hull(arch_lines, lambda v: PrimeLogVal.of(v).sign())
    arch = _restrict_branch(hull, edges, Fraction(0), Fraction(1))
    return ExactMZ(origin, branches, arch, ExactBranch((Fraction(0),), (origin,)))


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
CONSTS = st.builds(Fraction, st.integers(-10**30, 10**30),
                   st.integers(1, 10**30))
# |n| <= 10^6, often a prime power times a small cofactor
MEMBERS = st.builds(
    lambda base, cofactor, sign: sign * base * cofactor,
    st.one_of(st.integers(1, 10**6),
              st.builds(pow, st.sampled_from(SMALL_PRIMES), st.integers(1, 6))),
    st.sampled_from((1, 2, 3, 4, 9, 12)),
    st.sampled_from((1, -1)),
).filter(lambda n: abs(n) <= 10**6)


@st.composite
def families(draw):
    fam = draw(st.lists(st.tuples(MEMBERS, CONSTS), min_size=1, max_size=5))
    if draw(st.booleans()):
        # equal |n| with a different c
        n, c = draw(st.sampled_from(fam))
        fam.append((-n, c + draw(CONSTS)))
    if draw(st.booleans()):
        # three p-adic lines -v x + c, v = 0, 1, 2, through (x0, c0)
        p = draw(st.sampled_from(SMALL_PRIMES))
        x0, c0 = draw(CONSTS), draw(CONSTS)
        fam += [(1, c0), (p, c0 + x0), (p * p, c0 + 2 * x0)]
    if draw(st.booleans()):
        # three archimedean lines (log|n| + k log p) x + c0 + k d, k = 0, 1,
        # 2, through x = -d / log p: the triple test sees an exact zero; a
        # small d <= 0 puts the point in [0, 3)
        n, p = draw(MEMBERS), draw(st.sampled_from(SMALL_PRIMES))
        c0 = draw(CONSTS)
        d = draw(st.one_of(CONSTS, st.fractions(-2, 0, max_denominator=8)))
        fam += [(n, c0), (n * p, c0 + d), (n * p * p, c0 + 2 * d)]
    if draw(st.booleans()):
        # equal c with a different |n|: the archimedean lines meet at x = 0
        n, c = draw(st.sampled_from(fam))
        fam.append((n * draw(st.sampled_from((2, 3, 5, 7, 1024))), c))
    return draw(st.permutations(fam))


@settings(max_examples=150, deadline=None)
@given(fam=families(), m=st.integers(1, 12))
def test_lattice_build_matches_fraction_reference(fam, m):
    got, want = mz_from_family(fam, m), reference_mz_from_family(fam, m)
    assert exact_view(got) == want
    for pa in list(got.branches.values()) + [got.default]:
        assert all(type(x) is int for x in pa.slopes + pa.consts + sum(pa.cuts, ()))
    vecs = got.arch.slopes + tuple(den for _, den in got.arch.cuts)
    assert all(type(v) is _LogVec and len(v) == len(got.primes)
               and all(type(e) is int for e in v) for v in vecs)
    assert all(type(x) is int
               for x in got.arch.consts + tuple(num for num, _ in got.arch.cuts))


def test_lattice_build_three_concurrent_lines():
    # 1, 2 and 4 meet on the 2-branch at sigma = 1/3 with value 0: the
    # middle line (slope -1) is dropped
    fam = [(1, Fraction(0)), (2, Fraction(1, 3)), (4, Fraction(2, 3))]
    F = exact_view(mz_from_family(fam, 1))
    assert F.branches[2] == ExactBranch((Fraction(-2), Fraction(0)),
                                        (Fraction(2, 3), Fraction(0)),
                                        (Fraction(1, 3),))
    assert F == reference_mz_from_family(fam, 1)


def test_archimedean_cut_at_zero_and_concurrent_lines():
    # 2 and 4 with equal c meet at x = 0; 3, 6 and 12 with c = 0, -1, -2
    # meet at x = 1 / log 2 > 1, beyond the branch
    for fam in ([(2, Fraction(0)), (4, Fraction(0))],
                [(3, Fraction(0)), (6, Fraction(-1)), (12, Fraction(-2))]):
        assert exact_view(mz_from_family(fam, 1)) == reference_mz_from_family(fam, 1)
    # 1, 2, 4 meet at x = 1 / (2 log 2) in (0, 1): the middle line drops
    fam = [(1, Fraction(0)), (2, Fraction(-1, 2)), (4, Fraction(-1))]
    F = exact_view(mz_from_family(fam, 1))
    assert F == reference_mz_from_family(fam, 1)
    assert F.arch.slopes == (PrimeLogVal.of(0), PrimeLogVal(0, {2: 2}))
    assert F.arch.cuts == ((Fraction(1), PrimeLogVal(0, {2: 2})),)


# ---------------------------------------------------------------------------
# the integer verdict against the PrimeLogVal slope logic it replaced
# ---------------------------------------------------------------------------

def reference_is_convex(pa: ExactBranch) -> bool:
    for a, b in zip(pa.slopes, pa.slopes[1:]):
        if isinstance(a, PrimeLogVal) or isinstance(b, PrimeLogVal):
            if PrimeLogVal.of(b).cmp(PrimeLogVal.of(a)) < 0:
                return False
        elif b < a:
            return False
    return True


def reference_mz_slopes(f: ExactMZ) -> MZSlopeReport:
    """The slope report in PrimeLogVal arithmetic on the exact view."""
    s_p, s_end, end_vals, convex = {}, {}, {}, {}
    for p, pa in f.branches.items():
        first, last = pa.slopes[0], pa.slopes[-1]
        s_p[p] = PrimeLogVal(0, {p: first})
        s_end[p] = PrimeLogVal(0, {p: last})
        if last < 0:
            end_vals[p] = NEG_INF
        elif last == 0:
            end_vals[p] = pa.consts[-1]
        else:
            end_vals[p] = "+inf"
        convex[p] = reference_is_convex(pa)
    convex["inf"] = reference_is_convex(f.arch)
    convex["default"] = reference_is_convex(f.default)
    s_inf = PrimeLogVal.of(f.arch.slopes[0])
    slope_sum = s_inf
    for p in f.branches:
        slope_sum = slope_sum + s_p[p]
    default_zero = all(s == 0 for s in f.default.slopes)
    return MZSlopeReport(
        s_p=s_p, s_p_end=s_end, end_values=end_vals, s_inf=s_inf,
        slope_sum=slope_sum, branch_convex=convex,
        inf_increasing=all(PrimeLogVal.of(s).sign() >= 0 for s in f.arch.slopes),
        default_slope_zero=default_zero,
        notes=[] if default_zero else
        ["default branch has nonzero slope: slope sum diverges"],
    )


def reference_reasons(rep: MZSlopeReport) -> list[str]:
    reasons = [f"branch {label} is not convex"
               for label, ok in rep.branch_convex.items() if not ok]
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
    return reasons


def assert_verdict_matches_reference(f: MZFunction):
    verdict = mz_psh_check(f)
    want = reference_mz_slopes(exact_view(f))
    assert mz_slopes(f) == want
    assert verdict.report == want
    assert verdict.reasons == reference_reasons(want)
    assert verdict.passed == (not verdict.reasons)


@settings(max_examples=150, deadline=None)
@given(fam=families(), m=st.integers(1, 12))
def test_integer_verdict_matches_primelog_reference(fam, m):
    assert_verdict_matches_reference(mz_from_family(fam, m))


@st.composite
def crafted_functions(draw):
    """Lattice functions with unsorted int slopes on the p-adic branches and
    mixed-sign vectors on the archimedean one."""
    primes = tuple(sorted(draw(st.sets(st.sampled_from(SMALL_PRIMES), max_size=4))))
    scale, origin = draw(st.integers(1, 40)), draw(st.integers(-50, 50))
    vectors = st.builds(_LogVec, st.lists(st.integers(-7, 7), min_size=len(primes),
                                          max_size=len(primes)))

    def branch(slopes, dens):
        pieces = draw(st.lists(slopes, min_size=1, max_size=4))
        rest = len(pieces) - 1
        consts = (origin,) + tuple(draw(st.lists(st.integers(-50, 50),
                                                 min_size=rest, max_size=rest)))
        cuts = tuple(zip(draw(st.lists(st.integers(-9, 9), min_size=rest, max_size=rest)),
                         draw(st.lists(dens, min_size=rest, max_size=rest))))
        return BranchPA(tuple(pieces), consts, cuts)

    ints = st.integers(-6, 6)
    labels = draw(st.sets(st.sampled_from(SMALL_PRIMES + (17, 19)), max_size=4))
    branches = {p: branch(ints, st.integers(1, 5)) for p in sorted(labels)}
    default = branch(st.sampled_from((0, 0, 0, -1, 1)), st.integers(1, 5))
    return MZFunction(scale, primes, origin, branches, branch(vectors, vectors), default)


@settings(max_examples=300, deadline=None)
@given(f=crafted_functions())
def test_crafted_verdicts_match_primelog_reference(f):
    assert_verdict_matches_reference(f)


def test_mixed_sign_archimedean_slopes_reach_the_certified_sign():
    # archimedean slopes log(3/2) > log(9/8) > 0 > log(2/3): mixed-sign
    # vectors, whose signs and order only the digit ladder decides
    arch = BranchPA((_LogVec((-1, 1)), _LogVec((-3, 2)), _LogVec((1, -1))),
                    (0, 1, 2), ((1, _LogVec((1, 1))), (2, _LogVec((1, 1)))))
    f = MZFunction(6, (2, 3), 0, {2: BranchPA((1, -2, 0), (0, 1, 1), ((1, 2), (3, 1)))},
                   arch, BranchPA((0,), (0,)))
    with mock.patch.object(exactnum, "_certified_sign",
                           wraps=exactnum._certified_sign) as certified:
        assert_verdict_matches_reference(f)
    assert certified.call_count
    reasons = mz_psh_check(f).reasons
    assert "branch 2 is not convex" in reasons
    assert "branch inf is not convex" in reasons
    assert "archimedean branch is not increasing" in reasons


@pytest.mark.parametrize("call", [
    lambda fam: mz_from_family(fam, 1),
    lambda fam: mz_fs_eval(fam, 1, MZPoint("origin")),
    lambda fam: mz_family_identity(fam, 1, mz_slopes(mz_from_family(FAM23, 1))),
], ids=["mz_from_family", "mz_fs_eval", "mz_family_identity"])
def test_family_is_normalised_once(call):
    with pytest.raises(ValueError, match="family must be non-empty"):
        call([])
    with pytest.raises(ValueError, match="family members must be nonzero integers"):
        call([(2, Fraction(0)), (0, Fraction(1))])
