import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berkhyb.exactnum import PrimeLogVal
from berkhyb.mztree import (
    NEG_INF,
    BranchPA,
    MZFunction,
    MZPoint,
    mz_family_identity,
    mz_from_family,
    mz_fs_eval,
    mz_psh_check,
    mz_slopes,
    padic_valuation,
    random_fs_family,
)
from berkhyb.pafunc import upper_hull


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


def test_constant_function_passes():
    f = MZFunction(Fraction(0), {},
                   BranchPA((Fraction(0),), (Fraction(0),)),
                   BranchPA((Fraction(0),), (Fraction(0),)))
    rep = mz_slopes(f)
    assert rep.slope_sum.is_zero() and rep.s_inf.is_zero()
    assert mz_psh_check(f).passed


def test_crafted_slope_sum_violator():
    viol = MZFunction(Fraction(0),
                      {2: BranchPA((Fraction(-1),), (Fraction(0),))},
                      BranchPA((Fraction(0),), (Fraction(0),)),
                      BranchPA((Fraction(0),), (Fraction(0),)))
    verdict = mz_psh_check(viol)
    assert not verdict.passed
    assert any("slope-sum" in reason for reason in verdict.reasons)


def test_concave_kink_on_branch_five():
    f = MZFunction(
        Fraction(0),
        {5: BranchPA((Fraction(-1), Fraction(-3)),
                     (Fraction(0), Fraction(2)), (Fraction(1),))},
        BranchPA((Fraction(2),), (Fraction(0),)),
        BranchPA((Fraction(0),), (Fraction(0),)),
    )
    verdict = mz_psh_check(f)
    assert not verdict.passed
    assert any("branch 5" in reason for reason in verdict.reasons)


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


def eval_p_branch(pa: BranchPA, p: int, eps: Fraction) -> PrimeLogVal:
    """Evaluate sigma-parametrized branch data at eps, certified piece lookup."""
    idx = 0
    # sigma = eps * log p against rational cuts: sign of eps*log p - cut
    while idx < len(pa.cuts) and \
            PrimeLogVal(-pa.cuts[idx], {p: eps}).sign() > 0:
        idx += 1
    return PrimeLogVal(pa.consts[idx], {p: pa.slopes[idx] * eps})


def test_branch_values_agree_with_envelope():
    fam = [(12, Fraction(0)), (5, Fraction(-1)), (9, Fraction(1, 2))]
    m = 2
    F = mz_from_family(fam, m)
    for p in (2, 3, 5):
        for eps in (Fraction(0), Fraction(1, 3), Fraction(2), Fraction(10)):
            direct = mz_fs_eval(fam, m, MZPoint(str(p), eps))
            assert eval_p_branch(F.branches[p], p, eps) == direct
    # archimedean endpoint value x=1 equals max(log|n| + c)/m
    direct1 = mz_fs_eval(fam, m, MZPoint("inf", Fraction(1)))
    last = F.arch.slopes[-1] * Fraction(1) + PrimeLogVal.of(F.arch.consts[-1])
    assert direct1 == last


def test_default_branch_slope_must_vanish():
    f = MZFunction(Fraction(0), {},
                   BranchPA((Fraction(0),), (Fraction(0),)),
                   BranchPA((Fraction(-1),), (Fraction(0),)))
    verdict = mz_psh_check(f)
    assert not verdict.passed
    assert any("default" in reason for reason in verdict.reasons)


def test_origin_agreement_enforced():
    with pytest.raises(ValueError):
        MZFunction(Fraction(1), {},
                   BranchPA((Fraction(0),), (Fraction(0),)),
                   BranchPA((Fraction(0),), (Fraction(1),)))


def test_json_shape():
    F = mz_from_family(FAM23, 1)
    data = F.to_json()
    assert set(data["branches"]) == {"2", "3", "inf", "default"}
    assert data["origin"] == "0"


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


def _restrict_branch(hull, cuts, lo: Fraction, hi: Fraction) -> BranchPA:
    """Drop envelope pieces active only outside [lo, hi] (exact cut tests)."""
    hull, cuts = list(hull), list(cuts)
    while cuts and _cut_le(cuts[0], lo):
        hull.pop(0)
        cuts.pop(0)
    while cuts and not _cut_le(cuts[-1], hi):
        hull.pop()
        cuts.pop()
    return BranchPA(tuple(s for s, _ in hull), tuple(c for _, c in hull),
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
        branches[p] = BranchPA(tuple(s for s, _ in hull),
                               tuple(c for _, c in hull), tuple(cuts))
    arch_lines = [
        (PrimeLogVal(0, {p: Fraction(padic_valuation(n, p), m)
                         for p in _prime_factors(n)}), c / m)
        for n, c in fam
    ]
    hull, edges = upper_hull(arch_lines, lambda v: PrimeLogVal.of(v).sign())
    arch = _restrict_branch(hull, edges, Fraction(0), Fraction(1))
    return MZFunction(origin, branches, arch,
                      BranchPA((Fraction(0),), (origin,)))


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
    assert got == want
    assert got.to_json() == want.to_json()
    for pa in got.branches.values():
        assert all(type(x) is Fraction for x in pa.slopes + pa.consts + pa.cuts)
    arch_logs = [s.logs for s in got.arch.slopes] + [d.logs for _, d in got.arch.cuts]
    assert all(type(s.const) is Fraction for s in got.arch.slopes)
    assert all(type(p) is int and type(q) is Fraction and q
               for logs in arch_logs for p, q in logs.items())
    assert all(type(x) is Fraction
               for x in got.arch.consts + tuple(n for n, _ in got.arch.cuts))


def test_lattice_build_three_concurrent_lines():
    # 1, 2 and 4 meet on the 2-branch at sigma = 1/3 with value 0: the
    # middle line (slope -1) is dropped
    fam = [(1, Fraction(0)), (2, Fraction(1, 3)), (4, Fraction(2, 3))]
    F = mz_from_family(fam, 1)
    assert F.branches[2] == BranchPA((Fraction(-2), Fraction(0)),
                                     (Fraction(2, 3), Fraction(0)),
                                     (Fraction(1, 3),))
    assert F == reference_mz_from_family(fam, 1)


def test_archimedean_cut_at_zero_and_concurrent_lines():
    # 2 and 4 with equal c meet at x = 0; 3, 6 and 12 with c = 0, -1, -2
    # meet at x = 1 / log 2 > 1, beyond the branch
    for fam in ([(2, Fraction(0)), (4, Fraction(0))],
                [(3, Fraction(0)), (6, Fraction(-1)), (12, Fraction(-2))]):
        F = mz_from_family(fam, 1)
        assert F == reference_mz_from_family(fam, 1)
        assert F.to_json() == reference_mz_from_family(fam, 1).to_json()
    # 1, 2, 4 meet at x = 1 / (2 log 2) in (0, 1): the middle line drops
    fam = [(1, Fraction(0)), (2, Fraction(-1, 2)), (4, Fraction(-1))]
    F = mz_from_family(fam, 1)
    assert F == reference_mz_from_family(fam, 1)
    assert F.arch.slopes == (PrimeLogVal.of(0), PrimeLogVal(0, {2: 2}))
    assert F.arch.cuts == ((Fraction(1), PrimeLogVal(0, {2: 2})),)
