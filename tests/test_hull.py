"""The one certified upper hull against brute-force pointwise maxima.

It is checked on three scalar spans: rational lines, rational slopes
with offsets in {1, log r, 1/log r} (line envelopes), and prime-log
slopes with rational offsets; and on the M_Z tree, whose branches take
it on one integer lattice (int lines on the p-adic branches, int vectors
over a prime basis with int offsets on the archimedean branch), through
their exact view.  Each is checked against the direct max of all input
lines, including duplicate and parallel slopes, three lines through one
point, and probes exactly at the cuts.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from berkhyb.exactnum import LogRVal, PrimeLogVal, logr_max, primelog_max
from berkhyb.manifest import ExperimentManifest, run, write_report
from berkhyb.mztree import MZPoint, mz_from_family, mz_fs_eval
from berkhyb.pafunc import AffineLine, upper_envelope, upper_hull
from mz_exact import exact_view, padic_value


R = Fraction(1, 2)


def rat_sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def primelog_sign(v) -> int:
    return PrimeLogVal.of(v).sign()


def interval_samples(cuts):
    """One probe strictly inside each interval that the sorted cuts delimit."""
    if not cuts:
        return [Fraction(0)]
    inner = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    return [cuts[0] - 1] + inner + [cuts[-1] + 1]


def random_rational_lines(rng, n):
    lines = [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
              Fraction(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(n)]
    # duplicates and parallel copies of earlier lines
    for s, o in lines[: rng.randint(0, n)]:
        lines.append((s, o + rng.choice((0, 0, -1, 1))))
    rng.shuffle(lines)
    return lines


def test_rational_hull_matches_pointwise_max():
    rng = random.Random(4242)
    for _ in range(300):
        lines = random_rational_lines(rng, rng.randint(1, 8))
        hull, edges = upper_hull(lines, rat_sign)
        cuts = [num / den for num, den in edges]
        assert all(den > 0 for _, den in edges)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert all(a[0] < b[0] for a, b in zip(hull, hull[1:]))
        probes = [Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(8)]
        probes += cuts
        for x in probes:
            brute = max(s * x + o for s, o in lines)
            assert max(s * x + o for s, o in hull) == brute
        for (s0, o0), (s1, o1), x in zip(hull, hull[1:], cuts):
            # adjacent pieces meet exactly at the cut, where both are the max
            assert s0 * x + o0 == s1 * x + o1 == max(s * x + o for s, o in lines)
        # each hull line is the unique max strictly inside its interval
        for (s, o), x in zip(hull, interval_samples(cuts)):
            others = [s1 * x + o1 for s1, o1 in lines if (s1, o1) != (s, o)]
            assert all(v < s * x + o for v in others)


def test_logr_envelope_matches_pointwise_max():
    rng = random.Random(515)
    for trial in range(150):
        n = rng.randint(1, 7)
        lines = []
        for _ in range(n):
            off = LogRVal(
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2)) if trial % 3 == 1 else 0,
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if trial % 3 == 2 else 0,
            )
            lines.append(AffineLine(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), off))
        lines += [AffineLine(ln.slope, ln.offset + rng.choice((0, -1)))
                  for ln in lines[: rng.randint(0, n)]]
        env = upper_envelope(lines, R)
        slopes = [p.slope for p in env.pieces]
        assert slopes == sorted(slopes)
        probes = [LogRVal.of(Fraction(rng.randint(-30, 30), rng.randint(1, 4)))
                  for _ in range(6)]
        probes += env.cuts + interval_samples(env.cuts)
        for x in probes:
            assert env.eval(x) == logr_max([ln.eval(x) for ln in lines], R)
        for piece, x in zip(env.pieces, interval_samples(env.cuts)):
            others = [ln.eval(x) for ln in lines if ln != piece]
            assert all(v.cmp(piece.eval(x), R) < 0 for v in others)


def random_primelog_lines(rng, n):
    lines = [(PrimeLogVal.log_of_int(rng.randint(1, 60)) / rng.choice((1, 2, 3)),
              Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))) for _ in range(n)]
    lines += [(s, o + rng.choice((0, -1))) for s, o in lines[: rng.randint(0, n)]]
    rng.shuffle(lines)
    return lines


def arch_value(hull, edges, x: Fraction) -> PrimeLogVal:
    """Hull value at rational x; a cut num/den is passed when num - x*den < 0."""
    idx = 0
    while idx < len(edges) and \
            (PrimeLogVal.of(edges[idx][0]) - edges[idx][1] * x).sign() < 0:
        idx += 1
    s, o = hull[idx]
    return s * x + o


def test_primelog_hull_matches_pointwise_max():
    rng = random.Random(808)
    for _ in range(80):
        lines = random_primelog_lines(rng, rng.randint(1, 6))
        hull, edges = upper_hull(lines, primelog_sign)
        for (num0, den0), (num1, den1) in zip(edges, edges[1:]):
            assert (num1 * den0 - num0 * den1).sign() > 0  # cuts increase
        for (s0, o0), (s1, o1), (num, den) in zip(hull, hull[1:], edges):
            assert den.sign() > 0
            # at the cut x = num/den, multiplied through by den > 0
            assert s0 * num + den * o0 == s1 * num + den * o1
        for _ in range(6):
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            brute = primelog_max(s * x + o for s, o in lines)
            assert arch_value(hull, edges, x) == brute


@pytest.mark.parametrize("kind", ["rational", "logr", "primelog"])
def test_three_concurrent_lines_drop_the_middle(kind):
    # slopes a < b < c through one point: the middle line touches only there
    if kind == "rational":
        lines = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
                 (Fraction(2), Fraction(-1))]  # all through (1, 1)
        hull, edges = upper_hull(lines, rat_sign)
        assert [num / den for num, den in edges] == [Fraction(1)]
    elif kind == "logr":
        kappa = LogRVal(const=1, invlogr=Fraction(1, 3))
        env = upper_envelope([AffineLine(Fraction(s), kappa - s * kappa)
                              for s in (2, 0, 1)], R)  # all through (kappa, kappa)
        assert env.cuts == [kappa]
        hull = [(p.slope, p.offset) for p in env.pieces]
    else:
        lines = [(PrimeLogVal.log_of_int(n), Fraction(1, 2)) for n in (5, 2, 3)]
        hull, edges = upper_hull(lines, primelog_sign)  # all through (0, 1/2)
        assert edges[0][0] == 0
    assert len(hull) == 2


def test_duplicate_slopes_keep_the_larger_offset_first_on_ties():
    lines = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(2)),
             (Fraction(1), Fraction(2)), (Fraction(0), Fraction(-1))]
    hull, edges = upper_hull(lines, rat_sign)
    assert hull == [(Fraction(0), Fraction(-1)), (Fraction(1), Fraction(2))]
    assert edges == [(Fraction(-3), Fraction(1))]
    first, second = PrimeLogVal.log_of_int(6), PrimeLogVal(0, {2: 1, 3: 1})
    hull, _ = upper_hull([(first, Fraction(0)), (second, Fraction(0))], primelog_sign)
    assert hull == [(first, Fraction(0))] and hull[0][0] is first


def random_family(rng):
    fam = [(rng.randint(1, 90) * rng.choice((1, -1)),
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
           for _ in range(rng.randint(1, 6))]
    # same |n| with another constant (duplicate slopes on every branch)
    fam += [(-n, c - rng.randint(0, 1)) for n, c in fam[: rng.randint(0, 2)]]
    if rng.random() < 0.25:  # equal constants: every line through the origin
        fam = [(n, fam[0][1]) for n, _ in fam]
    return fam


def test_tree_branches_match_fs_eval():
    rng = random.Random(31337)
    xs = [Fraction(k, 12) for k in range(13)]
    for _ in range(60):
        fam, m = random_family(rng), rng.choice((1, 2, 3))
        F = exact_view(mz_from_family(fam, m))
        for p, pa in F.branches.items():
            for eps in (Fraction(0), Fraction(1, 5), Fraction(1), Fraction(7, 2),
                        Fraction(40)):
                assert padic_value(pa, p, eps) == mz_fs_eval(fam, m, MZPoint(str(p), eps))
        hull, edges = list(zip(F.arch.slopes, F.arch.consts)), list(F.arch.cuts)
        for x in rng.sample(xs, 4) + [Fraction(0), Fraction(1)]:
            assert arch_value(hull, edges, x) == mz_fs_eval(fam, m, MZPoint("inf", x))


# report.json digests of the four exact, float-free bundled kinds, recorded
# before the envelope routines were merged into upper_hull (mz-check,
# ma-model) and before the runners read their values through one manifest
# accessor (retract, na-limit): neither change may move these bytes
PINNED_REPORTS = {
    "mz_check.json": "475da8a8316a574c044d5cf5066edc3a650c97379524c03b39262df2a86385e8",
    "ma_model.json": "622ccab06c9e7fbd670ead2239a9cb41fe1ae58737d5b9c0dc0010418dbb7f5b",
    "retract.json": "a4609dd1484c6f904ed1dd47e8842a9522d5e92dbcd13b5a8477104f80028c36",
    "na_limit.json": "f2adadf955c5a4e935fcf5130273b3ee3cdc472b8d097f4328350b9b5630c880",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_exact_report_bytes_pinned(data_dir, tmp_path, name):
    write_report(run(ExperimentManifest.load(data_dir / "manifests" / name)), tmp_path)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == PINNED_REPORTS[name]
