"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s and
in failure output); assertions carry the same condition so failures are
loud.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from berkhyb.harness import (
    load_family,
    load_models_with_pullbacks,
    load_table,
    load_tfs_file,
)
from berkhyb.hybrid import hybrid_path_limit, lelong_estimate, \
    sample_circle_sups
from berkhyb.manifest import ExperimentManifest, run, write_report
from berkhyb.models import identity_pullback, retraction
from berkhyb.mongeampere import family_limit_measure, ma_model_metric, \
    cln_stability_check, weak_convergence_experiment
from berkhyb.mztree import BranchPA, MZFunction, _LogVec, mz_family_identity, \
    mz_from_family, mz_psh_check
from berkhyb.pafunc import PAFunction1D
from berkhyb.tropical import lse_max_gap, na_limit_tfs
from berkhyb.valuation import Coefficient, LaurentSeriesData, brute_force_min, \
    qm_eval


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def _random_point(model, rng):
    stratum = rng.choice(model.strata)
    raw = [Fraction(rng.randint(0, 6), rng.randint(1, 5)) for _ in stratum]
    if all(q == 0 for q in raw):
        raw[0] = Fraction(1)
    tot = sum((model.multiplicity(j) * q for j, q in zip(stratum, raw)),
              Fraction(0))
    return model.point(stratum, [q / tot for q in raw])


def test_criterion_1_valuation_oracle_equivalence(data_dir):
    registry = load_models_with_pullbacks(
        [data_dir / "models" / m for m in
         ("segment.json", "triangle.json", "blowup.json")])
    models = list(registry.values())
    rng = random.Random(20260810)
    mismatches = 0
    t0 = time.perf_counter()
    for _ in range(1000):
        model = rng.choice(models)
        labels = model.variable_labels()
        nv = rng.randint(1, min(4, len(labels)))
        vars_ = rng.sample(labels, nv)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            terms[tuple(rng.randint(-10, 10) for _ in range(nv))] = \
                Coefficient.unit()
        f = LaurentSeriesData(vars_, list(terms.items()))
        v = _random_point(model, rng)
        if qm_eval(v, f) != brute_force_min(v, f):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report("criterion 1 (valuation oracle equivalence)",
           mismatches == 0 and elapsed < 1.0,
           f"1000 random Laurent inputs, {mismatches} mismatches, "
           f"{elapsed:.3f}s (< 1s)")


def test_criterion_2_retraction_idempotence(data_dir):
    registry = load_models_with_pullbacks(
        [data_dir / "models" / m for m in
         ("segment.json", "triangle.json", "blowup.json")])
    rng = random.Random(31415)
    names = sorted(registry)
    failures = 0
    for k in range(100):
        model = registry[names[k % len(names)]]
        v = _random_point(model, rng)
        if not retraction(model, v, identity_pullback(model)).same_valuation(v):
            failures += 1
    report("criterion 2 (retraction idempotence)", failures == 0,
           f"rho o i = id exactly on 100 rational skeleton points "
           f"across {len(names)} models, {failures} failures")


def test_criterion_3_dual_route_na_limit(data_dir, r):
    families = ["tfs_segment.json", "tfs_blowinf.json", "tfs_triangle.json"]
    all_ok = True
    details = []
    for name in families:
        model, phi = load_tfs_file(data_dir / "families" / name,
                                   data_dir / "models")
        res = na_limit_tfs(phi, model, r)
        all_ok = all_ok and res.dual_route_equal
        details.append(f"{model.name}:{'=' if res.dual_route_equal else '!='}")
    report("criterion 3 (dual-route NA limit)", all_ok,
           "formula = restriction at every divisorial point, exact; "
           + " ".join(details))


def test_criterion_4_total_mass_identity(data_dir):
    tables = ["table_trivial_o1.json", "table_blowinf_L.json",
              "table_blowinf_d21.json", "table_ndim.json"]
    all_ok = True
    masses = []
    for name in tables:
        table = load_table(data_dir / "tables" / name)
        mu = ma_model_metric(table)
        expected = sum((b * num for _, b, num in table.entries), Fraction(0))
        all_ok = all_ok and mu.total_mass() == expected
        masses.append(str(mu.total_mass()))
    report("criterion 4 (total-mass identity)", all_ok,
           f"atomic masses equal table sums exactly: {', '.join(masses)}")


def test_criterion_5_ma_dual_route_curves(data_dir, r):
    pairs = [("table_trivial_o1.json", "fam_isotrivial.json"),
             ("table_blowinf_L.json", "fam_kink.json"),
             ("table_blowinf_d21.json", "fam_d21.json")]
    all_ok = True
    for tname, fname in pairs:
        table = load_table(data_dir / "tables" / tname)
        family = load_family(data_dir / "families" / fname)
        same = family_limit_measure(family, r).same_atoms(ma_model_metric(table))
        all_ok = all_ok and same
    report("criterion 5 (MA dual route on curves)", all_ok,
           "ma_pa_curve = ma_model_metric exactly on 3 bundled inputs")


def test_criterion_6_hybrid_path_limits():
    f = LaurentSeriesData(
        ["z", "t"],
        [((1, 0), Coefficient.explicit(1)), ((0, 1), Coefficient.explicit(-1))],
    )
    t0 = time.perf_counter()
    worst = 0.0
    for w in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(2)):
        res = hybrid_path_limit(f, 2, w, Fraction(1, 2))
        err = abs(res.limit - float(min(w, 1)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    report("criterion 6 (hybrid path limits)",
           worst <= 1e-3 and elapsed < 5.0,
           f"f = z - t, c = 2: worst |limit - min(w,1)| = {worst:.2e} "
           f"(<= 1e-3), {elapsed:.2f}s (< 5s)")


def test_criterion_7_weak_ma_convergence(data_dir, r):
    fam = load_family(data_dir / "families" / "fam_kink.json")
    tests = {"ramp": PAFunction1D.from_breakpoints(
        [Fraction(-2), Fraction(0)], [Fraction(0), Fraction(1)], r)}
    t0 = time.perf_counter()
    conv = weak_convergence_experiment(fam, [1e-2, 1e-3, 1e-4], tests, 1024, r)
    elapsed = time.perf_counter() - t0
    final = conv.rows[-1].w1
    report("criterion 7 (weak MA convergence)",
           final <= 0.05 and conv.monotone and elapsed < 60.0,
           f"W1(mu_t, delta_(u=-1)) = {final:.5f} at |t|=1e-4 on a 1024^2 grid "
           f"(<= 0.05), non-increasing over 1e-2..1e-4: {conv.monotone}, "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_8_lelong_estimation():
    radii = [10.0 ** (-k) for k in range(1, 9)]
    base = lelong_estimate(sample_circle_sups(
        lambda z: math.log(abs(z * z + z ** 3)), radii))
    pert = lelong_estimate(sample_circle_sups(
        lambda z: math.log(abs(z * z + z ** 3)) + math.log(abs(1 + 50 * z)),
        radii))
    e1, e2 = abs(base.estimate - 2.0), abs(pert.estimate - 2.0)
    report("criterion 8 (Lelong estimation)", e1 <= 1e-3 and e2 <= 1e-3,
           f"phi = log|t^2 + t^3|: |estimate - 2| = {e1:.2e}; "
           f"bounded perturbation: {e2:.2e} (both <= 1e-3)")


def test_criterion_9_lse_max_envelope():
    rng = np.random.default_rng(20260810)
    total = 100000
    combos = [(n, m) for n in range(1, 9) for m in (1, 2, 3)]
    per = total // len(combos)
    violations = 0
    checked = 0
    for n, m in combos:
        count = per if (n, m) != combos[-1] else total - per * (len(combos) - 1)
        xs = rng.uniform(-10.0, 10.0, size=(count, n))
        top = xs.max(axis=1, keepdims=True)
        gaps = np.log(np.sum(np.exp(2 * m * (xs - top)), axis=1)) / (2 * m)
        bound = math.log(n) / (2 * m)
        violations += int(np.sum((gaps < 0) | (gaps > bound + 1e-12)))
        checked += count
    # spot-check agreement with the scalar implementation
    assert lse_max_gap([0.0, 0.0], 1) == pytest.approx(math.log(2) / 2)
    report("criterion 9 (LSE-max envelope)", violations == 0,
           f"0 <= chi - max <= log(N)/(2m) on {checked} samples, "
           f"N <= 8, m in {{1,2,3}}: {violations} violations")


def test_criterion_10_mz_characterization():
    rng = random.Random(20260810)
    from berkhyb.mztree import random_fs_family

    all_pass, identity_ok, discrepancy_seen = True, True, False
    for _ in range(20):
        fam = random_fs_family(rng)
        m = rng.choice([1, 2, 3])
        verdict = mz_psh_check(mz_from_family(fam, m))
        ident = mz_family_identity(fam, m, verdict.report)
        all_pass = all_pass and verdict.passed
        identity_ok = identity_ok and ident.slope_sum_matches_direct
        discrepancy_seen = discrepancy_seen or ident.lcm_form_differs
    # the reference family that exposes the closed-form discrepancy
    fam23 = [(2, Fraction(0)), (3, Fraction(0))]
    ident23 = mz_family_identity(
        fam23, 1, mz_psh_check(mz_from_family(fam23, 1)).report)
    viol = MZFunction(1, (), 0, {2: BranchPA((-1,), (0,))},
                      BranchPA((_LogVec(),), (0,)), BranchPA((0,), (0,)))
    vv = mz_psh_check(viol)
    violator_ok = (not vv.passed) and any("slope-sum" in x for x in vv.reasons)
    report("criterion 10 (M(Z) characterization)",
           all_pass and identity_ok and violator_ok and ident23.lcm_form_differs,
           f"20/20 FS families pass; slope-sum = log(n2/n1) symbolically "
           f"(n2 = max over argmax); violator fails with slope-sum reason; "
           f"lcm-form discrepancy logged (direct log {ident23.n2_direct} vs "
           f"lcm log {ident23.n2_lcm})")


def test_criterion_11_cln_stability(data_dir, r):
    fam = load_family(data_dir / "families" / "fam_kink.json")
    deltas = [Fraction(1, 10 ** k) for k in range(1, 5)]
    rep = cln_stability_check(fam, deltas, r)
    report("criterion 11 (CLN stability)",
           rep.failure is None and rep.residual <= 0.05,
           f"pairing differences linear in delta over 1e-1..1e-4: "
           f"fitted C = {rep.fitted_constant:.4f}, "
           f"relative residual {rep.residual:.2e} (<= 5%)")


def test_criterion_12_reproducibility(data_dir, tmp_path):
    manifests = sorted((data_dir / "manifests").glob("*.json"))
    assert len(manifests) == 8
    digests = []
    for round_idx in (0, 1):
        round_dir = tmp_path / f"round{round_idx}"
        blob = {}
        for mpath in manifests:
            man = ExperimentManifest.load(mpath)
            rep = run(man)
            out = round_dir / man.kind
            write_report(rep, out)
            for f in sorted(out.iterdir()):
                if f.name == "timing.json":  # wall clock, excluded by design
                    continue
                blob[f"{man.kind}/{f.name}"] = f.read_bytes()
        digests.append(blob)
    same = digests[0].keys() == digests[1].keys() and all(
        digests[0][k] == digests[1][k] for k in digests[0]
    )
    report("criterion 12 (reproducibility)", same,
           f"two runs of the full bundled manifest suite produced "
           f"byte-identical reports ({len(digests[0])} files compared)")
