import cmath
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from berkhyb import mongeampere
from berkhyb.exactnum import LogRVal
from berkhyb.harness import load_family, load_table
from berkhyb.mongeampere import (
    MASS_FLOOR,
    RAMP,
    Chart,
    CurveFamily,
    FamilyEntry,
    ResolutionError,
    cln_stability_check,
    combine_clouds,
    family_limit_measure,
    family_profile,
    ma_complex_curve,
    ma_model_metric,
    ma_pa_curve,
    pairing_difference,
    partition_weight,
    pushforward_log_radius,
    wasserstein1_line,
    weak_convergence_experiment,
    _cross_pairing,
    _geometry,
    _potential_on_grid,
    _profiled,
)
from berkhyb.pafunc import PAFunction1D


def std_charts(adapted_p=None, interface=-0.5):
    charts = [Chart(p=Fraction(0), name="main", u_lo=interface)]
    if adapted_p is not None:
        charts.append(Chart(p=Fraction(adapted_p), name="adapted",
                            u_hi=interface))
    return tuple(charts)


# ---------------------------------------------------------------------------
# the 2-D reference: the stored cells, stencil, gather and order of the
# route before it kept only the run of nonzero partition weight
# ---------------------------------------------------------------------------

def _dense_weight(chart, u):
    """The partition weight, cell by cell, with no ordering of ``u``."""
    w = np.ones_like(u)
    for end, falling in ((chart.u_lo, False), (chart.u_hi, True)):
        if math.isfinite(end):
            x = np.clip((u - (end - RAMP)) / (2 * RAMP), 0.0, 1.0)
            s = x * x * (3.0 - 2.0 * x)
            w = w * (1.0 - s if falling else s)
    return w


def _reference_cells(n, L, radial):
    """log|xi| on the halo grid, and each stored cell's index into the flat
    halo interior and multiplicity: on the octant the triangle i <= j of
    the positive quadrant in ``np.triu_indices`` order, else all n^2 cells
    in row-major order."""
    centers = _geometry(L, n).centers
    if radial:
        half = n // 2
        quadrant = centers[half:]
        halo = np.log(np.abs(quadrant[:, None] + 1j * quadrant[None, :]))
        i, j = np.triu_indices(half)
        return halo, i * half + j, np.where(i == j, 4.0, 8.0)
    halo = np.log(np.abs(centers[:, None] + 1j * centers[None, :]))
    return halo, np.arange(n * n), np.ones(n * n)


def _reference_layout(chart, t, n, radial=True):
    """The stored cells of a chart in reference order: their u and
    multiplicity, the permutation ``ids`` that lists them in ascending u,
    and the run [start, stop) of that listing outside which the partition
    weight is 0."""
    halo, index, mult = _reference_cells(n, chart.L, radial)
    log_abs = halo[1:-1, 1:-1].ravel()[index]
    logabs_t = math.log(abs(t))
    u = (-log_abs if chart.invert else log_abs) / logabs_t
    u -= float(chart.p)
    order = np.argsort(log_abs, kind="stable")
    ids = order if (logabs_t < 0) == chart.invert else order[::-1]
    sorted_u = u[ids]
    start, stop = 0, u.size
    if math.isfinite(chart.u_lo):
        start = int(np.sum((sorted_u - (chart.u_lo - RAMP)) / (2 * RAMP) <= 0.0))
    if math.isfinite(chart.u_hi):
        stop -= int(np.sum((sorted_u - (chart.u_hi - RAMP)) / (2 * RAMP) >= 1.0))
    return u, mult, ids, start, max(start, stop)


def _reference_measure(family, t, n, r, chart, radial=True):
    """The 2-D route: the potential on the halo grid, the five-point
    stencil on every interior cell, gathered to the stored cells and
    weighted, in reference order.  Returns the unweighted and weighted
    masses (each cell carrying its orbit) and the _reference_layout."""
    halo, index, mult = _reference_cells(n, chart.L, radial)
    phi = _potential_on_grid(family, complex(t), chart, _geometry(chart.L, n),
                             math.log(float(r)), halo)
    masses = phi[2:, 1:-1] + phi[:-2, 1:-1]
    masses += phi[1:-1, 2:] + phi[1:-1, :-2]
    masses -= 4.0 * phi[1:-1, 1:-1]
    masses /= 2.0 * math.pi
    masses = masses.ravel()[index]
    masses *= mult
    layout = _reference_layout(chart, t, n, radial)
    return masses, masses * _dense_weight(chart, layout[0]), layout


def _spread(g, values, t, radial):
    """A grid's run values on the reference's stored cells, 0 off the run,
    after checking that the run is the reference's run in u order."""
    u, mult, ids, start, stop = _reference_layout(g.chart, t, g.resolution, radial)
    assert np.array_equal(g.cell_u, u[ids[start:stop]])
    assert np.array_equal(g.multiplicity, mult[ids[start:stop]] if radial else 1.0)
    stored = np.zeros(u.size)
    stored[ids[start:stop]] = values
    return stored


def octant_to_full(g, values, t):
    """A radial chart's run values spread over the full (n, n) grid by the
    8 symmetries of the square grid, 0 off the run.

    Every grid cell must lie in the orbit of exactly one cell of the
    triangle i <= j of the positive quadrant, and every orbit must have
    the multiplicity of that cell.
    """
    n = g.resolution
    half = n // 2
    i, j = np.triu_indices(half)
    ids = np.arange(i.size)
    owner = np.full((n, n), -1)
    for a, b in ((i, j), (j, i)):
        for rows in (half + a, half - 1 - a):
            for cols in (half + b, half - 1 - b):
                before = owner[rows, cols]
                assert np.all((before == -1) | (before == ids))
                owner[rows, cols] = ids
    assert (owner >= 0).all()
    assert np.array_equal(np.bincount(owner.ravel()), np.where(i == j, 4, 8))
    return _spread(g, values, t, radial=True)[owner]


def full_to_grid(g, values, t):
    """A full-route chart's run values on the (n, n) grid, 0 off the run."""
    n = g.resolution
    return _spread(g, values, t, radial=False).reshape(n, n)


@pytest.fixture()
def kink_family():
    return CurveFamily(
        "kink", 1, 1,
        (FamilyEntry.build({0: 1}), FamilyEntry.build({1: 1}, q=1)),
        std_charts(1),
    )


# ---------------------------------------------------------------------------
# atomic formula and the exact PA route
# ---------------------------------------------------------------------------

def test_ma_model_metric_examples(data_dir):
    triv = load_table(data_dir / "tables" / "table_trivial_o1.json")
    mu = ma_model_metric(triv)
    assert mu.total_mass() == 1 and len(mu.atoms) == 1
    d21 = load_table(data_dir / "tables" / "table_blowinf_d21.json")
    mu2 = ma_model_metric(d21)
    assert sorted(a.mass for a in mu2.atoms) == [1, 2]
    assert mu2.total_mass() == 3
    ndim = load_table(data_dir / "tables" / "table_ndim.json")
    mu3 = ma_model_metric(ndim)  # b_E = 2 against intersection 1/2
    assert mu3.atoms[0].mass == 1
    assert mu3.total_mass() == 2


def test_ma_model_negative_mass_flagged(data_dir, segment):
    from berkhyb.mongeampere import IntersectionTable

    table = IntersectionTable.build(segment, [(0, 1, Fraction(-1)),
                                              (1, 1, Fraction(2))])
    mu = ma_model_metric(table)
    assert mu.flags and "nef" in mu.flags[0]


def test_ma_pa_curve_examples(r):
    affine = PAFunction1D.from_breakpoints([Fraction(0)], [Fraction(0)], r,
                                           left_slope=3, right_slope=3)
    assert not ma_pa_curve(affine).nonzero().atoms
    vee = PAFunction1D.from_breakpoints([Fraction(-1)], [Fraction(0)], r,
                                        left_slope=0, right_slope=1)
    atoms = ma_pa_curve(vee).nonzero().atoms
    assert atoms[0].mass == 1 and atoms[0].u == LogRVal.of(Fraction(-1))
    concave = PAFunction1D.from_breakpoints([Fraction(0)], [Fraction(0)], r,
                                            left_slope=1, right_slope=0)
    flagged = ma_pa_curve(concave)
    assert flagged.flags


def test_dual_route_on_bundled_curve_inputs(data_dir, r):
    pairs = [("table_trivial_o1.json", "fam_isotrivial.json"),
             ("table_blowinf_L.json", "fam_kink.json"),
             ("table_blowinf_d21.json", "fam_d21.json")]
    for tname, fname in pairs:
        table = load_table(data_dir / "tables" / tname)
        family = load_family(data_dir / "families" / fname)
        assert family_limit_measure(family, r).same_atoms(ma_model_metric(table))


def test_profile_shapes(kink_family, r):
    prof = family_profile(kink_family, r)
    assert prof.is_convex()
    assert prof.slopes() == [Fraction(-1), Fraction(0)]
    kinks = prof.kinks()
    assert len(kinks) == 1 and kinks[0][0] == LogRVal.of(Fraction(-1))


def test_threesec_profile_atoms(data_dir, r):
    fam = load_family(data_dir / "families" / "fam_threesec.json")
    mu = family_limit_measure(fam, r)
    atoms = sorted(((a.u.rational_part(), a.mass) for a in mu.nonzero().atoms))
    assert atoms == [(Fraction(-1, 2), Fraction(1, 2)),
                     (Fraction(0), Fraction(1, 2))]


def test_constant_perturbation_moves_kink_exactly(kink_family, r):
    pert = kink_family.with_constant_shift(1, Fraction(1, 10))
    mu = family_limit_measure(pert, r)
    (atom,) = mu.nonzero().atoms
    # kink at u = -1 - (1/10)/log r: rational plus 1/log r part, exact
    assert atom.u == LogRVal(const=-1, invlogr=Fraction(-1, 10))


# ---------------------------------------------------------------------------
# complex grid route
# ---------------------------------------------------------------------------

def test_unit_circle_harmonic_measure(r):
    fam = CurveFamily(
        "isotriv", 1, 1,
        (FamilyEntry.build({0: 1}), FamilyEntry.build({1: 1})),
        (Chart(p=Fraction(0), name="main"),),
    )
    grids = ma_complex_curve(fam, complex(1e-3), 512, r)
    g = grids[0]
    assert g.total_mass == pytest.approx(1.0, abs=1e-4)
    assert g.negative_mass_floor() > -1e-9
    # mass concentrated on the unit circle, uniformly in angle
    masses = octant_to_full(g, g.per_cell_masses(), 1e-3)
    n = g.resolution
    h = 2.0 * g.chart.L / n
    centers = -g.chart.L + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(centers, centers, indexing="ij")
    rad = np.hypot(X, Y)
    near = np.abs(rad - 1.0) < 5 * h
    assert masses[near].sum() == pytest.approx(1.0, abs=1e-3)
    ang = np.arctan2(Y, X)
    quad_masses = [masses[(ang >= a) & (ang < a + math.pi / 2)].sum()
                   for a in (-math.pi, -math.pi / 2, 0.0, math.pi / 2)]
    for qm in quad_masses:
        assert qm == pytest.approx(0.25, abs=5e-3)


def test_lse_mode_total_mass(r):
    # the smooth variant spreads curvature over both standard charts
    fam = CurveFamily(
        "lse", 1, 1,
        (FamilyEntry.build({0: 1}), FamilyEntry.build({1: 1})),
        (Chart(p=Fraction(0), name="main", u_lo=0.0),
         Chart(p=Fraction(0), invert=True, name="inf", u_hi=0.0)),
        mode="lse",
    )
    grids = ma_complex_curve(fam, complex(1e-3), 1024, r)
    total = sum(g.total_mass for g in grids)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_harmonic_chart_has_no_interior_mass(r):
    # single-section family: harmonic away from its zero at xi = 0
    fam = CurveFamily(
        "single", 1, 1, (FamilyEntry.build({1: 1}),),
        (Chart(p=Fraction(0), name="main"),),
    )
    grids = ma_complex_curve(fam, complex(1e-3), 512, r, mass_tol=math.inf)
    g = grids[0]
    masses = octant_to_full(g, g.per_cell_masses(), 1e-3)
    n = g.resolution
    h = 2.0 * g.chart.L / n
    centers = -g.chart.L + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(centers, centers, indexing="ij")
    away = np.hypot(X, Y) > 0.5
    # harmonic region: only five-point truncation error, no atoms
    assert np.abs(masses[away]).max() < 1e-6
    assert abs(masses[away].sum()) < 1e-5


def test_resolution_error_suggests_refinement(r):
    fam = CurveFamily(
        "kink", 1, 1,
        (FamilyEntry.build({0: 1}), FamilyEntry.build({1: 1}, q=1)),
        (Chart(p=Fraction(0), name="main", u_lo=-0.5),),  # adapted chart missing
    )
    with pytest.raises(ResolutionError) as exc:
        ma_complex_curve(fam, complex(1e-4), 128, r)
    assert exc.value.suggested_n == 256


def test_pushforward_dirac_locations(kink_family, r):
    grids = ma_complex_curve(kink_family, complex(1e-3), 512, r)
    cloud = combine_clouds([pushforward_log_radius(g) for g in grids])
    mean = float(np.sum(cloud.u * cloud.mass) / cloud.total())
    assert mean == pytest.approx(-1.0, abs=1e-3)
    spread = float(np.sqrt(np.sum(cloud.mass * (cloud.u - mean) ** 2)
                           / cloud.total()))
    assert spread < 5e-3


def test_pushforward_two_circles_additive(data_dir, r):
    fam = load_family(data_dir / "families" / "fam_threesec.json")
    grids = ma_complex_curve(fam, complex(1e-3), 512, r)
    cloud = combine_clouds([pushforward_log_radius(g) for g in grids])
    near0 = cloud.mass[np.abs(cloud.u) < 0.1].sum()
    nearhalf = cloud.mass[np.abs(cloud.u + 0.5) < 0.1].sum()
    assert near0 == pytest.approx(0.5, abs=1e-3)
    assert nearhalf == pytest.approx(0.5, abs=1e-3)


def test_wasserstein_exact_cases():
    assert wasserstein1_line([0.0], [1.0], [1.0], [1.0]) == pytest.approx(1.0)
    assert wasserstein1_line([0.0, 1.0], [0.5, 0.5], [0.0, 1.0],
                             [0.5, 0.5]) == pytest.approx(0.0)
    # normalization: total masses are matched before comparison
    assert wasserstein1_line([0.0], [2.0], [1.0], [2.0]) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# stability experiment pieces
# ---------------------------------------------------------------------------

def test_cln_zero_delta_and_antisymmetry(kink_family, r):
    assert pairing_difference(kink_family, kink_family, r).is_zero()
    pert = kink_family.with_constant_shift(1, Fraction(1, 7))
    x12 = _cross_pairing(_profiled(kink_family, r), _profiled(pert, r))
    x21 = _cross_pairing(_profiled(pert, r), _profiled(kink_family, r))
    assert x12 == (-1) * x21


def test_cln_linearity(kink_family, r):
    deltas = [Fraction(1, 10 ** k) for k in range(1, 5)]
    rep = cln_stability_check(kink_family, deltas, r)
    assert rep.failure is None
    assert rep.residual <= 0.05
    assert rep.antisymmetry_exact


@pytest.mark.parametrize("name, delta, difference, cross", [
    ("fam_threesec", Fraction(1, 7), LogRVal(invlogr=Fraction(1, 28)),
     LogRVal(invlogr=Fraction(1, 14))),
    ("fam_threesec", Fraction(3, 2),
     LogRVal(const=Fraction(1, 8), invlogr=Fraction(3, 4)),
     LogRVal(invlogr=Fraction(3, 4))),
    ("fam_d21", Fraction(1, 7), LogRVal(invlogr=Fraction(1, 7)),
     LogRVal(invlogr=Fraction(3, 7))),
    ("fam_d21", Fraction(3, 2), LogRVal(const=2, invlogr=Fraction(9, 2)),
     LogRVal(invlogr=Fraction(9, 2))),
])
def test_pairings_pinned_on_bundled_families(data_dir, r, name, delta,
                                             difference, cross):
    # the values of pairing the PA difference h1 - h2 built piece by piece
    fam = load_family(data_dir / "families" / f"{name}.json")
    pert = fam.with_constant_shift(len(fam.entries) - 1, delta)
    assert pairing_difference(fam, pert, r) == difference
    assert _cross_pairing(_profiled(fam, r), _profiled(pert, r)) == cross


def test_pairing_symmetry_on_bounded_profiles(r):
    f = PAFunction1D.from_breakpoints(
        [Fraction(-2), Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)], r)
    g = PAFunction1D.from_breakpoints(
        [Fraction(-3), Fraction(1)], [Fraction(2), Fraction(5)], r)
    assert ma_pa_curve(g).pair_with(f) == ma_pa_curve(f).pair_with(g)


def test_convergence_monotone_down_to_1e6(kink_family, r):
    # module invariant: comparison error non-increasing for k = 2..6
    tests = {"ramp": PAFunction1D.from_breakpoints(
        [Fraction(-2), Fraction(0)], [Fraction(0), Fraction(1)], r)}
    from berkhyb.mongeampere import weak_convergence_experiment

    conv = weak_convergence_experiment(
        kink_family, [10.0 ** (-k) for k in range(2, 7)], tests, 512, r)
    assert conv.monotone
    w1s = [row.w1 for row in conv.rows]
    assert w1s[-1] < w1s[0]


# ---------------------------------------------------------------------------
# grid fast paths against the general paths
# ---------------------------------------------------------------------------

BUNDLED_CURVES = ("fam_kink", "fam_isotrivial", "fam_threesec", "fam_d21")


def _power_sum_potential(family, t, chart, nodes, log_r):
    """Direct evaluation: sum of coef t^(q - pk) xi^k, complex log-modulus."""
    logabs_t = math.log(abs(t))
    vals = []
    for e in family.entries:
        acc = np.zeros_like(nodes, dtype=complex)
        for k, coef in e.coeffs:
            tpow = cmath.exp((float(e.q) - float(chart.p) * k) * cmath.log(t))
            acc += coef * tpow * nodes ** ((family.degree - k) if chart.invert else k)
        vals.append(np.log(np.abs(acc)) + float(e.c) / log_r * logabs_t)
    stack = np.stack(vals)
    if family.mode == "max":
        return np.max(stack, axis=0) / family.m
    mm = 2.0 * family.m
    top = np.max(stack, axis=0)
    return (top + np.log(np.sum(np.exp(mm * (stack - top)), axis=0)) / mm) / family.m


def _paths_agree(family, r, tol):
    """The grid potential and the direct power sum agree within ``tol``."""
    geom = _geometry(2.0, 256)
    log_r = math.log(float(r))
    inverted = Chart(p=Fraction(0), invert=True, name="inf")
    worst = 0.0
    for t in (complex(1e-2), complex(1e-4)):
        for chart in family.charts + (inverted,):
            fast = _potential_on_grid(family, t, chart, geom, log_r,
                                      geom.full.halo_log_abs)
            direct = _power_sum_potential(family, t, chart, geom.nodes, log_r)
            assert fast.shape == (258, 258)
            worst = max(worst, np.abs(fast - direct).max())
    assert worst <= tol


@pytest.mark.parametrize("name", BUNDLED_CURVES)
def test_monomial_path_matches_complex_path(data_dir, r, name):
    fam = load_family(data_dir / "families" / f"{name}.json")
    assert all(len(e.coeffs) == 1 for e in fam.entries)
    _paths_agree(fam, r, 1e-13)
    _paths_agree(dataclasses.replace(fam, mode="lse"), r, 1e-13)


def test_mixed_entries_match_complex_path(r):
    # a two-term section sits beside monomials with t-powers and constants
    fam = CurveFamily(
        "mixed", 2, 3,
        (FamilyEntry.build({0: 1}),
         FamilyEntry.build({1: 2 + 1j, 3: 0.5}, q=1, c=Fraction(1, 3)),
         FamilyEntry.build({2: 1j}, q=Fraction(1, 2))),
        std_charts(Fraction(1, 2)),
    )
    _paths_agree(fam, r, 1e-13)
    _paths_agree(dataclasses.replace(fam, mode="lse"), r, 1e-13)


def test_shared_geometry_gives_identical_grids(data_dir, r):
    fam = load_family(data_dir / "families" / "fam_isotrivial.json")
    for t in (1e-2, 1e-3):
        geom = _geometry(2.0, 128)
        shared = ma_complex_curve(fam, complex(t), 128, r)
        assert _geometry(2.0, 128) is geom
        _geometry.cache_clear()
        fresh = ma_complex_curve(fam, complex(t), 128, r)
        assert _geometry(2.0, 128) is not geom
        for a, b in zip(shared, fresh, strict=True):
            assert np.array_equal(a.cell_masses, b.cell_masses)
            assert np.array_equal(a.cell_u, b.cell_u)
            assert np.array_equal(a.multiplicity, b.multiplicity)


def test_geometry_is_built_once_per_grid():
    assert _geometry(2.0, 64) is _geometry(2.0, 64)
    assert _geometry(2.0, 64) is not _geometry(2.0, 128)
    assert _geometry(2.0, 64) is not _geometry(1.5, 64)


def test_cached_geometry_arrays_are_read_only():
    # a grid no other test uses, so that a write that got through would
    # corrupt nothing else
    geom = _geometry(3.0, 32)
    octant, full = geom.octant, geom.full
    arrays = [geom.centers, geom.nodes, octant.log_abs, octant.multiplicity,
              octant.neighbours, octant.boundary, full.halo_log_abs,
              full.order, full.log_abs]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_families_with_one_grid_build_one_geometry(data_dir, r):
    tests = {"ramp": PAFunction1D.from_breakpoints(
        [Fraction(-2), Fraction(0)], [Fraction(0), Fraction(1)], r)}
    _geometry.cache_clear()
    for name in ("fam_kink", "fam_threesec"):
        fam = load_family(data_dir / "families" / f"{name}.json")
        assert {chart.L for chart in fam.charts} == {2.0}
        weak_convergence_experiment(fam, [1e-2, 1e-3], tests, 128, r,
                                    mass_tol=math.inf)
    assert _geometry.cache_info().misses == 1


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_unit_modulus_t_rejected(kink_family, r, t):
    # u = log|z| / log|t| is undefined at |t| = 1
    with pytest.raises(ValueError, match=r"\|t\| = 1\.0") as exc:
        ma_complex_curve(kink_family, complex(t), 64, r)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("t", [1e-3, 1e3])
def test_pushforward_clouds_sorted(r, t):
    # both chart orientations, and log|t| of either sign
    fam = CurveFamily(
        "isotriv", 1, 1,
        (FamilyEntry.build({0: 1}), FamilyEntry.build({1: 1})),
        (Chart(p=Fraction(0), name="main", u_lo=0.0),
         Chart(p=Fraction(0), invert=True, name="inf", u_hi=0.0)),
    )
    grids = ma_complex_curve(fam, complex(t), 128, r, mass_tol=math.inf)
    for g in grids:
        masses = octant_to_full(g, g.per_cell_masses(), t)
        assert masses.shape == octant_to_full(g, g.cell_u, t).shape == (128, 128)
        cloud = pushforward_log_radius(g)
        assert cloud.u.size > 0
        assert np.all(np.diff(cloud.u) >= 0)
        # a fresh sort of the reference's stored cells gives the same cloud
        _, weighted, (u, mult, *_) = _reference_measure(fam, t, 128, r, g.chart)
        fresh = np.argsort(u, kind="stable")
        kept = fresh[(np.abs(weighted / mult) > MASS_FLOOR)[fresh]]
        assert np.array_equal(cloud.u, u[kept])
        assert np.array_equal(np.sort(cloud.mass), np.sort(weighted[kept]))


def test_wasserstein_independent_of_cloud_order(data_dir, r):
    fam = load_family(data_dir / "families" / "fam_threesec.json")
    grids = ma_complex_curve(fam, complex(1e-3), 256, r)
    cloud = combine_clouds([pushforward_log_radius(g) for g in grids])
    u0, m0 = np.array([-0.5, 0.0]), np.array([0.5, 0.5])
    perm = np.random.default_rng(5).permutation(cloud.u.size)
    w_sorted = wasserstein1_line(cloud.u, cloud.mass, u0, m0)
    w_shuffled = wasserstein1_line(cloud.u[perm], cloud.mass[perm], u0, m0)
    assert abs(w_sorted - w_shuffled) <= 1e-12


@pytest.mark.parametrize("chart", [
    Chart(name="lo", u_lo=-0.5),
    Chart(name="hi", u_hi=-0.25),
    Chart(name="both", u_lo=-0.7, u_hi=-0.3),
    Chart(name="none"),
], ids=lambda c: c.name)
def test_partition_weight_ramp_runs_match_dense(chart):
    rng = np.random.default_rng(11)
    # dense near every ramp end, with ties on ramp centers and ends
    ends = np.array([-0.75, -0.65, -0.55, -0.45, -0.35, -0.3, -0.25, -0.2])
    near = (ends[:, None] + np.linspace(-1e-3, 1e-3, 41)).ravel()
    u = np.concatenate([near, np.repeat(ends, 8), np.full(64, -0.5),
                        rng.uniform(-1.0, 0.2, 4096 - near.size - 128)])
    u = rng.permutation(u)
    order = np.argsort(u, kind="stable")
    dense = _dense_weight(chart, u)
    runs = partition_weight(chart, u[order])
    assert runs.shape == u.shape
    assert np.array_equal(dense[order], runs)


# ---------------------------------------------------------------------------
# the octant route of radial charts against the full-grid route
# ---------------------------------------------------------------------------

def _octant_and_full(monkeypatch, run):
    """``run()`` as it is, and with every family treated as non-radial, so
    that each chart takes the full route."""
    octant = run()
    with monkeypatch.context() as m:
        m.setattr(mongeampere, "_radial", lambda family: False)
        full = run()
    return octant, full


@pytest.mark.parametrize("mode", ["max", "lse"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_octant_expands_to_full_grid_bit_for_bit(data_dir, r, monkeypatch, n,
                                                 mode):
    # the bundled charts (p = 0, 1/2, 1, one inverted) plus an inverted
    # chart with p != 0 and both partition ramps
    extra = Chart(p=Fraction(1, 3), invert=True, name="inv", u_lo=-0.8, u_hi=-0.2)
    for name in BUNDLED_CURVES:
        fam = load_family(data_dir / "families" / f"{name}.json")
        fam = dataclasses.replace(fam, mode=mode, charts=fam.charts + (extra,))
        for t in (1e-3, 1e3):
            octant, full = _octant_and_full(
                monkeypatch,
                lambda: ma_complex_curve(fam, complex(t), n, r, mass_tol=math.inf))
            for o, f in zip(octant, full, strict=True):
                assert o.cell_masses.size <= n * (n + 2) // 8
                assert f.multiplicity == 1.0 and f.cell_masses.size <= n * n
                assert np.array_equal(octant_to_full(o, o.per_cell_masses(), t),
                                      full_to_grid(f, f.cell_masses, t))
                assert np.array_equal(octant_to_full(o, o.cell_u, t),
                                      full_to_grid(f, f.cell_u, t))
                assert o.negative_mass_floor() == f.negative_mass_floor()


@pytest.mark.parametrize("mode", ["max", "lse"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_run_matches_2d_reference_bit_for_bit(data_dir, r, monkeypatch, n, mode):
    # the bundled charts plus an inverted chart with p != 0 and both ramps;
    # both routes, against the 2-D stencil on every cell
    extra = Chart(p=Fraction(1, 3), invert=True, name="inv", u_lo=-0.8, u_hi=-0.2)
    for name in BUNDLED_CURVES:
        fam = load_family(data_dir / "families" / f"{name}.json")
        fam = dataclasses.replace(fam, mode=mode, charts=fam.charts + (extra,))
        for t in (1e-3, 1e3):
            octant, full = _octant_and_full(
                monkeypatch,
                lambda: ma_complex_curve(fam, complex(t), n, r, mass_tol=math.inf))
            for radial, grids in ((True, octant), (False, full)):
                for g in grids:
                    _, weighted, (u, mult, ids, start, stop) = _reference_measure(
                        fam, t, n, r, g.chart, radial)
                    run = ids[start:stop]
                    assert np.array_equal(g.cell_u, u[run])
                    assert np.array_equal(g.cell_masses, weighted[run])
                    assert np.array_equal(g.multiplicity,
                                          mult[run] if radial else 1.0)
                    assert not weighted[ids[:start]].any()
                    assert not weighted[ids[stop:]].any()
                    # the raw total stays the whole grid's
                    grid_total = _reference_measure(fam, t, n, r, g.chart,
                                                    radial=False)[0].sum()
                    assert abs(g.raw_total - grid_total) <= 1e-12


def test_octant_route_matches_full_route_on_bundled_families(data_dir, r,
                                                             monkeypatch):
    man = json.loads((data_dir / "manifests" / "ma_converge.json").read_text())
    params = man["params"]
    n, schedule = params["grid"], params["t_schedule"]
    tests = {f["name"]: PAFunction1D.from_breakpoints(
        [Fraction(x) for x in f["xs"]], [Fraction(y) for y in f["ys"]], r)
        for f in params["test_functions"]}
    for name in BUNDLED_CURVES:
        fam = load_family(data_dir / "families" / f"{name}.json")
        # fam_d21 is not in the manifest, and 1024 cells do not resolve its
        # mass to 1e-4; the routes are compared, not the mass check
        octant, full = _octant_and_full(
            monkeypatch,
            lambda: weak_convergence_experiment(fam, schedule, tests, n, r,
                                                mass_tol=math.inf))
        for o, f in zip(octant.rows, full.rows, strict=True):
            assert abs(o.w1 - f.w1) <= 1e-12
            assert abs(o.captured_mass - f.captured_mass) <= 1e-12
            for key in tests:
                assert abs(o.test_errors[key] - f.test_errors[key]) <= 1e-12
    # the keep floor compares the mass of one cell: both routes keep the
    # same cells, so their clouds hold the same u values with the same mass
    fam = load_family(data_dir / "families" / "fam_threesec.json")
    for t in schedule:
        octant, full = _octant_and_full(
            monkeypatch, lambda: ma_complex_curve(fam, complex(t), n, r))
        for o, f in zip(octant, full, strict=True):
            oc, fc = pushforward_log_radius(o), pushforward_log_radius(f)
            ou, o_inv = np.unique(oc.u, return_inverse=True)
            fu, f_inv = np.unique(fc.u, return_inverse=True)
            assert np.array_equal(ou, fu)
            assert np.allclose(np.bincount(o_inv, oc.mass),
                               np.bincount(f_inv, fc.mass), rtol=0, atol=1e-15)


def test_bundled_families_take_the_octant_route(data_dir, r):
    # an edit that made a bundled family non-radial would fall back to the
    # full grid, eight times the cells
    man = json.loads((data_dir / "manifests" / "ma_converge.json").read_text())
    n = man["params"]["grid"]
    for name in BUNDLED_CURVES:
        fam = load_family(data_dir / "families" / f"{name}.json")
        grids = ma_complex_curve(fam, complex(1e-3), n, r, mass_tol=math.inf)
        assert len(grids) == len(fam.charts)
        for g in grids:
            assert g.cell_masses.size == g.cell_u.size == g.multiplicity.size
            assert g.cell_masses.size <= n * (n + 2) // 8
            assert np.array_equal(np.unique(g.multiplicity), [4.0, 8.0])


def test_odd_grid_rejected(kink_family, r):
    with pytest.raises(ResolutionError) as exc:
        ma_complex_curve(kink_family, complex(1e-3), 129, r)
    assert exc.value.suggested_n == 130


def test_nan_mass_fails_the_mass_check(r):
    # a section vanishing exactly at a cell center: log|xi - a| is -inf
    # there, the Laplacian is NaN, and so is the chart's total
    a = complex(*_geometry(2.0, 64).centers[[20, 41]])
    fam = CurveFamily("zero-at-center", 1, 1,
                      (FamilyEntry.build({0: -a, 1: 1}),),
                      (Chart(p=Fraction(0), name="main"),))
    # the check is written so that NaN fails it at any tolerance
    with np.errstate(invalid="ignore"):
        for tol in (1e-4, math.inf):
            with pytest.raises(ResolutionError, match="captured mass nan"):
                ma_complex_curve(fam, complex(1e-3), 64, r, mass_tol=tol)
