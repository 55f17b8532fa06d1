import cmath
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berkhyb import mongeampere
from berkhyb.exactnum import LogRVal
from berkhyb.harness import load_family, load_table
from berkhyb.mongeampere import (
    MASS_FLOOR,
    RAMP,
    Chart,
    CurveFamily,
    FamilyEntry,
    GridMeasure,
    MERGED_RUNS,
    ResolutionError,
    atoms_to_arrays,
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
from berkhyb.pafunc import AffineLine, PAFunction1D, upper_envelope


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


def _kept_run(g, t, ids, start, stop):
    """The reference ids of a grid's run, in u order: the reference run
    ``ids[start:stop]`` less the cells nearest xi = 0 that the run does not
    hold, since it keeps the far end (the cells of largest |xi|)."""
    size = g.cell_u.size
    assert size <= stop - start
    # ids lists the cells by ascending log|xi| when it is forward
    if (math.log(abs(t)) < 0) == g.chart.invert:
        return ids[stop - size:stop], ids[start:stop - size]
    return ids[start:start + size], ids[start + size:stop]


def _assert_plus_zero(values):
    """Every value is +0.0, compared bit for bit."""
    assert not values.view(np.uint64).any()


def _spread(fam, g, values, t, r, radial):
    """A grid's run values on the reference's stored cells, 0 off the run,
    after checking that the run is a contiguous sub-run of the reference's
    run in u order that ends at its far end, and that every reference cell
    it cuts off has weighted mass +0.0 in the 2-D reference."""
    _, weighted, (u, mult, ids, start, stop) = _reference_measure(
        fam, t, g.resolution, r, g.chart, radial)
    run, cut = _kept_run(g, t, ids, start, stop)
    assert np.array_equal(g.cell_u, u[run])
    assert np.array_equal(g.multiplicity, mult[run] if radial else 1.0)
    _assert_plus_zero(weighted[cut])
    stored = np.zeros(u.size)
    stored[run] = values
    return stored


def octant_to_full(fam, g, values, t, r):
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
    return _spread(fam, g, values, t, r, radial=True)[owner]


def full_to_grid(fam, g, values, t, r):
    """A full-route chart's run values on the (n, n) grid, 0 off the run."""
    n = g.resolution
    return _spread(fam, g, values, t, r, radial=False).reshape(n, n)


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
    assert [p.slope for p in prof.pieces] == [Fraction(-1), Fraction(0)]
    kinks = prof.kinks()
    assert len(kinks) == 1 and kinks[0][0] == LogRVal.of(Fraction(-1))


def _reference_profile(family, r):
    """The envelope of the unscaled lines, its pieces then scaled by 1/m
    and its cuts kept."""
    lines = [AffineLine(Fraction(-k), LogRVal(const=-e.q, invlogr=-e.c))
             for e in family.entries for k, _v in e.coeffs]
    env = upper_envelope(lines, r)
    q = Fraction(1, family.m)
    return [AffineLine(p.slope * q, p.offset * q) for p in env.pieces], env.cuts


def _same_profile(family, r):
    prof = family_profile(family, r)
    pieces, cuts = _reference_profile(family, r)
    return prof.pieces == pieces and prof.cuts == cuts


def test_family_profile_scales_before_the_hull_on_bundled_families(data_dir, r):
    paths = sorted((data_dir / "families").glob("fam_*.json"))
    assert len(paths) == 4
    assert all(_same_profile(load_family(path), r) for path in paths)


_RATIONAL = st.fractions(-3, 3, max_denominator=4)
_ENTRY = st.builds(
    FamilyEntry.build,
    st.dictionaries(st.integers(0, 4), st.just(1), min_size=1, max_size=3),
    q=_RATIONAL, c=st.one_of(st.just(0), _RATIONAL))


@given(entries=st.lists(_ENTRY, min_size=1, max_size=5), m=st.integers(1, 6))
# equal slopes, in one entry and across entries
@example(entries=[FamilyEntry.build({1: 1}), FamilyEntry.build({1: 1}, q=1),
                  FamilyEntry.build({0: 1, 1: 1}, c=1)], m=2)
# three lines through (u, H) = (1, 0)
@example(entries=[FamilyEntry.build({0: 1}), FamilyEntry.build({1: 1}, q=-1),
                  FamilyEntry.build({2: 1}, q=-2)], m=3)
@settings(max_examples=60, deadline=None)
def test_family_profile_scales_before_the_hull(entries, m, r):
    degree = max(k for e in entries for k, _v in e.coeffs) or 1
    family = CurveFamily("random", m, degree, tuple(entries), (Chart(),))
    assert _same_profile(family, r)


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
    masses = octant_to_full(fam, g, g.per_cell_masses(), 1e-3, r)
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
    masses = octant_to_full(fam, g, g.per_cell_masses(), 1e-3, r)
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
    # the mass at u = -1 lies where no chart owns u: no grid captures it
    assert exc.value.suggested_n is None
    assert "no chart owns u in (-inf, -0.5): add a chart that covers it" \
        in str(exc.value)


def test_pushforward_dirac_locations(kink_family, r):
    grids = ma_complex_curve(kink_family, complex(1e-3), 512, r)
    cloud = combine_clouds([pushforward_log_radius(g) for g in grids])
    mean = float(np.sum(cloud.u * cloud.mass) / cloud.total())
    assert mean == pytest.approx(-1.0, abs=1e-3)
    spread = float(np.sqrt(np.sum(cloud.mass * (cloud.u - mean) ** 2)
                           / cloud.total()))
    assert spread < 5e-3


def test_combine_clouds_keeps_a_lone_cloud(r):
    u, m = np.array([-1.0, -0.5]), np.array([0.25, 0.75])
    empty = mongeampere.LineCloud(np.zeros(0), np.zeros(0), 0.125)
    lone = combine_clouds([empty, mongeampere.LineCloud(u, m, 0.5), empty])
    # the arrays as they are, and the leakage of every chart
    assert lone.u is u and lone.mass is m
    assert lone.leakage == 0.75
    both = combine_clouds([mongeampere.LineCloud(u, m), empty,
                           mongeampere.LineCloud(u + 1.0, m)])
    assert both.u.tolist() == [-1.0, -0.5, 0.0, 0.5]
    assert both.mass.tolist() == [0.25, 0.75, 0.25, 0.75]
    assert combine_clouds([empty, empty]).u.size == 0


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


def _argsort_w1(u1, m1, u2, m2):
    """W1 from a stable argsort of every point, with fresh arrays for each
    step: the reference wasserstein1_line's merge must match bit for bit."""
    u1, m1, u2, m2 = (np.asarray(a, dtype=float) for a in (u1, m1, u2, m2))
    t1, t2 = m1.sum(), m2.sum()
    pts = np.concatenate([u1, u2])
    order = np.argsort(pts, kind="stable")
    deltas = np.concatenate([m1 / t1, -m2 / t2])[order]
    gap = np.abs(np.cumsum(deltas)[:-1])
    return float(np.sum(gap * np.diff(pts[order])) * (0.5 * (t1 + t2)))


# few distinct values, so that points of two runs, and atoms, tie often
_U = st.one_of(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
               st.floats(-3.0, 3.0))
_MASS = st.floats(0.001, 2.0)
_RUN = st.lists(st.tuples(_U, _MASS), max_size=8).map(sorted)


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(_RUN, min_size=1, max_size=MERGED_RUNS + 3),
       atoms=st.lists(st.tuples(_U, _MASS), min_size=1, max_size=3),
       shuffle=st.booleans())
# equal u across two runs
@example(runs=[[(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)], [(0.5, 2.0), (0.5, 3.0), (2.0, 1.0)]],
         atoms=[(1.0, 1.0)], shuffle=False)
# an atom on a cloud point; two atoms on each other
@example(runs=[[(-0.5, 1.0), (0.0, 1.0), (0.5, 1.0)]],
         atoms=[(0.0, 1.0), (0.5, 0.5), (0.5, 0.25)], shuffle=False)
# an empty chart between two others
@example(runs=[[(-1.0, 1.0), (0.0, 1.0)], [], [(-0.5, 1.0), (1.0, 1.0)]],
         atoms=[(-0.5, 1.0)], shuffle=False)
# a second run wholly below the first, and one touching it
@example(runs=[[(1.0, 1.0), (2.0, 1.0)], [(-2.0, 1.0), (-1.0, 1.0)]],
         atoms=[(-0.5, 1.0), (0.0, 1.0)], shuffle=False)
@example(runs=[[(1.0, 1.0), (2.0, 1.0)], [(-2.0, 1.0), (1.0, 1.0)]],
         atoms=[(1.0, 1.0)], shuffle=False)
# one-point runs
@example(runs=[[(1.0, 1.0)], [(0.0, 1.0)], [(0.5, 1.0)], [(0.0, 2.0)]],
         atoms=[(0.5, 1.0)], shuffle=False)
def test_merged_w1_matches_the_argsort_bit_for_bit(runs, atoms, shuffle):
    u = np.array([p for run in runs for p, _ in run])
    m = np.array([w for run in runs for _, w in run])
    assume(u.size)
    if shuffle:
        perm = np.random.default_rng(u.size).permutation(u.size)
        u, m = u[perm], m[perm]
    u0, m0 = np.array(atoms).T
    assert wasserstein1_line(u, m, u0, m0) == _argsort_w1(u, m, u0, m0)


@pytest.mark.parametrize("k", [4.0, 8.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_floor_test_without_division_keeps_the_same_cells(k, sign):
    at = MASS_FLOOR * k
    masses = sign * np.array([np.nextafter(at, 0.0), at, np.nextafter(at, np.inf),
                              k * 2.0**-1023, 0.0, np.inf, np.nan])
    mult = np.full(masses.size, k)
    grid = GridMeasure(Chart(), 16, masses, np.arange(float(masses.size)),
                       0.0, 0.0, mult)
    with np.errstate(invalid="ignore"):
        divided = np.flatnonzero(np.abs(masses / mult) > MASS_FLOOR)
    assert divided.tolist() == [2, 5]
    assert pushforward_log_radius(grid).u.tolist() == [2.0, 5.0]


def _argsort_cloud_stage(family, t_schedule, tests, n, r):
    """The cloud stage by its reference steps: the floor test by division,
    the argsort W1, and pairings over the concatenated chart values."""
    mu0 = family_limit_measure(family, r)
    u0, m0 = atoms_to_arrays(mu0, r)
    rows = []
    for t in t_schedule:
        grids = ma_complex_curve(family, complex(t), n, r, mass_tol=math.inf)
        kept = [np.flatnonzero(np.abs(g.cell_masses / g.multiplicity) > MASS_FLOOR)
                for g in grids]
        charts = [g.cell_u[k] for g, k in zip(grids, kept)]
        u = np.concatenate(charts)
        m = np.concatenate([g.cell_masses[k] for g, k in zip(grids, kept)])
        errs = {}
        for name, f in tests.items():
            cuts, slopes, offsets = f._float_tables
            values = np.concatenate([
                slopes[i] * x + offsets[i]
                for x in charts for i in [np.searchsorted(cuts, x, side="left")]])
            errs[name] = abs(float(np.sum(m * values))
                             - mu0.pair_with(f).to_float(r))
        rows.append((t, _argsort_w1(u, m, u0, m0), errs, float(m.sum())))
    return rows


@pytest.mark.parametrize("name", ["fam_kink", "fam_isotrivial", "fam_threesec"])
def test_cloud_stage_matches_the_argsort_stage_bit_for_bit(data_dir, r, name):
    man = json.loads((data_dir / "manifests" / "ma_converge.json").read_text())
    tests = {f["name"]: PAFunction1D.from_breakpoints(
        [Fraction(x) for x in f["xs"]], [Fraction(y) for y in f["ys"]], r)
        for f in man["params"]["test_functions"]}
    fam = load_family(data_dir / "families" / f"{name}.json")
    schedule = [1e-2, 1e-3, 1e-4]
    report = weak_convergence_experiment(fam, schedule, tests, 128, r,
                                         mass_tol=math.inf)
    got = [(row.t_abs, row.w1, row.test_errors, row.captured_mass)
           for row in report.rows]
    assert got == _argsort_cloud_stage(fam, schedule, tests, 128, r)


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


def test_cln_check_profiles_each_family_once(kink_family, r, monkeypatch):
    calls = []

    def counted(family, rr):
        calls.append(family)
        return _profiled(family, rr)

    monkeypatch.setattr(mongeampere, "_profiled", counted)
    deltas = [Fraction(1, 10 ** k) for k in range(1, 5)]
    rep = cln_stability_check(kink_family, deltas, r)
    assert len(calls) == 1 + len(deltas)
    assert rep.antisymmetry_exact
    with pytest.raises(ValueError, match="at least one delta"):
        cln_stability_check(kink_family, [], r)


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


def _stacked_potential(family, t, chart, geom, log_r, log_abs):
    """The potential with the terms stacked and reduced by np.max."""
    terms = [mongeampere._entry_term(e, family.degree, t, chart, geom, log_r,
                                     log_abs) for e in family.entries]
    stack = np.stack(terms, axis=-1)
    top = np.max(stack, axis=-1)
    gap = np.log(np.sum(np.exp(2 * family.m * (stack - top[..., None])),
                        axis=-1)) / (2 * family.m)
    return (top + gap) / family.m


@pytest.mark.parametrize("name", BUNDLED_CURVES[:3])
def test_lse_potential_matches_the_stacked_max(data_dir, r, name):
    # the running max plus the gap gives the bits of the stacked np.max
    fam = dataclasses.replace(
        load_family(data_dir / "families" / f"{name}.json"), mode="lse")
    geom = _geometry(2.0, 128)
    log_r = math.log(float(r))
    inverted = Chart(p=Fraction(0), invert=True, name="inf")
    for t in (complex(1e-2), complex(1e-4)):
        for chart in fam.charts + (inverted,):
            for log_abs in (geom.full.halo_log_abs, np.linspace(-3.0, 3.0, 97)):
                got = _potential_on_grid(fam, t, chart, geom, log_r, log_abs)
                want = _stacked_potential(fam, t, chart, geom, log_r, log_abs)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def _octant_reference(L, n):
    """The octant arrays and Lambda by the plain route, which the build
    must match bit for bit: a fresh array per step, the neighbour rows
    through np.where and np.stack, and the stencil of the whole triangle
    in one call."""
    half = n // 2
    quadrant = mongeampere._ChartGeometry(L, n).centers[half:]
    halo = np.log(np.abs(quadrant[:, None] + 1j * quadrant[None, :]))
    i, j = np.triu_indices(half)
    order = np.argsort(halo[i + 1, j + 1], kind="stable")
    i, j = i[order], j[order]
    size = order.size
    position = np.empty((half, half), dtype=np.intp)
    position[i, j] = np.arange(size)

    def where(a, b):
        a, b = np.maximum(a, 0), np.maximum(b, 0)
        a, b = np.minimum(a, b), np.maximum(a, b)
        return np.where(b == half, size + a, position[a, np.minimum(b, half - 1)])

    ref = {"log_abs": halo[i + 1, j + 1],
           "multiplicity": np.where(i == j, 4.0, 8.0),
           "neighbours": np.stack([where(i + 1, j), where(i - 1, j),
                                   where(i, j + 1), where(i, j - 1)]),
           "boundary": np.stack([halo[1:-1, -1], halo[1:-1, -2]])}
    phi = np.concatenate([ref["log_abs"], ref["boundary"][0]])
    nb = ref["neighbours"]
    stencil = phi[nb[0]] + phi[nb[1]]
    stencil += phi[nb[2]] + phi[nb[3]]
    stencil -= 4.0 * phi[:size]
    stencil /= 2.0 * math.pi
    stencil *= ref["multiplicity"]
    ref["log_stencil"] = stencil
    return ref, float(quadrant[1] - quadrant[0])


@pytest.mark.parametrize("n", [16, 18, 64, 1024])
def test_octant_build_matches_its_reference_bit_for_bit(n):
    # n = 1024 takes Lambda in several stencil blocks
    cells = mongeampere._ChartGeometry(2.0, n).octant
    ref, h = _octant_reference(2.0, n)
    for name, want in ref.items():
        got = getattr(cells, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    assert cells.h == h


def _traced_peak(work) -> int:
    """The peak of traced allocations while ``work`` runs, in bytes above
    what was allocated before it."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_octant_build_and_per_t_stage_stay_small(data_dir, r):
    # bounds in bytes per cell of the n x n grid, ~15% above what this code
    # reads (11.2 and 7.3); the build that made a fresh array per step read
    # 17.3, and a run that kept the last t's cloud and each chart's grid
    # alive, with stencil temporaries of a whole segment, read 16.2
    n = 512
    # numpy is imported on first use: its import is not the build's
    mongeampere._ChartGeometry(2.0, 16).octant.log_stencil
    assert _traced_peak(
        lambda: mongeampere._ChartGeometry(2.0, n).octant.log_stencil
    ) <= 13.0 * n * n
    fam = load_family(data_dir / "families" / "fam_threesec.json")
    tests = {"ramp": PAFunction1D.from_breakpoints(
        [Fraction(-2), Fraction(0)], [Fraction(0), Fraction(1)], r)}
    for chart in fam.charts:  # the shared geometry is not the stage's
        _geometry(chart.L, n).octant.log_stencil
    assert _traced_peak(
        lambda: weak_convergence_experiment(fam, [1e-2, 1e-3], tests, n, r,
                                            mass_tol=math.inf)
    ) <= 8.4 * n * n


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
        masses = octant_to_full(fam, g, g.per_cell_masses(), t, r)
        assert masses.shape == (128, 128)
        assert octant_to_full(fam, g, g.cell_u, t, r).shape == (128, 128)
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
    # two merged runs, and the argsort of a shuffle, give the stable sort's bits
    assert w_sorted == _argsort_w1(cloud.u, cloud.mass, u0, m0)
    assert w_shuffled == _argsort_w1(cloud.u[perm], cloud.mass[perm], u0, m0)


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
                assert np.array_equal(
                    octant_to_full(fam, o, o.per_cell_masses(), t, r),
                    full_to_grid(fam, f, f.cell_masses, t, r))
                # the octant's run ends where the full route's does, and
                # the cells it holds have the same u
                held = octant_to_full(fam, o, np.ones(o.cell_u.size), t, r) == 1.0
                assert full_to_grid(fam, f, np.ones(f.cell_u.size), t, r)[held].all()
                assert np.array_equal(octant_to_full(fam, o, o.cell_u, t, r)[held],
                                      full_to_grid(fam, f, f.cell_u, t, r)[held])
                assert o.negative_mass_floor() == f.negative_mass_floor()


def _assert_run_matches_reference(fam, g, t, r, radial):
    """A grid's run against the 2-D stencil on every cell, bit for bit;
    returns the reference cells the run cuts off, each of mass +0.0."""
    n = g.resolution
    _, weighted, (u, mult, ids, start, stop) = _reference_measure(
        fam, t, n, r, g.chart, radial)
    run, cut = _kept_run(g, t, ids, start, stop)
    if not radial:
        assert cut.size == 0  # the full route keeps its run
    assert np.array_equal(g.cell_u, u[run])
    assert np.array_equal(g.cell_masses, weighted[run])
    assert np.array_equal(g.multiplicity, mult[run] if radial else 1.0)
    _assert_plus_zero(weighted[cut])
    assert not weighted[ids[:start]].any()
    assert not weighted[ids[stop:]].any()
    # the raw total stays the whole grid's
    grid_total = _reference_measure(fam, t, n, r, g.chart, radial=False)[0].sum()
    assert abs(g.raw_total - grid_total) <= 1e-12
    return cut


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
                    _assert_run_matches_reference(fam, g, t, r, radial)


@pytest.mark.parametrize("mode", ["max", "lse"])
@pytest.mark.parametrize("n", [16, 64])
def test_flat_cut_near_ties_matches_2d_reference(r, n, mode):
    # phi = max(0, log|a xi|) is flat inside its kink circle |xi| = 1/a;
    # put that circle on a cell's |xi|, or within 2 ulps of it, so that the
    # cell at the kink reads 0, or a value just off it
    quadrant = _geometry(2.0, n).centers[n // 2:]
    i, j = np.triu_indices(n // 2)
    radii = np.unique(np.abs(quadrant[i + 1] + 1j * quadrant[j + 1]))
    picks = radii[[1, radii.size // 4, radii.size // 2, 3 * radii.size // 4, -2]]
    cut = 0
    for radius in picks:
        for k in range(-2, 3):
            a = 1.0 / radius * (1.0 + k * 2.0 ** -52)
            fam = CurveFamily(
                "tie", 1, 1, (FamilyEntry.build({0: 1}), FamilyEntry.build({1: a})),
                (Chart(name="main"), Chart(invert=True, name="inf")), mode=mode)
            for t in (1e-3, 1e3):
                for g in ma_complex_curve(fam, complex(t), n, r, mass_tol=math.inf):
                    cut += _assert_run_matches_reference(fam, g, t, r, True).size
    if mode == "max":
        assert cut > 0


def test_flat_cut_keeps_the_cells_next_to_the_outer_halo(r):
    # phi = max(0, log|xi / R|), with the kink circle |xi| = R between the
    # corner cell and its outer halo neighbour, which lies just beyond
    # |xi| = L sqrt 2: phi is flat on every cell but not at that halo
    # point, so the corner cell reads the halo and the run must keep it
    quadrant = _geometry(2.0, 16).centers[8:]
    corner = abs(complex(quadrant[-2], quadrant[-2]))
    halo = abs(complex(quadrant[-2], quadrant[-1]))
    radius = 0.5 * (corner + halo)
    fam = CurveFamily("step", 1, 1, (FamilyEntry.build({0: 1}),
                                     FamilyEntry.build({1: 1.0 / radius})),
                      (Chart(name="main"),))
    for t in (1e-3, 1e3):
        (g,) = ma_complex_curve(fam, complex(t), 16, r, mass_tol=math.inf)
        assert _assert_run_matches_reference(fam, g, t, r, True).size > 0
        assert g.total_mass > 0


# ---------------------------------------------------------------------------
# flat and exact pieces of radial max-mode potentials
# ---------------------------------------------------------------------------

TIE_CHARTS = (Chart(name="main"), Chart(invert=True, name="inf"))


def _tie_radii(n):
    """Five cell radii |xi| of the n-grid on [-2, 2]^2, from the center out
    to the corner."""
    quadrant = _geometry(2.0, n).centers[n // 2:]
    i, j = np.triu_indices(n // 2)
    radii = np.unique(np.abs(quadrant[i + 1] + 1j * quadrant[j + 1]))
    return radii[[1, radii.size // 4, radii.size // 2, 3 * radii.size // 4, -2]]


def _scales(fam, t, n, r):
    """The scales of the family's pieces on each tie chart: None for a flat
    piece, k/m for an exact one."""
    span = _geometry(2.0, n).octant.span
    return {scale for chart in fam.charts
            for *_, scale in mongeampere._pieces(fam, chart, math.log(t),
                                                 math.log(float(r)), span)}


def _assert_ties_match_reference(families, n, r):
    """Each family on the tie charts, at log|t| of both signs, against the
    2-D reference bit for bit; returns the scales of their pieces."""
    scales = set()
    for fam in families:
        for t in (1e-3, 1e3):
            scales |= _scales(fam, t, n, r)
            for g in ma_complex_curve(fam, complex(t), n, r, mass_tol=math.inf):
                _assert_run_matches_reference(fam, g, t, r, True)
    return scales


@pytest.mark.parametrize("n", [16, 64])
def test_exact_pieces_near_ties_match_2d_reference(r, n):
    # phi = max(log|a|, log|xi|) is flat inside its kink circle |xi| = a
    # and exact outside it: on the main chart from the sections a and xi,
    # on the inverted one from 1 and a xi.  The circle sits on a cell's
    # |xi|, or within 2 ulps of it
    families = []
    for radius in _tie_radii(n):
        for k in range(-2, 3):
            a = radius * (1.0 + k * 2.0 ** -52)
            for sections in (({0: a}, {1: 1}), ({0: 1}, {1: a})):
                families.append(CurveFamily(
                    "tie", 1, 1, tuple(map(FamilyEntry.build, sections)),
                    TIE_CHARTS))
    assert _assert_ties_match_reference(families, n, r) == {None, 1.0}


@pytest.mark.parametrize("case", ["slope-3", "m-3", "slope-3-m-3", "constant",
                                  "lse"])
@pytest.mark.parametrize("n", [16, 64])
def test_stencil_pieces_near_ties_match_2d_reference(r, monkeypatch, n, case):
    # the tie families of the exact test, with an active line that is not
    # exact: slope 3, m = 3, both (3/3 = 1, but fl(3 log|xi|) / 3 is not
    # log|xi|), a constant log 2 on it, or lse mode, whose pieces keep
    # D = (64 log 2 + log 2) / 2 off the kink and so off these grids
    families = []
    for radius in _tie_radii(n):
        for k in range(-2, 3):
            a = radius * (1.0 + k * 2.0 ** -52)
            m, degree, mode = 1, 1, "max"
            sections = ({0: a}, {1: 1})
            if case.startswith("slope-3"):
                degree, sections = 3, ({0: a ** 3}, {3: 1})
            if case.endswith("m-3"):
                m = 3
            if case == "constant":
                sections = ({0: 2 * a}, {1: 2})
            if case == "lse":
                mode = "lse"
            families.append(CurveFamily(
                "tie", m, degree, tuple(map(FamilyEntry.build, sections)),
                TIE_CHARTS, mode=mode))
    scales = _assert_ties_match_reference(families, n, r)
    if case != "lse":
        assert scales <= {None}
        return
    for fam in families:
        for chart in TIE_CHARTS:
            for t in (1e-3, 1e3):
                run, _ = mongeampere._u_run(
                    chart, _geometry(2.0, n).octant.log_abs, math.log(t))
                stencil, exact = _routes(monkeypatch, fam, chart, t, n, r)
                assert exact.size == 0 and stencil.size == run.stop - run.start


def _steep(m):
    """The slope-8 family, sections 1 and xi^8, in lse mode."""
    return CurveFamily("steep", m, 8, (FamilyEntry.build({0: 1}),
                                       FamilyEntry.build({8: 1})),
                       TIE_CHARTS, mode="lse")


def test_lse_run_starts_where_the_potential_stops_being_flat(r):
    # where 2m times the gap between the two terms exceeds 64 log 2 + log 2,
    # log(1 + exp(-2m gap)) is 0.0 and phi reads one value: the run starts
    # past that flat piece
    fam = _steep(1)
    for t in (1e-3, 1e3):
        cut = 0
        for g in ma_complex_curve(fam, complex(t), 256, r, mass_tol=math.inf):
            cut += _assert_run_matches_reference(fam, g, t, r, True).size
        assert cut > 0


@pytest.mark.parametrize("n", [64, 256])
def test_lse_flat_and_exact_pieces_match_2d_reference(r, monkeypatch, n):
    # at m = 4 the pieces sit D = (64 log 2 + log 2) / 8 off the kink
    # |xi| = 1 in 8 log|xi|, close enough for both to hold cells of these
    # grids; at m = 1 the band between them is wider than the grid
    fam = _steep(4)
    for t in (1e-3, 1e3):
        cut = 0
        for g in ma_complex_curve(fam, complex(t), n, r, mass_tol=math.inf):
            cut += _assert_run_matches_reference(fam, g, t, r, True).size
            stencil, exact = _routes(monkeypatch, fam, g.chart, t, n, r)
            assert exact.size > 0 and stencil.size > 0
            assert exact.min() > stencil.max()
        assert cut > 0


@pytest.mark.parametrize("q,c,kind", [
    (10 ** 308, 0, math.isinf),
    (-10 ** 308, 0, math.isinf),
    (10 ** 308, 10 ** 308, math.isnan),
], ids=["q-huge", "q-huge-negative", "q-and-c-huge"])
def test_no_piece_with_a_non_finite_constant(data_dir, r, q, c, kind):
    fam = load_family(data_dir / "families" / "fam_kink.json")
    span = _geometry(2.0, 64).octant.span
    log_r, logabs_t = math.log(float(r)), math.log(1e-3)
    for index, e in enumerate(fam.entries):
        entries = list(fam.entries)
        entries[index] = FamilyEntry(e.coeffs, Fraction(q), Fraction(c))
        huge = dataclasses.replace(fam, entries=tuple(entries))
        for chart in huge.charts:
            _, adds = mongeampere._line(entries[index], fam.degree, chart,
                                        logabs_t, log_r)
            assert kind(sum(adds))
            assert mongeampere._pieces(huge, chart, logabs_t, log_r, span) == []


def _routes(monkeypatch, fam, chart, t, n, r):
    """|xi| of the chart's run cells whose masses came from the stencil,
    and of those whose masses came from log_stencil."""
    cells = _geometry(chart.L, n).octant
    assert not cells.log_stencil.flags.writeable  # built before the spies
    stencil, runs = [], []
    laplacian, measure = mongeampere._laplacian, mongeampere._OctantCells.measure

    def spy_laplacian(phi, *where):
        stencil.append(where[-1])
        return laplacian(phi, *where)

    def spy_measure(self, *args):
        measured = measure(self, *args)
        runs.append(measured[-1])
        return measured

    with monkeypatch.context() as m:
        m.setattr(mongeampere, "_laplacian", spy_laplacian)
        m.setattr(mongeampere._OctantCells, "measure", spy_measure)
        ma_complex_curve(dataclasses.replace(fam, charts=(chart,)), complex(t),
                         n, r, mass_tol=math.inf)
    (run,) = runs
    took_stencil = np.zeros(cells.log_abs.size, dtype=bool)
    for where in stencil:
        took_stencil[where] = True
    radius = np.exp(cells.log_abs[run])
    return radius[took_stencil[run]], radius[~took_stencil[run]]


def test_bundled_families_take_the_exact_route_off_the_kinks(data_dir, r,
                                                             monkeypatch):
    # a refactor that sent every cell to the stencil would keep the bytes
    # and lose the speed
    n = 64
    band = 2.0 * (4.0 / n) * (1.0 + 1e-9)  # 2h, and the rounding of exp
    for name, charts in (("fam_isotrivial", ("main", "inf")),
                         ("fam_kink", ("adapted",))):
        fam = load_family(data_dir / "families" / f"{name}.json")
        for chart in fam.charts:
            for t in (1e-3, 1e3):
                stencil, exact = _routes(monkeypatch, fam, chart, t, n, r)
                if chart.name in charts:
                    # the kink circle is |xi| = 1
                    assert exact.size > 0
                    assert np.all(np.abs(stencil - 1.0) <= band)
    # on threesec's main chart, without its partition ramp, the piece
    # log|xi| / 2 is exact, and 2 log|xi| + log|t| / 2 takes the stencil;
    # at |t| = 1/2 they meet on |xi| = sqrt 2
    fam = load_family(data_dir / "families" / "fam_threesec.json")
    stencil, exact = _routes(monkeypatch, fam, Chart(name="main"), 0.5, n, r)
    assert exact.size > 0
    assert np.all((exact > 1.0 + band) & (exact < math.sqrt(2.0) - band))
    assert np.all((np.abs(stencil - 1.0) <= band) | (stencil > math.sqrt(2.0) - band))
    assert np.any(stencil > math.sqrt(2.0) + band)
    # in lse mode a piece keeps D = (64 log 2 + log 3) / 4 more above the
    # other lines, which puts every exact piece off these grids
    for chart in fam.charts:
        for t in (1e-3, 1e3):
            lse = dataclasses.replace(fam, mode="lse")
            stencil, exact = _routes(monkeypatch, lse, chart, t, n, r)
            assert exact.size == 0 and stencil.size > 0


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
            # a chart whose potential is flat on its whole run keeps no cell
            assert set(np.unique(g.multiplicity)) <= {4.0, 8.0}


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
