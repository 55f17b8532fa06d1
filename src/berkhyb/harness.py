"""Experiment runners and the input-file formats they read.

Every input file is read once, at load, by the spec of its format below,
built from the parse combinators of ``manifest``; the spec builds the
domain object, and an error names ``<file>: <json path>: <reason>``.
Each experiment kind has one runner, which reads its parameters at its
top and appends checks and tables to the report.  ``manifest.run``
imports this module on the first run of a process, and with it every
layer module.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from .exactnum import LogRVal, rat_from_str, rat_to_str
from .manifest import (
    REQUIRED,
    _COUNT,
    _POSITIVE,
    _R,
    _TOL,
    Check,
    ManifestError,
    RunReport,
    _Invalid,
    _block,
    _each,
    _field,
    _flag,
    _int,
    _null_is,
    _rat,
    _read_json,
    _real,
    _text,
    _tuple,
)
# the perfbench tracer looks up ExperimentManifest.load, run and write_report
# on this module (perfbench/layers.py)
from .manifest import ExperimentManifest, run, write_report  # noqa: F401
from .hybrid import (
    HybridConfig,
    RhoSample,
    hybrid_path_limit,
    khyb_convexity_check,
    lelong_estimate,
    rho_r_forward,
    rho_r_inverse,
    sample_circle_sups,
)
from .models import (
    Component,
    ModelInconsistencyError,
    MonomialPullback,
    SncModelCombinatorics,
    build_dual_complex,
    identity_pullback,
    retraction,
)
from .mongeampere import (
    Chart,
    CurveFamily,
    EmptyMeasureError,
    FamilyEntry,
    IntersectionTable,
    ResolutionError,
    cln_stability_check,
    family_limit_measure,
    ma_model_metric,
    ma_pa_curve,
    pairing_difference,
    weak_convergence_experiment,
)
from .pafunc import ContinuityError, PAFunction1D
from .tropical import (
    BasepointError,
    RegularityError,
    TropicalFSMetric,
    lse_max_gap,
    na_limit_tfs,
    tfs_shift,
)
from .mztree import (
    BranchPA,
    MZFunction,
    MZPoint,
    _LogVec,
    mz_family_identity,
    mz_from_family,
    mz_fs_eval,
    mz_psh_check,
    mz_slopes,
    random_fs_family,
)
from .valuation import (
    INF,
    Coefficient,
    LaurentSeriesData,
    QuasiMonomialPoint,
    brute_force_min,
    divisorial_point,
    gauss_extension,
    qm_eval,
    valuation_superadditivity_check,
    weighted_min_of_terms,
)


def _grid_side(value):
    """An even integer >= 16: the Laplacian needs 16 cells a side, and an
    odd side puts a cell center on xi = 0, where log|xi| is -inf."""
    n = _int("[16, inf)")(value)
    if n % 2:
        raise ValueError(f"expected an even integer, got {value!r}")
    return n


# ---------------------------------------------------------------------------
# input files: one spec per format, each building its domain object
# ---------------------------------------------------------------------------

_FLOAT_SIZED = "[-1e308, 1e308]"  # the grid computes with float(x)

_MODEL = _block(
    SncModelCombinatorics,
    components=(REQUIRED, _each(_block(
        Component, label=(REQUIRED, _text), mult=(REQUIRED, _POSITIVE),
        zval=(None, _rat())), 1)),
    strata=(REQUIRED, _each(_each(_COUNT))),
    name=("model", _text))
_PULLBACK = _block(lambda target, matrix: (target, matrix),
                   target=(REQUIRED, _text),
                   matrix=(REQUIRED, _each(_each(_COUNT))))


_RAT_PAIR = _tuple(_rat(), _rat())


def _coefficient(value) -> Coefficient:
    """The tag "unit", or an explicit complex rational [re, im]."""
    if value == "unit":
        return Coefficient.unit()
    return Coefficient.explicit(*_RAT_PAIR(value))


_LAURENT = _block(
    LaurentSeriesData,
    vars=(REQUIRED, _each(_text)),
    terms=(REQUIRED, _each(_block(
        lambda exp, coef: (exp, coef),
        exp=(REQUIRED, _each(_int())), coef=("unit", _coefficient)))))
_TFS = _block(
    lambda model, metric: (model, metric),
    model=(REQUIRED, _text),
    metric=(REQUIRED, _block(
        TropicalFSMetric.build,
        m=(REQUIRED, _POSITIVE),
        entries=(REQUIRED, _each(_block(
            lambda section, c: (section, c),
            section=(REQUIRED, _LAURENT), c=(REQUIRED, _rat())), 1)),
        reference=(REQUIRED, _LAURENT),
        meromorphic_ok=(False, _flag))))
_TABLE = _block(
    IntersectionTable.build,
    model=(REQUIRED, _MODEL),
    rows=(REQUIRED, _each(_tuple(_COUNT, _POSITIVE, _rat()))))
_COMPLEX = _tuple(_real(), _real())


def _coeffs(value) -> dict:
    """{"k": [re, im]}: the coefficient of z^k."""
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {value!r}")
    return {int(k): complex(*_field(value, k, REQUIRED, _COMPLEX)) for k in value}


_FAMILY = _block(
    CurveFamily,
    name=(REQUIRED, _text),
    m=(REQUIRED, _int(_FLOAT_SIZED)),
    degree=(REQUIRED, _int(_FLOAT_SIZED)),
    entries=(REQUIRED, _each(_block(
        FamilyEntry.build, coeffs=(REQUIRED, _coeffs),
        q=(REQUIRED, _rat(_FLOAT_SIZED)), c=(REQUIRED, _rat(_FLOAT_SIZED))), 1)),
    charts=(REQUIRED, _each(_block(
        Chart, p=(REQUIRED, _rat(_FLOAT_SIZED)), invert=(False, _flag),
        # the cell side 2L/n stays a normal float, so no cell center is 0
        L=(2.0, _real("[1e-300, 1e300]")),
        # null or absent: the partition interval is open on that side
        u_lo=(-math.inf, _null_is(-math.inf, _real("[-inf, inf]"))),
        u_hi=(math.inf, _null_is(math.inf, _real("[-inf, inf]"))),
        name=("chart", _text)), 1)),
    mode=("max", _text))


def _load(path: Path, parse):
    """The JSON file at ``path`` through ``parse``; a failure is a
    ManifestError that reads ``<file>: <json path>: <reason>``."""
    data = _read_json(path)
    try:
        return parse(data)
    except (ValueError, ArithmeticError) as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def _model_and_pullbacks(data):
    return _MODEL(data), _field(data, "pullbacks", [], _each(_PULLBACK))


def load_models_with_pullbacks(paths) -> dict:
    loaded = {}
    for p in paths:
        model, pullbacks = _load(p, _model_and_pullbacks)
        loaded[model.name] = p, model, pullbacks
    registry = {name: model for name, (_, model, _) in loaded.items()}
    for p, model, pullbacks in loaded.values():
        for i, (target, matrix) in enumerate(pullbacks):
            try:
                if target not in registry:
                    raise _Invalid(".target",
                                   f"pullback target {target} not loaded")
                model.pullbacks.append(
                    MonomialPullback(model, registry[target], matrix))
            except ValueError as exc:
                where = _Invalid(f".pullbacks[{i}]", exc)
                raise ManifestError(f"{p}: {where}") from exc
    return registry


def load_tfs_file(path: Path, model_dir: Path):
    model, metric = _load(path, _TFS)
    return _load((model_dir / model).resolve(), _MODEL), metric


def load_family(path: Path) -> CurveFamily:
    return _load(path, _FAMILY)


def load_table(path: Path) -> IntersectionTable:
    return _load(path, _TABLE)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _random_model() -> SncModelCombinatorics:
    comps = [Component("x1", 1), Component("x2", 1), Component("x3", 2),
             Component("x4", 3)]
    # full power set: every subset is a declared stratum
    strata = []
    for mask in range(1, 16):
        strata.append([i for i in range(4) if mask >> i & 1])
    return SncModelCombinatorics(comps, strata, name="valtest")


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)`` from the same draws, without its call chain.

    As in ``Random.randint``, the n = hi - lo + 1 values take
    k = n.bit_length() bits of ``getrandbits``, drawn again while they
    are >= n, so the value and the generator's end state are the same.
    """
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({lo}, {hi})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``[rng.randint(lo, hi) for _ in range(count)]``, drawn as _randint."""
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({lo}, {hi})")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(lo + r)
    return out


def _random_point(model, rng: random.Random):
    strata = model.strata
    stratum = strata[_randint(rng, 0, len(strata) - 1)]
    raw = [(_randint(rng, 0, 6), _randint(rng, 1, 5)) for _ in stratum]
    if not any(a for a, _ in raw):
        raw[_randint(rng, 0, len(raw) - 1)] = (1, 1)
    # over the common denominator den, q_j = a_j/b_j = n_j/den, so the
    # normalized weight q_j / sum_i m_i q_i is n_j / sum_i m_i n_i
    den = math.lcm(*(b for _, b in raw))
    nums = [a * (den // b) for a, b in raw]
    total = sum(model.multiplicity(j) * n for j, n in zip(stratum, nums))
    # trusted: a declared stratum, non-negative weights in lowest terms,
    # and sum_j m_j w_j = 1 by the choice of total
    return QuasiMonomialPoint._canonical(
        model, stratum, tuple([Fraction(n, total) for n in nums]))


def _unit_terms(exps: list[int], width: int) -> dict:
    """The flat exponent draws ``exps``, cut into keys of length ``width``,
    each carrying the unit tag."""
    unit = Coefficient.unit()
    return {tuple(exps[i:i + width]): unit for i in range(0, len(exps), width)}


def _random_laurent(model, rng: random.Random, max_vars: int, max_terms: int,
                    lo: int, hi: int) -> LaurentSeriesData:
    labels = model.variable_labels()
    nv = _randint(rng, 1, max_vars)
    vars_ = tuple(rng.sample(labels, nv))
    n_terms = _randint(rng, 1, max_terms)
    # trusted: the sampled labels are distinct (those of _random_model) and
    # the keys are distinct int tuples of length nv carrying unit tags
    return LaurentSeriesData._canonical(
        vars_, _unit_terms(_randints(rng, lo, hi, n_terms * nv), nv))


def run_val_eval(man: ExperimentManifest, rep: RunReport):
    model = _random_model()
    n = man.param("n_random", 1000, _COUNT)
    exp_lo = man.param("exp_lo", -10, _int())
    shape = (man.param("max_vars", 4, _int(f"[1, {len(model.components)}]")),
             man.param("max_terms", 8, _POSITIVE), exp_lo,
             man.param("exp_hi", 10, _int(f"[{exp_lo}, inf)")))
    n_superadd = man.param("n_superadd", 200, _COUNT)
    n_gauss = man.param("n_gauss", 50, _COUNT)
    lse = man.param("lse", None, _block(
        n_samples=(100000, _POSITIVE), max_n=(8, _POSITIVE),
        m_choices=([1, 2, 3], _each(_POSITIVE, 1))))
    rng = random.Random(man.seed)
    mismatch = 0
    t0 = time.perf_counter()
    for _ in range(n):
        v = _random_point(model, rng)
        f = _random_laurent(model, rng, *shape)
        if qm_eval(v, f) != brute_force_min(v, f):
            mismatch += 1
    elapsed = time.perf_counter() - t0
    rep.checks.append(Check(
        "qm-eval-equals-brute-force",
        mismatch == 0,
        f"{n} random Laurent inputs, {mismatch} mismatches",
    ))
    # the measured seconds stay out of the report: byte-identical outputs
    rep.checks.append(Check(
        "qm-eval-brute-force-runtime",
        elapsed < 1.0,
        f"{n} dual evaluations within the 1s budget",
    ))
    # fixed formula examples (raw weight vectors, no simplex normalization)
    f1 = LaurentSeriesData(["z1", "z2"], [((1, 0), Coefficient.unit())])
    f2 = LaurentSeriesData(["z1", "z2"], [((2, 0), Coefficient.unit()),
                                            ((1, 1), Coefficient.unit())])
    w12 = [Fraction(1, 2), Fraction(1, 3)]
    ok = (
        weighted_min_of_terms(f1, w12) == Fraction(1, 2)
        and weighted_min_of_terms(f2, w12) == Fraction(5, 6)
        and qm_eval(_random_point(model, rng), LaurentSeriesData.zero(["x1"])) == INF
    )
    rep.checks.append(Check("min-formula-worked-examples", ok, "1/2, 5/6, +inf"))
    # normalization v(t) = 1 and degree-1 homogeneity on monomials
    norm_ok = all(
        qm_eval(_random_point(model, rng), model.uniformizer()) == 1
        for _ in range(50)
    )
    rep.checks.append(Check("uniformizer-normalization", norm_ok, "v(t)=1 on 50 points"))
    homog_ok = True
    for _ in range(50):
        mono = LaurentSeriesData.monomial(
            ["z1", "z2"], (rng.randint(-5, 5), rng.randint(-5, 5)))
        ws = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(2)]
        k = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        lhs = weighted_min_of_terms(mono, [k * w for w in ws])
        rhs = k * weighted_min_of_terms(mono, ws)
        homog_ok = homog_ok and lhs == rhs
    rep.checks.append(Check("monomial-weight-homogeneity", homog_ok, "50 samples"))
    # superadditivity property sweep
    bad = 0
    for _ in range(n_superadd):
        v = _random_point(model, rng)
        f = _random_laurent(model, rng, 2, 8, 0, 6)
        nv = len(f.variables)
        exps = _randints(rng, 0, 6, _randint(rng, 1, 8) * nv)
        g = LaurentSeriesData._canonical(f.variables, _unit_terms(exps, nv))
        res = valuation_superadditivity_check(v, f, g)
        if not (res.product_ok and res.sum_ok):
            bad += 1
    rep.checks.append(Check("valuation-superadditivity", bad == 0,
                             f"{bad} violations"))
    # gauss extension: trivial coefficient oracle returns ord_t
    g_ok = True
    for _ in range(n_gauss):
        ns = sorted(rng.sample(range(-10, 10), rng.randint(1, 6)))
        series = [(nn, f"s{nn}") for nn in ns]
        if gauss_extension(lambda h: Fraction(0), series) != min(ns):
            g_ok = False
    examples = (
        gauss_extension(lambda h: Fraction(0), [(1, "c")]) == 1
        and gauss_extension(lambda h: Fraction(3), [(0, "s0")]) == 3
        and gauss_extension(lambda h: {"s0": Fraction(2), "s1": Fraction(0)}[h],
                            [(0, "s0"), (1, "s1")]) == 1
        and gauss_extension(lambda h: Fraction(0), []) == INF
    )
    rep.checks.append(Check("gauss-extension", g_ok and examples,
                             "trivial oracle = ord_t; worked examples"))
    if lse is not None:
        import numpy as np

        nprng = np.random.default_rng(man.seed)
        total = lse["n_samples"]
        combos = [(nn, mm) for nn in range(1, lse["max_n"] + 1)
                  for mm in lse["m_choices"]]
        per = total // len(combos)
        violations = 0
        checked = 0
        for idx, (nn, mm) in enumerate(combos):
            count = per if idx < len(combos) - 1 else total - per * (len(combos) - 1)
            gaps = lse_max_gap(nprng.uniform(-10.0, 10.0, size=(count, nn)), mm)
            bound = math.log(nn) / (2 * mm)
            violations += int(np.sum((gaps < 0) | (gaps > bound + 1e-12)))
            checked += count
        rep.checks.append(Check(
            "lse-max-envelope", violations == 0,
            f"0 <= chi - max <= log(N)/(2m) on {checked} samples: "
            f"{violations} violations",
        ))
    rep.tables["val_eval_summary"] = {
        "columns": ["quantity", "value"],
        "rows": [["random_inputs", n], ["mismatches", mismatch]],
    }


def run_retract(man: ExperimentManifest, rep: RunReport):
    paths = man.input("models", REQUIRED, _each(man.file, 1))
    n_points = man.param("n_points", 100, _COUNT)
    rng = random.Random(man.seed)
    registry = load_models_with_pullbacks(paths)
    all_ok = True
    names = sorted(registry)
    identities = [identity_pullback(registry[name]) for name in names]
    for k in range(n_points):
        model = registry[names[k % len(names)]]
        v = _random_point(model, rng)
        back = retraction(model, v, identities[k % len(names)])
        all_ok = all_ok and back.same_valuation(v)
    rep.checks.append(Check("retraction-idempotence", all_ok,
                             f"rho o i = id on {n_points} rational points"))
    blow = registry.get("blowup")
    seg = registry.get("segment")
    if blow is not None and seg is not None and blow.pullbacks:
        pb = blow.pullbacks[0]
        # a retraction into a stratum that segment does not declare fails
        # the check that asked for it
        try:
            bary = retraction(seg, divisorial_point(blow, 2), pb)
            ok = bary.weights == (Fraction(1, 2), Fraction(1, 2))
            details = str(bary.weights)
        except ModelInconsistencyError as exc:
            ok, details = False, str(exc)
        rep.checks.append(Check("blowup-barycenter", ok, details))
        half_ok, details = True, "w = (u+s, s) on 25 points"
        try:
            for _ in range(25):
                u = Fraction(rng.randint(0, 20), 20)
                s = (1 - u) / 2
                v = blow.point((0, 2), (u, s))
                out = retraction(seg, v, pb)
                expect = {j: w for j, w in enumerate((u + s, s)) if w != 0}
                half_ok = half_ok and out.weight_map() == expect
        except ModelInconsistencyError as exc:
            half_ok, details = False, str(exc)
        rep.checks.append(Check("blowup-halfedge-matrix-oracle", half_ok,
                                 details))
    euler_rows = []
    for name in names:
        dc = build_dual_complex(registry[name])
        euler_rows.append([name, dc.vertex_count(), dc.euler_characteristic()])
    rep.checks.append(Check(
        "dual-complex-vertices",
        all(r[1] == len(registry[r[0]].components) for r in euler_rows),
        "vertex count equals component count",
    ))
    rep.tables["dual_complexes"] = {
        "columns": ["model", "vertices", "euler_characteristic"],
        "rows": euler_rows,
    }


def run_na_limit(man: ExperimentManifest, rep: RunReport):
    tfs = man.input("tfs", REQUIRED, _each(man.file, 1))
    model_dir = man.input("model_dir", ".", man.file)
    r = man.param("r", "1/2", _R)
    shift = man.param("shift", "3/7", _rat())
    rows = []
    for path in tfs:
        model, phi = load_tfs_file(path, model_dir)
        try:
            res = na_limit_tfs(phi, model, r)
        except (RegularityError, BasepointError) as exc:
            # the shifted metric below has phi's sections, and the trivial
            # one neither poles nor base points, so only this call can raise
            rep.checks.append(Check(f"regularity-{model.name}", False, str(exc)))
            continue
        rep.checks.append(Check(
            f"dual-route-{model.name}", res.dual_route_equal,
            "formula value = direct restriction at every divisorial point",
        ))
        try:
            ok, details = res.pa.check_face_continuity(), "exact"
        except ContinuityError as exc:
            ok, details = False, str(exc)
        rep.checks.append(Check(f"face-continuity-{model.name}", ok, details))
        shifted = na_limit_tfs(tfs_shift(phi, shift), model, r)
        shift_ok = all(
            shifted.restriction_values[i] == res.restriction_values[i] + shift
            for i in range(len(model.components))
        )
        rep.checks.append(Check(f"constant-shift-covariance-{model.name}",
                                 shift_ok, f"shift by {shift}"))
        # the reference metric itself: one section, reference^m
        ref_m = LaurentSeriesData.monomial(
            phi.reference.variables,
            [phi.m * e for e in phi.reference.terms[0][0]])
        trivial = TropicalFSMetric.build(phi.m, [(ref_m, 0)], phi.reference)
        tres = na_limit_tfs(trivial, model, r)
        triv_ok = all(v.is_zero() for v in tres.restriction_values.values())
        rep.checks.append(Check(f"trivial-metric-zero-{model.name}", triv_ok, ""))
        for k, stratum, g_logr, g_const in res.pa.csv_rows():
            rows.append([model.name, k, stratum, g_logr, g_const])
    rep.tables["pa_functions"] = {
        "columns": ["model", "simplex_id", "stratum", "gradient_logr",
                     "gradient_const"],
        "rows": rows,
    }


def run_ma_model(man: ExperimentManifest, rep: RunReport):
    tables = man.input("tables", REQUIRED, _each(man.file))
    curve_pairs = man.input("curve_pairs", [], _each(_block(
        table=(REQUIRED, man.file), family=(REQUIRED, man.file))))
    r = man.param("r", "1/2", _R)
    rows = []
    for path in tables:
        table = load_table(path)
        mu = ma_model_metric(table)
        expected = sum((b * num for _, b, num in table.entries), Fraction(0))
        ok = mu.total_mass() == expected and not mu.flags
        rep.checks.append(Check(
            f"total-mass-{table.model.name}", ok,
            f"mass {mu.total_mass()} = sum of table entries {expected}",
        ))
        for atom in mu.atoms:
            rows.append([table.model.name, atom.label,
                         "" if atom.u is None else rat_to_str(atom.u.a),
                         atom.mass])
    for pair in curve_pairs:
        table = load_table(pair["table"])
        for idx, _b, _num in table.entries:
            if table.model.components[idx].zval is None:
                # the dual route compares atom positions on the u-line
                raise ManifestError(
                    f"{pair['table']}: model.components[{idx}].zval: "
                    "required for a curve pair")
        family = load_family(pair["family"])
        mu_table = ma_model_metric(table)
        mu_pa = family_limit_measure(family, r)
        rep.checks.append(Check(
            f"dual-route-curve-{family.name}",
            mu_pa.same_atoms(mu_table),
            "ma_pa_curve = ma_model_metric exactly",
        ))
    # affine input gives the empty measure; the standard single-kink example
    affine = PAFunction1D.from_breakpoints([Fraction(0)], [Fraction(1)], r,
                                            left_slope=2, right_slope=2)
    rep.checks.append(Check("affine-empty-measure",
                             not ma_pa_curve(affine).nonzero().atoms, ""))
    vee = PAFunction1D.from_breakpoints([Fraction(-1)], [Fraction(0)], r,
                                         left_slope=0, right_slope=1)
    atoms = ma_pa_curve(vee).nonzero().atoms
    ok = (len(atoms) == 1 and atoms[0].mass == 1
          and atoms[0].u == LogRVal.of(Fraction(-1)))
    rep.checks.append(Check("single-kink-max(0,u+1)", ok, "mass 1 at u = -1"))
    rep.tables["atomic_measures"] = {
        "columns": ["model", "component", "u", "mass"],
        "rows": rows,
    }


def run_ma_converge(man: ExperimentManifest, rep: RunReport):
    families = man.input("families", REQUIRED, _each(man.file, 1))
    cln_family = man.input("cln_family", None, man.file)
    r = man.param("r", "1/2", _R)
    # the potential divides by log|t|
    t_schedule = man.param("t_schedule", REQUIRED, _each(_real("(0, 1)"), 1))
    grid = man.param("grid", 1024, _grid_side)
    w1_tol = man.param("w1_tol", 0.05, _TOL)
    mass_tol = man.param("mass_tol", 1e-4, _TOL)
    test_function = _block(name=(REQUIRED, _text), xs=(REQUIRED, _each(_rat(), 1)),
                           ys=(REQUIRED, _each(_rat(), 1)))
    tests = man.param("test_functions", [], lambda specs: {
        f["name"]: PAFunction1D.from_breakpoints(f["xs"], f["ys"], r)
        for f in _each(test_function)(specs)})
    deltas = man.param("cln_deltas", ["1/10", "1/100", "1/1000", "1/10000"],
                       _each(_rat(), 1))
    cln_tol = man.param("cln_residual_tol", 0.05, _TOL)
    rows = []
    for path in families:
        fam = load_family(path)
        try:
            conv = weak_convergence_experiment(fam, t_schedule, tests, grid, r,
                                                mass_tol=mass_tol)
        except ResolutionError as exc:
            rep.checks.append(Check(
                f"grid-resolution-{fam.name}", False,
                f"{exc}; suggested_n = {exc.suggested_n}",
            ))
            continue
        except EmptyMeasureError as exc:
            rep.checks.append(Check(f"positive-mass-{fam.name}", False, str(exc)))
            continue
        for row in conv.rows:
            out = [fam.name, row.t_abs, row.w1, row.captured_mass]
            for name in sorted(tests):
                out.append(row.test_errors[name])
            rows.append(out)
        final_w1 = conv.rows[-1].w1
        rep.checks.append(Check(
            f"w1-at-smallest-t-{fam.name}", final_w1 <= w1_tol,
            f"W1 = {final_w1:.6f} <= {w1_tol}",
        ))
        rep.checks.append(Check(
            f"w1-monotone-{fam.name}", conv.monotone,
            conv.failure or "errors non-increasing along the schedule",
        ))
        mass_ok = all(
            abs(row.captured_mass - float(fam.ma_mass())) <= mass_tol
            for row in conv.rows
        )
        rep.checks.append(Check(
            f"grid-mass-{fam.name}", mass_ok,
            f"total mass within {mass_tol} of degree {fam.ma_mass()}",
        ))
    cln_rows = []
    if cln_family is not None:
        fam = load_family(cln_family)
        cln = cln_stability_check(fam, deltas, r, residual_tol=cln_tol)
        rep.checks.append(Check(
            "cln-linear-envelope", cln.failure is None,
            f"fitted C = {cln.fitted_constant:.6f}, residual {cln.residual:.2e}",
        ))
        rep.checks.append(Check("cln-antisymmetry", cln.antisymmetry_exact,
                                 "cross pairing negates under swap, exact"))
        rep.checks.append(Check(
            "cln-zero-delta",
            pairing_difference(fam, fam, r).is_zero(), "exact zero"))
        for d, diff in zip(cln.deltas, cln.differences):
            cln_rows.append([fam.name, d, diff])
    rep.tables["convergence"] = {
        "columns": ["family", "t", "w1", "captured_mass"]
        + [f"err_{name}" for name in sorted(tests)],
        "rows": rows,
    }
    if cln_rows:
        rep.tables["cln"] = {"columns": ["family", "delta", "difference"],
                              "rows": cln_rows}


# the checks of run_mz_check on these families carry frozen expectations
_REFERENCE_FAMILIES = [[[2, "0"]], [[2, "0"], [3, "0"]]]


def _reference_families(value):
    if value != _REFERENCE_FAMILIES:
        raise ValueError(f"the checks expect {_REFERENCE_FAMILIES}, got {value!r}")
    return [[(int(n), rat_from_str(c)) for n, c in fam] for fam in value]


def run_mz_check(man: ExperimentManifest, rep: RunReport):
    n_rand = man.param("n_random", 20, _COUNT)
    m_choices = man.param("m_choices", [1, 2, 3], _each(_POSITIVE, 1))
    fam2, fam23 = man.param("reference_families", _REFERENCE_FAMILIES,
                            _reference_families)
    rng = random.Random(man.seed)
    rows = []
    F23 = mz_from_family(fam23, 1)
    rep23 = mz_slopes(F23)
    checks23 = (
        mz_fs_eval(fam23, 1, MZPoint("2", Fraction(5))).is_zero()
        and mz_fs_eval(fam23, 1, MZPoint("origin")).is_zero()
        and rep23.s_p[2].is_zero() and rep23.s_p[3].is_zero()
    )
    rep.checks.append(Check("family-2-3-worked-example", checks23,
                             "branch value 0, slopes (0, 0, log 3)"))
    F2 = mz_from_family(fam2, 1)
    rep2 = mz_slopes(F2)
    ok2 = (rep2.slope_sum.is_zero()
           and rep2.end_values[2] == "-inf"
           and mz_fs_eval(fam2, 1, MZPoint("2", "inf")) == "-inf")
    rep.checks.append(Check("family-2-slopes-and-polar-end", ok2,
                             "s_2 = -log 2, s_inf = log 2, sum 0; end is polar"))
    n_pass = 0
    ident_ok = True
    discrepancies = 0
    for i in range(n_rand):
        fam = random_fs_family(rng)
        m = rng.choice(m_choices)
        F = mz_from_family(fam, m)
        verdict = mz_psh_check(F)
        ident = mz_family_identity(fam, m, verdict.report)
        if verdict.passed:
            n_pass += 1
        ident_ok = ident_ok and ident.slope_sum_matches_direct
        if ident.lcm_form_differs:
            discrepancies += 1
        rows.append([i, str(fam), m, verdict.passed,
                     ident.slope_sum_matches_direct, ident.lcm_form_differs])
    rep.checks.append(Check("random-families-pass", n_pass == n_rand,
                             f"{n_pass}/{n_rand} FS families pass the checker"))
    rep.checks.append(Check(
        "slope-sum-closed-form", ident_ok,
        "sum = log(max over argmax / gcd) exactly on every family; "
        f"lcm form differs on {discrepancies} families (surfaced, not asserted)",
    ))
    # crafted on the unit lattice: scale 1, no archimedean primes
    viol = MZFunction(1, (), 0, {2: BranchPA((-1,), (0,))},
                      BranchPA((_LogVec(),), (0,)), BranchPA((0,), (0,)))
    vv = mz_psh_check(viol)
    slope_reason = any("slope-sum" in reas for reas in vv.reasons)
    rep.checks.append(Check("crafted-violator-fails-slope-sum",
                             (not vv.passed) and slope_reason,
                             "; ".join(vv.reasons)))
    const = MZFunction(1, (), 0, {}, BranchPA((_LogVec(),), (0,)),
                       BranchPA((0,), (0,)))
    rep.checks.append(Check("zero-function-passes",
                             mz_psh_check(const).passed, ""))
    rep.tables["mz_families"] = {
        "columns": ["index", "family", "m", "passed", "identity", "lcm_differs"],
        "rows": rows,
    }


def run_lelong(man: ExperimentManifest, rep: RunReport):
    # lelong_estimate needs 3 decades; below 10^-100, z^2 nears underflow
    k_lo = man.param("k_lo", 1, _int("[0, 100]"))
    k_hi = man.param("k_hi", 8, _int(f"[{k_lo + 3}, 100]"))
    tol = man.param("tol", 1e-3, _TOL)
    radii = [10.0 ** (-k) for k in range(k_lo, k_hi + 1)]

    def perturbation(value):
        # the circle of radius rho is sampled at z = rho exactly
        x = _real()(value)
        for rho in radii:
            if x * rho == -1.0:
                raise ValueError(f"1 + {x!r} z vanishes at the sample z = {rho!r}")
        return x

    scale = man.param("perturb_scale", 50.0, perturbation)
    # float(slope) below must be finite
    slope = man.param("pure_slope", "3/2", _rat("[-1e6, 1e6]"))
    floor = man.param("bounded_floor", -5.0, _real())

    def phi_main(z: complex) -> float:
        return math.log(abs(z * z + z * z * z))

    samp = sample_circle_sups(phi_main, radii)
    est = lelong_estimate(samp)
    rep.checks.append(Check(
        "t2-plus-t3-slope", abs(est.estimate - 2.0) <= tol,
        f"estimate {est.estimate!r}, target 2 within {tol}",
    ))

    def phi_pert(z: complex) -> float:
        return phi_main(z) + math.log(abs(1 + scale * z))

    est_p = lelong_estimate(sample_circle_sups(phi_pert, radii))
    rep.checks.append(Check(
        "bounded-perturbation-invariance",
        abs(est_p.estimate - 2.0) <= tol,
        f"perturbed estimate {est_p.estimate!r} within {tol}",
    ))
    slope_f = float(slope)
    est_pure = lelong_estimate(
        sample_circle_sups(lambda z: slope_f * math.log(abs(z)), radii))
    rep.checks.append(Check(
        "pure-log-exact", abs(est_pure.estimate - slope_f) <= 1e-9,
        f"slope {est_pure.estimate!r} vs {slope_f!r}",
    ))
    est_b = lelong_estimate(
        sample_circle_sups(lambda z: max(math.log(abs(z)), floor), radii))
    rep.checks.append(Check(
        "bounded-function-zero", abs(est_b.estimate) <= 1e-9,
        f"estimate {est_b.estimate!r}",
    ))
    rep.tables["lelong_sweep"] = {
        "columns": ["log10_rho", "sup_value", "series"],
        "rows": [[math.log10(rho), val, "t2_plus_t3"]
                 for rho, val in samp.points],
    }
    rep.tables["lelong_fit"] = {
        "columns": ["series", "estimate", "band_lo", "band_hi"],
        "rows": [["t2_plus_t3", est.estimate, est.band[0], est.band[1]],
                 ["perturbed", est_p.estimate, est_p.band[0], est_p.band[1]]],
    }


def run_rho_r(man: ExperimentManifest, rep: RunReport):
    # the numeric samples lie on |t| = 3/10 and the round trips map into
    # r' = 3/4 > r; for r >= 3/10, r^500 is still a normal double
    cfg = HybridConfig(r=man.param("r", "1/2", _rat("[3/10, 3/4)")))
    ks = man.param("k_exponents", [1, 2, 3, 4], _each(_int("[1, 500]")))
    n_ang = man.param("n_angles", 8, _POSITIVE)
    tol = man.param("numeric_tol", 1e-12, _TOL)
    paths = man.param("path_limits", None, _block(
        c=(2.0, _real("(0, inf)")), tol=(1e-3, _TOL),
        weights=(["0", "1/3", "1/2", "2/3", "2"], _each(_rat()))))
    rfl = float(cfg.r)
    # exact round trip on |t| = r^k circles with rational values
    samples = []
    for k in ks:
        for j in range(n_ang):
            t = rfl ** k * complex(math.cos(2 * math.pi * j / n_ang),
                                    math.sin(2 * math.pi * j / n_ang))
            samples.append(RhoSample(t, Fraction(j + 1, k + 1), Fraction(k)))
    down = rho_r_inverse(samples, cfg, r_prime=Fraction(3, 4))
    back = rho_r_forward(down, cfg)
    exact_ok = all(a.value == b.value for a, b in zip(samples, back))
    rep.checks.append(Check("round-trip-exact", exact_ok,
                             f"{len(samples)} samples, rational radius exponents"))
    # numeric round trip for phi = log|1 + t| scaled data, at 25 angles
    # from 0.1 to 6.0 with both ends included
    step = (6.0 - 0.1) / 24
    num = [RhoSample(complex(0.3 * math.cos(a), 0.3 * math.sin(a)),
                      math.log(abs(1 + 0.3 * math.cos(a) + 0.3j * math.sin(a))))
           for a in [k * step + 0.1 for k in range(24)] + [6.0]]
    rt = rho_r_inverse(rho_r_forward(num, cfg), cfg, r_prime=Fraction(9, 10))
    num_ok = all(abs(a.value - b.value) <= tol * max(1.0, abs(a.value))
                 for a, b in zip(num, rt))
    rep.checks.append(Check("round-trip-numeric", num_ok, f"tolerance {tol}"))
    # constant function transforms onto the rescaling factor
    const = [RhoSample(rfl ** k, Fraction(1), Fraction(k)) for k in ks]
    fwd = rho_r_forward(const, cfg)
    rep.checks.append(Check(
        "constant-maps-to-logr-factor",
        all(s.value == Fraction(k) for s, k in zip(fwd, ks)),
        "phi = 1 maps to log_r|t|",
    ))
    # convexity checks on the hybrid field spectrum
    lam = [Fraction(i, 8) for i in range(9)]
    sq = [(x, x * x) for x in lam]
    v1 = khyb_convexity_check(sq)
    neg = [(x, -x * x) for x in lam]
    v2 = khyb_convexity_check(neg)
    affs = [(Fraction(1), Fraction(0)), (Fraction(-2), Fraction(1)),
            (Fraction(3), Fraction(-2))]
    pa = [(x, max(a * x + b for a, b in affs)) for x in lam]
    v3 = khyb_convexity_check(pa)
    rep.checks.append(Check("khyb-square-convex", v1.convex, ""))
    rep.checks.append(Check(
        "khyb-concave-detected", not v2.convex,
        f"worst violation {v2.worst_violation}"))
    rep.checks.append(Check(
        "khyb-pa-exact-zero-violation",
        v3.convex and v3.worst_violation == 0, "exact rational arithmetic"))
    if paths is not None:
        f = LaurentSeriesData(["z", "t"], [((1, 0), Coefficient.explicit(1)),
                                           ((0, 1), Coefficient.explicit(-1))])
        worst = 0.0
        path_rows = []
        for w in paths["weights"]:
            res = hybrid_path_limit(f, complex(paths["c"]), w, cfg)
            err = abs(res.limit - float(min(w, 1)))
            worst = max(worst, err)
            path_rows.append([rat_to_str(w), res.limit,
                              rat_to_str(res.prediction), err])
        rep.checks.append(Check(
            "path-limits-match-monomial-prediction", worst <= paths["tol"],
            f"f = z - t along z = c t^w: worst error {worst!r} <= {paths['tol']}",
        ))
        rep.tables["path_limits"] = {
            "columns": ["w", "limit", "prediction", "error"],
            "rows": path_rows,
        }
    rep.tables["rho_r_roundtrip"] = {
        "columns": ["k", "angle_index", "value", "roundtrip"],
        "rows": [[rat_to_str(s.k), i % n_ang, s.value, b.value]
                 for i, (s, b) in enumerate(zip(samples, back))],
    }


RUNNERS = {
    "val-eval": run_val_eval,
    "retract": run_retract,
    "na-limit": run_na_limit,
    "ma-model": run_ma_model,
    "ma-converge": run_ma_converge,
    "mz-check": run_mz_check,
    "lelong": run_lelong,
    "rho-r": run_rho_r,
}
