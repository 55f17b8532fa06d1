"""Experiment runners and the input-file formats they read.

Every input file is read once, at load, by the spec of its format below,
built from the parse combinators of ``manifest``; the spec builds the
domain object, and an error names ``<file>: <json path>: <reason>``.
Each experiment kind has one runner, which reads its parameters at its
top and adds checks and tables to the report through ``RunReport.check``
and ``RunReport.table``; ``manifest`` renders them.  ``manifest.run``
imports this module on the first run of a process, and with it every
layer module.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from operator import mul
from pathlib import Path

from .exactnum import LogRVal
from .manifest import (
    REQUIRED,
    _COUNT,
    _POSITIVE,
    _R,
    _TOL,
    ManifestError,
    RunReport,
    _Invalid,
    _block,
    _decreasing,
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
    _radial,
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
    restriction_values,
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


# A run's peak allocation per grid cell, geometry included (tracemalloc
# around ma_complex_curve, grids 512 and 1024, cold geometry cache), is
# 11-15 bytes on the octant route of radial families (all four bundled
# ones).  On the full route of a family with a multi-term entry it is
# 88.6 in max mode, for any number of entries, and 88.6 + 16.1 (N - 1) in
# lse mode with N entries, which holds the N-term stack and lse_max_gap's
# copy of it beside the complex grid.  Every family may take grids up to
# _GRID_MAX, ~0.4 GB on the octant route; a full-route family only up to
# the largest grid that keeps it within 2 GiB, from the costs below,
# rounded up.
_GRID_MAX = 5180
_GRID_BYTES = 2**31
_FULL_ROUTE_CELL = 89  # bytes a cell, in max mode or for one lse entry
_LSE_ENTRY_CELL = 17   # bytes a cell, for each further lse entry


def _grid_side(value):
    """An even integer in [16, _GRID_MAX]: the Laplacian needs 16 cells a
    side, an odd side puts a cell center on xi = 0, where log|xi| is -inf,
    and no family takes a larger one (a full-route family takes at most
    _grid_fit's)."""
    n = _int(f"[16, {_GRID_MAX}]")(value)
    if n % 2:
        raise ValueError(f"expected an even integer, got {value!r}")
    return n


def _grid_fit(family: CurveFamily) -> int:
    """The largest grid a run of ``family`` may take: _GRID_MAX on the
    octant route, else the largest even side whose full route keeps
    within _GRID_BYTES."""
    if _radial(family):
        return _GRID_MAX
    cell = _FULL_ROUTE_CELL
    if family.mode == "lse":
        cell += _LSE_ENTRY_CELL * (len(family.entries) - 1)
    return math.isqrt(_GRID_BYTES // cell) // 2 * 2


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


def _power(key: str) -> int:
    """A coefficient key: an integer in canonical decimal, so that no two
    keys name one power of z ("01" and "1_0" are not keys)."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:  # not an integer, or too many digits
        pass
    raise _Invalid(f".{key}", "expected an integer in canonical decimal")


def _coeffs(value) -> dict:
    """{"k": [re, im]}: the coefficient of z^k."""
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {value!r}")
    return {_power(k): complex(*_field(value, k, REQUIRED, _COMPLEX)) for k in value}


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


def _input_draws(model: SncModelCombinatorics, rng: random.Random):
    """``(point, laurent, series)``: random points of ``model`` and random
    Laurent data in its variable labels, drawn from ``rng.getrandbits``,
    with the model's strata, multiplicities and labels looked up once.

    They draw what the plain form with ``rng.choice``, ``rng.randint`` and
    ``rng.sample`` draws, draw for draw, so a seed gives the same inputs
    and leaves ``rng`` in the same state.  Each of those takes a value
    from a range of n as ``Random._randbelow`` does: k = n.bit_length()
    bits, drawn again while they are >= n.

    - ``point()``: a stratum, ``rng.choice(model.strata)``; then for each
      of its components a_j = randint(0, 6) and b_j = randint(1, 5); if
      every a_j is 0, the pair at ``rng.randrange`` of the stratum's
      length becomes (1, 1).  The weights are q_j = a_j / b_j over
      sum_i m_i q_i, so that sum_j m_j w_j = 1.
    - ``series(vars_, max_terms, lo, hi)``: randint(1, max_terms) terms,
      each a tuple of randint(lo, hi) per variable with the unit tag; a
      repeated tuple is one term.
    - ``laurent(max_vars, max_terms, lo, hi)``: randint(1, max_vars)
      labels by ``rng.sample(labels, nv)``, in the draws of its pool
      branch (the one it takes for at most 21 labels), then their series.
    """
    draw = rng.getrandbits
    unit = Coefficient.unit()
    mults = [c.multiplicity for c in model.components]
    strata = [(s, [mults[j] for j in s]) for s in model.strata]
    n_strata = len(strata)
    k_strata = n_strata.bit_length()
    labels = model.variable_labels()
    n_labels = len(labels)

    def point() -> QuasiMonomialPoint:
        r = draw(k_strata)
        while r >= n_strata:
            r = draw(k_strata)
        stratum, ms = strata[r]
        nums, dens = [], []
        for _ in stratum:  # 3 bits each: 7 values of a_j, 5 of b_j
            a = draw(3)
            while a >= 7:
                a = draw(3)
            b = draw(3)
            while b >= 5:
                b = draw(3)
            nums.append(a)
            dens.append(b + 1)
        if not any(nums):
            size = len(nums)
            k = size.bit_length()
            r = draw(k)
            while r >= size:
                r = draw(k)
            nums[r] = dens[r] = 1
        # over the common denominator den, q_j = a_j/b_j = n_j/den, so the
        # normalized weight q_j / sum_i m_i q_i is n_j / sum_i m_i n_i
        den = math.lcm(*dens)
        nums = [a * (den // b) for a, b in zip(nums, dens)]
        total = sum(map(mul, ms, nums))
        # trusted: a declared stratum, non-negative weights in lowest terms,
        # and sum_j m_j w_j = 1 by the choice of total
        return QuasiMonomialPoint._canonical(
            model, stratum, tuple([Fraction(n, total) for n in nums]))

    def series(vars_: tuple, max_terms: int, lo: int, hi: int) -> LaurentSeriesData:
        n = hi - lo + 1
        if n <= 0 or max_terms <= 0:
            raise ValueError(f"empty range for randint({lo}, {hi}) or "
                             f"randint(1, {max_terms})")
        k = max_terms.bit_length()
        r = draw(k)
        while r >= max_terms:
            r = draw(k)
        width = len(vars_)
        size = (r + 1) * width
        k = n.bit_length()
        # the rejection loop makes at least ``size`` draws: make those at
        # once and keep the accepted ones, in order, then draw one at a
        # time until ``size`` are accepted
        exps = [lo + e for e in [draw(k) for _ in range(size)] if e < n]
        while len(exps) < size:
            e = draw(k)
            if e < n:
                exps.append(lo + e)
        # trusted: distinct int tuples of length width, sorted, unit-tagged
        keys = sorted(set(zip(*[iter(exps)] * width)))
        return LaurentSeriesData._canonical(vars_, tuple([(e, unit) for e in keys]))

    def laurent(max_vars: int, max_terms: int, lo: int, hi: int) -> LaurentSeriesData:
        if not 0 < max_vars <= n_labels:
            raise ValueError(f"cannot sample 1 to {max_vars} of {n_labels} labels")
        k = max_vars.bit_length()
        r = draw(k)
        while r >= max_vars:
            r = draw(k)
        pool = labels.copy()
        picked = []
        for i in range(n_labels, n_labels - r - 1, -1):  # r + 1 labels
            k = i.bit_length()
            j = draw(k)
            while j >= i:
                j = draw(k)
            picked.append(pool[j])
            pool[j] = pool[i - 1]
        return series(tuple(picked), max_terms, lo, hi)

    return point, laurent, series


# The lse sweep draws each (N, m) block in chunks of this many rows, so its
# memory does not grow with n_samples: at N = 64 a chunk peaks at 16.4 MiB
# (tracemalloc), the kernel's two arrays of 16384 x 64 words, and then the
# doubles and lse_max_gap's copy of them.  Its time still grows, ~0.13 us
# a sample at max_n 8 (one Xeon core): the bound keeps a sweep near two
# minutes, where 10^15 samples would run for four years.
_LSE_CHUNK = 1 << 14
_LSE_SAMPLES_MAX = 10**9


def _splitmix64(seed: int, first: int, count: int):
    """Draws first, ..., first + count - 1 of SplitMix64 (Steele, Lea and
    Flood, OOPSLA 2014) from ``seed``, as a uint64 array.

    Draw k is the generator's output for the state seed + (k + 1) gamma
    (mod 2^64), gamma = 0x9E3779B97F4A7C15: a function of (seed, k)
    alone, so a run of draws is the same however it is cut.  The array of
    draw indices is mixed in place, with one more array for the shifts.
    """
    import numpy as np

    z = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15  # uint64 arithmetic wraps mod 2^64
    z += seed
    t = np.right_shift(z, 30)
    z ^= t
    z *= 0xBF58476D1CE4E5B9
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= 0x94D049BB133111EB
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def _lse_draws(seed: int, first: int, rows: int, nn: int):
    """``rows`` x ``nn`` doubles in [-10, 10), from the seed's draws first
    on: each is -10 + 20 u, u its top 53 bits over 2^53, numpy's uniform
    formula.  u is exact, so 20 u rounds once, as the product of the
    53 bits and 20 / 2^53 does; the doubles overwrite the draws."""
    import numpy as np

    z = _splitmix64(seed, first, rows * nn)
    z >>= 11
    x = z.view(np.float64)
    np.multiply(z, 20.0 / 2.0**53, out=x)
    x -= 10.0
    return x.reshape(rows, nn)


def _lse_gaps(seed: int, first: int, count: int, nn: int, mm: int):
    """lse_max_gap of ``count`` rows of nn doubles from _lse_draws, the
    seed's draws first on, one array per chunk of at most _LSE_CHUNK rows."""
    for start in range(0, count, _LSE_CHUNK):
        rows = min(_LSE_CHUNK, count - start)
        yield lse_max_gap(_lse_draws(seed, first + start * nn, rows, nn), mm)


# The superadditivity sweep checks its triples in batches of this many.
# Its arrays grow with the batch: in 8 s `valuations` benchmark runs, one
# batch of 1000 rows read a peak RSS of 37.8 MB against 33.1 MB for
# batches of 128, and batches of 32 read the same as 128.
_SUPERADD_BLOCK = 128
# Sizes of a val-eval run, from its per-item times (one Xeon core): an
# n_random input takes ~27 us, a superadditivity triple ~26 and a gauss
# series ~15, none of them kept, so 10^6 of each stays under half a
# minute.  A series term takes ~1.1 us and ~180 bytes (tracemalloc) while
# its series lives: max_terms 10^4 keeps the bundled 1000 inputs near 6 s
# and a series near 2 MiB.  Exponents up to 10^9 in magnitude run as fast
# as the bundled +-10 (5000 inputs: 0.143 s against 0.141 s).
_VAL_COUNT = _int("[0, 1e6]")


def run_val_eval(man: ExperimentManifest, rep: RunReport):
    model = _random_model()
    n = man.param("n_random", 1000, _VAL_COUNT)
    exp_lo = man.param("exp_lo", -10, _int("[-1e9, 1e9]"))
    shape = (man.param("max_vars", 4, _int(f"[1, {len(model.components)}]")),
             man.param("max_terms", 8, _int("[1, 1e4]")), exp_lo,
             man.param("exp_hi", 10, _int(f"[{exp_lo}, 1e9]")))
    n_superadd = man.param("n_superadd", 200, _VAL_COUNT)
    n_gauss = man.param("n_gauss", 50, _VAL_COUNT)
    # The sweep lists its max_n x len(m_choices) (N, m) pairs up front and a
    # chunk peaks at two arrays of _LSE_CHUNK x N words: 16 MiB at N = 64,
    # where a sample takes ~1.4 us (~25 min for 10^9 samples).  2m scales differences of draws (< 20) and divides log N, so
    # m <= 10^300 keeps both finite; past ~10^308, 2m is no double at all.
    # At most 64 m values keep the pairs at 64 x 64 = 4096, each at least
    # one Python loop turn and a draw, however few samples it gets.
    lse = man.param("lse", None, _block(
        n_samples=(100000, _int(f"[1, {_LSE_SAMPLES_MAX}]")),
        max_n=(8, _int("[1, 64]")),
        m_choices=([1, 2, 3], _each(_int("[1, 1e300]"), 1, 64))))
    rng = random.Random(man.seed)
    point, laurent, series = _input_draws(model, rng)
    mismatch = 0
    t0 = time.perf_counter()
    for _ in range(n):
        v = point()
        f = laurent(*shape)
        if qm_eval(v, f) != brute_force_min(v, f):
            mismatch += 1
    elapsed = time.perf_counter() - t0
    rep.check(
        "qm-eval-equals-brute-force",
        mismatch == 0,
        f"{n} random Laurent inputs, {mismatch} mismatches",
    )
    # the measured seconds stay out of the report: byte-identical outputs
    rep.check(
        "qm-eval-brute-force-runtime",
        elapsed < 1.0,
        f"{n} dual evaluations within the 1s budget",
    )
    # fixed formula examples (raw weight vectors, no simplex normalization)
    f1 = LaurentSeriesData(["z1", "z2"], [((1, 0), Coefficient.unit())])
    f2 = LaurentSeriesData(["z1", "z2"], [((2, 0), Coefficient.unit()),
                                            ((1, 1), Coefficient.unit())])
    w12 = [Fraction(1, 2), Fraction(1, 3)]
    ok = (
        weighted_min_of_terms(f1, w12) == Fraction(1, 2)
        and weighted_min_of_terms(f2, w12) == Fraction(5, 6)
        and qm_eval(point(), LaurentSeriesData.zero(["x1"])) == INF
    )
    rep.check("min-formula-worked-examples", ok, "1/2, 5/6, +inf")
    # normalization v(t) = 1 and degree-1 homogeneity on monomials
    norm_ok = all(
        qm_eval(point(), model.uniformizer()) == 1
        for _ in range(50)
    )
    rep.check("uniformizer-normalization", norm_ok, "v(t)=1 on 50 points")
    homog_ok = True
    for _ in range(50):
        mono = LaurentSeriesData.monomial(
            ["z1", "z2"], (rng.randint(-5, 5), rng.randint(-5, 5)))
        ws = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(2)]
        k = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        lhs = weighted_min_of_terms(mono, [k * w for w in ws])
        rhs = k * weighted_min_of_terms(mono, ws)
        homog_ok = homog_ok and lhs == rhs
    rep.check("monomial-weight-homogeneity", homog_ok, "50 samples")
    # superadditivity property sweep, one batch per block of triples
    bad = 0
    for start in range(0, n_superadd, _SUPERADD_BLOCK):
        rows = []
        for _ in range(min(_SUPERADD_BLOCK, n_superadd - start)):
            v = point()
            f = laurent(2, 8, 0, 6)
            rows.append((v, f, series(f.variables, 8, 0, 6)))
        bad += sum(not (res.product_ok and res.sum_ok)
                   for res in valuation_superadditivity_check(rows))
    rep.check("valuation-superadditivity", bad == 0, f"{bad} violations")
    # gauss extension: trivial coefficient oracle returns ord_t
    g_ok = True
    for _ in range(n_gauss):
        ns = sorted(rng.sample(range(-10, 10), rng.randint(1, 6)))
        terms = [(nn, f"s{nn}") for nn in ns]
        if gauss_extension(lambda h: Fraction(0), terms) != min(ns):
            g_ok = False
    examples = (
        gauss_extension(lambda h: Fraction(0), [(1, "c")]) == 1
        and gauss_extension(lambda h: Fraction(3), [(0, "s0")]) == 3
        and gauss_extension(lambda h: {"s0": Fraction(2), "s1": Fraction(0)}[h],
                            [(0, "s0"), (1, "s1")]) == 1
        and gauss_extension(lambda h: Fraction(0), []) == INF
    )
    rep.check("gauss-extension", g_ok and examples,
              "trivial oracle = ord_t; worked examples")
    if lse is not None:
        import numpy as np

        total = lse["n_samples"]
        combos = [(nn, mm) for nn in range(1, lse["max_n"] + 1)
                  for mm in lse["m_choices"]]
        per = total // len(combos)
        violations = 0
        checked = 0
        drawn = 0  # each block takes the next count x nn draws of the seed
        for idx, (nn, mm) in enumerate(combos):
            count = per if idx < len(combos) - 1 else total - per * (len(combos) - 1)
            bound = math.log(nn) / (2 * mm)
            for gaps in _lse_gaps(man.seed, drawn, count, nn, mm):
                violations += int(np.sum((gaps < 0) | (gaps > bound + 1e-12)))
            drawn += count * nn
            checked += count
        rep.check(
            "lse-max-envelope", violations == 0,
            f"0 <= chi - max <= log(N)/(2m) on {checked} samples: "
            f"{violations} violations",
        )
    rep.table("val_eval_summary", ["quantity", "value"],
              [["random_inputs", n], ["mismatches", mismatch]])


def run_retract(man: ExperimentManifest, rep: RunReport):
    paths = man.input("models", REQUIRED, _each(man.file, 1))
    n_points = man.param("n_points", 100, _COUNT)
    rng = random.Random(man.seed)
    registry = load_models_with_pullbacks(paths)
    all_ok = True
    names = sorted(registry)
    identities = [identity_pullback(registry[name]) for name in names]
    points = [_input_draws(registry[name], rng)[0] for name in names]
    for k in range(n_points):
        i = k % len(names)
        v = points[i]()
        back = retraction(registry[names[i]], v, identities[i])
        all_ok = all_ok and back.same_valuation(v)
    rep.check("retraction-idempotence", all_ok,
              f"rho o i = id on {n_points} rational points")
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
        rep.check("blowup-barycenter", ok, details)
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
        rep.check("blowup-halfedge-matrix-oracle", half_ok, details)
    euler_rows = []
    for name in names:
        dc = build_dual_complex(registry[name])
        euler_rows.append([name, dc.vertex_count(), dc.euler_characteristic()])
    rep.check(
        "dual-complex-vertices",
        all(r[1] == len(registry[r[0]].components) for r in euler_rows),
        "vertex count equals component count",
    )
    rep.table("dual_complexes", ["model", "vertices", "euler_characteristic"],
              euler_rows)


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
            rep.check(f"regularity-{model.name}", False, str(exc))
            continue
        rep.check(
            f"dual-route-{model.name}", res.dual_route_equal,
            "formula value = direct restriction at every divisorial point",
        )
        try:
            ok, details = res.pa.check_face_continuity(), "exact"
        except ContinuityError as exc:
            ok, details = False, str(exc)
        rep.check(f"face-continuity-{model.name}", ok, details)
        # the shift and trivial checks read only the direct restriction
        shifted = restriction_values(tfs_shift(phi, shift), model, r)
        shift_ok = all(
            shifted[i] == res.restriction_values[i] + shift
            for i in range(len(model.components))
        )
        rep.check(f"constant-shift-covariance-{model.name}",
                  shift_ok, f"shift by {shift}")
        # the reference metric itself: one section, reference^m
        ref_m = LaurentSeriesData.monomial(
            phi.reference.variables,
            [phi.m * e for e in phi.reference.terms[0][0]])
        trivial = TropicalFSMetric.build(phi.m, [(ref_m, 0)], phi.reference)
        triv_ok = all(v.is_zero()
                      for v in restriction_values(trivial, model, r).values())
        rep.check(f"trivial-metric-zero-{model.name}", triv_ok, "")
        for k, stratum, g_logr, g_const in res.pa.csv_rows():
            rows.append([model.name, k, stratum, g_logr, g_const])
    rep.table("pa_functions", ["model", "simplex_id", "stratum",
                               "gradient_logr", "gradient_const"], rows)


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
        rep.check(
            f"total-mass-{table.model.name}", ok,
            f"mass {mu.total_mass()} = sum of table entries {expected}",
        )
        for atom in mu.atoms:
            rows.append([table.model.name, atom.label,
                         "" if atom.u is None else atom.u.a,
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
        rep.check(
            f"dual-route-curve-{family.name}",
            mu_pa.same_atoms(mu_table),
            "ma_pa_curve = ma_model_metric exactly",
        )
    # affine input gives the empty measure; the standard single-kink example
    affine = PAFunction1D.from_breakpoints([Fraction(0)], [Fraction(1)], r,
                                            left_slope=2, right_slope=2)
    rep.check("affine-empty-measure",
              not ma_pa_curve(affine).nonzero().atoms, "")
    vee = PAFunction1D.from_breakpoints([Fraction(-1)], [Fraction(0)], r,
                                         left_slope=0, right_slope=1)
    atoms = ma_pa_curve(vee).nonzero().atoms
    ok = (len(atoms) == 1 and atoms[0].mass == 1
          and atoms[0].u == LogRVal.of(Fraction(-1)))
    rep.check("single-kink-max(0,u+1)", ok, "mass 1 at u = -1")
    rep.table("atomic_measures", ["model", "component", "u", "mass"], rows)


def run_ma_converge(man: ExperimentManifest, rep: RunReport):
    families = man.input("families", REQUIRED, _each(man.file, 1))
    cln_family = man.input("cln_family", None, man.file)
    r = man.param("r", "1/2", _R)
    # the potential divides by log|t|; the checks read the last t as the
    # smallest
    t_schedule = man.param("t_schedule", REQUIRED,
                           _decreasing(_each(_real("(0, 1)"), 1)))
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
    fams = [load_family(path) for path in families]
    for fam in fams:
        # refused before any grid is built
        fits = _grid_fit(fam)
        if grid > fits:
            raise ManifestError(
                f"{man.path}: params.grid: {grid} is more than {fits}, the "
                f"largest grid at which family {fam.name!r} (full route, "
                f"{fam.mode} mode, {len(fam.entries)} entries) keeps within 2 GiB")
    rows = []
    for fam in fams:
        try:
            conv = weak_convergence_experiment(fam, t_schedule, tests, grid, r,
                                                mass_tol=mass_tol)
        except ResolutionError as exc:
            rep.check(
                f"grid-resolution-{fam.name}", False,
                str(exc) if exc.suggested_n is None
                else f"{exc}; suggested_n = {exc.suggested_n}",
            )
            continue
        except EmptyMeasureError as exc:
            rep.check(f"positive-mass-{fam.name}", False, str(exc))
            continue
        for row in conv.rows:
            out = [fam.name, row.t_abs, row.w1, row.captured_mass]
            for name in sorted(tests):
                out.append(row.test_errors[name])
            rows.append(out)
        final_w1 = conv.rows[-1].w1
        rep.check(
            f"w1-at-smallest-t-{fam.name}", final_w1 <= w1_tol,
            f"W1 = {final_w1:.6f} <= {w1_tol}",
        )
        rep.check(
            f"w1-monotone-{fam.name}", conv.monotone,
            conv.failure or "errors non-increasing along the schedule",
        )
        mass_ok = all(
            abs(row.captured_mass - float(fam.ma_mass())) <= mass_tol
            for row in conv.rows
        )
        rep.check(
            f"grid-mass-{fam.name}", mass_ok,
            f"total mass within {mass_tol} of degree {fam.ma_mass()}",
        )
    cln_rows = []
    if cln_family is not None:
        fam = load_family(cln_family)
        cln = cln_stability_check(fam, deltas, r, residual_tol=cln_tol)
        rep.check(
            "cln-linear-envelope", cln.failure is None,
            f"fitted C = {cln.fitted_constant:.6f}, residual {cln.residual:.2e}",
        )
        rep.check("cln-antisymmetry", cln.antisymmetry_exact,
                  "cross pairing negates under swap, exact")
        rep.check(
            "cln-zero-delta",
            pairing_difference(fam, fam, r).is_zero(), "exact zero")
        for d, diff in zip(cln.deltas, cln.differences):
            cln_rows.append([fam.name, d, diff])
    rep.table("convergence", ["family", "t", "w1", "captured_mass"]
              + [f"err_{name}" for name in sorted(tests)], rows)
    if cln_rows:
        rep.table("cln", ["family", "delta", "difference"], cln_rows)


# the checks of run_mz_check on these families carry frozen expectations
_REFERENCE_FAMILIES = [[[2, "0"]], [[2, "0"], [3, "0"]]]


def _reference_families(value):
    if value != _REFERENCE_FAMILIES:
        raise ValueError(f"the checks expect {_REFERENCE_FAMILIES}, got {value!r}")
    return [[(int(n), Fraction(c)) for n, c in fam] for fam in value]


def run_mz_check(man: ExperimentManifest, rep: RunReport):
    # one table row per family, ~0.2 ms each: 10^5 rows take ~20 s
    n_rand = man.param("n_random", 20, _int("[0, 1e5]"))
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
    rep.check("family-2-3-worked-example", checks23,
              "branch value 0, slopes (0, 0, log 3)")
    F2 = mz_from_family(fam2, 1)
    rep2 = mz_slopes(F2)
    ok2 = (rep2.slope_sum.is_zero()
           and rep2.end_values[2] == "-inf"
           and mz_fs_eval(fam2, 1, MZPoint("2", "inf")) == "-inf")
    rep.check("family-2-slopes-and-polar-end", ok2,
              "s_2 = -log 2, s_inf = log 2, sum 0; end is polar")
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
    rep.check("random-families-pass", n_pass == n_rand,
              f"{n_pass}/{n_rand} FS families pass the checker")
    rep.check(
        "slope-sum-closed-form", ident_ok,
        "sum = log(max over argmax / gcd) exactly on every family; "
        f"lcm form differs on {discrepancies} families (surfaced, not asserted)",
    )
    # crafted on the unit lattice: scale 1, no archimedean primes
    viol = MZFunction(1, (), 0, {2: BranchPA((-1,), (0,))},
                      BranchPA((_LogVec(),), (0,)), BranchPA((0,), (0,)))
    vv = mz_psh_check(viol)
    slope_reason = any("slope-sum" in reas for reas in vv.reasons)
    rep.check("crafted-violator-fails-slope-sum",
              (not vv.passed) and slope_reason,
              "; ".join(vv.reasons))
    const = MZFunction(1, (), 0, {}, BranchPA((_LogVec(),), (0,)),
                       BranchPA((0,), (0,)))
    rep.check("zero-function-passes", mz_psh_check(const).passed, "")
    rep.table("mz_families",
              ["index", "family", "m", "passed", "identity", "lcm_differs"],
              rows)


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
    rep.check(
        "t2-plus-t3-slope", abs(est.estimate - 2.0) <= tol,
        f"estimate {est.estimate!r}, target 2 within {tol}",
    )

    def phi_pert(z: complex) -> float:
        return phi_main(z) + math.log(abs(1 + scale * z))

    est_p = lelong_estimate(sample_circle_sups(phi_pert, radii))
    rep.check(
        "bounded-perturbation-invariance",
        abs(est_p.estimate - 2.0) <= tol,
        f"perturbed estimate {est_p.estimate!r} within {tol}",
    )
    slope_f = float(slope)
    est_pure = lelong_estimate(
        sample_circle_sups(lambda z: slope_f * math.log(abs(z)), radii))
    rep.check(
        "pure-log-exact", abs(est_pure.estimate - slope_f) <= 1e-9,
        f"slope {est_pure.estimate!r} vs {slope_f!r}",
    )
    est_b = lelong_estimate(
        sample_circle_sups(lambda z: max(math.log(abs(z)), floor), radii))
    rep.check(
        "bounded-function-zero", abs(est_b.estimate) <= 1e-9,
        f"estimate {est_b.estimate!r}",
    )
    rep.table("lelong_sweep", ["log10_rho", "sup_value", "series"],
              [[math.log10(rho), val, "t2_plus_t3"] for rho, val in samp.points])
    rep.table("lelong_fit", ["series", "estimate", "band_lo", "band_hi"],
              [["t2_plus_t3", est.estimate, est.band[0], est.band[1]],
               ["perturbed", est_p.estimate, est_p.band[0], est_p.band[1]]])


def run_rho_r(man: ExperimentManifest, rep: RunReport):
    # the numeric samples lie on |t| = 3/10 and the round trips map into
    # r' = 3/4 > r; for r >= 3/10, r^500 is still a normal double
    r = man.param("r", "1/2", _rat("[3/10, 3/4)"))
    # each angle adds one sample per exponent to both round-trip lists and
    # the table, ~1.3 KB each: 4096 angles at the four default exponents
    # peak near 40 MB.  An exponent takes ~4.3 MB (tracemalloc) and ~0.1 s
    # at 4096 angles, so 64 exponents keep a run near 280 MB and 7 s.
    ks = man.param("k_exponents", [1, 2, 3, 4], _each(_int("[1, 500]"), 0, 64))
    n_ang = man.param("n_angles", 8, _int("[1, 4096]"))
    tol = man.param("numeric_tol", 1e-12, _TOL)
    paths = man.param("path_limits", None, _block(
        c=(2.0, _real("(0, inf)")), tol=(1e-3, _TOL),
        weights=(["0", "1/3", "1/2", "2/3", "2"], _each(_rat()))))
    rfl = float(r)
    # exact round trip on |t| = r^k circles with rational values
    samples = []
    for k in ks:
        for j in range(n_ang):
            t = rfl ** k * complex(math.cos(2 * math.pi * j / n_ang),
                                    math.sin(2 * math.pi * j / n_ang))
            samples.append(RhoSample(t, Fraction(j + 1, k + 1), Fraction(k)))
    down = rho_r_inverse(samples, r, r_prime=Fraction(3, 4))
    back = rho_r_forward(down, r)
    exact_ok = all(a.value == b.value for a, b in zip(samples, back))
    rep.check("round-trip-exact", exact_ok,
              f"{len(samples)} samples, rational radius exponents")
    # numeric round trip for phi = log|1 + t| scaled data, at 25 angles
    # from 0.1 to 6.0 with both ends included
    step = (6.0 - 0.1) / 24
    num = [RhoSample(complex(0.3 * math.cos(a), 0.3 * math.sin(a)),
                      math.log(abs(1 + 0.3 * math.cos(a) + 0.3j * math.sin(a))))
           for a in [k * step + 0.1 for k in range(24)] + [6.0]]
    rt = rho_r_inverse(rho_r_forward(num, r), r, r_prime=Fraction(9, 10))
    num_ok = all(abs(a.value - b.value) <= tol * max(1.0, abs(a.value))
                 for a, b in zip(num, rt))
    rep.check("round-trip-numeric", num_ok, f"tolerance {tol}")
    # constant function transforms onto the rescaling factor
    const = [RhoSample(rfl ** k, Fraction(1), Fraction(k)) for k in ks]
    fwd = rho_r_forward(const, r)
    rep.check(
        "constant-maps-to-logr-factor",
        all(s.value == Fraction(k) for s, k in zip(fwd, ks)),
        "phi = 1 maps to log_r|t|",
    )
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
    rep.check("khyb-square-convex", v1.convex, "")
    rep.check(
        "khyb-concave-detected", not v2.convex,
        f"worst violation {v2.worst_violation}")
    rep.check(
        "khyb-pa-exact-zero-violation",
        v3.convex and v3.worst_violation == 0, "exact rational arithmetic")
    if paths is not None:
        f = LaurentSeriesData(["z", "t"], [((1, 0), Coefficient.explicit(1)),
                                           ((0, 1), Coefficient.explicit(-1))])
        worst = 0.0
        path_rows = []
        for w in paths["weights"]:
            res = hybrid_path_limit(f, complex(paths["c"]), w, r)
            err = abs(res.limit - float(min(w, 1)))
            worst = max(worst, err)
            path_rows.append([w, res.limit, res.prediction, err])
        rep.check(
            "path-limits-match-monomial-prediction", worst <= paths["tol"],
            f"f = z - t along z = c t^w: worst error {worst!r} <= {paths['tol']}",
        )
        rep.table("path_limits", ["w", "limit", "prediction", "error"],
                  path_rows)
    rep.table("rho_r_roundtrip", ["k", "angle_index", "value", "roundtrip"],
              [[s.k, i % n_ang, s.value, b.value]
               for i, (s, b) in enumerate(zip(samples, back))])


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
