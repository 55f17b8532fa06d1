import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berkhyb import harness, valuation
from berkhyb.exactnum import as_fraction, rat_to_str
from berkhyb.harness import _LAURENT, _input_draws, _random_model, \
    load_models_with_pullbacks
from berkhyb.manifest import ExperimentManifest, RunReport
from berkhyb.valuation import (
    INF,
    Coefficient,
    ConfigurationError,
    LaurentSeriesData,
    QuasiMonomialPoint,
    brute_force_min,
    divisorial_point,
    gauss_extension,
    qm_eval,
    valuation_superadditivity_check,
    weighted_min_of_terms,
)


def unit_terms(exps):
    return [(tuple(e), Coefficient.unit()) for e in exps]


def make_segment():
    from berkhyb.models import Component, SncModelCombinatorics

    return SncModelCombinatorics(
        [Component("w1", 1), Component("w2", 1)], [[0], [1], [0, 1]],
        name="segment",
    )


def test_zero_element_evaluates_to_infinity(segment):
    v = divisorial_point(segment, 0)
    assert qm_eval(v, LaurentSeriesData.zero(["w1", "w2"])) == INF


def test_min_formula_worked_examples():
    # raw weight vectors: these illustrate the min formula itself
    f1 = LaurentSeriesData(["z1", "z2"], unit_terms([(1, 0)]))
    f2 = LaurentSeriesData(["z1", "z2"], unit_terms([(2, 0), (1, 1)]))
    w = [Fraction(1, 2), Fraction(1, 3)]
    assert weighted_min_of_terms(f1, w) == Fraction(1, 2)
    assert weighted_min_of_terms(f2, w) == Fraction(5, 6)


def test_duplicate_exponents_rejected():
    with pytest.raises(ValueError):
        LaurentSeriesData(["z"], unit_terms([(1,), (1,)]))


def test_zero_coefficients_dropped():
    f = LaurentSeriesData(["z"], [((1,), Coefficient.explicit(0))])
    assert f.is_zero()


def test_unknown_identification_label(segment):
    v = divisorial_point(segment, 0)
    f = LaurentSeriesData(["q"], unit_terms([(1,)]))
    with pytest.raises(ConfigurationError):
        qm_eval(v, f, identification={"nope": 0})


def test_variables_outside_stratum_are_units(segment):
    # label not matching any component equation contributes 0
    v = divisorial_point(segment, 0)
    f = LaurentSeriesData(["w1", "other"], unit_terms([(2, 5)]))
    assert qm_eval(v, f) == 2


def test_divisorial_point_normalization(segment, blowup):
    assert divisorial_point(segment, 0).weights == (Fraction(1),)
    assert divisorial_point(blowup, 2).weights == (Fraction(1, 2),)
    with pytest.raises(IndexError):
        divisorial_point(segment, 5)


def test_uniformizer_value_one_on_random_points(segment, triangle):
    rng = random.Random(7)
    for model in (segment, triangle):
        t = model.uniformizer()
        for _ in range(40):
            stratum = rng.choice(model.strata)
            raw = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in stratum]
            tot = sum(
                (model.multiplicity(j) * q for j, q in zip(stratum, raw)),
                Fraction(0),
            )
            v = model.point(stratum, [q / tot for q in raw])
            assert qm_eval(v, t) == 1


@given(
    exps=st.lists(
        st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
        min_size=1, max_size=8, unique=True,
    ),
    num=st.integers(0, 12),
)
@settings(max_examples=300, deadline=None)
def test_qm_eval_matches_brute_force(exps, num):
    segment = make_segment()
    w1 = Fraction(num, 12)
    v = segment.point((0, 1), (w1, 1 - w1))
    f = LaurentSeriesData(["w1", "w2"], unit_terms(exps))
    assert qm_eval(v, f) == brute_force_min(v, f)


def test_monomial_superadditivity_examples(segment):
    v = segment.point((0, 1), (Fraction(1, 2), Fraction(1, 2)))
    z1 = LaurentSeriesData(["w1", "w2"], unit_terms([(1, 0)]))
    z2 = LaurentSeriesData(["w1", "w2"], unit_terms([(0, 1)]))
    rep, rep2 = valuation_superadditivity_check([(v, z1, z2), (v, z1, z1)])
    assert rep.product_ok and rep.product_equality and rep.sum_ok
    # f + f = 2f keeps the support: v(f+g) = min
    assert rep2.sum_ok
    assert rep2.details["v(f+g)"] == Fraction(1, 2)


@given(
    e1=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=6, unique=True),
    e2=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=6, unique=True),
    num=st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_superadditivity_property(e1, e2, num):
    segment = make_segment()
    w1 = Fraction(num, 10)
    v = segment.point((0, 1), (w1, 1 - w1))
    f = LaurentSeriesData(["w1", "w2"], unit_terms(e1))
    g = LaurentSeriesData(["w1", "w2"], unit_terms(e2))
    rep, = valuation_superadditivity_check([(v, f, g)])
    assert rep.product_ok and rep.sum_ok


def test_gauss_extension_examples():
    assert gauss_extension(lambda h: Fraction(0), [(1, "one")]) == 1
    assert gauss_extension(lambda h: Fraction(3), [(0, "s0")]) == 3
    oracle = {"s0": Fraction(2), "s1": Fraction(0)}
    assert gauss_extension(oracle.get, [(0, "s0"), (1, "s1")]) == 1
    assert gauss_extension(lambda h: Fraction(0), []) == INF


def test_gauss_extension_trivial_oracle_is_t_order():
    rng = random.Random(3)
    for _ in range(100):
        ns = rng.sample(range(-12, 12), rng.randint(1, 7))
        series = [(n, f"s{n}") for n in ns]
        assert gauss_extension(lambda h: Fraction(0), series) == min(ns)
    # infinite coefficients are skipped entirely
    assert gauss_extension(lambda h: INF, [(0, "s0"), (2, "s2")]) == INF


def test_laurent_json_round_trip():
    f = LaurentSeriesData(
        ["z", "t"],
        [((1, -2), Coefficient.unit()),
         ((0, 3), Coefficient.explicit(Fraction(1, 2), Fraction(-2, 7)))],
    )
    # the Laurent data format, read by the harness; coef defaults to unit
    data = {"vars": ["z", "t"], "terms": [{"exp": [1, -2]},
                                          {"exp": [0, 3], "coef": ["1/2", "-2/7"]}]}
    back = _LAURENT(data)
    assert back.variables == f.variables
    assert back.terms == f.terms
    data["terms"][1]["coef"] = ["1/2"]
    with pytest.raises(ValueError, match=re.escape(
            "terms[1].coef: expected a list of 2 items, got ['1/2']")):
        _LAURENT(data)


def test_formal_product_tracks_cancellation():
    # (z + w)(z - w): the cross terms cancel exactly with explicit coefficients
    plus = LaurentSeriesData(
        ["z", "w"],
        [((1, 0), Coefficient.explicit(1)), ((0, 1), Coefficient.explicit(1))],
    )
    minus = LaurentSeriesData(
        ["z", "w"],
        [((1, 0), Coefficient.explicit(1)), ((0, 1), Coefficient.explicit(-1))],
    )
    prod = plus.formal_product(minus)
    assert set(e for e, _ in prod.terms) == {(2, 0), (0, 2)}


# ---------------------------------------------------------------------------
# the trusted constructor of formal_product / formal_sum against __init__
# ---------------------------------------------------------------------------

# small ranges, so that product exponents collide and explicit
# coefficients cancel exactly
COEFFICIENTS = st.one_of(
    st.just(Coefficient.unit()),
    st.builds(Coefficient.explicit, st.integers(-2, 2), st.integers(-1, 1)),
)
LAURENT_TERMS = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), COEFFICIENTS, max_size=6)


def validated(variables, acc):
    """``acc`` through the validating constructor, which drops zeros."""
    return LaurentSeriesData(variables, list(acc.items()))


def accumulate(pairs):
    acc = {}
    for exp, c in pairs:
        acc[exp] = acc[exp].add(c) if exp in acc else c
    return acc


@given(t1=LAURENT_TERMS, t2=LAURENT_TERMS)
@settings(max_examples=300, deadline=None)
def test_formal_algebra_matches_validating_constructor(t1, t2):
    vars_ = ("z", "w")
    f, g = validated(vars_, t1), validated(vars_, t2)
    prod = f.formal_product(g)
    ref_prod = validated(vars_, accumulate(
        (tuple(a + b for a, b in zip(e1, e2)), c1.mul(c2))
        for e1, c1 in f.terms for e2, c2 in g.terms))
    ssum = f.formal_sum(g)
    ref_sum = validated(vars_, accumulate(f.terms + g.terms))
    for got, ref in ((prod, ref_prod), (ssum, ref_sum)):
        assert got.variables == ref.variables
        assert got.terms == ref.terms
        assert all(type(e) is int for exp, _ in got.terms for e in exp)


def test_formal_algebra_edge_cases():
    vars_ = ("z", "w")
    zero = LaurentSeriesData.zero(vars_)
    f = LaurentSeriesData(vars_, [((1, 0), Coefficient.explicit(3, -1)),
                                  ((0, 1), Coefficient.unit())])
    neg = LaurentSeriesData(vars_, [((1, 0), Coefficient.explicit(-3, 1))])
    # c + (-c) drops the term; the unit tag never cancels
    assert f.formal_sum(neg).terms == (((0, 1), Coefficient.unit()),)
    assert f.formal_product(zero).is_zero() and zero.formal_product(f).is_zero()
    assert f.formal_sum(zero).terms == f.terms
    # (1, 0) + (0, 1) is reached twice: the colliding exponent keeps one term
    sq = f.formal_product(f)
    assert [e for e, _ in sq.terms] == [(0, 2), (1, 1), (2, 0)]


@given(
    e1=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                max_size=6, unique=True),
    e2=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                max_size=6, unique=True),
    num=st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_superadditivity_details_are_the_four_values(e1, e2, num):
    # the details, built when read, are the values qm_eval gives
    segment = make_segment()
    w1 = Fraction(num, 10)
    v = segment.point((0, 1), (w1, 1 - w1))
    f = LaurentSeriesData(["w1", "w2"], unit_terms(e1))
    g = LaurentSeriesData(["w1", "w2"], unit_terms(e2))
    details = valuation_superadditivity_check([(v, f, g)])[0].details
    assert details == {
        "v(f)": qm_eval(v, f), "v(g)": qm_eval(v, g),
        "v(fg)": qm_eval(v, f.formal_product(g)),
        "v(f+g)": qm_eval(v, f.formal_sum(g))}
    assert all(x == INF or type(x) is Fraction for x in details.values())


def test_superadditivity_rejects_mismatched_variables(segment):
    v = divisorial_point(segment, 0)
    f = LaurentSeriesData(["w1", "w2"], unit_terms([(1, 0)]))
    g = LaurentSeriesData(["w2", "w1"], unit_terms([(1, 0)]))
    with pytest.raises(ConfigurationError, match="variable mismatch"):
        valuation_superadditivity_check([(v, f, f), (v, f, g)])


def _reference_row(v, f, g, ident):
    """The report of one row, from qm_eval of formal_product and
    formal_sum: (product_ok, product_equality, sum_ok, product_terms) and
    the four values."""
    vf, vg = qm_eval(v, f, ident), qm_eval(v, g, ident)
    prod = f.formal_product(g)
    vfg, vs = qm_eval(v, prod, ident), qm_eval(v, f.formal_sum(g), ident)
    if INF in (vf, vg):
        product_ok = product_equality = vfg == INF
    else:
        product_ok = vfg == INF or vfg >= vf + vg
        product_equality = vfg == vf + vg or \
            len(prod.terms) < len(f.terms) * len(g.terms)
    finite = [x for x in (vf, vg) if x != INF]
    sum_ok = vs == INF if not finite else vs == INF or vs >= min(finite)
    return ((product_ok, product_equality, sum_ok, len(prod.terms)),
            {"v(f)": vf, "v(g)": vg, "v(fg)": vfg, "v(f+g)": vs})


# the model's four labels and one that no component carries (weight 0)
_BATCH_LABELS = ("x1", "x2", "x3", "x4", "u")


@st.composite
def superadditivity_batches(draw):
    """A batch of rows on _random_model() of widths 1-4, with zero f or g,
    negative exponents, and labels shared by every row that an
    identification may map."""
    model = _random_model()
    shared = draw(st.lists(st.sampled_from(_BATCH_LABELS), max_size=2,
                           unique=True))
    ident = None
    if shared and draw(st.booleans()):
        ident = {x: draw(st.integers(0, 3)) for x in shared}
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        rest = [x for x in _BATCH_LABELS if x not in shared]
        width = draw(st.integers(max(1, len(shared)), 4))
        labels = draw(st.permutations(
            shared + draw(st.permutations(rest))[:width - len(shared)]))
        exps = st.lists(st.tuples(*[st.integers(-7, 7)] * width),
                        max_size=6, unique=True)
        f, g = (LaurentSeriesData(labels, unit_terms(draw(exps)))
                for _ in range(2))
        stratum = draw(st.sampled_from(model.strata))
        raw = [Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 5)))
               for _ in stratum]
        if not any(raw):
            raw[0] = Fraction(1)
        total = sum(model.multiplicity(j) * q for j, q in zip(stratum, raw))
        rows.append((model.point(stratum, [q / total for q in raw]), f, g))
    return rows, ident


@given(batch=superadditivity_batches())
@settings(max_examples=200, deadline=None)
def test_superadditivity_batch_matches_the_per_row_reference(batch):
    rows, ident = batch
    reports = valuation_superadditivity_check(rows, ident)
    assert len(reports) == len(rows)
    for (v, f, g), rep in zip(rows, reports):
        verdicts, details = _reference_row(v, f, g, ident)
        assert (rep.product_ok, rep.product_equality, rep.sum_ok,
                rep.product_terms) == verdicts
        assert rep.details == details


def test_superadditivity_counts_the_colliding_product_terms(segment):
    # (1 + w1)(1 + w2 + w1) has 6 pairs of terms but 5 exponents, since
    # w1 = 1 * w1 = w1 * 1: a collision, which product_equality counts
    v = segment.point((0, 1), (Fraction(1, 3), Fraction(2, 3)))
    f = LaurentSeriesData(["w1", "w2"], unit_terms([(0, 0), (1, 0)]))
    g = LaurentSeriesData(["w1", "w2"], unit_terms([(0, 0), (0, 1), (1, 0)]))
    alone = LaurentSeriesData(["w1", "w2"], unit_terms([(2, 2)]))
    rep, other = valuation_superadditivity_check([(v, f, g), (v, alone, g)])
    assert len(f.formal_product(g).terms) == rep.product_terms == 5
    assert rep.product_ok and rep.product_equality and rep.sum_ok
    assert rep.details["v(fg)"] == 0
    assert other.product_terms == 3 and other.product_equality


def test_superadditivity_refuses_a_batch_past_int64(segment):
    v = segment.point((0, 1), (Fraction(1, 2), Fraction(1, 2)))
    # w = (1, 1) over den 2; |w| (|e_f| + |e_g|) k = 1 (2^60 + 2^60) 1 is inside
    f = LaurentSeriesData(["w1"], unit_terms([(2**60,)]))
    rep, = valuation_superadditivity_check([(v, f, f)])
    assert rep.details["v(fg)"] == 2**60 and rep.product_terms == 1
    # 1 (2^61 + 2^61) 1 = 2^62 is not
    big = LaurentSeriesData(["w1"], unit_terms([(2**61,)]))
    with pytest.raises(ConfigurationError, match="outside int64"):
        valuation_superadditivity_check([(v, f, f), (v, big, big)])
    # a weight or an exponent past int64 is refused where it meets a zero:
    # a label of weight 0, and a constant at a weight numerator of 2^64 - 1
    heavy = LaurentSeriesData(["u"], unit_terms([(2**62,)]))
    tiny = segment.point((0, 1), (Fraction(1, 2**64), 1 - Fraction(1, 2**64)))
    const = LaurentSeriesData(["w1", "w2"], unit_terms([(0, 0)]))
    for row in ((v, heavy, heavy), (tiny, const, const)):
        with pytest.raises(ConfigurationError, match="outside int64"):
            valuation_superadditivity_check([row])
    # labels that carry weight 0 leave only the key range: 2^16 + 1 values
    # a coordinate, to the fourth power, pass 2^62
    wide = LaurentSeriesData(["a", "b", "c", "d"],
                             unit_terms([(0,) * 4, (2**15,) * 4]))
    with pytest.raises(ConfigurationError, match="key range 65537\\^4"):
        valuation_superadditivity_check([(v, wide, wide)])


def _superadd_sweep(monkeypatch, n_superadd):
    """val-eval with ``n_superadd`` triples and no gauss series: the
    superadditivity check's details and the generator's state after the
    sweep, read when the gauss examples start."""
    seen = {}

    def draws(model, rng):
        seen["rng"] = rng
        return _input_draws(model, rng)

    def gauss(oracle, series):
        seen.setdefault("state", seen["rng"].getstate())
        return gauss_extension(oracle, series)

    monkeypatch.setattr(harness, "_input_draws", draws)
    monkeypatch.setattr(harness, "gauss_extension", gauss)
    raw = {"params": {"n_random": 3, "n_superadd": n_superadd, "n_gauss": 0}}
    man = ExperimentManifest("val-eval", 99, Path("sweep.json"), raw)
    rep = RunReport("val-eval", 99, "test", raw)
    harness.run_val_eval(man, rep)
    check, = [c for c in rep.checks if c.name == "valuation-superadditivity"]
    return check.details, seen["state"]


@pytest.mark.parametrize("n_superadd", [0, 1, 127, 128, 129, 1000])
def test_superadditivity_sweep_blocks_draw_as_one_triple_at_a_time(
        monkeypatch, n_superadd):
    details, state = _superadd_sweep(monkeypatch, n_superadd)
    # the reference: from the state before the sweep, one triple at a time
    _, before = _superadd_sweep(monkeypatch, 0)
    rng = random.Random()
    rng.setstate(before)
    point, laurent, series = _input_draws(_random_model(), rng)
    bad = 0
    for _ in range(n_superadd):
        v, f = point(), laurent(2, 8, 0, 6)
        g = series(f.variables, 8, 0, 6)
        rep, = valuation_superadditivity_check([(v, f, g)])
        bad += not (rep.product_ok and rep.sum_ok)
    assert details == f"{bad} violations"
    assert state == rng.getstate()


def test_random_point_matches_fraction_formula():
    """Integer-normalized weights equal the Fraction formula q / total,
    draw for draw, and leave the generator in the same state."""
    model = _random_model()
    got_rng, ref_rng = random.Random(4242), random.Random(4242)
    point = _input_draws(model, got_rng)[0]
    forced = 0
    for _ in range(2000):
        v = point()
        stratum = ref_rng.choice(model.strata)
        raw = [Fraction(ref_rng.randint(0, 6), ref_rng.randint(1, 5))
               for _ in stratum]
        if all(q == 0 for q in raw):
            raw[ref_rng.randrange(len(raw))] = Fraction(1)
            forced += 1
        total = sum(
            (model.multiplicity(j) * q for j, q in zip(stratum, raw)),
            Fraction(0),
        )
        assert v.stratum == stratum
        assert v.weights == tuple(q / total for q in raw)
        assert all(type(w) is Fraction for w in v.weights)
    assert forced  # the all-zero draw was redrawn at least once
    assert got_rng.getstate() == ref_rng.getstate()


# n = 1, a power of two, 2^k + 1, a negative lo, ranges wider than 2^40,
# and the val-eval draws that reject some of their k bits
RANDINT_RANGES = [(5, 5), (0, 7), (-3, 12), (0, 16), (-10, 10),
                  (-2**41, 2**41 + 5), (0, 2**64), (0, 6), (1, 5)]


@pytest.mark.parametrize("lo,hi", RANDINT_RANGES)
def test_randint_helpers_draw_as_random_randint(lo, hi):
    # the generator's draw loops: a series' term count and exponents are
    # those of rng.randint, for every width of range
    labels = ("x1", "x2", "x3")
    for seed in range(100):
        ref, got = random.Random(seed), random.Random(seed)
        series = _input_draws(_random_model(), got)[2]
        for width in (1, 2, 3):
            f = series(labels[:width], 8, lo, hi)
            count = ref.randint(1, 8)
            want = {tuple(ref.randint(lo, hi) for _ in range(width))
                    for _ in range(count)}
            assert f.variables == labels[:width]
            assert f.terms == tuple((e, Coefficient.unit()) for e in sorted(want))
        assert got.getstate() == ref.getstate()
        # the streams stay aligned for whatever is drawn next
        assert got.random() == ref.random()


def test_randint_helpers_reject_an_empty_range():
    # an empty range would draw forever
    _, laurent, series = _input_draws(_random_model(), random.Random(0))
    with pytest.raises(ValueError, match="empty range"):
        series(("x1",), 8, 1, 0)
    with pytest.raises(ValueError, match="empty range"):
        series(("x1",), 0, 0, 6)
    for max_vars in (0, 5):
        with pytest.raises(ValueError, match="cannot sample"):
            laurent(max_vars, 8, 0, 6)


def _reference_point(model, rng):
    """A random point of ``model``, drawn with rng.choice and rng.randint."""
    stratum = rng.choice(model.strata)
    raw = [Fraction(rng.randint(0, 6), rng.randint(1, 5)) for _ in stratum]
    if not any(raw):
        raw[rng.randrange(len(raw))] = Fraction(1)
    total = sum((model.multiplicity(j) * q for j, q in zip(stratum, raw)),
                Fraction(0))
    return model.point(stratum, [q / total for q in raw])


def _reference_series(variables, rng, max_terms, lo, hi):
    terms = {tuple(rng.randint(lo, hi) for _ in variables)
             for _ in range(rng.randint(1, max_terms))}
    return LaurentSeriesData(variables, unit_terms(terms))


def _reference_laurent(model, rng, max_vars, max_terms, lo, hi):
    """Random Laurent data in ``model``'s labels, drawn with rng.randint
    and rng.sample."""
    variables = rng.sample(model.variable_labels(), rng.randint(1, max_vars))
    return _reference_series(tuple(variables), rng, max_terms, lo, hi)


def _same_series(got, want):
    return (type(got.variables) is tuple and got.variables == want.variables
            and got.terms == want.terms)


@pytest.mark.parametrize("seed", [0, 1, 7, 11, 20260810, 2**64 - 1])
def test_input_draws_match_the_random_reference(data_dir, seed):
    # val-eval's draws on its model, and retract's on the bundled models:
    # the same points and series as rng.choice, rng.randint and rng.sample
    # give, and the generator left in the same state
    retracted = load_models_with_pullbacks(
        [data_dir / "models" / f"{name}.json"
         for name in ("segment", "triangle", "blowup")])
    for model in [_random_model(), *retracted.values()]:
        got, ref = random.Random(seed), random.Random(seed)
        point, laurent, series = _input_draws(model, got)
        width = len(model.components)
        for _ in range(200):
            assert point() == _reference_point(model, ref)
            f = laurent(width, 8, -10, 10)
            assert _same_series(f, _reference_laurent(model, ref, width, 8, -10, 10))
            f = laurent(min(2, width), 8, 0, 6)
            assert _same_series(
                f, _reference_laurent(model, ref, min(2, width), 8, 0, 6))
            g = series(f.variables, 8, 0, 6)
            assert _same_series(g, _reference_series(f.variables, ref, 8, 0, 6))
        assert got.getstate() == ref.getstate()


def test_canonical_point_equals_validated_point(data_dir):
    models = [_random_model(), *load_models_with_pullbacks(
        sorted((data_dir / "models").glob("*.json"))).values()]
    rng = random.Random(2718)
    for model in models:
        point = _input_draws(model, rng)[0]
        for _ in range(300):
            got = point()
            want = model.point(got.stratum, got.weights)
            assert (got.model, got.stratum, got.weights) == \
                (want.model, want.stratum, want.weights)
            assert got == want and hash(got) == hash(want)
            assert all(type(w) is Fraction for w in got.weights)


def test_validating_point_rejects_outside_weights(segment, blowup):
    with pytest.raises(ValueError, match="^weights must be non-negative$"):
        QuasiMonomialPoint(segment, (0, 1), (Fraction(-1, 2), Fraction(3, 2)))
    with pytest.raises(ValueError, match=re.escape(
            "weight normalization sum a_j w_j = 5/4 != 1")):
        QuasiMonomialPoint(segment, (0, 1), (Fraction(3, 4), Fraction(1, 2)))
    with pytest.raises(ValueError, match=re.escape(
            "weight normalization sum a_j w_j = 2 != 1")):
        QuasiMonomialPoint(blowup, (2,), (Fraction(1),))


# ---------------------------------------------------------------------------
# the integer-lattice evaluation against plain Fraction arithmetic
# ---------------------------------------------------------------------------

# the largest primes below 10^12: pairwise coprime, so their lcm is the product
PRIMES = (999999999989, 999999999961, 999999999959, 999999999937)


def fraction_min_of_terms(f, weights):
    """The min formula in Fraction arithmetic, one Fraction per product."""
    if f.is_zero():
        return INF
    ws = [as_fraction(w) for w in weights]
    best = None
    for exp, _coef in f.terms:
        val = sum((w * e for w, e in zip(ws, exp)), Fraction(0))
        if best is None or val < best:
            best = val
    return best


WEIGHTS = st.one_of(
    st.integers(-20, 20),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(PRIMES)),
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_weighted_min_matches_fraction_arithmetic(data):
    k = data.draw(st.integers(0, 4), label="k")
    weights = data.draw(st.lists(WEIGHTS, min_size=k, max_size=k), label="w")
    exps = data.draw(st.lists(st.tuples(*[st.integers(-50, 50)] * k),
                              max_size=8, unique=True), label="exps")
    f = LaurentSeriesData([f"z{i}" for i in range(k)], unit_terms(exps))
    got = weighted_min_of_terms(f, weights)
    assert got == fraction_min_of_terms(f, weights)
    assert got == INF or type(got) is Fraction


def test_weighted_min_over_coprime_denominators():
    ws = [Fraction(1, p) for p in PRIMES]
    f = LaurentSeriesData(["a", "b", "c", "d"],
                          unit_terms([(1, -1, 0, 0), (0, 0, 1, -1), (3, 0, 0, 0)]))
    want = min(Fraction(1, PRIMES[0]) - Fraction(1, PRIMES[1]),
               Fraction(1, PRIMES[2]) - Fraction(1, PRIMES[3]))
    assert weighted_min_of_terms(f, ws) == want
    # an empty variable tuple has the single monomial 1, of value 0
    assert weighted_min_of_terms(LaurentSeriesData([], unit_terms([()])), []) == 0
    assert weighted_min_of_terms(LaurentSeriesData.zero([]), []) == INF


@given(pq=st.permutations(PRIMES), sign=st.sampled_from((1, -1)),
       lift=st.integers(-3, 3), other=st.integers(-5, 5))
@settings(max_examples=100, deadline=None)
def test_weighted_min_resolves_near_ties(pq, sign, lift, other):
    # m/p - n/q = sign/(pq), below 10^-23: the two values are that close
    p, q = pq[:2]
    m = sign * pow(q, -1, p) % p + lift * p
    n = (m * q - sign) // p
    f = LaurentSeriesData(["x", "y", "u"],
                          unit_terms([(m, 0, other), (0, n, other)]))
    ws = [Fraction(1, p), Fraction(1, q), 0]
    assert Fraction(m, p) - Fraction(n, q) == Fraction(sign, p * q)
    want = Fraction(n, q) if sign > 0 else Fraction(m, p)
    assert weighted_min_of_terms(f, ws) == want
    assert fraction_min_of_terms(f, ws) == want


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_brute_force_matches_qm_eval_with_identifications(data):
    model = _random_model()
    stratum = data.draw(st.sampled_from(model.strata), label="stratum")
    # weights over distinct prime denominators, so their lcm exceeds their
    # max; a_j <= 3 keeps the head's sum below 1, and the last weight
    # restores sum_j a_j w_j = 1
    m = 3 * len(stratum)
    dens = data.draw(st.lists(st.sampled_from((2, 3, 5, 7, 11) + PRIMES),
                              min_size=len(stratum) - 1,
                              max_size=len(stratum) - 1, unique=True), label="dens")
    head = [Fraction(data.draw(st.integers(0, d)), d * m) for d in dens]
    rest = 1 - sum((model.multiplicity(j) * w for j, w in zip(stratum, head)),
                   Fraction(0))
    point = model.point(stratum, head + [rest / model.multiplicity(stratum[-1])])
    labels = data.draw(st.lists(st.sampled_from(["x1", "x2", "x3", "x4", "u", "s"]),
                                min_size=1, max_size=4, unique=True), label="vars")
    # any subset of labels mapped to any component, inside the stratum or not
    ident = data.draw(st.dictionaries(st.sampled_from(labels),
                                      st.integers(0, 3)), label="ident")
    exps = data.draw(st.lists(st.tuples(*[st.integers(-30, 30)] * len(labels)),
                              min_size=1, max_size=8, unique=True), label="exps")
    f = LaurentSeriesData(labels, unit_terms(exps))
    want = qm_eval(point, f, ident)
    assert brute_force_min(point, f, ident) == want
    comps = [ident.get(x, model.component_index_by_equation(x)) for x in labels]
    assert want == fraction_min_of_terms(
        f, [0 if c is None else point.weight_of(c) for c in comps])


@pytest.mark.parametrize("den", [10**30, 999999999989 * 999999999961])
def test_normalization_rejects_sums_next_to_one(segment, den):
    for total in (Fraction(den + 1, den), Fraction(den - 1, den)):
        w1 = Fraction(1, 3)
        with pytest.raises(ValueError, match=re.escape(
                f"weight normalization sum a_j w_j = {total} != 1")):
            segment.point((0, 1), (w1, total - w1))
    segment.point((0, 1), (Fraction(1, 3), Fraction(2, 3)))


def test_point_errors_keep_their_messages(segment, blowup):
    with pytest.raises(ValueError, match="^weights must be non-negative$"):
        segment.point((0, 1), (Fraction(-1, 10**30), 1 + Fraction(1, 10**30)))
    with pytest.raises(ValueError, match=re.escape(
            "weight normalization sum a_j w_j = 3/2 != 1")):
        blowup.point((0, 2), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="^stratum/weight length mismatch$"):
        QuasiMonomialPoint(segment, (0, 1), (Fraction(1),))


def _names(code):
    """Global and attribute names of ``code`` and its nested code objects."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names(const)
    return names


def _berkhyb_calls(fn, seen=None):
    """The berkhyb functions that ``fn`` reaches through valuation's names."""
    seen = set() if seen is None else seen
    for name in _names(fn.__code__):
        obj = getattr(valuation, name, None)
        if (hasattr(obj, "__code__")
                and obj.__module__.startswith("berkhyb") and obj not in seen):
            seen.add(obj)
            _berkhyb_calls(obj, seen)
    return seen


def test_oracle_shares_no_helper_with_qm_eval():
    assert not _berkhyb_calls(qm_eval) & _berkhyb_calls(brute_force_min)
    assert weighted_min_of_terms in _berkhyb_calls(qm_eval)


def test_unit_coefficient_is_one_frozen_tag():
    assert Coefficient.unit() is Coefficient.unit()
    assert Coefficient.unit() == Coefficient("unit")
    assert LaurentSeriesData.monomial(["z"], (0,)).terms[0][1] is Coefficient.unit()


# ---------------------------------------------------------------------------
# exact values pinned against the Fraction implementation of the min formula
# ---------------------------------------------------------------------------

def _text(v) -> str:
    return v if v == INF else rat_to_str(v)


def sweep_digests(n: int = 2000, seed: int = 20220909) -> dict:
    """SHA-256 of the values on a seeded sweep of random points and Laurent
    data, half of them under an explicit identification."""
    model = _random_model()
    rng = random.Random(seed)
    point, laurent, _ = _input_draws(model, rng)
    out = {k: [] for k in ("qm_eval", "brute_force_min", "superadditivity")}
    for i in range(n):
        v = point()
        f = laurent(4, 8, -10, 10)
        ident = None
        if i % 2:
            ident = {x: rng.randrange(len(model.components))
                     for x in f.variables if rng.random() < 0.5}
        g = LaurentSeriesData(f.variables, unit_terms(
            {tuple(rng.randint(-10, 10) for _ in f.variables)
             for _ in range(rng.randint(1, 8))}))
        out["qm_eval"].append(_text(qm_eval(v, f, ident)))
        out["brute_force_min"].append(_text(brute_force_min(v, f, ident)))
        rep, = valuation_superadditivity_check([(v, f, g)], ident)
        out["superadditivity"].append(
            ",".join(f"{k}={_text(x)}" for k, x in sorted(rep.details.items())))
    return {k: hashlib.sha256("\n".join(vs).encode()).hexdigest()
            for k, vs in out.items()}


# taken with the Fraction implementation the integer lattice replaced
_VALUES = "ad1d425da045f7b0ebd713d193567272172c188ce9111c66e0ba4a10227a9431"
PINNED_SWEEP = {
    "qm_eval": _VALUES,
    "brute_force_min": _VALUES,
    "superadditivity":
        "efa109b77ef0d66ec1f0dce4be51eed9c479fa8cd5264d9cd698cc1e43bbd9fd",
}


def test_sweep_values_are_pinned():
    assert sweep_digests() == PINNED_SWEEP
