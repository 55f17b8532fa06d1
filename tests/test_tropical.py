import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berkhyb.exactnum import LogRVal
from berkhyb import harness
from berkhyb.manifest import ExperimentManifest, run
from berkhyb.harness import _LSE_CHUNK, _lse_draws, _lse_gaps, _splitmix64, \
    load_tfs_file
from berkhyb.tropical import (
    BasepointError,
    RegularityError,
    TropicalFSMetric,
    lse_max_gap,
    na_limit_tfs,
    restriction_values,
    tfs_eval,
    tfs_shift,
)
from berkhyb.valuation import LaurentSeriesData, divisorial_point


def mono(labels, exps):
    return LaurentSeriesData.monomial(labels, exps)


def one(labels):
    return LaurentSeriesData.monomial(labels, (0,) * len(labels))


@pytest.fixture()
def seg_labels():
    return ["w1", "w2"]


def random_points(model, rng, n):
    pts = []
    for _ in range(n):
        stratum = rng.choice(model.strata)
        raw = [Fraction(rng.randint(0, 8), rng.randint(1, 5)) for _ in stratum]
        if all(q == 0 for q in raw):
            raw[0] = Fraction(1)
        tot = sum(
            (model.multiplicity(j) * q for j, q in zip(stratum, raw)), Fraction(0)
        )
        pts.append(model.point(stratum, [q / tot for q in raw]))
    return pts


def test_trivial_metric_is_zero(segment, r, seg_labels):
    phi = TropicalFSMetric.build(1, [(one(seg_labels), 0)], one(seg_labels))
    for v in random_points(segment, random.Random(0), 20):
        assert tfs_eval(phi, v, r).is_zero()


def test_unit_term_wins_at_vertex(segment, r, seg_labels):
    # entries {1, z1}: at the w1-vertex, log r < 0 forces the unit to win
    phi = TropicalFSMetric.build(
        1, [(one(seg_labels), 0), (mono(seg_labels, (1, 0)), 0)], one(seg_labels)
    )
    v = divisorial_point(segment, 0)
    assert tfs_eval(phi, v, r) == LogRVal.of(0)


def test_kinked_family_hand_values(segment, r, seg_labels):
    # entries {t, z1} with t = w1 w2: kink where v(t)=1 meets v(z1)
    phi = TropicalFSMetric.build(
        1,
        [(mono(seg_labels, (1, 1)), 0), (mono(seg_labels, (1, 0)), 0)],
        one(seg_labels),
    )
    v1 = divisorial_point(segment, 0)   # w = (1, 0): both entries give log r
    v2 = divisorial_point(segment, 1)   # w = (0, 1): entries log r / 0
    midpoint = segment.point((0, 1), (Fraction(1, 2), Fraction(1, 2)))
    assert tfs_eval(phi, v1, r) == LogRVal(logr=1)
    assert tfs_eval(phi, v2, r) == LogRVal.of(0)
    assert tfs_eval(phi, midpoint, r) == LogRVal(logr=Fraction(1, 2))


def test_basepoint_error(segment, r, seg_labels):
    phi = TropicalFSMetric.build(
        1, [(LaurentSeriesData.zero(seg_labels), 0)], one(seg_labels)
    )
    with pytest.raises(BasepointError):
        tfs_eval(phi, divisorial_point(segment, 0), r)


def test_pointwise_semantics_against_brute_force(segment, triangle, r):
    rng = random.Random(42)
    for model in (segment, triangle):
        labels = model.variable_labels()
        ref = one(labels)

        def random_metric():
            entries = []
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 3) for _ in labels)
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                entries.append((mono(labels, exps), c))
            return TropicalFSMetric.build(1, entries, ref)

        pts = random_points(model, rng, 100)
        phi1 = random_metric()
        sh = tfs_shift(phi1, Fraction(5, 3))
        for v in pts:
            assert tfs_eval(sh, v, r) == tfs_eval(phi1, v, r) + Fraction(5, 3)


def test_max_idempotent_and_shift_round_trip(segment, r, seg_labels):
    phi = TropicalFSMetric.build(
        1,
        [(one(seg_labels), 0), (mono(seg_labels, (2, 1)), Fraction(1, 3))],
        one(seg_labels),
    )
    pts = random_points(segment, random.Random(1), 25)
    sh = tfs_shift(tfs_shift(phi, Fraction(7, 5)), Fraction(-7, 5))
    for v in pts:
        assert tfs_eval(sh, v, r) == tfs_eval(phi, v, r)


def test_na_limit_dual_route_and_kink_example(segment, r, seg_labels):
    # standard kinked family {1, t z1^{-1} * ...} realized as {1, w1}
    phi = TropicalFSMetric.build(
        1, [(one(seg_labels), 0), (mono(seg_labels, (1, 0)), 0)], one(seg_labels)
    )
    res = na_limit_tfs(phi, segment, r)
    assert res.dual_route_equal
    assert res.restriction_values[0] == LogRVal.of(0)  # unit entry dominates
    assert res.restriction_values[1] == LogRVal.of(0)
    res.pa.check_face_continuity()


def test_na_limit_trivial_and_shift(segment, r, seg_labels):
    ref = one(seg_labels)
    phi = TropicalFSMetric.build(1, [(ref, 0)], ref)
    res = na_limit_tfs(phi, segment, r)
    assert all(v.is_zero() for v in res.restriction_values.values())
    rich = TropicalFSMetric.build(
        1, [(ref, 0), (mono(seg_labels, (2, 0)), 1)], ref
    )
    base = na_limit_tfs(rich, segment, r)
    shifted = na_limit_tfs(tfs_shift(rich, Fraction(2, 9)), segment, r)
    for i in (0, 1):
        assert shifted.restriction_values[i] == \
            base.restriction_values[i] + Fraction(2, 9)
        assert shifted.formula_values[i] == base.formula_values[i] + Fraction(2, 9)


def test_quotients_computed_once_equal_fresh_ones(seg_labels):
    ref = mono(seg_labels, (1, 0))
    phi = TropicalFSMetric.build(
        2, [(mono(seg_labels, (2, 1)), 0), (mono(seg_labels, (3, 0)), 1)], ref)
    assert [(q.variables, q.terms, c) for q, c in phi.quotients] == [
        (phi.quotient(s).variables, phi.quotient(s).terms, c)
        for s, c in phi.entries]
    assert phi.quotients[0][0].terms[0][0] == (0, 1)


def test_na_limit_pole_detection(segment, r, seg_labels):
    from berkhyb.valuation import Coefficient

    pole = LaurentSeriesData(seg_labels, [((-1, 0), Coefficient.unit())])
    phi = TropicalFSMetric.build(1, [(pole, 0)], one(seg_labels))
    with pytest.raises(RegularityError):
        na_limit_tfs(phi, segment, r)
    ok = TropicalFSMetric.build(1, [(pole, 0)], one(seg_labels),
                                meromorphic_ok=True)
    res = na_limit_tfs(ok, segment, r)
    assert res.dual_route_equal


def test_tfs_json_round_trip(seg_labels, data_dir, tmp_path):
    # a tfs file, read through the harness, against the metric built in code
    phi = TropicalFSMetric.build(
        2,
        [(one(seg_labels), Fraction(1, 3)), (mono(seg_labels, (0, 2)), -1)],
        one(seg_labels),
    )

    def section(exp):
        return {"vars": list(seg_labels), "terms": [{"exp": exp, "coef": "unit"}]}

    path = tmp_path / "tfs.json"
    path.write_text(json.dumps({"model": "segment.json", "metric": {
        "m": 2, "reference": section([0, 0]),
        "entries": [{"section": section([0, 0]), "c": "1/3"},
                    {"section": section([0, 2]), "c": -1}]}}))
    model, back = load_tfs_file(path, data_dir / "models")
    assert model.name == "segment"
    assert (back.m, back.meromorphic_ok) == (phi.m, phi.meromorphic_ok)
    assert [(s.variables, s.terms, c) for s, c in back.entries] == \
        [(s.variables, s.terms, c) for s, c in phi.entries]
    assert back.reference.terms == phi.reference.terms


BUNDLED_TFS = ("tfs_segment.json", "tfs_blowinf.json", "tfs_triangle.json")


@pytest.mark.parametrize("name", BUNDLED_TFS)
@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4),
                               Fraction(99, 100)], ids=str)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(shift=st.fractions(min_value=-20, max_value=20, max_denominator=50))
def test_restriction_values_match_the_full_limit(data_dir, name, r, shift):
    # the shift and trivial checks of na-limit read the helper alone
    model, phi = load_tfs_file(data_dir / "families" / name, data_dir / "models")
    for metric in (phi, tfs_shift(phi, shift)):
        assert restriction_values(metric, model, r) == \
            na_limit_tfs(metric, model, r).restriction_values


def test_restriction_values_raise_at_a_base_point(segment, r, seg_labels):
    zero = LaurentSeriesData(seg_labels, [])
    phi = TropicalFSMetric.build(1, [(zero, 0)], one(seg_labels))
    with pytest.raises(BasepointError):
        restriction_values(phi, segment, r)


# ---------------------------------------------------------------------------
# log-sum-exp envelope
# ---------------------------------------------------------------------------

def test_lse_gap_worked_examples():
    assert lse_max_gap([3.0], 2) == 0.0
    assert lse_max_gap([0.0, 0.0], 1) == pytest.approx(math.log(2) / 2)


def test_lse_gap_reduces_the_last_axis():
    xs = np.random.default_rng(3).uniform(-10.0, 10.0, size=(5, 4))
    gaps = lse_max_gap(xs, 2)
    assert gaps.shape == (5,)
    assert list(gaps) == [lse_max_gap(row, 2) for row in xs]
    # no rows to reduce is an empty answer; an empty row is an error
    assert lse_max_gap(np.zeros((0, 3)), 1).shape == (0,)
    for bad in (np.zeros((3, 0)), 1.0, []):
        with pytest.raises(ValueError, match="non-empty"):
            lse_max_gap(bad, 1)


@given(
    xs=st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    m=st.integers(1, 3),
)
@settings(max_examples=500, deadline=None)
def test_lse_gap_bounds(xs, m):
    gap = lse_max_gap(xs, m)
    assert 0.0 <= gap <= math.log(len(xs)) / (2 * m) + 1e-12


@pytest.mark.parametrize("m", [1, 3, 10 ** 6])
@pytest.mark.parametrize("n", range(1, 9))
def test_lse_gap_is_zero_past_its_bound(n, m):
    # every other entry D = (64 log 2 + log N) / (2m) below the top: each
    # exp(2m (x - top)) is below 2^-64 / N, so the sum rounds to 1.0 and
    # the gap is +0.0, for a stack and for each of its rows
    d = (64.0 * math.log(2.0) + math.log(n)) / (2 * m)
    tops = np.array([0.0, 1.0, -37.25, 3e4, -1e6])
    rows = np.repeat(tops[:, None] - d, n, axis=1)
    rows[:, n // 2] = tops
    gaps = np.hstack([lse_max_gap(rows, m), *(lse_max_gap(row, m) for row in rows)])
    assert not gaps.view(np.uint64).any()


def _np_max_gap(values, m):
    """The gap through np.max over the last axis, as a reduction."""
    x = np.asarray(values, dtype=float)
    top = np.max(x, axis=-1, keepdims=True)
    gap = np.log(np.sum(np.exp(2 * m * (x - top)), axis=-1)) / (2 * m)
    return float(gap) if x.ndim == 1 else gap


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                          np.asarray(b, dtype=float).view(np.uint64))


@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_lse_gap_running_max_matches_np_max_bit_for_bit(m):
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 1.5, -math.inf, math.inf, math.nan]
    cases = [rng.uniform(-10.0, 10.0, size=shape)
             for shape in [(1,), (5,), (40, 1), (40, 8), (6, 7, 3), (2, 3, 4, 5)]]
    # ties, signed zeros, infinities and NaNs in every position of a row
    cases.append(np.array([list(row) for row in
                           itertools.product(special, repeat=3)]))
    cases.append(np.array([[2.0, 2.0, 2.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]))
    cases.append(np.array(special).reshape(2, 1, 3))
    cases += [np.array(row) for row in itertools.product(special, repeat=2)]
    with np.errstate(invalid="ignore"):
        for x in cases:
            got, want = lse_max_gap(x, m), _np_max_gap(x, m)
            assert type(got) is type(want)
            assert _same_bits(got, want), x


def test_lse_gap_leaves_its_input_alone():
    xs = np.random.default_rng(2).uniform(-1.0, 1.0, size=(9, 4))
    before = xs.copy()
    lse_max_gap(xs, 2)
    assert np.array_equal(xs, before)


@pytest.mark.parametrize("nn,mm", [(1, 1), (3, 2), (8, 3), (13, 1)])
def test_lse_sweep_chunks_draw_as_one_block(nn, mm):
    # a block of several chunks, the last one partial, then a block that
    # fits in one: the gaps are those of one draw of both blocks together
    count, first = 2 * _LSE_CHUNK + 123, 1000
    parts = list(_lse_gaps(5, first, count, nn, mm))
    assert [p.size for p in parts] == [_LSE_CHUNK, _LSE_CHUNK, 123]
    whole = _lse_draws(5, first, count + 7, nn)
    assert _same_bits(np.concatenate(parts), lse_max_gap(whole[:count], mm))
    (small,) = _lse_gaps(5, first + count * nn, 7, nn, mm)
    assert _same_bits(small, lse_max_gap(whole[count:], mm))
    assert list(_lse_gaps(5, first, 0, nn, mm)) == []



def test_lse_blocks_take_consecutive_draws(tmp_path, monkeypatch):
    # each (N, m) block starts at the draw where the one before it stopped
    blocks = []

    def recorded(seed, first, count, nn, mm):
        blocks.append((seed, first, count, nn))
        return _lse_gaps(seed, first, count, nn, mm)

    monkeypatch.setattr(harness, "_lse_gaps", recorded)
    man = tmp_path / "val_eval.json"
    man.write_text(json.dumps({
        "schema": "berkhyb-manifest-v1", "kind": "val-eval", "seed": 3,
        "inputs": {}, "params": {"n_random": 1, "n_superadd": 1, "n_gauss": 1,
                                 "lse": {"n_samples": 1001, "max_n": 3,
                                         "m_choices": [1, 2]}}}))
    assert run(ExperimentManifest.load(man)).passed()
    assert [(nn, count) for _, _, count, nn in blocks] == \
        [(1, 166), (1, 166), (2, 166), (2, 166), (3, 166), (3, 171)]
    drawn = 0
    for seed, first, count, nn in blocks:
        assert (seed, first) == (3, drawn)
        drawn += count * nn


_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
    return z ^ z >> 31


def test_splitmix64_known_answer():
    # the published outputs of SplitMix64 seeded with 1234567, drawn the
    # stateful way: add gamma to the state, then mix it
    state, stepped = 1234567, []
    for _ in range(5):
        state = state + _GAMMA & _MASK
        stepped.append(_mix(state))
    want = [6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]
    assert stepped == want
    assert _splitmix64(1234567, 0, 5).tolist() == want


@pytest.mark.parametrize("seed", [0, 1234567, 20260810, 2**64 - 1])
@pytest.mark.parametrize("first", [0, 2**32 - 3, 3 * 2**40 + 11])
def test_splitmix64_matches_the_python_reference(seed, first):
    # draw k is the mix of seed + (k + 1) gamma mod 2^64, at any k, and
    # each double is -10 + 20 u for u the draw's top 53 bits over 2^53
    ks = range(first, first + 40)
    draws = [_mix(seed + (k + 1) * _GAMMA & _MASK) for k in ks]
    got = _splitmix64(seed, first, 40)
    assert got.dtype == np.uint64 and got.tolist() == draws
    doubles = _lse_draws(seed, first, 8, 5)
    assert doubles.shape == (8, 5) and doubles.dtype == np.float64
    assert doubles.ravel().tolist() == [-10.0 + 20.0 * ((z >> 11) * 2.0**-53)
                                        for z in draws]


def test_lse_draws_lie_in_the_half_open_interval(monkeypatch):
    for seed in (0, 3, 2**64 - 1):
        xs = _lse_draws(seed, 0, 1 << 15, 8)
        assert -10.0 <= xs.min() and xs.max() < 10.0
    # the extreme draws: u = 0 and u = 1 - 2^-53, the largest
    monkeypatch.setattr(harness, "_splitmix64", lambda seed, first, count: np.array(
        [0, 2**11 - 1, _MASK - 2**11 + 1, _MASK], dtype=np.uint64))
    lo, lo_too, hi, hi_too = _lse_draws(0, 0, 4, 1).ravel().tolist()
    assert lo == lo_too == -10.0
    assert hi == hi_too == 10.0 - 2.0**-48
