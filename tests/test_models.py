import random
import re
from fractions import Fraction

import pytest

from berkhyb.models import (
    Component,
    ModelInconsistencyError,
    ModelValidationError,
    MonomialPullback,
    SncModelCombinatorics,
    build_dual_complex,
    identity_pullback,
    retraction,
)
from berkhyb.harness import _input_draws, load_models_with_pullbacks
from berkhyb.valuation import (
    INF,
    LaurentSeriesData,
    QuasiMonomialPoint,
    divisorial_point,
    qm_eval,
)


def test_face_closure_enforced():
    with pytest.raises(ModelValidationError):
        SncModelCombinatorics(
            [Component("a", 1), Component("b", 1), Component("c", 1)],
            [[0], [1], [2], [0, 1, 2]],  # pairs missing
        )


def test_positive_multiplicities():
    with pytest.raises(ModelValidationError):
        SncModelCombinatorics([Component("a", 0)], [[0]])


def test_dual_complex_counts(segment, triangle, blowup):
    for model, expect_f in ((segment, [2, 1]), (triangle, [3, 3, 1]),
                            (blowup, [3, 2])):
        dc = build_dual_complex(model)
        assert dc.f_vector() == expect_f
        assert dc.vertex_count() == len(model.components)
        # independent subset enumeration of the declared strata
        by_dim = {}
        for s in model.strata:
            by_dim[len(s)] = by_dim.get(len(s), 0) + 1
        assert [by_dim[k] for k in sorted(by_dim)] == expect_f
        euler = sum((-1) ** k * n for k, n in enumerate(expect_f))
        assert dc.euler_characteristic() == euler == 1


def test_single_component_is_one_vertex():
    m = SncModelCombinatorics([Component("D", 1)], [[0]])
    assert build_dual_complex(m).f_vector() == [1]


def test_pullback_multiplicity_compatibility(segment):
    blow = SncModelCombinatorics(
        [Component("zp1", 1), Component("zp2", 1), Component("e", 2)],
        [[0], [1], [2], [0, 2], [1, 2]],
    )
    MonomialPullback(blow, segment, ((1, 0, 1), (0, 1, 1)))  # a'^T = a^T M
    with pytest.raises(ModelValidationError):
        MonomialPullback(blow, segment, ((1, 0, 2), (0, 1, 1)))


def test_cached_pullback_monomials_equal_fresh_ones(segment, blowup):
    for pb in (MonomialPullback(blowup, segment, ((1, 0, 1), (0, 1, 1))),
               identity_pullback(blowup)):
        for i in range(len(pb.target.components)):
            cached = pb.pullback_monomial(i)
            fresh = LaurentSeriesData.monomial(
                [c.label for c in pb.source.components], pb.matrix[i])
            assert (cached.variables, cached.terms) == \
                (fresh.variables, fresh.terms)
            assert pb.pullback_monomial(i) is cached


def test_retraction_identity_on_skeleton(segment, triangle):
    rng = random.Random(11)
    for model in (segment, triangle):
        pb = identity_pullback(model)
        for _ in range(30):
            stratum = rng.choice(model.strata)
            raw = [Fraction(rng.randint(0, 8), rng.randint(1, 5)) for _ in stratum]
            if all(q == 0 for q in raw):
                raw[0] = Fraction(1)
            tot = sum(
                (model.multiplicity(j) * q for j, q in zip(stratum, raw)),
                Fraction(0),
            )
            v = model.point(stratum, [q / tot for q in raw])
            assert retraction(model, v, pb).same_valuation(v)


def test_retraction_blowup_barycenter(segment, blowup):
    pb = MonomialPullback(blowup, segment, ((1, 0, 1), (0, 1, 1)))
    vE = divisorial_point(blowup, 2)
    out = retraction(segment, vE, pb)
    assert out.weights == (Fraction(1, 2), Fraction(1, 2))
    # pulled-back z1 evaluates to 1/2 at v_E (ord_E = 1, b_E = 2)
    assert qm_eval(vE, pb.pullback_monomial(0)) == Fraction(1, 2)


def test_retraction_halfedge_matrix_oracle(segment, blowup):
    pb = MonomialPullback(blowup, segment, ((1, 0, 1), (0, 1, 1)))
    for u_num in range(0, 21):
        u = Fraction(u_num, 20)
        s = (1 - u) / 2
        v = blowup.point((0, 2), (u, s))
        out = retraction(segment, v, pb)
        assert out.weight_map() == {
            j: w for j, w in enumerate((u + s, s)) if w != 0
        }
        total = sum(
            (segment.multiplicity(j) * w for j, w in out.weight_map().items()),
            Fraction(0),
        )
        assert total == 1


def test_retraction_unmatched_support_errors(segment):
    # a target model without the joint stratum cannot host the barycenter
    target = SncModelCombinatorics(
        [Component("w1", 1), Component("w2", 1)], [[0], [1]], name="disjoint"
    )
    blow = SncModelCombinatorics(
        [Component("zp1", 1), Component("zp2", 1), Component("e", 2)],
        [[0], [1], [2], [0, 2], [1, 2]],
    )
    pb = MonomialPullback(blow, target, ((1, 0, 1), (0, 1, 1)))
    with pytest.raises(ModelInconsistencyError):
        retraction(target, divisorial_point(blow, 2), pb)


@pytest.mark.parametrize("exp,total", [((1, -2), "-1/2"), ((3, 0), "3/2"),
                                       ((1, 0), "1/2")])
def test_retraction_rejects_negative_or_unnormalized_weights(segment, exp, total):
    # the retracted weight of the one-component target is v(w1^a w2^b) at
    # the barycenter of the segment; only 1 would be normalized
    target = SncModelCombinatorics([Component("D", 1)], [[0]], name="point")
    pb = MonomialPullback(segment, target, ((1, 1),))
    pb._monomials[0] = LaurentSeriesData.monomial(["w1", "w2"], exp)
    v = segment.point((0, 1), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ModelInconsistencyError, match=re.escape(
            f"retracted weights violate the simplex constraint: sum = {total}")):
        retraction(target, v, pb)
    pb._monomials[0] = LaurentSeriesData.monomial(["w1", "w2"], (1, 1))
    assert retraction(target, v, pb).weights == (Fraction(1),)


def test_model_json_round_trip(data_dir, segment, blowup):
    # the bundled model files, read through the harness, against the
    # models built in code
    registry = load_models_with_pullbacks(
        [data_dir / "models" / "segment.json", data_dir / "models" / "blowup.json"])
    for model in (segment, blowup):
        back = registry[model.name]
        assert (back.name, back.components, back.strata) == \
            (model.name, model.components, model.strata)
    (pb,) = registry["blowup"].pullbacks
    assert pb.target is registry["segment"]
    assert pb.matrix == ((1, 0, 1), (0, 1, 1))


def test_retraction_requires_matching_pullback(segment, triangle):
    pb = identity_pullback(segment)
    v = divisorial_point(triangle, 0)
    with pytest.raises(ModelInconsistencyError):
        retraction(segment, v, pb)


# ---------------------------------------------------------------------------
# the integer-lattice retraction against one qm_eval per target component
# ---------------------------------------------------------------------------

def reference_retraction(target, v, pullback):
    """retraction with Fraction weights w_i = qm_eval(v, pullback of z_i)."""
    if pullback.target is not target or pullback.source is not v.model:
        raise ModelInconsistencyError("pullback does not connect the given models")
    weights = []
    for i in range(len(target.components)):
        w = qm_eval(v, pullback.pullback_monomial(i))
        if w == INF:
            raise ModelInconsistencyError("pullback monomial evaluates to +inf")
        weights.append(w)
    support = tuple(i for i, w in enumerate(weights) if w > 0)
    candidates = [s for s in target.strata if set(support) <= set(s)]
    if not candidates:
        raise ModelInconsistencyError(
            f"support {support} not contained in any declared stratum")
    minimal = [s for s in candidates
               if not any(set(t) < set(s) for t in candidates)]
    if len(minimal) != 1:
        raise ModelInconsistencyError(
            f"ambiguous minimal stratum for support {support}: {minimal}")
    stratum = minimal[0]
    wvec = tuple(weights[i] for i in stratum)
    total = sum((target.multiplicity(i) * w for i, w in zip(stratum, wvec)),
                Fraction(0))
    if total != 1:
        raise ModelInconsistencyError(
            f"retracted weights violate the simplex constraint: sum = {total}")
    if any(w < 0 for w in wvec):
        raise ValueError("weights must be non-negative")
    return QuasiMonomialPoint(target, stratum, wvec)


def _outcome(target, v, pullback, retract):
    try:
        out = retract(target, v, pullback)
    except (ModelInconsistencyError, ValueError) as exc:
        return type(exc), str(exc)
    assert all(type(w) is Fraction for w in out.weights)
    return out.model, out.stratum, out.weights


def _pullbacks(data_dir):
    """(target, pullback) pairs over the five bundled models: each model's
    identity, blowup's pullback to segment, and targets that the blowup
    points reach outside a declared stratum, at an ambiguous minimal
    stratum, off the simplex, and with a negative weight."""
    registry = load_models_with_pullbacks(
        sorted((data_dir / "models").glob("*.json")))
    assert len(registry) == 5
    blow, seg = registry["blowup"], registry["segment"]
    pairs = [(m, identity_pullback(m)) for m in registry.values()]
    pairs.append((seg, blow.pullbacks[0]))
    edgeless = SncModelCombinatorics(
        [Component("w1", 1), Component("w2", 1)], [[0], [1]], name="edgeless")
    pairs.append((edgeless, MonomialPullback(blow, edgeless,
                                             ((1, 0, 1), (0, 1, 1)))))
    # e pulls back from neither component: v_E retracts to support ()
    pairs.append((seg, MonomialPullback(blow, seg, ((1, 0, 0), (0, 1, 0)))))
    point = SncModelCombinatorics([Component("D", 1)], [[0]], name="point")
    for exp in ((1, 0, 0), (1, -2, 1), (0, 0, 1), (1, 1, 1)):
        pb = MonomialPullback(blow, point, ((1, 1, 2),))
        pb._monomials[0] = LaurentSeriesData.monomial(["zp1", "zp2", "e"], exp)
        pairs.append((point, pb))
    pair = MonomialPullback(blow, seg, ((1, 0, 1), (0, 1, 1)))
    pair._monomials[1] = LaurentSeriesData.monomial(["zp1", "zp2", "e"], (-1, 0, 0))
    pairs.append((seg, pair))
    return pairs


def test_lattice_retraction_matches_qm_eval_reference(data_dir):
    rng = random.Random(20261019)
    messages = set()
    for target, pb in _pullbacks(data_dir):
        source = pb.source
        points = [divisorial_point(source, i) for i in range(len(source.components))]
        point = _input_draws(source, rng)[0]
        points += [point() for _ in range(60)]
        for v in points:
            got = _outcome(target, v, pb, retraction)
            assert got == _outcome(target, v, pb, reference_retraction), (
                target.name, v)
            if isinstance(got[0], type):
                messages.add(got[1])
    # the error paths are reached (a negative weight never is: by face
    # closure the stratum chosen for a nonempty support is the support)
    for reason in ("not contained in any declared stratum",
                   "ambiguous minimal stratum for support ()",
                   "violate the simplex constraint"):
        assert any(reason in msg for msg in messages), reason
