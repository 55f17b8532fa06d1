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
from berkhyb.valuation import LaurentSeriesData, divisorial_point, qm_eval


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


def test_model_json_round_trip(blowup):
    back = SncModelCombinatorics.from_json(blowup.to_json())
    assert back.name == blowup.name
    assert [c.label for c in back.components] == [c.label for c in blowup.components]
    assert back.strata == blowup.strata


def test_retraction_requires_matching_pullback(segment, triangle):
    pb = identity_pullback(segment)
    v = divisorial_point(triangle, 0)
    with pytest.raises(ModelInconsistencyError):
        retraction(segment, v, pb)
