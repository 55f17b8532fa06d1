"""Combinatorics of snc models: components, strata, dual complexes,
monomial pullbacks between models, and the retraction onto skeleta.

Models are purely combinatorial input (components with multiplicities,
declared strata, optional pullback matrices); nothing is computed from
equations.  Connectedness of strata is declared, not verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .exactnum import _lattice, as_fraction
from .valuation import LaurentSeriesData, QuasiMonomialPoint, _lattice_min


class ModelValidationError(ValueError):
    pass


class ModelInconsistencyError(ValueError):
    pass


@dataclass(frozen=True)
class Component:
    label: str
    multiplicity: int
    zval: Fraction | None = None  # optional v_{D_i}(z) coordinate for curve models


@dataclass(frozen=True)
class MonomialPullback:
    """Monomial transition data between two models.

    ``matrix[i][k]``: the target local equation z_i pulls back to
    prod_k (z'_k)^{matrix[i][k]} times a unit.  Multiplicity
    compatibility a'^T = a^T M holds on matching charts.  The matrix is
    immutable, so each pullback monomial is built once.
    """

    source: "SncModelCombinatorics"
    target: "SncModelCombinatorics"
    matrix: tuple[tuple[int, ...], ...]
    _monomials: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        nt = len(self.target.components)
        ns = len(self.source.components)
        if len(self.matrix) != nt or any(len(row) != ns for row in self.matrix):
            raise ModelValidationError("pullback matrix shape mismatch")
        if any(e < 0 for row in self.matrix for e in row):
            raise ModelValidationError("pullback exponents must be non-negative")
        a_src = [c.multiplicity for c in self.source.components]
        a_tgt = [c.multiplicity for c in self.target.components]
        for k in range(ns):
            derived = sum(a_tgt[i] * self.matrix[i][k] for i in range(nt))
            if derived != 0 and derived != a_src[k]:
                raise ModelValidationError(
                    f"multiplicity incompatibility at source component {k}: "
                    f"a^T M = {derived}, a' = {a_src[k]}"
                )

    def pullback_monomial(self, i: int) -> LaurentSeriesData:
        """The target equation z_i as a monomial in source variables."""
        mono = self._monomials.get(i)
        if mono is None:
            mono = self._monomials[i] = LaurentSeriesData.monomial(
                self.source.variable_labels(), self.matrix[i])
        return mono


class SncModelCombinatorics:
    """Special fiber sum a_i D_i with declared strata."""

    def __init__(self, components: Sequence[Component], strata: Sequence[Sequence[int]],
                 name: str = "model"):
        self.name = name
        self.components = tuple(components)
        if any(c.multiplicity <= 0 for c in self.components):
            raise ModelValidationError("multiplicities must be strictly positive")
        n = len(self.components)
        # component_index_by_equation looks components up by label
        self._eq_index = {}
        for i, c in enumerate(self.components):
            if self._eq_index.setdefault(c.label, i) != i:
                raise ModelValidationError(
                    f"components[{i}].label: duplicate component label {c.label!r}")
        declared = {}  # stratum -> index of its first declaration
        for k, s in enumerate(strata):
            # 0.0 or True would pass the range test below and hash like 0
            if any(type(i) is not int for i in s):
                raise ModelValidationError(
                    f"strata[{k}]: indices must be integers, got {s!r}")
            s = tuple(sorted(set(s)))
            if any(i < 0 or i >= n for i in s) or not s:
                raise ModelValidationError(f"strata[{k}]: bad stratum {s}")
            declared.setdefault(s, k)
        # every vertex is a stratum, so only faces of two or more vertices
        # can be missing
        for s, k in declared.items():
            for j in range(2, len(s)):
                for sub in combinations(s, j):
                    if sub not in declared:
                        raise ModelValidationError(
                            f"strata[{k}]: not face-closed: {sub} missing under {s}")
        self.strata = tuple(sorted({*declared, *((i,) for i in range(n))},
                                   key=lambda s: (len(s), s)))
        self.pullbacks: list[MonomialPullback] = []

    # -- accessors -------------------------------------------------------
    def has_component(self, i: int) -> bool:
        return 0 <= i < len(self.components)

    def multiplicity(self, i: int) -> int:
        return self.components[i].multiplicity

    def component_index_by_equation(self, label: str):
        return self._eq_index.get(label)

    def variable_labels(self) -> list[str]:
        return [c.label for c in self.components]

    def point(self, stratum, weights) -> QuasiMonomialPoint:
        return QuasiMonomialPoint(
            self,
            tuple(stratum),
            tuple(map(as_fraction, weights)),
        )

    def uniformizer(self) -> LaurentSeriesData:
        """t = prod z_j^{a_j} as Laurent data over all component equations."""
        return LaurentSeriesData.monomial(
            self.variable_labels(), [c.multiplicity for c in self.components]
        )


class DualComplex:
    """One simplex per declared stratum, the stratum's tuple of component
    indices; faces from subset relations."""

    def __init__(self, model: SncModelCombinatorics):
        self.model = model
        self.simplices = model.strata

    def faces_of(self, stratum) -> list[tuple[int, ...]]:
        s = set(stratum)
        return [t for t in self.simplices if set(t) < s]

    def vertex_count(self) -> int:
        return sum(1 for s in self.simplices if len(s) == 1)

    def f_vector(self) -> list[int]:
        top = max(len(s) for s in self.simplices)
        fv = [0] * top
        for s in self.simplices:
            fv[len(s) - 1] += 1
        return fv

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))


def build_dual_complex(model: SncModelCombinatorics) -> DualComplex:
    """Dual complex of the special fiber (perfbench traces this name)."""
    return DualComplex(model)


def retraction(
    target: SncModelCombinatorics,
    v: QuasiMonomialPoint,
    pullback: MonomialPullback,
) -> QuasiMonomialPoint:
    """Berkovich retraction onto Sk(target): weights w_i = v(pullback of z_i).

    The output support is snapped to the minimal declared stratum
    containing it; ambiguity between several incomparable minimal strata
    is an error, as is a support contained in no declared stratum.

    Each w_i is qm_eval's min-formula, taken on integers: v's weights are
    put over their common denominator once, and Fractions are built only
    for the stratum returned.
    """
    if pullback.target is not target or pullback.source is not v.model:
        raise ModelInconsistencyError("pullback does not connect the given models")
    # v's weights on one lattice: weight_of(j) = nums[j] / den, where
    # weight_of takes the first entry of j in the stratum
    lattice, den = _lattice(v.weights)
    nums = dict(zip(reversed(v.stratum), reversed(lattice)))
    index = v.model.component_index_by_equation
    per_var = {}  # variable labels -> their numerators, as in qm_eval
    values = []  # the value w_i = values[i] / den of each target component
    for i in range(len(target.components)):
        mono = pullback.pullback_monomial(i)
        if mono.is_zero():
            raise ModelInconsistencyError("pullback monomial evaluates to +inf")
        labels = mono.variables
        if labels not in per_var:
            per_var[labels] = [nums.get(index(label), 0) for label in labels]
        values.append(_lattice_min(mono, per_var[labels]))
    support = tuple(i for i, w in enumerate(values) if w > 0)
    candidates = [(s, set(s)) for s in target.strata if set(support) <= set(s)]
    if not candidates:
        raise ModelInconsistencyError(
            f"support {support} not contained in any declared stratum"
        )
    minimal = [
        s for s, ss in candidates if not any(t < ss for _, t in candidates)
    ]
    if len(minimal) != 1:
        raise ModelInconsistencyError(
            f"ambiguous minimal stratum for support {support}: {minimal}"
        )
    stratum = minimal[0]
    total = sum(target.multiplicity(i) * values[i] for i in stratum)
    if total != den:
        raise ModelInconsistencyError(
            "retracted weights violate the simplex constraint: "
            f"sum = {Fraction(total, den)}"
        )
    # no value is < 0, as MonomialPullback exponents and v's weights are >= 0;
    # with the simplex sum above, both QuasiMonomialPoint checks hold
    return QuasiMonomialPoint._canonical(
        target, stratum, tuple([Fraction(values[i], den) for i in stratum]))


def identity_pullback(model: SncModelCombinatorics) -> MonomialPullback:
    n = len(model.components)
    eye = tuple(tuple(1 if i == k else 0 for k in range(n)) for i in range(n))
    return MonomialPullback(model, model, eye)
