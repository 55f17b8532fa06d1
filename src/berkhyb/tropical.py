"""Tropical Fubini-Study metrics: exact evaluation, constant shifts, the
non-archimedean limit on a model, and the log-sum-exp envelope gap.

A metric is m^{-1} max over finitely many section entries of
(log|s_alpha| + c_alpha), stored relative to a monomial reference
trivialization at level one.  Exact evaluation at a quasi-monomial point
returns an element of the span {1, log r}; the base radius r in (0,1)
enters all order comparisons.

The checks of ``na-limit`` read these values: the dual-route and
face-continuity checks read ``na_limit_tfs`` of the metric (both routes
and the PA function on the dual complex); the constant-shift and
trivial-metric checks read only ``restriction_values``, the direct
restriction at the divisorial points, of the shifted metric and of
reference^m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import LogRVal, as_fraction, logr_max, logr_min
from .models import SncModelCombinatorics, build_dual_complex
from .pafunc import PAFunctionOnComplex
from .valuation import (
    INF,
    ConfigurationError,
    LaurentSeriesData,
    QuasiMonomialPoint,
    divisorial_point,
    qm_eval,
)


class BasepointError(ValueError):
    """Every entry evaluates to -infinity at a point."""


class RegularityError(ValueError):
    """A section has a pole along a component but was not marked meromorphic."""


def _monomial_exponent(s: LaurentSeriesData) -> tuple[int, ...]:
    if len(s.terms) != 1:
        raise ConfigurationError("reference trivialization must be a monomial")
    return s.terms[0][0]


@dataclass(frozen=True)
class TropicalFSMetric:
    """m^{-1} max_alpha (log|s_alpha| + c_alpha), relative to a reference.

    ``quotients`` pairs each s_alpha / reference^m with its c_alpha; it is
    computed once, at construction.
    """

    m: int
    entries: tuple[tuple[LaurentSeriesData, Fraction], ...]
    reference: LaurentSeriesData
    meromorphic_ok: bool = False
    quotients: tuple[tuple[LaurentSeriesData, Fraction], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("denominator m must be positive")
        if not self.entries:
            raise ValueError("entry list must be non-empty")
        _monomial_exponent(self.reference)
        for s, _c in self.entries:
            if s.variables != self.reference.variables:
                raise ConfigurationError("incompatible variable sets")
        object.__setattr__(self, "quotients", tuple(
            (self.quotient(s), c) for s, c in self.entries))

    @classmethod
    def build(cls, m, entries, reference, meromorphic_ok=False):
        ents = tuple((s, as_fraction(c)) for s, c in entries)
        return cls(int(m), ents, reference, meromorphic_ok)

    def quotient(self, s: LaurentSeriesData) -> LaurentSeriesData:
        """s / reference^m as Laurent data (exponent shift)."""
        ref = _monomial_exponent(self.reference)
        shift = tuple(-self.m * e for e in ref)
        return LaurentSeriesData(
            s.variables,
            [(tuple(a + b for a, b in zip(exp, shift)), c) for exp, c in s.terms],
        )


def tfs_eval(phi: TropicalFSMetric, v: QuasiMonomialPoint, r: Fraction) -> LogRVal:
    """Exact relative potential m^{-1} max_a ((log r) qm_eval(v, s_a/ref^m) + c_a).

    log r < 0, so among entries with equal constants the max is realized
    by the smallest valuation part.
    """
    candidates = []
    for q, c in phi.quotients:
        val = qm_eval(v, q)
        if val == INF:
            continue
        candidates.append(LogRVal(const=c, logr=val))
    if not candidates:
        raise BasepointError("all entries evaluate to -infinity at the point")
    return logr_max(candidates, r) / phi.m


def tfs_shift(phi: TropicalFSMetric, c) -> TropicalFSMetric:
    cf = as_fraction(c)
    return TropicalFSMetric.build(
        phi.m,
        [(s, ca + phi.m * cf) for s, ca in phi.entries],
        phi.reference,
        phi.meromorphic_ok,
    )


def restriction_values(phi: TropicalFSMetric, model: SncModelCombinatorics,
                       r: Fraction) -> dict:
    """Direct restriction of phi to Sk(model): component -> tfs_eval at its
    divisorial point.  Raises BasepointError where every entry is -infinity."""
    return {i: tfs_eval(phi, divisorial_point(model, i), r)
            for i in range(len(model.components))}


@dataclass
class NALimitResult:
    """Relative non-archimedean limit of a tropical family on a model."""

    pa: PAFunctionOnComplex
    formula_values: dict      # component -> (log r / b_E) * Lelong-number route
    restriction_values: dict  # component -> direct tfs_eval at the divisorial point
    dual_route_equal: bool


def na_limit_tfs(phi: TropicalFSMetric, model: SncModelCombinatorics,
                 r: Fraction) -> NALimitResult:
    """Non-archimedean limit potential psi = phi_0 - phi_ref on Sk(model).

    At each divisorial point the value is computed twice: through the
    generic-Lelong-number formula min_a(ord_E(s_a/ref^m) + c_a b_E / log r)
    scaled by log r / b_E, and as the direct restriction via tfs_eval.
    Both are exact and must agree; the PA output interpolates the vertex
    values barycentrically on every simplex.
    """
    formula = {}
    n = len(model.components)
    for i in range(n):
        b = model.multiplicity(i)
        v = divisorial_point(model, i)
        candidates = []
        for q, c in phi.quotients:
            val = qm_eval(v, q)
            if val == INF:
                continue
            ord_e = b * val  # ord_E = b_E * v_E on the quotient
            if ord_e < 0 and not phi.meromorphic_ok:
                raise RegularityError(
                    f"section has a pole along component {i} (ord = {ord_e})"
                )
            candidates.append(LogRVal(const=ord_e, invlogr=c * b))
        if not candidates:
            raise BasepointError(f"no entry is finite at component {i}")
        nu = logr_min(candidates, r)
        formula[i] = LogRVal(logr=Fraction(1, b)) * nu / phi.m
    # every component has a finite entry by now, so this raises nothing
    restrict = restriction_values(phi, model, r)
    equal = all(formula[i] == restrict[i] for i in range(n))
    complex_ = build_dual_complex(model)
    pieces = {}
    for simplex in complex_.simplices:
        g_logr, g_const = [], []
        for j in simplex:
            a = model.multiplicity(j)
            vj = restrict[j]
            if vj.c != 0:
                raise ArithmeticError("unexpected 1/log r part in limit value")
            g_logr.append(a * vj.b)
            g_const.append(a * vj.a)
        pieces[simplex] = (tuple(g_logr), tuple(g_const))
    pa = PAFunctionOnComplex(complex_, pieces)
    return NALimitResult(pa, formula, restrict, equal)


def lse_max_gap(values, m: int) -> float | np.ndarray:
    """chi(x) - max(x) with chi = (2m)^{-1} log sum exp(2m x_i); in [0, log N / 2m].

    Reduces over the last axis: a float for a vector, else an array.
    """
    import numpy as np

    x = np.asarray(values, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("need a non-empty vector")
    if m <= 0:
        raise ValueError("m must be positive")
    # a running max over the few entries of each row: a max is exact, so
    # it equals np.max, which pays a reduction call per row
    top = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j], out=top)
    z = np.subtract(x, top[..., None])
    z *= 2 * m
    np.exp(z, out=z)
    gap = np.log(np.sum(z, axis=-1)) / (2 * m)
    return float(gap) if x.ndim == 1 else gap
