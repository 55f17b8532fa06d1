"""Quasi-monomial, divisorial and Gauss-extended valuations on Laurent data.

A Laurent element is a finite set of terms c_beta * z^beta with beta in Z^k.
Monomial valuations only consult which exponents carry a nonzero
coefficient, so coefficients are stored as tags: ``unit`` for a nonzero
coefficient whose value is irrelevant, or an explicit complex-rational
pair used by the numeric hybrid layer.  The zero element is the empty
term list and evaluates to +infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Callable, Mapping, Sequence

from .exactnum import Rat, _lattice, as_fraction

INF = "inf"  # distinguished +infinity marker for valuation values
_ZERO = Fraction(0)


class ConfigurationError(ValueError):
    """Inconsistent identification between data and model variables."""


@dataclass(frozen=True)
class Coefficient:
    """Coefficient tag: unit, or an explicit complex rational (re, im)."""

    kind: str  # "unit" | "explicit"
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def unit(cls) -> "Coefficient":
        return _UNIT

    @classmethod
    def explicit(cls, re: Rat, im: Rat = 0) -> "Coefficient":
        return cls("explicit", as_fraction(re), as_fraction(im))

    def is_zero(self) -> bool:
        return self.kind == "explicit" and self.re == 0 and self.im == 0

    def mul(self, other: "Coefficient") -> "Coefficient":
        if self.kind == "unit" or other.kind == "unit":
            return _UNIT
        return Coefficient.explicit(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def add(self, other: "Coefficient") -> "Coefficient":
        # unit + unit is "nonzero unknown"; exact cancellation is only
        # detected for explicit coefficients.
        if self.kind == "unit" or other.kind == "unit":
            return Coefficient.unit()
        return Coefficient.explicit(self.re + other.re, self.im + other.im)

    def complex_value(self) -> complex:
        if self.kind == "unit":
            return 1.0 + 0j
        return complex(float(self.re), float(self.im))


_UNIT = Coefficient("unit")  # frozen, so every unit tag can be this one


class LaurentSeriesData:
    """Finite Laurent term data over ordered variable labels.

    Terms are kept sorted by lexicographic exponent order so iteration is
    reproducible.  Duplicate exponents are rejected at construction and
    terms with a zero coefficient are dropped.
    """

    def __init__(self, variables: Sequence[str], terms=()):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ConfigurationError("duplicate variable labels")
        k = len(self.variables)
        seen = {}
        for exp, coef in terms:
            exp = tuple(int(e) for e in exp)
            if len(exp) != k:
                raise ConfigurationError("exponent length does not match variables")
            if not isinstance(coef, Coefficient):
                raise TypeError("coefficient must be a Coefficient tag")
            if coef.is_zero():
                continue
            if exp in seen:
                raise ValueError(f"duplicate exponent {exp}")
            seen[exp] = coef
        self.terms = tuple(sorted(seen.items()))

    @classmethod
    def _canonical(cls, variables: tuple, terms: tuple) -> "LaurentSeriesData":
        """Trusted constructor for terms already in the form ``__init__``
        leaves them.

        ``variables`` is a tuple of distinct labels and ``terms`` a tuple
        of (exponent, tag) pairs sorted by exponent: distinct int tuples of
        its length, each with a nonzero Coefficient tag.
        """
        self = cls.__new__(cls)
        self.variables = variables
        self.terms = terms
        return self

    @classmethod
    def _collected(cls, variables: tuple, acc: dict) -> "LaurentSeriesData":
        """``acc`` maps distinct int tuples of the length of ``variables``
        to Coefficient tags; its nonzero terms, sorted."""
        return cls._canonical(variables, tuple(sorted(
            [(e, c) for e, c in acc.items() if c is _UNIT or not c.is_zero()])))

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, variables: Sequence[str]) -> "LaurentSeriesData":
        return cls(variables, [])

    @classmethod
    def monomial(cls, variables: Sequence[str], exp, coef: Coefficient | None = None):
        return cls(variables, [(tuple(exp), coef or Coefficient.unit())])

    def is_zero(self) -> bool:
        return not self.terms

    # -- formal algebra (support-level; used by property checks) --------
    def formal_sum(self, other: "LaurentSeriesData") -> "LaurentSeriesData":
        if self.variables != other.variables:
            raise ConfigurationError("variable mismatch in sum")
        acc = dict(self.terms)
        for exp, c in other.terms:
            acc[exp] = acc[exp].add(c) if exp in acc else c
        return LaurentSeriesData._collected(self.variables, acc)

    def formal_product(self, other: "LaurentSeriesData") -> "LaurentSeriesData":
        if self.variables != other.variables:
            raise ConfigurationError("variable mismatch in product")
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exp = tuple(map(add, e1, e2))
                if c1 is _UNIT or c2 is _UNIT:
                    acc[exp] = _UNIT  # a unit tag plus any tag is the unit tag
                else:
                    c, c0 = c1.mul(c2), acc.get(exp)
                    acc[exp] = c if c0 is None else c0.add(c)
        return LaurentSeriesData._collected(self.variables, acc)

    def __repr__(self):
        if self.is_zero():
            return "Laurent(0)"
        bits = []
        for exp, _ in self.terms:
            mono = "*".join(
                f"{v}^{e}" for v, e in zip(self.variables, exp) if e != 0
            )
            bits.append(mono or "1")
        return "Laurent(" + " + ".join(bits) + ")"


def simplex_sum(model, stratum: Sequence[int],
                weights: Sequence[Fraction]) -> tuple[int, int]:
    """sum_j a_j w_j as the integer pair (sum_j a_j n_j, den), where n_j are
    the numerators of the weights over their common denominator den; the
    weights satisfy the simplex normalization exactly when the two agree."""
    nums, den = _lattice(weights)
    return sum(model.multiplicity(j) * n for j, n in zip(stratum, nums)), den


@dataclass(frozen=True)
class QuasiMonomialPoint:
    """A stratum of an snc model with a rational weight vector.

    The normalization sum_j a_j w_j = 1 (exact) pins v(t) = 1 for the
    uniformizer t = prod z_j^{a_j}.
    """

    model: "object"  # SncModelCombinatorics; kept loose to avoid an import cycle
    stratum: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.stratum) != len(self.weights):
            raise ValueError("stratum/weight length mismatch")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        total, den = simplex_sum(self.model, self.stratum, self.weights)
        if total != den:
            raise ValueError(
                f"weight normalization sum a_j w_j = {Fraction(total, den)} != 1")

    @classmethod
    def _canonical(cls, model, stratum: tuple, weights: tuple) -> "QuasiMonomialPoint":
        """Trusted constructor for a point already known to be valid.

        ``stratum`` is a tuple of component indices of ``model`` and
        ``weights`` a tuple of as many non-negative Fractions with
        sum_j a_j w_j = 1, so ``__post_init__`` has nothing to check.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "stratum", stratum)
        object.__setattr__(self, "weights", weights)
        return self

    def weight_of(self, j: int) -> Fraction:
        for jj, w in zip(self.stratum, self.weights):
            if jj == j:
                return w
        return _ZERO

    def weight_map(self) -> dict:
        """Nonzero weights by component index (the canonical form)."""
        return {j: w for j, w in zip(self.stratum, self.weights) if w != 0}

    def same_valuation(self, other: "QuasiMonomialPoint") -> bool:
        """Equality as points of the skeleton, ignoring zero-weight padding."""
        return self.model is other.model and self.weight_map() == other.weight_map()


def qm_eval(
    point: QuasiMonomialPoint,
    f: LaurentSeriesData,
    identification: Mapping[str, int] | None = None,
):
    """Quasi-monomial value: min over stored terms of <w, beta>.

    ``identification`` maps variable labels of ``f`` to component indices
    of the point's model.  Unmapped labels are treated as units at the
    stratum's generic point and contribute 0; labels mapped to components
    outside the stratum likewise contribute 0.  Returns an exact Fraction,
    or INF for the zero element.
    """
    return weighted_min_of_terms(
        f, _variable_weights(point, f.variables, identification))


def _variable_weights(point: QuasiMonomialPoint, variables: Sequence[str],
                      identification: Mapping[str, int] | None) -> list[Fraction]:
    """The weight of each variable label at ``point`` (see qm_eval)."""
    ident = dict(identification) if identification is not None else {}
    for label in ident:
        if label not in variables:
            raise ConfigurationError(f"unknown variable label {label!r}")
        if not point.model.has_component(ident[label]):
            raise ConfigurationError(f"label {label!r} mapped to missing component")
    per_var = []
    for label in variables:
        if label in ident:
            per_var.append(point.weight_of(ident[label]))
        else:
            # default identification: label equals a component's local
            # equation name, otherwise a unit
            idx = point.model.component_index_by_equation(label)
            per_var.append(point.weight_of(idx) if idx is not None else _ZERO)
    return per_var


def weighted_min_of_terms(f: LaurentSeriesData, weights: Sequence[Rat]):
    """Monomial-valuation formula min over terms of <w, beta>, bare weights.

    This is the evaluation core of qm_eval; it is also used directly for
    path-limit predictions where v(z) = w, v(t) = 1 carries no simplex
    normalization.  The min runs over integers: each weight is scaled to
    the common denominator ``den``, and one Fraction is built at the end.
    """
    if f.is_zero():
        return INF
    ws = [as_fraction(w) for w in weights]
    if len(ws) != len(f.variables):
        raise ConfigurationError("weight vector length mismatch")
    nums, den = _lattice(ws)
    return Fraction(_lattice_min(f, nums), den)


def _lattice_min(f: LaurentSeriesData, nums: Sequence[int]) -> int:
    """min over the terms of nonzero ``f`` of <nums, beta>."""
    return min(sum(map(mul, nums, exp)) for exp, _coef in f.terms)


def brute_force_min(point: QuasiMonomialPoint, f: LaurentSeriesData,
                    identification: Mapping[str, int] | None = None):
    """Independent oracle for qm_eval: explicit enumeration of <w, beta>.

    Kept deliberately separate from qm_eval's code path (no shared term
    iteration) so the two can cross-check each other.  Values are integers
    over its own common denominator, that of all the point's weights: each
    label's component and weight are looked up once, scaled to it.
    """
    if f.is_zero():
        return INF
    ident = dict(identification) if identification is not None else {}
    den = lcm(*(w.denominator for w in point.weights))
    scaled = []
    for label in f.variables:
        comp = (ident[label] if label in ident
                else point.model.component_index_by_equation(label))
        w = _ZERO if comp is None else point.weight_of(comp)
        scaled.append(w.numerator * (den // w.denominator))
    values = []
    for exp, _c in f.terms:
        total = 0
        for s, e in zip(scaled, exp):
            total += s * e
        values.append(total)
    return Fraction(min(values), den)


def divisorial_point(model, i: int) -> QuasiMonomialPoint:
    """Vertex point v_{D_i} = a_i^{-1} ord_{D_i} of the dual complex."""
    if not model.has_component(i):
        raise IndexError(f"no component with index {i}")
    a = model.multiplicity(i)
    return QuasiMonomialPoint(model, (i,), (Fraction(1, a),))


def gauss_extension(coeff_valuation: Callable[[object], object],
                    series: Sequence[tuple[int, object]]):
    """Gauss lift gamma(v)(S) = min_n (v(s_n) + n) for S = sum s_n t^n.

    ``series`` is a finite list of (n, handle); the oracle maps a handle
    to a Fraction or INF.  Empty input is the zero element, value INF.
    """
    best = None
    for n, handle in series:
        v = coeff_valuation(handle)
        if v == INF:
            continue
        val = as_fraction(v) + n
        if best is None or val < best:
            best = val
    return INF if best is None else best


# The guard of a superadditivity batch keeps every weight, summed
# exponent, inner product, key and sum of two minima below _I64_SAFE in
# magnitude, so _ABSENT, the minimum over no terms, lies above them all.
_I64_SAFE = 1 << 62
_ABSENT = _I64_SAFE


@dataclass
class SuperadditivityReport:
    """One row of a superadditivity batch: the three verdicts, the number
    of distinct exponents of fg, and the minima of <nums, beta> over the
    terms of f, g, fg and f + g (None for the zero element), with nums
    the row's weights over their common denominator ``den``."""

    product_ok: bool
    product_equality: bool
    sum_ok: bool
    product_terms: int
    minima: tuple
    den: int

    @property
    def details(self) -> dict:
        """The four values, built when read."""
        vf, vg, vfg, vs = (INF if m is None else Fraction(m, self.den)
                           for m in self.minima)
        return {"v(f)": vf, "v(g)": vg, "v(fg)": vfg, "v(f+g)": vs}


def valuation_superadditivity_check(
    rows: Sequence[tuple[QuasiMonomialPoint, LaurentSeriesData, LaurentSeriesData]],
    identification: Mapping[str, int] | None = None,
) -> list[SuperadditivityReport]:
    """Check v(fg) >= v(f) + v(g) and v(f+g) >= min(v(f), v(g)) on each
    ``(point, f, g)`` row, as one int64 batch; one report per row.

    Each row's weights are those of qm_eval under ``identification``,
    cleared to integers over their common denominator.  The exponents of
    all rows are padded with zeros to the widest row and the longest f
    and g, so one array op serves the batch:

    - v(f) and v(g) are the minima of <nums, beta> over the stored terms;
    - v(fg) is the minimum over every pair of a term of f and one of g,
      taken on the summed exponents (the support of the formal product);
    - v(f+g) is the minimum over the union of the terms of f and g;
    - the product's exponents are numbered in one mixed radix and sorted,
      so a row counts the distinct ones (``product_terms``); with no
      collision the first inequality must be an equality
      (``product_equality``).

    The supports are those of ``formal_product`` and ``formal_sum`` on
    unit tags.  No tag is consulted: explicit coefficients that cancel
    would drop terms there, which can only raise v(fg) and v(f+g), so
    no verdict differs.  Exactness needs every value inside int64: with
    w the largest weight numerator, e_f and e_g the largest exponents of
    the f's and the g's in magnitude, and k the widest row, the batch is
    refused with ConfigurationError, before any array is built, unless
    |w| (|e_f| + |e_g|) k, with each of |w| and |e_f| + |e_g| taken as at
    least 1, and the key range R^k (R the span of the product's
    exponents) are below 2^62.  ``val-eval``'s draws (at most 2
    variables, exponents 0..6) sit far inside it.
    """
    import numpy as np

    if not rows:
        return []
    width = max(1, max(len(f.variables) for _, f, _ in rows))
    tf = max(1, max(len(f.terms) for _, f, _ in rows))
    tg = max(1, max(len(g.terms) for _, _, g in rows))
    nums_all, dens, ef, eg, nf, ng = [], [], [], [], [], []
    zeros = [0] * (max(tf, tg) * width)
    for point, f, g in rows:
        if f.variables != g.variables:
            raise ConfigurationError("variable mismatch in superadditivity check")
        nums, den = _lattice(_variable_weights(point, f.variables, identification))
        pad = (0,) * (width - len(nums))
        nums_all += nums
        nums_all += pad
        dens.append(den)
        for packed, h, size, count in ((ef, f, tf, nf), (eg, g, tg, ng)):
            for e, _c in h.terms:
                packed += e
                packed += pad
            count.append(len(h.terms))
            packed += zeros[:(size - len(h.terms)) * width]
    lf, hf, lg, hg = min(ef), max(ef), min(eg), max(eg)
    lo = lf + lg  # the product's exponents lie in [lo, lo + radix)
    radix = hf + hg - lo + 1
    # each factor at least 1, so that the weights and the summed exponents
    # fit on their own as well
    big = (max(1, max(nums_all), -min(nums_all))
           * max(1, max(hf, -lf) + max(hg, -lg)) * width)
    if big >= _I64_SAFE or radix ** width >= _I64_SAFE:
        raise ConfigurationError(
            f"superadditivity batch outside int64: |w| (|e_f| + |e_g|) k = "
            f"{big} and the key range {radix}^{width} must stay below 2^62")
    # exponents coordinate-major, (row, variable, term), so that each
    # inner product is a sum over the middle axis of contiguous terms
    n = len(rows)
    w = np.array(nums_all, dtype=np.int64).reshape(n, width, 1)
    fe, ge = (np.ascontiguousarray(
        np.array(packed, dtype=np.int64).reshape(n, size, width).transpose(0, 2, 1))
        for packed, size in ((ef, tf), (eg, tg)))
    pe = (fe[:, :, :, None] + ge[:, :, None, :]).reshape(n, width, tf * tg)
    nf, ng = np.array(nf), np.array(ng)
    fmask = np.arange(tf) < nf[:, None]
    gmask = np.arange(tg) < ng[:, None]
    pmask = (fmask[:, :, None] & gmask[:, None, :]).reshape(n, tf * tg)
    vf, vg, vfg = (np.where(mask, (h * w).sum(1), _ABSENT)
                   for mask, h in ((fmask, fe), (gmask, ge), (pmask, pe)))
    pe -= lo
    strides = np.array([radix ** j for j in range(width)], dtype=np.int64)
    keys = np.where(pmask, (pe * strides[:, None]).sum(1), _ABSENT)
    keys.sort(axis=1)
    # the first key and each one that differs from the key before it
    distinct = (keys[:, 0] < _ABSENT) + (
        (keys[:, 1:] != keys[:, :-1]) & (keys[:, 1:] < _ABSENT)).sum(1)
    mf, mg, mfg = vf.min(1), vg.min(1), vfg.min(1)
    ms = np.concatenate([vf, vg], 1).min(1)
    both = (nf > 0) & (ng > 0)
    bound = np.where(both, mf, 0) + np.where(both, mg, 0)
    # a zero factor must give the zero product; otherwise the product has
    # a term, and every one lies at or above v(f) + v(g)
    no_product = mfg == _ABSENT
    product_ok = np.where(both, mfg >= bound, no_product)
    product_equality = np.where(
        both, (mfg == bound) | (distinct < nf * ng), no_product)
    # the sum is zero (both _ABSENT) only when f and g are
    sum_ok = ms >= np.minimum(mf, mg)
    minima = np.stack([mf, mg, mfg, ms], 1)
    values = minima.astype(object)
    values[minima == _ABSENT] = None
    return [SuperadditivityReport(*r[:4], tuple(r[4]), r[5]) for r in zip(
        product_ok.tolist(), product_equality.tolist(), sum_ok.tolist(),
        distinct.tolist(), values.tolist(), dens)]
