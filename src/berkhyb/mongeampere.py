"""Monge-Ampere measures: the atomic model-metric formula, the exact
piecewise-affine route on one-dimensional skeleta, the discrete Laplacian
on degenerating curve families, pushforward to the valuation coordinate,
and the weak-convergence and stability experiments.

Conventions for curve families on P^1: a family entry is a section
t^q * s(z) (s a polynomial of degree <= d) with a rational hybrid
constant c, giving the fiber potential

    phi_t = m^{-1} max_a ( log|s_a(z)| + (q_a + c_a/log r) log|t| ).

Its tropical profile in the valuation coordinate u = log|z|/log|t| is the
convex function H(u) = m^{-1} max_a max_{k in supp s_a} (-k u - q_a - c_a/log r),
whose slope jumps are the limit measure atoms.

Grid hot path.  The chart geometry (log|xi| at the cells a route stores,
sorted ascending) does not depend on t; it is built once per (L, n) per
process, read-only, and reused for every family, t and chart.  The grid
side n is even and the centers are antisymmetric about 0 bit for bit, so
no center sits on xi = 0.

For fixed |t| != 1, u = +-log|xi|/log|t| - p is monotone in log|xi|, so the
stored cells' order by log|xi|, read forwards or backwards, sorts them by
u.  The partition weight of a chart is zero below its lower ramp and above
its upper ramp, so the cells of nonzero weight are one contiguous run of
that order, found by bisection on u at O(log N) cells.  Only the run's
cells get a Laplacian, u and a weight, and the GridMeasure holds them in
ascending u: pushforward_log_radius is one mask compress, and every
chart's cloud comes out sorted by u.  The raw Laplacian total stays the
whole grid's: the stencil sums to the flux through the grid's boundary.

A chart is radial when every family entry is a single monomial
c t^e xi^k (true on every chart of such a family, inverted or not, and of
all four bundled families).  Then log|c t^e xi^k| = log|c| + e log|t| +
k log|xi| is real arithmetic on the cached log|xi|, and phi depends on
log|xi| alone, so it is invariant under the 8 symmetries of the square
grid (the row flip, the column flip, the transpose and their products).
So is the five-point stencil (N + S) + (E + W) - 4C: the flips permute
the terms inside a pair sum, the transpose swaps the two pair sums, and
floating-point addition is commutative, so the Laplacian masses are
symmetric bit for bit.  A radial chart therefore stores the triangle
i <= j of the positive quadrant's cells, n(n+2)/8 cells, each carrying
the mass of its orbit, multiplicity 8, or 4 on the diagonal i = j.  Every
stencil neighbour of a stored cell is, up to those symmetries (and the
mirror of the first row and column in the halo at -h/2), a stored cell or
a point of the outer halo with the same log|xi| bit for bit.  So the
potential is evaluated once per cell, on the run and the cells within h
of it, and each neighbour value is gathered by its cached position.
Thresholds on cell masses (the pushforward's keep floor, the
negative-mass floor) compare the mass of one grid cell.

A family with a multi-term entry takes the full route: the potential on
all (n + 2)^2 halo nodes, its multi-term entries by Horner's rule on the
complex nodes, the 2-D stencil on every one of the n^2 cells, and then a
gather of the run's cells, each with multiplicity 1.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Sequence

from .exactnum import LogRVal, as_fraction, rat_from_str, rat_to_str
from .models import SncModelCombinatorics
from .pafunc import AffineLine, PAFunction1D, upper_envelope
from .tropical import lse_max_gap


class ResolutionError(ValueError):
    def __init__(self, message, suggested_n=None):
        super().__init__(message)
        self.suggested_n = suggested_n


# ---------------------------------------------------------------------------
# atomic measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    mass: Fraction
    u: LogRVal | None = None     # position in the valuation coordinate
    label: str | None = None     # component label for table-indexed atoms


@dataclass
class AtomicMeasure:
    atoms: list[Atom]
    flags: list[str] = field(default_factory=list)

    def total_mass(self) -> Fraction:
        return sum((a.mass for a in self.atoms), Fraction(0))

    def nonzero(self) -> "AtomicMeasure":
        return AtomicMeasure([a for a in self.atoms if a.mass != 0], list(self.flags))

    def same_atoms(self, other: "AtomicMeasure") -> bool:
        """Exact equality as measures on the u-line (zero masses dropped)."""
        a = sorted(
            ((atom.u, atom.mass) for atom in self.nonzero().atoms),
            key=lambda p: (p[0].a, p[0].b, p[0].c),
        )
        b = sorted(
            ((atom.u, atom.mass) for atom in other.nonzero().atoms),
            key=lambda p: (p[0].a, p[0].b, p[0].c),
        )
        return a == b

    def pair_with(self, f: PAFunction1D) -> LogRVal:
        """Exact pairing integral of a PA function against the atoms."""
        acc = LogRVal.of(0)
        for atom in self.atoms:
            if atom.u is None:
                raise ValueError("atom without a line position")
            acc = acc + atom.mass * f.eval(atom.u)
        return acc


@dataclass(frozen=True)
class IntersectionTable:
    """Per-component multiplicity b_E and intersection number (L_1...L_n . E)."""

    model: SncModelCombinatorics
    entries: tuple[tuple[int, int, Fraction], ...]  # (component idx, b_E, number)

    @classmethod
    def build(cls, model, rows):
        entries = []
        for idx, b, num in rows:
            if not model.has_component(idx):
                raise ValueError(f"component {idx} not in model")
            if int(b) <= 0:
                raise ValueError("b_E must be strictly positive")
            if int(b) != model.multiplicity(idx):
                raise ValueError(
                    f"b_E = {b} disagrees with model multiplicity "
                    f"{model.multiplicity(idx)} at component {idx}"
                )
            entries.append((int(idx), int(b), as_fraction(num)))
        return cls(model, tuple(entries))

    def to_json(self):
        return {
            "model": self.model.to_json(),
            "rows": [[i, b, rat_to_str(n)] for i, b, n in self.entries],
        }

    @classmethod
    def from_json(cls, data):
        model = SncModelCombinatorics.from_json(data["model"])
        rows = [(r[0], r[1], rat_from_str(r[2])) for r in data["rows"]]
        return cls.build(model, rows)


def ma_model_metric(table: IntersectionTable) -> AtomicMeasure:
    """Atomic measure sum_E b_E (L_1 ... L_n . E) delta_{v_E}.

    Atom positions on the u-line come from the model's per-component
    z-valuations when present; total mass is the sum of table entries.
    """
    atoms = []
    flags = []
    for idx, b, num in table.entries:
        mass = b * num
        comp = table.model.components[idx]
        if mass < 0:
            flags.append(f"negative mass {mass} at {comp.label}: nef violation in input")
        u = LogRVal.of(comp.zval) if comp.zval is not None else None
        atoms.append(Atom(mass=mass, u=u, label=comp.label))
    return AtomicMeasure(atoms, flags)


def ma_pa_curve(pa: PAFunction1D) -> AtomicMeasure:
    """Dirac mass = slope increase at each kink of a PA potential profile.

    Affine input gives the empty measure.  A concave kink is recorded as a
    flag on the result.
    """
    atoms = []
    flags = []
    for x, jump in pa.kinks():
        if jump < 0:
            flags.append(f"concave kink (jump {jump}) at {x!r}")
        atoms.append(Atom(mass=jump, u=x))
    return AtomicMeasure(atoms, flags)


# ---------------------------------------------------------------------------
# curve families and their tropical profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyEntry:
    coeffs: tuple[tuple[int, complex], ...]  # (z-exponent, coefficient)
    q: Fraction                              # explicit t-power
    c: Fraction                              # hybrid constant

    @classmethod
    def build(cls, coeffs, q=0, c=0):
        items = tuple(sorted((int(k), complex(v)) for k, v in dict(coeffs).items()))
        if not items:
            raise ValueError("empty section")
        if any(v == 0 for _, v in items):
            raise ValueError("zero coefficients must be omitted")
        if any(k < 0 for k, _ in items):
            raise ValueError("sections are polynomials in z")
        return cls(items, as_fraction(q), as_fraction(c))


@dataclass(frozen=True)
class Chart:
    """Affine coordinate xi with z = t^{-p} xi (or t^{-p}/xi when inverted).

    |xi| ~ 1 corresponds to u ~ -p, so p selects the region of the
    valuation coordinate the chart resolves.  u_lo/u_hi delimit the region
    this chart owns in the partition of unity.
    """

    p: Fraction = Fraction(0)
    invert: bool = False
    L: float = 2.0
    u_lo: float = -math.inf
    u_hi: float = math.inf
    name: str = "chart"


@dataclass(frozen=True)
class CurveFamily:
    name: str
    m: int
    degree: int
    entries: tuple[FamilyEntry, ...]
    charts: tuple[Chart, ...]
    mode: str = "max"  # "max" | "lse"

    def __post_init__(self):
        if self.m <= 0 or self.degree <= 0:
            raise ValueError("m and degree must be positive")
        for e in self.entries:
            if max(k for k, _ in e.coeffs) > self.degree:
                raise ValueError("entry degree exceeds declared family degree")
        if self.mode not in ("max", "lse"):
            raise ValueError("mode must be 'max' or 'lse'")

    def ma_mass(self) -> Fraction:
        """Total Monge-Ampere mass: sections live in mL of degree ``degree``."""
        return Fraction(self.degree, self.m)

    def with_constant_shift(self, index: int, delta) -> "CurveFamily":
        d = as_fraction(delta)
        new_entries = []
        for i, e in enumerate(self.entries):
            if i == index:
                new_entries.append(FamilyEntry(e.coeffs, e.q, e.c + d))
            else:
                new_entries.append(e)
        return CurveFamily(self.name, self.m, self.degree, tuple(new_entries),
                           self.charts, self.mode)

    # -- serialization --------------------------------------------------
    def to_json(self):
        return {
            "name": self.name,
            "m": self.m,
            "degree": self.degree,
            "mode": self.mode,
            "entries": [
                {
                    "coeffs": {
                        str(k): [v.real, v.imag] for k, v in e.coeffs
                    },
                    "q": rat_to_str(e.q),
                    "c": rat_to_str(e.c),
                }
                for e in self.entries
            ],
            "charts": [
                {
                    "p": rat_to_str(ch.p),
                    "invert": ch.invert,
                    "L": ch.L,
                    "u_lo": None if math.isinf(ch.u_lo) else ch.u_lo,
                    "u_hi": None if math.isinf(ch.u_hi) else ch.u_hi,
                    "name": ch.name,
                }
                for ch in self.charts
            ],
        }

    @classmethod
    def from_json(cls, data):
        entries = []
        for i, e in enumerate(_nonempty_list(data["entries"], "entries")):
            coeffs = e["coeffs"]
            if not isinstance(coeffs, dict):
                raise ValueError(
                    f"entries[{i}].coeffs: expected a JSON object, got {coeffs!r}")
            entries.append(FamilyEntry.build(
                {int(k): complex(v[0], v[1]) for k, v in coeffs.items()},
                _float_sized(rat_from_str(e["q"]), f"entries[{i}].q"),
                _float_sized(rat_from_str(e["c"]), f"entries[{i}].c"),
            ))
        charts = tuple(
            Chart(
                p=_float_sized(rat_from_str(ch["p"]), f"charts[{i}].p"),
                invert=bool(ch.get("invert", False)),
                L=float(ch.get("L", 2.0)),
                u_lo=-math.inf if ch.get("u_lo") is None else float(ch["u_lo"]),
                u_hi=math.inf if ch.get("u_hi") is None else float(ch["u_hi"]),
                name=ch.get("name", "chart"),
            )
            for i, ch in enumerate(_nonempty_list(data["charts"], "charts"))
        )
        return cls(data["name"], _float_sized(int(data["m"]), "m"),
                   _float_sized(int(data["degree"]), "degree"),
                   tuple(entries), charts, data.get("mode", "max"))


def _nonempty_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{path}: expected a nonempty list, got {value!r}")
    return value


def _float_sized(x, path: str):
    """``x``, once float(x) is known not to overflow: the grid computes
    with float(x)."""
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"{path}: too large for a float") from None
    return x


def family_profile(family: CurveFamily, r: Fraction) -> PAFunction1D:
    """Exact convex profile H(u) of the family's limit potential."""
    lines = []
    for e in family.entries:
        offset = LogRVal(const=-e.q, invlogr=-e.c)
        for k, _v in e.coeffs:
            lines.append(AffineLine(Fraction(-k), offset))
    return upper_envelope(lines, r).scale(Fraction(1, family.m))


def family_limit_measure(family: CurveFamily, r: Fraction) -> AtomicMeasure:
    return ma_pa_curve(family_profile(family, r))


# ---------------------------------------------------------------------------
# complex side: grid Laplacian per chart
# ---------------------------------------------------------------------------

@dataclass
class GridMeasure:
    """A chart's grid measure: the run of cells of nonzero partition
    weight, one flat entry per stored cell, in ascending u.

    Each stored cell carries the mass of the ``multiplicity`` grid cells
    it stands for: 1.0 on the full route; on the octant route of a radial
    chart, 8, or 4 on the diagonal, the cells of its orbit under the
    symmetries of the square grid.  Every cell outside the run has
    weighted mass 0.
    """

    chart: Chart
    resolution: int
    cell_masses: np.ndarray   # partition-weighted mass each stored cell carries
    cell_u: np.ndarray        # valuation coordinate per stored cell, ascending
    raw_total: float          # unweighted Laplacian total over the whole grid
    total_mass: float         # weighted total
    multiplicity: np.ndarray | float  # grid cells per stored cell

    def per_cell_masses(self) -> np.ndarray:
        """The mass of one grid cell, for each stored cell."""
        return self.cell_masses / self.multiplicity  # exact: powers of two

    def negative_mass_floor(self) -> float:
        """The least one-cell mass, or 0.0 when none is negative (cells
        outside the run have mass 0)."""
        return float(self.per_cell_masses().min(initial=0.0))


def _laplacian(phi, n, s, e, w, c):
    """dd^c phi per cell: the five-point stencil over 2 pi, where phi[n],
    phi[s], phi[e], phi[w] and phi[c] are the values at each cell's N, S,
    E and W neighbours and at the cell.

    (N + S) + (E + W): each pair sum commutes, so the stencil is exactly
    invariant under the 8 symmetries of the square grid.  The neighbour
    values are read one pair at a time.
    """
    masses = phi[n] + phi[s]
    masses += phi[e] + phi[w]
    masses -= 4.0 * phi[c]
    masses /= 2.0 * math.pi
    return masses


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class _OctantCells:
    """The triangle i <= j of the positive quadrant's cells, sorted by log|xi|.

    A stencil neighbour of a stored cell is a stored cell, up to the
    symmetries of the square grid (the inner halo at -h/2 mirrors the
    first row and column, and the lower triangle is the transpose of the
    upper), or a point of the quadrant's outer halo: the potential is
    evaluated once per cell, and each neighbour value is read from where
    that cell, or that halo point, sits.
    """

    log_abs: np.ndarray       # log|xi| per cell, ascending
    multiplicity: np.ndarray  # grid cells per stored cell: 8, or 4 on the diagonal
    neighbours: np.ndarray    # (4, N): where each cell's N, S, E, W value sits
                              # among the N cells and then the n/2 outer halo points
    boundary: np.ndarray      # (2, n/2): log|xi| at one half-side's outer halo
                              # and at the cells next to it
    h: float                  # the cell side

    def measure(self, potential, run: slice, step: int):
        """The Laplacian masses (orbit masses) and multiplicities of the
        cells ``run``, listed with ``step``, and the raw Laplacian total
        over the whole grid.

        The total is the boundary flux (discrete divergence theorem): the
        stencil sums to halo minus adjacent cell over the 4n boundary
        edges, which are 8 copies of one half-side.
        """
        import numpy as np

        size = self.log_abs.size
        outer, inner = potential(self.boundary)
        raw_total = 8.0 * float(np.sum(outer - inner)) / (2.0 * math.pi)
        # NaN where no value is needed: a stencil that read one would fail
        # the mass check
        phi = np.full(size + outer.size, math.nan)
        phi[size:] = outer
        if run.start < run.stop:
            # a neighbour is at most h closer to 0, or farther, than its
            # cell; 2h covers that with room for the rounding of exp and log
            near = math.exp(self.log_abs[run.start]) - 2.0 * self.h
            far = math.exp(self.log_abs[run.stop - 1]) + 2.0 * self.h
            lo = int(np.searchsorted(self.log_abs, math.log(near))) if near > 0 else 0
            hi = int(np.searchsorted(self.log_abs, math.log(far), side="right"))
            phi[lo:hi] = potential(self.log_abs[lo:hi])
        masses = _laplacian(phi, *self.neighbours[:, run], run)
        multiplicity = self.multiplicity[run]
        masses *= multiplicity  # exact
        return masses[::step], multiplicity[::step], raw_total


@dataclass(frozen=True)
class _FullCells:
    """All n^2 cells of the grid, sorted by log|xi|."""

    halo_log_abs: np.ndarray  # log|xi| at the (n + 2)^2 centers of the halo grid
    order: np.ndarray         # flat interior cells, sorted by log|xi|
    log_abs: np.ndarray       # log|xi| per cell, in that order

    def measure(self, potential, run: slice, step: int):
        """As _OctantCells.measure, from the 2-D stencil on every cell."""
        phi = potential(self.halo_log_abs)
        inner = slice(1, -1)
        masses = _laplacian(phi, (slice(2, None), inner), (slice(None, -2), inner),
                            (inner, slice(2, None)), (inner, slice(None, -2)),
                            (inner, inner))
        return masses.ravel()[self.order[run][::step]], 1.0, float(masses.sum())


def _complex_grid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, None] + 1j * y[None, :]


class _ChartGeometry:
    """The t-independent arrays of an n x n cell grid on [-L, L]^2, n even.

    ``centers`` holds the n cell centers plus a one-cell halo at each end;
    they are antisymmetric about 0 bit for bit, and for even n none is 0.
    ``octant`` serves radial charts: the triangle i <= j of the positive
    quadrant's cells, where each of their stencil neighbours sits, and one
    half-side of the outer halo, read from the quadrant's (n/2 + 2)^2 halo
    centers, whose inner halo row and column (at -h/2) mirror the first
    cells; the halo grid itself is not kept.  ``full`` holds log|xi| on all
    (n + 2)^2 centers and stores every one of the n^2 cells once; it and
    the complex ``nodes`` are built only when a chart of a family with a
    multi-term entry asks for them.  Both routes sort their cells by
    log|xi|.  Every array is read-only, because _geometry shares one
    instance per (L, n).
    """

    def __init__(self, L: float, n: int):
        import numpy as np

        h = 2.0 * L / n
        self.n = n
        self.centers = h * (np.arange(n + 2) - (n + 1) / 2)
        _read_only(self.centers)

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = _complex_grid(self.centers, self.centers)
        _read_only(nodes)
        return nodes

    @cached_property
    def full(self) -> _FullCells:
        import numpy as np

        halo = np.log(np.abs(_complex_grid(self.centers, self.centers)))
        log_abs = halo[1:-1, 1:-1].ravel()
        order = np.argsort(log_abs, kind="stable")
        cells = _FullCells(halo, order, log_abs[order])
        _read_only(cells.halo_log_abs, cells.order, cells.log_abs)
        return cells

    @cached_property
    def octant(self) -> _OctantCells:
        import numpy as np

        half = self.n // 2
        quadrant = self.centers[half:]  # -h/2, h/2, ..., L + h/2
        # np.abs of complex centers, as on the full grid, so the values
        # agree bit for bit (np.hypot would not)
        halo = np.log(np.abs(_complex_grid(quadrant, quadrant)))
        i, j = np.triu_indices(half)
        order = np.argsort(halo[i + 1, j + 1], kind="stable")
        i, j = i[order], j[order]
        size = order.size
        position = np.empty((half, half), dtype=np.intp)
        position[i, j] = np.arange(size)

        def where(a, b):
            """Where the value at cell (a, b) of the quadrant sits; -1 is
            the inner halo, n/2 the outer."""
            a, b = np.maximum(a, 0), np.maximum(b, 0)  # mirror the inner halo
            a, b = np.minimum(a, b), np.maximum(a, b)  # transpose
            return np.where(b == half, size + a, position[a, np.minimum(b, half - 1)])

        cells = _OctantCells(
            halo[i + 1, j + 1],
            np.where(i == j, 4.0, 8.0),
            np.stack([where(i + 1, j), where(i - 1, j), where(i, j + 1),
                      where(i, j - 1)]),
            np.stack([halo[1:-1, -1], halo[1:-1, -2]]),
            float(quadrant[1] - quadrant[0]),
        )
        _read_only(cells.log_abs, cells.multiplicity, cells.neighbours,
                   cells.boundary)
        return cells


@cache
def _geometry(L: float, n: int) -> _ChartGeometry:
    """The one chart geometry of (L, n) in this process."""
    return _ChartGeometry(L, n)


def _smoothstep(x: np.ndarray) -> np.ndarray:
    import numpy as np

    y = np.clip(x, 0.0, 1.0)
    return y * y * (3.0 - 2.0 * y)


RAMP = 0.05  # half-width of a partition ramp in u


def _ramp_coordinate(u, end: float):
    """Position across the ramp centered on ``end``: 0 below it, 1 above."""
    return (u - (end - RAMP)) / (2 * RAMP)


def _ramp_bounds(end: float, u_at, size: int) -> tuple[int, int]:
    """(below, above) for the ramp centered on ``end``, over ``size`` cells
    in ascending u whose k-th u is ``u_at(k)``: the cells before ``below``
    have ramp coordinate <= 0, those from ``above`` on >= 1."""
    def x(k):
        return _ramp_coordinate(u_at(k), end)
    cells = range(size)
    return (bisect.bisect_right(cells, 0.0, key=x),
            bisect.bisect_left(cells, 1.0, key=x))


def partition_weight(chart: Chart, u: np.ndarray) -> np.ndarray:
    """C^1 radial partition weight for the chart's owned u-interval.

    Ramps of half-width RAMP are centered on the declared interval
    ends, so charts sharing an interface sum to one.  ``u`` is sorted
    ascending, so each ramp is a contiguous run found by bisection: only
    its cells are evaluated, and the cells on either side get their exact
    weight, 0 or 1, directly.
    """
    import numpy as np

    w = np.ones(u.size)
    for end, falling in ((chart.u_lo, False), (chart.u_hi, True)):
        if not math.isfinite(end):
            continue
        below, above = _ramp_bounds(end, u.__getitem__, u.size)
        s = _smoothstep(_ramp_coordinate(u[below:above], end))
        if falling:
            w[above:] = 0.0
            w[below:above] *= np.subtract(1.0, s, out=s)
        else:
            w[:below] = 0.0
            w[below:above] *= s
    return w


def _u(chart: Chart, log_abs, logabs_t: float):
    """u = +-log|xi| / log|t| - p, for a float or an array of log|xi|."""
    return (-log_abs if chart.invert else log_abs) / logabs_t - float(chart.p)


def _u_run(chart: Chart, log_abs: np.ndarray, logabs_t: float) -> tuple[slice, int]:
    """The chart's cells of nonzero partition weight: a slice of the cells
    sorted by ``log_abs``, and the step (1 or -1) that lists them in
    ascending u.

    For fixed t, u is an increasing or a decreasing map of log|xi|; below
    the lower ramp and above the upper one the weight is exactly 0.
    """
    size = log_abs.size
    forward = (logabs_t < 0) == chart.invert

    def u_at(k):  # u of the k-th cell by u
        return _u(chart, log_abs[k if forward else size - 1 - k], logabs_t)
    start = (_ramp_bounds(chart.u_lo, u_at, size)[0]
             if math.isfinite(chart.u_lo) else 0)
    stop = (_ramp_bounds(chart.u_hi, u_at, size)[1]
            if math.isfinite(chart.u_hi) else size)
    stop = max(start, stop)
    if forward:
        return slice(start, stop), 1
    return slice(size - stop, size - start), -1


def _entry_log_modulus(entry: FamilyEntry, degree: int, t: complex,
                       chart: Chart, geom: _ChartGeometry,
                       log_abs: np.ndarray) -> np.ndarray:
    """log|t^q s(z)| at the points whose log|xi| is ``log_abs``, without
    the hybrid constant.

    A single-term section is real arithmetic on ``log_abs``, an array of
    any shape; more terms use Horner's rule on the complex nodes of the
    full grid, so ``log_abs`` must then be the full halo grid's.
    """
    import numpy as np

    logabs_t = math.log(abs(t))
    powers = [((degree - k) if chart.invert else k,
               float(entry.q) - float(chart.p) * k, coef)
              for k, coef in entry.coeffs]
    if len(powers) == 1:
        xi_exp, t_exp, coef = powers[0]
        term = np.multiply(log_abs, xi_exp)
        term += math.log(abs(coef)) + t_exp * logabs_t
        return term
    log_t = cmath.log(t)
    poly = {}  # xi-exponent -> coefficient
    for xi_exp, t_exp, coef in powers:
        poly[xi_exp] = poly.get(xi_exp, 0) + coef * cmath.exp(t_exp * log_t)
    top = max(poly)
    acc = np.full(geom.nodes.shape, poly[top], dtype=complex)
    for j in range(top - 1, -1, -1):
        acc *= geom.nodes
        if j in poly:
            acc += poly[j]
    with np.errstate(divide="ignore"):
        return np.log(np.abs(acc))


def _radial(family: CurveFamily) -> bool:
    """Every entry is a single monomial in xi, on every chart, so the
    potential depends on log|xi| alone."""
    return all(len(e.coeffs) == 1 for e in family.entries)


def _potential_on_grid(family: CurveFamily, t: complex, chart: Chart,
                       geom: _ChartGeometry, log_r: float,
                       log_abs: np.ndarray) -> np.ndarray:
    """Fiber potential (real array) at the points whose log|xi| is
    ``log_abs``: the full halo grid, or (radial families only) any array
    of log|xi|, on which it is evaluated element by element."""
    import numpy as np

    logabs_t = math.log(abs(t))
    phi = None
    terms = []
    for e in family.entries:
        term = _entry_log_modulus(e, family.degree, t, chart, geom, log_abs)
        if e.c:
            term += float(e.c) / log_r * logabs_t
        if family.mode == "lse":
            terms.append(term)
        elif phi is None:
            phi = term
        else:
            np.maximum(phi, term, out=phi)
    if family.mode == "lse":
        stack = np.stack(terms, axis=-1)
        phi = np.max(stack, axis=-1) + lse_max_gap(stack, family.m)
    phi /= family.m
    return phi


def ma_complex_curve(
    family: CurveFamily,
    t: complex,
    n: int,
    r: Fraction,
    mass_tol: float = 1e-4,
) -> list[GridMeasure]:
    """Five-point Laplacian measure of the fiber potential, per chart.

    Each chart is an n x n cell grid on [-L, L]^2, n even, so that no cell
    center sits on xi = 0; masses are dd^c phi ~ (discrete Laplacian)/(2 pi)
    and are then weighted by the chart's partition-of-unity factor in the
    valuation coordinate.  Each chart keeps only its run of cells of
    nonzero weight, in ascending u, and a radial family stores one octant
    of each chart (see the module docstring).  The weighted totals must
    reproduce the family degree within ``mass_tol``, else (a NaN total
    included) a ResolutionError suggests a finer grid.  |t| = 1 is rejected: u is
    undefined there.
    """
    if n < 16:
        raise ResolutionError("grid too small", suggested_n=max(64, 2 * n))
    if n % 2:
        raise ResolutionError(f"grid {n} is odd, so a cell center sits on xi = 0",
                              suggested_n=n + 1)
    log_r = math.log(float(r))
    logabs_t = math.log(abs(t))
    if logabs_t == 0:
        raise ValueError(f"|t| = {abs(t)!r}: u = log|z| / log|t| is undefined")
    radial = _radial(family)
    grids = []
    for chart in family.charts:
        geom = _geometry(chart.L, n)
        cells = geom.octant if radial else geom.full
        potential = partial(_potential_on_grid, family, t, chart, geom, log_r)
        run, step = _u_run(chart, cells.log_abs, logabs_t)
        masses, multiplicity, raw_total = cells.measure(potential, run, step)
        u = _u(chart, cells.log_abs[run][::step], logabs_t)
        weighted = masses * partition_weight(chart, u)
        grids.append(
            GridMeasure(
                chart=chart,
                resolution=n,
                cell_masses=weighted,
                cell_u=u,
                raw_total=raw_total,
                total_mass=float(weighted.sum()),
                multiplicity=multiplicity,
            )
        )
    total = sum(g.total_mass for g in grids)
    expected = float(family.ma_mass())
    # written so that a NaN total fails it
    if not abs(total - expected) <= mass_tol:
        raise ResolutionError(
            f"captured mass {total:.6f} vs degree {expected} "
            f"(deficit {expected - total:.2e}); kink circles unresolved",
            suggested_n=2 * n,
        )
    return grids


@dataclass
class LineCloud:
    """Weighted points on the valuation coordinate (numeric pushforward)."""

    u: np.ndarray
    mass: np.ndarray
    leakage: float = 0.0

    def total(self) -> float:
        return float(self.mass.sum())


MASS_FLOOR = 1e-12  # pushforward drops cells of no larger mass


def pushforward_log_radius(grid: GridMeasure) -> LineCloud:
    """Direct image of a grid measure under u = log|z| / log|t|.

    Mass-preserving by construction; cells whose own mass (not that of
    their orbit, on an octant) is at most MASS_FLOOR are dropped.  The
    grid holds its cells in ascending u, so the cloud comes out sorted by
    u.  Leakage accounting reports the weighted mass missing from the
    chart relative to its raw Laplacian total.
    """
    import numpy as np

    kept = np.abs(grid.per_cell_masses()) > MASS_FLOOR
    return LineCloud(grid.cell_u[kept], grid.cell_masses[kept],
                     grid.raw_total - grid.total_mass)


def combine_clouds(clouds: Sequence[LineCloud]) -> LineCloud:
    import numpy as np

    if not clouds:
        return LineCloud(np.zeros(0), np.zeros(0))
    u = np.concatenate([c.u for c in clouds])
    m = np.concatenate([c.mass for c in clouds])
    return LineCloud(u, m, sum(c.leakage for c in clouds))


def wasserstein1_line(u1, m1, u2, m2) -> float:
    """W1 between two finite measures on the line (normalized to unit mass)."""
    import numpy as np

    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    t1, t2 = m1.sum(), m2.sum()
    if t1 <= 0 or t2 <= 0:
        raise ValueError("measures must have positive mass")
    scale = 0.5 * (t1 + t2)
    pts = np.concatenate([u1, u2])
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    deltas = np.concatenate([m1 / t1, -m2 / t2])[order]
    cdf_gap = np.cumsum(deltas)[:-1]
    widths = np.diff(pts)
    return float(np.sum(np.abs(cdf_gap) * widths) * scale)


def atoms_to_arrays(measure: AtomicMeasure, r: Fraction):
    import numpy as np

    us, ms = [], []
    for atom in measure.nonzero().atoms:
        if atom.u is None:
            raise ValueError("atom without line position")
        us.append(atom.u.to_float(r))
        ms.append(float(atom.mass))
    return np.array(us), np.array(ms)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRow:
    t_abs: float
    w1: float
    test_errors: dict
    captured_mass: float


@dataclass
class ConvergenceReport:
    family: str
    rows: list[ConvergenceRow]
    limit_atoms: list[tuple[float, float]]
    monotone: bool
    failure: str | None = None


def weak_convergence_experiment(
    family: CurveFamily,
    t_schedule: Sequence[float],
    test_functions: dict[str, PAFunction1D],
    grid_n: int,
    r: Fraction,
    mass_tol: float = 1e-4,
) -> ConvergenceReport:
    """Compare pushed-forward complex MA measures against the limit atoms.

    For each t the grid measure is pushed to the valuation coordinate and
    compared with the atomic limit measure through the W1 distance and the
    pairings against PA test functions of bounded slope.  A non-decreasing
    W1 trend is reported as an experiment failure, not an exception.
    The chart geometry of each (L, grid_n) is built once per process and
    shared by every t and family.
    """
    import numpy as np

    mu0 = family_limit_measure(family, r)
    u0, m0 = atoms_to_arrays(mu0, r)
    exact = {name: mu0.pair_with(f).to_float(r)
             for name, f in test_functions.items()}
    rows = []
    for t_abs in t_schedule:
        grids = ma_complex_curve(family, complex(t_abs), grid_n, r,
                                 mass_tol=mass_tol)
        clouds = [pushforward_log_radius(g) for g in grids]
        ends = np.cumsum([c.u.size for c in clouds])
        cloud = combine_clouds(clouds)
        # released here, or they would stay alive beside the next t's grids
        del grids, clouds
        w1 = wasserstein1_line(cloud.u, cloud.mass, u0, m0)
        # eval_float_array takes sorted input: each chart's cloud is
        charts = np.split(cloud.u, ends[:-1])
        errs = {}
        for name, f in test_functions.items():
            values = np.concatenate([f.eval_float_array(u) for u in charts])
            approx = float(np.sum(cloud.mass * values))
            errs[name] = abs(approx - exact[name])
        rows.append(ConvergenceRow(t_abs, w1, errs, cloud.total()))
    w1s = [row.w1 for row in rows]
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(w1s, w1s[1:]))
    failure = None if monotone else "W1 errors do not decrease along the schedule"
    return ConvergenceReport(
        family.name,
        rows,
        [(float(u), float(m)) for u, m in zip(u0, m0)],
        monotone,
        failure,
    )


@dataclass
class ClnReport:
    family: str
    deltas: list[float]
    differences: list[float]
    fitted_constant: float
    residual: float
    antisymmetry_exact: bool
    failure: str | None = None


def _profiled(family: CurveFamily, r: Fraction):
    """The family's profile h and its Monge-Ampere measure MA(h)."""
    h = family_profile(family, r)
    return h, ma_pa_curve(h)


def _pairing_difference(profiled1, profiled2) -> LogRVal:
    """pairing_difference of two _profiled families."""
    (h1, mu1), (h2, mu2) = profiled1, profiled2
    # pair_with is linear in the function and LogRVal arithmetic is exact,
    # so pairing h1 and h2 separately gives the value of pairing h1 - h2
    return ((mu1.pair_with(h1) - mu1.pair_with(h2))
            - (mu2.pair_with(h1) - mu2.pair_with(h2)))


def _cross_pairing(profiled1, profiled2) -> LogRVal:
    """int h1 d MA(h2) - int h2 d MA(h1); exactly antisymmetric under swap."""
    (h1, mu1), (h2, mu2) = profiled1, profiled2
    return mu2.pair_with(h1) - mu1.pair_with(h2)


def pairing_difference(fam1: CurveFamily, fam2: CurveFamily,
                        r: Fraction) -> LogRVal:
    """int (h1 - h2) d MA(h1) - int (h1 - h2) d MA(h2), exact on profiles."""
    return _pairing_difference(_profiled(fam1, r), _profiled(fam2, r))


def cln_stability_check(
    family: CurveFamily,
    deltas: Sequence[Fraction],
    r: Fraction,
    residual_tol: float = 0.05,
) -> ClnReport:
    """Linear-in-delta envelope for pairing differences under constant shifts.

    The perturbation shifts the last entry constant by delta; differences are
    computed exactly on the PA oracle, then fitted through the origin.
    Superlinear growth (relative residual beyond tolerance) is a failure
    report.
    """
    import numpy as np

    idx = len(family.entries) - 1
    base = _profiled(family, r)  # the unperturbed profile, built once
    ds, diffs = [], []
    for d in deltas:
        pert = _profiled(family.with_constant_shift(idx, d), r)
        val = _pairing_difference(base, pert)
        ds.append(abs(float(as_fraction(d))))
        diffs.append(abs(val.to_float(r)))
    ds_arr, diff_arr = np.array(ds), np.array(diffs)
    denom = float(np.dot(ds_arr, ds_arr))
    fitted = float(np.dot(ds_arr, diff_arr) / denom) if denom > 0 else 0.0
    scale = float(np.max(diff_arr)) if diff_arr.size else 0.0
    residual = (
        float(np.max(np.abs(diff_arr - fitted * ds_arr))) / scale if scale > 0 else 0.0
    )
    pert = _profiled(family.with_constant_shift(idx, deltas[0]), r)
    x12 = _cross_pairing(base, pert)
    x21 = _cross_pairing(pert, base)
    antisym = x12 == (-1) * x21
    failure = None
    if residual > residual_tol:
        failure = f"superlinear growth: relative residual {residual:.3f}"
    return ClnReport(family.name, ds, diffs, fitted, residual, antisym, failure)
