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

Grid hot path.  The chart geometry (log|xi| at the cell centers and
their one-cell halo, and the cell order by log|xi|) does not depend on t;
it is built once per (L, n) per process, read-only, and reused for every
family, t and chart.  The grid side n is even and the centers are
antisymmetric about 0 bit for bit, so no center sits on xi = 0.  There
are two routes, and both store their cells flat: an index into the halo
grid's interior and the number of grid cells each stored cell stands for.

A chart is radial when every family entry is a single monomial
c t^e xi^k (true on every chart of such a family, inverted or not, and of
all four bundled families).  Then log|c t^e xi^k| = log|c| + e log|t| +
k log|xi| is real arithmetic on the cached log|xi|, and phi depends on
log|xi| alone, so it is invariant under the 8 symmetries of the square
grid (the row flip, the column flip, the transpose and their products).
So is the five-point stencil (N + S) + (E + W) - 4C: the flips permute
the terms inside a pair sum, the transpose swaps the two pair sums, and
floating-point addition is commutative, so the Laplacian masses are
symmetric bit for bit.  A radial chart therefore evaluates the potential
on the positive quadrant with a one-cell halo (the inner halo, at -h/2,
mirrors the first row and column) and keeps the triangle i <= j of the
quadrant's cells: n(n+2)/8 cells, each carrying the mass of its orbit,
multiplicity 8, or 4 on the diagonal i = j.  Thresholds on cell masses
(the pushforward's keep floor, the negative-mass floor) compare the mass
of one grid cell.  A family with a multi-term entry takes the full route,
every one of the n^2 cells once with multiplicity 1, its multi-term
entries by Horner's rule on the complex nodes.

On both routes, for fixed |t| != 1, u = +-log|xi|/log|t| - p is monotone in
log|xi|, so the stored cells' order by log|xi|, read forwards or
backwards, sorts every chart's cells by u: pushforward_log_radius emits
each chart's cloud sorted by u, and the chart's partition ramps are
contiguous runs of that order.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
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
        for i, e in enumerate(data["entries"]):
            coeffs = e["coeffs"]
            if not isinstance(coeffs, dict):
                raise ValueError(
                    f"entries[{i}].coeffs: expected a JSON object, got {coeffs!r}")
            entries.append(FamilyEntry.build(
                {int(k): complex(v[0], v[1]) for k, v in coeffs.items()},
                rat_from_str(e["q"]),
                rat_from_str(e["c"]),
            ))
        charts = tuple(
            Chart(
                p=rat_from_str(ch["p"]),
                invert=bool(ch.get("invert", False)),
                L=float(ch.get("L", 2.0)),
                u_lo=-math.inf if ch.get("u_lo") is None else float(ch["u_lo"]),
                u_hi=math.inf if ch.get("u_hi") is None else float(ch["u_hi"]),
                name=ch.get("name", "chart"),
            )
            for ch in data["charts"]
        )
        return cls(data["name"], int(data["m"]), int(data["degree"]),
                   tuple(entries), charts, data.get("mode", "max"))


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
    """A chart's grid measure: one flat entry per stored cell.

    Each stored cell carries the mass of the ``multiplicity`` grid cells
    it stands for: 1.0 on the full route, which stores all n x n cells;
    on the octant route of a radial chart, which stores the n(n+2)/8
    cells of one octant, 8, or 4 on the diagonal, the cells of its orbit
    under the symmetries of the square grid.
    """

    chart: Chart
    resolution: int
    cell_masses: np.ndarray   # partition-weighted mass each stored cell carries
    cell_u: np.ndarray        # valuation coordinate per stored cell
    raw_total: float          # unweighted Laplacian total on this chart
    total_mass: float         # weighted total
    u_order: np.ndarray       # stored-cell indices that sort cell_u ascending
    multiplicity: np.ndarray | float  # grid cells per stored cell

    def per_cell_masses(self) -> np.ndarray:
        """The mass of one grid cell, for each stored cell."""
        return self.cell_masses / self.multiplicity  # exact: powers of two

    def negative_mass_floor(self) -> float:
        return float(self.per_cell_masses().min())


@dataclass(frozen=True)
class _Cells:
    """The cells one route stores for a chart, and their t-independent arrays."""

    halo_log_abs: np.ndarray  # log|xi| at the centers of the halo grid
    index: np.ndarray | slice  # the stored cells in the flat halo interior
    multiplicity: np.ndarray | float  # grid cells each stored cell stands for
    log_abs: np.ndarray       # log|xi| per stored cell
    order: np.ndarray         # stored-cell indices sorted by log|xi|

    @classmethod
    def build(cls, halo_log_abs, index, multiplicity) -> "_Cells":
        """The stored cells of a halo grid, with every array read-only."""
        import numpy as np

        log_abs = halo_log_abs[1:-1, 1:-1].ravel()[index]
        order = np.argsort(log_abs, kind="stable")
        for a in (halo_log_abs, index, multiplicity, log_abs, order):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return cls(halo_log_abs, index, multiplicity, log_abs, order)


def _complex_grid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, None] + 1j * y[None, :]


class _ChartGeometry:
    """The t-independent arrays of an n x n cell grid on [-L, L]^2, n even.

    ``centers`` holds the n cell centers plus a one-cell halo at each end;
    they are antisymmetric about 0 bit for bit, and for even n none is 0.
    ``octant`` serves radial charts: log|xi| on the positive quadrant with
    its halo, (n/2 + 2)^2 centers whose inner halo row and column (at
    -h/2) mirror the first cells, and the triangle i <= j of the
    quadrant's cells with multiplicity 8, or 4 on the diagonal.  ``full``
    holds log|xi| on all (n + 2)^2 centers and stores every one of the n^2
    cells once; it and the complex ``nodes`` are built only when a chart
    of a family with a multi-term entry asks for them.  Every array is
    read-only, because _geometry shares one instance per (L, n).
    """

    def __init__(self, L: float, n: int):
        import numpy as np

        h = 2.0 * L / n
        self.n = n
        self.centers = h * (np.arange(n + 2) - (n + 1) / 2)
        self.centers.setflags(write=False)

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = _complex_grid(self.centers, self.centers)
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def full(self) -> _Cells:
        import numpy as np

        halo = np.log(np.abs(_complex_grid(self.centers, self.centers)))
        return _Cells.build(halo, slice(None), 1.0)

    @cached_property
    def octant(self) -> _Cells:
        import numpy as np

        half = self.n // 2
        quadrant = self.centers[half:]  # -h/2, h/2, ..., L + h/2
        # np.abs of complex centers, as on the full grid, so the values
        # agree bit for bit (np.hypot would not)
        halo = np.log(np.abs(_complex_grid(quadrant, quadrant)))
        i, j = np.triu_indices(half)
        return _Cells.build(halo, i * half + j, np.where(i == j, 4.0, 8.0))


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


def partition_weight(chart: Chart, u: np.ndarray,
                     order: np.ndarray | None = None) -> np.ndarray:
    """C^1 radial partition weight for the chart's owned u-interval.

    Ramps of half-width RAMP are centered on the declared interval
    ends, so charts sharing an interface sum to one.  Given ``order``,
    indices that sort the flat ``u`` ascending, each ramp is a contiguous
    run of that order found by bisection: only its cells are evaluated,
    and the cells on either side get their exact weight, 0 or 1, directly.
    """
    import numpy as np

    if order is None:
        w = np.ones_like(u)
        if math.isfinite(chart.u_lo):
            w = w * _smoothstep(_ramp_coordinate(u, chart.u_lo))
        if math.isfinite(chart.u_hi):
            w = w * (1.0 - _smoothstep(_ramp_coordinate(u, chart.u_hi)))
        return w
    w = np.ones(u.size)
    for end, falling in ((chart.u_lo, False), (chart.u_hi, True)):
        if not math.isfinite(end):
            continue
        def x(i, end=end):
            return _ramp_coordinate(u[i], end)
        below = bisect.bisect_right(order, 0.0, key=x)
        above = bisect.bisect_left(order, 1.0, key=x)
        run = order[below:above]
        s = _smoothstep(_ramp_coordinate(u[run], end))
        if falling:
            w[order[above:]] = 0.0
            w[run] *= np.subtract(1.0, s, out=s)
        else:
            w[order[:below]] = 0.0
            w[run] *= s
    return w


def _entry_log_modulus(entry: FamilyEntry, degree: int, t: complex,
                       chart: Chart, geom: _ChartGeometry,
                       log_abs: np.ndarray) -> np.ndarray:
    """log|t^q s(z)| at the chart's halo nodes, without the hybrid constant.

    A single-term section is real arithmetic on ``log_abs``, the cached
    log|xi| of the route's halo grid; more terms use Horner's rule on the
    complex nodes of the full grid.
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
    """Fiber potential (real array) at the nodes of the halo grid whose
    log|xi| is ``log_abs``: the full grid's, or (radial families only) the
    positive quadrant's."""
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
    valuation coordinate.  A radial family stores one octant of each chart
    (see the module docstring).  The weighted totals must reproduce the
    family degree within ``mass_tol``, else (a NaN total included) a
    ResolutionError suggests a finer grid.  |t| = 1 is rejected: u is
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
        phi = _potential_on_grid(family, t, chart, geom, log_r,
                                 cells.halo_log_abs)
        # (N + S) + (E + W): each pair sum commutes, so the stencil is
        # exactly invariant under the 8 symmetries of the square grid
        masses = phi[2:, 1:-1] + phi[:-2, 1:-1]
        masses += phi[1:-1, 2:] + phi[1:-1, :-2]
        masses -= 4.0 * phi[1:-1, 1:-1]
        masses /= 2.0 * math.pi
        masses = masses.ravel()[cells.index]
        masses *= cells.multiplicity  # exact, and a no-op on the full route
        u = (-cells.log_abs if chart.invert else cells.log_abs) / logabs_t
        u -= float(chart.p)
        # for fixed t, u is an increasing or a decreasing map of log|xi|
        order = cells.order if (logabs_t < 0) == chart.invert else cells.order[::-1]
        weighted = masses * partition_weight(chart, u, order=order)
        grids.append(
            GridMeasure(
                chart=chart,
                resolution=n,
                cell_masses=weighted,
                cell_u=u,
                raw_total=float(masses.sum()),
                total_mass=float(weighted.sum()),
                u_order=order,
                multiplicity=cells.multiplicity,
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
    cloud comes out sorted by u, through the grid's cached cell order.
    Leakage accounting reports the weighted mass missing from the chart
    relative to its raw Laplacian total.
    """
    import numpy as np

    order = grid.u_order
    kept = order[(np.abs(grid.per_cell_masses()) > MASS_FLOOR)[order]]
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
    rows = []
    for t_abs in t_schedule:
        grids = ma_complex_curve(family, complex(t_abs), grid_n, r,
                                 mass_tol=mass_tol)
        cloud = combine_clouds([pushforward_log_radius(g) for g in grids])
        w1 = wasserstein1_line(cloud.u, cloud.mass, u0, m0)
        errs = {}
        for name, f in test_functions.items():
            approx = float(np.sum(cloud.mass * f.eval_float_array(cloud.u)))
            exact = mu0.pair_with(f).to_float(r)
            errs[name] = abs(approx - exact)
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


def pairing_difference(fam1: CurveFamily, fam2: CurveFamily,
                        r: Fraction) -> LogRVal:
    """int (h1 - h2) d MA(h1) - int (h1 - h2) d MA(h2), exact on profiles."""
    h1, h2 = family_profile(fam1, r), family_profile(fam2, r)
    mu1, mu2 = ma_pa_curve(h1), ma_pa_curve(h2)
    # pair_with is linear in the function and LogRVal arithmetic is exact,
    # so pairing h1 and h2 separately gives the value of pairing h1 - h2
    return ((mu1.pair_with(h1) - mu1.pair_with(h2))
            - (mu2.pair_with(h1) - mu2.pair_with(h2)))


def cross_pairing(fam1: CurveFamily, fam2: CurveFamily, r: Fraction) -> LogRVal:
    """int h1 d MA(h2) - int h2 d MA(h1); exactly antisymmetric under swap."""
    h1, h2 = family_profile(fam1, r), family_profile(fam2, r)
    mu1, mu2 = ma_pa_curve(h1), ma_pa_curve(h2)
    return mu2.pair_with(h1) - mu1.pair_with(h2)


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
    ds, diffs = [], []
    for d in deltas:
        pert = family.with_constant_shift(idx, d)
        val = pairing_difference(family, pert, r)
        ds.append(abs(float(as_fraction(d))))
        diffs.append(abs(val.to_float(r)))
    ds_arr, diff_arr = np.array(ds), np.array(diffs)
    denom = float(np.dot(ds_arr, ds_arr))
    fitted = float(np.dot(ds_arr, diff_arr) / denom) if denom > 0 else 0.0
    scale = float(np.max(diff_arr)) if diff_arr.size else 0.0
    residual = (
        float(np.max(np.abs(diff_arr - fitted * ds_arr))) / scale if scale > 0 else 0.0
    )
    pert = family.with_constant_shift(idx, deltas[0])
    x12 = cross_pairing(family, pert, r)
    x21 = cross_pairing(pert, family, r)
    antisym = x12 == (-1) * x21
    failure = None
    if residual > residual_tol:
        failure = f"superlinear growth: relative residual {residual:.3f}"
    return ClnReport(family.name, ds, diffs, fitted, residual, antisym, failure)
