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
that order, found by bisection on u at O(log N) cells.  On a radial
chart (below) the run also starts past the potential's flat piece:
dd^c phi vanishes where one constant section dominates, and a cell whose
five stencil points read one finite value has mass +0.0 exactly.  Only
the run's cells get a mass, u and a weight, and the GridMeasure
holds them in ascending u: pushforward_log_radius is one index gather,
and every chart's cloud comes out sorted by u.  The raw Laplacian total stays the
whole grid's: the stencil sums to the flux through the grid's boundary.
The family's cloud is the charts' clouds end to end: a few ascending
runs.  wasserstein1_line merges them and the limit atoms in the stable
tie order (earlier chart first, atoms last), so its sums add the same
floats in the same order as after a stable sort of the whole cloud.
The pairings evaluate each chart's run into one buffer, in the
concatenated order.

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
potential is evaluated once per cell, and each neighbour value is
gathered by its cached position.  Thresholds on cell masses (the
pushforward's keep floor, the negative-mass floor) compare the mass of
one grid cell.

A radial potential is built from lines in log|xi| (each entry's _line).
Away from where they cross, one line tops the others by a margin that
makes phi that line over m bit for bit (_pieces); in lse mode the margin
is widened until the log-sum-exp correction rounds to 0.0.  On the flat
piece (slope 0) phi reads one value, so its cells are cut from the run
without evaluating phi.  On an exact piece (no constant, slope k and m
powers of two) phi is (k/m) log|xi| bit for bit, and so is its stencil:
scaling by a power of two commutes with every rounding.  Its cells take
(k/m) Lambda, where Lambda, the orbit masses of log|xi|, is cached with
the geometry.  Only the stencil segments, the bands within 2h of a
piece's end and the pieces of other lines, evaluate phi, on the cells
within 2h of them.

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

from .exactnum import LogRVal, as_fraction
from .models import SncModelCombinatorics
from .pafunc import AffineLine, PAFunction1D, upper_envelope
from .tropical import lse_max_gap


class ResolutionError(ValueError):
    """The grids miss the family's mass: a finer grid, ``suggested_n``,
    or (when None) the wider boxes that the message names, may capture it."""

    def __init__(self, message, suggested_n=None):
        super().__init__(message)
        self.suggested_n = suggested_n


class EmptyMeasureError(ValueError):
    """A measure that W1 would compare has no positive mass."""


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
        for i, (idx, b, num) in enumerate(rows):
            if not model.has_component(idx):
                raise ValueError(f"rows[{i}][0]: component {idx} not in model")
            if int(b) <= 0:
                raise ValueError(f"rows[{i}][1]: b_E must be strictly positive")
            if int(b) != model.multiplicity(idx):
                raise ValueError(
                    f"rows[{i}][1]: b_E = {b} disagrees with model multiplicity "
                    f"{model.multiplicity(idx)} at component {idx}"
                )
            entries.append((int(idx), int(b), as_fraction(num)))
        return cls(model, tuple(entries))


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
        for i, e in enumerate(self.entries):
            top = max(k for k, _ in e.coeffs)
            if top > self.degree:
                raise ValueError(f"entries[{i}].coeffs: entry degree {top} "
                                 f"exceeds declared family degree {self.degree}")
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


def family_profile(family: CurveFamily, r: Fraction) -> PAFunction1D:
    """Exact convex profile H(u) of the family's limit potential, the
    envelope of its lines scaled by 1/m: a positive scale keeps every sign
    the hull reads, so the hull and its cuts are those of the unscaled
    lines."""
    inv_m = Fraction(1, family.m)
    lines = []
    for e in family.entries:
        offset = LogRVal(const=-e.q, invlogr=-e.c) * inv_m
        for k, _v in e.coeffs:
            lines.append(AffineLine(-k * inv_m, offset))
    return upper_envelope(lines, r)


def family_limit_measure(family: CurveFamily, r: Fraction) -> AtomicMeasure:
    return ma_pa_curve(family_profile(family, r))


# ---------------------------------------------------------------------------
# complex side: grid Laplacian per chart
# ---------------------------------------------------------------------------

@dataclass
class GridMeasure:
    """A chart's grid measure: the run of cells of nonzero partition
    weight, one flat entry per stored cell, in ascending u.  On the octant
    route the run starts past the potential's flat piece, and may hold no
    cell.

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


# cells per call of the octant route's stencil: its four 64 KiB
# temporaries stay under glibc's default mmap threshold (128 KiB)
STENCIL_BLOCK = 8192


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
    that cell, or that halo point, sits.  The cells of a piece of the
    potential are one contiguous slice, found by bisection on log|xi|;
    log_stencil, Lambda, is built on first use and kept, read-only.
    """

    log_abs: np.ndarray       # log|xi| per cell, ascending
    multiplicity: np.ndarray  # grid cells per stored cell: 8, or 4 on the diagonal
    neighbours: np.ndarray    # (4, N): where each cell's N, S, E, W value sits
                              # among the N cells and then the n/2 outer halo points
    boundary: np.ndarray      # (2, n/2): log|xi| at one half-side's outer halo
                              # and at the cells next to it
    h: float                  # the cell side

    @property
    def span(self) -> float:
        """The largest |log|xi|| at a stencil point: the first cell's or
        the last outer halo point's."""
        return max(abs(float(self.log_abs[0])), abs(float(self.boundary[0, -1])))

    @cached_property
    def log_stencil(self) -> np.ndarray:
        """Lambda: each cell's orbit mass under phi = log|xi|, the stencil
        of log|xi| times the multiplicity."""
        import numpy as np

        masses = np.empty(self.log_abs.size)
        self._stencil(np.concatenate([self.log_abs, self.boundary[0]]),
                      0, masses.size, masses)
        _read_only(masses)
        return masses

    def _stencil(self, phi, a: int, b: int, out: np.ndarray):
        """The orbit masses of phi at the cells [a, b), into ``out``: the
        stencil times the multiplicity.  It is taken STENCIL_BLOCK cells
        at a time, the same float operations on each cell as in one call,
        so that its temporaries stay a few blocks, not a few runs."""
        import numpy as np

        for k in range(a, b, STENCIL_BLOCK):
            stop = min(k + STENCIL_BLOCK, b)
            np.multiply(_laplacian(phi, *self.neighbours[:, k:stop], slice(k, stop)),
                        self.multiplicity[k:stop], out=out[k - a:stop - a])

    def _inside(self, lo: float, hi: float) -> tuple[int, int]:
        """The cells [a, b) whose stencil points all have lo < log|xi| < hi:
        those more than 2h inside it in radius, since a neighbour is at
        most h closer to 0, or farther, than its cell; the other h covers
        the rounding of exp and log.  Compared in log|xi|, so an end far
        off the grid takes no exp."""
        import numpy as np

        log_2h = math.log(2.0 * self.h)
        a = (0 if lo == -math.inf else
             np.searchsorted(self.log_abs, np.logaddexp(lo, log_2h), side="right"))
        b = (np.searchsorted(self.log_abs, hi + math.log1p(-math.exp(log_2h - hi)))
             if hi > log_2h else 0)
        return int(a), int(b)

    def _window(self, a: int, b: int) -> tuple[int, int]:
        """The cells [lo, hi) within 2h in radius of the cells [a, b): they
        hold every stencil point of those cells but the outer halo."""
        import numpy as np

        near = math.exp(self.log_abs[a]) - 2.0 * self.h
        far = math.exp(self.log_abs[b - 1]) + 2.0 * self.h
        lo = int(np.searchsorted(self.log_abs, math.log(near))) if near > 0 else 0
        hi = int(np.searchsorted(self.log_abs, math.log(far), side="right"))
        return lo, hi

    def measure(self, potential, pieces, run: slice, step: int):
        """The Laplacian masses (orbit masses) and multiplicities of the
        cells of ``run`` past the flat piece, listed with ``step``, the raw
        Laplacian total over the whole grid, and that narrowed run.

        The total is the boundary flux (discrete divergence theorem): the
        stencil sums to halo minus adjacent cell over the 4n boundary
        edges, which are 8 copies of one half-side.

        ``pieces`` are the potential's _pieces.  The run's cells inside the
        flat piece have mass +0.0 and are cut without evaluating phi; a
        cell inside an exact piece has mass scale * Lambda, read from
        log_stencil.  The cells left, the bands within 2h of a piece's end
        and the pieces of any other line, form stencil segments: phi is
        evaluated on each one's window and its stencil taken there.
        """
        import numpy as np

        size = self.log_abs.size
        outer, inner = potential(self.boundary)
        raw_total = 8.0 * float(np.sum(outer - inner)) / (2.0 * math.pi)
        start, stop = run.start, run.stop
        segments = []  # (a, b, scale) in ascending log|xi|; None: the stencil
        at = start  # the first cell no segment holds
        for lo, hi, scale in pieces:
            a, b = self._inside(lo, hi)
            a, b = max(a, at), min(b, stop)
            if a >= b:
                continue
            if scale is None:  # the flat piece: the lowest, from log|xi| = -inf
                at = start = b
                continue
            if at < a:
                segments.append((at, a, None))
            segments.append((a, b, scale))
            at = b
        if at < stop:
            segments.append((at, stop, None))
        masses = np.empty(stop - start)
        phi = None
        for a, b, scale in segments:
            if scale is not None:
                np.multiply(self.log_stencil[a:b], scale,
                            out=masses[a - start:b - start])
                continue
            if phi is None:
                # NaN where no value is needed: a stencil that read one
                # would fail the mass check
                phi = np.full(size + outer.size, math.nan)
                phi[size:] = outer
            lo, hi = self._window(a, b)
            potential(self.log_abs[lo:hi], out=phi[lo:hi])
            self._stencil(phi, a, b, masses[a - start:b - start])
        run = slice(start, stop)
        return masses[::step], self.multiplicity[run][::step], raw_total, run


@dataclass(frozen=True)
class _FullCells:
    """All n^2 cells of the grid, sorted by log|xi|."""

    halo_log_abs: np.ndarray  # log|xi| at the (n + 2)^2 centers of the halo grid
    order: np.ndarray         # flat interior cells, sorted by log|xi|
    log_abs: np.ndarray       # log|xi| per cell, in that order

    def measure(self, potential, run: slice, step: int):
        """As _OctantCells.measure, from the 2-D stencil on every cell, and
        on the whole of ``run``."""
        phi = potential(self.halo_log_abs)
        inner = slice(1, -1)
        masses = _laplacian(phi, (slice(2, None), inner), (slice(None, -2), inner),
                            (inner, slice(2, None)), (inner, slice(None, -2)),
                            (inner, inner))
        return (masses.ravel()[self.order[run][::step]], 1.0, float(masses.sum()),
                run)


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

        halo = np.log(np.abs(self.nodes))
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
        # agree bit for bit (np.hypot would not).  The complex grid is
        # built whole, one 16 (n/2 + 2)^2-byte block: glibc maps a block
        # that large and, when it is freed, raises its mmap threshold past
        # it, so the ~1 MB arrays of each later t come from the heap.
        # Built in bands, it left the threshold low, and every such array
        # was mapped and faulted in anew.
        halo = np.abs(_complex_grid(quadrant, quadrant))
        np.log(halo, out=halo)
        boundary = np.stack([halo[1:-1, -1], halo[1:-1, -2]])
        i, j = np.triu_indices(half)
        size = i.size
        # index buffers, reused: np.take(..., mode="clip") writes straight
        # into ``out`` (mode="raise" buffers it), and every index is in range
        index = np.multiply(i, half + 2)  # the flat index of (i + 1, j + 1)
        index += j
        index += half + 3
        log_abs = np.take(halo, index)  # the triangle, in row order
        del halo
        order = np.argsort(log_abs, kind="stable")
        log_abs = np.take(log_abs, order)
        i, j = np.take(i, order, out=index, mode="clip"), np.take(j, order)
        a, b = order, np.empty(size, dtype=np.intp)
        del order
        position = np.empty((half, half), dtype=np.intp)  # of cell (a, b), a <= b
        position[i, j] = np.arange(size)
        neighbours = np.empty((4, size), dtype=np.intp)
        for row, (di, dj) in zip(neighbours, ((1, 0), (-1, 0), (0, 1), (0, -1))):
            # the value at quadrant cell (i + di, j + dj): -1, the inner
            # halo, mirrors to 0; below the diagonal, the cell transposes;
            # column n/2 is the outer halo, which sits after the cells
            np.add(i, di, out=a)
            np.add(j, dj, out=row)
            np.maximum(a, 0, out=a)
            np.maximum(row, 0, out=row)
            np.minimum(a, row, out=b)
            np.maximum(a, row, out=row)
            a, b = b, a  # (a, row): the cell, a <= row
            outer = np.flatnonzero(row == half)
            halo_at = a[outer] + size
            np.minimum(row, half - 1, out=row)
            np.multiply(a, half, out=a)
            a += row
            np.take(position, a, out=row, mode="clip")
            row[outer] = halo_at
        del position, a, b
        cells = _OctantCells(
            log_abs,
            np.where(i == j, 4.0, 8.0),
            neighbours,
            boundary,
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


def _powers(entry: FamilyEntry, degree: int, chart: Chart):
    """(xi_exp, t_exp, coef) per term of the section, on the chart."""
    return [((degree - k) if chart.invert else k,
             float(entry.q) - float(chart.p) * k, coef)
            for k, coef in entry.coeffs]


def _hybrid_term(entry: FamilyEntry, logabs_t: float,
                 log_r: float) -> tuple[float, ...]:
    """(c / log r) log|t|, when c != 0."""
    return (float(entry.c) / log_r * logabs_t,) if entry.c else ()


def _line(entry: FamilyEntry, degree: int, chart: Chart, logabs_t: float,
          log_r: float) -> tuple[int, tuple[float, ...]]:
    """A single-term entry's term of the potential as a line in log|xi|:
    its slope xi_exp, and the constants added in turn to log|xi| * xi_exp,
    log|coef| + t_exp log|t| and then the hybrid constant's term."""
    ((xi_exp, t_exp, coef),) = _powers(entry, degree, chart)
    return xi_exp, ((math.log(abs(coef)) + t_exp * logabs_t,)
                    + _hybrid_term(entry, logabs_t, log_r))


def _entry_term(entry: FamilyEntry, degree: int, t: complex, chart: Chart,
                geom: _ChartGeometry, log_r: float, log_abs: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """The entry's term of the potential, log|t^q s(z)| + (c / log r) log|t|,
    at the points whose log|xi| is ``log_abs``; written into ``out`` when
    given.

    A single-term section is its _line, real arithmetic on ``log_abs``, an
    array of any shape; more terms use Horner's rule on the complex nodes
    of the full grid, so ``log_abs`` must then be the full halo grid's.
    """
    import numpy as np

    logabs_t = math.log(abs(t))
    if len(entry.coeffs) == 1:
        xi_exp, adds = _line(entry, degree, chart, logabs_t, log_r)
        term = np.multiply(log_abs, xi_exp, out=out)
    else:
        log_t = cmath.log(t)
        poly = {}  # xi-exponent -> coefficient
        for xi_exp, t_exp, coef in _powers(entry, degree, chart):
            poly[xi_exp] = poly.get(xi_exp, 0) + coef * cmath.exp(t_exp * log_t)
        top = max(poly)
        acc = np.full(geom.nodes.shape, poly[top], dtype=complex)
        for j in range(top - 1, -1, -1):
            acc *= geom.nodes
            if j in poly:
                acc += poly[j]
        with np.errstate(divide="ignore"):
            term = np.log(np.abs(acc))
        if out is not None:
            out[...] = term
            term = out
        adds = _hybrid_term(entry, logabs_t, log_r)
    for add in adds:
        term += add
    return term


def _radial(family: CurveFamily) -> bool:
    """Every entry is a single monomial in xi, on every chart, so the
    potential depends on log|xi| alone."""
    return all(len(e.coeffs) == 1 for e in family.entries)


def _potential_on_grid(family: CurveFamily, t: complex, chart: Chart,
                       geom: _ChartGeometry, log_r: float, log_abs: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Fiber potential (real array) at the points whose log|xi| is
    ``log_abs``: the full halo grid, or (radial families only) any array
    of log|xi|, on which it is evaluated element by element.  Written into
    ``out`` when given.

    In max mode the first term is written where phi goes and every other
    one into one buffer; lse mode writes each term into its column of the
    stack that the gap reads.
    """
    import numpy as np

    def term(e, dest=None):
        return _entry_term(e, family.degree, t, chart, geom, log_r, log_abs, dest)

    if family.mode == "lse":
        terms = np.empty(log_abs.shape + (len(family.entries),))
        for k, e in enumerate(family.entries):
            term(e, terms[..., k])
        phi = np.empty(log_abs.shape) if out is None else out
        phi[...] = terms[..., 0]
        for k in range(1, len(family.entries)):
            np.maximum(phi, terms[..., k], out=phi)
        phi += lse_max_gap(terms, family.m)
    else:
        first, *rest = family.entries
        phi = term(first, out)
        other = None
        for e in rest:
            other = term(e, other)
            np.maximum(phi, other, out=phi)
    phi /= family.m
    return phi


def _power_of_two(k: int) -> bool:
    """k = 2^j, 0 <= j < 256: then 2^j log|xi| and its stencil, scaled by
    2^j / m, neither overflow nor fall below the normal floats."""
    return 0 < k < 2 ** 256 and not k & (k - 1)


def _pieces(family: CurveFamily, chart: Chart, logabs_t: float, log_r: float,
            span: float) -> list[tuple[float, float, float | None]]:
    """The flat and exact pieces of a radial potential at stencil points
    with |log|xi|| <= ``span``: (lo, hi, scale) for each line whose float
    term is phi's top term, by a margin that makes phi that term over m
    bit for bit, wherever lo < log|xi| < hi, in ascending lo.

    Each entry's term is a _line: slope k, constants summing to C.  Another
    line's float term is within 2^-50 (k span + sum |constants|) of
    k log|xi| + C; a piece keeps its line above every other by four times
    that, which also covers the rounding of its ends, and by D (lse_gap)
    more.  In max mode D = 0.  In lse mode phi adds (2m)^-1 log sum exp(2m (x - top))
    to the top term; D = (64 log 2 + log N) / (2m), for N entries, puts
    each other exp below 2^-64 / N, so the sum rounds to 1.0 (11 bits under
    the half-ulp of 1.0, room for a SIMD exp and the rounding of D), the
    log is 0.0, and phi is the top term over m, as in max mode.

    On a flat line (k = 0, 4 C/m finite) phi is C/m, and a cell whose
    stencil reads it at all five points has mass +0.0 (scale None).  On an
    exact line every constant is 0.0 and k and m are powers of two, so phi
    is (k/m) log|xi| bit for bit, and its stencil is k/m (the scale) times
    that of log|xi|: scaling by a power of two commutes with every
    rounding.  A non-finite constant or any other line gives no piece:
    those cells take the stencil.
    """
    lse_gap = ((64.0 * math.log(2.0) + math.log(len(family.entries)))
               / (2 * family.m) if family.mode == "lse" else 0.0)
    lines = []
    for e in family.entries:
        slope, adds = _line(e, family.degree, chart, logabs_t, log_r)
        const = 0.0  # the float sum, as the potential adds it
        for add in adds:
            const += add
        size = slope * span + sum(abs(add) for add in adds)
        if not (math.isfinite(const) and math.isfinite(size)):
            return []
        lines.append((slope, const, size, not any(adds)))
    pieces = []
    for i, (slope, const, size, zero) in enumerate(lines):
        if slope == 0 and math.isfinite(4.0 * (const / family.m)):
            scale = None
        elif zero and _power_of_two(slope) and _power_of_two(family.m):
            scale = slope / family.m
        else:
            continue
        lo, hi = -math.inf, math.inf
        for j, (s, c, other, _) in enumerate(lines):
            if j == i:
                continue
            margin = 2.0 ** -48 * (size + other) + lse_gap
            if s < slope:
                lo = max(lo, (c - const + margin) / (slope - s))
            elif s > slope:
                hi = min(hi, (const - c - margin) / (s - slope))
            elif not const > c + margin:
                hi = -math.inf
        if lo < hi:
            pieces.append((lo, hi, scale))
    return sorted(pieces, key=lambda piece: piece[0])


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
    of each chart, past its potential's flat piece, and scales the masses
    of its exact pieces from Lambda (see the module docstring); u and the
    weights are taken on that run only.  The weighted totals must
    reproduce the family degree within ``mass_tol``, else (a NaN total
    included) a ResolutionError suggests a finer grid.
    |t| = 1 is rejected: u is undefined there.
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
        if radial:
            pieces = _pieces(family, chart, logabs_t, log_r, cells.span)
            measured = cells.measure(potential, pieces, run, step)
        else:
            measured = cells.measure(potential, run, step)
        masses, multiplicity, raw_total, run = measured
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
        captured = (f"captured mass {total:.6f} vs degree {expected} "
                    f"(deficit {expected - total:.2e})")
        # no grid captures the mass of a u-interval that no chart owns
        gap = _gap(family.charts)
        if gap is not None:
            raise ResolutionError(f"{captured}; no chart owns u in {gap}: "
                                  "add a chart that covers it")
        # a box's raw total is the mass inside it; when the boxes miss mass
        # that the charts' intervals own, only a larger L captures it
        inside = sum(g.raw_total for g in grids)
        cut = [c.name for c in family.charts if _weighted_past_box(c, logabs_t)]
        if expected - inside > mass_tol and cut:
            raise ResolutionError(
                f"{captured}; the boxes hold {inside:.6f}, the rest lies past "
                f"radius L: raise L on chart{'s' * (len(cut) > 1)} "
                + ", ".join(map(repr, cut)))
        raise ResolutionError(f"{captured}; kink circles unresolved",
                              suggested_n=2 * n)
    return grids


def _gap(charts: Sequence[Chart]) -> tuple[float, float] | None:
    """The first u-interval (lo, hi) that the charts' owned u-intervals
    leave uncovered, or None when they cover the whole u-line."""
    reach = -math.inf
    for chart in sorted(charts, key=lambda c: c.u_lo):
        if chart.u_lo > reach:
            return reach, chart.u_lo
        reach = max(reach, chart.u_hi)
    return None if reach == math.inf else (reach, math.inf)


def _weighted_past_box(chart: Chart, logabs_t: float) -> bool:
    """Whether the chart's partition weight is positive somewhere past
    radius L, where its box cuts off the mass it owns."""
    edge = _u(chart, math.log(chart.L), logabs_t)
    if (logabs_t < 0) == chart.invert:  # u rises with the radius
        return chart.u_hi + RAMP > edge
    return chart.u_lo - RAMP < edge


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

    The floor test reads |m| > MASS_FLOOR * k for a stored mass m of
    multiplicity k, which keeps the cells |m / k| > MASS_FLOOR does: k
    is 1, 4 or 8, so MASS_FLOOR * k is exact, and so is m / k unless it
    falls below 2^-1022.  Where both are exact, scaling by k keeps the
    order; where m / k is not, |m| < k 2^-1022 < MASS_FLOOR * k and
    |m / k| <= 2^-1022 < MASS_FLOOR, so both tests drop the cell.  A NaN
    fails both tests, and an infinity passes both.
    """
    import numpy as np

    kept = np.flatnonzero(np.abs(grid.cell_masses) > MASS_FLOOR * grid.multiplicity)
    return LineCloud(grid.cell_u[kept], grid.cell_masses[kept],
                     grid.raw_total - grid.total_mass)


def combine_clouds(clouds: Sequence[LineCloud]) -> LineCloud:
    import numpy as np

    if not clouds:
        return LineCloud(np.zeros(0), np.zeros(0))
    leakage = sum(c.leakage for c in clouds)
    full = [c for c in clouds if c.u.size]
    if len(full) == 1:
        # the one chart that kept points: its arrays as they are, since
        # neither W1 nor the pairings write into a cloud
        return LineCloud(full[0].u, full[0].mass, leakage)
    u = np.concatenate([c.u for c in clouds])
    m = np.concatenate([c.mass for c in clouds])
    return LineCloud(u, m, leakage)


MERGED_RUNS = 8  # inputs of more ascending runs than this are argsorted


def _stable_pieces(points, runs):
    """The stable order of the points of ``runs``, as a list of pieces.

    ``runs`` are (s, i, j), ascending slices points[s][i:j], listed in
    input order.  Each piece is a list of such slices: one slice is a
    stretch of the order as it stands; several are concatenated and
    stable-argsorted.  Two runs interleave only where their ranges meet,
    so the closed u-intervals where two ranges meet, joined where they
    touch, are the only pieces of several slices; between them each run
    holds one slice, and those slices are disjoint in u.
    """
    import numpy as np

    ends = [(points[s][i], points[s][j - 1]) for s, i, j in runs]
    meets = sorted((max(a[0], b[0]), min(a[1], b[1]))
                   for k, a in enumerate(ends) for b in ends[k + 1:]
                   if max(a[0], b[0]) <= min(a[1], b[1]))
    blocks = []
    for lo, hi in meets:
        if blocks and lo <= blocks[-1][1]:
            blocks[-1][1] = max(blocks[-1][1], hi)
        else:
            blocks.append([lo, hi])
    at = [i for _s, i, _j in runs]  # each run's first point not yet placed

    def advance(bound, side):
        """Each run's slice of unplaced points below ``bound`` ("left"),
        up to it ("right"), or all of them (None)."""
        cut = []
        for k, (s, i, j) in enumerate(runs):
            stop = j if bound is None else i + int(
                np.searchsorted(points[s][i:j], bound, side))
            if stop > at[k]:
                cut.append((s, at[k], stop))
                at[k] = stop
        return cut

    pieces = []
    for lo, hi in [*blocks, (None, None)]:
        pieces += [[part] for part in sorted(advance(lo, "left"),
                                             key=lambda p: points[p[0]][p[1]])]
        if hi is not None:
            pieces.append(advance(hi, "right"))
    return pieces


def wasserstein1_line(u1, m1, u2, m2) -> float:
    """W1 between two finite measures on the line (normalized to unit mass).

    The points u1 then u2 are put in stable order (by u; a tie keeps
    input order), and W1 is the sum of |CDF gap| times the width to the
    next point, in that order.  A cloud of per-chart clouds, each sorted
    by u, is a few ascending runs of u1, found with one scan, and each
    point of u2 (the limit atoms) is a run of its own: they are merged in
    that same order
    (_stable_pieces), with a stable argsort only where two runs' ranges
    meet.  An input of more than MERGED_RUNS runs, such as a shuffled
    cloud, is argsorted whole.  Either way the permutation is the stable
    one, so the floats summed are the same.  The points and the mass
    steps fill one buffer each, and the CDF, its absolute value and the
    width products are taken in place.
    """
    import numpy as np

    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    t1, t2 = m1.sum(), m2.sum()
    if t1 <= 0 or t2 <= 0:
        raise ValueError("measures must have positive mass")
    scale = 0.5 * (t1 + t2)
    points, steps = (u1, u2), ((m1, t1), (-m2, t2))
    cuts = (np.flatnonzero(u1[1:] < u1[:-1]) + 1).tolist()
    runs = [(0, i, j) for i, j in zip([0, *cuts], [*cuts, u1.size])]
    # one run per atom: a run's range spans its gaps, where the cloud's
    # points would all join the argsort
    runs += [(1, k, k + 1) for k in range(u2.size)]
    pieces = _stable_pieces(points, runs) if len(runs) <= MERGED_RUNS else [runs]
    pts = np.empty(u1.size + u2.size)
    cdf = np.empty_like(pts)
    at = 0
    for piece in pieces:
        if len(piece) == 1:
            (s, i, j), = piece
            pts[at:at + j - i] = points[s][i:j]
            m, t = steps[s]
            np.divide(m[i:j], t, out=cdf[at:at + j - i])
            at += j - i
            continue
        u = np.concatenate([points[s][i:j] for s, i, j in piece])
        d = np.concatenate([steps[s][0][i:j] / steps[s][1] for s, i, j in piece])
        order = np.argsort(u, kind="stable")
        np.take(u, order, out=pts[at:at + u.size])
        np.take(d, order, out=cdf[at:at + u.size])
        at += u.size
    np.cumsum(cdf, out=cdf)
    gap = np.abs(cdf[:-1], out=cdf[:-1])
    gap *= np.subtract(pts[1:], pts[:-1], out=pts[:-1])  # the widths
    return float(np.sum(gap) * scale)


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
    # W1 compares the unit-mass normalizations of the two measures
    if not m0.sum() > 0:
        raise EmptyMeasureError(
            "the limit measure has no mass: the family's profile is affine")
    exact = {name: mu0.pair_with(f).to_float(r)
             for name, f in test_functions.items()}
    rows = []
    for t_abs in t_schedule:
        grids = ma_complex_curve(family, complex(t_abs), grid_n, r,
                                 mass_tol=mass_tol)
        # each chart's grid is released once it is pushed forward, and the
        # charts' clouds once they are combined
        clouds = [pushforward_log_radius(grids.pop(0)) for _ in range(len(grids))]
        ends = np.cumsum([0] + [c.u.size for c in clouds]).tolist()
        cloud = combine_clouds(clouds)
        del clouds
        total = cloud.total()
        if not total > 0:
            raise EmptyMeasureError(
                f"captured mass {total!r} at |t| = {t_abs!r}, where W1 "
                "needs a positive mass; check the charts' u_lo, u_hi and L")
        w1 = wasserstein1_line(cloud.u, cloud.mass, u0, m0)
        errs = {}
        values = np.empty_like(cloud.u)
        for name, f in test_functions.items():
            # eval_float_array takes sorted input: each chart's cloud is
            for a, b in zip(ends, ends[1:]):
                f.eval_float_array(cloud.u[a:b], out=values[a:b])
            values *= cloud.mass
            errs[name] = abs(float(np.sum(values)) - exact[name])
        # released here, or they would stay alive beside the next t's grids:
        # the peak then holds one t's arrays, not two
        del cloud, values
        rows.append(ConvergenceRow(t_abs, w1, errs, total))
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

    if not deltas:
        raise ValueError("need at least one delta")
    idx = len(family.entries) - 1
    base = _profiled(family, r)  # the unperturbed profile, built once
    first = None  # the profile at deltas[0], kept for the antisymmetry check
    ds, diffs = [], []
    for d in deltas:
        pert = _profiled(family.with_constant_shift(idx, d), r)
        if first is None:
            first = pert
        val = _pairing_difference(base, pert)
        ds.append(abs(float(as_fraction(d))))
        diffs.append(abs(val.to_float(r)))
    ds_arr, diff_arr = np.array(ds), np.array(diffs)
    denom = float(np.dot(ds_arr, ds_arr))
    fitted = float(np.dot(ds_arr, diff_arr) / denom) if denom > 0 else 0.0
    scale = float(np.max(diff_arr))
    residual = (
        float(np.max(np.abs(diff_arr - fitted * ds_arr))) / scale if scale > 0 else 0.0
    )
    x12 = _cross_pairing(base, first)
    x21 = _cross_pairing(first, base)
    antisym = x12 == (-1) * x21
    failure = None
    if residual > residual_tol:
        failure = f"superlinear growth: relative residual {residual:.3f}"
    return ClnReport(family.name, ds, diffs, fitted, residual, antisym, failure)
