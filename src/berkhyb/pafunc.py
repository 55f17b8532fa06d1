"""Exact piecewise-affine functions: on dual complexes and on the line.

Values live in the span {1, log r, 1/log r} (see exactnum).  On a dual
complex a PA function is affine per simplex; constants are absorbed into
gradients through the simplex identity sum a_j w_j = 1, so a piece is a
pair of gradient vectors (log r part, rational part).  Line functions
carry rational slopes with breakpoints and values in the exact span;
they are the potential profiles in the valuation coordinate.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence

from .exactnum import LogRVal, as_fraction


class ContinuityError(ValueError):
    pass


class PAFunctionOnComplex:
    """Affine data per simplex: value(w) = <g_logr, w> log r + <g_const, w>."""

    def __init__(self, complex_, pieces: dict):
        self.complex = complex_
        self.pieces = dict(pieces)
        for s in complex_.simplices:
            if s.stratum not in self.pieces:
                raise ValueError(f"missing affine data on stratum {s.stratum}")

    def check_face_continuity(self):
        """Exact agreement of affine pieces on shared faces."""
        for s in self.complex.simplices:
            for face in self.complex.faces_of(s.stratum):
                g_logr_f, g_const_f = self.pieces[face]
                g_logr_s, g_const_s = self.pieces[s.stratum]
                pos = {j: k for k, j in enumerate(s.stratum)}
                for idx, j in enumerate(face):
                    if g_logr_f[idx] != g_logr_s[pos[j]] or g_const_f[idx] != g_const_s[pos[j]]:
                        raise ContinuityError(
                            f"face {face} disagrees with simplex {s.stratum} at {j}"
                        )
        return True

    def csv_rows(self):
        """Rows (simplex id, gradient log r part, gradient const part)."""
        rows = []
        for k, s in enumerate(self.complex.simplices):
            g_logr, g_const = self.pieces[s.stratum]
            rows.append(
                (
                    k,
                    "|".join(str(j) for j in s.stratum),
                    "|".join(str(g) for g in g_logr),
                    "|".join(str(g) for g in g_const),
                )
            )
        return rows


@dataclass(frozen=True)
class AffineLine:
    """One affine piece s*x + o on the line; slope rational, offset exact."""

    slope: Fraction
    offset: LogRVal

    def eval(self, x) -> LogRVal:
        if isinstance(x, LogRVal):
            return self.slope * x + self.offset
        return LogRVal.of(as_fraction(x) * self.slope) + self.offset


def upper_hull(lines, sign):
    """Upper hull of the lines y = slope*x + offset, ordered by a certified sign.

    ``lines`` are (slope, offset) pairs in an exact span; ``sign`` returns
    the certified sign of any difference of slopes or offsets and of any
    product num*den of the hull's meeting coordinates.  Returns the hull
    lines by increasing slope and, for each adjacent pair, the meeting
    point x = num/den as a (num, den) pair with den > 0.  Equal slopes
    (structural equality) keep the larger offset, the first on a tie; of
    three lines through one point the middle one is dropped.
    """
    best = {}
    for slope, offset in lines:
        if slope not in best or sign(offset - best[slope]) > 0:
            best[slope] = offset
    # binary insertion: fewer certified comparisons than sorted() on a few lines
    by_slope = cmp_to_key(lambda u, v: sign(u - v))
    ordered = []
    for line in best.items():
        insort(ordered, line, key=lambda ln: by_slope(ln[0]))
    hull, edges = [], []
    for slope, offset in ordered:
        while hull:
            s0, o0 = hull[-1]
            num, den = o0 - offset, slope - s0
            if edges and sign(num * edges[-1][1] - edges[-1][0] * den) <= 0:
                hull.pop()
                edges.pop()
                continue
            edges.append((num, den))
            break
        hull.append((slope, offset))
    return hull, edges


def upper_envelope(lines: Sequence[AffineLine], r: Fraction) -> "PAFunction1D":
    """Convex upper envelope max_i (s_i x + o_i) as a PAFunction1D."""
    if not lines:
        raise ValueError("empty family")
    hull, edges = upper_hull(
        [(as_fraction(ln.slope), ln.offset) for ln in lines],
        lambda v: LogRVal.of(v).sign(r),
    )
    return PAFunction1D([AffineLine(s, o) for s, o in hull],
                        [num / den for num, den in edges], r)


class PAFunction1D:
    """Piecewise-affine function on the line, pieces ordered by slope.

    ``pieces[i]`` is active on (cuts[i-1], cuts[i]); convex iff slopes are
    nondecreasing, which holds by construction for envelopes.  General
    (possibly concave) functions are represented the same way with pieces
    listed left to right.
    """

    def __init__(self, pieces: Sequence[AffineLine], cuts: Sequence[LogRVal],
                 r: Fraction):
        if len(pieces) != len(cuts) + 1:
            raise ValueError("pieces/cuts length mismatch")
        self.pieces = list(pieces)
        self.cuts = list(cuts)
        self.r = r
        for i in range(1, len(self.cuts)):
            if self.cuts[i].cmp(self.cuts[i - 1], r) < 0:
                raise ValueError("breakpoints not sorted")
        for i, x in enumerate(self.cuts):
            left, right = self.pieces[i], self.pieces[i + 1]
            if left.eval(x) != right.eval(x):
                raise ContinuityError(f"pieces disagree at breakpoint {i}")

    @classmethod
    def from_breakpoints(cls, xs, ys, r: Fraction,
                         left_slope=0, right_slope=0) -> "PAFunction1D":
        """Interpolating PA function through exact points, with end slopes."""
        xs = [x if isinstance(x, LogRVal) else LogRVal.of(as_fraction(x)) for x in xs]
        ys = [y if isinstance(y, LogRVal) else LogRVal.of(as_fraction(y)) for y in ys]
        if len(xs) != len(ys) or not xs:
            raise ValueError("need matching nonempty sample lists")
        pieces = []
        ls = as_fraction(left_slope)
        pieces.append(AffineLine(ls, ys[0] - ls * xs[0]))
        for i in range(len(xs) - 1):
            dx = xs[i + 1] - xs[i]
            dy = ys[i + 1] - ys[i]
            if not dx.is_rational():
                # generic slope (dy/dx) only representable when dx rational
                raise ValueError("breakpoint spacing must be rational")
            s = None
            if dy.is_rational():
                s = dy.rational_part() / dx.rational_part()
                pieces.append(AffineLine(s, ys[i] - s * xs[i]))
            else:
                raise ValueError("interpolation needs rational value differences")
        rs = as_fraction(right_slope)
        pieces.append(AffineLine(rs, ys[-1] - rs * xs[-1]))
        return cls(pieces, xs, r)

    def eval(self, x) -> LogRVal:
        xv = x if isinstance(x, LogRVal) else LogRVal.of(as_fraction(x))
        return self._piece_at(xv).eval(xv)

    def _float_tables(self):
        cached = getattr(self, "_ftab", None)
        if cached is None:
            import numpy as np

            cached = (
                np.array([c.to_float(self.r) for c in self.cuts]),
                np.array([float(p.slope) for p in self.pieces]),
                np.array([p.offset.to_float(self.r) for p in self.pieces]),
            )
            self._ftab = cached
        return cached

    def eval_float_array(self, xs):
        """Vectorized float evaluation of ``xs``, sorted ascending.

        Piece k covers cuts[k-1] < x <= cuts[k]; one searchsorted of the
        few cuts into ``xs`` gives each piece's slice of ``xs``.
        """
        import numpy as np

        cuts, slopes, offsets = self._float_tables()
        xs = np.asarray(xs, dtype=float)
        out = np.empty_like(xs)
        ends = [0, *np.searchsorted(xs, cuts, side="right").tolist(), xs.size]
        for k, (a, b) in enumerate(zip(ends, ends[1:])):
            out[a:b] = slopes[k] * xs[a:b] + offsets[k]
        return out

    def kinks(self) -> list[tuple[LogRVal, Fraction]]:
        """(location, slope increase) at each breakpoint, zero jumps dropped."""
        out = []
        for i, x in enumerate(self.cuts):
            jump = self.pieces[i + 1].slope - self.pieces[i].slope
            if jump != 0:
                out.append((x, jump))
        return out

    def slopes(self) -> list[Fraction]:
        return [p.slope for p in self.pieces]

    def is_convex(self) -> bool:
        ss = self.slopes()
        return all(ss[i + 1] >= ss[i] for i in range(len(ss) - 1))

    def scale(self, q) -> "PAFunction1D":
        # pieces are positional (left to right), so any sign works
        q = as_fraction(q)
        return PAFunction1D(
            [AffineLine(p.slope * q, p.offset * q) for p in self.pieces],
            list(self.cuts),
            self.r,
        )

    def _piece_at(self, x: LogRVal) -> AffineLine:
        idx = 0
        while idx < len(self.cuts) and x.cmp(self.cuts[idx], self.r) >= 0:
            idx += 1
        return self.pieces[idx]
