"""Newton polygons: lower convex hulls of (index, valuation) points.

The polygon of f(x) = sum a_i x^i is the lower convex hull of the points
(i, v(a_i)) with finite valuation.  Each side of slope s and horizontal
length mu certifies exactly mu roots of valuation -s, and the y-intercept of
a side is the data consumed by the ramification-break extraction.

`build_polygon` is a monotone-chain hull whose orientation test runs on
integers: each ordinate is split into numerator and denominator once, and
"on or above the chord" is decided by cross-multiplying, so the loop makes
no `Fraction` and pays no gcd.  `brute_force_hull` re-derives the same
polygon straight from the definition, also on cross-multiplied integers but
sharing no code with `build_polygon`, and exists purely as an oracle.

The module imports nothing from the rest of ramtower except the record
base: `root_valuations` reads a polynomial only through its `.coeffs` and
their `.valuation()`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .record import Record


class Side(Record):
    __slots__ = ("slope", "length", "intercept")

    def __init__(self, slope: Fraction, length: int, intercept: Fraction):
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "length", length)  # horizontal length
        object.__setattr__(self, "intercept", intercept)  # of the supporting line

    def as_json(self):
        return {
            "slope": format_rat(self.slope),
            "mu": self.length,
            "intercept": format_rat(self.intercept),
        }


class NewtonPolygon(Record):
    __slots__ = ("vertices", "_sides")

    def __init__(self, vertices: tuple[tuple[int, Fraction], ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_sides", None)

    @property
    def sides(self) -> tuple[Side, ...]:
        if self._sides is not None:
            return self._sides
        # slope (y1 − y0)/(x1 − x0) and intercept y0 − slope·x0 with y0 = n0/d0,
        # y1 = n1/d1, both over the one denominator d0·d1·(x1 − x0): two
        # Fraction constructions per side (one when x0 = 0, where the
        # intercept is y0) instead of four Fraction operations
        out = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            n0, d0, n1, d1 = y0.numerator, y0.denominator, y1.numerator, y1.denominator
            dx = x1 - x0
            rise = n1 * d0 - n0 * d1
            den = d0 * d1 * dx
            intercept = y0 if x0 == 0 else Fraction(n0 * d1 * dx - rise * x0, den)
            out.append(Side(Fraction(rise, den), dx, intercept))
        object.__setattr__(self, "_sides", tuple(out))
        return self._sides

    def as_json(self):
        return {
            "vertices": [[x, format_rat(y)] for x, y in self.vertices],
            "sides": [s.as_json() for s in self.sides],
        }


def format_rat(r) -> str:
    """The JSON spelling of a rational: "n/d" in lowest terms, or "n" when d = 1.

    Accepts whatever `Fraction` accepts ("6/4", 0.5, a bool).  A `Fraction`
    or an int is already in lowest terms and prints itself that way.

    >>> format_rat(Fraction(-6, 4)), format_rat(Fraction(4, 2)), format_rat("6/4")
    ('-3/2', '2', '3/2')
    """
    if type(r) is Fraction or type(r) is int:  # not bool: str(True) is "True"
        return str(r)
    r = Fraction(r)
    return f"{r.numerator}/{r.denominator}" if r.denominator != 1 else str(r.numerator)


def parse_rat(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _dedupe(points):
    """Keep the lowest y for each x; order by x."""
    best: dict[int, Fraction] = {}
    for x, y in points:
        x = int(x)
        y = Fraction(y)
        if x not in best or y < best[x]:
            best[x] = y
    return sorted(best.items())


def build_polygon(points) -> NewtonPolygon:
    """Lower convex hull by monotone chain; collinear interior points are
    dropped, so the vertex list is canonical.

    Each point keeps the lowest ordinate given for its abscissa, and the
    vertices are those (x, Fraction) pairs as given.  The chain drops the
    middle of three points (x0, n0/d0), (x1, n1/d1), (x, n/d) when

        (n1·d0 − n0·d1)·d·(x − x0) >= (n·d0 − n0·d)·d1·(x1 − x0),

    which is (y1 − y0)·(x − x0) >= (y − y0)·(x1 − x0) multiplied by
    d0·d1·d > 0, so the test is exact on plain integers.  Only three
    denominators meet in each test; one common denominator for the whole
    point set would be the lcm of all of them, whose size grows with the
    number of distinct denominators and makes every product a long one.

    >>> build_polygon([(1, 1), (2, 1), (4, 0)]).vertices
    ((1, Fraction(1, 1)), (4, Fraction(0, 1)))
    """
    best: dict[int, Fraction] = {}
    for x, y in points:
        x = int(x)
        if not isinstance(y, Fraction):
            y = Fraction(y)
        low = best.get(x)
        if low is None or y.numerator * low.denominator < low.numerator * y.denominator:
            best[x] = y
    if not best:
        raise ValueError("no points with finite valuation")
    hull: list[tuple[int, int, int, Fraction]] = []
    for x in sorted(best):
        y = best[x]
        n, d = y.numerator, y.denominator
        while len(hull) >= 2:
            x0, n0, d0, _ = hull[-2]
            x1, n1, d1, _ = hull[-1]
            # drop the middle point if it sits on or above the chord
            if (n1 * d0 - n0 * d1) * d * (x - x0) >= (n * d0 - n0 * d) * d1 * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, n, d, y))
    return NewtonPolygon(tuple((x, y) for x, _, _, y in hull))


def brute_force_hull(points) -> NewtonPolygon:
    """Definition-chasing oracle: a point is a hull vertex iff no segment
    between two other points passes weakly below it, and it is not itself a
    convex combination of its hull neighbours.  O(n^3), on integers."""
    pts = _dedupe(points)
    if not pts:
        raise ValueError("no points with finite valuation")
    if len(pts) == 1:
        return NewtonPolygon((pts[0],))
    nd = [(x, y.numerator, y.denominator) for x, y in pts]
    on_boundary = []
    for i, (x, n, d) in enumerate(nd):
        below = False
        for j, (xa, na, da) in enumerate(nd):
            if below:
                break
            for k, (xb, nb, db) in enumerate(nd):
                if j == i or k == i or j >= k:
                    continue
                if xa <= x <= xb and xa < xb:
                    # segment height at x, strictly below y?  That is
                    # ya·(xb − x) + yb·(x − xa) < y·(xb − xa), times da·db·d
                    if (na * db * (xb - x) + nb * da * (x - xa)) * d < n * da * db * (xb - xa):
                        below = True
                        break
        if not below:
            on_boundary.append(pts[i])
    # endpoints always survive; remove collinear interior points
    hull = []
    for p in on_boundary:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (p[0] - x0) == (p[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(p)
    return NewtonPolygon(tuple(hull))


def poly_valuations(f):
    """[(i, v(a_i))] for the coefficients of a SeriesPoly with decidable
    valuation; exact zeros are omitted, indeterminate zeros raise
    InsufficientPrecision."""
    pts = []
    for i, c in enumerate(f.coeffs):
        v = c.valuation()  # may raise InsufficientPrecision
        if v != math.inf:
            pts.append((i, v))
    if not pts:
        raise ValueError("zero polynomial has no Newton polygon")
    return pts


def root_valuations(f) -> list[tuple[Fraction, int]]:
    """[(valuation, multiplicity)] of the nonzero roots of a SeriesPoly f in
    an algebraic closure, read off the polygon: a side of slope s and length
    mu gives mu roots of valuation -s.  Roots at zero (trailing zero
    coefficients) are excluded; multiplicities sum to deg f minus the order
    of vanishing at 0.
    """
    pts = poly_valuations(f)
    np = build_polygon(pts)
    return [(-s.slope, s.length) for s in np.sides]


def y_intercepts(np: NewtonPolygon) -> list[Fraction]:
    """Y-intercepts of the sides of strictly negative slope ("non-trivial"
    sides), ascending."""
    return sorted(s.intercept for s in np.sides if s.slope < 0)
