"""Static SVG rendering of Newton polygons.

Byte-stable by construction, and no floats anywhere.  The vertices are
scaled once to one common denominator, the lcm of theirs (a polygon has
few vertices), so every coordinate is an exact integer numerator over the
scaled span of its axis (twice that for a side's midpoint).  One
fixed-point routine rounds each such quotient to two decimals, half to
even, so the output is a pure function of the polygon's vertices.
"""

from __future__ import annotations

import math

from .polygon import NewtonPolygon, format_rat

_W, _H = 640, 420
_MARGIN = 48


def _fmt(n: int, d: int) -> str:
    """n/d (d > 0) as a fixed-point decimal with two fractional digits,
    rounded half to even like round(Fraction(n, d) * 100).

    >>> _fmt(401, 8), _fmt(403, 8), _fmt(-1, 3)
    ('50.12', '50.38', '-0.33')
    """
    scaled, rem = divmod(n * 100, d)
    if 2 * rem > d or (2 * rem == d and scaled % 2):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 100)
    return f"{sign}{whole}.{frac:02d}"


def render_svg(np: NewtonPolygon) -> str:
    """The polygon's vertices (ints or Fractions, as NewtonPolygon holds
    them), the polyline through them, and a label at each vertex and at
    the midpoint of each side, in a fixed 640 x 420 viewBox."""
    vs = np.vertices
    den = math.lcm(*(v.denominator for vertex in vs for v in vertex))
    pts = [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
           for x, y in vs]
    x0 = min(X for X, _ in pts)
    y0 = min(Y for _, Y in pts)
    spanx = (max(X for X, _ in pts) - x0) or den
    spany = (max(Y for _, Y in pts) - y0) or den

    # sx(x) = MARGIN + (x - x0)/spanx·(W - 2·MARGIN) and, since SVG y grows
    # downward, sy(y) = H - MARGIN - (y - y0)/spany·(H - 2·MARGIN): their
    # numerators over spanx and spany, for X, Y over den times `twice`
    def sx(X, twice=1):
        return _MARGIN * twice * spanx + (X - twice * x0) * (_W - 2 * _MARGIN)

    def sy(Y, twice=1):
        return (_H - _MARGIN) * twice * spany - (Y - twice * y0) * (_H - 2 * _MARGIN)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if len(pts) > 1:
        line = " ".join(f"{_fmt(sx(X), spanx)},{_fmt(sy(Y), spany)}" for X, Y in pts)
        out.append(
            f'<polyline points="{line}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    for (x, y), (X, Y) in zip(vs, pts):
        nx, ny = sx(X), sy(Y)
        label = f"({format_rat(x)}, {format_rat(y)})"
        cx, cy = _fmt(nx, spanx), _fmt(ny, spany)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="black"/>')
        out.append(
            f'<text x="{_fmt(nx + 6 * spanx, spanx)}" y="{_fmt(ny - 6 * spany, spany)}" '
            f'font-family="monospace" font-size="12">{label}</text>'
        )
    for side, (a, b) in zip(np.sides, zip(pts, pts[1:])):
        nx, ny = sx(a[0] + b[0], 2), sy(a[1] + b[1], 2)  # the midpoint, over twice the spans
        out.append(
            f'<text x="{_fmt(nx + 8 * spanx, 2 * spanx)}" '
            f'y="{_fmt(ny + 28 * spany, 2 * spany)}" '
            f'font-family="monospace" font-size="11" fill="#444">'
            f"slope {format_rat(side.slope)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
