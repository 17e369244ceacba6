"""Polynomials in one variable with Laurent-series coefficients over F_q.

This is the carrier for Eisenstein polynomials; `polygon.root_valuations`
reads root valuations off its coefficients.  Its one arithmetic operation is
the product, by a polynomial or by a series, which builds a polynomial from
planted linear factors.  The resultant is a Sylvester determinant computed
by division-free minor expansion, so precision propagates through series
+ and * only; the expansion is exponential in the degree.  Extension
valuations are read off basis coefficients (tate.ext_valuation); the
resultant norm is the reference the tests check that reading against.
"""

from __future__ import annotations

from .fq import FqField
from .series import LaurentSeries, format_series, parse_series


class SeriesPoly:
    """f(x) = sum coeffs[i] x^i; exact-zero leading coefficients are trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_exact_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_literals(cls, field: FqField, literals, default_prec: int | None = None):
        """Coefficients as series literals, ascending degree."""
        return cls(field, [parse_series(s, field, default_prec) for s in literals])

    @property
    def degree(self) -> int:
        """Degree as stored; the leading coefficient may still be an
        indeterminate zero if it was built from truncated data."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> LaurentSeries:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return LaurentSeries.zero(self.field)

    def is_monic(self) -> bool:
        if not self.coeffs:
            return False
        lead = self.coeffs[-1]
        return lead.v0 == 0 and lead.coeffs == (self.field.one(),)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return SeriesPoly(self.field, [c * other for c in self.coeffs])
        out = [LaurentSeries.zero(self.field)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_exact_zero():
                for j, b in enumerate(other.coeffs):
                    if not b.is_exact_zero():
                        out[i + j] = out[i + j] + a * b
        return SeriesPoly(self.field, out)

    def __repr__(self):
        inner = ", ".join(format_series(c) for c in self.coeffs)
        return f"SeriesPoly([{inner}])"


def resultant(f: SeriesPoly, g: SeriesPoly) -> LaurentSeries:
    """Sylvester determinant of f and g.

    Rows 0..deg(g)-1 carry the coefficients of f (descending), rows
    deg(g)..deg(g)+deg(f)-1 those of g, each shifted right by the row index
    within its block.  For monic f this equals the product of g over the
    roots of f, hence the norm of g(root).
    """
    n, m = f.degree, g.degree
    if n < 0 or m < 0:
        raise ValueError("resultant of the zero polynomial")
    field = f.field
    if n == 0 and m == 0:
        return LaurentSeries.one(field)
    size = n + m
    zero = LaurentSeries.zero(field)
    rows = []
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([zero] * i + fd + [zero] * (size - n - 1 - i))
    for i in range(n):
        rows.append([zero] * i + gd + [zero] * (size - m - 1 - i))
    return _det(rows, field)


def _det(rows, field: FqField) -> LaurentSeries:
    """Division-free determinant by minor expansion, memoized on column sets."""
    size = len(rows)
    full = (1 << size) - 1
    memo: dict[int, LaurentSeries] = {0: LaurentSeries.one(field)}

    def minor(mask: int) -> LaurentSeries:
        # mask = set of remaining columns; row index = size - popcount(mask)
        if mask in memo:
            return memo[mask]
        r = size - bin(mask).count("1")
        row = rows[r]
        acc = LaurentSeries.zero(field)
        sign = 1
        rest = mask
        while rest:
            low = rest & (-rest)
            c = low.bit_length() - 1
            entry = row[c]
            if not entry.is_exact_zero():
                sub = minor(mask ^ low)
                term = entry * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
            rest ^= low
        memo[mask] = acc
        return acc

    return minor(full)
