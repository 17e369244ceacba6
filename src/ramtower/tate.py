"""Ramification breaks of Eisenstein extensions of F_q((t)).

An Eisenstein polynomial f(x) = x^n + a_{n-1}x^{n-1} + ... + a_0 over
K = F_q((t)) cuts out a totally ramified extension L = K(alpha).  Inside L,
normalized so v_L(alpha) = 1 and v_L = n·v_K on the base, every valuation
is read exactly off basis coefficients: for beta = Σ c_k·alpha^k with
k < n the terms n·v_K(c_k) + k are distinct mod n, so

    v_L(beta) = min_k n·v_K(c_k) + k.

Only polynomials verified Eisenstein are accepted: a uniformiser of a totally
ramified extension always has an Eisenstein minimal polynomial (Serre, Local
Fields, I §6), and any other root alpha breaks the v_L(alpha) = 1
normalization.

The break data lives on the twisted polynomial g(x) = f(alpha·x + alpha) /
alpha^n, whose roots are sigma(alpha)/alpha - 1.  `ramification_polynomial`
reports the integer points (i, v_L(b_i)); `tate_breaks` renormalizes the
ordinates to base valuation (divide by n) and reads the breaks off the
y-intercepts of the negative-slope sides of the hull.  For the one-sided
polygon of a trinomial layer x^q + u1·t^v x + u0·t that intercept has the
closed form q·v/(q-1) - 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import closed_form_break, exact_log  # noqa: F401  (re-exported)
from .errors import InsufficientPrecision
from .fq import FqField
from .polygon import NewtonPolygon, build_polygon, format_rat, y_intercepts
from .record import Record
from .series import INF, LaurentSeries
from .seriespoly import SeriesPoly


class EisensteinExtension:
    """L = K(alpha) for a monic Eisenstein f; degree n >= 2.

    Coefficients with undetermined valuation raise InsufficientPrecision at
    construction, so alpha is verifiably a uniformiser: v(a_0) = 1 on a
    known digit and every interior coefficient in the maximal ideal.
    """

    def __init__(self, poly: SeriesPoly):
        n = poly.degree
        if n < 2:
            raise ValueError("degree must be at least 2")
        if not poly.is_monic():
            raise ValueError("polynomial must be monic")
        a0 = poly.coeff(0)
        if a0.is_exact_zero() or a0.valuation() != 1:
            raise ValueError("constant term must have valuation 1")
        for i in range(1, n):
            ai = poly.coeff(i)
            if not ai.is_exact_zero() and ai.valuation() < 1:
                raise ValueError(f"coefficient of x^{i} must sit in the maximal ideal")
        self.poly = poly
        self.n = n
        self.field: FqField = poly.field

    def element(self, coeffs) -> "ExtElement":
        """Element from a list of LaurentSeries coefficients in alpha."""
        return ExtElement(self, _reduce(list(coeffs), self.poly))

    def from_base(self, series: LaurentSeries) -> "ExtElement":
        return ExtElement(self, SeriesPoly(self.field, [series]))

    def alpha(self) -> "ExtElement":
        return ExtElement(
            self,
            SeriesPoly(
                self.field,
                [LaurentSeries.zero(self.field), LaurentSeries.one(self.field)],
            ),
        )

    def __repr__(self):
        return f"EisensteinExtension(n={self.n}, {self.poly!r})"


def _reduce(coeffs: list, f: SeriesPoly) -> SeriesPoly:
    """Long division remainder by monic f, exact series arithmetic."""
    n = f.degree
    coeffs = list(coeffs)
    for d in range(len(coeffs) - 1, n - 1, -1):
        lead = coeffs[d]
        if lead.is_exact_zero():
            continue
        for k in range(n):
            coeffs[d - n + k] = coeffs[d - n + k] - lead * f.coeff(k)
        coeffs[d] = LaurentSeries.zero(f.field)
    return SeriesPoly(f.field, coeffs[:n])


class ExtElement(Record):
    __slots__ = ("ext", "rep")

    def __init__(self, ext: EisensteinExtension, rep: SeriesPoly):
        self._store(ext, rep)

    def _join(self, other) -> "ExtElement":
        if not isinstance(other, ExtElement) or other.ext is not self.ext:
            raise ValueError("elements of different extensions")
        return other

    def __add__(self, other):
        other = self._join(other)
        return ExtElement(self.ext, self.rep + other.rep)

    def __sub__(self, other):
        other = self._join(other)
        return ExtElement(self.ext, self.rep - other.rep)

    def __neg__(self):
        return ExtElement(self.ext, -self.rep)

    def __mul__(self, other):
        other = self._join(other)
        prod = self.rep * other.rep
        return ExtElement(self.ext, _reduce(list(prod.coeffs), self.ext.poly))

    def is_exact_zero(self) -> bool:
        return all(c.is_exact_zero() for c in self.rep.coeffs)

    def is_known_zero(self) -> bool:
        """No coefficient has a digit known to be nonzero (weaker than
        exact zero when precision is finite)."""
        return all(c.known_zero() for c in self.rep.coeffs)

    def valuation(self) -> int:
        return ext_valuation(self)


def ext_valuation(elt: ExtElement) -> int:
    """v_L of a nonzero element, with v_L(alpha) = 1 and v_L = n·v_K on K.

    This is min_k (n·v(c_k) + k) over the reduced representative
    sum c_k·alpha^k.  A c_k known only to O(t^P) bounds its term below by
    n·P + k; unless some determined term lies strictly below every bound the
    valuation is undecided and InsufficientPrecision is raised."""
    if elt.is_exact_zero():
        raise ValueError("valuation of zero")
    ext = elt.ext
    n, rep = ext.n, elt.rep
    if rep.degree >= n:
        rep = _reduce(list(rep.coeffs), ext.poly)
    best = bound = INF
    for k, c in enumerate(rep.coeffs):
        if c.known_zero():
            bound = min(bound, n * c.valuation_lower_bound() + k)
        else:
            best = min(best, n * c.valuation() + k)
    if best == bound == INF:
        raise ValueError("valuation of zero")
    if best >= bound:
        raise InsufficientPrecision(
            "valuation undecided: a coefficient known only to finite precision "
            "could undercut every determined term"
        )
    return best


def ramification_polynomial(ext: EisensteinExtension) -> list:
    """Integer points (i, v_L(b_i)) of g(x) = f(alpha·x + alpha)/alpha^n for
    i = 1..n; the i = 0 coefficient is f(alpha) = 0 and is checked, not
    reported.  b_n = 1 contributes (n, 0)."""
    f, n, field = ext.poly, ext.n, ext.field
    p = field.p
    alpha = ext.alpha()
    powers = [ext.from_base(LaurentSeries.one(field))]
    for _ in range(n):
        powers.append(powers[-1] * alpha)

    def coeff_elt(i: int) -> ExtElement:
        total = None
        for j in range(i, n + 1):
            c = math.comb(j, i) % p
            if not c:
                continue
            aj = f.coeff(j)
            if aj.is_exact_zero():
                continue
            term = ExtElement(
                ext, _reduce([s * field.from_int(c) for s in (powers[j].rep * aj).coeffs], f)
            )
            total = term if total is None else total + term
        return total if total is not None else ext.from_base(LaurentSeries.zero(field))

    b0 = coeff_elt(0)
    if not b0.is_known_zero():
        raise AssertionError("f(alpha) did not reduce to zero")
    points = []
    for i in range(1, n + 1):
        bi = coeff_elt(i)
        if bi.is_exact_zero():
            continue
        if bi.is_known_zero():
            raise InsufficientPrecision(
                f"coefficient {i} of the ramification polynomial vanishes to "
                "working precision; rebuild the extension with more digits"
            )
        points.append((i, ext_valuation(bi) - n))
    return points


class HypothesisReport(Record):
    """v(a_i) >= v(a_1) for every interior coefficient, plus degree shape."""

    __slots__ = ("ok", "witness", "p_power_degree", "degree_log")

    def __init__(
        self, ok: bool, witness: tuple | None, p_power_degree: bool, degree_log: int | None
    ):
        self._store(ok, witness, p_power_degree, degree_log)

    def as_json(self):
        return {
            "ok": self.ok,
            "witness": list(self.witness) if self.witness else None,
            "p_power_degree": self.p_power_degree,
            "degree_log": self.degree_log,
        }


def check_tate_hypothesis(ext: EisensteinExtension) -> HypothesisReport:
    f, n = ext.poly, ext.n
    a1 = f.coeff(1)
    ok, witness = True, None
    # nothing can undercut an infinite reference valuation
    if not a1.is_exact_zero():
        v1 = a1.valuation()
        for i in range(1, n):
            ai = f.coeff(i)
            if ai.is_exact_zero():
                continue
            vi = ai.valuation()
            if vi < v1:
                ok, witness = False, (i, vi, v1)
                break
    k = exact_log(n, ext.field.p)
    return HypothesisReport(ok, witness, k is not None, k)


class TateBreaks(Record):
    __slots__ = ("breaks", "polygon", "points", "hypothesis")

    def __init__(
        self, breaks: tuple, polygon: NewtonPolygon, points: tuple, hypothesis: HypothesisReport
    ):
        self._store(breaks, polygon, points, hypothesis)

    def as_json(self):
        return {
            "breaks": [format_rat(b) for b in self.breaks],
            "points": [[i, v] for i, v in self.points],
            "polygon": self.polygon.as_json(),
            "hypothesis": self.hypothesis.as_json(),
        }


def tate_breaks(ext: EisensteinExtension) -> TateBreaks:
    """Ramification breaks of the layer, ascending.

    The hull is taken over (i, v_L(b_i)/n) — ordinates renormalized to the
    base valuation — and each negative-slope side contributes its
    y-intercept as one break.

    >>> from ramtower.fq import fq_field
    >>> tate_breaks(eisenstein_trinomial(fq_field(3), 3)).breaks
    (Fraction(7, 2),)
    """
    pts = ramification_polynomial(ext)
    n = ext.n
    normalized = [(i, Fraction(v, n)) for i, v in pts]
    poly = build_polygon(normalized)
    breaks = tuple(y_intercepts(poly))
    return TateBreaks(
        breaks=breaks,
        polygon=poly,
        points=tuple(pts),
        hypothesis=check_tate_hypothesis(ext),
    )


def eisenstein_trinomial(
    field: FqField, c: int, unit: int = 1, lin_unit: int = 1, prec: int | None = None
) -> EisensteinExtension:
    """x^q + lin_unit·t^c·x + unit·t over F_q((t)), with enough precision for
    break extraction (4·q·c digits unless overridden)."""
    q = field.q
    if c < 1:
        raise ValueError("c must be positive")
    if prec is None:
        prec = 4 * q * c + 8
    terms = {
        0: LaurentSeries.t_power(field, 1, coeff=field.from_int(unit), prec=prec),
        1: LaurentSeries.t_power(field, c, coeff=field.from_int(lin_unit), prec=prec),
        q: LaurentSeries.one(field, prec=prec),
    }
    return EisensteinExtension(SeriesPoly.from_terms(field, terms))
