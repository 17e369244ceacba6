"""Ramification breaks of Eisenstein extensions of F_q((t)).

An Eisenstein polynomial f(x) = x^n + a_{n-1}x^{n-1} + ... + a_0 over
K = F_q((t)) cuts out a totally ramified extension L = K(alpha).  Inside L,
normalized so v_L(alpha) = 1 and v_L = n·v_K on the base, every valuation
is read exactly off basis coefficients: for beta = Σ c_k·alpha^k with
k < n the terms n·v_K(c_k) + k are distinct mod n, so

    v_L(beta) = min_k n·v_K(c_k) + k.

Only polynomials verified Eisenstein and separable are accepted: a
uniformiser of a totally ramified extension always has an Eisenstein minimal
polynomial (Serre, Local Fields, I §6), and any other root alpha breaks the
v_L(alpha) = 1 normalization.  An inseparable f (a_j = 0 for every j prime
to p, so f' = 0) has no conjugates sigma(alpha) to read breaks from.

The break data lives on the twisted polynomial g(x) = f(alpha·x + alpha) /
alpha^n, whose roots are sigma(alpha)/alpha - 1.  Its coefficients are
b_i/alpha^n with b_i = sum_{j >= i} C(j,i)·a_j·alpha^j, and since f is monic,
alpha^n = -sum_{k<n} a_k·alpha^k, so b_i is written down on the basis at
once: its coefficient at alpha^k is C(k,i)·a_k (when k >= i) minus
C(n,i)·a_k·a_n, binomials mod p.  The a_n factor is kept because a monic
a_n may still carry an O(t^P).  `ramification_polynomial` reports the
integer points (i, v_L(b_i) - n); `tate_breaks` renormalizes the
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
    known digit and every interior coefficient in the maximal ideal.  After
    those checks every a_j is an exact zero or has a known nonzero digit, so
    separability (some a_j != 0 with p not dividing j) is decided, and an
    inseparable f is refused with ValueError.
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
        if all(poly.coeff(j).is_exact_zero() for j in range(1, n + 1) if j % poly.field.p):
            raise ValueError("polynomial is inseparable: a_j = 0 for every j prime to p")
        self.poly = poly
        self.n = n
        self.field: FqField = poly.field

    def __repr__(self):
        return f"EisensteinExtension(n={self.n}, {self.poly!r})"


def ext_valuation(coeffs, n: int) -> int:
    """v_L of the nonzero element sum c_k·alpha^k (k < n), with
    v_L(alpha) = 1 and v_L = n·v_K on K.

    This is min_k (n·v(c_k) + k) over the representative's coefficients.  A
    c_k known only to O(t^P) bounds its term below by n·P + k; unless some
    determined term lies strictly below every bound the valuation is
    undecided and InsufficientPrecision is raised."""
    if len(coeffs) > n:
        raise ValueError(f"a representative has at most {n} coefficients, got {len(coeffs)}")
    best = bound = INF
    for k, c in enumerate(coeffs):
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


def _twisted_coefficient(f: SeriesPoly, i: int) -> list:
    """b_i = sum_{j >= i} C(j,i)·a_j·alpha^j on the basis 1, alpha, ...,
    alpha^(n-1): C(k,i)·a_k (k >= i) minus C(n,i)·a_k·a_n at alpha^k, with
    both binomials mod p and a term whose binomial vanishes left out.  An
    exact-zero a_k gives an exact-zero coefficient."""
    n, field = f.degree, f.field
    p = field.p
    an, cn = f.coeff(n), math.comb(n, i) % p
    out = []
    for k in range(n):
        ak = f.coeff(k)
        ck = math.comb(k, i) % p if k >= i else 0
        c = ak * ck if ck else LaurentSeries.zero(field)
        if cn:
            c = c + -(ak * an) * cn
        out.append(c)
    return out


def ramification_polynomial(ext: EisensteinExtension) -> list:
    """Integer points (i, v_L(b_i) - n) of g(x) = f(alpha·x + alpha)/alpha^n
    for i = 1..n, skipping exact-zero b_i.  b_n = alpha^n contributes
    (n, 0)."""
    n = ext.n
    points = []
    for i in range(1, n + 1):
        bi = _twisted_coefficient(ext.poly, i)
        if not all(c.is_exact_zero() for c in bi):
            points.append((i, ext_valuation(bi, n) - n))
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
    coeffs = [LaurentSeries.zero(field)] * (q + 1)
    coeffs[0] = LaurentSeries.t_power(field, 1, coeff=field.from_int(unit), prec=prec)
    coeffs[1] = LaurentSeries.t_power(field, c, coeff=field.from_int(lin_unit), prec=prec)
    coeffs[q] = LaurentSeries.one(field, prec=prec)
    return EisensteinExtension(SeriesPoly(field, coeffs))
