"""Truncated Laurent series over a finite field F_q, with absolute precision.

A series is a finite table of known coefficients plus an absolute precision
P, meaning "known modulo t^P".  The operations are the ring ones between
series (+, -, *), multiplication by a scalar on the right, and truncation,
plus a literal grammar that parses and formats series; there is no division
or composition.  They propagate precision pessimistically and never
fabricate digits; a question that the known digits cannot answer raises
InsufficientPrecision instead of guessing.

An exact series has precision INF (+infinity), the same INF that is the
valuation of the exact zero; `prec=None` in a constructor means INF.  So
precision is always a number: sums and truncations take a minimum, and a
product a·b is known to min(P_a + v(b), P_b + v(a)), where v is the
valuation's lower bound (P for a zero mod t^P).  The zero series comes in
two flavours: exact zero (precision and valuation INF) and "zero modulo
t^P", whose valuation is undecidable.
"""

from __future__ import annotations

import math
import re

from .errors import FieldMismatch, InsufficientPrecision
from .fq import FqElem, FqField

INF = math.inf


class LaurentSeries:
    __slots__ = ("field", "v0", "coeffs", "prec")

    def __init__(self, field: FqField, v0: int, coeffs: tuple[FqElem, ...], prec: int | None):
        if prec is None:
            prec = INF
        # normalize: strip leading/trailing zero coefficients, clamp to precision
        lo = 0
        hi = len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        v0 += lo
        hi = min(hi, lo + max(0, prec - v0))
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        coeffs = coeffs[lo:hi]
        if not coeffs:
            v0 = 0
        self.field = field
        self.v0 = v0
        self.coeffs = coeffs
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, field: FqField, terms: dict[int, FqElem | int], prec: int | None = None):
        if not terms:
            return cls(field, 0, (), prec)
        lo = min(terms)
        hi = max(terms) + 1
        row = [field.zero()] * (hi - lo)
        for e, c in terms.items():
            row[e - lo] = field.from_int(c) if isinstance(c, int) else c
        return cls(field, lo, tuple(row), prec)

    @classmethod
    def zero(cls, field: FqField, prec: int | None = None):
        return cls(field, 0, (), prec)

    @classmethod
    def one(cls, field: FqField, prec: int | None = None):
        return cls.from_terms(field, {0: 1}, prec)

    @classmethod
    def t_power(cls, field: FqField, k: int, coeff: int | FqElem = 1, prec: int | None = None):
        return cls.from_terms(field, {k: coeff}, prec)

    # -- structure ---------------------------------------------------------

    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.prec == INF

    def known_zero(self) -> bool:
        return not self.coeffs

    def valuation(self):
        """Exact valuation, +inf for the exact zero series.

        Raises InsufficientPrecision when all known digits vanish but the
        precision is finite.
        """
        if not self.coeffs and self.prec < INF:
            raise InsufficientPrecision(f"series is 0 mod t^{self.prec}; valuation unknown")
        return self.valuation_lower_bound()

    def valuation_lower_bound(self):
        return self.v0 if self.coeffs else self.prec

    def coeff(self, e: int) -> FqElem:
        """Coefficient of t^e; raises if e is beyond the known precision."""
        if e >= self.prec:
            raise InsufficientPrecision(f"coefficient of t^{e} unknown (precision {self.prec})")
        if self.v0 <= e < self.v0 + len(self.coeffs):
            return self.coeffs[e - self.v0]
        return self.field.zero()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.v0 == other.v0
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.field, self.v0, self.coeffs, self.prec))

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return LaurentSeries(other.field, other.v0, other.coeffs, prec)
        if not other.coeffs:
            return LaurentSeries(self.field, self.v0, self.coeffs, prec)
        lo = min(self.v0, other.v0)
        hi = max(self.v0 + len(self.coeffs), other.v0 + len(other.coeffs))
        row = [self.field.zero()] * (hi - lo)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                row[s.v0 + i - lo] = row[s.v0 + i - lo] + c
        return LaurentSeries(self.field, lo, tuple(row), prec)

    def __neg__(self):
        return LaurentSeries(self.field, self.v0, tuple(-c for c in self.coeffs), self.prec)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, FqElem)):
            c = self.field.from_int(other) if isinstance(other, int) else other
            return LaurentSeries(self.field, self.v0, tuple(a * c for a in self.coeffs), self.prec)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        prec = min(
            self.prec + other.valuation_lower_bound(), other.prec + self.valuation_lower_bound()
        )
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return LaurentSeries(self.field, self.v0 + other.v0, tuple(out), prec)

    def truncate(self, prec: int):
        return LaurentSeries(self.field, self.v0, self.coeffs, min(self.prec, prec))

    def __repr__(self):
        return f"LaurentSeries({format_series(self)!r})"


# -- literal parsing -------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[tO()^*+-])")


def parse_series(text: str, field: FqField, default_prec: int | None = None) -> LaurentSeries:
    """Parse a series literal like `t^2*(1 + 2*t) + O(t^10)`.

    Integer coefficients are reduced into F_q through the base-p digit map;
    a leading `-` negates in F_q, so `-t + t` is the exact zero.
    `O(t^P)` contributes a zero-known series of absolute precision P; its
    argument is read like a bare power, so `O(t)` is `O(t^1)`.  Scaling by
    t^k shifts it, so `t^3*(1 + O(t^2))` means t^3 + O(t^5).  Exponents may
    be negative.  When the literal has no O-term the result is exact unless
    `default_prec` is given.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad series literal near {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    parser = _Parser(tokens, field)
    s = parser.parse_sum()
    if parser.pos != len(tokens):
        raise ValueError(f"trailing tokens in series literal: {tokens[parser.pos:]}")
    if s.prec == INF:
        s = LaurentSeries(field, s.v0, s.coeffs, default_prec)
    return s


class _Parser:
    def __init__(self, tokens, field):
        self.tokens = tokens
        self.field = field
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise ValueError(f"expected {expect!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse_sum(self):
        sign = self.take() if self.peek() in ("+", "-") else "+"
        s = self.parse_product()
        if sign == "-":
            s = -s
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_product()
            s = s + rhs if op == "+" else s - rhs
        return s

    def parse_product(self):
        s = self.parse_atom()
        while self.peek() == "*":
            self.take("*")
            s = s * self.parse_atom()
        return s

    def parse_atom(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of series literal")
        if tok == "(":
            self.take("(")
            s = self.parse_sum()
            self.take(")")
            return s
        if tok == "O":
            self.take("O")
            self.take("(")
            e = self._t_exponent()
            self.take(")")
            return LaurentSeries.zero(self.field, e)
        if tok == "t":
            return LaurentSeries.t_power(self.field, self._t_exponent())
        if tok.isdigit():
            self.take()
            return LaurentSeries.from_terms(self.field, {0: int(tok)})
        raise ValueError(f"unexpected token {tok!r} in series literal")

    def _t_exponent(self):
        """k of a power `t` (k = 1) or `t^k`."""
        self.take("t")
        if self.peek() != "^":
            return 1
        self.take("^")
        return self._signed_int()

    def _signed_int(self):
        neg = False
        if self.peek() == "-":
            self.take("-")
            neg = True
        tok = self.take()
        if not tok.isdigit():
            raise ValueError(f"expected integer, got {tok!r}")
        return -int(tok) if neg else int(tok)


def format_series(s: LaurentSeries) -> str:
    """Canonical literal for a series; parse_series round-trips it."""
    parts = []
    if s.coeffs:
        inner = []
        for i, c in enumerate(s.coeffs):
            if not c:
                continue
            n = c.to_int()
            e = s.v0 + i
            if e == 0:
                inner.append(str(n))
            elif e == 1:
                inner.append("t" if n == 1 else f"{n}*t")
            else:
                inner.append(f"t^{e}" if n == 1 else f"{n}*t^{e}")
        parts.append(" + ".join(inner))
    if s.prec < INF:
        parts.append(f"O(t^{s.prec})")
    if not parts:
        return "0"
    return " + ".join(parts)
