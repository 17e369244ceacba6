"""Ramification break data and Herbrand transition functions.

Conventions.  Ramification groups are indexed so that the group at 0 is the
full (totally ramified) Galois group; a filtration is described by its total
order together with the strictly increasing break locations and the factor by
which the order drops just past each break.  The transition function of such
a filtration is

    phi(x) = integral from 0 to x of (order at t) / (total order) dt,

an increasing piecewise-linear bijection of [0, inf) with phi(0) = 0 and
slope 1 before the first break.  Its inverse converts upper indexing back to
lower indexing, and transition functions of towers compose bottom-to-top.

Everything here is exact rational arithmetic.  A piecewise-linear function
is kept canonical, so equality is structural: a breakpoint past (0, 0) is
kept exactly when the slope into it differs from the slope out of it, the
slope out of the last breakpoint being the final slope.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter

from .errors import ParameterError
from .polygon import format_rat
from .record import Record


def _integer(value, name: str) -> int:
    """value as an int; ParameterError unless it equals one."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def _rational(value, name: str) -> Fraction:
    """value as a Fraction; ParameterError unless it names a finite rational."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ParameterError(f"{name} must be a rational number, got {value!r}") from None


class BreakFiltration(Record):
    """Total order plus (break location, drop factor) pairs, breaks strictly
    increasing and positive, each drop dividing the order remaining there."""

    __slots__ = ("order", "breaks")

    def __init__(self, order: int, breaks: tuple[tuple[Fraction, int], ...]):
        order = _integer(order, "order")
        if order < 1:
            raise ParameterError("order must be positive")
        breaks = tuple((_rational(b, "break"), _integer(d, "drop")) for b, d in breaks)
        left = order
        prev = Fraction(0)
        for b, d in breaks:
            if b <= prev:
                raise ParameterError("breaks must be positive and strictly increasing")
            if d < 2 or left % d:
                raise ParameterError(f"drop {d} does not divide remaining order {left}")
            left //= d
            prev = b
        self._store(order, breaks)

    def as_json(self):
        return {
            "order": self.order,
            "breaks": [[format_rat(b), d] for b, d in self.breaks],
        }


class PiecewiseLinear(Record):
    """Increasing piecewise-linear function on [0, inf), exact rational.

    Stored as breakpoints ((x_i, y_i), ...) starting at (0, 0) plus the
    slope past the last breakpoint, in the canonical form of the module
    docstring.
    """

    __slots__ = ("breakpoints", "final_slope")

    def __init__(self, breakpoints, final_slope):
        bps = [(Fraction(x), Fraction(y)) for x, y in breakpoints]
        if not bps or bps[0] != (0, 0):
            raise ValueError("piecewise-linear functions here start at (0, 0)")
        final_slope = Fraction(final_slope)
        if final_slope <= 0:
            raise ValueError("slopes must be positive")
        slopes = []
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if x1 <= x0:
                raise ValueError("breakpoint x-values must increase strictly")
            if y1 <= y0:
                raise ValueError("function must increase strictly")
            slopes.append((y1 - y0) / (x1 - x0))
        slopes.append(final_slope)
        kept = [pt for pt, s0, s1 in zip(bps[1:], slopes, slopes[1:]) if s0 != s1]
        self._store((bps[0], *kept), final_slope)

    @classmethod
    def identity(cls) -> "PiecewiseLinear":
        return cls([(0, 0)], 1)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if x < 0:
            raise ValueError("domain is [0, inf)")
        bps = self.breakpoints
        i = bisect_right(bps, x, key=itemgetter(0))
        x0, y0 = bps[i - 1]
        if i == len(bps):
            return y0 + self.final_slope * (x - x0)
        x1, y1 = bps[i]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def inverse(self) -> "PiecewiseLinear":
        return PiecewiseLinear(
            [(y, x) for x, y in self.breakpoints], 1 / self.final_slope
        )

    def compose(self, inner: "PiecewiseLinear") -> "PiecewiseLinear":
        """self after inner: x -> self(inner(x))."""
        xs = {x for x, _ in inner.breakpoints}
        pull = inner.inverse()
        for u, _ in self.breakpoints:
            xs.add(pull(u))
        bps = [(x, self(inner(x))) for x in sorted(xs)]
        return PiecewiseLinear(bps, self.final_slope * inner.final_slope)

    def as_json(self):
        return {
            "breakpoints": [[format_rat(x), format_rat(y)] for x, y in self.breakpoints],
            "final_slope": format_rat(self.final_slope),
        }

    def __repr__(self):
        pts = ", ".join(f"({x}, {y})" for x, y in self.breakpoints)
        return f"PiecewiseLinear([{pts}], final_slope={self.final_slope})"


def _walk(filt: BreakFiltration, inverse: bool):
    """Walk from (0, 0) through the breaks b_i of `filt`: each b_i is reached
    with slope left/order (the order left before b_i over the total order),
    the slope of phi, or with its reciprocal order/left when `inverse`, the
    slope of psi.  Returns the pairs (image of b_i, drop at b_i) and the
    slope past the last break."""
    moved = []
    x = t = Fraction(0)
    slope = Fraction(1)
    for b, d in filt.breaks:
        t += slope * (b - x)
        x = b
        moved.append((t, d))
        slope = slope * d if inverse else slope / d
    return tuple(moved), slope


def phi_from_filtration(filt: BreakFiltration) -> PiecewiseLinear:
    """Transition function of a break filtration: slope 1 up to the first
    break, then (remaining order)/(total order) between consecutive breaks.

    >>> phi = phi_from_filtration(BreakFiltration(4, ((1, 2), (3, 2))))
    >>> phi(3)
    Fraction(2, 1)
    >>> phi.final_slope
    Fraction(1, 4)
    """
    moved, slope = _walk(filt, inverse=False)
    bps = [(0, 0)] + [(b, y) for (b, _), (y, _) in zip(filt.breaks, moved)]
    return PiecewiseLinear(bps, slope)


def compose_tower(filtrations) -> PiecewiseLinear:
    """Transition function of a tower, bottom layer first:
    phi_tower = phi_1 after phi_2 after ... after phi_k."""
    total = PiecewiseLinear.identity()
    for filt in filtrations:
        total = total.compose(phi_from_filtration(filt))
    return total


def lower_to_upper(filt: BreakFiltration) -> BreakFiltration:
    """Push the break locations through phi (upper numbering); drops and
    order are unchanged."""
    return BreakFiltration(filt.order, _walk(filt, inverse=False)[0])


def upper_to_lower(filt: BreakFiltration) -> BreakFiltration:
    """Inverse of lower_to_upper: the input breaks are upper-numbering
    locations, pulled back through psi."""
    return BreakFiltration(filt.order, _walk(filt, inverse=True)[0])
