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
slope out of the last breakpoint being the final slope.  Each function also
keeps, privately, the slope out of every breakpoint.  Only the constructor
checks its arguments and computes slopes from points; identity, inverse,
composition and phi_from_filtration know the slopes of the pieces they
build from canonical functions, and store those directly.
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
    docstring, and privately the slope of the piece out of each breakpoint
    (the last being the final slope).  Only the constructor checks its
    arguments and computes slopes; identity, inverse, compose and
    phi_from_filtration store the pieces they already know.
    """

    __slots__ = ("breakpoints", "final_slope", "_slopes")

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
        self._canonical(bps, slopes)

    def _canonical(self, points, slopes) -> "PiecewiseLinear":
        """Store the map whose i-th piece starts at points[i], a pair of
        Fractions, with slope slopes[i], in canonical form: a start point is
        dropped when its slope equals the slope before it.  Returns self."""
        kept = [0] + [i for i in range(1, len(slopes)) if slopes[i] != slopes[i - 1]]
        self._store(tuple([points[i] for i in kept]), slopes[-1])
        object.__setattr__(self, "_slopes", tuple([slopes[i] for i in kept]))
        return self

    @classmethod
    def identity(cls) -> "PiecewiseLinear":
        return cls.__new__(cls)._canonical([(Fraction(0), Fraction(0))], [Fraction(1)])

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if x < 0:
            raise ValueError("domain is [0, inf)")
        i = bisect_right(self.breakpoints, x, key=itemgetter(0)) - 1
        x0, y0 = self.breakpoints[i]
        return y0 + self._slopes[i] * (x - x0)

    def inverse(self) -> "PiecewiseLinear":
        return PiecewiseLinear.__new__(PiecewiseLinear)._canonical(
            [(y, x) for x, y in self.breakpoints], [1 / s for s in self._slopes]
        )

    def compose(self, inner: "PiecewiseLinear") -> "PiecewiseLinear":
        """self after inner: x -> self(inner(x)).

        The composite can bend only where inner does and where inner reaches
        a breakpoint of self.  Both lists increase in inner's values, so one
        merge walk meets these points in order, keeping the piece of each
        map it is on: at an inner breakpoint x and inner(x) are known and
        self continues its piece, at a breakpoint u of self inner is pulled
        back along its piece and self(u) is known, and a value that is both
        is one point that moves both lists on.  After each point the
        composite's slope is the product of the two pieces' stored slopes;
        the canonical store then drops the points where it does not change.
        Neither map is checked again: both are canonical already."""
        a, b = inner.breakpoints, self.breakpoints
        sa, sb = inner._slopes, self._slopes
        i = j = 0  # the pieces of inner and self the walk is on
        points, slopes = [a[0]], [sa[0] * sb[0]]
        while i + 1 < len(a) or j + 1 < len(b):
            ta = a[i + 1][1] if i + 1 < len(a) else None  # inner's next value
            tb = b[j + 1][0] if j + 1 < len(b) else None  # self's next argument
            t = tb if ta is None or (tb is not None and tb < ta) else ta
            x = a[i + 1][0] if t == ta else a[i][0] + (t - a[i][1]) / sa[i]
            z = b[j + 1][1] if t == tb else b[j][1] + (t - b[j][0]) * sb[j]
            points.append((x, z))
            if t == ta:
                i += 1
            if t == tb:
                j += 1
            slopes.append(sa[i] * sb[j])
        return PiecewiseLinear.__new__(PiecewiseLinear)._canonical(points, slopes)

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
    slope of psi.  Returns the points (0, 0), (b_i, image of b_i), ... and
    the slope out of each."""
    points, slopes = [(Fraction(0), Fraction(0))], [Fraction(1)]
    for b, d in filt.breaks:
        (x, t), s = points[-1], slopes[-1]
        points.append((b, t + s * (b - x)))
        slopes.append(s * d if inverse else s / d)
    return points, slopes


def phi_from_filtration(filt: BreakFiltration) -> PiecewiseLinear:
    """Transition function of a break filtration: slope 1 up to the first
    break, then (remaining order)/(total order) between consecutive breaks.

    >>> phi = phi_from_filtration(BreakFiltration(4, ((1, 2), (3, 2))))
    >>> phi(3)
    Fraction(2, 1)
    >>> phi.final_slope
    Fraction(1, 4)
    """
    return PiecewiseLinear.__new__(PiecewiseLinear)._canonical(*_walk(filt, inverse=False))


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
    moved = _walk(filt, inverse=False)[0][1:]
    return BreakFiltration(filt.order, [(t, d) for (_, t), (_, d) in zip(moved, filt.breaks)])


def upper_to_lower(filt: BreakFiltration) -> BreakFiltration:
    """Inverse of lower_to_upper: the input breaks are upper-numbering
    locations, pulled back through psi."""
    moved = _walk(filt, inverse=True)[0][1:]
    return BreakFiltration(filt.order, [(t, d) for (_, t), (_, d) in zip(moved, filt.breaks)])
