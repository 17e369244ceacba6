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

Everything here is exact rational arithmetic; piecewise-linear functions are
kept canonical (no collinear interior breakpoints) so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .polygon import format_rat, parse_rat


@dataclass(frozen=True)
class BreakFiltration:
    """Total order plus (break location, drop factor) pairs, breaks strictly
    increasing and positive, each drop dividing the order remaining there."""

    order: int
    breaks: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if self.order < 1:
            raise ParameterError("order must be positive")
        object.__setattr__(
            self, "breaks", tuple((Fraction(b), int(d)) for b, d in self.breaks)
        )
        left = self.order
        prev = Fraction(0)
        for b, d in self.breaks:
            if b <= prev:
                raise ParameterError("breaks must be positive and strictly increasing")
            if d < 2 or left % d:
                raise ParameterError(f"drop {d} does not divide remaining order {left}")
            left //= d
            prev = b

    def as_json(self):
        return {
            "order": self.order,
            "breaks": [[format_rat(b), d] for b, d in self.breaks],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(int(obj["order"]), tuple((parse_rat(b), int(d)) for b, d in obj["breaks"]))


class PiecewiseLinear:
    """Increasing piecewise-linear function on [0, inf), exact rational.

    Stored as breakpoints [(x_i, y_i)] starting at (0, 0) plus the slope past
    the last breakpoint.  The representation is canonical: interior
    breakpoints where the slope does not change are merged away.
    """

    __slots__ = ("breakpoints", "final_slope")

    def __init__(self, breakpoints, final_slope):
        bps = [(Fraction(x), Fraction(y)) for x, y in breakpoints]
        if not bps or bps[0] != (0, 0):
            raise ValueError("piecewise-linear functions here start at (0, 0)")
        final_slope = Fraction(final_slope)
        if final_slope <= 0:
            raise ValueError("slopes must be positive")
        canon: list[tuple[Fraction, Fraction]] = [bps[0]]
        for x, y in bps[1:]:
            if x <= canon[-1][0]:
                raise ValueError("breakpoint x-values must increase strictly")
            if y <= canon[-1][1]:
                raise ValueError("function must increase strictly")
            canon.append((x, y))
        # merge interior points where adjacent slopes agree (incl. final slope)
        out: list[tuple[Fraction, Fraction]] = []
        for i, (x, y) in enumerate(canon):
            while len(out) >= 2:
                (x0, y0), (x1, y1) = out[-2], out[-1]
                if (y1 - y0) * (x - x0) == (y - y0) * (x1 - x0):
                    out.pop()
                else:
                    break
            out.append((x, y))
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            if (y1 - y0) == final_slope * (x1 - x0):
                out.pop()
            else:
                break
        self.breakpoints = tuple(out)
        self.final_slope = final_slope

    @classmethod
    def identity(cls) -> "PiecewiseLinear":
        return cls([(0, 0)], 1)

    @property
    def initial_slope(self) -> Fraction:
        if len(self.breakpoints) >= 2:
            (x0, y0), (x1, y1) = self.breakpoints[0], self.breakpoints[1]
            return (y1 - y0) / (x1 - x0)
        return self.final_slope

    def __eq__(self, other):
        return (
            isinstance(other, PiecewiseLinear)
            and self.breakpoints == other.breakpoints
            and self.final_slope == other.final_slope
        )

    def __hash__(self):
        return hash((self.breakpoints, self.final_slope))

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if x < 0:
            raise ValueError("domain is [0, inf)")
        bps = self.breakpoints
        if x >= bps[-1][0]:
            x0, y0 = bps[-1]
            return y0 + self.final_slope * (x - x0)
        lo, hi = 0, len(bps) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bps[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x0, y0), (x1, y1) = bps[lo], bps[hi]
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

    @classmethod
    def from_json(cls, obj):
        return cls(
            [(parse_rat(x), parse_rat(y)) for x, y in obj["breakpoints"]],
            parse_rat(obj["final_slope"]),
        )

    def __repr__(self):
        pts = ", ".join(f"({x}, {y})" for x, y in self.breakpoints)
        return f"PiecewiseLinear([{pts}], final_slope={self.final_slope})"


def phi_from_filtration(filt: BreakFiltration) -> PiecewiseLinear:
    """Transition function of a break filtration: slope 1 up to the first
    break, then (remaining order)/(total order) between consecutive breaks.

    >>> phi = phi_from_filtration(BreakFiltration(4, ((1, 2), (3, 2))))
    >>> phi(3)
    Fraction(2, 1)
    >>> phi.final_slope
    Fraction(1, 4)
    """
    bps = [(Fraction(0), Fraction(0))]
    left = filt.order
    x0, y0 = bps[0]
    for b, d in filt.breaks:
        slope = Fraction(left, filt.order)
        y0 = y0 + slope * (b - x0)
        x0 = b
        bps.append((x0, y0))
        left //= d
    return PiecewiseLinear(bps, Fraction(left, filt.order))


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
    phi = phi_from_filtration(filt)
    return BreakFiltration(filt.order, tuple((phi(b), d) for b, d in filt.breaks))


def upper_to_lower(filt: BreakFiltration) -> BreakFiltration:
    """Inverse of lower_to_upper: the input breaks are upper-numbering
    locations; rebuild the lower ones progressively."""
    out = []
    left = filt.order
    x_prev = Fraction(0)
    u_prev = Fraction(0)
    for u, d in filt.breaks:
        slope = Fraction(left, filt.order)
        b = x_prev + (u - u_prev) / slope
        out.append((b, d))
        left //= d
        x_prev, u_prev = b, u
    return BreakFiltration(filt.order, tuple(out))

