"""render_svg on integer numerators against the Fraction renderer kept in
tests/oracles.py: byte-identical output on every torsion snapshot of a
seeded trace set, on hulls with many denominators and on rounding ties."""

import random
from fractions import Fraction

import pytest

from oracles import render_svg_fraction
from ramtower.polygon import NewtonPolygon, build_polygon
from ramtower.svg import _fmt, render_svg
from ramtower.towers import torsion_valuations


def test_fmt_rounds_half_to_even_like_round_of_a_fraction():
    for d in range(1, 41):
        for n in range(-3 * d, 3 * d + 1):
            scaled = round(Fraction(n, d) * 100)
            whole, frac = divmod(abs(scaled), 100)
            assert _fmt(n, d) == f"{'-' if scaled < 0 else ''}{whole}.{frac:02d}", (n, d)
    # exact ties at the third decimal go to the even last digit
    assert [_fmt(n, 1000) for n in (5, 15, 125, 135, -125)] == [
        "0.00", "0.02", "0.12", "0.14", "-0.12",
    ]


def test_tie_at_the_third_decimal_prints_the_even_digit():
    # sx(1) = 48 + 544/256 = 50.125 exactly
    poly = build_polygon([(0, 2), (1, 1), (256, 0)])
    svg = render_svg(poly)
    assert '<circle cx="50.12" cy=' in svg
    assert svg == render_svg_fraction(poly)


def test_every_torsion_snapshot_renders_as_the_fraction_renderer():
    rng = random.Random(33)
    rendered = 0
    for _ in range(60):
        q = rng.choice((2, 3, 5))
        g = rng.randint(1, 2)
        a_vals = [
            Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))
        ]
        branch = rng.choice(("max", "min"))
        trace = torsion_valuations(a_vals, q=q, g=g, n_max=30, branch=branch)
        for poly in trace.snapshots:
            assert render_svg(poly) == render_svg_fraction(poly), (q, g, a_vals, branch)
            rendered += 1
    assert rendered == 60 * 30


@pytest.mark.parametrize("seed", range(6))
def test_hulls_with_many_denominators_render_as_the_fraction_renderer(seed):
    rng = random.Random(seed)
    pts = [
        (rng.randrange(400), Fraction(rng.randrange(10**4), rng.randint(1, 50)))
        for _ in range(rng.choice((3, 30, 600)))
    ]
    poly = build_polygon(pts)
    assert render_svg(poly) == render_svg_fraction(poly)


@pytest.mark.parametrize(
    "vertices",
    [
        ((3, Fraction(5, 2)),),  # one vertex: both spans are empty
        ((0, Fraction(1)), (4, Fraction(1))),  # flat: no vertical span
        ((Fraction(1, 3), Fraction(7, 5)), (Fraction(9, 2), Fraction(-2, 7))),
        ((0, Fraction(8)), (2, Fraction(3)), (3, Fraction(1)), (7, Fraction(0))),
    ],
)
def test_degenerate_and_fractional_vertices_render_as_the_fraction_renderer(vertices):
    poly = NewtonPolygon(vertices)
    assert render_svg(poly) == render_svg_fraction(poly)
