import bisect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramtower.fq import fq_field
from ramtower.polygon import (
    NewtonPolygon,
    Side,
    brute_force_hull,
    build_polygon,
    format_rat,
    parse_rat,
    root_valuations,
    y_intercepts,
)
from ramtower.series import LaurentSeries
from ramtower.seriespoly import SeriesPoly

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=48
)
point_sets = st.lists(
    st.tuples(st.integers(min_value=0, max_value=80), rationals),
    min_size=1,
    max_size=64,
)


@given(point_sets)
@settings(max_examples=300, deadline=None)
def test_hull_matches_brute_force(pts):
    assert build_polygon(pts) == brute_force_hull(pts)


@given(point_sets)
@settings(max_examples=100, deadline=None)
def test_hull_slopes_strictly_increase(pts):
    sides = build_polygon(pts).sides
    for a, b in zip(sides, sides[1:]):
        assert a.slope < b.slope


@given(point_sets)
@settings(max_examples=100, deadline=None)
def test_hull_lies_under_all_points(pts):
    np_ = build_polygon(pts)
    vs = np_.vertices
    for x, y in pts:
        # points inside the x-range must sit on or above the hull
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if x0 <= x <= x1:
                lhs = (y - y0) * (x1 - x0)
                rhs = (y1 - y0) * (x - x0)
                assert lhs >= rhs


def test_worked_example():
    np_ = build_polygon([(1, 1), (2, 1), (4, 0)])
    assert np_.vertices == ((1, Fraction(1)), (4, Fraction(0)))
    (side,) = np_.sides
    assert side.slope == Fraction(-1, 3)
    assert side.length == 3


def test_duplicate_abscissa_keeps_lowest():
    np_ = build_polygon([(0, 5), (0, 2), (3, 0), (3, 7)])
    assert np_.vertices == ((0, Fraction(2)), (3, Fraction(0)))


def _split_poly(field, rng, k):
    """Product of (x - u*t^m) factors with planted integer valuations."""
    planted = []
    f = SeriesPoly(field, [LaurentSeries.one(field)])
    for _ in range(k):
        m = rng.randint(0, 9)
        u = rng.randrange(1, field.q)
        root = LaurentSeries.t_power(field, m, coeff=u)
        factor = SeriesPoly(field, [root * -1, LaurentSeries.one(field)])
        f = f * factor
        planted.append(m)
    return f, planted


@pytest.mark.parametrize("q", [2, 3, 4])
def test_root_valuations_recover_planted_multiset(q):
    p = 2 if q in (2, 4) else 3
    field = fq_field(p, 2 if q == 4 else 1)
    rng = random.Random(q)
    for _ in range(40):
        f, planted = _split_poly(field, rng, rng.randint(1, 6))
        got = []
        for val, mult in root_valuations(f):
            assert val.denominator == 1
            got.extend([int(val)] * mult)
        assert sorted(got) == sorted(planted)


def test_root_valuations_merge_under_product():
    field = fq_field(2)
    rng = random.Random(7)
    f, pf = _split_poly(field, rng, 3)
    g, pg = _split_poly(field, rng, 4)
    combined = []
    for val, mult in root_valuations(f * g):
        combined.extend([val] * mult)
    assert sorted(combined) == sorted([Fraction(v) for v in pf + pg])


def test_y_intercepts_sorted_and_positive_slopes_dropped():
    np_ = build_polygon([(0, 3), (1, 1), (2, 0), (3, 2)])
    ys = y_intercepts(np_)
    assert ys == sorted(ys)
    assert all(b > 0 for b in ys)
    # the flat/rising tail contributes nothing
    assert y_intercepts(build_polygon([(0, 0), (2, 1)])) == []


def test_json_round_trip():
    np_ = build_polygon([(0, Fraction(7, 2)), (1, 1), (5, 0)])
    again = NewtonPolygon.from_json(np_.as_json())
    assert again == np_


def _old_sides(vertices):
    out = []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        slope = Fraction(y1 - y0, x1 - x0)
        out.append(Side(slope, x1 - x0, y0 - slope * x0))
    return tuple(out)


vertex_lists = st.lists(
    st.tuples(
        st.integers(-200, 200),
        st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**64)),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda v: v[0],
).map(sorted)


@given(vertex_lists)
@settings(max_examples=300, deadline=None)
def test_sides_keep_their_formula(vertices):
    # sides on integer numerators and denominators against the Fraction formula,
    # also off the hull: x0 != 0, negative x and ordinates, denominators to 2^64
    np_ = NewtonPolygon(tuple(vertices))
    old = _old_sides(np_.vertices)
    assert np_.sides == old
    assert np_.as_json() == {
        "vertices": [[x, format_rat(y)] for x, y in vertices],
        "sides": [side.as_json() for side in old],
    }


def test_rat_string_round_trip():
    for x in (Fraction(7, 2), Fraction(-3), Fraction(0), Fraction(22, 7)):
        assert parse_rat(format_rat(x)) == x


def _old_format_rat(r):
    r = Fraction(r)
    return f"{r.numerator}/{r.denominator}" if r.denominator != 1 else str(r.numerator)


BIG = 2**200 + 1


@pytest.mark.parametrize(
    "r",
    [0, 7, -7, BIG, -BIG, True, False,
     Fraction(-3, 4), Fraction(-8, 2), Fraction(5, 1), Fraction(0), Fraction(BIG, 3),
     Fraction(-(2**200), BIG), Fraction(BIG, 2**200),
     "6/4", " -6/4 ", "5", "0.125", 0.5, -2.0],
    ids=repr,
)
def test_format_rat_keeps_its_formula(r):
    # a Fraction or an int prints itself; bools and everything else Fraction
    # accepts still go through Fraction(r)
    assert format_rat(r) == _old_format_rat(r)


def _lowest(pts):
    best = {}
    for x, y in pts:
        y = Fraction(y)
        if x not in best or y < best[x]:
            best[x] = y
    return best


integer_points = st.lists(
    st.tuples(st.integers(0, 60), st.integers(-10**6, 10**6)), min_size=1, max_size=40
)
large_denominator_points = st.lists(
    st.tuples(
        st.integers(0, 60),
        st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6)),
    ),
    min_size=1,
    max_size=40,
)
repeated_abscissa_points = st.builds(
    lambda xs, ys: [(xs[k % len(xs)], y) for k, y in enumerate(ys)],
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
    st.lists(rationals, min_size=1, max_size=40),
)


@given(st.one_of(integer_points, large_denominator_points, repeated_abscissa_points))
@settings(max_examples=300, deadline=None)
def test_hull_matches_brute_force_on_three_input_kinds(pts):
    np_ = build_polygon(pts)
    assert np_ == brute_force_hull(pts)
    # integer input still yields Fraction vertices, so as_json is unchanged
    assert all(type(y) is Fraction for _, y in np_.vertices)
    best = _lowest(pts)
    assert all(best[x] == y for x, y in np_.vertices)


def test_large_hull_with_distinct_denominators():
    # 20,000 points near a parabola, each ordinate built over its own
    # denominator below 10^6, so the hull has many vertices and its chords
    # meet many different denominators
    rng = random.Random(20000)
    dens = rng.sample(range(2, 10**6), 20000)
    pts = []
    for d in dens:
        x = rng.randrange(10**4)
        height = (x - 5000) ** 2 * d // 997 + rng.randrange(50 * d)
        pts.append((x, Fraction(height, d)))
    vs = build_polygon(pts).vertices
    best = _lowest(pts)
    xs = sorted(best)
    assert len(vs) > 20
    # it spans the point set and its vertices are lowest input points
    assert vs[0] == (xs[0], best[xs[0]]) and vs[-1] == (xs[-1], best[xs[-1]])
    assert all(best.get(x) == y for x, y in vs)
    # its slopes strictly increase
    slopes = [Fraction(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(vs, vs[1:])]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    # no point lies below it
    vx = [x for x, _ in vs]
    for x, y in best.items():
        k = min(bisect.bisect_right(vx, x) - 1, len(vs) - 2)
        (x0, y0), (x1, y1) = vs[k], vs[k + 1]
        assert y * (x1 - x0) >= y0 * (x1 - x) + y1 * (x - x0)
