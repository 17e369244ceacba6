import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramtower.herbrand import (
    BreakFiltration,
    PiecewiseLinear,
    compose_tower,
    lower_to_upper,
    phi_from_filtration,
    upper_to_lower,
)


def random_filtration(rng: random.Random, max_breaks=3) -> BreakFiltration:
    k = rng.randint(1, max_breaks)
    breaks = sorted(rng.sample(range(1, 40), k))
    drops = [rng.choice((2, 2, 3, 4)) for _ in range(k)]
    order = 1
    for d in drops:
        order *= d
    return BreakFiltration(
        order, tuple((Fraction(b), d) for b, d in zip(breaks, drops))
    )


@st.composite
def filtrations(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    return random_filtration(rng)


@given(filtrations())
@settings(max_examples=150, deadline=None)
def test_phi_psi_structural_identity(filt):
    phi = phi_from_filtration(filt)
    psi = phi.inverse()
    assert phi.compose(psi) == PiecewiseLinear.identity()
    assert psi.compose(phi) == PiecewiseLinear.identity()


@given(filtrations())
@settings(max_examples=100, deadline=None)
def test_phi_starts_with_slope_one(filt):
    phi = phi_from_filtration(filt)
    first_break = filt.breaks[0][0]
    for x in (Fraction(0), first_break / 3, first_break / 2, first_break):
        assert phi(x) == x


@given(filtrations(), st.integers(0, 200))
@settings(max_examples=150, deadline=None)
def test_phi_psi_pointwise_round_trip(filt, num):
    x = Fraction(num, 3)
    phi = phi_from_filtration(filt)
    psi = phi.inverse()
    assert psi(phi(x)) == x
    assert phi(psi(x)) == x


def test_worked_two_layer_composition():
    # layers of order 2 with breaks 3 and 15: the composite maps 63 to 21
    layers = [
        BreakFiltration(2, ((Fraction(3), 2),)),
        BreakFiltration(2, ((Fraction(15), 2),)),
    ]
    phi = compose_tower(layers)
    assert phi(Fraction(63)) == 21
    assert phi(Fraction(3)) == 3
    assert phi.inverse()(Fraction(21)) == 63


def test_compose_tower_of_nothing_is_identity():
    assert compose_tower([]) == PiecewiseLinear.identity()


def test_three_layer_composition_matches_nested_evaluation():
    rng = random.Random(11)
    for _ in range(100):
        layers = [random_filtration(rng) for _ in range(3)]
        tower = compose_tower(layers)
        phis = [phi_from_filtration(f) for f in layers]
        for num in (0, 1, 7, 50, 311):
            x = Fraction(num, 2)
            # bottom layer outermost
            expect = phis[0](phis[1](phis[2](x)))
            assert tower(x) == expect


@given(filtrations())
@settings(max_examples=150, deadline=None)
def test_lower_upper_round_trip(filt):
    up = lower_to_upper(filt)
    assert upper_to_lower(up) == filt
    # upper breaks are phi-images of the lower breaks
    phi = phi_from_filtration(filt)
    assert [b for b, _ in up.breaks] == [phi(b) for b, _ in filt.breaks]


def test_filtration_validation():
    with pytest.raises(ValueError):
        BreakFiltration(4, ((Fraction(3), 3),))  # drop does not divide order
    with pytest.raises(ValueError):
        BreakFiltration(4, ((Fraction(5), 2), (Fraction(2), 2)))  # unsorted
