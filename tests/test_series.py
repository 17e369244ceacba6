"""Laurent-series arithmetic: precision propagation is the interesting part.

A series is "known mod t^P"; every operation must stay honest about what it
knows, and valuation questions that precision cannot answer raise
InsufficientPrecision instead of guessing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramtower.errors import FieldMismatch, InsufficientPrecision
from ramtower.fq import fq_field
from ramtower.series import INF, LaurentSeries, format_series, parse_series

F2 = fq_field(2)
F4 = fq_field(2, 2)
F9 = fq_field(3, 2)


def s(text, field=F2, prec=None):
    return parse_series(text, field, default_prec=prec)


@st.composite
def series_strategy(draw, field=F9):
    v0 = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(st.integers(0, field.q - 1), min_size=0, max_size=6))
    prec = draw(st.one_of(st.none(), st.integers(v0 + len(coeffs), v0 + 12)))
    terms = {v0 + i: field.from_int(c) for i, c in enumerate(coeffs)}
    return LaurentSeries.from_terms(field, terms, prec=prec)


@given(series_strategy(), series_strategy())
@settings(max_examples=200, deadline=None)
def test_add_commutes_and_mul_valuations(a, b):
    assert a + b == b + a
    prod = a * b
    if not a.known_zero() and not b.known_zero():
        assert prod.valuation() == a.valuation() + b.valuation()


@given(series_strategy())
@settings(max_examples=100, deadline=None)
def test_format_parse_round_trip(a):
    assert parse_series(format_series(a), F9) == a


def test_known_vs_exact_zero():
    z = LaurentSeries.zero(F2)
    assert z.is_exact_zero() and z.known_zero()
    # exact means precision INF, which is also the exact zero's valuation
    assert z.prec == z.valuation() == INF and LaurentSeries.zero(F2, prec=INF) == z
    fuzzy = LaurentSeries.zero(F2, prec=10)
    assert fuzzy.known_zero() and not fuzzy.is_exact_zero()
    with pytest.raises(InsufficientPrecision):
        fuzzy.valuation()


def test_literal_grammar():
    a = s("t^2*(1 + t) + O(t^10)")
    assert a.valuation() == 2 and a.prec == 10
    # O-term inside a scaled group shifts with the scale
    b = s("t^3*(1 + O(t^2))")
    assert b.prec == 5 and b.valuation() == 3
    c = s("t^-2*(1)", F9)
    assert c.valuation() == -2
    with pytest.raises(ValueError):
        s("t^^2")


def test_a_literal_nested_past_the_recursion_limit_is_a_value_error():
    with pytest.raises(ValueError, match="nested too deeply"):
        s("(" * 5000 + "t" + ")" * 5000)
    assert s("(" * 50 + "t" + ")" * 50) == s("t")


def test_o_term_reads_its_argument_like_a_bare_power():
    # `t` is t^1, so `O(t)` is O(t^1); the canonical form still writes t^1
    assert s("O(t)") == s("O(t^1)") == LaurentSeries.zero(F2, prec=1)
    assert s("t^2*(1 + O(t))") == s("t^2 + O(t^3)")
    assert s("t + O(t)").known_zero() and s("t + O(t)").prec == 1
    assert format_series(s("1 + O(t)")) == "1 + O(t^1)"
    for bad in ("O(t^)", "O()", "O(2)", "O(t^t)", "O(t"):
        with pytest.raises(ValueError):
            s(bad)


def test_precision_propagates_through_product():
    a = s("1 + t + O(t^3)")
    b = s("t^2*(1) + O(t^9)")
    prod = a * b
    # v(b) = 2 shifts a's O(t^3) to O(t^5), tighter than b's own O(t^9)
    assert prod.prec == 5
    assert prod.valuation() == 2
    # the bound is symmetric: either factor may carry the tighter one
    assert b * a == prod
    # an exact factor leaves the other's precision shifted by its valuation
    assert (a * s("t^4")).prec == 7 and (s("t^4") * a).prec == 7
    assert (s("t") * s("t^2")).prec == INF


def test_adding_o_t_k_truncates_and_coeff():
    a = s("1 + t + t^3")
    assert a.coeff(3) == F2.one() and a.coeff(2) == F2.zero()
    t = a + LaurentSeries.zero(F2, 2)
    assert t.prec == 2 and t.coeff(1) == F2.one()
    # t^2 is past what O(t^2) knows
    with pytest.raises(InsufficientPrecision):
        t.coeff(2)
    assert a + LaurentSeries.zero(F2) == a and a.prec == INF


def test_scalar_multiplication():
    a = s("t + t^2", F9)
    assert a * F9.one() == a
    assert (a * F9.zero()).known_zero()
    two = F9.from_int(2)
    assert (a * two).coeff(1) == two


@pytest.mark.parametrize("field", [F4, F9], ids=["F4", "F9"])
def test_leading_minus_negates(field):
    # -1 is the field's own negative one, not the digit-map image of the int -1
    assert s("-t + t", field).is_exact_zero()
    assert s("-t", field) == s("0 - t", field) == -s("t", field)
    assert s("-(1 + t) + O(t^3)", field) == s("0 - 1 - t + O(t^3)", field)


def test_coefficients_and_scalars_from_another_field_are_refused():
    F2, F4 = fq_field(2), fq_field(2, 2)
    x = F4.from_int(2)
    refused = [
        lambda: LaurentSeries.t_power(F2, 1, coeff=x),
        lambda: LaurentSeries.from_terms(F2, {0: F2.one(), 3: x}),
        lambda: LaurentSeries.from_terms(F2, {0: 1}),
        # a known-zero series has no coefficient to compare the scalar with
        lambda: LaurentSeries.zero(F2, prec=3) * F4.one(),
        lambda: LaurentSeries.zero(F2) * F4.one(),
        lambda: LaurentSeries.t_power(F2, 1) * F4.one(),
    ]
    for build in refused:
        with pytest.raises(FieldMismatch):
            build()
    assert LaurentSeries.t_power(F4, 2, coeff=x) == LaurentSeries.from_terms(F4, {2: x})
    assert LaurentSeries.zero(F2, prec=3) * F2.one() == LaurentSeries.zero(F2, prec=3)
