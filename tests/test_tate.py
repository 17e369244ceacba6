"""Ramification breaks of Eisenstein layers via the twisted polygon."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramtower.errors import InsufficientPrecision
from ramtower.fq import fq_field
from ramtower.series import LaurentSeries
from ramtower.seriespoly import SeriesPoly, resultant
from ramtower.tate import (
    EisensteinExtension,
    ExtElement,
    check_tate_hypothesis,
    closed_form_break,
    eisenstein_trinomial,
    ext_valuation,
    ramification_polynomial,
    tate_breaks,
)


def _ext(field, literals):
    return EisensteinExtension(SeriesPoly.from_literals(field, literals))


def test_quadratic_worked_example():
    # x^2 + t·x + t over F_2((t)): one wild break at 1
    f2 = fq_field(2)
    ext = _ext(f2, ["t", "t", "1"])
    result = tate_breaks(ext)
    assert result.points == ((1, 1), (2, 0))
    assert result.breaks == (Fraction(1),)
    assert result.hypothesis.ok and result.hypothesis.p_power_degree


def test_closed_form_break_values():
    assert closed_form_break(2, 1) == 1
    assert closed_form_break(4, 1) == Fraction(1, 3)
    assert closed_form_break(3, 3) == Fraction(7, 2)
    with pytest.raises(ValueError):
        closed_form_break(1, 1)
    with pytest.raises(ValueError):
        closed_form_break(2, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_trinomial_break_matches_closed_form(p, c):
    ext = eisenstein_trinomial(fq_field(p), c)
    result = tate_breaks(ext)
    assert result.breaks == (closed_form_break(p, c),)
    assert result.breaks == (Fraction(p * c, p - 1) - 1,)


def test_non_prime_residue_field():
    # x^4 + t·x + t over F_4((t)): break 1/3
    ext = eisenstein_trinomial(fq_field(2, 2), 1)
    assert tate_breaks(ext).breaks == (Fraction(1, 3),)


def test_tame_layer_has_no_wild_breaks():
    # degree 2 is prime to p = 3; the polygon side is not negative
    f3 = fq_field(3)
    ext = _ext(f3, ["t", "t^2", "1"])
    result = tate_breaks(ext)
    assert result.breaks == ()
    assert not result.hypothesis.p_power_degree


def test_hypothesis_witness():
    # x^3 + t·x^2 + t^2·x + t over F_3: v(a_2) = 1 < v(a_1) = 2
    f3 = fq_field(3)
    ext = _ext(f3, ["t", "t^2", "t", "1"])
    rep = check_tate_hypothesis(ext)
    assert not rep.ok
    assert rep.witness == (2, 1, 2)
    assert rep.p_power_degree and rep.degree_log == 1


def test_extension_arithmetic():
    f2 = fq_field(2)
    ext = eisenstein_trinomial(f2, 1)
    alpha = ext.alpha()
    assert ext_valuation(alpha) == 1
    t = LaurentSeries.t_power(f2, 1, prec=12)
    assert ext_valuation(ext.from_base(t)) == ext.n
    # alpha^2 = t·alpha + t in this quotient, so alpha·(alpha + t) = t
    prod = alpha * (alpha + ext.from_base(t))
    diff = prod - ext.from_base(t)
    assert diff.is_known_zero()


def test_eisenstein_validation():
    f2 = fq_field(2)
    with pytest.raises(ValueError):
        _ext(f2, ["t^2", "t", "1"])  # constant term valuation 2
    with pytest.raises(ValueError):
        _ext(f2, ["t", "1", "1"])  # interior coefficient is a unit
    with pytest.raises(ValueError):
        _ext(f2, ["t", "1"])  # degree 1
    with pytest.raises(ValueError):
        _ext(f2, ["t", "t", "t"])  # not monic


def test_fuzzy_coefficient_raises_precision_error():
    # linear coefficient known only as O(t^3): its valuation is undetermined
    f2 = fq_field(2)
    with pytest.raises(InsufficientPrecision):
        _ext(f2, ["t", "O(t^3)", "1"])


def test_ramification_points_shift():
    # quartic over F_2: the i-th ordinate is v_L(b_i) - n
    f2 = fq_field(2)
    ext = eisenstein_trinomial(f2, 2, prec=64)  # x^2 + t^2 x + t
    pts = ramification_polynomial(ext)
    assert pts == [(1, 3), (2, 0)]
    assert tate_breaks(ext).breaks == (Fraction(3),)


small_trinomials = st.tuples(
    st.sampled_from([(2, 1), (2, 2), (3, 1)]),
    st.integers(1, 3),
    st.integers(1, 3),
)


@given(small_trinomials)
@settings(max_examples=40, deadline=None)
def test_trinomial_break_closed_form_generic(case):
    (p, m), c, unit_seed = case
    field = fq_field(p, m)
    q = field.q
    unit = unit_seed % (q - 1) + 1 if q > 2 else 1
    ext = eisenstein_trinomial(field, c, unit=unit, lin_unit=unit)
    result = tate_breaks(ext)
    assert result.breaks == (closed_form_break(q, c),)


# --- valuations read off basis coefficients ---------------------------------

PRECISION = "refused"


def _outcome(fn):
    try:
        return fn()
    except InsufficientPrecision:
        return PRECISION


def _twisted_coefficients(ext):
    """b_i = sum_{j >= i} C(j,i)·a_j·alpha^j for i = 1..n, built by extension
    arithmetic."""
    field, f, n = ext.field, ext.poly, ext.n
    alpha = ext.alpha()
    powers = [ext.from_base(LaurentSeries.one(field))]
    for _ in range(n):
        powers.append(powers[-1] * alpha)
    out = []
    for i in range(1, n + 1):
        total = ext.from_base(LaurentSeries.zero(field))
        for j in range(i, n + 1):
            c = math.comb(j, i) % field.p
            if c:
                total = total + ext.from_base(f.coeff(j) * field.from_int(c)) * powers[j]
        out.append(total)
    return out


def _unit_literal(rng, q, v, tail):
    """t^v times a random unit with 1-3 digits, known to O(t^(v+tail)) when
    tail is set."""
    digits = [rng.randrange(1, q) for _ in range(rng.randint(1, 3))]
    lit = f"t^{v}*(" + " + ".join(f"{c}*t^{k}" for k, c in enumerate(digits)) + ")"
    return lit + (f" + O(t^{v + tail})" if tail else "")


def _random_eisenstein(rng, field, n):
    """Eisenstein literals a_0..a_n; most coefficients are known only to
    finite precision, some interior ones are exact zeros."""
    lits = [_unit_literal(rng, field.q, 1, rng.choice([None, 1, 3, 6]))]
    for _ in range(1, n):
        if rng.random() < 0.15:
            lits.append("0")
        else:
            lits.append(_unit_literal(rng, field.q, rng.randint(1, 3), rng.choice([None, 1, 4])))
    return lits + ["1"]


def _random_coefficient(rng, field):
    """t^k, t^k + O(t^(k+2)) or O(t^k)."""
    k = rng.randint(0, 3)
    kind = rng.randrange(3)
    if kind == 2:
        return LaurentSeries.zero(field, prec=k)
    return LaurentSeries.t_power(field, k, prec=k + 2 if kind else None)


def test_coefficient_reading_matches_resultant():
    # the resultant norm stays the reference: v_L(beta) = v_K(res(f, B))
    rng = random.Random(20210217)
    answered = refused = 0
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1)):
        field = fq_field(p, m)
        for n in range(2, 6):
            for _ in range(3):
                ext = _ext(field, _random_eisenstein(rng, field, n))
                elements = _twisted_coefficients(ext)
                elements.append(ext.element([_random_coefficient(rng, field) for _ in range(n + 2)]))
                for b in elements:
                    if b.is_exact_zero():
                        continue
                    got = _outcome(lambda: ext_valuation(b))
                    want = _outcome(lambda: resultant(ext.poly, b.rep).valuation())
                    assert got == want, (p, m, ext.poly, b.rep)
                    if got == PRECISION:
                        refused += 1
                    else:
                        answered += 1
    assert answered > 100 and refused > 0


def test_ext_valuation_edge_cases():
    f2 = fq_field(2)
    ext = _ext(f2, ["t", "t", "1"])  # exact coefficients, n = 2
    # representatives of degree >= n are reduced first: alpha^2 = t·alpha + t
    alpha_squared = ExtElement(ext, SeriesPoly.from_literals(f2, ["0", "0", "1"]))
    assert ext_valuation(alpha_squared) == 2
    with pytest.raises(ValueError):
        ext_valuation(ExtElement(ext, ext.poly))
    undecided = ExtElement(ext, SeriesPoly.from_literals(f2, ["t^3", "O(t^1)"]))
    with pytest.raises(InsufficientPrecision):
        ext_valuation(undecided)
    decided = ExtElement(ext, SeriesPoly.from_literals(f2, ["t^3", "O(t^3)"]))
    assert ext_valuation(decided) == 6
    with pytest.raises(ValueError):
        ext_valuation(ext.from_base(LaurentSeries.zero(f2)))


def _greve_pauli_points(vals, p):
    n = len(vals) - 1
    pts = []
    for i in range(1, n + 1):
        cands = [n * vals[j] + j for j in range(i, n + 1) if math.comb(j, i) % p]
        if cands:
            pts.append((i, min(cands) - n))
    return pts


@pytest.mark.parametrize("n", range(7, 13))
def test_dense_high_degree_matches_greve_pauli(n):
    # 17 s at degree 7 and over 137 s at degree 9 through Sylvester resultants
    rng = random.Random(n)
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1)):
        field = fq_field(p, m)
        vals = [1] + [rng.randint(1, 3) for _ in range(n - 1)] + [0]
        lits = [_unit_literal(rng, field.q, v, None) for v in vals[:-1]] + ["1"]
        assert ramification_polynomial(_ext(field, lits)) == _greve_pauli_points(vals, p)
