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
    _twisted_coefficient,
    check_tate_hypothesis,
    closed_form_break,
    eisenstein_trinomial,
    ext_valuation,
    ramification_polynomial,
    tate_breaks,
)


def _ext(field, literals):
    return EisensteinExtension(SeriesPoly.from_literals(field, literals))



def test_exact_zero_leading_coefficients_are_trimmed():
    # x^2 + t written with exact zeros above x^2 is the same quadratic; zeros
    # known only modulo t^10 are kept, and leave a polynomial that is not monic
    f3 = fq_field(3)
    padded = SeriesPoly.from_literals(f3, ["t", "0", "1", "0", "0"])
    assert padded.degree == 2 and padded.is_monic()
    assert tate_breaks(EisensteinExtension(padded)) == tate_breaks(_ext(f3, ["t", "0", "1"]))
    fuzzy = SeriesPoly.from_literals(f3, ["t", "0", "1", "0"], default_prec=10)
    assert fuzzy.degree == 3 and not fuzzy.is_monic()

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
    zero, one = LaurentSeries.zero(f2), LaurentSeries.one(f2)
    t = LaurentSeries.t_power(f2, 1, prec=12)
    assert ext_valuation([zero, one], ext.n) == 1
    assert ext_valuation([t], ext.n) == ext.n
    # alpha^2 = t·alpha + t in this quotient, so alpha·(alpha + t) = t
    prod = _reduce_mod((SeriesPoly(f2, [zero, one]) * SeriesPoly(f2, [t, one])).coeffs, ext.poly)
    assert (prod[0] - t).known_zero() and prod[1].known_zero()


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
    for lead in ("2", "1 + t", "1 + t^-1"):  # a unit lead that is not 1
        with pytest.raises(ValueError, match="monic"):
            _ext(fq_field(3), ["t", "t", lead])
    with pytest.raises(ValueError, match="inseparable"):
        _ext(f2, ["t", "0", "1"])  # x^2 + t: f' = 0
    with pytest.raises(ValueError, match="inseparable"):
        _ext(f2, ["t", "0", "t", "0", "1"])  # x^4 + t·x^2 + t = g(x^2)
    with pytest.raises(ValueError, match="inseparable"):
        _ext(fq_field(3), ["t", "0", "0", "t^2", "0", "0", "1"])  # g(x^3)
    # a_n = 1 with p not dividing n keeps f' != 0: x^3 + t over F_2 is tame
    assert tate_breaks(_ext(f2, ["t", "0", "0", "1"])).breaks == ()


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
    u = field.from_int(unit_seed % (q - 1) + 1 if q > 2 else 1)
    # x^q + u·t^c·x + u·t, with eisenstein_trinomial's precision
    prec = 4 * q * c + 8
    coeffs = [LaurentSeries.zero(field)] * (q + 1)
    coeffs[0] = LaurentSeries.t_power(field, 1, coeff=u, prec=prec)
    coeffs[1] = LaurentSeries.t_power(field, c, coeff=u, prec=prec)
    coeffs[q] = LaurentSeries.one(field, prec=prec)
    result = tate_breaks(EisensteinExtension(SeriesPoly(field, coeffs)))
    assert result.breaks == (closed_form_break(q, c),)


# --- valuations read off basis coefficients ---------------------------------

PRECISION = "refused"


def _outcome(fn):
    try:
        return fn()
    except InsufficientPrecision:
        return PRECISION


def _reduce_mod(coeffs, f):
    """Remainder of sum coeffs[d]·x^d on long division by the monic f, as its
    deg f coefficients: this file's own extension arithmetic."""
    n = f.degree
    coeffs = list(coeffs) + [LaurentSeries.zero(f.field)] * (n - len(coeffs))
    for d in range(len(coeffs) - 1, n - 1, -1):
        lead = coeffs.pop()
        for k in range(n):
            coeffs[d - n + k] = coeffs[d - n + k] - lead * f.coeff(k)
    return coeffs


def _twisted_coefficients(f):
    """[b_0, ..., b_n] with b_i = sum_{j >= i} C(j,i)·a_j·alpha^j, each as its
    n coefficients on 1, alpha, ..., alpha^(n-1): the powers of alpha are
    polynomial products reduced by f, independent of the library's
    expansion."""
    field, n = f.field, f.degree
    zero, one = LaurentSeries.zero(field), LaurentSeries.one(field)
    alpha = SeriesPoly(field, [zero, one])
    powers = [SeriesPoly(field, [one])]
    for _ in range(n):
        powers.append(SeriesPoly(field, _reduce_mod((powers[-1] * alpha).coeffs, f)))
    out = []
    for i in range(n + 1):
        total = [zero] * n
        for j in range(i, n + 1):
            c = math.comb(j, i) % field.p
            if c:
                term = _reduce_mod((powers[j] * (f.coeff(j) * field.from_int(c))).coeffs, f)
                total = [a + b for a, b in zip(total, term)]
        out.append(total)
    return out


def _unit_literal(rng, q, v, tail):
    """t^v times a random unit with 1-3 digits, known to O(t^(v+tail)) when
    tail is set."""
    digits = [rng.randrange(1, q) for _ in range(rng.randint(1, 3))]
    lit = f"t^{v}*(" + " + ".join(f"{c}*t^{k}" for k, c in enumerate(digits)) + ")"
    return lit + (f" + O(t^{v + tail})" if tail else "")


def _random_eisenstein(rng, field, n, lead="1"):
    """Eisenstein literals a_0..a_n; most coefficients are known only to
    finite precision, some interior ones are exact zeros."""
    lits = [_unit_literal(rng, field.q, 1, rng.choice([None, 1, 3, 6]))]
    for _ in range(1, n):
        if rng.random() < 0.15:
            lits.append("0")
        else:
            lits.append(_unit_literal(rng, field.q, rng.randint(1, 3), rng.choice([None, 1, 4])))
    return lits + [lead]


def _accepted(f):
    """EisensteinExtension(f), or None after asserting that an inseparable f
    is refused.  f is inseparable when f' = 0: every j·a_j is known zero,
    with j the element from_int(j % p) of the prime field.  The
    construction's earlier checks may raise first."""
    field = f.field
    if all((c * field.from_int(j % field.p)).known_zero() for j, c in enumerate(f.coeffs)):
        with pytest.raises(ValueError, match="inseparable"):
            EisensteinExtension(f)
        return None
    return EisensteinExtension(f)


def _random_coefficient(rng, field):
    """t^k, t^k + O(t^(k+2)) or O(t^k)."""
    k = rng.randint(0, 3)
    kind = rng.randrange(3)
    if kind == 2:
        return LaurentSeries.zero(field, prec=k)
    return LaurentSeries.t_power(field, k, prec=k + 2 if kind else None)


def test_coefficient_reading_matches_resultant():
    # the resultant norm stays the reference: v_L(beta) = v_K(res(f, B))
    # (an inseparable f is refused, but L = K[x]/f is still a field, totally
    # ramified with uniformiser alpha, so the comparison holds for it too)
    rng = random.Random(20210217)
    answered = refused = inseparable = 0
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1)):
        field = fq_field(p, m)
        for n in range(2, 6):
            for _ in range(3):
                f = SeriesPoly.from_literals(field, _random_eisenstein(rng, field, n))
                inseparable += _accepted(f) is None
                elements = _twisted_coefficients(f)[1:]
                raw = [_random_coefficient(rng, field) for _ in range(n + 2)]
                elements.append(_reduce_mod(raw, f))
                for b in elements:
                    if all(c.is_exact_zero() for c in b):
                        continue
                    got = _outcome(lambda: ext_valuation(b, n))
                    want = _outcome(lambda: resultant(f, SeriesPoly(field, b)).valuation())
                    assert got == want, (p, m, f, b)
                    if got == PRECISION:
                        refused += 1
                    else:
                        answered += 1
    assert answered > 100 and refused > 0 and inseparable > 0


def test_ext_valuation_edge_cases():
    f2 = fq_field(2)
    ext = _ext(f2, ["t", "t", "1"])  # exact coefficients, n = 2
    # alpha^2 = t·alpha + t, once reduced
    alpha_squared = _reduce_mod(SeriesPoly.from_literals(f2, ["0", "0", "1"]).coeffs, ext.poly)
    assert alpha_squared == list(SeriesPoly.from_literals(f2, ["t", "t"]).coeffs)
    assert ext_valuation(alpha_squared, 2) == 2
    # a representative has at most n coefficients; f itself has n + 1
    with pytest.raises(ValueError, match="at most 2 coefficients, got 3"):
        ext_valuation(ext.poly.coeffs, 2)
    with pytest.raises(ValueError, match="valuation of zero"):
        ext_valuation(_reduce_mod(ext.poly.coeffs, ext.poly), 2)
    undecided = SeriesPoly.from_literals(f2, ["t^3", "O(t^1)"]).coeffs
    with pytest.raises(InsufficientPrecision):
        ext_valuation(undecided, 2)
    decided = SeriesPoly.from_literals(f2, ["t^3", "O(t^3)"]).coeffs
    assert ext_valuation(decided, 2) == 6
    with pytest.raises(ValueError, match="valuation of zero"):
        ext_valuation([LaurentSeries.zero(f2)], 2)
    with pytest.raises(ValueError, match="valuation of zero"):
        ext_valuation([], 2)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_expansion_is_the_reduced_representative(p, m):
    # b_i written down from f is the representative that multiplying and
    # reducing alpha-powers builds, coefficient by coefficient and precision
    # included, for i = 0..n; a_n = 1 + O(t^P) as trinomials carry it
    rng = random.Random(100 * p + m)
    field = fq_field(p, m)
    for _ in range(30):
        n = rng.randint(2, 8)
        lead = rng.choice(["1", "1 + O(t^1)", "1 + O(t^2)", "1 + O(t^5)"])
        f = SeriesPoly.from_literals(field, _random_eisenstein(rng, field, n, lead))
        _accepted(f)  # the expansion is algebra on f, refused or not
        want = _twisted_coefficients(f)
        for i in range(n + 1):
            assert _twisted_coefficient(f, i) == want[i], (f, i)


def test_truncation_keeps_the_points_or_is_refused_at_construction():
    # truncating the coefficients of an Eisenstein polynomial either leaves
    # the Greve-Pauli points of its coefficient valuations, or makes a
    # valuation undecidable, which EisensteinExtension refuses; an
    # inseparable draw is refused as such
    rng = random.Random(20120402)
    agreed = refused = inseparable = 0
    for _ in range(400):
        p, m = rng.choice([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
        field = fq_field(p, m)
        n = rng.randint(2, 8)
        vals = [1] + [rng.choice([1, 2, 3, math.inf]) for _ in range(n - 1)] + [0]
        lits = ["0" if v == math.inf else _unit_literal(rng, field.q, v, None) for v in vals[:-1]]
        coeffs = []
        for c in SeriesPoly.from_literals(field, lits + ["1"]).coeffs:
            if rng.random() < 0.5:
                c = c + LaurentSeries.zero(field, rng.randint(1, 6))
            coeffs.append(c)
        try:
            ext = _accepted(SeriesPoly(field, coeffs))
        except InsufficientPrecision:
            refused += 1
            continue
        if ext is None:
            inseparable += 1
            continue
        assert ramification_polynomial(ext) == _greve_pauli_points(vals, p), coeffs
        agreed += 1
    assert agreed > 50 and refused > 50 and inseparable > 0


def _greve_pauli_points(vals, p):
    """(i, v_L(b_i) - n) as the minimum of n·v(a_j) + j over j >= i with
    C(j,i) != 0 mod p and a_j nonzero; an i without such a j is left out."""
    n = len(vals) - 1
    pts = []
    for i in range(1, n + 1):
        cands = [
            n * vals[j] + j for j in range(i, n + 1) if math.comb(j, i) % p and vals[j] < math.inf
        ]
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
