"""Formal modules: the functional-equation construction and its checkers.

The staging ring is char 0 (exact rationals); integrality of the law and
brackets is a theorem there, so the builders assert it and these tests
mostly probe the checkers with planted failures plus a few coefficient
values worked by hand.
"""

import bisect
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramtower.errors import IntegralityError, ParameterError
from ramtower.fastcheck import (
    _fast_len,
    _reduction_rows,
    _rint_exact,
    _vec_mul,
    dense_associativity,
    sampled_associativity,
)
from ramtower.formal import (
    RATIONALS,
    BivariateSeries,
    FormalModule,
    UnivariateSeries,
    _assoc_exact,
    _bracket_series,
    _first_difference,
    _inverse_log,
    _log_powers,
    _log_step,
    _mul,
    atypical_module,
    check_group_law,
    check_pi_congruence,
    check_pi_congruence_universal,
    honda_module,
)
from ramtower.fq import fq_field


def test_universal_log_coefficients():
    # p·b_n = sum b_j v_{n-j}^{q^j} at (p,q) = (2,2), two variables:
    # b1 = v1/2, b2 = v2/2 + v1^3/4, b3 = v1*v2^2/4 + v1^4*v2/4 + v1^7/8
    F = Fraction
    for v1, v2 in [(1, 1), (3, -5), (0, 2), (2, 0), (F(1, 3), 7), (F(-5, 9), F(4, 7))]:
        v1, v2 = F(v1), F(v2)
        assert FormalModule(2, 2, (v1, v2), D=8).log_coeffs == (
            1,
            v1 / 2,
            v2 / 2 + v1**3 / 4,
            v1 * v2**2 / 4 + v1**4 * v2 / 4 + v1**7 / 8,
        )


def test_catalan_inverse_of_quadratic_log():
    # T + T^2/2 inverts with Catalan coefficients (-1/2)^n C_n
    g = _inverse_log(*_log_powers([Fraction(1), Fraction(1, 2)], 2, 6, first=1), 1)
    assert g == {
        1: Fraction(1),
        2: Fraction(-1, 2),
        3: Fraction(1, 2),
        4: Fraction(-5, 8),
        5: Fraction(7, 8),
        6: Fraction(-21, 16),
    }
    # the (p,q)=(2,2) module at v_1=1 keeps feeding the solve: its log
    # is T + T^2/2 + T^4/4 + ..., so the inverse drifts off Catalan at T^4
    F = atypical_module(2, 2, values=(1,), D=6)
    assert F.inv_coeffs[2] == Fraction(-1, 2)
    assert F.inv_coeffs[4] == Fraction(-7, 8)
    # and the law it produces starts X + Y - XY
    assert F.law.coeff(1, 1) == Fraction(-1)


def _mul_all_pairs(a, b, D):
    """a·b truncated at total degree D, visiting every pair of terms."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            if sum(key) <= D:
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return {k: v for k, v in out.items() if v}


def _compose(outer: dict, inner: dict, D: int, one) -> dict:
    """Σ_e outer[e]·inner^e truncated at total degree D, the plain
    composition the faster paths are checked against.  `outer` is keyed by
    exponent; `inner` is a {(i, j): c} series with no constant term, so
    exponents above D contribute nothing."""
    if inner.get((0, 0)):
        raise ValueError("inner series has a constant term")
    out = {}
    power = {(0, 0): one}
    prev = 0
    for e in sorted(outer):
        if e > D:
            break
        for _ in range(e - prev):
            power = _mul(power, inner, D)
        prev = e
        c = outer[e]
        for key, v in power.items():
            prod = c * v
            out[key] = out[key] + prod if key in out else prod
    return {k: v for k, v in out.items() if v}


KERNEL_RINGS = {  # ring: (its one, a random coefficient, zero included)
    "int": (1, lambda rng: rng.randint(-3, 3)),
    "Fraction": (Fraction(1), lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4))),
    "F_4": (fq_field(2, 2).one(), lambda rng: fq_field(2, 2).from_int(rng.randrange(4))),
}


@pytest.mark.parametrize("ring", list(KERNEL_RINGS))
def test_mul_matches_all_pairs_reference(ring):
    # seeded operands, often empty, with many terms at total degree 0, D and
    # D + 1, so products land exactly on the truncation and just past it
    rng = random.Random(f"mul-{ring}")
    one, draw = KERNEL_RINGS[ring]

    def series(D):
        out = {}
        for _ in range(rng.choice([0, 1, 3, 8])):
            d = rng.choice([0, D, D + 1, rng.randint(0, D + 1)])
            i = rng.randint(0, d)
            out[i, d - i] = draw(rng)
        return out

    for _ in range(300):
        D = rng.randint(0, 8)
        a, b = series(D), series(D)
        assert _mul(a, b, D) == _mul_all_pairs(a, b, D)
    # the edges themselves: an empty operand, and one product on D, one past it
    assert _mul({}, {(0, 0): one}, 3) == _mul({(1, 2): one}, {}, 3) == {}
    assert _mul({(1, 2): one}, {(0, 0): one, (1, 0): one}, 3) == {(1, 2): one}


def test_inverse_log_widens_its_denominator():
    # at p = 2 the values 1/3 and 5/7 are units, so the powers' denominators
    # carry 3s and 7s as well as 2s, and the running denominator of the solve
    # has to take on new factors as it goes
    b = FormalModule(2, 2, (Fraction(1, 3), Fraction(5, 7)), D=32).log_coeffs
    g = _inverse_log(*_log_powers(b, 2, 32, first=1), 1)
    assert {c.denominator % 3 == 0 for c in g.values()} == {False, True}
    assert {c.denominator % 7 == 0 for c in g.values()} == {False, True}
    f = {(2**i, 0): bi for i, bi in enumerate(b) if bi and 2**i <= 32}
    assert _compose(g, f, 32, Fraction(1)) == {(1, 0): 1}


def test_inverse_log_of_the_identity():
    # f(T) = T: no b_i with i >= 1, so the step is D and g = T
    M = FormalModule(2, 2, (0, 0), D=8)
    assert M.log_coeffs == (1, 0, 0, 0) and M._step == 8
    assert M._powers == [{1: 1}] and M._den == 1
    assert M.inv_coeffs == {1: 1}
    assert M.bracket(2).coeffs == {1: 2}
    assert M.law.coeffs == {(1, 0): 1, (0, 1): 1}


def _log_powers_by_products(b, q, D, first=0, step=1):
    """The powers f^first, f^(first+step), ... of f(T) = Σ b_i T^{q^i} up
    to degree D, each the previous one times f^step in `_mul`, yielded as
    (num, den) in lowest terms with num under (e, 0) keys."""
    f = {(q**i, 0): Fraction(bi) for i, bi in enumerate(b) if bi and q**i <= D}
    fden = math.lcm(*(c.denominator for c in f.values()))
    fnum = {key: c.numerator * (fden // c.denominator) for key, c in f.items()}

    def times(num, den, other, oden):
        num = _mul(num, other, D)
        den *= oden
        common = math.gcd(den, *num.values())
        return {key: v // common for key, v in num.items()}, den // common

    def power(n):
        num, den = {(0, 0): 1}, 1
        for _ in range(n):
            num, den = times(num, den, fnum, fden)
        return num, den

    num, den = power(first)
    snum, sden = power(step)
    while num:
        yield num, den
        num, den = times(num, den, snum, sden)


LOG_PRIMES = {2: 2, 3: 3, 4: 2, 9: 3}


@st.composite
def logarithms(draw):
    """(b, q, D): b_0 = 1, and b_i either Honda-shaped (p^(−i/h) where h
    divides i, else 0) or drawn from zeros, p-power denominators and units
    whose denominators are prime to p (1/3 and 5/7 at p = 2, 1/2 and 5/7 at
    p = 3); q in {2, 3, 4, 9}, D <= 100."""
    q = draw(st.sampled_from(sorted(LOG_PRIMES)))
    p = LOG_PRIMES[q]
    D = draw(st.integers(1, 100))
    n = 0
    while q ** (n + 1) <= D:
        n += 1
    n += draw(st.integers(0, 1))  # sometimes one b_i past D
    if draw(st.booleans()):
        h = draw(st.integers(1, 3))
        b = [Fraction(1, p ** (i // h)) if i % h == 0 else Fraction(0) for i in range(n + 1)]
    else:
        unit = Fraction(1, 3) if p == 2 else Fraction(1, 2)
        pool = [Fraction(0), Fraction(1), Fraction(-2), unit, Fraction(5, 7)]
        pool += [Fraction(c, p**e) for c in (1, -3) for e in (1, 2, 4)]
        b = [Fraction(1)] + [draw(st.sampled_from(pool)) for _ in range(n)]
    return tuple(b), q, D


@given(logarithms(), st.integers(0, 1), st.sampled_from(["1", "s", "D"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_log_powers_match_the_product_oracle(log, first, step_kind):
    # the power recurrence gives the same powers as repeated products, entry
    # for entry, as integer rows in ascending degree over one denominator:
    # the lcm of the products' own lowest-terms denominators
    b, q, D = log
    step = {"1": 1, "s": _log_step(b, q, D) or D, "D": D}[step_kind]
    table, den = _log_powers(b, q, D, first, step)
    oracle = list(_log_powers_by_products(b, q, D, first, step))
    assert [{e: Fraction(c, den) for e, c in row.items()} for row in table] == [
        {e: Fraction(c, oden) for (e, _), c in num.items()} for num, oden in oracle
    ]
    assert all(list(row) == sorted(row) and all(row.values()) for row in table)
    assert den == math.lcm(*(oden for _, oden in oracle))
    assert math.gcd(den, *(c for row in table for c in row.values())) == 1
    # the recurrence is for f = T·(1 + u); it refuses any other lead term
    with pytest.raises(ValueError, match="must start with T"):
        _log_powers((Fraction(2),) + b[1:], q, D, first, step)


def test_honda_table_is_built_without_the_product_kernel():
    # the height-1 Honda module at q = 9 reads its 92 powers f^(1+8k) straight
    # off f; no power is a product of series
    from ramtower import formal

    with mock.patch.object(formal, "_mul", side_effect=AssertionError("_mul called")):
        M = honda_module(3, 9, 1, D=729)
    assert M._step == 8 and len(M._powers) == 92
    low = {e: c for e, c in M.bracket(3).coeffs.items() if e <= 9}
    assert low == {1: 3, 9: 1 - 3**8}  # [p] up to its cap q^h


CLOSED_FORM_CASES = [
    (p, q, i)
    for p, q in [(2, 2), (2, 4), (2, 8), (3, 3), (3, 9), (5, 5), (5, 25), (7, 7)]
    for i in (1, 2, 3)
    if q**i <= 800
]


@pytest.mark.parametrize("p,q,i", CLOSED_FORM_CASES)
def test_universal_congruence(p, q, i):
    # modulo v_1..v_{i-1} the universal [p] is p·x + (1 − p^{q^i−1})·v_i·x^{q^i}
    # up to x^{q^i}, which the Honda module of height i shows at v_i = 1
    bracket = honda_module(p, q, i, D=q**i).bracket(p)
    assert bracket.coeffs == {1: p, q**i: 1 - p ** (q**i - 1)}
    assert check_pi_congruence_universal(p, q, i).as_json() == {
        "ok": True, "i": i, "ideal_exponent": 1, "first_failure": None
    }


def test_universal_congruence_rejects_p_one():
    # p = 1 once looped forever taking valuations at 1, so run it in a
    # subprocess whose timeout turns a hang into a failure
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "from ramtower.formal import check_pi_congruence_universal as u; u(1, 1, 1)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "ramtower.errors.ParameterError: p must be prime"


def test_atypical_module_small():
    F = atypical_module(2, 2, values=(1,), D=12)
    law = F.law
    assert law.coeff(1, 0) == 1 and law.coeff(0, 1) == 1
    rep = check_group_law(law, method="exact")
    assert rep.ok, rep
    for i in (1, 2, 3):
        assert check_pi_congruence(F, i).ok


def test_bracket_linear_coefficient():
    F = atypical_module(2, 2, values=(1, 1), D=16)
    assert F.bracket(2).coeff(1) == 2
    assert F.bracket(3).coeff(1) == 3
    for c in F.bracket(2).coeffs.values():
        assert c.denominator % 2 != 0


@pytest.mark.parametrize("h", [1, 2, 3])
def test_honda_bracket_is_power_map_mod_p(h):
    p = q = 2
    F = honda_module(p, q, h, D=q**h)
    br = F.bracket(p).reduce_mod_p(F.field)
    assert br.coeffs == {q**h: br.ring.one()}


def test_honda_mixed_q():
    F = honda_module(3, 9, 2, D=81)
    assert list(F.bracket(3).reduce_mod_p(F.field).coeffs) == [81]


def test_unit_axiom_failure_detected():
    # F(X, Y) = X + Y + X^2 is not a law: F(X, 0) != X
    bad = BivariateSeries(
        RATIONALS, 8, {(1, 0): Fraction(1), (0, 1): Fraction(1), (2, 0): Fraction(1)}
    )
    rep = check_group_law(bad, method="exact")
    assert not rep.ok
    assert rep.first_failure == ("unit", (2, 0))


@pytest.mark.parametrize(
    "coeffs, failure",
    [
        # F(X, 0) = X^3: the missing linear term comes before the cubic one
        ({(0, 1): 1, (3, 0): 1, (0, 3): 1}, ("unit", (1, 0))),
        # X^2·Y without Y^2·X is a degree-3 defect, ahead of X·Y^3
        ({(1, 0): 1, (0, 1): 1, (2, 1): 1, (1, 3): 1}, ("commutativity", (1, 2))),
    ],
)
def test_unit_and_commutativity_report_the_lowest_degree_failure(coeffs, failure):
    bad = BivariateSeries(RATIONALS, 8, {key: Fraction(c) for key, c in coeffs.items()})
    assert check_group_law(bad, method="skip").first_failure == failure


@pytest.mark.parametrize("p, q, D, law_tables", [(3, 3, 27, 1), (3, 9, 24, 1), (2, 2, 24, 0)])
def test_power_table_is_built_once_per_module(p, q, D, law_tables):
    # the module's table f^(1+k·s) serves the inverse log and every bracket;
    # the law, which needs every power, builds a second (full) table unless
    # s = 1 (q = 2 with v_1 != 0), where the module's table already is that
    from ramtower import formal

    with mock.patch.object(formal, "_log_powers", wraps=formal._log_powers) as tables:
        M = atypical_module(p, q, values=(1, 2, 1), D=D)
        M.bracket(p)
        M.bracket(p + 1)
        assert tables.call_count == 1
        M.law
        assert tables.call_count == 1 + law_tables
    assert (M._step == 1) == (law_tables == 0)


def test_residue_field_is_built_on_first_use(monkeypatch):
    # finding the modulus of F_q is slow for a large q, so the constructor
    # only checks that p is prime
    from ramtower import formal

    calls = []
    original = formal.fq_field

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(formal, "fq_field", recording)
    M = honda_module(2, 4, 1, D=16)
    assert calls == [(2,)]
    assert M.field == fq_field(2, 2)
    assert calls == [(2,), (2, 2)]


def test_multiplicative_law_passes():
    F = BivariateSeries(
        RATIONALS, 10, {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)}
    )
    rep = check_group_law(F, method="exact")
    assert rep.ok


@pytest.mark.parametrize("m", [1, 2], ids=["F_2", "F_4"])
def test_broken_associativity_found_by_all_engines(m):
    # X + Y + X^2·Y + X·Y^2 over F_2 and F_4: unit and commutativity hold, the
    # associator first differs in degree 5
    field = fq_field(2, m)
    one = field.one()
    F = BivariateSeries(field, 12, {(1, 0): one, (0, 1): one, (2, 1): one, (1, 2): one})
    exact = check_group_law(F, method="exact")
    dense = check_group_law(F, method="dense")
    assert not exact.ok and not dense.ok
    assert exact.unit_ok and exact.commutative_ok
    assert exact.first_failure == dense.first_failure
    sampled = check_group_law(F, method="sampled", seed=3, reps=2)
    assert sampled.associative_ok is False


# Engine pins: literal (ok, first_failure[, detail]) values recorded from the
# Fraction-assembled exact engine and the full-length sampled engine, so any
# rewrite of either engine must reproduce them.  The sampled laws carry the
# t^s grading s = gcd(i + j - 1) over their support: s = 8 for (3, 9), 3 for
# (2, 4), 24 for the (5, 25) Honda law and 1 for (2, 2); a term off the
# grading lowers s, and a constant term forces s = 1.


def _bumped(F, seed, degrees, value):
    """F plus `value` at a seeded (i, j) and at (j, i), i, j >= 1, with
    total degree i + j drawn from `degrees`."""
    rng = random.Random(seed)
    d = rng.choice(degrees)
    i = rng.randint(1, d - 1)
    coeffs = dict(F.coeffs)
    for key in {(i, d - i), (d - i, i)}:
        coeffs[key] = F.coeff(*key) + value
    return BivariateSeries(F.ring, F.D, coeffs)


def _sampled_case(name):
    kind, _, variant = name.partition(":")
    p, q, values, D = {
        "q9": (3, 9, (1, 2, 1), 81),
        "q4": (2, 4, (1, 1), 40),
        "q2": (2, 2, (1, 2, 1), 32),
        "honda25": (5, 25, (1,), 100),
    }[kind]
    M = atypical_module(p, q, values, D=D)
    F = M.law.reduce_mod_p(M.field)
    s = math.gcd(*(i + j - 1 for i, j in F.coeffs))
    one = F.ring.one()
    if variant.startswith("bump"):  # on the grading: s is kept
        degrees = [d for d in range(2, D + 1) if (d - 1) % s == 0]
        F = _bumped(F, int(variant[4:]), degrees, one)
    elif variant == "off":  # one symmetric term off the grading lowers s
        degrees = [d for d in range(2, D + 1) if (d - 1) % s == s // 2]
        F = _bumped(F, 3, degrees, one)
    elif variant == "const":
        F = BivariateSeries(F.ring, D, {**F.coeffs, (0, 0): one})
    return F


SAMPLED_PINS = {  # (case, seed): (ok, first failing t-degree, extension degree, bound)
    ("q9", 0): (True, None, 17, "3.226e-11"),
    ("q9", 7): (True, None, 17, "3.226e-11"),
    ("q9:bump1", 0): (False, 25, 17, "3.226e-11"),
    ("q9:bump2", 7): (False, 9, 17, "3.226e-11"),
    ("q9:off", 0): (False, 29, 17, "3.226e-11"),  # s = 4
    ("q9:const", 0): (False, 3, 17, "3.226e-11"),  # s = 1
    ("q4", 0): (True, None, 26, "1.457e-11"),
    ("q4:bump1", 0): (False, 16, 26, "1.457e-11"),
    ("q4:off", 0): (False, 11, 26, "1.457e-11"),  # s = 1
    ("q2", 0): (True, None, 26, "7.503e-12"),
    ("q2:bump1", 0): (False, 6, 26, "7.503e-12"),
    ("q2:bump2", 7): (False, 32, 26, "7.503e-12"),
    ("honda25", 0): (True, None, 12, "1.694e-11"),
    ("honda25:bump1", 0): (False, 49, 12, "1.694e-11"),
    ("honda25:off", 0): (False, 37, 12, "1.694e-11"),  # s = 12
}
EXACT_PINS = {
    "z": (True, None),
    "z:bump1": (False, (1, 1, 4)),
    "z:bump2": (False, (1, 1, 3)),
    "half": (True, None),
    "half:bump1": (False, (1, 1, 2)),
    "half:bump2": (False, (1, 1, 13)),
    "third": (True, None),
    "third:bump1": (False, (1, 1, 2)),
    "f4": (True, None),
    "f4:bump1": (False, (1, 1, 4)),
}


@pytest.mark.parametrize("name, seed", sorted(SAMPLED_PINS))
def test_sampled_engine_pins(name, seed):
    ok, fail, r, bound = SAMPLED_PINS[name, seed]
    detail = {
        "strategy": "sampled",
        "extension_degree": r,
        "reps": 2,
        "seed": seed,
        "false_pass_bound": bound,
    }
    assert sampled_associativity(_sampled_case(name), seed=seed) == (ok, fail, detail)


def _exact_case(name):
    kind, _, variant = name.partition(":")
    if kind == "f4":  # a residue law over F_4, bumped off the prime subfield
        M = atypical_module(2, 4, (1, 1), D=20)
        F = M.law.reduce_mod_p(M.field)
        value = F.ring.from_int(2)  # the residue of x
    else:
        p, q, values, D = {
            "z": (3, 3, (1, 2, 1), 20),  # integer coefficients, L = 1
            "half": (3, 3, (Fraction(1, 2), 1), 16),  # L a power of 2
            "third": (2, 2, (Fraction(1, 3), 1), 12),  # L a power of 3
        }[kind]
        F = atypical_module(p, q, values, D=D).law
        value = Fraction(1, 3)
    if variant:
        F = _bumped(F, int(variant[4:]), range(2, F.D + 1), value)
    return F


@pytest.mark.parametrize("name", sorted(EXACT_PINS))
def test_exact_engine_pins(name):
    assert _assoc_exact(_exact_case(name)) == EXACT_PINS[name]


def test_sampled_check_runs_on_the_grading(monkeypatch):
    # the (3, 9) law lives on i + j ≡ 1 mod 8, so every Horner product is a
    # series of D//8 + 1 places of t^8, not D + 1 coefficients of t
    from ramtower import fastcheck

    lengths = set()
    original = fastcheck._fft_mul

    def recording(acc, *args):
        lengths.add(acc.shape[0])
        return original(acc, *args)

    monkeypatch.setattr(fastcheck, "_fft_mul", recording)
    F = _sampled_case("q9")
    assert math.gcd(*(i + j - 1 for i, j in F.coeffs)) == 8
    assert sampled_associativity(F)[0]
    assert lengths == {F.D // 8 + 1}


def test_sampled_engine_steps_only_between_occurring_degrees():
    # Horner multiplies by u^gap from one outer degree of the law to the
    # next, so a side no longer pays one product per degree up to the top
    from ramtower import fastcheck

    F = _sampled_case("q9")
    top = max(i for i, _ in F.coeffs)
    with mock.patch.object(fastcheck, "_fft_mul", wraps=fastcheck._fft_mul) as products:
        assert sampled_associativity(F, seed=0, reps=2)[:2] == (True, None)
    assert products.call_count < 2 * 2 * top  # reps × sides × one per degree


def test_dense_engine_builds_only_the_powers_the_law_uses():
    # F^n is needed only for the n that occur as an i or a j; at (2, 4, 64)
    # most degrees up to the top do not
    from ramtower import fastcheck

    M = atypical_module(2, 4, (1, 2, 1), D=64)
    F = M.law.reduce_mod_p(M.field)
    top = max(max(key) for key in F.coeffs)
    assert len({n for key in F.coeffs for n in key}) < top
    with mock.patch.object(fastcheck, "_fft_mul", wraps=fastcheck._fft_mul) as products:
        assert dense_associativity(F) == (True, None)
    assert products.call_count < top


@st.composite
def sparse_laws(draw):
    """A sparse series over F_p, p in {2, 3, 5}, with terms on a t^s grading
    i + j ≡ 1 mod s (so outer degrees leave gaps), laid over nothing, an
    associative law or a module's residue law; optionally every term with
    i = 0 (or j = 0) dropped, so a side has no outer degree 0, and
    optionally bumped by `_bumped`."""
    p = draw(st.sampled_from([2, 3, 5]))
    D = draw(st.integers(3, 16))
    s = draw(st.sampled_from([1, 2, 3]))
    field = fq_field(p)
    base = draw(st.sampled_from(["none", "additive", "multiplicative", "module"]))
    coeffs = {}
    if base == "module":
        values = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
        coeffs = dict(atypical_module(p, p, values, D=D).law.reduce_mod_p(field).coeffs)
    elif base != "none":
        coeffs = {(1, 0): field.one(), (0, 1): field.one()}
        if base == "multiplicative":
            coeffs[(1, 1)] = field.from_int(draw(st.integers(1, p - 1)))
    cells = [(i, d - i) for d in range(1, D + 1) if (d - 1) % s == 0 for i in range(d + 1)]
    for key in draw(st.lists(st.sampled_from(cells), max_size=6, unique=True)):
        coeffs[key] = field.from_int(draw(st.integers(1, p - 1)))
    axis = draw(st.sampled_from([None, 0, 1]))
    if axis is not None:
        coeffs = {key: c for key, c in coeffs.items() if key[axis]}
    F = BivariateSeries(field, D, coeffs)
    if draw(st.booleans()):
        degrees = [d for d in range(2, D + 1) if draw(st.booleans()) or (d - 1) % s == 0]
        if degrees:
            value = field.from_int(draw(st.integers(1, p - 1)))
            F = _bumped(F, draw(st.integers(0, 999)), degrees, value)
    return F


@given(sparse_laws(), st.integers(0, 99))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fft_engines_agree_with_the_exact_engine(F, seed):
    ok, key = _assoc_exact(F)
    assert dense_associativity(F) == (ok, key)
    degree = None if key is None else sum(key)
    assert sampled_associativity(F, seed=seed)[:2] == (ok, degree)


@pytest.mark.parametrize("method", ["exact", "dense", "sampled"])
def test_every_engine_takes_the_zero_law(method):
    # no terms: the unit axiom fails and there is nothing to associate
    rep = check_group_law(BivariateSeries(fq_field(3), 8, {}), method=method)
    assert (rep.unit_ok, rep.commutative_ok, rep.associative_ok) == (False, True, True)
    assert rep.first_failure == ("unit", (1, 0))


def test_dense_matches_exact_on_valid_law():
    M = atypical_module(2, 4, values=(1, 1), D=20)
    law = M.law.reduce_mod_p(M.field)
    assert check_group_law(law, method="exact").ok
    ok, first = dense_associativity(law)
    assert ok and first is None


@pytest.mark.parametrize("engine", [dense_associativity, sampled_associativity],
                         ids=["dense", "sampled"])
def test_sampled_rejects_extension_field_coefficients(engine):
    f4 = fq_field(2, 2)
    F = BivariateSeries(f4, 6, {(1, 0): f4.one(), (0, 1): f4.one(), (1, 1): f4.from_int(2)})
    with pytest.raises(ValueError, match=r'\(1,1\) is not \(use method="exact"\)'):
        engine(F)
    assert check_group_law(F, method="exact").ok  # X + Y + θ·XY is associative


@pytest.mark.parametrize("engine", [dense_associativity, sampled_associativity],
                         ids=["dense", "sampled"])
def test_engines_refuse_a_p_their_int64_arithmetic_cannot_hold(engine):
    def multiplicative(p):  # X + Y + XY over F_p
        fp = fq_field(p)
        return BivariateSeries(fp, 3, {(1, 0): fp.one(), (0, 1): fp.one(), (1, 1): fp.one()})

    assert engine(multiplicative(65521))[:2] == (True, None)
    # at p = 2^61 - 1 the sampled engine once called this law non-associative
    with pytest.raises(ValueError, match=r"needs p < 65536"):
        engine(multiplicative(2**61 - 1))
    assert check_group_law(multiplicative(2**61 - 1), method="exact").ok


def test_fft_rounding_is_certified():
    raw = np.array([[2.004, -0.995], [7.0, 1e-9]])
    assert _rint_exact(raw).tolist() == [[2, -1], [7, 0]]
    with pytest.raises(ArithmeticError):
        _rint_exact(np.array([1.0, 2.5]))
    # the threshold is 0.01: residues well inside (0.01, 0.5) are refused too
    for residue in (0.3, 0.02):
        with pytest.raises(ArithmeticError):
            _rint_exact(np.array([4.0 + residue]))
    assert _rint_exact(np.array([1.009])).tolist() == [1]


def test_vec_mul_is_the_field_multiplication():
    # the sampled engine's scalars live in F_{p^r}: folding a product by
    # `_reduction_rows` is the field's own reduction by its modulus
    rng = random.Random(7)
    for p, r in ((2, 26), (3, 17), (65521, 2)):
        field = fq_field(p, r)
        xs, ys = ([field.from_int(rng.randrange(field.q)) for _ in range(20)] for _ in "xy")
        A, B = (np.array([e.coeffs for e in es], dtype=np.int64) for es in (xs, ys))
        product = _vec_mul(A, B, _reduction_rows(field), p)
        assert product.tolist() == [list((x * y).coeffs) for x, y in zip(xs, ys)]


def test_fft_length_is_the_least_5_smooth_length():
    # every 2^a·3^b·5^c up to 40,000, the lengths no prime above 5 divides
    smooth = sorted(
        2**a * 3**b * 5**c
        for a in range(16)
        for b in range(10)
        for c in range(7)
        if 2**a * 3**b * 5**c <= 40_000
    )
    for n in range(-3, 20_001):
        assert _fast_len(n) == smooth[bisect.bisect_left(smooth, n)], n


def test_bracket_series_refuses_a_wrong_linear_term():
    # [a](T) = a·T + ...; a g_1 other than 1 breaks that, and the guard names T^1
    M = atypical_module(2, 2, (1, 2, 1), D=16)
    g = {**M.inv_coeffs, 1: Fraction(2)}
    with pytest.raises(IntegralityError, match=r"^bracket linear term 6 != 3$") as err:
        _bracket_series(M._powers, M._den, M._step, g, 3, M.D)
    assert err.value.monomial == (1,)


def test_group_law_skip_leaves_associativity_open():
    F = atypical_module(2, 2, values=(1,), D=10)
    rep = check_group_law(F.law, method="skip")
    assert rep.unit_ok and rep.commutative_ok and rep.associative_ok is None
    assert not rep.ok


def endomorphism_failure(f: UnivariateSeries, F: BivariateSeries, brackets: dict):
    """The first monomial, tagged "hom" or "bracket a", where
    f(F(X,Y)) != F(f(X), f(Y)) or f∘[a] != [a]∘f for a bracket [a] in
    `brackets`, or None when f is an endomorphism of the law F and commutes
    with those brackets up to the truncation."""
    ring = F.ring
    one = Fraction(1) if ring == RATIONALS else ring.one()
    D = min(f.D, F.D)
    fx = {(e, 0): c for e, c in f.coeffs.items()}
    fy = {(0, e): c for e, c in f.coeffs.items()}
    lhs = _compose(f.coeffs, F.coeffs, D, one)
    # F(f(X), f(Y)) from the powers of f on each axis
    top = max(max(i, j) for i, j in F.coeffs)
    xpow, ypow = [{(0, 0): one}], [{(0, 0): one}]
    for _ in range(top):
        xpow.append(_mul(xpow[-1], fx, D))
        ypow.append(_mul(ypow[-1], fy, D))
    rhs = {}
    for (i, j), c in F.coeffs.items():
        for key, v in _mul(xpow[i], ypow[j], D).items():
            rhs[key] = rhs[key] + c * v if key in rhs else c * v
    bad = _first_difference(lhs, {k: v for k, v in rhs.items() if v})
    if bad is not None:
        return ("hom", bad)
    for a in sorted(brackets, key=str):
        inner = {(e, 0): c for e, c in brackets[a].coeffs.items()}
        left = _compose(f.coeffs, inner, D, one)
        right = _compose(brackets[a].coeffs, fx, D, one)
        bad = _first_difference(left, right)
        if bad is not None:
            return (f"bracket {a}", bad)
    return None


def residue(module):
    """The module's law and its brackets computed so far, reduced mod p
    into F_q."""
    field = module.field
    brackets = {a: s.reduce_mod_p(field) for a, s in module.brackets.items()}
    return module.law.reduce_mod_p(field), brackets


def test_frobenius_is_endomorphism_of_honda_module():
    # T^q commutes with the Honda law over the residue field
    law, brackets = residue(honda_module(2, 2, 1, D=16))
    f2 = law.ring
    frob = UnivariateSeries(f2, 16, {2: f2.one()})
    assert endomorphism_failure(frob, law, brackets) is None


def test_endomorphism_failure_finds_a_non_endomorphism():
    # T + T^3 does not commute with the height-1 Honda law over F_2
    law, brackets = residue(honda_module(2, 2, 1, D=16))
    one = law.ring.one()
    f = UnivariateSeries(law.ring, 16, {1: one, 3: one})
    assert endomorphism_failure(f, law, brackets) == ("hom", (1, 2))
    # [2] respects the law but not a corrupted bracket [3] = 3T + T^2
    F = atypical_module(3, 3, values=(1, 2), D=27)
    two = F.bracket(2)
    brackets = {**F.brackets, Fraction(3): UnivariateSeries(
        RATIONALS, 27, {1: Fraction(3), 2: Fraction(1)}
    )}
    assert endomorphism_failure(two, F.law, brackets) == ("bracket 3", (2, 0))


def test_bracket_composition_is_multiplicative():
    """[a]([b](T)) = [ab](T), and each [a] is an endomorphism."""
    F = atypical_module(3, 3, values=(1, 2), D=27)
    D = F.D
    for a, b in [(2, 2), (2, 4)]:
        inner = {(e, 0): c for e, c in F.bracket(b).coeffs.items()}
        lhs = _compose(F.bracket(a).coeffs, inner, D, Fraction(1))
        assert {e: c for (e, _), c in lhs.items()} == F.bracket(a * b).coeffs
    assert endomorphism_failure(F.bracket(2), F.law, F.brackets) is None


@pytest.mark.parametrize(
    "p,q,values,D",
    [(2, 2, (1, 2, 1), 32), (3, 3, (1, 2), 27), (3, 3, (Fraction(1, 2), 1), 27)],
)
def test_rational_composition_matches_power_table(p, q, values, D):
    """Composing g with f(x)+f(y) or a·f(T) over Fractions gives the law and
    the [p], [p+1] brackets that the power table assembles, coefficient for
    coefficient."""
    M = atypical_module(p, q, values, D=D)
    b, g = M.log_coeffs, M.inv_coeffs
    f = {q**i: bi for i, bi in enumerate(b) if bi and q**i <= D}
    law = {**{(e, 0): c for e, c in f.items()}, **{(0, e): c for e, c in f.items()}}
    exact = _compose(g, law, D, Fraction(1))
    assert exact and exact == M.law.coeffs
    for a in (p, p + 1):
        exact = _compose(g, {(e, 0): a * c for e, c in f.items()}, D, Fraction(1))
        assert exact and exact == {(e, 0): c for e, c in M.bracket(a).coeffs.items()}


INVERSE_LOG_CASES = [
    (2, 2, (1, 2, 1), 32),
    (2, 2, (1, 2, 1), 64),
    (2, 4, (1, 2, 1), 64),
    (3, 3, (1, 2, 1), 27),
    (3, 9, (1, 2, 1), 729),
    (2, 2, (0, 1), 64),
    (3, 9, (0, 0, 1), 729),
    (5, 5, (1, 1, 1), 125),
    (2, 2, (1, 2, 1), 128),
]


@pytest.mark.parametrize("p,q,values,D", INVERSE_LOG_CASES)
def test_inverse_log_composes_to_identity(p, q, values, D):
    # g(f(T)) = T to degree D, checked by plain composition, independent of
    # how g was computed
    M = atypical_module(p, q, values, D=D)
    f = {(q**i, 0): bi for i, bi in enumerate(M.log_coeffs) if bi and q**i <= D}
    assert _compose(M.inv_coeffs, f, D, Fraction(1)) == {(1, 0): 1}


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "record_readme", Path(__file__).resolve().parent / "golden" / "record_readme.py"
    )
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


RECORDER = _load_recorder()
MODULE_PINS = json.loads((RECORDER.GOLDEN / "modules.json").read_text())


@pytest.mark.parametrize("name", list(MODULE_PINS))
def test_module_output_is_pinned(name):
    # as_json() after [p + 1], recorded by tests/golden/record_readme.py; the
    # one case too slow to assemble its law pins g and the brackets instead
    pin = MODULE_PINS[name]
    p = pin["p"]
    M = atypical_module(p, pin["q"], tuple(pin["values"]), D=pin["D"])
    M.bracket(p + 1)
    assert RECORDER.pin_entry(RECORDER.module_pin(M, pin["law"])) == {
        key: pin[key] for key in ("text", "sha256") if key in pin
    }


def test_atypical_module_at_q2_degree_128():
    M = atypical_module(2, 2, (1, 2, 1), D=128)
    for i in (1, 2, 3):
        assert check_pi_congruence(M, i).ok


def test_bracket_with_non_p_power_value_above_degree_160():
    br = honda_module(2, 4, 1, D=256).bracket(Fraction(1, 3))
    assert br.coeff(1) == Fraction(1, 3)
    assert all(c.denominator % 2 for c in br.coeffs.values())


def test_atypical_rejects_non_integral_values():
    with pytest.raises(IntegralityError):
        atypical_module(2, 2, values=(Fraction(1, 2),), D=8)


def _f2_cubic_law():
    """X + Y + X^2·Y + X·Y^2 over F_2 at D = 40: not associative."""
    one = fq_field(2).one()
    return BivariateSeries(fq_field(2), 40, {(1, 0): one, (0, 1): one, (2, 1): one, (1, 2): one})


@pytest.mark.parametrize(
    "build, message",
    [
        # D < 1 once reached the [p] bracket and raised IntegralityError
        (lambda: atypical_module(2, 2, (1,), D=0), "D must be >= 1"),
        (lambda: atypical_module(2, 2, (1,), D=-3), "D must be >= 1"),
        (lambda: honda_module(2, 2, 0), "h must be positive"),
        # the universal check once answered ok=True for modules that do not
        # exist and the level checks raised a plain ValueError
        (lambda: check_pi_congruence_universal(4, 4, 1), "p must be prime"),
        (lambda: check_pi_congruence_universal(2, 6, 1), "q must be a positive power of p"),
        (lambda: check_pi_congruence_universal(2, 2, 0), "i must be >= 1"),
        (lambda: check_pi_congruence(honda_module(2, 2, 1, D=4), 0), "i must be >= 1"),
        (
            lambda: check_pi_congruence(honda_module(2, 2, 1, D=4), 3),
            "truncation 4 too small for i=3",
        ),
        # with no draw the sampled engine once passed this non-associative law
        (lambda: check_group_law(_f2_cubic_law(), method="sampled", reps=0), "reps must be >= 1"),
        (lambda: check_group_law(_f2_cubic_law(), method="sampled", reps=-1), "reps must be >= 1"),
        (lambda: check_group_law(None, reps=0), "reps must be >= 1"),  # before any work
        (lambda: check_group_law(_f2_cubic_law(), method="bogus"), "unknown method 'bogus'"),
    ],
    ids=[
        "D=0", "D=-3", "h=0", "universal-p=4", "universal-q=6", "universal-i=0",
        "level-i=0", "level-above-D", "reps=0", "reps=-1", "reps-before-law", "method=bogus",
    ],
)
def test_degenerate_inputs_raise_parameter_error(build, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        build()


def test_fraction_engine_accepts_odd_denominators():
    # 1/3 is a 2-adic unit, so the specialization is legal; the law's
    # denominators are then not powers of 2, and it still has to close
    F = atypical_module(2, 2, values=(Fraction(1, 3),), D=12)
    rep = check_group_law(F.law, method="exact")
    assert rep.ok, rep
    assert check_pi_congruence(F, 1).ok


values_strategy = st.lists(st.integers(0, 6), min_size=1, max_size=3)


@given(values_strategy)
@settings(max_examples=20, deadline=None)
def test_law_commutes_generic_values(values):
    F = atypical_module(2, 2, values=tuple(values), D=10)
    law = F.law
    for (i, j), c in law.coeffs.items():
        assert law.coeff(j, i) == c
