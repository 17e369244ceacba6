import itertools
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from ramtower.arith import exact_log, is_prime, prime_power
from ramtower.errors import FieldMismatch
from ramtower.fq import fq_field, is_irreducible
from ramtower.series import parse_series


def test_moduli_are_deterministic():
    # lowest irreducible polynomial in counter order, frozen
    assert fq_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert fq_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert fq_field(2, 3).modulus == (1, 1, 0, 1)
    assert fq_field(5, 1).modulus == (0, 1)
    # the extensions of degree r, p^r >= 2^26, that the sampled associativity
    # engine draws its points from, by their terms below x^r
    for p, r, low in [
        (2, 26, {0: 1, 1: 1, 3: 1, 4: 1}),  # x^26 + x^4 + x^3 + x + 1
        (3, 17, {0: 1, 1: 2}),
        (5, 12, {0: 4, 1: 1}),
        (7, 10, {0: 3, 1: 2}),
        (65521, 2, {0: 17}),
    ]:
        assert fq_field(p, r).modulus == tuple(low.get(i, 0) for i in range(r)) + (1,)


def test_modulus_is_irreducible():
    for p, m in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        f = fq_field(p, m)
        assert is_irreducible(f.modulus, p)
        assert f.q == p**m


def _monic(p, d):
    return [tail + (1,) for tail in itertools.product(range(p), repeat=d)]


def _times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize(
    "p,m",
    [(2, m) for m in range(1, 7)] + [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)],
)
def test_irreducibility_matches_a_factor_search(p, m):
    # every monic polynomial of degree m, reducible ones included: the
    # reducible ones are exactly the products of two monic polynomials of
    # degrees d and m - d, 1 <= d <= m/2
    reducible = {
        _times(a, b, p)
        for d in range(1, m // 2 + 1)
        for a in _monic(p, d)
        for b in _monic(p, m - d)
    }
    for f in _monic(p, m):
        assert is_irreducible(f, p) == (f not in reducible), f


def test_field_cache_identity():
    assert fq_field(2, 2) is fq_field(2, 2)


fields = st.sampled_from([fq_field(2), fq_field(3), fq_field(2, 2), fq_field(3, 2), fq_field(2, 4)])


@st.composite
def field_and_elems(draw, n=2):
    f = draw(fields)
    xs = tuple(f.from_int(draw(st.integers(0, f.q - 1))) for _ in range(n))
    return (f,) + xs


@given(field_and_elems(n=3))
@settings(max_examples=200)
def test_ring_axioms(args):
    f, a, b, c = args
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + f.zero() == a
    assert a * f.one() == a


@given(field_and_elems(n=1))
@settings(max_examples=100)
def test_nonzero_elements_have_order_dividing_q_minus_1(args):
    # a^(q-1) = 1 holds in F_q, not in F_p[x] cut off at degree m, whose
    # ring axioms the test above cannot tell apart from the field's
    f, a = args
    power = f.one()
    for _ in range(f.q - 1):
        power = power * a
    assert power == (f.one() if a else f.zero())


@given(field_and_elems(n=2))
@settings(max_examples=150)
def test_frobenius_is_additive(args):
    f, a, b = args

    def frob(x):  # x^p as p - 1 repeated products
        y = x
        for _ in range(f.p - 1):
            y = y * x
        return y

    assert frob(a + b) == frob(a) + frob(b)


def test_to_int_round_trip():
    f = fq_field(3, 2)
    seen = {f.from_int(i).to_int() for i in range(f.q)}
    assert seen == set(range(f.q))


def test_mixed_field_arithmetic_rejected():
    a = fq_field(2).one()
    b = fq_field(3).one()
    with pytest.raises(FieldMismatch):
        a + b


@pytest.mark.parametrize("m", [(2, 2), (3, 2)], ids=["F4", "F9"])
def test_integers_do_not_enter_the_field_by_arithmetic(m):
    # the base-p digit map is an encoding (over F_4, from_int(2) is x), so
    # field and series arithmetic refuse an int operand instead of guessing
    f = fq_field(*m)
    one, a = f.one(), parse_series("t + t^2", f)
    for op in (lambda: one * 2, lambda: 2 * one, lambda: one + 1, lambda: 1 + one,
               lambda: a * 2, lambda: 2 * a):
        with pytest.raises(TypeError):
            op()
    assert one != 1 and not one == 1


def smallest_factor(n):
    """The smallest prime factor of n >= 2, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(2, 10**5) if smallest_factor(n) == n
    ]


def test_prime_power_agrees_with_trial_division():
    for q in range(2, 20_001):
        p = smallest_factor(q)
        k = exact_log(q, p)
        assert prime_power(q) == ((p, k) if k else None), q


def test_prime_rules_take_polynomial_time():
    start = time.perf_counter()
    assert is_prime(2**61 - 1) and prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert not is_prime((2**31 - 1) ** 2)
    assert prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert prime_power(3**500) == (3, 500) and prime_power(10**400) is None
    assert time.perf_counter() - start < 1.0


def test_is_prime_never_guesses():
    # a witness settles a composite at any size; a probable prime beyond
    # the deterministic bound is refused, not guessed
    assert not is_prime((2**89 - 1) * (2**61 - 1))
    with pytest.raises(ValueError, match="cannot certify"):
        is_prime(2**89 - 1)
