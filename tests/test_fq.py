import time

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from ramtower.arith import exact_log, is_prime, prime_power
from ramtower.errors import FieldMismatch
from ramtower.fq import fq_field, is_irreducible


def test_moduli_are_deterministic():
    # lowest irreducible polynomial in counter order, frozen
    assert fq_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert fq_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert fq_field(2, 3).modulus == (1, 1, 0, 1)
    assert fq_field(5, 1).modulus == (0, 1)


def test_modulus_is_irreducible():
    for p, m in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        f = fq_field(p, m)
        assert is_irreducible(f.modulus, p)
        assert f.q == p**m


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


def test_int_coercion_in_equality():
    f = fq_field(5)
    assert f.from_int(3) == 3
    assert f.from_int(3) != 4


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
