"""Exact integer helpers and the trinomial break formula.

Prime and prime-power tests, exact logarithms, and `closed_form_break`.
They live here, importing nothing from ramtower, so that `towers` can check
its parameters without loading the finite-field module and `verify` can
check its breaks without loading the Eisenstein machinery.
"""

from __future__ import annotations

from fractions import Fraction


def exact_log(n: int, p: int) -> int | None:
    """k with n = p^k, or None when n is no power of p (p >= 2).

    >>> exact_log(16, 2), exact_log(1, 3), exact_log(12, 2), exact_log(0, 2)
    (4, 0, None, None)
    """
    if n < 1 or p < 2:
        return None
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else None


# Strong Miller–Rabin to the first 13 prime bases has no pseudoprime below
# psi_13 = 3317044064679887385961981 (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Decide whether n is prime, never by guessing.

    A witness proves n composite.  Without one, n is prime when it lies
    below _MR_BOUND; a probable prime at or above it raises ValueError.

    >>> [n for n in range(30) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> is_prime(2**61 - 1), is_prime((2**31 - 1) ** 2)
    (True, False)
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot certify {n} as prime: it is at least {_MR_BOUND}")
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, one bit at a time from the top."""
    r = 0
    for bit in range(-(-n.bit_length() // k), -1, -1):
        if (r | 1 << bit) ** k <= n:
            r |= 1 << bit
    return r


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k, p prime and k >= 1, or None when there are none.

    q = r^k with k as large as possible is a prime power exactly when r
    is prime.

    >>> prime_power(2), prime_power(81), prime_power(12), prime_power(1)
    ((2, 1), (3, 4), None, None)
    """
    if q < 2:
        return None
    for k in range(q.bit_length() - 1, 1, -1):
        r = _iroot(q, k)
        if r**k == q:
            break
    else:
        r, k = q, 1
    return (r, k) if is_prime(r) else None


def closed_form_break(q: int, v) -> Fraction:
    """Break cut out by a layer with linear-coefficient valuation v:
    q·v/(q-1) - 1.

    >>> closed_form_break(2, 1)
    Fraction(1, 1)
    >>> closed_form_break(4, 1)
    Fraction(1, 3)
    """
    v = Fraction(v)
    if q < 2 or v <= 0:
        raise ValueError("need q >= 2 and v > 0")
    return Fraction(q, q - 1) * v - 1
