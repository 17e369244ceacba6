"""Finite fields F_{p^m} with a deterministic defining polynomial.

Elements are represented on the power basis 1, x, ..., x^{m-1} of
F_p[x]/(modulus).  The modulus is not a Conway polynomial: it is the first
monic irreducible polynomial of degree m in the enumeration

    x^m + c_{m-1} x^{m-1} + ... + c_0,   where (c_0, ..., c_{m-1}) are the
    base-p digits of a counter n = 0, 1, 2, ...

so the choice is reproducible from (p, m) alone.  Integers are identified
with field elements through the same digit map: n < p^m corresponds to
sum(n_i x^i) where n_i is the i-th base-p digit of n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import ParameterError


def _trim(c: tuple[int, ...]) -> tuple[int, ...]:
    k = len(c)
    while k > 0 and c[k - 1] == 0:
        k -= 1
    return c[:k]


def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
        a[i] = 0
    return _trim(tuple(x % p for x in a[:dm]))


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(tuple(out))


def _poly_mulmod(a, b, mod, p):
    return _poly_mod(_poly_mul(a, b, p), mod, p)


def _poly_powmod(base, e: int, mod, p):
    result = (1,)
    base = _poly_mod(base, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        # a mod b, with b made monic
        inv = pow(b[-1], p - 2, p)
        a, b = b, _poly_mod(a, tuple((c * inv) % p for c in b), p)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin test for a monic polynomial over F_p, coefficients ascending."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    if m == 1:
        return True

    def frobenius_minus_x(k):
        # x^{p^k} - x mod f
        h = list(_poly_powmod((0, 1), p**k, coeffs, p)) + [0, 0]
        h[1] = (h[1] - 1) % p
        return _trim(tuple(h))

    for r in _prime_factors(m):
        # gcd(x^{p^{m/r}} - x, f) must be 1
        if len(_poly_gcd(frobenius_minus_x(m // r), coeffs, p)) > 1:
            return False
    return not frobenius_minus_x(m)


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    for n in range(p**m):
        tail = []
        k = n
        for _ in range(m):
            tail.append(k % p)
            k //= p
        cand = tuple(tail) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


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


@functools.lru_cache(maxsize=None)
def fq_field(p: int, m: int = 1) -> "FqField":
    """Return the field with p^m elements, deterministically constructed.

    >>> fq_field(2, 2).modulus   # x^2 + x + 1
    (1, 1, 1)
    >>> fq_field(3, 2).modulus   # x^2 + 1
    (1, 0, 1)
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    if not is_prime(p):
        raise ParameterError("p must be prime")
    return FqField(p, m, _find_modulus(p, m))


@dataclass(frozen=True)
class FqField:
    p: int
    m: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.m

    def from_int(self, n: int) -> "FqElem":
        """Integer -> element through base-p digits on the power basis."""
        n %= self.q
        digits = []
        for _ in range(self.m):
            digits.append(n % self.p)
            n //= self.p
        return FqElem(self, tuple(digits))

    def zero(self) -> "FqElem":
        return FqElem(self, (0,) * self.m)

    def one(self) -> "FqElem":
        return self.from_int(1)

    def gen(self) -> "FqElem":
        """The residue of x; a generator of the ring, not of the unit group."""
        if self.m == 1:
            return self.zero()
        return self.from_int(self.p)

    def __repr__(self):
        return f"FqField(p={self.p}, m={self.m})"


class FqElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.coeffs))

    def _check(self, other) -> "FqElem":
        if isinstance(other, int):
            return self.field.from_int(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        if other.field != self.field:
            from .errors import FieldMismatch

            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        prod = _poly_mul(_trim(self.coeffs), _trim(other.coeffs), f.p)
        red = _poly_mod(prod, f.modulus, f.p) if len(prod) > f.m else prod
        return FqElem(f, red + (0,) * (f.m - len(red)))

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # a^(q-2) = a^(-1) in a field of q elements; q is small here
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def to_int(self) -> int:
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.p + c
        return n

    def __repr__(self):
        return f"Fq({self.field.p}^{self.field.m}:{self.to_int()})"
