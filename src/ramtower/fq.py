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

from .arith import is_prime
from .errors import ParameterError
from .record import Record


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


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic polynomial f over F_p, coefficients
    ascending.  A reducible f of degree m has an irreducible factor of some
    degree i <= m/2, and that factor divides x^{p^i} − x, so f is
    irreducible exactly when gcd(x^{p^i} − x, f) = 1 for every i <= m/2.
    The powers x^{p^i} mod f are taken one Frobenius step at a time, and the
    test stops at the first i with a common factor, which a reducible
    candidate usually has at a small i."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    h = (0, 1)
    for _ in range(m // 2):
        h = _poly_powmod(h, p, coeffs, p)  # x^{p^i} mod f
        h_minus_x = list(h) + [0, 0]
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        if len(_poly_gcd(tuple(h_minus_x), coeffs, p)) > 1:
            return False
    return True


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


class FqField(Record):
    __slots__ = ("p", "m", "modulus")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self._store(p, m, modulus)

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

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        prod = _poly_mul(_trim(self.coeffs), _trim(other.coeffs), f.p)
        red = _poly_mod(prod, f.modulus, f.p) if len(prod) > f.m else prod
        return FqElem(f, red + (0,) * (f.m - len(red)))

    __rmul__ = __mul__

    def to_int(self) -> int:
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.p + c
        return n

    def __repr__(self):
        return f"Fq({self.field.p}^{self.field.m}:{self.to_int()})"
