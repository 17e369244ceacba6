"""Formal group laws and formal modules, truncated at a total degree.

The centerpiece is the functional-equation construction: a logarithm
f(x) = Σ b_i x^{q^i} with b_0 = 1 and

    p·b_n = Σ_{k=0}^{n-1} b_k · v_{n-k}^{q^k}

at p-integral rational values v_1, v_2, ....  The group law is
F(x, y) = f^{-1}(f(x)+f(y)) and the brackets are [a](T) = f^{-1}(a·f(T)); the
functional-equation lemma guarantees every coefficient is p-integral even
though each b_n has p-power denominators, and that integrality is asserted,
not assumed.  The universal [p] congruence, with the v's as symbols, is
checked on a Honda module, because the universal coefficients are graded
(see `check_pi_congruence_universal`).

A `FormalModule` is built from (p, q, values, D) alone, always over the
rationals; its residue law and brackets over F_q are the series reduced one
by one, `module.law.reduce_mod_p(module.field)`.

Every truncated series here is a dict {(i, j): c} that drops total degree
above D (univariate series use (e, 0) keys), and one kernel does all of
their arithmetic: `_mul` for products, and `_compose` for g(S) = Σ g_e·S^e,
the plain composition the tests check the faster paths against.
Everything else is assembled from the powers f^k of the logarithm, each
kept as integer numerators over one shared denominator, so the hot loops run
on plain integers for any rational input: a module keeps one table of the
powers f^(1+k·s) that can meet a nonzero g_e, solves g from it as a
triangular system, and sums every bracket from it; the law, which needs
every power, builds its own full table.  All character-zero staging is
exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import exact_log
from .errors import IntegralityError, ParameterError
from .fq import FqField, fq_field
from .record import MutableRecord, Record

RATIONALS = "Q"

# largest truncation whose associativity "auto" checks exactly, on the law
# itself; above it the law is reduced mod p for the finite-field engines
EXACT_ASSOC_MAX_D = 32
# largest truncation whose (D+1)^3 grid the dense engine builds
DENSE_ASSOC_MAX_D = 200


def _vp(x: Fraction, p: int):
    """p-adic valuation of a rational; None for 0."""
    x = Fraction(x)
    if not x:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# the logarithm, its powers and the truncated-series kernel


def _numeric_log_coeffs(p, q, values, D):
    """b_0..b_n for every q^n <= D, from p·b_n = Σ_{j<n} b_j·v_{n-j}^{q^j}
    at the rational values v_1, v_2, ...."""
    b = [Fraction(1)]
    while q ** len(b) <= D:
        n = len(b)
        s = Fraction(0)
        for j in range(n):
            idx = n - j
            if idx <= len(values) and values[idx - 1]:
                s += b[j] * values[idx - 1] ** (q**j)
        b.append(s / p)
    return tuple(b)


def _mul(a: dict, b: dict, D: int) -> dict:
    """a·b for series {(i, j): c}, dropping terms of total degree above D."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 + j1 + j2 > D:
                continue
            key = (i1 + i2, j1 + j2)
            prod = c1 * c2
            if key in out:
                out[key] = out[key] + prod
            else:
                out[key] = prod
    return {k: v for k, v in out.items() if v}


def _compose(outer: dict, inner: dict, D: int, one) -> dict:
    """Σ_e outer[e]·inner^e truncated at total degree D.  `outer` is keyed
    by exponent; `inner` is a {(i, j): c} series with no constant term, so
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


def _log_step(b, q, D) -> int:
    """s = gcd(q^i − 1) over the i >= 1 with b_i != 0 and q^i <= D, or 0 if
    there is none.  Every exponent of f(T) = Σ b_i T^{q^i} is ≡ 1 mod s, and
    so is every exponent of its inverse g."""
    return math.gcd(*(q**i - 1 for i in range(1, len(b)) if b[i] and q**i <= D))


def _log_powers(b, q, D, first=0, step=1):
    """Yield f^k = num/den for k = first, first + step, ... truncated at
    degree D, where f(T) = Σ b_i T^{q^i}, stopping at the first zero power.
    `num` holds integer numerators under (e, 0) keys and `den` is their one
    shared denominator, exact for any rational b_i; each product divides both
    by their common gcd to keep them small."""
    f = {(q**i, 0): Fraction(bi) for i, bi in enumerate(b) if bi and q**i <= D}
    fden = math.lcm(*(c.denominator for c in f.values()))
    fnum = {key: c.numerator * (fden // c.denominator) for key, c in f.items()}

    def times(num, den, other, oden):
        num = _mul(num, other, D)
        den *= oden
        common = math.gcd(den, *num.values())
        if common > 1:
            num = {key: v // common for key, v in num.items()}
            den //= common
        return num, den

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


def _inverse_log(powers, s) -> dict:
    """Compositional inverse g of f, solved from the powers f^(1+k·s) that
    `_log_powers(b, q, D, first=1, step=s)` yields, as {e: g_e}.

    Only e ≡ 1 mod s can have g_e != 0, and f^e is T^e plus terms whose
    degrees are ≡ e mod s, so g(f(T)) = T read at T^d, d = 1 + k·s, is the
    triangular system g_d = −Σ_{j<k} g_{1+j·s}·[T^d] f^{1+j·s}."""
    g = {1: Fraction(1)}
    for k in range(1, len(powers)):
        d = 1 + k * s
        gd = -sum(
            (
                g[1 + j * s] * Fraction(num[d, 0], den)
                for j, (num, den) in enumerate(powers[:k])
                if 1 + j * s in g and (d, 0) in num
            ),
            Fraction(0),
        )
        if gd:
            g[d] = gd
    return g


# ---------------------------------------------------------------------------
# truncated series containers


class BivariateSeries(Record):
    """Total-degree-truncated series in two variables; ring is RATIONALS or
    an FqField."""

    __slots__ = ("ring", "D", "coeffs")

    def __init__(self, ring, D: int, coeffs: dict):
        clean = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0 or i + j > D:
                raise ValueError(f"monomial ({i},{j}) outside truncation {D}")
            if c:
                clean[(i, j)] = c
        self._store(ring, D, clean)

    def coeff(self, i, j):
        c = self.coeffs.get((i, j))
        if c is not None:
            return c
        return Fraction(0) if self.ring == RATIONALS else self.ring.zero()

    def reduce_mod_p(self, field: FqField) -> "BivariateSeries":
        if self.ring != RATIONALS:
            raise ValueError("already over a finite field")
        return BivariateSeries(
            field, self.D, {k: _residue(c, field) for k, c in self.coeffs.items()}
        )

    def as_json(self):
        return {
            "D": self.D,
            "coeffs": [
                [i, j, _coeff_json(c)] for (i, j), c in sorted(self.coeffs.items())
            ],
        }


class UnivariateSeries(Record):
    __slots__ = ("ring", "D", "coeffs")

    def __init__(self, ring, D: int, coeffs: dict):
        clean = {}
        for e, c in coeffs.items():
            if e < 0 or e > D:
                raise ValueError(f"exponent {e} outside truncation {D}")
            if c:
                clean[e] = c
        self._store(ring, D, clean)

    def coeff(self, e):
        c = self.coeffs.get(e)
        if c is not None:
            return c
        return Fraction(0) if self.ring == RATIONALS else self.ring.zero()

    def reduce_mod_p(self, field: FqField) -> "UnivariateSeries":
        if self.ring != RATIONALS:
            raise ValueError("already over a finite field")
        return UnivariateSeries(
            field, self.D, {e: _residue(c, field) for e, c in self.coeffs.items()}
        )

    def as_json(self):
        return {
            "D": self.D,
            "coeffs": [[e, _coeff_json(c)] for e, c in sorted(self.coeffs.items())],
        }


def _coeff_json(c):
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
    return c.to_int()


def _residue(fr: Fraction, field: FqField):
    """Reduce a p-integral rational into the prime subfield of F_q."""
    p = field.p
    if fr.denominator % p == 0:
        raise IntegralityError(f"{fr} is not {p}-integral")
    return field.from_int(fr.numerator * pow(fr.denominator, -1, p) % p)


# ---------------------------------------------------------------------------
# formal modules


class FormalModule:
    """The formal module over Z_p with logarithm f(T) = Σ b_i T^{q^i},
    b_i from the values v_1, v_2, ... by the functional-equation recursion,
    truncated at total degree D.

    p, q, values and D are all it is built from; the logarithm, its inverse g
    and every bracket follow.  The constructor solves g from one table of the
    powers f^(1+k·s) (s from `_log_step`) and keeps that table, from which
    every bracket is summed and cached in .brackets; the (expensive) law
    assembly waits until .law is first read.
    """

    def __init__(self, p: int, q: int, values, D: int):
        fq_field(p)  # raises "p must be prime"
        if not exact_log(q, p):
            raise ParameterError("q must be a positive power of p")
        if D < 1:
            raise ParameterError("D must be >= 1")
        values = tuple(Fraction(v) for v in values)
        for v in values:
            if v and _vp(v, p) < 0:
                raise IntegralityError(f"specialization value {v} is not {p}-integral")
        self.p, self.q, self.values, self.D = p, q, values, D
        self.log_coeffs = _numeric_log_coeffs(p, q, values, D)
        self.brackets = {}
        self._law = None
        self._step = _log_step(self.log_coeffs, q, D) or D  # f(T) = T: only g_1
        self._powers = list(_log_powers(self.log_coeffs, q, D, first=1, step=self._step))
        self.inv_coeffs = _inverse_log(self._powers, self._step)

    @property
    def field(self) -> FqField:
        """The residue field F_q, built on first use: finding its modulus is
        slow for a large q."""
        return fq_field(self.p, exact_log(self.q, self.p))

    @property
    def law(self) -> BivariateSeries:
        if self._law is None:
            self._law = _law_series(self.log_coeffs, self.inv_coeffs, self.p, self.q, self.D)
        return self._law

    def bracket(self, a) -> UnivariateSeries:
        """[a](T) = f^{-1}(a·f(T)), cached in .brackets."""
        a = Fraction(a)
        if a not in self.brackets:
            self.brackets[a] = _bracket_series(
                self._powers, self._step, self.inv_coeffs, a, self.D
            )
        return self.brackets[a]

    def check(self, method: str = "auto"):
        """(GroupLawReport, [CongruenceReport]) as `formal --check` reports
        them: the group-law axioms by `check_group_law` with the given
        associativity method, on the law reduced mod p for "dense",
        "sampled" and for "auto" above EXACT_ASSOC_MAX_D, then the [p]
        congruence at every level i whose cap q^i fits under D."""
        law = self.law
        if method in ("dense", "sampled") or (method == "auto" and self.D > EXACT_ASSOC_MAX_D):
            # the finite-field engines check the reduction mod p; building the
            # law already asserted that every coefficient is p-integral
            law = law.reduce_mod_p(self.field)
        report = check_group_law(law, method=method)
        levels = [i for i in range(1, self.D.bit_length()) if self.q**i <= self.D]
        return report, [check_pi_congruence(self, i) for i in levels]

    def as_json(self):
        return {
            "ring": RATIONALS,
            "descriptor": {"p": self.p, "q": self.q},
            "law": self.law.as_json(),
            "brackets": {str(a): s.as_json() for a, s in self.brackets.items()},
        }


def _bracket_series(powers, s, g, a, D) -> UnivariateSeries:
    """[a](T) = Σ_e g_e·a^e·f(T)^e, read off the module's table of powers
    f^e = num/den, e = 1 + k·s: only those e can have g_e != 0.

    The sum is kept as integer numerators over one denominator, widened
    whenever a term needs a factor it lacks, so no denominator is assumed."""
    a = Fraction(a)
    acc, den, a_e, a_s = {}, 1, a, a**s
    for k, (num, fden) in enumerate(powers):
        ge = g.get(1 + k * s)
        if ge is not None:
            r = ge * a_e / fden
            if den % r.denominator:
                widen = r.denominator // math.gcd(den, r.denominator)
                acc = {i: v * widen for i, v in acc.items()}
                den *= widen
            c = r.numerator * (den // r.denominator)
            for (i, _), v in num.items():
                acc[i] = acc.get(i, 0) + c * v
        a_e *= a_s
    coeffs = {i: Fraction(v, den) for i, v in acc.items() if v}
    lead = coeffs.get(1, Fraction(0))
    if lead != a:
        raise IntegralityError(f"bracket linear term {lead} != {a}", (1,))
    return UnivariateSeries(RATIONALS, D, coeffs)


def atypical_module(p: int, q: int, values, D: int | None = None) -> FormalModule:
    """Specialize the universal construction at v_i = values[i-1], truncated
    at D (default q^3 + q).

    p must be prime, q a positive power of p and D >= 1, or ParameterError
    is raised before any work is done.  Values must be p-integral rationals.
    Returns the characteristic-zero module (exact rational coefficients) with
    the [p] bracket attached; integrality of every law/bracket coefficient is
    verified and a violation raises IntegralityError naming the monomial — by
    the functional-equation lemma that can only mean a bug or a non-integral
    specialization.
    """
    module = FormalModule(p, q, values, q**3 + q if D is None else D)
    pi = module.bracket(p)
    for e, c in pi.coeffs.items():
        if c.denominator % p == 0:
            raise IntegralityError(f"[p] coefficient at {e} = {c} not integral", (e,))
    return module


def _law_series(b, g, p, q, D) -> BivariateSeries:
    """F(x, y) = g(f(x) + f(y)) = Σ_k f(x)^k·B_k(y), where
    B_k = Σ_l g_{k+l}·C(k+l, k)·f^l is truncated at degree D − k.

    One table of the powers f^k serves both axes.  The powers are brought to
    the lcm P of their denominators and g to the lcm G of its own, so the
    whole sum runs on integers over P²·G.  That denominator is read off the
    actual table rather than assumed from a p-adic bound, so there is no
    scale for a remainder check to guard; the p-integrality that the
    functional-equation lemma promises is asserted on the result."""
    table = list(_log_powers(b, q, D))
    P = math.lcm(*(den for _, den in table))
    A = [sorted((e, v * (P // den)) for (e, _), v in num.items()) for num, den in table]
    G = math.lcm(*(c.denominator for c in g.values()))
    g_num = sorted((e, c.numerator * (G // c.denominator)) for e, c in g.items())
    acc = {}
    for k, row in enumerate(A):
        bk = {}
        for e, c in g_num:
            l = e - k
            if l < 0:
                continue
            c *= math.comb(e, k)
            for j, v in A[l]:
                if j > D - k:
                    break
                bk[j] = bk.get(j, 0) + c * v
        bk = sorted(bk.items())
        for i, v in row:
            for j, w in bk:
                if i + j > D:
                    break
                acc[(i, j)] = acc.get((i, j), 0) + v * w
    scale = P * P * G
    raw = {key: Fraction(v, scale) for key, v in acc.items() if v}
    for (i, j), c in raw.items():
        if c.denominator % p == 0:
            raise IntegralityError(
                f"law coefficient at ({i},{j}) = {c} not {p}-integral", (i, j)
            )
    return BivariateSeries(RATIONALS, D, raw)


def honda_module(p: int, q: int, h: int, D: int | None = None) -> FormalModule:
    """The specialization v_h = 1, all other v_i = 0.

    Truncated at its cap q^h, its [p] is p·T + (1 − p^{q^h − 1})·T^{q^h}:

    >>> honda_module(3, 3, 1, D=3).bracket(3).as_json()
    {'D': 3, 'coeffs': [[1, '3'], [3, '-8']]}
    >>> honda_module(2, 2, 2, D=4).bracket(2).as_json()
    {'D': 4, 'coeffs': [[1, '2'], [4, '-7']]}
    """
    if h < 1:
        raise ParameterError("h must be positive")
    return atypical_module(p, q, (0,) * (h - 1) + (1,), D)


# ---------------------------------------------------------------------------
# the multiplication-by-p congruence


class CongruenceReport(Record):
    __slots__ = ("ok", "i", "ideal_exponent", "first_failure")

    def __init__(self, ok: bool, i: int, ideal_exponent: int, first_failure: tuple | None = None):
        self._store(ok, i, ideal_exponent, first_failure)

    def as_json(self):
        return {
            "ok": self.ok,
            "i": self.i,
            "ideal_exponent": self.ideal_exponent,
            "first_failure": None if self.first_failure is None else str(self.first_failure),
        }


def check_pi_congruence(module: FormalModule, i: int) -> CongruenceReport:
    """[p](x) ≡ v_i x^{q^i} modulo (p, v_1,…,v_{i-1}, x^{q^i + 1}) for the
    specialized module: in Z_p the ideal (p, values_{<i}) is (p^e) with
    e = min(1, v_p of each nonzero earlier value), so the check is a
    valuation floor on the first q^i coefficients."""
    p, q = module.p, module.q
    if i < 1:
        raise ParameterError("i must be >= 1")
    cap = q**i
    if cap > module.D:
        raise ParameterError(f"truncation {module.D} too small for i={i}")
    floor = 1
    for j in range(1, i):
        vj = module.values[j - 1] if j <= len(module.values) else Fraction(0)
        vpj = _vp(vj, p)
        if vpj is not None:
            floor = min(floor, vpj)
    vi = module.values[i - 1] if i <= len(module.values) else Fraction(0)
    pi = module.bracket(p)
    for e in range(1, cap + 1):
        c = pi.coeff(e)
        if e == cap:
            c = c - vi
        if c and (floor > 0) and _vp(c, p) < floor:
            return CongruenceReport(False, i, floor, (e,))
    return CongruenceReport(True, i, floor)


def check_pi_congruence_universal(p: int, q: int, i: int) -> CongruenceReport:
    """The same congruence for the universal module: v_1..v_{i-1} killed,
    v_i, v_{i+1}, ... kept as symbols, and every coefficient of
    [p](x) − v_i·x^{q^i} up to x^{q^i} in p·Z_(p)[v].

    The universal coefficients are graded (Hazewinkel, *Formal Groups and
    Applications*, the functional-equation lemma): with wt x = −1 and
    wt v_j = q^j − 1, [p] is homogeneous of weight −1, so its coefficient
    of x^e has weight e − 1.  Modulo v_1..v_{i-1} and up to x^{q^i}, where
    every v_j with j > i is too heavy, that coefficient is one monomial
    c_e·v_i^m with m·(q^i − 1) = e − 1, so there
    [p] = p·x + (1 − p^{q^i − 1})·v_i·x^{q^i}.  Setting v_i = 1 keeps every
    c_e: the universal check is the level-i check of the Honda module of
    height i truncated at q^i, and a failure names the exponent (e,).
    Malformed p, q or i raise ParameterError, as that module does."""
    if i < 1:
        raise ParameterError("i must be >= 1")
    return check_pi_congruence(honda_module(p, q, i, D=q**i), i)


# ---------------------------------------------------------------------------
# axiom checking


class GroupLawReport(MutableRecord):
    __slots__ = (
        "unit_ok", "commutative_ok", "associative_ok", "method", "first_failure", "detail"
    )

    def __init__(
        self,
        unit_ok: bool,
        commutative_ok: bool,
        associative_ok: bool | None,
        method: str,
        first_failure: tuple | None = None,
        detail: dict | None = None,
    ):
        detail = {} if detail is None else detail
        self._store(unit_ok, commutative_ok, associative_ok, method, first_failure, detail)

    @property
    def ok(self):
        return bool(self.unit_ok and self.commutative_ok and self.associative_ok)

    def as_json(self):
        return {
            "ok": self.ok,
            "unit_ok": self.unit_ok,
            "commutative_ok": self.commutative_ok,
            "associative_ok": self.associative_ok,
            "method": self.method,
            "first_failure": None if self.first_failure is None else list(self.first_failure),
            "detail": self.detail,
        }


def _first_difference(a: dict, b: dict):
    """The first key, ordered by (total degree, key), at which the series
    a and b differ, or None when they are equal."""
    for key in sorted(a.keys() | b.keys(), key=lambda t: (sum(t), t)):
        if a.get(key) != b.get(key):
            return key
    return None


def _assoc_exact(F: BivariateSeries):
    """Trivariate identity F(F(x,y),z) = F(x,F(y,z)) checked term by term.

    Both sides are assembled from the powers of the law itself, placed on the
    z^j (resp. x^i) axis.  A rational law is written F = N/L over the lcm L
    of its denominators, and each side is summed as Σ n_ij·N^i·L^(top−i)·z^j
    (resp. x^i·N^j·L^(top−j)) on integers: the true sums times L^(top+1), so
    they differ at exactly the same keys.  An F_q law is its own N, with
    L = 1.  Exact in any ring; cost grows fast with D."""
    D = F.D
    if F.ring == RATIONALS:
        L = math.lcm(*(c.denominator for c in F.coeffs.values()))
        num = {key: c.numerator * (L // c.denominator) for key, c in F.coeffs.items()}
        one = 1
    else:
        L, num, one = 1, F.coeffs, F.ring.one()
    top = max((max(key) for key in num), default=0)
    powers = [{(0, 0): one}, num]
    while len(powers) <= top:
        powers.append(_mul(powers[-1], num, D))
    weight = [L ** (top - n) for n in range(top + 1)]
    lhs, rhs = {}, {}
    for (i, j), c in num.items():
        ci, cj = c * weight[i], c * weight[j]
        for (a, bb), v in powers[i].items():
            if a + bb + j > D:
                continue
            key = (a, bb, j)
            prod = ci * v
            lhs[key] = lhs[key] + prod if key in lhs else prod
        for (a, bb), v in powers[j].items():
            if i + a + bb > D:
                continue
            key = (i, a, bb)
            prod = cj * v
            rhs[key] = rhs[key] + prod if key in rhs else prod
    lhs = {k: v for k, v in lhs.items() if v}
    rhs = {k: v for k, v in rhs.items() if v}
    key = _first_difference(lhs, rhs)
    return key is None, key


def check_group_law(
    F: BivariateSeries, method: str = "auto", seed: int = 0, reps: int = 2
) -> GroupLawReport:
    """Verify unit, commutativity, associativity up to the truncation.

    Unit and commutativity are always checked exactly on the coefficient
    dictionary, F(X, 0) against X, F(0, Y) against Y and F(X, Y) against
    F(Y, X); each reports its first difference in `_first_difference`'s
    (total degree, key) order, as associativity does.  Associativity
    strategy:

    - "exact": sparse trivariate assembly, any ring — the "auto" choice up to
      D = EXACT_ASSOC_MAX_D; a rational law is summed on integers over the
      lcm L of its denominators, an F_q law on its own coefficients;
    - "dense": the full (D+1)^3 grid of residues mod p, built with
      certified-exact FFT convolutions (prime-subfield coefficients only);
    - "sampled": substitute (a·t, b·t, c·t) with a, b, c random in a large
      extension field and compare the two compositions as univariate series
      in t — each total-degree slice of the defect is a homogeneous
      polynomial, so the failure odds are bounded by Schwartz–Zippel and
      reported in the detail dict (finite prime-field coefficients only);
    - "skip": leave associativity unchecked (associative_ok = None).
    """
    one = Fraction(1) if F.ring == RATIONALS else F.ring.one()
    cf = F.coeffs
    x_axis = {key: c for key, c in cf.items() if key[1] == 0}  # F(X, 0)
    y_axis = {key: c for key, c in cf.items() if key[0] == 0}  # F(0, Y)
    unit_fail = _first_difference(x_axis, {(1, 0): one}) or _first_difference(
        y_axis, {(0, 1): one}
    )
    comm_fail = _first_difference(cf, {(j, i): c for (i, j), c in cf.items()})
    report = GroupLawReport(
        unit_ok=unit_fail is None,
        commutative_ok=comm_fail is None,
        associative_ok=None,
        method=method,
    )
    if unit_fail:
        report.first_failure = ("unit", unit_fail)
    elif comm_fail:
        report.first_failure = ("commutativity", comm_fail)
    if method == "auto":
        if F.D <= EXACT_ASSOC_MAX_D:
            method = "exact"
        elif isinstance(F.ring, FqField):
            method = "dense" if F.D <= DENSE_ASSOC_MAX_D else "sampled"
        else:
            raise ValueError(
                f"no automatic associativity strategy for rationals at D={F.D}; "
                "pass method explicitly or reduce mod p first"
            )
    report.method = method
    if method == "skip":
        return report
    if method == "exact":
        ok, fail = _assoc_exact(F)
    elif method == "dense":
        from . import fastcheck

        ok, fail = fastcheck.dense_associativity(F)
    elif method == "sampled":
        from . import fastcheck

        ok, fail, detail = fastcheck.sampled_associativity(F, seed=seed, reps=reps)
        report.detail["associativity"] = detail
    else:
        raise ValueError(f"unknown method {method!r}")
    report.associative_ok = ok
    if not ok and report.first_failure is None:
        report.first_failure = ("associativity", fail)
    return report
