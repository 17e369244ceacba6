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

Every bivariate series here is a dict {(i, j): c} that drops total degree
above D.  The sparse product `_mul` is left only to the exact associativity
check, which multiplies powers of the law.  Everything else is assembled
from one table of the powers f^n of the logarithm.  f has at most
log_q D + 1 terms, so `_log_powers` reads each power straight off f by the
power recurrence and returns the table as integer rows {e: c} in ascending
e over one denominator for the whole table: the inverse, the brackets and
the law read those rows as they are, so the hot loops run on plain integers
for any rational input, and `_sum_rows` is their one row-summing loop: it
sums each bracket, each B_k of the law and each x^i row of the law, and
makes no product below its floor.  The law F = g(f(x) + f(y)) is symmetric,
so only its half-plane i <= j is summed, the rows x^i with i <= D // 2 from
y^i up, and each value is mirrored to (j, i).  A module keeps the table of
the powers f^(1+k·s) that can meet a nonzero g_e, solves g from it as a
triangular system, and sums every bracket from it; the law, which needs
every power, reuses that table when s = 1 and builds its own full table
otherwise.  All character-zero staging is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import exact_log
from .errors import IntegralityError, ParameterError
from .fq import FqField, fq_field
from .record import Record

RATIONALS = "Q"

# largest truncation whose associativity "auto" checks exactly, on the law
# itself; above it the law is reduced mod p for the finite-field engines
EXACT_ASSOC_MAX_D = 32
# largest truncation whose simplex x + y + z <= D the dense engine builds
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
    """a·b for series {(i, j): c}, dropping terms of total degree above D.

    b's terms are sorted by total degree, and each term of a stops at the
    first one above D − (its own degree), so a pair whose product is dropped
    is never visited: past sorting b, the cost is one step per pair that
    reaches the output and one per term of a.  Coefficients only need + and
    *, so ints, Fractions and FqElems all go through here."""
    terms = sorted((i + j, i, j, c) for (i, j), c in b.items())  # keys unique: c never compared
    out = {}
    for (i1, j1), c1 in a.items():
        room = D - i1 - j1
        for deg, i2, j2, c2 in terms:
            if deg > room:
                break
            key = (i1 + i2, j1 + j2)
            prod = c1 * c2
            if key in out:
                out[key] = out[key] + prod
            else:
                out[key] = prod
    return {k: v for k, v in out.items() if v}


def _log_step(b, q, D) -> int:
    """s = gcd(q^i − 1) over the i >= 1 with b_i != 0 and q^i <= D, or 0 if
    there is none.  Every exponent of f(T) = Σ b_i T^{q^i} is ≡ 1 mod s, and
    so is every exponent of its inverse g."""
    return math.gcd(*(q**i - 1 for i in range(1, len(b)) if b[i] and q**i <= D))


def _log_powers(b, q, D, first=0, step=1):
    """(table, den): the powers f^n = table[k]/den, n = first + k·step up to
    D, of f(T) = Σ b_i T^{q^i} (b_0 = 1) truncated at degree D; f^n is zero
    for every n > D.  Each row table[k] is {e: c}, integer numerators in
    ascending e with the zeros dropped, and den is one denominator for the
    whole table, the lcm of the powers' own lowest-terms denominators, so
    gcd(den, every numerator) = 1.  Exact for any rational b_i.

    Each power is read straight off f by the power recurrence (Euler;
    J.C.P. Miller; Knuth, TAOCP vol. 2, §4.7), not built from another power.
    Write f = T·(1 + u), u = Σ_{i>=1} β_i T^{w_i} with β_i = b_i and
    w_i = q^i − 1 over the nonzero b_i with q^i <= D.  Comparing
    derivatives in A·(A^n)' = n·A'·A^n, A = 1 + u, the coefficients h_k of
    A^n satisfy h_0 = 1 and

        k·h_k = Σ_i ((n + 1)·w_i − k)·β_i·h_{k−w_i},

    so a power costs one step per degree and term of u, whatever n is.
    Only the k divisible by s = gcd(w_i) occur.  The recurrence runs on the
    integers H_k = h_k·δ_k, where δ_0 = 1 and δ_k = lcm_i(den(β_i)·δ_{k−w_i})
    bounds the denominator of every degree-k monomial in the β_i, whatever
    n is.  Over d = lcm_i den(β_i) and the integers a_i = d·β_i,

        k·d·H_k = Σ_i ((n + 1)·w_i − k)·a_i·(δ_k/δ_{k−w_i})·H_{k−w_i},

    a division that must be exact: a remainder raises ArithmeticError.  The
    δ_k, the weights a_i·δ_k/δ_{k−w_i} and, for the lcm L of every δ_k, the
    multipliers L/δ_k are computed once per call; every row is the
    H_k·L/δ_k over L, and one gcd over the whole table brings it to den."""
    if b[0] != 1:
        raise ValueError("the logarithm must start with T")
    u = [(q**i - 1, Fraction(bi)) for i, bi in enumerate(b) if i and bi and q**i <= D]
    s = _log_step(b, q, D) or 1
    d = math.lcm(*(c.denominator for _, c in u))
    delta, rows = [1], [()]  # δ_{j·s}, and its (w/s, w, weight) for each w <= j·s
    for j in range(1, (D - first) // s + 1):
        terms = [(w // s, w, c) for w, c in u if w <= j * s]
        delta.append(math.lcm(*(c.denominator * delta[j - m] for m, _, c in terms)))
        rows.append(
            [(m, w, c.numerator * (d // c.denominator) * (delta[j] // delta[j - m]))
             for m, w, c in terms]
        )
    L = math.lcm(*delta)
    scale = [L // x for x in delta]
    table = []
    for n in range(first, D + 1, step):
        H, n1 = [1], n + 1
        for j in range(1, (D - n) // s + 1):
            k = j * s
            total = 0
            for m, w, c in rows[j]:
                total += (n1 * w - k) * c * H[j - m]
            h, rem = divmod(total, k * d)
            if rem:
                raise ArithmeticError(f"δ_{k} does not clear f^{n} at T^{n + k}")
            H.append(h)
        table.append({n + j * s: h * scale[j] for j, h in enumerate(H) if h})
    common = math.gcd(L, *(c for row in table for c in row.values()))
    return [{e: c // common for e, c in row.items()} for row in table], L // common


def _sum_rows(pairs, cap, floor=0) -> dict:
    """Σ c·row over the (c, row) pairs, for integer rows {e: v} in ascending
    e, keeping only floor <= e <= cap: no product is made outside."""
    acc = {}
    for c, row in pairs:
        for e, v in row.items():
            if e > cap:
                break
            if e >= floor:
                acc[e] = acc.get(e, 0) + c * v
    return acc


def _inverse_log(table, den, s) -> dict:
    """Compositional inverse g of f, solved from the rows f^(1+k·s) =
    table[k]/den that `_log_powers(b, q, D, first=1, step=s)` returns, as
    {e: g_e}.

    Only e ≡ 1 mod s can have g_e != 0, and f^e is T^e plus terms whose
    degrees are ≡ e mod s, so g(f(T)) = T read at T^d, d = 1 + k·s, is the
    triangular system g_d = −Σ_{j<k} g_{1+j·s}·[T^d] f^{1+j·s}.

    The solve runs on integers: each nonzero g_e is kept as an integer
    numerator over one running denominator G, widened (and every kept
    numerator rescaled) when a new g_e needs a factor it lacks, so each g_d
    is one integer sum over the rows and one Fraction over G·den; no
    denominator is assumed."""
    g, cs, rows, G = {}, [], [], 1  # each kept g_e is cs[n]/G, over rows[n]
    for k, row in enumerate(table):
        e = 1 + k * s
        total = sum(c * r[e] for c, r in zip(cs, rows) if e in r)
        ge = Fraction(-total, G * den) if k else Fraction(1)
        if not ge:
            continue
        g[e] = ge
        if G % ge.denominator:
            widen = ge.denominator // math.gcd(G, ge.denominator)
            cs = [c * widen for c in cs]
            G *= widen
        cs.append(ge.numerator * (G // ge.denominator))
        rows.append(row)
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
    return str(c) if isinstance(c, Fraction) else c.to_int()


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
        self._powers, self._den = _log_powers(
            self.log_coeffs, q, D, first=1, step=self._step
        )
        self.inv_coeffs = _inverse_log(self._powers, self._den, self._step)

    @property
    def field(self) -> FqField:
        """The residue field F_q, built on first use: finding its modulus is
        slow for a large q."""
        return fq_field(self.p, exact_log(self.q, self.p))

    @property
    def law(self) -> BivariateSeries:
        if self._law is None:
            self._law = _law_series(self)
        return self._law

    def bracket(self, a) -> UnivariateSeries:
        """[a](T) = f^{-1}(a·f(T)), cached in .brackets."""
        a = Fraction(a)
        if a not in self.brackets:
            self.brackets[a] = _bracket_series(
                self._powers, self._den, self._step, self.inv_coeffs, a, self.D
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


def _bracket_series(table, den, s, g, a, D) -> UnivariateSeries:
    """[a](T) = Σ_e g_e·a^e·f(T)^e, read off the module's rows
    f^e = table[k]/den, e = 1 + k·s: only those e can have g_e != 0.

    The weights g_e·a^e are brought to the lcm M of their denominators, and
    the rows are summed on integers over M·den, so no denominator is
    assumed."""
    a = Fraction(a)
    weights = [(g[e] * a**e, row) for e, row in zip(range(1, D + 1, s), table) if e in g]
    M = math.lcm(*(w.denominator for w, _ in weights))
    acc = _sum_rows(((w.numerator * (M // w.denominator), row) for w, row in weights), D)
    coeffs = {e: Fraction(v, M * den) for e, v in acc.items() if v}
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


def _law_series(module: FormalModule) -> BivariateSeries:
    """F(x, y) = g(f(x) + f(y)) = Σ_k f(x)^k·B_k(y), where
    B_k = Σ_l g_{k+l}·C(k+l, k)·f^l is truncated at degree D − k.

    One table of the powers f^k serves both axes.  When the module's step
    is s = 1 (every q = 2 module with v_1 != 0), its own rows f^1, f^2, ...
    are this table past f^0 = den/den and are reused; otherwise the full
    table is built here.  Its rows share the one denominator P, and g is
    brought to the lcm G of its own, so the whole sum runs on integers over
    P²·G.  That denominator is read off the actual table rather than assumed
    from a p-adic bound, so there is no scale for a remainder check to guard.

    F = g(f(x) + f(y)) is symmetric by construction, so only its half-plane
    i <= j is summed and each value is written at both (i, j) and (j, i):
    one `Fraction` per pair, and one assertion of the p-integrality that the
    functional-equation lemma promises.  The half-plane is the rows x^i,
    i <= D // 2, each from j = i up.  Row i, Σ_{k<=i} [T^i]f^k·B_k(y), is one
    `_sum_rows` call with floor i.  It reads B_k only at j >= i >= k, so
    each B_k is built only for k <= D // 2 and from j = k up, by one
    `_sum_rows` call with floor k."""
    p, D, g = module.p, module.D, module.inv_coeffs
    if module._step == 1:
        table, P = [{0: module._den}, *module._powers], module._den
    else:
        table, P = _log_powers(module.log_coeffs, module.q, D)
    G = math.lcm(*(c.denominator for c in g.values()))
    g_num = sorted((e, c.numerator * (G // c.denominator)) for e, c in g.items())
    half, B = D // 2, []
    for k in range(half + 1):
        terms = ((c * math.comb(e, k), table[e - k]) for e, c in g_num if e >= k)
        B.append(dict(sorted(_sum_rows(terms, D - k, k).items())))
    scale, raw = P * P * G, {}
    for i in range(half + 1):
        row = _sum_rows(((fk[i], bk) for fk, bk in zip(table[: i + 1], B) if i in fk), D - i, i)
        for j, v in row.items():  # BivariateSeries drops the zeros
            c = raw[(i, j)] = raw[(j, i)] = Fraction(v, scale)
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


class GroupLawReport(Record):
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
    they differ at exactly the same keys.  An F_q law is summed on its own
    coefficients, unweighted.  Exact in any ring.  The cost is the top − 1
    products F^n = F^(n−1)·F, each visiting only the pairs that stay within
    degree D, plus, for each term (i, j) of F, one pass over F^i and F^j
    sorted by degree that stops at the first term past D.  For the law of
    `atypical_module(3, 3, (1, 2, 1), D=27)` the products visit 59,746 pairs
    of the 619,344 that all pairs would be, and the side passes visit
    24,186 (power term, law term) pairs and keep 23,848 of them, where
    visiting every term took 56,244; the sort costs less than the skipped
    visits save (the check ran about 5% faster, on one pinned CPU)."""
    D = F.D
    top = max((max(key) for key in F.coeffs), default=0)
    if F.ring == RATIONALS:
        L = math.lcm(*(c.denominator for c in F.coeffs.values()))
        num = {key: c.numerator * (L // c.denominator) for key, c in F.coeffs.items()}
        weight = [L ** (top - n) for n in range(top + 1)]
        sides = [(i, j, c * weight[i], c * weight[j]) for (i, j), c in num.items()]
        one = 1
    else:
        num, one = F.coeffs, F.ring.one()
        sides = [(i, j, c, c) for (i, j), c in num.items()]
    powers = [{(0, 0): one}, num]
    while len(powers) <= top:
        powers.append(_mul(powers[-1], num, D))
    # each power sorted by total degree (keys unique: v never compared)
    powers = [sorted((a + bb, a, bb, v) for (a, bb), v in pw.items()) for pw in powers]
    lhs, rhs = {}, {}
    for i, j, ci, cj in sides:
        for deg, a, bb, v in powers[i]:
            if deg > D - j:
                break
            key = (a, bb, j)
            prod = ci * v
            lhs[key] = lhs[key] + prod if key in lhs else prod
        for deg, a, bb, v in powers[j]:
            if deg > D - i:
                break
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
    - "dense": every cell of the simplex x + y + z <= D, in residues mod p,
      the powers of the law built with certified-exact FFT convolutions and
      the Frobenius substitution (prime-subfield coefficients only);
    - "sampled": substitute (a·t, b·t, c·t) with a, b, c random in a large
      extension field and compare the two compositions as univariate series
      in t, every side of every line one chain of a single batched Horner
      walk — each total-degree slice of the defect is a homogeneous
      polynomial, so the failure odds are bounded by Schwartz–Zippel and
      reported in the detail dict (finite prime-field coefficients only);
    - "skip": leave associativity unchecked (associative_ok = None).

    An unknown method or reps < 1 (which would let "sampled" pass without
    drawing a point) raises ParameterError.
    """
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    one = Fraction(1) if F.ring == RATIONALS else F.ring.one()
    cf = F.coeffs
    x_axis = {key: c for key, c in cf.items() if key[1] == 0}  # F(X, 0)
    y_axis = {key: c for key, c in cf.items() if key[0] == 0}  # F(0, Y)
    unit_fail = _first_difference(x_axis, {(1, 0): one}) or _first_difference(
        y_axis, {(0, 1): one}
    )
    comm_fail = _first_difference(cf, {(j, i): c for (i, j), c in cf.items()})
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
    detail = {}
    if method == "skip":
        ok = fail = None
    elif method == "exact":
        ok, fail = _assoc_exact(F)
    elif method == "dense":
        from . import fastcheck

        ok, fail = fastcheck.dense_associativity(F)
    elif method == "sampled":
        from . import fastcheck

        ok, fail, detail["associativity"] = fastcheck.sampled_associativity(
            F, seed=seed, reps=reps
        )
    else:
        raise ParameterError(f"unknown method {method!r}")
    if unit_fail:
        first_failure = ("unit", unit_fail)
    elif comm_fail:
        first_failure = ("commutativity", comm_fail)
    elif ok is False:
        first_failure = ("associativity", fail)
    else:
        first_failure = None
    return GroupLawReport(
        unit_fail is None, comm_fail is None, ok, method, first_failure, detail
    )
