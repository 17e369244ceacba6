"""Vectorized associativity checks for group laws over the prime field.

Both engines take an F_q law with p < 2^16 whose coefficients lie in the
prime subfield F_p (every law reduced from a p-integral one does) and raise
ValueError on any other; method="exact" answers those.  `_residues` makes
those checks once for both.  The one floating-point product is `_fft_mul`,
an FFT convolution of reduced residues, so every true value is a small
integer far below 2^53; its certificate is `_rint_exact`, which rounds the
inverse transform and raises ArithmeticError unless every value was within
0.01 of an integer.  That observed residual, <= 0.01, is what is checked;
nothing bounds the true error in advance, so a wrong integer that lands
within 0.01 of a computed value would pass.  The largest residual measured
on a random dense law at p = 65521, D = 200, the edge of the engines'
domain, was 0.0098; at p = 3, D = 64 it was 9·10^-13.

- dense_associativity: the powers F^n, for the degrees n that occur in the
  law's support only, as (D+1)×(D+1) planes of residues mod p, each the
  previous one times F^gap by one FFT product, and the associator
  F(F(x,y),z) − F(x,F(y,z)) on the full (D+1)^3 coefficient grid.  Certain,
  but memory-bound; guarded to moderate truncations.

- sampled_associativity: substitutes (a·t, b·t, c·t) for random a, b, c in
  a large extension of F_p and compares the two compositions as univariate
  series in t.  Each coefficient of t^e in the difference is a homogeneous
  form of degree e evaluated at (a, b, c), so by Schwartz–Zippel a nonzero
  slice survives a random point with probability <= e/p^r; the exact bound
  for the run is reported in the detail dict.  Both sides run on the law's
  t^s grading, s = gcd(i + j − 1) over its support: every Horner
  accumulator is t^off·A(t^s), so the series hold D//s + 1 places instead
  of D + 1 coefficients; a law with no grading (s = 1) runs on the plain
  series in t.  Horner steps only between the outer degrees that occur,
  multiplying by u^gap, so a side costs about one FFT product per occurring
  degree, not one per degree.

Both engines build the gap powers by halving (`_halving_powers`) and keep
them for one call only.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .formal import DENSE_ASSOC_MAX_D
from .fq import FqField, fq_field

# above it int64 residue products can wrap and FFT values pass 2^53, where
# `_rint_exact` sees every float as an integer
_MAX_P = 1 << 16


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (keeps numpy FFTs off slow paths)."""
    k = max(n, 1)
    while True:
        rest = k
        for f in (2, 3, 5):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return k
        k += 1


def _reduction_rows(field: FqField) -> np.ndarray:
    """Row r = coordinates of theta^(m+r) on the power basis, r = 0..m-2,
    for theta = x, the field's generator, by the field's own multiplication."""
    m, theta = field.m, field.from_int(field.p)
    powers = [field.one()]
    for _ in range(2 * m - 2):
        powers.append(powers[-1] * theta)
    return np.array([c.coeffs for c in powers[m:]], dtype=np.int64).reshape(m - 1, m)


def _residues(F, engine: str):
    """(p, [(i, j, c)]) for the terms of F sorted by key, c the residue in
    F_p, after checking that p < _MAX_P and every coefficient lies in F_p."""
    field = F.ring
    if not isinstance(field, FqField):
        raise ValueError(f"{engine} check needs finite-field coefficients")
    if field.p >= _MAX_P:
        raise ValueError(f'{engine} check needs p < {_MAX_P} (use method="exact")')
    terms = []
    for (i, j), c in sorted(F.coeffs.items()):
        if any(c.coeffs[1:]):
            raise ValueError(
                f"{engine} check needs prime-subfield coefficients; ({i},{j}) is not"
                ' (use method="exact")'
            )
        terms.append((i, j, c.coeffs[0]))
    return field.p, terms


def _rint_exact(raw: np.ndarray) -> np.ndarray:
    """Round an inverse FFT to the integers it approximates; raise
    ArithmeticError if any value was more than 0.01 from one."""
    out = np.rint(raw)
    err = np.max(np.abs(raw - out)) if out.size else 0.0
    if err > 0.01:
        raise ArithmeticError(f"FFT convolution left residue {err}; values too large")
    return out.astype(np.int64)


def _fft_mul(a, fb, shape, rows, cols):
    """a·b cropped to rows × cols, where fb is b's transform at `shape`: the
    one floating-point product, certified by `_rint_exact`."""
    return _rint_exact(np.fft.irfft2(np.fft.rfft2(a, shape) * fb, shape)[:rows, :cols])


def _reduce_ext(C, R, p):
    """Fold the rows C of 2r − 1 coefficients into the power basis of
    F_{p^r}, by the rows R of `_reduction_rows`, mod p."""
    r = R.shape[1]
    return (C[:, :r] + C[:, r:] @ R) % p


def _halving_powers(x, mul, shape):
    """Memoised powers X^g, g >= 1, and their transforms at `shape`, as the
    functions (power, transform_of).  X^g is built as X^⌈g/2⌉·X^⌊g/2⌋ by
    `mul(X^⌈g/2⌉, transform_of(⌊g/2⌋))`, so each power costs one product
    and each power used as a multiplier one forward transform, both at most
    once."""
    powers, transforms = {1: x}, {}

    def transform_of(g):
        if g not in transforms:
            transforms[g] = np.fft.rfft2(power(g), shape)
        return transforms[g]

    def power(g):
        if g not in powers:
            powers[g] = mul(power((g + 1) // 2), transform_of(g // 2))
        return powers[g]

    return power, transform_of


# ---------------------------------------------------------------------------
# dense grid


def dense_associativity(F):
    """Compare F(F(x,y),z) and F(x,F(y,z)) cell by cell on the full grid.

    The associator needs F^n only for the degrees n that occur as an i or a
    j of the law's support.  Walking those upwards, each F^n is the previous
    one times F^gap, and the gap powers are built by halving
    (`_halving_powers`), so the plane products number the occurring degrees
    plus O(log gap) per distinct gap, not the largest degree: 26 instead of
    55 at (2, 4, 64), where 21 of the degrees 1..56 occur.  When every
    degree occurs it is one product per degree, as before: (2, 2, 64) has
    61 of its 62 and takes 60.

    Returns (ok, first_failing_monomial)."""
    p, terms = _residues(F, "dense")
    D = F.D
    if D > DENSE_ASSOC_MAX_D:
        raise ValueError(f"dense grid at D={D} would not fit; use the sampled check")
    if not terms:
        return True, None
    base = np.zeros((D + 1, D + 1), dtype=np.int64)
    for i, j, c in terms:
        base[i, j] = c
    shape = (_fast_len(2 * D + 1),) * 2
    x, y = np.indices((D + 1, D + 1))
    degree = x + y
    beyond = degree > D

    def mul(a, fb):  # mod p, truncated at total degree D
        out = _fft_mul(a, fb, shape, D + 1, D + 1) % p
        out[beyond] = 0
        return out

    gap_power, gap_transform = _halving_powers(base, mul, shape)
    powers = {0: np.zeros_like(base)}
    powers[0][0, 0] = 1
    prev = 0
    for n in sorted({n for i, j, _ in terms for n in (i, j) if n}):
        powers[n] = gap_power(n) if not prev else mul(powers[prev], gap_transform(n - prev))
        prev = n
    # the associator F(F(x,y),z) - F(x,F(y,z)) on the (x, y, z) exponent grid
    W = np.zeros((D + 1, D + 1, D + 1), dtype=np.int64)
    for i, j, c in terms:
        W[:, :, j] += c * powers[i]
        W[i] -= c * powers[j]
    W %= p
    for a in range(D + 1):  # the simplex x + y + z <= D, one x-plane at a time
        W[a][degree > D - a] = 0
    cells = np.argwhere(W)
    if not len(cells):
        return True, None
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0], cells.sum(axis=1)))
    return False, tuple(cells[order[0]].tolist())


# ---------------------------------------------------------------------------
# sampled scalar lines


def _vec_mul(A, B, R, p):
    """Batched product in F_{p^r}: A is (n, r), B is (n, r) or (r,)."""
    r = R.shape[1]
    if B.ndim == 1:
        B = np.broadcast_to(B, A.shape)
    n = A.shape[0]
    C = np.zeros((n, 2 * r - 1), dtype=np.int64)
    for k in range(r):
        col = A[:, k]
        if not col.any():
            continue
        C[:, k : k + r] += col[:, None] * B
    return _reduce_ext(C, R, p)


def _pow_table(x, n, R, p):
    """x^0..x^n, doubling the filled rows with each batched product."""
    r = R.shape[1]
    out = np.zeros((n + 1, r), dtype=np.int64)
    out[0, 0] = 1
    m = 1  # rows 0..m-1 are filled
    while m <= n:
        k = min(m, n + 1 - m)
        xm = _vec_mul(out[m - 1 : m], x, R, p)[0]
        out[m : m + k] = _vec_mul(out[:k], xm, R, p)
        m += k
    return out


def _line_value(support, pow_a, pow_b, L, R, p):
    """F(a·t, b·t) = t^e0·U(t^s) as the (L, r) series U over F_{p^r}."""
    I, J, V, places = support
    terms = _vec_mul(pow_a[I], pow_b[J], R, p) * V[:, None]
    u = np.zeros((L, R.shape[1]), dtype=np.int64)
    np.add.at(u, places, terms)
    return u % p


def _horner_side(by_outer, u, pow_inner, grading, mul, p, shape):
    """Σ_outer u^outer · Σ_inner c·(x·t)^inner = t^off·A(t^s), as the
    (D//s + 1, r) series A of places.

    Horner runs down the outer degrees that occur, and from one to the next,
    o to o' = o − g (the last step ends at 0), multiplies by u^g.  With
    u = t^e0·U(t^s), the accumulator after outer degree o is t^off(o)·A(t^s)
    with off(o) = (1 − o) mod s, so the product t^(off(o) + g·e0)·(A·U^g)(t^s)
    is t^off(o')·A'(t^s) with A' = A·U^g moved up
    k = (off(o) + g·e0 − off(o')) / s places.  The U^g come from
    `_halving_powers`, each transform computed once per call.  So a side
    costs one FFT product per occurring outer degree plus O(log g) per
    distinct gap, not one per degree: 55 instead of 171 at (3, 9, 243), whose
    law has 48 outer degrees up to 171.  `mul` is the engine's product in
    F_{p^r}, truncated at L = D//s + 1 places, which is exact, since a place
    only feeds higher ones."""
    s, e0 = grading
    _, gap_transform = _halving_powers(u, mul, shape)
    acc = np.zeros_like(u)
    outers = sorted(by_outer, reverse=True)
    for outer, nxt in zip(outers, outers[1:] + [0]):
        J, V, places = by_outer[outer]
        np.add.at(acc, places, pow_inner[J] * V[:, None])
        acc %= p
        g = outer - nxt
        if g:
            acc = mul(acc, gap_transform(g))
            k = ((1 - outer) % s + g * e0 - (1 - nxt) % s) // s
            if k:
                acc = np.concatenate((np.zeros_like(acc[:k]), acc[:-k]))
    return acc


def sampled_associativity(F, seed=0, reps=2):
    """Probabilistic associativity check on random scalar lines.

    Needs prime-subfield coefficients (every law built here reduces from
    rational integrality, so that is the common case).  Returns
    (ok, first_failing_t_degree_or_None, detail)."""
    p, terms = _residues(F, "sampled")
    D = F.D
    r = 1  # extension degree: the least with p^r >= 2^26
    while p**r < 1 << 26:
        r += 1
    per_slice = (D / p**r) ** reps
    detail = {
        "strategy": "sampled",
        "extension_degree": r,
        "reps": reps,
        "seed": seed,
        "false_pass_bound": f"{(D + 1) * per_slice:.3e}",
    }
    if not terms:
        return True, None, detail
    # the t^s grading: every i + j in the support is ≡ 1 mod s, so on a line
    # u = F(a·t, b·t) = t^e0·U(t^s), and each side is kept as D//s + 1 places
    # of t^s; s = 1 (e0 = 0) is the plain series in t
    s = math.gcd(*(i + j - 1 for i, j, _ in terms)) or 1
    e0 = 1 % s
    L = D // s + 1
    grading = (s, e0)
    R = _reduction_rows(fq_field(p, r))
    width = 2 * r - 1
    shape = (_fast_len(2 * L - 1), _fast_len(width))

    def mul(a, fb):  # in F_{p^r}, truncated at L places
        return _reduce_ext(_fft_mul(a, fb, shape, L, width), R, p)

    I, J, V = np.array(terms, dtype=np.int64).T
    support = (I, J, V, (I + J - e0) // s)
    top = int(max(I.max(), J.max()))  # the largest power of a, b or c read

    def rows(outer, inner):
        # outer degree o: its inner degrees are ≡ 1 − o mod s
        by_outer = {}
        for o in set(outer.tolist()):
            mask = outer == o
            by_outer[o] = (inner[mask], V[mask], (inner[mask] - (1 - o) % s) // s)
        return by_outer

    by_i, by_j = rows(I, J), rows(J, I)
    rng = random.Random(seed)

    def sample_point():
        while True:
            vec = [rng.randrange(p) for _ in range(r)]
            if any(vec):
                return np.array(vec, dtype=np.int64)

    first_bad = None
    for _ in range(reps):
        av, bv, cv = sample_point(), sample_point(), sample_point()
        pow_a = _pow_table(av, top, R, p)
        pow_b = _pow_table(bv, top, R, p)
        pow_c = _pow_table(cv, top, R, p)
        u = _line_value(support, pow_a, pow_b, L, R, p)
        w1 = _horner_side(by_i, u, pow_c, grading, mul, p, shape)
        v = _line_value(support, pow_b, pow_c, L, R, p)
        w2 = _horner_side(by_j, v, pow_a, grading, mul, p, shape)
        # both sides end at outer degree 0, at offset e0: place k is t^(e0 + k·s)
        bad = e0 + s * np.flatnonzero(np.any(w1 != w2, axis=1))
        bad = bad[bad <= D]
        if bad.size and (first_bad is None or bad[0] < first_bad):
            first_bad = int(bad[0])
    return first_bad is None, first_bad, detail
