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
  law's support only, as residues mod p over the triangle a + b <= D.  A
  degree n = p·m whose F^m is built takes F^m(x^p, y^p) with no product,
  which is exact because the coefficients lie in F_p; each other F^n is
  the previous one times F^gap by one FFT product: 28 products at
  (2, 2, 64), 9 at (2, 4, 64).  The two sides F(F(x,y),z) and
  F(x,F(y,z)) are compared cell by cell on the simplex x + y + z <= D, as
  ragged arrays of contiguous rows.  Certain; guarded to moderate
  truncations.

- sampled_associativity: substitutes (a·t, b·t, c·t) for random a, b, c in
  a large extension of F_p and compares the two compositions as univariate
  series in t.  Each coefficient of t^e in the difference is a homogeneous
  form of degree e evaluated at (a, b, c), so by Schwartz–Zippel a nonzero
  slice survives a random point with probability <= e/p^r; the exact bound
  for the run is reported in the detail dict.  Every side of every line is
  one chain of a single batched Horner walk: F(F(a,b),c) is the left side
  of F at (a, b, c), and F(a,F(b,c)) the left side of the transposed law
  F(y, x) at (c, b, a), so the two sides differ only in data, and each FFT
  product, power table and field product serves all 2·reps chains at once.
  The chains run on the law's t^s grading, s = gcd(i + j − 1) over its
  support: every Horner accumulator is t^off·A(t^s), so the series hold
  D//s + 1 places instead of D + 1 coefficients; a law with no grading
  (s = 1) runs on the plain series in t.  Horner steps only between the
  outer degrees that occur in some chain, multiplying by u^gap, so the walk
  costs about one batched FFT product per occurring degree, whatever reps
  is: 55 at (3, 9, 243).  Memory grows with the 2·reps chains.

Both engines build the gap powers by halving (`_halving_powers`) and keep
them for one call only.
"""

from __future__ import annotations

import itertools
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
    """a·b cropped to rows × cols on the last two axes, broadcast over the
    leading ones, where fb is b's transform at `shape`: the one
    floating-point product, certified by `_rint_exact`."""
    return _rint_exact(np.fft.irfft2(np.fft.rfft2(a, shape) * fb, shape)[..., :rows, :cols])


def _reduce_ext(C, R, p):
    """Fold the 2r − 1 coefficients along C's last axis into the power basis
    of F_{p^r}, by the rows R of `_reduction_rows`, mod p."""
    r = R.shape[1]
    return (C[..., :r] + C[..., r:] @ R) % p


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
# dense simplex


def _tri(k):
    """The number of cells (a, b) with a + b < k."""
    return k * (k + 1) // 2


def _triangle(D):
    """The cells (a, b) with a + b <= D in degree-major order, as the arrays
    (A, B): cell (a, d − a) sits at d(d + 1)/2 + a."""
    deg = np.repeat(np.arange(D + 1), np.arange(1, D + 2))
    A = np.arange(_tri(D + 1)) - _tri(deg)
    return A, deg - A


def _powers(p, terms, D, degrees):
    """{n: F^n mod p, truncated at total degree D} for n = 0 and each of
    `degrees`, each a vector over `_triangle(D)`, for F = Σ c·X^i·Y^j over
    `terms` with every c in F_p.

    Walking the degrees upwards, n = p·m with F^m built is
    F^m(x^p, y^p), truncated at D, with no product: in characteristic p,
    (A + B)^p = A^p + B^p and c^p = c, so (Σ c·x^a·y^b)^p is
    Σ c·x^(pa)·y^(pb); the terms the truncation of F^m dropped, all above
    degree D, land above p·D.  Every other F^n is the previous one times
    F^gap by one FFT product, the gap powers built by halving
    (`_halving_powers`)."""
    A, B = _triangle(D)
    base = np.zeros((D + 1, D + 1), dtype=np.int64)
    for i, j, c in terms:
        base[i, j] = c
    shape = (_fast_len(2 * D + 1),) * 2
    beyond = np.add.outer(np.arange(D + 1), np.arange(D + 1)) > D
    low = _tri(D // p + 1)  # the cells of degree <= D // p

    def mul(a, fb):  # mod p, truncated at total degree D
        out = _fft_mul(a, fb, shape, D + 1, D + 1) % p
        out[beyond] = 0
        return out

    gap_power, gap_transform = _halving_powers(base, mul, shape)
    vecs = {0: (np.arange(_tri(D + 1)) == 0).astype(np.int64)}
    prev = 0
    for n in sorted(degrees):
        if n % p == 0 and n // p in vecs:
            plane = np.zeros_like(base)
            plane[p * A[:low], p * B[:low]] = vecs[n // p][:low]
        elif prev:
            plane = mul(plane, gap_transform(n - prev))
        else:
            plane = gap_power(n)
        vecs[n] = plane[A, B]
        prev = n
    return vecs


def dense_associativity(F):
    """Compare F(F(x,y),z) and F(x,F(y,z)) cell by cell on the simplex
    x + y + z <= D.

    The associator needs F^n only for the degrees n that occur as an i or a
    j of the law's support, and `_powers` builds those: n = p·m with m
    among them by the Frobenius substitution F^m(x^p, y^p), every other one
    by an FFT product.  So the plane products number the other occurring
    degrees, plus O(log gap) per distinct gap: 28 at (2, 2, 64), where 60 of
    the degrees 1..62 occur and the even ones come from Frobenius, and 9 at
    (2, 4, 64), where 21 of 1..56 occur.

    Each F^n is a degree-major vector over the triangle a + b <= D, so its
    cells of degree d..e are one contiguous slice.  A side is a ragged
    simplex array: F(F(x,y),z) has one row per z, holding the cells (x, y)
    with x + y <= D − z, and a term c·X^i·Y^j of F adds c·F^i to row j,
    from degree i·v (v the law's lowest degree) to D − j; F(x,F(y,z)) has
    one row per x, cells (y, z), and adds c·F^j to row i.  A gather, one
    row at a time, puts the second side in the first one's order.

    Returns (ok, first_failing_monomial), the first in (total degree, key)
    order."""
    p, terms = _residues(F, "dense")
    D = F.D
    if D > DENSE_ASSOC_MAX_D:
        raise ValueError(f"dense grid at D={D} would not fit; use the sampled check")
    if not terms:
        return True, None
    vecs = _powers(p, terms, D, {n for i, j, _ in terms for n in (i, j) if n})
    A, B = _triangle(D)
    rows = [_tri(D + 1 - r) for r in range(D + 1)]  # row r: cells of degree <= D − r
    off = list(itertools.accumulate(rows, initial=0))
    v = min(i + j for i, j, _ in terms)  # F^n has no term below degree n·v
    lows = {n: _tri(n * v) for n in vecs}
    W = np.zeros(off[-1], dtype=np.int64)  # F(F(x,y),z): row z, cells (x, y)
    V = np.zeros_like(W)  # F(x,F(y,z)): row x, cells (y, z)
    for i, j, c in terms:
        for side, row, n in ((W, j, i), (V, i, j)):
            lo, hi = lows[n], rows[row]
            side[off[row] + lo : off[row] + hi] += c * vecs[n][lo:hi]
    row_of = np.take(off, A)
    for z, r in enumerate(rows):  # V holds cell (x, y, z) in row x, at cell (y, z)
        W[off[z] : off[z + 1]] -= V[row_of[:r] + _tri(B[:r] + z) + B[:r]]
    W %= p
    bad = np.flatnonzero(W)
    if not bad.size:
        return True, None
    Z = np.searchsorted(off, bad, side="right") - 1
    cell = bad - np.take(off, Z)
    X, Y = A[cell], B[cell]
    k = np.lexsort((Z, Y, X, X + Y + Z))[0]
    return False, (int(X[k]), int(Y[k]), int(Z[k]))


# ---------------------------------------------------------------------------
# sampled scalar lines


def _vec_mul(A, B, R, p):
    """Products in F_{p^r} of the elements along the last axes of A and B,
    broadcast over their leading axes."""
    r = R.shape[1]
    C = np.zeros(np.broadcast_shapes(A.shape, B.shape)[:-1] + (2 * r - 1,), dtype=np.int64)
    for k in range(r):
        col = A[..., k, None]
        if not col.any():
            continue
        C[..., k : k + r] += col * B
    return _reduce_ext(C, R, p)


def _pow_table(x, n, R, p):
    """x^0..x^n for each point of the (P, r) array x, as a (P, n + 1, r)
    array, doubling the filled powers with each batched product."""
    out = np.zeros((x.shape[0], n + 1, x.shape[1]), dtype=np.int64)
    out[:, 0, 0] = 1
    m = 1  # powers 0..m-1 are filled
    while m <= n:
        k = min(m, n + 1 - m)
        xm = _vec_mul(out[:, m - 1], x, R, p)
        out[:, m : m + k] = _vec_mul(out[:, :k], xm[:, None], R, p)
        m += k
    return out


def _line_values(outer, inner, V, pow_x, pow_y, places, L, R, p):
    """u = F(x·t, y·t) = t^e0·U(t^s) on each chain, as the (C, L, r) series
    U over F_{p^r}: chain c reads the term V·X^outer·Y^inner of its law at
    its points x and y, whose powers are pow_x[c] and pow_y[c]."""
    chain = np.arange(len(outer))[:, None]
    terms = _vec_mul(pow_x[chain, outer], pow_y[chain, inner], R, p) * V[:, None]
    u = np.zeros((len(outer), L, R.shape[1]), dtype=np.int64)
    np.add.at(u, (chain, places), terms)
    return u % p


def _horner(outer, inner, V, u, pow_z, grading, mul, p, shape):
    """Σ_outer u^outer · Σ_inner V·(z·t)^inner = t^off·A(t^s) on each chain,
    as the (C, D//s + 1, r) series A of places: chain c's law has the terms
    V·X^outer[c]·Y^inner[c], u[c] is its line value and pow_z[c] holds the
    powers of its point z.

    Horner runs down the outer degrees that occur in any chain, and from one
    to the next, o to o' = o − g (the last step ends at 0), multiplies every
    chain by its u^g; a chain with no term at o adds nothing there.  With
    u = t^e0·U(t^s), the accumulator after outer degree o is t^off(o)·A(t^s)
    with off(o) = (1 − o) mod s on every chain, so the product
    t^(off(o) + g·e0)·(A·U^g)(t^s) is t^off(o')·A'(t^s) with A' = A·U^g moved
    up k = (off(o) + g·e0 − off(o')) / s places.  The U^g of all chains come
    from one `_halving_powers`, each transform computed once per call.  So a
    walk costs one batched FFT product per occurring outer degree plus
    O(log g) per distinct gap, not one per degree and chain: 55 instead of
    4·171 at (3, 9, 243), whose law has 48 outer degrees up to 171, for the
    four chains of two reps.  `mul` is the engine's product in F_{p^r},
    truncated at L = D//s + 1 places, which is exact, since a place only
    feeds higher ones."""
    s, e0 = grading
    _, gap_transform = _halving_powers(u, mul, shape)
    chain = np.arange(len(outer))[:, None]
    places = (inner - (1 - outer) % s) // s  # a term's place in its chain
    values = pow_z[chain, inner] * V[:, None]
    outers = sorted(set(outer.ravel().tolist()), reverse=True)  # of any chain
    acc = np.zeros_like(u)
    for o, nxt in zip(outers, [*outers[1:], 0]):
        rows = np.nonzero(outer == o)  # (chain, term) of every term at o
        np.add.at(acc, (rows[0], places[rows]), values[rows])
        acc %= p
        g = o - nxt
        if g:
            acc = mul(acc, gap_transform(g))
            k = ((1 - o) % s + g * e0 - (1 - nxt) % s) // s
            if k:
                acc = np.concatenate((np.zeros_like(acc[:, :k]), acc[:, :-k]), axis=1)
    return acc


def sampled_associativity(F, seed=0, reps=2):
    """Probabilistic associativity check on random scalar lines.

    All lines run as one batch of 2·reps chains, so memory grows with reps:
    each chain holds its line value, its accumulator and the power tables
    and transforms of its gap powers.  Needs prime-subfield coefficients
    (every law built here reduces from rational integrality, so that is the
    common case).  Returns (ok, first_failing_t_degree_or_None, detail)."""
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
    R = _reduction_rows(fq_field(p, r))
    width = 2 * r - 1
    shape = (_fast_len(2 * L - 1), _fast_len(width))

    def mul(a, fb):  # in F_{p^r}, truncated at L places
        return _reduce_ext(_fft_mul(a, fb, shape, L, width), R, p)

    I, J, V = np.array(terms, dtype=np.int64).T
    top = int(max(I.max(), J.max()))  # the largest power of a, b or c read
    rng = random.Random(seed)

    def sample_point():
        while True:
            vec = [rng.randrange(p) for _ in range(r)]
            if any(vec):
                return vec

    # rep k draws a, b, c, the points 3k, 3k + 1, 3k + 2
    points = np.array([sample_point() for _ in range(3 * reps)], dtype=np.int64)
    pows = _pow_table(points, top, R, p)
    # chain 2k is F(F(a,b),c), the left side of F at (a, b, c); chain 2k + 1
    # is F(a,F(b,c)), the left side of the transposed law F(y, x) at (c, b, a)
    x, y, z = (3 * np.arange(reps)[:, None, None] + [[0, 1, 2], [2, 1, 0]]).reshape(-1, 3).T
    outer, inner = np.array([I, J] * reps), np.array([J, I] * reps)
    u = _line_values(outer, inner, V, pows[x], pows[y], (I + J - e0) // s, L, R, p)
    w = _horner(outer, inner, V, u, pows[z], (s, e0), mul, p, shape)
    # both sides end at outer degree 0, at offset e0: place k is t^(e0 + k·s)
    bad = e0 + s * np.flatnonzero(np.any(w[0::2] != w[1::2], axis=(0, 2)))
    bad = bad[bad <= D]
    return not bad.size, int(bad[0]) if bad.size else None, detail
