"""Reference implementations kept only to test the library against.

Each is the straightforward version of a path the library now runs on
integers, in one walk or with fewer products:

- `layer_break_fraction`, `tower_upper_break_fraction`: the closed forms
  evaluated in `Fraction` arithmetic term by term;
- `LayerChain` and `verify_tuple_fraction`: the verify chain with every
  break a `Fraction`, phi and psi applied layer map by layer map;
- `compose_bisect`: Herbrand composition through the inverse of the inner
  map, evaluating the composite at each candidate point by bisection;
- `render_svg_fraction`: the SVG renderer with every coordinate a
  `Fraction`, rounded by `round`;
- `dense_associativity_cube`: the dense associativity check on the full
  (D+1)^3 grid, every power of the law an FFT product;
- `law_series_full`: the formal law summed on the whole plane i + j <= D,
  every B_k at every degree and one `Fraction` per coefficient;
- `sampled_associativity_lines`: the sampled associativity check one random
  line and one side at a time, each side its own Horner walk;
- `build_polygon_chain`: the lower hull by a monotone chain over every
  abscissa, with no running-minima scan in front of it.

The verify oracle reads `layer_break`, `tower_upper_break` and
`linear_coefficient_valuation` through the `ramtower.towers` module at call
time, so a test that monkeypatches one of them changes both sides alike.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from ramtower import towers
from ramtower.arith import closed_form_break
from ramtower.fastcheck import (
    _fast_len,
    _fft_mul,
    _halving_powers,
    _reduce_ext,
    _reduction_rows,
    _residues,
    _vec_mul,
)
from ramtower.formal import RATIONALS, BivariateSeries, _log_powers
from ramtower.herbrand import PiecewiseLinear
from ramtower.fq import fq_field
from ramtower.polygon import NewtonPolygon, format_rat


def layer_break_fraction(params, k) -> Fraction:
    q, g = params.q, params.g
    v = Fraction(params.c) * q ** (g * (k - 1 - params.N))
    return Fraction(q ** (g + k)) * v / (q**g - 1) - 1


def tower_upper_break_fraction(params, k) -> Fraction:
    q, g, c, N = params.q, params.g, params.c, params.N
    r = k - N
    num = Fraction(c) * q ** (N + 1) * (q ** (g + r) - q**g - q ** (r - 1) + 1)
    return num / ((q**g - 1) * (q - 1)) - 1


class LayerChain:
    """The transition of K_n/K_N kept as its layer breaks b_{N+1..n}, each
    layer of degree `order` = q^g: phi applies x -> b + (x - b)/order past
    each break, top layer first; psi applies the inverses, bottom first."""

    def __init__(self, order: int):
        self.order = order
        self.breaks = []

    def phi(self, x: Fraction) -> Fraction:
        for b in reversed(self.breaks):
            if x > b:
                x = b + (x - b) / self.order
        return x

    def psi(self, y: Fraction) -> Fraction:
        for b in self.breaks:
            if y > b:
                y = b + (y - b) * self.order
        return y


def verify_tuple_fraction(params, depth: int = 6) -> towers.VerifyReport:
    """towers.verify_tuple with every value a Fraction: same checks, same
    failure and lint lines, in the same order."""
    failures = []
    N = params.N
    prev_b = prev_w = None
    chain = LayerChain(params.q**params.g)
    for n in range(N + 1, N + depth + 1):
        b = towers.layer_break(params, n)
        w = towers.tower_upper_break(params, n)
        composed = chain.phi(b)
        if composed != w:
            failures.append(f"{params}: upper break at {n}: closed form {w} != composed {composed}")
        chain.breaks.append(b)
        if composed != w or chain.psi(w) != b:
            failures.append(f"{params}: phi/psi round trip failed at layer {n}")
        if n == N + 1 and b != w:
            failures.append(f"{params}: first layer must have equal breaks")
        if n > N + 1:
            if not w < b:
                failures.append(f"{params}: upper {w} not below lower {b} at {n}")
            if not (b > prev_b and w > prev_w):
                failures.append(f"{params}: breaks not strictly increasing at {n}")
        prev_b, prev_w = b, w
        alt = closed_form_break(
            params.q**params.g, (params.q**n) * towers.linear_coefficient_valuation(params, n)
        )
        if alt != b:
            failures.append(f"{params}: trinomial closed form {alt} != layer break {b} at {n}")
    lints = [
        f"layer {k} lower break {format_rat(b)} is not an integer; "
        "an order-q^g Galois step cannot carry a fractional break"
        for k, b in zip(range(N + 1, N + depth + 1), chain.breaks)
        if b.denominator != 1
    ]
    return towers.VerifyReport(depth, failures, lints)


def compose_bisect(outer: PiecewiseLinear, inner: PiecewiseLinear) -> PiecewiseLinear:
    """outer after inner, evaluated at inner's breakpoints and at the
    pull-backs of outer's."""
    xs = {x for x, _ in inner.breakpoints}
    pull = inner.inverse()
    for u, _ in outer.breakpoints:
        xs.add(pull(u))
    bps = [(x, outer(inner(x))) for x in sorted(xs)]
    return PiecewiseLinear(bps, outer.final_slope * inner.final_slope)


_W, _H = 640, 420
_MARGIN = 48


def _fmt(x: Fraction) -> str:
    scaled = round(Fraction(x) * 100)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 100)
    return f"{sign}{whole}.{frac:02d}"


def render_svg_fraction(np: NewtonPolygon) -> str:
    vs = [(Fraction(x), Fraction(y)) for x, y in np.vertices]
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    spanx = (x1 - x0) or Fraction(1)
    spany = (y1 - y0) or Fraction(1)

    def sx(x):
        return _MARGIN + (x - x0) / spanx * (_W - 2 * _MARGIN)

    def sy(y):
        return _H - _MARGIN - (y - y0) / spany * (_H - 2 * _MARGIN)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in vs)
    if len(vs) > 1:
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    for x, y in vs:
        cx, cy = _fmt(sx(x)), _fmt(sy(y))
        label = f"({format_rat(x)}, {format_rat(y)})"
        out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="black"/>')
        out.append(
            f'<text x="{_fmt(sx(x) + 6)}" y="{_fmt(sy(y) - 6)}" '
            f'font-family="monospace" font-size="12">{label}</text>'
        )
    for side, (a, b) in zip(np.sides, zip(vs, vs[1:])):
        mx = (a[0] + b[0]) / 2
        my = (a[1] + b[1]) / 2
        out.append(
            f'<text x="{_fmt(sx(mx) + 4)}" y="{_fmt(sy(my) + 14)}" '
            f'font-family="monospace" font-size="11" fill="#444">'
            f"slope {format_rat(side.slope)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def dense_associativity_cube(F):
    """fastcheck.dense_associativity on the full (D+1)^3 grid: each power
    F^n of an occurring degree n the previous one times F^gap, the associator
    F(F(x,y),z) − F(x,F(y,z)) one (D+1)² plane add per term and side, the
    cells beyond the simplex zeroed one x-plane at a time."""
    p, terms = _residues(F, "dense")
    D = F.D
    if not terms:
        return True, None
    base = np.zeros((D + 1, D + 1), dtype=np.int64)
    for i, j, c in terms:
        base[i, j] = c
    shape = (_fast_len(2 * D + 1),) * 2
    x, y = np.indices((D + 1, D + 1))
    degree = x + y
    beyond = degree > D

    def mul(a, fb):
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
    W = np.zeros((D + 1, D + 1, D + 1), dtype=np.int64)
    for i, j, c in terms:
        W[:, :, j] += c * powers[i]
        W[i] -= c * powers[j]
    W %= p
    for a in range(D + 1):
        W[a][degree > D - a] = 0
    cells = np.argwhere(W)
    if not len(cells):
        return True, None
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0], cells.sum(axis=1)))
    return False, tuple(cells[order[0]].tolist())


def law_series_full(module) -> BivariateSeries:
    """formal._law_series on the full plane: F(x, y) = Σ_k f(x)^k·B_k(y),
    B_k = Σ_l g_{k+l}·C(k+l, k)·f^l for every k <= D, and every row x^i of
    F, Σ_{k<=i} [T^i]f^k·B_k(y), summed at every j <= D − i on integers over
    P²·G, with no use of the symmetry F(x, y) = F(y, x)."""
    D, g = module.D, module.inv_coeffs
    table, P = _log_powers(module.log_coeffs, module.q, D)

    def sum_rows(pairs, cap):
        acc = {}
        for c, row in pairs:
            for e, v in row.items():
                if e <= cap:
                    acc[e] = acc.get(e, 0) + c * v
        return acc

    G = math.lcm(*(c.denominator for c in g.values()))
    g_num = sorted((e, c.numerator * (G // c.denominator)) for e, c in g.items())
    B = [
        sum_rows(((c * math.comb(e, k), table[e - k]) for e, c in g_num if e >= k), D - k)
        for k in range(D + 1)
    ]
    scale, raw = P * P * G, {}
    for i in range(D + 1):
        row = sum_rows(((fk[i], bk) for fk, bk in zip(table[: i + 1], B) if i in fk), D - i)
        for j, v in row.items():
            raw[(i, j)] = Fraction(v, scale)
    return BivariateSeries(RATIONALS, D, raw)


def _pow_table_one(x, n, R, p):
    """x^0..x^n for one point x of F_{p^r}, as an (n + 1, r) array,
    doubling the filled rows with each product."""
    out = np.zeros((n + 1, R.shape[1]), dtype=np.int64)
    out[0, 0] = 1
    m = 1  # rows 0..m-1 are filled
    while m <= n:
        k = min(m, n + 1 - m)
        xm = _vec_mul(out[m - 1], x, R, p)
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
    (D//s + 1, r) series A of places, Horner stepping by u^gap between the
    outer degrees of `by_outer` that occur."""
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


def sampled_associativity_lines(F, seed=0, reps=2):
    """fastcheck.sampled_associativity one line at a time: for each rep its
    own power tables of a, b and c, and the two
    sides F(F(a,b),c) and F(a,F(b,c)) as two Horner walks, each over its
    own outer degrees.  Same points, same grading, same answer."""
    p, terms = _residues(F, "sampled")
    D = F.D
    r = 1
    while p**r < 1 << 26:
        r += 1
    detail = {
        "strategy": "sampled",
        "extension_degree": r,
        "reps": reps,
        "seed": seed,
        "false_pass_bound": f"{(D + 1) * (D / p**r) ** reps:.3e}",
    }
    if not terms:
        return True, None, detail
    s = math.gcd(*(i + j - 1 for i, j, _ in terms)) or 1
    e0 = 1 % s
    L = D // s + 1
    R = _reduction_rows(fq_field(p, r))
    width = 2 * r - 1
    shape = (_fast_len(2 * L - 1), _fast_len(width))

    def mul(a, fb):
        return _reduce_ext(_fft_mul(a, fb, shape, L, width), R, p)

    I, J, V = np.array(terms, dtype=np.int64).T
    support = (I, J, V, (I + J - e0) // s)
    top = int(max(I.max(), J.max()))

    def rows(outer, inner):
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
        pow_a, pow_b, pow_c = (_pow_table_one(sample_point(), top, R, p) for _ in "abc")
        u = _line_value(support, pow_a, pow_b, L, R, p)
        w1 = _horner_side(by_i, u, pow_c, (s, e0), mul, p, shape)
        v = _line_value(support, pow_b, pow_c, L, R, p)
        w2 = _horner_side(by_j, v, pow_a, (s, e0), mul, p, shape)
        bad = e0 + s * np.flatnonzero(np.any(w1 != w2, axis=1))
        bad = bad[bad <= D]
        if bad.size and (first_bad is None or bad[0] < first_bad):
            first_bad = int(bad[0])
    return first_bad is None, first_bad, detail


def build_polygon_chain(points) -> NewtonPolygon:
    """polygon.build_polygon with the chain run over every abscissa: the
    lowest ordinate per abscissa, then Andrew's monotone chain with the same
    integer orientation test, dropping collinear interior points."""
    best: dict[int, Fraction] = {}
    for x, y in points:
        x = int(x)
        if not isinstance(y, Fraction):
            y = Fraction(y)
        low = best.get(x)
        if low is None or y.numerator * low.denominator < low.numerator * y.denominator:
            best[x] = y
    if not best:
        raise ValueError("no points with finite valuation")
    hull: list[tuple[int, int, int, Fraction]] = []
    for x in sorted(best):
        y = best[x]
        n, d = y.numerator, y.denominator
        while len(hull) >= 2:
            x0, n0, d0, _ = hull[-2]
            x1, n1, d1, _ = hull[-1]
            # drop the middle point if it sits on or above the chord
            if (n1 * d0 - n0 * d1) * d * (x - x0) >= (n * d0 - n0 * d) * d1 * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, n, d, y))
    return NewtonPolygon(tuple((x, y) for x, _, _, y in hull))

