"""Break schedules for towers of torsion-point fields.

A tower K_N ⊂ K_{N+1} ⊂ … is described by six integers: the residue data
(p, q), the polynomial shape (g, d), the level N from which every layer is
a single-break extension of order q^g, and the seed valuation c of the
linear coefficient.  Two exact quantities drive everything:

- layer_break(k): the lower-numbering break of layer k over layer k-1,
  q^{g+k}·v/(q^g - 1) - 1 with v = q^{g(k-1-N)}·c;
- tower_upper_break(k): the same break pushed to the bottom of the tower
  through the transition functions of the intermediate layers; with the
  relative index r = k - N the closed form is
  c·q^{N+1}(q^{g+r} - q^g - q^{r-1} + 1)/((q^g-1)(q-1)) - 1.

`upper_break_by_composition` recomputes the second from the first by
actually composing the piecewise-linear transition maps; agreement of the
two is the main cross-check this module exists for.  `verify_tuple` runs
the same check without building any piecewise-linear map: every layer map
is x -> x up to b_k and b_k + (x - b_k)/q^g past it, so the transition of
K_n/K_N at a point is those maps applied top layer first, and its inverse
is their inverses applied bottom layer first (Serre, Local Fields, IV §3).

The torsion side iterates Newton polygons: v(y_i) is a root valuation of
the i-times-twisted defining polynomial shifted by y_{i-1}, and from the
first index m where that polygon is a single segment the trace obeys the
exact ratio v(y_n) = v(y_{n-1})/q^d.  Past m no hull is built: each later
twist multiplies the coefficient ordinates by q^g >= 2 while the chord
from (0, v(y_{n-1})) to (q^d, 0) drops, so every point stays on or above
the chord and the polygon is that chord again.

Breaks below level N are out of scope by hypothesis — asking for them
raises GuardViolation rather than extrapolating formulas that do not apply.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import closed_form_break, exact_log, is_prime, prime_power
from .errors import GuardViolation, ParameterError
from .polygon import NewtonPolygon, build_polygon, format_rat
from .record import Record


class TowerParams(Record):
    __slots__ = ("p", "q", "g", "d", "N", "c")

    def __init__(self, p: int, q: int, g: int, d: int, N: int, c: int):
        if not is_prime(p):
            raise ParameterError("p must be prime")
        if not exact_log(q, p):
            raise ParameterError("q must be a positive power of p")
        if g < 1 or d < 1 or c < 1:
            raise ParameterError("g, d, c must be positive")
        if N < 0:
            raise ParameterError("N must be nonnegative")
        self._store(p, q, g, d, N, c)

    def as_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "g": self.g,
            "d": self.d,
            "N": self.N,
            "c": self.c,
        }


def _require_above_N(params: TowerParams, k: int):
    if k <= params.N:
        raise GuardViolation(
            f"layer {k} is at or below the stability level N={params.N}; "
            "breaks there are an input hypothesis, not a computed quantity"
        )


def linear_coefficient_valuation(params: TowerParams, k: int) -> Fraction:
    """v(a_1) after k-1 twists, measured in the layer-(k-1) normalization."""
    _require_above_N(params, k)
    return Fraction(params.c) * params.q ** (params.g * (k - 1 - params.N))


def layer_break(params: TowerParams, k: int) -> Fraction:
    """Lower break of layer k over layer k-1 (k > N).

    Equals closed_form_break(q^g, q^k·v) for the twisted linear valuation v;
    the g = 1 case is literally the trinomial layer of the Eisenstein
    machinery."""
    _require_above_N(params, k)
    q, g = params.q, params.g
    v = linear_coefficient_valuation(params, k)
    return Fraction(q ** (g + k)) * v / (q**g - 1) - 1


def tower_upper_break(params: TowerParams, k: int) -> Fraction:
    """layer_break(k) transported to the bottom field K_N, closed form.

    Summing the per-layer increments (B(j) - B(j-1))/q^{g(j-1-N)} telescopes
    to a geometric series in q; only the distance r = k - N above the
    stability level enters the bracket, while the bottom normalization
    contributes the q^{N+1} prefactor."""
    _require_above_N(params, k)
    q, g, c, N = params.q, params.g, params.c, params.N
    r = k - N
    num = Fraction(c) * q ** (N + 1) * (q ** (g + r) - q**g - q ** (r - 1) + 1)
    return num / ((q**g - 1) * (q - 1)) - 1


def layer_filtration(params: TowerParams, k: int):
    """The one-break herbrand.BreakFiltration of layer k over layer k-1."""
    from .herbrand import BreakFiltration

    b = layer_break(params, k)
    order = params.q**params.g
    return BreakFiltration(order, ((b, order),))


def transition_to_base(params: TowerParams, n: int):
    """Transition function of K_{n}/K_N, a herbrand.PiecewiseLinear: the
    composite of the layer maps, bottom layer outermost."""
    from .herbrand import compose_tower

    if n < params.N:
        raise GuardViolation("tower has no layers below N")
    filts = [layer_filtration(params, k) for k in range(params.N + 1, n + 1)]
    return compose_tower(filts)


def upper_break_by_composition(params: TowerParams, n: int) -> Fraction:
    """Push layer_break(n) through the transition of K_{n-1}/K_N.

    Independent of the closed form in tower_upper_break; the two must
    agree."""
    _require_above_N(params, n)
    phi = transition_to_base(params, n - 1)
    return phi(layer_break(params, n))


class BreakSchedule(Record):
    __slots__ = ("params", "n", "lower", "upper", "lower_table", "upper_table", "diagnostics")

    def __init__(
        self,
        params: TowerParams,
        n: int,
        lower: tuple,  # layer breaks B(N+1..n), ascending
        upper: tuple,  # the same pushed to K_N
        lower_table: tuple,  # ((from, to|None), order) rows, half-open (from, to]
        upper_table: tuple,
        diagnostics: tuple = (),
    ):
        self._store(params, n, lower, upper, lower_table, upper_table, diagnostics)

    def as_json(self):
        def table(rows):
            return [
                {
                    "from": format_rat(lo),
                    "to": None if hi is None else format_rat(hi),
                    "order": order,
                }
                for (lo, hi), order in rows
            ]

        return {
            "params": self.params.as_json(),
            "n": self.n,
            "lower": [format_rat(b) for b in self.lower],
            "upper": [format_rat(w) for w in self.upper],
            "lower_table": table(self.lower_table),
            "upper_table": table(self.upper_table),
            "diagnostics": list(self.diagnostics),
        }


def _interval_table(breaks, params: TowerParams, n: int):
    rows = []
    prev = Fraction(0)
    for idx, b in enumerate(breaks):
        k = params.N + idx  # order drops after this row
        rows.append(((prev, b), params.q ** (params.g * (n - k))))
        prev = b
    rows.append(((prev, None), 1))
    return tuple(rows)


def filtration_tables(params: TowerParams, n: int) -> BreakSchedule:
    """Subgroup orders of the filtration of K_n/K_N in both numberings.

    The first row's interval starts at 0 inclusively; every other interval
    is half-open (from, to].  Non-integral lower breaks are reported in
    diagnostics — they flag a layer that cannot be Galois as written — but
    the schedule is returned exactly as computed."""
    _require_above_N(params, n)
    ks = range(params.N + 1, n + 1)
    lower = tuple(layer_break(params, k) for k in ks)
    upper = tuple(tower_upper_break(params, k) for k in ks)
    return BreakSchedule(
        params=params,
        n=n,
        lower=lower,
        upper=upper,
        lower_table=_interval_table(lower, params, n),
        upper_table=_interval_table(upper, params, n),
        diagnostics=tuple(_fractional_break_lints(ks, lower)),
    )


def _fractional_break_lints(ks, lower) -> list:
    """One diagnostic per non-integral lower break b_k, k in ks."""
    return [
        f"layer {k} lower break {format_rat(b)} is not an integer; "
        "an order-q^g Galois step cannot carry a fractional break"
        for k, b in zip(ks, lower)
        if b.denominator != 1
    ]


class BottomLayer(Record):
    """What must be known about K_N/K itself: ramification index e and the
    (upper, lower) break pair of its own top step."""

    __slots__ = ("e", "u", "l")

    def __init__(self, e: int, u: Fraction, l: Fraction):
        u, l = Fraction(u), Fraction(l)
        if e < 1:
            raise ValueError("ramification index must be positive")
        if u > l:
            raise ValueError("upper break cannot exceed the lower break")
        self._store(e, u, l)


def breaks_over_base(w, bottom: BottomLayer) -> Fraction:
    """Transport an upper break at K_N down to the true base field:
    (w - l)/e + u.  Only meaningful strictly above the bottom's own break."""
    w = Fraction(w)
    if w <= bottom.l:
        raise GuardViolation(
            f"upper break {w} does not clear the bottom layer's break {bottom.l}"
        )
    return (w - bottom.l) / bottom.e + bottom.u


def character_breaks(params: TowerParams, n: int) -> tuple:
    """Break of the order-p^n character cut out of the tower: (W(n·g), n).

    Bookkeeping only makes sense when the residue field is the prime field."""
    if params.q != params.p:
        raise GuardViolation("character bookkeeping requires q = p")
    if n < 1:
        raise ValueError("n must be positive")
    return (tower_upper_break(params, n * params.g), n)


def norm_index(n: int, g: int) -> int:
    """Level of the norm tower seeing the n-th layer: ceil(n/g)."""
    if n < 1 or g < 1:
        raise ValueError("n and g must be positive")
    return -(-n // g)


# ---------------------------------------------------------------------------
# torsion traces


class TorsionTrace(Record):
    __slots__ = ("q", "g", "a_vals", "branch", "valuations", "m", "snapshots")

    def __init__(
        self,
        q: int,
        g: int,
        a_vals: tuple,
        branch: str,
        valuations: tuple,
        m: int | None,  # first index with a single-segment polygon
        snapshots: tuple,  # polygon per step, aligned with valuations[1:]
    ):
        for a, b in zip(valuations, valuations[1:]):
            if not b < a:
                raise AssertionError("torsion valuations must strictly decrease")
        self._store(q, g, a_vals, branch, valuations, m, snapshots)

    def ratio_holds_from(self) -> int | None:
        """First index from which v_n = v_{n-1}/q^d holds for the rest of
        the recorded trace."""
        scale = Fraction(1, self.q ** len(self.a_vals))
        idx = None
        for i in range(1, len(self.valuations)):
            if self.valuations[i] == self.valuations[i - 1] * scale:
                if idx is None:
                    idx = i
            else:
                idx = None
        return idx

    def as_json(self):
        return {
            "q": self.q,
            "g": self.g,
            "a_vals": [None if v is None else format_rat(v) for v in self.a_vals],
            "branch": self.branch,
            "valuations": [format_rat(v) for v in self.valuations],
            "m": self.m,
            "polygons": [s.as_json() for s in self.snapshots],
        }


def torsion_valuations(a_vals, q: int, g: int, n_max: int, branch: str = "max") -> TorsionTrace:
    """Trace v(y_0), …, v(y_{n_max}) of a compatible system of roots.

    a_vals are the valuations of a_1..a_d (the monic top coefficient is
    implicit).  Step i picks a root of the i-times-twisted polynomial
    shifted by y_{i-1}; its polygon is the hull of

        (0, v(y_{i-1})),  (q^{j-1}, q^{ig}·v(a_j)),  (q^d, 0)

    without the first point at step 0, which has no y_{-1} to shift by,
    and `branch` selects the largest ("max") or smallest ("min") root
    valuation.  m is the first step i >= 1 whose polygon is one segment,
    and the snapshots are the polygons of steps 1 .. n_max.

    Past step m the trace is written in closed form, with no hull: step
    i > m records the single side from (0, v(y_{i-1})) to (q^d, 0) and
    v(y_i) = v(y_{i-1})/q^d, on either branch.  This is exact: going from
    step i-1 to step i multiplies every coefficient ordinate by q^g >= 2,
    while the chord from (0, v(y_{i-1})) to (q^d, 0) lies below the chord
    of step i-1, because 0 < v(y_{i-1}) < v(y_{i-2}).  A point on or above
    the old chord is therefore on or above the new one, and the polygon
    stays that one segment.

    >>> trace = torsion_valuations((Fraction(1),), q=2, g=1, n_max=4)
    >>> [format_rat(v) for v in trace.valuations], trace.m
    (['1', '1/2', '1/4', '1/8', '1/16'], 1)
    """
    a_vals = tuple(None if v is None else Fraction(v) for v in a_vals)
    if not a_vals or a_vals[0] is None:
        raise ValueError("v(a_1) must be finite")
    if any(v is not None and v <= 0 for v in a_vals):
        raise ValueError("coefficient valuations must be positive")
    if branch not in ("max", "min"):
        raise ValueError("branch must be 'max' or 'min'")
    _residue_prime(q)
    if g < 1 or n_max < 0:
        raise ValueError("need g >= 1, n_max >= 0")
    d = len(a_vals)

    def pick(poly: NewtonPolygon) -> Fraction:
        sides = poly.sides
        side = sides[0] if branch == "max" else sides[-1]
        return -side.slope

    top = (q**d, Fraction(0))
    vals = []
    snapshots = []
    m = None
    for i in range(n_max + 1):
        if m is not None:
            # the closed-form tail (see the docstring)
            poly = NewtonPolygon(((0, vals[-1]), top))
            vals.append(vals[-1] / q**d)
        else:
            twist = q ** (i * g)
            pts = [(0, vals[-1])] if i else []
            pts.extend(
                (q ** (j - 1), twist * v)
                for j, v in enumerate(a_vals, start=1)
                if v is not None
            )
            pts.append(top)
            poly = build_polygon(pts)
            if i and len(poly.vertices) == 2:
                m = i
            vals.append(pick(poly))
        if i:
            snapshots.append(poly)
    return TorsionTrace(
        q=q,
        g=g,
        a_vals=a_vals,
        branch=branch,
        valuations=tuple(vals),
        m=m,
        snapshots=tuple(snapshots),
    )


# ---------------------------------------------------------------------------
# grid verification


class VerifyReport(Record):
    __slots__ = ("cases", "failures", "diagnostics")

    def __init__(
        self, cases: int = 0, failures: list | None = None, diagnostics: list | None = None
    ):
        failures = [] if failures is None else failures
        self._store(cases, failures, [] if diagnostics is None else diagnostics)

    @property
    def ok(self):
        return not self.failures

    def as_json(self):
        return {
            "cases": self.cases,
            "ok": self.ok,
            "failures": self.failures,
            "diagnostics": self.diagnostics,
        }


DEFAULT_GRID = {
    "q": (2, 3, 5),
    "g": (1, 2, 3),
    "c": (1, 2, 3),
    "N": (0, 1, 2),
    "depth": 6,
}


class _LayerChain:
    """The transition of K_n/K_N kept as its layer breaks b_{N+1..n}, each
    layer of degree `order` = q^g, and evaluated at single points: phi
    applies x -> b + (x - b)/order past each break, top layer first; psi
    applies the inverses y -> b + (y - b)·order, bottom layer first."""

    __slots__ = ("order", "breaks")

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


def verify_tuple(params: TowerParams, depth: int = 6) -> VerifyReport:
    """Check layers N+1 .. N+depth of one tower against each other.

    At every layer n the closed form tower_upper_break(n) must equal
    layer_break(n) pushed through the transition of K_{n-1}/K_N, and the
    transition of K_n/K_N must carry the lower break to the upper one and
    back (phi/psi round trip).  The breaks must increase strictly, the
    upper break must sit below the lower one above the first layer (equal
    on it), and layer_break must match the trinomial closed form.
    Non-integral lower breaks come back as diagnostics, the same lines
    filtration_tables(params, N + depth) reports, read off the breaks the
    loop has already computed.

    The transition chain is the list of breaks from layer_break alone,
    never from the closed form, extended by one break per layer.  phi and
    psi are needed only at b_n and w_n, so they are evaluated there, layer
    map by layer map, and no piecewise-linear function is built; the
    `herbrand` command and upper_break_by_composition keep the general
    composition path."""
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    failures = []
    N = params.N
    prev_b = prev_w = None
    chain = _LayerChain(params.q**params.g)  # transition of K_N/K_N
    for n in range(N + 1, N + depth + 1):
        b = layer_break(params, n)
        w = tower_upper_break(params, n)
        composed = chain.phi(b)
        if composed != w:
            failures.append(f"{params}: upper break at {n}: closed form {w} != composed {composed}")
        chain.breaks.append(b)
        # the new layer fixes b, so phi(b) through K_n/K_N is still `composed`
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
            params.q**params.g, (params.q**n) * linear_coefficient_valuation(params, n)
        )
        if alt != b:
            failures.append(f"{params}: trinomial closed form {alt} != layer break {b} at {n}")
    lints = _fractional_break_lints(range(N + 1, N + depth + 1), chain.breaks)
    return VerifyReport(depth, failures, lints)


def verify_grid(grid: dict | None = None) -> tuple:
    """Expand a grid spec into TowerParams; the CLI fans these out."""
    grid = dict(DEFAULT_GRID if grid is None else grid)
    tuples = []
    for q in grid["q"]:
        p = _residue_prime(q)
        for g in grid["g"]:
            for c in grid["c"]:
                for N in grid["N"]:
                    tuples.append(
                        (TowerParams(p=p, q=q, g=g, d=1, N=N, c=c), grid["depth"])
                    )
    return tuple(tuples)


def _residue_prime(q: int) -> int:
    """The prime p of a residue-field size q = p^k."""
    if q < 2:
        raise ParameterError("q must be at least 2")
    base = prime_power(q)
    if base is None:
        raise ParameterError("q must be a prime power")
    return base[0]
