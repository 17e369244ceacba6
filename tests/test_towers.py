"""Break schedules, character bookkeeping, and torsion traces."""

import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramtower import herbrand
from ramtower.errors import GuardViolation, ParameterError
from ramtower.fq import fq_field
from ramtower.herbrand import BreakFiltration, compose_tower
from ramtower.jsonio import RunReport
from ramtower.polygon import brute_force_hull, build_polygon
from ramtower.series import LaurentSeries
from ramtower.seriespoly import SeriesPoly
from ramtower.tate import EisensteinExtension, closed_form_break, tate_breaks
from ramtower.towers import (
    DEFAULT_GRID,
    BottomLayer,
    TorsionTrace,
    TowerParams,
    _denominator,
    _layer_numerator,
    _phi,
    _psi,
    breaks_over_base,
    character_breaks,
    filtration_tables,
    layer_break,
    linear_coefficient_valuation,
    norm_index,
    torsion_valuations,
    tower_upper_break,
    transition_to_base,
    upper_break_by_composition,
    verify_grid,
    verify_tuple,
)
from oracles import (
    layer_break_fraction,
    tower_upper_break_fraction,
    verify_tuple_fraction,
)

BASE = TowerParams(p=2, q=2, g=1, d=1, N=0, c=1)


def _params(q, g, c, N):
    p = 2 if q in (2, 4, 8) else q
    return TowerParams(p=p, q=q, g=g, d=1, N=N, c=c)


params_strategy = st.builds(
    _params,
    q=st.sampled_from((2, 3, 4, 5)),
    g=st.integers(1, 3),
    c=st.integers(1, 3),
    N=st.integers(0, 2),
)


def params_and_layer():
    return params_strategy.flatmap(
        lambda ps: st.tuples(st.just(ps), st.integers(ps.N + 1, ps.N + 5))
    )


def test_spot_values_base_level():
    assert [layer_break(BASE, k) for k in (1, 2, 3)] == [3, 15, 63]
    assert [tower_upper_break(BASE, k) for k in (1, 2, 3)] == [3, 9, 21]


def test_spot_values_shifted_level():
    ps = TowerParams(p=2, q=2, g=1, d=1, N=1, c=1)
    assert [layer_break(ps, k) for k in (2, 3, 4)] == [7, 31, 127]
    assert [tower_upper_break(ps, k) for k in (2, 3, 4)] == [7, 19, 43]


def test_fractional_spot_values():
    wide = TowerParams(p=2, q=2, g=2, d=1, N=0, c=1)
    assert tower_upper_break(wide, 1) == Fraction(5, 3)
    odd = TowerParams(p=3, q=3, g=1, d=1, N=0, c=1)
    assert layer_break(odd, 1) == Fraction(7, 2)
    assert layer_break(odd, 2) == Fraction(79, 2)
    assert tower_upper_break(odd, 2) == Fraction(31, 2)


def test_linear_coefficient_valuation():
    assert linear_coefficient_valuation(BASE, 1) == 1
    assert linear_coefficient_valuation(BASE, 3) == 4
    ps = TowerParams(p=2, q=2, g=2, d=1, N=1, c=3)
    assert linear_coefficient_valuation(ps, 2) == 3
    assert linear_coefficient_valuation(ps, 4) == 3 * 16


@given(params_and_layer())
@settings(max_examples=120, deadline=None)
def test_closed_form_matches_composition(case):
    ps, n = case
    assert tower_upper_break(ps, n) == upper_break_by_composition(ps, n)


@given(params_and_layer())
@settings(max_examples=120, deadline=None)
def test_transition_round_trip(case):
    ps, n = case
    b = layer_break(ps, n)
    w = tower_upper_break(ps, n)
    phi = transition_to_base(ps, n)
    assert phi(b) == w
    assert phi.inverse()(w) == b


@given(params_strategy)
@settings(max_examples=60, deadline=None)
def test_first_layer_breaks_coincide(ps):
    assert layer_break(ps, ps.N + 1) == tower_upper_break(ps, ps.N + 1)


@given(params_and_layer())
@settings(max_examples=120, deadline=None)
def test_ordering_and_growth(case):
    ps, n = case
    if n > ps.N + 1:
        assert tower_upper_break(ps, n) < layer_break(ps, n)
        assert layer_break(ps, n) > layer_break(ps, n - 1)
        assert tower_upper_break(ps, n) > tower_upper_break(ps, n - 1)


@given(params_and_layer())
@settings(max_examples=120, deadline=None)
def test_layer_break_is_trinomial_break(case):
    # the layer is cut out by a trinomial with linear valuation q^n·v_{n-1}(a_1)
    ps, n = case
    v = (ps.q**n) * linear_coefficient_valuation(ps, n)
    assert layer_break(ps, n) == closed_form_break(ps.q**ps.g, v)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("g", [1, 2])
def test_closed_forms_match_actual_layer_trinomials(q, g):
    # layer k as the actual trinomial X^(q^g) + t^(e_k)·X + t over F_q, with
    # e_k = q^k·v the twisted linear valuation: a trinomial's ramification
    # polygon has the points (1, n·v(A) + 1 − n) and (n, 0), n = q^g, so its
    # break is layer_break(k), and the earlier layers' maps carry it to
    # tower_upper_break(k)
    p = min(f for f in (2, 3, 5) if q % f == 0)
    field = fq_field(p, {2: 1, 3: 1, 4: 2, 5: 1, 8: 3, 9: 2}[q])
    n = q**g
    for N in (0, 1):
        for c in (1, 2):
            ps = TowerParams(p=p, q=q, g=g, d=1, N=N, c=c)
            lower = []
            for k in (N + 1, N + 2):
                e_k = q**k * linear_coefficient_valuation(ps, k)
                coeffs = [LaurentSeries.zero(field)] * (n + 1)
                coeffs[0] = LaurentSeries.t_power(field, 1)
                coeffs[1] = LaurentSeries.t_power(field, int(e_k))
                coeffs[n] = LaurentSeries.one(field)
                (b,) = tate_breaks(EisensteinExtension(SeriesPoly(field, coeffs))).breaks
                assert b == layer_break(ps, k), (ps, k)
                phi = compose_tower(BreakFiltration(n, ((bj, n),)) for bj in lower)
                assert phi(b) == tower_upper_break(ps, k), (ps, k)
                lower.append(b)


def test_layer_guard():
    with pytest.raises(GuardViolation):
        layer_break(BASE, 0)
    ps = TowerParams(p=2, q=2, g=1, d=1, N=2, c=1)
    with pytest.raises(GuardViolation):
        tower_upper_break(ps, 2)
    with pytest.raises(GuardViolation):
        filtration_tables(ps, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        TowerParams(p=2, q=6, g=1, d=1, N=0, c=1)
    with pytest.raises(ValueError):
        TowerParams(p=3, q=2, g=1, d=1, N=0, c=1)
    with pytest.raises(ValueError):
        TowerParams(p=2, q=2, g=0, d=1, N=0, c=1)
    with pytest.raises(ValueError):
        TowerParams(p=2, q=2, g=1, d=0, N=0, c=1)
    with pytest.raises(ValueError):
        TowerParams(p=2, q=2, g=1, d=1, N=-1, c=1)
    with pytest.raises(ValueError):
        TowerParams(p=2, q=2, g=1, d=1, N=0, c=0)


def test_schedule_worked_example():
    sched = filtration_tables(BASE, 2)
    assert sched.lower == (3, 15)
    assert sched.upper == (3, 9)
    assert sched.lower_table == (
        ((0, 3), 4),
        ((3, 15), 2),
        ((15, None), 1),
    )
    assert sched.upper_table == (
        ((0, 3), 4),
        ((3, 9), 2),
        ((9, None), 1),
    )
    assert sched.diagnostics == ()
    deeper = filtration_tables(BASE, 3)
    assert [order for _, order in deeper.lower_table] == [8, 4, 2, 1]


def test_schedule_fractional_break_lint():
    odd = TowerParams(p=3, q=3, g=1, d=1, N=0, c=1)
    sched = filtration_tables(odd, 2)
    assert len(sched.diagnostics) == 2
    assert "not an integer" in sched.diagnostics[0]
    # the schedule itself is still the exact computation
    assert sched.lower == (Fraction(7, 2), Fraction(79, 2))


@given(params_strategy)
@settings(max_examples=40, deadline=None)
def test_a_shorter_schedule_is_a_prefix_of_a_longer_one(ps):
    # precision is honest: asking for fewer layers truncates the answer
    short, long = filtration_tables(ps, ps.N + 5), filtration_tables(ps, ps.N + 12)
    assert short.lower == long.lower[:5] and short.upper == long.upper[:5]
    assert short.diagnostics == long.diagnostics[: len(short.diagnostics)]


def test_transition_inverse_spot():
    phi = transition_to_base(BASE, 1)
    assert phi(15) == 9
    assert phi.inverse()(9) == 15


def test_character_breaks():
    assert character_breaks(BASE, 2) == (Fraction(9), 2)
    mixed = TowerParams(p=2, q=4, g=1, d=1, N=0, c=1)
    with pytest.raises(GuardViolation):
        character_breaks(mixed, 1)
    with pytest.raises(ValueError):
        character_breaks(BASE, 0)


def test_norm_index():
    for g in range(1, 6):
        for n in range(1, 21):
            assert norm_index(n, g) == (n + g - 1) // g
    with pytest.raises(ValueError):
        norm_index(0, 1)


def test_breaks_over_base():
    bottom = BottomLayer(e=2, u=1, l=1)
    assert breaks_over_base(9, bottom) == 5
    with pytest.raises(GuardViolation):
        breaks_over_base(1, bottom)
    with pytest.raises(ValueError):
        BottomLayer(e=0, u=1, l=1)
    with pytest.raises(ValueError):
        BottomLayer(e=2, u=3, l=1)


def test_torsion_height_one():
    trace = torsion_valuations((1,), q=2, g=1, n_max=6)
    assert trace.valuations == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 16),
        Fraction(1, 32),
        Fraction(1, 64),
    )
    assert trace.m == 1
    assert trace.ratio_holds_from() == 1
    assert len(trace.snapshots) == 6


def test_torsion_two_slopes_start():
    # v(a_1) = v(a_2) = 1 at q = 2: the seed valuation is 1/3
    trace = torsion_valuations((1, 1), q=2, g=1, n_max=3)
    assert trace.valuations[0] == Fraction(1, 3)
    assert trace.m == 1


def test_torsion_delayed_stability():
    trace = torsion_valuations((9, 1), q=2, g=1, n_max=4)
    assert trace.valuations == (
        Fraction(8),
        Fraction(3),
        Fraction(3, 4),
        Fraction(3, 16),
        Fraction(3, 64),
    )
    assert trace.m == 2
    assert trace.ratio_holds_from() == 2
    # the min branch follows the other compatible system from the seed on
    low = torsion_valuations((9, 1), q=2, g=1, n_max=4, branch="min")
    assert low.valuations[:2] == (Fraction(1, 2), Fraction(1, 8))
    assert low.m == 1


def test_torsion_skipped_coefficient():
    trace = torsion_valuations((1, None), q=2, g=1, n_max=2)
    assert trace.valuations[0] == Fraction(1, 3)
    assert trace.m == 1
    assert trace.valuations[1] == Fraction(1, 12)
    # a_2 = 0 has no valuation: the payload writes null for it
    payload = json.loads(RunReport("ok", trace.as_json()).dumps())["payload"]
    assert payload == trace.as_json()
    assert payload["a_vals"] == ["1", None]


def test_torsion_validation():
    with pytest.raises(ValueError):
        torsion_valuations((), q=2, g=1, n_max=2)
    with pytest.raises(ValueError):
        torsion_valuations((None, 1), q=2, g=1, n_max=2)
    with pytest.raises(ValueError):
        torsion_valuations((0,), q=2, g=1, n_max=2)
    with pytest.raises(ValueError):
        torsion_valuations((1,), q=2, g=1, n_max=2, branch="middle")
    for q in (1, 6):
        with pytest.raises(ValueError):
            torsion_valuations((1,), q=q, g=1, n_max=2)


def test_trace_rejects_non_decreasing_valuations():
    with pytest.raises(AssertionError):
        TorsionTrace(
            q=2,
            g=1,
            a_vals=(Fraction(1),),
            branch="max",
            valuations=(Fraction(1), Fraction(1)),
            m=1,
            snapshots=(),
        )


torsion_inputs = st.tuples(
    st.sampled_from((2, 3, 4)),
    st.integers(1, 3),
    st.lists(
        st.fractions(min_value=Fraction(1, 3), max_value=12, max_denominator=3),
        min_size=1,
        max_size=4,
    ),
)


@given(torsion_inputs)
@settings(max_examples=100, deadline=None)
def test_torsion_ratio_law_and_bound(case):
    q, g, a_vals = case
    d = len(a_vals)
    trace = torsion_valuations(tuple(a_vals), q=q, g=g, n_max=1)
    v0 = trace.valuations[0]
    # polygon criterion: once every twisted coefficient point clears the
    # seed ordinate, the step polygon has a single segment
    bound = 1
    while any((q ** (bound * g)) * v < v0 for v in a_vals):
        bound += 1
    full = torsion_valuations(tuple(a_vals), q=q, g=g, n_max=bound + 2)
    assert full.m is not None and full.m <= bound
    scale = Fraction(1, q**d)
    for i in range(full.m, len(full.valuations)):
        assert full.valuations[i] == full.valuations[i - 1] * scale
    rhf = full.ratio_holds_from()
    assert rhf is not None and rhf <= full.m


def _reference_trace(a_vals, q, g, n_max, branch):
    # step by step from the definition: the brute-force hull of the twisted
    # points at every step, the chosen side's slope, m the first single side
    d = len(a_vals)
    pick = 0 if branch == "max" else -1
    top = (q**d, Fraction(0))

    def step(lead, twist):
        pts = [(q ** (j - 1), twist * v) for j, v in enumerate(a_vals, 1) if v is not None]
        return brute_force_hull(lead + pts + [top])

    vals = [-step([], 1).sides[pick].slope]
    snapshots, m = [], None
    for i in range(1, n_max + 1):
        poly = step([(0, vals[-1])], q ** (i * g))
        if m is None and len(poly.vertices) == 2:
            m = i
        vals.append(-poly.sides[pick].slope)
        snapshots.append(poly)
    return tuple(vals), m, tuple(snapshots)


positive = st.fractions(min_value=Fraction(1, 4), max_value=12, max_denominator=4)
tail_inputs = st.tuples(
    st.sampled_from((2, 3, 4, 5)),
    st.integers(1, 3),
    st.builds(
        lambda first, rest: (first, *rest),
        positive,
        st.lists(st.one_of(st.none(), positive), max_size=3),
    ),
    st.sampled_from(("max", "min")),
    st.sampled_from(("zero", "m-1", "m", "m+4")),
)


@given(tail_inputs)
@example((2, 1, (Fraction(9), Fraction(1)), "max", "m-1"))  # m = 2
@example((2, 1, (Fraction(9), Fraction(1)), "max", "m"))
@example((2, 1, (Fraction(9), Fraction(1)), "max", "m+4"))
@example((2, 1, (Fraction(9), Fraction(1)), "min", "m+4"))
@example((3, 1, (Fraction(12), None, Fraction(1, 4)), "max", "m+4"))
@settings(max_examples=150, deadline=None)
def test_torsion_trace_matches_the_hull_at_every_step(case):
    # the closed-form tail past m against a hull at every step, and no hull
    # built past m: min(m, n_max) + 1 of them, the first one for y_0, and
    # one per step while no step has had a single side
    q, g, a_vals, branch, reach = case
    v0 = _reference_trace(a_vals, q, g, 0, branch)[0][0]
    bound = 1
    while any(v is not None and q ** (bound * g) * v < v0 for v in a_vals):
        bound += 1
    m = _reference_trace(a_vals, q, g, bound, branch)[1]
    assert m is not None and m <= bound
    n_max = {"zero": 0, "m-1": m - 1, "m": m, "m+4": m + 4}[reach]
    with mock.patch("ramtower.towers.build_polygon", wraps=build_polygon) as hull:
        trace = torsion_valuations(a_vals, q=q, g=g, n_max=n_max, branch=branch)
    assert hull.call_count == min(m, n_max) + 1
    vals, ref_m, snapshots = _reference_trace(a_vals, q, g, n_max, branch)
    assert trace.valuations == vals
    assert trace.m == ref_m == (None if n_max < m else m)
    assert [s.vertices for s in trace.snapshots] == [s.vertices for s in snapshots]


def test_a_shorter_torsion_trace_is_a_prefix_of_a_longer_one():
    """Precision is honest: the trace to n_max = n is the trace to a larger
    n_max cut at step n, and its m is the longer trace's m if that falls
    within n steps."""
    rng = random.Random(29)
    pool = [None, *(Fraction(k, den) for den in (1, 2, 3, 4) for k in range(1, 13))]
    for _ in range(300):
        q, g, branch = rng.choice((2, 3, 4, 5)), rng.randint(1, 3), rng.choice(("max", "min"))
        a_vals = (rng.choice(pool[1:]), *(rng.choice(pool) for _ in range(rng.randint(0, 3))))
        n = rng.randint(0, 4)
        short = torsion_valuations(a_vals, q=q, g=g, n_max=n, branch=branch)
        long = torsion_valuations(a_vals, q=q, g=g, n_max=n + rng.randint(1, 4), branch=branch)
        case = (q, g, a_vals, branch, n)
        assert short.valuations == long.valuations[: n + 1], case
        assert short.snapshots == long.snapshots[:n], case
        assert short.m == (long.m if long.m is not None and long.m <= n else None), case


def _q_layer(a_vals, twist):
    """Q(x) = x^{q^d} + Σ_j t^{twist·v_j}·x^{q^{j−1}} as {m: {t-degree: c}},
    the coefficient of x^{q^m}; a None valuation is a zero coefficient."""
    Q = {j: {v * twist: 1} for j, v in enumerate(a_vals) if v is not None}
    Q[len(a_vals)] = {0: 1}
    return Q


def _q_compose(A, B, q, p):
    """A∘B for q-polynomials over F_p[t]: (A∘B)_m = Σ_{j+k=m} A_j·B_k^{q^j},
    where B_k^{q^j}(t) = B_k(t^{q^j}) because F_p is fixed by Frobenius."""
    out = {}
    for j, a in A.items():
        for k, b in B.items():
            acc = out.setdefault(j + k, {})
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2 * q**j
                    acc[e] = (acc.get(e, 0) + c1 * c2) % p
    return {m: {e: c for e, c in poly.items() if c} for m, poly in out.items()}


@pytest.mark.parametrize(
    "a_vals, q, g, n_max",
    [
        ((1,), 2, 1, 4),
        ((9, 1), 2, 1, 3),  # m = 2 on the max branch
        ((1, None, 1), 2, 1, 3),
        ((1, 1), 2, 2, 3),
        ((4, None, 1), 2, 1, 3),
        ((2, 1), 3, 1, 2),
        ((3, None, 1), 3, 2, 2),
        ((5, 1, 2), 3, 1, 2),
    ],
)
def test_torsion_traces_are_roots_of_the_actual_tower_polynomials(a_vals, q, g, n_max):
    # y_n is a root of C_n = Q^(0) ∘ … ∘ Q^(n), with Q^(i) the layer whose
    # coefficient valuations are twisted by q^{ig}; C_n is built exactly in
    # F_p[t], so cancellation is seen, and its Newton polygon over the points
    # (q^m, v(C_m)) lists every root valuation.  The min branch is the
    # smallest of them; the max branch need not be the largest, since roots
    # whose chain passes through some y_i = 0 lie on other sides.
    p = q  # q in {2, 3}
    high = torsion_valuations(a_vals, q=q, g=g, n_max=n_max)
    low = torsion_valuations(a_vals, q=q, g=g, n_max=n_max, branch="min")
    C = _q_layer(a_vals, 1)
    for n in range(n_max + 1):
        if n:
            C = _q_compose(C, _q_layer(a_vals, q ** (n * g)), q, p)
        pts = [(q**m, Fraction(min(poly))) for m, poly in C.items() if poly]
        roots = {-side.slope for side in build_polygon(pts).sides}
        assert high.valuations[n] in roots
        assert low.valuations[n] == min(roots)


def test_verify_tuple_catches_a_wrong_closed_form(monkeypatch):
    ps = TowerParams(p=3, q=3, g=2, d=1, N=1, c=2)
    bad = ps.N + 3
    right = tower_upper_break

    def skewed(params, k):
        w = right(params, k)
        return w + 1 if k == bad else w

    monkeypatch.setattr("ramtower.towers.tower_upper_break", skewed)
    rep = verify_tuple(ps, 6)
    assert rep.cases == 6
    w = right(ps, bad)
    assert rep.failures == [
        f"{ps}: upper break at {bad}: closed form {w + 1} != composed {w}",
        f"{ps}: phi/psi round trip failed at layer {bad}",
    ]


def test_verify_tuple_catches_an_upper_break_equal_to_the_lower(monkeypatch):
    # above the first layer the upper break must sit strictly below the lower
    ps = TowerParams(p=2, q=2, g=1, d=1, N=0, c=1)
    right = tower_upper_break

    def equal(params, k):
        return layer_break(params, k) if k == params.N + 2 else right(params, k)

    monkeypatch.setattr("ramtower.towers.tower_upper_break", equal)
    rep = verify_tuple(ps, 3)
    assert f"{ps}: upper 15 not below lower 15 at 2" in rep.failures


@pytest.mark.parametrize("shift", [-1, 1])
def test_verify_tuple_catches_unequal_breaks_on_the_first_layer(monkeypatch, shift):
    # on layer N + 1 the upper break must equal the lower, from either side
    ps = TowerParams(p=2, q=2, g=1, d=1, N=0, c=1)
    right = tower_upper_break

    def skewed(params, k):
        w = right(params, k)
        return w + shift if k == params.N + 1 else w

    monkeypatch.setattr("ramtower.towers.tower_upper_break", skewed)
    rep = verify_tuple(ps, 2)
    b = layer_break(ps, 1)
    assert rep.failures == [
        f"{ps}: upper break at 1: closed form {b + shift} != composed {b}",
        f"{ps}: phi/psi round trip failed at layer 1",
        f"{ps}: first layer must have equal breaks",
    ]


def test_verify_tuple_catches_a_wrong_layer_break(monkeypatch):
    # the chain is built from layer_break, so a wrong break at layer 4 moves
    # every composed break above it, while the closed form stays right
    ps = TowerParams(p=3, q=3, g=2, d=1, N=1, c=2)
    bad = ps.N + 3
    right = _layer_numerator

    def skewed(params, k):
        B = right(params, k)
        return B + _denominator(params) if k == bad else B  # layer_break + 1

    monkeypatch.setattr("ramtower.towers._layer_numerator", skewed)
    rep = verify_tuple(ps, 6)
    assert rep.cases == 6
    assert rep.failures == [
        f"{ps}: upper break at 4: closed form 1013/4 != composed 82057/324",
        f"{ps}: phi/psi round trip failed at layer 4",
        f"{ps}: trinomial closed form 59045/4 != layer break 59049/4 at 4",
        f"{ps}: upper break at 5: closed form 3119/4 != composed 2273783/2916",
        f"{ps}: phi/psi round trip failed at layer 5",
        f"{ps}: upper break at 6: closed form 9437/4 != composed 6879605/2916",
        f"{ps}: phi/psi round trip failed at layer 6",
        f"{ps}: upper break at 7: closed form 28391/4 != composed 20697071/2916",
        f"{ps}: phi/psi round trip failed at layer 7",
    ]


def test_layer_chain_matches_the_composed_transition():
    # verify_tuple's pointwise phi and psi on numerators over M against the
    # PiecewiseLinear reference at every breakpoint (the first is 0), every
    # midpoint between two and one point past the last
    for ps, _ in verify_grid(dict(DEFAULT_GRID, depth=8)):
        Q, M = ps.q**ps.g, _denominator(ps)
        chain = []
        for n in range(ps.N + 1, ps.N + 9):
            chain.append(_layer_numerator(ps, n))
            phi = transition_to_base(ps, n)

            def pointwise_phi(x):
                X, scale = _phi(chain, Q, x.numerator * M, x.denominator)
                return Fraction(X, M * scale)

            def pointwise_psi(y):
                return Fraction(_psi(chain, Q, y.numerator * M, y.denominator), M * y.denominator)

            for reference, pointwise in ((phi, pointwise_phi), (phi.inverse(), pointwise_psi)):
                xs = [x for x, _ in reference.breakpoints]
                assert xs[0] == 0 and len(xs) == n - ps.N + 1
                xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [2 * xs[-1] + 1]
                for x in xs:
                    assert pointwise(x) == reference(x), (ps, n, x)


WIDE_GRID = {"q": (2, 3, 4, 5, 7, 8, 9), "g": (1, 2, 3), "c": (1, 2, 3, 4), "N": (0, 1, 2, 3)}


def test_closed_forms_match_their_fraction_evaluation():
    for ps, _ in verify_grid(dict(WIDE_GRID, depth=0)):
        for k in range(ps.N + 1, ps.N + 31):
            assert layer_break(ps, k) == layer_break_fraction(ps, k), (ps, k)
            assert tower_upper_break(ps, k) == tower_upper_break_fraction(ps, k), (ps, k)


def test_verify_tuple_matches_the_fraction_chain_on_a_wide_grid():
    linted = 0
    for ps, _ in verify_grid(dict(WIDE_GRID, depth=12)):
        rep = verify_tuple(ps, 12)
        assert rep.ok, rep.failures
        assert rep.as_json() == verify_tuple_fraction(ps, 12).as_json(), ps
        linted += bool(rep.diagnostics)
    assert linted


@pytest.mark.parametrize(
    "ps",
    [
        TowerParams(p=2, q=2, g=1, d=1, N=0, c=1),
        TowerParams(p=3, q=3, g=2, d=1, N=1, c=2),
        TowerParams(p=2, q=4, g=1, d=1, N=2, c=3),
        TowerParams(p=7, q=7, g=3, d=1, N=0, c=4),
    ],
    ids=str,
)
@pytest.mark.parametrize("skew", [Fraction(1, 7), Fraction(-1, 7)])
def test_verify_tuple_failures_match_the_fraction_chain(monkeypatch, ps, skew):
    # an upper break off by 1/7 has a denominator that need not divide M, at
    # the first layer, in the middle and at the top, and a lower break off by
    # one moves every composed break above it: the lines are the ones the
    # Fraction chain prints
    depth = 6
    right_upper, right_lower = tower_upper_break, _layer_numerator
    for bad in (ps.N + 1, ps.N + 3, ps.N + depth):
        with monkeypatch.context() as m:
            m.setattr(
                "ramtower.towers.tower_upper_break",
                lambda params, k: right_upper(params, k) + (skew if k == bad else 0),
            )
            rep = verify_tuple(ps, depth)
            assert rep.failures, (ps, bad)
            assert rep.as_json() == verify_tuple_fraction(ps, depth).as_json(), (ps, bad)
        with monkeypatch.context() as m:
            shift = _denominator(ps) if skew > 0 else -1
            m.setattr(
                "ramtower.towers._layer_numerator",
                lambda params, k: right_lower(params, k) + (shift if k == bad else 0),
            )
            rep = verify_tuple(ps, depth)
            assert rep.failures, (ps, bad)
            assert rep.as_json() == verify_tuple_fraction(ps, depth).as_json(), (ps, bad)


def test_verify_tuple_builds_no_piecewise_linear():
    # every map, constructed or composed, inverted or read off a filtration,
    # is stored through _canonical
    with mock.patch.object(herbrand.PiecewiseLinear, "_canonical") as store:
        rep = verify_tuple(BASE, 12)
    store.assert_not_called()
    assert rep.ok and rep.cases == 12


def test_verify_default_grid_at_depth_12():
    for ps, _ in verify_grid(DEFAULT_GRID):
        rep = verify_tuple(ps, 12)
        assert rep.ok, rep.failures
        assert rep.cases == 12


def test_verify_diagnostics_are_the_schedule_lints():
    linted = 0
    for depth in (6, 12):
        for ps, _ in verify_grid(DEFAULT_GRID):
            diagnostics = verify_tuple(ps, depth).diagnostics
            assert diagnostics == list(filtration_tables(ps, ps.N + depth).diagnostics)
            linted += bool(diagnostics)
    assert linted


def test_verify_tuple_needs_a_layer():
    for depth in (0, -1):
        with pytest.raises(ParameterError, match=r"^depth must be >= 1$"):
            verify_tuple(BASE, depth)


def test_verify_tuple_and_grid():
    rep = verify_tuple(BASE, depth=4)
    assert rep.ok and rep.cases == 4
    odd = verify_tuple(TowerParams(p=3, q=3, g=1, d=1, N=0, c=1), depth=3)
    assert odd.ok and odd.diagnostics  # fractional-break lints surface here
    grid = verify_grid(DEFAULT_GRID)
    assert len(grid) == 81
    assert all(depth == 6 for _, depth in grid)
    qs = {ps.q for ps, _ in grid}
    assert qs == {2, 3, 5}
