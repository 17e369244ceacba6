"""Acceptance gate: eight go/no-go checks with hard runtime budgets.

Every comparison is exact — Fraction or finite-field equality, no floats,
no tolerances.  Each test prints a single PASS/FAIL line (visible under
pytest -s or in captured output on failure) and fails outright if its
runtime budget is blown.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ramtower.errors import GuardViolation
from ramtower.fastcheck import dense_associativity
from ramtower.formal import (
    atypical_module,
    check_group_law,
    check_pi_congruence,
    check_pi_congruence_universal,
    honda_module,
)
from ramtower.fq import fq_field
from ramtower.herbrand import (
    BreakFiltration,
    PiecewiseLinear,
    compose_tower,
    lower_to_upper,
    phi_from_filtration,
    upper_to_lower,
)
from ramtower.polygon import brute_force_hull, build_polygon, root_valuations
from ramtower.series import LaurentSeries
from ramtower.seriespoly import SeriesPoly
from ramtower.tate import closed_form_break, eisenstein_trinomial, tate_breaks
from ramtower.towers import (
    TowerParams,
    breaks_over_base,
    BottomLayer,
    character_breaks,
    filtration_tables,
    layer_break,
    norm_index,
    torsion_valuations,
    tower_upper_break,
    transition_to_base,
    upper_break_by_composition,
)


@contextmanager
def criterion(num: int, budget: float, label: str):
    t0 = time.monotonic()
    done = False
    try:
        yield
        dt = time.monotonic() - t0
        assert dt <= budget, f"criterion {num}: runtime {dt:.2f}s over the {budget}s budget"
        done = True
        print(f"criterion {num}: PASS — {label} [{dt:.2f}s]")
    finally:
        if not done:
            print(f"criterion {num}: FAIL — {label}")


def test_criterion_1_newton_polygon_oracle():
    with criterion(1, 10.0, "hull oracle on 1000 point sets; 200 planted multisets"):
        rng = random.Random(101)
        for _ in range(1000):
            n = rng.randint(1, 64)
            pts = [
                (rng.randint(0, 96), Fraction(rng.randint(-600, 600), rng.randint(1, 48)))
                for _ in range(n)
            ]
            assert build_polygon(pts) == brute_force_hull(pts)
        for case in range(200):
            q = rng.choice((2, 3, 4))
            p = 2 if q in (2, 4) else 3
            field = fq_field(p, 2 if q == 4 else 1)
            planted = []
            f = SeriesPoly(field, [LaurentSeries.one(field)])
            for _ in range(rng.randint(1, 6)):
                m = rng.randint(0, 9)
                u = rng.randrange(1, field.q)
                root = LaurentSeries.t_power(field, m, coeff=field.from_int(u))
                factor = SeriesPoly(field, [-root, LaurentSeries.one(field)])
                f = f * factor
                planted.append(m)
            got = []
            for val, mult in root_valuations(f):
                assert val.denominator == 1
                got.extend([int(val)] * mult)
            assert sorted(got) == sorted(planted)


def _random_filtration(rng: random.Random) -> BreakFiltration:
    k = rng.randint(1, 3)
    breaks = sorted(rng.sample(range(1, 40), k))
    drops = [rng.choice((2, 2, 3, 4)) for _ in range(k)]
    order = 1
    for d in drops:
        order *= d
    return BreakFiltration(order, tuple((Fraction(b), d) for b, d in zip(breaks, drops)))


def test_criterion_2_herbrand_suite():
    with criterion(2, 5.0, "phi/psi identities on 100 random 3-layer towers"):
        rng = random.Random(202)
        ident = PiecewiseLinear.identity()
        probes = [Fraction(n, 3) for n in (0, 1, 2, 5, 21, 100, 901)]
        for _ in range(100):
            layers = [_random_filtration(rng) for _ in range(3)]
            phis = [phi_from_filtration(lay) for lay in layers]
            tower = compose_tower(layers)
            assert tower.compose(tower.inverse()) == ident
            assert tower.inverse().compose(tower) == ident
            for x in probes:
                assert tower(x) == phis[0](phis[1](phis[2](x)))
            for lay in layers:
                assert upper_to_lower(lower_to_upper(lay)) == lay


def test_criterion_3_atypical_construction():
    with criterion(3, 60.0, "integral laws, bracket congruences, Honda brackets"):
        for p in (2, 3):
            for q in (p, p * p):
                D = q**3
                field = fq_field(p, 1 if q == p else 2)
                # builders verify pi-integrality of the law and [p] as they
                # assemble; reading .law forces the full check to degree D
                mod = atypical_module(p, q, values=(1, 2, 1), D=D)
                law = mod.law
                for i in (1, 2, 3):
                    assert check_pi_congruence(mod, i).ok
                    assert check_pi_congruence_universal(p, q, i).ok
                for h in (1, 2, 3):
                    honda = honda_module(p, q, h, D=max(D, q**h))
                    br = honda.bracket(p).reduce_mod_p(field)
                    assert br.coeffs == {q**h: field.one()}
                # group-law axioms to degree D, strategy by size
                if D <= 32:
                    assert check_group_law(law, method="exact").ok
                else:
                    base = check_group_law(law, method="skip")
                    assert base.unit_ok and base.commutative_ok
                    residue = law.reduce_mod_p(field)
                    if D <= 200:
                        ok, first = dense_associativity(residue)
                        assert ok, first
                    else:
                        rep = check_group_law(residue, method="sampled", seed=0, reps=2)
                        assert rep.ok, rep


def test_criterion_4_trinomial_breaks():
    with criterion(4, 30.0, "single Eisenstein-trinomial break == closed form"):
        for p in (2, 3, 5):
            for c in (1, 2, 3):
                result = tate_breaks(eisenstein_trinomial(fq_field(p), c))
                assert result.breaks == (Fraction(p * c, p - 1) - 1,)
                assert result.breaks == (closed_form_break(p, c),)


def test_criterion_5_break_schedule_cross_validation():
    with criterion(5, 20.0, "closed-form upper breaks == composed, full grid"):
        pairs = 0
        for q in (2, 3, 5):
            p = q
            for g in (1, 2, 3):
                for c in (1, 2, 3):
                    for N in (0, 1, 2):
                        ps = TowerParams(p=p, q=q, g=g, d=1, N=N, c=c)
                        for n in range(N + 1, N + 7):
                            w = tower_upper_break(ps, n)
                            assert w == upper_break_by_composition(ps, n)
                            b = layer_break(ps, n)
                            assert transition_to_base(ps, n).inverse()(w) == b
                            if n == N + 1:
                                assert w == b
                            pairs += 1
        assert pairs == 486
        spot = TowerParams(p=2, q=2, g=1, d=1, N=0, c=1)
        assert [tower_upper_break(spot, k) for k in (1, 2, 3)] == [3, 9, 21]


def test_criterion_6_torsion_traces():
    with criterion(6, 5.0, "torsion ratio law on 200 random valuation vectors"):
        rng = random.Random(606)
        for _ in range(200):
            q = rng.choice((2, 3, 4))
            g = rng.randint(1, 3)
            d = rng.randint(1, 4)
            a_vals = tuple(
                Fraction(rng.randint(1, 24), rng.choice((1, 2, 3))) for _ in range(d)
            )
            seed = torsion_valuations(a_vals, q=q, g=g, n_max=0)
            v0 = seed.valuations[0]
            bound = 1
            while any((q ** (bound * g)) * v < v0 for v in a_vals):
                bound += 1
            trace = torsion_valuations(a_vals, q=q, g=g, n_max=bound + 3)
            m = trace.m
            assert m is not None and m <= bound
            # m is the first single-segment step, and from m on the
            # valuations scale by exactly q^{-d}
            for step, poly in enumerate(trace.snapshots, start=1):
                assert (len(poly.vertices) == 2) == (step >= m)
            scale = Fraction(1, q**d)
            for i in range(m, len(trace.valuations)):
                assert trace.valuations[i] == trace.valuations[i - 1] * scale
        spot = torsion_valuations((1,), q=2, g=1, n_max=8)
        assert spot.m == 1
        assert spot.valuations == tuple(Fraction(1, 2**i) for i in range(9))


def test_criterion_7_character_schedule():
    with criterion(7, 1.0, "norm indices and the order-p^2 character break"):
        for g in range(1, 6):
            for n in range(1, 21):
                assert norm_index(n, g) == -(-n // g)
        ps = TowerParams(p=2, q=2, g=1, d=1, N=0, c=1)
        assert character_breaks(ps, 2) == (Fraction(9), 2)


def test_criterion_8_hypotheses_stay_inputs():
    # Galois-image openness/irreducibility are not desk-scale computable;
    # the stability level N is consumed as an input hypothesis, and the
    # library's whole obligation is to refuse or flag what it cannot know.
    with criterion(8, 5.0, "guards and lints around the input hypotheses"):
        ps = TowerParams(p=2, q=2, g=1, d=1, N=2, c=1)
        with pytest.raises(GuardViolation):
            layer_break(ps, 2)  # at or below the stability level
        with pytest.raises(GuardViolation):
            character_breaks(TowerParams(p=2, q=4, g=1, d=1, N=0, c=1), 1)
        with pytest.raises(GuardViolation):
            breaks_over_base(1, BottomLayer(e=2, u=1, l=1))
        # fractional lower breaks are linted, never silently corrected
        sched = filtration_tables(TowerParams(p=3, q=3, g=1, d=1, N=0, c=1), 2)
        assert any("not an integer" in d for d in sched.diagnostics)
        assert sched.lower == (Fraction(7, 2), Fraction(79, 2))
        # any asserted N is accepted without a Galois-image computation
        deep = TowerParams(p=2, q=2, g=1, d=1, N=7, c=1)
        assert tower_upper_break(deep, 8) == upper_break_by_composition(deep, 8)
