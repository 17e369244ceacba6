"""Job lists of the in-process workloads, built from a seed.

A job is one user-visible unit of work: `run` is the timed call chain into
ramtower, `canon` turns its output into canonical text (untimed), `oracle`
checks the output against an independent reading of the mathematics, and
`golden` marks jobs whose inputs do not depend on the seed, so their
canonical output is also compared with the value recorded at the commit
that defined the benchmark (golden.json, written by record_golden.py).
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from ramtower.errors import InsufficientPrecision
from ramtower.formal import (
    atypical_module,
    check_group_law,
    check_pi_congruence,
    check_pi_congruence_universal,
    honda_module,
)
from ramtower.fq import fq_field
from ramtower.herbrand import BreakFiltration, compose_tower, phi_from_filtration
from ramtower.jsonio import STATUS_FAIL, STATUS_OK, RunReport
from ramtower.polygon import brute_force_hull, build_polygon
from ramtower.seriespoly import SeriesPoly
from ramtower.svg import render_svg
from ramtower.tate import (
    EisensteinExtension,
    closed_form_break,
    eisenstein_trinomial,
    tate_breaks,
)
from ramtower.towers import (
    DEFAULT_GRID,
    filtration_tables,
    torsion_valuations,
    upper_break_by_composition,
    verify_grid,
    verify_tuple,
)


@dataclass
class Job:
    id: str
    run: Callable[[], Any]
    canon: Callable[[Any], str]
    oracle: Callable[[Any], str | None] | None = None
    golden: bool = False


@dataclass
class Workload:
    name: str
    jobs: list
    inputs: dict = field(default_factory=dict)  # seed and cost-driving sizes


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report_text(payload, ok=True) -> str:
    return RunReport(STATUS_OK if ok else STATUS_FAIL, payload).dumps()


# ---------------------------------------------------------------------------
# formal: law assembly, brackets, congruences and the associativity engines


FORMAL_VALUES = (1, 2, 1)
# (p, q, D, criterion-3 rung).  The criterion-3 rungs also carry the Honda
# brackets h = 1..3 and the universal congruences i = 1..3 of their (p, q).
# q = 9 runs at D = 243 instead of 729: law assembly alone takes about 21 s
# at D = 729, longer than one run may last.  The extra rung (2, 2, 64) is
# the one where the inverse logarithm (Lagrange enumeration) dominates
# rather than law assembly.
FORMAL_RUNGS = (
    (2, 2, 8, True),
    (3, 3, 27, True),
    (2, 4, 64, True),
    (3, 9, 243, True),
    (2, 2, 64, False),
)


def _field_of(p, q):
    return fq_field(p, round(math.log(q, p)))


def assoc_engine(D):
    return "exact" if D <= 32 else "dense" if D <= 200 else "sampled"


def _rung_job(p, q, D, criterion, seed):
    field_ = _field_of(p, q)
    method = assoc_engine(D)
    levels = tuple(i for i in (1, 2, 3) if q**i <= D)
    extras = (1, 2, 3) if criterion else ()

    def run():
        mod = atypical_module(p, q, FORMAL_VALUES, D=D)
        law = mod.law
        brackets = (mod.bracket(p), mod.bracket(p + 1))
        congruences = tuple(check_pi_congruence(mod, i) for i in levels)
        residue = law.reduce_mod_p(field_)
        if method == "exact":
            group = check_group_law(law, method="exact")
        else:
            group = check_group_law(residue, method=method, seed=seed, reps=2)
        honda = tuple(
            honda_module(p, q, h, D=max(q**3, q**h)).bracket(p).reduce_mod_p(field_)
            for h in extras
        )
        universal = tuple(check_pi_congruence_universal(p, q, i) for i in extras)
        return law, brackets, congruences, residue, group, honda, universal

    def canon(out):
        law, brackets, congruences, residue, group, honda, universal = out
        return _dumps(
            {
                "law": law.as_json(),
                "brackets": [b.as_json() for b in brackets],
                "congruences": [[c.ok, c.i, c.ideal_exponent] for c in congruences],
                "residue": residue.as_json(),
                "group": [group.unit_ok, group.commutative_ok, group.associative_ok],
                "method": group.method,
                "honda": [b.as_json() for b in honda],
                "universal": [[c.ok, c.i, c.ideal_exponent] for c in universal],
            }
        )

    def oracle(out):
        _, brackets, congruences, _, group, honda, universal = out
        bad = [c.i for c in congruences + universal if not c.ok]
        if bad:
            return f"[p] congruence fails at i={bad}"
        if not group.ok:
            return f"group law check failed: {group.first_failure}"
        for a, br in zip((p, p + 1), brackets):
            if br.coeff(1) != a:
                return f"[{a}] has linear term {br.coeff(1)}"
        for h, br in zip(extras, honda):
            if br.coeffs != {q**h: field_.one()}:
                return f"[p] of the height-{h} Honda module is not T^(q^{h}) mod p"
        return None

    return Job(f"formal:rung:{p},{q},{D}", run, canon, oracle, golden=True)


def formal_workload(seed: int) -> Workload:
    # check_group_law imports fastcheck on first use; import it now so the
    # traced run can wrap its engines from the first pass
    import ramtower.fastcheck  # noqa: F401

    jobs = [_rung_job(p, q, D, criterion, seed) for p, q, D, criterion in FORMAL_RUNGS]
    random.Random(seed).shuffle(jobs)
    inputs = {
        "seed": seed,
        "values": list(FORMAL_VALUES),
        "rungs": [
            {"p": p, "q": q, "D": D, "assoc": assoc_engine(D), "honda_and_universal": c}
            for p, q, D, c in FORMAL_RUNGS
        ],
        "honda_h": [1, 2, 3],
        "universal_i": [1, 2, 3],
        "sampled_seed": seed,
    }
    return Workload("formal", jobs, inputs)


# ---------------------------------------------------------------------------
# tate: ramification polygons of Eisenstein polynomials


TATE_FIELDS = ((2, 1), (3, 1), (2, 2))
TATE_DEGREES = (2, 3, 4, 5, 6)
DENSE_TERMS = 3  # every coefficient t^v·(c0 + c1·t + c2·t^2), all c_k units
PRECISION = "InsufficientPrecision"


def _dense_literals(rng, q, n):
    """Seeded dense Eisenstein polynomial: literals a_0..a_n and v(a_j).

    The interior valuations are a seeded arrangement of the fixed multiset
    1, 2, 3, 1, 2, ..., so the series sizes that drive the resultant cost
    are the same for every seed while the polygon shape is not."""
    interior = [1 + j % 3 for j in range(n - 1)]
    rng.shuffle(interior)
    vals = [1] + interior
    lits = []
    for v in vals:
        digits = [rng.randrange(1, q) for _ in range(DENSE_TERMS)]
        inner = " + ".join(f"{c}*t^{k}" for k, c in enumerate(digits))
        lits.append(f"t^{v}*({inner})")
    lits.append("1")
    return lits, vals + [0]


def ramification_points(vals, p):
    """Greve–Pauli reading of the ramification polygon of an Eisenstein
    polynomial with exact coefficients: the terms C(j,i)·a_j·alpha^j of b_i
    have distinct valuations n·v(a_j) + j mod n, so v_L(b_i) is their
    minimum over j >= i with C(j,i) != 0 mod p.  Returns (i, v_L(b_i) - n)."""
    n = len(vals) - 1
    pts = []
    for i in range(1, n + 1):
        cands = [n * vals[j] + j for j in range(i, n + 1) if math.comb(j, i) % p]
        if cands:
            pts.append((i, min(cands) - n))
    return pts


def hull_breaks(points, n):
    """y-intercepts of the negative-slope sides of the brute-force hull of
    (i, v/n), ascending."""
    hull = brute_force_hull([(i, Fraction(v, n)) for i, v in points]).vertices
    out = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        slope = Fraction(y1 - y0, x1 - x0)
        if slope < 0:
            out.append(y0 - slope * x0)
    return tuple(sorted(out))


def _tate_run(field_, lits):
    def run():
        poly = SeriesPoly.from_literals(field_, lits)
        return tate_breaks(EisensteinExtension(poly))

    return run


def _dense_job(n, rng):
    """One seeded dense polynomial of degree n over each of the fields."""
    polys = []
    for p, m in TATE_FIELDS:
        field_ = fq_field(p, m)
        lits, vals = _dense_literals(rng, field_.q, n)
        polys.append((field_, vals, _tate_run(field_, lits)))

    def run():
        return [tate() for _, _, tate in polys]

    def oracle(results):
        for (field_, vals, _), res in zip(polys, results):
            want = ramification_points(vals, field_.p)
            where = f"F_{field_.q}, degree {n}"
            if list(res.points) != want:
                return f"{where}: points {list(res.points)} != Greve-Pauli reading {want}"
            if res.breaks != hull_breaks(want, n):
                return f"{where}: breaks {res.breaks} != brute-force hull {hull_breaks(want, n)}"
        return None

    return Job(
        f"tate:dense:n{n}", run, lambda out: _dumps([r.as_json() for r in out]), oracle
    )


def _trinomials_job():
    """The nine trinomials of criterion 4 as one job."""
    cases = [(p, c) for p in (2, 3, 5) for c in (1, 2, 3)]

    def run():
        return [tate_breaks(eisenstein_trinomial(fq_field(p), c)) for p, c in cases]

    def oracle(results):
        for (p, c), res in zip(cases, results):
            want = (closed_form_break(p, c),)
            if res.breaks != want:
                return f"p={p} c={c}: breaks {res.breaks} != closed form {want}"
        return None

    return Job(
        "tate:trinomials", run, lambda out: _dumps([r.as_json() for r in out]), oracle, True
    )


def _precision_job(rng):
    """Per field, two dense polynomials with one interior coefficient known
    only to O(t^P): its valuation is undetermined, so every answer must be a
    refusal."""
    runs = []
    for p, m in TATE_FIELDS:
        field_ = fq_field(p, m)
        for _ in range(2):
            n = rng.randint(2, 4)
            lits, _ = _dense_literals(rng, field_.q, n)
            lits[rng.randint(1, n - 1)] = f"O(t^{rng.randint(2, 6)})"
            runs.append(_tate_run(field_, lits))

    def run():
        out = []
        for tate in runs:
            try:
                tate()
            except InsufficientPrecision:
                out.append(PRECISION)
            else:
                out.append("answered")
        return out

    def oracle(out):
        return None if set(out) == {PRECISION} else "undetermined valuation was not refused"

    return Job("tate:precision", run, _dumps, oracle)


def tate_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = [_trinomials_job(), _precision_job(rng)]
    jobs += [_dense_job(n, rng) for n in TATE_DEGREES]
    rng.shuffle(jobs)
    inputs = {
        "seed": seed,
        "fields": [f"F_{p**m}" for p, m in TATE_FIELDS],
        "dense_degrees": list(TATE_DEGREES),
        "dense_terms_per_coefficient": DENSE_TERMS,
        "trinomials": 9,
        "precision_cases": 2 * len(TATE_FIELDS),
    }
    return Workload("tate", jobs, inputs)


# ---------------------------------------------------------------------------
# towers: verify grid, schedules, torsion traces, Herbrand chains, one big hull


VERIFY_DEPTH = 12
SCHEDULE_N = 30
TORSION_TRACES = 200
TORSION_NMAX = 30
COMPOSE_CHAINS = 100
HULL_POINTS = 100_000


def _verify_job(params, depth):
    def run():
        rep = verify_tuple(params, depth)
        return _report_text(rep.as_json(), rep.ok)

    def oracle(text):
        payload = json.loads(text)["payload"]
        if not payload["ok"] or payload["cases"] != depth:
            return f"verify_tuple reported {payload['failures'][:1]}"
        return None

    return Job(f"towers:verify:{_params_id(params)}", run, str, oracle, True)


def _params_id(ps):
    return f"q{ps.q}g{ps.g}c{ps.c}N{ps.N}"


def _schedule_job(params):
    n = params.N + SCHEDULE_N

    def run():
        sched = filtration_tables(params, n)
        return sched, _report_text(sched.as_json())

    def oracle(out):
        sched, _ = out
        # the closed-form upper breaks against Herbrand composition, first layers
        for idx, k in enumerate(range(params.N + 1, params.N + 7)):
            if sched.upper[idx] != upper_break_by_composition(params, k):
                return f"upper break at layer {k} disagrees with composition"
        return None

    return Job(
        f"towers:schedule:{_params_id(params)}", run, lambda out: out[1], oracle, True
    )


def _torsion_job(k, rng):
    q = rng.choice((2, 3, 5))
    g = rng.randint(1, 2)
    a_vals = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    branch = rng.choice(("max", "min"))

    def run():
        trace = torsion_valuations(a_vals, q=q, g=g, n_max=TORSION_NMAX, branch=branch)
        return trace, _report_text(trace.as_json()), render_svg(trace.snapshots[-1])

    def oracle(out):
        trace, text, svg = out
        if json.loads(text)["payload"] != trace.as_json():
            return "JSON payload does not round-trip"
        if render_svg(trace.snapshots[-1]) != svg:
            return "SVG is not byte-stable"
        d = len(a_vals)
        pick = 0 if branch == "max" else -1
        top = (q**d, Fraction(0))
        base = [(q ** (j - 1), v) for j, v in enumerate(a_vals, 1)] + [top]
        prev = -brute_force_hull(base).sides[pick].slope
        if trace.valuations[0] != prev:
            return "initial valuation is not the chosen root valuation"
        for i, snap in enumerate(trace.snapshots, start=1):
            twist = q ** (i * g)
            pts = [(0, prev)] + [(q ** (j - 1), twist * v) for j, v in enumerate(a_vals, 1)]
            pts.append(top)
            if brute_force_hull(pts).vertices != snap.vertices:
                return f"step {i} polygon differs from the brute-force hull"
            prev = -snap.sides[pick].slope
            if trace.valuations[i] != prev:
                return f"step {i} valuation is not the {branch} root valuation"
        return None

    return Job(f"towers:torsion:{k}", run, lambda out: out[1] + out[2], oracle)


def _random_filtration(rng):
    order = rng.choice((2, 3, 4, 6, 8, 9))
    drops = []
    left = order
    while left > 1:
        d = rng.choice([d for d in range(2, left + 1) if left % d == 0])
        drops.append(d)
        left //= d
        if rng.random() < 0.5:
            break
    breaks = []
    b = Fraction(0)
    for d in drops:
        b += Fraction(rng.randint(1, 30), rng.randint(1, 3))
        breaks.append((b, d))
    return BreakFiltration(order, tuple(breaks))


def _compose_job(k, rng):
    filts = [_random_filtration(rng) for _ in range(3)]
    probes = [Fraction(rng.randint(0, 400), rng.randint(1, 7)) for _ in range(8)]

    def run():
        phi = compose_tower(filts)
        psi = phi.inverse()
        payload = {"layers": [f.as_json() for f in filts], "phi": phi.as_json(), "psi": psi.as_json()}
        return phi, psi, _report_text(payload)

    def oracle(out):
        phi, psi, _ = out
        layers = [phi_from_filtration(f) for f in filts]
        for x in probes + [x for x, _ in phi.breakpoints]:
            y = x
            for layer in reversed(layers):
                y = layer(y)
            if phi(x) != y:
                return f"phi({x}) != layer-by-layer value {y}"
            if psi(phi(x)) != x:
                return f"psi(phi({x})) != {x}"
        return None

    return Job(f"towers:compose:{k}", run, lambda out: out[2], oracle)


def check_lower_hull(points, vertices):
    """Independent test that `vertices` is the lower convex hull of `points`:
    it runs from the lowest point at the least abscissa to the greatest
    abscissa, its slopes strictly increase, and no point lies below it."""
    best = {}
    for x, y in points:
        if x not in best or y < best[x]:
            best[x] = y
    xs = sorted(best)
    if vertices[0] != (xs[0], best[xs[0]]) or vertices[-1] != (xs[-1], best[xs[-1]]):
        return "hull does not span the point set"
    if any(best.get(x) != y for x, y in vertices):
        return "hull vertex is not a lowest input point"
    slopes = [
        Fraction(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])
    ]
    if any(a >= b for a, b in zip(slopes, slopes[1:])):
        return "hull slopes do not strictly increase"
    vx = [x for x, _ in vertices]
    for x, y in best.items():
        s = min(max(bisect.bisect_right(vx, x) - 1, 0), len(vertices) - 2)
        (x0, y0), (x1, y1) = vertices[s], vertices[s + 1]
        if y * (x1 - x0) < y0 * (x1 - x) + y1 * (x - x0):
            return f"point ({x}, {y}) lies below the hull"
    return None


def _hull_job(rng):
    pts = [
        (rng.randrange(HULL_POINTS), Fraction(rng.randrange(10**6), rng.randint(1, 50)))
        for _ in range(HULL_POINTS)
    ]

    def run():
        poly = build_polygon(pts)
        return poly, _report_text(poly.as_json()), render_svg(poly)

    def oracle(out):
        poly, _, svg = out
        if render_svg(poly) != svg:
            return "SVG is not byte-stable"
        return check_lower_hull(pts, poly.vertices)

    return Job("towers:hull", run, lambda out: out[1] + out[2], oracle)


def towers_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    grid = verify_grid(dict(DEFAULT_GRID, depth=VERIFY_DEPTH))
    jobs = [_verify_job(params, depth) for params, depth in grid]
    jobs += [_schedule_job(params) for params, _ in grid]
    jobs += [_torsion_job(k, rng) for k in range(TORSION_TRACES)]
    jobs += [_compose_job(k, rng) for k in range(COMPOSE_CHAINS)]
    jobs.append(_hull_job(rng))
    rng.shuffle(jobs)
    inputs = {
        "seed": seed,
        "verify_tuples": len(grid),
        "verify_depth": VERIFY_DEPTH,
        "schedule_n": SCHEDULE_N,
        "torsion_traces": TORSION_TRACES,
        "torsion_n_max": TORSION_NMAX,
        "compose_chains": COMPOSE_CHAINS,
        "compose_layers": 3,
        "hull_points": HULL_POINTS,
    }
    return Workload("towers", jobs, inputs)


BUILDERS = {"formal": formal_workload, "tate": tate_workload, "towers": towers_workload}
