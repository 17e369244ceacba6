"""Command-line front end.

Six subcommands — polygon, herbrand, formal, tate, tower
{schedule,torsion}, verify — each with one spelling, all print a single
RunReport as JSON on stdout and use the exit-code contract

    0  ok
    1  domain error: a well-formed object fails a hypothesis (a guard, a
       non-Eisenstein polynomial); any other exception is reported the same
       way, with payload.kind naming its class
    2  insufficient precision
    64 usage error: malformed flags or literals (a series literal nested
       too deeply to parse is one), or a ParameterError (input that names
       no object, such as a non-prime p); empty stdout

`--svg PATH` on the polygon-producing commands additionally writes a
deterministic SVG rendering, before the report is printed: a write that
fails (an OSError) is the run's one fail report, and a run with no polygon
writes nothing and says so in its diagnostics.  RAMTOWER_PREC sets the
default series precision where one is needed.  `tower schedule --d` is
echoed in the schedule's params but read by no computation (see
towers.TowerParams).

Each run is a fresh process, so import time is part of every command's
latency.  The top level therefore loads only argparse, the errors, the
report envelope (jsonio), polygon (the hull and the rational helpers) and
the import-free record base they build on; records are plain `__slots__`
classes, so no command loads `inspect`.  Each handler imports what it runs:

    polygon          nothing more
    herbrand         herbrand
    formal           formal, fq and arith, plus fastcheck (and numpy) for
                     the dense and sampled associativity engines
    tate             tate, series, seriespoly, fq and arith
    tower, verify    towers and arith (import-free number helpers); towers
                     loads herbrand only for its composition cross-checks

multiprocessing is loaded only for a verify worker pool, and svg only when
--svg is given.  tests/test_imports.py pins these import sets.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InsufficientPrecision, ParameterError, RamtowerError
from .jsonio import STATUS_FAIL, STATUS_OK, STATUS_PRECISION, RunReport
from .polygon import build_polygon, format_rat, parse_rat

PREC_ENV = "RAMTOWER_PREC"

SMALL_GRID = {"q": (2, 3), "g": (1, 2), "c": (1, 2), "N": (0, 1), "depth": 4}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _int_at_least(low):
    """argparse type: an integer >= low; anything else is a usage error."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _default_prec(flag_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get(PREC_ENV)
    if env is None:
        return None
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as e:
        raise ParameterError(f"{PREC_ENV}: {e}")


def _parse_rat_arg(text, what):
    try:
        return parse_rat(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{what}: expected a rational like 7/2, got {text!r}")


# --- handlers; each returns (RunReport, polygon-or-None for --svg) ---------


def _cmd_polygon(args):
    pts = []
    for chunk in args.points.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            xs, ys = chunk.split(":")
        except ValueError:
            raise ParameterError('polygon --points wants "x:val,x:val,..."')
        x = _parse_rat_arg(xs, "abscissa")
        if x.denominator != 1:
            raise ParameterError(f"abscissas must be integers, got {xs.strip()!r}")
        pts.append((int(x), _parse_rat_arg(ys, "ordinate")))
    if not pts:
        raise ParameterError("polygon --points needs at least one point")
    poly = build_polygon(pts)
    return RunReport(STATUS_OK, poly.as_json()), poly


def _parse_layer(text):
    from .herbrand import BreakFiltration

    head, _, rest = text.partition(":")
    try:
        order = int(head)
    except ValueError:
        raise ParameterError('herbrand --layer wants "ORDER:BREAK:DROP[,BREAK:DROP...]"')
    breaks = []
    for pair in rest.split(","):
        bits = pair.split(":")
        if len(bits) != 2:
            raise ParameterError('herbrand --layer wants "ORDER:BREAK:DROP[,BREAK:DROP...]"')
        try:
            drop = int(bits[1])
        except ValueError:
            raise ParameterError(f"herbrand --layer: DROP must be an integer, got {bits[1]!r}")
        breaks.append((_parse_rat_arg(bits[0], "break"), drop))
    return BreakFiltration(order, tuple(breaks))


def _cmd_herbrand(args):
    from .herbrand import compose_tower

    layers = [_parse_layer(t) for t in args.layer]
    phi = compose_tower(layers)
    psi = phi.inverse()
    payload = {
        "layers": [f.as_json() for f in layers],
        "phi": phi.as_json(),
        "psi": psi.as_json(),
    }
    if args.eval:
        xs = [_parse_rat_arg(t, "--eval") for t in args.eval]
        payload["phi_values"] = [[format_rat(x), format_rat(phi(x))] for x in xs]
        payload["psi_values"] = [[format_rat(x), format_rat(psi(x))] for x in xs]
    return RunReport(STATUS_OK, payload), None


def _cmd_formal(args):
    from .formal import atypical_module, honda_module

    prec = _default_prec(args.prec)
    if args.honda is not None:
        module = honda_module(args.p, args.q, args.honda, D=prec)
    else:
        if not args.values:
            raise ParameterError("formal needs --values v1,v2,... or --honda H")
        values = [_parse_rat_arg(v, "--values") for v in args.values.split(",")]
        module = atypical_module(args.p, args.q, values, D=prec)
    payload = module.as_json()
    status = STATUS_OK
    if args.check:
        report, congruences = module.check(args.assoc)
        payload["group_law"] = report.as_json()
        payload["congruences"] = [c.as_json() for c in congruences]
        # a skipped associativity check is left open (report.ok is False),
        # not failed: only a check that ran and failed fails the run
        if report.first_failure is not None or not all(c.ok for c in congruences):
            status = STATUS_FAIL
    return RunReport(status, payload), None


def _cmd_tate(args):
    from .fq import fq_field
    from .seriespoly import SeriesPoly
    from .tate import EisensteinExtension, tate_breaks

    prec = _default_prec(args.prec)
    field = fq_field(args.p, args.field_ext)
    literals = [t for t in args.poly.split(";") if t.strip()]
    if len(literals) < 2:
        raise ParameterError(
            'tate --poly wants ascending-degree series literals separated by ";", '
            'e.g. "t; t^1*(1); 1"'
        )
    try:
        poly = SeriesPoly.from_literals(field, literals, default_prec=prec)
    except ValueError as e:
        raise ParameterError(f"bad series literal: {e}")
    ext = EisensteinExtension(poly)
    result = tate_breaks(ext)
    payload = result.as_json()
    diagnostics = []
    if not result.hypothesis.ok:
        diagnostics.append(
            "interior coefficient undercuts v(a_1); single-break reading not guaranteed"
        )
    return RunReport(STATUS_OK, payload, diagnostics), result.polygon


def _cmd_tower_schedule(args):
    from .towers import TowerParams, filtration_tables

    params = TowerParams(p=args.p, q=args.q, g=args.g, d=args.d, N=args.N, c=args.c)
    schedule = filtration_tables(params, args.n)
    return RunReport(STATUS_OK, schedule.as_json(), list(schedule.diagnostics)), None


def _cmd_tower_torsion(args):
    from .towers import torsion_valuations

    vals = [_parse_rat_arg(v, "--vals") for v in args.vals.split(",")]
    trace = torsion_valuations(vals, q=args.q, g=args.g, n_max=args.nmax, branch=args.branch)
    poly = trace.snapshots[-1] if trace.snapshots else None
    return RunReport(STATUS_OK, trace.as_json()), poly


def _run_tuple(job):
    from .towers import verify_tuple

    return verify_tuple(*job)


def _cmd_verify(args):
    from .towers import DEFAULT_GRID, verify_grid

    grid = {"default": DEFAULT_GRID, "small": SMALL_GRID}[args.grid]
    if args.depth is not None:
        grid = dict(grid, depth=args.depth)
    jobs = args.jobs
    tuples = verify_grid(grid)
    if jobs == 1:
        results = [_run_tuple(t) for t in tuples]
    else:
        from multiprocessing import get_context

        with get_context("fork").Pool(jobs) as pool:
            results = pool.map(_run_tuple, tuples)
    cases = sum(r.cases for r in results)
    failures = [f for r in results for f in r.failures]
    lints = [d for r in results for d in r.diagnostics]
    payload = {
        "grid": args.grid,
        "tuples": len(tuples),
        "cases": cases,
        "counterexamples": len(failures),
        "first_counterexample": failures[0] if failures else None,
        "jobs": jobs,
    }
    status = STATUS_FAIL if failures else STATUS_OK
    diagnostics = lints[:10] + (
        [f"... {len(lints) - 10} more lint lines"] if len(lints) > 10 else []
    )
    return RunReport(status, payload, diagnostics), None


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ramtower",
        description="Exact break schedules, Newton polygons and formal modules "
        "over local fields of characteristic p.",
        epilog=f"Environment: {PREC_ENV} sets the default series precision.",
    )
    sub = parser.add_subparsers(dest="subcommand")

    p_poly = sub.add_parser("polygon", help="lower convex hull of rational points")
    p_poly.add_argument(
        "--points", required=True, help='"x:val,x:val,..." — integer x, rational val'
    )
    p_poly.add_argument("--svg", help="also render the polygon to this file")
    p_poly.set_defaults(handler=_cmd_polygon)

    p_her = sub.add_parser("herbrand", help="compose transition functions of a tower")
    p_her.add_argument(
        "--layer",
        action="append",
        required=True,
        help='one layer "ORDER:BREAK:DROP[,BREAK:DROP...]", bottom layer first; repeatable',
    )
    p_her.add_argument("--eval", action="append", help="evaluate phi/psi here; repeatable")
    p_her.set_defaults(handler=_cmd_herbrand)

    p_for = sub.add_parser("formal", help="build a formal module and optionally check it")
    p_for.add_argument("--p", type=int, required=True)
    p_for.add_argument("--q", type=int, required=True)
    p_for.add_argument("--values", help="structural constants v_1,v_2,... (rationals)")
    p_for.add_argument(
        "--honda", type=_positive_int, help="height h: specialize to the Honda module"
    )
    p_for.add_argument("--prec", type=_positive_int, help="series truncation degree D")
    p_for.add_argument("--check", action="store_true", help="run group-law and congruence checks")
    p_for.add_argument(
        "--assoc",
        default="auto",
        choices=["auto", "exact", "dense", "sampled", "skip"],
        help="associativity strategy for --check",
    )
    p_for.set_defaults(handler=_cmd_formal)

    p_tate = sub.add_parser("tate", help="ramification-polygon breaks of an Eisenstein extension")
    p_tate.add_argument("--p", type=int, required=True)
    p_tate.add_argument(
        "--field-ext", type=_positive_int, default=1, help="residue extension degree m"
    )
    p_tate.add_argument(
        "--poly",
        required=True,
        help='ascending-degree coefficients as series literals separated by ";", '
        'e.g. "t; t^2*(1); 1" for x^2 + t^2 x + t',
    )
    p_tate.add_argument(
        "--prec", type=_positive_int, help="default precision for exact literals"
    )
    p_tate.add_argument("--svg", help="render the ramification polygon to this file")
    p_tate.set_defaults(handler=_cmd_tate)

    p_tower = sub.add_parser("tower", help="break schedules and torsion traces")
    tower_sub = p_tower.add_subparsers(dest="tower_command")

    p_sched = tower_sub.add_parser("schedule", help="lower/upper break schedule")
    for flag in ("p", "q", "g", "d", "N", "c"):
        p_sched.add_argument(f"--{flag}", type=int, required=True)
    p_sched.add_argument("--n", type=_positive_int, required=True)
    p_sched.set_defaults(handler=_cmd_tower_schedule)

    p_tors = tower_sub.add_parser("torsion", help="iterated torsion valuations")
    p_tors.add_argument("--vals", required=True, help="v(a_1),...,v(a_d) as rationals")
    p_tors.add_argument("--q", type=int, required=True)
    p_tors.add_argument("--g", type=_positive_int, required=True)
    p_tors.add_argument("--nmax", type=_int_at_least(0), required=True)
    p_tors.add_argument("--branch", default="max", choices=["max", "min"])
    p_tors.add_argument("--svg", help="render the last step's polygon to this file")
    p_tors.set_defaults(handler=_cmd_tower_torsion)

    p_ver = sub.add_parser("verify", help="cross-validate the closed forms")
    p_ver.add_argument("--grid", default="default", choices=["default", "small"])
    p_ver.add_argument("--depth", type=_positive_int, help="layers per tuple (overrides grid)")
    p_ver.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes; the default 1 runs the grid in this process",
    )
    p_ver.set_defaults(handler=_cmd_verify)
    return parser


def _write_svg(path, poly, report):
    """Render `poly` to `path`, or say in the report that there is none."""
    if poly is None:
        report.diagnostics.append(f"no SVG written to {path}: this run has no polygon")
        return
    from .svg import render_svg

    text = render_svg(poly)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return 64
    try:
        report, poly = args.handler(args)
        if getattr(args, "svg", None) is not None:
            _write_svg(args.svg, poly, report)
    except ParameterError as e:
        print(f"ramtower: usage error: {e}", file=sys.stderr)
        return 64
    except InsufficientPrecision as e:
        report, poly = RunReport(STATUS_PRECISION, {"error": str(e)}), None
    except Exception as e:
        # domain errors, an unwritable --svg path, and as a last resort
        # anything else, get one fail report; an unexpected one also leaves
        # its traceback on stderr
        if not isinstance(e, (RamtowerError, ValueError, OSError)):
            import traceback  # here, so that commands do not pay for its import

            traceback.print_exc()
        report, poly = (
            RunReport(STATUS_FAIL, {"error": str(e), "kind": type(e).__name__}),
            None,
        )
    try:
        print(report.dumps())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`); send what is still
        # buffered to devnull so the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
