"""ramtower benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload {formal,tate,towers,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a ramtower checkout; the library is imported from
./src and nowhere else.  The run repeats passes over the workload's fixed
job list for about S seconds, one job at a time (a closed loop with one
client), and checks every output against golden.json and the oracles.

The run is pinned to one CPU.  While an untraced pass or a set-up is timed,
a timer signal runs a fixed piece of stdlib-only work (ref_chunk) on that
CPU every 10 ms and times it, to follow the machine's speed, which on a
shared host drifts by tens of percent over minutes; the chunks are taken
out of the timed calls.  The end-to-end times are rescaled to the nominal
speed (REF_NOMINAL_S per chunk): a pass or a set-up that took t seconds
while a chunk took r seconds (trimmed mean) reports t * REF_NOMINAL_S / r.

--trace 0 prints the end-to-end metrics: wall_norm_s (median rescaled pass
time: the sum of the timed calls of one pass), setup_s (median rescaled
time from a fresh interpreter to ready), peak_rss_mb and ops_ok_frac.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics read from the spans, the measured pass time and chunk time, the
tracing overhead, the share of the pass the root spans cover, and on cli
the command latency percentiles.

Standard output carries one JSON line with the environment and the inputs,
then the result object as its last line.  Metric names, units and the
workloads are listed in BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
WORKLOADS = ("formal", "tate", "towers", "cli")
SUBCOMMANDS = ("polygon", "herbrand", "formal", "tate", "tower_schedule", "tower_torsion", "verify")
SETUP_REPEATS = 11
# Speed sampling: one reference chunk every REF_PERIOD_S of wall time; a
# chunk takes REF_NOMINAL_S at the nominal speed.
REF_NOMINAL_S = 1e-3
REF_PERIOD_S = 0.01
# What each workload needs before its first job: the modules it imports and,
# where it uses them, numpy (through fastcheck) and the finite-field tables.
SETUP_CODE = {
    "formal": "import ramtower.formal, ramtower.fastcheck\n"
    "from ramtower.fq import fq_field\n"
    "for p, m in ((2, 1), (3, 1), (2, 2), (3, 2)): fq_field(p, m)",
    "tate": "import ramtower.tate\n"
    "from ramtower.fq import fq_field\n"
    "for p, m in ((2, 1), (3, 1), (2, 2), (5, 1)): fq_field(p, m)",
    "towers": "import ramtower.towers, ramtower.jsonio, ramtower.svg",
    "cli": "import ramtower.cli",
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "PYTHONHASHSEED",
)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed on stdout."""


# ---------------------------------------------------------------------------
# checking


class Checker:
    """Counts attempted and failed jobs.  A job fails when it raises or
    exits non-zero, or when its output differs from the golden value or is
    refused by its oracle; the last two also make the run incorrect.  An
    output already verified for a job id is recognised by its digest."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.verified = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []

    def record(self, job, out, exc):
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            self.errors.append(f"{job.id}: {type(exc).__name__}: {exc}")
            return
        text = job.canon(out)
        digest = sha256(text.encode()).hexdigest()
        if self.verified.get(job.id) == digest:
            return
        reason = None
        if job.golden:
            if job.id not in self.golden:
                reason = "no golden value recorded"
            elif self.golden[job.id] not in (None, digest):
                reason = "output differs from the golden value"
        if reason is None and job.oracle is not None:
            reason = job.oracle(out)
        if reason is not None:
            self.failed += 1
            self.wrong.append(f"{job.id}: {reason}")
            return
        self.verified[job.id] = digest


# ---------------------------------------------------------------------------
# machine speed


def ref_chunk() -> int:
    """About 1 ms of work like ramtower's and none of its code: a product of
    small polynomials mod 13, dict updates, big-integer and Fraction
    arithmetic."""
    a = [(i * 7 + 3) % 13 for i in range(60)]
    b = [(i * 5 + 1) % 13 for i in range(60)]
    c = [0] * 119
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] = (c[i + j] + x * y) % 13
    d = {}
    for k in range(400):
        d[k % 37, k % 11] = d.get((k % 37, k % 11), 0) + k
    n, m = 3**400, 7**380
    for _ in range(30):
        n = n * m % (2**1500 + 1)
    f = Fraction(0)
    for k in range(1, 40):
        f += Fraction(k, k + 1)
    return c[5] + len(d) + n % 97 + f.numerator % 5


class Speedometer:
    """Samples the speed of the CPU the run is pinned to while it is
    running: between `start` and `stop` a timer signal runs ref_chunk in
    the main thread every REF_PERIOD_S, between two bytecodes of whatever
    runs, and records its CPU time (a command the run waits for shares the
    CPU and may hold it while a chunk runs; CPU time leaves that out).
    `spent` is the total wall time in chunks, which the callers subtract
    from what they time.  `scale(mark)` takes a time measured while the
    chunks from index `mark` on were sampled to the nominal speed, by their
    mean without the fastest and the slowest twentieth (a mean follows the
    slow spells the jobs also sat through better than a median; the trim
    drops the rare chunk an interrupt lands in)."""

    def __init__(self):
        self.chunks = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t, cpu = time.perf_counter(), time.thread_time()
        ref_chunk()
        self.chunks.append(time.thread_time() - cpu)
        self.spent += time.perf_counter() - t
        if collecting:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, mark) -> float:
        chunks = sorted(self.chunks[mark:])
        cut = len(chunks) // 20
        return REF_NOMINAL_S / statistics.fmean(chunks[cut : len(chunks) - cut])


def pin_to_one_cpu() -> set:
    """Pin this process (and the children it starts) to the CPU it runs
    on, so that jobs and speed samples share it; returns the CPUs allowed
    before."""
    allowed = os.sched_getaffinity(0)
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})
    return allowed


@dataclass
class Pass:
    wall_s: float  # as measured
    norm_s: float  # rescaled to the nominal speed
    latencies: list  # (job, seconds)
    summary: dict = field(default_factory=dict)  # span summary, traced passes


def run_pass(jobs, checker, meter=None) -> Pass:
    """One pass over the jobs.  With a speedometer the chunks it runs are
    taken out of each job's time and the pass is also rescaled; without,
    the rescaled time is left equal to the measured one."""
    latencies = []
    clock = time.perf_counter
    if meter is not None:
        mark = len(meter.chunks)
        meter.start()
    try:
        for job in jobs:
            exc = out = None
            spent = meter.spent if meter is not None else 0.0
            start = clock()
            try:
                out = job.run()
            except Exception as e:  # a job that raises is a failed operation
                exc = e
            dt = clock() - start
            if meter is not None:
                dt -= meter.spent - spent
            latencies.append((job, dt))
            checker.record(job, out, exc)
    finally:
        if meter is not None:
            meter.stop()
    wall = sum(dt for _, dt in latencies)
    return Pass(wall, wall * meter.scale(mark) if meter is not None else wall, latencies)


def run_passes(seconds, run_untraced, run_traced=None):
    """Repeat passes while the next one is expected (from the median pass so
    far) to end no more than half a pass after `seconds`; at least one pass
    runs.  With a traced runner the passes alternate untraced, traced, ...
    and at least one of each runs."""
    untraced, traced, durations = [], [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        if run_traced is not None and len(traced) < len(untraced):
            traced.append(run_traced())
        else:
            untraced.append(run_untraced())
        durations.append(time.perf_counter() - begin)
        if run_traced is not None and not traced:
            continue
        if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return untraced, traced


# ---------------------------------------------------------------------------
# environment and set-up


def environment() -> dict:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    return {
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg": list(os.getloadavg()),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def measure_setup(workload, meter) -> float:
    """Median time from starting a fresh interpreter to it reporting ready,
    rescaled to the nominal speed by the chunks sampled meanwhile."""
    code = SETUP_CODE[workload] + "\nprint('ready', flush=True)\n"
    times = []
    for _ in range(SETUP_REPEATS):
        mark = len(meter.chunks)
        meter.start()
        try:
            spent = meter.spent
            start = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, "-c", code], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE
            ) as proc:
                line = proc.stdout.readline()
                ready = time.perf_counter() - start - (meter.spent - spent)
                proc.stdout.read()
        finally:
            meter.stop()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"set-up of {workload} failed (exit {proc.returncode})")
        times.append(ready * meter.scale(mark))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics


def percentile(values, pct):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[pct - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def typical_latencies(untraced):
    """Every invocation of the untraced passes, each taken at the median
    latency of its job over the run.  A percentile that falls between two
    jobs then reads their medians, not the extremes of their repetitions."""
    by_job = defaultdict(list)
    for p in untraced:
        for job, dt in p.latencies:
            by_job[job.id].append(dt)
    typical = {job_id: statistics.median(dts) for job_id, dts in by_job.items()}
    return [typical[job.id] for p in untraced for job, _ in p.latencies]


def end_to_end(untraced, checker, setup_s, peak_rss_mb):
    return {
        "wall_norm_s": metric(statistics.median(p.norm_s for p in untraced), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ops_ok_frac": metric((checker.attempted - checker.failed) / checker.attempted, "frac"),
    }


def _calls(name):
    return lambda s: s["calls"].get(name, 0), "count"


def _self(name):
    return lambda s: s["self_s"].get(name, 0.0), "s"


def _total(name):
    return lambda s: s["total_s"].get(name, 0.0), "s"


def _size(key, unit):
    return lambda s: s["sizes"].get(key, 0), unit


def _peak(key, unit):
    return lambda s: s["peaks"].get(key, 0), unit


# Per-layer metrics read from one traced pass's span summary.
LAYER_METRICS = {
    "polygon.build_polygon.calls": _calls("polygon.build_polygon"),
    "polygon.build_polygon.self_s": _self("polygon.build_polygon"),
    "polygon.build_polygon.points": _size("polygon.points", "count"),
    "herbrand.compose_tower.calls": _calls("herbrand.compose_tower"),
    "herbrand.compose_tower.self_s": _self("herbrand.compose_tower"),
    "herbrand.breakpoints": _size("herbrand.breakpoints", "count"),
    "towers.verify_tuple.self_s": _self("towers.verify_tuple"),
    "towers.transition_to_base.calls": _calls("towers.transition_to_base"),
    "towers.transition_to_base.self_s": _self("towers.transition_to_base"),
    "towers.torsion_valuations.self_s": _self("towers.torsion_valuations"),
    "seriespoly.resultant.calls": _calls("seriespoly.resultant"),
    "seriespoly.resultant.self_s": _self("seriespoly.resultant"),
    "seriespoly.sylvester_dim_max": _peak("seriespoly.sylvester_dim", "count"),
    "tate.ramification_polynomial.self_s": _self("tate.ramification_polynomial"),
    "tate.ext_valuation.calls": _calls("tate.ext_valuation"),
    "tate.tate_breaks.self_s": _self("tate.tate_breaks"),
    "formal.atypical_module.self_s": _self("formal.atypical_module"),
    "formal.law.s": _total("formal.law"),
    "formal.law.terms": _size("formal.law.terms", "count"),
    "formal.law.max_bits": _peak("formal.law.max_bits", "bits"),
    "formal.bracket.self_s": _self("formal.bracket"),
    "formal.check_pi_congruence.self_s": _self("formal.check_pi_congruence"),
    "formal.reduce_mod_p.s": _total("formal.reduce_mod_p"),
    "fastcheck.dense_associativity.self_s": _self("fastcheck.dense_associativity"),
    "fastcheck.dense.grid_cells": _size("fastcheck.dense.grid_cells", "count"),
    "fastcheck.sampled_associativity.self_s": _self("fastcheck.sampled_associativity"),
    "fastcheck.sampled.false_pass_bound": _peak("fastcheck.sampled.false_pass_bound", "prob"),
    "jsonio.dumps.self_s": _self("jsonio.dumps"),
    "jsonio.dumps.bytes": _size("jsonio.dumps.bytes", "bytes"),
    "svg.render_svg.self_s": _self("svg.render_svg"),
    "svg.render_svg.bytes": _size("svg.render_svg.bytes", "bytes"),
    "trace.spans": (lambda s: s["spans"], "count"),
}


def merge_summaries(summaries):
    """Fold the span summaries of several processes into one."""
    out = {"calls": {}, "total_s": {}, "self_s": {}, "top_s": 0.0, "spans": 0}
    out.update(sizes={}, peaks={})
    for s in summaries:
        for key in ("calls", "total_s", "self_s", "sizes"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for name, v in s["peaks"].items():
            out["peaks"][name] = max(out["peaks"].get(name, v), v)
        out["top_s"] += s["top_s"]
        out["spans"] += s["spans"]
    return out


def per_layer(untraced, traced, cli, meter):
    metrics = {}
    for name, (read, unit) in LAYER_METRICS.items():
        metrics[name] = metric(statistics.median(read(p.summary) for p in traced), unit)
    metrics["pass.wall_s"] = metric(statistics.median(p.wall_s for p in untraced), "s")
    metrics["pass.ref_chunk_ms"] = metric(REF_NOMINAL_S / meter.scale(0) * 1e3, "ms")
    base = statistics.median(p.wall_s for p in untraced)
    slow = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_frac"] = metric(slow / base - 1, "frac")
    metrics["trace.coverage_frac"] = metric(
        statistics.median(p.summary["top_s"] / p.wall_s for p in traced), "frac"
    )
    # command latencies, from the untraced passes of a cli run
    lat = typical_latencies(untraced) if cli else []
    for pct in (50, 90):
        metrics[f"cli.cmd_p{pct}_ms"] = metric(percentile(lat, pct) * 1e3 if cli else 0.0, "ms")
    for sub in SUBCOMMANDS:
        lat = [dt for p in untraced for job, dt in p.latencies if cli and job.key == sub]
        metrics[f"cli.{sub}.p50_ms"] = metric(statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    return metrics


# ---------------------------------------------------------------------------
# workloads


def measure(args, tmp: Path, cpus: set):
    import spans
    import workloads
    from cli_workload import cli_workload

    golden = json.loads((PERFBENCH / "golden.json").read_text())
    checker = Checker(golden)
    meter = Speedometer()
    if args.workload == "cli":
        sink = []
        plain = cli_workload(args.seed, ROOT, tmp, False, sink, cpus)
        traced_jobs = cli_workload(args.seed, ROOT, tmp, True, sink, cpus).jobs

        def run_traced():
            sink.clear()
            p = run_pass(traced_jobs, checker)
            p.summary = merge_summaries(sink)
            return p

    else:
        plain = workloads.BUILDERS[args.workload](args.seed)
        tracer = spans.Tracer()

        def run_traced():
            tracer.reset()
            spans.install(tracer)
            try:
                p = run_pass(plain.jobs, checker)
            finally:
                spans.uninstall(tracer)
            p.summary = tracer.summary()
            return p

    print(json.dumps({"environment": environment(), "inputs": plain.inputs}), flush=True)

    untraced, traced = run_passes(
        args.seconds,
        lambda: run_pass(plain.jobs, checker, meter),
        run_traced if args.trace else None,
    )
    if args.trace:
        metrics = per_layer(untraced, traced, args.workload == "cli", meter)
    else:
        own = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        )
        setup_s = measure_setup(args.workload, meter)
        metrics = end_to_end(untraced, checker, setup_s, own.ru_maxrss / 1024)
    walls = ", ".join(f"{p.wall_s:.3f} ({p.norm_s:.3f})" for p in untraced)
    print(f"perfbench: untraced pass times (rescaled) [{walls}] s", file=sys.stderr)
    for line, count in Counter(checker.wrong + checker.errors).items():
        print(f"perfbench: {line} (x{count})", file=sys.stderr)
    return {
        "correct": not checker.wrong,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def declared_metrics(trace: bool) -> set:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ramtower" / "__init__.py").is_file():
        print(f"perfbench: no ramtower sources under {src}", file=sys.stderr)
        return 2
    cpus = pin_to_one_cpu()
    sys.path.insert(0, str(src))
    import ramtower

    if Path(ramtower.__file__).resolve().parent != (src / "ramtower").resolve():
        print(f"perfbench: ramtower imported from {ramtower.__file__}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = measure(args, tmp, cpus)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    missing = declared_metrics(bool(args.trace)) ^ set(result["metrics"])
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
