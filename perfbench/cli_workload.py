"""The cli workload: README commands, each a fresh `python -m ramtower.cli`.

Jobs run one at a time as subprocesses with PYTHONPATH=src, so interpreter
start, imports, argparse, the JSON report and the SVG writer are all in the
measured latency.  The traced variant runs the same command through
traced_cli.py, which installs the span wrappers inside the child and writes
its span summary to a file the parent reads back.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from subprocess import PIPE

from workloads import Job, Workload

PERFBENCH = Path(__file__).resolve().parent
ROUNDS = 10
COMMAND_TIMEOUT_S = 120

# (subcommand key, argv).  The eleven command lines shown in README.md,
# counting the optional --svg / --branch forms it documents; {tmp} is a
# temporary directory inside the checkout.
README_COMMANDS = (
    ("polygon", ["polygon", "--points", "0:3,1:1,2:1,4:0"]),
    ("polygon", ["polygon", "--points", "0:3,1:1,2:1,4:0", "--svg", "{tmp}/hull.svg"]),
    ("herbrand", ["herbrand", "--layer", "2:3:2", "--layer", "2:15:2", "--eval", "63"]),
    ("formal", ["formal", "--p", "2", "--q", "2", "--values", "1,2,1", "--check"]),
    # Exits 1 at the commit that defined this benchmark ("sampled check needs
    # finite-field coefficients"; auto/exact/dense fail too).  It stays in the
    # job list and counts as a failed operation.
    (
        "formal",
        ["formal", "--p", "3", "--q", "9", "--honda", "2", "--prec", "81", "--check",
         "--assoc", "sampled"],
    ),
    ("tate", ["tate", "--p", "2", "--poly", "t;t;1"]),
    ("tate", ["tate", "--p", "3", "--poly", "t;t^3;0;1"]),
    ("tate", ["tate", "--p", "2", "--field-ext", "2", "--poly", "t;t;0;0;1"]),
    (
        "tower_schedule",
        ["tower", "schedule", "--p", "2", "--q", "2", "--g", "1", "--d", "1", "--N", "0",
         "--c", "1", "--n", "3"],
    ),
    (
        "tower_torsion",
        ["tower", "torsion", "--vals", "1", "--q", "2", "--g", "1", "--nmax", "6",
         "--svg", "{tmp}/torsion.svg"],
    ),
    (
        "tower_torsion",
        ["tower", "torsion", "--vals", "1", "--q", "2", "--g", "1", "--nmax", "6",
         "--branch", "min"],
    ),
)
VERIFY_COMMANDS = tuple(
    ("verify", ["verify", "--grid", "default", "--depth", "6", "--jobs", str(jobs)])
    for jobs in (1, 2)
)


class CommandFailed(Exception):
    """The command exited with a non-zero code."""


class CliJob(Job):
    def __init__(self, key, argv, root: Path, tmp: Path, traced: bool, trace_sink: list, cpus):
        self.key = key
        self.argv = [a.replace("{tmp}", str(tmp)) for a in argv]
        # The run is pinned to one CPU; a command with a worker pool gets
        # every CPU the run was allowed.
        pool = "--jobs" in argv and argv[argv.index("--jobs") + 1] != "1"
        self.preexec = (lambda: os.sched_setaffinity(0, cpus)) if pool else None
        self.svg = next((Path(a) for a in self.argv if a.endswith(".svg")), None)
        self.root, self.tmp, self.traced, self.trace_sink = root, tmp, traced, trace_sink
        super().__init__("cli:" + " ".join(argv), self.run_command, self.canonical, self.check, True)

    def run_command(self):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        if self.traced:
            out_file = self.tmp / "spans.json"
            env["PERFBENCH_TRACE_OUT"] = str(out_file)
            cmd = [sys.executable, str(PERFBENCH / "traced_cli.py"), *self.argv]
        else:
            cmd = [sys.executable, "-m", "ramtower.cli", *self.argv]
        if self.svg is not None:
            self.svg.unlink(missing_ok=True)
        # own session, so a timeout also stops the command's pool workers
        with subprocess.Popen(
            cmd,
            cwd=self.root,
            env=env,
            stdout=PIPE,
            stderr=PIPE,
            start_new_session=True,
            preexec_fn=self.preexec,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        if self.traced:
            self.trace_sink.append(json.loads(out_file.read_text()))
            out_file.unlink()
        if proc.returncode != 0:
            try:
                error = json.loads(stdout)["payload"].get("error")
            except (ValueError, KeyError, AttributeError):
                error = stderr.decode(errors="replace").strip()[-200:]
            raise CommandFailed(f"exit {proc.returncode}: {error}")
        svg = self.svg.read_bytes() if self.svg is not None else b""
        return stdout, svg

    @staticmethod
    def canonical(out):
        stdout, svg = out
        return stdout.decode() + svg.decode()

    @staticmethod
    def check(out):
        stdout, _ = out
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON report"
        if set(report) != {"schema", "status", "payload", "diagnostics"}:
            return f"report keys {sorted(report)}"
        return None if report["status"] == "ok" else f"status {report['status']}"


def cli_workload(
    seed: int, root: Path, tmp: Path, traced: bool, trace_sink: list, cpus
) -> Workload:
    commands = [c for _ in range(ROUNDS) for c in README_COMMANDS] + list(VERIFY_COMMANDS)
    random.Random(seed).shuffle(commands)
    jobs = [CliJob(key, argv, root, tmp, traced, trace_sink, cpus) for key, argv in commands]
    inputs = {
        "seed": seed,
        "rounds": ROUNDS,
        "readme_commands": len(README_COMMANDS),
        "verify": "default grid, depth 6, --jobs 1 and --jobs 2",
        "invocations": len(jobs),
    }
    return Workload("cli", jobs, inputs)
