"""Alternating benchmark pairs of a past revision against the working tree.

    python scripts/pairs.py --against REV --workload W [--workload W2 ...]
        --pairs N [--pairs N2 ...] --seconds S [--seed SEED]
        [--change TEXT] [--out BENCH_name.json]

REV is exported with `git archive` and the working tree is copied, each
into its own fresh directory (src/, perfbench/, BENCHMARK.json and
pyproject.toml, no __pycache__).  For every workload, pair i runs
`perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0` once
in each tree, with the same seed on both sides, and the side that runs
first alternates from pair to pair (the change first in pair 0).  One
--pairs applies to every workload; otherwise give one per --workload.

The output file has the shape of the committed BENCH_*.json records:
per workload and side the number of runs, whether every run reported
`correct: true`, and the median and quartiles (statistics.quantiles,
method='inclusive') of each end-to-end metric of BENCHMARK.json; per
metric the pairs in which the change was better, worse or tied, in the
direction BENCHMARK.json gives; and every run with its result.

A run that exits non-zero is kept: its record holds the exit code and the
last line it wrote to stderr, its side's summary lists it under `failed`,
and the pairs it belongs to count as incomplete.  The script exits 1 if
any run failed and 0 otherwise.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "perfbench", "BENCHMARK.json", "pyproject.toml")


def end_to_end_metrics(bench: dict) -> dict:
    """{metric name: "lower" or "higher"} from a BENCHMARK.json object."""
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize_side(runs: list, metrics: dict) -> dict:
    """Runs, correctness, failed runs and median/q1/q3 per metric of one
    side's run records."""
    ok = [r for r in runs if r.get("result") is not None]
    out = {
        "runs": len(runs),
        "all_correct": len(ok) == len(runs) > 0 and all(r["result"]["correct"] for r in ok),
        "failed": [
            {"seed": r["seed"], "exit_code": r["exit_code"], "stderr": r["stderr"]}
            for r in runs
            if r.get("result") is None
        ],
    }
    for name in metrics:
        values = [r["result"]["metrics"][name]["value"] for r in ok]
        if not values:
            continue
        q1, median, q3 = _quartiles(values)
        out[f"{name}_median"] = round(median, 4)
        out[f"{name}_q1"] = round(q1, 4)
        out[f"{name}_q3"] = round(q3, 4)
    return out


def compare_pairs(runs: list, metrics: dict) -> dict:
    """Per metric: in how many pairs (same seed) the change was better,
    worse or tied, and how many pairs lack a result on either side."""
    by_seed: dict = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r.get("result")
    out = {}
    for name, better in metrics.items():
        counts = {"better": 0, "worse": 0, "tied": 0, "incomplete": 0}
        for pair in by_seed.values():
            parent, change = pair.get("parent"), pair.get("change")
            if parent is None or change is None:
                counts["incomplete"] += 1
                continue
            a = parent["metrics"][name]["value"]
            b = change["metrics"][name]["value"]
            if a == b:
                counts["tied"] += 1
            elif (b < a) == (better == "lower"):
                counts["better"] += 1
            else:
                counts["worse"] += 1
        text = f"{counts['better']} better, {counts['worse']} worse, {counts['tied']} tied"
        if counts["incomplete"]:
            text += f", {counts['incomplete']} incomplete"
        out[name] = f"{text} of {len(by_seed)} pairs"
    return out


def summarize(runs: list, metrics: dict) -> dict:
    """The `summary` object: per workload, both sides and the pair counts."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {
            "parent": summarize_side([r for r in mine if r["side"] == "parent"], metrics),
            "change": summarize_side([r for r in mine if r["side"] == "change"], metrics),
            "change_vs_parent_pairs": compare_pairs(mine, metrics),
        }
    return summary


def export_revision(rev: str, dest: Path) -> str:
    """Extract TREE of `rev` into dest with git archive; returns the commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit, *TREE], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return commit


def copy_working_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".perfbench-*", "*.pyc")
    for name in TREE:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result object, or its exit code and the last
    line of its stderr when it exits non-zero or prints no result."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"exit_code": proc.returncode}
    try:
        record["environment"] = json.loads(lines[0])["environment"]
        record["result"] = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError, KeyError):
        record["result"] = None
    if record["result"] is None:
        err = proc.stderr.strip().splitlines()
        record["stderr"] = err[-1] if err else ""
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the revision to compare with")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, action="append", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--change", default="", help="one line saying what the change does")
    parser.add_argument("--out", type=Path, default=Path("BENCH_pairs.json"))
    args = parser.parse_args(argv)
    if len(args.pairs) not in (1, len(args.workload)):
        parser.error("give one --pairs, or one per --workload")
    pairs = args.pairs * len(args.workload) if len(args.pairs) == 1 else args.pairs
    if min(pairs) < 1:
        parser.error("--pairs must be positive")
    metrics = end_to_end_metrics(json.loads((ROOT / "BENCHMARK.json").read_text()))

    runs, environment = [], None
    with tempfile.TemporaryDirectory(prefix="ramtower-pairs-") as tmp:
        parent_tree, change_tree = Path(tmp) / "parent", Path(tmp) / "change"
        parent_tree.mkdir()
        change_tree.mkdir()
        commit = export_revision(args.against, parent_tree)
        copy_working_tree(change_tree)
        seed = args.seed
        for workload, count in zip(args.workload, pairs):
            for i in range(count):
                order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
                for side in order:
                    tree = change_tree if side == "change" else parent_tree
                    record = run_once(tree, workload, seed, args.seconds)
                    environment = environment or record.pop("environment", None)
                    record.pop("environment", None)  # kept once, at the top
                    runs.append(
                        {"workload": workload, "seed": seed, "side": side,
                         "ran_first": side == order[0], **record}
                    )
                    status = "ok" if record["result"] is not None else (
                        f"exit {record['exit_code']}: {record['stderr']}"
                    )
                    print(f"pairs: {workload} seed {seed} {side}: {status}", file=sys.stderr)
                seed += 1

    counts = ", ".join(f"{n} for {w}" for w, n in zip(args.workload, pairs))
    report = {
        "workload": list(args.workload),
        "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
        f"--seconds {args.seconds:g} --trace 0",
        "parent_commit": commit,
        "change": args.change,
        "protocol": (
            f"scripts/pairs.py: pairs of runs, {counts}, "
            f"seeds from {args.seed} in that order, the same seed on both sides of a pair; "
            "the change runs first in even pairs; the parent tree from git archive, the change "
            "from a copy of the working tree, each with no __pycache__; quartiles by "
            "statistics.quantiles(method='inclusive')"
        ),
        "environment": environment,
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["summary"], indent=1))
    return 1 if any(r["result"] is None for r in runs) else 0


if __name__ == "__main__":
    raise SystemExit(main())
