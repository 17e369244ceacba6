"""Smoke test of the scripts in scripts/: each README command runs in a fresh
interpreter against src/ and prints something, so a deletion in the library
cannot break a script unnoticed."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        "print_break_tables.py --p 2 --q 2 --g 1 --N 1 --c 1 --n 4",
        "torsion_explorer.py --count 20 --seed 7",
        "code_lines.py",
    ],
)
def test_readme_script_command_runs(argv):
    script, *args = argv.split()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = (
        '"""Module\ndocstring."""\n\n# a comment\nx = """a string, not a docstring"""\n\n'
        'def f():\n    """Docstring."""\n    return x  # trailing comment\n'
    )
    assert code_lines.code_lines(source) == 3


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "scripts" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def _run(workload, seed, side, wall=None, rss=40.0, correct=True, exit_code=0):
    record = {"workload": workload, "seed": seed, "side": side, "ran_first": side == "change"}
    if wall is None:
        return {**record, "exit_code": exit_code, "stderr": "ValueError: boom", "result": None}
    metrics = {"wall_norm_s": {"value": wall}, "peak_rss_mb": {"value": rss}}
    result = {"correct": correct, "metrics": metrics}
    return {**record, "exit_code": 0, "result": result}


def test_pairs_summary_on_canned_numbers():
    pairs = _load_pairs()
    metrics = {"wall_norm_s": "lower", "peak_rss_mb": "lower"}
    runs = []
    for seed, (parent, change) in enumerate([(1.0, 0.8), (1.2, 0.9), (0.9, 0.95), (1.1, 1.1)]):
        runs.append(_run("towers", seed, "change", change))
        runs.append(_run("towers", seed, "parent", parent, 41.0))
    summary = pairs.summarize(runs, metrics)["towers"]
    # parent walls 0.9, 1.0, 1.1, 1.2: inclusive quartiles 0.975, 1.05, 1.125
    assert summary["parent"] == {
        "runs": 4, "all_correct": True, "failed": [],
        "wall_norm_s_median": 1.05, "wall_norm_s_q1": 0.975, "wall_norm_s_q3": 1.125,
        "peak_rss_mb_median": 41.0, "peak_rss_mb_q1": 41.0, "peak_rss_mb_q3": 41.0,
    }
    assert summary["change"]["wall_norm_s_median"] == 0.925
    assert summary["change_vs_parent_pairs"] == {
        "wall_norm_s": "2 better, 1 worse, 1 tied of 4 pairs",
        "peak_rss_mb": "4 better, 0 worse, 0 tied of 4 pairs",
    }
    # "higher is better" turns the counts round
    flipped = pairs.compare_pairs(runs, {"wall_norm_s": "higher"})
    assert flipped == {"wall_norm_s": "1 better, 2 worse, 1 tied of 4 pairs"}


def test_pairs_keeps_a_failed_run():
    pairs = _load_pairs()
    metrics = {"wall_norm_s": "lower"}
    runs = [
        _run("tate", 5, "change", exit_code=1),
        _run("tate", 5, "parent", 0.03),
        _run("tate", 6, "parent", 0.04),
        _run("tate", 6, "change", 0.02, correct=False),
    ]
    summary = pairs.summarize(runs, metrics)["tate"]
    assert summary["change"]["runs"] == 2 and not summary["change"]["all_correct"]
    failed = {"seed": 5, "exit_code": 1, "stderr": "ValueError: boom"}
    assert summary["change"]["failed"] == [failed]
    assert summary["change"]["wall_norm_s_median"] == 0.02
    assert summary["parent"]["all_correct"] and summary["parent"]["failed"] == []
    assert summary["change_vs_parent_pairs"] == {
        "wall_norm_s": "1 better, 0 worse, 0 tied, 1 incomplete of 2 pairs"
    }


def test_pairs_reads_the_metric_directions_of_the_benchmark():
    pairs = _load_pairs()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = pairs.end_to_end_metrics(bench)
    assert directions["wall_norm_s"] == "lower" and directions["ops_ok_frac"] == "higher"
