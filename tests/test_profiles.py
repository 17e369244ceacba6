"""Tier-1 is reproducible: under the default hypothesis profile `tier1`
(tests/conftest.py) a property test draws the same examples on every run."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROPERTY_TEST = "tests/test_fq.py::test_ring_axioms"


def test_two_runs_draw_the_same_examples():
    # two runs side by side, each printing the examples it tries (hypothesis
    # at verbose verbosity), in order
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
        "--hypothesis-verbosity=verbose", PROPERTY_TEST,
    ]
    runs = [
        subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    draws = []
    for run in runs:
        out, _ = run.communicate(timeout=300)
        assert run.returncode == 0, out[-2000:]
        draws.append(re.findall(r"Trying example: .*?\n\)", out, re.S))
    assert len(draws[0]) >= 100
    assert draws[0] == draws[1]
