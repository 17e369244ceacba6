"""Mutation audit: does some test notice when the code is quietly wrong?

    python scripts/mutants.py

Each entry of MUTANTS replaces one exact piece of text, which must occur
exactly once in its file, by a plausible slip (a `<` for a `<=`, a widened
threshold, a guard that never fires).  For each mutant the script copies
the checkout into a temporary directory, patches the copy, and runs the
mutant's tests there with `python -m pytest -x`.  Failing tests kill the
mutant; passing tests let it survive, which shows a gap in the tests.  A
mutant that no test can kill because it does not change behaviour is kept
in the list with the reason, as equivalent, and is not run.

The tests are first run once on an unpatched copy, so a failure is the
mutant's and not the checkout's.  This is mutation testing in the sense of
DeMillo, Lipton and Sayward, "Hints on test data selection" (1978).  The
exit status is 0 when every mutant that was run was killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

Mutant = namedtuple("Mutant", "name path old new tests equivalent", defaults=(None,))

MUTANTS = [
    Mutant(
        "fft-rounding-threshold",
        "src/ramtower/fastcheck.py",
        "    if err > 0.01:\n",
        "    if err > 0.49:\n",
        ("tests/test_formal.py",),
    ),
    Mutant(
        "verify-upper-below-lower",
        "src/ramtower/towers.py",
        "            if not w < b:\n",
        "            if not w <= b:\n",
        ("tests/test_towers.py",),
    ),
    Mutant(
        "layer-chain-phi-at-the-break",
        "src/ramtower/towers.py",
        "            if x > b:\n",
        "            if x >= b:\n",
        ("tests/test_towers.py",),
        equivalent="at x = b the layer map gives b + (b - b)/q^g = b, the same as skipping it",
    ),
    Mutant(
        "bracket-linear-term-guard",
        "src/ramtower/formal.py",
        "    if lead != a:\n",
        "    if False:\n",
        ("tests/test_formal.py",),
    ),
    Mutant(
        "tate-hypothesis-comparison",
        "src/ramtower/tate.py",
        "            if vi < v1:\n",
        "            if vi <= v1:\n",
        ("tests/test_tate.py",),
    ),
    Mutant(
        "hull-orientation",
        "src/ramtower/polygon.py",
        "(n1 * d0 - n0 * d1) * d * (x - x0) >= (n * d0 - n0 * d) * d1 * (x1 - x0):\n",
        "(n1 * d0 - n0 * d1) * d * (x - x0) > (n * d0 - n0 * d) * d1 * (x1 - x0):\n",
        ("tests/test_polygon.py",),
    ),
    Mutant(
        "torsion-single-segment-step",
        "src/ramtower/towers.py",
        "            if len(poly.vertices) == 2:\n",
        "            if len(poly.vertices) <= 3:\n",
        ("tests/test_towers.py",),
    ),
    Mutant(
        "verify-first-layer-equality",
        "src/ramtower/towers.py",
        "        if n == N + 1 and b != w:\n",
        "        if n == N + 1 and b < w:\n",
        ("tests/test_towers.py",),
    ),
    Mutant(
        "ext-valuation-precision-guard",
        "src/ramtower/tate.py",
        "    if best >= bound:\n",
        "    if best > bound:\n",
        ("tests/test_tate.py",),
        equivalent="the terms n*v(c_k) + k and the bounds n*P + k' have distinct k < n, so "
        "they differ mod n and best never equals bound",
    ),
    Mutant(
        "filtration-drop-of-one",
        "src/ramtower/herbrand.py",
        "            if d < 2 or left % d:\n",
        "            if left % d:\n",
        ("tests/test_herbrand.py", "tests/test_records.py"),
    ),
    Mutant(
        "prime-test-small-factor",
        "src/ramtower/arith.py",
        "            return n == b\n",
        "            return True\n",
        ("tests/test_fq.py",),
    ),
    Mutant(
        "report-precision-exit-code",
        "src/ramtower/jsonio.py",
        "STATUS_PRECISION: 2}",
        "STATUS_PRECISION: 1}",
        ("tests/test_jsonio.py", "tests/test_cli.py", "tests/test_cli_contract.py"),
    ),
    Mutant(
        "cli-usage-error-exit-code",
        "src/ramtower/cli.py",
        '        print(f"ramtower: usage error: {e}", file=sys.stderr)\n        return 64\n',
        '        print(f"ramtower: usage error: {e}", file=sys.stderr)\n        return 1\n',
        ("tests/test_cli.py", "tests/test_cli_contract.py"),
    ),
    Mutant(
        "record-equality-drops-a-field",
        "src/ramtower/record.py",
        "        return self._values() == other._values()\n",
        "        return self._values()[1:] == other._values()[1:]\n",
        ("tests/test_records.py",),
    ),
    Mutant(
        "record-assignment-passes",
        "src/ramtower/record.py",
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        ("tests/test_records.py",),
    ),
]


def _copy_checkout(dest: Path) -> Path:
    repo = dest / "repo"
    shutil.copytree(
        ROOT,
        repo,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*"
        ),
    )
    return repo


def _run_tests(repo: Path, tests) -> str:
    """'passed', 'failed' or 'timeout' for `tests` run inside `repo`."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            cmd, cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return "passed"
    if proc.returncode in (1, 2):  # failing tests, or a collection error
        return "failed"
    raise RuntimeError(f"pytest exited {proc.returncode} on {' '.join(tests)}")


def run_mutant(mutant: Mutant) -> str:
    """'killed' or 'survived' (a timeout kills)."""
    with tempfile.TemporaryDirectory(prefix="ramtower-mutant-") as tmp:
        repo = _copy_checkout(Path(tmp))
        target = repo / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.name}: old text does not occur exactly once")
        target.write_text(text.replace(mutant.old, mutant.new))
        outcome = _run_tests(repo, mutant.tests)
    return "survived" if outcome == "passed" else "killed"


def main() -> int:
    selections = sorted({t for m in MUTANTS if not m.equivalent for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="ramtower-mutant-") as tmp:
        baseline = _run_tests(_copy_checkout(Path(tmp)), selections)
    if baseline != "passed":
        print(f"the unpatched checkout does not pass {' '.join(selections)}")
        return 1

    scores: dict[str, list[int]] = {}
    survivors = 0
    for m in MUTANTS:
        if m.equivalent:
            print(f"{'equivalent':10s} {m.name}: {m.equivalent}")
            continue
        start = time.perf_counter()
        outcome = run_mutant(m)
        elapsed = time.perf_counter() - start
        tests = " ".join(m.tests)
        print(f"{outcome:10s} {m.name} ({m.path}; {tests}; {elapsed:.1f} s)", flush=True)
        score = scores.setdefault(m.path, [0, 0])
        score[0] += outcome == "killed"
        score[1] += 1
        survivors += outcome == "survived"
    for path, (killed, total) in sorted(scores.items()):
        print(f"score {path}: {killed}/{total} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
