"""Smoke test of the scripts in scripts/: each README command runs in a fresh
interpreter against src/ and prints something, so a deletion in the library
cannot break a script unnoticed."""

import importlib.util
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
