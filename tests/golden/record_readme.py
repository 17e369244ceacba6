"""Record the expected output of the README commands pinned in README_CASES.

    PYTHONPATH=src python tests/golden/record_readme.py

Run it from the root of a checkout whose output is trusted: it runs each
command in process through `ramtower.cli.main`, with RAMTOWER_PREC unset,
and writes its stdout to tests/golden/<name>.out and its exit code to
tests/golden/readme.json.  `tests/test_cli.py` compares against both.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
README_CASES = {
    "formal_values": ["formal", "--p", "2", "--q", "2", "--values", "1,2,1", "--check"],
    "formal_honda_sampled": [
        "formal", "--p", "3", "--q", "9", "--honda", "2", "--prec", "81",
        "--check", "--assoc", "sampled",
    ],
}


def run(argv):
    """(exit code, stdout) of `ramtower <argv>`, in process."""
    from ramtower.cli import PREC_ENV, main

    os.environ.pop(PREC_ENV, None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def main():
    manifest = {}
    for name, argv in README_CASES.items():
        code, stdout = run(argv)
        (GOLDEN / f"{name}.out").write_text(stdout)
        manifest[name] = {"argv": argv, "exit": code}
    (GOLDEN / "readme.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
